"""Toy-action graph weights, the truncated vacuum expansion and an
independent Gaussian oracle.

A theory is a finite color set, an invertible symmetric metric g_{ab} and
symmetric interaction tensors C_{a1..ak}, all with exact rational entries.
The expansion sums lambda^(E-V) * weight / |Aut| over isomorphism classes
of tail-free graphs whose valences carry tensors; the weight of a class is

    w = sum over flag colorings of  prod_edges g^{color pair}
                                  * prod_vertices C_{colors at the vertex}.

The oracle never touches graphs: it expands exp(S_1 / lambda) in the
interaction tensors and evaluates every Gaussian moment as a sum over Wick
pairings with propagator lambda * g^{ab}.  Pairings are aggregated by the
color multiset of the remaining slots (interchangeable slots collapse into
counts), which is exact; the literal pairing enumeration cross-checks it in
the tests.  Both routes drop orders outside [0, N]; theories with valence
1 or 2 tensors generate such orders and unbounded fixed-order families, so
they additionally require an explicit vertex cap applied to both routes.

Everything here is exact rational arithmetic; no floats anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from typing import Optional

from .graphs import (
    Graph,
    GraphError,
    _automorphism_order_unbounded,
    enumerate_vacuum_graphs,
    euler_characteristic,
)


@lru_cache(maxsize=64)
def _vacuum_classes(max_order: int, valences: tuple, max_vertices, budget: int):
    """Classes with their symmetry factors; theory-independent, so cached."""
    classes = enumerate_vacuum_graphs(max_order, valences, max_vertices, budget)
    return tuple((g, _automorphism_order_unbounded(g)) for g in classes)


class TheoryError(ValueError):
    pass


def invert_matrix(rows: tuple) -> tuple:
    """Exact inverse by Gauss-Jordan elimination; raises if singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise TheoryError("metric is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@dataclass(frozen=True)
class Theory:
    """Color count, metric g_{ab} and symmetric tensors keyed by valence."""

    n_colors: int
    metric: tuple                       # n x n Fractions, symmetric
    tensors: tuple                      # ((valence, ((sorted idx tuple, coeff), ...)), ...)

    @classmethod
    def build(cls, n_colors: int, metric, tensors: dict) -> "Theory":
        """`tensors` maps valence -> {index tuple: coefficient}; indices are
        canonicalized by sorting (the tensors are symmetric)."""
        m = tuple(tuple(Fraction(x) for x in row) for row in metric)
        if len(m) != n_colors or any(len(r) != n_colors for r in m):
            raise TheoryError("metric must be n_colors x n_colors")
        for i in range(n_colors):
            for j in range(n_colors):
                if m[i][j] != m[j][i]:
                    raise TheoryError("metric must be symmetric")
        canon = []
        for valence, entries in sorted(tensors.items()):
            if valence < 1:
                raise TheoryError("tensor valences must be >= 1")
            merged: dict = {}
            for idx, coeff in entries.items():
                idx = tuple(sorted(idx))
                if len(idx) != valence:
                    raise TheoryError(f"index {idx} has wrong valence")
                if any(not 0 <= i < n_colors for i in idx):
                    raise TheoryError(f"index {idx} outside color range")
                merged[idx] = merged.get(idx, Fraction(0)) + Fraction(coeff)
            kept = tuple(sorted((k, v) for k, v in merged.items() if v != 0))
            if kept:
                canon.append((valence, kept))
        return cls(n_colors, m, tuple(canon))

    @property
    def metric_inverse(self) -> tuple:
        return invert_matrix(self.metric)

    def tensor(self, valence: int) -> dict:
        for k, entries in self.tensors:
            if k == valence:
                return dict(entries)
        return {}

    def valences(self) -> list[int]:
        return [k for k, _ in self.tensors]

    @classmethod
    def single_color(cls, metric: Fraction = Fraction(1), **couplings) -> "Theory":
        """One-color shorthand: single_color(c3=Fraction(1,2), c4=2)."""
        tensors = {}
        for name, value in couplings.items():
            if not name.startswith("c"):
                raise TheoryError(f"unknown coupling {name!r}")
            k = int(name[1:])
            tensors[k] = {tuple([0] * k): Fraction(value)}
        return cls.build(1, ((Fraction(metric),),), tensors)


@dataclass(frozen=True)
class LambdaSeries:
    """Exact coefficients of lambda^0 .. lambda^N."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def matching_order(self, other: "LambdaSeries") -> int:
        """Largest order through which the two series agree (-1 if none)."""
        n = min(self.order, other.order)
        for i in range(n + 1):
            if self.coeffs[i] != other.coeffs[i]:
                return i - 1
        return n

    def to_json(self) -> str:
        return json.dumps([str(c) for c in self.coeffs])

    @classmethod
    def from_json(cls, text: str) -> "LambdaSeries":
        return cls(tuple(Fraction(s) for s in json.loads(text)))

    def pretty(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                parts.append(str(c))
            elif c != 0:
                parts.append(f"({c})*L^{i}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# weights and the graph expansion
# ---------------------------------------------------------------------------

def graph_weight(g: Graph, theory: Theory) -> Fraction:
    """Sum over all flag colorings of the edge/vertex factor product."""
    if g.tails():
        raise GraphError("weights are defined for tail-free graphs")
    g_inv = theory.metric_inverse
    tensors = {k: theory.tensor(k) for k in set(g.valence(v) for v in range(g.n_vertices))}
    edges = g.edges()
    vertex_flags = [g.flags_at(v) for v in range(g.n_vertices)]
    total = Fraction(0)
    for coloring in product(range(theory.n_colors), repeat=g.n_flags):
        term = Fraction(1)
        for f1, f2 in edges:
            term *= g_inv[coloring[f1]][coloring[f2]]
            if not term:
                break
        else:
            for flags in vertex_flags:
                idx = tuple(sorted(coloring[f] for f in flags))
                coeff = tensors[len(idx)].get(idx)
                if not coeff:
                    term = Fraction(0)
                    break
                term *= coeff
        total += term
    return total


def graph_expansion(theory: Theory, order: int,
                    max_vertices: Optional[int] = None,
                    budget: int = 200_000) -> LambdaSeries:
    """Sum lambda^(E-V) * weight / |Aut| over tail-free classes."""
    coeffs = [Fraction(0)] * (order + 1)
    valences = tuple(theory.valences())
    for g, aut in _vacuum_classes(order, valences, max_vertices, budget):
        n = -euler_characteristic(g)
        if not 0 <= n <= order:
            continue
        w = graph_weight(g, theory)
        if w:
            coeffs[n] += w / aut
    return LambdaSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# Gaussian oracle
# ---------------------------------------------------------------------------

def wick_pairing_sum(counts: tuple, g_inv: tuple, memo: dict) -> Fraction:
    """Sum over perfect pairings of a color multiset, with g^{ab} per pair.

    counts[c] = number of slots of color c.  Slots of one color are
    interchangeable, so the recursion runs on counts: pair the first open
    slot with every partner class and recurse.
    """
    if counts in memo:
        return memo[counts]
    total_slots = sum(counts)
    if total_slots == 0:
        return Fraction(1)
    if total_slots % 2:
        return Fraction(0)
    a = next(c for c, e in enumerate(counts) if e)
    total = Fraction(0)
    for b, e in enumerate(counts):
        if b == a:
            if e >= 2:
                rest = list(counts)
                rest[a] -= 2
                total += (e - 1) * g_inv[a][a] * wick_pairing_sum(tuple(rest), g_inv, memo)
        elif e:
            rest = list(counts)
            rest[a] -= 1
            rest[b] -= 1
            total += e * g_inv[a][b] * wick_pairing_sum(tuple(rest), g_inv, memo)
    memo[counts] = total
    return total


def wick_pairings_naive(colors: tuple, g_inv: tuple) -> Fraction:
    """Literal enumeration of all (M-1)!! pairings; test-scale cross-check."""
    if not colors:
        return Fraction(1)
    if len(colors) % 2:
        return Fraction(0)
    first, rest = colors[0], colors[1:]
    total = Fraction(0)
    for i in range(len(rest)):
        total += g_inv[first][rest[i]] * wick_pairings_naive(
            rest[:i] + rest[i + 1 :], g_inv
        )
    return total


def gaussian_oracle(theory: Theory, order: int,
                    max_vertices: Optional[int] = None,
                    max_colors: int = 4) -> LambdaSeries:
    """exp(S_1/lambda) expanded term-wise against Gaussian moments.

    Independent of the graphs module: each product of p interaction
    vertices contributes

        (1/p!) * prod_i C_{alpha_i} / sym(alpha_i) * lambda^(M/2 - p)
              * (pairing sum of the combined color multiset),

    where sym(alpha) is the product of color-multiplicity factorials and
    M the total slot count.  Orders outside [0, N] are dropped to match
    the expansion's truncation window.
    """
    if theory.n_colors > max_colors:
        raise TheoryError(
            f"{theory.n_colors} colors exceed the oracle budget {max_colors}"
        )
    options = []
    for valence, entries in theory.tensors:
        for idx, coeff in entries:
            sym = Fraction(1)
            for c in set(idx):
                sym *= factorial(idx.count(c))
            options.append((valence, idx, coeff / sym))
    if max_vertices is None:
        if options and min(k for k, _, _ in options) <= 2:
            raise TheoryError(
                "valences <= 2 make vertex counts unbounded; pass max_vertices"
            )
        max_vertices = 2 * order
    g_inv = theory.metric_inverse
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)  # the empty product
    memo: dict = {}
    p_fact = 1
    for p in range(1, max_vertices + 1):
        p_fact *= p
        for combo in product(options, repeat=p):
            slots = sum(k for k, _, _ in combo)
            if slots % 2:
                continue
            n = slots // 2 - p
            if not 0 <= n <= order:
                continue
            counts = [0] * theory.n_colors
            factor = Fraction(1, p_fact)
            for _, idx, coeff in combo:
                factor *= coeff
                for c in idx:
                    counts[c] += 1
            moment = wick_pairing_sum(tuple(counts), g_inv, memo)
            if moment:
                coeffs[n] += factor * moment
    return LambdaSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def theory_to_json(theory: Theory) -> str:
    doc = {
        "colors": theory.n_colors,
        "metric": [[str(x) for x in row] for row in theory.metric],
        "tensors": [
            {"indices": list(idx), "value": str(coeff)}
            for _, entries in theory.tensors
            for idx, coeff in entries
        ],
    }
    return json.dumps(doc, indent=1)


def theory_from_json(text: str) -> Theory:
    doc = json.loads(text)
    tensors: dict = {}
    for entry in doc["tensors"]:
        idx = tuple(entry["indices"])
        tensors.setdefault(len(idx), {})[idx] = Fraction(entry["value"])
    metric = [[Fraction(x) for x in row] for row in doc["metric"]]
    return Theory.build(doc["colors"], metric, tensors)
