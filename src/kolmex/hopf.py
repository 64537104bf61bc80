"""The bialgebra of oriented graphs with the cut coproduct.

Generators are canonical labels of *connected* oriented graphs; monomials
are multisets of generators (sorted label tuples), so the algebra is the
free commutative algebra on the generators with the empty multiset as
unit.  The coproduct of a generator sums upper x lower over all cuts of a
representative (both improper cuts included, giving tau x 1 + 1 x tau),
decomposing each side into its connected components; it extends
multiplicatively to monomials and linearly throughout.

Grading is by total flag count, which both halves of a cut split exactly
(severed halves stay with their side as tails).  Bare vertices have degree
zero, so the degree-zero component is not one-dimensional; the antipode
recursion therefore inducts on vertex count, which every proper cut
strictly decreases, and the antipode law is verified exhaustively in the
tests, bare vertices included.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from .graphs import (
    Graph,
    MultigraphData,
    _induced_with_severed_tails,
    _min_serialization,
    enumerate_cuts,
    graph_from_label,
    multigraph_data,
)

Monomial = tuple  # sorted tuple of generator labels
UNIT_MONOMIAL: Monomial = ()


class HopfError(ValueError):
    pass


@lru_cache(maxsize=None)
def generator_graph(label: str) -> Graph:
    return graph_from_label(label)


@lru_cache(maxsize=None)
def generator_degree(label: str) -> int:
    return generator_graph(label).n_flags


@lru_cache(maxsize=None)
def generator_vertices(label: str) -> int:
    return generator_graph(label).n_vertices


def monomial_degree(mono: Monomial) -> int:
    return sum(generator_degree(l) for l in mono)


def monomial_vertices(mono: Monomial) -> int:
    return sum(generator_vertices(l) for l in mono)


def monomial_of_graph(g: Graph) -> Monomial:
    """Connected-component decomposition as a sorted label tuple."""
    if g.orientation is None:
        raise HopfError("the flowchart algebra takes oriented graphs")
    labels = []
    for comp in g.connected_components():
        piece = _induced_with_severed_tails(g, comp)
        labels.append(_min_serialization(multigraph_data(piece)))
    return tuple(sorted(labels))


class HopfElement:
    """Finite rational combination of monomials; zero coefficients pruned."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {
            m: Fraction(c) for m, c in (terms or {}).items() if c
        }

    @classmethod
    def unit(cls) -> "HopfElement":
        return cls({UNIT_MONOMIAL: Fraction(1)})

    @classmethod
    def generator(cls, label: str) -> "HopfElement":
        return cls({(label,): Fraction(1)})

    @classmethod
    def of_graph(cls, g: Graph) -> "HopfElement":
        return cls({monomial_of_graph(g): Fraction(1)})

    def __add__(self, other: "HopfElement") -> "HopfElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return HopfElement(out)

    def __sub__(self, other: "HopfElement") -> "HopfElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "HopfElement":
        scalar = Fraction(scalar)
        return HopfElement({m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other: "HopfElement") -> "HopfElement":
        """Bilinear extension of multiset union."""
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(sorted(m1 + m2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return HopfElement(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, HopfElement) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def counit(self) -> Fraction:
        return self.terms.get(UNIT_MONOMIAL, Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = [f"({c})*{list(m) or 1}" for m, c in sorted(self.terms.items())]
        return "<" + " + ".join(bits) + ">"


ZERO = HopfElement()


# ---------------------------------------------------------------------------
# coproduct
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def coproduct_of_generator(label: str) -> tuple:
    """Cut coproduct of one generator as ((monoL, monoR, coeff), ...)."""
    rep = generator_graph(label)
    acc: dict = {}
    for cut in enumerate_cuts(rep):
        key = (monomial_of_graph(cut.upper_graph), monomial_of_graph(cut.lower_graph))
        acc[key] = acc.get(key, 0) + 1
    return tuple(
        (l, r, Fraction(c)) for (l, r), c in sorted(acc.items())
    )


def coproduct_of_monomial(mono: Monomial) -> dict:
    """Multiplicative extension: Delta(m1 m2 ...) = Delta(m1) Delta(m2) ..."""
    out = {(UNIT_MONOMIAL, UNIT_MONOMIAL): Fraction(1)}
    for label in mono:
        nxt: dict = {}
        for (accL, accR), c in out.items():
            for gl, gr, gc in coproduct_of_generator(label):
                key = (tuple(sorted(accL + gl)), tuple(sorted(accR + gr)))
                nxt[key] = nxt.get(key, Fraction(0)) + c * gc
        out = nxt
    return out


def coproduct(elem: HopfElement) -> dict:
    """Linear extension; the result maps (monoL, monoR) to coefficients."""
    out: dict = {}
    for mono, coeff in elem.terms.items():
        for key, c in coproduct_of_monomial(mono).items():
            out[key] = out.get(key, Fraction(0)) + coeff * c
            if not out[key]:
                del out[key]
    return out


def reduced_coproduct_of_monomial(mono: Monomial) -> dict:
    """Delta minus x (x) 1 and 1 (x) x; empty on the unit and on primitives."""
    out = dict(coproduct_of_monomial(mono))
    for key in [(mono, UNIT_MONOMIAL), (UNIT_MONOMIAL, mono)]:
        if key in out:
            out[key] -= 1
            if not out[key]:
                del out[key]
    return out


def is_primitive(label: str) -> bool:
    return not reduced_coproduct_of_monomial((label,))


# ---------------------------------------------------------------------------
# antipode
# ---------------------------------------------------------------------------

def antipode(elem: HopfElement) -> HopfElement:
    """S(1) = 1 and S(x) = -x - sum S(x') x'' over the reduced coproduct.

    The recursion inducts on vertex count (every proper cut puts at least
    one vertex on each side), so it terminates for every element, including
    degree-zero bare vertices.  The memo lives only for this call.
    """
    memo: dict = {}
    out = ZERO
    for mono, coeff in elem.terms.items():
        out = out + coeff * _antipode_monomial(mono, memo)
    return out


def _antipode_monomial(mono: Monomial, memo: dict) -> HopfElement:
    if mono == UNIT_MONOMIAL:
        return HopfElement.unit()
    if mono in memo:
        return memo[mono]
    acc = -1 * HopfElement({mono: Fraction(1)})
    for (left, right), c in reduced_coproduct_of_monomial(mono).items():
        acc = acc - c * (_antipode_monomial(left, memo) * HopfElement({right: Fraction(1)}))
    memo[mono] = acc
    return acc


# ---------------------------------------------------------------------------
# tensor-square helpers (for the axiom checks and convolution)
# ---------------------------------------------------------------------------

def tensor_mul(t1: dict, t2: dict) -> dict:
    """(a x b)(c x d) = ac x bd, bilinearly."""
    out: dict = {}
    for (l1, r1), c1 in t1.items():
        for (l2, r2), c2 in t2.items():
            key = (tuple(sorted(l1 + l2)), tuple(sorted(r1 + r2)))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def coassociativity_sides(label: str) -> tuple[dict, dict]:
    """((Delta x id) Delta, (id x Delta) Delta) on a generator, as maps
    from monomial triples to coefficients."""
    lhs: dict = {}
    rhs: dict = {}
    for l, r, c in coproduct_of_generator(label):
        for (a, b), c2 in coproduct_of_monomial(l).items():
            key = (a, b, r)
            lhs[key] = lhs.get(key, Fraction(0)) + c * c2
        for (b, a), c2 in coproduct_of_monomial(r).items():
            key = (l, b, a)
            rhs[key] = rhs.get(key, Fraction(0)) + c * c2
    return (
        {k: v for k, v in lhs.items() if v},
        {k: v for k, v in rhs.items() if v},
    )


# ---------------------------------------------------------------------------
# family enumeration
# ---------------------------------------------------------------------------

def enumerate_connected_oriented(max_vertices: int, max_flags: int) -> list[str]:
    """Canonical labels of all connected oriented graphs within the bounds,
    sorted by (flag count, label)."""
    seen = set()
    for n in range(1, max_vertices + 1):
        for loops, mult in _edge_structures(n, max_flags // 2):
            if not _connected(n, mult):
                continue
            used = 2 * (sum(loops) + sum(mult.values()))
            for tin, tout in _tail_assignments(n, max_flags - used):
                data = MultigraphData(
                    n, True, loops, tin, tout, mult, (None,) * n
                )
                seen.add(_min_serialization(data))
    return sorted(seen, key=lambda l: (generator_degree(l), l))


def _edge_structures(n: int, max_edges: int):
    """(loops per vertex, directed multiplicity dict) with a total budget."""
    pair_slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    slots = n + len(pair_slots)

    def rec(idx: int, budget: int, acc: list):
        if idx == slots:
            loops = tuple(acc[:n])
            mult = {
                pair_slots[i]: acc[n + i]
                for i in range(len(pair_slots))
                if acc[n + i]
            }
            yield loops, mult
            return
        for v in range(budget + 1):
            yield from rec(idx + 1, budget - v, acc + [v])

    yield from rec(0, max_edges, [])


def _connected(n: int, mult: dict) -> bool:
    if n == 1:
        return True
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, v), m in mult.items():
        if m:
            parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def _tail_assignments(n: int, budget: int):
    """(tails_in, tails_out) tuples with total count <= budget."""

    def rec(idx: int, budget: int, acc: list):
        if idx == 2 * n:
            yield tuple(acc[:n]), tuple(acc[n:])
            return
        for v in range(budget + 1):
            yield from rec(idx + 1, budget - v, acc + [v])

    yield from rec(0, budget, [])


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def element_to_json(elem: HopfElement) -> str:
    doc = [
        {"monomial": list(mono), "coeff": str(coeff)}
        for mono, coeff in sorted(elem.terms.items())
    ]
    return json.dumps(doc, indent=1)


def element_from_json(text: str) -> HopfElement:
    doc = json.loads(text)
    terms: dict = {}
    for entry in doc:
        mono = tuple(sorted(entry["monomial"]))
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(entry["coeff"])
    return HopfElement(terms)
