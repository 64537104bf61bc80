"""Toy-action graph weights, the truncated vacuum expansion and an
independent Gaussian oracle.

A theory is a finite color set, an invertible symmetric metric g_{ab} and
symmetric interaction tensors C_{a1..ak} of valence k >= 3, all with exact
rational entries.  The expansion sums lambda^(E-V) * weight / |Aut| over
isomorphism classes of tail-free graphs whose valences carry tensors; the
weight of a class is the full contraction of its tensor network,

    w = sum over flag colorings of  prod_edges g^{color pair}
                                  * prod_vertices C_{colors at the vertex},

computed by vertex elimination rather than by listing the colorings: the
vertices are contracted one at a time in a fixed order, and a frontier
maps the colors of the flags still open to an integer partial sum.  Each
theory scales g^{-1} and each valence's tensor to integers over one
denominator apiece, so the contraction runs on ints and divides once at
the end.  An eliminated vertex acts on a frontier state only through the
colors of the flags it closes against, so its factor, summed over the
colors of its closing and loop flags, is built once per expansion for
each such color tuple and shared by every class.  A class is contracted
on the multigraph data its label spells out: the elimination plan reads
its loops and edge bundles, with no flag graph built.  A family's plans
are cached, and each theory contracts them one class at a time.  Each
order's sum stays one integer over the lcm of its classes' denominators
until one Fraction ends it.

A one-colour theory needs no contraction: each flag has one color, so a
class with n_k vertices of valence k and E edges weighs
prod_k C_k^(n_k) * (g^{-1})^E, which depends on its valence profile
alone.  A second cached, theory-independent table sums 1/|Aut| over the
family's classes per profile, and such a theory's series is the sum of
each entry times its monomial at order E - V, where 2E = sum_k k * n_k,
taken on the same integer tables with one Fraction per order.  Theories
of more colors contract each class.

Only connected classes are generated and contracted.  By the
linked-cluster theorem the sum is exp(W), where W(lambda) =
sum_n w_n lambda^n sums weight / |Aut| over the connected non-empty
classes: a disjoint union holding m_i copies of class i has weight
prod w_i^m_i and |Aut| = prod |Aut_i|^m_i * m_i!.  The exponential is
taken in exact truncated arithmetic, e_0 = 1 and
e_m = (1/m) sum_{k=1..m} k w_k e_{m-k}, on integers over one denominator
until one Fraction ends each order.  It is exact because every valence
is >= 3: each vertex raises E - V by at least 1/2, so each component has
order >= 1 and at most 2 * order vertices.

The oracle never touches graphs: it expands exp(S_1 / lambda) in the
interaction tensors and evaluates every Gaussian moment as a sum over Wick
pairings with propagator lambda * g^{ab}.  A moment depends on a product
of vertices only through the combined color counts of its slots, so the
products are summed by a dynamic program over the tensor entries, keyed
by (color counts, vertex count, slot count), and the pairing sum runs once
per state, on the integer G = dg * g^{-1}; each order's terms stay integers
until one Fraction ends it.  Pairings are aggregated by the color multiset
of the remaining slots (interchangeable slots collapse into counts), which
is exact; the literal pairing enumeration cross-checks it in the tests.
Both routes drop orders above N.

Everything here is exact rational arithmetic; no floats anywhere.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm
from operator import add

from . import rational
from .graphs import GraphError, MultigraphData, _vacuum_classes_with_aut


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


def _orderings(idx: tuple) -> list[tuple]:
    """The distinct orderings of a multiset of colors, in ascending order."""
    if not idx:
        return [()]
    out = []
    for c in sorted(set(idx)):
        rest = list(idx)
        rest.remove(c)
        out.extend((c,) + tail for tail in _orderings(tuple(rest)))
    return out


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
            if valence < 3:
                raise TheoryError("tensor valences must be >= 3")
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

    @cached_property
    def metric_inverse(self) -> tuple:
        return invert_matrix(self.metric)

    @cached_property
    def _integer_tables(self) -> tuple:
        """(dg, G, {valence: (d_k, ((colors, numerator), ...))}).

        G = dg * g^{-1} and numerator = d_k * C_{colors} are integers; each
        valence lists every ordering of its nonzero index multisets, so a
        vertex's flags can take the colors in any order.
        """
        g_inv = self.metric_inverse
        dg = lcm(*(x.denominator for row in g_inv for x in row))
        G = tuple(tuple(x.numerator * (dg // x.denominator) for x in row) for row in g_inv)
        tensors = {}
        for valence, entries in self.tensors:
            d = lcm(*(c.denominator for _, c in entries))
            tensors[valence] = (d, tuple(
                (colors, c.numerator * (d // c.denominator))
                for idx, c in entries
                for colors in _orderings(idx)
            ))
        return dg, G, tensors

    def _vertex_factor(self, valence: int, n_loops: int, closed: tuple) -> tuple:
        """((open colors, integer factor), ...) for an eliminated vertex.

        Its flags close edges against frontier flags of colors `closed`,
        then form `n_loops` self-loops, then open; the factor sums d_k * C
        times the G of each closed edge and loop over the colors of the
        closing and loop flags, so a step depends on a frontier state only
        through `closed`.  Zero sums are dropped.  A `_plan_sums` call
        memoizes these for its theory.
        """
        _, G, tensors = self._integer_tables
        first_open = len(closed) + 2 * n_loops
        sums: dict = {}
        for colors, c in tensors[valence][1]:
            for b, a in zip(closed, colors):
                c *= G[b][a]
            for i in range(len(closed), first_open, 2):
                c *= G[colors[i]][colors[i + 1]]
            if c:
                new = colors[first_open:]
                sums[new] = sums.get(new, 0) + c
        return tuple((new, c) for new, c in sums.items() if c)

    def valences(self) -> list[int]:
        return [k for k, _ in self.tensors]

    @classmethod
    def single_color(cls, c3=0, c4=0) -> "Theory":
        """One-color shorthand with metric 1: single_color(c3=Fraction(1,2), c4=2)."""
        return cls.build(1, ((1,),), {3: {(0, 0, 0): Fraction(c3)},
                                      4: {(0, 0, 0, 0): Fraction(c4)}})


@dataclass(frozen=True)
class LambdaSeries:
    """Exact coefficients of lambda^0 .. lambda^N, kept as given: both
    producers, `graph_expansion` and `gaussian_oracle`, build Fractions."""

    coeffs: tuple

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

    def pretty(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                parts.append(rational.text(c))
            elif c != 0:
                parts.append(f"({rational.text(c)})*L^{i}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# weights and the graph expansion
# ---------------------------------------------------------------------------

def _contraction_plan(data: MultigraphData) -> tuple:
    """Theory-independent elimination order for a tail-free graph.

    Returns its steps.  Vertices are taken greedily: the one that closes
    the most open flags, then the one that opens the fewest, then the
    lowest index.  A step is (valence, keep, closes, n_loops); the vertex's
    flags are taken in the order

      the flags that close an edge against frontier positions `closes`,
      then `n_loops` self-loops as adjacent flag pairs,
      then the flags that open, appended to the frontier in that order
      (bundle by bundle, in label order),

    and `keep` lists the frontier positions that stay open.  Tensors are
    symmetric, so any order of a vertex's flags gives the same weight.
    """
    n = data.n_vertices
    bundles: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (other end, m)
    for (u, w), m in data.edge_mult.items():
        bundles[u].append((w, m))
        bundles[w].append((u, m))
    done = [False] * n

    def cost(v):
        closes = sum(m for w, m in bundles[v] if done[w])
        return -closes, sum(m for w, m in bundles[v] if not done[w]), v

    valences = _vertex_valences(data)
    frontier: list[int] = []  # per open flag, the vertex that will close it
    steps = []
    for _ in range(n):
        v = min((w for w in range(n) if not done[w]), key=cost)
        closes = tuple(p for p, w in enumerate(frontier) if w == v)
        keep = tuple(p for p, w in enumerate(frontier) if w != v)
        frontier = [frontier[p] for p in keep]
        frontier += [w for w, m in bundles[v] if not done[w] for _ in range(m)]
        done[v] = True
        steps.append((valences[v], keep, closes, data.loops[v]))
    return tuple(steps)


def _vertex_valences(data: MultigraphData) -> list[int]:
    """Each vertex's valence: twice its loops, its tails and its edge ends."""
    valences = [2 * loops + t_in + t_out
                for loops, t_in, t_out in zip(data.loops, data.tails_in, data.tails_out)]
    for (u, w), m in data.edge_mult.items():
        valences[u] += m
        valences[w] += m
    return valences


@lru_cache(maxsize=64)
def _class_plans(max_order: int, valences: tuple, budget: int) -> tuple:
    """((plan, |Aut|), ...) of the connected non-empty vacuum classes, in
    enumeration order; theory-independent, so cached.  |Aut| comes from the
    search that labelled the class during enumeration."""
    return tuple(
        (_contraction_plan(data), aut) for _, data, aut in
        _vacuum_classes_with_aut(max_order, valences, budget, connected=True))


@lru_cache(maxsize=64)
def _profile_table(max_order: int, valences: tuple, budget: int) -> tuple:
    """((profile, E, order, sum of 1/|Aut|), ...) over the classes that
    `_class_plans` holds for the same key, one entry per valence profile: the
    sorted (valence, vertex count) pairs of a class.  2E is the sum of
    valence * count and order = E - V; theory-independent, so cached."""
    inverse_auts: dict = {}
    for _, data, aut in _vacuum_classes_with_aut(max_order, valences, budget,
                                                 connected=True):
        profile = tuple(sorted(Counter(_vertex_valences(data)).items()))
        inverse_auts[profile] = inverse_auts.get(profile, 0) + Fraction(1, aut)
    table = []
    for profile, inverse_aut in inverse_auts.items():
        edges = sum(k * count for k, count in profile) // 2
        table.append((profile, edges, edges - sum(count for _, count in profile), inverse_aut))
    return tuple(table)


def _profile_sums(table: tuple, theory: Theory) -> dict:
    """order E - V -> the sum of weight / |Aut| over the classes of a
    `_profile_table`, for a one-colour theory.

    With one colour a class has one flag coloring, so its weight is
    prod_k C_k^(n_k) * (g^{-1})^E for n_k vertices of valence k: each
    profile adds its sum of 1/|Aut| times that monomial, and a profile with
    a valence the theory lacks adds nothing, as `_plan_sums` stops its
    plans.  The monomial is taken on the integers of `_integer_tables`,
    over dg^E * prod_k d_k^(n_k), and summed as in `_plan_sums`.
    """
    dg, ((G,),), tensors = theory._integer_tables
    numerators: defaultdict = defaultdict(dict)  # order -> {denominator: integer sum}
    for profile, edges, order, inverse_aut in table:
        if all(k in tensors for k, _ in profile):
            num, den = inverse_aut.numerator * G**edges, inverse_aut.denominator * dg**edges
            for k, count in profile:
                d, ((_, t),) = tensors[k]
                num *= t**count
                den *= d**count
            by_den = numerators[order]
            by_den[den] = by_den.get(den, 0) + num
    return {order: _over_lcm(by_den) for order, by_den in numerators.items()}


def _class_sums(max_order: int, theory: Theory, budget: int) -> dict:
    """order -> the sum of weight / |Aut| over the connected vacuum classes
    of the theory's valences: summed per valence profile for one colour,
    else contracted class by class."""
    key = (max_order, tuple(theory.valences()), budget)
    if theory.n_colors == 1:
        return _profile_sums(_profile_table(*key), theory)
    return _plan_sums(_class_plans(*key), theory)


def _eliminate(frontier: dict, step: tuple, theory: Theory, by_closed: dict) -> dict:
    """The frontier after one elimination step: each state's kept colors
    followed by the colors the vertex opens, weighted by the vertex factor
    of the colors it closes.  `by_closed` memoizes `Theory._vertex_factor`
    for this theory and the step's (valence, n_loops)."""
    valence, keep, closes, n_loops = step
    nxt: dict = {}
    for state, value in frontier.items():
        closed = tuple(map(state.__getitem__, closes))
        opened = by_closed.get(closed)
        if opened is None:
            opened = by_closed[closed] = theory._vertex_factor(valence, n_loops, closed)
        kept = tuple(map(state.__getitem__, keep))
        for new, c in opened:
            key = kept + new
            nxt[key] = nxt.get(key, 0) + value * c
    return nxt


def _plan_sums(plans, theory: Theory) -> dict:
    """order E - V -> the sum of weight / |Aut| over (plan, |Aut|) pairs.

    Each plan is contracted from the frontier {(): 1} one `_eliminate` step
    at a time, and stops, adding nothing, when the theory has no tensor of a
    step's valence or the frontier empties.  Each step multiplies the
    plan's denominator, |Aut| at the start, by d_k and by dg per edge it
    closes.  The vertex factors are shared by every plan of the call.  A
    finished plan adds its integer sum to the numerator kept for (order,
    denominator), and each order becomes one Fraction over the lcm of its
    denominators.
    """
    dg, _, tensors = theory._integer_tables
    factors: defaultdict = defaultdict(dict)
    numerators: defaultdict = defaultdict(dict)  # order -> {denominator: integer sum}
    for steps, den in plans:
        frontier, order = {(): 1}, 0
        for step in steps:
            valence, _, closes, n_loops = step
            if valence not in tensors:
                break
            frontier = _eliminate(frontier, step, theory, factors[valence, n_loops])
            if not frontier:
                break
            edges = len(closes) + n_loops
            den *= tensors[valence][0] * dg**edges
            order += edges - 1
        else:
            by_den = numerators[order]
            by_den[den] = by_den.get(den, 0) + sum(frontier.values())
    return {order: _over_lcm(by_den) for order, by_den in numerators.items()}


def _over_lcm(by_den: dict) -> Fraction:
    """The sum of {denominator: integer numerator} as one Fraction over the
    lcm of the denominators."""
    common = lcm(*by_den)
    return Fraction(sum(num * (common // den) for den, num in by_den.items()), common)


def graph_weight(data: MultigraphData, theory: Theory) -> Fraction:
    """Full contraction of the tensor network of a graph, given by its
    multigraph data: the sum over flag colorings of prod_edges g^{ab} *
    prod_vertices C, by vertex elimination.

    The frontier maps the colors of the open flags to an integer partial
    sum over G = dg * g^{-1} and the scaled tensors d_k * C; the weight is
    the final sum over dg^E * prod_vertices d_k, the `_plan_sums` of the
    graph's one `_contraction_plan`.
    """
    if any(data.tails_in) or any(data.tails_out):
        raise GraphError("weights are defined for tail-free graphs")
    sums = _plan_sums([(_contraction_plan(data), 1)], theory)
    return sum(sums.values(), Fraction(0))


def graph_expansion(theory: Theory, order: int, budget: int = 200_000) -> LambdaSeries:
    """Sum lambda^(E-V) * weight / |Aut| over tail-free classes.

    The sum is exp(W) truncated at `order`, where W sums over the connected
    non-empty classes alone (the linked-cluster theorem); only those are
    generated and contracted.
    """
    w = _class_sums(order, theory, budget)
    # Z = exp(W): e_0 = 1 and m e_m = sum_k k w_k e_{m-k}, exactly, because a
    # disjoint union with m_i copies of class i has |Aut| = prod |Aut_i|^m_i m_i!.
    # On integers, w_k = W_k / D and e_m = E_m / (m! D^m), so
    # E_m = sum_k k W_k E_{m-k} (m-1)!/(m-k)! D^(k-1).
    D = lcm(*(c.denominator for c in w.values()))
    W = {k: c.numerator * (D // c.denominator) for k, c in w.items()}
    E = [1]
    for m in range(1, order + 1):
        E.append(sum(k * W[k] * E[m - k] * (factorial(m - 1) // factorial(m - k)) * D**(k - 1)
                     for k in range(1, m + 1) if k in W))
    return LambdaSeries(tuple(Fraction(c, factorial(m) * D**m)
                              for m, c in enumerate(E[:order + 1])))


# ---------------------------------------------------------------------------
# Gaussian oracle
# ---------------------------------------------------------------------------

MAX_ORACLE_COLORS = 4  # the oracle refuses theories with more colors


def wick_pairing_sum(counts: tuple, g_inv: tuple, memo: dict):
    """Sum over perfect pairings of a color multiset, with g^{ab} per pair.

    counts[c] = number of slots of color c.  Slots of one color are
    interchangeable, so the recursion runs on counts: pair the first open
    slot with every partner class and recurse.  On M slots the integer
    G = dg * g^{-1} gives an int, dg^(M/2) times the sum on g^{-1}.
    """
    if counts in memo:
        return memo[counts]
    total_slots = sum(counts)
    if total_slots == 0:
        return 1
    if total_slots % 2:
        return 0
    a = next(c for c, e in enumerate(counts) if e)
    total = 0
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


def gaussian_oracle(theory: Theory, order: int) -> LambdaSeries:
    """exp(S_1/lambda) expanded term-wise against Gaussian moments.

    Independent of the graphs module: each multiset of p interaction
    vertices, option i taken m_i times, contributes

        (1/prod_i m_i!) * prod C_alpha / sym(alpha) * lambda^(M/2 - p)
              * (pairing sum of the combined color multiset),

    which is the (1/p!)-weighted sum over its p!/prod_i m_i! orderings;
    sym(alpha) is the product of color-multiplicity factorials and M the
    total slot count.  The pairing sum depends on the multiset only through
    its color counts, so the multisets are summed by a dynamic program over
    the options, keyed by (color counts, p, M): each option extends every
    state by m copies with factor c^m / m!, and the pairing sum runs once
    per final state.  Every valence is >= 3, so each further vertex raises
    M - 2p by at least 1 and a state with M - 2p > 2N is dropped at once;
    that also bounds p <= M - 2p <= 2N.  Orders above N are dropped to
    match the expansion's truncation window.
    """
    if theory.n_colors > MAX_ORACLE_COLORS:
        raise TheoryError(
            f"{theory.n_colors} colors exceed the oracle budget {MAX_ORACLE_COLORS}"
        )
    options = []
    for valence, entries in theory.tensors:
        for idx, coeff in entries:
            sym = 1
            for c in set(idx):
                sym *= factorial(idx.count(c))
            options.append((valence, idx, coeff.numerator, coeff.denominator * sym))
    # a state's value is an integer N standing for N / (den^p * p!), den the
    # common denominator of the options: m more copies of option a / den
    # multiply N by a^m * C(p + m, m), which is c^m / m! on the value
    den = lcm(*(d for _, _, _, d in options))
    states = {((0,) * theory.n_colors, 0, 0): 1}
    for valence, idx, num, d in options:
        a = num * (den // d)
        step = tuple(idx.count(c) for c in range(theory.n_colors))
        extended: dict = {}
        for (counts, p, slots), value in states.items():
            m = 0
            while True:
                key = (counts, p + m, slots)
                extended[key] = extended.get(key, 0) + value
                m += 1
                slots += valence
                if slots - 2 * (p + m) > 2 * order:
                    break
                counts = tuple(map(add, counts, step))
                value = value * a * (p + m) // m
        states = extended
    # the moment on G is over dg^(M/2)
    dg, G, _ = theory._integer_tables
    numerators: list = [{} for _ in range(order + 1)]  # {denominator: integer sum}
    memo: dict = {}
    for (counts, p, slots), value in states.items():
        n = slots // 2 - p
        if slots % 2 == 0 and n <= order:
            moment = wick_pairing_sum(counts, G, memo)
            if moment:
                by_den = numerators[n]
                key = den**p * factorial(p) * dg**(slots // 2)
                by_den[key] = by_den.get(key, 0) + moment * value
    return LambdaSeries(tuple(map(_over_lcm, numerators)))
