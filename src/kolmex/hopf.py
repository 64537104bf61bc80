"""The bialgebra of oriented graphs with the cut coproduct.

Generators are canonical labels of *connected* oriented graphs; monomials
are multisets of generators (sorted label tuples), so the algebra is the
free commutative algebra on the generators with the empty multiset as
unit.  The coproduct of a generator sums upper x lower over all cuts of
its graph (both improper cuts included, giving tau x 1 + 1 x tau),
decomposing each side into its connected components; it extends
multiplicatively to monomials and linearly throughout.  A generator's
label parses straight to its multigraph data (`generator_data`), and the
cuts and sides are read and labelled on that data, a severed edge left as
a tail at each end: no flag graph is built for a generator, a cut or a
piece (`generator_graph` lays one out for callers that want a `Graph`).
A piece's split is `graphs.components` on the edge pairs, and its label
text is written by `graphs._min_serialization`, as every label is.
Elements are built from labels only, and `check_generator` refuses a
label that is not a generator, and one of more than LABEL_MAX_VERTICES
vertices before any label search.

Grading is by total flag count, which both halves of a cut split exactly
(severed halves stay with their side as tails).  Bare vertices have degree
zero, so the degree-zero component is not one-dimensional; the antipode
recursion therefore inducts on vertex count, which every proper cut
strictly decreases, and the antipode law is verified exhaustively in the
tests, bare vertices included.

Every coefficient the algebra itself produces is an integer count: cuts
are counted, and products and the antipode recursion only add and
multiply counts.  So coproducts are dicts `(left, right) -> int`, and a
`HopfElement` stores an `int` for each integral coefficient and a
`Fraction` only for a truly rational one.
`coproduct_of_monomial` is a bounded cache, filled lazily, of read-only
mappings.  Only the unit terms x (x) 1 and 1 (x) x have an empty side
(a proper cut leaves a vertex on each side), each with coefficient 1, so
the reduced coproduct is those mappings without their empty-sided terms.
`_cut_sum` is the one recursion step "first + sum' c rec(x') psi(x'')"
over it, reading the cached mapping and skipping its two empty-sided
terms, so no reduced coproduct is built: the antipode (psi = -x'',
memoized across calls), `renorm.conv_inverse` and Birkhoff's bracket all
go through it.  It hands its (c, rec(x'), psi(x'')) terms to
`first.accumulate`, which sums them in one pass with no intermediate
products or partial sums:
`HopfElement.accumulate` in one dict, `renorm.MSElement.accumulate` on
integer numerators over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Mapping

from . import rational
from .graphs import (
    LABEL_MAX_VERTICES,
    Graph,
    GraphError,
    MultigraphData,
    _classes_with_degrees,
    _min_serialization,
    _oriented_closings,
    components,
    enumerate_cuts,
    graph_from_label,
    label_data,
)

Monomial = tuple  # sorted tuple of generator labels
UNIT_MONOMIAL: Monomial = ()

# Bounds of the lazily filled memos (entries, not bytes).
COPRODUCT_CACHE_SIZE = 256
ANTIPODE_CACHE_SIZE = 1024
LABEL_CACHE_SIZE = 4096


class HopfError(ValueError):
    pass


@lru_cache(maxsize=None)
def generator_graph(label: str) -> Graph:
    return graph_from_label(label)


@lru_cache(maxsize=None)
def generator_data(label: str) -> MultigraphData:
    return label_data(label)


@lru_cache(maxsize=None)
def generator_degree(label: str) -> int:
    return generator_data(label).n_flags


def generator_vertices(label: str) -> int:
    return generator_data(label).n_vertices


def monomial_degree(mono: Monomial) -> int:
    return sum(generator_degree(l) for l in mono)


@lru_cache(maxsize=LABEL_CACHE_SIZE)
def _piece_label(verts: tuple, edges: tuple) -> str:
    """The pinned label of a connected oriented piece: per vertex its
    (decoration, loops, tails in, tails out), and its sorted
    ((source, target), multiplicity) edges."""
    decos, loops, ins, outs = zip(*verts)
    data = MultigraphData(len(verts), True, loops, ins, outs, dict(edges), decos)
    return _min_serialization(data)[0]


def _side_monomial(data: MultigraphData, keep) -> Monomial:
    """The sorted labels of the connected components of the subgraph on
    the vertices `keep` of an oriented graph's multigraph data.  An edge
    with one end kept leaves a tail there: 'out' at its source, 'in' at
    its target.

    A component's pinned label is the lexmin of `_min_serialization`; it
    is memoized (the LABEL_CACHE_SIZE most recent) under the component's
    own multigraph data, vertices ascending, which fixes it exactly."""
    labels = []
    for piece in components(data.edge_mult, keep):
        slot = {v: i for i, v in enumerate(sorted(piece))}
        tin = [data.tails_in[v] for v in slot]
        tout = [data.tails_out[v] for v in slot]
        edges = {}
        for (s, t), m in data.edge_mult.items():
            if s in slot:
                if t in slot:
                    edges[slot[s], slot[t]] = m
                else:
                    tout[slot[s]] += m
            elif t in slot:
                tin[slot[t]] += m
        verts = tuple(zip((data.decorations[v] for v in slot),
                          (data.loops[v] for v in slot), tin, tout))
        labels.append(_piece_label(verts, tuple(sorted(edges.items()))))
    return tuple(sorted(labels))


@lru_cache(maxsize=LABEL_CACHE_SIZE)
def check_generator(label: str) -> None:
    """Raise HopfError unless `label` is a generator: the pinned label of
    a connected oriented graph, checked on its parsed data.  A label of
    more than LABEL_MAX_VERTICES vertices is refused before any search,
    whose cost grows factorially with them.  Accepted labels are
    memoized; a raise is not."""
    try:
        data = generator_data(label)
    except GraphError as exc:
        raise HopfError(str(exc)) from None
    if not data.oriented:
        raise HopfError(f"{rational.shown(label)} is not an oriented graph's label")
    if data.n_vertices > LABEL_MAX_VERTICES:
        raise HopfError(f"{rational.shown(label)} has {data.n_vertices} vertices, past the "
                        f"canonical-form bound {LABEL_MAX_VERTICES}")
    mono = _side_monomial(data, range(data.n_vertices))
    if mono != (label,):
        raise HopfError(f"{rational.shown(label)} is not a generator: its graph is the "
                        f"monomial {rational.shown(list(mono))}")


class HopfElement:
    """Finite rational combination of monomials; zero coefficients pruned,
    integral coefficients stored as ints."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {
            m: v for m, c in (terms or {}).items()
            if (v := c if type(c) is int else rational.exact(c))
        }

    @classmethod
    def unit(cls) -> "HopfElement":
        return cls({UNIT_MONOMIAL: 1})

    @classmethod
    def generator(cls, label: str) -> "HopfElement":
        return cls({(label,): 1})

    def __add__(self, other: "HopfElement") -> "HopfElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return HopfElement(out)

    def __sub__(self, other: "HopfElement") -> "HopfElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "HopfElement":
        scalar = rational.exact(scalar)
        return HopfElement({m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other: "HopfElement") -> "HopfElement":
        """Bilinear extension of multiset union."""
        return ZERO.accumulate(((1, self, other),))

    def accumulate(self, terms) -> "HopfElement":
        """self + sum c * (x * y) over (count, x, y) terms, summed in one
        dict: the pairwise fold without its intermediate elements."""
        out = dict(self.terms)
        for c, x, y in terms:
            for m1, c1 in x.terms.items():
                for m2, c2 in y.terms.items():
                    key = _union(m1, m2)
                    out[key] = out.get(key, 0) + c * c1 * c2
        return HopfElement(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, HopfElement) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def counit(self) -> Fraction:
        return Fraction(self.terms.get(UNIT_MONOMIAL, 0))

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = [f"({c})*{list(m) or 1}" for m, c in sorted(self.terms.items())]
        return "<" + " + ".join(bits) + ">"


ZERO = HopfElement()


def _union(m1: Monomial, m2: Monomial) -> Monomial:
    """Multiset union of two monomials."""
    if not m1:
        return m2
    if not m2:
        return m1
    return tuple(sorted(m1 + m2))


# ---------------------------------------------------------------------------
# coproduct
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def coproduct_of_generator(label: str) -> tuple:
    """Cut coproduct of one generator as ((monoL, monoR, count), ...), each
    side labelled from the generator's multigraph data."""
    data = generator_data(label)
    vertices = range(data.n_vertices)
    acc: dict = {}
    for mask in enumerate_cuts(data):
        upper = [v for v in vertices if mask >> v & 1]
        lower = [v for v in vertices if not mask >> v & 1]
        key = (_side_monomial(data, upper), _side_monomial(data, lower))
        acc[key] = acc.get(key, 0) + 1
    return tuple((l, r, c) for (l, r), c in sorted(acc.items()))


@lru_cache(maxsize=COPRODUCT_CACHE_SIZE)
def coproduct_of_monomial(mono: Monomial) -> MappingProxyType:
    """Multiplicative extension: Delta(m1 m2 ...) = Delta(m1) Delta(m2) ...,
    as a read-only mapping (left, right) -> count, cached."""
    out = {(UNIT_MONOMIAL, UNIT_MONOMIAL): 1}
    for label in mono:
        nxt: dict = {}
        for (acc_l, acc_r), c in out.items():
            for gl, gr, gc in coproduct_of_generator(label):
                key = (_union(acc_l, gl), _union(acc_r, gr))
                nxt[key] = nxt.get(key, 0) + c * gc
        out = nxt
    return MappingProxyType(out)


def coproduct(elem: HopfElement) -> dict:
    """Linear extension; the result maps (monoL, monoR) to coefficients."""
    out: dict = {}
    for mono, coeff in elem.terms.items():
        for key, c in coproduct_of_monomial(mono).items():
            out[key] = out.get(key, 0) + coeff * c
    return {key: rational.exact(c) for key, c in out.items() if c}


def reduced_coproduct_of_monomial(mono: Monomial) -> dict:
    """Delta minus x (x) 1 and 1 (x) x, which are its only terms with an
    empty side; empty on the unit and on primitives."""
    return {key: c for key, c in coproduct_of_monomial(mono).items()
            if key[0] and key[1]}


def is_primitive(label: str) -> bool:
    return not reduced_coproduct_of_monomial((label,))


def _cut_sum(mono: Monomial, first, rec, psi):
    """first + sum c * (rec(x') * psi(x'')) over the reduced coproduct
    c x' (x) x'' of mono: the recursion step of the antipode, of
    `renorm.conv_inverse` and of Birkhoff's bracket, summed by
    `first.accumulate`.  Terms are evaluated in coproduct order, as the
    sum reads them.  Every x' has fewer vertices than mono, so the
    recursion terminates."""
    return first.accumulate(
        (c, rec(left), psi(right))
        for (left, right), c in coproduct_of_monomial(mono).items() if left and right)


# ---------------------------------------------------------------------------
# antipode
# ---------------------------------------------------------------------------

def antipode(elem: HopfElement) -> HopfElement:
    """S(1) = 1 and S(x) = -x - sum S(x') x'' over the reduced coproduct.

    The recursion inducts on vertex count (every proper cut puts at least
    one vertex on each side), so it terminates for every element, including
    degree-zero bare vertices.  Monomial values are memoized across calls.
    """
    out: dict = {}
    for mono, coeff in elem.terms.items():
        for m, c in _antipode_monomial(mono).terms.items():
            out[m] = out.get(m, 0) + coeff * c
    return HopfElement(out)


def _negated(mono: Monomial) -> HopfElement:
    return HopfElement({mono: -1})


@lru_cache(maxsize=ANTIPODE_CACHE_SIZE)
def _antipode_monomial(mono: Monomial) -> HopfElement:
    """S on one monomial; the shared result must not be mutated."""
    if mono == UNIT_MONOMIAL:
        return HopfElement.unit()
    return _cut_sum(mono, _negated(mono), _antipode_monomial, _negated)


# ---------------------------------------------------------------------------
# tensor-square helpers (for the axiom checks and convolution)
# ---------------------------------------------------------------------------

def tensor_mul(t1: Mapping, t2: Mapping) -> dict:
    """(a x b)(c x d) = ac x bd, bilinearly."""
    out: dict = {}
    for (l1, r1), c1 in t1.items():
        for (l2, r2), c2 in t2.items():
            key = (_union(l1, l2), _union(r1, r2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def coassociativity_sides(label: str) -> tuple[dict, dict]:
    """((Delta x id) Delta, (id x Delta) Delta) on a generator, as maps
    from monomial triples to coefficients."""
    lhs: dict = {}
    rhs: dict = {}
    for l, r, c in coproduct_of_generator(label):
        for (a, b), c2 in coproduct_of_monomial(l).items():
            key = (a, b, r)
            lhs[key] = lhs.get(key, 0) + c * c2
        for (b, a), c2 in coproduct_of_monomial(r).items():
            key = (l, b, a)
            rhs[key] = rhs.get(key, 0) + c * c2
    return lhs, rhs


# ---------------------------------------------------------------------------
# family enumeration
# ---------------------------------------------------------------------------

def enumerate_connected_oriented(max_vertices: int, max_flags: int) -> list[str]:
    """Canonical labels of all connected oriented graphs within the bounds,
    sorted by (flag count, label): the classes of each vertex signature
    multiset, from the closed-vertex generator of the vacuum classes."""
    labels = []
    for signature in _signatures(max_vertices, max_flags):
        tails_in, tails_out, ins, outs = zip(*signature)
        labels += _classes_with_degrees(_oriented_closings, tails_in, tails_out,
                                        ins + outs, [0], float("inf"), connected=True)
    return sorted(labels, key=lambda l: (generator_degree(l), l))


def _signatures(max_vertices: int, max_flags: int):
    """Nondecreasing tuples of per-vertex (tails in, tails out, in-degree,
    out-degree) that a connected oriented graph with 1..max_vertices
    vertices and at most max_flags flags can have: as many in-degrees as
    out-degrees and, apart from a lone vertex, every vertex on an edge and
    at least n - 1 edges on n vertices."""
    vertex = sorted((sum(s), s) for s in product(range(max_flags + 1), repeat=4)
                    if sum(s) <= max_flags)
    yield from ((s,) for _, s in vertex if s[2] == s[3] and max_vertices > 0)
    vertex = [(more, s) for more, s in vertex if s[2] or s[3]]

    def rec(prefix, start, flags, balance, edges):
        if len(prefix) > 1 and not balance and edges >= len(prefix) - 1:
            yield tuple(prefix)
        if len(prefix) >= max_vertices:
            return
        for i in range(start, len(vertex)):
            more, s = vertex[i]
            if more > max_flags - flags:
                break
            tilt = balance + s[2] - s[3]
            if abs(tilt) <= max_flags - flags - more:
                yield from rec(prefix + [s], i, flags + more, tilt, edges + s[2])

    yield from rec([], 0, 0, 0, 0)
