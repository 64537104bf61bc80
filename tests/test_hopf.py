import contextlib
import hashlib
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from graph_oracles import (
    _connected,
    _edge_structures,
    _tail_assignments,
    brute_min_serialization,
    cut_coproduct,
    disjoint_union,
    raw_oriented_family,
)
from kolmex import cli, feynman, hopf
from kolmex.graphs import (
    Graph,
    MultigraphData,
    _vacuum_classes_with_aut,
    canonical_label,
    multigraph_data,
)
from kolmex.hopf import (
    UNIT_MONOMIAL,
    ZERO,
    HopfError,
    HopfElement,
    antipode,
    coassociativity_sides,
    coproduct,
    coproduct_of_generator,
    coproduct_of_monomial,
    enumerate_connected_oriented,
    check_generator,
    generator_data,
    generator_degree,
    generator_graph,
    generator_vertices,
    is_primitive,
    monomial_degree,
    reduced_coproduct_of_monomial,
    tensor_mul,
)
from kolmex.renorm import (
    Character,
    MSElement,
    RenormError,
    birkhoff,
    character_from_json,
    conv_inverse,
    convolution,
)

F = Fraction

VERTEX = Graph(1, (), (), orientation=())
EDGE = Graph(2, (1, 0), (0, 1), orientation=("out", "in"))
OUT_TAIL = Graph(1, (0,), (0,), orientation=("out",))
IN_TAIL = Graph(1, (0,), (0,), orientation=("in",))

L_VERTEX = canonical_label(VERTEX)
L_EDGE = canonical_label(EDGE)
L_OUT = canonical_label(OUT_TAIL)
L_IN = canonical_label(IN_TAIL)


# -- product ------------------------------------------------------------------

def test_unit_law():
    t = HopfElement.generator(L_EDGE)
    assert t * HopfElement.unit() == t
    assert HopfElement.unit() * t == t


def test_commutativity():
    a, b = HopfElement.generator(L_VERTEX), HopfElement.generator(L_EDGE)
    assert a * b == b * a


def monomial_of_graph(g: Graph):
    """The sorted labels of g's connected components."""
    return hopf._side_monomial(multigraph_data(g), range(g.n_vertices))


def test_product_is_disjoint_union_class():
    double = Graph(2, (), (), orientation=())
    assert monomial_of_graph(double) == (L_VERTEX, L_VERTEX)
    prod = HopfElement.generator(L_VERTEX) * HopfElement.generator(L_VERTEX)
    assert prod == HopfElement({monomial_of_graph(double): 1})


# -- coproduct ------------------------------------------------------------------

def test_coproduct_of_unit():
    assert coproduct_of_monomial(UNIT_MONOMIAL) == {
        (UNIT_MONOMIAL, UNIT_MONOMIAL): F(1)
    }


def test_bare_vertex_is_primitive():
    cp = dict(
        ((l, r), c) for l, r, c in coproduct_of_generator(L_VERTEX)
    )
    assert cp == {
        ((L_VERTEX,), UNIT_MONOMIAL): F(1),
        (UNIT_MONOMIAL, (L_VERTEX,)): F(1),
    }
    assert is_primitive(L_VERTEX)


def test_edge_coproduct_three_cuts():
    cp = dict(((l, r), c) for l, r, c in coproduct_of_generator(L_EDGE))
    assert cp == {
        ((L_EDGE,), UNIT_MONOMIAL): F(1),
        (UNIT_MONOMIAL, (L_EDGE,)): F(1),
        ((L_OUT,), (L_IN,)): F(1),
    }
    assert not is_primitive(L_EDGE)


def test_reduced_coproduct():
    assert reduced_coproduct_of_monomial((L_EDGE,)) == {((L_OUT,), (L_IN,)): F(1)}
    assert reduced_coproduct_of_monomial((L_VERTEX,)) == {}


def test_counit():
    x = HopfElement({UNIT_MONOMIAL: F(3), (L_EDGE,): F(5)})
    assert x.counit() == 3
    assert HopfElement.generator(L_EDGE).counit() == 0


# -- antipode -------------------------------------------------------------------

def test_antipode_unit():
    assert antipode(HopfElement.unit()) == HopfElement.unit()


def test_antipode_primitive():
    v = HopfElement.generator(L_VERTEX)
    assert antipode(v) == -1 * v


def test_antipode_edge():
    t = HopfElement.generator(L_EDGE)
    expected = -1 * t + HopfElement.generator(L_OUT) * HopfElement.generator(L_IN)
    assert antipode(t) == expected


def _antipode_law_holds(mono) -> bool:
    x = HopfElement({mono: F(1)})
    left = ZERO
    right = ZERO
    for (l, r), c in coproduct(x).items():
        left = left + c * (antipode(HopfElement({l: F(1)})) * HopfElement({r: F(1)}))
        right = right + c * (HopfElement({l: F(1)}) * antipode(HopfElement({r: F(1)})))
    want = HopfElement.unit() if mono == UNIT_MONOMIAL else ZERO
    return left == want and right == want


def test_antipode_law_on_small_elements():
    for mono in [UNIT_MONOMIAL, (L_VERTEX,), (L_EDGE,), (L_VERTEX, L_VERTEX),
                 (L_EDGE, L_VERTEX), (L_IN, L_OUT), (L_EDGE, L_EDGE)]:
        assert _antipode_law_holds(mono), mono


def test_antipode_is_multiplicative_here():
    a, b = HopfElement.generator(L_EDGE), HopfElement.generator(L_IN)
    assert antipode(a * b) == antipode(a) * antipode(b)


# -- axioms over a small exhaustive family ---------------------------------------

FAMILY = enumerate_connected_oriented(2, 4)


def test_family_is_closed_under_cuts():
    labels = set(FAMILY)
    for label in FAMILY:
        for l, r, _ in coproduct_of_generator(label):
            for piece in l + r:
                assert piece in labels


def test_coassociativity_on_family():
    for label in FAMILY:
        lhs, rhs = coassociativity_sides(label)
        assert lhs == rhs, label


def test_counit_laws_on_family():
    for label in FAMILY:
        left = {}
        right = {}
        for l, r, c in coproduct_of_generator(label):
            if l == UNIT_MONOMIAL:
                left[r] = left.get(r, F(0)) + c
            if r == UNIT_MONOMIAL:
                right[l] = right.get(l, F(0)) + c
        assert left == {(label,): F(1)}, label
        assert right == {(label,): F(1)}, label


def test_bialgebra_compatibility_on_family():
    # Delta(a b) read from the cuts of the disjoint-union graph, not from
    # the multiplicative extension that builds coproduct_of_monomial
    for i, a in enumerate(FAMILY):
        for b in FAMILY[i:]:
            da, db = coproduct_of_monomial((a,)), coproduct_of_monomial((b,))
            union = disjoint_union(generator_graph(a), generator_graph(b))
            assert tensor_mul(da, db) == cut_coproduct(union), (a, b)


FAMILY_4_8 = enumerate_connected_oriented(4, 8)


def test_generator_coproducts_match_the_flag_level_oracle():
    for label in FAMILY_4_8:
        want = cut_coproduct(generator_graph(label))
        assert {(l, r): c for l, r, c in coproduct_of_generator(label)} == want, label


def test_generator_coproducts_are_pinned():
    # sha256 of the 1,922 coproducts at 4/8, in family order, as computed
    # on the flag-level cut route
    blob = repr([coproduct_of_generator(label) for label in FAMILY_4_8]).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "807abf26b809e4a0db836ea5a9d268a72cc7bf35e17b2e7286389e35c8f88e93")


def test_generator_coproduct_builds_no_flag_graph(monkeypatch):
    # labels parse straight to multigraph data: from a cold start, neither
    # the 4/8 family with its degrees and coproducts nor the order-4 vacuum
    # classes with an expansion over them validates a single flag graph; a
    # one-colour expansion sums per valence profile and builds no class plans
    built = []
    validate = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda g: built.append(g) or validate(g))
    for cache in (generator_data, generator_degree, coproduct_of_generator,
                  feynman._class_plans, feynman._profile_table):
        cache.cache_clear()
    hopf._piece_label.cache_clear()
    labels = enumerate_connected_oriented(4, 8)
    for label in labels:
        generator_degree(label)
        coproduct_of_generator(label)
    assert coproduct_of_generator.cache_info().misses == len(labels) == 1922
    assert len(_vacuum_classes_with_aut(4, (3, 4), 200_000)) == 1115
    assert feynman.graph_expansion(feynman.Theory.single_color(c3=1, c4=1), 4)[4] == F(
        715715, 15552)
    assert feynman._profile_table.cache_info().misses == 1
    assert feynman._class_plans.cache_info().currsize == 0
    assert built == []


def test_piece_labels_stay_memoized_past_the_cache_size():
    # more distinct pieces than the memo holds: it keeps the most recent,
    # so a new piece is still stored and its repeat is a hit
    n = hopf.LABEL_CACHE_SIZE + 10
    isolated = MultigraphData(n, True, tuple(v // 64 for v in range(n)),
                              tuple(v % 64 for v in range(n)), (0,) * n, {}, (None,) * n)
    hopf._piece_label.cache_clear()
    assert len(set(hopf._side_monomial(isolated, range(n)))) == n
    info = hopf._piece_label.cache_info()
    assert (info.misses, info.currsize) == (n, hopf.LABEL_CACHE_SIZE)
    new = MultigraphData(1, True, (0,), (0,), (1,), {}, (None,))
    for _ in range(2):
        assert hopf._side_monomial(new, [0]) == ("og:1|-.0.0.1|",)
    info = hopf._piece_label.cache_info()
    assert (info.misses, info.hits) == (n + 1, 1)
    hopf._piece_label.cache_clear()


NOT_GENERATORS = {
    "og:2|-.0.0.0;-.0.0.0|": "the monomial ['og:1|-.0.0.0|', 'og:1|-.0.0.0|']",
    "og:0||": "the monomial []",
    "og:2|-.0.0.0;-.0.0.0|1>0x1": "the monomial ['og:2|-.0.0.0;-.0.0.0|0>1x1']",
    "ug:1|-.0.0.0|": "is not an oriented graph's label",
    "og:1|-.-1.0.0|": "malformed label",
    "og:1|-.0.0.0|0>0x1": "malformed label",
    "og:2|-.0.0.0;-.0.0.0|0>1x0": "malformed label",
    "g": "malformed label",
}


@pytest.mark.parametrize("label", sorted(NOT_GENERATORS))
def test_labels_read_from_json_must_be_generators(label):
    message = NOT_GENERATORS[label]
    with pytest.raises(HopfError) as info:
        check_generator(label)
    assert message in str(info.value)
    doc = {"degree_bound": 4, "values": [
        {"graph": graph, "value": {"polar": [], "regular": ["1"]}}
        for graph in (L_VERTEX, label)]}
    with pytest.raises(RenormError) as info:
        character_from_json(json.dumps(doc))
    assert str(info.value).startswith("values[1].graph: ")
    assert message in str(info.value)


def _complete_bidirected(n):
    """The label of n vertices with an edge each way between every two:
    all vertices alike, so every branch of its label search ties."""
    edges = ",".join(f"{a}>{b}x1" for a in range(n) for b in range(n) if a != b)
    return f"og:{n}|{';'.join(['-.0.0.0'] * n)}|{edges}"


@pytest.mark.parametrize("n", [11, 12])
def test_labels_past_the_vertex_bound_are_refused_before_any_search(n):
    start = time.perf_counter()
    with pytest.raises(HopfError, match=f"has {n} vertices, past the canonical-form bound 10"):
        check_generator(_complete_bidirected(n))
    assert time.perf_counter() - start < 1
    path = ",".join(f"{v}>{v + 1}x1" for v in range(9))  # at the bound: searched
    check_generator(f"og:10|{';'.join(['-.0.0.0'] * 10)}|{path}")


def test_every_generator_passes_the_check():
    for label in FAMILY:
        check_generator(label)


def test_grading_split_by_coproduct():
    for label in FAMILY:
        n = generator_degree(label)
        for l, r, _ in coproduct_of_generator(label):
            assert monomial_degree(l) + monomial_degree(r) == n


def test_product_adds_degrees():
    for a in FAMILY[:6]:
        for b in FAMILY[:6]:
            prod = tuple(sorted((a, b)))
            assert monomial_degree(prod) == generator_degree(a) + generator_degree(b)


def test_unoriented_graphs_rejected():
    with pytest.raises(HopfError, match="not an oriented graph's label"):
        check_generator(canonical_label(Graph(1, (1, 0), (0, 0))))


def test_zero_coefficients_are_pruned_after_conversion():
    x = HopfElement({UNIT_MONOMIAL: "0", (L_EDGE,): "4/2", (L_VERTEX,): F(0)})
    assert x.terms == {(L_EDGE,): 2}
    assert type(x.terms[(L_EDGE,)]) is int
    assert not HopfElement({(L_EDGE,): "0/3"})


# -- integer counts against the Fraction references --------------------------------

class RefElement:
    """The Fraction-coefficient HopfElement, kept as the oracle for the
    integer-count one."""

    def __init__(self, terms=None):
        self.terms = {m: Fraction(c) for m, c in (terms or {}).items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return RefElement(out)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return RefElement({m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(sorted(m1 + m2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return RefElement(out)

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = [f"({c})*{list(m) or 1}" for m, c in sorted(self.terms.items())]
        return "<" + " + ".join(bits) + ">"


def ref_coproduct_of_monomial(mono):
    """The uncached multiplicative extension on Fractions."""
    out = {(UNIT_MONOMIAL, UNIT_MONOMIAL): Fraction(1)}
    for label in mono:
        nxt = {}
        for (acc_l, acc_r), c in out.items():
            for gl, gr, gc in coproduct_of_generator(label):
                key = (tuple(sorted(acc_l + gl)), tuple(sorted(acc_r + gr)))
                nxt[key] = nxt.get(key, Fraction(0)) + c * Fraction(gc)
        out = nxt
    return out


def ref_reduced_coproduct(mono):
    """Delta minus x (x) 1 and 1 (x) x, by subtraction."""
    out = dict(ref_coproduct_of_monomial(mono))
    for key in [(mono, UNIT_MONOMIAL), (UNIT_MONOMIAL, mono)]:
        if key in out:
            out[key] -= 1
            if not out[key]:
                del out[key]
    return out


def ref_antipode(elem):
    """The antipode recursion with a memo that lives for one call."""
    memo = {}

    def s(mono):
        if mono == UNIT_MONOMIAL:
            return RefElement({UNIT_MONOMIAL: 1})
        if mono not in memo:
            acc = RefElement({mono: -1})
            for (left, right), c in ref_reduced_coproduct(mono).items():
                acc = acc + (-c) * (s(left) * RefElement({right: 1}))
            memo[mono] = acc
        return memo[mono]

    out = RefElement()
    for mono, coeff in elem.terms.items():
        out = out + coeff * s(mono)
    return out


def ref_terms(elem):
    return {m: Fraction(c) for m, c in elem.terms.items()}


def assert_ints_where_integral(terms):
    for c in terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


BIG_FAMILY = enumerate_connected_oriented(3, 6)


@st.composite
def monomials(draw):
    """Up to three generators of the 3/6 family with at most five vertices."""
    labels = draw(st.lists(st.sampled_from(BIG_FAMILY), max_size=3))
    while sum(generator_vertices(l) for l in labels) > 5:
        labels.pop()
    return tuple(sorted(labels))


coefficients = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def elements(draw):
    terms = draw(st.dictionaries(monomials(), coefficients, max_size=3))
    return HopfElement(terms), RefElement(terms)


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_products_and_sums_match_fraction_reference(xs, ys):
    (x, rx), (y, ry) = xs, ys
    for got, want in [(x * y, rx * ry), (x + y, rx + ry), (F(2, 3) * x, F(2, 3) * rx),
                      (x - y, rx + (-1) * ry)]:
        assert ref_terms(got) == want.terms
        assert_ints_where_integral(got.terms)
        assert repr(got) == repr(want)
    assert x.counit() == rx.terms.get(UNIT_MONOMIAL, 0)
    assert type(x.counit()) is Fraction


@settings(max_examples=60, deadline=None)
@given(elements())
def test_coproduct_matches_fraction_reference(xs):
    x, rx = xs
    want = {}
    for mono, coeff in rx.terms.items():
        for key, c in ref_coproduct_of_monomial(mono).items():
            want[key] = want.get(key, Fraction(0)) + coeff * c
    want = {k: v for k, v in want.items() if v}
    got = coproduct(x)
    assert got == want
    assert_ints_where_integral(got)
    for mono in rx.terms:
        cached = coproduct_of_monomial(mono)
        assert dict(cached) == ref_coproduct_of_monomial(mono)
        assert all(type(c) is int for c in cached.values())
        assert reduced_coproduct_of_monomial(mono) == ref_reduced_coproduct(mono)


@settings(max_examples=40, deadline=None)
@given(elements())
def test_antipode_matches_reference_and_law(xs):
    x, rx = xs
    s = antipode(x)
    assert ref_terms(s) == ref_antipode(rx).terms
    assert_ints_where_integral(s.terms)
    # m (S x id) Delta = m (id x S) Delta = unit . counit
    left, right = ZERO, ZERO
    for (l, r), c in coproduct(x).items():
        left = left + c * (antipode(HopfElement({l: 1})) * HopfElement({r: 1}))
        right = right + c * (HopfElement({l: 1}) * antipode(HopfElement({r: 1})))
    want = HopfElement({UNIT_MONOMIAL: x.counit()})
    assert left == want and right == want


def test_reduced_coproduct_matches_subtraction_on_family():
    for label in BIG_FAMILY:
        assert reduced_coproduct_of_monomial((label,)) == ref_reduced_coproduct((label,))
    for a, b in zip(BIG_FAMILY[:40], BIG_FAMILY[40:80]):
        mono = tuple(sorted((a, b)))
        assert reduced_coproduct_of_monomial(mono) == ref_reduced_coproduct(mono)


def test_cached_coproduct_is_read_only_and_unchanged_by_readers():
    family = enumerate_connected_oriented(3, 4)
    monos = [(label,) for label in family] + [
        tuple(sorted((a, b))) for a, b in zip(family, family[1:])]
    before = {m: dict(coproduct_of_monomial(m)) for m in monos}
    with pytest.raises(TypeError):
        coproduct_of_monomial(monos[0])[(UNIT_MONOMIAL, UNIT_MONOMIAL)] = 5
    for m in monos:
        reduced = reduced_coproduct_of_monomial(m)
        reduced.clear()
        antipode(HopfElement({m: 1}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["algebra", "hopf-verify", "--max-vertices", "3",
                         "--max-flags", "4"]) == 0
    values = {label: MSElement.from_coeffs({-1: i + 1, 0: 1, 2: i}) for i, label in enumerate(family)}
    phi = Character(values, 8)
    minus, plus = birkhoff(phi)
    recon = convolution(conv_inverse(minus), plus)
    for m in monos:
        recon(m)
    for m in monos:
        assert dict(coproduct_of_monomial(m)) == before[m] == ref_coproduct_of_monomial(m)


def test_antipode_does_not_hand_out_its_memo():
    t = HopfElement.generator(L_EDGE)
    s = antipode(t)
    s.terms.clear()
    assert antipode(t) == -1 * t + HopfElement.generator(L_OUT) * HopfElement.generator(L_IN)


# -- labels ---------------------------------------------------------------------------

def ref_enumerate_connected_oriented(max_vertices, max_flags):
    """Brute-force lexmin of every raw candidate."""
    seen = set()
    for n in range(1, max_vertices + 1):
        for loops, mult in _edge_structures(n, max_flags // 2):
            if not _connected(n, mult):
                continue
            used = 2 * (sum(loops) + sum(mult.values()))
            for tin, tout in _tail_assignments(n, max_flags - used):
                seen.add(brute_min_serialization(
                    MultigraphData(n, True, loops, tin, tout, mult, (None,) * n)))
    return sorted(seen, key=lambda l: (generator_degree(l), l))


def test_family_matches_brute_force_labels():
    for max_vertices, max_flags, size in [
        (0, 6, 0),
        (1, 0, 1),     # the bare vertex alone
        (1, 3, 13),    # lone vertices: tails only, or a loop with a tail
        (2, 4, 41),    # a vertex with loops only never joins a second one
        (3, 3, 18),    # tails-only vertices beside edges
        (3, 5, 104),
        (2, 6, 182),
        (4, 6, 269),   # four vertices: larger blocks of equal vertex keys
        (4, 8, 1922),  # raw route only: the full lexmin scan is too slow here
    ]:
        family = enumerate_connected_oriented(max_vertices, max_flags)
        assert len(family) == size
        assert family == raw_oriented_family(max_vertices, max_flags)
        if max_flags < 8:
            assert family == ref_enumerate_connected_oriented(max_vertices, max_flags)
    assert enumerate_connected_oriented(1, 0) == ["og:1|-.0.0.0|"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BIG_FAMILY), st.randoms(use_true_random=False))
def test_monomial_labels_match_lexmin_under_relabeling(label, rnd):
    g = generator_graph(label)
    perm = list(range(g.n_vertices))
    rnd.shuffle(perm)
    relabeled = Graph(g.n_vertices, g.involution, tuple(perm[v] for v in g.incidence),
                      orientation=g.orientation)
    lexmin = brute_min_serialization(multigraph_data(relabeled))
    for _ in range(2):  # a miss, then a hit of the label memo
        assert monomial_of_graph(relabeled) == (label,) == (lexmin,)
    double = Graph(2 * g.n_vertices,
                   g.involution + tuple(f + g.n_flags for f in g.involution),
                   tuple(perm[v] for v in g.incidence) + tuple(v + g.n_vertices for v in g.incidence),
                   orientation=g.orientation * 2)
    assert monomial_of_graph(double) == (label, label)
