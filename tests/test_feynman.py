from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from graph_oracles import _connected, flags_at
from feynman_oracles import (
    class_by_class_sums,
    fraction_profile_sums,
    full_class_expansion,
    multiset_oracle,
    oracle_options,
    wick_pairings_naive,
    wick_profile_sums,
)
from kolmex import feynman
from kolmex.feynman import (
    LambdaSeries,
    Theory,
    TheoryError,
    gaussian_oracle,
    graph_expansion,
    graph_weight,
    invert_matrix,
    wick_pairing_sum,
)
from kolmex.graphs import (
    Graph,
    GraphError,
    _vacuum_classes_with_aut,
    enumerate_vacuum_graphs,
    graph_from_label,
    multigraph_data,
)

F = Fraction


def weight(g: Graph, theory: Theory, *rest) -> Fraction:
    """graph_weight of a flag graph, through its multigraph data."""
    return graph_weight(multigraph_data(g), theory, *rest)

TWO_LOOPS = Graph(1, (1, 0, 3, 2), (0, 0, 0, 0))
THETA = Graph(2, (3, 4, 5, 0, 1, 2), (0, 0, 0, 1, 1, 1))
DUMBBELL = Graph(2, (1, 0, 3, 2, 5, 4), (0, 0, 0, 1, 1, 1))


# -- theory construction --------------------------------------------------------

def test_metric_must_be_symmetric_invertible():
    with pytest.raises(TheoryError):
        Theory.build(2, ((1, 2), (3, 4)), {})
    singular = Theory.build(2, ((1, 1), (1, 1)), {})
    with pytest.raises(TheoryError):
        singular.metric_inverse


@pytest.mark.parametrize("n_colors, metric, tensors, message", [
    (2, ((1, 0), (0, 1)), {3: {(0, 2, 1): 1}}, r"index \(0, 1, 2\) outside color range"),
    (1, ((1,),), {3: {(0, -1, 0): 1}}, r"index \(-1, 0, 0\) outside color range"),
    (1, ((1,),), {3: {(0, 0): 1}}, r"index \(0, 0\) has wrong valence"),
    (1, ((1,),), {0: {(): 1}}, "tensor valences must be >= 3"),
    (2, ((1, 0),), {}, "metric must be n_colors x n_colors"),
], ids=["outside_color_range", "negative_index", "wrong_valence", "valence_zero",
        "metric_shape"])
def test_build_refuses_malformed_theories(n_colors, metric, tensors, message):
    with pytest.raises(TheoryError, match=message):
        Theory.build(n_colors, metric, tensors)


@pytest.mark.parametrize("name", ["cx", "c", "g3", "c3x", "c\u0663", "c 3"])
def test_single_color_refuses_unknown_couplings(name):
    with pytest.raises(TheoryError, match=f"unknown coupling {name!r}"):
        Theory.single_color(**{name: 1})


def test_valences_below_three_are_refused():
    for coupling in ("c1", "c2"):
        with pytest.raises(TheoryError, match="tensor valences must be >= 3"):
            Theory.single_color(**{coupling: 1})
    with pytest.raises(TheoryError, match="tensor valences must be >= 3"):
        Theory.build(2, ((1, 0), (0, 1)), {2: {(0, 1): 1}, 3: {(0, 0, 1): 1}})
    with pytest.raises(GraphError, match="valences must be >= 3"):
        enumerate_vacuum_graphs(1, {2})


def test_exact_inverse():
    m = ((F(2), F(1, 2)), (F(1, 2), F(3)))
    inv = invert_matrix(m)
    for i in range(2):
        for j in range(2):
            acc = sum(m[i][k] * inv[k][j] for k in range(2))
            assert acc == (1 if i == j else 0)


def test_tensor_symmetrization():
    t = Theory.build(1, ((1,),), {3: {(0, 0, 0): F(1, 2)}})
    assert t.tensors == ((3, (((0, 0, 0), F(1, 2)),)),)
    t2 = Theory.build(2, ((1, 0), (0, 1)), {3: {(1, 0, 0): F(1), (0, 1, 0): F(2)}})
    assert t2.tensors == ((3, (((0, 0, 1), F(3)),)),)  # sorted indices merge


# -- weights --------------------------------------------------------------------

def test_weight_single_coloring():
    t = Theory.single_color(c4=F("5/9"))
    assert weight(TWO_LOOPS, t) == F(5, 9)


def test_weight_zero_tensor_kills_graph():
    t = Theory.single_color(c4=F(2))  # no valence-3 tensor
    assert weight(THETA, t) == 0


def test_weight_theta_formula():
    # g^{11} = p, C_3 = c  ->  p^3 c^2
    p, c = F(7, 3), F(2, 5)
    t = Theory.build(1, ((1 / p,),), {3: {(0, 0, 0): c}})
    assert weight(THETA, t) == p**3 * c**2


def test_weight_rejects_tails():
    with_tail = Graph(1, (0,), (0,))
    with pytest.raises(GraphError):
        weight(with_tail, Theory.single_color(c3=F(1)))


def test_weight_isomorphism_invariant():
    t = Theory.build(
        2,
        ((F(1), F(0)), (F(0), F(2))),
        {3: {(0, 0, 0): F(1), (0, 1, 1): F(2)}},
    )
    theta_relabeled = Graph(2, (5, 4, 3, 2, 1, 0), (1, 1, 1, 0, 0, 0))
    assert weight(THETA, t) == weight(theta_relabeled, t)


def test_weight_multiplicative_over_disjoint_union():
    t = Theory.single_color(c3=F(2), c4=F(3))
    for g in [THETA, TWO_LOOPS, DUMBBELL]:
        nf, nv = g.n_flags, g.n_vertices
        double = Graph(
            2 * nv,
            tuple(list(g.involution) + [f + nf for f in g.involution]),
            tuple(list(g.incidence) + [v + nv for v in g.incidence]),
        )
        assert weight(double, t) == weight(g, t) ** 2


# -- contraction against the colouring sum ----------------------------------------

def brute_force_weight(g: Graph, theory: Theory) -> Fraction:
    """Reference: sum over all n_colors ** n_flags flag colorings of the
    edge/vertex factor product."""
    if g.tails():
        raise GraphError("weights are defined for tail-free graphs")
    g_inv = theory.metric_inverse
    tensors = {k: dict(entries) for k, entries in theory.tensors}
    edges = g.edges()
    vertex_flags = [flags_at(g, v) for v in range(g.n_vertices)]
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
                coeff = tensors.get(len(idx), {}).get(idx)
                if not coeff:
                    term = Fraction(0)
                    break
                term *= coeff
        total += term
    return total


SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def theories(draw, colors=(1, 3), valences=(3, 4), max_entries=None):
    """Random theory: non-diagonal invertible metric, symmetric tensors,
    dense or sparse, whose drawn entries may be zero (then dropped by
    `build`)."""
    n = draw(st.integers(*colors))
    metric = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            metric[i][j] = metric[j][i] = draw(SMALL_FRACTIONS)
    try:
        invert_matrix(metric)
    except TheoryError:
        assume(False)
    dense = max_entries is None and draw(st.booleans())
    tensors = {}
    for k in valences:
        idxs = list(combinations_with_replacement(range(n), k))
        chosen = idxs if dense else draw(
            st.lists(st.sampled_from(idxs), unique=True, max_size=max_entries))
        tensors[k] = {idx: draw(SMALL_FRACTIONS) for idx in chosen}
    return Theory.build(n, metric, tensors)


@st.composite
def tail_free_graphs(draw, max_vertices=4, max_flags=8):
    """Vertices of valence 3 or 4, at most `max_flags` flags in all, paired
    at random: loops, multi-edges and several components all occur."""
    valences = draw(st.lists(st.integers(3, 4), max_size=max_vertices))
    while sum(valences) > max_flags:
        valences.pop()
    if sum(valences) % 2:
        valences.remove(3)
    incidence = [v for v, k in enumerate(valences) for _ in range(k)]
    order = draw(st.permutations(range(len(incidence))))
    involution = [0] * len(incidence)
    for a, b in zip(order[::2], order[1::2]):
        involution[a], involution[b] = b, a
    return Graph(len(valences), tuple(involution), tuple(incidence))


@st.composite
def theories_and_graphs(draw):
    """A theory of 2 or 3 colors and a graph small enough to colour by
    brute force: up to 12 flags at two colors, 8 at three."""
    theory = draw(theories(colors=(2, 3)))
    return theory, draw(tail_free_graphs(max_flags=12 if theory.n_colors == 2 else 8))


@settings(max_examples=80, deadline=None)
@given(theories_and_graphs())
def test_contraction_matches_brute_force_on_random_graphs(case):
    theory, g = case
    assert weight(g, theory) == brute_force_weight(g, theory)


@settings(max_examples=6, deadline=None)
@given(theories(colors=(1, 2), valences=(3, 4)))
def test_contraction_matches_brute_force_on_cubic_quartic_classes(theory):
    for label, data, _ in _vacuum_classes_with_aut(2, (3, 4), 200_000):
        w = brute_force_weight(graph_from_label(label), theory)
        assert graph_weight(data, theory) == w


def test_contraction_edge_cases():
    t = Theory.build(2, ((F(2), F(1, 2)), (F(1, 2), F(3))), {3: {(0, 0, 1): F(1, 3)}})
    assert weight(Graph(0, (), ()), t) == 1
    assert weight(TWO_LOOPS, t) == 0  # no valence-4 tensor
    assert weight(Graph(1, (), ()), t) == 0  # nor a valence-0 one
    with pytest.raises(GraphError):
        weight(Graph(2, (0, 2, 1), (0, 1, 1)), t)


def test_expansion_equals_oracle_two_colors_order_three():
    t = Theory.build(
        2,
        ((F(2), F(1, 2)), (F(1, 2), F(3))),
        {
            3: {(0, 0, 0): F(1), (0, 0, 1): F(1, 2), (1, 1, 1): F(2)},
            4: {(0, 0, 1, 1): F(1, 3), (1, 1, 1, 1): F(-2, 5)},
        },
    )
    assert graph_expansion(t, 3).coeffs == gaussian_oracle(t, 3).coeffs


# -- expansion ------------------------------------------------------------------

def test_expansion_trivial_theory():
    assert graph_expansion(Theory.single_color(), 3).coeffs == (F(1), 0, 0, 0)


def test_expansion_quartic_order_one():
    c = F(11, 4)
    s = graph_expansion(Theory.single_color(c4=c), 1)
    assert s.coeffs == (F(1), c / 8)


def test_expansion_cubic_order_one():
    c = F(3, 7)
    s = graph_expansion(Theory.single_color(c3=c), 1)
    assert s.coeffs == (F(1), c**2 / 12 + c**2 / 8)  # theta + dumbbell


# -- oracle ---------------------------------------------------------------------

def test_oracle_trivial():
    assert gaussian_oracle(Theory.single_color(), 2).coeffs == (F(1), 0, 0)


def test_oracle_quartic_moment():
    # <phi^4> = 3 pairings: 1 + lambda c/8
    c = F(5)
    s = gaussian_oracle(Theory.single_color(c4=c), 1)
    assert s.coeffs == (F(1), c / 8)


def test_oracle_cubic_moment():
    # <phi^6> = 15 pairings: 1 + lambda 5 c^2 / 24
    c = F(1, 2)
    s = gaussian_oracle(Theory.single_color(c3=c), 1)
    assert s.coeffs == (F(1), 5 * c**2 / 24)


def test_oracle_color_budget():
    big = Theory.build(5, tuple(
        tuple(F(int(i == j)) for j in range(5)) for i in range(5)
    ), {})
    with pytest.raises(TheoryError):
        gaussian_oracle(big, 1)


def test_pairing_dp_matches_naive_enumeration():
    g_inv = ((F(2), F(1, 3)), (F(1, 3), F(5, 7)))
    cases = [
        (0, 0), (2, 0), (1, 1), (2, 2), (4, 0), (3, 1), (4, 2), (0, 6),
    ]
    for counts in cases:
        colors = tuple([0] * counts[0] + [1] * counts[1])
        assert wick_pairing_sum(counts, g_inv, {}) == wick_pairings_naive(
            colors, g_inv
        )


def test_odd_moments_vanish():
    g_inv = ((F(1),),)
    assert wick_pairing_sum((3,), g_inv, {}) == 0
    assert wick_pairings_naive((0, 0, 0), g_inv) == 0


def test_single_color_moments_are_double_factorials():
    g_inv = ((F(1),),)
    expected = {0: 1, 2: 1, 4: 3, 6: 15, 8: 105}
    for m, val in expected.items():
        assert wick_pairing_sum((m,), g_inv, {}) == val


@settings(max_examples=40, deadline=None)
@given(theories(colors=(1, 2), max_entries=3),
       st.lists(st.integers(0, 6), min_size=2, max_size=2))
@example(Theory.build(1, ((F(-5, 3),),), {}), [5, 0])
@example(Theory.build(2, ((F(2), F(1, 2)), (F(1, 2), F(3))), {}), [4, 2])
def test_pairing_sum_on_integer_metric_scales_the_fraction_sum(theory, counts):
    # on G = dg * g^{-1} every pair carries one more dg: dg^(M/2) for M slots
    counts = tuple(counts[:theory.n_colors])
    dg, G, _ = theory._integer_tables
    on_ints = wick_pairing_sum(counts, G, {})
    assert type(on_ints) is int
    on_fractions = wick_pairing_sum(counts, theory.metric_inverse, {})
    assert on_ints == dg ** (sum(counts) // 2) * on_fractions


def ordered_tuple_oracle(theory, order):
    """Reference: gaussian_oracle over ordered p-tuples of at most 2 * order
    vertices, each weighted 1/p!, instead of over multisets."""
    options = oracle_options(theory)
    g_inv = theory.metric_inverse
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    memo: dict = {}
    for p in range(1, 2 * order + 1):
        for combo in product(options, repeat=p):
            slots = sum(k for k, _, _ in combo)
            n = slots // 2 - p
            if slots % 2 or not 0 <= n <= order:
                continue
            counts = [0] * theory.n_colors
            factor = Fraction(1, factorial(p))
            for _, idx, coeff in combo:
                factor *= coeff
                for c in idx:
                    counts[c] += 1
            coeffs[n] += factor * wick_pairing_sum(tuple(counts), g_inv, memo)
    return LambdaSeries(tuple(coeffs))


@settings(max_examples=40, deadline=None)
@given(theories(max_entries=2), st.integers(0, 3))
def test_multiset_oracle_matches_ordered_tuples(theory, order):
    # and the color-count dp of gaussian_oracle matches both
    multisets = multiset_oracle(theory, order)
    assert multisets == ordered_tuple_oracle(theory, order)
    assert gaussian_oracle(theory, order) == multisets


@settings(max_examples=25, deadline=None)
@given(theories(max_entries=3), st.integers(0, 3))
def test_pruned_count_dp_oracle_matches_multisets(theory, order):
    # the dp drops a state once M - 2p passes 2 * order, which also bounds
    # the vertex count p by 2 * order
    assert gaussian_oracle(theory, order) == multiset_oracle(theory, order)


def test_count_dp_oracle_matches_multisets_at_four_colors():
    t = Theory.build(
        4,
        tuple(tuple(F(2) if i == j else F(1, 1 + i + j) for j in range(4)) for i in range(4)),
        {3: {(0, 1, 2): F(1, 2), (3, 3, 3): F(-2), (0, 0, 1): F(3)},
         4: {(0, 1, 2, 3): F(1, 3), (1, 1, 2, 2): F(-1, 4)}},
    )
    assert gaussian_oracle(t, 3) == multiset_oracle(t, 3)


# -- the linked-cluster expansion against the sum over every class -----------------

@st.composite
def linked_cases(draw):
    """A theory of 1-4 colors with cubic and/or quartic tensors and an order
    (at most 2 at four colors)."""
    colors = draw(st.integers(1, 4))
    order = draw(st.integers(0, 2 if colors == 4 else 3))
    valences = draw(st.sampled_from([(3,), (4,), (3, 4)]))
    return draw(theories(colors=(colors, colors), valences=valences)), order


def dense_theory(colors, valences):
    """Every index multiset of every valence, with entries that vary, over
    a non-diagonal metric."""
    metric = tuple(tuple(F(3) if i == j else F(1, 2 + i + j) for j in range(colors))
                   for i in range(colors))
    return Theory.build(colors, metric, {
        k: {idx: F(1 + sum(idx), k + len(set(idx)))
            for idx in combinations_with_replacement(range(colors), k)}
        for k in valences
    })


@settings(max_examples=30, deadline=None)
@given(linked_cases())
@example((dense_theory(4, (3, 4)), 2))
@example((dense_theory(3, (3, 4)), 3))
def test_linked_expansion_matches_full_class_sum(case):
    theory, order = case
    assert graph_expansion(theory, order) == full_class_expansion(theory, order)


def test_linked_expansion_contracts_connected_classes_only():
    # the linked path contracts the plans of the 88 connected order-3
    # classes, in enumeration order, each with the |Aut| of the pinned full
    # class list
    t = Theory.single_color(c3=F(1, 3), c4=F(-5, 2))
    assert graph_expansion(t, 3) == full_class_expansion(t, 3)
    plans = feynman._class_plans(3, (3, 4), 200_000)
    connected = [(feynman._contraction_plan(data), aut)
                 for _, data, aut in _vacuum_classes_with_aut(3, (3, 4), 200_000)
                 if _connected(data.n_vertices, data.edge_mult)]
    assert len(plans) == len(connected) == 88
    assert list(plans) == connected


@st.composite
def plan_cases(draw):
    """A theory of 1-3 colors whose valences may miss some of the family's
    or have zero entries, an order 0-3, and a cubic and/or quartic
    family."""
    colors = draw(st.integers(1, 3))
    order = draw(st.integers(0, 3 if colors < 3 else 2))
    family = draw(st.sampled_from([(3,), (4,), (3, 4)]))
    valences = tuple(draw(st.lists(st.sampled_from(family), unique=True, min_size=1)))
    theory = draw(theories(colors=(colors, colors), valences=valences, max_entries=3))
    return theory, family, order


@settings(max_examples=40, deadline=None)
@given(plan_cases())
@example((dense_theory(3, (3, 4)), (3, 4), 3))
@example((dense_theory(2, (3,)), (3, 4), 3))
@example((Theory.build(1, ((F(-5, 3),),), {3: {(0, 0, 0): F(2, 7)}, 4: {(0,) * 4: F(-3, 4)}}),
          (3, 4), 3))
@example((Theory.build(1, ((F(7, 2),),), {4: {(0,) * 4: F(-4, 9)}}), (3, 4), 3))
@example((Theory.build(1, ((F(-3),),), {3: {(0, 0, 0): F(5, 2)}}), (3, 4), 2))
def test_plan_sums_match_class_by_class_sums(case):
    # the family's connected plans contracted in one call, summed on
    # integers, against one graph_weight / |Aut| per connected class; with
    # one colour, also the sum of 1/|Aut| per valence profile times its
    # monomial
    theory, family, order = case
    expected = class_by_class_sums(theory, family, order, connected=True)
    sums = feynman._plan_sums(feynman._class_plans(order, family, 200_000), theory)
    assert [sums.get(n, 0) for n in range(order + 1)] == expected
    if theory.n_colors == 1:
        table = feynman._profile_table(order, family, 200_000)
        by_profile = feynman._profile_sums(table, theory)
        assert [by_profile.get(n, 0) for n in range(order + 1)] == expected


@st.composite
def one_colour_profile_cases(draw):
    """A one-colour theory built with `Theory.build` on a metric other than
    1, couplings of either sign (a zero one drops its valence), the
    valence family it is summed over and an order 0-4."""
    family = draw(st.sampled_from([(3,), (4,), (5,), (6,), (3, 4), (4, 6), (3, 5, 6),
                                   (3, 4, 5, 6)]))
    metric = draw(SMALL_FRACTIONS.filter(lambda g: g not in (0, 1)))
    valences = draw(st.lists(st.sampled_from(family), unique=True, min_size=1))
    tensors = {k: {(0,) * k: draw(SMALL_FRACTIONS)} for k in valences}
    return Theory.build(1, ((metric,),), tensors), family, draw(st.integers(0, 4))


@settings(max_examples=60, deadline=None)
@given(one_colour_profile_cases())
@example((Theory.build(1, ((F(-5, 3),),), {3: {(0, 0, 0): F(2, 7)}, 4: {(0,) * 4: F(-3, 4)}}),
          (3, 4), 4))
@example((Theory.build(1, ((F(3, 2),),), {5: {(0,) * 5: F(-1, 3)}, 6: {(0,) * 6: F(2, 5)}}),
          (3, 5, 6), 4))
def test_integer_profile_sums_match_fraction_sums(case):
    # the integer numerators per order against the Fraction formula: the
    # same orders and the same values
    theory, family, order = case
    table = feynman._profile_table(order, family, 200_000)
    assert feynman._profile_sums(table, theory) == fraction_profile_sums(table, theory)


# -- the equivalence theorem at desk scale ---------------------------------------

def test_expansion_equals_oracle_one_color():
    t = Theory.single_color(c3=F(1, 3), c4=F(-5, 2))
    e = graph_expansion(t, 3)
    o = gaussian_oracle(t, 3)
    assert e.coeffs == o.coeffs


def test_expansion_equals_oracle_two_colors():
    t = Theory.build(
        2,
        ((F(2), F(1, 2)), (F(1, 2), F(3))),
        {
            3: {(0, 0, 0): F(1), (0, 0, 1): F(1, 2), (1, 1, 1): F(2)},
            4: {(0, 0, 1, 1): F(1, 3)},
        },
    )
    assert graph_expansion(t, 2).coeffs == gaussian_oracle(t, 2).coeffs


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "all"])
@pytest.mark.parametrize("valences, cap, max_order", [
    ((3,), None, 4), ((4,), None, 4), ((3, 4), None, 4), ((3, 5, 6), None, 3),
])
def test_profile_sums_match_wick(valences, cap, max_order, connected):
    # per valence profile, the sum of 1/|Aut| over the enumerated classes
    # against the pairing count of Wick's theorem (its log when connected):
    # the connected classes through `_profile_table`, every class straight
    # from the enumeration; `cap` None is the oracle's own bound, 2 * order
    for order in range(max_order + 1):
        if connected:
            table = feynman._profile_table(order, valences, 200_000)
            sums = {profile: inverse_aut for profile, _, _, inverse_aut in table}
        else:
            sums = Counter()
            for _, data, aut in _vacuum_classes_with_aut(order, valences, 200_000):
                profile = tuple(sorted(Counter(feynman._vertex_valences(data)).items()))
                sums[profile] += F(1, aut)
        assert sums == wick_profile_sums(order, valences, cap, connected), order


# -- series plumbing --------------------------------------------------------------

def test_matching_order():
    a = LambdaSeries((F(1), F(2), F(3)))
    b = LambdaSeries((F(1), F(2), F(4)))
    assert a.matching_order(b) == 1
    assert a.matching_order(a) == 2


@settings(max_examples=10)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_equivalence_property_small_orders(c3, c4):
    t = Theory.single_color(c3=c3, c4=c4)
    assert graph_expansion(t, 2).coeffs == gaussian_oracle(t, 2).coeffs
