import hashlib
from dataclasses import replace
from random import Random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from graph_oracles import (
    Cut,
    _connected,
    automorphism_order_flag_search,
    brute_min_serialization,
    candidate_permutations,
    directed_edges,
    flag_graph_from_label,
    flags_at,
    multigraphs_with_degrees,
    raw_vacuum_classes,
    recursive_degree_sequences,
    refinement_search,
    scc_cut_masks,
    strongly_connected_components,
)
from kolmex import graphs as G
from kolmex.graphs import (
    Graph,
    GraphError,
    canonical_label,
    enumerate_cuts,
    enumerate_vacuum_graphs,
    graph_from_label,
)

EMPTY_GRAPH = Graph(0, (), ())
BARE = Graph(1, (), ())
LOOP = Graph(1, (1, 0), (0, 0))
TWO_LOOPS = Graph(1, (1, 0, 3, 2), (0, 0, 0, 0))
THETA = Graph(2, (3, 4, 5, 0, 1, 2), (0, 0, 0, 1, 1, 1))
DUMBBELL = Graph(2, (1, 0, 3, 2, 5, 4), (0, 0, 0, 1, 1, 1))
EDGE = Graph(2, (1, 0), (0, 1), orientation=("out", "in"))
CYCLE2 = Graph(2, (1, 0, 3, 2), (0, 1, 1, 0), orientation=("out", "in", "out", "in"))


def _cycles(*lengths, oriented=False):
    """Disjoint union of cycles: every vertex looks alike to refinement."""
    involution, incidence = [], []
    start = 0
    for length in lengths:
        for i in range(length):
            a = len(involution)
            involution += [a + 1, a]
            incidence += [start + i, start + (i + 1) % length]
        start += length
    orientation = ("out", "in") * (len(incidence) // 2) if oriented else None
    return Graph(start, tuple(involution), tuple(incidence), orientation=orientation)


# the search has to individualize: refinement cannot split these cells
SQUARE = _cycles(4)
DIRECTED_SQUARE = _cycles(4, oriented=True)
DECORATED_SQUARE = replace(SQUARE, decorations=("x", None, "x", None))
# ... and here cells also mix orbits, so some leaves miss the minimum
TRIANGLE_AND_SQUARE = _cycles(3, 4)
DIRECTED_TRIANGLE_AND_SQUARE = _cycles(3, 4, oriented=True)
# the lexmin search's leaf is complete before the bare vertices are placed
TRIANGLE_AND_TWO_BARE = Graph(5, (1, 0, 3, 2, 5, 4), (0, 1, 1, 2, 2, 0))


def test_construction_validation():
    with pytest.raises(GraphError):
        Graph(1, (1, 1), (0, 0))  # not an involution
    with pytest.raises(GraphError):
        Graph(1, (0,), (1,))  # incidence outside vertex range
    with pytest.raises(GraphError):
        Graph(2, (1, 0), (0, 1), orientation=("out", "out"))  # same edge labels
    with pytest.raises(GraphError):
        Graph(1, (0,), (0,), orientation=("sideways",))


# -- automorphisms ------------------------------------------------------------

def automorphism_order(g):
    """|Aut| as the package counts it: the vertex automorphisms of the
    lexmin search times the per-bundle flag choices."""
    data = G.multigraph_data(g)
    return G._min_serialization(data)[1] * G._flag_choices(data)


def test_automorphism_examples():
    assert automorphism_order(BARE) == 1
    assert automorphism_order(TWO_LOOPS) == 8
    assert automorphism_order(THETA) == 12
    assert automorphism_order(DUMBBELL) == 8
    assert automorphism_order(TRIANGLE_AND_TWO_BARE) == 12


@pytest.mark.parametrize("g", [BARE, LOOP, TWO_LOOPS, THETA, DUMBBELL, EDGE, CYCLE2,
                               SQUARE, DIRECTED_SQUARE, DECORATED_SQUARE])
def test_automorphisms_match_flag_level_search(g):
    assert automorphism_order(g) == automorphism_order_flag_search(g)


def test_disjoint_union_power_law():
    # Aut(g + g) = Aut(g)^2 * 2 for connected g
    for g in [LOOP, THETA, TWO_LOOPS]:
        nf, nv = g.n_flags, g.n_vertices
        double = Graph(
            2 * nv,
            tuple(list(g.involution) + [f + nf for f in g.involution]),
            tuple(list(g.incidence) + [v + nv for v in g.incidence]),
        )
        assert automorphism_order(double) == automorphism_order(g) ** 2 * 2


def test_oriented_loops_do_not_flip():
    oriented_loop = Graph(1, (1, 0), (0, 0), orientation=("out", "in"))
    assert automorphism_order(oriented_loop) == 1
    assert automorphism_order(LOOP) == 2
    assert automorphism_order_flag_search(oriented_loop) == 1


# -- canonical form -----------------------------------------------------------

def test_canonical_invariant_under_relabeling():
    theta_relabel = Graph(2, (5, 4, 3, 2, 1, 0), (1, 1, 1, 0, 0, 0))
    assert canonical_label(THETA) == canonical_label(theta_relabel)


def test_canonical_separates_loop_from_edge():
    plain_edge = Graph(2, (1, 0), (0, 1))
    assert canonical_label(LOOP) != canonical_label(plain_edge)


def test_canonical_round_trip():
    for g in [BARE, LOOP, TWO_LOOPS, THETA, DUMBBELL, EDGE, CYCLE2, EMPTY_GRAPH]:
        label = canonical_label(g)
        assert canonical_label(graph_from_label(label)) == label


def test_decorations_respected():
    a = Graph(2, (1, 0), (0, 1), decorations=("x", "y"))
    b = Graph(2, (1, 0), (0, 1), decorations=("y", "x"))
    c = Graph(2, (1, 0), (0, 1), decorations=("x", "x"))
    assert canonical_label(a) == canonical_label(b)
    assert canonical_label(a) != canonical_label(c)
    assert automorphism_order(a) == 1
    assert automorphism_order(c) == 2


@pytest.mark.parametrize("deco", ["", "-", "a.b", "a;b", "a|b", "|"])
def test_decorations_that_collide_with_label_syntax_are_rejected(deco):
    # "" and "-" would label like an undecorated vertex; '.', ';' and '|'
    # split label fields
    with pytest.raises(GraphError, match="not a label token"):
        Graph(1, (), (), decorations=(deco,))


def test_decorations_must_be_strings():
    # 3 and "3" would serialize alike
    with pytest.raises(GraphError, match="not a label token"):
        Graph(1, (), (), decorations=(3,))


def test_label_tokens_in_decorations_round_trip():
    g = Graph(2, (1, 0), (0, 1), decorations=("a>b,x:1", None))
    label = canonical_label(g)
    assert label == "ug:2|-.0.0.0;a>b,x:1.0.0.0|0>1x1"
    assert canonical_label(graph_from_label(label)) == label


@pytest.mark.parametrize("label", [
    "ug", "ug:1", "ug:1|a|b.0.0.0|", "ug:1|x.0.0|", "ug:x|-.0.0.0|",
    "ug:1|-.0.z.0|", "zz:1|-.0.0.0|", "ug:2|-.0.0.0;-.0.0.0|0>5x1",
    "ug:2|-.0.0.0;-.0.0.0|0-1x1", "ug:1|-.0.0.0;-.0.0.0|",
    "og:1|-.-1.0.0|",                         # a negative count
    "og:1|-.+1.0.0|", "og:1|-.\u0663.0.0|",   # counts in other digit forms
    "og:1|-.0.0.0|0>0x1",                     # a loop written as an edge
    "og:2|-.0.0.0;-.0.0.0|0>1x0",             # an empty bundle
    "og:2|-.0.0.0;-.0.0.0|0>1x1,0>1x2",       # a repeated bundle
    "ug:2|-.0.0.0;-.0.0.0|0>1x1,1>0x1",       # the same, unoriented
    "og:2|-.0.0.0;-.0.0.0|2>0x1",             # an end out of range
    "ug:1|-.0.0.1|",                          # an out-tail, unoriented
    "og:1|.0.0.0|",                           # an empty decoration
    "og:1|-.0.0.0||",                         # a fourth field
])
def test_malformed_labels_raise_graph_error_naming_the_label(label):
    for parse in (G.label_data, graph_from_label):
        with pytest.raises(GraphError, match="malformed label") as info:
            parse(label)
        assert repr(label) in str(info.value)


@settings(deadline=None, max_examples=120)
@given(st.deferred(lambda: multigraph_records(max_vertices=6)),
       st.randoms(use_true_random=False))
def test_label_parser_matches_the_flag_level_parser(data, rnd):
    # the canonical label and a serialization under a random relabelling
    n = data.n_vertices
    perm = list(range(n))
    rnd.shuffle(perm)
    for label in (G._min_serialization(data)[0], G._serialize_under(data, perm)):
        parsed = G.label_data(label)
        assert G._serialize_under(parsed, range(n)) == label
        g = graph_from_label(label)
        assert g == flag_graph_from_label(label)
        assert parsed.n_flags == g.n_flags


@st.composite
def random_graph(draw, vertices=(1, 3), max_edges=3, max_tails=2):
    """Random flag graph, oriented and decorated or not."""
    n_vertices = draw(st.integers(*vertices))
    n_edges = draw(st.integers(0, max_edges))
    n_tails = draw(st.integers(0, max_tails))
    involution = []
    incidence = []
    for _ in range(n_edges):
        a = len(involution)
        involution += [a + 1, a]
        incidence += [
            draw(st.integers(0, n_vertices - 1)),
            draw(st.integers(0, n_vertices - 1)),
        ]
    for _ in range(n_tails):
        involution.append(len(involution))
        incidence.append(draw(st.integers(0, n_vertices - 1)))
    orientation = None
    if draw(st.booleans()):
        orientation = []
        for _ in range(n_edges):
            orientation += draw(st.sampled_from([["out", "in"], ["in", "out"]]))
        orientation += [draw(st.sampled_from(["in", "out"])) for _ in range(n_tails)]
        orientation = tuple(orientation)
    decorations = None
    if draw(st.booleans()):
        decorations = tuple(
            draw(st.sampled_from([None, "x", "y"])) for _ in range(n_vertices)
        )
    return Graph(n_vertices, tuple(involution), tuple(incidence),
                 orientation=orientation, decorations=decorations)


# 4-7 vertices with few edges: large cells of equivalent vertices that only
# individualization separates
WIDE_GRAPHS = random_graph(vertices=(4, 7), max_edges=6, max_tails=3)


def _relabeled(g, rnd):
    """The same graph under random vertex and flag renamings."""
    vperm = list(range(g.n_vertices))
    rnd.shuffle(vperm)
    pieces = [list(e) for e in g.edges()] + [[t] for t in g.tails()]
    for piece in pieces:
        rnd.shuffle(piece)
    rnd.shuffle(pieces)
    flat = [f for piece in pieces for f in piece]
    fmap = {old: new for new, old in enumerate(flat)}
    involution = [0] * g.n_flags
    incidence = [0] * g.n_flags
    for old in range(g.n_flags):
        involution[fmap[old]] = fmap[g.involution[old]]
        incidence[fmap[old]] = vperm[g.incidence[old]]
    orientation = None
    if g.orientation is not None:
        orientation = [None] * g.n_flags
        for old in range(g.n_flags):
            orientation[fmap[old]] = g.orientation[old]
        orientation = tuple(orientation)
    decorations = None
    if g.decorations is not None:
        decorations = [None] * g.n_vertices
        for v in range(g.n_vertices):
            decorations[vperm[v]] = g.decorations[v]
        decorations = tuple(decorations)
    return Graph(g.n_vertices, tuple(involution), tuple(incidence),
                 orientation=orientation, decorations=decorations)


def _certificate(g):
    return refinement_search(G.multigraph_data(g))[0]


@settings(deadline=None)
@given(st.one_of(random_graph(), WIDE_GRAPHS), st.randoms(use_true_random=False))
def test_canonical_complete_against_flag_search(g, rnd):
    # relabel vertices and flags at random: label, certificate and |Aut|
    # must be preserved
    relabeled = _relabeled(g, rnd)
    assert canonical_label(relabeled) == canonical_label(g)
    assert _certificate(relabeled) == _certificate(g)
    assert automorphism_order(relabeled) == automorphism_order(g)


@settings(deadline=None)
@given(WIDE_GRAPHS)
@example(TRIANGLE_AND_SQUARE)
@example(DIRECTED_TRIANGLE_AND_SQUARE)
@example(replace(TRIANGLE_AND_SQUARE, decorations=("x",) * 7))
@example(Graph(5, (0, 1), (0, 1)))  # no edges; two tailed and three bare vertices
@example(Graph(3, (1, 0, 3, 2, 5, 4, 7, 6, 9, 8),  # a path, 0, 1 and 2 loops: keys all differ
               (0, 1, 1, 2, 1, 1, 2, 2, 2, 2)))
@example(TRIANGLE_AND_TWO_BARE)
@example(Graph(4, (1, 0, 3, 2, 5, 4, 7, 6, 8, 9, 10, 11),  # directed square, in-tails
               (0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 2, 3),
               orientation=("out", "in") * 4 + ("in",) * 4))
@example(replace(TRIANGLE_AND_SQUARE, decorations=("x", "y", None, "x", "x", "y", None)))
def test_refinement_count_matches_permutation_oracle(g):
    # the refinement search's leaf count and the lexmin search's count
    # against the vertex permutations that reach the brute-force lexmin:
    # all three are |Aut| on vertices
    data = G.multigraph_data(g)
    best = brute_min_serialization(data)
    oracle = sum(
        1 for perm in candidate_permutations(data)
        if G._serialize_under(data, perm) == best
    )
    assert refinement_search(data)[1] == oracle
    assert G._min_serialization(data) == (best, oracle)


@settings(deadline=None)
@given(WIDE_GRAPHS, st.randoms(use_true_random=False), st.booleans())
@example(TRIANGLE_AND_SQUARE, Random(0), False)
@example(TRIANGLE_AND_SQUARE, Random(0), True)
@example(DIRECTED_TRIANGLE_AND_SQUARE, Random(1), True)
def test_certificate_equal_iff_lexmin_equal(g, rnd, rewire):
    # a relabeled copy, optionally with two flags trading vertices: that
    # keeps every valence, so non-isomorphic pairs are hard to tell apart
    h = _relabeled(g, rnd)
    if rewire and h.n_flags >= 2:
        f1, f2 = rnd.sample(range(h.n_flags), 2)
        incidence = list(h.incidence)
        incidence[f1], incidence[f2] = incidence[f2], incidence[f1]
        h = Graph(h.n_vertices, h.involution, tuple(incidence),
                  orientation=h.orientation, decorations=h.decorations)
    same_lexmin = canonical_label(g) == canonical_label(h)
    assert (_certificate(g) == _certificate(h)) == same_lexmin
    if not rewire:
        assert same_lexmin


# -- orientation and cuts -----------------------------------------------------

def _cuts(g):
    """The upper-side masks of g's cuts, read on its multigraph data."""
    return enumerate_cuts(G.multigraph_data(g))


def _sides(mask, n):
    upper = frozenset(v for v in range(n) if mask >> v & 1)
    return upper, frozenset(range(n)) - upper


def test_cut_examples():
    single = Graph(1, (), (), orientation=())
    assert _cuts(single) == [0, 1]
    assert _cuts(EDGE) == [0, 1, 3]  # the one proper cut has upper {0}
    assert _cuts(CYCLE2) == [0, 3]  # the wheel blocks every bipartition
    with pytest.raises(GraphError, match="oriented"):
        enumerate_cuts(G.multigraph_data(THETA))


def test_cut_halves_partition_flags():
    from kolmex.hopf import _side_monomial, monomial_degree

    chain = Graph(
        3, (1, 0, 3, 2), (0, 1, 1, 2),
        orientation=("out", "in", "out", "in"),
    )
    data = G.multigraph_data(chain)
    for mask in _cuts(chain):
        upper, lower = _sides(mask, 3)
        # severed halves stay with their side as tails, so the sides'
        # labels split the flags exactly
        assert monomial_degree(_side_monomial(data, sorted(upper))) + monomial_degree(
            _side_monomial(data, sorted(lower))) == chain.n_flags
        cut = Cut(chain, upper, lower)
        assert cut.upper_graph.n_flags + cut.lower_graph.n_flags == chain.n_flags


def test_cuts_revalidate_conditions():
    chain = Graph(
        3, (1, 0, 3, 2), (0, 1, 1, 2),
        orientation=("out", "in", "out", "in"),
    )
    cuts = [_sides(mask, 3) for mask in _cuts(chain)]
    for upper, lower in cuts:
        for s, t in directed_edges(chain):
            assert not (s in lower and t in upper)
    proper = {(upper, lower) for upper, lower in cuts if upper and lower}
    # hand enumeration for the chain 0 -> 1 -> 2: only past|future splits
    assert proper == {
        (frozenset({0}), frozenset({1, 2})),
        (frozenset({0, 1}), frozenset({2})),
    }
    assert len(cuts) <= 2 + 2**3


def test_directed_cut_count_bound():
    # no wheels: cut count bounded by 2^|V|
    star = Graph(
        3, (1, 0, 3, 2), (0, 1, 0, 2),
        orientation=("out", "in", "out", "in"),
    )
    assert len(_cuts(star)) <= 2**3


def test_wheel_with_pendant_vertex():
    # 2-cycle on {0,1} plus an edge 1 -> 2: the wheel must stay together
    g = Graph(
        3, (1, 0, 3, 2, 5, 4), (0, 1, 1, 0, 1, 2),
        orientation=("out", "in", "out", "in", "out", "in"),
    )
    sccs = [c for c in strongly_connected_components(g) if len(c) > 1]
    cuts = [_sides(mask, 3) for mask in _cuts(g)]
    for upper, lower in cuts:
        for comp in sccs:
            assert comp <= upper or comp <= lower
    proper = {(upper, lower) for upper, lower in cuts if upper and lower}
    assert proper == {(frozenset({0, 1}), frozenset({2}))}


@st.composite
def oriented_graphs(draw):
    """Oriented graphs on 0-7 vertices: a wheel through distinct vertices,
    more edges (loops and parallel edges included) and tails."""
    n = draw(st.integers(0, 7))
    if n == 0:
        return Graph(0, (), (), orientation=())
    vertex = st.integers(0, n - 1)
    wheel = draw(st.lists(vertex, max_size=n, unique=True))
    edges = list(zip(wheel, wheel[1:] + wheel[:1])) if len(wheel) > 1 else []
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    tails = draw(st.lists(st.tuples(vertex, st.sampled_from(("in", "out"))), max_size=4))
    involution, incidence, orientation = [], [], []
    for s, t in edges:
        f = len(involution)
        involution += [f + 1, f]
        incidence += [s, t]
        orientation += ["out", "in"]
    for v, lab in tails:
        involution.append(len(involution))
        incidence.append(v)
        orientation.append(lab)
    return Graph(n, tuple(involution), tuple(incidence), orientation=tuple(orientation))


@settings(max_examples=300, deadline=None)
@given(oriented_graphs())
@example(CYCLE2)
def test_one_cut_rule_matches_the_scc_rule(g):
    """No edge from lower to upper: the same cuts, in mask order, as the
    two-condition rule that also keeps each SCC on one side."""
    assert _cuts(g) == scc_cut_masks(g)


# -- vacuum enumeration ---------------------------------------------------------

def test_vacuum_examples():
    only_empty = enumerate_vacuum_graphs(2, set())
    assert len(only_empty) == 1 and only_empty[0].n_flags == 0

    val4 = enumerate_vacuum_graphs(1, {4})
    assert len(val4) == 2  # empty + the two-loop vertex
    assert sorted(g.n_flags for g in val4) == [0, 4]

    val3 = enumerate_vacuum_graphs(1, {3})
    labels = {canonical_label(g) for g in val3 if g.n_flags}
    assert labels == {canonical_label(THETA), canonical_label(DUMBBELL)}


def test_vacuum_enumeration_no_duplicates():
    classes = enumerate_vacuum_graphs(2, {3, 4})
    labels = [canonical_label(g) for g in classes]
    assert len(labels) == len(set(labels))
    for g in classes:
        assert not g.tails()
        assert all(len(flags_at(g, v)) in (3, 4) for v in range(g.n_vertices))
        assert g.n_flags // 2 - g.n_vertices <= 2


def _flag_isomorphic(a, b):
    """Exhaustive relabeling search: does a flag-level bijection exist?"""
    from itertools import permutations as perms

    if (a.n_vertices, a.n_flags) != (b.n_vertices, b.n_flags):
        return False
    flags_b = [flags_at(b, v) for v in range(b.n_vertices)]
    for vperm in perms(range(b.n_vertices)):
        if any(
            len(flags_at(a, v)) != len(flags_b[vperm[v]])
            for v in range(a.n_vertices)
        ):
            continue
        per_vertex = [
            [dict(zip(flags_at(a, v), p)) for p in perms(flags_b[vperm[v]])]
            for v in range(a.n_vertices)
        ]

        def rec(v, mapping):
            if v == a.n_vertices:
                return all(
                    mapping[a.involution[f]] == b.involution[mapping[f]]
                    and (
                        a.orientation is None
                        or a.orientation[f] == b.orientation[mapping[f]]
                    )
                    for f in range(a.n_flags)
                )
            return any(
                rec(v + 1, {**mapping, **choice}) for choice in per_vertex[v]
            )

        if a.decorations is not None or b.decorations is not None:
            da = a.decorations or (None,) * a.n_vertices
            db = b.decorations or (None,) * b.n_vertices
            if any(da[v] != db[vperm[v]] for v in range(a.n_vertices)):
                continue
        if rec(0, {}):
            return True
    return False


def test_labels_complete_at_flag_level():
    # equal label <=> a flag-level relabeling exists, over every pair of
    # enumerated classes with <= 8 flags; the search is the independent oracle
    classes = [g for g in enumerate_vacuum_graphs(2, {3, 4}) if g.n_flags <= 8]
    assert len(classes) >= 6
    checked = 0
    for i, a in enumerate(classes):
        for b in classes[i:]:
            same_label = canonical_label(a) == canonical_label(b)
            assert same_label == _flag_isomorphic(a, b), (
                canonical_label(a), canonical_label(b)
            )
            checked += 1
    assert checked >= 15


def test_raw_vacuum_certificates_match_labels():
    # every raw multigraph at order 2: certificates group exactly as labels
    by_certificate: dict = {}
    by_label: dict = {}
    spent = [0]
    for degrees in G._degree_sequences([4, 3], 2):
        for i, data in enumerate(multigraphs_with_degrees(degrees, spent, 10**6)):
            key = (degrees, i)
            by_certificate.setdefault(refinement_search(data)[0], set()).add(key)
            by_label.setdefault(G._min_serialization(data)[0], set()).add(key)
    assert spent[0] == 62
    assert sorted(map(sorted, by_certificate.values())) == sorted(
        map(sorted, by_label.values())
    )
    assert len(by_label) == 21


@pytest.mark.parametrize("valences", [(3,), (4,), (3, 4), (3, 5, 6)])
def test_degree_sequences_match_the_recursive_listing(valences):
    # the same nonincreasing sequences, each once, yielded by increasing length
    for order in range(7):
        lazy = list(G._degree_sequences(valences, order))
        assert set(lazy) == set(recursive_degree_sequences(valences, order)), order
        assert len(set(lazy)) == len(lazy)
        assert [len(d) for d in lazy] == sorted(len(d) for d in lazy)
        assert all(list(d) == sorted(d, reverse=True) for d in lazy)


def _classes_with_aut(classes):
    return [(canonical_label(g), automorphism_order(g)) for g in classes]


@pytest.mark.parametrize("valences", [{3, 4}, {3}, {4}])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_vacuum_generator_matches_raw_route(valences, order):
    # closing one vertex at a time against every labelled multigraph
    # deduplicated afterwards: the same labels, order and |Aut|
    new = _classes_with_aut(enumerate_vacuum_graphs(order, valences))
    assert new == raw_vacuum_classes(order, valences)


@st.composite
def multigraph_records(draw, max_vertices=8):
    """MultigraphData drawn directly: decorated or not, oriented or not,
    loops, tails and multiplicities of up to two digits."""
    n = draw(st.integers(0, max_vertices))
    oriented = draw(st.booleans())
    counts = st.sampled_from([0, 0, 0, 1, 2, 10, 12])
    deco = tuple(draw(st.sampled_from([None, None, "x", "y"])) for _ in range(n))
    loops = tuple(draw(counts) for _ in range(n))
    tails_in = tuple(draw(st.sampled_from([0, 0, 1])) for _ in range(n))
    tails_out = (tuple(draw(st.sampled_from([0, 0, 1])) for _ in range(n))
                 if oriented else (0,) * n)
    pairs = [(u, w) for u in range(n) for w in range(n)
             if u != w and (oriented or u < w)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    mult = {pair: draw(st.sampled_from([1, 1, 1, 2, 3, 9, 10, 11])) for pair in chosen}
    return G.MultigraphData(n, oriented, loops, tails_in, tails_out, mult, deco)


CUBE = G.multigraph_data(Graph(
    8,
    tuple(f ^ 1 for f in range(24)),
    tuple(v for u, w in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                         (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)] for v in (u, w)),
))

# eleven vertices: slot fields of two digits sort differently as text
STAR = G.MultigraphData(11, False, (0,) * 11, (0,) * 11, (0,) * 11,
                        {(0, w): 1 for w in range(1, 11)}, ("hub",) + ("a",) * 4 + (None,) * 6)
PATH = G.MultigraphData(11, True, (0,) * 11, (0,) * 11, (0,) * 11,
                        {(v, v + 1): 1 + v % 3 for v in range(10)}, ("a", "b") * 5 + ("c",))


@settings(deadline=None, max_examples=150)
@given(multigraph_records())
@example(CUBE)
@example(STAR)
@example(PATH)
@example(G.MultigraphData(  # a slot sources edges back to two earlier slots
    4, True, (0,) * 4, (0,) * 4, (0,) * 4,
    {(0, 3): 1, (2, 3): 1, (3, 1): 1, (1, 0): 1, (2, 0): 1, (0, 1): 1, (3, 0): 1,
     (3, 2): 1, (0, 2): 1},
    (None,) * 4,
))
@example(G.MultigraphData(2, False, (0, 0), (0, 0), (0, 0), {(0, 1): 10}, (None, None)))
@example(G.MultigraphData(3, True, (0, 0, 0), (0, 0, 0), (0, 0, 0),
                          {(0, 1): 9, (1, 2): 10, (2, 0): 11}, (None,) * 3))
def test_pruned_lexmin_matches_brute_force(data):
    assert G._min_serialization(data) == (
        brute_min_serialization(data), refinement_search(data)[1]
    )


def test_vacuum_classes_and_symmetry_factors_pinned():
    classes = G._vacuum_classes_with_aut(3, (3, 4), 200_000)
    text = "\n".join(f"{label} {aut}" for label, _, aut, *_ in classes)
    assert len(classes) == 141
    assert len(G._vacuum_classes_with_aut(3, (3, 4), 200_000, connected=True)) == 88
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "638f2e115b389a8d8bc570d606664c068994333a12092366e3ff8740e3b9cfc3"
    )


@pytest.mark.parametrize("valences", [{3}, {4}, {3, 4}, {3, 5}])
def test_connected_generation_is_the_connected_subset(valences):
    # dropping a state once it seals off a component loses no connected
    # class and keeps no other: the same labels, |Aut| and order
    for order in range(5):
        full = G._vacuum_classes_with_aut(order, valences, 200_000)
        linked = G._vacuum_classes_with_aut(order, valences, 200_000, connected=True)
        assert [(label, aut) for label, _, aut in linked] == [
            (label, aut) for label, data, aut in full
            if _connected(data.n_vertices, data.edge_mult)]


def test_hopf_generator_labels_pinned():
    from kolmex import hopf

    labels = hopf.enumerate_connected_oriented(3, 6)
    assert len(labels) == 261
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == (
        "c228c91818e29efab7db5ac00fe97100060f94ba2f5fd71e4e3c95a54b3e5e02"
    )


def test_vacuum_enumeration_budget():
    with pytest.raises(G.BudgetError):
        enumerate_vacuum_graphs(3, {3, 4}, budget=5)


def test_vacuum_budget_counts_the_last_candidate():
    # order 2 builds exactly 78 generator states
    assert len(enumerate_vacuum_graphs(2, {3, 4}, budget=78)) == 22
    with pytest.raises(G.BudgetError):
        enumerate_vacuum_graphs(2, {3, 4}, budget=77)


def test_canonical_label_bound():
    # distinct decorations: one relabeling each
    deco = tuple(f"op{i}" for i in range(11))
    with pytest.raises(G.BudgetError, match="canonical-form bound 10"):
        canonical_label(Graph(11, (), (), decorations=deco))
    assert canonical_label(Graph(10, (), (), decorations=deco[:10]))


def test_cut_enumeration_bound():
    wide = Graph(20, (), (), orientation=())
    with pytest.raises(G.BudgetError):
        _cuts(wide)
