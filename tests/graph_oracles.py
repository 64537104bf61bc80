"""Brute-force references for the canonical label and vacuum enumeration.

`brute_min_serialization` is the pinned label by definition: the least
serialization over every vertex permutation into the per-key slot blocks.
`raw_vacuum_classes` is the generate-then-deduplicate route: every labelled
multigraph with each degree sequence, deduplicated on the refinement
certificate, labelled once per class.  `cut_coproduct` is the coproduct of
an oriented graph read from its own cuts, with no multiplicative extension.
"""

from itertools import permutations, product

from kolmex.graphs import (
    BudgetError,
    Graph,
    MultigraphData,
    _automorphism_order_unbounded,
    _degree_sequences,
    _refinement_search,
    _serialize_under,
    enumerate_cuts,
    graph_from_label,
)
from kolmex.hopf import monomial_of_graph


def candidate_permutations(data: MultigraphData):
    """Vertex permutations into slots grouped by the per-vertex invariant
    (decoration, loops, tails), groups in key order."""
    n = data.n_vertices
    keys = [
        (data.decorations[v] or "", data.loops[v], data.tails_in[v], data.tails_out[v])
        for v in range(n)
    ]
    group_order = {k: i for i, k in enumerate(sorted(set(keys)))}
    members: list[list[int]] = [[] for _ in group_order]
    for v in range(n):
        members[group_order[keys[v]]].append(v)
    slot_blocks = []
    start = 0
    for grp in members:
        slot_blocks.append(list(range(start, start + len(grp))))
        start += len(grp)
    for arrangement in product(*(permutations(b) for b in slot_blocks)):
        perm = [0] * n
        for grp, slots in zip(members, arrangement):
            for v, slot in zip(grp, slots):
                perm[v] = slot
        yield perm


def brute_min_serialization(data: MultigraphData) -> str:
    best = None
    for perm in candidate_permutations(data):
        s = _serialize_under(data, perm)
        if best is None or s < best:
            best = s
    return best if best is not None else _serialize_under(data, ())


def multigraphs_with_degrees(degrees, spent, budget):
    """All loop/multiplicity assignments matching the degree sequence."""
    n = len(degrees)

    def rec(v_idx, remaining, loops, mult):
        if v_idx == n:
            if all(r == 0 for r in remaining):
                spent[0] += 1
                if spent[0] > budget:
                    raise BudgetError(f"vacuum enumeration exceeded budget {budget}")
                yield MultigraphData(
                    n, False, tuple(loops), (0,) * n, (0,) * n,
                    {k: m for k, m in mult.items() if m}, (None,) * n,
                )
            return

        # distribute remaining[v_idx] among loops (2 each) and edges to later vertices
        def dist(j_idx, rem):
            if rem == 0:
                yield {}
                return
            if j_idx == n:
                return
            for m in range(rem + 1):
                if m <= remaining[j_idx]:
                    for rest in dist(j_idx + 1, rem - m):
                        if m:
                            rest = dict(rest)
                            rest[j_idx] = m
                        yield rest

        for l in range(remaining[v_idx] // 2 + 1):
            rem = remaining[v_idx] - 2 * l
            for assignment in dist(v_idx + 1, rem):
                new_remaining = list(remaining)
                new_remaining[v_idx] = 0
                for j, m in assignment.items():
                    new_remaining[j] -= m
                new_loops = list(loops)
                new_loops[v_idx] = l
                new_mult = dict(mult)
                for j, m in assignment.items():
                    new_mult[(v_idx, j)] = m
                yield from rec(v_idx + 1, new_remaining, new_loops, new_mult)

    yield from rec(0, list(degrees), [0] * n, {})


def raw_vacuum_classes(max_order, valences, max_vertices=None):
    """(label, |Aut|) per class, sorted like `enumerate_vacuum_graphs`, empty
    graph included."""
    valences = sorted(set(valences))
    if max_vertices is None:
        max_vertices = 2 * max_order
    labels = [brute_min_serialization(MultigraphData(0, False, (), (), (), {}, ()))]
    certificates = set()
    spent = [0]
    for degrees in _degree_sequences(valences, max_order, max_vertices):
        for data in multigraphs_with_degrees(degrees, spent, 10**9):
            certificate = _refinement_search(data)[0]
            if certificate not in certificates:
                certificates.add(certificate)
                labels.append(brute_min_serialization(data))
    graphs = {label: graph_from_label(label) for label in labels}
    labels.sort(key=lambda label: (graphs[label].n_flags, label))
    return [(label, _automorphism_order_unbounded(graphs[label])) for label in labels]


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g beside h: h's vertices and flags renumbered after g's."""
    shift = g.n_flags
    orientation = None
    if g.orientation is not None:
        orientation = g.orientation + h.orientation
    return Graph(
        g.n_vertices + h.n_vertices,
        g.involution + tuple(f + shift for f in h.involution),
        g.incidence + tuple(v + g.n_vertices for v in h.incidence),
        orientation=orientation,
    )


def cut_coproduct(g: Graph) -> dict:
    """(upper monomial, lower monomial) -> number of cuts of g."""
    out: dict = {}
    for cut in enumerate_cuts(g):
        key = (monomial_of_graph(cut.upper_graph), monomial_of_graph(cut.lower_graph))
        out[key] = out.get(key, 0) + 1
    return out
