"""Brute-force and independent references for labels, |Aut| and vacuum
enumeration.

`brute_min_serialization` is the pinned label by definition: the least
serialization over every vertex permutation into the per-key slot blocks.
`refinement_search` is an individualization-refinement search (McKay &
Piperno, arXiv:1301.1493) that yields a second complete invariant, the
certificate, and counts vertex automorphisms by visiting every leaf.
`automorphism_order_flag_search` counts automorphisms over literal flag
bijections.  `raw_vacuum_classes` is the generate-then-deduplicate route:
every labelled multigraph with each degree sequence, deduplicated on the
refinement certificate, labelled once per class.  `raw_oriented_family`
is the same route for the connected oriented family: every raw oriented
multigraph within the bounds, labelled when its per-vertex keys are
nondecreasing.  `cut_coproduct` is the coproduct of an oriented graph read
from its own cuts, with no multiplicative extension: the cuts come from
`scc_cut_masks`, the two-condition cut rule (no oriented wheel split, by
Tarjan SCCs, and no edge from lower to upper), and each half is a
flag-level `Cut` side split and labelled at flag level.
`serialize_under` writes the serialization under a given vertex
permutation; it is the oracles' own writer, so the brute-force and
refinement searches share no label code with the package.
`recursive_degree_sequences` lists the vacuum family's degree sequences
depth first, one recursion level per vertex.
`flags_at` and `directed_edges` read a flag graph's incidence and
orientation.  `flag_graph_from_label` is the label parser that builds
flags straight from the text, and `is_generator` decides from it whether
a label is the pinned label of a connected oriented graph.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Optional

from kolmex.graphs import (
    IN,
    OUT,
    BudgetError,
    Graph,
    GraphError,
    MultigraphData,
    _degree_sequences,
    _flag_choices,
    _min_serialization,
    canonical_label,
    multigraph_data,
)
from kolmex.hopf import generator_degree


def flags_at(g: Graph, v: int) -> list[int]:
    """The flags at vertex v, ascending."""
    return [f for f, w in enumerate(g.incidence) if w == v]


def directed_edges(g: Graph) -> list[tuple[int, int]]:
    """(source vertex, target vertex) per edge of an oriented graph: from
    the vertex holding its 'out' flag to the vertex holding its 'in' flag."""
    return [(g.incidence[f], g.incidence[j]) if g.orientation[f] == OUT
            else (g.incidence[j], g.incidence[f]) for f, j in g.edges()]


def flag_graph_from_label(label: str) -> Graph:
    """The flag graph of a label, built field by field from its text: per
    vertex ascending loop flag pairs, 'in' tails and 'out' tails, then the
    edge bundles in label order (out-flag first)."""
    try:
        return _flag_graph_from_label(label)
    except (ValueError, IndexError) as exc:  # GraphError included
        raise GraphError(f"malformed label {label!r}: {exc}") from None


def _flag_graph_from_label(label: str) -> Graph:
    head, nstr, verts, edges = (
        label.split(":", 1)[0],
        label.split(":", 1)[1].split("|")[0],
        label.split("|")[1],
        label.split("|")[2],
    )
    if head not in ("ug", "og"):
        raise GraphError(f"unknown label head {head!r}")
    oriented = head == "og"
    n = int(nstr)
    involution: list[int] = []
    incidence: list[int] = []
    orientation: list[str] = []
    decorations: list[Optional[str]] = []

    def add_flag(v: int, lab: str) -> int:
        involution.append(len(involution))
        incidence.append(v)
        orientation.append(lab)
        return len(involution) - 1

    vert_parts = verts.split(";") if verts else []
    if len(vert_parts) != n:
        raise GraphError(f"label lists {len(vert_parts)} vertices, header says {n}")
    for v, part in enumerate(vert_parts):
        deco, loops, tin, tout = part.split(".")
        decorations.append(None if deco == "-" else deco)
        for _ in range(int(loops)):
            a = add_flag(v, OUT)
            b = add_flag(v, IN)
            involution[a], involution[b] = b, a
        for _ in range(int(tin)):
            add_flag(v, IN)
        for _ in range(int(tout)):
            add_flag(v, OUT)
    if edges:
        for part in edges.split(","):
            uv, mult = part.split("x")
            u, v = uv.split(">")
            for _ in range(int(mult)):
                a = add_flag(int(u), OUT)
                b = add_flag(int(v), IN)
                involution[a], involution[b] = b, a
    return Graph(
        n,
        tuple(involution),
        tuple(incidence),
        orientation=tuple(orientation) if oriented else None,
        decorations=tuple(decorations) if any(d is not None for d in decorations) else None,
    )


def is_generator(label: str) -> bool:
    """Whether the label is the pinned label of a connected oriented
    graph: it parses at flag level, is oriented, has a vertex, is
    connected, and is its graph's canonical label."""
    try:
        g = flag_graph_from_label(label)
    except GraphError:
        return False
    return (g.orientation is not None and len(_flag_components(g)) == 1
            and canonical_label(g) == label)


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


def serialize_under(data: MultigraphData, perm) -> str:
    """The pinned serialization after renaming vertex v to perm[v], written
    field by field: the oracles' own writer, sharing no code with the
    package's label search."""
    n = data.n_vertices
    inv = [0] * n
    for v, img in enumerate(perm):
        inv[img] = v
    vert_parts = []
    for new in range(n):
        old = inv[new]
        deco = data.decorations[old] or "-"
        vert_parts.append(
            f"{deco}.{data.loops[old]}.{data.tails_in[old]}.{data.tails_out[old]}"
        )
    edge_parts = []
    for (u, v), m in data.edge_mult.items():
        a, b = perm[u], perm[v]
        if not data.oriented and a > b:
            a, b = b, a
        edge_parts.append((a, b, m))
    edge_parts.sort()
    head = "og" if data.oriented else "ug"
    edges = ",".join(f"{a}>{b}x{m}" for a, b, m in edge_parts)
    return f"{head}:{n}|{';'.join(vert_parts)}|{edges}"


def brute_min_serialization(data: MultigraphData) -> str:
    best = None
    for perm in candidate_permutations(data):
        s = serialize_under(data, perm)
        if best is None or s < best:
            best = s
    return best if best is not None else serialize_under(data, ())


def refinement_search(data: MultigraphData) -> tuple[str, int]:
    """(certificate, number of vertex automorphisms) by individualization-
    refinement.

    Cells start from the per-vertex invariant and split by the multiset of
    (neighbour cell, edge direction, multiplicity) until stable; the first
    non-singleton cell then has each of its vertices individualized in turn.
    Cells are ordered by invariant data only, so the tree of leaves is
    isomorphism-invariant: the least leaf serialization is a complete
    invariant, and the leaves reaching it are the automorphism orbit of one
    leaf.  The certificate is not the pinned label.
    """
    n = data.n_vertices
    direction = 1 if data.oriented else 0
    bundles: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (u, v), m in data.edge_mult.items():
        bundles[u].append((v, direction, m))
        bundles[v].append((u, -direction, m))
    start: dict = {}
    for v in range(n):
        key = (data.decorations[v] or "", data.loops[v], data.tails_in[v], data.tails_out[v])
        start.setdefault(key, []).append(v)
    best = None
    count = 0

    def refine(cells: list[list[int]]) -> list[list[int]]:
        while True:
            cell_of = [0] * n
            for i, cell in enumerate(cells):
                for v in cell:
                    cell_of[v] = i
            split: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    split.append(cell)
                    continue
                parts: dict = {}
                for v in cell:
                    sig = sorted((cell_of[w], d, m) for w, d, m in bundles[v])
                    parts.setdefault(tuple(sig), []).append(v)
                split.extend(parts[sig] for sig in sorted(parts))
            if len(split) == len(cells):
                return cells
            cells = split

    def search(cells: list[list[int]]) -> None:
        nonlocal best, count
        cells = refine(cells)
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                for v in cell:
                    rest = [w for w in cell if w != v]
                    search(cells[:i] + [[v], rest] + cells[i + 1:])
                return
        perm = [0] * n
        for position, (v,) in enumerate(cells):
            perm[v] = position
        s = serialize_under(data, perm)
        if best is None or s < best:
            best, count = s, 1
        elif s == best:
            count += 1

    search([start[k] for k in sorted(start)])
    return best, count


def automorphism_order_flag_search(g: Graph) -> int:
    """Literal brute force over flag bijections, for tiny graphs."""
    n = g.n_vertices
    count = 0
    flags_by_vertex = [flags_at(g, v) for v in range(n)]
    for vperm in permutations(range(n)):
        if g.decorations is not None and any(
            g.decorations[v] != g.decorations[vperm[v]] for v in range(n)
        ):
            continue
        if any(
            len(flags_by_vertex[v]) != len(flags_by_vertex[vperm[v]])
            for v in range(n)
        ):
            continue
        count += _count_flag_maps(g, vperm, flags_by_vertex)
    return count


def _count_flag_maps(g: Graph, vperm, flags_by_vertex) -> int:
    vertex_choices = []
    for v in range(g.n_vertices):
        src = flags_by_vertex[v]
        dst = flags_by_vertex[vperm[v]]
        vertex_choices.append([dict(zip(src, p)) for p in permutations(dst)])
    total = 0

    def rec(v, mapping):
        nonlocal total
        if v == g.n_vertices:
            for f in range(g.n_flags):
                if mapping[g.involution[f]] != g.involution[mapping[f]]:
                    return
                if g.orientation is not None and (
                    g.orientation[f] != g.orientation[mapping[f]]
                ):
                    return
            total += 1
            return
        for choice in vertex_choices[v]:
            merged = dict(mapping)
            merged.update(choice)
            rec(v + 1, merged)

    rec(0, {})
    return total


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


def recursive_degree_sequences(valences, max_order) -> list:
    """Nonincreasing valence multisets with even flag total and
    E - V = sum(d)/2 - len <= max_order, listed depth first."""
    out = []

    def rec(prefix, start_idx):
        if prefix:
            total = sum(prefix)
            if total % 2 == 0 and total // 2 - len(prefix) <= max_order:
                out.append(tuple(prefix))
        for i in range(start_idx, len(valences)):
            d = valences[i]
            # with every valence >= 3 each further vertex raises E - V
            if sum(prefix + [d]) / 2 - (len(prefix) + 1) <= max_order:
                rec(prefix + [d], i)

    valences = sorted(valences, reverse=True)
    rec([], 0)
    return out


def raw_vacuum_classes(max_order, valences):
    """(label, |Aut|) per class, sorted like `enumerate_vacuum_graphs`, empty
    graph included; |Aut| counted by `refinement_search`."""
    valences = sorted(set(valences))
    labels = [brute_min_serialization(MultigraphData(0, False, (), (), (), {}, ()))]
    certificates = set()
    spent = [0]
    for degrees in _degree_sequences(valences, max_order):
        for data in multigraphs_with_degrees(degrees, spent, 10**9):
            certificate = refinement_search(data)[0]
            if certificate not in certificates:
                certificates.add(certificate)
                labels.append(brute_min_serialization(data))
    graphs = {label: flag_graph_from_label(label) for label in labels}
    labels.sort(key=lambda label: (graphs[label].n_flags, label))
    return [(label, _refinement_aut(graphs[label])) for label in labels]


def _refinement_aut(g: Graph) -> int:
    data = multigraph_data(g)
    return refinement_search(data)[1] * _flag_choices(data)


def raw_oriented_family(max_vertices, max_flags):
    """Labels of the connected oriented graphs within the bounds, sorted by
    (flag count, label), from every raw oriented multigraph.

    Only raw graphs whose per-vertex keys (loops, tails_in, tails_out) are
    nondecreasing are labelled: the raw family holds every relabelling of
    each of its graphs, so sorting a graph's vertices by key gives a member
    of its class that passes."""
    labels = set()
    for n in range(1, max_vertices + 1):
        for loops, mult in _edge_structures(n, max_flags // 2):
            if not _nondecreasing(loops) or not _connected(n, mult):
                continue
            used = 2 * (sum(loops) + sum(mult.values()))
            for tin, tout in _tail_assignments(n, max_flags - used):
                if _nondecreasing(list(zip(loops, tin, tout))):
                    data = MultigraphData(n, True, loops, tin, tout, mult, (None,) * n)
                    labels.add(_min_serialization(data)[0])
    return sorted(labels, key=lambda l: (generator_degree(l), l))


def _nondecreasing(keys) -> bool:
    return all(a <= b for a, b in zip(keys, keys[1:]))


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


@dataclass(frozen=True)
class Cut:
    """Bipartition of a graph's vertices.  Each half, the subgraph on its
    side with the severed edges left as tails, is built when first read."""

    graph: Graph
    upper: frozenset[int]
    lower: frozenset[int]

    @cached_property
    def upper_graph(self) -> Graph:
        return induced_with_severed_tails(self.graph, self.upper)

    @cached_property
    def lower_graph(self) -> Graph:
        return induced_with_severed_tails(self.graph, self.lower)


def induced_with_severed_tails(g: Graph, keep: frozenset[int]) -> Graph:
    """Subgraph on `keep`; crossing edges leave their half as a tail."""
    flag_ids = [f for f in range(g.n_flags) if g.incidence[f] in keep]
    new_id = {f: i for i, f in enumerate(flag_ids)}
    vertex_ids = sorted(keep)
    new_vertex = {v: i for i, v in enumerate(vertex_ids)}
    involution = []
    for f in flag_ids:
        partner = g.involution[f]
        involution.append(new_id[partner] if partner in new_id else new_id[f])
    incidence = [new_vertex[g.incidence[f]] for f in flag_ids]
    orientation = (
        tuple(g.orientation[f] for f in flag_ids) if g.orientation is not None else None
    )
    decorations = (
        tuple(g.decorations[v] for v in vertex_ids) if g.decorations is not None else None
    )
    return Graph(len(vertex_ids), tuple(involution), tuple(incidence),
                 orientation=orientation, decorations=decorations)


def flag_cuts(g: Graph) -> list[Cut]:
    """The cuts of `scc_cut_masks`, in its order, as flag-level `Cut`s."""
    all_v = frozenset(range(g.n_vertices))
    cuts = []
    for mask in scc_cut_masks(g):
        upper = frozenset(v for v in all_v if mask >> v & 1)
        cuts.append(Cut(g, upper, all_v - upper))
    return cuts


def _flag_components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of g's connected components, by union-find on its flags."""
    parent = list(range(g.n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f, h in g.edges():
        parent[find(g.incidence[f])] = find(g.incidence[h])
    groups: dict = {}
    for v in range(g.n_vertices):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(c) for c in groups.values()]


def cut_coproduct(g: Graph) -> dict:
    """(upper monomial, lower monomial) -> number of cuts of g, each half
    split into its connected components as induced flag graphs."""
    out: dict = {}
    for cut in flag_cuts(g):
        key = tuple(
            tuple(sorted(canonical_label(induced_with_severed_tails(side, comp))
                         for comp in _flag_components(side)))
            for side in (cut.upper_graph, cut.lower_graph))
        out[key] = out.get(key, 0) + 1
    return out


def strongly_connected_components(g: Graph) -> list[frozenset[int]]:
    """Tarjan SCCs of the edge-direction relation of an oriented graph."""
    adjacency: dict[int, list[int]] = {v: [] for v in range(g.n_vertices)}
    for s, t in directed_edges(g):
        adjacency[s].append(t)
    index: dict = {}
    low: dict = {}
    stack: list[int] = []
    on_stack = set()
    out: list[frozenset[int]] = []

    def strong(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in adjacency[v]:
            if w not in index:
                strong(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.add(w)
                if w == v:
                    break
            out.append(frozenset(comp))

    for v in range(g.n_vertices):
        if v not in index:
            strong(v)
    return out


def scc_cut_masks(g: Graph) -> list[int]:
    """Upper-vertex bitmasks, ascending, of the cuts of g by the
    two-condition rule: every SCC lies on one side, and no edge runs from
    lower to upper."""
    scc_of = {v: comp for comp in strongly_connected_components(g) for v in comp}
    n = g.n_vertices
    masks = []
    for mask in range(2**n):
        upper = {v for v in range(n) if mask >> v & 1}
        if all(scc_of[v] <= upper for v in upper) and not any(
                s not in upper and t in upper for s, t in directed_edges(g)):
            masks.append(mask)
    return masks
