"""Graphs with flags and involutions, worked on as multigraph data.

A graph is a finite set of flags F, a finite set of vertices V, an
involution j on F pairing flag halves into edges (fixed flags are tails)
and an incidence map F -> V.  Orientations label every flag 'in' or 'out'
with the two halves of an edge labelled differently.  This one structure
underlies both the vacuum-diagram expansion and the flowchart bialgebra.

Parallel edges, loops and same-label tails are freely interchangeable, so
per-vertex loop counts, tail counts (split by label when oriented),
decorations and edge multiplicities determine a graph up to isomorphism.
That `MultigraphData` is what everything here runs on; `Graph` spells out
the flags, and `multigraph_data` reads one.  Canonical labels take the
lexicographic minimum of a pinned serialization over the vertex
permutations that respect the per-vertex invariant, found by a branch and
bound on the serialization's edge prefix that keeps every tie; the same
search counts the permutations reaching the minimum, which are the vertex
automorphisms.  A class's |Aut| is that count times its per-bundle flag
choices (`_flag_choices`).  The tests keep the full permutation scan, an
individualization-refinement search and an explicit flag-level search as
independent oracles.

A label spells out its multigraph data, so `label_data` is the one label
parser and the algebra runs on that data: `hopf` cuts and labels it and
`feynman` contracts it, with no flag graph in between.  `graph_from_label`
lays out flags from the data for callers that want a `Graph`, and
`components` is the one connected-component split.

One generator builds both graph families: the vacuum classes of each
degree sequence, and the connected oriented generators of the flowchart
bialgebra for each multiset of per-vertex tails and in/out degrees.  It
closes one vertex at a time and keeps one partial graph per class,
coloured by residual degree, after every step (isomorph rejection during
generation, McKay, J. Algorithms 26, 1998).  The key is the coloured
label, so after the last step it is the pinned label itself, and the
search that found it has counted the class's automorphisms.

A cut of an oriented graph is a vertex bipartition with no edge from its
lower side to its upper side.  That one rule also keeps every oriented
wheel on one side: a wheel with vertices on both sides crosses back from
lower to upper somewhere.  `enumerate_cuts` lists each cut as the bitmask
of its upper side.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial
from typing import Iterable, Optional, Sequence

from .rational import shown

IN, OUT = "in", "out"


class GraphError(ValueError):
    pass


class BudgetError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Flags are 0..len(involution)-1, vertices 0..n_vertices-1."""

    n_vertices: int
    involution: tuple[int, ...]
    incidence: tuple[int, ...]
    orientation: Optional[tuple[str, ...]] = None
    decorations: Optional[tuple[Optional[str], ...]] = None

    def __post_init__(self):
        nf = len(self.involution)
        if len(self.incidence) != nf:
            raise GraphError("incidence must cover every flag")
        for f, g in enumerate(self.involution):
            if not 0 <= g < nf:
                raise GraphError(f"involution[{f}]={g} is not a flag")
            if self.involution[g] != f:
                raise GraphError(f"involution not self-inverse at flag {f}")
        for f, v in enumerate(self.incidence):
            if not 0 <= v < self.n_vertices:
                raise GraphError(f"incidence[{f}]={v} is not a vertex")
        if self.orientation is not None:
            if len(self.orientation) != nf:
                raise GraphError("orientation must cover every flag")
            for f, lab in enumerate(self.orientation):
                if lab not in (IN, OUT):
                    raise GraphError(f"orientation[{f}]={lab!r} must be in/out")
                g = self.involution[f]
                if g != f and self.orientation[g] == lab:
                    raise GraphError(
                        f"edge flags {f},{g} carry the same label {lab!r}"
                    )
        if self.decorations is not None:
            if len(self.decorations) != self.n_vertices:
                raise GraphError("decorations must cover every vertex")
            for v, deco in enumerate(self.decorations):
                if deco is not None and (
                    not isinstance(deco, str)
                    or deco in ("", "-")
                    or any(ch in deco for ch in ".;|")
                ):
                    raise GraphError(
                        f"decoration {deco!r} of vertex {v} is not a label token "
                        "(a nonempty string other than '-', without '.', ';' or '|')"
                    )

    # -- derived structure ---------------------------------------------------

    @property
    def n_flags(self) -> int:
        return len(self.involution)

    def edges(self) -> list[tuple[int, int]]:
        """Flag pairs (f, j(f)) with f < j(f)."""
        return [
            (f, g) for f, g in enumerate(self.involution) if f < g
        ]

    def tails(self) -> list[int]:
        return [f for f, g in enumerate(self.involution) if f == g]


# ---------------------------------------------------------------------------
# multigraph data: the complete isomorphism invariant used throughout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultigraphData:
    n_vertices: int
    oriented: bool
    loops: tuple[int, ...]                 # per vertex
    tails_in: tuple[int, ...]              # per vertex ('in' side; all tails if unoriented)
    tails_out: tuple[int, ...]             # per vertex (zeros if unoriented)
    edge_mult: dict                        # oriented: (u,v)->m ; unoriented: (min,max)->m
    decorations: tuple[Optional[str], ...]

    @property
    def n_flags(self) -> int:
        return (2 * (sum(self.loops) + sum(self.edge_mult.values()))
                + sum(self.tails_in) + sum(self.tails_out))


def components(data: MultigraphData, keep: Iterable[int]) -> list[frozenset[int]]:
    """The vertex sets of the connected components of the subgraph on the
    vertices `keep`, in the order of their first vertex in `keep`."""
    comp = {v: frozenset((v,)) for v in keep}
    for s, t in data.edge_mult:
        if s in comp and t in comp and comp[s] is not comp[t]:
            merged = comp[s] | comp[t]
            for v in merged:
                comp[v] = merged
    return list(dict.fromkeys(comp.values()))


def multigraph_data(g: Graph) -> MultigraphData:
    loops = [0] * g.n_vertices
    tin = [0] * g.n_vertices
    tout = [0] * g.n_vertices
    mult: dict = {}
    for f in g.tails():
        v = g.incidence[f]
        if g.orientation is not None and g.orientation[f] == OUT:
            tout[v] += 1
        else:
            tin[v] += 1
    for f, h in g.edges():
        u, v = g.incidence[f], g.incidence[h]
        if u == v:
            loops[u] += 1
        elif g.orientation is not None:
            s, t = (u, v) if g.orientation[f] == OUT else (v, u)
            mult[(s, t)] = mult.get((s, t), 0) + 1
        else:
            key = (min(u, v), max(u, v))
            mult[key] = mult.get(key, 0) + 1
    deco = g.decorations or (None,) * g.n_vertices
    return MultigraphData(
        g.n_vertices, g.orientation is not None,
        tuple(loops), tuple(tin), tuple(tout), mult, tuple(deco),
    )


def _serialize_under(data: MultigraphData, perm: Sequence[int]) -> str:
    """Pinned serialization after renaming vertex v to perm[v]."""
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


def _min_serialization(data: MultigraphData) -> tuple[str, int]:
    """(pinned label, number of vertex automorphisms).

    The label is the least `_serialize_under` string over the vertex
    permutations that fill the slots block by block, one block per value of
    the per-vertex key (decoration, loops, tails) in key order.  The block
    layout is isomorphism-invariant, so the minimum is a complete canonical
    form, and the permutations reaching it are one automorphism orbit: their
    number is the count of structure-preserving vertex permutations.

    Branch and bound.  Slots are filled in order, each from its block.  The
    vertex section is the same under every such permutation, so only the
    edge section is compared.  It lists the edges sorted by (source slot,
    target slot, multiplicity), the source of an unoriented edge being its
    lower slot; an edge's place in that list is fixed once every slot up to
    its source has no edge left to an unplaced vertex.  A branch is cut as
    soon as its fixed prefix, followed by the least first digit that the
    next slot field can have, compares greater than the best string, so a
    branch that can still tie the best is never cut.  Once every edge is
    fixed the string is complete, whatever the remaining slots hold: the
    leaf stands for every filling of those slots from their blocks, the
    product of (slots left in each block)!.
    """
    n = data.n_vertices
    deco, loops, tin, tout = data.decorations, data.loops, data.tails_in, data.tails_out
    keys = [(deco[v] or "", loops[v], tin[v], tout[v]) for v in range(n)]
    order = sorted(range(n), key=keys.__getitem__)
    members: dict = {}
    for v in order:
        members.setdefault(keys[v], []).append(v)
    if len(members) == n:  # one candidate permutation: nothing to bound
        return _serialize_under(data, sorted(range(n), key=order.__getitem__)), 1
    verts = ";".join(f"{deco[v] or '-'}.{loops[v]}.{tin[v]}.{tout[v]}" for v in order)
    head = f"{'og' if data.oriented else 'ug'}:{n}|{verts}|"
    # fillings[s]: the ways to fill the slots after s, each from its block
    fillings = [1] * n
    later, slot = 1, n
    for grp in reversed(members.values()):
        for left in range(len(grp)):
            slot -= 1
            fillings[slot] = factorial(left) * later
        later *= factorial(len(grp))
    n_edges = len(data.edge_mult)
    if not n_edges:
        return head, later
    block = [members[keys[v]] for v in order]  # the candidates of each slot
    # each bundle seen from both ends as (other end, multiplicity, "x<m>,"
    # text, kind): kind 0 unoriented, 1 this end is the source, 2 the target
    bundles: list[list[tuple]] = [[] for _ in range(n)]
    src_kind, tgt_kind = (1, 2) if data.oriented else (0, 0)
    for (u, w), m in data.edge_mult.items():
        tail = f"x{m},"
        bundles[u].append((w, m, tail, src_kind))
        bundles[w].append((u, m, tail, tgt_kind))
    # try vertices that can source more bundles first: the leading slots of
    # a small string source many edges, so the first leaf tends to be good
    sources = [sum(kind != 2 for *_, kind in bs) for bs in bundles]
    for grp in members.values():
        grp.sort(key=lambda v: -sources[v])
    # per slot s: the least first digit of the slot fields after s
    least_digit = [min(str(b)[0] for b in range(s + 1, n)) for s in range(n - 1)]
    slot_of = [-1] * n
    pending = [0] * n               # per slot: its edges to unplaced vertices
    placed = [[] for _ in range(n)]  # per source slot: (target, m, text) placed
    best = None
    aut = 0

    def fill(s: int, fixed: str, n_fixed: int, first: int) -> None:
        # Slots below s are filled.  `fixed` is the first n_fixed edges of
        # the sorted list, each followed by ','; `first` is the least slot
        # that may still have pending edges.
        nonlocal best, aut
        for v in block[s]:
            if slot_of[v] >= 0:
                continue
            slot_of[v] = s
            grew = []
            own = 0
            for w, m, tail, kind in bundles[v]:
                t = slot_of[w]
                if t < 0:
                    if kind != 2:
                        own += 1
                elif kind == 1:
                    placed[s].append((t, m, f"{s}>{t}{tail}"))
                    grew.append(s)
                else:
                    placed[t].append((s, m, f"{t}>{s}{tail}"))
                    pending[t] -= 1
                    grew.append(t)
            pending[s] = own
            text, count, a = fixed, n_fixed, first
            while a <= s and not pending[a]:
                row = placed[a]
                count += len(row)
                for edge in sorted(row) if len(row) > 1 else row:
                    text += edge[2]
                a += 1
            if count == n_edges:
                leaf = text[:-1]
                if best is None or leaf < best:
                    best, aut = leaf, fillings[s]
                elif leaf == best:
                    aut += fillings[s]
            elif best is None:
                fill(s + 1, text, count, a)
            else:
                bound = text
                if a <= s:  # slot a's edges to placed vertices come first
                    row = placed[a]
                    for edge in sorted(row) if len(row) > 1 else row:
                        bound += edge[2]
                    bound += f"{a}>"
                cut = len(bound)
                if bound < best[:cut] or (
                    bound == best[:cut] and cut < len(best)
                    and least_digit[s] <= best[cut]
                ):
                    fill(s + 1, text, count, a)
            for t in grew:
                placed[t].pop()
                if t != s:
                    pending[t] += 1
            slot_of[v] = -1

    fill(0, "", 0, 0)
    return head + best, aut


LABEL_MAX_VERTICES = 10  # canonical_label refuses larger graphs


def canonical_label(g: Graph) -> str:
    """Lexicographically minimal serialization over vertex relabelings.

    Equal labels  <=>  isomorphic (as flag graphs with orientation and
    decorations, when present).  The lexmin of `_min_serialization` is the
    pinned label; vacuum enumeration keys its final states on it, so label
    bytes do not depend on which route found the class.
    """
    if g.n_vertices > LABEL_MAX_VERTICES:
        raise BudgetError(
            f"{g.n_vertices} vertices exceed the canonical-form bound {LABEL_MAX_VERTICES}"
        )
    return _min_serialization(multigraph_data(g))[0]


def label_data(label: str) -> MultigraphData:
    """The multigraph data a label spells out, edge bundles in label order.

    Any label of that form parses, canonical or not; a malformed one (a
    field that is not a decimal count, a zero, repeated or self bundle, a
    bundle end out of range, an out-tail on an unoriented label) raises
    GraphError naming it.
    """
    try:
        head, _, rest = label.partition(":")
        if head not in ("ug", "og"):
            raise GraphError(f"unknown label head {shown(head)}")
        oriented = head == "og"
        nstr, verts, edges = rest.split("|")
        n = _count(nstr)
        vert_parts = verts.split(";") if verts else []
        if len(vert_parts) != n:
            raise GraphError(f"label lists {len(vert_parts)} vertices, header says {n}")
        decorations, counts = [], []
        for part in vert_parts:
            deco, *fields = part.split(".")
            if not deco or len(fields) != 3:
                raise GraphError(f"vertex field {shown(part)} is not 'deco.loops.in.out'")
            decorations.append(None if deco == "-" else deco)
            counts.append(tuple(map(_count, fields)))
        loops, tails_in, tails_out = zip(*counts) if counts else ((), (), ())
        if not oriented and any(tails_out):
            raise GraphError("an unoriented label has out-tails")
        mult: dict = {}
        for part in edges.split(",") if edges else ():
            ends, m = part.split("x")
            (u, v), m = map(_count, ends.split(">")), _count(m)
            if max(u, v) >= n or u == v or not m:
                raise GraphError(f"bundle {shown(part)} is out of range, a loop or empty")
            key = (u, v) if oriented else (min(u, v), max(u, v))
            if key in mult:
                raise GraphError(f"bundle {shown(part)} repeats an earlier one")
            mult[key] = m
    except ValueError as exc:  # GraphError included
        raise GraphError(f"malformed label {shown(label)}: {exc}") from None
    return MultigraphData(n, oriented, loops, tails_in, tails_out, mult, tuple(decorations))


def _count(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise GraphError(f"{shown(text)} is not a count")
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        raise GraphError(f"a count of {len(text)} digits is too long") from None


def graph_from_label(label: str) -> Graph:
    """A representative graph of a label, laid out deterministically.

    Per vertex ascending: loop flag pairs, then 'in' tails, then 'out'
    tails; then edge bundles in label order (out-flag first when oriented).
    A malformed label raises GraphError naming it.
    """
    data = label_data(label)
    flags = []  # (vertex, orientation label, step to the partner flag)
    for v in range(data.n_vertices):
        flags += [(v, OUT, 1), (v, IN, -1)] * data.loops[v]
        flags += [(v, IN, 0)] * data.tails_in[v] + [(v, OUT, 0)] * data.tails_out[v]
    for (u, v), m in data.edge_mult.items():
        flags += [(u, OUT, 1), (v, IN, -1)] * m
    decorations = data.decorations
    return Graph(
        data.n_vertices,
        tuple(f + step for f, (_, _, step) in enumerate(flags)),
        tuple(v for v, _, _ in flags),
        orientation=tuple(lab for _, lab, _ in flags) if data.oriented else None,
        decorations=decorations if any(d is not None for d in decorations) else None,
    )


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def _flag_choices(data: MultigraphData) -> int:
    """Flag permutations that fix every vertex and preserve the structure:
    parallel edges m!, loops l! (times 2 per loop flip when unoriented) and
    tails t! per label.  A class's |Aut| is this times the vertex
    automorphisms `_min_serialization` counts."""
    choices = 1
    for v in range(data.n_vertices):
        l, ti, to = data.loops[v], data.tails_in[v], data.tails_out[v]
        loop_factor = factorial(l) if data.oriented else factorial(l) * 2**l
        choices *= loop_factor * factorial(ti) * factorial(to)
    for m in data.edge_mult.values():
        choices *= factorial(m)
    return choices


# ---------------------------------------------------------------------------
# cuts
# ---------------------------------------------------------------------------

CUT_MAX_VERTICES = 16  # enumerate_cuts tests all 2**n vertex subsets


def enumerate_cuts(data: MultigraphData) -> list[int]:
    """Every cut of an oriented graph's multigraph data, as the bitmask of
    its upper side, ascending: a vertex bipartition with no edge from lower
    to upper.  The two improper cuts come first (all lower) and last (all
    upper).  No oriented wheel is split, since a wheel with vertices on both
    sides has an edge crossing back from lower to upper."""
    if not data.oriented:
        raise GraphError("operation needs an oriented graph")
    n = data.n_vertices
    if n > CUT_MAX_VERTICES:
        raise BudgetError(
            f"{n} vertices exceed the cut-enumeration bound {CUT_MAX_VERTICES}"
        )
    edges = list(data.edge_mult)
    return [mask for mask in range(2**n)
            if not any(mask >> t & 1 and not mask >> s & 1 for s, t in edges)]


# ---------------------------------------------------------------------------
# closed-vertex generation: vacuum classes and oriented generators
# ---------------------------------------------------------------------------

def enumerate_vacuum_graphs(max_order: int, valences: Iterable[int],
                            budget: int = 200_000) -> list[Graph]:
    """One representative per isomorphism class of tail-free graphs with all
    vertex valences in `valences` and E - V <= max_order, sorted by (flag
    count, label).

    Includes the empty graph.  Every valence must be >= 3 (GraphError
    otherwise), so each vertex raises E - V by at least 1/2 and the family
    is finite, V <= 2 * max_order.  Each degree sequence is built one
    closed vertex at a time, keeping one state per isomorphism class after
    every step (`_classes_with_degrees`); the last step keys each class on
    its pinned label.  `budget` bounds the number of states built over all
    degree sequences; BudgetError is raised as soon as one more is needed.
    """
    return [graph_from_label(label) for label, _, _ in
            _vacuum_classes_with_aut(max_order, valences, budget)]


def _vacuum_classes_with_aut(max_order: int, valences: Iterable[int], budget: int,
                             connected: bool = False) -> list[tuple[str, MultigraphData, int]]:
    """(label, multigraph data, |Aut|) per class of `enumerate_vacuum_graphs`,
    in its order; |Aut| is taken from the search that labelled the class.
    With `connected`, a state is dropped once it seals off a component, so
    only the connected non-empty classes are built and `budget` counts the
    closings of the states that remain."""
    valences = sorted(set(valences))
    if any(v < 3 for v in valences):
        raise GraphError("valences must be >= 3")
    found = [] if connected else [_min_serialization(MultigraphData(0, False, (), (), (), {}, ()))]
    if valences and max_order >= 0:
        spent = [0]
        for degree_seq in _degree_sequences(valences, max_order):
            zeros = (0,) * len(degree_seq)
            found += _classes_with_degrees(_closings, zeros, zeros, degree_seq,
                                           spent, budget, connected).items()
    classes = [(label, label_data(label), aut) for label, aut in found]
    classes.sort(key=lambda item: (item[1].n_flags, item[0]))
    return classes


def _degree_sequences(valences, max_order):
    """Nonincreasing valence multisets with even flag total and
    E - V = sum(d)/2 - len <= max_order, yielded lazily by increasing
    length.  Every valence is >= 3, so each vertex raises E - V by at least
    1/2 and the lengths stop at 2 * max_order / (min(valences) - 2)."""
    valences = sorted(valences, reverse=True)  # so each multiset is nonincreasing
    n = 1
    while valences and n * (valences[-1] - 2) <= 2 * max_order:
        for degrees in combinations_with_replacement(valences, n):
            excess = sum(degrees) - 2 * n  # 2 * (E - V)
            if excess % 2 == 0 and excess <= 2 * max_order:
                yield degrees
        n += 1


def _classes_with_degrees(closings, tails_in, tails_out, residual,
                          spent, budget, connected) -> dict:
    """pinned label -> |Aut| per isomorphism class of graphs with these
    tails whose edges spend `residual` (each vertex's degree or, when
    oriented, each in-degree and then each out-degree) exactly.  Both
    families come from here: the vacuum classes (`_closings`, no tails)
    and the connected generators of `hopf` (`_oriented_closings`).

    Isomorph rejection during generation (after McKay, J. Algorithms 26,
    1998): step k closes vertex k by one of its `closings`, its loops and
    its multiplicities to the open vertices after it.  The completions of
    a state depend only on its class with each vertex coloured by its
    residual, so one state is kept per coloured lexmin of
    `_min_serialization`.  After the last step no colour is left: each key
    is the pinned label, and its search has counted the vertex
    automorphisms.  With `connected`, a state is dropped once the
    component of the vertex just closed has nothing left to spend but
    misses a vertex.  Every closing counts against `budget` (via `spent`).
    """
    n = len(tails_in)
    oriented = len(residual) > n
    shift = n if oriented else 0  # from a vertex's in-degree to its out-degree

    def colours(res):
        return tuple(f"r{a}/{b}" if a or b else None for a, b in zip(res[:n], res[shift:]))

    zeros = (0,) * n
    key, aut = _min_serialization(MultigraphData(
        n, oriented, zeros, tails_in, tails_out, {}, colours(residual)))
    # key -> (loops, multiplicities, residual, vertex |Aut|)
    states: dict = {key: (zeros, {}, residual, aut)}
    for v in range(n):
        kept: dict = {}
        for key, state in states.items():
            loops, mult, residual, _ = state
            for l, bundle in closings(v, residual):
                spent[0] += 1
                if spent[0] > budget:
                    raise BudgetError(f"vacuum enumeration exceeded budget {budget}")
                after = list(residual)
                for (a, b), m in bundle:
                    after[a + shift] -= m
                    after[b] -= m
                after[v] = after[v + shift] = 0
                after = tuple(after)
                new_mult = dict(mult)
                new_mult.update(bundle)
                tint = colours(after)
                if connected and _sealed_off(v, new_mult, tint):
                    continue
                if not l and not bundle:  # nothing to close: the same coloured state
                    kept.setdefault(key, state)
                    continue
                new_loops = loops[:v] + (l,) + loops[v + 1:]
                new_key, aut = _min_serialization(MultigraphData(
                    n, oriented, new_loops, tails_in, tails_out, new_mult, tint))
                kept.setdefault(new_key, (new_loops, new_mult, after, aut))
        states = kept
    return {label: aut * _flag_choices(MultigraphData(
                n, oriented, loops, tails_in, tails_out, mult, (None,) * n))
            for label, (loops, mult, _, aut) in states.items()}


def _sealed_off(v, mult, colours) -> bool:
    """Whether v's component has no residual left but misses a vertex."""
    comp, size = {v}, 0
    while size < len(comp):
        size = len(comp)
        comp.update(w for edge in mult if not comp.isdisjoint(edge) for w in edge)
    return size < len(colours) and all(colours[w] is None for w in comp)


def _spread(caps, j, stop, rest):
    """((slot, m), ...) over slots j..stop-1, 0 < m <= caps[slot], summing to rest."""
    if not rest:
        yield ()
    elif j < stop:
        for m in range(min(rest, caps[j]), -1, -1):
            for tail in _spread(caps, j + 1, stop, rest - m):
                yield ((j, m),) + tail if m else tail


def _closings(v, residual):
    """(loops, ((edge, multiplicity), ...)) for every way to spend vertex
    v's residual degree on loops and on edges to the vertices after it."""
    for l in range(residual[v] // 2 + 1):
        for spend in _spread(residual, v + 1, len(residual), residual[v] - 2 * l):
            yield l, tuple(((v, j), m) for j, m in spend)


def _oriented_closings(v, residual):
    """The same for in-degrees followed by out-degrees: a loop spends one
    of each at v, an edge v -> w spends w's in-degree and an edge w -> v
    spends w's out-degree."""
    n = len(residual) // 2
    for l in range(min(residual[v], residual[n + v]) + 1):
        for sent in _spread(residual, v + 1, n, residual[n + v] - l):
            for got in _spread(residual, n + v + 1, 2 * n, residual[v] - l):
                yield l, (tuple(((v, j), m) for j, m in sent)
                          + tuple(((j - n, v), m) for j, m in got))
