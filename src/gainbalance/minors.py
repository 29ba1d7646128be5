"""Deletion, contraction, minor containment, witness lifting, extrusion,
Whitney twists, and 2-bridge theory.

Minor search grows disjoint connected branch sets depth first, expanding each
set once and pruning on edge multiplicities.  It is exponential in the host,
so it stops with ``BudgetError`` after ``MINOR_SEARCH_MAX_NODES`` candidate
branch sets; neither classifier calls it.  A loop-vertex target is special
cased: present iff the host has a circle, and modelled on a short one, which
the binary classifier takes directly.  Nothing else searches for minors:
bridges are typed by their block chains, witnesses are checked set by set
and edge by edge, and reverse-extrusion logs step by step.

The basis-lifting constructions preserve bad witnesses: lifting a basis along
an edge deletion adds one circle per restored non-forest edge, with its gain
solved to keep the circle balanced; lifting along a forest contraction
splices tree paths (with identity gains) into each walk.  The splicing is
``splice_tree_paths``, on the paths of :class:`graphcore.RootedForest`; the
classifier's witness transport splices the branch forest of a minor model
with it too, on the host, without contracting.  Deletion keeps one least
spanning forest, updated as each edge is restored.  Contraction classes and
the forest grown inside a deleted set come from :class:`graphcore.DisjointSets`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .cyclespace import OrientedBasis, fundamental_circle, least_circle
from .errors import BudgetError, GraphError
from .gaingraph import GainAssignment, GainGraph
from .graphcore import (
    ClosedWalk,
    DirectedEdge,
    DisjointSets,
    Graph,
    RootedForest,
    blocks,
    components,
    edge_components,
    is_isomorphic,
    spanning_forest,
    spanning_tree,
    walk_support,
)


# -- deletion and contraction ---------------------------------------------------


def delete(g: Graph, s: Iterable[str]) -> Graph:
    """Remove edges; isolated vertices are retained."""
    drop = set(s)
    for e in drop:
        g.ends(e)
    return Graph({e: g.edges[e] for e in g.edge_list if e not in drop}, g.vertices)


def contract(g: Graph, s: Iterable[str]) -> tuple[Graph, dict[str, str]]:
    """Contract an edge set: endpoints merge per connected components of s.

    All non-contracted edges survive (loops and parallels may arise; loops in
    ``s`` simply disappear).  The merged vertex takes the least name in its
    component.  Returns the contracted graph and the vertex projection.
    """
    group = set(s)
    sets = DisjointSets(g.vertex_list)
    for e in group:
        sets.union(*g.ends(e))
    # vertices come in sorted order, so each class is named by its first
    name: dict[str, str] = {}
    vmap = {v: name.setdefault(sets.find(v), v) for v in g.vertex_list}
    edges = {}
    for e in g.edge_list:
        if e in group:
            continue
        t, h = g.ends(e)
        edges[e] = (vmap[t], vmap[h])
    return Graph(edges, set(vmap.values())), vmap


# -- minor containment ------------------------------------------------------------


@dataclass(frozen=True)
class MinorWitness:
    """Branch sets (target vertex -> connected host vertex set) plus an
    injective target-edge -> host-edge assignment."""

    branch_sets: Mapping[str, frozenset]
    edge_map: Mapping[str, str]

    def to_json(self) -> dict:
        return {
            "branch_sets": {t: sorted(vs) for t, vs in sorted(self.branch_sets.items())},
            "edge_map": dict(sorted(self.edge_map.items())),
        }


MINOR_SEARCH_MAX_VERTICES = 6
MINOR_SEARCH_MAX_EDGES = 10
MINOR_SEARCH_MAX_NODES = 70_000


def branch_forest(g: Graph, branch_sets: Mapping[str, frozenset]) -> frozenset:
    """Deterministic spanning forest of each induced branch set."""
    picked = set()
    for t in sorted(branch_sets):
        vs = branch_sets[t]
        sub = g.subgraph([e for e in g.edge_list if set(g.ends(e)) <= vs], vs)
        picked |= spanning_forest(sub)
    return frozenset(picked)


def verify_minor_witness(g: Graph, target: Graph, w: MinorWitness) -> bool:
    """Check disjoint connected branch sets, one per target vertex, and an
    injective edge map off the branch forest that joins the branch sets of
    each target edge's ends.  Then deleting the unmapped edges and contracting
    the forest gives the target, t named min(branch set of t), as it must."""
    seen: set = set()
    for t, vs in w.branch_sets.items():
        if t not in target.vertices or not vs <= g.vertices or seen & vs:
            return False
        seen |= vs
        sub = g.subgraph([e for e in g.edge_list if set(g.ends(e)) <= vs], vs)
        if len(components(sub)) != 1:
            return False
    if set(w.branch_sets) != set(target.vertices):
        return False
    if set(w.edge_map) != set(target.edges) or len(set(w.edge_map.values())) != len(w.edge_map):
        return False
    forest = branch_forest(g, w.branch_sets)
    if set(w.edge_map.values()) & forest:
        return False
    location = {v: t for t, vs in w.branch_sets.items() for v in vs}
    for te, he in w.edge_map.items():
        if {location.get(x) for x in g.ends(he)} != set(target.ends(te)):
            return False
    return True


def _loop_vertex_witness(g: Graph) -> Optional[MinorWitness]:
    """A loop-vertex minor exists iff the host contains any circle.  It is
    modelled on a short circle, its loop edge the circle's greatest edge: the
    one edge of a circle left out of its spanning forest in edge-id order."""
    best = _short_circle(g)
    if best is None:
        return None
    verts = frozenset(v for e in best for v in g.ends(e))
    return MinorWitness({"v": verts}, {"e": max(best)})


def _short_circle(g: Graph) -> Optional[frozenset]:
    """A loop, else a pair of parallel edges, else the least circle in
    canonical order (the fundamental circle of the least chord past 64
    edges), or None on a forest."""
    for e in g.edge_list:
        if g.is_loop(e):
            return frozenset({e})
    seen_pairs = set()
    for e in g.edge_list:
        t, h = g.ends(e)
        key = frozenset({t, h})
        if key in seen_pairs:
            others = [f for f in g.edges_between(t, h) if f != e]
            return frozenset({e, others[0]})
        seen_pairs.add(key)
    if len(g.edge_list) <= 64:
        return least_circle(g)
    tree = spanning_tree(g)
    chord = next((e for e in g.edge_list if e not in tree.forest), None)
    return None if chord is None else fundamental_circle(tree, chord).support


def has_minor(g: Graph, target: Graph) -> Optional[MinorWitness]:
    """A verified MinorWitness if target is a minor of g, else None.

    Respects multiplicities: distinct target parallels need distinct host
    edges.  Raises ``BudgetError`` once it has tried more than
    ``MINOR_SEARCH_MAX_NODES`` candidate branch sets.
    """
    if len(target.vertex_list) > MINOR_SEARCH_MAX_VERTICES or len(target.edge_list) > MINOR_SEARCH_MAX_EDGES:
        raise GraphError("minor search bound exceeded (target too large)")
    if len(g.edge_list) < len(target.edge_list) or len(g.vertex_list) < len(target.vertex_list):
        return None
    loops_at_target = {v: len(target.loops_at(v)) for v in target.vertex_list}
    if len(target.vertex_list) == len(target.edge_list) == 1:
        w = _loop_vertex_witness(g)
        if w is not None:
            w = MinorWitness({target.vertex_list[0]: w.branch_sets["v"]}, {target.edge_list[0]: w.edge_map["e"]})
            return w if verify_minor_witness(g, target, w) else None
        return None

    order = sorted(target.vertex_list, key=lambda v: -target.degree(v))
    host_vertices = g.vertex_list

    def candidate_sets(used: set) -> Iterable[frozenset]:
        """Connected vertex sets avoiding ``used``, each grown from its least
        vertex."""
        emitted = set()
        for seed in host_vertices:
            if seed in used:
                continue
            frontier: list[frozenset] = [frozenset({seed})]
            while frontier:
                cur = frontier.pop()
                if cur in emitted:  # its subtree was walked when first popped
                    continue
                emitted.add(cur)
                yield cur
                if len(cur) >= len(host_vertices) - len(used):
                    continue
                expand = {u for v in cur for _, u in g.incident(v) if u > seed and u not in cur and u not in used}
                for u in sorted(expand):
                    frontier.append(cur | {u})

    assignment: dict[str, frozenset] = {}
    nodes = 0

    def feasible_partial(i: int) -> bool:
        tv = order[i]
        vs = assignment[tv]
        # loops need enough cyclomatic slack inside the branch set
        if loops_at_target[tv]:
            sub = g.subgraph([e for e in g.edge_list if set(g.ends(e)) <= vs], vs)
            slack = len(sub.edge_list) - (len(vs) - 1)
            if slack < loops_at_target[tv]:
                return False
        where = {v: t for t, vs in assignment.items() for v in vs}
        for j in range(i):
            tu = order[j]
            need = target.multiplicity(tu, tv) if tu != tv else 0
            if need:
                have = sum(1 for e in g.edge_list if {where.get(x) for x in g.ends(e)} == {tu, tv})
                if have < need:
                    return False
        return True

    def search(i: int) -> Optional[dict[str, frozenset]]:
        nonlocal nodes
        if i == len(order):
            return dict(assignment)
        used = set().union(*assignment.values()) if assignment else set()
        for vs in candidate_sets(used):
            nodes += 1
            if nodes > MINOR_SEARCH_MAX_NODES:
                raise BudgetError(f"minor search budget exceeded ({nodes} candidate branch sets > {MINOR_SEARCH_MAX_NODES})")
            assignment[order[i]] = vs
            if feasible_partial(i):
                res = search(i + 1)
                if res is not None:
                    return res
            del assignment[order[i]]
        return None

    found = search(0)
    if found is None:
        return None
    # build the explicit edge injection
    forest = branch_forest(g, found)
    location = {v: t for t, vs in found.items() for v in vs}
    pools: dict[frozenset, list[str]] = {}
    for e in g.edge_list:
        if e in forest:
            continue
        t, h = g.ends(e)
        lt, lh = location.get(t), location.get(h)
        if lt is None or lh is None:
            continue
        pools.setdefault(frozenset({lt, lh}), []).append(e)
    emap: dict[str, str] = {}
    for te in target.edge_list:
        tt, th = target.ends(te)
        pool = pools.get(frozenset({tt, th}), [])
        if not pool:
            return None
        emap[te] = pool.pop(0)
    w = MinorWitness({t: frozenset(vs) for t, vs in found.items()}, emap)
    return w if verify_minor_witness(g, target, w) else None


def doubled_path_target() -> tuple[Graph, str, str]:
    """The doubled length-two path 2P2 with its end vertices, used for
    classifying bridges."""
    g = Graph(
        {
            "a1": ("u", "x"),
            "a2": ("u", "x"),
            "b1": ("x", "v"),
            "b2": ("x", "v"),
        }
    )
    return g, "u", "v"


# -- basis and witness lifting -----------------------------------------------------


def lift_basis_deletion(
    g: Graph,
    s: Iterable[str],
    b: OrientedBasis,
    gains: GainAssignment,
) -> tuple[OrientedBasis, GainAssignment]:
    """Extend a basis and gains from g - s to g.

    Deleted edges that reconnect components get identity gain and join the
    implicit forest; each remaining deleted edge e, in edge-id order,
    contributes the circle through e in (g - s') + e, its gain solved so the
    circle is balanced.  Identity-gain walks stay identity-gain and
    unbalancedness is preserved.

    The circle closes e with the path between its ends in the least spanning
    forest in edge-id order (``spanning_forest``) of the edges present before
    e, and one such forest is kept throughout.  Edge ids are distinct
    weights, so by the cycle property of minimum spanning forests the
    greatest edge f of the circle is the one outside the least forest of the
    edges present with e: that forest is the old one with e swapped in for f
    when f, the greatest edge on the path, is greater than e, and the old one
    otherwise.  A restored edge costs one search of the forest.
    """
    s = set(s)
    reduced = delete(g, s)
    if b.host.edges != reduced.edges:
        raise GraphError("basis does not live on g minus s")
    sets = DisjointSets(g.vertex_list)
    for e in reduced.edge_list:
        sets.union(*reduced.ends(e))
    bridge_like: list[str] = []  # the forest T inside s
    rest: list[str] = []
    for e in sorted(s):
        (bridge_like if sets.union(*g.ends(e)) else rest).append(e)

    group = gains.group
    new_gains = dict(gains.gains)
    for e in bridge_like:
        new_gains[e] = group.identity()
    pairs = list(b.pairs)
    forest: dict[str, dict[str, str]] = {v: {} for v in g.vertex_list}  # vertex -> {edge: other end}
    sets = DisjointSets(g.vertex_list)
    for e in sorted((*reduced.edge_list, *bridge_like)):
        t, h = g.ends(e)
        if sets.union(t, h):
            forest[t][e], forest[h][e] = h, t
    for e in rest:
        t, h = g.ends(e)
        path = _forest_path(g, forest, h, t)
        support = frozenset({e} | {st.edge for st in path})
        walk = ClosedWalk(t, (DirectedEdge(e, True), *path))
        if walk_support(walk) != support:
            raise GraphError("lift produced an inconsistent circle walk")
        # solve gain(e) so the walk product is the identity
        acc = group.identity()
        for st in path:
            x = new_gains[st.edge]
            acc = group.op(acc, x if st.forward else group.inverse(x))
        new_gains[e] = group.inverse(acc)
        pairs.append((support, walk))
        top = max((st.edge for st in path), default=e)
        if top > e:
            a, c = g.ends(top)
            del forest[a][top], forest[c][top]
            forest[t][e], forest[h][e] = h, t
    ob = OrientedBasis(tuple(pairs), g)
    return ob, GainAssignment(group, new_gains)


def _forest_path(g: Graph, forest: Mapping[str, Mapping[str, str]], a: str, b: str) -> list[DirectedEdge]:
    """Steps of the path from ``a`` to ``b`` in a forest of ``g`` given as
    vertex -> {edge: other end}, found by a search from ``a``."""
    back: dict[str, tuple[str, str]] = {a: ("", a)}
    stack = [a]
    while b not in back:
        if not stack:
            raise GraphError(f"{a!r} and {b!r} lie in different forest components")
        v = stack.pop()
        for e, u in forest[v].items():
            if u not in back:
                back[u] = (e, v)
                stack.append(u)
    steps = []
    while b != a:
        e, v = back[b]
        steps.append(DirectedEdge(e, g.ends(e)[0] == v))
        b = v
    return steps[::-1]


def splice_tree_paths(tree: RootedForest, steps: Sequence[DirectedEdge], start: str) -> ClosedWalk:
    """The closed walk of ``tree``'s graph that takes each of ``steps`` in
    turn, each followed by the tree path from its head to the tail of the
    next step (after the last, of the first); with no steps, the empty walk
    at ``start``.  It is closed by construction; a step pair with no tree
    path between them raises.  A repeated pair reuses its path."""
    g = tree.graph
    ends = [g.ends(e) if forward else g.ends(e)[::-1] for e, forward in steps]
    paths: dict[tuple[str, str], list[DirectedEdge]] = {}
    out: list[DirectedEdge] = []
    for i, st in enumerate(steps):
        gap = (ends[i][1], ends[i + 1 - len(ends)][0])  # the first step follows the last
        path = paths.get(gap)
        if path is None:
            path = paths[gap] = tree.path(*gap)
        out.append(st)
        out += path
    return ClosedWalk(ends[0][0] if ends else start, tuple(out))


# -- extrusion -----------------------------------------------------------------


def extrude(g: Graph, v: str, w: str, moved: Iterable[str]) -> Graph:
    """Split off a new vertex v' joined to v by a fresh edge, moving the
    selected v-w edges to v'.  Extruding along loops is not allowed."""
    moved = set(moved)
    if v == w:
        raise GraphError("cannot extrude along a loop")
    if not moved:
        raise GraphError("extrusion must move at least one edge")
    between = set(g.edges_between(v, w))
    if not moved <= between:
        raise GraphError("moved edges must join v and w")
    prime = v + "'"
    while prime in g.vertices:
        prime += "'"
    counter = 0
    new_edge = f"ext{counter}_{v}"
    while new_edge in g.edges:
        counter += 1
        new_edge = f"ext{counter}_{v}"
    edges = dict(g.edges)
    for e in moved:
        t, h = g.ends(e)
        edges[e] = (prime, h) if t == v else (t, prime)
    edges[new_edge] = (v, prime)
    return Graph(edges, g.vertices | {prime})


@dataclass(frozen=True)
class ReverseStep:
    """One reverse extrusion: contract ``edge`` (the single edge joining the
    split vertex to ``kept``), returning its parallel class to ``kept``."""

    vertex: str
    kept: str
    other: str
    edge: str
    returned_edges: tuple[str, ...]


def _neighbour_classes(g: Graph) -> dict[str, dict[str, list[str]]]:
    """Each vertex's neighbours other than itself, each with the ids of the
    edges joining the two: one list per pair, shared by both ends."""
    classes: dict[str, dict[str, list[str]]] = {v: {} for v in g.vertex_list}
    for e in g.edge_list:
        t, h = g.ends(e)
        if t == h:
            continue
        if h not in classes[t]:
            classes[t][h] = classes[h][t] = []
        classes[t][h].append(e)
    return classes


def _reverse_move(classes: Mapping[str, Sequence[str]], name: Optional[Callable] = None) -> Optional[tuple]:
    """The (kept, other) neighbours of the reverse step at a loopless vertex
    with these neighbour classes, or None.  A step needs exactly two
    neighbours; ``kept`` is the first of them in ``name`` order that is
    joined to the vertex by a single edge."""
    if len(classes) != 2:
        return None
    a, b = sorted(classes, key=name)
    if len(classes[a]) == 1:
        return a, b
    if len(classes[b]) == 1:
        return b, a
    return None


def _contract_step(classes: dict, ends: dict, y: str, kept: str, other: str, edge: str) -> None:
    """Contract ``edge``, the one edge joining ``y`` to ``kept``, in place on
    neighbour classes and an edge -> ends map: ``y`` merges into ``kept`` and
    its edges to ``other`` join the class of ``kept`` and ``other``."""
    returned = classes[y][other]
    del classes[y], classes[kept][y], classes[other][y], ends[edge]
    if other in classes[kept]:
        classes[kept][other].extend(returned)
    else:
        classes[kept][other] = classes[other][kept] = returned
    for e in returned:
        t, h = ends[e]
        ends[e] = (kept, h) if t == y else (t, kept)


def is_extrusion_irreducible(g: Graph) -> bool:
    """No single reverse-extrusion step applies: every loopless vertex with
    exactly two neighbors is multiply adjacent to both."""
    classes = _neighbour_classes(g)
    return not any(_reverse_move(classes[v]) and not g.loops_at(v) for v in g.vertex_list)


def reverse_extrusion_reduce(g: Graph) -> tuple[Graph, tuple[ReverseStep, ...]]:
    """Take the first reverse-extrusion step until none applies: the step at
    the least-named vertex that has one, contracting its edge to ``kept``.

    One path suffices for a block: each step contracts an edge and keeps the
    graph loopless and inseparable, so a block free of the four forbidden
    minors (the minor characterization) ends at a minor free of them too, and
    the constructive characterization makes that irreducible end a base.

    The steps run on one adjacency of neighbour classes, keyed by the
    vertices of ``g`` that survive.  A step merges its vertex into ``kept``,
    which takes the lesser of the two names as ``contract`` does.  Only the
    merged vertex and ``other`` change their neighbour classes, so they are
    the only vertices that can gain or lose a step; a heap of (name, vertex)
    holds every vertex that may have one.  A step costs two heap pushes and
    a sort of the edges it returns, so the reduction takes O((E + R) log E)
    time, where R counts the returned edges of all steps.
    """
    if any(g.is_loop(e) for e in g.edge_list):
        raise GraphError("reverse extrusion operates on loopless graphs")
    classes = _neighbour_classes(g)
    name = {v: v for v in g.vertex_list}  # surviving vertex -> its name now
    ends = dict(g.edges)
    heap = [(v, v) for v in g.vertex_list]  # sorted, hence a heap
    steps = []
    while heap:
        label, y = heapq.heappop(heap)
        if name.get(y) != label:
            continue  # merged away or renamed since it was pushed
        move = _reverse_move(classes[y], name.__getitem__)
        if move is None:
            continue
        kept, other = move
        [edge] = classes[y][kept]
        steps.append(ReverseStep(label, name[kept], name[other], edge, tuple(sorted(classes[y][other]))))
        _contract_step(classes, ends, y, kept, other, edge)
        name[kept] = min(name[kept], name.pop(y))
        heapq.heappush(heap, (name[kept], kept))
        heapq.heappush(heap, (name[other], other))
    if not steps:
        return g, ()
    return Graph({e: (name[t], name[h]) for e, (t, h) in ends.items()}, name.values()), tuple(steps)


def verify_reverse_steps(g: Graph, base: Graph, steps: Sequence[ReverseStep]) -> bool:
    """Check a reduction log step by step, then contract: each step's vertex
    is loopless with exactly the two neighbours ``kept`` != ``other``, its one
    edge to ``kept`` is ``edge`` and its edges to ``other`` are the returned
    edges, so the step undoes an extrusion.  The end must be isomorphic to
    ``base``.

    The steps contract in place as in ``reverse_extrusion_reduce``: neighbour
    classes keyed by the vertices of ``g`` that survive, each with its name
    now, so a step costs its returned edges and the end is one ``Graph``."""
    classes = _neighbour_classes(g)
    loopy = {t for t, h in g.edges.values() if t == h}  # a valid step makes no loop
    name = {v: v for v in g.vertex_list}  # surviving vertex -> its name now
    vertex = dict(name)  # name now -> surviving vertex
    ends = dict(g.edges)
    for step in steps:
        y = vertex.get(step.vertex)
        if y is None or y in loopy or step.kept == step.other:
            return False
        kept, other = vertex.get(step.kept), vertex.get(step.other)
        near = classes[y]
        if near.keys() != {kept, other} or near[kept] != [step.edge]:
            return False
        if sorted(near[other]) != sorted(step.returned_edges):
            return False
        _contract_step(classes, ends, y, kept, other, step.edge)
        del name[y], vertex[step.vertex], vertex[step.kept]
        name[kept] = min(step.vertex, step.kept)
        vertex[name[kept]] = kept
    end = Graph({e: (name[t], name[h]) for e, (t, h) in ends.items()}, name.values())
    return is_isomorphic(end, base)


# -- Whitney twist ---------------------------------------------------------------


def whitney_twist(gg: GainGraph, u: str, v: str, side: Iterable[str]) -> GainGraph:
    """Twist a union of bridges of {u, v}: its edges swap their attachments
    at u and v and their gains are inverted.  Balance status is preserved."""
    g = gg.graph
    side = set(side)
    singles, spans = _bridge_edges(g, u, v)
    bridge_edge_sets = [frozenset({e}) for e in singles] + [frozenset(edges) for edges in spans]
    if len(bridge_edge_sets) < 2:
        raise GraphError("pair does not separate: fewer than two bridges")
    chosen = [bs for bs in bridge_edge_sets if bs <= side]
    covered = set().union(*chosen) if chosen else set()
    if covered != side or not side:
        raise GraphError("side must be a union of bridges")
    if len(chosen) == len(bridge_edge_sets):
        raise GraphError("side must exclude at least one bridge")
    swap = {u: v, v: u}
    edges = dict(g.edges)
    gains = dict(gg.assignment.gains)
    for e in side:
        t, h = g.ends(e)
        edges[e] = (swap.get(t, t), swap.get(h, h))
        gains[e] = gg.group.inverse(gains[e])
    return GainGraph(Graph(edges, g.vertices), GainAssignment(gg.group, gains))


# -- bridges ---------------------------------------------------------------------

EDGE_BRIDGE = "EdgeBridge"
TYPE_I = "TypeI"
TYPE_II = "TypeII"


@dataclass(frozen=True)
class Bridge:
    subgraph: Graph
    kind: str
    separating_vertex: Optional[str] = None


@dataclass(frozen=True)
class BridgeReport:
    pair: tuple[str, str]
    bridges: tuple[Bridge, ...]


def _bridge_edges(g: Graph, u: str, v: str) -> tuple[list[str], list[set]]:
    """The edges off {u, v} partitioned into bridges: the single-edge bridges
    (u-v edges and loops at u or v) in edge order, then one edge set per
    component of g minus u and v that carries an edge, with the edges
    attaching it to u and v."""
    if u == v:
        raise GraphError("bridge pair must be two distinct vertices")
    for x in (u, v):
        if x not in g.vertices:
            raise GraphError(f"unknown vertex {x!r}")
    inner = [x for x in g.vertex_list if x not in (u, v)]
    inner_edges = [e for e in g.edge_list if u not in g.ends(e) and v not in g.ends(e)]
    comp_of = {x: i for i, vs in enumerate(edge_components(g, inner_edges, inner)) for x in vs}
    singles: list[str] = []
    groups: dict[int, set] = {}
    for e in g.edge_list:
        off = [x for x in g.ends(e) if x not in (u, v)]
        if off:
            groups.setdefault(comp_of[off[0]], set()).add(e)
        else:
            singles.append(e)
    return singles, [groups[i] for i in sorted(groups)]


def bridges_of_pair(g: Graph, u: str, v: str) -> BridgeReport:
    """Partition the edges off {u, v} into bridges and classify each as an
    edge bridge, type I (no doubled path 2P2 rooted at u and v; carries a
    separating vertex), or type II."""
    singles, spans = _bridge_edges(g, u, v)
    bridges = [Bridge(g.subgraph([e]), EDGE_BRIDGE) for e in singles]
    for edges in spans:
        sub = g.subgraph(edges)
        bridges.append(Bridge(sub, *_bridge_type(sub, u, v)))
    return BridgeReport((u, v), tuple(bridges))


def _bridge_type(b: Graph, u: str, v: str) -> tuple[str, Optional[str]]:
    """The type of a non-edge bridge ``b`` of {u, v} and the separating vertex
    of a type I bridge (None if u or v is unattached), read off the chain of
    blocks that a u-v path passes through.  A doubled link of 2P2 is two edges
    on one circle, so in one block with more than one edge (a thick block).
    So ``b`` is type II if u and v share a block or two chain blocks are
    thick, type I if none is, and else type II exactly when some non-edge
    bridge, inside the thick block, of the pair where the path enters and
    leaves it is.  A type I bridge is separated by its least chain cut vertex."""
    if u not in b.vertices or v not in b.vertices:
        return TYPE_I, None
    block_of = {e: blk for blk in blocks(b) for e in blk.edge_list}
    chain: list[list] = []  # [block, entry, exit], in path order
    x = u
    for step in RootedForest(b, spanning_forest(b)).path(u, v):
        y = b.other_end(step.edge, x)
        if chain and chain[-1][0] is block_of[step.edge]:
            chain[-1][2] = y
        else:
            chain.append([block_of[step.edge], x, y])
        x = y
    thick = [(blk, a, c) for blk, a, c in chain if len(blk.edge_list) > 1]
    inner = (_bridge_type(blk.subgraph(edges), a, c)[0] for blk, a, c in thick for edges in _bridge_edges(blk, a, c)[1])
    if len(chain) == 1 or len(thick) > 1 or TYPE_II in inner:
        return TYPE_II, None
    return TYPE_I, min(a for _, a, _ in chain[1:])


def has_two_separation(g: Graph) -> Optional[tuple[str, str]]:
    """A vertex pair with at least two non-edge bridges, i.e. whose removal
    leaves two components that carry an edge; None if no such pair exists."""
    for u, v in itertools.combinations(g.vertex_list, 2):
        if len(_bridge_edges(g, u, v)[1]) >= 2:
            return (u, v)
    return None
