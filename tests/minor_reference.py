"""Minor searches and checks that the library replaced by structural rules,
kept for reference.

``rooted_has_minor`` is the branch-set search as it was when it still took
``roots``: target vertices pinned to host vertices, the branch set of a
rooted target vertex having to contain its root.  It has no node budget.
``rooted_bridges_of_pair`` types each bridge of a vertex pair with it, as
the library once did: a bridge is type II when it has a doubled path 2P2
rooted at the pair, else type I with the first vertex (by name) separating
the pair inside it.

``realizes_minor`` is the realization that ``verify_minor_witness`` once
ended with: keep the mapped edges and the branch forest, contract the
forest, and test the result for isomorphism with the target.
``extruded_reverse_steps`` is the reduction-log check that undid each step
by extrusion and compared the graphs by canonical labeling.
``keyed_verify_reverse_steps`` is ``verify_reverse_steps`` with the end
compared with the base by canonical key, as it was before ``is_isomorphic``
decided graphs of at most four vertices by vertex bijections.
"""

from typing import Iterable, Mapping, Optional

from gainbalance.errors import GraphError
from gainbalance.graphcore import Graph, canonical_key, is_isomorphic
from gainbalance.minors import (
    EDGE_BRIDGE,
    MINOR_SEARCH_MAX_EDGES,
    MINOR_SEARCH_MAX_VERTICES,
    TYPE_I,
    TYPE_II,
    Bridge,
    BridgeReport,
    MinorWitness,
    _bridge_edges,
    _loop_vertex_witness,
    _replay,
    branch_forest,
    contract,
    delete,
    doubled_path_target,
    extrude,
    verify_minor_witness,
)

from canonical_reference import reference_components


def rooted_has_minor(
    g: Graph,
    target: Graph,
    roots: Optional[Mapping[str, str]] = None,
) -> Optional[MinorWitness]:
    """A verified MinorWitness if target is a minor of g, else None.

    ``roots`` optionally pins target vertices to host vertices (the branch
    set of a rooted target vertex must contain its host root).  Respects
    multiplicities: distinct target parallels need distinct host edges.
    """
    if len(target.vertex_list) > MINOR_SEARCH_MAX_VERTICES or len(target.edge_list) > MINOR_SEARCH_MAX_EDGES:
        raise GraphError("minor search bound exceeded (target too large)")
    if len(g.edge_list) < len(target.edge_list) or len(g.vertex_list) < len(target.vertex_list):
        return None
    loops_at_target = {v: len(target.loops_at(v)) for v in target.vertex_list}
    if not roots and set(target.edge_list) and all(
        len(target.vertex_list) == 1 and loops_at_target[v] == 1 for v in target.vertex_list
    ):
        w = _loop_vertex_witness(g)
        if w is not None:
            tv = target.vertex_list[0]
            te = target.edge_list[0]
            w = MinorWitness({tv: w.branch_sets["v"]}, {te: w.edge_map["e"]})
            return w if verify_minor_witness(g, target, w) else None
        return None

    tverts = sorted(target.vertex_list, key=lambda v: -target.degree(v))
    host_vertices = g.vertex_list
    roots = dict(roots or {})

    def candidate_sets(tv: str, used: set) -> Iterable[frozenset]:
        """Connected vertex sets avoiding ``used``; rooted sets must contain
        the root."""
        must = roots.get(tv)
        if must is not None and must in used:
            return
        seeds = [must] if must is not None else [v for v in host_vertices if v not in used]
        emitted = set()
        for seed in seeds:
            # grow connected sets from the seed
            frontier: list[frozenset] = [frozenset({seed})]
            while frontier:
                cur = frontier.pop()
                if cur in emitted:  # its subtree was walked when first popped
                    continue
                emitted.add(cur)
                yield cur
                if len(cur) >= len(host_vertices) - len(used):
                    continue
                expand = sorted(
                    {
                        u
                        for v in cur
                        for _, u in g.incident(v)
                        if u not in cur and u not in used and (must is not None or u > seed)
                    }
                )
                for u in expand:
                    frontier.append(cur | {u})

    order = tverts
    assignment: dict[str, frozenset] = {}

    def feasible_partial(i: int) -> bool:
        tv = order[i]
        vs = assignment[tv]
        # loops need enough cyclomatic slack inside the branch set
        if loops_at_target[order[i]]:
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
        if i == len(order):
            return dict(assignment)
        tv = order[i]
        used = set().union(*assignment.values()) if assignment else set()
        for vs in candidate_sets(tv, used):
            assignment[tv] = vs
            if feasible_partial(i):
                res = search(i + 1)
                if res is not None:
                    return res
            del assignment[tv]
        return None

    found = search(0)
    if found is None:
        return None
    # build the explicit edge injection
    forest = branch_forest(g, found)
    location = {}
    for t, vs in found.items():
        for v in vs:
            location[v] = t
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


def _separating_vertex(sub: Graph, u: str, v: str) -> Optional[str]:
    if u not in sub.vertices or v not in sub.vertices:
        return None
    inner = [x for x in sub.vertex_list if x not in (u, v)]
    for w in inner:
        remaining = [e for e in sub.edge_list if w not in sub.ends(e)]
        # u disconnected from v without w?
        if not any(u in vs and v in vs for vs in reference_components(sub, remaining, (u, v))):
            return w
    return None


def rooted_bridges_of_pair(g: Graph, u: str, v: str) -> BridgeReport:
    singles, spans = _bridge_edges(g, u, v)
    bridges = [Bridge(g.subgraph([e]), EDGE_BRIDGE) for e in singles]
    target, tu, tv = doubled_path_target()
    for edges in spans:
        verts = {x for e in edges for x in g.ends(e)}
        sub = g.subgraph(edges, verts)
        if {u, v} <= verts:
            witness = rooted_has_minor(sub, target, roots={tu: u, tv: v})
            if witness is not None:
                bridges.append(Bridge(sub, TYPE_II))
                continue
        bridges.append(Bridge(sub, TYPE_I, _separating_vertex(sub, u, v)))
    return BridgeReport((u, v), tuple(bridges))


def realizes_minor(g: Graph, target: Graph, w: MinorWitness) -> bool:
    """The witness passes ``verify_minor_witness`` and deleting, then
    contracting, as it says gives a graph isomorphic to the target."""
    if not verify_minor_witness(g, target, w):
        return False
    forest = branch_forest(g, w.branch_sets)
    keep = set(w.edge_map.values()) | forest
    reduced = delete(g, set(g.edge_list) - keep)
    contracted, _ = contract(reduced, forest)
    trimmed = Graph(
        dict(contracted.edges),
        {min(vs) for vs in w.branch_sets.values()},
    )
    return is_isomorphic(trimmed, target)


def extruded_reverse_steps(g: Graph, base: Graph, steps) -> bool:
    """Applying the contractions in order reaches a graph isomorphic to
    ``base``, and each step is undone by an extrusion up to isomorphism."""
    h = g
    for step in steps:
        reduced, vmap = contract(h, {step.edge})
        rebuilt = extrude(reduced, vmap[step.vertex], vmap[step.other], step.returned_edges)
        if canonical_key(rebuilt) != canonical_key(h):
            return False
        h = reduced
    return canonical_key(h) == canonical_key(base)


def keyed_verify_reverse_steps(g: Graph, base: Graph, steps) -> bool:
    """The checked replay of ``verify_reverse_steps``, its end compared with
    ``base`` by canonical key."""
    end = _replay(g, steps)
    return end is not None and canonical_key(end) == canonical_key(base)
