"""Blocks and structural decomposition on string ids, for reference.

The library finds blocks, reduces by reverse extrusion and matches bases on
a compact form: vertex indices in sorted-name order, edge numbers in
sorted-id order.  This module keeps the same algorithms as they were first
written, on the ``Graph`` and its string ids:

* ``reference_blocks`` is the Hopcroft-Tarjan DFS over ``Graph.incident``;
  ``gainbalance.graphcore.blocks`` must give the same blocks in the same
  order, and ``g`` itself exactly when this does.
* ``reference_reduce`` is the heap-driven reduction on
  neighbour classes keyed by vertex names, with its own copies of the
  library's step helpers;
  ``gainbalance.minors.reverse_extrusion_reduce`` must give the same steps
  and the same end graph.
* ``reference_match_base``, ``reference_block_decomposition``,
  ``reference_decompose`` and ``reference_structural_decomposition`` are the
  classifier's decomposition on the three above;
  ``gainbalance.classify.structural_decomposition`` must give the same JSON.

None of them calls a compact kernel, so a comparison against them does not
depend on the kernels it checks.
"""

import heapq
import itertools

from gainbalance.classify import BlockDecomposition, Decomposition
from gainbalance.errors import GraphError
from gainbalance.graphcore import (
    CIRCLE_MULTI,
    K4_OPPOSITE,
    LOOP_VERTEX,
    MULTI_K2,
    Graph,
    NamedGraphSpec,
)
from gainbalance.minors import ReverseStep


def reference_blocks(g):
    whole = all(g.incident(v) for v in g.vertex_list)

    def block(edge_ids):
        return g if whole and len(edge_ids) == len(g.edge_list) else g.subgraph(edge_ids)

    out = []
    for v in g.vertex_list:
        for eid in g.loops_at(v):
            out.append(block([eid]))
    disc, low = {}, {}
    counter = [0]
    edge_stack = []

    def dfs(root):
        # iterative DFS; frames are (vertex, entering edge id, incident iterator)
        stack = [(root, None, iter(g.incident(root)))]
        disc[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            v, fe, it = stack[-1]
            advanced = False
            for eid, u in it:
                if u == v or eid == fe:
                    continue
                if u not in disc:
                    edge_stack.append(eid)
                    disc[u] = low[u] = counter[0]
                    counter[0] += 1
                    stack.append((u, eid, iter(g.incident(u))))
                    advanced = True
                    break
                if disc[u] < disc[v]:
                    edge_stack.append(eid)
                    if disc[u] < low[v]:
                        low[v] = disc[u]
            if advanced:
                continue
            stack.pop()
            if stack:
                pv, _, _ = stack[-1]
                if low[v] < low[pv]:
                    low[pv] = low[v]
                if low[v] >= disc[pv]:
                    blk = []
                    while edge_stack:
                        e = edge_stack.pop()
                        blk.append(e)
                        if e == fe:
                            break
                    out.append(block(blk))

    for root in g.vertex_list:
        if root not in disc:
            dfs(root)
    return out


def _neighbour_classes(g):
    classes = {v: {} for v in g.vertex_list}
    for e in g.edge_list:
        t, h = g.ends(e)
        if t == h:
            continue
        if h not in classes[t]:
            classes[t][h] = classes[h][t] = []
        classes[t][h].append(e)
    return classes


def _reverse_move(classes, name):
    if len(classes) != 2:
        return None
    a, b = sorted(classes, key=name)
    if len(classes[a]) == 1:
        return a, b
    if len(classes[b]) == 1:
        return b, a
    return None


def _contract_step(classes, ends, y, kept, other, edge):
    returned = classes[y][other]
    del classes[y], classes[kept][y], classes[other][y], ends[edge]
    if other in classes[kept]:
        classes[kept][other].extend(returned)
    else:
        classes[kept][other] = classes[other][kept] = returned
    for e in returned:
        t, h = ends[e]
        ends[e] = (kept, h) if t == y else (t, kept)


def reference_reduce(g):
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


def reference_match_base(h):
    n = len(h.vertex_list)
    m = len(h.edge_list)
    loops = [e for e in h.edge_list if h.is_loop(e)]
    if loops:
        return NamedGraphSpec(LOOP_VERTEX) if n == 1 and m == 1 else None
    if n == 2 and m >= 1:
        return NamedGraphSpec(MULTI_K2, (m,))
    if n == 3:
        v = h.vertex_list
        mults = sorted(
            (h.multiplicity(v[0], v[1]), h.multiplicity(v[1], v[2]), h.multiplicity(v[0], v[2])),
            reverse=True,
        )
        if mults[1] == 2 and mults[2] == 2 and mults[0] >= 2:
            return NamedGraphSpec(CIRCLE_MULTI, (mults[0], 2, 2))
        return None
    if n == 4:
        pairs = list(itertools.combinations(h.vertex_list, 2))
        mults = {p: h.multiplicity(*p) for p in pairs}
        if any(c == 0 for c in mults.values()):
            return None
        big = [p for p, c in mults.items() if c > 1]
        if len(big) == 0:
            return NamedGraphSpec(K4_OPPOSITE, (1, 1))
        if len(big) == 1:
            return NamedGraphSpec(K4_OPPOSITE, (mults[big[0]], 1))
        if len(big) == 2 and not (set(big[0]) & set(big[1])):
            a, b = sorted((mults[big[0]], mults[big[1]]), reverse=True)
            return NamedGraphSpec(K4_OPPOSITE, (a, b))
        return None
    return None


def reference_block_decomposition(block):
    if block.is_loop(block.edge_list[0]):
        irreducible, steps = block, ()
    else:
        irreducible, steps = reference_reduce(block)
    base = reference_match_base(irreducible)
    return None if base is None else BlockDecomposition(block, base, steps)


def reference_decompose(g):
    out = []
    for block in reference_blocks(g):
        found = reference_block_decomposition(block)
        if found is None:
            return block
        out.append(found)
    return Decomposition(tuple(out))


def reference_structural_decomposition(g):
    found = reference_decompose(g)
    return found if isinstance(found, Decomposition) else None
