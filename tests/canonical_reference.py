"""Canonical labeling and multigraph enumeration without automorphism pruning.

Reference for ``gainbalance.graphcore.canonical_labeling`` and the
enumerators of ``gainbalance.enumeration``: the canonical search visits every
leaf of its search tree, and enumeration builds a :class:`Graph` for every
candidate, once per vertex pair, and canonicalizes it through
:func:`reference_canonical_labeling`.

``is_connected`` and ``is_inseparable`` are the definitions the enumerators'
tests check ``connected_multigraphs`` and ``inseparable_multigraphs``
against: one component, and one block covering every edge.  Components come
from ``reference_components``, which merges the vertex sets at the ends of
each edge in turn, and blocks from the string-id Hopcroft-Tarjan DFS
``decomposition_reference.reference_blocks``, so neither shares code with
``graphcore.components``, ``edge_components`` or ``blocks``.

``reference_is_canonical_deletion`` and ``reference_is_canonical_ear`` apply
the enumerators' rank rules to a :class:`Graph` of the candidate's cells and
decide deletability and removability from those definitions: connectivity
after the deletion, and ``is_inseparable`` after the ear is taken out.
"""

from gainbalance.graphcore import Graph

from decomposition_reference import reference_blocks


def reference_components(g, edges, vertices=()):
    """Vertex sets of the components of the subgraph of ``g`` formed by
    ``edges``, their ends and the extra ``vertices``, ordered by least
    vertex: the sets at the two ends of each edge are merged in turn."""
    edges = list(edges)
    parts = [{v} for v in set(vertices).union(*map(g.ends, edges))]
    for e in edges:
        t, h = g.ends(e)
        pt = next(p for p in parts if t in p)
        ph = next(p for p in parts if h in p)
        if pt is not ph:
            parts.remove(ph)
            pt |= ph
    return sorted(map(frozenset, parts), key=min)


def reference_canonical_connected(n, mult):
    """Least edge-multiset encoding over all leaves of the search tree, and
    the position of each original index at the first leaf attaining it."""
    nbrs = [tuple(j for j in range(n) if j != i and mult[i][j]) for i in range(n)]

    def refine(colors):
        while True:
            sig = [
                (colors[i], mult[i][i], tuple(sorted((colors[j], mult[i][j]) for j in nbrs[i])))
                for i in range(n)
            ]
            rank = {s: r for r, s in enumerate(sorted(set(sig)))}
            new = [rank[s] for s in sig]
            if new == colors:
                return colors
            colors = new

    def encode(pos):
        items = []
        for i in range(n):
            for j in range(i, n):
                if mult[i][j]:
                    a, b = pos[i], pos[j]
                    if a > b:
                        a, b = b, a
                    items.append((a, b, mult[i][j]))
        return tuple(sorted(items))

    best = [None, None]

    def search(colors):
        colors = refine(colors)
        cells = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            order = sorted(range(n), key=lambda i: colors[i])
            pos = [0] * n
            for idx, i in enumerate(order):
                pos[i] = idx
            key = encode(pos)
            if best[0] is None or key < best[0]:
                best[0] = key
                best[1] = pos
            return
        for i in target:
            forced = [c * 2 + 1 for c in colors]
            forced[i] -= 1
            search(forced)

    search([0] * n)
    return best[0], best[1]


def reference_canonical_labeling(g):
    """(key, vertex -> position) as ``canonical_labeling`` defines them."""
    comps = reference_components(g, g.edge_list, g.vertex_list)
    if len(comps) <= 1:
        verts = g.vertex_list
        n = len(verts)
        idx = {v: i for i, v in enumerate(verts)}
        mult = [[0] * n for _ in range(n)]
        for eid in g.edge_list:
            t, h = g.ends(eid)
            i, j = idx[t], idx[h]
            mult[i][j] += 1
            if i != j:
                mult[j][i] += 1
        key, pos = reference_canonical_connected(n, mult)
        return (n, key), {v: pos[idx[v]] for v in verts}
    pieces = []
    for comp in comps:
        sub = g.subgraph([e for e in g.edge_list if g.ends(e)[0] in comp], comp)
        pieces.append((reference_canonical_labeling(sub), comp))
    pieces.sort(key=lambda p: p[0][0])
    vmap = {}
    offset = 0
    keys = []
    for (key, sub_map), comp in pieces:
        keys.append(key)
        for v, p in sub_map.items():
            vmap[v] = p + offset
        offset += len(comp)
    return ("disconnected", tuple(keys)), vmap


def _graph(n, cells):
    """The multigraph on ``v0``.. with ``cells[i, j]`` edges between ``vi``
    and ``vj``, named ``e0``.. in cell order."""
    edges = {}
    for (i, j), mult in cells.items():
        for _ in range(mult):
            edges[f"e{len(edges)}"] = (f"v{i}", f"v{j}")
    return Graph(edges, {f"v{i}" for i in range(n)})


def _compact_canonical(n, cells):
    _, vmap = reference_canonical_labeling(_graph(n, cells))
    pos = {int(v[1:]): p for v, p in vmap.items()}
    out = {}
    for (i, j), mult in cells.items():
        a, b = sorted((pos[i], pos[j]))
        out[(a, b)] = out.get((a, b), 0) + mult
    return n, tuple(sorted((a, b, m) for (a, b), m in out.items()))


def reference_connected_multigraphs(max_edges):
    """Levels of connected multigraphs by edge count, each sorted, grown by
    one edge at every vertex pair, loop and pendant of every parent."""
    levels = [((1, ()),)]
    for _ in range(max_edges):
        seen = set()
        for n, items in levels[-1]:
            cells = {(i, j): m for i, j, m in items}
            for i in range(n):
                for j in range(i, n):
                    seen.add(_compact_canonical(n, {**cells, (i, j): cells.get((i, j), 0) + 1}))
                seen.add(_compact_canonical(n + 1, {**cells, (i, n): 1}))
        levels.append(tuple(sorted(seen)))
    return tuple(levels)


def reference_inseparable_multigraphs(max_edges):
    """Compact forms of the inseparable multigraphs by edge count, each
    sorted: the loop vertex, the single edge, circles and every open ear at
    every pair of distinct vertices."""
    seen = {m: set() for m in range(max_edges + 1)}
    if max_edges >= 1:
        seen[1] |= {_compact_canonical(1, {(0, 0): 1}), _compact_canonical(2, {(0, 1): 1})}
    frontier = []
    for k in range(2, max_edges + 1):
        cells = {}
        for i in range(k):
            a, b = sorted((i, (i + 1) % k))
            cells[(a, b)] = cells.get((a, b), 0) + 1
        c = _compact_canonical(k, cells)
        seen[k].add(c)
        frontier.append(c)
    while frontier:
        n, items = frontier.pop()
        m = sum(x[2] for x in items)
        cells = {(i, j): k for i, j, k in items}
        for length in range(1, max_edges - m + 1):
            for u in range(n):
                for v in range(u + 1, n):
                    grown = dict(cells)
                    path = [u] + [n + t for t in range(length - 1)] + [v]
                    for a, b in zip(path, path[1:]):
                        a, b = sorted((a, b))
                        grown[(a, b)] = grown.get((a, b), 0) + 1
                    c = _compact_canonical(n + length - 1, grown)
                    if c not in seen[m + length]:
                        seen[m + length].add(c)
                        if m + length < max_edges:
                            frontier.append(c)
    return [sorted(seen[m]) for m in range(max_edges + 1)]


def reference_all_multigraphs(levels):
    """Every disjoint union of the connected graphs in ``levels`` (as
    ``connected_multigraphs`` returns them) with at most ``len(levels) - 1``
    edges, as ``all_multigraphs`` orders them, each edge name and end
    formatted as it is added."""
    max_edges = len(levels) - 1
    conn = [c for m in range(1, max_edges + 1) for c in levels[m]]
    conn.sort(key=lambda c: (sum(x[2] for x in c[1]), c))

    def unions(start, remaining):
        for idx in range(start, len(conn)):
            c = conn[idx]
            m = sum(x[2] for x in c[1])
            if m > remaining:
                break
            yield (c,)
            for tail in unions(idx, remaining - m):
                yield (c,) + tail

    for combo in unions(0, max_edges):
        n_off = 0
        edges = {}
        eid = 0
        verts = set()
        for n, items in combo:
            for i, j, mult in items:
                for _ in range(mult):
                    edges[f"e{eid}"] = (f"v{i + n_off}", f"v{j + n_off}")
                    eid += 1
            verts |= {f"v{k + n_off}" for k in range(n)}
            n_off += n
        yield Graph(edges, verts)


def is_connected(g):
    return len(reference_components(g, g.edge_list, g.vertex_list)) <= 1


def is_inseparable(g):
    """True iff g has at least one edge and exactly one block covering it all."""
    return bool(g.edge_list) and is_connected(g) and len(reference_blocks(g)) == 1


def _without(g, edges):
    """``g`` minus ``edges`` and the vertices this leaves without an edge."""
    return g.subgraph(e for e in g.edge_list if e not in edges)


def _edge_rank(g, e):
    t, h = g.ends(e)
    m, degrees = g.multiplicity(t, h), sorted((g.degree(t), g.degree(h)))
    kind = 3 if t == h else 2 if m > 1 else 1 if degrees[0] == 1 else 0
    return (kind, m, *degrees)


def reference_is_canonical_deletion(n, cells, new):
    """Whether no deletable edge of the connected multigraph with these cells
    outranks the edge just added at cell ``new`` by (kind, multiplicity,
    sorted end degrees), kind being loop 3 > parallel copy 2 > pendant 1 >
    other 0.  An edge is deletable when the graph minus it, and minus the
    vertices it leaves without an edge, is connected."""
    g = _graph(n, cells)
    top = _edge_rank(g, g.edges_between(*(f"v{i}" for i in new))[0])
    return all(_edge_rank(g, e) <= top or not is_connected(_without(g, {e})) for e in g.edge_list)


def _ears(g):
    """Each ear of an inseparable multigraph other than a circle, as its edge
    set mapped to its ends: the maximal paths whose inner vertices have
    degree 2."""
    ears = {}
    for a in g.vertex_list:
        if g.degree(a) < 3:
            continue
        for e, x in g.incident(a):
            path = [e]
            while g.degree(x) == 2:
                e = next(f for f, _ in g.incident(x) if f != e)
                path.append(e)
                x = g.other_end(e, x)
            ears.setdefault(frozenset(path), (a, x))
    return ears


def _ear_rank(g, a, b, length):
    m = g.multiplicity(a, b)
    return (length == 1 and m > 1, length, m, *sorted((g.degree(a), g.degree(b))))


def reference_is_canonical_ear(n, cells, u, v, length):
    """Whether no removable ear of the inseparable multigraph with these
    cells outranks the ear of ``length`` edges just added between ``u`` and
    ``v`` by (parallel copy, length, multiplicity of the ends' pair, sorted
    end degrees).  An ear is removable when the graph minus its edges and
    inner vertices is inseparable."""
    g = _graph(n, cells)
    top = _ear_rank(g, f"v{u}", f"v{v}", length)
    ears = _ears(g).items()
    return all(_ear_rank(g, a, b, len(path)) <= top or not is_inseparable(_without(g, path)) for path, (a, b) in ears)
