"""Exhaustive multigraph enumeration up to isomorphism, at desk scale.

Connected multigraphs (loops allowed) are generated level by level: every
connected multigraph with m edges and no isolated vertices arises from one
with m - 1 edges by adding a parallel/new edge, a loop, or a pendant edge to
a fresh vertex.  Inseparable graphs are generated by open ear decomposition:
start from a circle and repeatedly attach paths with distinct existing
endpoints.  Each candidate is a multiplicity matrix built from its parent's
cells and canonicalized by the search of graphcore, which also yields
automorphisms of the candidate; these are kept, moved to canonical positions,
with each new graph.  A parent is grown once per orbit of its automorphisms:
one new edge or loop per orbit of vertex pairs, one pendant edge per vertex
orbit, one ear per orbit of endpoint pairs.  Isomorphic candidates still
meet in the set of canonical forms.

A grown connected candidate is labeled only when its new edge lies in its
canonical deletion class (McKay's canonical augmentation, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998), read off its cells without
any labeling: the deletable edges (all but a simple bridge with no degree-1
end) of highest rank by (kind, multiplicity, sorted end degrees), where kind
is loop 3 > parallel copy 2 > pendant 1 > other 0.  Every graph is still
reached.  Deleting an edge of its class, and the leaf with a pendant, leaves
a connected parent on the previous level; that parent is grown at the orbit
representative of the deleted edge's pair (or end), an automorphism of the
parent carries the deleted edge there, and it extends to an isomorphism from
the graph to the candidate that maps the deleted edge onto the new one.  The
rank is invariant under isomorphisms, so that new edge is in the class too.
Candidates that pass from several parents or pairs still meet in the set of
canonical forms.

A grown ear candidate is labeled only when its new ear lies in its canonical
deletion class, by the same argument.  In an inseparable graph other than a
circle, an ear is a maximal path whose inner vertices have degree 2; its ends
are distinct vertices of degree at least 3 and every edge lies on exactly
one ear.  It is removable when deleting its edges and inner vertices leaves
an inseparable graph, and every such graph has a removable ear: the last ear
of an open ear decomposition, which exists by Whitney's theorem.  The class
is the removable ears of highest rank (parallel copy, length, multiplicity
of the ends' pair, sorted end degrees), read off the cells.  A parallel copy
(a single edge whose ends another edge joins) is always removable, since
the other copy keeps every path it served, so a candidate with one is
decided by ranks alone; on a simple candidate each ear that outranks the
new one costs one block decomposition (``graphcore._block_edges``).  Every
graph is still reached.  Deleting an ear of its class leaves an inseparable
parent with fewer edges, a circle or, by induction on the edge count, an
enumerated graph, and that parent is grown with ears of every length at the
orbit representative of the deleted ear's end pair.  The orbits are those
of the group generated by the automorphisms the labeling search found: a
subgroup of the automorphism group, which only splits orbits, and any of
its elements carries the deleted ear's ends to the representative and
extends to an isomorphism from the graph to the candidate that maps the
deleted ear onto the new one.  Removability and the rank are invariant under
isomorphisms, so the new ear is in the class too.

Each enumerator keeps one growing table of levels by edge count, each level
its sorted forms (as graphs for the inseparable ones) and the automorphisms
found for each form; a call grows a copy past the largest level and
publishes it in one assignment, and ``cache_clear`` drops the table.  The
connected table frees a level's automorphisms once the level above exists,
as only the top level grows; the inseparable one grows ears on every level.
Inseparable level m is the m-edge circle plus an ear of length m - p on each
graph of each level p from 2 to m - 1.

Graphs are kept in a compact internal form ``(n, ((i, j, mult), ...))`` with
``i <= j`` (loops on the diagonal) and materialized as :class:`Graph` values
with vertices ``v0..`` and edges ``e0..`` on demand.
"""

from __future__ import annotations

from typing import Iterator

from .graphcore import DisjointSets, Graph, _block_edges, _canonical_connected

Compact = tuple[int, tuple[tuple[int, int, int], ...]]


def _compact_canonical(n: int, cells: dict[tuple[int, int], int]) -> tuple[Compact, list[list[int]]]:
    """Canonical form of the connected multigraph with these cells, and the
    automorphisms its search found, as images of canonical positions."""
    mult = [[0] * n for _ in range(n)]
    for (i, j), m in cells.items():
        mult[i][j] = mult[j][i] = m
    key, pos, autos = _canonical_connected(n, mult)
    at = sorted(range(n), key=pos.__getitem__)  # original index at each position
    return (n, key), [[pos[a[i]] for i in at] for a in autos]


def _pair_orbits(n: int, autos: list[list[int]]) -> list[tuple[int, int]]:
    """The least pair ``(i, j)``, ``i <= j``, of each orbit of the group
    generated by ``autos`` on unordered vertex pairs and loops; the loops
    among them stand for the vertex orbits."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    orbits = DisjointSets(pairs)
    for a in autos:
        for i, j in pairs:
            orbits.union((i, j), (a[i], a[j]) if a[i] <= a[j] else (a[j], a[i]))
    least: dict = {}
    for p in pairs:
        least.setdefault(orbits.find(p), p)
    return list(least.values())


def _is_canonical_deletion(n: int, cells: dict[tuple[int, int], int], new: tuple[int, int]) -> bool:
    """Whether the edge just added at cell ``new`` lies in the canonical
    deletion class of the connected multigraph with these cells: its
    deletable edges of highest :func:`_deletion_rank`.  Every edge is
    deletable except a simple bridge with no degree-1 end.  The bridges are
    read off one block decomposition (``graphcore._block_edges``) of the
    cells, one edge per cell, built only when an outranking simple
    non-pendant edge asks: such an edge is a bridge exactly when it is a
    block on its own, and multiplicities do not change connectivity."""
    deg = [0] * n
    for (i, j), m in cells.items():
        deg[i] += m
        deg[j] += m
    top = _deletion_rank(deg, new, cells[new])
    bridges = None
    for cell, m in cells.items():
        rank = _deletion_rank(deg, cell, m)
        if rank <= top:
            continue
        if rank[0]:  # loops, parallel copies and pendants are always deletable
            return False
        if bridges is None:
            ends = list(cells)
            bridges = {ends[part[0]] for part in _block_edges(n, ends, range(len(ends))) if len(part) == 1}
        if cell not in bridges:
            return False
    return True


def _deletion_rank(deg: list[int], cell: tuple[int, int], m: int) -> tuple:
    """(kind, multiplicity, sorted end degrees) of an edge in ``cell``, kind
    being loop 3 > parallel copy 2 > pendant 1 > other 0; isomorphisms
    preserve it."""
    i, j = cell
    a, b = deg[i], deg[j]
    kind = 3 if i == j else 2 if m > 1 else 1 if a == 1 or b == 1 else 0
    return (kind, m, a, b) if a <= b else (kind, m, b, a)


def _is_canonical_ear(n: int, cells: dict[tuple[int, int], int], u: int, v: int, length: int) -> bool:
    """Whether the ear of ``length`` edges just added between ``u`` and
    ``v`` lies in the canonical deletion class of the inseparable candidate
    with these cells: its removable ears of highest :func:`_ear_rank`.  On
    a simple candidate an outranking ear costs one block decomposition
    (``graphcore._block_edges``) of the cells off its path: it is removable
    exactly when they form one block, its inner vertices, left without
    edges, dropping out."""
    deg = [0] * n
    for (i, j), m in cells.items():
        deg[i] += m
        deg[j] += m
    top = _ear_rank(deg, cells, u, v, length)
    parallel = [cell for cell, m in cells.items() if m > 1]
    if parallel:
        # parallel copies are always removable and outrank every other ear
        return top[0] and all(_ear_rank(deg, cells, i, j, 1) <= top for i, j in parallel)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in cells:
        adj[i].append(j)
        adj[j].append(i)
    for a, inner, b in _ears(deg, adj):
        if _ear_rank(deg, cells, a, b, len(inner) + 1) > top:
            path = [a, *inner, b]
            ear = {(x, y) if x < y else (y, x) for x, y in zip(path, path[1:])}
            rest = [cell for cell in cells if cell not in ear]
            if len(_block_edges(n, rest, range(len(rest)))) == 1:
                return False  # the ear is removable
    return True


def _ear_rank(deg: list[int], cells: dict[tuple[int, int], int], a: int, b: int, length: int) -> tuple:
    """(parallel copy, length, multiplicity of the ends' pair, sorted end
    degrees) of an ear between ``a`` and ``b``; isomorphisms preserve it."""
    m = cells.get((a, b) if a < b else (b, a), 0)
    x, y = deg[a], deg[b]
    return (length == 1 and m > 1, length, m) + ((x, y) if x <= y else (y, x))


def _ears(deg: list[int], adj: list[list[int]]) -> Iterator[tuple[int, list[int], int]]:
    """Each ear of a simple inseparable graph other than a circle once, as
    (end, inner vertices, end): the maximal paths whose inner vertices have
    degree 2, between vertices of degree at least 3."""
    for a, nbrs in enumerate(adj):
        if deg[a] < 3:
            continue
        for w in nbrs:
            prev, inner = a, []
            while deg[w] == 2:
                inner.append(w)
                x, y = adj[w]
                prev, w = w, y if x == prev else x
            if a < w:
                yield a, inner, w


def materialize(c: Compact) -> Graph:
    n, items = c
    edges = {}
    eid = 0
    for i, j, mult in items:
        for _ in range(mult):
            edges[f"e{eid}"] = (f"v{i}", f"v{j}")
            eid += 1
    return Graph(edges, {f"v{i}" for i in range(n)})


def _cells(c: Compact) -> dict[tuple[int, int], int]:
    return {(i, j): m for i, j, m in c[1]}


# the levels built so far by edge count: (sorted forms, automorphisms by form or None)
_CONNECTED: list[tuple[tuple[Compact, ...], dict[Compact, list[list[int]]] | None]] = [(((1, ()),), {(1, ()): []})]
_INSEPARABLE: list[tuple[tuple[Graph, ...], dict[Compact, list[list[int]]]]] = [((), {})]


def connected_multigraphs(max_edges: int) -> tuple[tuple[Compact, ...], ...]:
    """Tuple indexed by edge count: all connected multigraphs with that many
    edges (loops allowed, no isolated vertices), up to isomorphism.

    Index 0 holds the single-vertex graph.  A call grows only the levels
    past the largest one built so far.
    """
    levels = _CONNECTED[:]
    for m in range(len(levels), max_edges + 1):
        seen: dict[Compact, list[list[int]]] = {}
        forms, autos = levels[m - 1]
        for base in forms:
            n = base[0]
            cells = _cells(base)
            for i, j in _pair_orbits(n, autos[base]):
                grown = dict(cells)
                grown[(i, j)] = grown.get((i, j), 0) + 1
                if _is_canonical_deletion(n, grown, (i, j)):
                    c, found = _compact_canonical(n, grown)
                    seen.setdefault(c, found)
                if i == j:  # pendant edge to one fresh vertex
                    grown = dict(cells)
                    grown[(i, n)] = 1
                    if _is_canonical_deletion(n + 1, grown, (i, n)):
                        c, found = _compact_canonical(n + 1, grown)
                        seen.setdefault(c, found)
        levels[m - 1] = (forms, autos if m == 1 else None)  # cache_clear keeps level 0
        levels.append((tuple(sorted(seen)), seen))
    _CONNECTED[:] = levels  # one assignment: no caller sees a half-built level
    return tuple(forms for forms, _ in levels[: max(max_edges, 0) + 1])


def all_multigraphs(max_edges: int) -> Iterator[Graph]:
    """All multigraphs with 1..max_edges edges and no isolated vertices, up
    to isomorphism: connected ones plus every disjoint union."""
    levels = connected_multigraphs(max_edges)
    # per component, by edge count and then compact form: edge count, vertex
    # count and one (i, j) per edge copy
    tables = [
        (m, n, [(i, j) for i, j, mult in items for _ in range(mult)])
        for m in range(1, max_edges + 1)
        for n, items in levels[m]
    ]
    names_v = [f"v{k}" for k in range(2 * max_edges)]
    names_e = [f"e{k}" for k in range(max_edges)]

    def unions(start: int, remaining: int, ends: tuple, off: int) -> Iterator[tuple[tuple, int]]:
        for idx in range(start, len(tables)):
            m, n, pairs = tables[idx]
            if m > remaining:
                break
            here = ends + tuple((names_v[i + off], names_v[j + off]) for i, j in pairs)
            yield here, off + n
            yield from unions(idx, remaining - m, here, off + n)

    for ends, n in unions(0, max_edges, (), 0):
        yield Graph(dict(zip(names_e, ends)), names_v[:n])


def inseparable_multigraphs(max_edges: int) -> tuple[Graph, ...]:
    """All inseparable multigraphs with 1..max_edges edges up to isomorphism:
    the loop vertex, the single edge, and every 2-connected loopless
    multigraph built by open ear decomposition.

    A call grows only the levels past the largest one built so far.
    """
    levels = _INSEPARABLE[:]
    for m in range(len(levels), max_edges + 1):
        seen: dict[Compact, list[list[int]]] = {}
        if m == 1:  # the loop vertex and the single edge
            seen.update([_compact_canonical(1, {(0, 0): 1}), _compact_canonical(2, {(0, 1): 1})])
        else:  # the circle: digon, triangle, ...
            cells = {(i, i + 1): 1 for i in range(m - 1)}
            cells[(0, m - 1)] = cells.get((0, m - 1), 0) + 1
            seen.update([_compact_canonical(m, cells)])
        for p in range(2, m):
            length, fresh = m - p, m - p - 1
            for base, autos in levels[p][1].items():
                n = base[0]
                cells = _cells(base)
                for u, v in _pair_orbits(n, autos):
                    if u == v:
                        continue
                    grown = dict(cells)
                    path = [u] + [n + t for t in range(fresh)] + [v]
                    for a, b in zip(path, path[1:]):
                        aa, bb = (a, b) if a <= b else (b, a)
                        grown[(aa, bb)] = grown.get((aa, bb), 0) + 1
                    if _is_canonical_ear(n + fresh, grown, u, v, length):
                        c, found = _compact_canonical(n + fresh, grown)
                        seen.setdefault(c, found)
        levels.append((tuple(map(materialize, sorted(seen))), seen))
    _INSEPARABLE[:] = levels  # one assignment: no caller sees a half-built level
    return tuple(g for graphs, _ in levels[1 : max_edges + 1] for g in graphs)


connected_multigraphs.cache_clear = lambda: _CONNECTED.__delitem__(slice(1, None))
inseparable_multigraphs.cache_clear = lambda: _INSEPARABLE.__delitem__(slice(1, None))
