"""Finite multigraph core: graphs, walks, named families, blocks, reductions.

Edges carry a fixed reference orientation ``(tail, head)``; loops (tail ==
head) and parallel edges are allowed.  Vertex and edge identifiers are opaque
strings.  A walk step is the plain pair ``(edge, forward)``, where
``forward`` says whether the step crosses the edge from tail to head.  Named
constructors emit documented identifiers so that specific edges are
addressable in witnesses and tests:

* ``Wheel(n)``: hub ``w``, rim vertices ``v1..vn``; spokes ``s1..sn`` oriented
  hub -> rim; rim edges ``r1..rn`` with ``ri: vi -> v(i+1)`` cyclically.
* ``MultiK2(m)``: vertices ``u, v``; parallel edges ``e1..em`` oriented u -> v.
* ``CircleMulti(m1,..,ml)``: vertices ``v1..vl``; the class between ``vi`` and
  ``v(i+1)`` is oriented around the circle and its copies are prefixed
  ``e``, ``f``, ``g``, ``h`` (then ``m5_``, ``m6_``, ...): e.g. ``e31, f31``.
* ``DoubledCircle(n)`` (2Cn): vertices ``v1..vn``; copies ``ei``/``fi`` of the
  i-th circle edge, both oriented ``vi -> v(i+1)``.
* ``K4Opposite(m, m')``: vertices ``v1..v4``; the classes ``v1v2`` (m copies)
  and ``v3v4`` (m' copies) use the prefix scheme on ``12``/``34``; the four
  single edges are ``e13, e14, e23, e24`` oriented low -> high.
* ``K4AdjacentDoubled`` (K4''): vertices ``w, v1, v2, v3``; doubled edges
  ``e1, e1p`` and ``e2, e2p`` (both w -> v1 resp. w -> v2), spoke ``e3``
  (w -> v3), triangle ``e12 (v1->v2), e23 (v2->v3), e31 (v3->v1)``.
* ``LoopVertex``: vertex ``v`` with loop ``e``.
* ``Grid(r, c)``: r x c cells; vertices ``n{i}_{j}``, horizontal edges
  ``h{i}_{j}``, vertical edges ``v{i}_{j}``; see :func:`grid_faces`.
* ``TripartiteFan(m; m1,..,mp)``: vertices ``v, w, x1..xp``; the ``vw`` class
  (m copies, prefix scheme on ``vw``), the ``v-xi`` classes (``mi`` copies,
  prefix scheme on ``vx{i}``), single edges ``ex{i}w``.

All values are immutable after construction and every function here is pure,
so concurrent use on shared inputs is unrestricted.

Every tree path comes from one primitive, :class:`RootedForest`, a parent
table climbed from both ends.  Its in-place swap breaks the parent-before-child
order that switching reads, so switching reads only unswapped trees.

Blocks, reverse extrusion and the base match run on a compact form
(``_compact``): vertex indices and edge numbers in name order, and one
end-index pair per edge number.  A graph keeps its canonical labeling, key
and map, once computed, as it keeps its spanning tree.

Text format (one declaration per line, ``#`` comments)::

    vertex a          # optional, for isolated vertices
    edge e1 a b       # identifier, tail, head
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import GraphError, ParseError


class Graph:
    """Finite multigraph with a fixed reference orientation per edge.

    ``edges`` maps edge identifier -> (tail, head).  Do not mutate a Graph
    after construction.  Construction keeps only the edge map and the sorted
    vertex and edge lists; the adjacency and the vertex set are built on
    first use and kept, like the spanning tree.
    """

    __slots__ = ("_edges", "_vertices", "vertex_list", "edge_list", "_adj", "_canon", "_tree")

    def __init__(self, edges: Mapping[str, tuple[str, str]], vertices: Iterable[str] = ()):
        edict = dict(edges)
        verts = set(vertices)
        verts.update(itertools.chain.from_iterable(edict.values()))
        self._edges = edict
        self.vertex_list = tuple(sorted(verts))
        self.edge_list = tuple(sorted(edict))
        self._vertices = self._adj = self._canon = self._tree = None

    def _adjacency(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Each vertex's (edge id, other end) pairs, built on first use and kept."""
        adj: dict[str, list[tuple[str, str]]] = {v: [] for v in self.vertex_list}
        for eid in self.edge_list:
            t, h = self._edges[eid]
            adj[t].append((eid, h))
            if h != t:
                adj[h].append((eid, t))
        # entries were appended in edge-id order, so each tuple is sorted
        self._adj = {v: tuple(entries) for v, entries in adj.items()}
        return self._adj

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> frozenset:
        if self._vertices is None:
            self._vertices = frozenset(self.vertex_list)
        return self._vertices

    @property
    def edges(self) -> Mapping[str, tuple[str, str]]:
        return self._edges

    def ends(self, eid: str) -> tuple[str, str]:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"unknown edge {eid!r}") from None

    def is_loop(self, eid: str) -> bool:
        t, h = self.ends(eid)
        return t == h

    def other_end(self, eid: str, v: str) -> str:
        t, h = self.ends(eid)
        if v == t:
            return h
        if v == h:
            return t
        raise GraphError(f"vertex {v!r} is not an endpoint of {eid!r}")

    def incident(self, v: str) -> tuple[tuple[str, str], ...]:
        """Sorted (edge id, other endpoint) pairs; a loop appears once."""
        return (self._adj or self._adjacency())[v]

    def degree(self, v: str) -> int:
        return sum(2 if other == v else 1 for _, other in self.incident(v))

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(sorted({u for _, u in self.incident(v) if u != v}))

    def edges_between(self, u: str, v: str) -> tuple[str, ...]:
        # only a loop at u has other end u in u's pairs
        return tuple(eid for eid, other in self.incident(u) if other == v)

    def multiplicity(self, u: str, v: str) -> int:
        return len(self.edges_between(u, v))

    def loops_at(self, v: str) -> tuple[str, ...]:
        return tuple(eid for eid, other in self.incident(v) if other == v)

    def subgraph(self, edge_ids: Iterable[str], vertices: Iterable[str] = ()) -> "Graph":
        eids = set(edge_ids)
        return Graph({e: self._edges[e] for e in eids}, vertices)

    def __eq__(self, other):
        return isinstance(other, Graph) and self._edges == other._edges and self.vertex_list == other.vertex_list

    def __hash__(self):
        return hash((self.vertex_list, tuple(sorted(self._edges.items()))))

    def __repr__(self):
        return f"Graph({len(self.vertex_list)} vertices, {len(self.edge_list)} edges)"


def _components(adj: Mapping[str, Iterable[tuple[str, str]]]) -> list[frozenset]:
    """Vertex sets of the connected components of an (edge, other end)
    adjacency, ordered by least vertex."""
    seen: set[str] = set()
    out = []
    for root in sorted(adj):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            for _, u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(frozenset(comp))
    return out


def components(g: Graph) -> list[frozenset]:
    """Vertex sets of connected components, ordered by least vertex."""
    return _components(g._adj or g._adjacency())


def edge_components(g: Graph, edges: Iterable[str], vertices: Iterable[str] = ()) -> list[frozenset]:
    """Vertex sets of the connected components of the subgraph of ``g``
    formed by ``edges``, their ends and the extra ``vertices``, ordered by
    least vertex."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in vertices}
    for e in edges:
        t, h = g.ends(e)
        adj.setdefault(t, []).append((e, h))
        adj.setdefault(h, []).append((e, t))
    return _components(adj)


# -- walks ----------------------------------------------------------------


@dataclass(frozen=True)
class ClosedWalk:
    """A closed walk: start vertex plus steps returning to it.

    Each step is the plain pair ``(edge, forward)``: ``forward`` is true when
    the step crosses ``edge`` along its reference orientation.  Trivial iff
    ``steps`` is empty.
    """

    start: str
    steps: tuple[tuple[str, bool], ...] = ()

    @property
    def is_trivial(self) -> bool:
        return not self.steps

    def __len__(self):
        return len(self.steps)

    def reversed(self) -> "ClosedWalk":
        return ClosedWalk(self.start, tuple((e, not forward) for e, forward in reversed(self.steps)))


def walk_vertices(g: Graph, w: ClosedWalk) -> list[str]:
    """Vertex sequence v0..vl of the walk; validates incidence and closure."""
    if w.start not in g.vertices:
        raise GraphError(f"walk start {w.start!r} not in graph")
    seq = [w.start]
    at = w.start
    for e, forward in w.steps:
        t, h = g.ends(e)
        frm, to = (t, h) if forward else (h, t)
        if frm != at:
            raise GraphError(f"walk step {e!r} does not continue from {at!r}")
        at = to
        seq.append(at)
    if at != w.start:
        raise GraphError("walk does not return to its start vertex")
    return seq


def walk_support(w: ClosedWalk) -> frozenset:
    """Edges used an odd number of times (the mod-2 projection)."""
    odd: set[str] = set()
    for e, _ in w.steps:
        if e in odd:
            odd.remove(e)
        else:
            odd.add(e)
    return frozenset(odd)


def walk_int_vector(w: ClosedWalk) -> dict[str, int]:
    """Net signed traversal count per edge; +1 per step in reference
    orientation, -1 per reversed step."""
    vec: dict[str, int] = {}
    for e, forward in w.steps:
        vec[e] = vec.get(e, 0) + (1 if forward else -1)
    return {e: c for e, c in vec.items() if c}


# -- named graphs ----------------------------------------------------------

WHEEL = "Wheel"
MULTI_K2 = "MultiK2"
CIRCLE_MULTI = "CircleMulti"
K4_OPPOSITE = "K4Opposite"
K4_ADJACENT_DOUBLED = "K4AdjacentDoubled"
LOOP_VERTEX = "LoopVertex"
DOUBLED_CIRCLE = "DoubledCircle"
GRID = "Grid"
TRIPARTITE_FAN = "TripartiteFan"


@dataclass(frozen=True)
class NamedGraphSpec:
    """Family tag plus integer parameters, e.g. ``NamedGraphSpec(WHEEL, (4,))``.

    ``TripartiteFan`` packs its parameters as ``(m, m1, .., mp)``.
    """

    family: str
    params: tuple[int, ...] = ()

    def __str__(self):
        if not self.params:
            return self.family
        return f"{self.family}({','.join(map(str, self.params))})"


_COPY_PREFIXES = ("e", "f", "g", "h")


def _copy_name(base: str, c: int) -> str:
    if c <= len(_COPY_PREFIXES):
        return _COPY_PREFIXES[c - 1] + base
    return f"m{c}_{base}"


def _parallel_class(edges: dict, base: str, count: int, tail: str, head: str) -> None:
    for c in range(1, count + 1):
        edges[_copy_name(base, c)] = (tail, head)


def build_named(spec: NamedGraphSpec) -> Graph:
    """Construct the canonical labeled graph for a named family."""
    fam, p = spec.family, spec.params
    edges: dict[str, tuple[str, str]] = {}
    if fam == WHEEL:
        (n,) = p
        if n < 3:
            raise GraphError("Wheel requires n >= 3")
        for i in range(1, n + 1):
            edges[f"s{i}"] = ("w", f"v{i}")
            edges[f"r{i}"] = (f"v{i}", f"v{i % n + 1}")
        return Graph(edges)
    if fam == MULTI_K2:
        (m,) = p
        if m < 1:
            raise GraphError("MultiK2 requires m >= 1")
        for c in range(1, m + 1):
            edges[f"e{c}"] = ("u", "v")
        return Graph(edges)
    if fam == CIRCLE_MULTI:
        if len(p) < 1 or any(m < 1 for m in p):
            raise GraphError("CircleMulti requires l >= 1 multiplicities, each >= 1")
        l = len(p)
        for i in range(1, l + 1):
            j = i % l + 1
            if l == 1:
                _parallel_class(edges, "11", p[0], "v1", "v1")
                break
            _parallel_class(edges, f"{i}{j}", p[i - 1], f"v{i}", f"v{j}")
        return Graph(edges)
    if fam == K4_OPPOSITE:
        m, mp = p
        if m < 1 or mp < 1:
            raise GraphError("K4Opposite requires m, m' >= 1")
        _parallel_class(edges, "12", m, "v1", "v2")
        _parallel_class(edges, "34", mp, "v3", "v4")
        for (a, b) in ((1, 3), (1, 4), (2, 3), (2, 4)):
            edges[f"e{a}{b}"] = (f"v{a}", f"v{b}")
        return Graph(edges)
    if fam == K4_ADJACENT_DOUBLED:
        edges.update(
            {
                "e1": ("w", "v1"),
                "e1p": ("w", "v1"),
                "e2": ("w", "v2"),
                "e2p": ("w", "v2"),
                "e3": ("w", "v3"),
                "e12": ("v1", "v2"),
                "e23": ("v2", "v3"),
                "e31": ("v3", "v1"),
            }
        )
        return Graph(edges)
    if fam == LOOP_VERTEX:
        return Graph({"e": ("v", "v")})
    if fam == DOUBLED_CIRCLE:
        (n,) = p
        if n < 2:
            raise GraphError("DoubledCircle requires n >= 2")
        for i in range(1, n + 1):
            j = i % n + 1
            edges[f"e{i}"] = (f"v{i}", f"v{j}")
            edges[f"f{i}"] = (f"v{i}", f"v{j}")
        return Graph(edges)
    if fam == GRID:
        r, c = p
        if r < 1 or c < 1:
            raise GraphError("Grid requires r, c >= 1")
        for i in range(r + 1):
            for j in range(c + 1):
                if j < c:
                    edges[f"h{i}_{j}"] = (f"n{i}_{j}", f"n{i}_{j + 1}")
                if i < r:
                    edges[f"v{i}_{j}"] = (f"n{i}_{j}", f"n{i + 1}_{j}")
        return Graph(edges)
    if fam == TRIPARTITE_FAN:
        if len(p) < 2 or any(m < 1 for m in p):
            raise GraphError("TripartiteFan requires m and at least one mi, all >= 1")
        m, ms = p[0], p[1:]
        _parallel_class(edges, "vw", m, "v", "w")
        for i, mi in enumerate(ms, start=1):
            _parallel_class(edges, f"vx{i}", mi, "v", f"x{i}")
            edges[f"ex{i}w"] = (f"x{i}", "w")
        return Graph(edges)
    raise GraphError(f"unknown graph family {fam!r}")


def grid_faces(r: int, c: int) -> list[frozenset]:
    """Edge sets of the r*c finite cell boundaries of ``Grid(r, c)``."""
    faces = []
    for i in range(r):
        for j in range(c):
            faces.append(frozenset({f"h{i}_{j}", f"v{i}_{j + 1}", f"h{i + 1}_{j}", f"v{i}_{j}"}))
    return faces


# an ASCII number without a leading zero, as group orders are read; each
# digit after ``C<k>-`` is a multiplicity of its own
_NUMBER = "(?:0|[1-9][0-9]*)"
_SPEC_PATTERNS = (
    (re.compile(rf"^W({_NUMBER})$"), lambda m: NamedGraphSpec(WHEEL, (int(m.group(1)),))),
    (re.compile(rf"^2C({_NUMBER})$"), lambda m: NamedGraphSpec(DOUBLED_CIRCLE, (int(m.group(1)),))),
    (re.compile(r"^K4dd$"), lambda m: NamedGraphSpec(K4_ADJACENT_DOUBLED)),
    (re.compile(r"^K1loop$"), lambda m: NamedGraphSpec(LOOP_VERTEX)),
    (re.compile(rf"^mK2\(({_NUMBER})\)$"), lambda m: NamedGraphSpec(MULTI_K2, (int(m.group(1)),))),
    (re.compile(rf"^({_NUMBER})K2$"), lambda m: NamedGraphSpec(MULTI_K2, (int(m.group(1)),))),
    (
        re.compile(rf"^C({_NUMBER})\(({_NUMBER}(?:,{_NUMBER})*)\)$"),
        lambda m: NamedGraphSpec(CIRCLE_MULTI, tuple(int(x) for x in m.group(2).split(","))),
    ),
    (
        re.compile(rf"^C({_NUMBER})-([0-9]+)$"),
        lambda m: NamedGraphSpec(CIRCLE_MULTI, tuple(int(d) for d in m.group(2))),
    ),
    (
        re.compile(rf"^K4\(({_NUMBER}),({_NUMBER})\)$"),
        lambda m: NamedGraphSpec(K4_OPPOSITE, (int(m.group(1)), int(m.group(2)))),
    ),
    (
        re.compile(rf"^Grid\(({_NUMBER}),({_NUMBER})\)$"),
        lambda m: NamedGraphSpec(GRID, (int(m.group(1)), int(m.group(2)))),
    ),
    (
        re.compile(rf"^Fan\(({_NUMBER});({_NUMBER}(?:,{_NUMBER})*)\)$"),
        lambda m: NamedGraphSpec(TRIPARTITE_FAN, (int(m.group(1)),) + tuple(int(x) for x in m.group(2).split(","))),
    ),
)


def parse_graph_spec(text: str) -> NamedGraphSpec:
    """Parse CLI tags like ``W4``, ``2C4``, ``K4dd``, ``C3(3,3,2)``, ``K4(2,1)``,
    ``mK2(5)``, ``K1loop``, ``C3-332``, ``Grid(2,2)``, ``Fan(1;1,1)``."""
    s = text.strip()
    for pat, make in _SPEC_PATTERNS:
        m = pat.match(s)
        if m:
            spec = make(m)
            if spec.family == CIRCLE_MULTI and pat.pattern.startswith("^C(") and len(spec.params) != int(m.group(1)):
                raise ParseError(f"circle length mismatch in {text!r}")
            return spec
    raise ParseError(f"unknown graph tag {text!r}")


# -- text format -----------------------------------------------------------


def parse_graph_text(text: str) -> Graph:
    edges: dict[str, tuple[str, str]] = {}
    vertices: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.add(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            eid, t, h = parts[1:]
            if eid in edges:
                raise ParseError(f"duplicate edge id {eid!r}", line=lineno)
            edges[eid] = (t, h)
        else:
            raise ParseError(f"unrecognized declaration {line!r}", line=lineno)
    return Graph(edges, vertices)


def graph_to_text(g: Graph) -> str:
    lines = []
    used = {v for t, h in g.edges.values() for v in (t, h)}
    for v in g.vertex_list:
        if v not in used:
            lines.append(f"vertex {v}")
    for eid in g.edge_list:
        t, h = g.ends(eid)
        lines.append(f"edge {eid} {t} {h}")
    return "\n".join(lines) + "\n"


# -- spanning forest, blocks, suppression ----------------------------------


class DisjointSets:
    """Union-find over hashable items, with path halving."""

    __slots__ = ("_parent",)

    def __init__(self, items: Iterable):
        self._parent = {x: x for x in items}

    def find(self, x):
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of ``a`` and ``b``; False if they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[ra] = rb
        return True


class RootedForest:
    """A forest of ``g`` rooted at the least vertex of each of its components.

    ``forest`` is its edge set.  ``up``, the only table kept, maps every
    non-root vertex to its parent edge and vertex, a parent before its
    children until a :meth:`swap`, which keeps the roots.
    """

    __slots__ = ("graph", "forest", "up")

    def __init__(self, g: Graph, forest: Iterable[str]):
        forest = set(forest)
        adj: dict[str, list[tuple[str, str]]] = {v: [] for v in g.vertex_list}
        ends = g.edges
        for e in forest:
            t, h = ends[e]
            adj[t].append((e, h))
            adj[h].append((e, t))
        up: dict[str, tuple[str, str]] = {}
        for root in g.vertex_list:
            if root in up:
                continue
            queue = [root]
            for v in queue:
                for e, u in adj[v]:
                    if u not in up and u != root:
                        up[u] = (e, v)
                        queue.append(u)
        self.graph = g
        self.forest = forest
        self.up = up

    def path(self, a: str, b: str) -> list[tuple[str, bool]]:
        """Steps of the forest path from ``a`` to ``b``, found by climbing from
        both ends in turn until one side reaches a vertex that the other has
        passed: a path costs its own length.  Raises if there is none."""
        ends, up = self.graph.edges, self.up
        x, y = a, b
        head, tail = [], []  # the steps climbed from a, and from b (reversed at the end)
        from_a, from_b = {a: 0}, {b: 0}  # vertex passed -> steps taken to reach it
        while x not in from_b:
            if x in up:
                e, x = up[x]
                head.append((e, ends[e][1] == x))
                if x in from_b:
                    break
                from_a[x] = len(head)
            elif y not in up:
                raise GraphError(f"{a!r} and {b!r} lie in different forest components")
            if y in up:
                e, y = up[y]
                tail.append((e, ends[e][0] == y))
                if y in from_a:
                    return head[: from_a[y]] + tail[::-1]
                from_b[y] = len(tail)
        return head + tail[: from_b[x]][::-1]

    def swap(self, f: str, e: str) -> None:
        """Put ``e`` in the forest in place of ``f``, a forest edge on the path
        between the ends of ``e``, in place: the end of ``e`` below ``f`` hangs
        on ``e``, and the parent pointers from it up to ``f`` are reversed.  A
        swap costs the length of that path; the roots stay."""
        ends, up = self.graph.edges, self.up
        low, high = ends[e]
        crossings = [forward for step, forward in self.path(low, high) if step == f]
        if not crossings:
            raise GraphError(f"{f!r} is not on the forest path between the ends of {e!r}")
        if up.get(ends[f][not crossings[0]], (None,))[0] != f:  # the path leaves f's upper end
            low, high = high, low
        hang = (e, high)  # the new parent pointer of ``low``
        while hang[0] != f:
            hang, up[low], low = (up[low][0], low), hang, up[low][1]
        self.forest ^= {f, e}


def spanning_forest(g: Graph) -> frozenset:
    """Maximal forest picked greedily in edge-identifier order."""
    sets, ends = DisjointSets(g.vertex_list), g.edges
    return frozenset(e for e in g.edge_list if sets.union(*ends[e]))


def spanning_tree(g: Graph) -> RootedForest:
    """``RootedForest(g, spanning_forest(g))``, built on first use and kept
    with ``g``.  The graph keeps the tree's fields rather than the tree, which
    refers back to it, so that no graph sits in a reference cycle and each
    is freed as soon as it is dropped.  Its fields are shared, so nothing
    swaps it."""
    if g._tree is None:
        tree = RootedForest(g, spanning_forest(g))
        g._tree = (tree.forest, tree.up)
        return tree
    tree = RootedForest.__new__(RootedForest)
    tree.graph = g
    tree.forest, tree.up = g._tree
    return tree


def _compact(g: Graph) -> list[tuple[int, int]]:
    """The end-index pair of each edge number of ``g``: its compact form."""
    index = {v: i for i, v in enumerate(g.vertex_list)}
    return [(index[t], index[h]) for t, h in map(g.edges.__getitem__, g.edge_list)]


def _block_edges(n: int, ends: Sequence[tuple[int, int]], edges: Sequence[int]) -> list[list[int]]:
    """The edge numbers of each block of the compact graph on vertex indices
    below ``n`` with ``edges``: loops in (vertex, edge) order, then blocks as
    the Hopcroft-Tarjan DFS closes them, roots and incidence in index order."""
    inc = [[] for _ in range(n)]
    for e in edges:
        t, h = ends[e]
        if t != h:
            inc[t].append((e, h))
            inc[h].append((e, t))
    out = [[e] for _, e in sorted((ends[e][0], e) for e in edges if ends[e][0] == ends[e][1])]
    disc, low, stack, order = [-1] * n, [0] * n, [], itertools.count()
    for root in range(n):
        if disc[root] >= 0 or not inc[root]:
            continue
        disc[root] = low[root] = next(order)
        frames = [(root, -1, iter(inc[root]), 0)]  # vertex, entering edge, incidence, stack height below that edge
        while frames:
            v, fe, it, _ = frames[-1]
            for e, u in it:
                if disc[u] < 0:
                    frames.append((u, e, iter(inc[u]), len(stack)))
                    stack.append(e)
                    disc[u] = low[u] = next(order)
                    break
                if disc[u] < disc[v] and e != fe:
                    stack.append(e)
                    low[v] = min(low[v], disc[u])
            else:
                height = frames.pop()[3]
                if frames:
                    pv = frames[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] >= disc[pv]:
                        out.append(stack[height:])
                        del stack[height:]
    return out


def _block_graph(g: Graph, part: Sequence[int]) -> Graph:
    """The block of ``g`` with edge numbers ``part``, as ``blocks`` gives it."""
    if len(part) == len(g.edge_list) and len(set(itertools.chain.from_iterable(g.edges.values()))) == len(g.vertex_list):
        return g
    return g.subgraph(g.edge_list[e] for e in part)


def blocks(g: Graph) -> list[Graph]:
    """Maximal inseparable subgraphs; every edge lies in exactly one block,
    isolated vertices are dropped.  Loops form single-edge blocks.  An
    inseparable ``g`` without isolated vertices is its own block and comes
    back as ``g`` itself, not a copy."""
    return [_block_graph(g, part) for part in _block_edges(len(g.vertex_list), _compact(g), range(len(g.edge_list)))]


def suppress_divalent(g: Graph) -> Graph:
    """Repeatedly replace a degree-2 vertex whose two incident edges are
    distinct non-loops by a single edge joining its neighbors.  Parallel edges
    or loops may arise; parallel edges are never merged.  Homeomorphic to the
    input and idempotent."""
    edges, vertices = dict(g.edges), set(g.vertex_list)
    while True:
        adj: dict[str, list[tuple[str, str]]] = {v: [] for v in vertices}
        for eid, (t, h) in edges.items():
            adj[t].append((eid, h))
            if h != t:
                adj[h].append((eid, t))
        v = next((x for x in sorted(vertices) if len(adj[x]) == 2 and x not in (adj[x][0][1], adj[x][1][1])), None)
        if v is None:
            return Graph(edges, vertices)
        (e1, a), (e2, b) = sorted(adj[v])
        del edges[e1], edges[e2]
        edges[f"{e1}~{e2}"] = (a, b)
        vertices.discard(v)


# -- isomorphism and canonical forms ----------------------------------------
#
# A connected graph's key is the least edge-multiset encoding over the leaves
# of a search tree that refines the vertex coloring until it is equitable and
# branches on each vertex of the first non-singleton cell.  Leaves with equal
# encodings differ by an automorphism, which is kept.  A branch that the kept
# automorphisms fixing every vertex individualized above it map onto an
# explored sibling is skipped (orbit pruning, McKay & Piperno, "Practical
# graph isomorphism II", 2014): its subtree repeats the sibling's encodings
# later in search order, so key and vertex map are those of the unpruned search.


def _canonical_connected(n: int, mult: list[list[int]]) -> tuple[tuple, list[int], list[list[int]]]:
    """Minimal edge-multiset encoding over admissible labelings, the
    permutation achieving it (position of each original index), and the
    automorphisms found on the way (image of each original index)."""
    nbrs = [[(j, mult[i][j]) for j in range(n) if j != i and mult[i][j]] for i in range(n)]
    edges = [(i, j, mult[i][j]) for i in range(n) for j in range(i, n) if mult[i][j]]

    def refine(colors: list[int]) -> list[int]:
        # dense ranks of (color, loops, neighbor colors) until the cells
        # stop splitting, which leaves them equitable
        cells = len(set(colors))
        while True:
            sig = [(colors[i], mult[i][i], tuple(sorted([(colors[j], m) for j, m in nbrs[i]]))) for i in range(n)]
            ordered = sorted(set(sig))
            rank = {s: r for r, s in enumerate(ordered)}
            colors = [rank[s] for s in sig]
            if len(ordered) == cells:
                return colors
            cells = len(ordered)

    def encode(pos: list[int]) -> tuple:
        return tuple(sorted([(pos[i], pos[j], m) if pos[i] <= pos[j] else (pos[j], pos[i], m) for i, j, m in edges]))

    best: list = [None, None]
    autos: list[list[int]] = []

    def search(colors: list[int], fixed: list[int]) -> None:
        # refined colors are dense ranks, so at a leaf they are the positions
        colors = refine(colors)
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            key = encode(colors)
            if best[0] is None or key < best[0]:
                best[0] = key
                best[1] = colors
            elif key == best[0]:
                at = {p: i for i, p in enumerate(best[1])}
                autos.append([at[p] for p in colors])
            return
        orbits = DisjointSets(range(n))
        merged = 0
        explored: list[int] = []
        for i in target:
            for a in autos[merged:]:
                if all(a[v] == v for v in fixed):
                    for v in range(n):
                        orbits.union(v, a[v])
            merged = len(autos)
            if any(orbits.find(i) == orbits.find(u) for u in explored):
                continue
            explored.append(i)
            forced = [c * 2 + 1 for c in colors]
            forced[i] -= 1
            search(forced, fixed + [i])

    search([0] * n, [])
    return best[0], best[1], autos


def _multiplicities(g: Graph) -> list[list[int]]:
    """The edge count between each pair of vertex indices in name order,
    both ways round, with the loops at a vertex on the diagonal."""
    idx = {v: i for i, v in enumerate(g.vertex_list)}
    mult = [[0] * len(idx) for _ in idx]
    for t, h in g.edges.values():
        i, j = idx[t], idx[h]
        mult[i][j] += 1
        if i != j:
            mult[j][i] += 1
    return mult


def canonical_labeling(g: Graph) -> tuple[tuple, dict[str, int]]:
    """Canonical key of the unlabeled shape plus one vertex -> position map
    realizing it.  Equal keys imply isomorphism and vice versa.  Components
    are searched with orbit pruning, which leaves key and map as the unpruned
    search gives them.  The pair is computed on first use and kept with
    ``g``, like its spanning tree, so it must not be mutated."""
    if g._canon is not None:
        return g._canon
    comps = components(g)
    if len(comps) <= 1:
        verts = g.vertex_list
        key, pos, _ = _canonical_connected(len(verts), _multiplicities(g))
        g._canon = (len(verts), key), dict(zip(verts, pos))
        return g._canon
    # canonicalize each component, order components by key, offset positions
    pieces = []
    for comp in comps:
        sub = g.subgraph([e for e in g.edge_list if g.ends(e)[0] in comp], comp)
        pieces.append((canonical_labeling(sub), comp))
    pieces.sort(key=lambda p: p[0][0])
    vmap: dict[str, int] = {}
    offset = 0
    keys = []
    for (key, sub_map), comp in pieces:
        keys.append(key)
        for v, p in sub_map.items():
            vmap[v] = p + offset
        offset += len(comp)
    g._canon = ("disconnected", tuple(keys)), vmap
    return g._canon


def canonical_key(g: Graph) -> tuple:
    return (g._canon or canonical_labeling(g))[0]


def _degree_invariants(g: Graph) -> tuple[int, list[int]]:
    """The edge count and the sorted degrees: equal on isomorphic graphs and
    far cheaper than a canonical labeling."""
    adj = g._adj or g._adjacency()
    return len(g.edge_list), sorted(sum(2 if u == v else 1 for _, u in adj[v]) for v in g.vertex_list)


def isomorphism(g: Graph, h: Graph) -> Optional[dict[str, str]]:
    """A vertex bijection g -> h realizing an isomorphism, read off the
    canonical labelings whatever the size, or None."""
    if _degree_invariants(g) != _degree_invariants(h):
        return None
    kg, mg = canonical_labeling(g)
    kh, mh = canonical_labeling(h)
    if kg != kh:
        return None
    inv_h = {p: v for v, p in mh.items()}
    return {v: inv_h[p] for v, p in mg.items()}


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether ``g`` and ``h`` are isomorphic.  Past the degree check, graphs
    on at most four vertices, as every base family is, are decided by trying
    the at most 24 vertex bijections on their multiplicity tables, and larger
    ones by their canonical keys."""
    if _degree_invariants(g) != _degree_invariants(h):
        return False
    n = len(g.vertex_list)
    if n > 4:
        return canonical_key(g) == canonical_key(h)
    a, b = _multiplicities(g), _multiplicities(h)
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    want = [b[i][j] for i, j in cells]
    return any([a[p[i]][p[j]] for i, j in cells] == want for p in itertools.permutations(range(n)))


def edge_bijection(g: Graph, h: Graph, vmap: Mapping[str, str]) -> dict[str, tuple[str, bool]]:
    """Extend a vertex isomorphism to edges: eid of g -> (eid of h, flipped).

    Within a parallel class, edges are matched in sorted-identifier order.
    ``flipped`` records whether the reference orientations disagree.
    """
    emap: dict[str, tuple[str, bool]] = {}
    used: set[str] = set()
    adj = h._adj or h._adjacency()
    for eid in g.edge_list:
        t, h_end = g.ends(eid)
        u, v = vmap[t], vmap[h_end]
        candidates = [e for e, w in adj[u] if w == v and e not in used]
        if not candidates:
            raise GraphError("vertex map is not an isomorphism (multiplicity mismatch)")
        target = candidates[0]
        used.add(target)
        emap[eid] = (target, h.ends(target) != (u, v))
    if len(used) != len(h.edge_list):
        raise GraphError("vertex map is not an isomorphism (edge count mismatch)")
    return emap
