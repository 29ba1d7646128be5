"""GF(2) cycle-space algebra: binary cycles, circles, bases, orientations.

A binary cycle is an edge set meeting every vertex in even degree; a circle
is the edge set of a nontrivial simple closed walk.  A basis is an ordered
sequence of members, and a member is the frozenset of its edge identifiers:
functions here take any iterable of edge ids per member and freeze it once,
and a caller holding circles passes their supports.  A binary cycle is fixed
by its chords of the graph's spanning tree, so its GF(2) coordinates are its
chord mask (``_chord_masks``), and all GF(2) linear algebra runs on chord
masks, pivoting in edge-identifier order so results are deterministic.

A 2-regular support is a circle exactly when its canonical walk uses every
edge, so no separate connectivity search is made.  Fundamental circles and the
links between the components of a natural orientation follow the paths of
:class:`graphcore.RootedForest`; the links use the graph's one spanning tree
(:func:`graphcore.spanning_tree`), so orienting a basis builds it at most
once.

Basis text format: one line per member listing its edge identifiers; an
optional following ``walk:`` line attaches a cyclic orientation as signed
edge identifiers (``walk: e3 -e7 e3``, one leading ``-`` reversing a step);
a trivial walk is ``walk: @ v``.
A member line is checked against the host's edges with one set comparison;
only a line that fails it is scanned for its first unknown identifier.  A
member takes at most one ``walk:`` line.

Circle enumeration is one iterative DFS on vertex indices and 1-based signed
edge numbers (``_circle_walks``), with the path's vertices as an int bitmask
and the canonical-direction test as an integer comparison; a first edge that
no closing edge can exceed is not tried.  ``enumerate_circles`` and
``least_circle`` build their ``Circle``s from its walks, and the oracle reads
the walks themselves.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetError, GraphError, ParseError
from .graphcore import (
    ClosedWalk,
    DisjointSets,
    Graph,
    RootedForest,
    spanning_forest,
    spanning_tree,
    walk_support,
    walk_vertices,
)

CIRCLE_ENUMERATION_MAX_EDGES = 24  # most host edges enumerate_circles takes


@dataclass(frozen=True)
class Circle:
    """A circle: connected 2-regular support plus its canonical simple walk
    (least start vertex, lexicographically least edge sequence)."""

    support: frozenset
    walk: ClosedWalk

    def __len__(self):
        return len(self.support)


@dataclass(frozen=True)
class OrientedBasis:
    """Basis members paired with cyclic orientations (closed walks whose
    mod-2 edge counts reproduce the member)."""

    pairs: tuple  # of (frozenset of edge ids, ClosedWalk)
    host: Graph

    @property
    def cycles(self) -> tuple:
        return tuple(c for c, _ in self.pairs)

    @property
    def walks(self) -> tuple:
        return tuple(w for _, w in self.pairs)


def cycle_space_dimension(g: Graph) -> int:
    return len(g.edge_list) - len(spanning_forest(g))


def binary_cycle(g: Graph, edges: Iterable[str]) -> frozenset:
    """The edge set, checked to have even degree at every vertex."""
    support = frozenset(edges)
    deg: dict[str, int] = {}
    for e in support:
        t, h = g.ends(e)
        if t == h:
            continue
        deg[t] = deg.get(t, 0) + 1
        deg[h] = deg.get(h, 0) + 1
    odd = [v for v, d in deg.items() if d % 2]
    if odd:
        raise GraphError(f"support has odd degree at {sorted(odd)}")
    return support


def _circle_adjacency(g: Graph, support: frozenset) -> Optional[dict[str, list[str]]]:
    """The edges of ``support`` at each of its vertices, a loop listed twice
    at its own, when every vertex has two, else None.  A loop with two
    entries is its vertex's only edge, so a single loop is a 2-regular
    support and a loop beside other edges leaves a second component.  Every
    edge is looked up, so an edge outside g raises, naming the least one,
    whatever the order of the set."""
    ends = g.edges
    adj: dict[str, list[str]] = {}
    for e in support:
        try:
            t, h = ends[e]
        except KeyError:
            raise GraphError(f"unknown edge {min(e for e in support if e not in ends)!r}") from None
        adj.setdefault(t, []).append(e)
        adj.setdefault(h, []).append(e)
    return adj if set(map(len, adj.values())) == {2} else None


def _circle_walk(g: Graph, support: frozenset) -> Optional[ClosedWalk]:
    """The canonical walk of ``support`` when it is a circle (a single loop,
    or connected and 2-regular), else None."""
    adj = _circle_adjacency(g, support)
    if adj is None:
        return None
    ends = g.edges
    # leaving the least vertex by its lesser edge gives the lexicographically
    # least edge sequence: the other direction starts with the greater edge
    start = min(adj)
    at, e = start, min(adj[start])
    steps = []
    while True:
        t, h = ends[e]
        if t == at:
            steps.append((e, True))
            at = h
        else:
            steps.append((e, False))
            at = t
        if at == start:
            break
        first, second = adj[at]
        e = second if first == e else first
    # the walk closes after one component, as circle_support's tour does
    if len(steps) != len(support):
        return None
    return ClosedWalk(start, tuple(steps))


def circle_support(g: Graph, edges: Iterable[str]) -> frozenset:
    """The edge set, checked to be a circle as :func:`circle_from_support`
    checks it, by a tour that builds no step: on a 2-regular support the
    tour from any edge closes after one component, so the support is
    connected exactly when the tour uses all of it."""
    support = frozenset(edges)
    adj = _circle_adjacency(g, support)
    if adj is not None:
        ends = g.edges
        start = at = next(iter(adj))
        e, n = adj[at][0], 0
        while True:
            t, h = ends[e]
            at = h if t == at else t
            n += 1
            if at == start:
                break
            first, second = adj[at]
            e = second if first == e else first
        if n == len(support):
            return support
    raise GraphError(f"{sorted(support)} is not a circle")


def circle_from_support(g: Graph, edges: Iterable[str]) -> Circle:
    """Build a circle with its canonical walk; raises if the support is not
    connected and 2-regular."""
    support = frozenset(edges)
    walk = _circle_walk(g, support)
    if walk is None:
        raise GraphError(f"{sorted(support)} is not a circle")
    return Circle(support, walk)


# -- GF(2) helpers -----------------------------------------------------------


def _gf2_insert(lead: dict[int, int], m: int) -> bool:
    """Reduce ``m`` by the rows of ``lead`` (keyed by leading bit); keep the
    remainder as a new row and return True when it is nonzero."""
    while m:
        h = m.bit_length() - 1
        if h not in lead:
            lead[h] = m
            return True
        m ^= lead[h]
    return False


def gf2_rank(masks: Iterable[int]) -> int:
    lead: dict[int, int] = {}
    return sum(_gf2_insert(lead, m) for m in masks)


def gf2_extract_basis(items: Sequence[tuple[int, object]], dim: int) -> Optional[list]:
    """Greedily pick items whose masks are independent until ``dim`` are
    found; returns the picked payloads or None if the masks do not span."""
    lead: dict[int, int] = {}
    picked = []
    for m, payload in items:
        if _gf2_insert(lead, m):
            picked.append(payload)
        if len(picked) == dim:
            return picked
    return None


def _chord_masks(g: Graph, members: Iterable[Iterable[str]]) -> tuple[int, list[int]]:
    """The number of chords of ``spanning_tree(g)`` and each member's chords
    as a bitmask, the i-th chord in edge order at bit i.  A binary cycle is
    fixed by its chords, so on binary cycles the masks are their GF(2)
    coordinates.  A member with an edge outside g raises."""
    forest = spanning_tree(g).forest
    chords = [e for e in g.edge_list if e not in forest]
    bits = dict.fromkeys(forest, 0)
    bits.update((e, 1 << i) for i, e in enumerate(chords))
    masks = []
    for m in members:
        mask = 0
        for e in m:
            try:
                mask |= bits[e]
            except KeyError:
                raise GraphError("basis member uses edges outside the host graph") from None
        masks.append(mask)
    return len(chords), masks


def _spans_by_chords(members: Iterable[Iterable[str]], g: Graph) -> bool:
    """True iff binary cycles ``members`` form a basis of Z1(g; GF(2)): they
    are as many as the chords and their chord masks are independent.  Every
    mask is built first, so a member with an edge outside g raises."""
    dim, masks = _chord_masks(g, members)
    return len(masks) == dim and gf2_rank(masks) == dim


def is_cycle_basis(members: Iterable[Iterable[str]], g: Graph) -> bool:
    """True iff every member is a binary cycle (a loop meets its vertex twice)
    and the members are independent and span Z1(g; GF(2))."""
    members = [frozenset(m) for m in members]
    vertex_bit = {v: 1 << i for i, v in enumerate(g.vertex_list)}
    ends_bits = {e: vertex_bit[t] ^ vertex_bit[h] for e, (t, h) in g.edges.items()}
    odd = (functools.reduce(operator.xor, map(ends_bits.__getitem__, m), 0) for m in members)
    return _spans_by_chords(members, g) and not any(odd)


# -- fundamental systems ------------------------------------------------------


def fundamental_circles(g: Graph, forest: frozenset) -> tuple[Circle, ...]:
    """One circle per non-forest edge: the unique circle in forest + e."""
    _check_forest(g, forest)
    tree = RootedForest(g, forest)
    return tuple(fundamental_circle(tree, e) for e in g.edge_list if e not in forest)


def fundamental_circle(tree: RootedForest, chord: str) -> Circle:
    """The unique circle in the forest of ``tree`` plus ``chord``."""
    g = tree.graph
    t, h = g.ends(chord)
    return circle_from_support(g, {chord, *(e for e, _ in tree.path(h, t))})


def _check_forest(g: Graph, forest: frozenset) -> None:
    for e in forest:
        g.ends(e)
        if g.is_loop(e):
            raise GraphError("forest contains a loop")
    sets = DisjointSets(g.vertex_list)
    for e in sorted(forest):
        if not sets.union(*g.ends(e)):
            raise GraphError("forest contains a cycle")
    if len(forest) != len(spanning_forest(g)):
        raise GraphError("forest is not maximal")


# -- circle enumeration -------------------------------------------------------


def _circle_walks(g: Graph, max_length: int) -> list[tuple[int, ...]]:
    """The circles of g with at most ``max_length`` edges, each once as its
    canonical walk, in canonical order: by length, then by sorted edges.

    A walk here is a tuple of signed edge numbers: step ``k`` crosses
    ``g.edge_list[k - 1]`` forward (tail to head), ``-k`` backward, and the
    walk starts where its first step does.  A loop is its one forward step.

    Longer circles come from one iterative DFS over simple paths from each
    circle's least vertex, on vertex indices, with the path's vertices as a
    bitmask.  Such a circle is met as two paths, one per direction; the one
    whose first edge is less than its closing edge leaves the least vertex by
    its lesser edge, which is the canonical walk, and is the one kept.
    ``edge_list`` is sorted, so that test compares edge numbers.  The closing
    edge joins the root to a higher vertex, so a first edge at or above the
    root's greatest such edge closes nothing and is not tried.  No recursive
    closure holds the tables, so they are freed as soon as the call returns,
    without the cycle collector.
    """
    index = {v: i for i, v in enumerate(g.vertex_list)}
    # each vertex's (signed step, other end) pairs in edge order, loops left out
    adj: list[list[tuple[int, int]]] = [[] for _ in g.vertex_list]
    walks = []
    for k, e in enumerate(g.edge_list, 1):
        t, h = g.edges[e]
        t, h = index[t], index[h]
        if t == h:
            walks.append((k,))
        else:
            adj[t].append((k, h))
            adj[h].append((-k, t))
    # a circle with a root, its least vertex, has two or more edges
    for root in range(len(adj) if max_length > 1 else 0):
        out = [(k, u) for k, u in adj[root] if u > root]
        top = abs(out[-1][0]) if out else 0
        for first, u in out:
            least = abs(first)
            if least >= top:
                break
            path, at, visited = [first], [u], 1 << u
            frames = [iter(adj[u])]
            while frames:
                for k, v in frames[-1]:
                    if v == root:
                        if abs(k) > least:
                            walks.append((*path, k))
                    elif v > root and not visited >> v & 1 and len(path) + 2 <= max_length:
                        path.append(k)
                        at.append(v)
                        visited |= 1 << v
                        frames.append(iter(adj[v]))
                        break
                else:
                    frames.pop()
                    path.pop()
                    visited ^= 1 << at.pop()
    walks.sort(key=_walk_order)
    return walks


def _walk_order(walk: tuple[int, ...]) -> tuple:
    return len(walk), sorted(map(abs, walk))


def _walk_circles(g: Graph, walks: Iterable[tuple[int, ...]]) -> list[Circle]:
    """The ``Circle`` of each walk of ``_circle_walks``."""
    steps = {}
    for k, e in enumerate(g.edge_list, 1):
        steps[k], steps[-k] = (e, True), (e, False)
    circles = []
    for walk in walks:
        path = tuple(map(steps.__getitem__, walk))
        edge, forward = path[0]
        start = g.edges[edge][0 if forward else 1]
        circles.append(Circle(frozenset(e for e, _ in path), ClosedWalk(start, path)))
    return circles


def enumerate_circles(g: Graph) -> list[Circle]:
    """All circles of g, each once, sorted canonically: by length, then by
    sorted edge identifiers.

    ``_circle_walks`` finds them as integer walks, each built into a
    ``Circle`` once; the edge bound ``CIRCLE_ENUMERATION_MAX_EDGES`` keeps
    the search at desk scale.
    """
    if len(g.edge_list) > CIRCLE_ENUMERATION_MAX_EDGES:
        raise BudgetError(f"circle enumeration bound exceeded ({len(g.edge_list)} > {CIRCLE_ENUMERATION_MAX_EDGES})")
    return _walk_circles(g, _circle_walks(g, len(g.edge_list)))


def least_circle(g: Graph) -> Optional[frozenset]:
    """The support of ``enumerate_circles(g)[0]`` without listing every circle,
    or None on a forest.

    The girth is the least, over all edges, of one plus the length of the
    shortest path between the edge's ends that avoids the edge (one BFS per
    edge); the DFS then looks only for circles of that length.
    """
    girth, adj = None, g._adj or g._adjacency()
    for e in g.edge_list:
        t, h = g.ends(e)
        depth, frontier, seen = 0, {t}, {t}
        while h not in frontier and frontier and (girth is None or depth + 1 < girth):
            depth += 1
            frontier = {u for v in frontier for f, u in adj[v] if f != e and u not in seen}
            seen |= frontier
        if h in frontier:
            girth = depth + 1
    if girth is None:
        return None
    return frozenset(g.edge_list[abs(k) - 1] for k in _circle_walks(g, girth)[0])


# -- natural orientations ----------------------------------------------------


def _euler_tours(g: Graph, support: frozenset) -> list[tuple[str, list[tuple[str, bool]]]]:
    """A closed Euler walk of each component of an even-degree support, from
    its least vertex, in the order of those vertices: Hierholzer with
    least-identifier-first edge choice on one sorted adjacency of the whole
    support.  A tour uses up its component, so the least vertex still holding
    an unused edge starts the next one."""
    ends = g.edges
    remaining: dict[str, list[str]] = {}
    for e in sorted(support):
        t, h = ends[e]
        remaining.setdefault(t, []).append(e)
        if h != t:
            remaining.setdefault(h, []).append(e)
    used: set[str] = set()
    # edges only ever become used, so each vertex's least unused edge moves
    # forward through its sorted list: one cursor per vertex keeps the tours
    # linear in the support
    cursor = dict.fromkeys(remaining, 0)

    def pick(v: str) -> Optional[str]:
        edges = remaining[v]
        k = cursor[v]
        while k < len(edges) and edges[k] in used:
            k += 1
        cursor[v] = k
        return edges[k] if k < len(edges) else None

    def tour(at: str) -> list[tuple[str, bool]]:
        walk = []
        while (e := pick(at)) is not None:
            used.add(e)
            t, h = ends[e]
            walk.append((e, at == t))
            at = h if at == t else t
        return walk

    tours = []
    for start in sorted(remaining):
        if pick(start) is None:
            continue
        walk = tour(start)
        # splice in detours at vertices with unused edges
        i, at = 0, start
        while i <= len(walk):
            if pick(at) is not None:
                walk[i:i] = tour(at)
                continue
            if i == len(walk):
                break
            e, forward = walk[i]
            at = ends[e][forward]
            i += 1
        tours.append((start, walk))
    return tours


def natural_orientation(b: Iterable[str], g: Graph) -> ClosedWalk:
    """The canonical walk of a circle member; else the Euler tours of
    :func:`_euler_tours`, each but the first reached from the first tour's
    start by an out-and-back path of the graph's spanning tree.  The empty
    member is the trivial walk at the least vertex; a member that is not a
    binary cycle raises."""
    support = frozenset(b)
    walk = _circle_walk(g, support)
    if walk is not None:
        return walk
    tours = _euler_tours(g, binary_cycle(g, support))
    if not tours:
        return ClosedWalk(g.vertex_list[0] if g.vertex_list else "", ())
    base = tours[0][0]
    if len(tours) == 1:
        return ClosedWalk(base, tuple(tours[0][1]))
    # one component needs no link, so only a split member reads the tree
    tree = spanning_tree(g)
    steps: list[tuple[str, bool]] = []
    for anchor, part in tours:
        go = tree.path(base, anchor)
        steps += go
        steps += part
        steps += ((e, not forward) for e, forward in reversed(go))
    return ClosedWalk(base, tuple(steps))


def _checked_walk(g: Graph, i: int, support: frozenset, w: ClosedWalk) -> ClosedWalk:
    """``w``, checked to be a closed walk of g projecting to member ``i``."""
    if walk_support(w) != support:
        raise GraphError(f"walk {i} does not project to its cycle")
    walk_vertices(g, w)
    return w


def oriented_basis(g: Graph, members: Iterable[Iterable[str]]) -> OrientedBasis:
    """Pair each member with its natural orientation (a member not a binary
    cycle raises)."""
    supports = map(frozenset, members)
    return OrientedBasis(tuple((s, natural_orientation(s, g)) for s in supports), g)


# -- theta sums, improper edges, digons --------------------------------------


def theta_sum(c1: Circle, c2: Circle, g: Graph) -> Optional[Circle]:
    """The circle c1 + c2 when the union is a theta graph, else None."""
    union = c1.support | c2.support
    deg: dict[str, int] = {}
    for e in union:
        t, h = g.ends(e)
        if t == h:
            return None
        deg[t] = deg.get(t, 0) + 1
        deg[h] = deg.get(h, 0) + 1
    if sorted(deg.values(), reverse=True)[:2] != [3, 3]:
        return None
    if any(d not in (2, 3) for d in deg.values()):
        return None
    # the union is connected: a degree-3 vertex lies on both circles
    summed = c1.support ^ c2.support
    walk = _circle_walk(g, summed)
    return None if walk is None else Circle(summed, walk)


def improper_edges(members: Iterable[Iterable[str]]) -> frozenset:
    """Edges lying in exactly one member of the basis."""
    counts: dict[str, int] = {}
    for m in members:
        for e in frozenset(m):
            counts[e] = counts.get(e, 0) + 1
    return frozenset(e for e, c in counts.items() if c == 1)


def digon_condition(members: Iterable[Iterable[str]], d: Circle) -> bool:
    """True iff the basis neither contains the digon nor two members summing
    to it."""
    if len(d.support) != 2:
        raise GraphError("digon condition requires a 2-edge circle")
    supports = [frozenset(m) for m in members]
    if d.support in supports:
        return False
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] ^ supports[j] == d.support:
                return False
    return True


# -- basis text format --------------------------------------------------------


def read_basis_text(text: str, g: Graph) -> list[tuple[frozenset, Optional[ClosedWalk]]]:
    """Each member of a basis file with the walk its ``walk:`` line gives, or
    None; a member line that names an edge twice or a second ``walk:`` line
    for one member raises ParseError, and a given walk that does not project
    to its member raises GraphError."""
    members: list[frozenset] = []
    walks: list[Optional[ClosedWalk]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("walk:"):
            if not members:
                raise ParseError("walk line before any basis member", line=lineno)
            if walks[-1] is not None:
                raise ParseError("second walk line for one basis member", line=lineno)
            tokens = line[len("walk:"):].split()
            if tokens and tokens[0] == "@":
                if len(tokens) != 2:
                    raise ParseError("trivial walk syntax is 'walk: @ <vertex>'", line=lineno)
                walks[-1] = ClosedWalk(tokens[1], ())
                continue
            steps = []
            for tok in tokens:
                eid = tok.removeprefix("-")  # one sign only: "--e" names an edge "-e"
                fwd = eid == tok
                if eid not in g.edges:
                    raise ParseError(f"unknown edge {eid!r} in walk", line=lineno)
                steps.append((eid, fwd))
            if not steps:
                raise ParseError("empty walk line", line=lineno)
            first, forward = steps[0]
            t, h = g.ends(first)
            walks[-1] = ClosedWalk(t if forward else h, tuple(steps))
        else:
            eids = line.split()
            support = frozenset(eids)
            if not support <= g.edges.keys():
                unknown = next(eid for eid in eids if eid not in g.edges)
                raise ParseError(f"unknown edge {unknown!r}", line=lineno)
            if len(support) != len(eids):
                twice = next(eid for i, eid in enumerate(eids) if eid in eids[:i])
                raise ParseError(f"edge {twice!r} named twice in one basis member", line=lineno)
            members.append(support)
            walks.append(None)
    return [(s, w if w is None else _checked_walk(g, i, s, w)) for i, (s, w) in enumerate(zip(members, walks))]


def parse_basis_text(text: str, g: Graph) -> OrientedBasis:
    """A basis file's members, naturally oriented where no walk line is given."""
    try:
        pairs = read_basis_text(text, g)
        return OrientedBasis(tuple((s, natural_orientation(s, g) if w is None else w) for s, w in pairs), g)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def basis_to_text(ob: OrientedBasis) -> str:
    lines = []
    for cycle, walk in ob.pairs:
        lines.append(" ".join(sorted(cycle)))
        if walk.is_trivial:
            lines.append(f"walk: @ {walk.start}")
        else:
            lines.append("walk: " + " ".join(("" if forward else "-") + e for e, forward in walk.steps))
    return "\n".join(lines) + "\n"
