"""GF(2) cycle-space algebra: binary cycles, circles, bases, orientations.

A binary cycle is an edge set meeting every vertex in even degree; a circle
is the edge set of a nontrivial simple closed walk.  A basis is an ordered
sequence of members, and a member is the frozenset of its edge identifiers:
functions here take any iterable of edge ids per member and freeze it once,
and a caller holding circles passes their supports.  All GF(2) linear
algebra pivots in edge-identifier order so results are deterministic.

A 2-regular support is a circle exactly when its canonical walk uses every
edge, so no separate connectivity search is made.  Fundamental circles and the
links between the components of a cyclic orientation follow the paths of
:class:`graphcore.RootedForest`; the links use the graph's one spanning tree
(:func:`graphcore.spanning_tree`), so orienting a basis builds it at most
once.

Basis text format: one line per member listing its edge identifiers; an
optional following ``walk:`` line attaches a cyclic orientation as signed
edge identifiers (``walk: e3 -e7 e3``, one leading ``-`` reversing a step);
a trivial walk is ``walk: @ v``.
A member line is checked against the host's edges with one set comparison;
only a line that fails it is scanned for its first unknown identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetError, GraphError, ParseError
from .graphcore import (
    ClosedWalk,
    DirectedEdge,
    DisjointSets,
    Graph,
    RootedForest,
    components,
    edge_components,
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
    return len(g.edge_list) - len(g.vertex_list) + len(components(g))


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


def _circle_walk(g: Graph, support: frozenset) -> Optional[ClosedWalk]:
    """The canonical walk of ``support`` when it is a circle (a single loop,
    or connected and 2-regular), else None."""
    ends = g.edges
    adj: dict[str, list[str]] = {}
    for e in support:
        try:
            t, h = ends[e]
        except KeyError:
            raise GraphError(f"unknown edge {e!r}") from None
        if t == h:
            return ClosedWalk(t, (DirectedEdge(e, True),)) if len(support) == 1 else None
        adj.setdefault(t, []).append(e)
        adj.setdefault(h, []).append(e)
    if set(map(len, adj.values())) != {2}:
        return None
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
    # on a 2-regular support the walk closes after one component, so the
    # support is connected exactly when the walk uses all of it
    if len(steps) != len(support):
        return None
    # tuple.__new__ makes each step without the named tuple's Python-level constructor
    return ClosedWalk(start, tuple([tuple.__new__(DirectedEdge, s) for s in steps]))


def circle_from_support(g: Graph, edges: Iterable[str]) -> Circle:
    """Build a circle with its canonical walk; raises if the support is not
    connected and 2-regular."""
    support = frozenset(edges)
    walk = _circle_walk(g, support)
    if walk is None:
        raise GraphError(f"{sorted(support)} is not a circle")
    return Circle(support, walk)


# -- GF(2) helpers -----------------------------------------------------------


def _edge_index(g: Graph) -> dict[str, int]:
    return {e: i for i, e in enumerate(g.edge_list)}

def _mask(support: Iterable[str], index: dict[str, int]) -> int:
    m = 0
    for e in support:
        m |= 1 << index[e]
    return m


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


def is_cycle_basis(members: Iterable[Iterable[str]], g: Graph) -> bool:
    """True iff every member is a binary cycle (a loop meets its vertex twice)
    and the members are independent and span Z1(g; GF(2))."""
    vertex_bit = {v: 1 << i for i, v in enumerate(g.vertex_list)}
    bits = {e: (1 << i, vertex_bit[t] ^ vertex_bit[h]) for i, (e, (t, h)) in enumerate(g.edges.items())}
    masks, even = [], True
    for m in members:
        mask = odd = 0
        for e in frozenset(m):
            try:
                edge_bit, ends_bits = bits[e]
            except KeyError:
                raise GraphError("basis member uses edges outside the host graph") from None
            mask |= edge_bit
            odd ^= ends_bits
        masks.append(mask)
        even = even and not odd
    dim = cycle_space_dimension(g)
    return even and len(masks) == dim and gf2_rank(masks) == dim


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
    return circle_from_support(g, {chord, *(step.edge for step in tree.path(h, t))})


def _check_forest(g: Graph, forest: frozenset) -> None:
    for e in forest:
        g.ends(e)
        if g.is_loop(e):
            raise GraphError("forest contains a loop")
    sets = DisjointSets(g.vertex_list)
    for e in sorted(forest):
        if not sets.union(*g.ends(e)):
            raise GraphError("forest contains a cycle")
    if len(forest) != len(g.vertex_list) - len(components(g)):
        raise GraphError("forest is not maximal")


# -- circle enumeration -------------------------------------------------------


def _dfs_circles(g: Graph, max_length: int) -> list[Circle]:
    """The circles of g with at most ``max_length`` edges, each once with its
    canonical walk, by DFS over simple paths from each circle's least vertex.

    A circle of two or more edges is met as two paths, one per direction; the
    one whose first edge is less than its closing edge leaves the least vertex
    by its lesser edge, which is the canonical walk, and is the one kept.
    """
    found = [Circle(frozenset({e}), ClosedWalk(g.ends(e)[0], (DirectedEdge(e, True),)))
             for e in g.edge_list if g.is_loop(e)]
    order = {v: i for i, v in enumerate(g.vertex_list)}

    def dfs(root: str, at: str, steps: list[DirectedEdge], visited: set[str]) -> None:
        for eid, u in g.incident(at):
            if u == at:
                continue
            if u == root and steps and eid > steps[0].edge:
                walk = ClosedWalk(root, (*steps, DirectedEdge(eid, g.ends(eid)[0] == at)))
                found.append(Circle(frozenset(s.edge for s in walk.steps), walk))
                continue
            if order[u] <= order[root] or u in visited or len(steps) + 2 > max_length:
                continue
            visited.add(u)
            steps.append(DirectedEdge(eid, g.ends(eid)[0] == at))
            dfs(root, u, steps, visited)
            steps.pop()
            visited.discard(u)

    for root in g.vertex_list:
        dfs(root, root, [], set())
    return found


def _canonical_order(support: frozenset) -> tuple:
    return len(support), tuple(sorted(support))


def enumerate_circles(g: Graph) -> list[Circle]:
    """All circles of g, each once, sorted canonically.

    DFS over simple paths from each circle's least vertex, closing back to it
    in the canonical direction; the edge bound ``CIRCLE_ENUMERATION_MAX_EDGES``
    keeps the search at desk scale.
    """
    if len(g.edge_list) > CIRCLE_ENUMERATION_MAX_EDGES:
        raise BudgetError(f"circle enumeration bound exceeded ({len(g.edge_list)} > {CIRCLE_ENUMERATION_MAX_EDGES})")
    circles = _dfs_circles(g, len(g.edge_list))
    circles.sort(key=lambda c: _canonical_order(c.support))
    return circles


def least_circle(g: Graph) -> Optional[frozenset]:
    """The support of ``enumerate_circles(g)[0]`` without listing every circle,
    or None on a forest.

    The girth is the least, over all edges, of one plus the length of the
    shortest path between the edge's ends that avoids the edge (one BFS per
    edge); the DFS then looks only for circles of that length.
    """
    girth = None
    for e in g.edge_list:
        t, h = g.ends(e)
        depth, frontier, seen = 0, {t}, {t}
        while h not in frontier and frontier and (girth is None or depth + 1 < girth):
            depth += 1
            frontier = {u for v in frontier for f, u in g.incident(v) if f != e and u not in seen}
            seen |= frontier
        if h in frontier:
            girth = depth + 1
    if girth is None:
        return None
    return min((c.support for c in _dfs_circles(g, girth)), key=_canonical_order)


# -- cyclic orientations ------------------------------------------------------


def _euler_walk(g: Graph, support: frozenset, start: str) -> list[DirectedEdge]:
    """Closed Euler walk on a connected even-degree support, Hierholzer with
    least-identifier-first edge choice."""
    remaining: dict[str, list[str]] = {}
    for e in sorted(support):
        t, h = g.ends(e)
        remaining.setdefault(t, []).append(e)
        if h != t:
            remaining.setdefault(h, []).append(e)
    used: set[str] = set()
    # edges only ever become used, so each vertex's least unused edge moves
    # forward through its sorted list: one cursor per vertex keeps the walk
    # linear in the support
    cursor: dict[str, int] = {}

    def pick(v: str) -> Optional[str]:
        edges = remaining.get(v, ())
        k = cursor.get(v, 0)
        while k < len(edges) and edges[k] in used:
            k += 1
        cursor[v] = k
        return edges[k] if k < len(edges) else None

    def tour(v0: str) -> list[DirectedEdge]:
        walk = []
        at = v0
        while True:
            e = pick(at)
            if e is None:
                break
            used.add(e)
            t, h = g.ends(e)
            walk.append(DirectedEdge(e, at == t))
            at = h if at == t else t
        return walk

    walk = tour(start)
    # splice in detours at vertices with unused edges
    i = 0
    at = start
    while i <= len(walk):
        if pick(at) is not None:
            detour = tour(at)
            walk[i:i] = detour
            continue
        if i == len(walk):
            break
        step = walk[i]
        t, h = g.ends(step.edge)
        at = h if step.forward else t
        i += 1
    return walk


def cyclic_orientations(b: Iterable[str], g: Graph, budget: int = 4) -> list[ClosedWalk]:
    """Closed walks projecting to the binary cycle ``b``: the canonical one
    first (per-component Euler walks linked by out-and-back paths of the
    graph's spanning tree), then alternate direction choices, up to
    ``budget`` walks."""
    support = frozenset(b)
    if not support:
        return [ClosedWalk(g.vertex_list[0] if g.vertex_list else "", ())]
    comp_sets = [
        (min(vs), frozenset(e for e in support if g.ends(e)[0] in vs)) for vs in edge_components(g, support)
    ]
    base = comp_sets[0][0]
    # one component needs no link, so only a split member reads the tree
    links = [[]] if len(comp_sets) == 1 else [spanning_tree(g).path(base, anchor) for anchor, _ in comp_sets]
    euler = [(go, _euler_walk(g, comp, anchor)) for go, (anchor, comp) in zip(links, comp_sets)]

    out = []
    n = len(euler)
    for flips in range(min(budget, 1 << n)):
        steps: list[DirectedEdge] = []
        for i, (go, tour) in enumerate(euler):
            part = list(tour)
            if (flips >> i) & 1:
                part = [s.reversed() for s in reversed(part)]
            steps.extend(go)
            steps.extend(part)
            steps.extend(s.reversed() for s in reversed(go))
        out.append(ClosedWalk(base, tuple(steps)))
    return out


def natural_orientation(b: Iterable[str], g: Graph) -> ClosedWalk:
    """Canonical walk for a circle member, else the canonical linked Euler
    walk; a member that is not a binary cycle raises."""
    support = frozenset(b)
    walk = _circle_walk(g, support)
    if walk is not None:
        return walk
    return cyclic_orientations(binary_cycle(g, support), g, budget=1)[0]


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
    None; a given walk that does not project to its member raises GraphError."""
    members: list[frozenset] = []
    walks: list[Optional[ClosedWalk]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("walk:"):
            if not members:
                raise ParseError("walk line before any basis member", line=lineno)
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
                steps.append(DirectedEdge(eid, fwd))
            if not steps:
                raise ParseError("empty walk line", line=lineno)
            first = steps[0]
            t, h = g.ends(first.edge)
            walks[-1] = ClosedWalk(t if first.forward else h, tuple(steps))
        else:
            eids = line.split()
            support = frozenset(eids)
            if not support <= g.edges.keys():
                unknown = next(eid for eid in eids if eid not in g.edges)
                raise ParseError(f"unknown edge {unknown!r}", line=lineno)
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
            lines.append("walk: " + " ".join(("" if s.forward else "-") + s.edge for s in walk.steps))
    return "\n".join(lines) + "\n"
