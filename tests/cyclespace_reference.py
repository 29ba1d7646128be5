"""Canonical circle walks by one adjacency of (edge, other end, direction)
entries, and natural orientations member by member.

Reference for ``gainbalance.cyclespace._circle_walk``, which walks by edge
identifiers alone and builds the steps once the walk has closed.  Here each
support edge is looked up through ``Graph.ends`` and each step is built as
the walk reaches it.

Reference for ``cyclic_orientations`` and ``natural_orientation``, which
link the components of a member along the graph's one spanning tree, built
once per graph and only for a member of more than one component.  Here
every member builds that tree afresh.

Reference for ``gainbalance.cyclespace._euler_walk``, which keeps one cursor
per vertex into its sorted edge list.  Here each edge choice rescans the
list from its start.

Reference for ``gainbalance.cyclespace._circle_walks``, the iterative DFS on
vertex indices and signed edge numbers.  ``reference_dfs_circles`` recurses
over vertex and edge names, builds each circle's ``Circle`` as it closes and
tries every first edge.

``is_circle_basis`` checks a basis of circles member by member.  No library
code needs it, so it lives with the tests that do.
"""

from gainbalance.cyclespace import Circle, _circle_walk, binary_cycle, is_cycle_basis
from gainbalance.graphcore import ClosedWalk, RootedForest, edge_components, spanning_forest


def reference_circle_walk(g, support):
    """The canonical walk of ``support`` when it is a circle (a single loop,
    or connected and 2-regular), else None."""
    adj = {}
    for e in support:
        t, h = g.ends(e)
        if t == h:
            return ClosedWalk(t, ((e, True),)) if len(support) == 1 else None
        adj.setdefault(t, []).append((e, h, True))
        adj.setdefault(h, []).append((e, t, False))
    if not adj or any(len(pairs) != 2 for pairs in adj.values()):
        return None
    # leaving the least vertex by its lesser edge gives the lexicographically
    # least edge sequence: the other direction starts with the greater edge
    start = min(adj)
    e, at, forward = min(adj[start])
    steps = [(e, forward)]
    while at != start:
        first, second = adj[at]
        e, at, forward = second if first[0] == e else first
        steps.append((e, forward))
    # on a 2-regular support the walk closes after one component, so the
    # support is connected exactly when the walk uses all of it
    return ClosedWalk(start, tuple(steps)) if len(steps) == len(support) else None


def reference_dfs_circles(g, max_length):
    """The circles of g with at most ``max_length`` edges, each once with its
    canonical walk, by DFS over simple paths from each circle's least vertex.

    A circle of two or more edges is met as two paths, one per direction; the
    one whose first edge is less than its closing edge leaves the least vertex
    by its lesser edge, which is the canonical walk, and is the one kept.
    """
    found = [Circle(frozenset({e}), ClosedWalk(g.ends(e)[0], ((e, True),)))
             for e in g.edge_list if g.is_loop(e)]
    order = {v: i for i, v in enumerate(g.vertex_list)}

    def dfs(root, at, steps, visited):
        for eid, u in g.incident(at):
            if u == at:
                continue
            if u == root and steps and eid > steps[0][0]:
                walk = ClosedWalk(root, (*steps, (eid, g.ends(eid)[0] == at)))
                found.append(Circle(frozenset(e for e, _ in walk.steps), walk))
                continue
            if order[u] <= order[root] or u in visited or len(steps) + 2 > max_length:
                continue
            visited.add(u)
            steps.append((eid, g.ends(eid)[0] == at))
            dfs(root, u, steps, visited)
            steps.pop()
            visited.discard(u)

    for root in g.vertex_list:
        dfs(root, root, [], set())
    return found


def reference_canonical_order(circle):
    """The canonical circle order: by length, then by sorted edge ids."""
    return len(circle.support), sorted(circle.support)


def reference_euler_walk(g, support, start):
    """Closed Euler walk on a connected even-degree support, Hierholzer with
    least-identifier-first edge choice."""
    remaining = {}
    for e in sorted(support):
        t, h = g.ends(e)
        remaining.setdefault(t, []).append(e)
        if h != t:
            remaining.setdefault(h, []).append(e)
    used = set()

    def pick(v):
        for e in remaining.get(v, []):
            if e not in used:
                return e
        return None

    def tour(v0):
        walk = []
        at = v0
        while True:
            e = pick(at)
            if e is None:
                break
            used.add(e)
            t, h = g.ends(e)
            walk.append((e, at == t))
            at = h if at == t else t
        return walk

    walk = tour(start)
    # splice in detours at vertices with unused edges
    i = 0
    at = start
    while i <= len(walk):
        if pick(at) is not None:
            walk[i:i] = tour(at)
            continue
        if i == len(walk):
            break
        e, forward = walk[i]
        t, h = g.ends(e)
        at = h if forward else t
        i += 1
    return walk


def reference_cyclic_orientations(b, g, budget=4):
    """Closed walks projecting to the binary cycle ``b``: per-component Euler
    walks linked by out-and-back paths of a spanning tree built for this
    member, then alternate direction choices, up to ``budget`` walks."""
    support = frozenset(b)
    if not support:
        return [ClosedWalk(g.vertex_list[0] if g.vertex_list else "", ())]
    comp_sets = [
        (min(vs), frozenset(e for e in support if g.ends(e)[0] in vs)) for vs in edge_components(g, support)
    ]
    tree = RootedForest(g, spanning_forest(g))
    base = comp_sets[0][0]
    euler = [(tree.path(base, anchor), reference_euler_walk(g, comp, anchor)) for anchor, comp in comp_sets]
    out = []
    for flips in range(min(budget, 1 << len(euler))):
        steps = []
        for i, (go, tour) in enumerate(euler):
            part = list(tour)
            if (flips >> i) & 1:
                part = [(e, not forward) for e, forward in reversed(part)]
            steps.extend(go)
            steps.extend(part)
            steps.extend((e, not forward) for e, forward in reversed(go))
        out.append(ClosedWalk(base, tuple(steps)))
    return out


def reference_natural_orientation(b, g):
    """The canonical walk of a circle member, else the first linked Euler
    walk; a member that is not a binary cycle raises."""
    support = frozenset(b)
    walk = reference_circle_walk(g, support)
    if walk is not None:
        return walk
    return reference_cyclic_orientations(binary_cycle(g, support), g, budget=1)[0]


def is_circle_basis(members, g):
    """True iff all members are circles and they form a cycle basis."""
    supports = [frozenset(m) for m in members]
    if any(_circle_walk(g, s) is None for s in supports):
        return False
    return is_cycle_basis(supports, g)
