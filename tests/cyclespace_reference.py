"""Canonical circle walks by one adjacency of (edge, other end, direction)
entries.

Reference for ``gainbalance.cyclespace._circle_walk``, which walks by edge
identifiers alone and builds the steps once the walk has closed.  Here each
support edge is looked up through ``Graph.ends`` and each step is built as
the walk reaches it.
"""

from gainbalance.graphcore import ClosedWalk, DirectedEdge


def reference_circle_walk(g, support):
    """The canonical walk of ``support`` when it is a circle (a single loop,
    or connected and 2-regular), else None."""
    adj = {}
    for e in support:
        t, h = g.ends(e)
        if t == h:
            return ClosedWalk(t, (DirectedEdge(e, True),)) if len(support) == 1 else None
        adj.setdefault(t, []).append((e, h, True))
        adj.setdefault(h, []).append((e, t, False))
    if not adj or any(len(pairs) != 2 for pairs in adj.values()):
        return None
    # leaving the least vertex by its lesser edge gives the lexicographically
    # least edge sequence: the other direction starts with the greater edge
    start = min(adj)
    e, at, forward = min(adj[start])
    steps = [DirectedEdge(e, forward)]
    while at != start:
        first, second = adj[at]
        e, at, forward = second if first[0] == e else first
        steps.append(DirectedEdge(e, forward))
    # on a 2-regular support the walk closes after one component, so the
    # support is connected exactly when the walk uses all of it
    return ClosedWalk(start, tuple(steps)) if len(steps) == len(support) else None
