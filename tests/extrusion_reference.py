"""Reverse extrusion by whole-graph rescans, for reference.

``first_move_reverse_extrusion_reduce`` is the reduction loop as first
written: list every reverse step of the graph with ``reverse_moves``, take
the first, contract its edge with ``contract`` and start again.  It is
quadratic in the length of the reduction, and
``gainbalance.minors.reverse_extrusion_reduce`` must give the same steps and
the same end graph.

``reference_reverse_extrusion_reduce`` searches every reduction order: steps
are tried in ``reverse_moves`` order at every level, with memoization on
canonical keys.  When ``accept`` is given, the first reachable irreducible
graph it accepts is returned, else the irreducible end of the first-move
path.
"""

from gainbalance.errors import GraphError
from gainbalance.graphcore import canonical_key
from gainbalance.minors import ReverseStep, contract


def reverse_moves(g):
    """Every reverse step of ``g``: by vertex name, then kept neighbour name."""
    moves = []
    for y in g.vertex_list:
        nbrs = g.neighbors(y)
        if len(nbrs) != 2 or g.loops_at(y):
            continue
        for kept, other in ((nbrs[0], nbrs[1]), (nbrs[1], nbrs[0])):
            e = g.edges_between(y, kept)
            if len(e) == 1:
                moves.append(ReverseStep(y, kept, other, e[0], g.edges_between(y, other)))
    return moves


def first_move_reverse_extrusion_reduce(g):
    if any(g.is_loop(e) for e in g.edge_list):
        raise GraphError("reverse extrusion operates on loopless graphs")
    steps = []
    while moves := reverse_moves(g):
        g, _ = contract(g, {moves[0].edge})
        steps.append(moves[0])
    return g, tuple(steps)


def reference_reverse_extrusion_reduce(g, accept=None):
    if any(g.is_loop(e) for e in g.edge_list):
        raise GraphError("reverse extrusion operates on loopless graphs")
    memo = {}

    def run(h):
        """Returns (accepted result or None, fallback result)."""
        key = canonical_key(h)
        if key in memo:
            return memo[key]
        moves = reverse_moves(h)
        if not moves:
            hit = (h, ()) if accept is None or accept(h) else None
            memo[key] = (hit, (h, ()))
            return memo[key]
        accepted = None
        fallback = None
        for mv in moves:
            reduced, _ = contract(h, {mv.edge})
            sub_acc, sub_fall = run(reduced)
            if fallback is None:
                fallback = (sub_fall[0], (mv,) + sub_fall[1])
            if sub_acc is not None:
                accepted = (sub_acc[0], (mv,) + sub_acc[1])
                break
        memo[key] = (accepted, fallback)
        return memo[key]

    accepted, fallback = run(g)
    return accepted if accepted is not None else fallback
