"""Reverse extrusion by exhaustive search over every reduction order.

Reference for ``gainbalance.minors.reverse_extrusion_reduce``: reverse steps
are tried in ``_reverse_moves`` order at every level, with memoization on
canonical keys.  When ``accept`` is given, the first reachable irreducible
graph it accepts is returned, else the irreducible end of the first-move path.
"""

from gainbalance.errors import GraphError
from gainbalance.graphcore import canonical_key
from gainbalance.minors import _reverse_moves, contract


def reference_reverse_extrusion_reduce(g, accept=None):
    if any(g.is_loop(e) for e in g.edge_list):
        raise GraphError("reverse extrusion operates on loopless graphs")
    memo = {}

    def run(h):
        """Returns (accepted result or None, fallback result)."""
        key = canonical_key(h)
        if key in memo:
            return memo[key]
        moves = _reverse_moves(h)
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
