"""Walk gains as the ordered product of every step's gain.

Reference for ``gainbalance.gaingraph.walk_product`` and, through it,
``walk_gain``, ``basis_gains`` and ``is_balanced``, which multiply only the
switched chord gains of the gain graph's cached forest switching.  Here each
step contributes its edge's gain in the original gain graph, inverted on a
reversed step, and balance is read off the fundamental circles' gains without
any switching.
"""

from gainbalance.cyclespace import fundamental_circles
from gainbalance.gaingraph import BalanceResult
from gainbalance.graphcore import spanning_forest


def reference_walk_gain(gg, w):
    """The product of the step gains of ``w`` in order."""
    grp, gains = gg.group, gg.assignment.gains
    acc = grp.identity()
    for e, forward in w.steps:
        x = gains[e]
        acc = grp.op(acc, x if forward else grp.inverse(x))
    return acc


def reference_is_balanced(gg):
    """Walk every fundamental circle of the greedy spanning forest; the first
    one, by chord identifier, with a non-identity gain is the certificate.
    A switching conjugates a closed walk's gain, so this is the first chord
    whose switched gain is not the identity."""
    forest = spanning_forest(gg.graph)
    ident = gg.group.identity()
    for circle in fundamental_circles(gg.graph, forest):
        gain = reference_walk_gain(gg, circle.walk)
        if gain != ident:
            return BalanceResult(False, circle, gain)
    return BalanceResult(True)
