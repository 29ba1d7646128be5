"""The binary cycle and circle tests with every member's walk built and
multiplied.

Reference for ``gainbalance.balancetests`` (``cycle_gains``,
``circle_gains``, ``basis_gains``) and the ``cycle-test`` and
``circle-test`` commands, which build a member's natural orientation or
canonical circle walk only when its support meets a chord of non-identity
switched gain, and give every other member the identity.  Here every member
is oriented first, by ``parse_basis_text`` or ``circle_from_support``, and
every walk is multiplied by ``walk_product``.  The basis is checked in edge
coordinates by an elimination of its own, not in the library's chord
coordinates.
"""

import sys

from gainbalance import cli
from gainbalance.cyclespace import (
    OrientedBasis,
    circle_from_support,
    cycle_space_dimension,
    parse_basis_text,
    read_basis_text,
)
from gainbalance.errors import GraphError, ParseError
from gainbalance.gaingraph import is_balanced, parse_gain_text, walk_product


def reference_spans(members, g):
    """True iff binary cycles ``members`` form a basis of Z1(g; GF(2)): as many
    as the cycle-space dimension and independent, each member's edge mask
    reduced by the rows kept before it, one per leading bit.  A member with
    an edge outside g raises, whatever the count."""
    bit = {e: 1 << i for i, e in enumerate(g.edge_list)}
    masks = []
    for m in members:
        if not set(m) <= bit.keys():
            raise GraphError("basis member uses edges outside the host graph")
        masks.append(sum(map(bit.__getitem__, m)))
    rows = {}  # leading bit -> row
    for m in masks:
        while m and m.bit_length() in rows:
            m ^= rows[m.bit_length()]
        if not m:
            return False
        rows[m.bit_length()] = m
    return len(rows) == cycle_space_dimension(g)


def reference_basis_gains(gg, ob):
    """The gain of every walk of ``ob``, once its cycles are checked to be a
    basis of ``gg``'s graph in edge coordinates."""
    if ob.host.edges != gg.graph.edges:
        raise GraphError("oriented basis belongs to a different graph")
    if not reference_spans(ob.cycles, gg.graph):
        raise GraphError("oriented cycles do not form a basis")
    return [walk_product(gg, w) for w in ob.walks]


def _reference_basis_test(args) -> int:
    g = cli._load_graph(args.graph)
    gg = parse_gain_text(cli._read(args.gains), g)
    text = cli._read(args.basis)
    circle = args.command == "circle-test"
    if circle:
        circles = [circle_from_support(g, s) for s, _ in read_basis_text(text, g)]
        ob = OrientedBasis(tuple((c.support, c.walk) for c in circles), g)
    else:
        ob = parse_basis_text(text, g)
    gains = reference_basis_gains(gg, ob)
    passes = all(x == gg.group.identity() for x in gains)
    balanced = is_balanced(gg).balanced
    report = {
        "passes": passes,
        "balanced": balanced,
        "members": [{"support": sorted(c), "gain": gg.group.format_element(x)} for c, x in zip(ob.cycles, gains)],
    }
    test, oriented = ("circle test", "basis") if circle else ("binary cycle test", "basis orientation")
    lines = [f"{test}: {'pass' if passes else 'fail'}", f"balanced: {balanced}"]
    if passes and not balanced:
        lines.append(f"note: {oriented} is balanced but the gain graph is not (test invalid here)")
    cli._emit(report, args.json, lines)
    return 0


def reference_run(argv) -> int:
    """``cli.run`` on a ``cycle-test`` or ``circle-test`` command line, with
    every member walked."""
    args = cli.build_parser().parse_args(argv)
    assert args.command in ("cycle-test", "circle-test"), argv
    try:
        return _reference_basis_test(args)
    except (ParseError, GraphError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
