"""The binary cycle and circle tests with every member's walk built and
multiplied.

Reference for ``gainbalance.balancetests`` (``cycle_gains``,
``circle_gains``, ``basis_gains``) and the ``cycle-test`` and
``circle-test`` commands, which build a member's natural orientation or
canonical circle walk only when its support meets a chord of non-identity
switched gain, and give every other member the identity.  Here every member
is oriented first, by ``parse_basis_text`` or ``circle_orientation``, and
every walk is multiplied by ``walk_product``.
"""

import sys

from gainbalance import cli
from gainbalance.balancetests import circle_orientation
from gainbalance.cyclespace import _spans_by_chords, parse_basis_text, read_basis_text
from gainbalance.errors import GraphError, ParseError
from gainbalance.gaingraph import is_balanced, parse_gain_text, walk_product


def reference_basis_gains(gg, ob):
    """The gain of every walk of ``ob``, once its cycles are checked to be a
    basis of ``gg``'s graph in chord coordinates."""
    if ob.host.edges != gg.graph.edges:
        raise GraphError("oriented basis belongs to a different graph")
    if not _spans_by_chords(ob.cycles, gg.graph):
        raise GraphError("oriented cycles do not form a basis")
    return [walk_product(gg, w) for w in ob.walks]


def _reference_basis_test(args) -> int:
    g = cli._load_graph(args.graph)
    gg = parse_gain_text(cli._read(args.gains), g)
    text = cli._read(args.basis)
    circle = args.command == "circle-test"
    ob = circle_orientation(g, [s for s, _ in read_basis_text(text, g)]) if circle else parse_basis_text(text, g)
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
