"""Command-line frontend.

Subcommands::

    balance <graph> <gains>                     decide balance
    circle-test <graph> <gains> <basis>         evaluate the circle test
    cycle-test <graph> <gains> <basis>          evaluate the binary cycle test
    classify <graph> --class <spec> --test circle|cycle
    witness --family <tag> [--order k]          emit a verified bad witness
    minor <graph> --target <tag|file:path>      minor containment + witness
    oracle <graph> --group <spec>               exhaustive goodness check
    atlas --max-edges N --group <spec>          survey all inseparable graphs

Graph arguments accept named tags (``W4``, ``2C4``, ``K4dd``, ``C3(3,3,2)``,
``K4(2,1)``, ``mK2(5)``, ``K1loop``, ...) wherever file paths are accepted.
Exit codes: 0 completed (verdicts live in the report), 2 input error,
3 budget exceeded.

The classifier is imported only by the subcommands that use it (classify,
witness, atlas), and the oracle with its array kernel only by oracle and
atlas.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .balancetests import basis_gains, circle_orientation
from .cyclespace import parse_basis_text, read_basis_text
from .enumeration import inseparable_multigraphs
from .errors import BudgetError, GraphError, ParseError
from .gaingraph import is_balanced, parse_gain_text
from .graphcore import Graph, build_named, parse_graph_spec, parse_graph_text
from .groups import parse_class_spec, parse_group_spec
from .minors import has_minor


def _load_graph(arg: str) -> Graph:
    if arg.startswith("file:"):
        return parse_graph_text(Path(arg[5:]).read_text())
    if arg == "P2P2":
        from .minors import doubled_path_target

        return doubled_path_target()[0]
    try:
        return build_named(parse_graph_spec(arg))
    except ParseError:
        pass
    path = Path(arg)
    if path.exists():
        return parse_graph_text(path.read_text())
    raise ParseError(f"{arg!r} is neither a known graph tag nor a file")


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_balance(args) -> int:
    g = _load_graph(args.graph)
    gg = parse_gain_text(Path(args.gains).read_text(), g)
    res = is_balanced(gg)
    report = {"balanced": res.balanced}
    lines = [f"balanced: {res.balanced}"]
    if not res.balanced:
        gain = gg.group.format_element(res.certificate_gain)
        report["certificate"] = {"circle": sorted(res.certificate.support), "gain": gain}
        lines.append(f"unbalanced circle: {' '.join(sorted(res.certificate.support))} (gain {gain})")
    _emit(report, args.json, lines)
    return 0


def _cmd_basis_test(args) -> int:
    g = _load_graph(args.graph)
    gg = parse_gain_text(Path(args.gains).read_text(), g)
    text = Path(args.basis).read_text()
    circle = args.command == "circle-test"
    # the circle test walks each member's canonical circle walk; a walk line is still checked
    ob = circle_orientation(g, [s for s, _ in read_basis_text(text, g)]) if circle else parse_basis_text(text, g)
    gains = basis_gains(gg, ob)
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
    _emit(report, args.json, lines)
    return 0


def _cmd_classify(args) -> int:
    from . import classify as cls

    g = _load_graph(args.graph)
    c = parse_class_spec(args.group_class)
    if args.test == "circle":
        verdict = cls.circle_goodness(g, c)
    else:
        verdict = cls.binary_cycle_goodness(g, c)
    report = verdict.to_json()
    lines = [f"status: {verdict.status}", f"rule: {verdict.rule}"]
    if isinstance(verdict.evidence, cls.BadWitness):
        lines.append(f"witness group: {verdict.evidence.gain_graph.group}")
    _emit(report, args.json, lines)
    return 0


def _cmd_witness(args) -> int:
    from . import classify as cls

    spec = parse_graph_spec(args.family)
    w = cls.bad_witness(spec, args.order)
    report = w.to_json()
    lines = [
        f"family: {spec}",
        f"test: {w.test}",
        f"group: {w.gain_graph.group}",
        "gains: " + ", ".join(f"{e}={x}" for e, x in report["gains"].items()),
        f"verified: {w.verify()}",
    ]
    _emit(report, args.json, lines)
    return 0


def _cmd_minor(args) -> int:
    g = _load_graph(args.graph)
    target = _load_graph(args.target)
    witness = has_minor(g, target)
    report: dict = {"present": witness is not None}
    lines = [f"minor present: {witness is not None}"]
    if witness is not None:
        report["witness"] = witness.to_json()
        lines.append("branch sets: " + "; ".join(f"{t} -> {{{', '.join(sorted(vs))}}}" for t, vs in sorted(witness.branch_sets.items())))
    _emit(report, args.json, lines)
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle

    g = _load_graph(args.graph)
    grp = parse_group_spec(args.group)
    budget = oracle.ORACLE_BUDGET if args.budget is None else args.budget
    good, witness = oracle.oracle_circle_goodness(g, grp, budget=budget)
    report: dict = {"good": good, "group": str(grp)}
    lines = [f"good for {grp}: {good}"]
    if witness is not None:
        report["counterexample"] = witness.to_json()
        lines.append("counterexample basis: " + "; ".join(" ".join(sorted(c)) for c in witness.basis.cycles))
    _emit(report, args.json, lines)
    return 0


def _cmd_atlas(args) -> int:
    from . import classify as cls, oracle

    grp = parse_group_spec(args.group)
    c = parse_class_spec(f"groups:{args.group}")
    budget = oracle.ORACLE_BUDGET if args.budget is None else args.budget
    # past the bound the run could only end at its first graph with too many
    # edges, after enumerating every smaller one
    oracle.check_oracle_edges(args.max_edges)
    rows = []
    for g in inseparable_multigraphs(args.max_edges):
        verdict = cls.circle_goodness(g, c)
        good, _ = oracle.oracle_circle_goodness(g, grp, budget=budget)
        row = {
            "vertices": len(g.vertex_list),
            "edges": sorted(g.edge_list),
            "edge_count": len(g.edge_list),
            "classifier": verdict.status,
            "oracle_good": good,
            "agree": (verdict.status != "Good" or good) and (verdict.status != "Bad" or not good),
        }
        rows.append(row)
    report = {"group": str(grp), "max_edges": args.max_edges, "graphs": rows}
    lines = [f"atlas over {grp}, {len(rows)} inseparable graphs up to {args.max_edges} edges"]
    for row in rows:
        lines.append(
            f"  n={row['vertices']} m={row['edge_count']} classifier={row['classifier']}"
            f" oracle_good={row['oracle_good']} agree={row['agree']}"
        )
    _emit(report, args.json, lines)
    return 0


def _count(text: str) -> int:
    """An argparse type: a nonnegative integer, such as an edge bound or a
    budget."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gainbalance", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("balance", help="decide balance of a gain graph")
    p.add_argument("graph")
    p.add_argument("gains")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("circle-test", help="evaluate the circle test on a basis")
    p.add_argument("graph")
    p.add_argument("gains")
    p.add_argument("basis")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_basis_test)

    p = sub.add_parser("cycle-test", help="evaluate the binary cycle test on an oriented basis")
    p.add_argument("graph")
    p.add_argument("gains")
    p.add_argument("basis")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_basis_test)

    p = sub.add_parser("classify", help="good/bad verdict per group class")
    p.add_argument("graph")
    p.add_argument("--class", dest="group_class", required=True)
    p.add_argument("--test", choices=("circle", "cycle"), default="circle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("witness", help="emit a verified bad witness for a named family")
    p.add_argument("--family", required=True)
    p.add_argument("--order", type=int, default=None, help="cyclic order for the loop-vertex family")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("minor", help="minor containment with branch-set witness")
    p.add_argument("graph")
    p.add_argument("--target", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("oracle", help="exhaustive circle-test goodness for one finite group")
    p.add_argument("graph")
    p.add_argument("--group", required=True)
    p.add_argument("--budget", type=_count, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("atlas", help="survey all inseparable multigraphs up to an edge bound")
    p.add_argument("--max-edges", type=_count, required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--budget", type=_count, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_atlas)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, GraphError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
