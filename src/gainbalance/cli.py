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

A ``--json`` report is byte-identical to ``json.dumps(report, indent=2,
sort_keys=True)``, written without ``json``'s pure-Python encoder.

The classifier is imported only by the subcommands that use it (classify,
witness, atlas), and the oracle with its array kernel only by oracle and
atlas.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path
from typing import Optional

from .balancetests import circle_gains, cycle_gains
from .cyclespace import read_basis_text
from .enumeration import inseparable_multigraphs
from .errors import BudgetError, GraphError, ParseError
from .gaingraph import is_balanced, parse_gain_text
from .graphcore import Graph, build_named, parse_graph_spec, parse_graph_text
from .groups import parse_class_spec, parse_group_spec
from .minors import has_minor


def _read(path: str | Path) -> str:
    """The text of an input file; a file that cannot be read or decoded is
    an input error that names it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None


def _load_graph(arg: str) -> Graph:
    if arg.startswith("file:"):
        return parse_graph_text(_read(arg[5:]))
    if arg == "P2P2":
        from .minors import doubled_path_target

        return doubled_path_target()[0]
    try:
        return build_named(parse_graph_spec(arg))
    except ParseError:
        pass
    path = Path(arg)
    if path.exists():
        return parse_graph_text(_read(path))
    raise ParseError(f"{arg!r} is neither a known graph tag nor a file")


def _to_json(x, indent: str = "\n") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` for dicts with string keys,
    lists and scalars; ``indent`` would make ``json`` use its Python encoder."""
    if not isinstance(x, (dict, list, tuple)):
        return _encode(x) if isinstance(x, str) else json.dumps(x)
    inner = indent + "  "
    if isinstance(x, dict):
        items = [f"{_encode(k)}: {_encode(v) if type(v) is str else _to_json(v, inner)}" for k, v in sorted(x.items())]
    else:
        items = [_encode(v) if type(v) is str else _to_json(v, inner) for v in x]
    brackets = "{}" if isinstance(x, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1] if items else brackets


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(_to_json(report))
    else:
        for line in lines:
            print(line)


def _cmd_balance(args) -> int:
    g = _load_graph(args.graph)
    gg = parse_gain_text(_read(args.gains), g)
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
    gg = parse_gain_text(_read(args.gains), g)
    pairs = read_basis_text(_read(args.basis), g)
    circle = args.command == "circle-test"
    # the circle test walks each member's canonical circle walk; a walk line is still checked
    gains = circle_gains(gg, [s for s, _ in pairs]) if circle else cycle_gains(gg, pairs)
    passes = all(x == gg.group.identity() for x in gains)
    balanced = is_balanced(gg).balanced
    report = {"passes": passes, "balanced": balanced}
    if args.json:
        fmt = gg.group.format_element
        report["members"] = [{"support": sorted(s), "gain": fmt(x)} for (s, _), x in zip(pairs, gains)]
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
    lines = [f"status: {verdict.status}", f"rule: {verdict.rule}"]
    if isinstance(verdict.evidence, cls.BadWitness):
        lines.append(f"witness group: {verdict.evidence.gain_graph.group}")
    _emit(verdict.to_json() if args.json else {}, args.json, lines)
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

    def command(name: str, help: str, func, *positional: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for arg in positional:
            p.add_argument(arg)
        return p

    command("balance", "decide balance of a gain graph", _cmd_balance, "graph", "gains")
    command("circle-test", "evaluate the circle test on a basis", _cmd_basis_test, "graph", "gains", "basis")
    command("cycle-test", "evaluate the binary cycle test on an oriented basis", _cmd_basis_test, "graph", "gains", "basis")
    p = command("classify", "good/bad verdict per group class", _cmd_classify, "graph")
    p.add_argument("--class", dest="group_class", required=True)
    p.add_argument("--test", choices=("circle", "cycle"), default="circle")
    p = command("witness", "emit a verified bad witness for a named family", _cmd_witness)
    p.add_argument("--family", required=True)
    p.add_argument("--order", type=int, default=None, help="cyclic order for the loop-vertex family")
    p = command("minor", "minor containment with branch-set witness", _cmd_minor, "graph")
    p.add_argument("--target", required=True)
    p = command("oracle", "exhaustive circle-test goodness for one finite group", _cmd_oracle, "graph")
    p.add_argument("--group", required=True)
    p.add_argument("--budget", type=_count, default=None)
    p = command("atlas", "survey all inseparable multigraphs up to an edge bound", _cmd_atlas)
    p.add_argument("--max-edges", type=_count, required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--budget", type=_count, default=None)
    for p in sub.choices.values():  # every subcommand takes --json, after its own arguments
        p.add_argument("--json", action="store_true")
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, GraphError, OSError) as exc:  # Path.exists raises on an overlong name
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
