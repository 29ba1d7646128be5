"""What each workload's operations call, and how their outputs are checked.

Operations reach the library the way its users do: ``cli.run`` on generated
files, and the public ``classify``, ``balancetests`` and ``enumeration``
functions.  Every operation builds its graphs afresh from text, a named tag
or the enumerator, so no ``Graph`` (and no cached canonical key) is shared
between operations.  A pass runs every operation of the corpus once: the
first in corpus order, each later one in a fresh order drawn from the seed,
so that a garbage-collection pause or a cache left warm by the operation
before does not land on the same operation in every pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

# Why each workload is in the benchmark.
WHY = {
    "balance": "large gain graphs through the CLI and the abelian engine: gaingraph, cyclespace "
               "and groups at thousands of edges, with no minor search, oracle or enumeration",
    "classify": "minor search, witness lifting and reverse extrusion on mid-size hosts, with a "
                "heavy tail and no oracle work",
    "atlas": "the oracle kernel, enumerate_circles and gf2_extract_basis over all inseparable "
             "graphs up to 8 edges for Z3 and Z5",
    "survey": "enumeration and canonical labeling (about half the run) plus thousands of "
              "trivial classifier and oracle calls over all multigraphs up to 7 edges",
}


class Inputs:
    """The corpus of one run: its operation specs and parameters, and the
    directory holding its files."""

    def __init__(self, corpus, directory: Path, seed: int) -> None:
        self.ops = corpus.ops
        self.params = corpus.params
        self.files = corpus.files
        self.directory = directory
        self.seed = seed

    def pass_order(self, pass_index: int) -> list[tuple[int, dict]]:
        """(key, spec) of every operation, in this pass's order."""
        order = list(enumerate(self.ops))
        if pass_index:
            random.Random(f"{self.seed}/pass{pass_index}").shuffle(order)
        return order

    def path(self, name: str) -> str:
        return str(self.directory / name)

    def read(self, name: str) -> str:
        return (self.directory / name).read_text()


# -- balance ----------------------------------------------------------------------


def _cli(lib, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(argv)
    return code, out.getvalue()


def _check_cli(spec: dict, result: tuple[int, str]) -> bool:
    code, text = result
    if code != 0:
        return False
    report = json.loads(text)
    if report["balanced"] != spec["balanced"]:
        return False
    if spec["argv"][0] == "balance":
        # circles avoiding the planted edge are balanced, so the certificate must use it
        return spec["balanced"] or spec["planted"] in report["certificate"]["circle"]
    # a basis member through the planted edge is unbalanced, so the tests are valid here
    return report["passes"] == spec["balanced"]


def _smith(lib, spec: dict, inputs: Inputs):
    g = lib.graphcore.build_named(lib.graphcore.parse_graph_spec(spec["host"]))
    basis = lib.cyclespace.parse_basis_text(inputs.read(spec["basis"]), g)
    queries = [lib.cyclespace.circle_from_support(g, q) for q in spec["queries"]]
    return lib.balancetests.implies_balance_abelian(g, basis, queries)


def balance_pass(lib, inputs: Inputs, runner) -> None:
    for key, spec in inputs.pass_order(runner.passes):
        if "argv" in spec:
            argv = [inputs.path(a) if a in inputs.files else a for a in spec["argv"]]
            runner.op(key, f"{spec['argv'][0]} {spec['host']}", lambda: _cli(lib, argv),
                      lambda result: _check_cli(spec, result))
        else:
            runner.op(key, f"smith {spec['host']}", lambda: _smith(lib, spec, inputs),
                      lambda report: [q.order for q in report.queries] == spec["orders"])


# -- classify ---------------------------------------------------------------------


def _classify(lib, spec: dict, inputs: Inputs):
    gc = lib.graphcore
    if "tag" in spec:
        g = gc.build_named(gc.parse_graph_spec(spec["tag"]))
    else:
        g = gc.parse_graph_text(inputs.read(spec["file"]))
    group_class = lib.groups.parse_class_spec(spec["class"])
    decide = lib.classify.circle_goodness if spec["test"] == "circle" else lib.classify.binary_cycle_goodness
    return g, decide(g, group_class)


def _check_classify(lib, spec: dict, result) -> bool:
    g, verdict = result
    expect = spec["expect"]
    if expect is None:
        allowed = {"Good", "Bad"}
    elif expect == "any":
        allowed = {"Good", "Bad", "Unknown"}
    else:
        allowed = {expect}
    if verdict.status not in allowed:
        return False
    evidence = verdict.evidence
    if verdict.status == "Bad":
        return (isinstance(evidence, lib.classify.BadWitness) and evidence.gain_graph.graph == g
                and evidence.verify())
    if verdict.status == "Good" and spec["test"] == "circle":
        gc = lib.graphcore
        return all(lib.minors.verify_reverse_steps(b.block, gc.build_named(b.base), b.steps)
                   for b in evidence.blocks)
    return True


def classify_pass(lib, inputs: Inputs, runner) -> None:
    for key, spec in inputs.pass_order(runner.passes):
        label = f"{spec['test']} {spec.get('tag') or spec['name']} {spec['class']}"
        runner.op(key, label, lambda: _classify(lib, spec, inputs), lambda result: _check_classify(lib, spec, result))


# -- atlas and survey ------------------------------------------------------------


def _fresh_enumeration(lib) -> None:
    """Drop the enumerators' memo tables: a CLI invocation starts without them."""
    for name in ("connected_multigraphs", "inseparable_multigraphs"):
        clear = getattr(getattr(lib.enumeration, name, None), "cache_clear", None)
        if clear is not None:
            clear()


def _classify_and_oracle(lib, g, group_name: str):
    verdict = lib.classify.circle_goodness(g, lib.groups.parse_class_spec(f"groups:{group_name}"))
    good, witness = lib.classify.oracle_circle_goodness(g, lib.groups.parse_group_spec(group_name))
    return verdict, good, witness


def _agree(result, verify_witness: bool) -> bool:
    verdict, good, witness = result
    if verdict.status == "Good" and not good or verdict.status == "Bad" and good:
        return False
    if verify_witness and not good:
        return witness is not None and witness.verify()
    return True


def atlas_pass(lib, inputs: Inputs, runner) -> None:
    runner.phase("enumerate")
    _fresh_enumeration(lib)
    graphs = lib.enumeration.inseparable_multigraphs(inputs.params["max_edges"])
    runner.expect(len(graphs) == inputs.params["graphs"],
                  f"{len(graphs)} inseparable graphs, expected {inputs.params['graphs']}")
    for key, spec in inputs.pass_order(runner.passes):
        # each graph-group pair gets its own Graph, as two CLI runs would
        g = graphs[spec["graph"]] if spec["graph"] < len(graphs) else None
        g = g and lib.graphcore.Graph(g.edges, g.vertices)
        runner.op(key, f"atlas #{spec['graph']} {spec['group']}", lambda: _classify_and_oracle(lib, g, spec["group"]),
                  lambda result: _agree(result, verify_witness=True))


def survey_pass(lib, inputs: Inputs, runner) -> None:
    runner.phase("enumerate")
    _fresh_enumeration(lib)
    graphs = list(lib.enumeration.all_multigraphs(inputs.params["max_edges"]))
    runner.expect(len(graphs) == inputs.params["graphs"], f"{len(graphs)} multigraphs, expected {inputs.params['graphs']}")
    for key, spec in inputs.pass_order(runner.passes):
        g = graphs[spec["graph"]] if spec["graph"] < len(graphs) else None
        runner.op(key, f"survey #{spec['graph']}", lambda: _classify_and_oracle(lib, g, spec["group"]),
                  lambda result: _agree(result, verify_witness=False))


PASSES = {
    "balance": balance_pass,
    "classify": classify_pass,
    "atlas": atlas_pass,
    "survey": survey_pass,
}
