import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gainbalance
from gainbalance import cli
from gainbalance.cli import run
from gainbalance.cyclespace import parse_basis_text
from gainbalance.balancetests import binary_cycle_test, circle_test
from gainbalance.gaingraph import GainGraph, gain_graph, is_balanced, parse_gain_text
from gainbalance.graphcore import grid_faces, parse_graph_text
from gainbalance.groups import Symmetric, parse_group_header, parse_group_spec, symmetric
from gainbalance.minors import MINOR_SEARCH_MAX_NODES
from gainbalance.oracle import oracle_circle_goodness
from conftest import named
from oracle_reference import reference_witness_json

C332_GAINS = """\
group Z 3
gain f12 1
gain f23 1
gain f31 1
gain g12 2
gain g23 2
"""

SIX_TRIANGLES = """\
e12 e23 e31
f12 g23 e31
g12 f23 e31
f12 f23 f31
e12 g23 f31
g12 e23 f31
"""


@pytest.fixture
def gain_file(tmp_path):
    p = tmp_path / "c332.gains"
    p.write_text(C332_GAINS)
    return str(p)


@pytest.fixture
def basis_file(tmp_path):
    p = tmp_path / "c332.basis"
    p.write_text(SIX_TRIANGLES)
    return str(p)


def test_balance_command(capsys, gain_file):
    assert run(["balance", "C3(3,3,2)", gain_file]) == 0
    out = capsys.readouterr().out
    assert "balanced: False" in out
    assert "unbalanced circle" in out


def test_balance_json(capsys, gain_file):
    assert run(["balance", "C3(3,3,2)", gain_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["balanced"] is False
    assert data["certificate"]["circle"] == ["e12", "f12"]


def test_circle_test_command(capsys, gain_file, basis_file):
    assert run(["circle-test", "C3(3,3,2)", gain_file, basis_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passes"] is True and data["balanced"] is False


def test_cycle_test_command(capsys, tmp_path):
    gains = tmp_path / "loop.gains"
    gains.write_text("group Z 3\ngain e 1\n")
    basis = tmp_path / "loop.basis"
    basis.write_text("e\nwalk: e e e\n")
    graph = tmp_path / "loop.graph"
    graph.write_text("edge e v v\n")
    assert run(["cycle-test", str(graph), str(gains), str(basis), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passes"] is True and data["balanced"] is False


# Grid(3,3) inputs for the text reports of circle-test and cycle-test.  The
# face basis passes on identity gains and fails on a gain on the inner edge
# h1_1.  The boundary edge h0_0 lies on face (0,0) only, so winding that
# face's walk three times balances the oriented basis over Z3 while the gain
# graph is not balanced.  The circle-test witness is the one the classifier
# lifts onto Grid(3,3) for contains-z3.
GRID_FACES = "".join(" ".join(sorted(face)) + "\n" for face in grid_faces(3, 3))
GRID_WOUND_FACES = GRID_FACES.replace(
    "h0_0 h1_0 v0_0 v0_1\n", "h0_0 h1_0 v0_0 v0_1\nwalk:" + " v0_1 -h1_0 -v0_0 h0_0" * 3 + "\n"
)
GRID_CIRCLE_WITNESS_GAINS = "group Z 3\n" + "".join(
    f"gain {e} {x}\n" for e, x in (("v1_0", 1), ("v1_1", 1), ("v1_3", 2), ("v2_0", 1), ("v2_1", 1), ("v2_3", 2))
)
GRID_CIRCLE_WITNESS_BASIS = """\
h1_1 h2_2 h3_1 h3_2 v1_1 v1_2 v2_1 v2_3
h1_2 h2_1 h3_1 h3_2 v1_2 v1_3 v2_1 v2_3
h1_1 h1_2 h2_1 h3_2 v1_1 v1_3 v2_2 v2_3
h1_1 h1_2 h2_2 h3_1 v1_1 v1_3 v2_1 v2_2
h0_0 h1_0 v0_0 v0_1
h0_0 h0_1 h1_0 h1_1 v0_0 v0_2
h0_0 h0_1 h0_2 h1_0 h1_1 h1_2 v0_0 v0_3
h1_0 h2_0 v1_0 v1_1
h2_0 h3_0 v2_0 v2_1
"""
CIRCLE_NOTE = "note: basis is balanced but the gain graph is not (test invalid here)\n"
CYCLE_NOTE = "note: basis orientation is balanced but the gain graph is not (test invalid here)\n"


@pytest.mark.parametrize(
    "command, gains, basis, expected",
    [
        ("circle-test", "group Z 3\n", GRID_FACES, "circle test: pass\nbalanced: True\n"),
        ("circle-test", "group Z 3\ngain h1_1 1\n", GRID_FACES, "circle test: fail\nbalanced: False\n"),
        ("circle-test", GRID_CIRCLE_WITNESS_GAINS, GRID_CIRCLE_WITNESS_BASIS,
         "circle test: pass\nbalanced: False\n" + CIRCLE_NOTE),
        ("cycle-test", "group Z 3\n", GRID_FACES, "binary cycle test: pass\nbalanced: True\n"),
        ("cycle-test", "group Z 3\ngain h1_1 1\n", GRID_FACES, "binary cycle test: fail\nbalanced: False\n"),
        ("cycle-test", "group Z 3\ngain h0_0 1\n", GRID_WOUND_FACES,
         "binary cycle test: pass\nbalanced: False\n" + CYCLE_NOTE),
    ],
)
def test_basis_test_text_reports(capsys, tmp_path, command, gains, basis, expected):
    (tmp_path / "grid.gains").write_text(gains)
    (tmp_path / "grid.basis").write_text(basis)
    assert run([command, "Grid(3,3)", str(tmp_path / "grid.gains"), str(tmp_path / "grid.basis")]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["circle-test", "cycle-test"])
@pytest.mark.parametrize("gains, certificates", [("group Z 3\n", 0), ("group Z 3\ngain h1_1 1\n", 1)])
def test_basis_test_walks_each_member_once(monkeypatch, capsys, tmp_path, command, gains, certificates):
    # one walk product per basis member, plus one for the certificate of an
    # unbalanced gain graph; the count covers every module that binds it
    import gainbalance.gaingraph

    original = gainbalance.gaingraph.walk_product
    calls = []

    def counted(gg, walk):
        calls.append(walk)
        return original(gg, walk)

    for name, module in list(sys.modules.items()):
        if name.startswith("gainbalance") and getattr(module, "walk_product", None) is original:
            monkeypatch.setattr(module, "walk_product", counted)
    (tmp_path / "grid.gains").write_text(gains)
    (tmp_path / "grid.basis").write_text(GRID_FACES)
    assert run([command, "Grid(3,3)", str(tmp_path / "grid.gains"), str(tmp_path / "grid.basis"), "--json"]) == 0
    members = json.loads(capsys.readouterr().out)["members"]
    assert len(members) == 9
    assert len(calls) == len(members) + certificates


@pytest.mark.parametrize("command", ["circle-test", "cycle-test"])
def test_basis_test_builds_each_canonical_walk_once(monkeypatch, capsys, tmp_path, command):
    # one canonical circle walk per face: the circle test's orientation, or
    # the cycle test's natural orientation of a member given without a walk
    import gainbalance.cyclespace

    original = gainbalance.cyclespace._circle_walk
    calls = []

    def counted(g, support):
        calls.append(support)
        return original(g, support)

    monkeypatch.setattr(gainbalance.cyclespace, "_circle_walk", counted)
    (tmp_path / "grid.gains").write_text("group Z 3\n")
    (tmp_path / "grid.basis").write_text(GRID_FACES)
    assert run([command, "Grid(3,3)", str(tmp_path / "grid.gains"), str(tmp_path / "grid.basis"), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["members"]) == 9
    assert len(calls) == 9


def test_parser_keeps_no_state_between_runs(capsys, tmp_path):
    (tmp_path / "grid.gains").write_text("group Z 3\n")
    (tmp_path / "grid.basis").write_text(GRID_FACES)
    files = [str(tmp_path / "grid.gains"), str(tmp_path / "grid.basis")]
    assert run(["cycle-test", "Grid(3,3)", *files, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["passes"] is True
    # --json of the first run does not carry over to the second
    assert run(["circle-test", "Grid(3,3)", *files]) == 0
    assert capsys.readouterr().out == "circle test: pass\nbalanced: True\n"
    assert run(["circle-test", "Grid(3,3)", files[0]]) == 2
    assert run(["balance", "Grid(3,3)", files[0], "--bogus"]) == 2
    assert run(["balance", "Grid(3,3)", files[0]]) == 0
    assert capsys.readouterr().out.endswith("balanced: True\n")


def test_circle_test_input_errors(capsys, tmp_path):
    (tmp_path / "grid.gains").write_text("group Z 3\n")
    basis = tmp_path / "grid.basis"
    argv = ["circle-test", "Grid(3,3)", str(tmp_path / "grid.gains"), str(basis)]
    first_face = "h0_0 h1_0 v0_0 v0_1\n"
    # a walk line is checked though the circle test walks the canonical walk:
    # here the walk round face (0,1) follows the member of face (0,0)
    basis.write_text(GRID_FACES.replace(first_face, first_face + "walk: h0_1 v0_2 -h1_1 -v0_1\n"))
    assert run(argv) == 2
    assert "walk 0 does not project to its cycle" in capsys.readouterr().err
    # faces (0,0) and (2,2) together are a binary cycle but not a circle
    basis.write_text(GRID_FACES.replace(first_face, "h0_0 h1_0 h2_2 h3_2 v0_0 v0_1 v2_2 v2_3\n"))
    assert run(argv) == 2
    assert "is not a circle" in capsys.readouterr().err


def _fresh_process(code: str, *args: str) -> str:
    """The last line that ``code`` prints, run in a new interpreter."""
    src = str(Path(gainbalance.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def test_cli_loads_numpy_only_for_the_oracle(gain_file):
    # a fresh process: importing the frontend, balance, classify and witness
    # leave numpy unloaded, the oracle loads it
    code = (
        "import sys\n"
        "from gainbalance.cli import run\n"
        "loaded = ['numpy' in sys.modules]\n"
        "for argv in sys.argv[1:]:\n"
        "    assert run(argv.split()) == 0\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(loaded)\n"
    )
    argvs = [f"balance C3(3,3,2) {gain_file}", "classify W4 --class contains-z3", "witness --family W6", "oracle 2C4 --group Z3"]
    assert _fresh_process(code, *argvs) == "[False, False, False, False, True]"


def test_classify_imports_without_numpy_and_reexports_the_oracle():
    # the classifier proves its verdicts without numpy; its one re-export
    # imports the oracle on first access and keeps it as a module attribute
    code = (
        "import sys\n"
        "from gainbalance import classify\n"
        "loaded = 'numpy' in sys.modules\n"
        "first = classify.oracle_circle_goodness\n"
        "from gainbalance.oracle import oracle_circle_goodness\n"
        "print([loaded, first is oracle_circle_goodness, vars(classify).get('oracle_circle_goodness') is first])\n"
    )
    assert _fresh_process(code) == "[False, True, True]"


def test_classify_command_json_round_trip(capsys):
    assert run(["classify", "W4", "--class", "contains-z3", "--test", "circle", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "Bad"
    evidence = data["evidence"]
    # rebuild the witness from the emitted JSON and re-verify it
    g = parse_graph_text("\n".join(f"edge {e} {t} {h}" for e, (t, h) in sorted(evidence["edges"].items())))
    group = parse_group_header("Z 3")
    gains_text = "group Z 3\n" + "\n".join(f"gain {e} {x}" for e, x in evidence["gains"].items())
    gg = parse_gain_text(gains_text, g)
    assert circle_test(gg, [m["support"] for m in evidence["basis"]])
    assert not is_balanced(gg).balanced
    assert data["rule"] == "forbidden-minor-with-z3"
    assert group.moduli == (3,)


def _assert_verified_binary_witness(data: dict) -> None:
    """The JSON witness, rebuilt from text, passes the binary cycle test while
    its gain graph is unbalanced."""
    assert data["status"] == "Bad"
    evidence = data["evidence"]
    g = parse_graph_text("\n".join(f"edge {e} {t} {h}" for e, (t, h) in sorted(evidence["edges"].items())))
    gains_text = "group Z 3\n" + "\n".join(f"gain {e} {x}" for e, x in evidence["gains"].items())
    gg = parse_gain_text(gains_text, g)
    basis_text = "".join(
        " ".join(m["support"]) + "\nwalk: " + " ".join(m["walk"]) + "\n" for m in evidence["basis"]
    )
    assert binary_cycle_test(gg, parse_basis_text(basis_text, g))
    assert not is_balanced(gg).balanced


def test_classify_binary_test_beyond_circle_enumeration(capsys):
    # Grid(6,6) has 84 edges, more than circle enumeration takes, so the
    # loop-vertex witness winds around a fundamental circle instead
    assert run(["classify", "Grid(6,6)", "--class", "contains-z3", "--test", "cycle", "--json"]) == 0
    _assert_verified_binary_witness(json.loads(capsys.readouterr().out))


def test_classify_binary_test_on_simple_grid_without_listing_circles(capsys):
    # Grid(5,5) has 60 edges and far too many circles to list; the witness
    # winds around its least 4-circle, found by girth search
    assert run(["classify", "Grid(5,5)", "--class", "contains-z3", "--test", "cycle", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    _assert_verified_binary_witness(data)
    assert data["evidence"]["basis"][0]["support"] == ["h0_0", "h1_0", "v0_0", "v0_1"]


def test_classify_cycle_command(capsys):
    assert run(["classify", "W4", "--class", "groups:Z2", "--test", "cycle"]) == 0
    out = capsys.readouterr().out
    assert "status: Good" in out


def test_witness_command(capsys):
    assert run(["witness", "--family", "2C6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group"] == "Z5"
    assert data["test"] == "circle"


def test_witness_order_is_only_for_the_loop_vertex(capsys):
    # every other family fixes its own group, so an order there is an input error
    assert run(["witness", "--family", "2C6", "--order", "7", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: DoubledCircle(6) fixes its own gain group: a cyclic order is only for the loop vertex\n"
    assert run(["witness", "--family", "K1loop", "--order", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["group"] == "Z5"


def test_minor_command(capsys):
    assert run(["minor", "2C4", "--target", "2C4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["present"] is True
    assert all(len(v) == 1 for v in data["witness"]["branch_sets"].values())


def test_minor_command_on_grid_ends(capsys):
    # connected branch sets reached twice are expanded once
    start = time.perf_counter()
    assert run(["minor", "Grid(3,3)", "--target", "C3(3,3,2)", "--json"]) == 0
    assert time.perf_counter() - start < 10.0
    data = json.loads(capsys.readouterr().out)
    assert data["present"] is True


def test_minor_command_exits_past_its_node_budget(capsys):
    # W4 in Grid(3,3) takes about 667k candidate branch sets to find
    assert run(["minor", "Grid(3,3)", "--target", "W4", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"({MINOR_SEARCH_MAX_NODES + 1} candidate branch sets > {MINOR_SEARCH_MAX_NODES})" in captured.err


def test_minor_file_target(capsys, tmp_path):
    p = tmp_path / "target.graph"
    p.write_text("edge a x y\nedge b y x\n")
    assert run(["minor", "2C4", "--target", f"file:{p}"]) == 0
    assert "minor present: True" in capsys.readouterr().out


def test_oracle_command(capsys):
    assert run(["oracle", "C3(3,3,2)", "--group", "Z3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["good"] is False
    assert "counterexample" in data


def test_oracle_beyond_order_six(capsys):
    # 7^5 assignments of 2C4 over Z7, within the default assignment budget
    assert run(["oracle", "2C4", "--group", "Z7", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    expected = reference_witness_json(named("2C4"), parse_group_spec("Z7"))
    assert data["good"] is (expected is None)
    assert data.get("counterexample") == expected


def test_oracle_over_a_symmetric_group(capsys):
    assert run(["oracle", "2C4", "--group", "S3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    good, witness = oracle_circle_goodness(named("2C4"), symmetric(3))
    assert data == {"good": good, "group": "S3", "counterexample": witness.to_json()}
    for spec in ("S0", "Sx"):
        assert run(["oracle", "2C4", "--group", spec, "--json"]) == 2
        assert "unknown group spec" in capsys.readouterr().err


def test_atlas_command(capsys):
    assert run(["atlas", "--max-edges", "4", "--group", "Z3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(row["agree"] for row in data["graphs"])


def test_exit_codes(capsys, tmp_path):
    assert run(["balance", "NOPE", "alsonope"]) == 2
    gains = tmp_path / "bad.gains"
    gains.write_text("group Z 3\ngain zz 1\n")
    assert run(["balance", "W4", str(gains)]) == 2
    assert run(["oracle", "2C4", "--group", "Z3", "--budget", "5"]) == 3


def test_malformed_group_specs_exit_2(capsys):
    # "\u00b2".isdigit() is True but int() rejects it: taken by pattern, the spec is an input error, not a crash
    assert run(["oracle", "W4", "--group", "Z\u00b2"]) == 2
    assert run(["classify", "W4", "--class", "groups:Z\u00b2"]) == 2
    assert run(["oracle", "W4", "--group", "Z0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: unknown group spec 'Z\u00b2'",
        "input error: unknown group spec 'Z\u00b2'",
        "input error: unknown group spec 'Z0'",
    ]


def test_malformed_graph_tags_exit_2(capsys):
    # an empty number in a list raised a ValueError from int(); a digit of
    # another script read as its ASCII value ("W\u0664" as W4)
    for tag, group_class in (("C3(,)", "all"), ("C3(3,3,)", "all"), ("Fan(1;,)", "all"), ("W\u0664", "contains-z3")):
        assert run(["classify", tag, "--class", group_class]) == 2
        assert capsys.readouterr().err == f"input error: {tag!r} is neither a known graph tag nor a file\n"
    # a leading zero read "W04" as W4
    assert run(["classify", "W04", "--class", "contains-z3"]) == 2
    assert capsys.readouterr().err == "input error: 'W04' is neither a known graph tag nor a file\n"


def test_atlas_rejects_a_negative_edge_bound(capsys):
    # a negative bound is an input error, not an empty survey
    assert run(["atlas", "--max-edges", "-1", "--group", "Z3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("argument --max-edges: expected a nonnegative integer, got '-1'\n")
    assert run(["atlas", "--max-edges", "0", "--group", "Z3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["graphs"] == []


def test_oracle_and_atlas_reject_a_negative_budget(capsys):
    # an input error whether or not the graph has a circle (a forest is
    # decided before the budget is read)
    for argv in (["oracle", "mK2(2)", "--group", "Z3"], ["oracle", "mK2(1)", "--group", "Z3"],
                 ["atlas", "--max-edges", "2", "--group", "Z3"]):
        assert run([*argv, "--budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("argument --budget: expected a nonnegative integer, got '-1'\n")
    assert run(["oracle", "K1loop", "--group", "Z3", "--budget", "0"]) == 3


def test_atlas_past_the_oracle_edge_bound_exits_3_before_enumerating(capsys, monkeypatch):
    def unreachable(max_edges):
        raise AssertionError("atlas enumerated graphs it could not run the oracle on")

    monkeypatch.setattr(cli, "inseparable_multigraphs", unreachable)
    assert run(["atlas", "--max-edges", "40", "--group", "Z3"]) == 3
    assert capsys.readouterr().err == "budget exceeded: oracle edge bound exceeded (40 > 10)\n"
    assert run(["atlas", "--max-edges", "11", "--group", "Z3", "--json"]) == 3


def test_oracle_budget_counts_the_element_list(capsys, monkeypatch):
    # S11 has 39.9 M elements, so one circle fits the assignment budget, but
    # listing the elements and their inverses would take gigabytes
    def unlisted(self):
        raise AssertionError("the oracle listed the elements before its budget check")

    monkeypatch.setattr(Symmetric, "elements", unlisted)
    assert run(["oracle", "K1loop", "--group", "S11"]) == 3
    assert "budget exceeded" in capsys.readouterr().err
    monkeypatch.undo()
    # over S4: 24 assignments x 1 circle + 2 x 24 elements of length 4
    assert run(["oracle", "K1loop", "--group", "S4", "--budget", "215"]) == 3
    assert run(["oracle", "K1loop", "--group", "S4", "--budget", "216"]) == 0


def test_reports_deterministic(capsys):
    assert run(["classify", "2C4", "--class", "contains-z3", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["classify", "2C4", "--class", "contains-z3", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
