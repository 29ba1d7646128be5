import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gainbalance
from gainbalance import cli
from gainbalance.cli import run
from gainbalance.cyclespace import (
    basis_to_text,
    enumerate_circles,
    fundamental_circles,
    gf2_extract_basis,
    is_cycle_basis,
    oriented_basis,
    parse_basis_text,
)
from gainbalance.balancetests import binary_cycle_test, circle_test
from gainbalance.gaingraph import GainGraph, gain_graph, gains_to_text, is_balanced, parse_gain_text
from gainbalance.errors import GraphError
from gainbalance.graphcore import (
    Graph,
    components,
    graph_to_text,
    grid_faces,
    parse_graph_text,
    spanning_forest,
    spanning_tree,
)
from gainbalance.groups import (
    FreeGroup,
    Symmetric,
    abelian_product,
    cyclic,
    free_on,
    parse_group_header,
    parse_group_spec,
    symmetric,
)
from gainbalance.minors import MINOR_SEARCH_MAX_NODES
from gainbalance.oracle import oracle_circle_goodness
from basis_test_reference import reference_run
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


# -- the --json writer ------------------------------------------------------------

_json_strings = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'), st.characters()))
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**63, max_value=2**80).map(lambda n: n * (-1) ** (n % 2)),
    _json_strings,
)
_json_values = st.recursive(
    _json_scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_strings, inner, max_size=4), max_leaves=15
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_json_strings, _json_values, max_size=5) | st.lists(_json_values, max_size=5))
def test_json_writer_matches_json_dumps(x):
    assert cli._to_json(x) == json.dumps(x, indent=2, sort_keys=True)


def _random_gains(g, group, rng):
    if isinstance(group, FreeGroup):
        pick = lambda: group.element([(rng.choice(group.symbols), rng.choice((1, -1))) for _ in range(rng.randint(0, 2))])
    else:
        pick = lambda: rng.choice(group.elements())
    gains = {e: pick() for e in g.edge_list}
    if rng.random() < 0.5:  # a switching of the identity: balanced
        values = {v: pick() for v in g.vertex_list}
        gains = {e: group.op(group.inverse(values[t]), values[h]) for e, (t, h) in g.edges.items()}
    return gain_graph(g, group, gains)


@pytest.mark.parametrize("host", ["Grid(3,3)", "W6", "mK2(5)"])
def test_basis_test_reports_are_json_dumps_bytes(capsys, tmp_path, host):
    # every balance, circle-test and cycle-test report, balanced or not,
    # over four groups and two bases, with and without walk lines
    g = named(host)
    rng = random.Random(host)
    circles = enumerate_circles(g)
    fundamental = [c.support for c in fundamental_circles(g, spanning_forest(g))]
    other = [c.support for c in circles if len(c) == min(map(len, circles))][: len(fundamental)]
    assert is_cycle_basis(other, g)
    bases = [basis_to_text(oriented_basis(g, fundamental)), "".join(" ".join(sorted(m)) + "\n" for m in other)]
    outcomes = set()
    for group in (cyclic(3), abelian_product(2, 3), free_on("a", "b"), symmetric(3)):
        for _ in range(2):
            (tmp_path / "g.gains").write_text(gains_to_text(_random_gains(g, group, rng)))
            argvs = [["balance", host, str(tmp_path / "g.gains")]]
            for k, text in enumerate(bases):
                (tmp_path / f"{k}.basis").write_text(text)
                argvs += [[c, host, str(tmp_path / "g.gains"), str(tmp_path / f"{k}.basis")] for c in ("circle-test", "cycle-test")]
            for argv in argvs:
                assert run(argv + ["--json"]) == 0
                out = capsys.readouterr().out
                report = json.loads(out)
                assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
                outcomes.add((argv[0], report["balanced"]))
    assert len(outcomes) == 6, outcomes


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
    # one walk product per basis member that meets a chord of non-identity
    # switched gain (every other member has identity gain), plus one for the
    # certificate of an unbalanced gain graph; the count covers every module
    # that binds it
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
    gained = parse_gain_text(gains, named("Grid(3,3)")).forest_switching.chord_gains.keys()
    meeting = [m for m in members if not gained.isdisjoint(m["support"])]
    assert len(meeting) == 4 * certificates  # h1_1 is a forest edge: its switching gains four chords
    assert len(calls) == len(meeting) + certificates


@pytest.mark.parametrize("command", ["circle-test", "cycle-test"])
def test_basis_test_builds_each_canonical_walk_once(monkeypatch, capsys, tmp_path, command):
    # one canonical circle walk per face: the circle test's orientation, or
    # the cycle test's natural orientation of a member given without a walk.
    # Every chord has gain 1 and the forest the identity, so every chord has
    # that switched gain, and each face holds a chord: every walk is built
    import gainbalance.cyclespace

    original = gainbalance.cyclespace._circle_walk
    calls = []

    def counted(g, support):
        calls.append(support)
        return original(g, support)

    monkeypatch.setattr(gainbalance.cyclespace, "_circle_walk", counted)
    g = named("Grid(3,3)")
    forest = spanning_forest(g)
    (tmp_path / "grid.gains").write_text("group Z 3\n" + "".join(f"gain {e} 1\n" for e in g.edge_list if e not in forest))
    (tmp_path / "grid.basis").write_text(GRID_FACES)
    assert run([command, "Grid(3,3)", str(tmp_path / "grid.gains"), str(tmp_path / "grid.basis"), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["members"]) == 9
    # and one for the certificate of the unbalanced gain graph
    assert sorted(calls[:9], key=sorted) == sorted(grid_faces(3, 3), key=sorted) and len(calls) == 10


def _element(group, rng, nontrivial=False):
    if isinstance(group, FreeGroup):
        return group.element([(rng.choice(group.symbols), rng.choice((1, -1))) for _ in range(rng.randint(nontrivial, 2))])
    return rng.choice([x for x in group.elements() if not nontrivial or x != group.identity()])


def _gain_texts(g, group, rng, members):
    """Balanced gains (a switching of the identity), the same with an edge of
    a member multiplied by a non-identity element, and random gains."""
    values = {v: _element(group, rng) for v in g.vertex_list}
    balanced = {e: group.op(group.inverse(values[t]), values[h]) for e, (t, h) in g.edges.items()}
    planted = dict(balanced)
    e = rng.choice(sorted(frozenset().union(*members)))
    planted[e] = group.op(planted[e], _element(group, rng, nontrivial=True))
    random_gains = {e: _element(group, rng) for e in g.edge_list}
    return {k: gains_to_text(gain_graph(g, group, x)) for k, x in (("balanced", balanced), ("planted", planted), ("random", random_gains))}


def _basis_text(members):
    return "".join(" ".join(sorted(m)) + "\n" for m in members)


def _walk_lines(g, gg, members):
    """``members`` with their natural orientations as walk lines.  The walk of
    the first member that meets no chord of non-identity switched gain first
    crosses a chord twice, forward both times, back along the spanning tree
    in between: a chord of non-identity switched gain when there is one in
    its component."""
    tree = spanning_tree(g)
    gained = gg.forest_switching.chord_gains
    chords = list(gained) + [e for e in g.edge_list if e not in tree.forest]
    lines, detoured = [], False
    for m, w in oriented_basis(g, members).pairs:
        steps = list(w.steps)
        for c in chords if not detoured and gained.keys().isdisjoint(m) else ():
            t, h = g.ends(c)
            try:
                there = tree.path(w.start, t)
            except GraphError:  # c lies in another component
                continue
            steps = there + [(c, True)] + tree.path(h, t) + [(c, True)] + tree.path(h, w.start) + steps
            detoured = True
            break
        lines += [" ".join(sorted(m)), "walk: " + " ".join(("" if forward else "-") + e for e, forward in steps)]
    return "\n".join(lines) + "\n"


def _basis_texts(g, gg, short):
    """The fundamental basis, ``short`` (faces or shortest circles), the
    fundamental basis with walk lines, and three variants of it: one member
    replaced by the sum of two vertex-disjoint members (in two components of
    g when it has two), one made odd, and one listed in place of another."""
    fundamental = [c.support for c in fundamental_circles(g, spanning_forest(g))]
    texts = {"fundamental": _basis_text(fundamental), "short": _basis_text(short), "walks": _walk_lines(g, gg, fundamental)}
    where = {v: i for i, vs in enumerate(components(g)) for v in vs}
    ends = [{v for e in m for v in g.ends(e)} for m in fundamental]
    disjoint = [(i, j) for i in range(len(fundamental)) for j in range(len(fundamental)) if i != j and not ends[i] & ends[j]]
    disjoint.sort(key=lambda ij: where[min(ends[ij[0]])] == where[min(ends[ij[1]])])
    if disjoint:
        i, j = disjoint[0]
        texts["two circles"] = _basis_text(fundamental[:i] + [fundamental[i] | fundamental[j]] + fundamental[i + 1 :])
    e = next(e for e in g.edge_list if not g.is_loop(e))
    texts["odd"] = _basis_text([fundamental[0] ^ {e}] + fundamental[1:])
    texts["repeated"] = _basis_text(fundamental[:-1] + fundamental[:1])
    return texts


def _random_host(rng):
    """A multigraph with loops and parallel edges, often of several
    components, whose cycle space has dimension at least 2."""
    while True:
        vertices = [f"v{i}" for i in range(rng.randint(2, 6))]
        g = Graph({f"e{k:02d}": (rng.choice(vertices), rng.choice(vertices)) for k in range(rng.randint(4, 12))}, vertices)
        if len(g.edge_list) - len(spanning_forest(g)) >= 2 and any(not g.is_loop(e) for e in g.edge_list):
            return g


def _shortest_circles(g):
    circles = enumerate_circles(g)
    masks = [(sum(1 << i for i, e in enumerate(g.edge_list) if e in c.support), c.support) for c in circles]
    return gf2_extract_basis(masks, len(g.edge_list) - len(spanning_forest(g)))


def test_basis_tests_match_the_reference_that_walks_every_member(capsys, tmp_path):
    # exit code, stdout and stderr of cycle-test and circle-test, in text and
    # --json mode, against the evaluation that orients and multiplies every
    # member, over grids, wheels and random multigraphs, four groups, balanced,
    # planted and random gains, and valid and invalid bases
    rng = random.Random(32)
    hosts = [("Grid(4,4)", named("Grid(4,4)"), grid_faces(4, 4)), ("W6", named("W6"), None)]
    for k in range(6):
        g = _random_host(rng)
        (tmp_path / f"{k}.graph").write_text(graph_to_text(g))
        hosts.append((f"file:{tmp_path / f'{k}.graph'}", g, None))
    seen = set()
    for arg, g, short in hosts:
        short = short or _shortest_circles(g)
        for group in (cyclic(3), abelian_product(2, 3), free_on("a", "b"), symmetric(3)):
            for kind, gains in _gain_texts(g, group, rng, short).items():
                (tmp_path / "g.gains").write_text(gains)
                for name, text in _basis_texts(g, parse_gain_text(gains, g), short).items():
                    (tmp_path / "g.basis").write_text(text)
                    for command in ("cycle-test", "circle-test"):
                        for mode in ([], ["--json"]):
                            argv = [command, arg, str(tmp_path / "g.gains"), str(tmp_path / "g.basis"), *mode]
                            code = run(argv)
                            ours = capsys.readouterr()
                            assert (code, ours.out, ours.err) == (reference_run(argv), *capsys.readouterr()), (argv, gains, text)
                            seen.add((command, name, code, ours.out.split("\n")[0] if mode else ""))
    # every variant reached both tests, and both outcomes and input errors occurred
    assert {(c, n) for c, n, *_ in seen} == {(c, n) for c in ("cycle-test", "circle-test") for n in (
        "fundamental", "short", "walks", "two circles", "odd", "repeated")}, seen
    assert {code for _, _, code, _ in seen} == {0, 2}
    assert {first for *_, first in seen} >= {"", "{"}


@pytest.mark.parametrize("command", ["circle-test", "cycle-test"])
def test_basis_test_builds_walks_only_for_members_meeting_a_gained_chord(monkeypatch, capsys, tmp_path, command):
    # on balanced gains no natural orientation or canonical circle walk is
    # built; on planted gains only those of the members that meet a chord of
    # non-identity switched gain, each once, in basis order, and the
    # certificate's fundamental circle; the circle test builds its walks
    # without a natural orientation
    import gainbalance.balancetests
    import gainbalance.cyclespace

    natural, circle_walks = [], []
    orient, circle_walk = gainbalance.cyclespace.natural_orientation, gainbalance.cyclespace._circle_walk
    monkeypatch.setattr(gainbalance.balancetests, "natural_orientation", lambda b, g: natural.append(b) or orient(b, g))
    monkeypatch.setattr(gainbalance.cyclespace, "_circle_walk", lambda g, s: circle_walks.append(s) or circle_walk(g, s))
    rng = random.Random(command)
    proper = 0
    for host, short in (("Grid(6,6)", grid_faces(6, 6)), ("W8", None)):
        g = named(host)
        fundamental = [c.support for c in fundamental_circles(g, spanning_forest(g))]
        for members in (fundamental, short or _shortest_circles(g)):
            (tmp_path / "g.basis").write_text(_basis_text(members))
            for group in (cyclic(3), symmetric(3)):
                for kind, gains in _gain_texts(g, group, rng, members).items():
                    if kind == "random":
                        continue
                    (tmp_path / "g.gains").write_text(gains)
                    gg = parse_gain_text(gains, g)
                    meeting = [m for m in members if not gg.forest_switching.chord_gains.keys().isdisjoint(m)]
                    del natural[:], circle_walks[:]
                    assert run([command, host, str(tmp_path / "g.gains"), str(tmp_path / "g.basis"), "--json"]) == 0
                    balanced = json.loads(capsys.readouterr().out)["balanced"]
                    assert balanced == (kind == "balanced") == (meeting == [])
                    assert natural == (meeting if command == "cycle-test" else [])
                    assert circle_walks[: len(meeting)] == meeting
                    assert len(circle_walks) == len(meeting) + (not balanced)
                    proper += 0 < len(meeting) < len(members)
    assert proper >= 4, proper


def test_text_mode_classify_builds_no_json_report(monkeypatch, capsys):
    from gainbalance import classify

    def unused(self):
        raise AssertionError("a text report built the --json report")

    monkeypatch.setattr(classify.Verdict, "to_json", unused)
    assert run(["classify", "W4", "--class", "contains-z3"]) == 0
    assert capsys.readouterr().out == "status: Bad\nrule: forbidden-minor-with-z3\nwitness group: Z3\n"
    with pytest.raises(AssertionError, match="built the --json report"):
        run(["classify", "W4", "--class", "contains-z3", "--json"])


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


def test_loop_witness_past_its_ceiling_exits_3(capsys):
    # the binary witness over Z_k is a walk of k steps, so k is capped; the
    # circle verdict does not need the least odd order and still answers
    for argv in (["witness", "--family", "K1loop", "--order", "100001"],
                 ["classify", "W4", "--class", "groups:Z100003", "--test", "cycle"],
                 ["classify", "W4", "--class", "groups:Z2305843009213693951", "--test", "cycle"]):
        start = time.perf_counter()
        assert run([*argv, "--json"]) == 3, argv
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and "ceiling 100000" in captured.err, captured.err
    assert run(["classify", "W4", "--class", "groups:Z2305843009213693951", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Unknown"


def test_exit_codes(capsys, tmp_path):
    assert run(["balance", "NOPE", "alsonope"]) == 2
    gains = tmp_path / "bad.gains"
    gains.write_text("group Z 3\ngain zz 1\n")
    assert run(["balance", "W4", str(gains)]) == 2
    assert run(["oracle", "2C4", "--group", "Z3", "--budget", "5"]) == 3


def test_unreadable_input_files_exit_2(capsys, tmp_path):
    # a directory, or a file that is not UTF-8, is an input error that names
    # the file, not a traceback
    gains = tmp_path / "z3.gains"
    gains.write_text("group Z 3\n")
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00group Z 3\n")
    folder = str(tmp_path)
    for argv, culprit in (
        (["classify", folder, "--class", "all"], folder),
        (["balance", "W4", folder], folder),
        (["cycle-test", "W4", str(gains), folder], folder),
        (["minor", "W4", "--target", f"file:{folder}"], folder),
        (["balance", "W4", str(binary)], str(binary)),
        (["cycle-test", "W4", str(binary), str(gains)], str(binary)),
        (["cycle-test", "W4", str(gains), str(binary)], str(binary)),
        (["circle-test", "W4", str(gains), str(binary)], str(binary)),
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"input error: {culprit}: "), (argv, captured.err)


def test_second_walk_line_for_a_member_exits_2(capsys, tmp_path):
    # "walk: e1" does not project to the digon {e1, e2}; a second, valid walk
    # line must not replace it unchecked
    graph = tmp_path / "digon.graph"
    graph.write_text("edge e1 u v\nedge e2 v u\n")
    gains = tmp_path / "digon.gains"
    gains.write_text("group Z 3\n")
    basis = tmp_path / "digon.basis"
    basis.write_text("e1 e2\nwalk: e1 e2\n")
    assert run(["cycle-test", str(graph), str(gains), str(basis)]) == 0
    capsys.readouterr()
    for text, line in (("e1 e2\nwalk: e1\n", None), ("e1 e2\nwalk: e1\nwalk: e1 e2\n", 3)):
        basis = tmp_path / "digon.basis"
        basis.write_text(text)
        assert run(["cycle-test", str(graph), str(gains), str(basis)]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and (line is None or f"line {line}: " in err), err


def test_basis_member_naming_an_edge_twice_exits_2(capsys, tmp_path):
    # "e2 e1 e2" must not be read as the digon {e1, e2}
    graph = tmp_path / "digon.graph"
    graph.write_text("edge e1 u v\nedge e2 v u\n")
    gains = tmp_path / "digon.gains"
    gains.write_text("group Z 3\n")
    basis = tmp_path / "digon.basis"
    for command in ("circle-test", "cycle-test"):
        argv = [command, str(graph), str(gains), str(basis)]
        basis.write_text("# the digon\ne2 e1\n")
        assert run(argv) == 0, command
        capsys.readouterr()
        basis.write_text("# the digon\ne2 e1 e2\n")
        assert run(argv) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "line 2: edge 'e2' named twice" in err, err


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
