import functools
import itertools
import math
import random
import sys
import time

import numpy as np
import pytest

from gainbalance import classify, cyclespace, graphcore, minors, oracle
from gainbalance.balancetests import implies_balance_abelian
from gainbalance.classify import (
    BAD,
    BINARY_TEST,
    CIRCLE_TEST,
    GOOD,
    UNKNOWN,
    BadWitness,
    FORBIDDEN_MINORS,
    bad_witness,
    binary_cycle_goodness,
    circle_goodness,
    lift_witness,
    structural_decomposition,
)
from gainbalance.cyclespace import (
    OrientedBasis,
    circle_from_support,
    cycle_space_dimension,
    enumerate_circles,
    gf2_extract_basis,
    is_cycle_basis,
    oriented_basis,
)
from gainbalance.enumeration import all_multigraphs, inseparable_multigraphs
from gainbalance.errors import BudgetError, GraphError
from gainbalance.gaingraph import gain_graph
from gainbalance.graphcore import (
    ClosedWalk,
    Graph,
    build_named,
    components,
    grid_faces,
    is_isomorphic,
    parse_graph_spec,
    spanning_forest,
    walk_vertices,
)
from gainbalance.groups import ALL, EXPLICIT, WITNESS_MAX_ORDER, CyclicProduct, GroupClass, abelian_product, cyclic, free_on, parse_class_spec, symmetric
from gainbalance.minors import extrude, has_minor, verify_reverse_steps
from gainbalance.oracle import ORACLE_BLOCK, oracle_circle_goodness
from conftest import named, triangle
from test_minors import _extrusion_chain
from oracle_reference import reference_spanning_assignments, reference_witness_json
from classify_reference import (
    reference_binary_cycle_goodness,
    reference_circle_goodness,
    reference_lift_witness,
    reference_minimal_bad_minor,
)


Z3 = cyclic(3)
CZ3 = parse_class_spec("contains-z3")

# every witness that verify_minor_witness accepts here must also realize its target
pytestmark = pytest.mark.usefixtures("realized_witnesses")


# -- witnesses ----------------------------------------------------------------


@pytest.mark.parametrize(
    "tag,order",
    [
        ("K1loop", 3),
        ("K1loop", 5),
        ("K1loop", 7),
        ("C3(3,3,2)", None),
        ("2C4", None),
        ("K4dd", None),
        ("W4", None),
        ("W6", None),
        ("W8", None),
        ("2C6", None),
        ("2C8", None),
    ],
)
def test_bad_witness_families_verify(tag, order):
    spec = parse_graph_spec(tag)
    w = bad_witness(spec, order)
    assert w.verify()
    expected_group = {
        "K1loop": order or 3,
        "C3(3,3,2)": 3,
        "2C4": 3,
        "K4dd": 3,
        "W4": 3,
        "W6": 5,
        "W8": 7,
        "2C6": 5,
        "2C8": 7,
    }[tag]
    assert w.gain_graph.group == cyclic(expected_group)


def test_bad_witness_rejects_even_loop_order():
    with pytest.raises(GraphError):
        bad_witness(parse_graph_spec("K1loop"), 4)


def test_bad_witness_takes_an_order_only_for_the_loop_vertex():
    # the other families fix their own group, so an order would only build
    # the same witness again under another cache entry
    for tag in ("W4", "W6", "2C4", "2C6", "C3(3,3,2)", "K4dd"):
        for order in (3, 7, 11):
            with pytest.raises(GraphError, match="fixes its own gain group"):
                bad_witness(parse_graph_spec(tag), order)
    assert bad_witness(parse_graph_spec("K1loop"), 5).gain_graph.group == cyclic(5)


def test_bad_witness_unknown_family():
    with pytest.raises(GraphError):
        bad_witness(parse_graph_spec("C3(2,2,2)"))


def test_w4_witness_details():
    w = bad_witness(parse_graph_spec("W4"))
    gg = w.gain_graph
    assert all(gg.assignment.gains[f"s{i}"] == Z3.identity() for i in range(1, 5))
    rim = circle_from_support(gg.graph, {"r1", "r2", "r3", "r4"})
    from gainbalance.gaingraph import walk_gain

    assert walk_gain(gg, rim.walk) == Z3.element([1])


def test_2c4_witness_is_odd_sequence_type():
    w = bad_witness(parse_graph_spec("2C4"))
    weights = sorted(sum(1 for e in c if e.startswith("f")) for c, _ in w.basis.pairs)
    assert weights == [0, 2, 2, 2, 3]  # exactly one odd-weight member


# -- structural decomposition -----------------------------------------------------


def test_decomposition_fan():
    d = structural_decomposition(named("Fan(1;1,1)"))
    assert d is not None
    assert str(d.blocks[0].base) == "MultiK2(3)"
    assert verify_reverse_steps(d.blocks[0].block, build_named(d.blocks[0].base), d.blocks[0].steps)


def test_decomposition_w4_fails(w4):
    assert structural_decomposition(w4) is None


def test_decomposition_base_graph_identity():
    d = structural_decomposition(named("K4(3,2)"))
    assert d is not None
    assert str(d.blocks[0].base) == "K4Opposite(3,2)"
    assert d.blocks[0].steps == ()


def test_decomposition_loop_and_blocks():
    g = Graph({"l": ("a", "a"), "e1": ("a", "b"), "e2": ("b", "a"), "e3": ("b", "c")})
    d = structural_decomposition(g)
    assert d is not None
    bases = sorted(str(b.base) for b in d.blocks)
    assert bases == ["LoopVertex", "MultiK2(1)", "MultiK2(2)"]


def test_decomposition_quartet_fails():
    for spec in FORBIDDEN_MINORS:
        assert structural_decomposition(build_named(spec)) is None


def test_decomposition_replay_various():
    for tag in ("C3(2,2,1)", "C3(4,2,2)", "Fan(2;1,3)", "mK2(5)", "C4(1,1,1,1)", "C5(1,1,1,1,1)"):
        g = named(tag)
        d = structural_decomposition(g)
        assert d is not None, tag
        for blk in d.blocks:
            assert verify_reverse_steps(blk.block, build_named(blk.base), blk.steps)


def test_grid_contains_wheel_minor_and_is_bad():
    # contracting the four corners of the 3x3 grid into mid-side vertices
    # leaves the four-spoke wheel, so the grid is bad once Z3 is admissible
    g = named("Grid(2,2)")
    assert structural_decomposition(g) is None
    assert has_minor(g, named("W4")) is not None
    v = circle_goodness(g, CZ3)
    assert v.status == BAD and v.evidence.verify()


# -- circle goodness -----------------------------------------------------------------


def test_quartet_bad_with_verified_witness():
    for spec in FORBIDDEN_MINORS:
        g = build_named(spec)
        v = circle_goodness(g, CZ3)
        assert v.status == BAD
        assert isinstance(v.evidence, BadWitness)
        assert v.evidence.verify()


def test_quartet_good_without_z3():
    for spec in FORBIDDEN_MINORS:
        g = build_named(spec)
        assert circle_goodness(g, parse_class_spec("groups:Z2,Z4")).status == GOOD
        assert circle_goodness(g, parse_class_spec("groups:Z2xZ2")).status == GOOD


def test_good_families_any_class():
    classes = [
        GroupClass(ALL),
        parse_class_spec("abelian"),
        CZ3,
        GroupClass(EXPLICIT, (free_on("a", "b"),)),
    ]
    for tag in ("C3(5,2,2)", "K4(3,2)", "mK2(6)", "Fan(1;1,1)", "C3(2,2,1)", "K1loop"):
        g = named(tag)
        for c in classes:
            v = circle_goodness(g, c)
            assert v.status == GOOD, (tag, str(c))
            assert v.rule == "block-extrusion-decomposition"


def test_wheel_6_bad_for_z5():
    v = circle_goodness(named("W6"), parse_class_spec("groups:Z5"))
    assert v.status == BAD
    assert v.evidence.verify()
    assert v.evidence.gain_graph.group == cyclic(5)


def test_doubled_circle_6_bad_for_z5():
    v = circle_goodness(named("2C6"), parse_class_spec("groups:Z5"))
    assert v.status == BAD and v.evidence.verify()


@pytest.mark.parametrize("tag", ["W8", "2C8"])
@pytest.mark.parametrize("spec", ["groups:Z35", "groups:Z5,Z7"])
def test_wheel_family_is_found_through_a_subgroup(tag, spec, capsys):
    # Z7 <= Z35, so each class contains Z7 and decides as groups:Z7 does
    from gainbalance.cli import run

    v = circle_goodness(named(tag), parse_class_spec(spec))
    assert (v.status, v.rule) == (BAD, "even-wheel-or-doubled-circle-odd-cyclic")
    assert v.evidence.verify() and v.evidence.gain_graph.group == cyclic(7)
    reports = []
    for c in (spec, "groups:Z7"):
        assert run(["classify", tag, "--class", c, "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_circle_verdicts_are_monotone_in_the_class():
    # C' is a superclass of C when every Z_a of C divides some Z_b of C'; a
    # subgroup-closed C' then contains C, so a Bad verdict under C is Bad
    # under C' too
    hosts = [named(t) for t in ("W6", "W8", "W10", "2C6", "2C8", "2C10")] + list(inseparable_multigraphs(8))
    specs = ["Z5", "Z7", "Z11", "Z25", "Z35", "Z55", "Z5,Z7", "Z7,Z11"]
    classes = {spec: parse_class_spec("groups:" + spec) for spec in specs}
    bad = {spec: {i for i, g in enumerate(hosts) if circle_goodness(g, c).status == BAD} for spec, c in classes.items()}
    pairs = 0
    for small, big in itertools.permutations(specs, 2):
        if all(any(b.moduli[0] % a.moduli[0] == 0 for b in classes[big].groups) for a in classes[small].groups):
            assert bad[small] <= bad[big], (small, big, [sorted(hosts[i].edges.items()) for i in bad[small] - bad[big]])
            pairs += 1
    assert pairs == 10
    assert bad["Z5"] and bad["Z7"] and bad["Z7"] <= bad["Z35"] & bad["Z5,Z7"] & bad["Z7,Z11"]


def test_wheel_rule_splits_once_and_builds_only_the_targets_of_admitted_block_sizes(monkeypatch):
    # W12 (24 edges, k = 6) needs Z11 and 2C8 (16 edges, k = 4) needs Z7,
    # so under groups:Z5,Z7 only the k = 4 targets are built
    parts = [named("W12"), named("2C8")]
    host = Graph({f"{i}{e}": (f"{i}{t}", f"{i}{h}") for i, b in enumerate(parts) for e, (t, h) in b.edges.items()})
    split, built = [], []
    monkeypatch.setattr(classify, "blocks", lambda g: split.append(g) or graphcore.blocks(g))
    monkeypatch.setattr(classify, "_target", lambda spec: built.append(spec) or build_named(spec))
    v = circle_goodness(host, parse_class_spec("groups:Z5,Z7"))
    assert (v.status, v.evidence.gain_graph.group) == (BAD, cyclic(7))
    assert len(split) == 1 and built == [parse_graph_spec("W8"), parse_graph_spec("2C8")]


@pytest.mark.parametrize("spec", ["groups:S300", "groups:Z1000003", "groups:Z10000019", "groups:Z2305843009213693951"])
def test_circle_verdict_on_a_huge_group_is_quick_and_small(spec):
    import tracemalloc

    c = parse_class_spec(spec)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        v = circle_goodness(named("W4"), c)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.status == (BAD if spec == "groups:S300" else UNKNOWN)
    assert elapsed < 1.0 and peak < 20_000_000, (elapsed, peak)


def test_unknown_for_uncharacterized():
    # W4 with a nonabelian torsion-free class: no rule applies
    v = circle_goodness(named("W4"), GroupClass(EXPLICIT, (free_on("a", "b"),)))
    assert v.status == UNKNOWN


def test_bad_verdict_lifts_to_bigger_host():
    host = extrude(named("C3(3,3,2)"), "v1", "v2", ["e12"])
    host2 = Graph({**host.edges, "pend": ("v3", "z")}, host.vertices | {"z"})
    v = circle_goodness(host2, CZ3)
    assert v.status == BAD
    assert v.evidence.verify()
    assert v.evidence.gain_graph.graph == host2


def test_circle_goodness_w5():
    # W5 contains W4, so it is bad once Z3 is admissible
    v = circle_goodness(named("W5"), CZ3)
    assert v.status == BAD and v.evidence.verify()


def _searched_circle_verdict(g):
    """The contains-z3 circle verdict and rule by exhaustive minor search over
    the forbidden quartet: the reference for the minimization pass."""
    if structural_decomposition(g) is not None:
        return GOOD, "block-extrusion-decomposition"
    for spec in FORBIDDEN_MINORS:
        if has_minor(g, build_named(spec)) is not None:
            return BAD, "forbidden-minor-with-z3"
    raise AssertionError(f"undecomposable without a forbidden minor: {sorted(g.edges.items())}")


def test_minimized_minor_matches_minor_search():
    hosts = list(inseparable_multigraphs(9))
    hosts += [named(t) for t in ("W5", "W6", "2C5", "2C6", "K4dd", "C3(3,3,3)", "Grid(2,2)", "Grid(2,3)")]
    bad = 0
    for g in hosts:
        v = circle_goodness(g, CZ3)
        assert (v.status, v.rule) == _searched_circle_verdict(g), sorted(g.edges.items())
        if v.status == BAD:
            assert v.evidence.verify() and v.evidence.gain_graph.graph == g
            bad += 1
    assert bad == 42


def test_grids_bad_by_minimization():
    # has_minor(Grid(3,3), W4) alone takes about 20 s
    start = time.perf_counter()
    for tag in ("Grid(3,3)", "Grid(2,4)", "Grid(4,4)", "Grid(5,5)"):
        g = named(tag)
        v = circle_goodness(g, CZ3)
        assert v.status == BAD and v.rule == "forbidden-minor-with-z3", tag
        assert v.evidence.verify() and v.evidence.gain_graph.graph == g, tag
    assert time.perf_counter() - start < 5.0


def test_minimization_stays_in_the_bad_block():
    # a 100-step K4(1,1) extrusion chain (good) sharing W4's hub, named so
    # its block comes first; only the W4 block is cut down
    chain = _extrusion_chain(random.Random(7), "K4(1,1)", 100)
    rename = {v: "w" if v == "v1" else f"x{v}" for v in chain.vertex_list}
    edges = {f"x{e}": (rename[t], rename[h]) for e, (t, h) in chain.edges.items()}
    g = Graph({**edges, **named("W4").edges})
    assert len(g.edge_list) == 114
    start = time.perf_counter()
    v = circle_goodness(g, CZ3)
    assert time.perf_counter() - start < 2.0
    assert v.status == BAD and v.evidence.verify() and v.evidence.gain_graph.graph == g
    _, projection = classify._minimal_bad_block(classify._decompose(g))
    assert set(projection) == named("W4").vertices


BAD_TAGS = ("C3(3,3,2)", "C3(3,3,3)", "2C4", "2C5", "2C6", "K4dd", "W4", "W5", "W6", "W8",
            "Grid(2,2)", "Grid(2,3)", "Grid(3,3)", "Grid(2,4)", "Grid(4,4)")


def test_minimization_matches_the_unpruned_pass():
    # the rules skip only steps whose outcome the theorem decides, and the
    # one-forest lift restores the same circles: minor, projection and
    # witness are those of the pass that decomposes at every step
    hosts = [*inseparable_multigraphs(10), *map(named, BAD_TAGS)]
    bad = 0
    for g in hosts:
        v = circle_goodness(g, CZ3)
        if v.status != BAD:
            continue
        bad += 1
        assert classify._minimal_bad_block(classify._decompose(g)) == reference_minimal_bad_minor(g), sorted(g.edges.items())
        assert v.to_json() == reference_circle_goodness(g, CZ3).to_json(), sorted(g.edges.items())
    assert bad == 231 + len(BAD_TAGS)


def test_minimization_decomposes_nothing_on_a_forbidden_minor(monkeypatch):
    # the pass decides every step through the kernel's ``_decomposes``
    calls = []
    decomposes = classify._decomposes
    monkeypatch.setattr(classify, "_decomposes", lambda *args: calls.append(args) or decomposes(*args))
    for spec in FORBIDDEN_MINORS:
        g = build_named(spec)
        h, vmap = classify._minimal_bad_block(classify._decompose(g))
        assert h == g and vmap == {v: v for v in g.vertex_list}
    assert calls == []


def _petersen():
    outer = {f"o{i}": (f"a{i}", f"a{(i + 1) % 5}") for i in range(5)}
    spokes = {f"s{i}": (f"a{i}", f"b{i}") for i in range(5)}
    inner = {f"i{i}": (f"b{i}", f"b{(i + 2) % 5}") for i in range(5)}
    return Graph({**outer, **spokes, **inner})


def test_minimization_builds_no_graph_to_test(monkeypatch):
    # the pass tests its steps on the compact form: no deletion, contraction
    # or decomposition of a Graph, under whatever name a module binds it
    hosts = [named("Grid(2,3)"), _petersen(), named("W8")]
    expected = [reference_minimal_bad_minor(g) for g in hosts]

    def refuse(*args, **kwargs):
        raise AssertionError("the minimization builds a Graph to test a step")

    banned = (minors.delete, minors.contract, classify.structural_decomposition)
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "gainbalance"]:
        for attr, value in list(vars(module).items()):
            if any(value is f for f in banned):
                monkeypatch.setattr(module, attr, refuse)
    for g, minor in zip(hosts, expected):
        h, vmap = classify._minimal_bad_block(classify._decompose(g))
        assert (h, vmap) == minor
        assert any(is_isomorphic(h, build_named(spec)) for spec in FORBIDDEN_MINORS)


def test_graphs_below_eight_edges_decompose():
    # the floor of the minimization: every forbidden minor has 8 edges
    assert {len(build_named(spec).edge_list) for spec in FORBIDDEN_MINORS} == {8}
    count = 0
    for g in all_multigraphs(7):
        assert structural_decomposition(g) is not None, sorted(g.edges.items())
        count += 1
    assert count == 5151


def test_minimization_off_the_quartet_violates_the_theorem(monkeypatch):
    # Grid(2,2) minimizes to W4, the quartet's last member
    monkeypatch.setattr(classify, "FORBIDDEN_MINORS", FORBIDDEN_MINORS[:3])
    with pytest.raises(GraphError, match="theorem"):
        circle_goodness(named("Grid(2,2)"), CZ3)


# -- binary goodness -------------------------------------------------------------------


def test_binary_forest_good_any_class():
    tree = Graph({"e1": ("a", "b"), "e2": ("b", "c")})
    for c in (GroupClass(ALL), CZ3, parse_class_spec("groups:Z2")):
        assert binary_cycle_goodness(tree, c).status == GOOD


def test_binary_triangle_bad_with_z3():
    v = binary_cycle_goodness(triangle(), parse_class_spec("groups:Z3"))
    assert v.status == BAD
    assert v.evidence.test == BINARY_TEST
    assert v.evidence.verify()
    walk = v.evidence.basis.pairs[0][1]
    assert len(walk.steps) == 9  # three times around the lifted triangle


def test_binary_uses_smallest_odd_order():
    v = binary_cycle_goodness(triangle(), parse_class_spec("groups:Z10"))
    assert v.status == BAD
    assert v.evidence.gain_graph.group == cyclic(5)


def test_binary_witness_order_is_capped_by_the_ceiling():
    # the largest odd order at the ceiling still gets its witness; past it,
    # or where the bounded search leaves the least odd order unknown, the
    # verdict is a BudgetError and never falls back to Z3
    loop = parse_graph_spec("K1loop")
    top = WITNESS_MAX_ORDER - 1 + WITNESS_MAX_ORDER % 2
    assert [len(w.steps) for w in bad_witness(loop, top).basis.walks] == [top]
    with pytest.raises(BudgetError):
        bad_witness(loop, top + 2)
    v = binary_cycle_goodness(triangle(), parse_class_spec("groups:Z99991"))
    assert (v.status, v.evidence.gain_graph.group) == (BAD, cyclic(99991))
    v = binary_cycle_goodness(triangle(), parse_class_spec("groups:Z100003,Z5"))
    assert (v.status, v.evidence.gain_graph.group) == (BAD, cyclic(5))
    for spec in ("groups:Z100003", "groups:Z2xZ1000003", "groups:Z2305843009213693951"):
        c = parse_class_spec(spec)
        with pytest.raises(BudgetError, match="ceiling"):
            binary_cycle_goodness(named("W4"), c)
        assert binary_cycle_goodness(Graph({"e": ("a", "b")}), c).status == GOOD  # a forest needs no witness


def test_binary_two_groups_good():
    for tag in ("W4", "2C4", "K4dd"):
        assert binary_cycle_goodness(named(tag), parse_class_spec("groups:Z2,Z4")).status == GOOD


def test_binary_unknown_for_free():
    v = binary_cycle_goodness(named("W4"), GroupClass(EXPLICIT, (free_on("a", "b"),)))
    assert v.status == UNKNOWN


BINARY_CLASSES = [parse_class_spec(s) for s in ("contains-z3", "groups:Z5", "groups:Z7", "all", "abelian")]


def _random_multigraph(rng):
    """Up to 9 vertices with up to 14 random edges, loops among them, and up
    to 2 vertices that no edge meets."""
    vs = [f"v{i}" for i in range(rng.randint(1, 9))]
    edges = {}
    for i in range(rng.randint(0, 14)):
        a = rng.choice(vs)
        edges[f"e{rng.randrange(100):02d}_{i}"] = (a, a if rng.random() < 0.1 else rng.choice(vs))
    return Graph(edges, vs + [f"z{i}" for i in range(rng.randint(0, 2))])


def test_binary_witness_matches_the_lifted_minor_witness():
    # the witness carried along a short circle is the loop-vertex witness of
    # the minor search lifted through the contraction, byte for byte
    rng = random.Random(16)
    hosts = [_random_multigraph(rng) for _ in range(300)]
    assert any(g.is_loop(e) for g in hosts for e in g.edge_list)
    assert any(g.multiplicity(*g.ends(e)) > 1 for g in hosts for e in g.edge_list if not g.is_loop(e))
    assert any(len([c for c in components(g) if len(c) > 1]) > 1 for g in hosts)
    assert any(g.degree(v) == 0 for g in hosts for v in g.vertex_list)
    statuses = set()
    for g in [*all_multigraphs(6), *hosts]:
        for c in BINARY_CLASSES:
            v = binary_cycle_goodness(g, c)
            assert v.to_json() == reference_binary_cycle_goodness(g, c).to_json(), (sorted(g.edges.items()), c)
            statuses.add((v.status, v.evidence.gain_graph.group.order() if v.evidence else None))
    assert statuses == {(GOOD, None), (BAD, 3), (BAD, 5), (BAD, 7)}


def test_binary_witness_takes_no_minor_search_or_contraction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the binary witness is carried along a short circle")

    for module, name in [(minors, "has_minor"), (minors, "contract")]:
        monkeypatch.setattr(module, name, refuse)
    # the loop-vertex witness of each order is built once per process
    for c in BINARY_CLASSES[:3]:
        misses = None
        for tag in ("K1loop", "mK2(3)", "W4", "Grid(6,6)"):
            v = binary_cycle_goodness(named(tag), c)
            assert v.status == BAD and v.evidence.verify()
            misses = bad_witness.cache_info().misses if misses is None else misses
            assert bad_witness.cache_info().misses == misses


def test_lift_witness_matches_the_contracting_reference_on_searched_models():
    # circle verdicts take their models from minimization; has_minor grows
    # branch sets of several vertices and maps edges against their
    # orientation, and the transport must still equal the lift through the
    # contraction of the branch forest
    rng = random.Random(17)
    tags = ("C3(3,3,2)", "2C4", "K4dd", "W4")
    models = [(_extrusion_chain(rng, tag, steps), tag) for tag in tags for steps in (1, 1, 1, 2, 2, 2)]
    models += [(named("W5"), "W4"), (named("2C5"), "2C4")]
    widest = reversed_edges = 0
    for g, tag in models:
        target, witness = named(tag), bad_witness(parse_graph_spec(tag))
        mw = has_minor(g, target)
        assert lift_witness(g, mw, witness).to_json() == reference_lift_witness(g, mw, witness).to_json(), sorted(g.edges.items())
        widest = max(widest, *map(len, mw.branch_sets.values()))
        reversed_edges += sum(g.ends(he)[0] not in mw.branch_sets[target.ends(te)[0]] for te, he in mw.edge_map.items())
    assert widest >= 2 and reversed_edges > 0


def test_lifts_swap_neither_the_shared_nor_a_switching_forest(monkeypatch):
    # the lift roots a forest of its own and swaps only that one; the host's
    # spanning tree, which switching reads parent before child, stays as built
    swapped = []
    swap = graphcore.RootedForest.swap

    def recording(tree, f, e):
        swapped.append(tree.up)
        swap(tree, f, e)

    monkeypatch.setattr(graphcore.RootedForest, "swap", recording)
    cz3 = parse_class_spec("contains-z3")
    theta = Graph({"e0": ("v0", "v1"), "e1": ("v0", "v2"), "e2": ("v1", "v2"), "e3": ("v1", "v2")})
    for host, verdict in ((theta, binary_cycle_goodness), (named("Grid(4,4)"), circle_goodness)):
        shared = graphcore.spanning_tree(host)
        before = len(swapped)
        assert verdict(host, cz3).status == BAD
        assert len(swapped) > before
        fresh = graphcore.RootedForest(host, spanning_forest(host))
        again = graphcore.spanning_tree(host)
        assert again.up is shared.up and (again.forest, again.up) == (fresh.forest, fresh.up)
        assert all(up is not shared.up for up in swapped)
        passed = set(host.vertex_list) - set(again.up)
        for u, (_, v) in again.up.items():
            assert v in passed
            passed.add(u)


def test_bad_witness_is_built_once_and_stays_verified():
    for spec, order in [*((spec, None) for spec in FORBIDDEN_MINORS), (parse_graph_spec("W6"), None), (parse_graph_spec("K1loop"), 5)]:
        first = bad_witness(spec, order)
        assert bad_witness(spec, order) is first and first.verify()
        assert first == bad_witness.__wrapped__(spec, order)  # as a fresh build


def test_bad_witness_verify_walks_its_basis():
    # the binary test reads gains from chord steps alone, so a walk that is
    # not a closed walk of the graph is caught only by walking it
    w = binary_cycle_goodness(named("W4"), CZ3).evidence
    (cycle, walk), *rest = w.basis.pairs
    tampered = ClosedWalk(walk.start, walk.steps[::-1])
    with pytest.raises(GraphError, match="does not continue from"):
        walk_vertices(w.gain_graph.graph, tampered)
    assert w.verify()
    assert not BadWitness(w.gain_graph, OrientedBasis(((cycle, tampered), *rest), w.basis.host), w.test).verify()


def test_bad_witness_verify_is_false_on_tampered_witnesses():
    # every failed check gives False, the tests' own raises included
    circle = bad_witness(parse_graph_spec("W4"))
    binary = binary_cycle_goodness(named("W4"), CZ3).evidence
    loop = bad_witness(parse_graph_spec("K1loop"), 3)
    assert (circle.test, binary.test, loop.test) == (CIRCLE_TEST, BINARY_TEST, BINARY_TEST)
    assert circle.verify() and binary.verify() and loop.verify()
    gg, g = circle.gain_graph, circle.gain_graph.graph
    pairs = circle.basis.pairs

    def tampered(w, pairs, host=None, gg=None):
        return BadWitness(gg or w.gain_graph, OrientedBasis(tuple(pairs), host or w.basis.host), w.test)

    # a binary cycle that is not a circle, the two triangles at the hub on s1
    # and s3, in place of a member it keeps the basis spanning with
    eight = frozenset({"s1", "r1", "s2", "s3", "r3", "s4"})
    cycles = circle.basis.cycles
    i = next(i for i in range(len(pairs)) if is_cycle_basis([*cycles[:i], eight, *cycles[i + 1 :]], g))
    not_circle = [*pairs[:i], (eight, oriented_basis(g, [eight]).walks[0]), *pairs[i + 1 :]]
    # one gain changed on an edge of the first member, which each canonical
    # circle walk crosses once
    e = min(pairs[0][0])
    changed = gain_graph(g, gg.group, {**gg.assignment.gains, e: gg.group.op(gg.assignment.gains[e], (1,))})
    cases = {
        "missing member": tampered(circle, pairs[1:]),
        "binary missing member": tampered(binary, binary.basis.pairs[1:]),
        "empty loop basis": tampered(loop, ()),
        "not a circle": tampered(circle, not_circle),
        "foreign host": tampered(binary, binary.basis.pairs, host=named("W6")),
        "circle foreign host": tampered(circle, pairs, host=named("W6")),
        "changed gain": tampered(circle, pairs, gg=changed),
    }
    assert {kind: w.verify() for kind, w in cases.items()} == dict.fromkeys(cases, False)


def test_forbidden_minor_constants_are_built_once(monkeypatch):
    assert classify._edge_floor() == 8
    for spec in FORBIDDEN_MINORS:
        assert classify._target(spec) is classify._target(spec) == build_named(spec)
    first = circle_goodness(named("Grid(2,2)"), CZ3)

    def refuse(spec):
        raise AssertionError(f"{spec} rebuilt")

    monkeypatch.setattr(classify, "build_named", refuse)
    again = circle_goodness(named("Grid(2,2)"), CZ3)
    assert again.status == BAD and again.to_json() == first.to_json()


# -- oracle ------------------------------------------------------------------------------


def test_oracle_2c3_good():
    good, w = oracle_circle_goodness(named("C3(2,2,2)"), Z3)
    assert good and w is None


def test_oracle_2c4_bad_odd_sequence_resolution():
    good, w = oracle_circle_goodness(named("2C4"), Z3)
    assert not good
    assert w.verify()
    # the basis of one all-e quadrilateral plus the four weight-one
    # quadrilaterals is never balanced by an unbalanced assignment: balancing
    # each weight-one member forces every parallel gain equal, i.e. balance.
    # The genuinely bad bases pair the all-e quadrilateral either with the
    # four all-but-one-f quadrilaterals or with the one-odd-sequence family.
    g = named("2C4")
    weight_one_family = {frozenset({"e1", "e2", "e3", "e4"})} | {
        frozenset({f"f{i}"} | {f"e{j}" for j in range(1, 5) if j != i}) for i in range(1, 5)
    }
    seen_any = False
    for gains, subset, _ in reference_spanning_assignments(g, Z3):
        seen_any = True
        supports = {frozenset(c.support) for c in subset}
        assert not weight_one_family <= supports
        weights = sorted(sum(1 for e in c.support if e.startswith("f")) % 2 for c in subset)
        assert weights.count(1) in (1, 4)
    assert seen_any


def test_oracle_c332():
    assert oracle_circle_goodness(named("C3(3,3,2)"), cyclic(2))[0]
    good, w = oracle_circle_goodness(named("C3(3,3,2)"), Z3)
    assert not good and w.verify()


def test_oracle_w4_groups():
    assert not oracle_circle_goodness(named("W4"), Z3)[0]
    assert oracle_circle_goodness(named("W4"), cyclic(2))[0]
    assert oracle_circle_goodness(named("W4"), cyclic(4))[0]
    assert oracle_circle_goodness(named("W4"), abelian_product(2, 2))[0]


def test_oracle_budget_and_bounds():
    with pytest.raises(BudgetError):
        oracle_circle_goodness(named("Grid(2,3)"), Z3)
    with pytest.raises(BudgetError):
        oracle_circle_goodness(named("2C4"), Z3, budget=10)
    with pytest.raises(GraphError):
        oracle_circle_goodness(named("W4"), free_on("a"))


def test_oracle_bounds_raise_before_any_assignment():
    # 5^10 assignments past the edge bound, 5^9 x 45 cells past the budget:
    # both raise before any assignment is tried
    for tag in ("mK2(11)", "mK2(10)"):
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            oracle_circle_goodness(named(tag), cyclic(5))
        assert time.perf_counter() - start < 1.0


def test_oracle_builds_one_spanning_forest_per_call(monkeypatch):
    # the dimension, the budget and the chords all come from that one forest
    calls = []
    for module in (oracle, cyclespace):
        monkeypatch.setattr(module, "spanning_forest", lambda g: calls.append(g) or graphcore.spanning_forest(g))
    for tag, grp in (("W4", cyclic(2)), ("W4", cyclic(4)), ("2C3", Z3), ("mK2(1)", Z3)):
        calls.clear()
        g = named(tag)
        assert oracle_circle_goodness(g, grp)[0]
        assert calls == [g], tag


def test_oracle_sym3():
    s3 = symmetric(3)
    assert oracle_circle_goodness(named("C3(2,2,2)"), s3)[0]
    good, w = oracle_circle_goodness(named("2C4"), s3)
    assert not good  # S3 contains Z3
    assert w is not None and w.verify()


def _tried(grp, dim):
    """Whether the oracle tries an assignment, given its chord element
    indices: over a single Z_n the indices of ``_orbit_ranges``, otherwise
    every one."""
    if not isinstance(grp, CyclicProduct) or len(grp.moduli) > 1:
        return lambda digits: True
    ranges = list(oracle._orbit_ranges(grp.order(), dim))
    index = lambda digits: functools.reduce(lambda j, d: j * grp.order() + d, digits, 0)
    return lambda digits: any(start <= index(digits) < stop for start, stop in ranges)


def _compare_with_reference(g, grp) -> int:
    """Assert the oracle's spanning sets, over the indices it tries, and its
    first witness equal the per-assignment reference's; return the number of
    spanning assignments the oracle yields."""
    elements = grp.elements()
    tried = _tried(grp, cycle_space_dimension(g))
    expected = [
        (gains, subset)
        for gains, subset, _ in reference_spanning_assignments(g, grp)
        if tried([elements.index(x) for x in gains.values()])
    ]
    assert list(oracle._spanning_assignments(g, grp, *oracle._oracle_circles(g, grp))) == expected
    good, w = oracle_circle_goodness(g, grp)
    assert good == (not expected)
    assert (None if w is None else w.to_json()) == reference_witness_json(g, grp)
    return len(expected)


def test_oracle_matches_reference_on_small_multigraphs():
    for g in inseparable_multigraphs(7):
        for grp in (Z3, cyclic(4), cyclic(5), abelian_product(2, 3)):
            assert _compare_with_reference(g, grp) == 0  # bad graphs need 8 edges


def test_oracle_matches_reference_on_bad_and_multi_block_hosts():
    for tag in ("C3(3,3,2)", "2C4", "K4dd", "W4"):
        for grp in (Z3, cyclic(5), abelian_product(2, 3)):
            _compare_with_reference(named(tag), grp)
    g2c4 = named("2C4")
    g2c4_plus = Graph({**g2c4.edges, "g1": g2c4.edges["e1"]})
    mk2 = named("mK2(8)")
    # 7^5, 9^5, 6^6, 5^7 and 20000 assignments: each host spans several kernel blocks
    assert min(7**5, 9**5, 6**6, 5**7, 20000) > ORACLE_BLOCK
    assert _compare_with_reference(g2c4, cyclic(7)) == 0  # good over Z7
    assert _compare_with_reference(g2c4, abelian_product(3, 3)) == 128
    assert _compare_with_reference(g2c4_plus, abelian_product(2, 3)) == 144
    assert _compare_with_reference(mk2, cyclic(5)) == 0
    assert _compare_with_reference(named("mK2(2)"), cyclic(20000)) == 0  # a group larger than a block


@pytest.mark.parametrize("n", [4, 6, 7, 9])
def test_oracle_unit_orbits_match_reference_on_composite_and_prime_moduli(n):
    # over Z4, Z6 and Z9 a unit orbit's least index may lead with a proper
    # divisor of n (2, 3) instead of 1; the verdict, the witness JSON and the
    # spanning sequence over the tried indices must equal the reference's
    grp = cyclic(n)
    for g in inseparable_multigraphs(7):
        assert _compare_with_reference(g, grp) == 0
    bad = [_compare_with_reference(build_named(spec), grp) > 0 for spec in FORBIDDEN_MINORS]
    assert bad == [n % 3 == 0] * 4  # bad exactly when Z_n contains Z3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 12])
def test_orbit_ranges_hold_every_unit_orbit_minimum(n):
    # brute force: the least index of each orbit of nonzero assignments under
    # multiplication by the units of Z_n must be tried, in ascending order
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    for dim in (1, 2, 3):
        tried = [j for start, stop in oracle._orbit_ranges(n, dim) for j in range(start, stop)]
        assert tried == sorted(set(tried)) and 0 not in tried and tried[-1] < n**dim
        minima = set()
        for digits in itertools.product(range(n), repeat=dim):
            if any(digits):
                orbit = [[u * d % n for d in digits] for u in units]
                minima.add(min(functools.reduce(lambda j, d: j * n + d, x) for x in orbit))
        assert minima <= set(tried), (n, dim)
        if n in (2, 3, 5):  # over Z_p the orbit minima are exactly the tried indices
            assert len(tried) == len(minima) == (n**dim - 1) // (n - 1)


def test_kernel_blocks_never_exceed_oracle_block(monkeypatch):
    widths = []
    original = oracle._index_blocks

    def recorded(ranges):
        for block in original(ranges):
            widths.append(len(block))
            yield block

    monkeypatch.setattr(oracle, "_index_blocks", recorded)
    # unit orbit minima over a single Z_n: (5^7 - 1) / 4 for mK2(8) over Z5,
    # the 29 proper divisors of 20000 for mK2(2) over Z20000; every index over
    # a product: 6^5 - 1 for mK2(6) over Z2xZ3, 19999 for mK2(2) over Z20000xZ1
    for tag, grp, tried, width in (
        ("mK2(8)", cyclic(5), 19531, 5),
        ("mK2(2)", cyclic(20000), 29, 1),
        ("mK2(6)", abelian_product(2, 3), 7775, 2),
        ("mK2(2)", abelian_product(20000, 1), 19999, 5),
    ):
        widths.clear()
        assert oracle_circle_goodness(named(tag), grp)[0]
        assert sum(widths) == tried and max(widths) <= ORACLE_BLOCK
        assert len(widths) == width == -(-tried // ORACLE_BLOCK)  # full blocks but the last


def test_span_matmul_matches_gf2_extraction():
    # a set of circles spans iff its indicator row times the parity matrix is
    # positive everywhere; seeded random subsets on graphs with loops and
    # parallel edges, up to mK2(10) (dim 9) and ten loops at one vertex (dim 10)
    rng = random.Random(2718)
    graphs = [g for g in all_multigraphs(5) if cycle_space_dimension(g)]
    graphs += [named(t) for t in ("W4", "C3(3,3,2)", "2C4", "K4dd", "mK2(10)")]
    graphs.append(Graph({f"l{i}": ("v", "v") for i in range(10)}))
    assert len(graphs) > 300
    for g in graphs:
        circles = enumerate_circles(g)
        forest = spanning_forest(g)
        chords = [e for e in g.edge_list if e not in forest]
        walks = cyclespace._circle_walks(g, len(g.edge_list))
        odd = oracle._parity_matrix(walks, [g.edge_list.index(e) + 1 for e in chords])
        position = {e: i for i, e in enumerate(g.edge_list)}
        masks = [sum(1 << position[e] for e in c.support) for c in circles]
        subsets = [[True] * len(circles), [False] * len(circles)]
        for _ in range(12):
            p = rng.random()
            subsets.append([rng.random() < p for _ in circles])
        spans = (np.array(subsets, dtype=np.float32) @ odd).min(axis=1) > 0
        for subset, got in zip(subsets, spans):
            items = [(m, c) for m, c, keep in zip(masks, circles, subset) if keep]
            assert got == (gf2_extract_basis(items, len(chords)) is not None), (sorted(g.edges.items()), subset)


def test_residue_kernel_stays_exact_past_float32():
    # mK2(2) over Z(2^25) x Z1: one circle, so index j balances it iff
    # j = 0 mod 2^25, and over a product every index is tried; in float32,
    # j = 2^25 - 1 would round to 2^25
    assert oracle_circle_goodness(named("mK2(2)"), abelian_product(1 << 25, 1)) == (True, None)
    assert oracle_circle_goodness(named("mK2(2)"), cyclic(1 << 25)) == (True, None)


def test_oracle_matches_reference_over_sym3():
    s3 = symmetric(3)
    for g in inseparable_multigraphs(5):
        assert _compare_with_reference(g, s3) == 0
    assert _compare_with_reference(named("2C4"), s3) > 0


def test_oracle_first_counterexample_deterministic():
    a = oracle_circle_goodness(named("2C4"), Z3)[1]
    b = oracle_circle_goodness(named("2C4"), Z3)[1]
    assert a.gain_graph.assignment.gains == b.gain_graph.assignment.gains
    assert a.basis.cycles == b.basis.cycles


def test_w4_basis_taxonomy_smoke():
    w4 = named("W4")
    hams = {frozenset(c.support) for c in enumerate_circles(w4) if len(c.support) == 5}
    seen = 0
    for gains, subset, _ in reference_spanning_assignments(w4, Z3):
        seen += 1
        assert {frozenset(c.support) for c in subset} == hams
    assert seen == 2  # the generator and its inverse


def test_grid_face_basis_implies_balance():
    rng = random.Random(1234)
    for r, c in ((2, 2), (2, 3)):
        g = named(f"Grid({r},{c})")
        faces = grid_faces(r, c)
        ob = oriented_basis(g, faces)
        circles = enumerate_circles(g)
        queries = rng.sample(circles, min(100, len(circles)))
        rep = implies_balance_abelian(g, ob, queries)
        assert all(q.order == 1 for q in rep.queries)


# -- classifier vs oracle spot checks ----------------------------------------------------


def test_classifier_never_contradicts_oracle_small():
    for g in inseparable_multigraphs(5):
        for grp in (cyclic(2), Z3, cyclic(4)):
            c = GroupClass(EXPLICIT, (grp,))
            verdict = circle_goodness(g, c)
            good, _ = oracle_circle_goodness(g, grp)
            if verdict.status == GOOD:
                assert good
            elif verdict.status == BAD:
                assert not good


def test_classifier_matches_oracle_on_eight_edge_boundary():
    # at eight edges the forbidden minors themselves enter the universe, so
    # the Z3 verdict flips to Bad exactly on the quartet
    bad_seen = 0
    for g in inseparable_multigraphs(8):
        if len(g.edge_list) != 8:
            continue
        verdict = circle_goodness(g, CZ3)
        good, _ = oracle_circle_goodness(g, Z3)
        assert (verdict.status == GOOD) == good, sorted(g.edges.items())
        if verdict.status == BAD:
            assert verdict.evidence.verify()
            bad_seen += 1
    assert bad_seen == 4  # exactly the forbidden-minor quartet
