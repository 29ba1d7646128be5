"""Acceptance criteria.

Each test prints one PASS line (with its runtime) once every assertion in the
criterion has held; runtime limits are asserted against the wall clock.
"""

import itertools
import random
import time

import pytest

from gainbalance.balancetests import (
    binary_cycle_test,
    circle_test,
    implies_balance_abelian,
)
from gainbalance.classify import (
    BAD,
    GOOD,
    BadWitness,
    FORBIDDEN_MINORS,
    bad_witness,
    binary_cycle_goodness,
    circle_goodness,
    structural_decomposition,
)
from gainbalance.cyclespace import (
    circle_from_support,
    cycle_space_dimension,
    enumerate_circles,
    gf2_rank,
    oriented_basis,
)
from gainbalance.enumeration import all_multigraphs, inseparable_multigraphs
from gainbalance.gaingraph import GainGraph, Switching, gain_graph, is_balanced, switch, walk_gain
from gainbalance.graphcore import (
    ClosedWalk,
    DirectedEdge,
    Graph,
    build_named,
    parse_graph_spec,
)
from gainbalance.groups import EXPLICIT, GroupClass, abelian_product, cyclic, parse_class_spec
from gainbalance.minors import (
    contract,
    delete,
    has_minor,
    has_two_separation,
    is_extrusion_irreducible,
    bridges_of_pair,
    whitney_twist,
)
from gainbalance.oracle import oracle_circle_goodness
from conftest import named
from test_minors import random_lift_trial

CZ3 = parse_class_spec("contains-z3")
Z3 = cyclic(3)


def report(n, elapsed, limit, detail):
    line = f"ACCEPTANCE {n}: PASS ({elapsed:.1f}s < {limit:.0f}s) {detail}"
    print(line)
    assert elapsed < limit, line


def test_criterion_1_forbidden_minor_quartet():
    t0 = time.time()
    for spec in FORBIDDEN_MINORS:
        g = build_named(spec)
        verdict = circle_goodness(g, CZ3)
        assert verdict.status == BAD, str(spec)
        witness = verdict.evidence
        assert isinstance(witness, BadWitness)
        assert witness.gain_graph.group == Z3
        assert circle_test(witness.gain_graph, witness.basis.cycles)
        assert not is_balanced(witness.gain_graph).balanced
        # minimality: every single-edge deletion and contraction is good
        for e in g.edge_list:
            assert circle_goodness(delete(g, {e}), CZ3).status == GOOD, (str(spec), "del", e)
            contracted, _ = contract(g, {e})
            assert circle_goodness(contracted, CZ3).status == GOOD, (str(spec), "con", e)
    report(1, time.time() - t0, 10, "quartet bad with verified witnesses; all 64 single-edge minors good")


def test_criterion_2_minor_freeness_equals_decomposition():
    t0 = time.time()
    targets = [build_named(s) for s in FORBIDDEN_MINORS]
    checked = 0
    for g in inseparable_multigraphs(8):
        minor_free = all(has_minor(g, t) is None for t in targets)
        decomposes = structural_decomposition(g) is not None
        assert minor_free == decomposes, sorted(g.edges.items())
        checked += 1
    report(2, time.time() - t0, 300, f"(ii)<=>(iii) on {checked} inseparable multigraphs with <= 8 edges")


def test_criterion_3_oracle_concordance():
    t0 = time.time()
    groups = [cyclic(2), cyclic(3), cyclic(4)]
    classes = {grp: GroupClass(EXPLICIT, (grp,)) for grp in groups}
    checked = 0
    for g in all_multigraphs(7):
        for grp in groups:
            verdict = circle_goodness(g, classes[grp])
            good, _ = oracle_circle_goodness(g, grp)
            if verdict.status == GOOD:
                assert good, (sorted(g.edges.items()), str(grp))
            elif verdict.status == BAD:
                assert not good, (sorted(g.edges.items()), str(grp))
            checked += 1
    report(3, time.time() - t0, 1800, f"{checked} classifier/oracle comparisons, zero contradictions")


def test_criterion_4_abelian_engine_orders():
    t0 = time.time()
    w4 = named("W4")
    hams = [c for c in enumerate_circles(w4) if len(c.support) == 5]
    rim = circle_from_support(w4, {"r1", "r2", "r3", "r4"})
    rep = implies_balance_abelian(w4, oriented_basis(w4, [c.support for c in hams]), [rim])
    assert rep.order_of(rim) == 3

    c332 = named("C3(3,3,2)")
    six = [
        {"e12", "e23", "e31"},
        {"f12", "g23", "e31"},
        {"g12", "f23", "e31"},
        {"f12", "f23", "f31"},
        {"e12", "g23", "f31"},
        {"g12", "e23", "f31"},
    ]
    digon = circle_from_support(c332, {"e31", "f31"})
    rep = implies_balance_abelian(c332, oriented_basis(c332, six), [digon])
    assert rep.order_of(digon) == 3

    g2c4 = named("2C4")
    odd_sequence = [
        {"e1", "e2", "e3", "e4"},
        {"f1", "f2", "f3", "e4"},
        {"f1", "e2", "e3", "f4"},
        {"e1", "f2", "e3", "f4"},
        {"e1", "e2", "f3", "f4"},
    ]
    d = circle_from_support(g2c4, {"f1", "f2", "f3", "f4"})
    rep = implies_balance_abelian(g2c4, oriented_basis(g2c4, odd_sequence), [d])
    assert rep.order_of(d) == 3

    for k in (2, 3, 4):
        w = named(f"W{2 * k}")
        hams = [c for c in enumerate_circles(w) if len(c.support) == 2 * k + 1]
        rim = circle_from_support(w, {f"r{i}" for i in range(1, 2 * k + 1)})
        rep = implies_balance_abelian(w, oriented_basis(w, [c.support for c in hams]), [rim])
        assert rep.order_of(rim) == 2 * k - 1
    report(4, time.time() - t0, 60, "torsion orders 3,3,3 and 2k-1 for k=2,3,4, exact arithmetic")


def test_criterion_5_binary_cycle_theorem():
    t0 = time.time()
    checked = 0
    for g in all_multigraphs(6):
        verdict = binary_cycle_goodness(g, CZ3)
        is_forest = cycle_space_dimension(g) == 0
        assert (verdict.status == GOOD) == is_forest, sorted(g.edges.items())
        if not is_forest:
            assert verdict.status == BAD
            assert verdict.evidence.verify()
        checked += 1
    # the loop-vertex witness itself: walk e e e over Z3 passes, unbalanced
    w = bad_witness(parse_graph_spec("K1loop"), 3)
    assert binary_cycle_test(w.gain_graph, w.basis)
    assert not is_balanced(w.gain_graph).balanced
    report(5, time.time() - t0, 600, f"binary goodness == forest on {checked} graphs with <= 6 edges")


def test_criterion_6_lifting_lemmas_500_triples():
    t0 = time.time()
    rng = random.Random(20260810)
    for trial in range(500):
        host, ob, ga, kind = random_lift_trial(rng)
        gg = GainGraph(host, ga)
        if kind == "circle":
            assert circle_test(gg, ob.cycles), trial
        else:
            assert binary_cycle_test(gg, ob), trial
        assert not is_balanced(gg).balanced, trial
    report(6, time.time() - t0, 300, "500 lifted witnesses all remain valid bad witnesses")


def test_criterion_7_switching_and_twist_invariance():
    t0 = time.time()
    rng = random.Random(77)
    pool = []
    for tag in ("2C4", "2C6", "W4", "C3(3,3,2)", "K4(2,1)", "Fan(1;1,1)", "Fan(2;1,1)", "K4dd", "mK2(4)"):
        g = named(tag)
        pool.append((g, enumerate_circles(g), has_two_separation(g)))
    groups = [cyclic(2), Z3, cyclic(4), cyclic(5), abelian_product(2, 2)]
    twists = 0
    for trial in range(1000):
        g, circles, sep = pool[trial % len(pool)]
        grp = rng.choice(groups)
        els = grp.elements()
        gg = gain_graph(g, grp, {e: rng.choice(els) for e in g.edge_list})
        before = [walk_gain(gg, c.walk) == gg.group.identity() for c in circles]
        f = Switching({v: rng.choice(els) for v in g.vertex_list})
        switched = switch(gg, f)
        after = [walk_gain(switched, c.walk) == switched.group.identity() for c in circles]
        assert before == after, trial
        assert is_balanced(gg).balanced == is_balanced(switched).balanced
        if sep is not None:
            u, v = sep
            sides = [frozenset(b.subgraph.edge_list) for b in bridges_of_pair(g, u, v).bridges]
            k = rng.randrange(1, len(sides))
            side = frozenset().union(*rng.sample(sides, k))
            twisted = whitney_twist(gg, u, v, side)
            assert is_balanced(gg).balanced == is_balanced(twisted).balanced, trial
            twists += 1
    report(7, time.time() - t0, 600, f"1000 switching trials and {twists} twists, balance invariant")


def test_criterion_8_no_two_separation():
    t0 = time.time()
    g2c4 = named("2C4")
    checked = 0
    for g in inseparable_multigraphs(8):
        if any(g.is_loop(e) for e in g.edge_list):
            continue
        if not is_extrusion_irreducible(g):
            continue
        if has_minor(g, g2c4) is not None:
            continue
        assert has_two_separation(g) is None, sorted(g.edges.items())
        checked += 1
    report(8, time.time() - t0, 300, f"{checked} irreducible 2C4-free multigraphs, none 2-separated")


def test_criterion_9_w4_basis_taxonomy():
    t0 = time.time()
    from gainbalance.graphcore import spanning_forest

    w4 = named("W4")
    circles = enumerate_circles(w4)
    hamiltonian = {frozenset(c.support) for c in circles if len(c.support) == 5}
    dim = cycle_space_dimension(w4)
    edge_pos = {e: i for i, e in enumerate(w4.edge_list)}

    def mask(support):
        return sum(1 << edge_pos[e] for e in support)

    bases = [
        frozenset(frozenset(c.support) for c in combo)
        for combo in itertools.combinations(circles, dim)
        if gf2_rank([mask(c.support) for c in combo]) == dim
    ]
    assert len(bases) > 100  # the search space is nondegenerate

    chords = sorted(set(w4.edge_list) - spanning_forest(w4))
    bad_bases = set()
    for assignment in itertools.product(range(3), repeat=dim):
        if not any(assignment):
            continue  # switching-reduced: the zero assignment is balanced
        gains = {chords[i]: Z3.element([assignment[i]]) for i in range(dim)}
        gg = gain_graph(w4, Z3, gains)
        balanced = {
            frozenset(c.support) for c in circles if walk_gain(gg, c.walk) == gg.group.identity()
        }
        for basis in bases:
            if basis <= balanced:
                bad_bases.add(basis)
    assert bad_bases == {frozenset(hamiltonian)}, bad_bases
    report(9, time.time() - t0, 300, f"{len(bases)} circle bases scanned; only the Hamiltonian basis is bad")
