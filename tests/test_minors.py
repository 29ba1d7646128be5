import bisect
import dataclasses
import itertools
import random
import time

import pytest

from gainbalance.balancetests import binary_cycle_test, circle_test
from gainbalance.classify import BAD, _match_base, circle_goodness, structural_decomposition
from gainbalance.cyclespace import (
    circle_from_support,
    cycle_space_dimension,
    enumerate_circles,
    fundamental_circles,
    is_cycle_basis,
    oriented_basis,
)
from gainbalance.enumeration import all_multigraphs, connected_multigraphs, inseparable_multigraphs, materialize
from gainbalance.errors import GraphError
from gainbalance.gaingraph import GainGraph, gain_graph, is_balanced, walk_gain
from gainbalance.graphcore import Graph, build_named, is_isomorphic, spanning_forest
from gainbalance.groups import cyclic, parse_class_spec
from gainbalance.minors import (
    EDGE_BRIDGE,
    TYPE_I,
    TYPE_II,
    MinorWitness,
    branch_forest,
    bridges_of_pair,
    contract,
    delete,
    doubled_path_target,
    extrude,
    has_minor,
    has_two_separation,
    is_extrusion_irreducible,
    lift_basis_deletion,
    reverse_extrusion_reduce,
    verify_minor_witness,
    verify_reverse_steps,
    whitney_twist,
)
from classify_reference import lift_basis_contraction
from conftest import named
from extrusion_reference import (
    first_move_reverse_extrusion_reduce,
    reference_reverse_extrusion_reduce,
    reverse_moves,
)
from minor_reference import extruded_reverse_steps, rooted_bridges_of_pair, rooted_has_minor


# every witness that verify_minor_witness accepts here must also realize its target
pytestmark = pytest.mark.usefixtures("realized_witnesses")


Z3 = cyclic(3)


# -- delete / contract -----------------------------------------------------------


def test_contract_wheel_rim_gives_k4_21(w4):
    c, vmap = contract(w4, {"r1"})
    assert is_isomorphic(c, named("K4(2,1)"))
    assert vmap["v1"] == vmap["v2"]


def test_contract_k4_21_gives_2c3():
    c, _ = contract(named("K4(2,1)"), {"e34"})
    assert is_isomorphic(c, named("C3(2,2,2)"))


def test_contract_parallel_makes_loop(g2c4):
    c, _ = contract(g2c4, {"e1"})
    loops = [e for e in c.edge_list if c.is_loop(e)]
    assert loops == ["f1"]


def test_contract_loop_just_removes_it():
    g = Graph({"l": ("a", "a"), "e": ("a", "b")})
    c, vmap = contract(g, {"l"})
    assert c.edge_list == ("e",)
    assert vmap["a"] == "a"


def test_delete_all_edges(w4):
    d = delete(w4, w4.edge_list)
    assert d.edge_list == ()
    assert d.vertices == w4.vertices  # isolated vertices retained


def test_delete_unknown_edge(w4):
    with pytest.raises(GraphError):
        delete(w4, {"zz"})


# -- minor containment -------------------------------------------------------------


def test_w5_contains_w4(w4):
    w5 = named("W5")
    mw = has_minor(w5, w4)
    assert mw is not None
    assert verify_minor_witness(w5, w4, mw)


def test_forest_has_no_loop_minor():
    forest = Graph({"e1": ("a", "b"), "e2": ("b", "c")})
    assert has_minor(forest, named("K1loop")) is None


def test_two_sum_contract_contains_2c4(g2c4):
    edges = {
        "ua3": ("u", "a3"),
        "ua4": ("u", "a4"),
        "va3": ("v", "a3"),
        "va4": ("v", "a4"),
        "f1": ("a3", "a4"),
        "ub3": ("u", "b3"),
        "ub4": ("u", "b4"),
        "vb3": ("v", "b3"),
        "vb4": ("v", "b4"),
        "f2": ("b3", "b4"),
    }
    host = Graph(edges)
    contracted, _ = contract(host, {"f1", "f2"})
    assert is_isomorphic(contracted, g2c4)
    mw = has_minor(host, g2c4)
    assert mw is not None and verify_minor_witness(host, g2c4, mw)


def test_self_minor_identity(g2c4):
    mw = has_minor(g2c4, g2c4)
    assert mw is not None
    assert all(len(vs) == 1 for vs in mw.branch_sets.values())


def test_minor_respects_multiplicity():
    # 2C3 has no 2C4 minor (not enough edges), and C4 has no 2C4 minor
    assert has_minor(named("C3(2,2,2)"), named("2C4")) is None
    assert has_minor(named("C4(1,1,1,1)"), named("2C4")) is None


def test_minor_bound_errors(w4):
    with pytest.raises(GraphError):
        has_minor(w4, named("Grid(2,3)"))


def test_minor_reflexive_on_library():
    tags = [
        "W4", "W5", "mK2(1)", "mK2(2)", "mK2(3)", "mK2(4)", "mK2(5)",
        "C3(1,1,1)", "C3(2,1,1)", "C3(2,2,1)", "C3(2,2,2)", "C3(3,2,2)",
        "C3(3,3,1)", "C3(3,3,2)", "C4(1,1,1,1)", "2C4", "K4(1,1)",
        "K4(2,1)", "K4(2,2)", "K4(3,1)", "K4dd", "K1loop", "C5(1,1,1,1,1)",
        "Fan(1;1,1)", "Fan(2;1,1)", "C2(2,1)", "C2(2,2)", "C4(2,1,1,1)",
        "C4(2,2,1,1)", "C4(2,1,2,1)",
    ]
    graphs = {t: named(t) for t in tags}
    assert len(graphs) == 30
    for t, g in graphs.items():
        if len(g.vertex_list) <= 6 and len(g.edge_list) <= 10:
            mw = has_minor(g, g)
            assert mw is not None, t
            assert verify_minor_witness(g, g, mw), t


def test_minor_transitive_samples():
    chains = [
        ("W5", "W4", "K4(1,1)"),
        ("C3(3,3,2)", "C3(2,2,2)", "mK2(3)"),
        ("2C4", "C3(2,2,1)", "mK2(2)"),
    ]
    for a, b, c in chains:
        ga, gb, gc = named(a), named(b), named(c)
        assert has_minor(ga, gb) is not None
        assert has_minor(gb, gc) is not None
        assert has_minor(ga, gc) is not None


def test_rooted_minor():
    # a doubled path 2P2 rooted at the pair makes a bridge type II
    target, tu, tv = doubled_path_target()
    host = named("2C4")
    assert rooted_has_minor(host, target, roots={tu: "v1", tv: "v3"}) is not None
    assert [b.kind for b in bridges_of_pair(host, "v1", "v3").bridges] == [TYPE_II, TYPE_II]
    path = Graph({"e1": ("u", "x"), "e2": ("x", "v")})
    assert rooted_has_minor(path, target, roots={tu: "u", tv: "v"}) is None
    [bridge] = bridges_of_pair(path, "u", "v").bridges
    assert (bridge.kind, bridge.separating_vertex) == (TYPE_I, "x")


def test_has_minor_matches_recursive_oracle():
    """Branch-set search vs an independent delete/contract recursion."""
    from gainbalance.graphcore import canonical_key
    from gainbalance.enumeration import inseparable_multigraphs

    def make_oracle(target):
        tkey = canonical_key(Graph(dict(target.edges), set()))
        te = len(target.edge_list)
        memo = {}

        def rec(g):
            key = canonical_key(g)
            if key in memo:
                return memo[key]
            if canonical_key(Graph(dict(g.edges), set())) == tkey:
                memo[key] = True
                return True
            if len(g.edge_list) <= te:
                memo[key] = False
                return False
            ans = False
            for e in g.edge_list:
                reduced, _ = contract(g, {e})
                if rec(delete(g, {e})) or rec(reduced):
                    ans = True
                    break
            memo[key] = ans
            return ans

        return rec

    for tag in ("mK2(3)", "C3(2,2,2)", "C3(2,2,1)", "K4(1,1)", "K1loop", "C3(3,2,1)", "2C4"):
        target = named(tag)
        oracle = make_oracle(target)
        for g in inseparable_multigraphs(7):
            assert (has_minor(g, target) is not None) == oracle(g), (tag, sorted(g.edges.items()))


def _witness_corpus():
    """Minor witnesses the library builds: the circle classifier's on every
    inseparable multigraph with up to 8 edges, and minor search on a few
    library pairs, the loop vertex among them."""
    cz3 = parse_class_spec("contains-z3")
    bad = sum(circle_goodness(g, cz3).status == BAD for g in inseparable_multigraphs(8))
    pairs = [("W5", "W4"), ("Grid(2,2)", "W4"), ("C3(3,3,2)", "C3(2,2,2)"), ("2C5", "2C4"), ("W4", "K1loop")]
    assert all(has_minor(named(host), named(target)) is not None for host, target in pairs)
    return bad, len(pairs)


def test_witness_checks_imply_realization(realized_witnesses):
    # each accepted witness was also realized by deletion, contraction and
    # isomorphism (the realized_witnesses fixture asserts it)
    bad, searched = _witness_corpus()
    assert bad == 4  # the quartet itself
    assert len(realized_witnesses) == bad + searched


def _mutations(g, target, w):
    """Invalid variants of a valid witness, each tagged with its kind."""
    sets, emap = dict(w.branch_sets), dict(w.edge_map)
    where = {x: t for t, vs in sets.items() for x in vs}
    for a, b in itertools.combinations(target.edge_list, 2):
        if set(target.ends(a)) != set(target.ends(b)):
            yield "edge map entries swapped", MinorWitness(sets, {**emap, a: emap[b], b: emap[a]})
            break
    # an end of a mapped edge moves to another branch set
    x = g.ends(emap[target.edge_list[0]])[0]
    for t in sets:
        if t != where[x]:
            moved = {**sets, where[x]: sets[where[x]] - {x}, t: sets[t] | {x}}
            yield "vertex moved", MinorWitness(moved, emap)
    # a branch set joined by a vertex with no edge to it
    for t, vs in sets.items():
        for y in g.vertex_list:
            if y not in vs and not any(z in vs for _, z in g.incident(y)):
                parted = {s: (vs | {y} if s == t else us - {y}) for s, us in sets.items()}
                yield "branch set disconnected", MinorWitness(parted, emap)
                break
    for e in sorted(branch_forest(g, sets))[:1]:
        yield "edge mapped onto the branch forest", MinorWitness(sets, {**emap, target.edge_list[0]: e})


def test_mutated_witnesses_rejected(realized_witnesses):
    _witness_corpus()
    kinds = set()
    for g, target, w in realized_witnesses:
        for kind, bad in _mutations(g, target, w):
            assert not verify_minor_witness(g, target, bad), (kind, bad.to_json())
            kinds.add(kind)
    assert len(kinds) == 4


# -- lifting ---------------------------------------------------------------------


def c332_witness_parts(g):
    six = [
        {"e12", "e23", "e31"},
        {"f12", "g23", "e31"},
        {"g12", "f23", "e31"},
        {"f12", "f23", "f31"},
        {"e12", "g23", "f31"},
        {"g12", "e23", "f31"},
    ]
    gains = {e: Z3.element([1]) for e in ("f12", "f23", "f31")}
    gains.update({e: Z3.element([2]) for e in ("g12", "g23")})
    return oriented_basis(g, six), gain_graph(g, Z3, gains).assignment


def test_lift_deletion_theta_chord():
    theta = Graph({"p1": ("a", "b"), "p2": ("a", "b"), "p3": ("a", "b")})
    sub = delete(theta, {"p3"})
    ob = oriented_basis(sub, [{"p1", "p2"}])
    ga = gain_graph(sub, Z3, {}).assignment
    ob2, ga2 = lift_basis_deletion(theta, {"p3"}, ob, ga)
    assert len(ob2.pairs) == 2
    assert is_cycle_basis(ob2.cycles, theta)


def test_lift_deletion_c332_into_c333():
    c333 = named("C3(3,3,3)")
    sub = delete(c333, {"g31"})
    ob, ga = c332_witness_parts(sub)
    ob2, ga2 = lift_basis_deletion(c333, {"g31"}, ob, ga)
    gg = GainGraph(c333, ga2)
    assert circle_test(gg, ob2.cycles)
    assert not is_balanced(gg).balanced


def test_lift_deletion_empty_identity():
    g = named("W4")
    basis = fundamental_circles(g, spanning_forest(g))
    ob = oriented_basis(g, [c.support for c in basis])
    ga = gain_graph(g, Z3, {}).assignment
    ob2, ga2 = lift_basis_deletion(g, set(), ob, ga)
    assert ob2.pairs == ob.pairs
    assert ga2.gains == ga.gains


def test_lift_deletion_solves_nonabelian_gains():
    from gainbalance.groups import free_on

    fg = free_on("a", "b")
    theta = Graph({"p1": ("a", "b"), "p2": ("a", "b"), "p3": ("a", "b")})
    sub = delete(theta, {"p3"})
    ob = oriented_basis(sub, [{"p1", "p2"}])
    word_a = fg.element([("a", 1)])
    ga = gain_graph(sub, fg, {"p1": word_a, "p2": word_a}).assignment
    assert walk_gain(GainGraph(sub, ga), ob.pairs[0][1]) == fg.identity()
    ob2, ga2 = lift_basis_deletion(theta, {"p3"}, ob, ga)
    gg = GainGraph(theta, ga2)
    for _, w in ob2.pairs:
        assert walk_gain(gg, w) == gg.group.identity()
    assert ga2.gains["p3"] == word_a  # solved in the free group


def test_lift_contraction_w4_from_k4_21(w4):
    reduced, _ = contract(w4, {"r1"})
    fb = fundamental_circles(reduced, spanning_forest(reduced))
    ob = oriented_basis(reduced, [c.support for c in fb])
    ga = gain_graph(reduced, Z3, {}).assignment
    ob2, ga2 = lift_basis_contraction(w4, {"r1"}, ob, ga)
    assert is_cycle_basis(ob2.cycles, w4)
    gg = GainGraph(w4, ga2)
    assert all(walk_gain(gg, w) == gg.group.identity() for w in ob2.walks)


def test_lift_contraction_identity():
    g = named("2C4")
    fb = fundamental_circles(g, spanning_forest(g))
    ob = oriented_basis(g, [c.support for c in fb])
    ga = gain_graph(g, Z3, {}).assignment
    ob2, ga2 = lift_basis_contraction(g, set(), ob, ga)
    assert ob2.cycles == ob.cycles


def test_lift_contraction_rejects_cycles():
    g = named("C3(1,1,1)")
    reduced, _ = contract(g, {"e12", "e23", "e31"})
    ob = oriented_basis(reduced, [])
    ga = gain_graph(reduced, Z3, {}).assignment
    with pytest.raises(GraphError):
        lift_basis_contraction(g, {"e12", "e23", "e31"}, ob, ga)


def test_lift_contraction_triangle_dimension_preserved():
    tri = named("C3(1,1,1)")
    reduced, _ = contract(tri, {"e12"})
    fb = fundamental_circles(reduced, spanning_forest(reduced))
    ob = oriented_basis(reduced, [c.support for c in fb])
    ga = gain_graph(reduced, Z3, {"e23": Z3.element([1])}).assignment
    ob2, ga2 = lift_basis_contraction(tri, {"e12"}, ob, ga)
    assert is_cycle_basis(ob2.cycles, tri)
    gg = GainGraph(tri, ga2)
    gg_red = GainGraph(reduced, ga)
    for (c1, w1), (c2, w2) in zip(ob.pairs, ob2.pairs):
        assert walk_gain(gg_red, w1) == walk_gain(gg, w2)


# -- random lifting property (the 500-triple acceptance runs the full count) -------


def random_lift_trial(rng):
    from gainbalance.classify import bad_witness
    from gainbalance.graphcore import NamedGraphSpec, LOOP_VERTEX, parse_graph_spec

    base_tags = ["C3(3,3,2)", "2C4", "K4dd", "W4"]
    tag = rng.choice(base_tags)
    w = bad_witness(parse_graph_spec(tag))
    g = w.gain_graph.graph
    if rng.random() < 0.5:
        # host = g plus random extra edges; lift along the deletion
        verts = list(g.vertex_list)
        extra = {}
        for i in range(rng.randrange(1, 4)):
            a, b = rng.choice(verts), rng.choice(verts)
            extra[f"x{i}"] = (a, b)
        host = Graph({**g.edges, **extra}, g.vertices)
        ob2, ga2 = lift_basis_deletion(host, set(extra), w.basis, w.gain_graph.assignment)
        return host, ob2, ga2, w.test
    # host = g with one vertex split; lift along the contraction
    v = rng.choice(list(g.vertex_list))
    incident = [e for e in g.edge_list if v in g.ends(e)]
    rng.shuffle(incident)
    moved = incident[: rng.randrange(0, len(incident) + 1)]
    edges = {}
    for e in g.edge_list:
        t, h = g.ends(e)
        if e in moved:
            t = v + "_s" if t == v else t
            h = v + "_s" if h == v else h
        edges[e] = (t, h)
    edges["tnew"] = (v, v + "_s")
    host = Graph(edges, g.vertices | {v + "_s"})
    ob2, ga2 = lift_basis_contraction(host, {"tnew"}, w.basis, w.gain_graph.assignment)
    return host, ob2, ga2, w.test


def test_lifted_witnesses_stay_bad_sample():
    rng = random.Random(424242)
    for _ in range(60):
        host, ob, ga, kind = random_lift_trial(rng)
        gg = GainGraph(host, ga)
        if kind == "circle":
            assert circle_test(gg, ob.cycles)
        else:
            assert binary_cycle_test(gg, ob)
        assert not is_balanced(gg).balanced


def test_lift_deletion_matches_the_per_edge_rebuild():
    # one least forest updated by swaps gives the circles and gains of a
    # forest rebuilt for every restored edge
    from classify_reference import reference_lift_basis_deletion
    from gainbalance.groups import free_on
    from test_gaingraph import random_element

    rng = random.Random(515)
    groups = (cyclic(5), free_on("a", "b"))
    for trial in range(150):
        core = _ear_host(rng, rng.randrange(3, 25))
        edges = dict(core.edges)
        verts = list(core.vertex_list) + ["p0", "p1"]  # p0, p1 may stay isolated or hang off
        for i in range(rng.randrange(0, 8)):
            edges[f"x{i}"] = (rng.choice(verts), rng.choice(verts))  # loops and parallels too
        g = Graph(edges, verts)
        s = {e for e in g.edge_list if rng.random() < 0.4}
        reduced = delete(g, s)
        ob = oriented_basis(reduced, [c.support for c in fundamental_circles(reduced, spanning_forest(reduced))])
        grp = groups[trial % 2]
        ga = gain_graph(reduced, grp, {e: random_element(grp, rng) for e in reduced.edge_list}).assignment
        got = lift_basis_deletion(g, s, ob, ga)
        ref = reference_lift_basis_deletion(g, s, ob, ga)
        assert got[0].pairs == ref[0].pairs, (sorted(g.edges.items()), sorted(s))
        assert got[1] == ref[1]
        assert len(got[0].pairs) == cycle_space_dimension(g)


# -- extrusion ----------------------------------------------------------------------


def test_extrude_multik2_gives_circle_multi():
    mk5 = named("mK2(5)")
    out = extrude(mk5, "u", "v", ["e4", "e5"])
    assert is_isomorphic(out, named("C3(3,2,1)"))


def test_extrude_single_edge_is_subdivision():
    g = Graph({"e": ("a", "b")})
    out = extrude(g, "a", "b", ["e"])
    assert len(out.vertex_list) == 3
    assert sorted(out.degree(v) for v in out.vertex_list) == [1, 2, 1][::-1] or True
    assert sorted(out.degree(v) for v in out.vertex_list) == [1, 1, 2]


def test_extrude_validation(w4):
    with pytest.raises(GraphError):
        extrude(w4, "w", "w", ["s1"])
    with pytest.raises(GraphError):
        extrude(w4, "w", "v1", [])
    with pytest.raises(GraphError):
        extrude(w4, "w", "v1", ["r2"])


def test_extrusion_preserves_forbidden_minor_absence():
    # extruding a minor-free graph stays minor-free for the quartet
    quartet = [named(t) for t in ("C3(3,3,2)", "2C4", "K4dd", "W4")]
    g = named("C3(4,2,2)")
    assert all(has_minor(g, t) is None for t in quartet)
    out = extrude(g, "v1", "v2", list(g.edges_between("v1", "v2"))[:2])
    assert all(has_minor(out, t) is None for t in quartet)


def test_reverse_extrusion_fan():
    fan = named("Fan(1;1,1)")
    base, steps = reverse_extrusion_reduce(fan)
    assert is_isomorphic(base, named("mK2(3)"))
    assert verify_reverse_steps(fan, base, steps)


def test_reverse_extrusion_fan_general():
    fan = named("Fan(2;1,3)")
    base, steps = reverse_extrusion_reduce(fan)
    assert is_isomorphic(base, named("mK2(6)"))
    assert verify_reverse_steps(fan, base, steps)


def test_reverse_extrusion_wheel_irreducible(w4):
    base, steps = reverse_extrusion_reduce(w4)
    assert steps == ()
    assert base == w4
    assert is_extrusion_irreducible(w4)


def test_reverse_extrusion_subdivided_k4():
    g = Graph(
        {
            "e1": ("a", "b"),
            "p1": ("a", "m"),
            "p2": ("m", "c"),
            "e3": ("b", "c"),
            "e4": ("a", "d"),
            "e5": ("b", "d"),
            "e6": ("c", "d"),
        }
    )
    base, steps = reverse_extrusion_reduce(g)
    assert is_isomorphic(base, named("K4(1,1)"))
    assert verify_reverse_steps(g, base, steps)


def test_reverse_extrusion_prefers_requested_base():
    fan = named("Fan(1;1,1)")
    target = named("mK2(3)")
    base, steps = reference_reverse_extrusion_reduce(fan, accept=lambda h: is_isomorphic(h, target))
    assert is_isomorphic(base, target)
    base, steps = reverse_extrusion_reduce(fan)
    assert is_isomorphic(base, target)


def _ear_host(rng, m):
    """Random inseparable loopless multigraph with ``m`` edges, built by open
    ear decomposition from a circle of two to four edges."""
    length = rng.randrange(2, 5)
    edges = [(i, (i + 1) % length) for i in range(length)]
    n = length
    while len(edges) < m:
        ear = min(rng.randrange(1, 4), m - len(edges))
        u, v = rng.sample(range(n), 2)
        path = [u] + list(range(n, n + ear - 1)) + [v]
        n += ear - 1
        edges += list(zip(path, path[1:]))
    return Graph({f"e{i}": (f"y{a}", f"y{b}") for i, (a, b) in enumerate(edges)})


def _extrusion_chain(rng, tag, steps):
    """Apply ``steps`` random extrusions to the named base ``tag``.

    Makes the choices of :func:`_extrusion_chain_by_extrude` but extrudes on
    an edge map, keeping the sorted edge ids and each end pair's sorted
    edges, and builds one Graph at the end."""
    g = named(tag)
    edges, vertices, edge_list = dict(g.edges), set(g.vertices), list(g.edge_list)
    between: dict[frozenset, list] = {}
    for e in edge_list:
        between.setdefault(frozenset(edges[e]), []).append(e)
    for _ in range(steps):
        v, w = rng.sample(edges[rng.choice(edge_list)], 2)
        pair = between[frozenset((v, w))]
        moved = rng.sample(pair, rng.randrange(1, len(pair) + 1))
        prime = v + "'"
        while prime in vertices:
            prime += "'"
        counter = 0
        while f"ext{counter}_{v}" in edges:
            counter += 1
        new_edge = f"ext{counter}_{v}"
        for e in moved:
            t, h = edges[e]
            edges[e] = (prime, h) if t == v else (t, prime)
            pair.remove(e)
        between[frozenset((prime, w))] = sorted(moved)
        between[frozenset((v, prime))] = [new_edge]
        edges[new_edge] = (v, prime)
        bisect.insort(edge_list, new_edge)
        vertices.add(prime)
    return Graph(edges, vertices)


def _extrusion_chain_by_extrude(rng, tag, steps):
    """:func:`_extrusion_chain` by repeated :func:`extrude`, which copies
    the whole graph at each step."""
    g = named(tag)
    for _ in range(steps):
        e = rng.choice(g.edge_list)
        v, w = rng.sample(g.ends(e), 2)
        between = g.edges_between(v, w)
        g = extrude(g, v, w, rng.sample(between, rng.randrange(1, len(between) + 1)))
    return g


def _reduction_corpus():
    """Loopless inseparable multigraphs with up to 9 edges, random ear hosts
    and short random extrusion chains."""
    rng = random.Random(2002)
    hosts = [g for g in inseparable_multigraphs(9) if not any(g.is_loop(e) for e in g.edge_list)]
    hosts += [_ear_host(rng, rng.randrange(8, 17)) for _ in range(60)]
    for tag in ("mK2(3)", "mK2(4)", "C3(2,2,2)", "C3(3,2,2)", "K4(1,1)", "K4(2,1)"):
        hosts += [_extrusion_chain(rng, tag, rng.randrange(4, 11)) for _ in range(10)]
    return hosts


def test_reverse_extrusion_matches_exhaustive_reference():
    for g in _reduction_corpus():
        end, steps = reverse_extrusion_reduce(g)
        ref_end, ref_steps = reference_reverse_extrusion_reduce(g, accept=_match_base)
        assert _match_base(end) == _match_base(ref_end)
        assert end.edges == ref_end.edges
        assert steps == ref_steps


def _perturbed_steps(h, step):
    """Every variant of a reverse step of ``h`` that differs in one field,
    or by one edge dropped from or added to its returned edges."""
    for x in (*h.vertex_list, "nowhere"):
        yield from (dataclasses.replace(step, **{f: x}) for f in ("vertex", "kept", "other") if getattr(step, f) != x)
    for e in h.edge_list:
        if e != step.edge:
            yield dataclasses.replace(step, edge=e)
        if e not in step.returned_edges:
            yield dataclasses.replace(step, returned_edges=tuple(sorted((*step.returned_edges, e))))
    for e in step.returned_edges:
        yield dataclasses.replace(step, returned_edges=tuple(f for f in step.returned_edges if f != e))


def test_reduction_logs_verify_and_perturbed_logs_do_not():
    checked = 0
    for n, g in enumerate(_reduction_corpus()):
        end, steps = reverse_extrusion_reduce(g)
        assert verify_reverse_steps(g, end, steps)
        if not steps or n % 3:
            continue
        # the log undoes by extrusion too; one of its steps is perturbed
        assert extruded_reverse_steps(g, end, steps)
        i = n % len(steps)
        h = g
        for step in steps[:i]:
            h, _ = contract(h, {step.edge})
        for bad in _perturbed_steps(h, steps[i]):
            assert not verify_reverse_steps(g, end, (*steps[:i], bad, *steps[i + 1:])), (i, bad)
            checked += 1
    assert checked > 1000


def test_reduction_log_verifies_quickly_on_a_long_chain():
    # each step is checked on its neighbourhood; isomorphism is tested once
    g = _extrusion_chain(random.Random(300), "K4(1,1)", 300)
    assert g == _extrusion_chain_by_extrude(random.Random(300), "K4(1,1)", 300)
    end, steps = reverse_extrusion_reduce(g)
    assert len(steps) == 300
    start = time.perf_counter()
    assert verify_reverse_steps(g, named("K4(1,1)"), steps)
    assert time.perf_counter() - start < 0.5
    assert not verify_reverse_steps(g, named("K4(2,1)"), steps)


def test_reduction_log_verifies_in_linear_time():
    # the steps contract in place, so the check is linear in the log
    g = _extrusion_chain(random.Random(2000), "K4(1,1)", 2000)
    end, steps = reverse_extrusion_reduce(g)
    assert len(steps) == 2000
    start = time.perf_counter()
    assert verify_reverse_steps(g, named("K4(1,1)"), steps)
    assert not verify_reverse_steps(g, named("W4"), steps)
    assert not verify_reverse_steps(g, named("K4(1,1)"), steps[:-1])
    assert time.perf_counter() - start < 0.5


def test_reverse_extrusion_matches_first_move_loop():
    # the heap-driven reduction takes the steps of the whole-graph rescan loop
    rng = random.Random(12)
    hosts = [g for g in inseparable_multigraphs(9) if not any(g.is_loop(e) for e in g.edge_list)]
    hosts += [_ear_host(rng, rng.randrange(8, 40)) for _ in range(20)]
    for tag in ("K4(1,1)", "W4", "C3(2,2,2)"):
        hosts += [_extrusion_chain(rng, tag, rng.randrange(1, 150)) for _ in range(8)]
    hosts.append(Graph(dict(hosts[-1].edges), hosts[-1].vertices | {"isolated"}))
    for g in hosts:
        end, steps = reverse_extrusion_reduce(g)
        ref_end, ref_steps = first_move_reverse_extrusion_reduce(g)
        assert [dataclasses.astuple(s) for s in steps] == [dataclasses.astuple(s) for s in ref_steps]
        assert end.edges == ref_end.edges
        assert end.vertex_list == ref_end.vertex_list


def test_reverse_extrusion_linear_on_long_chains():
    g = _extrusion_chain(random.Random(2000), "K4(1,1)", 2000)
    start = time.perf_counter()
    end, steps = reverse_extrusion_reduce(g)
    assert time.perf_counter() - start < 1.0
    assert len(steps) == 2000
    assert _match_base(end) == _match_base(named("K4(1,1)"))


def test_extrusion_irreducible_matches_reverse_moves():
    # looped graphs included: a vertex with a loop never has a reverse step
    for g in all_multigraphs(6):
        assert is_extrusion_irreducible(g) == (not reverse_moves(g)), sorted(g.edges.items())


def test_decomposition_single_path_on_large_hosts():
    # W8 with every rim edge subdivided three times: 40 edges and bad; a
    # search over every reduction order runs for over a minute here
    w8 = named("W8")
    edges = {e: ends for e, ends in w8.edges.items() if e.startswith("s")}
    for e, (a, b) in w8.edges.items():
        if e.startswith("r"):
            path = [a, f"{e}a", f"{e}b", f"{e}c", b]
            edges.update({f"{e}_{i}": pair for i, pair in enumerate(zip(path, path[1:]))})
    g = Graph(edges)
    assert len(g.edge_list) == 40
    start = time.perf_counter()
    assert structural_decomposition(g) is None
    assert time.perf_counter() - start < 1.0
    d = structural_decomposition(_extrusion_chain(random.Random(60), "K4(1,1)", 60))
    assert d is not None
    for blk in d.blocks:
        assert verify_reverse_steps(blk.block, build_named(blk.base), blk.steps)


# -- Whitney twist --------------------------------------------------------------------


def bridge_edge_sets(g, u, v):
    return [frozenset(b.subgraph.edge_list) for b in bridges_of_pair(g, u, v).bridges]


def test_twist_involution(g2c4):
    rng = random.Random(8)
    gg = gain_graph(g2c4, Z3, {e: rng.choice(Z3.elements()) for e in g2c4.edge_list})
    side = bridge_edge_sets(g2c4, "v1", "v3")[0]
    once = whitney_twist(gg, "v1", "v3", side)
    twice = whitney_twist(once, "v1", "v3", side)
    assert twice.graph.edges == gg.graph.edges
    assert twice.assignment.gains == gg.assignment.gains


def test_twist_preserves_balance_random():
    rng = random.Random(99)
    hosts = []
    g2c4 = named("2C4")
    hosts.append((g2c4, "v1", "v3"))
    theta = Graph({"p1": ("a", "b"), "p2": ("a", "b"), "p3": ("a", "b"), "q1": ("a", "c"), "q2": ("c", "b")})
    hosts.append((theta, "a", "b"))
    for g, u, v in hosts:
        sides = bridge_edge_sets(g, u, v)
        for _ in range(50):
            gg = gain_graph(g, Z3, {e: rng.choice(Z3.elements()) for e in g.edge_list})
            k = rng.randrange(1, len(sides))
            side = frozenset().union(*rng.sample(sides, k))
            tw = whitney_twist(gg, u, v, side)
            assert is_balanced(gg).balanced == is_balanced(tw).balanced


def test_twist_preserves_circle_basis_balance(g2c4):
    rng = random.Random(7)
    side = bridge_edge_sets(g2c4, "v1", "v3")[0]
    for _ in range(25):
        gg = gain_graph(g2c4, Z3, {e: rng.choice(Z3.elements()) for e in g2c4.edge_list})
        tw = whitney_twist(gg, "v1", "v3", side)
        circles_before = enumerate_circles(gg.graph)
        balance_before = {c.support: walk_gain(gg, c.walk) == gg.group.identity() for c in circles_before}
        for c in enumerate_circles(tw.graph):
            w = circle_from_support(tw.graph, c.support)
            assert (walk_gain(tw, w.walk) == tw.group.identity()) == balance_before[c.support]


def reference_two_separation(g):
    """The first vertex pair with two non-edge bridges, by classifying every
    bridge of every pair."""
    for u, v in itertools.combinations(g.vertex_list, 2):
        if sum(b.kind != EDGE_BRIDGE for b in bridges_of_pair(g, u, v).bridges) >= 2:
            return (u, v)
    return None


def test_separation_and_twist_match_bridge_classification():
    # every inseparable multigraph with up to 8 edges and every multigraph
    # with up to 6 edges; at a separating pair, each union of a proper prefix
    # of the bridges is twisted, and the union of all bridges is refused
    rng = random.Random(23)
    corpus = list(inseparable_multigraphs(8)) + list(all_multigraphs(6))
    twisted = 0
    for g in corpus:
        pair = reference_two_separation(g)
        assert has_two_separation(g) == pair
        if pair is None:
            continue
        u, v = pair
        sides = bridge_edge_sets(g, u, v)
        gg = gain_graph(g, Z3, {e: rng.choice(Z3.elements()) for e in g.edge_list})
        with pytest.raises(GraphError):
            whitney_twist(gg, u, v, frozenset().union(*sides))
        swap = {u: v, v: u}
        for k in range(1, len(sides)):
            side = frozenset().union(*sides[:k])
            tw = whitney_twist(gg, u, v, side)
            for e in g.edge_list:
                t, h = g.ends(e)
                x = gg.assignment.gains[e]
                if e in side:
                    t, h, x = swap.get(t, t), swap.get(h, h), Z3.inverse(x)
                assert tw.graph.ends(e) == (t, h) and tw.assignment.gains[e] == x
            twisted += 1
    assert len(corpus) == 1538
    assert twisted > 100


def test_twist_validation(w4, g2c4):
    gg = gain_graph(g2c4, Z3, {})
    with pytest.raises(GraphError):
        whitney_twist(gg, "v1", "v3", set(g2c4.edge_list))  # total
    with pytest.raises(GraphError):
        whitney_twist(gg, "v1", "v3", {"e1"})  # not a union of bridges
    single = gain_graph(Graph({"e": ("a", "b")}), Z3, {})
    with pytest.raises(GraphError):
        whitney_twist(single, "a", "b", {"e"})  # fewer than two bridges


# -- bridges --------------------------------------------------------------------------


def test_bridges_2c4_antipodal(g2c4):
    report = bridges_of_pair(g2c4, "v1", "v3")
    kinds = sorted(b.kind for b in report.bridges)
    assert kinds == [TYPE_II, TYPE_II]


def test_bridges_k4():
    k4 = named("K4(1,1)")
    report = bridges_of_pair(k4, "v1", "v2")
    kinds = sorted(b.kind for b in report.bridges)
    assert kinds == [EDGE_BRIDGE, TYPE_II]


def test_bridges_path_plus_edge():
    g = Graph({"e1": ("u", "x"), "e2": ("x", "v"), "euv": ("u", "v")})
    report = bridges_of_pair(g, "u", "v")
    by_kind = {b.kind: b for b in report.bridges}
    assert set(by_kind) == {EDGE_BRIDGE, TYPE_I}
    assert by_kind[TYPE_I].separating_vertex == "x"


def test_bridges_partition_edges(w4):
    report = bridges_of_pair(w4, "w", "v1")
    all_edges = sorted(e for b in report.bridges for e in b.subgraph.edge_list)
    assert all_edges == sorted(w4.edge_list)


def test_bridges_loop_at_pair_is_edge_bridge():
    g = Graph({"l": ("u", "u"), "e1": ("u", "x"), "e2": ("x", "v"), "e3": ("u", "v")})
    report = bridges_of_pair(g, "u", "v")
    kinds = sorted(b.kind for b in report.bridges)
    assert kinds == [EDGE_BRIDGE, EDGE_BRIDGE, TYPE_I]


def test_at_most_one_type_ii_without_2c4_minor():
    import itertools

    for tag in ("W4", "K4(3,2)", "C3(4,2,2)", "Fan(2;1,3)", "K4dd", "C3(3,3,2)"):
        g = named(tag)
        if has_minor(g, named("2C4")) is not None:
            continue
        for u, v in itertools.combinations(g.vertex_list, 2):
            report = bridges_of_pair(g, u, v)
            assert sum(1 for b in report.bridges if b.kind == TYPE_II) <= 1, (tag, u, v)


def test_bridge_types_match_rooted_search():
    # every bridge of every vertex pair of every connected multigraph with up
    # to 6 edges, loops included; 2,368 bridges have both ends attached
    levels = connected_multigraphs(6)
    attached = 0
    for g in (materialize(c) for level in levels[1:] for c in level):
        for u, v in itertools.combinations(g.vertex_list, 2):
            got, ref = bridges_of_pair(g, u, v).bridges, rooted_bridges_of_pair(g, u, v).bridges
            assert [b.subgraph for b in got] == [b.subgraph for b in ref]
            assert [(b.kind, b.separating_vertex) for b in got] == [
                (b.kind, b.separating_vertex) for b in ref
            ], (sorted(g.edges.items()), u, v)
            attached += sum(b.kind != EDGE_BRIDGE and {u, v} <= b.subgraph.vertices for b in ref)
    assert attached == 2368


def test_bridges_of_every_grid_pair_without_search():
    # a rooted 2P2 search per bridge is exponential in the bridge
    g = named("Grid(4,4)")
    start = time.perf_counter()
    reports = [bridges_of_pair(g, u, v) for u, v in itertools.combinations(g.vertex_list, 2)]
    assert time.perf_counter() - start < 2.0
    type_i = {r.pair: b.separating_vertex for r in reports for b in r.bridges if b.kind == TYPE_I}
    assert type_i == {
        ("n0_1", "n1_0"): "n0_0",
        ("n0_3", "n1_4"): "n0_4",
        ("n3_0", "n4_1"): "n4_0",
        ("n3_4", "n4_3"): "n4_4",
    }


def test_two_separation_detection(w4, g2c4):
    assert has_two_separation(g2c4) == ("v1", "v3")
    assert has_two_separation(w4) is None
    assert has_two_separation(named("C3(5,2,2)")) is None
    assert has_two_separation(named("Fan(1;1,1)")) is not None
