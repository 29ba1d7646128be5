import collections
import functools
import itertools
import operator
import random

import pytest

from gainbalance import gaingraph
from gainbalance.balancetests import basis_gains
from gainbalance.cyclespace import (
    OrientedBasis,
    circle_from_support,
    enumerate_circles,
    fundamental_circles,
    is_cycle_basis,
)
from gainbalance.enumeration import connected_multigraphs, inseparable_multigraphs, materialize
from gainbalance.errors import GraphError, ParseError
from gainbalance.gaingraph import (
    GainGraph,
    Switching,
    gain_graph,
    gains_to_text,
    is_balanced,
    parse_gain_text,
    switch,
    switch_to_forest,
    walk_gain,
    walk_product,
)
from gainbalance.graphcore import ClosedWalk, Graph, RootedForest, components, spanning_forest
from gainbalance.groups import FreeGroup, abelian_product, cyclic, free_on, symmetric
from conftest import named, triangle
from cyclespace_reference import reference_cyclic_orientations
from gain_reference import reference_is_balanced, reference_walk_gain


Z3 = cyclic(3)


def c332_example_gains():
    g = named("C3(3,3,2)")
    gains = {e: Z3.element([1]) for e in ("f12", "f23", "f31")}
    gains.update({e: Z3.element([2]) for e in ("g12", "g23")})
    return gain_graph(g, Z3, gains)


def random_gain_graph(g, group, rng):
    els = group.elements()
    return gain_graph(g, group, {e: rng.choice(els) for e in g.edge_list})


# -- walk gains ----------------------------------------------------------------


def test_loop_walk_gain():
    k1 = named("K1loop")
    gg = gain_graph(k1, Z3, {"e": Z3.element([1])})
    w = ClosedWalk("v", (("e", True),) * 3)
    assert walk_gain(gg, w) == gg.group.identity()
    single = ClosedWalk("v", (("e", True),))
    assert walk_gain(gg, single) != gg.group.identity()


def test_reversed_walk_inverse_gain():
    g = triangle()
    gg = gain_graph(g, Z3, {"e1": Z3.element([1]), "e2": Z3.element([1])})
    w = circle_from_support(g, {"e1", "e2", "e3"}).walk
    fwd = walk_gain(gg, w)
    assert walk_gain(gg, w.reversed()) == Z3.element([-fwd[0]])


def test_identity_gains_walks():
    g = named("W4")
    gg = gain_graph(g, Z3, {})
    for c in enumerate_circles(g):
        assert walk_gain(gg, c.walk) == gg.group.identity()


def test_walk_gain_concatenation():
    g = named("mK2(3)")
    rng = random.Random(11)
    gg = random_gain_graph(g, Z3, rng)
    w1 = ClosedWalk("u", (("e1", True), ("e2", False)))
    w2 = ClosedWalk("u", (("e2", True), ("e3", False)))
    assert walk_gain(gg, ClosedWalk(w1.start, w1.steps + w2.steps)) == Z3.op(walk_gain(gg, w1), walk_gain(gg, w2))


def test_invalid_walk_rejected():
    g = triangle()
    gg = gain_graph(g, Z3, {})
    with pytest.raises(GraphError):
        walk_gain(gg, ClosedWalk("a", (("e2", True),)))


def test_walk_gain_checks_the_walks_walk_product_trusts():
    # basis walks are multiplied by walk_product without a second check;
    # walk_gain still rejects a walk that is not a closed walk of the graph
    g = triangle()
    gg = gain_graph(g, Z3, {"e1": Z3.element([1])})
    outside = ClosedWalk("a", (("zz", True), ("e3", False)))
    open_walk = ClosedWalk("a", (("e1", True), ("e2", True)))
    for w in (outside, open_walk):
        with pytest.raises(GraphError):
            walk_gain(gg, w)
    rim = circle_from_support(g, {"e1", "e2", "e3"}).walk
    for w in (rim, rim.reversed()):
        assert walk_product(gg, w) == walk_gain(gg, w) != Z3.identity()


WALK_GROUPS = (Z3, abelian_product(2, 3), free_on("a", "b"), symmetric(3), symmetric(4))


def random_closed_walks(g, rng):
    """Canonical circle walks, linked Euler walks of random binary cycles in
    each component, k-fold loop walks, the reverses of all of these, and the
    trivial walk at every vertex."""
    walks = [c.walk for c in enumerate_circles(g)]
    members = [c.support for c in fundamental_circles(g, spanning_forest(g))]
    for comp in components(g):
        local = [m for m in members if g.ends(min(m))[0] in comp]
        for _ in range(3):
            support = functools.reduce(operator.xor, [m for m in local if rng.random() < 0.5], frozenset())
            if support:
                walks += reference_cyclic_orientations(support, g)
    for e in g.edge_list:
        if g.is_loop(e):
            walks.append(ClosedWalk(g.ends(e)[0], ((e, rng.random() < 0.5),) * rng.randint(2, 5)))
    walks += [w.reversed() for w in walks]
    return walks + [ClosedWalk(v) for v in g.vertex_list]


def test_walk_products_match_step_by_step_reference():
    rng = random.Random(71)
    walks_seen = nontrivial = 0
    for trial in range(300):
        group = WALK_GROUPS[trial % len(WALK_GROUPS)]
        g = random_multigraph(rng)
        gg = gain_graph(g, group, {e: random_element(group, rng) for e in g.edge_list})
        for w in random_closed_walks(g, rng):
            want = reference_walk_gain(gg, w)
            assert walk_product(gg, w) == walk_gain(gg, w) == want, (trial, w)
            walks_seen += 1
            nontrivial += want != group.identity()
    assert walks_seen > 8000 and nontrivial > 5000


def test_basis_gains_match_step_by_step_reference():
    # bases of circles and of sums of circles in one component, each member
    # with one of its cyclic orientations, forward or reversed
    rng = random.Random(73)
    for trial in range(150):
        group = WALK_GROUPS[trial % len(WALK_GROUPS)]
        g = random_multigraph(rng)
        gg = gain_graph(g, group, {e: random_element(group, rng) for e in g.edge_list})
        comp = {v: i for i, vs in enumerate(components(g)) for v in vs}
        members = [c.support for c in fundamental_circles(g, spanning_forest(g))]
        for i in range(len(members)):
            for j in range(i):
                if rng.random() < 0.3 and comp[g.ends(min(members[i]))[0]] == comp[g.ends(min(members[j]))[0]]:
                    members[i] ^= members[j]
        walks = [rng.choice(reference_cyclic_orientations(m, g)) for m in members]
        walks = [w.reversed() if rng.random() < 0.5 else w for w in walks]
        ob = OrientedBasis(tuple(zip(members, walks)), g)
        assert basis_gains(gg, ob) == [reference_walk_gain(gg, w) for w in walks]


def _outcome(check):
    """("ok", the check's value), or ("raise", the message of its GraphError)."""
    try:
        return "ok", check()
    except GraphError as exc:
        return "raise", str(exc)


def test_basis_gains_checks_the_basis_as_is_cycle_basis_does():
    # basis_gains checks the basis in chord coordinates and trusts the walks
    # for evenness; on seeded oriented bases of the enumeration corpus and of
    # random hosts (several components, isolated vertices, loops, parallel
    # edges) it must accept or raise as is_cycle_basis does, with the same
    # messages: a valid basis, one member replaced by the sum of two others,
    # one missing, one extra, and a hand-built member with an edge outside
    # the host
    rng = random.Random(97)
    hosts = [materialize(c) for level in connected_multigraphs(5) for c in level]
    hosts += inseparable_multigraphs(6) + tuple(random_multigraph(rng) for _ in range(200))
    seen = collections.Counter()
    for trial, g in enumerate(hosts):
        group = WALK_GROUPS[trial % len(WALK_GROUPS)]
        gg = gain_graph(g, group, {e: random_element(group, rng) for e in g.edge_list})
        # a closed walk stays in one component, so members are summed only within one
        comp = {v: i for i, vs in enumerate(components(g)) for v in vs}
        basis = [c.support for c in fundamental_circles(g, spanning_forest(g))]
        where = [comp[g.ends(min(m))[0]] for m in basis]
        for i in range(len(basis)):
            for j in range(i):
                if rng.random() < 0.3 and where[i] == where[j]:
                    basis[i] ^= basis[j]
        variants = {"valid": basis}
        triples = [(i, j, k) for i, j, k in itertools.permutations(range(len(basis)), 3) if where[j] == where[k]]
        if triples:
            i, j, k = rng.choice(triples)
            variants["sum of two others"] = basis[:i] + [basis[j] ^ basis[k]] + basis[i + 1 :]
        if basis:
            i, j = rng.randrange(len(basis)), rng.randrange(len(basis))
            variants["missing"] = basis[:i] + basis[i + 1 :]
            variants["extra"] = basis + [basis[i] ^ basis[j] if i != j and where[i] == where[j] else basis[i]]
        for kind, members in variants.items():
            walks = [rng.choice(reference_cyclic_orientations(m, g)) for m in members]
            pairs = [(m, w.reversed() if rng.random() < 0.5 else w) for m, w in zip(members, walks)]
            obs = {kind: OrientedBasis(tuple(pairs), g)}
            if pairs:
                i = rng.randrange(len(pairs))
                pairs[i] = (pairs[i][0] | {"zz"}, pairs[i][1])
                obs["outside"] = OrientedBasis(tuple(pairs), g)
            for name, ob in obs.items():
                want = _outcome(lambda: is_cycle_basis(ob.cycles, g))
                got = _outcome(lambda: basis_gains(gg, ob))
                if want == ("ok", True):
                    assert got == ("ok", [reference_walk_gain(gg, w) for w in ob.walks]), (trial, name)
                elif want == ("ok", False):
                    assert got == ("raise", "oriented cycles do not form a basis"), (trial, name)
                else:
                    assert got == want, (trial, name)
                seen[name, want[1]] += 1
    assert set(seen) == {
        ("valid", True),
        ("sum of two others", False),
        ("missing", False),
        ("extra", False),
        ("outside", "basis member uses edges outside the host graph"),
    }, seen
    assert min(seen.values()) >= 100, seen


class CountingGroup:
    """``group`` with its ``op`` and ``inverse`` calls counted."""

    def __init__(self, group):
        self.group = group
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.group, name)

    def op(self, x, y):
        self.calls += 1
        return self.group.op(x, y)

    def inverse(self, x):
        self.calls += 1
        return self.group.inverse(x)


@pytest.mark.parametrize("group", [abelian_product(2, 3), free_on("a", "b"), symmetric(4)], ids=str)
def test_walk_product_costs_only_chord_steps(group, monkeypatch):
    # a fundamental circle costs one chord step and a conjugation, however
    # long its forest path; is_balanced builds no switched gain graph
    def unused(*args):
        raise AssertionError("switched gain graph built")

    monkeypatch.setattr(gaingraph, "switch", unused)
    monkeypatch.setattr(gaingraph, "switch_to_forest", unused)
    rng = random.Random(79)
    counting = CountingGroup(group)
    for tag in ("W40", "Grid(6,6)"):
        g = named(tag)
        gg = gain_graph(g, counting, {e: random_element(group, rng) for e in g.edge_list})
        forest = spanning_forest(g)
        counting.calls = 0
        res = is_balanced(gg)
        chords = len(g.edge_list) - len(forest)
        # f and f^-1 along each forest edge, one switched gain per chord, the certificate
        assert counting.calls <= 3 * len(forest) + 2 * chords + 3
        assert res == reference_is_balanced(gain_graph(g, group, gg.assignment.gains))
        per_circle = 1 if group.is_abelian else 3
        circles = fundamental_circles(g, forest)
        assert max(map(len, circles)) >= 12
        for c in circles:
            for w in (c.walk, c.walk.reversed()):
                want = reference_walk_gain(gg, w)
                counting.calls = 0
                assert walk_product(gg, w) == want
                assert counting.calls <= per_circle
        tree = RootedForest(g, forest)
        out_and_back = tree.path(g.vertex_list[0], g.vertex_list[-1])
        counting.calls = 0
        back = [(e, not forward) for e, forward in reversed(out_and_back)]
        walk_product(gg, ClosedWalk(g.vertex_list[0], (*out_and_back, *back)))
        assert counting.calls == 0


# -- switching -------------------------------------------------------------------


def test_identity_switching_fixed_point():
    gg = c332_example_gains()
    f = Switching({v: Z3.identity() for v in gg.graph.vertex_list})
    assert switch(gg, f).assignment.gains == gg.assignment.gains


def test_switching_preserves_circle_balance():
    rng = random.Random(23)
    for tag in ("W4", "C3(3,3,2)", "2C4"):
        g = named(tag)
        circles = enumerate_circles(g)
        for group in (Z3, cyclic(4), abelian_product(2, 2)):
            gg = random_gain_graph(g, group, rng)
            before = [walk_gain(gg, c.walk) == gg.group.identity() for c in circles]
            for _ in range(10):
                f = Switching({v: rng.choice(group.elements()) for v in g.vertex_list})
                after = [walk_gain(switch(gg, f), c.walk) == group.identity() for c in circles]
                assert before == after


def test_switching_missing_vertex():
    gg = c332_example_gains()
    with pytest.raises(GraphError):
        switch(gg, Switching({"v1": Z3.identity()}))


def test_switch_to_forest_identity_gains():
    rng = random.Random(5)
    for tag in ("W4", "2C4", "Fan(2;1,3)"):
        g = named(tag)
        forest = spanning_forest(g)
        gg = random_gain_graph(g, Z3, rng)
        switched, f = switch_to_forest(gg, forest)
        assert all(switched.assignment.gains[e] == Z3.identity() for e in forest)
        assert switch(gg, f).assignment.gains == switched.assignment.gains


def test_switch_to_forest_already_identity():
    g = named("W4")
    spokes = frozenset({"s1", "s2", "s3", "s4"})
    gains = {f"r{i}": Z3.element([1]) for i in range(1, 5)}
    gg = gain_graph(g, Z3, gains)
    switched, f = switch_to_forest(gg, spokes)
    assert all(x == Z3.identity() for x in f.values.values())
    assert switched.assignment.gains == gg.assignment.gains


def test_gain_concentrates_on_chord():
    g = triangle()
    gg = gain_graph(g, Z3, {"e1": Z3.element([1])})
    switched, _ = switch_to_forest(gg, spanning_forest(g))
    chord = next(iter(set(g.edge_list) - spanning_forest(g)))
    assert switched.assignment.gains[chord] != Z3.identity()


def test_forest_switching_belongs_to_each_gain_graph():
    # a switched copy and a second assignment on the same Graph each solve
    # their own switching, the one switch_to_forest returns
    rng = random.Random(83)
    group = symmetric(3)
    g = named("W5")
    a, b = (gain_graph(g, group, {e: random_element(group, rng) for e in g.edge_list}) for _ in range(2))
    c = switch(a, Switching({v: random_element(group, rng) for v in g.vertex_list}))
    assert is_balanced(a) == reference_is_balanced(a)
    assert a.forest_switching is a.forest_switching
    assert len({id(gg.forest_switching) for gg in (a, b, c)}) == 3
    assert a.forest_switching.values != c.forest_switching.values
    forest = spanning_forest(g)
    for gg in (a, b, c):
        switched, f = switch_to_forest(gg, forest)
        sw = gg.forest_switching
        assert sw.values == f.values
        assert all(group.op(sw.values[v], sw.inverses[v]) == group.identity() for v in g.vertex_list)
        assert sw.chord_gains == {e: x for e, x in switched.assignment.gains.items() if x != group.identity()}
        assert is_balanced(gg) == reference_is_balanced(gg)
        for circle in enumerate_circles(g):
            assert walk_product(gg, circle.walk) == reference_walk_gain(gg, circle.walk)


# -- balance ---------------------------------------------------------------------


def test_forest_always_balanced():
    g = Graph({"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("d", "e")})
    fg = free_on("a", "b")
    for group, x in ((Z3, Z3.element([1])), (fg, fg.element([("a", 1)]))):
        assert is_balanced(gain_graph(g, group, {"e1": x})).balanced


def test_c332_example_unbalanced_with_certificate():
    res = is_balanced(c332_example_gains())
    assert not res.balanced
    # least-identifier unbalanced fundamental circle for the sorted-id forest
    # {e12, e23}: the digon on the parallel class of e12
    assert res.certificate.support == {"e12", "f12"}
    assert res.certificate_gain != Z3.identity()


def test_identity_gains_balanced():
    for tag in ("W4", "2C4", "K4dd"):
        assert is_balanced(gain_graph(named(tag), Z3, {})).balanced


def test_balance_matches_all_circles():
    # spans edge counts up to the ten-edge wheel
    rng = random.Random(31)
    for tag in ("C3(2,2,1)", "K4(1,1)", "mK2(4)", "2C4", "W5"):
        g = named(tag)
        circles = enumerate_circles(g)
        for group in (cyclic(2), Z3, cyclic(4)):
            for _ in range(15):
                gg = random_gain_graph(g, group, rng)
                expected = all(walk_gain(gg, c.walk) == gg.group.identity() for c in circles)
                assert is_balanced(gg).balanced == expected


def random_element(group, rng):
    if isinstance(group, FreeGroup):
        word = [(rng.choice(group.symbols), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))]
        return group.element(word)
    return rng.choice(group.elements())


def random_multigraph(rng):
    """Up to 7 vertices and 12 edges, with loops, parallel edges and often
    several components."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
    return Graph(
        {f"e{k:02d}": (rng.choice(vertices), rng.choice(vertices)) for k in range(rng.randint(0, 12))},
        vertices,
    )


def test_balance_matches_fundamental_circle_reference():
    # random multigraphs with loops, parallel edges and several components
    rng = random.Random(59)
    groups = (Z3, cyclic(5), abelian_product(2, 3), free_on("a", "b"), symmetric(3))
    unbalanced = 0
    for trial in range(400):
        group = groups[trial % len(groups)]
        g = random_multigraph(rng)
        gains = {e: random_element(group, rng) for e in g.edge_list if rng.random() < 0.4}
        gg = gain_graph(g, group, gains)
        got, want = is_balanced(gg), reference_is_balanced(gg)
        assert got.balanced == want.balanced
        assert got.certificate == want.certificate
        assert got.certificate_gain == want.certificate_gain
        unbalanced += not got.balanced
    assert 100 < unbalanced < 300


def test_balance_invariant_under_switching():
    rng = random.Random(47)
    g = named("2C4")
    for _ in range(25):
        gg = random_gain_graph(g, Z3, rng)
        f = Switching({v: rng.choice(Z3.elements()) for v in g.vertex_list})
        assert is_balanced(gg).balanced == is_balanced(switch(gg, f)).balanced


# -- gain files --------------------------------------------------------------------


def test_gain_text_round_trip():
    gg = c332_example_gains()
    text = gains_to_text(gg)
    again = parse_gain_text(text, gg.graph)
    assert again.assignment.gains == gg.assignment.gains


def test_gain_text_defaults_to_identity():
    g = triangle()
    gg = parse_gain_text("group Z 5\ngain e2 3\n", g)
    assert gg.assignment.gains["e1"] == gg.group.identity()
    assert gg.assignment.gains["e2"] == (3,)


def test_gain_text_free_group():
    g = triangle()
    gg = parse_gain_text("group free a b\ngain e1 a -b\n", g)
    assert gg.assignment.gains["e1"] == (("a", 1), ("b", -1))
    assert gains_to_text(gg).startswith("group free a b")


def test_gain_text_round_trip_every_group_type():
    # gains_to_text writes the header of each group type, S_n included, and
    # parse_gain_text reads every one back
    rng = random.Random(31)
    g = named("2C4")
    for group in (symmetric(3), abelian_product(2, 3), free_on("a", "b")):
        gains = {e: random_element(group, rng) for e in g.edge_list}
        gg = gain_graph(g, group, gains)
        again = parse_gain_text(gains_to_text(gg), g)
        assert again.group == group
        assert again.assignment.gains == gg.assignment.gains
    assert gains_to_text(gain_graph(g, symmetric(3), {})).startswith("group S 3\n")
    with pytest.raises(ParseError):
        parse_gain_text("group S 0\n", g)


def test_parsed_gains_are_elements_of_the_header_group():
    # parse_gain_text keeps what parse_element returns without checking it again
    g = named("2C4")
    texts = {
        abelian_product(2, 3): "group Z 2 x Z 3\ngain e1 1 5\ngain f2 -1 7\ngain e3\n",
        free_on("a", "b"): "group free a b\ngain e1 a -b b\ngain f3 -a a\ngain e2 b\n",
        symmetric(3): "group S 3\ngain e1 1 2 0\ngain f4 2 1 0\n",
    }
    for group, text in texts.items():
        gg = parse_gain_text(text, g)
        assert gg.group == group
        assert set(gg.assignment.gains) == set(g.edge_list)
        assert all(group.is_element(x) for x in gg.assignment.gains.values()), text
    assert parse_gain_text(texts[abelian_product(2, 3)], g).assignment.gains["f2"] == (1, 1)
    assert parse_gain_text(texts[free_on("a", "b")], g).assignment.gains["f3"] == ()


@pytest.mark.parametrize(
    "header, token",
    [("Z 3", "x"), ("Z 2 x Z 3", "1"), ("free a b", "c"), ("free a b", "-"), ("S 3", "0 0 1"), ("S 3", "0 1 3"), ("S 3", "a b c")],
)
def test_bad_gain_tokens_raise_with_their_line(header, token):
    g = triangle()
    with pytest.raises(ParseError, match="^line 4: ") as err:
        parse_gain_text(f"group {header}\n# a comment\ngain e1\ngain e2 {token}\n", g)
    assert err.value.line == 4


def test_bad_element_after_repeated_good_ones_keeps_its_message():
    # each distinct element text is parsed once; an error still names its line and tokens
    text = "group Z 3\ngain e1 1\ngain e2 1\ngain e3 x\n"
    with pytest.raises(ParseError, match=r"^line 4: bad residues \['x'\]$"):
        parse_gain_text(text, triangle())
    gains = parse_gain_text(text.replace("x", "1"), triangle()).assignment.gains
    assert gains == {"e1": (1,), "e2": (1,), "e3": (1,)}


@pytest.mark.parametrize("header", ["S 0", "Z", "Z 3 x", "Q 3", "", "Z 0", "Z 3 x Z 0", "Z 1\u0663", "S 1\u0663"])
def test_bad_group_headers_raise_with_their_line(header):
    with pytest.raises(ParseError, match=f"^line 2: (unknown group header {header!r}|empty group header)$") as err:
        parse_gain_text(f"# c\ngroup {header}\n", triangle())
    assert err.value.line == 2


def test_gain_text_errors():
    g = triangle()
    with pytest.raises(ParseError):
        parse_gain_text("gain e1 1\n", g)
    with pytest.raises(ParseError):
        parse_gain_text("group Z 3\ngain nope 1\n", g)
    with pytest.raises(ParseError):
        parse_gain_text("group Z 3\ngain e1 1\ngain e1 2\n", g)
