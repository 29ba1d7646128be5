import itertools
import operator
import random
import time

import pytest

from gainbalance import cyclespace, graphcore
from gainbalance.cyclespace import (
    CIRCLE_ENUMERATION_MAX_EDGES,
    binary_cycle,
    basis_to_text,
    circle_from_support,
    cycle_space_dimension,
    cyclic_orientations,
    digon_condition,
    enumerate_circles,
    fundamental_circles,
    improper_edges,
    is_cycle_basis,
    least_circle,
    natural_orientation,
    oriented_basis,
    parse_basis_text,
    read_basis_text,
    theta_sum,
)
from gainbalance.enumeration import all_multigraphs, connected_multigraphs, inseparable_multigraphs, materialize
from gainbalance.errors import BudgetError, GraphError, ParseError
from gainbalance.graphcore import Graph, edge_components, grid_faces, spanning_forest, walk_support, walk_vertices
from conftest import named, triangle
from cyclespace_reference import (
    is_circle_basis,
    reference_circle_walk,
    reference_cyclic_orientations,
    reference_euler_walk,
    reference_natural_orientation,
)


def subset_filter_circles(g):
    """Independent oracle: all even-degree edge subsets with connected,
    2-regular support."""
    out = set()
    for r in range(1, len(g.edge_list) + 1):
        for sub in itertools.combinations(g.edge_list, r):
            support = frozenset(sub)
            try:
                circle_from_support(g, support)
            except GraphError:
                continue
            out.add(support)
    return out


# -- circles and enumeration -----------------------------------------------------


def test_binary_cycle_validation():
    g = triangle()
    assert binary_cycle(g, {"e1", "e2", "e3"}) == {"e1", "e2", "e3"}
    with pytest.raises(GraphError):
        binary_cycle(g, {"e1"})


def test_circle_canonical_walk_digon():
    g = named("mK2(3)")
    c = circle_from_support(g, {"e1", "e2"})
    assert [s.edge for s in c.walk.steps] == ["e1", "e2"]
    assert c.walk.start == "u"


def test_circle_from_support_rejects_disconnected_and_figure_eight():
    two_triangles = Graph(
        {"a1": ("a", "b"), "a2": ("b", "c"), "a3": ("c", "a"), "b1": ("x", "y"), "b2": ("y", "z"), "b3": ("z", "x")}
    )
    figure_eight = Graph(
        {"a1": ("a", "b"), "a2": ("b", "c"), "a3": ("c", "a"), "b1": ("a", "y"), "b2": ("y", "z"), "b3": ("z", "a")}
    )
    for g in (two_triangles, figure_eight):
        with pytest.raises(GraphError):
            circle_from_support(g, g.edge_list)
        assert not is_circle_basis([frozenset(g.edge_list)], g)
    # two disjoint digons are 2-regular, like two disjoint triangles
    with pytest.raises(GraphError):
        circle_from_support(named("2C4"), {"e1", "f1", "e3", "f3"})


def test_circle_walk_matches_reference_on_every_small_support():
    # every edge subset of every connected multigraph up to 6 edges, loops and
    # parallel edges included: the same walk, or None for a non-circle
    supports = circles = 0
    for g in (materialize(c) for level in connected_multigraphs(6) for c in level):
        for r in range(len(g.edge_list) + 1):
            for sub in itertools.combinations(g.edge_list, r):
                support = frozenset(sub)
                walk = cyclespace._circle_walk(g, support)
                assert walk == reference_circle_walk(g, support), (sorted(g.edges.items()), sorted(support))
                supports += 1
                circles += walk is not None
    assert (supports, circles) == (24621, 1324)


def test_circle_walk_matches_reference_on_large_bases():
    grid, w100 = named("Grid(30,30)"), named("W100")
    faces = [frozenset(f) for f in grid_faces(30, 30)]
    fundamental = [c.support for c in fundamental_circles(grid, spanning_forest(grid))]
    hamiltonian = [
        frozenset({f"s{i}", f"s{i % 100 + 1}"} | {f"r{k}" for k in range(1, 101) if k != i}) for i in range(1, 101)
    ]
    # faces[0], [1], [31] and [62] are the faces (0,0), (0,1), (1,1) and (2,2)
    not_circles = [
        faces[0] | faces[62],  # two disjoint faces
        faces[0] | faces[1],  # a theta: two faces sharing an edge
        faces[0] | faces[31],  # a figure eight: two faces sharing a corner
        frozenset({"h0_0", "v0_1", "h1_1"}),  # a path
    ]
    for g, supports in ((grid, faces), (grid, fundamental), (w100, hamiltonian)):
        walks = [cyclespace._circle_walk(g, s) for s in supports]
        assert walks == [reference_circle_walk(g, s) for s in supports] and None not in walks
    assert [cyclespace._circle_walk(grid, s) for s in not_circles] == [None] * 4
    assert [reference_circle_walk(grid, s) for s in not_circles] == [None] * 4
    with pytest.raises(GraphError, match="^unknown edge 'nope'$"):
        circle_from_support(grid, {"h0_0", "nope"})


@pytest.mark.parametrize(
    "tag,count",
    [("2C4", 20), ("C3(3,3,2)", 25), ("K1loop", 1)],
)
def test_enumerate_circles_counts(tag, count):
    g = named(tag)
    circles = enumerate_circles(g)
    assert len(circles) == count
    assert {c.support for c in circles} == subset_filter_circles(g)


def test_enumerate_circles_2c4_breakdown():
    circles = enumerate_circles(named("2C4"))
    assert sum(1 for c in circles if len(c) == 2) == 4
    assert sum(1 for c in circles if len(c) == 4) == 16


@pytest.mark.parametrize("tag", ["W4", "K4(2,1)", "K4dd", "Grid(2,2)", "Fan(1;1,1)"])
def test_enumerate_agrees_with_subset_filter(tag):
    g = named(tag)
    assert {c.support for c in enumerate_circles(g)} == subset_filter_circles(g)


def test_enumerated_circles_are_canonical_and_complete():
    # each circle is built from its DFS path; it must equal the circle
    # circle_from_support builds from its support, in canonical order, with
    # every circle of the subset filter present
    graphs = list(all_multigraphs(6)) + list(inseparable_multigraphs(9))
    assert len(graphs) == 1817
    for g in graphs:
        circles = enumerate_circles(g)
        assert circles == [circle_from_support(g, c.support) for c in circles], sorted(g.edges.items())
        keys = [(len(c), sorted(c.support)) for c in circles]
        assert keys == sorted(keys)
        supports = {c.support for c in circles}
        assert len(supports) == len(circles) and supports == subset_filter_circles(g)


def test_enumerate_budget():
    g = named("Grid(3,4)")
    assert len(g.edge_list) == 31 > CIRCLE_ENUMERATION_MAX_EDGES
    with pytest.raises(BudgetError):
        enumerate_circles(g)


def random_graph(rng: random.Random, simple: bool) -> Graph:
    n = rng.randint(1, 9)
    edges: dict = {}
    for k in range(rng.randint(0, 22)):
        a, b = f"v{rng.randrange(n)}", f"v{rng.randrange(n)}"
        if simple and (a == b or any({a, b} == set(ends) for ends in edges.values())):
            continue
        edges[f"e{k}"] = (a, b)
    return Graph(edges, [f"v{i}" for i in range(n)])


def test_least_circle_is_first_enumerated_circle():
    rng = random.Random(2024)
    for i in range(600):
        g = random_graph(rng, simple=i < 400)
        circles = enumerate_circles(g)
        assert least_circle(g) == (circles[0].support if circles else None), sorted(g.edges.items())


def test_least_circle_past_circle_enumeration():
    # Grid(5,5) has 60 edges; listing its circles does not finish
    assert least_circle(named("Grid(5,5)")) == frozenset({"h0_0", "h1_0", "v0_0", "v0_1"})
    assert least_circle(Graph({"a": ("x", "y"), "b": ("y", "z")})) is None


# -- bases ------------------------------------------------------------------------


def test_hamiltonian_basis_of_w4(w4):
    hams = [c.support for c in enumerate_circles(w4) if len(c) == 5]
    assert len(hams) == 4
    assert is_circle_basis(hams, w4)


def test_triangles_of_w4_form_basis(w4):
    # the four triangles are independent and the dimension is four
    tris = [c.support for c in enumerate_circles(w4) if len(c) == 3]
    assert len(tris) == 4
    assert cycle_space_dimension(w4) == 4
    assert is_circle_basis(tris, w4)


def test_triangles_plus_rim_dependent(w4):
    tris = [c.support for c in enumerate_circles(w4) if len(c) == 3]
    rim = {"r1", "r2", "r3", "r4"}
    assert not is_circle_basis(tris + [rim], w4)


def test_non_circle_member_rejected(w4):
    two = binary_cycle(w4, {"s1", "r1", "s2", "s3", "r3", "s4"})  # two triangles
    assert not is_circle_basis([two] + [c.support for c in enumerate_circles(w4) if len(c) == 3][:3], w4)


def test_is_cycle_basis_rejects_members_that_are_not_cycles(w4):
    # the rim edges are independent and as many as the dimension, but each
    # has odd degree at both of its ends
    rim = [{"r1"}, {"r2"}, {"r3"}, {"r4"}]
    assert cycle_space_dimension(w4) == len(rim)
    assert is_cycle_basis(rim, w4) is False
    assert is_cycle_basis([c.support for c in enumerate_circles(w4) if len(c) == 3], w4) is True
    # a loop meets its vertex twice, so it is a cycle
    looped = Graph({"a": ("u", "v"), "b": ("v", "u"), "l": ("v", "v")})
    assert is_cycle_basis([{"a", "b"}, {"l"}], looped) is True
    assert is_cycle_basis([{"a"}, {"l"}], looped) is False


def _gf2_rank(rows, columns):
    """Rank over GF(2) by elimination on 0/1 rows indexed by ``columns``."""
    rows = [[e in row for e in columns] for row in rows]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a != b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _reference_is_cycle_basis(members, g, dim):
    """None when a member uses an edge outside g, else whether every member
    has even degree at every vertex and the members are ``dim`` independent
    vectors."""
    if any(e not in g.edges for m in members for e in m):
        return None
    for m in members:
        degree = {}
        for e in m:
            for v in g.ends(e):  # a loop counts twice
                degree[v] = degree.get(v, 0) + 1
        if any(d % 2 for d in degree.values()):
            return False
    return len(members) == dim and _gf2_rank(members, g.edge_list) == dim


@pytest.mark.parametrize(
    "g",
    [named("W4"), named("2C4"), named("K4dd"), named("Grid(3,3)"),
     Graph({"a": ("u", "v"), "b": ("v", "u"), "c": ("v", "w"), "d": ("w", "u"), "l": ("w", "w")})],
    ids=["W4", "2C4", "K4dd", "Grid(3,3)", "looped"],
)
def test_is_cycle_basis_matches_reference(g):
    circles = [c.support for c in enumerate_circles(g)]
    dim = _gf2_rank(circles, g.edge_list)  # the circles span the cycle space
    start = [c.support for c in fundamental_circles(g, spanning_forest(g))]
    rng = random.Random(f"is_cycle_basis/{sorted(g.edges.items())}")
    outcomes = set()
    for _ in range(300):
        members = list(start)
        for _ in range(rng.randrange(4)):
            kind = rng.randrange(6) if members else 4
            i = rng.randrange(len(members)) if members else 0
            if kind == 0:  # a sum of members: the span is kept unless it empties a member
                members[i] = members[i] ^ members[rng.randrange(len(members))]
            elif kind == 1:  # another circle: independent or dependent
                members[i] = rng.choice(circles)
            elif kind == 2:  # a random edge set, seldom a cycle
                members[i] = frozenset(rng.sample(g.edge_list, rng.randint(1, 4)))
            elif kind == 3:  # too few members
                members.pop(i)
            elif kind == 4:  # too many members
                members.append(rng.choice(circles))
            else:  # an edge missing from the host
                members[i] = members[i] | {"zz"}
        rng.shuffle(members)
        expected = _reference_is_cycle_basis(members, g, dim)
        outcomes.add(expected)
        if expected is None:
            with pytest.raises(GraphError):
                is_cycle_basis(members, g)
        else:
            assert is_cycle_basis(members, g) is expected, members
    assert outcomes == {None, False, True}


def test_fundamental_circles(w4, c332):
    for g in (w4, c332, named("mK2(3)")):
        forest = spanning_forest(g)
        basis = fundamental_circles(g, forest)
        assert is_circle_basis([c.support for c in basis], g)
        assert len(basis) == cycle_space_dimension(g)
    mk3 = named("mK2(3)")
    digons = fundamental_circles(mk3, spanning_forest(mk3))
    assert all(len(c) == 2 for c in digons)


def test_fundamental_circles_invalid_forest(w4):
    with pytest.raises(GraphError):
        fundamental_circles(w4, frozenset({"r1", "r2", "r3", "r4"}))  # cycle
    with pytest.raises(GraphError):
        fundamental_circles(w4, frozenset({"r1"}))  # not maximal


# -- cyclic orientations ------------------------------------------------------------


def test_orientation_of_circle_is_simple(w4):
    rim = circle_from_support(w4, {"r1", "r2", "r3", "r4"})
    w = natural_orientation(rim.support, w4)
    assert len(w.steps) == 4
    assert walk_support(w) == rim.support


def test_orientation_disconnected_support_uses_connectors():
    g = Graph(
        {
            "a1": ("x", "y"),
            "a2": ("y", "z"),
            "a3": ("z", "x"),
            "b1": ("p", "q"),
            "b2": ("q", "r"),
            "b3": ("r", "p"),
            "c": ("x", "p"),
        }
    )
    b = binary_cycle(g, {"a1", "a2", "a3", "b1", "b2", "b3"})
    walks = cyclic_orientations(b, g, budget=4)
    assert len(walks) == 4
    for w in walks:
        walk_vertices(g, w)
        assert walk_support(w) == b
        assert sum(1 for s in w.steps if s.edge == "c") == 2


def test_orientation_trivial_cycle(w4):
    walks = cyclic_orientations(binary_cycle(w4, set()), w4)
    assert walks[0].is_trivial


def test_oriented_basis_validates(w4):
    hams = [c.support for c in enumerate_circles(w4) if len(c) == 5]
    ob = oriented_basis(w4, hams)
    for cyc, w in ob.pairs:
        assert walk_support(w) == cyc


def basis_text(members):
    """A basis file listing ``members`` without walk lines."""
    return "".join(" ".join(sorted(m)) + "\n" for m in members)


def test_natural_orientations_match_reference_on_small_cumulative_bases():
    # the bases c1, c1 + c2, ... of the fundamental circles of every connected
    # multigraph up to 6 edges: most later members are not circles, and many
    # fall into several components linked along the spanning tree
    members = split = 0
    for g in (materialize(c) for level in connected_multigraphs(6) for c in level):
        basis = list(itertools.accumulate((c.support for c in fundamental_circles(g, spanning_forest(g))), operator.xor))
        expected = [reference_natural_orientation(m, g) for m in basis]
        assert list(oriented_basis(g, basis).walks) == expected, sorted(g.edges.items())
        fresh = Graph(g.edges, g.vertices)
        assert list(parse_basis_text(basis_text(basis), fresh).walks) == expected, sorted(g.edges.items())
        for m in basis:
            assert cyclic_orientations(m, g, budget=4) == reference_cyclic_orientations(m, g, budget=4)
            split += len(edge_components(g, m)) > 1
        members += len(basis)
    assert (members, split) == (1110, 207)


def test_euler_walks_match_reference_on_every_even_edge_set():
    # from every vertex of every component of every even-degree edge set of
    # every connected multigraph up to 6 edges
    walks = 0
    for g in (materialize(c) for level in connected_multigraphs(6) for c in level):
        for mask in range(1, 1 << len(g.edge_list)):
            support = [e for i, e in enumerate(g.edge_list) if mask >> i & 1]
            odd = set()
            for e in support:
                odd ^= set(g.ends(e))
            if odd:
                continue
            for comp in edge_components(g, support):
                part = frozenset(e for e in support if g.ends(e)[0] in comp)
                for v in sorted(comp):
                    assert cyclespace._euler_walk(g, part, v) == reference_euler_walk(g, part, v), (
                        sorted(g.edges.items()), sorted(part), v)
                    walks += 1
    assert walks == 3464, walks


def test_euler_walk_is_linear_in_vertex_degree():
    # each edge choice rescanned the vertex's edge list: 1.1 s on mK2(4000)
    g = named("mK2(4000)")
    start = time.perf_counter()
    walk = natural_orientation(g.edge_list, g)
    elapsed = time.perf_counter() - start
    assert len(walk.steps) == 4000 and walk_support(walk) == frozenset(g.edge_list)
    assert elapsed < 0.1, elapsed


def split_grid_basis(r):
    """The faces of Grid(r, r), each face edge-disjoint from face 0 summed
    with it: face 0, the two faces beside it, one figure eight, and two
    disjoint faces for the rest."""
    faces = grid_faces(r, r)
    return [f ^ faces[0] if f.isdisjoint(faces[0]) else f for f in faces]


def test_natural_orientations_of_a_split_grid_basis_build_one_tree(monkeypatch):
    basis = split_grid_basis(30)
    g = named("Grid(30,30)")
    spanning, built = graphcore.spanning_forest, []
    monkeypatch.setattr(graphcore, "spanning_forest", lambda h: built.append(h) or spanning(h))
    ob = parse_basis_text(basis_text(basis), g)
    assert built == [g]
    monkeypatch.undo()
    assert sum(len(edge_components(g, m)) > 1 for m in basis) == 896
    assert list(ob.walks) == [reference_natural_orientation(m, g) for m in basis]
    assert oriented_basis(named("Grid(30,30)"), basis) == ob


# -- theta sums -----------------------------------------------------------------------


def test_theta_sum_k4_triangles():
    k4 = named("K4(1,1)")
    t1 = circle_from_support(k4, {"e12", "e23", "e13"})
    t2 = circle_from_support(k4, {"e12", "e24", "e14"})
    s = theta_sum(t1, t2, k4)
    assert s is not None and s.support == {"e13", "e14", "e23", "e24"}


def test_theta_sum_w4_hamiltonian_and_triangle(w4):
    h1 = circle_from_support(w4, {"s1", "r1", "r2", "r3", "s4"})
    t2 = circle_from_support(w4, {"s1", "r1", "s2"})
    s = theta_sum(h1, t2, w4)
    assert s is not None and s.support == {"s2", "r2", "r3", "s4"}


def test_theta_sum_disjoint_is_none():
    g = Graph(
        {
            "a1": ("x", "y"),
            "a2": ("y", "z"),
            "a3": ("z", "x"),
            "b1": ("p", "q"),
            "b2": ("q", "r"),
            "b3": ("r", "p"),
        }
    )
    ta = circle_from_support(g, {"a1", "a2", "a3"})
    tb = circle_from_support(g, {"b1", "b2", "b3"})
    assert theta_sum(ta, tb, g) is None


def test_theta_sum_is_gf2_sum_when_defined(w4):
    circles = enumerate_circles(w4)
    for c1, c2 in itertools.combinations(circles, 2):
        s = theta_sum(c1, c2, w4)
        if s is not None:
            assert s.support == c1.support ^ c2.support


def test_theta_sum_parallel_digons():
    g = named("mK2(3)")
    d1 = circle_from_support(g, {"e1", "e2"})
    d2 = circle_from_support(g, {"e2", "e3"})
    s = theta_sum(d1, d2, g)
    assert s is not None and s.support == {"e1", "e3"}


# -- improper edges and the digon condition ----------------------------------------


def test_improper_fundamental(w4):
    forest = spanning_forest(w4)
    basis = fundamental_circles(w4, forest)
    assert improper_edges(c.support for c in basis) == frozenset(w4.edge_list) - forest


def test_improper_grid_faces_outer_boundary():
    g = named("Grid(2,2)")
    inner = {"h1_0", "h1_1", "v0_1", "v1_1"}
    assert improper_edges(grid_faces(2, 2)) == frozenset(g.edge_list) - inner


def test_improper_hamiltonian_basis_empty(w4):
    hams = [c for c in enumerate_circles(w4) if len(c) == 5]
    # every edge lies in at least two Hamiltonian circles
    counts = {}
    for c in hams:
        for e in c.support:
            counts[e] = counts.get(e, 0) + 1
    assert min(counts.values()) >= 2
    assert improper_edges(c.support for c in hams) == frozenset()


def quad_basis(g, patterns):
    members = []
    for bits in patterns:
        support = frozenset((f"f{i+1}" if b else f"e{i+1}") for i, b in enumerate(bits))
        members.append(circle_from_support(g, support).support)
    return members


def test_digon_condition_2c4(g2c4):
    d = circle_from_support(g2c4, {"e1", "f1"})
    weight1 = quad_basis(g2c4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert not digon_condition(weight1, d)  # 0000 + 1000 is the digon
    odd_seq = quad_basis(g2c4, [(0, 0, 0, 0), (1, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
    for i in range(1, 5):
        di = circle_from_support(g2c4, {f"e{i}", f"f{i}"})
        assert digon_condition(odd_seq, di)


def test_digon_condition_rejects_member(g2c4):
    d = circle_from_support(g2c4, {"e1", "f1"})
    basis = [d.support] + quad_basis(g2c4, [(0, 0, 0, 0), (1, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)])
    assert not digon_condition(basis, d)


def test_digon_condition_requires_digon(g2c4):
    q = circle_from_support(g2c4, {"e1", "e2", "e3", "e4"})
    basis = quad_basis(g2c4, [(0, 0, 0, 0), (1, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
    with pytest.raises(GraphError):
        digon_condition(basis, q)


# -- text format ----------------------------------------------------------------------


def test_basis_text_round_trip(g2c4):
    ob = oriented_basis(
        g2c4,
        [
            {"e1", "e2", "e3", "e4"},
            {"f1", "e1"},
            {"f2", "e2"},
            {"f3", "e3"},
            {"f4", "e4"},
        ],
    )
    text = basis_to_text(ob)
    again = parse_basis_text(text, g2c4)
    assert again.cycles == ob.cycles
    assert [w for _, w in again.pairs] == [w for _, w in ob.pairs]


def test_walk_step_takes_one_sign(w4):
    # "--r4" is not a doubly reversed r4 but the edge "-r4", which W4 lacks
    with pytest.raises(ParseError, match="^line 2: unknown edge '-r4' in walk$"):
        read_basis_text("r1 r2 r3 r4\nwalk: --r4 --r3 --r2 --r1\n", w4)
    [(rim, walk)] = read_basis_text("r1 r2 r3 r4\nwalk: -r4 -r3 -r2 -r1\n", w4)
    assert walk == circle_from_support(w4, rim).walk.reversed()
    # an edge whose identifier starts with "-" is reversed by one more
    g = Graph({"-a": ("x", "y"), "b": ("y", "x")})
    [(digon, walk)] = read_basis_text("-a b\nwalk: --a -b\n", g)
    assert digon == {"-a", "b"} and walk.start == "y"
    assert [(s.edge, s.forward) for s in walk.steps] == [("-a", False), ("b", False)]


def test_basis_text_custom_walk(w4):
    text = "s1 r1 s2\nwalk: s1 r1 -s2\n"
    ob = parse_basis_text(text, w4)
    assert ob.pairs[0][1].start == "w"
    assert is_cycle_basis(ob.cycles, w4) is False  # one member in dimension four


def test_basis_line_names_its_first_unknown_edge():
    g = named("Grid(3,3)")
    text = "h0_0 h1_0 v0_0 v0_1\n# a comment\nh0_1 zz h1_1 v0_1 aa v0_2\n"
    with pytest.raises(ParseError, match="^line 3: unknown edge 'zz'$"):
        read_basis_text(text, g)
    with pytest.raises(ParseError, match="^line 3: unknown edge 'zz'$"):
        parse_basis_text(text, g)
