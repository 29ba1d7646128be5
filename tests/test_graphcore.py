import random

import pytest

from gainbalance import classify, graphcore
from gainbalance.classify import BAD, bad_witness, circle_goodness
from gainbalance.cyclespace import (
    circle_from_support,
    cycle_space_dimension,
    enumerate_circles,
    natural_orientation,
    read_basis_text,
)
from gainbalance.enumeration import all_multigraphs, inseparable_multigraphs
from gainbalance.errors import GraphError, ParseError
from gainbalance.graphcore import (
    CIRCLE_MULTI,
    ClosedWalk,
    Graph,
    K4_OPPOSITE,
    MULTI_K2,
    NamedGraphSpec,
    RootedForest,
    TRIPARTITE_FAN,
    WHEEL,
    blocks,
    build_named,
    canonical_key,
    canonical_labeling,
    components,
    edge_bijection,
    edge_components,
    graph_to_text,
    grid_faces,
    is_isomorphic,
    isomorphism,
    parse_graph_spec,
    parse_graph_text,
    spanning_forest,
    spanning_tree,
    suppress_divalent,
    walk_int_vector,
    walk_support,
    walk_vertices,
)
from gainbalance.groups import parse_class_spec, parse_group_spec
from gainbalance.minors import lift_basis_deletion, splice_tree_paths
from gainbalance.oracle import oracle_circle_goodness
from conftest import named, triangle


# -- construction and named families ----------------------------------------


def test_wheel_shape():
    g = named("W4")
    assert len(g.vertex_list) == 5
    assert len(g.edge_list) == 8
    assert g.degree("w") == 4
    assert g.edges_between("w", "v1") == ("s1",)
    assert g.ends("r4") == ("v4", "v1")


def test_multik2_single_edge():
    g = named("mK2(1)")
    assert len(g.vertex_list) == 2 and g.edge_list == ("e1",)


def test_circle_multi_332():
    g = named("C3(3,3,2)")
    assert len(g.vertex_list) == 3
    assert len(g.edge_list) == 8
    assert set(g.edges_between("v3", "v1")) == {"e31", "f31"}
    assert set(g.edges_between("v1", "v2")) == {"e12", "f12", "g12"}


def test_k4_opposite_multiplies_nonadjacent():
    g = named("K4(2,1)")
    assert g.multiplicity("v1", "v2") == 2
    assert g.multiplicity("v3", "v4") == 1
    assert all(g.multiplicity(f"v{a}", f"v{b}") == 1 for a, b in ((1, 3), (1, 4), (2, 3), (2, 4)))


def test_k4dd_doubles_adjacent():
    g = named("K4dd")
    assert g.multiplicity("w", "v1") == 2
    assert g.multiplicity("w", "v2") == 2
    assert g.multiplicity("w", "v3") == 1
    assert len(g.edge_list) == 8


def test_loops_and_invariants():
    g = named("K1loop")
    assert g.is_loop("e")
    assert g.degree("v") == 2
    with pytest.raises(GraphError):
        Graph({"e": ("a", "b")}).ends("nope")


def test_incident_sorted_whatever_the_insertion_order():
    # edges listed out of id order, ids whose string order differs from their
    # numeric order, loops and parallel edges
    rng = random.Random(17)
    fixed = Graph({"z": ("a", "b"), "e10": ("b", "a"), "e9": ("a", "a"), "e2": ("a", "b"), "a1": ("b", "b")}, ["c"])
    assert fixed.incident("a") == (("e10", "b"), ("e2", "b"), ("e9", "a"), ("z", "b"))
    assert fixed.incident("b") == (("a1", "b"), ("e10", "a"), ("e2", "a"), ("z", "a"))
    assert fixed.incident("c") == ()
    graphs = [fixed]
    for _ in range(200):
        vertices = [f"v{i}" for i in range(rng.randint(1, 6))]
        ids = [f"e{k}" for k in range(rng.randint(0, 14))]
        rng.shuffle(ids)
        graphs.append(Graph({e: (rng.choice(vertices), rng.choice(vertices)) for e in ids}, vertices))
    for g in graphs:
        for v in g.vertex_list:
            entries = g.incident(v)
            assert list(entries) == sorted(entries)
            expected = sorted((e, g.other_end(e, v)) for e in g.edge_list if v in g.ends(e))
            assert list(entries) == expected


def test_parse_spec_errors():
    with pytest.raises(ParseError):
        parse_graph_spec("Q17")
    with pytest.raises(GraphError):
        build_named(NamedGraphSpec(WHEEL, (2,)))


@pytest.mark.parametrize(
    "tag",
    ["C3(,)", "C3(3,3,)", "C3(3,,3)", "C3(,3,3)", "Fan(1;,)", "Fan(1;)", "Fan(;1)", "K4(2,)", "Grid(,3)",
     # decimal digits of other scripts match \d but name no ASCII number
     "W\u0664", "2C\u0664", "mK2(\u0665)", "\u0665K2", "C3(3,3,\u0662)", "C3-33\u0662", "K4(2,\u0661)",
     "Grid(\u0663,3)", "Fan(1;1,\u0661)",
     # a leading zero, as group orders reject it ("Z03")
     "W04", "2C04", "mK2(007)", "07K2", "C3(03,3,2)", "C03(3,3,2)", "C03-332", "K4(01,1)", "K4(0,00)",
     "Grid(02,2)", "Fan(01;1)", "Fan(1;1,01)"],
)
def test_parse_spec_rejects_empty_and_non_ascii_numbers(tag):
    with pytest.raises(ParseError, match="^unknown graph tag "):
        parse_graph_spec(tag)


def test_parse_spec_reads_number_lists():
    assert parse_graph_spec("C3(3,3,2)") == NamedGraphSpec(CIRCLE_MULTI, (3, 3, 2))
    assert parse_graph_spec("C3-332") == NamedGraphSpec(CIRCLE_MULTI, (3, 3, 2))
    assert parse_graph_spec("Fan(2;2,1,1)") == NamedGraphSpec(TRIPARTITE_FAN, (2, 2, 1, 1))
    assert parse_graph_spec("Fan(1;3)") == NamedGraphSpec(TRIPARTITE_FAN, (1, 3))
    assert parse_graph_spec("W12") == NamedGraphSpec(WHEEL, (12,))
    # a lone zero is still a number, and a C<k>- digit string may start with one
    assert parse_graph_spec("K4(0,1)") == NamedGraphSpec(K4_OPPOSITE, (0, 1))
    assert parse_graph_spec("K4(10,0)") == NamedGraphSpec(K4_OPPOSITE, (10, 0))
    assert parse_graph_spec("0K2") == NamedGraphSpec(MULTI_K2, (0,))
    assert parse_graph_spec("C3-032") == NamedGraphSpec(CIRCLE_MULTI, (0, 3, 2))


def test_grid_and_faces():
    g = named("Grid(2,2)")
    assert len(g.vertex_list) == 9
    assert len(g.edge_list) == 12
    faces = grid_faces(2, 2)
    assert len(faces) == 4
    assert all(f <= set(g.edge_list) for f in faces)


# -- walks -------------------------------------------------------------------


def test_walk_validation():
    g = triangle()
    w = ClosedWalk("a", (("e1", True), ("e2", True), ("e3", True)))
    assert walk_vertices(g, w) == ["a", "b", "c", "a"]
    assert walk_support(w) == {"e1", "e2", "e3"}
    assert walk_int_vector(w) == {"e1": 1, "e2": 1, "e3": 1}
    bad = ClosedWalk("a", (("e2", True),))
    with pytest.raises(GraphError):
        walk_vertices(g, bad)
    rev = w.reversed()
    assert walk_int_vector(rev) == {"e1": -1, "e2": -1, "e3": -1}
    assert walk_vertices(g, rev) == ["a", "c", "b", "a"]


def test_walk_out_and_back_cancels():
    g = Graph({"e": ("a", "b")})
    w = ClosedWalk("a", (("e", True), ("e", False)))
    assert walk_support(w) == frozenset()
    assert walk_int_vector(w) == {}


def _assert_plain_steps(steps):
    for step in steps:
        assert type(step) is tuple and len(step) == 2, step
        assert type(step[0]) is str and type(step[1]) is bool, step


def test_every_built_walk_has_plain_pair_steps():
    w4 = named("W4")
    walks = [circle_from_support(w4, {"r1", "r2", "r3", "r4"}).walk]
    walks += [c.walk for c in enumerate_circles(w4)]
    # two faces of the 1x3 grid with no common vertex make a split member
    faces = grid_faces(1, 3)
    walks.append(natural_orientation(faces[0] ^ faces[2], named("Grid(1,3)")))
    digon = Graph({"a": ("u", "v"), "b": ("v", "u")})
    walks += [walk for _, walk in read_basis_text("a b\nwalk: -b -a\n", digon)]
    tree = RootedForest(w4, spanning_forest(w4))
    chords = [e for e in w4.edge_list if e not in tree.forest]
    walks.append(splice_tree_paths(tree, [(e, True) for e in chords], "w"))
    witness = bad_witness(parse_graph_spec("W4"))
    host = Graph({**w4.edges, "x": ("v1", "v3")}, w4.vertices)
    lifted, _ = lift_basis_deletion(host, {"x"}, witness.basis, witness.gain_graph.assignment)
    walks += [walk for _, walk in lifted.pairs]
    for tag in ("K1loop", "C3(3,3,2)", "2C4", "K4dd", "W4"):
        walks += [walk for _, walk in bad_witness(parse_graph_spec(tag)).basis.pairs]
    verdict = circle_goodness(named("W6"), parse_class_spec("contains-z3"))
    assert verdict.status == BAD
    walks += [walk for _, walk in verdict.evidence.basis.pairs]
    assert len(walks) > 40
    _assert_plain_steps([s for walk in walks for s in walk.steps] + tree.path("w", "v3"))
    _assert_plain_steps([s for walk in walks for s in walk.reversed().steps])


# -- blocks -------------------------------------------------------------------


def test_blocks_two_triangles_share_vertex():
    g = Graph(
        {
            "a1": ("x", "y"),
            "a2": ("y", "z"),
            "a3": ("z", "x"),
            "b1": ("x", "p"),
            "b2": ("p", "q"),
            "b3": ("q", "x"),
        }
    )
    bs = blocks(g)
    assert sorted(len(b.edge_list) for b in bs) == [3, 3]
    assert {e for b in bs for e in b.edge_list} == set(g.edge_list)


def test_blocks_wheel_is_one_block(w4):
    assert len(blocks(w4)) == 1


def test_blocks_return_an_inseparable_graph_itself():
    for tag in ("W4", "K1loop", "2C4", "C3(3,3,2)"):
        g = named(tag)
        [block] = blocks(g)
        assert block is g, tag
    # an isolated vertex or a second block makes every block a subgraph
    w4 = named("W4")
    lonely = Graph(w4.edges, w4.vertices | {"z"})
    [block] = blocks(lonely)
    assert block is not lonely and block == w4
    two = Graph({**w4.edges, "x": ("w", "p"), "y": ("w", "p")})
    assert sorted(len(b.edge_list) for b in blocks(two)) == [2, 8]
    assert all(b is not two for b in blocks(two))


def test_blocks_path():
    g = Graph({"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "d")})
    assert sorted(b.edge_list for b in blocks(g)) == [("e1",), ("e2",), ("e3",)]


def test_blocks_carry_exactly_the_circles():
    from gainbalance.cyclespace import enumerate_circles

    g = Graph(
        {
            "a1": ("x", "y"),
            "a2": ("y", "z"),
            "a3": ("z", "x"),
            "b1": ("x", "p"),
            "b2": ("p", "x"),
            "c1": ("p", "q"),
        }
    )
    whole = {c.support for c in enumerate_circles(g)}
    per_block = set()
    for b in blocks(g):
        per_block |= {c.support for c in enumerate_circles(b)}
    assert whole == per_block


def test_blocks_partition_edges_and_loops():
    g = Graph({"l": ("a", "a"), "e1": ("a", "b"), "e2": ("b", "a")})
    bs = blocks(g)
    all_edges = sorted(e for b in bs for e in b.edge_list)
    assert all_edges == ["e1", "e2", "l"]
    assert {frozenset(b.edge_list) for b in bs} == {frozenset({"l"}), frozenset({"e1", "e2"})}


# -- suppression ---------------------------------------------------------------


def test_suppress_hexagon_to_loop():
    g = named("C6(1,1,1,1,1,1)")
    s = suppress_divalent(g)
    assert len(s.vertex_list) == 1 and len(s.edge_list) == 1
    assert is_isomorphic(s, named("K1loop"))


def test_suppress_subdivided_k4():
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
    assert is_isomorphic(suppress_divalent(g), named("K4(1,1)"))


def test_suppress_wheel_unchanged(w4):
    assert suppress_divalent(w4) == w4


def test_suppress_idempotent_and_preserves_dimension():
    for tag in ("W4", "2C4", "C3(3,3,2)", "Grid(2,2)"):
        g = named(tag)
        s = suppress_divalent(g)
        assert suppress_divalent(s) == s
        assert cycle_space_dimension(s) == cycle_space_dimension(g)


def test_suppress_keeps_digon_vertices():
    # both endpoints of a doubled edge have degree >= 3 here; nothing to do
    g = named("C3(2,2,2)")
    assert suppress_divalent(g) == g


# -- spanning forest ------------------------------------------------------------


def test_spanning_forest_examples():
    assert spanning_forest(triangle()) == {"e1", "e2"}
    forest = Graph({"e1": ("a", "b"), "e2": ("c", "d")})
    assert spanning_forest(forest) == {"e1", "e2"}
    assert spanning_forest(named("mK2(5)")) == {"e1"}


def brute_force_path(g, forest, a, b):
    """Breadth-first search over forest edges, independent of RootedForest."""
    prev = {a: None}
    queue = [a]
    for v in queue:
        for e in sorted(forest):
            t, h = g.ends(e)
            if v in (t, h) and g.other_end(e, v) not in prev:
                prev[g.other_end(e, v)] = (e, v)
                queue.append(g.other_end(e, v))
    if b not in prev:
        return None
    steps = []
    while b != a:
        e, v = prev[b]
        steps.append((e, g.ends(e)[0] == v))
        b = v
    return steps[::-1]


def random_forest(rng):
    vertices = [f"v{i}" for i in range(rng.randint(1, 9))]
    edges = {}
    for i, v in enumerate(vertices[1:], start=1):
        if rng.random() < 0.8:
            u = rng.choice(vertices[:i])
            edges[f"t{i}"] = (v, u) if rng.random() < 0.5 else (u, v)
    # chords and loops outside the forest leave the paths unchanged
    for k in range(rng.randint(0, 3)):
        edges[f"c{k}"] = (rng.choice(vertices), rng.choice(vertices))
    g = Graph(edges, vertices)
    return g, frozenset(e for e in edges if e.startswith("t"))


def _check_paths(tree, g, forest):
    disconnected = 0
    for a in g.vertex_list:
        assert tree.path(a, a) == []
        for b in g.vertex_list:
            want = brute_force_path(g, forest, a, b)
            if want is None:
                disconnected += 1
                with pytest.raises(GraphError):
                    tree.path(a, b)
            else:
                assert tree.path(a, b) == want
        for pair in ((a, "outside"), ("outside", a)):
            with pytest.raises(GraphError):
                tree.path(*pair)
    return disconnected


def _check_fields(tree, g, forest, roots):
    """Every field of ``tree`` describes ``forest`` rooted at ``roots``."""
    assert tree.graph is g and tree.forest == forest
    assert set(g.vertex_list) - set(tree.up) == roots
    assert sorted(e for e, _ in tree.up.values()) == sorted(forest)
    for v, (e, parent) in tree.up.items():
        assert g.other_end(e, v) == parent
        seen = {v}
        while v in tree.up:  # the climb from every vertex ends at a root
            v = tree.up[v][1]
            assert v not in seen
            seen.add(v)
        assert v in roots


def test_rooted_forest_paths_match_brute_force():
    rng = random.Random(17)
    disconnected = swaps = 0
    for _ in range(150):
        g, forest = random_forest(rng)
        # more chords, so that most forests take a few swaps
        edges = {**g.edges, **{f"d{k}": (rng.choice(g.vertex_list), rng.choice(g.vertex_list)) for k in range(4)}}
        g = Graph(edges, g.vertex_list)
        tree = RootedForest(g, forest)
        roots = set(g.vertex_list) - set(tree.up)
        fields = (tree.forest, tree.up)
        disconnected += _check_paths(tree, g, forest)
        for _ in range(rng.randrange(6)):
            chords = [e for e in g.edge_list if e not in forest and brute_force_path(g, forest, *g.ends(e))]
            if not chords:
                break
            e = rng.choice(chords)
            f = rng.choice(brute_force_path(g, forest, *g.ends(e)))[0]
            tree.swap(f, e)
            forest = forest - {f} | {e}
            swaps += 1
            # swapped in place: the same objects, no copy
            assert (tree.forest, tree.up) == fields and tree.forest is fields[0] and tree.up is fields[1]
            _check_fields(tree, g, forest, roots)
            disconnected += _check_paths(tree, g, forest)
    assert disconnected > 0 and swaps > 200


def test_rooted_forest_swap_needs_an_edge_on_the_path():
    g = Graph({"x": ("a", "b"), "y": ("b", "c"), "w": ("b", "d"), "z": ("e", "f"), "c1": ("c", "d"), "c2": ("a", "e")})
    forest = {"x", "y", "w", "z"}
    tree = RootedForest(g, forest)
    # x lies above the meeting vertex b of c1's ends, z and c2 on no such path
    for f, e in (("x", "c1"), ("c2", "c1"), ("z", "c2"), ("x", "c2")):
        with pytest.raises(GraphError):
            tree.swap(f, e)
    assert (tree.forest, tree.up) == (forest, RootedForest(g, forest).up)


def test_rooted_forest_roots_are_least_vertices():
    g = Graph({"x": ("b", "a"), "y": ("c", "b"), "z": ("e", "d")})
    tree = RootedForest(g, {"x", "y", "z"})
    assert set(g.vertex_list) - set(tree.up) == {"a", "d"}
    assert tree.up["c"] == ("y", "b")


def test_edge_components_match_subgraph_components():
    rng = random.Random(29)
    for _ in range(100):
        g, _ = random_forest(rng)
        edges = [e for e in g.edge_list if rng.random() < 0.5]
        extra = [v for v in g.vertex_list if rng.random() < 0.3]
        sub = g.subgraph(edges, extra)
        # the reference merges the vertex sets at the two ends of each edge
        parts = [{v} for v in sub.vertex_list]
        for e in edges:
            t, h = g.ends(e)
            pt = next(p for p in parts if t in p)
            ph = next(p for p in parts if h in p)
            if pt is not ph:
                parts.remove(ph)
                pt |= ph
        assert edge_components(g, edges, extra) == sorted(map(frozenset, parts), key=min)
        assert components(sub) == edge_components(g, edges, extra)


def test_spanning_forest_skips_loops():
    g = Graph({"a": ("x", "x"), "b": ("x", "y")})
    assert spanning_forest(g) == {"b"}


def test_spanning_tree_is_built_once_per_graph():
    rng = random.Random(31)
    for _ in range(50):
        g, _ = random_forest(rng)
        tree = spanning_tree(g)
        fresh = RootedForest(g, spanning_forest(g))
        assert (tree.graph, tree.forest, tree.up) == (g, fresh.forest, fresh.up)
        again = spanning_tree(g)
        assert again.graph is g and (again.forest, again.up) == (tree.forest, tree.up)
        assert again.up is tree.up
        # an equal graph is another object and builds its own
        assert spanning_tree(Graph(g.edges, g.vertices)).up is not tree.up


# -- structure built on first use ----------------------------------------------------


def _first_use_corpus() -> list[Graph]:
    """Every multigraph up to 7 edges, plus hosts with loops, parallel edges
    and isolated vertices, and an edgeless one."""
    return [
        *all_multigraphs(7),
        Graph({"a": ("x", "x"), "b": ("x", "y"), "c": ("y", "x"), "d": ("z", "z")}, ["w", "q"]),
        Graph({"e9": ("a", "a"), "e10": ("a", "b"), "e2": ("b", "c"), "e1": ("c", "a")}, ["d"]),
        Graph({}, ["solo"]),
    ]


def _components_from_edges(g: Graph) -> list[frozenset]:
    comp = {v: frozenset({v}) for v in g.vertex_list}
    for t, h in g.edges.values():
        merged = comp[t] | comp[h]
        for v in merged:
            comp[v] = merged
    return sorted(set(comp.values()), key=min)


def test_fresh_graph_builds_no_adjacency_or_vertex_set():
    for g in [named("W4"), named("K1loop"), Graph({"a": ("x", "y")}, ["z"]), Graph({}), *all_multigraphs(4)]:
        assert g._adj is None and g._vertices is None


def test_structure_built_on_first_read_matches_the_edges():
    for g in _first_use_corpus():
        adj = {v: [] for v in g.vertex_list}
        for e, (t, h) in sorted(g.edges.items()):
            adj[t].append((e, h))
            if h != t:
                adj[h].append((e, t))
        assert g.vertices == frozenset(adj) and g._adj is None
        assert g.vertices is g.vertices
        for v in g.vertex_list:
            assert list(g.incident(v)) == adj[v]
            assert g.degree(v) == sum((t == v) + (h == v) for t, h in g.edges.values())
            assert g.neighbors(v) == tuple(sorted({u for _, u in adj[v] if u != v}))
            assert g.loops_at(v) == tuple(e for e in g.edge_list if g.ends(e) == (v, v))
        for u in g.vertex_list:
            for v in g.vertex_list:
                assert g.edges_between(u, v) == tuple(e for e in g.edge_list if sorted(g.ends(e)) == sorted((u, v)))
        kept = g._adj
        assert kept is not None and components(g) == _components_from_edges(g) and g._adj is kept


def test_dimension_is_edges_minus_vertices_plus_components():
    for g in _first_use_corpus():
        assert cycle_space_dimension(g) == len(g.edge_list) - len(g.vertex_list) + len(components(g))


def test_equality_and_hash_read_the_edges_and_the_vertex_set():
    g = Graph({"a": ("x", "y"), "b": ("y", "y")})
    same = Graph({"b": ("y", "y"), "a": ("x", "y")}, ["x"])
    assert g == same and hash(g) == hash(same)
    assert g != Graph({"a": ("x", "y"), "b": ("y", "y")}, ["z"])
    assert g != Graph({"a": ("y", "x"), "b": ("y", "y")})
    assert g != Graph({"a": ("x", "y")}, ["y"])
    corpus = _first_use_corpus()
    assert len(set(corpus)) == len(corpus)
    for g in corpus:
        copy = Graph(dict(reversed(g.edges.items())), reversed(g.vertex_list))
        assert copy == g and hash(copy) == hash(g)
        g.incident(g.vertex_list[0])  # built structure takes no part
        assert copy == g and hash(copy) == hash(g)
        assert Graph(g.edges, [*g.vertex_list, "isolated"]) != g


def test_survey_pass_builds_no_adjacency():
    graphs = list(all_multigraphs(7))
    z3s, z3 = parse_class_spec("groups:Z3"), parse_group_spec("Z3")
    for g in graphs:
        circle_goodness(g, z3s)
        oracle_circle_goodness(g, z3)
    assert [g for g in graphs if g._adj is not None] == []


# -- dimension invariant ----------------------------------------------------------


@pytest.mark.parametrize(
    "tag",
    ["W4", "W5", "2C4", "2C6", "C3(3,3,2)", "K4(2,1)", "K4dd", "mK2(5)", "K1loop", "Grid(2,3)", "Fan(2;1,3)"],
)
def test_dimension_formula(tag):
    g = named(tag)
    assert cycle_space_dimension(g) == len(g.edge_list) - len(g.vertex_list) + len(components(g))


# -- text format ---------------------------------------------------------------


def test_graph_text_round_trip(w4):
    text = graph_to_text(w4)
    again = parse_graph_text(text)
    assert again == w4


def test_graph_text_isolated_vertex_and_comment():
    g = parse_graph_text("# comment\nvertex lonely\nedge e1 a b\n")
    assert "lonely" in g.vertices
    assert g.ends("e1") == ("a", "b")
    with pytest.raises(ParseError):
        parse_graph_text("edge e1 a b\nedge e1 a c\n")


# -- isomorphism ------------------------------------------------------------------


def _assert_edge_bijection(g, h, vmap):
    emap = edge_bijection(g, h, vmap)
    assert len(emap) == len(g.edge_list)
    for e, (e2, flipped) in emap.items():
        t, hd = g.ends(e)
        t2, h2 = h.ends(e2)
        assert {vmap[t], vmap[hd]} == {t2, h2}
        assert flipped == ((vmap[t], vmap[hd]) != (t2, h2))


def test_isomorphism_relabels(w4):
    vrename = {v: f"z{i}" for i, v in enumerate(w4.vertex_list)}
    relabeled = Graph(
        {f"x{i}": (vrename[t], vrename[h]) for i, (_, (t, h)) in enumerate(sorted(w4.edges.items()))}
    )
    assert is_isomorphic(w4, relabeled)
    _assert_edge_bijection(w4, relabeled, isomorphism(w4, relabeled))


def _shuffled_copy(rng, g):
    """``g`` with fresh vertex and edge names and random orientations."""
    vrename = dict(zip(g.vertex_list, (f"z{i}" for i in rng.sample(range(100), len(g.vertex_list)))))
    edges = {}
    for i, e in enumerate(rng.sample(g.edge_list, len(g.edge_list))):
        t, h = g.ends(e)
        edges[f"x{i}"] = (vrename[t], vrename[h]) if rng.random() < 0.5 else (vrename[h], vrename[t])
    return Graph(edges, vrename.values())


def test_bad_verdicts_label_the_shared_target_once(monkeypatch):
    # a Graph keeps its canonical labeling, so the second verdict cut down to
    # the same forbidden minor labels only its own minimal minor, not the
    # shared target again
    labeling = graphcore._canonical_connected
    calls = []
    monkeypatch.setattr(graphcore, "_canonical_connected", lambda n, mult: calls.append(n) or labeling(n, mult))
    classify._target.cache_clear()
    cz3 = parse_class_spec("contains-z3")
    first = circle_goodness(named("W6"), cz3)
    labeled = len(calls)
    second = circle_goodness(named("W7"), cz3)
    assert first.status == second.status == BAD
    assert (labeled, len(calls) - labeled) == (2, 1), calls
    target = classify._target(classify.FORBIDDEN_MINORS[0])
    assert canonical_key(target) == canonical_labeling(target)[0] and target._canon is canonical_labeling(target)


def test_isomorphism_agrees_with_canonical_keys():
    # the degree and edge-count guard rejects only pairs whose canonical keys
    # differ, and every map it lets through extends to an edge bijection
    rng = random.Random(6)
    graphs = inseparable_multigraphs(6)
    copies = [_shuffled_copy(rng, h) for h in graphs]
    for g in graphs:
        for h in copies:
            same = canonical_key(g) == canonical_key(h)
            vmap = isomorphism(g, h)
            assert (vmap is not None) == same == is_isomorphic(g, h)
            if vmap is not None:
                _assert_edge_bijection(g, h, vmap)


def test_small_graphs_are_decided_by_bijections_as_by_canonical_keys():
    # every multigraph on at most four vertices with at most 8 edges (loops,
    # parallel edges, then isolated vertices added), and the edgeless ones,
    # against a shuffled copy of every graph with its degree invariants
    rng = random.Random(4)
    small = [g for g in all_multigraphs(8) if len(g.vertex_list) <= 4]
    small += [Graph(g.edges, [*g.vertex_list, *(f"x{i}" for i in range(k))])
              for g in small for k in range(1, 5 - len(g.vertex_list))]
    small += [Graph({}, [f"x{i}" for i in range(n)]) for n in range(5)]
    alike: dict = {}
    for g in small:
        alike.setdefault(repr(graphcore._degree_invariants(g)), []).append(g)
    pairs = same = 0
    for graphs in alike.values():
        copies = [_shuffled_copy(rng, h) for h in graphs]
        for g in graphs:
            for h in copies:
                expected = canonical_key(g) == canonical_key(h)
                assert is_isomorphic(g, h) == expected == (isomorphism(g, h) is not None), (g.edges, h.edges)
                pairs += 1
                same += expected
    assert (len(small), same) == (3022, 3022), (len(small), same)
    assert pairs > 60_000, pairs


def test_non_isomorphic_pairs():
    assert not is_isomorphic(named("W4"), named("W5"))
    assert not is_isomorphic(named("2C4"), named("C3(3,3,2)"))
    assert not is_isomorphic(named("K4dd"), named("K4(2,2)"))
    assert canonical_key(named("2C4")) == canonical_key(named("C4(2,2,2,2)"))
