import math
import random

import pytest

from gainbalance import graphcore
from gainbalance.balancetests import (
    QueryReport,
    abelian_witness,
    binary_cycle_test,
    circle_test,
    implies_balance_abelian,
    smith_normal_form,
)
from gainbalance.cyclespace import (
    OrientedBasis,
    basis_to_text,
    circle_from_support,
    cycle_space_dimension,
    enumerate_circles,
    fundamental_circles,
    is_cycle_basis,
    oriented_basis,
    parse_basis_text,
)
from gainbalance.enumeration import connected_multigraphs, inseparable_multigraphs, materialize
from gainbalance.errors import GraphError
from gainbalance.gaingraph import GainGraph, Switching, gain_graph, is_balanced, switch, walk_gain
from gainbalance.graphcore import ClosedWalk, Graph, grid_faces, spanning_forest, walk_int_vector
from gainbalance.groups import FreeGroup, abelian_product, cyclic, free_on, symmetric
from abelian_reference import FullEdgeReport, odd_order_survey, smith_normal_form_full_scan
from conftest import named
from cyclespace_reference import reference_circle_walk


Z3 = cyclic(3)


def hamiltonian_basis(w):
    return [c for c in enumerate_circles(w) if len(c) == len(w.vertex_list)]


# -- Smith normal form ------------------------------------------------------------


def det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det(minor)
    return total


def determinantal_invariants(mat):
    """Independent oracle: d_k = gcd of k x k minors divided by gcd of
    (k-1) x (k-1) minors."""
    import itertools

    m, n = len(mat), len(mat[0])
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = math.gcd(g, det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def test_smith_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).diagonal == (1, 1, 1)


def test_smith_2x2_example():
    sf = smith_normal_form([[4, 6], [2, 2]])
    assert sf.diagonal == (2, 2)
    assert determinantal_invariants([[4, 6], [2, 2]]) == (2, 2)


def test_smith_1x1():
    assert smith_normal_form([[3]]).diagonal == (3,)


def test_smith_transforms_reconstruct():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        sf = smith_normal_form(a)
        diagonal, left, right = smith_normal_form_full_scan(a)
        assert (sf.diagonal, sf.right) == (diagonal, right)
        # D == left @ a @ right, exactly, with the reference's left transform
        la = [[sum(left[i][k] * a[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
        lav = [[sum(la[i][k] * sf.right[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
        for i in range(m):
            for j in range(n):
                assert lav[i][j] == (sf.diagonal[i] if i == j and i < len(sf.diagonal) else 0)
        assert abs(det([list(r) for r in left])) == 1
        assert abs(det([list(r) for r in sf.right])) == 1
        # divisibility chain
        factors = [d for d in sf.diagonal if d]
        for x, y in zip(factors, factors[1:]):
            assert y % x == 0
        assert tuple(factors) == determinantal_invariants(a)


def test_smith_invariant_under_unimodular():
    rng = random.Random(29)

    def random_unimodular(n):
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            q = rng.randrange(-3, 4)
            for k in range(n):
                mat[i][k] += q * mat[j][k]
        return mat

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]

    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    base = smith_normal_form(a).diagonal
    for _ in range(10):
        u = random_unimodular(3)
        v = random_unimodular(3)
        assert smith_normal_form(matmul(u, matmul(a, v))).diagonal == base


# -- binary cycle test -----------------------------------------------------------


def test_binary_test_loop_vertex_odd():
    k1 = named("K1loop")
    gg = gain_graph(k1, Z3, {"e": Z3.element([1])})
    walk = ClosedWalk("v", (("e", True),) * 3)
    ob = OrientedBasis(((frozenset({"e"}), walk),), k1)
    assert binary_cycle_test(gg, ob)
    assert not is_balanced(gg).balanced


def test_binary_test_loop_vertex_z2():
    k1 = named("K1loop")
    z2 = cyclic(2)
    gg = gain_graph(k1, z2, {"e": z2.element([1])})
    walk = ClosedWalk("v", (("e", True),) * 3)
    ob = OrientedBasis(((frozenset({"e"}), walk),), k1)
    assert not binary_cycle_test(gg, ob)


def test_binary_test_balanced_graph_always_passes():
    rng = random.Random(3)
    for tag in ("W4", "2C4"):
        g = named(tag)
        # balanced gains: switch identity gains by a random function
        from gainbalance.gaingraph import Switching, switch

        gg = gain_graph(g, Z3, {})
        f = Switching({v: rng.choice(Z3.elements()) for v in g.vertex_list})
        gg = switch(gg, f)
        assert is_balanced(gg).balanced
        ob = oriented_basis(g, [c.support for c in fundamental_circles(g, spanning_forest(g))])
        assert binary_cycle_test(gg, ob)


def test_binary_test_rejects_non_basis():
    g = named("W4")
    gg = gain_graph(g, Z3, {})
    tris = [c for c in enumerate_circles(g) if len(c) == 3]
    ob = oriented_basis(g, [tris[0].support])
    with pytest.raises(GraphError):
        binary_cycle_test(gg, ob)


def test_binary_fundamental_implies_balanced():
    # with a fundamental system and natural orientations, passing the test
    # is the same as being balanced
    rng = random.Random(101)
    for tag in ("W4", "C3(3,3,2)", "K4(2,1)"):
        g = named(tag)
        basis = fundamental_circles(g, spanning_forest(g))
        ob = oriented_basis(g, [c.support for c in basis])
        for _ in range(20):
            gg = gain_graph(g, Z3, {e: rng.choice(Z3.elements()) for e in g.edge_list})
            assert binary_cycle_test(gg, ob) == is_balanced(gg).balanced


# -- circle test -------------------------------------------------------------------


def test_circle_test_c332_six_triangles():
    g = named("C3(3,3,2)")
    gains = {e: Z3.element([1]) for e in ("f12", "f23", "f31")}
    gains.update({e: Z3.element([2]) for e in ("g12", "g23")})
    gg = gain_graph(g, Z3, gains)
    six = [
        {"e12", "e23", "e31"},
        {"f12", "g23", "e31"},
        {"g12", "f23", "e31"},
        {"f12", "f23", "f31"},
        {"e12", "g23", "f31"},
        {"g12", "e23", "f31"},
    ]
    assert circle_test(gg, six)
    assert not is_balanced(gg).balanced


def test_circle_test_w4_hamiltonian():
    w4 = named("W4")
    gains = {f"r{i}": Z3.element([1]) for i in range(1, 5)}
    gg = gain_graph(w4, Z3, gains)
    assert circle_test(gg, [c.support for c in hamiltonian_basis(w4)])
    rim = circle_from_support(w4, {"r1", "r2", "r3", "r4"})
    assert walk_gain(gg, rim.walk) == Z3.element([4])  # 4 = 1 mod 3
    assert not is_balanced(gg).balanced


def test_circle_test_identity_gains():
    for tag in ("W4", "2C4"):
        g = named(tag)
        gg = gain_graph(g, Z3, {})
        basis = fundamental_circles(g, spanning_forest(g))
        assert circle_test(gg, [c.support for c in basis])


def reference_circle_test(gg, members):
    """Every member circle's canonical walk has identity gain, one walk-gain
    loop over the circles; raises unless the circles form a basis."""
    circles = [circle_from_support(gg.graph, m) for m in members]
    if not is_cycle_basis([c.support for c in circles], gg.graph):
        raise GraphError("members do not form a basis")
    return all(walk_gain(gg, c.walk) == gg.group.identity() for c in circles)


def random_gain(group, rng):
    if isinstance(group, FreeGroup):
        return group.element([(rng.choice(group.symbols), rng.choice((1, -1))) for _ in range(rng.randint(1, 2))])
    return rng.choice(group.elements())


def independent_of(masks, c, g):
    """Append the support mask of ``c`` to ``masks`` when it is independent
    of them over GF(2); report whether it was."""
    m = sum(1 << i for i, e in enumerate(g.edge_list) if e in c.support)
    for row in masks:
        m = min(m, m ^ row)
    if m:
        masks.append(m)
        masks.sort(reverse=True)
    return bool(m)


def test_circle_test_equals_per_circle_walk_gains():
    # circle bases drawn at random, each member given as a frozenset, set or
    # sorted list of edge ids; gains random, or a switching of sparse gains so that many
    # bases pass; non-bases must raise in both
    rng = random.Random(71)
    groups = (Z3, abelian_product(2, 3), symmetric(3), free_on("a", "b"))
    outcomes = {True: 0, False: 0}
    for tag in ("W4", "2C4", "K4dd", "Grid(3,3)"):
        g = named(tag)
        circles = [c for c in enumerate_circles(g) if len(c) <= 8]
        dim = cycle_space_dimension(g)
        for group in groups:
            for _ in range(25):
                rng.shuffle(circles)
                members, masks = [], []
                for c in circles:
                    if len(members) < dim and independent_of(masks, c, g):
                        members.append(c)
                if rng.random() < 0.2:
                    members = members[1:]  # too few: not a basis
                form = rng.choice((frozenset, set, sorted))
                basis = [form(c.support) for c in members]
                sparse = rng.random() < 0.5
                gains = {e: random_gain(group, rng) for e in g.edge_list if not sparse or rng.random() < 0.15}
                gg = gain_graph(g, group, gains)
                gg = switch(gg, Switching({v: random_gain(group, rng) for v in g.vertex_list}))
                try:
                    expected = reference_circle_test(gg, basis)
                except GraphError:
                    with pytest.raises(GraphError):
                        circle_test(gg, basis)
                    continue
                assert circle_test(gg, basis) == expected
                outcomes[expected] += 1
    assert outcomes[True] > 20 and outcomes[False] > 20


def test_circle_orientation_pairs_canonical_walks():
    # a basis's canonical circle walks come from circle_from_support, which
    # leaves each circle's least vertex by its lesser edge
    g = named("2C4")
    members = [c.support for c in fundamental_circles(g, spanning_forest(g))]
    circles = [circle_from_support(g, m) for m in members]
    assert [c.support for c in circles] == members
    assert [c.walk for c in circles] == [reference_circle_walk(g, m) for m in members]
    for c in circles:
        first = c.walk.steps[0][0]
        assert c.walk.start == min(v for e in c.support for v in g.ends(e))
        assert first == min(e for e in c.support if c.walk.start in g.ends(e))
    with pytest.raises(GraphError, match="is not a circle"):
        circle_from_support(g, {"e1", "f1", "e2", "f2"})  # two digons, not a circle


# -- abelian analysis ----------------------------------------------------------------


def test_w4_rim_order_three():
    w4 = named("W4")
    ob = oriented_basis(w4, [c.support for c in hamiltonian_basis(w4)])
    rim = circle_from_support(w4, {"r1", "r2", "r3", "r4"})
    rep = implies_balance_abelian(w4, ob, [rim])
    assert rep.queries[0].order == 3
    assert rep.invariant_factors == (3,)


def test_c332_digon_order_three():
    g = named("C3(3,3,2)")
    six = [
        {"e12", "e23", "e31"},
        {"f12", "g23", "e31"},
        {"g12", "f23", "e31"},
        {"f12", "f23", "f31"},
        {"e12", "g23", "f31"},
        {"g12", "e23", "f31"},
    ]
    ob = oriented_basis(g, six)
    digon = circle_from_support(g, {"e31", "f31"})
    rep = implies_balance_abelian(g, ob, [digon])
    assert rep.order_of(digon) == 3


def test_2c4_odd_sequence_order_three():
    g = named("2C4")
    members = [
        {"e1", "e2", "e3", "e4"},
        {"f1", "f2", "f3", "e4"},
        {"f1", "e2", "e3", "f4"},
        {"e1", "f2", "e3", "f4"},
        {"e1", "e2", "f3", "f4"},
    ]
    ob = oriented_basis(g, members)
    d = circle_from_support(g, {"f1", "f2", "f3", "f4"})
    rep = implies_balance_abelian(g, ob, [d])
    assert rep.order_of(d) == 3


@pytest.mark.parametrize("k", [2, 3, 4])
def test_wheel_rim_order_2k_minus_1(k):
    w = named(f"W{2 * k}")
    ob = oriented_basis(w, [c.support for c in hamiltonian_basis(w)])
    rim = circle_from_support(w, {f"r{i}" for i in range(1, 2 * k + 1)})
    rep = implies_balance_abelian(w, ob, [rim])
    assert rep.order_of(rim) == 2 * k - 1


def test_fundamental_basis_all_orders_one():
    for tag in ("W4", "2C4", "C3(3,3,2)"):
        g = named(tag)
        basis = fundamental_circles(g, spanning_forest(g))
        ob = oriented_basis(g, [c.support for c in basis])
        queries = enumerate_circles(g)
        rep = implies_balance_abelian(g, ob, queries)
        assert all(q.order == 1 for q in rep.queries)


def test_abelian_witness_w4():
    w4 = named("W4")
    hams = hamiltonian_basis(w4)
    ob = oriented_basis(w4, [c.support for c in hams])
    rim = circle_from_support(w4, {"r1", "r2", "r3", "r4"})
    rep = implies_balance_abelian(w4, ob, [rim])
    ga = abelian_witness(rep, rim, 3)
    gg = GainGraph(w4, ga)
    assert circle_test(gg, [c.support for c in hams])
    assert not is_balanced(gg).balanced
    assert walk_gain(gg, rim.walk) != gg.group.identity()


def test_abelian_analysis_and_balance_share_one_spanning_tree(monkeypatch):
    w6 = named("W6")
    spanning, built = graphcore.spanning_forest, []
    monkeypatch.setattr(graphcore, "spanning_forest", lambda h: built.append(h) or spanning(h))
    ob = oriented_basis(w6, [c.support for c in hamiltonian_basis(w6)])
    rim = circle_from_support(w6, {f"r{i}" for i in range(1, 7)})
    rep = implies_balance_abelian(w6, ob, [rim])
    gg = GainGraph(w6, abelian_witness(rep, rim, 5))
    assert not is_balanced(gg).balanced and binary_cycle_test(gg, ob)
    assert built == [w6]


def test_abelian_witness_rejects_order_one_query():
    g = named("W4")
    basis = fundamental_circles(g, spanning_forest(g))
    ob = oriented_basis(g, [c.support for c in basis])
    rim = circle_from_support(g, {"r1", "r2", "r3", "r4"})
    rep = implies_balance_abelian(g, ob, [rim])
    assert rep.order_of(rim) == 1
    with pytest.raises(GraphError):
        abelian_witness(rep, rim, 3)


def test_order_one_iff_no_small_cyclic_witness():
    """All query orders equal one exactly when no unbalanced assignment over
    Z2..Z5 balances the basis (checked exhaustively on small graphs)."""
    import itertools

    from gainbalance.enumeration import inseparable_multigraphs
    from gainbalance.cyclespace import gf2_rank

    for g in inseparable_multigraphs(5):
        circles = enumerate_circles(g)
        dim = cycle_space_dimension(g)
        if dim == 0 or dim > 4:
            continue
        edge_pos = {e: i for i, e in enumerate(g.edge_list)}
        mask = lambda c: sum(1 << edge_pos[e] for e in c.support)
        chords = sorted(set(g.edge_list) - spanning_forest(g))
        for combo in itertools.combinations(circles, dim):
            if gf2_rank([mask(c) for c in combo]) != dim:
                continue
            ob = oriented_basis(g, [c.support for c in combo])
            rep = implies_balance_abelian(g, ob, circles)
            all_one = all(q.order == 1 for q in rep.queries)
            witness_found = False
            # forest gains pinned to the identity: sound by switching
            for d in (2, 3, 4, 5):
                grp = cyclic(d)
                for values in itertools.product(range(d), repeat=len(chords)):
                    if not any(values):
                        continue
                    gg = gain_graph(
                        g, grp, {e: grp.element([values[i]]) for i, e in enumerate(chords)}
                    )
                    if all(walk_gain(gg, c.walk) == gg.group.identity() for c in combo):
                        witness_found = True
                        break
                if witness_found:
                    break
            assert all_one == (not witness_found), sorted(g.edges.items())


def test_report_json_round_trip_fields():
    w4 = named("W4")
    ob = oriented_basis(w4, [c.support for c in hamiltonian_basis(w4)])
    rim = circle_from_support(w4, {"r1", "r2", "r3", "r4"})
    rep = implies_balance_abelian(w4, ob, [rim])
    data = rep.to_json()
    assert data["invariant_factors"] == [3]
    assert data["queries"][0]["order"] == 3
    assert sorted(data["edge_order"]) == sorted(w4.edge_list)


# -- Smith normal form: unit-pivot shortcuts against the full scan ---------------------


def bareiss_det(mat):
    """Exact determinant by fraction-free elimination."""
    a = [list(row) for row in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def check_smith(a):
    """The Smith form of ``a`` equals the full-scan reference's, reconstructs
    ``a`` exactly through unimodular transforms (the reference's left one) and
    has the divisibility chain."""
    sf = smith_normal_form(a)
    diagonal, left, right = smith_normal_form_full_scan(a)
    assert (sf.diagonal, sf.right) == (diagonal, right)
    m, n = len(a), len(a[0])
    la = [[sum(left[i][k] * a[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    lar = [[sum(la[i][k] * sf.right[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    assert lar == [[sf.diagonal[i] if i == j else 0 for j in range(n)] for i in range(m)]
    assert abs(bareiss_det(left)) == 1 and abs(bareiss_det(sf.right)) == 1
    factors = sf.invariant_factors
    assert all(d > 0 for d in factors) and all(y % x == 0 for x, y in zip(factors, factors[1:]))
    return sf


def test_smith_unit_pivots_match_full_scan_on_sparse_matrices():
    # sparse 0/+-1 matrices: every pivot is a unit, so both shortcuts run
    rng = random.Random(1101)
    for _ in range(150):
        m, n = rng.randint(1, 12), rng.randint(1, 20)
        density = rng.choice((0.1, 0.25, 0.5))
        a = [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        check_smith(a)


def test_smith_without_unit_entries_matches_full_scan():
    # no entry of absolute value 1: the first pivots are not units, so the
    # pivot scan runs to the end and the divisibility scan runs (past 6 x 8
    # the transforms' entries grow to thousands of bits, here as at the full scan)
    rng = random.Random(1103)
    values = (2, -2, 3, -3, 4, 6, -9, 10)
    nontrivial = 0
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        a = [[rng.choice(values) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(m)]
        nontrivial += any(d > 1 for d in check_smith(a).invariant_factors)
    assert nontrivial > 60


def test_smith_mixed_entries_match_full_scan():
    # entries up to 3 in absolute value, units among them (up to 8 x 10: at
    # 12 x 20 some transforms' entries grow to thousands of bits, as above)
    rng = random.Random(1105)
    for _ in range(120):
        m, n = rng.randint(1, 8), rng.randint(1, 10)
        a = [[rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(m)]
        check_smith(a)
    for a in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[4, 6], [2, 2]], [[3]], [[0, 0], [0, 0]], [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]):
        check_smith(a)
    rng = random.Random(17)  # the matrices of test_smith_transforms_reconstruct
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        check_smith([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)])


# -- abelian analysis in chord coordinates against the full-edge reference -----------


def check_against_reference(g, ob, queries):
    """The report equals the full-edge reference, its Smith form is the full
    scan's on the chord matrix, and each query of order n > 1 gets a
    verified witness over Z_n exactly when some map of the quotient to Z_n
    is nonzero on it, else one over the largest invariant factor.  Returns
    the report."""
    rep = implies_balance_abelian(g, ob, queries)
    ref = FullEdgeReport(g, ob, queries)
    assert rep.to_json() == ref.to_json()
    assert (rep.lattice_rank, rep.invariant_factors) == (ref.rank, tuple(d for d in ref.diagonal if d > 1))
    forest = spanning_forest(g)
    chords = [e for e in g.edge_list if e not in forest]
    rows = [[walk_int_vector(w).get(e, 0) for e in chords] for w in ob.walks]
    if rows:
        diagonal, _, right = smith_normal_form_full_scan(rows)
        assert (rep._smith.diagonal, rep._smith.right) == (diagonal, right)
    for k, z in enumerate(queries):
        n = rep.queries[k].order
        if n == 1:
            continue
        if not ref.separated_over(k, n):
            # e.g. 3 in Z_9: no map to Z_3 sees it, one to Z_9 does
            with pytest.raises(GraphError):
                abelian_witness(rep, z, n)
            n = rep.invariant_factors[-1]
            assert ref.separated_over(k, n)
        gg = GainGraph(g, abelian_witness(rep, z, n))
        ident = gg.group.identity()
        assert all(walk_gain(gg, w) == ident for w in ob.walks)
        assert walk_gain(gg, z.walk) != ident
        assert all(gg.assignment.gains[e] == ident for e in forest)
    return rep


def rectangle(i0, j0, i1, j1):
    """Boundary of the grid cells [i0, i1) x [j0, j1)."""
    return {f"h{i}_{j}" for i in (i0, i1) for j in range(j0, j1)} | {f"v{i}_{j}" for i in range(i0, i1) for j in (j0, j1)}


def test_abelian_chords_match_reference_on_every_small_circle_basis():
    import itertools

    bases = 0
    for g in inseparable_multigraphs(5):
        circles = enumerate_circles(g)
        dim = cycle_space_dimension(g)
        if dim == 0 or dim > 4:
            continue
        for combo in itertools.combinations([c.support for c in circles], dim):
            if is_cycle_basis(combo, g):
                check_against_reference(g, oriented_basis(g, combo), circles)
                bases += 1
    assert bases > 100


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_abelian_chords_match_reference_on_wheel_hamiltonian_bases(k):
    w = named(f"W{2 * k}")
    circles = enumerate_circles(w)
    rep = check_against_reference(w, oriented_basis(w, [c.support for c in hamiltonian_basis(w)]), circles)
    assert rep.order_of(circle_from_support(w, {f"r{i}" for i in range(1, 2 * k + 1)})) == 2 * k - 1


@pytest.mark.parametrize("r,c", [(1, 1), (2, 3), (4, 4), (3, 7)])
def test_abelian_chords_match_reference_on_grid_face_bases(r, c):
    g = named(f"Grid({r},{c})")
    rects = {frozenset(rectangle(i0, j0, i1, j1)) for i0 in range(r) for i1 in range(i0 + 1, r + 1)
             for j0 in range(c) for j1 in range(j0 + 1, c + 1)}
    queries = [circle_from_support(g, s) for s in sorted(rects, key=sorted)]
    rep = check_against_reference(g, oriented_basis(g, grid_faces(r, c)), queries)
    assert all(q.order == 1 for q in rep.queries)


def repeated(walk, times):
    """``walk`` traversed |times| times, reversed when ``times`` < 0."""
    steps = walk.steps if times > 0 else tuple((e, not forward) for e, forward in reversed(walk.steps))
    return ClosedWalk(walk.start, steps * abs(times))


def path_steps(g, a, b):
    """Steps of a shortest path from ``a`` to ``b``."""
    back = {a: None}
    frontier = [a]
    while b not in back:
        nxt = []
        for v in frontier:
            for eid, u in g.incident(v):
                if u not in back:
                    back[u] = ((eid, g.ends(eid)[0] == v), v)
                    nxt.append(u)
        frontier = nxt
    steps = []
    while back[b] is not None:
        step, b = back[b]
        steps.append(step)
    return tuple(reversed(steps))


def seeded_walk_basis(g, circles, rng):
    """A random circle basis whose walks wind their circle an odd number of
    times and may detour to wind another member an even number of times, so
    that the mod-2 projection is the member while edge counts reach +-2 or
    more; written with ``walk:`` lines and read back."""
    rng.shuffle(circles)
    members, masks = [], []
    for c in circles:
        if len(members) < cycle_space_dimension(g) and independent_of(masks, c, g):
            members.append(c)
    walks = []
    for c in members:
        w = repeated(c.walk, rng.choice((1, 1, -1, 3, -3)))
        if rng.random() < 0.5:
            other = rng.choice(members).walk
            there = path_steps(g, w.start, other.start)
            back = tuple((e, not forward) for e, forward in reversed(there))
            w = ClosedWalk(w.start, w.steps + there + repeated(other, rng.choice((2, -2, 4))).steps + back)
        walks.append(w)
    ob = OrientedBasis(tuple((c.support, w) for c, w in zip(members, walks)), g)
    return parse_basis_text(basis_to_text(ob), g)


def test_abelian_chords_match_reference_on_walk_line_bases():
    rng = random.Random(1107)
    looped = Graph({"a": ("x", "y"), "b": ("x", "y"), "c": ("y", "z"), "d": ("z", "x"), "l": ("z", "z")})
    hosts = [named(t) for t in ("K1loop", "W4", "W5", "2C4", "K4dd", "C3(3,3,2)", "K4(2,1)", "Grid(2,3)")] + [looped]
    large_entries = torsion = witnesses = 0
    for g in hosts:
        circles = enumerate_circles(g)
        for _ in range(12):
            ob = seeded_walk_basis(g, list(circles), rng)
            large_entries += any(abs(x) >= 2 for w in ob.walks for x in walk_int_vector(w).values())
            rep = check_against_reference(g, ob, circles)
            torsion += bool(rep.invariant_factors)
            witnesses += sum(1 for q in rep.queries if q.order != 1)
    assert large_entries > 50 and torsion > 30 and witnesses > 100


# -- every order is odd --------------------------------------------------------------


def test_every_diagonal_entry_and_order_is_odd_on_random_walk_bases():
    # a basis is a GF(2) basis, so its chord matrix has an odd determinant:
    # the lattice form of the classifier's abelian-without-odd-torsion rule
    graphs = [materialize(c) for level in connected_multigraphs(6) for c in level]
    graphs += [named(t) for t in ("W4", "W6", "2C4", "K4dd", "C3(3,3,2)", "Grid(3,3)")]
    bases, even, orders, factors, witnesses = odd_order_survey(graphs, seed=2)
    assert (bases, even, witnesses) == (1808, 0, 0)
    assert orders == {1, 3, 5, 9} and factors == {3, 5, 9}


def test_a_walk_that_does_not_project_to_its_member_raises():
    # the same member twice round: an even row, so an even determinant
    g = named("W4")
    ob = oriented_basis(g, [c.support for c in fundamental_circles(g, spanning_forest(g))])
    (member, walk), *rest = ob.pairs
    doubled = OrientedBasis(((member, repeated(walk, 2)), *rest), g)
    implies_balance_abelian(g, ob, enumerate_circles(g))
    with pytest.raises(GraphError, match="even determinant"):
        implies_balance_abelian(g, doubled, enumerate_circles(g))
