import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gainbalance.errors import GraphError, ParseError
from gainbalance.gaingraph import gain_graph
from gainbalance.groups import (
    ALL,
    ALL_ABELIAN,
    EXPLICIT,
    ClassFlags,
    WITNESS_MAX_ORDER,
    GroupClass,
    abelian_product,
    class_flags,
    cyclic,
    free_on,
    parse_class_spec,
    parse_group_header,
    parse_group_spec,
    symmetric,
)
from conftest import triangle


def test_cyclic_arithmetic():
    z3 = cyclic(3)
    assert z3.op(z3.element([1]), z3.element([2])) == z3.identity()
    assert z3.inverse(z3.element([1])) == z3.element([2])
    assert z3.identity() == z3.element([0])


def test_product_arithmetic():
    p = abelian_product(2, 3)
    assert p.inverse(p.element([1, 2])) == p.element([1, 1])
    assert p.op(p.element([1, 2]), p.element([1, 1])) == p.identity()


def test_free_reduction():
    f = free_on("a", "b")
    x = f.element([("a", 1), ("b", 1)])
    y = f.element([("b", -1), ("a", 1)])
    assert f.op(x, y) == f.element([("a", 1), ("a", 1)])
    assert f.op(x, f.inverse(x)) == f.identity()


def test_non_elements_rejected_by_gain_graph():
    # elements carry no group, so gain_graph checks membership
    g = triangle()
    foreign = [
        (cyclic(2), cyclic(3).element([2])),  # residue out of range
        (cyclic(3), abelian_product(3, 3).element([1, 1])),  # wrong length
        (cyclic(3), (1.0,)),  # not an integer residue
        (free_on("a", "b"), (("a", 1), ("a", -1))),  # not reduced
        (free_on("a", "b"), (("c", 1),)),  # unknown symbol
        (free_on("a", "b"), (("a", 2),)),  # bad sign
        (symmetric(3), (0, 1, 1)),  # not a permutation
        (symmetric(3), symmetric(4).identity()),  # wrong degree
        (symmetric(3), cyclic(3).element([1])),
    ]
    for group, x in foreign:
        with pytest.raises(GraphError):
            gain_graph(g, group, {"e1": x})
    for group, x in ((cyclic(3), (2,)), (free_on("a", "b"), (("a", 1), ("b", -1))), (symmetric(3), (1, 2, 0))):
        assert gain_graph(g, group, {"e1": x}).assignment.gains["e1"] == x


def test_enumeration_matches_order():
    for g in (cyclic(4), abelian_product(2, 3), symmetric(3), symmetric(4)):
        els = g.elements()
        assert len(els) == g.order()
        assert len(set(els)) == len(els)
        assert els[0] == g.identity()


# group laws over random triples; hypothesis drives the sampling
group_strategy = st.sampled_from(
    [cyclic(2), cyclic(3), cyclic(5), abelian_product(2, 2), abelian_product(2, 3), symmetric(3), symmetric(4)]
)


@settings(max_examples=300, deadline=None)
@given(group_strategy, st.data())
def test_group_laws_finite(g, data):
    els = g.elements()
    x, y, z = (data.draw(st.sampled_from(els)) for _ in range(3))
    assert g.op(g.op(x, y), z) == g.op(x, g.op(y, z))
    assert g.op(x, g.identity()) == x
    assert g.op(x, g.inverse(x)) == g.identity()


def test_group_laws_bulk_random_triples():
    import random

    rng = random.Random(1009)
    kinds = [cyclic(4), abelian_product(2, 3), free_on("a", "b"), symmetric(3), symmetric(4)]
    for g in kinds:
        if g.order() is not None:
            els = g.elements()
            draw = lambda: rng.choice(els)
        else:
            syms = list(g.symbols)
            draw = lambda: g.element(
                [(rng.choice(syms), rng.choice((1, -1))) for _ in range(rng.randrange(0, 6))]
            )
        for _ in range(10_000):
            x, y, z = draw(), draw(), draw()
            assert g.op(g.op(x, y), z) == g.op(x, g.op(y, z))
            assert g.op(x, g.identity()) == x
            assert g.op(g.inverse(x), x) == g.identity()
    s3 = symmetric(3)
    assert s3.op((1, 0, 2), (0, 2, 1)) != s3.op((0, 2, 1), (1, 0, 2))  # S3 is not commutative


letters = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([1, -1])), max_size=8
)


@settings(max_examples=300, deadline=None)
@given(letters, letters, letters)
def test_free_reduction_confluent(u, v, w):
    f = free_on("a", "b", "c")
    x, y, z = (f.element(t) for t in (u, v, w))
    assert f.op(f.op(x, y), z) == f.op(x, f.op(y, z))


# -- class flags ---------------------------------------------------------------


def test_class_flags_all():
    flags = class_flags(GroupClass(ALL))
    assert flags.contains_z3 and flags.has_odd_torsion and not flags.abelian_only


def test_class_flags_two_groups_no_odd():
    flags = class_flags(parse_class_spec("groups:Z2,Z4"))
    assert not flags.contains_z3
    assert not flags.has_odd_torsion
    assert flags.abelian_only


def test_class_flags_subgroup_closure():
    flags = class_flags(parse_class_spec("groups:Z6"))
    assert flags.contains_z3  # Z3 <= Z6
    flags10 = class_flags(parse_class_spec("groups:Z10"))
    assert not flags10.contains_z3 and flags10.smallest_odd_order == 5


def test_class_flags_free():
    flags = class_flags(GroupClass(EXPLICIT, (free_on("a", "b"),)))
    assert not flags.has_odd_torsion and not flags.abelian_only
    flags1 = class_flags(GroupClass(EXPLICIT, (free_on("a"),)))
    assert flags1.abelian_only  # the free group on one symbol is abelian


def test_class_flags_abelian_kind():
    flags = class_flags(GroupClass(ALL_ABELIAN))
    assert flags.contains_z3 and flags.abelian_only


# -- parsing ----------------------------------------------------------------------


def test_group_header_parsing():
    assert parse_group_header("Z 3") == cyclic(3)
    assert parse_group_header("Z 2 x Z 3") == abelian_product(2, 3)
    assert parse_group_header("free a b") == free_on("a", "b")
    with pytest.raises(ParseError):
        parse_group_header("ZZ 3")


def test_group_spec_parsing():
    assert parse_group_spec("Z3") == cyclic(3)
    assert parse_group_spec("Z2xZ2") == abelian_product(2, 2)
    assert parse_group_spec("S3") == symmetric(3)
    assert parse_group_spec("S12") == symmetric(12)
    assert parse_group_spec("Z2xZ3xZ12") == abelian_product(2, 3, 12)
    # orders in ASCII digits without a leading zero, as the gain-file header takes them
    for bad in ("D4", "S0", "Sx", "S", "S03", "S-3", "S1\u0663", "Z0", "Z03", "Z\u00b2", "Z1\u0663", "Z2xZ0", "Z3x", "Z 3"):
        with pytest.raises(ParseError):
            parse_group_spec(bad)


# -- element orders against brute force ------------------------------------------

FREE_ORDER_CAP = 12  # free groups are checked for d <= 12
ORDER_POOL = (
    [cyclic(k) for k in range(1, 61)]
    + [abelian_product(*m) for m in ((2, 6), (2, 2), (4, 6), (3, 5), (2, 3, 4))]
    + [symmetric(n) for n in range(1, 8)]
    + [free_on(), free_on("a"), free_on("a", "b")]
)


def _brute_orders(grp) -> set:
    """The finite element orders of ``grp``, each by repeated ``op``; a free
    group's reduced words up to length 3 stand for its elements, and a word
    counts only when a power up to ``FREE_ORDER_CAP`` is the identity."""
    if grp.order() is not None:
        elements, cap = grp.elements(), grp.order()
    else:
        letters = [(s, e) for s in grp.symbols for e in (1, -1)]
        elements = {grp.element(w) for n in range(4) for w in itertools.product(letters, repeat=n)}
        cap = FREE_ORDER_CAP
    return {d for d in (_element_order(grp, x, cap) for x in elements) if d is not None}


def _element_order(grp, x, cap: int):
    """The order of ``x`` by repeated ``op``, or None past ``cap``."""
    power, d = x, 1
    while power != grp.identity() and d < cap:
        power, d = grp.op(power, x), d + 1
    return d if power == grp.identity() else None


def test_element_order():
    assert _element_order(cyclic(3), (1,), 3) == 3
    assert _element_order(abelian_product(2, 3), (1, 0), 6) == 2
    assert _element_order(abelian_product(2, 3), (1, 1), 6) == 6
    assert _element_order(free_on("a"), free_on("a").element([("a", 1)]), FREE_ORDER_CAP) is None
    assert _element_order(cyclic(6), cyclic(6).identity(), 6) == 1
    assert [_element_order(symmetric(3), x, 6) for x in ((0, 1, 2), (1, 0, 2), (1, 2, 0))] == [1, 2, 3]
    # has_order agrees with each of those orders without walking the powers
    assert cyclic(3).has_order(3) and abelian_product(2, 3).has_order(6) and symmetric(3).has_order(3)
    assert not free_on("a").has_order(2) and free_on("a").has_order(1)


def test_cyclic_product_element_orders_are_divisors_of_the_exponent():
    # against the brute-force divisor set, and against the orders of all elements
    for k in range(1, 61):
        assert {d for d in range(1, k + 1) if cyclic(k).has_order(d)} == {d for d in range(1, k + 1) if k % d == 0}, k
    for moduli in ((2, 6), (2, 2), (4, 6), (3, 5), (2, 3, 4)):
        grp = abelian_product(*moduli)
        orders = {_element_order(grp, x, grp.order()) for x in grp.elements()}
        assert {d for d in range(1, grp.order() + 1) if grp.has_order(d)} == orders, moduli
    assert {d for d in range(1, 13) if abelian_product(2, 6).has_order(d)} == {1, 2, 3, 6}


@functools.cache
def _brute_pool_orders() -> tuple[set, ...]:
    return tuple(_brute_orders(grp) for grp in ORDER_POOL)


def test_has_order_and_least_odd_order_match_brute_force():
    for grp, orders in zip(ORDER_POOL, _brute_pool_orders()):
        top = FREE_ORDER_CAP if grp.order() is None else grp.order() + 1
        assert [d for d in range(1, top + 1) if grp.has_order(d)] == sorted(orders), grp
        odd = [d for d in orders if d % 2 and d > 1]
        assert grp.least_odd_order() == min(odd, default=None), grp


def test_has_order_reads_landau_orders_off_cycle_types():
    # Landau's function: the largest order in S_n, without listing n! permutations
    assert symmetric(12).has_order(60) and not symmetric(11).has_order(60)
    assert symmetric(19).has_order(420) and symmetric(30).has_order(4620)
    assert not symmetric(19).has_order(421) and not symmetric(30).has_order(4620 * 31)


def test_class_flags_match_brute_force_on_every_class_of_one_or_two_groups():
    pool = list(zip(ORDER_POOL, _brute_pool_orders()))
    for picked in itertools.chain(((x,) for x in pool), itertools.combinations_with_replacement(pool, 2)):
        groups = tuple(grp for grp, _ in picked)
        odd = {d for _, orders in picked for d in orders if d % 2 and d > 1}
        flags = class_flags(GroupClass(EXPLICIT, groups))
        assert flags.contains_z3 == (3 in odd), groups
        assert flags.has_odd_torsion == bool(odd), groups
        assert flags.smallest_odd_order == min(odd, default=None), groups
        assert flags.abelian_only == all(grp.is_abelian for grp in groups), groups


def test_class_flags_of_a_huge_cyclic_group_are_quick():
    import time

    start = time.perf_counter()
    flags = class_flags(parse_class_spec("groups:Z10000000000"))
    assert time.perf_counter() - start < 1.0
    assert (flags.contains_z3, flags.has_odd_torsion, flags.smallest_odd_order) == (False, True, 5)
    # S300 has far too many element orders to list; its least odd order is 3
    start = time.perf_counter()
    flags = class_flags(parse_class_spec("groups:S300"))
    assert time.perf_counter() - start < 1.0
    assert flags == ClassFlags(contains_z3=True, has_odd_torsion=True, abelian_only=False, smallest_odd_order=3)


def test_least_odd_order_is_searched_up_to_the_ceiling():
    # Z3 and odd torsion are read off the moduli without factoring; the
    # least odd order is searched for up to the ceiling and is None past it
    import time

    below, above = 99991, 100003  # the primes on either side of the ceiling
    assert below <= WITNESS_MAX_ORDER < above
    assert cyclic(below).least_odd_order() == below
    assert cyclic(below * above).least_odd_order() == below
    assert abelian_product(2**40, above, below).least_odd_order() == below
    for n in (above, above * above, 2**61 - 1, 2**40 * above):
        start = time.perf_counter()
        assert cyclic(n).least_odd_order() is None and cyclic(n).has_odd_torsion(), n
        assert time.perf_counter() - start < 1.0
    assert cyclic(2**60).least_odd_order() is None and not cyclic(2**60).has_odd_torsion()
    start = time.perf_counter()
    assert class_flags(parse_class_spec("groups:Z2305843009213693951")) == ClassFlags(False, True, True, None)
    assert class_flags(parse_class_spec(f"groups:Z{3 * (2**61 - 1)}")) == ClassFlags(True, True, True, 3)
    assert class_flags(parse_class_spec(f"groups:Z{above},Z{below}")) == ClassFlags(False, True, True, below)
    assert time.perf_counter() - start < 1.0


def test_class_spec_parsing():
    assert parse_class_spec("all").kind == ALL
    assert parse_class_spec("abelian").kind == ALL_ABELIAN
    assert parse_class_spec("contains-z3").groups == (cyclic(3),)
    assert parse_class_spec("groups:Z3,Z5").groups == (cyclic(3), cyclic(5))
    with pytest.raises(ParseError):
        parse_class_spec("everything")


def test_element_parsing():
    assert cyclic(3).parse_element(["5"]) == cyclic(3).element([2])
    assert abelian_product(2, 3).parse_element(["1", "2"]) == (1, 2)
    f = free_on("a", "b")
    assert f.parse_element(["a", "-b"]) == f.element([("a", 1), ("b", -1)])
    with pytest.raises(ParseError):
        cyclic(3).parse_element(["1", "2"])
