import itertools

from gainbalance import enumeration
from gainbalance.enumeration import (
    all_multigraphs,
    connected_multigraphs,
    inseparable_multigraphs,
    materialize,
)
from gainbalance.graphcore import Graph, canonical_key
from canonical_reference import (
    is_connected,
    is_inseparable,
    reference_all_multigraphs,
    reference_connected_multigraphs,
    reference_inseparable_multigraphs,
)


def brute_connected_multigraphs(max_edges, max_vertices=5):
    """Independent oracle: distribute labelled edges over vertex pairs and
    deduplicate by canonical form."""
    seen = {m: set() for m in range(max_edges + 1)}
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(slots, m):
                edges = {f"e{k}": (f"v{i}", f"v{j}") for k, (i, j) in enumerate(combo)}
                g = Graph(edges, {f"v{i}" for i in range(n)})
                if len({v for t, h in g.edges.values() for v in (t, h)}) != n:
                    continue  # isolated vertex
                if not is_connected(g):
                    continue
                seen[m].add(canonical_key(g))
    return seen


def test_connected_counts_match_brute_force():
    levels = connected_multigraphs(4)
    brute = brute_connected_multigraphs(4, max_vertices=5)
    for m in range(1, 5):
        ours = {canonical_key(materialize(c)) for c in levels[m]}
        assert ours == brute[m], f"mismatch at {m} edges"


def test_connected_level_sizes():
    levels = connected_multigraphs(7)
    assert [len(l) for l in levels] == [1, 2, 4, 11, 30, 95, 328, 1211]


def test_connected_matches_reference_enumeration():
    assert connected_multigraphs(7) == reference_connected_multigraphs(7)


def test_connected_labels_only_canonical_deletions(monkeypatch):
    # 5,785 candidates were labeled at 7 edges before the canonical-deletion
    # filter, for 1,682 graphs
    calls = []
    labeling = enumeration._compact_canonical

    def counting(n, cells):
        calls.append(n)
        return labeling(n, cells)

    monkeypatch.setattr(enumeration, "_compact_canonical", counting)
    connected_multigraphs.cache_clear()
    try:
        levels = connected_multigraphs(7)
    finally:
        connected_multigraphs.cache_clear()
    assert sum(map(len, levels)) == 1682
    assert len(calls) < 2000, len(calls)


def test_all_multigraphs_matches_reference_union_builder():
    ours = list(all_multigraphs(6))
    expected = list(reference_all_multigraphs(connected_multigraphs(6)))
    assert len(ours) == len(expected) == 1388
    for g, h in zip(ours, expected):
        assert list(g.edges.items()) == list(h.edges.items())
        assert g.vertex_list == h.vertex_list


def test_inseparable_matches_reference_enumeration():
    expected = [materialize(c) for level in reference_inseparable_multigraphs(7) for c in level]
    assert list(inseparable_multigraphs(7)) == expected


def test_levels_have_no_duplicates():
    levels = connected_multigraphs(5)
    keys = [canonical_key(materialize(c)) for level in levels[1:] for c in level]
    assert len(keys) == len(set(keys))


def test_inseparable_matches_filter():
    expected = set()
    for m, level in enumerate(connected_multigraphs(7)):
        if m == 0:
            continue
        for c in level:
            g = materialize(c)
            if is_inseparable(g):
                expected.add(canonical_key(g))
    ours = {canonical_key(g) for g in inseparable_multigraphs(7)}
    assert ours == expected
    by_edges = {}
    for g in inseparable_multigraphs(7):
        by_edges[len(g.edge_list)] = by_edges.get(len(g.edge_list), 0) + 1
    assert by_edges == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 14, 7: 32}


def test_inseparable_members_are_inseparable():
    for g in inseparable_multigraphs(7):
        assert is_inseparable(g)


def test_all_multigraphs_includes_disconnected():
    graphs = list(all_multigraphs(3))
    assert any(not is_connected(g) for g in graphs)
    keys = [canonical_key(g) for g in graphs]
    assert len(keys) == len(set(keys))
    assert all(1 <= len(g.edge_list) <= 3 for g in graphs)


def test_all_multigraphs_counts_compose():
    levels = connected_multigraphs(2)
    # 2 single-edge shapes; unions of two: multiset pairs of the 2 shapes = 3
    # plus 4 connected two-edge shapes: 2 + 4 + 3 = 9 graphs total
    graphs = list(all_multigraphs(2))
    assert len(graphs) == 9
