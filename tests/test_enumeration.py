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
    reference_is_canonical_deletion,
    reference_is_canonical_ear,
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
    assert len(calls) == 1724, len(calls)


def test_all_multigraphs_matches_reference_union_builder():
    ours = list(all_multigraphs(6))
    expected = list(reference_all_multigraphs(connected_multigraphs(6)))
    assert len(ours) == len(expected) == 1388
    for g, h in zip(ours, expected):
        assert list(g.edges.items()) == list(h.edges.items())
        assert g.vertex_list == h.vertex_list


def test_inseparable_matches_reference_enumeration():
    # the reference labels every ear at every vertex pair, unfiltered
    reference = reference_inseparable_multigraphs(10)
    assert [len(level) for level in reference[1:]] == [2, 1, 2, 3, 6, 14, 32, 90, 279, 942]
    expected = [materialize(c) for level in reference for c in level]
    assert list(inseparable_multigraphs(10)) == expected


def test_inseparable_labels_only_canonical_ear_deletions(monkeypatch):
    # 342 and 4,779 candidates were labeled up to 8 and 10 edges before the
    # canonical ear-deletion filter, for 150 and 1,371 graphs
    calls = []
    labeling = enumeration._compact_canonical

    def counting(n, cells):
        calls.append(n)
        return labeling(n, cells)

    assert callable(connected_multigraphs.cache_clear) and callable(inseparable_multigraphs.cache_clear)
    monkeypatch.setattr(enumeration, "_compact_canonical", counting)
    try:
        counts = []
        for k in (8, 10, 8):
            inseparable_multigraphs.cache_clear()
            del calls[:]
            graphs = inseparable_multigraphs(k)
            counts.append((len(graphs), len(calls)))
    finally:
        inseparable_multigraphs.cache_clear()
    (graphs8, labeled8), (graphs10, labeled10), again = counts
    assert (graphs8, graphs10) == (150, 1371)
    assert labeled8 == 152, labeled8
    assert labeled10 == 1445, labeled10
    # a cleared cache labels again, as a cold start must
    assert again == (graphs8, labeled8) and labeled8 > 0


def test_enumerator_decisions_match_the_rank_rules_on_connectivity(monkeypatch):
    # every canonical-deletion and canonical-ear decision of a cold growth,
    # connected up to 7 edges and inseparable up to 10, against the rank
    # rules on bridges found by connectivity after the deletion and on
    # removability found by is_inseparable after the ear is taken out
    references = {
        "_is_canonical_deletion": reference_is_canonical_deletion,
        "_is_canonical_ear": reference_is_canonical_ear,
    }
    decisions = []
    for name in references:

        def recording(*args, decide=getattr(enumeration, name), name=name):
            decisions.append((name, args, decide(*args)))
            return decisions[-1][2]

        monkeypatch.setattr(enumeration, name, recording)
    connected_multigraphs.cache_clear()
    inseparable_multigraphs.cache_clear()
    try:
        connected_multigraphs(7)
        inseparable_multigraphs(10)
    finally:
        connected_multigraphs.cache_clear()
        inseparable_multigraphs.cache_clear()
    for name, args, decided in decisions:
        assert references[name](*args) == decided, (name, args)
    tally = {}
    for name, _, decided in decisions:
        tally[name, decided] = tally.get((name, decided), 0) + 1
    # the accepted ones are the 1,724 connected labelings and all but the 11
    # circles and single-edge graphs of the 1,445 inseparable ones
    assert tally == {
        ("_is_canonical_deletion", True): 1724,
        ("_is_canonical_deletion", False): 4061,
        ("_is_canonical_ear", True): 1434,
        ("_is_canonical_ear", False): 3334,
    }, tally


def test_grown_levels_equal_a_cold_start_and_label_only_new_levels(monkeypatch):
    calls = []
    labeling = enumeration._compact_canonical

    def counting(n, cells):
        calls.append(n)
        return labeling(n, cells)

    monkeypatch.setattr(enumeration, "_compact_canonical", counting)

    def labeled(enumerate_, k):
        del calls[:]
        return enumerate_(k), len(calls)

    try:
        for enumerate_, small, large in ((inseparable_multigraphs, 8, 10), (connected_multigraphs, 5, 7)):
            enumerate_.cache_clear()
            _, cold_small = labeled(enumerate_, small)
            enumerate_.cache_clear()
            cold, cold_large = labeled(enumerate_, large)
            enumerate_.cache_clear()
            first, _ = labeled(enumerate_, small)
            grown, grown_large = labeled(enumerate_, large)
            assert len(grown) == len(cold) and all(a == b for a, b in zip(grown, cold))
            # the grown call labels the levels past ``small`` and nothing else
            assert 0 < grown_large == cold_large - cold_small < cold_large
            assert labeled(enumerate_, small) == (first, 0) and labeled(enumerate_, large) == (grown, 0)
    finally:
        inseparable_multigraphs.cache_clear()
        connected_multigraphs.cache_clear()


def test_connected_table_keeps_only_the_top_levels_automorphisms():
    # a connected level grows from the one below it alone, so the lower
    # levels' maps are freed (level 0's is kept for cache_clear); every
    # inseparable level grows ears on each lower one and keeps its map
    try:
        connected_multigraphs.cache_clear()
        connected_multigraphs(4)
        connected_multigraphs(6)
        assert [autos is not None for _, autos in enumeration._CONNECTED] == [True, False, False, False, False, False, True]
        assert connected_multigraphs(6) == reference_connected_multigraphs(6)
        connected_multigraphs.cache_clear()
        assert enumeration._CONNECTED == [(((1, ()),), {(1, ()): []})]
        inseparable_multigraphs(6)
        assert all(autos for _, autos in enumeration._INSEPARABLE[1:])
    finally:
        connected_multigraphs.cache_clear()


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
