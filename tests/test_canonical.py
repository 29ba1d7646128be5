"""Canonical labeling with automorphism pruning against the unpruned search."""

import functools
import itertools
import random
import time
from collections import Counter

from gainbalance.graphcore import Graph, canonical_labeling
from canonical_reference import reference_canonical_labeling
from conftest import named


@functools.lru_cache(maxsize=None)
def reference(g):
    return reference_canonical_labeling(g)


def relabel(g, rng):
    """The same shape with shuffled vertex names, edge names and orientations."""
    names = rng.sample(range(1000), len(g.vertex_list))
    rename = {v: f"x{k}" for v, k in zip(g.vertex_list, names)}
    edges = {}
    for k, e in enumerate(rng.sample(g.edge_list, len(g.edge_list))):
        t, h = g.ends(e)
        edges[f"e{k}"] = (rename[t], rename[h]) if rng.random() < 0.5 else (rename[h], rename[t])
    return Graph(edges, rename.values())


def random_multigraph(rng):
    """Loops, parallel edges, isolated vertices and several components; half
    of the draws start from a circulant, so they have many automorphisms."""
    n = rng.randint(1, 8)
    edges = {}
    if rng.random() < 0.5:
        for d in rng.sample(range(n), rng.randint(1, min(n, 3))):
            for _ in range(rng.choice((1, 1, 2))):
                for i in range(n):
                    edges[f"e{len(edges)}"] = (f"v{i}", f"v{(i + d) % n}")
    for _ in range(rng.randint(0, 6)):
        a = rng.randrange(n)
        b = a if rng.random() < 0.15 else rng.randrange(n)
        edges[f"e{len(edges)}"] = (f"v{a}", f"v{b}")
    return Graph(edges, [f"v{i}" for i in range(n + rng.randint(0, 2))])


def complete(n):
    return Graph({f"e{i}_{j}": (f"a{i}", f"a{j}") for i in range(n) for j in range(i + 1, n)})


def complete_bipartite(a, b):
    return Graph({f"e{i}_{j}": (f"a{i}", f"b{j}") for i in range(a) for j in range(b)})


def hypercube(d):
    return Graph({f"e{i}_{k}": (f"q{i}", f"q{i ^ 1 << k}") for i in range(1 << d) for k in range(d) if not i >> k & 1})


def petersen():
    edges = {}
    for i in range(5):
        edges[f"o{i}"] = (f"o{i}", f"o{(i + 1) % 5}")
        edges[f"s{i}"] = (f"o{i}", f"i{i}")
        edges[f"i{i}"] = (f"i{i}", f"i{(i + 2) % 5}")
    return Graph(edges)


def hub_over(*parts):
    """A hub joined to every vertex of the disjoint union of ``parts``."""
    edges = {}
    for k, part in enumerate(parts):
        for e, (t, h) in part.edges.items():
            edges[f"{e}_{k}"] = (f"{t}_{k}", f"{h}_{k}")
        for v in part.vertex_list:
            edges[f"hub_{v}_{k}"] = ("hub", f"{v}_{k}")
    return Graph(edges)


def shrikhande_complement():
    """Z4 x Z4, joined unless the difference is 0, +-(1,0), +-(0,1) or +-(1,1)."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    near = {(0, 0), (1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return Graph({
        f"e{a}{b}_{c}{d}": (f"s{a}{b}", f"s{c}{d}")
        for (a, b), (c, d) in itertools.combinations(cells, 2)
        if ((c - a) % 4, (d - b) % 4) not in near
    })


def encoding(g, vmap):
    """The edge-multiset encoding of ``g`` under the positions ``vmap``."""
    count = Counter(tuple(sorted((vmap[t], vmap[h]))) for t, h in g.edges.values())
    return tuple(sorted((a, b, m) for (a, b), m in count.items()))


SYMMETRIC = {
    "K7": complete(7),
    "K4,4": complete_bipartite(4, 4),
    "Q4": hypercube(4),
    "Petersen": petersen(),
    "Grid(4,4)": named("Grid(4,4)"),
    "W6": named("W6"),
    "mK2(8)": named("mK2(8)"),
}


def test_canonical_labeling_matches_reference_on_random_multigraphs():
    rng = random.Random(41)
    for _ in range(500):
        g = random_multigraph(rng)
        assert canonical_labeling(g) == reference(g)


def test_canonical_labeling_matches_reference_on_symmetric_graphs():
    rng = random.Random(43)
    for name, g in SYMMETRIC.items():
        for h in [g] + [relabel(g, rng) for _ in range(3)]:
            assert canonical_labeling(h) == reference(h), name


def test_canonical_labeling_of_k8_is_quick_and_agrees():
    # the unpruned search visits all 8! leaves of K8
    g = relabel(complete(8), random.Random(47))
    start = time.perf_counter()
    key, vmap = canonical_labeling(g)
    assert time.perf_counter() - start < 1.0
    assert (key, vmap) == reference(g)


def test_canonical_labeling_where_refinement_mixes_orbits():
    # every vertex but the hub has degree 10, so refinement cannot separate
    # the two parts, and the stabilizer of a vertex of the Shrikhande
    # complement splits its neighbors into two orbits that refinement keeps
    # in one cell; too large for the reference, so check that the key does
    # not depend on the labeling and that each vertex map realizes it
    g = hub_over(shrikhande_complement(), complete(10))
    rng = random.Random(53)
    keys = set()
    for h in [g] + [relabel(g, rng) for _ in range(8)]:
        start = time.perf_counter()
        (n, key), vmap = canonical_labeling(h)
        assert time.perf_counter() - start < 5.0
        assert n == 27 and encoding(h, vmap) == key
        keys.add(key)
    assert len(keys) == 1
