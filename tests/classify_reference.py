"""The circle classifier's Bad path without its shortcuts, for reference.

``reference_minimal_bad_minor`` is the forbidden-minor pass as first
written: find the first block of the host that ``structural_decomposition``
rejects, then delete each of its edges in turn, else contract it, testing
every step by a decomposition.  ``gainbalance.classify._minimal_bad_minor``
skips the steps the theorem decides and must give the same minor and the
same vertex projection.

``reference_lift_basis_deletion`` restores each deleted edge by building the
graph of the edges present, its least spanning forest and a rooting of it,
as the library once did; ``gainbalance.minors.lift_basis_deletion`` keeps one
forest and must give the same basis and gains.

``reference_circle_goodness`` is ``circle_goodness`` with both references in
place of the library's pass and lift.
"""

from unittest import mock

from gainbalance import classify
from gainbalance.classify import structural_decomposition
from gainbalance.cyclespace import BinaryCycle, OrientedBasis
from gainbalance.errors import GraphError
from gainbalance.gaingraph import GainAssignment
from gainbalance.graphcore import (
    ClosedWalk,
    DirectedEdge,
    DisjointSets,
    Graph,
    RootedForest,
    blocks,
    spanning_forest,
    walk_support,
)
from gainbalance.minors import contract, delete


def reference_minimal_bad_block(block):
    h, vmap = block, {v: v for v in block.vertex_list}
    for e in block.edge_list:
        smaller = delete(h, {e})
        if structural_decomposition(smaller) is None:
            h = smaller
            continue
        smaller, step = contract(h, {e})
        if structural_decomposition(smaller) is None:
            h, vmap = smaller, {v: step[x] for v, x in vmap.items()}
    return Graph(dict(h.edges)), vmap


def reference_minimal_bad_minor(g):
    block = next(b for b in blocks(g) if structural_decomposition(b) is None)
    return reference_minimal_bad_block(block)


def reference_lift_basis_deletion(g, s, b, gains):
    s = set(s)
    reduced = delete(g, s)
    if b.host.edges != reduced.edges:
        raise GraphError("basis does not live on g minus s")
    sets = DisjointSets(g.vertex_list)
    for e in reduced.edge_list:
        sets.union(*reduced.ends(e))
    bridge_like, rest = [], []
    for e in sorted(s):
        (bridge_like if sets.union(*g.ends(e)) else rest).append(e)
    group = gains.group
    new_gains = dict(gains.gains)
    for e in bridge_like:
        new_gains[e] = group.identity()
    pairs = list(b.pairs)
    present = set(reduced.edge_list) | set(bridge_like)
    for e in rest:
        partial = Graph({x: g.edges[x] for x in present}, g.vertices)
        t, h = g.ends(e)
        path = RootedForest(partial, spanning_forest(partial)).path(h, t)
        walk = ClosedWalk(t, (DirectedEdge(e, True), *path))
        acc = group.identity()
        for st in path:
            x = new_gains[st.edge]
            acc = group.op(acc, x if st.forward else group.inverse(x))
        new_gains[e] = group.inverse(acc)
        pairs.append((BinaryCycle(walk_support(walk)), walk))
        present.add(e)
    return OrientedBasis(tuple(pairs), g), GainAssignment(group, new_gains)


def reference_circle_goodness(g, c):
    with mock.patch.object(classify, "_minimal_bad_block", reference_minimal_bad_block), mock.patch.object(
        classify, "lift_basis_deletion", reference_lift_basis_deletion
    ):
        return classify.circle_goodness(g, c)
