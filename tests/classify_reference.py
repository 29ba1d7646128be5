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

``reference_binary_cycle_goodness`` is the binary classifier as first
written: search for a loop-vertex minor, rebuild its witness and lift it by
deleting, contracting the branch forest and lifting back.
``gainbalance.classify.binary_cycle_goodness`` builds the witness on the host
directly and must give the same verdict, byte for byte.
"""

from unittest import mock

from gainbalance import classify
from gainbalance.classify import (
    BAD,
    GOOD,
    RULE_ABELIAN_NO_ODD,
    RULE_BINARY_ODD,
    RULE_FOREST,
    RULE_UNKNOWN,
    UNKNOWN,
    Verdict,
    bad_witness,
    lift_witness,
    structural_decomposition,
)
from gainbalance.cyclespace import BinaryCycle, OrientedBasis, cycle_space_dimension
from gainbalance.errors import GraphError
from gainbalance.gaingraph import GainAssignment
from gainbalance.graphcore import (
    LOOP_VERTEX,
    ClosedWalk,
    DirectedEdge,
    DisjointSets,
    Graph,
    NamedGraphSpec,
    RootedForest,
    blocks,
    build_named,
    spanning_forest,
    walk_support,
)
from gainbalance.groups import class_flags
from gainbalance.minors import contract, delete, has_minor


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


def reference_binary_cycle_goodness(g, c):
    flags = class_flags(c)
    if cycle_space_dimension(g) == 0:
        return Verdict(GOOD, RULE_FOREST)
    if flags.has_odd_torsion:
        k = flags.smallest_odd_order or 3
        mw = has_minor(g, build_named(NamedGraphSpec(LOOP_VERTEX)))
        if mw is None:
            raise GraphError("graph with cycles lacks a loop-vertex minor")
        return Verdict(BAD, RULE_BINARY_ODD, lift_witness(g, mw, bad_witness(NamedGraphSpec(LOOP_VERTEX), k)))
    if flags.abelian_only and not flags.has_odd_torsion:
        return Verdict(GOOD, RULE_ABELIAN_NO_ODD)
    return Verdict(UNKNOWN, RULE_UNKNOWN)
