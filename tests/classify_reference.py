"""The circle classifier's Bad path without its shortcuts, for reference.

``reference_minimal_bad_minor`` is the forbidden-minor pass as first
written: find the first block of the host that ``structural_decomposition``
rejects, then delete each of its edges in turn, else contract it, testing
every step by a decomposition.  ``gainbalance.classify._minimal_bad_block``
skips the steps the theorem decides and must give the same minor and the
same vertex projection.

``reference_lift_basis_deletion`` restores each deleted edge by building the
graph of the edges present, its least spanning forest and a rooting of it,
as the library once did; ``gainbalance.minors.lift_basis_deletion`` keeps one
forest and must give the same basis and gains.

``reference_lift_witness`` transports a bad witness the way the library
first did: delete down to the model, contract the branch forest, relabel the
witness onto the contraction and lift it back with ``lift_basis_contraction``
(which the library no longer needs, so it lives here), then restore the
deleted edges.  ``gainbalance.classify.lift_witness`` walks
the model on the host without contracting and must give the same witness.
It restores edges through ``classify.lift_basis_deletion``, so a patch of
that name reaches it too.

``reference_circle_goodness`` is ``circle_goodness`` with the three
references in place of the library's pass, deletion lift and transport.

``reference_binary_cycle_goodness`` is the binary classifier as first
written: search for a loop-vertex minor, rebuild its witness and transport
it with ``reference_lift_witness``.
``gainbalance.classify.binary_cycle_goodness`` takes the model of a short
circle and the cached loop-vertex witness, and must give the same verdict,
byte for byte.
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
    BadWitness,
    Verdict,
    bad_witness,
    structural_decomposition,
)
from gainbalance.cyclespace import OrientedBasis, cycle_space_dimension
from gainbalance.errors import GraphError
from gainbalance.gaingraph import GainAssignment, GainGraph, gain_graph
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
    components,
    spanning_forest,
    walk_support,
)
from gainbalance.groups import class_flags
from gainbalance.minors import branch_forest, contract, delete, has_minor, splice_tree_paths


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
        pairs.append((walk_support(walk), walk))
        present.add(e)
    return OrientedBasis(tuple(pairs), g), GainAssignment(group, new_gains)


def lift_basis_contraction(g, t, b, gains):
    """Lift a basis and gains from g/t (t a forest) back to g.

    Each walk has the unique tree path spliced in between consecutive edges
    (``splice_tree_paths``); contracted edges receive identity gain, so walk
    gains are unchanged.
    """
    t = frozenset(t)
    contracted, _ = contract(g, t)
    if b.host.edges != contracted.edges:
        raise GraphError("basis does not live on g/t")
    for e in t:
        te, th = g.ends(e)
        if te == th:
            raise GraphError("contraction set contains a loop")
    # contract() tolerates cycles in t; the lift needs a forest, since a
    # contracted circle would collapse a dimension
    tsub = g.subgraph(t, set())
    if len(tsub.edge_list) != len(tsub.vertices) - len(components(tsub)):
        raise GraphError("contraction set contains a circle")

    tree = RootedForest(g, t)
    pairs = []
    for _, w in b.pairs:
        # contract() names each class by its least vertex, so an empty walk
        # stays where it was
        lw = splice_tree_paths(tree, w.steps, w.start)
        pairs.append((walk_support(lw), lw))
    group = gains.group
    new_gains = dict(gains.gains)
    for e in t:
        new_gains[e] = group.identity()
    return OrientedBasis(tuple(pairs), g), GainAssignment(group, new_gains)


def reference_lift_witness(host, mw, w):
    forest = branch_forest(host, mw.branch_sets)
    s = set(host.edge_list) - set(mw.edge_map.values()) - forest
    g1 = delete(host, s)
    g2, vmap = contract(g1, forest)
    location = {v: t for t, vs in mw.branch_sets.items() for v in vs}
    tv_to_g2 = {location[v]: vmap[v] for v in location}
    tgraph, group = w.gain_graph.graph, w.gain_graph.group
    flip = {te: g2.ends(he)[0] != tv_to_g2[tgraph.ends(te)[0]] for te, he in mw.edge_map.items()}
    gains_g2 = {}
    for te, he in mw.edge_map.items():
        x = w.gain_graph.assignment.gains[te]
        gains_g2[he] = group.inverse(x) if flip[te] else x
    gg2 = gain_graph(g2, group, gains_g2)
    pairs = []
    for cyc, walk in w.basis.pairs:
        steps = tuple(DirectedEdge(mw.edge_map[st.edge], st.forward ^ flip[st.edge]) for st in walk.steps)
        pairs.append((frozenset(mw.edge_map[e] for e in cyc), ClosedWalk(tv_to_g2[walk.start], steps)))
    ob1, ga1 = lift_basis_contraction(g1, forest, OrientedBasis(tuple(pairs), g2), gg2.assignment)
    ob0, ga0 = classify.lift_basis_deletion(host, s, ob1, ga1)
    lifted = BadWitness(GainGraph(host, ga0), ob0, w.test)
    if not lifted.verify():
        raise GraphError("lifted witness failed verification")
    return lifted


def reference_circle_goodness(g, c):
    with mock.patch.object(classify, "_minimal_bad_block", reference_minimal_bad_block), mock.patch.object(
        classify, "lift_basis_deletion", reference_lift_basis_deletion
    ), mock.patch.object(classify, "lift_witness", reference_lift_witness):
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
        return Verdict(BAD, RULE_BINARY_ODD, reference_lift_witness(g, mw, bad_witness(NamedGraphSpec(LOOP_VERTEX), k)))
    if flags.abelian_only and not flags.has_odd_torsion:
        return Verdict(GOOD, RULE_ABELIAN_NO_ODD)
    return Verdict(UNKNOWN, RULE_UNKNOWN)
