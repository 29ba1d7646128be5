"""Goodness verdicts, bad-witness constructors and structural decomposition.

Verdict logic for the circle test, per subgroup-closed class:

* every block decomposes by extrusion onto a base family (loop vertex, mK2,
  C3(m,2,2), K4(m,m')): Good for any class;
* otherwise, if the class contains an order-3 element: Bad, witnessed by an
  explicit construction on a forbidden minor (C3(3,3,2), 2C4, K4'' or W4),
  lifted to the host graph and re-verified; the minor comes from one pass of
  deletions and contractions that the paper's minor theorem justifies, and
  that decomposes only at the steps the theorem leaves open;
* otherwise, if the class is abelian without odd torsion: Good;
* otherwise, if the class has an odd cyclic subgroup Z(2k-1) and some block
  is an even wheel W(2k) or doubled circle 2C(2k): Bad via the Hamiltonian /
  doubled-circle basis witness;
* otherwise Unknown - the classifier cites a rule or refuses, never guesses.

The binary cycle test is valid only on forests once any nontrivial odd-order
group is admissible.  The witness is the paper's construction, with no minor
search: the loop-vertex witness over Z_k (k the least admissible odd order)
carried along the model of a short circle C, whose loop edge is the greatest
edge c of C and whose branch forest F spans the subgraph induced on C's
vertices.  So c gets gain 1, and the basis walk goes k times along c and back
through F.  It balances, while C does not; every other edge closes a circle
balanced by its gain.

Every Bad verdict, binary, forbidden-minor or wheel-family, reaches the host
by one transport, ``lift_witness``: along the minor model edge for edge, with
branch-forest paths spliced into each walk, the other edges restored by
``lift_basis_deletion``, and the result verified.

The forbidden-minor target graphs, the edge floor of the minimization and the
verified witness of each family and order are built once per process, on
first use, and shared; every witness lifted to a host is verified.

The exhaustive brute-force oracle that checks these verdicts is
``gainbalance.oracle``, which this module does not import.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .balancetests import binary_cycle_test, circle_orientation
from .cyclespace import OrientedBasis, _checked_walk, cycle_space_dimension, oriented_basis
from .errors import GraphError
from .gaingraph import GainAssignment, GainGraph, gain_graph, is_balanced
from .graphcore import (
    CIRCLE_MULTI,
    DOUBLED_CIRCLE,
    K4_ADJACENT_DOUBLED,
    K4_OPPOSITE,
    LOOP_VERTEX,
    MULTI_K2,
    WHEEL,
    ClosedWalk,
    DirectedEdge,
    Graph,
    NamedGraphSpec,
    RootedForest,
    blocks,
    build_named,
    isomorphism,
    edge_bijection,
    walk_support,
)
from .groups import GroupClass, class_flags, cyclic
from .minors import (
    MinorWitness,
    ReverseStep,
    _loop_vertex_witness,
    branch_forest,
    contract,
    delete,
    lift_basis_deletion,
    reverse_extrusion_reduce,
    splice_tree_paths,
    verify_minor_witness,
)

GOOD = "Good"
BAD = "Bad"
UNKNOWN = "Unknown"

RULE_FOREST = "forest-always-balanced"
RULE_BINARY_ODD = "loop-vertex-minor-with-odd-torsion"
RULE_ABELIAN_NO_ODD = "abelian-without-odd-torsion"
RULE_DECOMPOSITION = "block-extrusion-decomposition"
RULE_FORBIDDEN_MINOR = "forbidden-minor-with-z3"
RULE_WHEEL_FAMILY = "even-wheel-or-doubled-circle-odd-cyclic"
RULE_UNKNOWN = "outside-characterized-classes"

BINARY_TEST = "binary"
CIRCLE_TEST = "circle"

FORBIDDEN_MINORS: tuple[NamedGraphSpec, ...] = (
    NamedGraphSpec(CIRCLE_MULTI, (3, 3, 2)),
    NamedGraphSpec(DOUBLED_CIRCLE, (4,)),
    NamedGraphSpec(K4_ADJACENT_DOUBLED),
    NamedGraphSpec(WHEEL, (4,)),
)


@dataclass(frozen=True)
class BadWitness:
    """A gain graph plus an oriented basis that passes the stated test while
    the graph is unbalanced."""

    gain_graph: GainGraph
    basis: OrientedBasis
    test: str  # BINARY_TEST or CIRCLE_TEST

    def verify(self) -> bool:
        """True iff every basis walk is a closed walk of the graph projecting
        to its member, the basis passes the stated test, and the gain graph
        is unbalanced."""
        gg = self.gain_graph
        try:
            for i, (c, w) in enumerate(self.basis.pairs):
                _checked_walk(gg.graph, i, c, w)
        except GraphError:
            return False
        ob = circle_orientation(gg.graph, self.basis.cycles) if self.test == CIRCLE_TEST else self.basis
        return binary_cycle_test(gg, ob) and not is_balanced(gg).balanced

    def to_json(self) -> dict:
        gg = self.gain_graph
        return {
            "test": self.test,
            "group": str(gg.group),
            "edges": {e: list(gg.graph.ends(e)) for e in gg.graph.edge_list},
            "gains": {
                e: gg.group.format_element(x) for e, x in sorted(gg.assignment.gains.items()) if x != gg.group.identity()
            },
            "basis": [
                {
                    "support": sorted(c),
                    "walk": [("" if s.forward else "-") + s.edge for s in w.steps],
                    "start": w.start,
                }
                for c, w in self.basis.pairs
            ],
        }


@dataclass(frozen=True)
class BlockDecomposition:
    block: Graph
    base: NamedGraphSpec
    steps: tuple[ReverseStep, ...]


@dataclass(frozen=True)
class Decomposition:
    blocks: tuple[BlockDecomposition, ...]

    def to_json(self) -> dict:
        return {
            "blocks": [
                {
                    "edges": sorted(b.block.edge_list),
                    "base": str(b.base),
                    "reverse_steps": [
                        {"vertex": s.vertex, "into": s.kept, "edge": s.edge} for s in b.steps
                    ],
                }
                for b in self.blocks
            ]
        }


@dataclass(frozen=True)
class Verdict:
    status: str
    rule: str
    evidence: Optional[object] = None  # BadWitness or Decomposition

    def to_json(self) -> dict:
        out = {"status": self.status, "rule": self.rule}
        if self.evidence is not None:
            out["evidence"] = self.evidence.to_json()
        return out


# -- structural decomposition ---------------------------------------------------


def _match_base(h: Graph) -> Optional[NamedGraphSpec]:
    n = len(h.vertex_list)
    m = len(h.edge_list)
    loops = [e for e in h.edge_list if h.is_loop(e)]
    if loops:
        return NamedGraphSpec(LOOP_VERTEX) if n == 1 and m == 1 else None
    if n == 2 and m >= 1:
        return NamedGraphSpec(MULTI_K2, (m,))
    if n == 3:
        v = h.vertex_list
        mults = sorted(
            (h.multiplicity(v[0], v[1]), h.multiplicity(v[1], v[2]), h.multiplicity(v[0], v[2])),
            reverse=True,
        )
        if mults[1] == 2 and mults[2] == 2 and mults[0] >= 2:
            return NamedGraphSpec(CIRCLE_MULTI, (mults[0], 2, 2))
        return None
    if n == 4:
        pairs = list(itertools.combinations(h.vertex_list, 2))
        mults = {p: h.multiplicity(*p) for p in pairs}
        if any(c == 0 for c in mults.values()):
            return None
        big = [p for p, c in mults.items() if c > 1]
        if len(big) == 0:
            return NamedGraphSpec(K4_OPPOSITE, (1, 1))
        if len(big) == 1:
            return NamedGraphSpec(K4_OPPOSITE, (mults[big[0]], 1))
        if len(big) == 2 and not (set(big[0]) & set(big[1])):
            a, b = sorted((mults[big[0]], mults[big[1]]), reverse=True)
            return NamedGraphSpec(K4_OPPOSITE, (a, b))
        return None
    return None


def _block_decomposition(block: Graph) -> Optional[BlockDecomposition]:
    """A base family plus an extrusion log reaching ``block``, or None.

    A loopless block is reduced along one reverse-extrusion path and
    decomposes exactly when the irreducible end is a base (a base has no
    reverse step, so it ends at itself with an empty log).  A block with a
    loop is that loop alone and decomposes as the loop vertex."""
    if block.is_loop(block.edge_list[0]):
        irreducible, steps = block, ()
    else:
        irreducible, steps = reverse_extrusion_reduce(block)
    base = _match_base(irreducible)
    return None if base is None else BlockDecomposition(block, base, steps)


def _decompose(g: Graph) -> Decomposition | Graph:
    """The decomposition of ``g``, or else its first block that has none."""
    out = []
    for block in blocks(g):
        found = _block_decomposition(block)
        if found is None:
            return block
        out.append(found)
    return Decomposition(tuple(out))


def structural_decomposition(g: Graph) -> Optional[Decomposition]:
    """Per block, a base family plus an extrusion log reaching the block, or
    None when some block admits no such decomposition."""
    found = _decompose(g)
    return found if isinstance(found, Decomposition) else None


# -- explicit witness constructions ----------------------------------------------


_target = functools.cache(build_named)  # the graph of a named family, built once and shared


@functools.cache
def _edge_floor() -> int:
    """The fewest edges of a forbidden minor (8)."""
    return min(len(_target(spec).edge_list) for spec in FORBIDDEN_MINORS)


@functools.cache
def bad_witness(spec: NamedGraphSpec, cyclic_order: Optional[int] = None) -> BadWitness:
    """The explicit bad witness for a named family, verified before return.

    ``cyclic_order`` selects the gain group for the loop vertex (odd, >= 3,
    default 3); the other families fix their own groups, and giving them an
    order is an input error.  A witness is built and verified once per
    process for each argument list and then shared, so it must not be
    mutated.
    """
    fam, p = spec.family, spec.params
    if cyclic_order is not None and fam != LOOP_VERTEX:
        raise GraphError(f"{spec} fixes its own gain group: a cyclic order is only for the loop vertex")
    if fam == LOOP_VERTEX:
        k = 3 if cyclic_order is None else cyclic_order
        if k < 3 or k % 2 == 0:
            raise GraphError("loop-vertex witness needs an odd cyclic order >= 3")
        g = build_named(spec)
        grp = cyclic(k)
        gg = gain_graph(g, grp, {"e": grp.element([1])})
        walk = ClosedWalk("v", (DirectedEdge("e", True),) * k)
        ob = OrientedBasis(((frozenset({"e"}), walk),), g)
        w = BadWitness(gg, ob, BINARY_TEST)
    elif fam == CIRCLE_MULTI and p == (3, 3, 2):
        g = build_named(spec)
        grp = cyclic(3)
        gains = {e: grp.element([1]) for e in ("f12", "f23", "f31")}
        gains.update({e: grp.element([2]) for e in ("g12", "g23")})
        gg = gain_graph(g, grp, gains)
        six = [
            {"e12", "e23", "e31"},
            {"f12", "g23", "e31"},
            {"g12", "f23", "e31"},
            {"f12", "f23", "f31"},
            {"e12", "g23", "f31"},
            {"g12", "e23", "f31"},
        ]
        w = BadWitness(gg, oriented_basis(g, six), CIRCLE_TEST)
    elif fam == DOUBLED_CIRCLE and p == (4,):
        g = build_named(spec)
        grp = cyclic(3)
        gains = {"f1": grp.element([1]), "f2": grp.element([1]), "f3": grp.element([1]), "f4": grp.element([2])}
        gg = gain_graph(g, grp, gains)
        members = [
            {"e1", "e2", "e3", "e4"},
            {"f1", "f2", "f3", "e4"},
            {"f1", "e2", "e3", "f4"},
            {"e1", "f2", "e3", "f4"},
            {"e1", "e2", "f3", "f4"},
        ]
        w = BadWitness(gg, oriented_basis(g, members), CIRCLE_TEST)
    elif fam == DOUBLED_CIRCLE:
        (n,) = p
        if n < 4 or n % 2:
            raise GraphError("doubled-circle witnesses exist for even n >= 4")
        k = n // 2
        g = build_named(spec)
        grp = cyclic(2 * k - 1)
        gains = {f"f{i}": grp.element([1]) for i in range(1, n + 1)}
        gg = gain_graph(g, grp, gains)
        circle_c = {f"e{i}" for i in range(1, n + 1)}
        members = [circle_c]
        for i in range(1, n + 1):
            members.append({f"f{j}" for j in range(1, n + 1) if j != i} | {f"e{i}"})
        w = BadWitness(gg, oriented_basis(g, members), CIRCLE_TEST)
    elif fam == K4_ADJACENT_DOUBLED:
        g = build_named(spec)
        grp = cyclic(3)
        gains = {
            "e31": grp.element([1]),
            "e2p": grp.element([1]),
            "e23": grp.element([1]),  # reverse direction carries b = a^2
            "e1p": grp.element([2]),
        }
        gg = gain_graph(g, grp, gains)
        members = [
            {"e31", "e12", "e2p", "e3"},
            {"e23", "e12", "e1p", "e3"},
            {"e12", "e1", "e2"},
            {"e1p", "e2", "e23", "e31"},
            {"e1", "e2p", "e23", "e31"},
        ]
        w = BadWitness(gg, oriented_basis(g, members), CIRCLE_TEST)
    elif fam == WHEEL:
        (n,) = p
        if n < 4 or n % 2:
            raise GraphError("wheel witnesses exist for even n >= 4")
        k = n // 2
        g = build_named(spec)
        grp = cyclic(2 * k - 1)
        gains = {f"r{i}": grp.element([1]) for i in range(1, n + 1)}
        gg = gain_graph(g, grp, gains)
        members = []
        for i in range(1, n + 1):
            rim_part = {f"r{j}" for j in range(1, n + 1) if j != (i - 2) % n + 1}
            members.append(rim_part | {f"s{i}", f"s{(i - 2) % n + 1}"})
        w = BadWitness(gg, oriented_basis(g, members), CIRCLE_TEST)
    else:
        raise GraphError(f"no known bad witness family for {spec}")
    if not w.verify():
        raise GraphError(f"witness construction for {spec} failed verification")
    return w


# -- witness lifting ---------------------------------------------------------------


def lift_witness(host: Graph, mw: MinorWitness, w: BadWitness) -> BadWitness:
    """Transport a bad witness from a minor onto the host graph along the
    model ``mw``, and verify it.

    Each mapped host edge takes its target edge's gain, inverted when the
    host edge's tail is not in the branch set of the target edge's tail, and
    the branch forest F takes the identity.  Each basis walk takes its
    mapped steps, reversed likewise, with the F-path from the head of each
    step to the tail of the next spliced in after it (``splice_tree_paths``),
    so it keeps its gain.  This is the minor witness lifted back through the
    contraction of F, without building the contraction.
    ``lift_basis_deletion`` then restores the other edges, each closing a
    balanced circle."""
    forest = branch_forest(host, mw.branch_sets)
    group, target = w.gain_graph.group, w.gain_graph.graph
    flip = {te: host.ends(he)[0] not in mw.branch_sets[target.ends(te)[0]] for te, he in mw.edge_map.items()}
    gains = dict.fromkeys(forest, group.identity())
    for te, he in mw.edge_map.items():
        x = w.gain_graph.assignment.gains[te]
        gains[he] = group.inverse(x) if flip[te] else x
    tree = RootedForest(host, forest)
    pairs = []
    for _, walk in w.basis.pairs:
        steps = [DirectedEdge(mw.edge_map[e], forward ^ flip[e]) for e, forward in walk.steps]
        spliced = splice_tree_paths(tree, steps, min(mw.branch_sets[walk.start]))
        pairs.append((walk_support(spliced), spliced))
    model = Graph({e: host.ends(e) for e in gains}, host.vertices)
    ob, ga = lift_basis_deletion(
        host, set(host.edge_list) - gains.keys(), OrientedBasis(tuple(pairs), model), GainAssignment(group, gains)
    )
    lifted = BadWitness(GainGraph(host, ga), ob, w.test)
    if not lifted.verify():
        raise GraphError("lifted witness failed verification")
    return lifted


def _identity_minor_witness(host: Graph, target: Graph) -> Optional[MinorWitness]:
    """When host and target are isomorphic, the witness with singleton branch
    sets along the isomorphism."""
    vmap = isomorphism(target, host)
    if vmap is None:
        return None
    emap = {te: he for te, (he, _) in edge_bijection(target, host, vmap).items()}
    return MinorWitness({tv: frozenset({hv}) for tv, hv in vmap.items()}, emap)


def _minimal_bad_block(block: Graph) -> tuple[Graph, dict[str, str]]:
    """An undecomposable block cut down to a minor-minimal undecomposable
    minor ``h``, and the projection of the block's vertices onto it: each
    edge in turn is deleted, else contracted, while the result stays
    undecomposable.  One pass suffices, as operations on distinct edges
    commute and decomposable graphs are minor-closed.

    The pass decomposes only where the theorem leaves the answer open.  The
    block is loopless and ``h`` stays so: a contraction makes a loop only
    out of a parallel edge, and such a contraction decomposes (below), so it
    is never taken.  The rules:

    * Floor: the pass stops once ``h`` has as many edges as the smallest
      forbidden minor (8).  Every multigraph with fewer edges decomposes, so
      every later deletion or contraction would decompose and leave ``h``.
    * Parallel edge: when h - e decomposes and e has a parallel edge f,
      h/e decomposes too.  Contracting e turns f into a loop, and h/e
      minus the loop f is (h - e)/f, a minor of h - e; the loop is a block
      of its own and decomposes as the loop vertex.
    * Three vertices: when h - e decomposes and ``h`` has three vertices,
      h/e has two, and every graph on at most two vertices decomposes (its
      blocks are loops and multiple edges mK2).
    * Divalent end: when h - e decomposes and an end of e has degree two,
      h/e is undecomposable and is contracted without a test.  The other
      edge e' at that end does not join e's other end (it would be parallel
      to e), so ``h`` is h/e with e' subdivided, which is an extrusion of
      h/e.  Decomposable graphs are closed under extrusion, so h/e cannot
      decompose while ``h`` does not.

    Every other step decomposes, so minor and projection are those of the
    pass that tests every step.
    """
    floor = _edge_floor()
    h, vmap = block, {v: v for v in block.vertex_list}
    for e in block.edge_list:
        if len(h.edge_list) <= floor:
            break
        smaller = delete(h, {e})
        if structural_decomposition(smaller) is None:
            h = smaller
            continue
        t, u = h.ends(e)
        if h.multiplicity(t, u) > 1 or len(h.vertex_list) == 3:
            continue
        smaller, step = contract(h, {e})
        if 2 in (h.degree(t), h.degree(u)) or structural_decomposition(smaller) is None:
            h, vmap = smaller, {v: step[x] for v, x in vmap.items()}
    return Graph(dict(h.edges)), vmap  # isolated vertices dropped


# -- classification -----------------------------------------------------------------


def binary_cycle_goodness(g: Graph, c: GroupClass) -> Verdict:
    """Forests pass for any class; with odd torsion admissible everything
    else is bad; abelian classes without odd torsion are always good."""
    flags = class_flags(c)
    if cycle_space_dimension(g) == 0:
        return Verdict(GOOD, RULE_FOREST)
    if flags.has_odd_torsion:
        loop = bad_witness(NamedGraphSpec(LOOP_VERTEX), flags.smallest_odd_order or 3)
        return Verdict(BAD, RULE_BINARY_ODD, lift_witness(g, _loop_vertex_witness(g), loop))
    if flags.abelian_only and not flags.has_odd_torsion:
        return Verdict(GOOD, RULE_ABELIAN_NO_ODD)
    return Verdict(UNKNOWN, RULE_UNKNOWN)


def circle_goodness(g: Graph, c: GroupClass) -> Verdict:
    flags = class_flags(c)
    found = _decompose(g)
    if isinstance(found, Decomposition):
        return Verdict(GOOD, RULE_DECOMPOSITION, found)
    if flags.contains_z3:
        h, vmap = _minimal_bad_block(found)
        for spec in FORBIDDEN_MINORS:
            target = _target(spec)
            mw = _identity_minor_witness(h, target)
            if mw is not None:
                mw = MinorWitness({t: frozenset(v for v in vmap if vmap[v] in x) for t, x in mw.branch_sets.items()}, mw.edge_map)
                if not verify_minor_witness(g, target, mw):
                    raise GraphError(f"{spec} minor model failed verification")
                return Verdict(BAD, RULE_FORBIDDEN_MINOR, lift_witness(g, mw, bad_witness(spec)))
        raise GraphError("minimal undecomposable minor is none of the four forbidden minors: theorem violated")
    if flags.abelian_only and not flags.has_odd_torsion:
        return Verdict(GOOD, RULE_ABELIAN_NO_ODD)
    if flags.smallest_odd_order is not None and flags.smallest_odd_order >= 5:
        # only Z3 classes have a forbidden-minor theorem, so only blocks that
        # are exactly an even wheel or doubled circle of size n count here
        n = flags.smallest_odd_order + 1
        for spec in (NamedGraphSpec(WHEEL, (n,)), NamedGraphSpec(DOUBLED_CIRCLE, (n,))):
            target = _target(spec)
            for block in blocks(g):
                mw = _identity_minor_witness(block, target)
                if mw is not None:
                    w = lift_witness(g, mw, bad_witness(spec))
                    return Verdict(BAD, RULE_WHEEL_FAMILY, w)
    return Verdict(UNKNOWN, RULE_UNKNOWN)


def __getattr__(name: str):
    # perfbench binds ``classify.oracle_circle_goodness``, so the oracle's
    # entry point is re-exported here on first access (and stored, so that a
    # tracer wrapping this module finds it).  The library imports it from
    # ``gainbalance.oracle``; this hook goes once perfbench binds ``oracle``.
    if name == "oracle_circle_goodness":
        from .oracle import oracle_circle_goodness

        globals()[name] = oracle_circle_goodness
        return oracle_circle_goodness
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
