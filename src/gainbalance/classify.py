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
* otherwise, if a block is an even wheel W(2k) or doubled circle 2C(2k),
  k >= 3, and the class has Z(2k-1) (``has_order(2k - 1)``, asked for each
  block's own k in ascending k, wheels first): Bad via the Hamiltonian /
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

Decomposition and minimization run on the compact form of ``graphcore``.
The pass converts its block once and reads its four rules on that form: a
deletion drops an edge number, a contraction merges the greater end index
into the lesser (the lesser name, as ``contract`` does).  ``h`` keeps its
isolated vertices, as ``delete`` does, so the three-vertex rule counts them;
the returned ``Graph``, the only one built, drops them.

The forbidden-minor target graphs, the edge floor of the minimization and the
verified witness of each family and order are built once per process, on
first use, and shared; every witness lifted to a host is verified.

The exhaustive brute-force oracle that checks these verdicts is
``gainbalance.oracle``, which this module does not import.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from .balancetests import binary_cycle_test, circle_test
from .cyclespace import OrientedBasis, _checked_walk, cycle_space_dimension, oriented_basis
from .errors import BudgetError, GraphError
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
    Graph,
    NamedGraphSpec,
    RootedForest,
    _block_edges,
    _block_graph,
    _compact,
    blocks,
    build_named,
    isomorphism,
    edge_bijection,
    walk_support,
)
from .groups import WITNESS_MAX_ORDER, GroupClass, class_flags, cyclic
from .minors import (
    MinorWitness,
    ReverseStep,
    _loop_vertex_witness,
    _named_steps,
    _reduce,
    branch_forest,
    lift_basis_deletion,
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
        passes = circle_test(gg, self.basis.cycles) if self.test == CIRCLE_TEST else binary_cycle_test(gg, self.basis)
        return passes and not is_balanced(gg).balanced

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
                    "walk": [("" if forward else "-") + e for e, forward in w.steps],
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


def _block_base(ends: Sequence[tuple[int, int]], part: Sequence[int]) -> Optional[tuple[NamedGraphSpec, list]]:
    """The base family of the block with edge numbers ``part`` of a compact
    graph and the ``_reduce`` log reaching it, or None.  A loopless block is
    reduced along one reverse-extrusion path and decomposes exactly when the
    irreducible end is a base; a block with a loop is that loop alone."""
    vertices = sorted({v for e in part for v in ends[e]})
    if len(vertices) < 3:  # a loop, or a parallel class, which has no reverse step
        return NamedGraphSpec(LOOP_VERTEX) if len(vertices) == 1 else NamedGraphSpec(MULTI_K2, (len(part),)), []
    sub = {e: ends[e] for e in part}
    classes, _, log = _reduce(vertices, sub)
    pairs = [(v, u, len(c)) for v, near in classes.items() for u, c in near.items() if v < u]
    mults = sorted(c for _, _, c in pairs)
    big = [(v, u) for v, u, c in pairs if c > 1]
    if len(classes) == 2:
        return NamedGraphSpec(MULTI_K2, (len(sub),)), log
    if len(classes) == 3 and len(mults) == 3 and mults[:2] == [2, 2]:
        return NamedGraphSpec(CIRCLE_MULTI, (mults[2], 2, 2)), log
    if len(classes) == 4 and len(pairs) == 6 and (len(big) < 2 or len(big) == 2 and not set(big[0]) & set(big[1])):
        return NamedGraphSpec(K4_OPPOSITE, (mults[-1], mults[-2])), log
    return None


def _decomposes(n: int, ends: Sequence[tuple[int, int]], edges: Sequence[int]) -> bool:
    """Whether every block of the compact graph on vertex indices below
    ``n`` with ``edges`` decomposes; one with fewer edges than the smallest
    forbidden minor always does, so it is not reduced."""
    return all(len(part) < _edge_floor() or _block_base(ends, part) is not None for part in _block_edges(n, ends, edges))


def _decompose(g: Graph) -> Decomposition | Graph:
    """The decomposition of ``g``, or else its first block that has none."""
    ends, out = _compact(g), []
    for part in _block_edges(len(g.vertex_list), ends, range(len(ends))):
        found = _block_base(ends, part)
        if found is None:
            return _block_graph(g, part)
        out.append(BlockDecomposition(_block_graph(g, part), found[0], _named_steps(g, found[1])))
    return Decomposition(tuple(out))


def structural_decomposition(g: Graph) -> Optional[Decomposition]:
    """Per block, a base family plus an extrusion log reaching the block, or
    None when some block admits no such decomposition."""
    return found if isinstance(found := _decompose(g), Decomposition) else None


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
    default 3); its basis walk has that many steps, so an order past
    ``WITNESS_MAX_ORDER`` raises ``BudgetError``.  The other families fix
    their own groups, and giving them an order is an input error.  A witness
    is built and verified once per process for each argument list and then
    shared, so it must not be mutated.
    """
    fam, p = spec.family, spec.params
    if cyclic_order is not None and fam != LOOP_VERTEX:
        raise GraphError(f"{spec} fixes its own gain group: a cyclic order is only for the loop vertex")
    if fam == LOOP_VERTEX:
        k = 3 if cyclic_order is None else cyclic_order
        if k < 3 or k % 2 == 0:
            raise GraphError("loop-vertex witness needs an odd cyclic order >= 3")
        if k > WITNESS_MAX_ORDER:
            raise BudgetError(f"loop-vertex witness order {k} exceeds the ceiling {WITNESS_MAX_ORDER}")
        g = build_named(spec)
        grp = cyclic(k)
        gg = gain_graph(g, grp, {"e": grp.element([1])})
        walk = ClosedWalk("v", (("e", True),) * k)
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
        steps = [(mw.edge_map[e], forward ^ flip[e]) for e, forward in walk.steps]
        spliced = splice_tree_paths(tree, steps, min(mw.branch_sets[walk.start]))
        pairs.append((walk_support(spliced), spliced))
    model = Graph({e: host.ends(e) for e in gains}, host.vertex_list)
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
    pass that tests every step.  Each test is ``_decomposes``.
    """
    floor = _edge_floor()
    names, ends = block.vertex_list, _compact(block)
    edges, proj = list(range(len(ends))), list(range(len(names)))  # h's edge numbers; block vertex -> h vertex
    for e in range(len(ends)):
        if len(edges) <= floor:
            break
        rest = [f for f in edges if f != e]
        if not _decomposes(len(names), ends, rest):
            edges = rest
            continue
        t, u = ends[e]
        if len(set(proj)) == 3 or sum(t in ends[f] and u in ends[f] for f in edges) > 1:
            continue
        keep, gone = min(t, u), max(t, u)
        merged = [(keep if x == gone else x, keep if y == gone else y) for x, y in ends]
        if any(sum(x in ends[f] for f in edges) == 2 for x in (t, u)) or not _decomposes(len(names), merged, rest):
            ends, edges, proj = merged, rest, [keep if x == gone else x for x in proj]
    h = Graph({block.edge_list[f]: (names[ends[f][0]], names[ends[f][1]]) for f in edges})
    return h, {v: names[x] for v, x in zip(names, proj)}


# -- classification -----------------------------------------------------------------


def binary_cycle_goodness(g: Graph, c: GroupClass) -> Verdict:
    """Forests pass for any class; with odd torsion admissible everything
    else is bad; abelian classes without odd torsion are always good.  The
    bad witness is over the class's least odd order, so a class whose least
    odd order is past ``WITNESS_MAX_ORDER`` raises ``BudgetError``."""
    flags = class_flags(c)
    if cycle_space_dimension(g) == 0:
        return Verdict(GOOD, RULE_FOREST)
    if flags.has_odd_torsion:
        if flags.smallest_odd_order is None:
            raise BudgetError(f"the least odd order of {c} exceeds the loop-vertex witness ceiling {WITNESS_MAX_ORDER}")
        loop = bad_witness(NamedGraphSpec(LOOP_VERTEX), flags.smallest_odd_order)
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
    # only Z3 classes have a forbidden-minor theorem, so here a block counts
    # only as exactly W(2k) or 2C(2k), 4k edges with k >= 3, over Z(2k-1)
    parts = blocks(g)
    sizes = {m // 4 for b in parts if (m := len(b.edge_list)) % 4 == 0 and m >= 12}
    for k in sorted(k for k in sizes if any(grp.has_order(2 * k - 1) for grp in c.groups)):
        for spec in (NamedGraphSpec(WHEEL, (2 * k,)), NamedGraphSpec(DOUBLED_CIRCLE, (2 * k,))):
            for block in parts:
                if len(block.edge_list) == 4 * k and (mw := _identity_minor_witness(block, _target(spec))) is not None:
                    return Verdict(BAD, RULE_WHEEL_FAMILY, lift_witness(g, mw, bad_witness(spec)))
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
