"""Gain assignments, walk gains, switching, and the balance decision.

Gains are stored in reference orientation only; traversing an edge against
its orientation contributes the inverse element.  Balance is decided by
switching to identity gains on a maximal forest: the gain graph is balanced
exactly when every chord then has identity gain (Zaslavsky, "Biased graphs
I", JCTB 47, 1989).  The certificate for an unbalanced graph is the
fundamental circle of the least-identifier chord whose switched gain is not
the identity, which is the least-identifier unbalanced fundamental circle,
with its gain in the original graph.

Each gain graph computes that forest switching once, on first use, and keeps
it.  Switching by f replaces g(e) with f(tail)^-1 g(e) f(head), so every
original gain is g(e) = f(tail) g'(e) f(head)^-1 in terms of its switched
gain g', and the f values between consecutive steps of a closed walk cancel.
A closed walk at v therefore has gain f(v) (product of its chord steps'
switched gains, inverted on reversed steps) f(v)^-1, since forest edges
switch to the identity: walk gains and the balance decision both read the
chords' switched gains alone.

Gain file format: a ``group`` header line, then ``gain <edge-id> <element>``
lines; edges omitted default to the identity::

    group Z 3
    gain f12 1
    gain g12 2

A file's elements are parsed once per distinct text: lines with the same
element tokens share one parsed element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .cyclespace import Circle, fundamental_circle
from .errors import GraphError, ParseError
from .graphcore import ClosedWalk, Graph, RootedForest, spanning_tree, walk_vertices
from .groups import Group, parse_group_header


@dataclass(frozen=True)
class GainAssignment:
    """Edge gains in reference orientation; must cover every host edge."""

    group: Group
    gains: Mapping[str, tuple]


@dataclass(frozen=True)
class ForestSwitching:
    """The switching of a gain graph to identity gains on its spanning forest.

    ``values`` and ``inverses`` hold f(v) and f(v)^-1 for every vertex (the
    identity at each root of ``tree``); ``chord_gains`` maps each chord whose
    switched gain f(tail)^-1 g(e) f(head) is not the identity to that gain,
    in edge-identifier order.
    """

    tree: RootedForest
    values: Mapping[str, tuple]
    inverses: Mapping[str, tuple]
    chord_gains: Mapping[str, tuple]


@dataclass(frozen=True)
class GainGraph:
    graph: Graph
    assignment: GainAssignment

    def __post_init__(self):
        if self.assignment.gains.keys() != self.graph.edges.keys():
            missing = set(self.graph.edge_list) - set(self.assignment.gains)
            extra = set(self.assignment.gains) - set(self.graph.edge_list)
            raise GraphError(f"gain assignment mismatch (missing {sorted(missing)}, extra {sorted(extra)})")

    @property
    def group(self) -> Group:
        return self.assignment.group

    @cached_property
    def forest_switching(self) -> ForestSwitching:
        """The switching along the graph's spanning tree, computed on first
        use and kept: every walk gain and the balance decision read it."""
        g, grp, gains = self.graph, self.group, self.assignment.gains
        tree = spanning_tree(g)
        forest = tree.forest
        values, inverses = _solve_switching(tree, grp, gains)
        ident, op, ends = grp.identity(), grp.op, g.edges
        chord_gains = {}
        for e in g.edge_list:
            if e not in forest:
                t, h = ends[e]
                x = op(op(inverses[t], gains[e]), values[h])
                if x != ident:
                    chord_gains[e] = x
        return ForestSwitching(tree, values, inverses, chord_gains)


def gain_graph(g: Graph, group: Group, gains: Mapping[str, tuple] | None = None) -> GainGraph:
    """Build a gain graph, filling unlisted edges with the identity.

    Elements carry no group, so each listed gain is checked here to be an
    element of ``group``.
    """
    full = dict.fromkeys(g.edge_list, group.identity())
    for eid, x in (gains or {}).items():
        if eid not in full:
            raise GraphError(f"gain for unknown edge {eid!r}")
        if not group.is_element(x):
            raise GraphError(f"gain {x!r} of edge {eid!r} is not an element of {group}")
        full[eid] = x
    return GainGraph(g, GainAssignment(group, full))


@dataclass(frozen=True)
class Switching:
    """A vertex-indexed group function used to conjugate gains."""

    values: Mapping[str, tuple]


def walk_gain(gg: GainGraph, w: ClosedWalk) -> tuple:
    """Ordered product of step gains; reversed steps contribute inverses.
    The walk is first checked to be a closed walk of ``gg``'s graph."""
    walk_vertices(gg.graph, w)
    return walk_product(gg, w)


def walk_product(gg: GainGraph, w: ClosedWalk) -> tuple:
    """:func:`walk_gain` of a walk already known to be a closed walk of
    ``gg``'s graph, without checking it again.

    With f the forest switching of ``gg``, the gain is f(start) c f(start)^-1,
    where c multiplies the switched gains of the walk's chord steps, inverted
    on reversed steps; forest steps and identity chords cost nothing, and the
    conjugation is skipped over an abelian group.  A fundamental circle thus
    costs at most three group operations whatever its length.
    """
    sw = gg.forest_switching
    grp, chord_gains = gg.group, sw.chord_gains
    acc = None
    for e, forward in w.steps:
        x = chord_gains.get(e)
        if x is not None:
            if not forward:
                x = grp.inverse(x)
            acc = x if acc is None else grp.op(acc, x)
    if acc is None:
        return grp.identity()
    if grp.is_abelian:
        return acc
    return grp.op(grp.op(sw.values[w.start], acc), sw.inverses[w.start])


def switch(gg: GainGraph, f: Switching) -> GainGraph:
    """Replace g(e) by f(tail)^-1 g(e) f(head)."""
    missing = set(gg.graph.vertex_list) - set(f.values)
    if missing:
        raise GraphError(f"switching misses vertices {sorted(missing)}")
    grp = gg.group
    new = {}
    for eid in gg.graph.edge_list:
        t, h = gg.graph.ends(eid)
        new[eid] = grp.op(grp.op(grp.inverse(f.values[t]), gg.assignment.gains[eid]), f.values[h])
    return GainGraph(gg.graph, GainAssignment(gg.group, new))


def switch_to_forest(gg: GainGraph, forest: frozenset) -> tuple[GainGraph, Switching]:
    """Switch so every forest edge has identity gain.

    Walks the forest from the least vertex of each component; the returned
    switching satisfies switch(gg, f) == first result.
    """
    g = gg.graph
    for e in forest:
        if e not in g.edges:
            raise GraphError(f"forest edge {e!r} not in graph")
    values, _ = _solve_switching(RootedForest(g, forest), gg.group, gg.assignment.gains)
    f = Switching(values)
    switched = switch(gg, f)
    ident = gg.group.identity()
    for e in forest:
        if switched.assignment.gains[e] != ident:
            raise GraphError("forest switching failed to reach identity gains")
    return switched, f


def _solve_switching(tree: RootedForest, group: Group, gains: Mapping[str, tuple]) -> tuple[dict, dict]:
    """f and f^-1 at every vertex, with f the identity at each root of
    ``tree`` and f(tail)^-1 g(e) f(head) the identity on every forest edge,
    solved from parent to child.  It reads ``tree.up`` in order, so it needs
    a tree that no swap has touched, where a parent precedes its children."""
    g = tree.graph
    op, inverse, ends = group.op, group.inverse, g.edges
    values = dict.fromkeys(g.vertex_list, group.identity())
    inverses = dict(values)
    for u, (e, v) in tree.up.items():
        x = gains[e]
        if ends[e][0] == v:  # e: v -> u, so f(u) = g(e)^-1 f(v)
            values[u] = op(inverse(x), values[v])
            inverses[u] = op(inverses[v], x)
        else:  # e: u -> v, so f(u) = g(e) f(v)
            values[u] = op(x, values[v])
            inverses[u] = op(inverses[v], inverse(x))
    return values, inverses


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    certificate: Optional[Circle] = None
    certificate_gain: Optional[tuple] = None

    def __bool__(self):
        return self.balanced


def is_balanced(gg: GainGraph) -> BalanceResult:
    """Decide balance from the chord gains of ``gg``'s forest switching.

    If unbalanced, the certificate is the fundamental circle of the
    least-identifier chord with a non-identity switched gain, and the
    certificate gain is its walk gain in ``gg``.
    """
    sw = gg.forest_switching
    chord = next(iter(sw.chord_gains), None)
    if chord is None:
        return BalanceResult(True)
    circle = fundamental_circle(sw.tree, chord)
    return BalanceResult(False, circle, walk_product(gg, circle.walk))


# -- gain file format ---------------------------------------------------------


def parse_gain_text(text: str, g: Graph) -> GainGraph:
    """Read a gain file for ``g``; unlisted edges get the identity.  Each
    distinct element text is parsed and validated once, by the group's
    ``parse_element``."""
    group: Optional[Group] = None
    gains: dict[str, tuple] = {}
    parsed: dict[tuple, tuple] = {}  # element by its tokens
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:  # every error on a line carries its number, raised here or by the group
            if parts[0] == "group":
                if group is not None:
                    raise ParseError("duplicate group header")
                group = parse_group_header(" ".join(parts[1:]))
            elif parts[0] == "gain":
                if group is None:
                    raise ParseError("gain line before group header")
                if len(parts) < 2:
                    raise ParseError("gain line needs an edge id")
                eid = parts[1]
                if eid not in g.edges:
                    raise ParseError(f"unknown edge {eid!r}")
                if eid in gains:
                    raise ParseError(f"duplicate gain for {eid!r}")
                tokens = parts[2:]
                key = tuple(tokens)
                if key not in parsed:
                    parsed[key] = group.parse_element(tokens) if tokens else group.identity()
                gains[eid] = parsed[key]
            else:
                raise ParseError(f"unrecognized declaration {line!r}")
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if group is None:
        raise ParseError("gain file lacks a group header")
    # parse_element returns elements of the header's group, so the check in
    # gain_graph would only repeat it
    full = dict.fromkeys(g.edge_list, group.identity())
    full.update(gains)
    return GainGraph(g, GainAssignment(group, full))


def gains_to_text(gg: GainGraph) -> str:
    group = gg.group
    lines = ["group " + group.header()]
    for eid in gg.graph.edge_list:
        x = gg.assignment.gains[eid]
        if x != group.identity():
            lines.append(f"gain {eid} {group.format_element(x)}")
    return "\n".join(lines) + "\n"
