"""Gain assignments, walk gains, switching, and the balance decision.

Gains are stored in reference orientation only; traversing an edge against
its orientation contributes the inverse element.  Balance is decided by
switching to identity gains on a maximal forest: the gain graph is balanced
exactly when every chord then has identity gain (Zaslavsky, "Biased graphs
I", JCTB 47, 1989).  The certificate for an unbalanced graph is the
fundamental circle of the least-identifier chord whose switched gain is not
the identity, which is the least-identifier unbalanced fundamental circle,
with its gain in the original graph.

Gain file format: a ``group`` header line, then ``gain <edge-id> <element>``
lines; edges omitted default to the identity::

    group Z 3
    gain f12 1
    gain g12 2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .cyclespace import Circle, fundamental_circle
from .errors import GraphError, ParseError
from .graphcore import ClosedWalk, Graph, RootedForest, spanning_forest, walk_vertices
from .groups import Group, parse_group_header


@dataclass(frozen=True)
class GainAssignment:
    """Edge gains in reference orientation; must cover every host edge."""

    group: Group
    gains: Mapping[str, tuple]

    def gain(self, eid: str, forward: bool = True) -> tuple:
        x = self.gains[eid]
        return x if forward else self.group.inverse(x)


@dataclass(frozen=True)
class GainGraph:
    graph: Graph
    assignment: GainAssignment

    def __post_init__(self):
        missing = set(self.graph.edge_list) - set(self.assignment.gains)
        extra = set(self.assignment.gains) - set(self.graph.edge_list)
        if missing or extra:
            raise GraphError(f"gain assignment mismatch (missing {sorted(missing)}, extra {sorted(extra)})")

    @property
    def group(self) -> Group:
        return self.assignment.group


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
    ``gg``'s graph, without checking it again."""
    grp, gain = gg.group, gg.assignment.gain
    acc = grp.identity()
    for step in w.steps:
        acc = grp.op(acc, gain(step.edge, step.forward))
    return acc


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
    grp, gains = gg.group, gg.assignment.gains
    ident = grp.identity()
    values = dict.fromkeys(g.vertex_list, ident)
    for u, (e, v) in RootedForest(g, forest).up.items():
        # solve f(tail)^-1 g(e) f(head) = 1 along the parent edge
        if g.ends(e)[0] == v:
            values[u] = grp.op(grp.inverse(gains[e]), values[v])
        else:
            values[u] = grp.op(gains[e], values[v])
    f = Switching(values)
    switched = switch(gg, f)
    for e in forest:
        if switched.assignment.gains[e] != ident:
            raise GraphError("forest switching failed to reach identity gains")
    return switched, f


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    certificate: Optional[Circle] = None
    certificate_gain: Optional[tuple] = None

    def __bool__(self):
        return self.balanced


def is_balanced(gg: GainGraph) -> BalanceResult:
    """Decide balance from the chord gains after switching along a maximal
    forest.

    If unbalanced, the certificate is the fundamental circle of the
    least-identifier chord with a non-identity switched gain, and the
    certificate gain is its walk gain in ``gg``.
    """
    g = gg.graph
    forest = spanning_forest(g)
    switched, _ = switch_to_forest(gg, forest)
    ident = gg.group.identity()
    # forest edges have identity gain after switching, so the first
    # non-identity edge is a chord
    for e in g.edge_list:
        if switched.assignment.gains[e] != ident:
            circle = fundamental_circle(RootedForest(g, forest), e)
            return BalanceResult(False, circle, walk_gain(gg, circle.walk))
    return BalanceResult(True)


# -- gain file format ---------------------------------------------------------


def parse_gain_text(text: str, g: Graph) -> GainGraph:
    group: Optional[Group] = None
    gains: dict[str, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "group":
            if group is not None:
                raise ParseError("duplicate group header", line=lineno)
            group = parse_group_header(" ".join(parts[1:]))
        elif parts[0] == "gain":
            if group is None:
                raise ParseError("gain line before group header", line=lineno)
            if len(parts) < 2:
                raise ParseError("gain line needs an edge id", line=lineno)
            eid = parts[1]
            if eid not in g.edges:
                raise ParseError(f"unknown edge {eid!r}", line=lineno)
            if eid in gains:
                raise ParseError(f"duplicate gain for {eid!r}", line=lineno)
            tokens = parts[2:]
            gains[eid] = group.parse_element(tokens) if tokens else group.identity()
        else:
            raise ParseError(f"unrecognized declaration {line!r}", line=lineno)
    if group is None:
        raise ParseError("gain file lacks a group header")
    return gain_graph(g, group, gains)


def gains_to_text(gg: GainGraph) -> str:
    group = gg.group
    lines = ["group " + group.header()]
    for eid in gg.graph.edge_list:
        x = gg.assignment.gains[eid]
        if x != group.identity():
            lines.append(f"gain {eid} {group.format_element(x)}")
    return "\n".join(lines) + "\n"
