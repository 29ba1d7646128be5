"""Binary Cycle Test, Circle Test, and the exact abelian balance analysis.

Both tests ask whether every basis member's walk has identity gain.  The
binary cycle test takes each member's given walk, or its natural orientation
where none is given; the circle test is the binary cycle test on the
canonical walks of its member circles.  One evaluation, :func:`_gains`,
serves both (:func:`cycle_gains`, :func:`circle_gains`, :func:`basis_gains`
for an ``OrientedBasis``).  It checks each member, then the basis, then
reads the gains.

A member's walk projects to it, so every member is a binary cycle, which is
fixed by its chords of the spanning tree: the basis is checked in chord
coordinates alone (as many members as chords, chord vectors independent over
GF(2)).

A walk's gain is the product of the switched gains of its chord steps in the
gain graph's forest switching, conjugated by the switching value at its
start (``gaingraph.walk_product``).  A natural orientation, and so a
canonical circle walk, steps only on its member's edges and on links along
the same spanning tree, whose edges are not chords.  So a member without a
given walk whose support meets no chord of non-identity switched gain has
identity gain, and its walk is never built.  A given walk is always
multiplied: it may cross a chord outside its member, an even number of
times.

The abelian analysis works in the integer lattice L spanned by the signed
traversal vectors of the basis walks (entry +1 when a walk crosses an edge in
reference orientation), inside the flow lattice C of closed-walk vectors.  C
is the kernel of the incidence map, so Z^E / C is torsion-free and the
torsion of Z^E / L and every query's order live in C / L.  Projecting onto
the chords of a spanning forest maps C isomorphically onto Z^chords (a flow
is determined by its chord values), so the analysis runs the Smith normal
form of the dim x dim chord matrix of the basis walks.  For any query circle
it gives the order of its image in the quotient: order 1 means the basis
forces the circle balanced over every abelian gain group, and an order
d > 1 admits explicit unbalanced witnesses over suitable cyclic groups.

Every order is finite and odd.  Each walk projects mod 2 onto its member and
the members form a GF(2) basis, so the chord matrix is invertible mod 2: its
determinant is odd, and every invariant factor and every query order divides
it.  This is the lattice form of the paper's rule that abelian groups without
odd torsion validate both tests.

Switching is ignored throughout the abelian analysis: a switching changes a
closed walk's gain by a telescoping product that cancels, so it moves no
traversal vector.

All arithmetic is exact (Python integers).  Reports serialize to JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cyclespace import (
    Circle,
    OrientedBasis,
    _spans_by_chords,
    binary_cycle,
    circle_from_support,
    circle_support,
    is_cycle_basis,
    natural_orientation,
)
from .errors import GraphError
from .gaingraph import GainAssignment, GainGraph, gain_graph, is_balanced, walk_gain, walk_product
from .graphcore import ClosedWalk, Graph, spanning_tree, walk_int_vector
from .groups import cyclic


def _gains(gg: GainGraph, pairs: Sequence[tuple[frozenset, Optional[ClosedWalk]]], check, orient) -> list:
    """The gain of each member's walk, in basis order: its given walk, or
    else ``orient(g, member)``, built only when the member meets a chord of
    non-identity switched gain (module docstring).  In basis order, each
    member given without a walk is checked by ``check(g, member)``, or by
    ``orient``, which raises as ``check`` does, when its walk is built; the
    basis is checked after them.  The given walks were checked where they
    were read (``read_basis_text``, ``oriented_basis``,
    ``circle_orientation``)."""
    g = gg.graph
    gained = gg.forest_switching.chord_gains.keys()
    walks = []
    for s, w in pairs:
        if w is None:
            if gained.isdisjoint(s):
                check(g, s)
            else:
                w = orient(g, s)
        walks.append(w)
    if not _spans_by_chords([s for s, _ in pairs], g):
        raise GraphError("oriented cycles do not form a basis")
    ident = gg.group.identity()
    return [ident if w is None else walk_product(gg, w) for w in walks]


def cycle_gains(gg: GainGraph, pairs: Sequence[tuple[frozenset, Optional[ClosedWalk]]]) -> list:
    """The binary cycle test's gain of each member, paired with its walk or
    None as :func:`cyclespace.read_basis_text` gives it.  A member without a
    walk must have a natural orientation, and raises as
    :func:`cyclespace.natural_orientation` would: on a connected graph every
    binary cycle has one, elsewhere it is built to be checked."""
    g = gg.graph

    def orient(g, s):
        return natural_orientation(s, g)

    connected = len(spanning_tree(g).up) == len(g.vertex_list) - 1
    return _gains(gg, pairs, binary_cycle if connected else orient, orient)


def basis_gains(gg: GainGraph, ob: OrientedBasis) -> list:
    """The gain of each attached walk, in basis order, once the oriented
    cycles are checked to be a basis of ``gg``'s graph."""
    if ob.host.edges != gg.graph.edges:
        raise GraphError("oriented basis belongs to a different graph")
    return cycle_gains(gg, ob.pairs)


def binary_cycle_test(gg: GainGraph, ob: OrientedBasis) -> bool:
    """True iff every attached walk has identity gain.

    The orientations are taken as given; no search over alternative cyclic
    orientations is performed.
    """
    ident = gg.group.identity()
    return all(x == ident for x in basis_gains(gg, ob))


def circle_orientation(g: Graph, members: Iterable[Iterable[str]]) -> OrientedBasis:
    """Each member, a set of edge ids, paired with its canonical circle walk
    by :func:`circle_from_support`, so a member that is not a circle raises."""
    circles = [circle_from_support(g, m) for m in members]
    return OrientedBasis(tuple((c.support, c.walk) for c in circles), g)


def circle_gains(gg: GainGraph, members: Iterable[Iterable[str]]) -> list:
    """The circle test's gain of each member's canonical circle walk, in basis
    order; a member that is not a circle raises."""
    pairs = [(frozenset(m), None) for m in members]
    return _gains(gg, pairs, circle_support, lambda g, s: circle_from_support(g, s).walk)


def circle_test(gg: GainGraph, members: Iterable[Iterable[str]]) -> bool:
    """True iff every member circle's canonical walk has identity gain."""
    ident = gg.group.identity()
    return all(x == ident for x in circle_gains(gg, members))


# -- Smith normal form ---------------------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    """D = U @ A @ right for some unimodular U (not kept) and unimodular
    ``right``, with D diagonal and the divisibility chain d1 | d2 | ... ."""

    diagonal: tuple[int, ...]
    right: tuple[tuple[int, ...], ...]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Exact Smith normal form with minimal-absolute-value pivoting; only the
    column transform is kept."""
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise GraphError("ragged matrix")
    right = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row i -= q * row j
        ai, aj = a[i], a[j]
        for k in range(n):
            ai[k] -= q * aj[k]

    def col_op(i, j, q):  # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in right:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # minimal absolute value pivot in the remaining block; no later entry
        # replaces a unit, so the scan stops at the first one
        pivot, best = None, 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = abs(row[j])
                if v and (pivot is None or v < best):
                    pivot, best = (i, j), v
                    if v == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t, then row t; rounding division keeps entries small
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            if abs(a[t][t]) == 1:  # a unit divides the remaining block
                break
            # enforce divisibility: pivot must divide the remaining block
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)
        a[t][t] = abs(a[t][t])  # the rest of row and column t is zero
        t += 1
    diagonal = tuple(a[i][i] for i in range(min(m, n)))
    return SmithForm(diagonal, tuple(map(tuple, right)))


# -- universal abelian analysis -------------------------------------------------


@dataclass(frozen=True)
class QueryReport:
    support: tuple[str, ...]
    order: int


@dataclass(frozen=True)
class UniversalAbelianReport:
    """Torsion data of Z^E modulo the lattice of basis traversal vectors."""

    edge_order: tuple[str, ...]
    lattice_rank: int  # the number of chords: the basis walks span a full-rank lattice
    invariant_factors: tuple[int, ...]  # the nontrivial ones (> 1)
    queries: tuple[QueryReport, ...]
    _smith: SmithForm
    _chords: tuple[str, ...]  # the columns of the Smith form's matrix
    _graph: Graph
    _basis: OrientedBasis

    def order_of(self, z: Circle) -> int:
        for q in self.queries:
            if set(q.support) == set(z.support):
                return q.order
        raise GraphError("circle was not among the report's queries")

    def to_json(self) -> dict:
        return {
            "edge_order": list(self.edge_order),
            "lattice_rank": self.lattice_rank,
            "invariant_factors": list(self.invariant_factors),
            "queries": [
                {"support": sorted(q.support), "order": q.order} for q in self.queries
            ],
        }


def _query_coordinates(sf: SmithForm, chords: Sequence[str], z: Circle) -> list[int]:
    """The query's chord vector times ``sf.right``: a sum of ``right`` rows
    over the chords the query crosses."""
    pos = {e: i for i, e in enumerate(chords)}
    w = [0] * len(chords)
    for e, c in walk_int_vector(z.walk).items():
        if e in pos:
            w = [x + c * r for x, r in zip(w, sf.right[pos[e]])]
    return w


def _image_order(diag: Sequence[int], w: Sequence[int]) -> int:
    return math.lcm(*(dj // math.gcd(dj, wj) for dj, wj in zip(diag, w)))


def implies_balance_abelian(g: Graph, b: OrientedBasis, queries: Sequence[Circle]) -> UniversalAbelianReport:
    """Order of each query circle in Z^E modulo the basis walk lattice,
    computed in chord coordinates (see the module docstring).

    Order 1: the basis forces the circle balanced over every abelian group.
    Order d > 1: a witness exists over Cyclic(k) for suitable k (see
    :func:`abelian_witness`).  Every order is odd, as every diagonal entry
    of the Smith form is; an even one, zero included, raises: only an
    ``OrientedBasis`` built by hand, with walks that do not project to its
    members, can give one.
    """
    if not is_cycle_basis(b.cycles, g):
        raise GraphError("oriented cycles do not form a basis")
    forest = spanning_tree(g).forest
    chords = tuple(e for e in g.edge_list if e not in forest)
    sf = smith_normal_form([[vec.get(e, 0) for e in chords] for vec in map(walk_int_vector, b.walks)])
    if any(d % 2 == 0 for d in sf.diagonal):
        raise GraphError("basis walks do not project to their members: the chord matrix has an even determinant")
    out = [QueryReport(tuple(sorted(z.support)), _image_order(sf.diagonal, _query_coordinates(sf, chords, z)))
           for z in queries]
    factors = tuple(d for d in sf.invariant_factors if d > 1)
    return UniversalAbelianReport(tuple(g.edge_list), len(chords), factors, tuple(out), sf, chords, g, b)


def abelian_witness(report: UniversalAbelianReport, z: Circle, d: int) -> GainAssignment:
    """Explicit gains over Cyclic(d) balancing every basis walk while leaving
    ``z`` unbalanced, with the spanning forest's edges at the identity;
    verified before return.

    Raises when no such assignment exists over Cyclic(d) (possible even for
    some divisors of the image order).
    """
    if d <= 1:
        raise GraphError("witness group must be nontrivial")
    sf, chords = report._smith, report._chords
    # the chord gains are column j of ``right`` times y_j, zero elsewhere in y
    for j, (dj, wj) in enumerate(zip(sf.diagonal, _query_coordinates(sf, chords, z))):
        gj = math.gcd(dj, d)
        if wj % gj:
            yj = d // gj
            break
    else:
        raise GraphError(f"no unbalanced witness over Cyclic({d}) for this query")
    group = cyclic(d)
    gains = {e: group.element([row[j] * yj % d]) for e, row in zip(chords, sf.right)}
    gg = gain_graph(report._graph, group, gains)
    ident = group.identity()
    balanced_basis = all(walk_gain(gg, w) == ident for w in report._basis.walks)
    if balanced_basis and walk_gain(gg, z.walk) != ident and not is_balanced(gg).balanced:
        return gg.assignment
    raise GraphError("constructed witness failed verification")
