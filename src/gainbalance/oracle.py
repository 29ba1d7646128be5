"""The exhaustive brute-force oracle for the circle test.

The oracle enumerates switching-reduced gain assignments (forest edges pinned
to the identity) over any finite group, abelian or not, in lexicographic
order, and reports a graph bad at the first unbalanced assignment whose
balanced circles span the cycle space; that counterexample is verified before
it is returned.  Over a single Z_n, scaling every chord gain by a unit
balances the same circles, so only the indices whose leading nonzero digit
divides n are tried; each unit orbit keeps its least index, so the first
counterexample stays the same.  Cyclic products are evaluated by numpy in
blocks of at most ``ORACLE_BLOCK`` assignments: a block's circle dot products
are one float32 BLAS matmul, and its candidates are tested for spanning by one
more matmul against the parity of each circle's chords in each nonzero chord
set.  Other groups go one assignment at a time by walk products.  Only the
counterexample gets a GF(2) basis extraction.  The edge bound and the
assignment budget (|G|^dim times the number of circles) bound the work; the
group order has no bound of its own.

This is the only module that imports numpy.  The classifier proves its
verdicts without it; the oracle checks them.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Optional

import numpy as np

from .classify import CIRCLE_TEST, BadWitness
from .cyclespace import _edge_index, _mask, cycle_space_dimension, enumerate_circles, gf2_extract_basis, oriented_basis
from .errors import BudgetError, GraphError
from .gaingraph import gain_graph
from .graphcore import Graph, spanning_forest, walk_int_vector
from .groups import CyclicProduct, Group, divisors

ORACLE_BLOCK = 1 << 12  # most assignments a kernel block holds
ORACLE_MAX_EDGES = 10  # most host edges the oracle takes
ORACLE_BUDGET = 50_000_000  # default bound on |G|^dim times the number of circles

# the parity of each chord set y of at most ORACLE_MAX_EDGES chords, as a float for BLAS
_ODD = np.array([bin(y).count("1") & 1 for y in range(1 << ORACLE_MAX_EDGES)], dtype=np.float32)


def _orbit_ranges(n: int, dim: int) -> Iterator[tuple[int, int]]:
    """The assignment indices over Z_n whose leading nonzero base-n digit
    divides n, as ascending ranges [d n^e, (d+1) n^e).

    Multiplying every chord gain by a unit balances the same circles, and
    some unit takes a leading digit d to gcd(d, n) without touching the zero
    digits before it; so each unit orbit has its least index here, and the
    first spanning assignment is among these indices."""
    leading = divisors(n)[:-1]  # a digit is less than n
    for e in range(dim):
        for d in leading:
            yield d * n**e, (d + 1) * n**e


def _index_blocks(ranges) -> Iterator[np.ndarray]:
    """The indices of ascending ``ranges`` in arrays of at most
    ``ORACLE_BLOCK``, short ranges sharing an array."""
    parts, size = [], 0
    for start, stop in ranges:
        while start < stop:
            take = min(stop - start, ORACLE_BLOCK - size)
            parts.append(np.arange(start, start + take))
            start, size = start + take, size + take
            if size == ORACLE_BLOCK:
                yield np.concatenate(parts)
                parts, size = [], 0
    if parts:
        yield np.concatenate(parts)


def _residue_blocks(moduli: tuple[int, ...], dim: int) -> Iterator[tuple]:
    """The assignment indices the residue kernel tries, in ascending blocks,
    each with the residues of its digits, one dim x block array per factor.

    Over a single Z_n these are the unit orbit minima of ``_orbit_ranges``;
    otherwise every nonzero index.  Residues are float32, or float64 where
    dim times a modulus reaches 2^24, so that the kernel's dot products stay
    exact."""
    order = math.prod(moduli)
    ranges = _orbit_ranges(order, dim) if len(moduli) == 1 else [(1, order**dim)]
    exact = np.float32 if dim * max(moduli) < 1 << 24 else np.float64
    for js in _index_blocks(ranges):
        digits = np.unravel_index(js, (order,) * dim)
        yield js, [residues.astype(exact) for residues in np.unravel_index(digits, moduli)]


@functools.lru_cache(maxsize=64)
def _one_block(moduli: tuple[int, ...], dim: int) -> tuple:
    """``_residue_blocks`` kept for the next call where |G|^dim fits one
    block, so a small search sets up by a table lookup."""
    return tuple(_residue_blocks(moduli, dim))


def _residue_kernel(grp: CyclicProduct, circles: list, chords: list):
    """For each block of ``_residue_blocks``, the indices with at least dim
    balanced circles and their balanced columns.  A circle is balanced when
    its signed chord counts, dotted with the residues of the chord gains,
    vanish modulo each modulus.  A block's dot products are one BLAS matmul
    per factor, exact in floating point as every partial sum is an integer
    below the mantissa bound (float32 rows promote to float64 residues)."""
    dim = len(chords)
    key = (grp.moduli, dim)
    blocks = _one_block(*key) if grp.order() ** dim <= ORACLE_BLOCK else _residue_blocks(*key)
    rows = np.array([[vec.get(e, 0) for e in chords] for vec in (walk_int_vector(c.walk) for c in circles)], dtype=np.float32)
    for js, residues in blocks:
        per_factor = (np.fmod(rows @ res, m) == 0 for res, m in zip(residues, grp.moduli))
        balanced = functools.reduce(np.logical_and, per_factor)
        keep = balanced.sum(axis=0) >= dim
        if keep.any():
            yield js[keep], balanced[:, keep]


def _walk_kernel(grp: Group, circles: list, chords: list, elements: list):
    """Each nonzero assignment index with at least dim balanced circles and
    its balanced column, one assignment at a time, by multiplying the chord
    gains along each circle's walk in order; serves any finite group."""
    ident = grp.identity()
    inverses = [grp.inverse(x) for x in elements]
    position = {e: i for i, e in enumerate(chords)}
    steps = [[(position[s.edge], s.forward) for s in c.walk.steps if s.edge in position] for c in circles]
    for j, combo in enumerate(itertools.product(range(len(elements)), repeat=len(chords))):
        if not j:
            continue
        balanced = []
        for walk in steps:
            acc = ident
            for k, fwd in walk:
                acc = grp.op(acc, elements[combo[k]] if fwd else inverses[combo[k]])
            balanced.append(acc == ident)
        if sum(balanced) >= len(chords):
            yield np.array([j]), np.array(balanced)[:, None]


def _parity_matrix(circles: list, chords: list) -> np.ndarray:
    """The circles x (2^dim - 1) matrix of the parity of each circle's chords
    within each nonzero chord set y.  A binary cycle is fixed by its chords,
    so a set of circles spans the cycle space exactly when no nonzero GF(2)
    functional y on the chords vanishes on all of them: when the set's
    indicator row times this matrix is positive everywhere."""
    position = {e: 1 << i for i, e in enumerate(chords)}
    masks = np.array([sum(position.get(e, 0) for e in c.support) for c in circles])
    return _ODD[masks[:, None] & np.arange(1, 1 << len(chords))]


def _spanning_assignments(g: Graph, grp: Group, circles: list) -> Iterator[tuple[dict, list]]:
    """For each unbalanced switching-reduced assignment whose balanced
    circles span the cycle space, yield (chord gains, balanced circles in the
    order of ``circles``).

    Assignment j gives chord i the element of index d_i in
    ``grp.elements()``, where d_1 .. d_dim are the base-|G| digits of j,
    first chord most significant; they come in ascending j.  Over a single
    Z_n only the indices of ``_orbit_ranges`` are tried, and the first
    spanning assignment is the same as over every index.  A kernel yields candidates, the indices with at least dim balanced
    circles, with their balanced columns: cyclic products go through the
    residue kernel, other groups through the walk kernel.  The candidates of
    a batch are tested for spanning by one matmul with ``_parity_matrix``,
    built at the first batch.  Without circles there is none.
    """
    if not circles:
        return
    forest = spanning_forest(g)
    chords = [e for e in g.edge_list if e not in forest]
    if isinstance(grp, CyclicProduct):
        element = lambda d: tuple(map(int, np.unravel_index(d, grp.moduli)))
        found = _residue_kernel(grp, circles, chords)
    else:
        elements = grp.elements()
        element = elements.__getitem__
        found = _walk_kernel(grp, circles, chords, elements)
    odd = None
    for js, balanced in found:
        odd = _parity_matrix(circles, chords) if odd is None else odd
        spans = (balanced.T.astype(np.float32) @ odd).min(axis=1) > 0
        digits = np.transpose(np.unravel_index(js[spans], (grp.order(),) * len(chords))).tolist()
        for row, column in zip(digits, balanced.T[spans]):
            yield dict(zip(chords, map(element, row))), [circles[i] for i in np.flatnonzero(column)]


def check_oracle_edges(m: int) -> None:
    """Raise ``BudgetError`` when a host of ``m`` edges is past the oracle's
    edge bound."""
    if m > ORACLE_MAX_EDGES:
        raise BudgetError(f"oracle edge bound exceeded ({m} > {ORACLE_MAX_EDGES})")


def _oracle_circles(g: Graph, grp: Group, budget: int = ORACLE_BUDGET) -> list:
    """The circles of ``g`` that the oracle tests, or [] when every
    switching-reduced assignment is trivial; raises ``BudgetError`` past the
    edge bound or the assignment budget: |G|^dim times the number of
    circles, plus, for a group the walk kernel serves, the 2|G| elements and
    inverses it lists times the length of an element, so that the budget
    bounds that list too."""
    check_oracle_edges(len(g.edge_list))
    order = grp.order()
    if order is None:
        raise GraphError("oracle needs a finite gain group")
    dim = cycle_space_dimension(g)
    if dim == 0 or order == 1:
        return []
    circles = enumerate_circles(g)
    cost = order**dim * len(circles)
    if not isinstance(grp, CyclicProduct):
        cost += 2 * order * len(grp.identity())
    if cost > budget:
        raise BudgetError(f"oracle assignment budget exceeded ({cost} > {budget})")
    return circles


def oracle_circle_goodness(g: Graph, grp: Group, budget: int = ORACLE_BUDGET) -> tuple[bool, Optional[BadWitness]]:
    """Exhaustive goodness check for the circle test on one finite group.

    Searches the |G|^dim switching-reduced assignments, over a single Z_n
    one per unit orbit; the graph is bad iff some unbalanced assignment
    balances a spanning set of circles.  The first counterexample
    (lexicographic assignment order, greedy basis extraction in canonical
    circle order) is returned as a verified witness.
    """
    # the first spanning set in assignment order is the counterexample
    for gains, subset in _spanning_assignments(g, grp, _oracle_circles(g, grp, budget)):
        index = _edge_index(g)
        basis = gf2_extract_basis([(_mask(c.support, index), c) for c in subset], len(gains))
        witness = BadWitness(gain_graph(g, grp, gains), oriented_basis(g, [c.support for c in basis]), CIRCLE_TEST)
        if not witness.verify():
            raise GraphError("oracle witness failed verification")
        return False, witness
    return True, None

