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

The circles are read as the integer walks of ``cyclespace._circle_walks``,
tuples of signed edge numbers in canonical circle order, with the chords as
edge numbers: a circle's chord row, its walk-kernel steps and its chord
parity mask come straight from its walk.  Only the balanced circles of an
assignment the search yields are built as ``Circle``s, and the witness basis
keeps the canonical walks of its circles.

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
from .cyclespace import OrientedBasis, _chord_masks, _circle_walks, _walk_circles, gf2_extract_basis
from .errors import BudgetError, GraphError
from .gaingraph import gain_graph
from .graphcore import Graph, spanning_forest
from .groups import CyclicProduct, Group

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
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    leading = sorted({*small, *(n // d for d in small)})[:-1]  # n's divisors; a digit is less than n
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


def _residue_kernel(grp: CyclicProduct, walks: list, chords: list):
    """For each block of ``_residue_blocks``, the indices with at least dim
    balanced circles and their balanced columns.  A circle is balanced when
    its signed chord steps, dotted with the residues of the chord gains,
    vanish modulo each modulus.  A block's dot products are one BLAS matmul
    per factor, exact in floating point as every partial sum is an integer
    below the mantissa bound (float32 rows promote to float64 residues)."""
    dim = len(chords)
    key = (grp.moduli, dim)
    blocks = _one_block(*key) if grp.order() ** dim <= ORACLE_BLOCK else _residue_blocks(*key)
    # a circle crosses each edge at most once, so a row holds its signed steps
    column = {k: i for i, k in enumerate(chords)}
    rows = np.zeros((len(walks), dim), dtype=np.float32)
    for r, walk in enumerate(walks):
        for k in walk:
            if abs(k) in column:
                rows[r, column[abs(k)]] = 1 if k > 0 else -1
    for js, residues in blocks:
        per_factor = (np.fmod(rows @ res, m) == 0 for res, m in zip(residues, grp.moduli))
        balanced = functools.reduce(np.logical_and, per_factor)
        keep = balanced.sum(axis=0) >= dim
        if keep.any():
            yield js[keep], balanced[:, keep]


def _walk_kernel(grp: Group, walks: list, chords: list, elements: list):
    """Each nonzero assignment index with at least dim balanced circles and
    its balanced column, one assignment at a time, by multiplying the chord
    gains along each circle's walk in order; serves any finite group."""
    ident = grp.identity()
    inverses = [grp.inverse(x) for x in elements]
    column = {k: i for i, k in enumerate(chords)}
    steps = [[(column[abs(k)], k > 0) for k in walk if abs(k) in column] for walk in walks]
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


def _parity_matrix(walks: list, chords: list) -> np.ndarray:
    """The circles x (2^dim - 1) matrix of the parity of each circle's chords
    within each nonzero chord set y.  A binary cycle is fixed by its chords,
    so a set of circles spans the cycle space exactly when no nonzero GF(2)
    functional y on the chords vanishes on all of them: when the set's
    indicator row times this matrix is positive everywhere."""
    bit = {k: 1 << i for i, k in enumerate(chords)}
    masks = np.array([sum(bit.get(abs(k), 0) for k in walk) for walk in walks])
    return _ODD[masks[:, None] & np.arange(1, 1 << len(chords))]


def _spanning_assignments(g: Graph, grp: Group, walks: list, chords: list) -> Iterator[tuple[dict, list]]:
    """For each unbalanced switching-reduced assignment whose balanced
    circles span the cycle space, yield (chord gains, balanced circles in the
    order of ``walks``); ``walks`` and ``chords`` are as ``_oracle_circles``
    gives them.

    Assignment j gives chord i the element of index d_i in
    ``grp.elements()``, where d_1 .. d_dim are the base-|G| digits of j,
    first chord most significant; they come in ascending j.  Over a single
    Z_n only the indices of ``_orbit_ranges`` are tried, and the first
    spanning assignment is the same as over every index.  A kernel yields
    candidates, the indices with at least dim balanced circles, with their
    balanced columns: cyclic products go through the residue kernel, other
    groups through the walk kernel; both take the chords as edge numbers.
    The candidates of a batch are tested for spanning by one matmul with
    ``_parity_matrix``, built at the first batch.  Only the balanced circles
    of a yielded assignment are built as ``Circle``s.  Without circles there
    is none.
    """
    if not walks:
        return
    if isinstance(grp, CyclicProduct):
        element = lambda d: tuple(map(int, np.unravel_index(d, grp.moduli)))
        found = _residue_kernel(grp, walks, chords)
    else:
        elements = grp.elements()
        element = elements.__getitem__
        found = _walk_kernel(grp, walks, chords, elements)
    names = [g.edge_list[k - 1] for k in chords]
    odd = None
    for js, balanced in found:
        odd = _parity_matrix(walks, chords) if odd is None else odd
        spans = (balanced.T.astype(np.float32) @ odd).min(axis=1) > 0
        digits = np.transpose(np.unravel_index(js[spans], (grp.order(),) * len(chords))).tolist()
        for row, column in zip(digits, balanced.T[spans]):
            yield dict(zip(names, map(element, row))), _walk_circles(g, [walks[i] for i in np.flatnonzero(column)])


def check_oracle_edges(m: int) -> None:
    """Raise ``BudgetError`` when a host of ``m`` edges is past the oracle's
    edge bound."""
    if m > ORACLE_MAX_EDGES:
        raise BudgetError(f"oracle edge bound exceeded ({m} > {ORACLE_MAX_EDGES})")


def _oracle_circles(g: Graph, grp: Group, budget: int = ORACLE_BUDGET) -> tuple[list, list]:
    """The circles of ``g`` that the oracle tests, as the canonical walks of
    ``cyclespace._circle_walks`` (tuples of signed edge numbers) in canonical
    circle order, or [] when every switching-reduced assignment is trivial;
    and the chords, the edge numbers off ``spanning_forest(g)``, ascending.
    Raises ``BudgetError`` past the edge bound or the assignment budget:
    |G|^dim times the number of circles, plus, for a group the walk kernel
    serves, the 2|G| elements and inverses it lists times the length of an
    element, so that the budget bounds that list too."""
    check_oracle_edges(len(g.edge_list))
    order = grp.order()
    if order is None:
        raise GraphError("oracle needs a finite gain group")
    forest = spanning_forest(g)
    chords = [k for k, e in enumerate(g.edge_list, 1) if e not in forest]
    if not chords or order == 1:
        return [], chords
    walks = _circle_walks(g, len(g.edge_list))
    cost = order ** len(chords) * len(walks)
    if not isinstance(grp, CyclicProduct):
        cost += 2 * order * len(grp.identity())
    if cost > budget:
        raise BudgetError(f"oracle assignment budget exceeded ({cost} > {budget})")
    return walks, chords


def oracle_circle_goodness(g: Graph, grp: Group, budget: int = ORACLE_BUDGET) -> tuple[bool, Optional[BadWitness]]:
    """Exhaustive goodness check for the circle test on one finite group.

    Searches the |G|^dim switching-reduced assignments, over a single Z_n
    one per unit orbit; the graph is bad iff some unbalanced assignment
    balances a spanning set of circles.  The first counterexample
    (lexicographic assignment order, greedy basis extraction in canonical
    circle order, in chord coordinates: projecting onto the chords is
    injective on the cycle space, so it picks what edge coordinates would)
    is returned as a verified witness.
    """
    # the first spanning set in assignment order is the counterexample
    for gains, subset in _spanning_assignments(g, grp, *_oracle_circles(g, grp, budget)):
        _, masks = _chord_masks(g, (c.support for c in subset))
        basis = gf2_extract_basis(list(zip(masks, subset)), len(gains))
        ob = OrientedBasis(tuple((c.support, c.walk) for c in basis), g)
        witness = BadWitness(gain_graph(g, grp, gains), ob, CIRCLE_TEST)
        if not witness.verify():
            raise GraphError("oracle witness failed verification")
        return False, witness
    return True, None

