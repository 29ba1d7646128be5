"""The brute-force circle-test oracle as one plain loop over assignments.

Reference for the oracle kernel of ``gainbalance.oracle``: assignments come
in ascending index (base-|G| digits, first chord most significant), balanced
circles are computed for all of them at once by residues (cyclic products) or
one assignment at a time by walk products (other groups), and every candidate
assignment gets its own greedy basis extraction.
"""

import itertools

import numpy as np

from gainbalance.classify import CIRCLE_TEST, BadWitness
from gainbalance.cyclespace import cycle_space_dimension, enumerate_circles, gf2_extract_basis, oriented_basis
from gainbalance.gaingraph import gain_graph
from gainbalance.graphcore import spanning_forest, walk_int_vector
from gainbalance.groups import CyclicProduct


def _residue_candidates(grp, circles, chords, elements):
    dim, order = len(chords), len(elements)
    rows = np.array([[walk_int_vector(c.walk).get(e, 0) for e in chords] for c in circles], dtype=np.int64)
    idx = np.arange(order**dim)
    digits = np.zeros((dim, len(idx)), dtype=np.int64)
    for i in range(dim):
        digits[i] = (idx // order ** (dim - 1 - i)) % order
    balanced = np.ones((len(circles), len(idx)), dtype=bool)
    for f, modulus in enumerate(grp.moduli):
        res = np.array([el[f] for el in elements], dtype=np.int64)
        balanced &= rows @ res[digits] % modulus == 0
    for j in np.nonzero(balanced.sum(axis=0) >= dim)[0]:
        if j:
            yield digits[:, j].tolist(), np.nonzero(balanced[:, j])[0].tolist()


def _walk_candidates(grp, circles, chords, elements):
    ident = grp.identity()
    position = {e: i for i, e in enumerate(chords)}
    steps = [[(position[e], forward) for e, forward in c.walk.steps if e in position] for c in circles]
    for combo in itertools.product(range(len(elements)), repeat=len(chords)):
        if not any(combo):
            continue
        balanced = []
        for i, walk in enumerate(steps):
            acc = ident
            for k, fwd in walk:
                x = elements[combo[k]]
                acc = grp.op(acc, x if fwd else grp.inverse(x))
            if acc == ident:
                balanced.append(i)
        if len(balanced) >= len(chords):
            yield combo, balanced


def reference_spanning_assignments(g, grp):
    """(chord gains, balanced circles, greedy basis) for every unbalanced
    switching-reduced assignment whose balanced circles span, in ascending
    assignment index, with one basis extraction per assignment."""
    if cycle_space_dimension(g) == 0 or grp.order() == 1:
        return
    circles = enumerate_circles(g)
    forest = spanning_forest(g)
    chords = [e for e in g.edge_list if e not in forest]
    elements = grp.elements()
    position = {e: i for i, e in enumerate(g.edge_list)}
    masks = [sum(1 << position[e] for e in c.support) for c in circles]
    candidates = _residue_candidates if isinstance(grp, CyclicProduct) else _walk_candidates
    for digits, balanced in candidates(grp, circles, chords, elements):
        items = [(masks[i], circles[i]) for i in balanced]
        basis = gf2_extract_basis(items, len(chords))
        if basis is not None:
            yield {chords[i]: elements[d] for i, d in enumerate(digits)}, [c for _, c in items], basis


def reference_witness_json(g, grp):
    """The JSON of the oracle's first counterexample, or None when g is good."""
    for gains, _, basis in reference_spanning_assignments(g, grp):
        witness = BadWitness(gain_graph(g, grp, gains), oriented_basis(g, [c.support for c in basis]), CIRCLE_TEST)
        assert witness.verify()
        return witness.to_json()
    return None
