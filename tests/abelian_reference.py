"""The abelian balance analysis computed over every edge.

Reference for ``gainbalance.balancetests.implies_balance_abelian``, which
works in the chord coordinates of a spanning forest.  Here the dim x |E|
matrix of basis traversal vectors goes through a Smith normal form that scans
the whole remaining block for every pivot and for every divisibility check,
and each query's dense edge vector is multiplied by the |E| x |E| right
transform.  The order of a query in Z^E modulo the basis lattice is read off
those coordinates.

It also draws the random bases of the odd-order survey: every diagonal entry
of a basis's chord-matrix Smith form is odd, and so is every query order.
"""

import functools
import math
import operator
import random

from gainbalance.balancetests import abelian_witness, implies_balance_abelian, smith_normal_form
from gainbalance.cyclespace import OrientedBasis, enumerate_circles, fundamental_circles
from gainbalance.errors import GraphError
from gainbalance.graphcore import spanning_forest, walk_int_vector
from cyclespace_reference import reference_cyclic_orientations


def smith_normal_form_full_scan(matrix):
    """(diagonal, left, right) with D = left @ A @ right: minimal absolute
    value pivot over the whole remaining block, rows and columns cleared by
    floor division, and a divisibility scan after every pivot."""
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    left = [[int(i == j) for j in range(m)] for i in range(m)]
    right = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row i -= q * row j
        for k in range(n):
            a[i][k] -= q * a[j][k]
        for k in range(m):
            left[i][k] -= q * left[j][k]

    def col_op(i, j, q):  # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in right:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a + right:
            row[i], row[j] = row[j], row[i]

    for t in range(min(m, n)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
        if not entries:
            break
        # the first entry of least absolute value in row-major order
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            offender = next((i for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % a[t][t]), None)
            if offender is None:
                break
            row_op(t, offender, -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
    diagonal = tuple(a[i][i] for i in range(min(m, n)))
    return diagonal, tuple(map(tuple, left)), tuple(map(tuple, right))


class FullEdgeReport:
    """Rank, invariant factors and query coordinates over every edge."""

    def __init__(self, g, ob, queries):
        self.edge_order = tuple(g.edge_list)
        rows = [[walk_int_vector(w).get(e, 0) for e in self.edge_order] for w in ob.walks]
        self.diagonal, _, right = smith_normal_form_full_scan(rows or [[0] * len(self.edge_order)])
        self.rank = sum(1 for d in self.diagonal if d)
        self.queries = queries
        self.coordinates = []
        for z in queries:
            vec = walk_int_vector(z.walk)
            v = [vec.get(e, 0) for e in self.edge_order]
            self.coordinates.append([sum(v[i] * right[i][j] for i in range(len(v))) for j in range(len(v))])

    def order(self, k):
        """Order of query ``k`` modulo the lattice; None when infinite."""
        w = self.coordinates[k]
        if any(w[self.rank:]):
            return None
        return math.lcm(*(self.diagonal[j] // math.gcd(self.diagonal[j], w[j]) for j in range(self.rank)))

    def separated_over(self, k, d):
        """True iff some homomorphism of the quotient into Z_d is nonzero on
        query ``k``, that is, iff the query is not d times a quotient element."""
        w = self.coordinates[k]
        return any(w[j] % math.gcd(self.diagonal[j] if j < self.rank else 0, d) for j in range(len(w)))

    def to_json(self):
        return {
            "edge_order": list(self.edge_order),
            "lattice_rank": self.rank,
            "invariant_factors": [d for d in self.diagonal if d > 1],
            "queries": [{"support": sorted(z.support), "order": self.order(k)} for k, z in enumerate(self.queries)],
        }


def random_walk_basis(g, rng):
    """A random basis of the cycle space of ``g``: each member is a random
    GF(2) combination of the fundamental circles, kept when independent of
    the members before it, and is paired with a random one of its
    ``reference_cyclic_orientations``, so that every walk projects onto its
    member."""
    fundamental = [c.support for c in fundamental_circles(g, spanning_forest(g))]
    dim = len(fundamental)
    pairs, rows = [], []
    while len(pairs) < dim:
        coefficients = reduced = rng.getrandbits(dim)
        for row in rows:
            reduced = min(reduced, reduced ^ row)
        if not reduced:
            continue
        rows.append(reduced)
        rows.sort(reverse=True)
        member = functools.reduce(operator.xor, (s for i, s in enumerate(fundamental) if coefficients >> i & 1))
        pairs.append((member, rng.choice(reference_cyclic_orientations(member, g, budget=4))))
    return OrientedBasis(tuple(pairs), g)


def odd_order_survey(graphs, seed, per_graph=4):
    """Run the abelian analysis on ``per_graph`` random bases of each graph
    with a circle, every circle a query.  Returns the number of bases, the
    number of even diagonal entries of the chord matrices' Smith forms, the
    query orders and invariant factors seen, and the number of queries with
    an unbalanced witness over Z2, Z4 or Z8."""
    rng = random.Random(seed)
    bases = even = witnesses = 0
    orders, factors = set(), set()
    for g in graphs:
        forest = spanning_forest(g)
        chords = [e for e in g.edge_list if e not in forest]
        if not chords:
            continue
        circles = enumerate_circles(g)
        for _ in range(per_graph):
            ob = random_walk_basis(g, rng)
            rows = [[walk_int_vector(w).get(e, 0) for e in chords] for w in ob.walks]
            even += sum(1 for d in smith_normal_form(rows).diagonal if d % 2 == 0)
            rep = implies_balance_abelian(g, ob, circles)
            bases += 1
            orders.update(q.order for q in rep.queries)
            factors.update(rep.invariant_factors)
            for z in circles:
                for d in (2, 4, 8):
                    try:
                        abelian_witness(rep, z, d)
                    except GraphError:
                        continue
                    witnesses += 1
    return bases, even, orders, factors, witnesses
