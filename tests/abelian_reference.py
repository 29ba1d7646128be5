"""The abelian balance analysis computed over every edge.

Reference for ``gainbalance.balancetests.implies_balance_abelian``, which
works in the chord coordinates of a spanning forest.  Here the dim x |E|
matrix of basis traversal vectors goes through a Smith normal form that scans
the whole remaining block for every pivot and for every divisibility check,
and each query's dense edge vector is multiplied by the |E| x |E| right
transform.  The order of a query in Z^E modulo the basis lattice is read off
those coordinates.
"""

import math

from gainbalance.graphcore import walk_int_vector


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
