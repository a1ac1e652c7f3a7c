"""Exact integer linear algebra: sparse rank, small determinants, GF(2) rank.

Everything here works over Python ints, so there is no overflow and no
floating point anywhere.  The rank routine reduces rows stored as
{column: value} dicts one at a time against an echelon table keyed by each
stored row's largest column; the elimination is fraction-free and divides
every reduced row by the gcd of its entries, so boundary matrices, which
are almost entirely +-1, keep tiny entries.
"""

from math import gcd


def rank_int(rows):
    """Rank over the rationals of a sparse integer matrix.

    `rows` is an iterable of {column_key: nonzero int} dicts with mutually
    comparable keys.  The input dicts are not modified.  Each row is reduced
    against a table {pivot column: stored row} until its largest column is
    not a pivot, and then joins the table; the rank is the table's size.
    """
    table = {}
    for row in rows:
        while row:
            col = max(row)
            pivot = table.get(col)
            if pivot is None:
                table[col] = row
                break
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            merged = dict(row) if a == 1 else {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                newv = merged.get(k, 0) - b * v
                if newv:
                    merged[k] = newv
                else:
                    del merged[k]
            g = 0
            for v in merged.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                merged = {k: v // g for k, v in merged.items()}
            row = merged
    return len(table)


def det_bareiss(matrix):
    """Determinant of a square integer matrix by Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def gf2_basis(rows):
    """GF(2) basis for the row span, as a {pivot_bit: row} dict.

    Rows are ints used as bit vectors.  Each stored row owns a distinct
    pivot (its lowest set bit at insertion time), which is all that
    membership reduction needs.
    """
    pivots = {}
    for row in rows:
        while row:
            p = row & -row
            owner = pivots.get(p)
            if owner is None:
                pivots[p] = row
                break
            row ^= owner
    return pivots


def gf2_rank(rows):
    """Rank over GF(2); rows are ints used as bit vectors."""
    return len(gf2_basis(rows))

