"""Exact rank computation for integer/rational matrices."""

from __future__ import annotations


def matrix_rank(mat) -> int:
    """Rank over the rationals, by fraction-free style Gaussian elimination."""
    from fractions import Fraction

    rows = [[Fraction(x) for x in row] for row in mat if any(row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                coef = f / pv
                row = rows[r]
                prow = rows[rank]
                for c in range(col, ncols):
                    row[c] -= coef * prow[c]
        rank += 1
        col += 1
    return rank


def mat_mul(a, b):
    """Exact matrix product for dense list-of-list matrices."""
    n, k, m2 = len(a), len(b), len(b[0])
    out = [[0] * m2 for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(m2):
                    if bt[j]:
                        oi[j] += v * bt[j]
    return out


def mat_is_zero(a) -> bool:
    return all(not x for row in a for x in row)
