"""Exact linear algebra over the rationals.

Determinants and kernels are computed by fraction-free (Bareiss)
elimination on denominator-cleared integer matrices; rank decisions are
therefore exact, which is what the degenerate Verma-module weights
require.  Denominators are cleared once, by `poly.integer_form`, and
`ff_echelon` is the one elimination over Z: the determinant and the
kernel both read its echelon form.  It rescales lazily: a row
with a zero entry in the pivot column is not touched, and the skipped
rescalings are applied, exactly, only when the row is next updated,
becomes the pivot row, or the elimination ends.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .poly import integer_form

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def ff_echelon(
    m: list[list[int]], stop_at_gap: bool = False
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form of an integer matrix.

    Returns (echelon, pivot_columns, sign).  All divisions performed are
    exact; entries stay integers of controlled size.  With stop_at_gap
    the elimination ends at the first column without a pivot, which
    already decides that a square matrix is singular.

    A row whose entry in the pivot column is 0 would only be rescaled by
    lead / prev, so it is left as it is; the rescalings it skipped
    multiply out to prev / seen, with seen the lead of the step that last
    updated it.  Its next update divides by seen instead of prev, and it is
    brought up to date, x * prev // seen, when it becomes the pivot row
    or the elimination ends.
    """
    m = [row[:] for row in m]
    if not m:
        return m, [], 1
    n_rows, n_cols = len(m), len(m[0])
    seen = [1] * n_rows  # row i holds its up-to-date entries times seen[i] / prev
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if piv is None:
            if stop_at_gap:
                break
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            seen[r], seen[piv] = seen[piv], seen[r]
            sign = -sign
        if seen[r] != prev:
            m[r] = [x * prev // seen[r] for x in m[r]]
        top = m[r][col + 1:]
        lead = m[r][col]
        for i in range(r + 1, n_rows):
            row = m[i]
            head = row[col]
            if head:
                s = seen[i]
                row[col + 1:] = [(lead * a - head * b) // s for a, b in zip(row[col + 1:], top)]
                row[col] = 0
                seen[i] = lead
        prev = lead
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if seen[i] != prev:
            m[i] = [x * prev // seen[i] for x in m[i]]
    return m, pivots, sign


def _integer_rows(matrix: Matrix) -> list[list[int]]:
    """The matrix itself when every entry is an int, else its rows with
    the denominators cleared (the same kernel and rank)."""
    if all(type(x) is int for row in matrix for x in row):
        return matrix
    return integer_form(*matrix)[1]


def det(matrix: Matrix) -> Fraction:
    """Exact determinant of a square matrix of Fractions or ints.

    The matrix is cleared of denominators once, d * matrix, and
    eliminated fraction-free; the last pivot is det(d * matrix) up to the
    sign of the row swaps, and the elimination stops at the first column
    without a pivot (det 0).
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    d, ints = integer_form(*matrix)
    ech, pivots, sign = ff_echelon(ints, stop_at_gap=True)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * ech[n - 1][n - 1], d**n)


def nullspace(matrix: Matrix) -> list[Vector]:
    """Basis of {v : M v = 0} for a nonempty matrix of Fractions or ints,
    echelon-canonical; the width is that of the rows, so a matrix with
    no rows raises ValueError.

    Each basis vector carries a 1 in "its" free column and 0 in the other
    free columns, so the result is deterministic.  It is back-substituted
    in integers over one running denominator s: a pivot a meeting the sum
    t scales the vector by |a| / gcd(t, a), and each entry becomes a
    Fraction once, at the end.
    """
    if not matrix:
        raise ValueError("nullspace needs at least one row")
    n_cols = len(matrix[0])
    if any(len(row) != n_cols for row in matrix):
        raise ValueError("nullspace needs rows of equal length")
    ech, pivots, _ = ff_echelon(_integer_rows(matrix))
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivot_set):
        v = [0] * n_cols  # numerators over s
        v[f] = s = 1
        for i in range(len(pivots) - 1, -1, -1):
            p, row = pivots[i], ech[i]
            t = sum(map(mul, row[p + 1:], v[p + 1:]))
            if t:
                a = row[p]
                g = gcd(t, a)
                k = abs(a) // g
                if k != 1:
                    v = [x * k for x in v]
                    s *= k
                v[p] = -t // g if a > 0 else t // g
        basis.append([Fraction(x, s) for x in v])
    return basis
