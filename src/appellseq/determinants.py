"""Exact determinant kernels for the unit-superdiagonal Hessenberg matrices.

The matrix behind the related-number determinant formula is lower
Hessenberg with 1 on the superdiagonal and entry D(i-j+1) at (i, j) for
j <= i (0-indexed):

    | D(1)  1                 |
    | D(2)  D(1)  1           |
    | ...               1     |
    | D(n)  ...   D(2)  D(1)  |

Two kernels evaluate it:

* `hessenberg_leading_minors` runs the O(n^2) leading-principal-minor
  recurrence det_n = sum_{l=1..n} (-1)^(l-1) D(l) det_{n-l}, which is the
  cofactor expansion along the first row.  One pass yields every minor,
  so a whole table costs O(n^2) rational operations.
* `bareiss_det` clears the denominators of each row by that row's own
  lcm and runs fraction-free (Bareiss) elimination over big integers, an
  algebraically independent check on the minor recurrence.  Intermediate
  divisions are exact, which keeps entry growth to single-minor size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import MutableMapping, Optional, Sequence

StatsDict = MutableMapping[str, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def related_matrix(D: Sequence[Fraction], n: int) -> list[list[Fraction]]:
    """The n x n unit-superdiagonal Hessenberg matrix over D(1)..D(n)."""
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    if len(D) <= n:
        raise ValueError(f"need D(0)..D({n}), got only {len(D)} entries")
    rows = []
    for i in range(n):
        row = [D[i - j + 1] if j <= i else (_ONE if j == i + 1 else _ZERO) for j in range(n)]
        rows.append(row)
    return rows


def hessenberg_leading_minors(
    D: Sequence[Fraction],
    n_max: int,
    stats: Optional[StatsDict] = None,
) -> list[Fraction]:
    """Leading principal minors det_0=1, det_1, ..., det_{n_max}.

    det_n is the determinant of the n x n matrix from `related_matrix`.
    When `stats` is given, the largest numerator bit length seen in any
    intermediate value is recorded under "max_num_bits".
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if len(D) <= n_max:
        raise ValueError(f"need D(0)..D({n_max}), got only {len(D)} entries")
    dets = [_ONE]
    max_bits = 0
    track = stats is not None
    for n in range(1, n_max + 1):
        s = _ZERO
        for l in range(1, n + 1):
            Dl = D[l]
            if not Dl:
                continue
            term = Dl * dets[n - l]
            s = s + term if l & 1 else s - term
            if track:
                b = s.numerator.bit_length()
                if b > max_bits:
                    max_bits = b
        dets.append(s)
    if track:
        stats["max_num_bits"] = max(stats.get("max_num_bits", 0), max_bits)
    return dets


def bareiss_det(
    matrix: Sequence[Sequence[Fraction]],
    stats: Optional[StatsDict] = None,
) -> Fraction:
    """Exact determinant of a rational matrix by fraction-free elimination.

    Row i is scaled by L_i, the lcm of its own denominators, the integer
    determinant is computed by Bareiss elimination (with row pivoting; a
    zero pivot column means the determinant is zero), and the result is
    det / prod(L_i).  A lower Hessenberg row holds only the first few D
    values, so its L_i is far smaller than the lcm over the whole matrix.
    When `stats` is given, the largest bit length of any intermediate
    integer entry is recorded under "max_num_bits".
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    lifted = []
    scale = 1
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
        row_scale = math.lcm(*(x.denominator for x in row))
        lifted.append([x.numerator * (row_scale // x.denominator) for x in row])
        scale *= row_scale
    det = _bareiss_int(lifted, stats)
    return Fraction(det, scale)


def _bareiss_int(A: list[list[int]], stats: Optional[StatsDict]) -> int:
    n = len(A)
    sign = 1
    prev = 1
    max_bits = 0
    track = stats is not None
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        Ak = A[k]
        pivot = Ak[k]
        for i in range(k + 1, n):
            Ai = A[i]
            aik = Ai[k]
            for j in range(k + 1, n):
                # Sylvester's identity makes this division exact.
                Ai[j] = (Ai[j] * pivot - aik * Ak[j]) // prev
                if track:
                    b = Ai[j].bit_length()
                    if b > max_bits:
                        max_bits = b
            Ai[k] = 0
        prev = pivot
    if track:
        stats["max_num_bits"] = max(stats.get("max_num_bits", 0), max_bits)
    return sign * A[n - 1][n - 1]
