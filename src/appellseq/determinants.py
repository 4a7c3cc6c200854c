"""Exact determinant kernels for the unit-superdiagonal Hessenberg matrices.

The matrix behind the related-number determinant formula is lower
Hessenberg with 1 on the superdiagonal and entry D(i-j+1) at (i, j) for
j <= i (0-indexed):

    | D(1)  1                 |
    | D(2)  D(1)  1           |
    | ...               1     |
    | D(n)  ...   D(2)  D(1)  |

Two kernels evaluate it:

* `hessenberg_leading_minors` takes every leading minor from the
  cofactor expansion along the first row, det_n = sum_{l=1..n}
  (-1)^(l-1) D(l) det_{n-l}.  That is (-1)^n times the series-inversion
  recurrence, so it is one O(n^2) call of `TruncatedSeries.inverse`: the
  same sum as the related-number recurrence, not a check on it.
* `bareiss_leading_minors` clears the denominators of each row by that
  row's own lcm and runs fraction-free (Bareiss) elimination over big
  integers, an algebraically independent check on the minor recurrence.
  Each pivot is a leading minor, so one O(n^3) elimination of the
  largest matrix yields the whole table, zero minors included.
  Intermediate divisions are exact, which keeps entry growth to
  single-minor size.  `bareiss_det` is its last minor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .arith import StatsDict
from .series import TruncatedSeries

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

    det_n is the determinant of the n x n matrix from `related_matrix`,
    and (-1)^n det_n is [t^n] of the inverse of 1 + sum_{k>=1} D(k) t^k
    (D(0) is not read).  `stats` gets "max_num_bits" from
    `TruncatedSeries.inverse`: the bit length of the largest integer dot
    product |S| of its Miller loop.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if len(D) <= n_max:
        raise ValueError(f"need D(0)..D({n_max}), got only {len(D)} entries")
    b = TruncatedSeries((_ONE, *D[1 : n_max + 1])).inverse(stats).coeffs
    return [-x if n & 1 else x for n, x in enumerate(b)]


def bareiss_leading_minors(
    matrix: Sequence[Sequence[Fraction]],
    stats: Optional[StatsDict] = None,
) -> list[Fraction]:
    """Leading principal minors det_0=1, det_1, ..., det_N of a square
    rational matrix, from one fraction-free elimination.

    Row i is scaled by L_i, the lcm of its own denominators, and Bareiss
    elimination runs over the big integers.  The pivot at step k is the
    (k+1)-th leading minor of the lifted matrix, so det_{k+1} is that
    pivot (with the sign of the row swaps) over L_0...L_k.  A lower
    Hessenberg row holds only the first few D values, so its L_i is far
    smaller than the lcm over the whole matrix.

    A zero pivot at step k means det_{k+1} = 0.  The pass then swaps in
    the first row i > k that is nonzero in column k: by Sylvester's
    identity det_{k+1}..det_i are all 0, and every larger leading block
    holds the same rows as before the swap, so its minor is the swapped
    matrix's minor with the sign flipped.  If no row qualifies, every
    later minor is 0.  When `stats` is given, the largest bit length of
    any intermediate integer entry is recorded under "max_num_bits".
    """
    n = len(matrix)
    A = []
    scales = [1]  # scales[m] = L_0 ... L_{m-1}
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
        row_scale = math.lcm(*(x.denominator for x in row))
        A.append([x.numerator * (row_scale // x.denominator) for x in row])
        scales.append(scales[-1] * row_scale)
    dets = [_ONE]
    sign = 1
    prev = 1
    max_bits = 0
    track = stats is not None
    for k in range(n):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                break
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
            dets += [_ZERO] * (swap + 1 - len(dets))
        Ak = A[k]
        pivot = Ak[k]
        if len(dets) == k + 1:
            dets.append(Fraction(sign * pivot, scales[k + 1]))
        tail = Ak[k + 1 :]
        for i in range(k + 1, n):
            Ai = A[i]
            aik = Ai[k]
            # Sylvester's identity makes each division exact.
            Ai[k + 1 :] = [(x * pivot - aik * y) // prev for x, y in zip(Ai[k + 1 :], tail)]
            if track:
                max_bits = max(max_bits, *(x.bit_length() for x in Ai[k + 1 :]))
        prev = pivot
    dets += [_ZERO] * (n + 1 - len(dets))
    if track:
        stats["max_num_bits"] = max(stats.get("max_num_bits", 0), max_bits)
    return dets


def bareiss_det(
    matrix: Sequence[Sequence[Fraction]],
    stats: Optional[StatsDict] = None,
) -> Fraction:
    """Exact determinant of a rational matrix: the last leading minor
    from `bareiss_leading_minors`."""
    if not matrix:
        raise ValueError("empty matrix")
    return bareiss_leading_minors(matrix, stats)[-1]
