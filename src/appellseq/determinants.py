"""Exact determinant kernels for the unit-superdiagonal Hessenberg matrices.

The matrix behind the related-number determinant formula is lower
Hessenberg with 1 on the superdiagonal and entry D(i-j+1) at (i, j) for
j <= i (0-indexed):

    | D(1)  1                 |
    | D(2)  D(1)  1           |
    | ...               1     |
    | D(n)  ...   D(2)  D(1)  |

Two kernels evaluate it; neither builds the matrix:

* `bareiss_leading_minors`, the kernel of the determinant route, clears
  the denominators of each row by that row's own lcm and runs
  fraction-free (Bareiss) elimination over big integers on the band of
  the matrix, algebraically independent of the recurrences.  Each pivot
  is a leading minor, so one pass yields the whole table, zero minors
  included.  A pivot row of a Hessenberg matrix has only two nonzero
  entries, so each step updates one integer per row below it: O(n^2)
  products and no division.  `bareiss_det` is its last minor.
* `hessenberg_leading_minors` takes every leading minor from the
  cofactor expansion along the first row, det_n = sum_{l=1..n}
  (-1)^(l-1) D(l) det_{n-l}.  That is (-1)^n times the series-inversion
  recurrence, so it is one O(n^2) run of `series.exponential_power` at
  the power -1: the same sum as the related-number recurrence, not a
  check on it.  No route runs it; the tests use it as the reference for
  the minor recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Optional, Sequence

from .arith import StatsDict
from .series import exponential_power

_ONE = Fraction(1)


def hessenberg_leading_minors(
    D: Sequence[Fraction],
    n_max: int,
    stats: Optional[StatsDict] = None,
) -> list[Fraction]:
    """Leading principal minors det_0=1, det_1, ..., det_{n_max}.

    det_n is the determinant of the n x n matrix over D(1)..D(n), and
    (-1)^n n! det_n is the exponential coefficient of the inverse of
    1 + sum_{k>=1} D(k) t^k (D(0) is not read): Miller's loop at the power
    -1 on 1, 1! D(1), 2! D(2), ...  `stats` gets "max_num_bits" from
    `exponential_power`: the bit length of its largest dot product |S|.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if len(D) <= n_max:
        raise ValueError(f"need D(0)..D({n_max}), got only {len(D)} entries")
    fact = list(accumulate(range(1, n_max + 1), mul, initial=1))
    G = exponential_power([_ONE, *map(mul, fact[1:], D[1 : n_max + 1])], -1, stats)
    return [(-g if n & 1 else g) / f for n, (g, f) in enumerate(zip(G, fact))]


def bareiss_leading_minors(
    D: Sequence[Fraction],
    n_max: int,
    stats: Optional[StatsDict] = None,
) -> list[Fraction]:
    """Leading principal minors det_0=1, det_1, ..., det_{n_max}, by
    fraction-free elimination on the band of the Hessenberg matrix.

    Row i is lifted by L_i = lcm(den D(1..i+1)), the lcm of its own
    entries.  Before step k, c_i (i >= k) is the minor of the lifted
    matrix on rows 0..k-1, i and columns 0..k: the entry Bareiss's
    elimination leaves in column k.  The pivot p_k = c_k is the lifted
    (k+1)-th leading minor, so det_{k+1} = p_k / (L_0...L_k).  In column
    k+1, rows 0..k-1 are zero, row k holds L_k and row i holds
    L_i D(i-k); expanding the next minor along that column gives

        c_i <- L_i D(i-k) p_k - L_k c_i    for i > k.

    No step divides or swaps rows, so a zero minor (Bernoulli at odd
    n >= 3) passes through like any other.  D(0) is not read.  `stats`
    gets "max_num_bits": the bit length of the largest |c_i|.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if len(D) <= n_max:
        raise ValueError(f"need D(0)..D({n_max}), got only {len(D)} entries")
    num = [x.numerator for x in D[: n_max + 1]]
    den = [x.denominator for x in D[: n_max + 1]]
    lifts = []  # lifts[i] = L_i
    lift = 1
    for e in range(1, n_max + 1):
        lift = math.lcm(lift, den[e])
        lifts.append(lift)
    c = [L // den[i + 1] * num[i + 1] for i, L in enumerate(lifts)]
    dets = [_ONE]
    scale = 1  # L_0 ... L_k
    max_bits = 0
    track = stats is not None
    for k, Lk in enumerate(lifts):
        if track:  # c[k:] is what step k-1 left, or the lifted column 0
            max_bits = max(max_bits, *(x.bit_length() for x in c[k:]))
        pivot = c[k]
        scale *= Lk
        dets.append(Fraction(pivot, scale))
        c[k + 1 :] = [
            lifts[i] // den[i - k] * num[i - k] * pivot - Lk * c[i]
            for i in range(k + 1, n_max)
        ]
    if track:
        stats["max_num_bits"] = max(stats.get("max_num_bits", 0), max_bits)
    return dets


def bareiss_det(
    D: Sequence[Fraction],
    n: int,
    stats: Optional[StatsDict] = None,
) -> Fraction:
    """det of the n x n Hessenberg matrix over D(1)..D(n): the last
    leading minor from `bareiss_leading_minors` (1 at n = 0)."""
    return bareiss_leading_minors(D, n, stats)[-1]
