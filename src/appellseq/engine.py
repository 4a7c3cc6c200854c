"""Related numbers and polynomials of higher-order Appell sequences: the
request path.

A normalized coefficient sequence d_0=1, d_1, d_2, ... defines the series
f(t) = sum(d_n t^n / n!).  A `CoefficientSequence` keeps it as integer
numerators over one denominator, d_n = P_n / L; its Fractions `.d` are
built only on demand.  The order-r related numbers a_n^(r) are the
exponential coefficients of 1/f(t)^r, and the order-r Appell polynomials

    A_n^(r)(z) = sum_{m=0..n} C(n, m) a_m^(r) z^(n-m)

are the exponential coefficients of e^(zt)/f(t)^r.  With the classical
choices of f this machinery produces Bernoulli, Euler and (hypergeometric)
Cauchy numbers and polynomials.

The production route, `negative_power_numerators`, is a_n = n! [t^n]
f^(-r): one pass of J.C.P. Miller's recurrence on the (P, L) of
d_0..d_{n_max} as built, giving a_n = M_n / Q.  D_r(e) = [t^e] f(t)^r
comes from the same loop at the power r (`power_numerators`), as
n! D_r(n) = M_n / Q.  The loop lifts its own input, so nothing here
reduces a table for it or for anyone else: `seq.prefix` is a slice,
and each Q is the least common denominator of its table.  Both hand back
integer numerators over one denominator; the CLI prints each value from
them, and only `library`'s tables are reduced to Fractions, on demand.
The checks that `--check` runs beside this route, the paper's two
explicit expressions among them, live in `witness`, which reads this
module only as `engine.<name>`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .arith import Record, StatsDict, format_ratio, lift
from .series import exponential_power_numerators

NEGATIVE_POWER = "negative-power"


class NormalizationError(ValueError):
    """A coefficient sequence whose leading entry is not 1."""


class CoefficientSequence(Record):
    """Exponential coefficients d_0..d_{n_max} of f(t), d_0 = 1, kept as
    integer numerators over one denominator: d_n = P[n] / L."""

    __slots__ = ("P", "L")

    def __init__(self, P: Sequence[int], L: int = 1):
        if not P:
            raise NormalizationError("empty coefficient sequence: d_0 must be 1")
        if {type(L), *map(type, P)} != {int}:
            raise ValueError("numerators P_k and denominator L must be int")
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        if P[0] != L:
            raise NormalizationError(f"d_0 must be 1 (got {format_ratio(P[0], L)})")
        Record.__init__(self, tuple(P), L)

    @classmethod
    def from_values(cls, values: Iterable) -> "CoefficientSequence":
        L, P = lift(list(map(Fraction, values)))
        return cls(P, L)

    @property
    def d(self) -> tuple[Fraction, ...]:
        """d_0..d_{n_max} as Fractions, built on each call."""
        return tuple(Fraction(p, self.L) for p in self.P)

    def prefix(self, n_max: Optional[int] = None) -> tuple[Sequence[int], int]:
        """(P_0..P_{n_max}, L) as built, not reduced: each kernel lifts the
        input it reads."""
        return self.P[: check_table(self.P, n_max) + 1], self.L

    @property
    def n_max(self) -> int:
        return len(self.P) - 1


def power_numerators(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> tuple[list[int], int]:
    """(M, Q) with n! D_r(n) = M_n / Q for n = 0..n_max, Q their least
    common denominator: Miller's loop on d_0..d_{n_max} at the power r,
    before any Fraction is built."""
    check_order(r)
    P, L = seq.prefix(n_max)
    return exponential_power_numerators(P, L, r)


def check_order(r: int) -> None:
    """Refuse an order r below 1."""
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")


def check_table(D: Sequence, n_max: Optional[int]) -> int:
    """n_max, or the last index of the table D[0]... when None; an n_max
    below 0 or past the end of D is refused."""
    if n_max is None:
        return len(D) - 1
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if len(D) <= n_max:
        raise ValueError(f"need entries 0..{n_max}, got only {len(D)}")
    return n_max


# perfbench/spans.py looks these names up and wraps them; nothing calls them
related_numbers_inversion = related_numbers_composition = None
recurrence_values = hessenberg_leading_minors = bareiss_det = compositions = None


def __getattr__(name: str):
    """`engine.TruncatedSeries`, which perfbench/spans.py wraps, from
    `library` on first use; tracer glue that ROADMAP item 1 deletes."""
    if name == "TruncatedSeries":
        from .library import TruncatedSeries

        return TruncatedSeries
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def negative_power_numerators(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    stats: Optional[StatsDict] = None,
) -> tuple[list[int], int]:
    """(M, Q) with a_n^(r) = M_n / Q for n = 0..n_max: the state Miller's
    loop for f^(-r) ends in, Q = lcm(den a_0..a_{n_max}), before any
    Fraction is built.  `stats` gets "max_num_bits", the bit length of
    the loop's largest dot product |S|, and "steps" (`StatsDict`).  An
    order r below 1 raises ValueError before the loop runs."""
    check_order(r)
    P, L = seq.prefix(n_max)
    return exponential_power_numerators(P, L, -r, stats)


def appell_numerators(A: Sequence[int], n: int) -> list[int]:
    """C(n, j) A_{n-j} for j = 0..n: with a_m = A_m / Q, the numerators over
    the same Q of the coefficients of z^0..z^n in A_n^(r)(z)."""
    return [math.comb(n, j) * A[n - j] for j in range(n + 1)]


def horner_numerator(N: Sequence[int], p: int, q: int) -> int:
    """sum_j N_j p^j q^(k-j) for k = len(N) - 1: q^k times the value of
    sum_j N_j z^j at z = p/q, by Horner's rule over integers."""
    acc, q_pow = N[-1], 1
    for c in reversed(N[:-1]):
        q_pow *= q
        acc = acc * p + c * q_pow
    return acc
