"""The library's extras: what the Python API offers beyond the request
path, and what no command-line request reaches.

`TruncatedSeries` holds the ordinary coefficients c_0..c_K of a formal
power series over exact rationals, known through degree K (the
truncation order).  Nothing past K is ever fabricated: every binary
operation truncates its result to the shorter operand, so precision loss
is explicit rather than silent.  The series carry exponential generating
functions in ordinary form: a sequence d_n with EGF sum(d_n t^n / n!) is
stored as c_n = d_n / n!, the natural carrier for the Hasse-Teichmueller
derivative H^(n), which maps c_m t^m to c_m C(m, n) t^(m-n).  `**` and
`inverse` run the package's one Miller loop,
`series.exponential_power_numerators`, through `exponential_power`.

The records and tables as Fractions: `compute_D` (D_r in a
`PowerCoefficientTable`), the Appell polynomials `appell_polynomial` and
`polynomial_eval`, and a_0..a_{n_max} in a `RelatedNumberTable` by four
routes: `related_numbers_negative_power` (the production table),
`related_numbers_recurrence` (the paper's convolution recurrence over
D_r), and the two witnesses that `witness.run_routes` feeds,
`related_numbers_composition` and `related_numbers_determinant`.  Each
runs the kernels of `engine`, `series` or `witness`; `witness` imports
nothing from here.  The command line imports this module for no request;
`appellseq` loads it when one of its names is first read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Optional, Sequence, Union

from . import witness
from .arith import DEFAULT_COMPOSITION_CAP, Record, StatsDict, convolve, factorials, lift
from .engine import (
    NEGATIVE_POWER,
    CoefficientSequence,
    RelatedNumberTable,
    appell_numerators,
    check_order,
    check_table,
    horner_numerator,
    negative_power_numerators,
    power_numerators,
    reduced_power_table,
)
from .series import exponential_power_numerators

Scalar = Union[Fraction, int]

RECURRENCE = "recurrence"


class NotInvertibleError(ZeroDivisionError):
    """Inversion of a series whose constant term is zero."""


class TruncatedSeries(Record):
    """Immutable prefix c_0..c_K of a formal power series over Fraction:
    a `Record` over `coeffs`, but not hashable."""

    __slots__ = ("coeffs",)
    __hash__ = None

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(map(Fraction, coeffs))
        if not cs:
            raise ValueError("a truncated series needs at least its constant term")
        Record.__init__(self, cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients past `order` (a no-op if already shorter)."""
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def __repr__(self) -> str:
        return f"TruncatedSeries([{', '.join(map(str, self.coeffs))}])"

    def __neg__(self) -> "TruncatedSeries":
        return self * -1

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + -other if isinstance(other, TruncatedSeries) else NotImplemented

    def __mul__(self, other: Union["TruncatedSeries", Scalar]) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            (la, a), (lb, b) = lift(self.coeffs), lift(other.coeffs)
            L = la * lb
            return TruncatedSeries(Fraction(x, L) for x in convolve(a, b, min(len(a), len(b))))
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(x * other for x in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, r: int) -> "TruncatedSeries":
        """f^r for any integer r, the order K kept.  With c_v the first
        nonzero coefficient, f^r = c_v^r t^(v r) (f / (c_v t^v))^r, whose
        ordinary coefficients are G_n / n! for G the `exponential_power`
        of F_k = k! c_(v+k) / c_v; a zero c_0 needs r >= 0
        (NotInvertibleError otherwise)."""
        if not isinstance(r, int):
            raise ValueError(f"series power needs an integer exponent, got {r!r}")
        if r == 0:
            return TruncatedSeries([1] + [0] * self.order)
        if r == 1:
            return self
        c = self.coeffs
        v = next((i for i, x in enumerate(c) if x), len(c))
        if r < 0 and v:
            raise NotInvertibleError("series with zero constant term has no negative power")
        K = len(c) - v * r  # the terms of (f / (c_v t^v))^r inside the order
        if K <= 0:
            return TruncatedSeries([0] * len(c))
        fact = factorials(K - 1)
        M, Q = exponential_power([x * f / c[v] for x, f in zip(c[v:], fact)], r)
        scale = c[v] ** r / Q
        return TruncatedSeries([0] * (v * r) + [scale * m / f for m, f in zip(M, fact)])

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the truncation order: the power -1."""
        return self**-1

    def ht(self, n: int) -> "TruncatedSeries":
        """Hasse-Teichmueller derivative of order n.

        Maps c_m t^m to c_m C(m, n) t^(m-n); equals (1/n!) d^n/dt^n in
        characteristic zero.  The truncation order drops by n (floored at
        zero when the whole known prefix is consumed).
        """
        if n < 0:
            raise ValueError(f"derivative order must be >= 0, got {n}")
        if n == 0:
            return self
        return TruncatedSeries(
            [c * math.comb(m, n) for m, c in enumerate(self.coeffs[n:], n)] or [0]
        )


def exponential_power(
    F: Sequence[Scalar], r: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """G = F^r for rationals F_0 = 1, F_1, ..., F_K as (M, Q), G_n = M_n / Q
    with Q = lcm(den G_0..G_K): `exponential_power_numerators` on F lifted
    to integer numerators over L = lcm(den F)."""
    L, P = lift(F)
    return exponential_power_numerators(P, L, r, stats)


class PowerCoefficientTable(Record):
    """D_r(e) = [t^e] f(t)^r for e = 0..n_max (ordinary coefficients)."""

    __slots__ = ("r", "D")

    def __init__(self, r: int, D: Sequence[Fraction]):
        check_order(r)
        if not D or D[0] != 1:
            raise ValueError("D_r(0) must be 1 for a normalized sequence")
        Record.__init__(self, r, tuple(D))

    @property
    def n_max(self) -> int:
        return len(self.D) - 1


class AppellPolynomial(Record):
    """A_n^(r)(z) as the coefficient vector of z^0..z^n (ascending)."""

    __slots__ = ("n", "r", "coeffs_in_z")

    def __init__(self, n: int, r: int, coeffs_in_z: Sequence[Fraction]):
        if len(coeffs_in_z) != n + 1:
            raise ValueError("coefficient vector must have length n + 1")
        Record.__init__(self, n, r, tuple(coeffs_in_z))


def compute_D(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> PowerCoefficientTable:
    """Ordinary coefficients of f(t)^r: `reduced_power_table` as Fractions."""
    D = tuple(map(Fraction, *reduced_power_table(*power_numerators(seq, r, n_max))))
    return PowerCoefficientTable(r=r, D=D)


def related_numbers_negative_power(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """Production path: a_n^(r) = n! [t^n] f^(-r), Miller's loop on
    d_0..d_{n_max} themselves, each value reduced once."""
    M, Q = negative_power_numerators(seq, r, n_max)
    return RelatedNumberTable(r, [Fraction(m, Q) for m in M], NEGATIVE_POWER)


def related_numbers_recurrence(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """The paper's O(n^2) recurrence a_n = -n! sum_{m<n} D_r(n-m) a_m / m!,
    a_0 = 1: Miller's loop at the power -1 on the exponential
    coefficients n! D_r(n) = M_n / Q of f^r, each value reduced once."""
    M, Q = exponential_power_numerators(*power_numerators(seq, r, n_max), -1)
    return RelatedNumberTable(r, [Fraction(m, Q) for m in M], RECURRENCE)


def related_numbers_composition(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    cap: Optional[int] = DEFAULT_COMPOSITION_CAP,
) -> RelatedNumberTable:
    """a_n^(r) by the sum over compositions that
    `witness.composition_numerators` states, read off d alone: no f^r, no
    Miller loop, no determinant.  n_max past `cap` (None: no cap, as in
    `cross_verify`), or past the work bound of `witness.composition_reach`,
    raises CombinatorialBlowupError before the triangle is built; a cap
    below 0 raises ValueError."""
    witness.check_cap(cap)
    n_max = check_table(seq.P, n_max)
    if cap is not None and n_max > cap:
        raise witness.CombinatorialBlowupError(
            f"composition route cannot serve n_max={n_max}: enumeration cap is {cap}"
        )
    return _route_table(seq, r, n_max, witness.COMPOSITION)


def related_numbers_determinant(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """a_n^(r) = (-1)^n n! det M_n over the Hessenberg matrix M_n of D_r,
    every M_n from one Bareiss pass, `witness.determinant_numerators`."""
    return _route_table(seq, r, n_max, witness.DETERMINANT_BAREISS)


def _route_table(
    seq: CoefficientSequence, r: int, n_max: Optional[int], route: str
) -> RelatedNumberTable:
    """A witness's table alone from `witness.run_routes`, its composition
    leg whole, each value reduced once."""
    a = witness.run_routes(seq, r, n_max, (route,)).table(route)
    return RelatedNumberTable(r=r, a=a, algorithm=route)


def appell_polynomial(table: RelatedNumberTable, n: int) -> AppellPolynomial:
    """A_n^(r)(z) = sum_m C(n, m) a_m z^(n-m) from a computed table."""
    if n < 0 or n > table.n_max:
        raise ValueError(f"degree {n} outside the table range 0..{table.n_max}")
    Q, A = lift(table.a[: n + 1])
    coeffs = tuple(Fraction(c, Q) for c in appell_numerators(A, n))
    return AppellPolynomial(n=n, r=table.r, coeffs_in_z=coeffs)


def polynomial_eval(p: AppellPolynomial, z) -> Fraction:
    """Exact value of the polynomial at a rational point: integer Horner
    over the common denominator of its coefficients, reduced once."""
    z = Fraction(z)
    Q, N = lift(p.coeffs_in_z)
    return Fraction(horner_numerator(N, z.numerator, z.denominator), Q * z.denominator**p.n)
