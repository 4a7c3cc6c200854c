"""Truncated formal power series over exact rationals.

A TruncatedSeries holds the ordinary coefficients c_0..c_K of a formal
power series known through degree K (the truncation order).  Nothing past
K is ever fabricated: every binary operation truncates its result to the
shorter operand, so precision loss is explicit rather than silent.

The series here carry exponential generating functions in ordinary form:
a sequence d_n with EGF sum(d_n t^n / n!) is stored as c_n = d_n / n!.
Ordinary coefficients are the natural carrier for the Hasse-Teichmueller
derivative H^(n), which maps c_m t^m to c_m C(m, n) t^(m-n), and for the
determinant entries derived from it.  `**` (any integer power) and
`inverse` (the power -1) scale their coefficients around the package's
one integer Miller loop, `exponential_power_numerators`, which works on
exponential coefficients given as integer numerators over one
denominator and returns its result the same way.  `exponential_power`
lifts a list of rationals to that form and runs the loop; the engine
runs it directly on a family's d_n, and the D-recurrence witness feeds
the loop's own output for f^r back into it with no Fraction in between.
Each caller builds a Fraction only for a value it hands out.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import Iterable, Optional, Sequence, Union

from .arith import StatsDict, lift

_ZERO = Fraction(0)
_ONE = Fraction(1)

Scalar = Union[Fraction, int]


class NotInvertibleError(ZeroDivisionError):
    """Inversion of a series whose constant term is zero."""


class InsufficientPrecisionError(ValueError):
    """A coefficient past the truncation order was requested."""


class TruncatedSeries:
    """Immutable prefix c_0..c_K of a formal power series over Fraction."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least its constant term")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def constant(cls, value: Scalar, order: int = 0) -> "TruncatedSeries":
        """The constant series `value` known through `order`."""
        return cls((Fraction(value),) + (_ZERO,) * order)

    @classmethod
    def one(cls, order: int = 0) -> "TruncatedSeries":
        return cls.constant(_ONE, order)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries([{', '.join(str(c) for c in self.coeffs)}])"

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: Union["TruncatedSeries", Scalar]) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            (la, a), (lb, b) = lift(self.coeffs), lift(other.coeffs)
            return TruncatedSeries(
                Fraction(sum(map(mul, a[: n + 1], reversed(b[: n + 1]))), la * lb)
                for n in range(min(len(a), len(b)))
            )
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return TruncatedSeries(tuple(x * c for x in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, r: int) -> "TruncatedSeries":
        """r-th power for any integer r, by J.C.P. Miller's recurrence.

        For g = f^r with f_0 = 1, f g' = r f' g gives
        g_n = 1/n * sum_{k=1..n} ((r+1)k - n) f_k g_{n-k}.  Multiplied by
        n!, it runs on the exponential coefficients F_k = k! f_k and
        G_n = n! g_n with integer weights:

            G_0 = 1,
            G_n = sum_{k=1..n} ((r+1) C(n-1, k-1) - C(n, k)) F_k G_{n-k},

        O(K^2) operations whatever r is (Knuth, TAOCP vol. 2, 4.7), in
        `exponential_power`.  f_0 != 1 scales the result by f_0^r; f_0 = 0 means
        f = t^v h with h_0 != 0, so f^r = t^(vr) h^r, for r >= 0 only
        (NotInvertibleError otherwise).  The result keeps the order K.
        """
        if not isinstance(r, int):
            raise ValueError(f"series power needs an integer exponent, got {r!r}")
        if r == 0:
            return TruncatedSeries.one(self.order)
        if r == 1:
            return self
        c = self.coeffs
        v = next((i for i, x in enumerate(c) if x), len(c))
        if r < 0 and v:
            raise NotInvertibleError("series with zero constant term has no negative power")
        shift = v * r
        if shift >= len(c):
            return TruncatedSeries.constant(_ZERO, self.order)
        return TruncatedSeries([_ZERO] * shift + _power(c[v : v + len(c) - shift], r))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the truncation order.

        b_0 = 1/a_0 and b_n = -(1/a_0) * sum_{m<n} a_{n-m} b_m, run as the
        power -1, where Miller's weight is -C(n, k).
        """
        a = self.coeffs
        if a[0] == 0:
            raise NotInvertibleError("series with zero constant term has no inverse")
        return TruncatedSeries(_power(a, -1))

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
        cs = self.coeffs
        out = [cs[m] * math.comb(m, n) for m in range(n, len(cs))]
        if not out:
            out = [_ZERO]
        return TruncatedSeries(out)

    def ht_at_zero(self, n: int) -> Fraction:
        """Constant term of the order-n Hasse-Teichmueller derivative.

        Since C(n, n) = 1 this is just c_n; asking past the truncation
        order raises instead of inventing a value.
        """
        if n < 0:
            raise ValueError(f"derivative order must be >= 0, got {n}")
        if n > self.order:
            raise InsufficientPrecisionError(
                f"coefficient {n} requested from a series truncated at order {self.order}"
            )
        return self.coeffs[n]


def exponential_power(
    F: Sequence[Fraction], r: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """Exponential coefficients G_0..G_K of G = F^r, for F_0 = 1, as the
    integer numerators M_0..M_K over one denominator Q: G_n = M_n / Q,
    with Q = lcm(den G_0..G_K).

    Lifts F to integer numerators over L = lcm(den F) and runs the one
    loop, `exponential_power_numerators`, on them (see `__pow__`).
    """
    L, P = lift(F)
    return exponential_power_numerators(P, L, r, stats)


def exponential_power_numerators(
    P: Sequence[int], L: int, r: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """`exponential_power` of F_k = P_k / L (L > 0, P_0 = L so F_0 = 1),
    as (M, Q): G_n = M_n / Q.  For r != 1, Q = lcm(den G_0..G_K) whatever
    L is; at r = 1 the result is (P, L) itself.

    The package's one Miller loop (see `__pow__`).  The weights
    w_k = r C(n-1, k-1) - C(n-1, k) obey Pascal's rule themselves: the
    row w_1..w_n of step n rolls forward to w_1 - 1, w_1 + w_2, ...,
    w_{n-1} + w_n, r.  G_0..G_{n-1} are kept as M_m / Q over one running
    Q; the dot product S = sum_k w_k P_k M_{n-k} gives G_n = S / (L Q),
    reduced by one gcd; when den G_n does not divide Q, Q rises to their
    lcm and the stored M are rescaled.  No Fraction is built: each caller
    makes its values from (M, Q) once, or compares them as they are.
    `stats` gets the largest |S|.bit_length() as "max_num_bits".
    """
    if P[0] != L:
        raise ValueError(f"exponential power needs F_0 = 1, got {Fraction(P[0], L)}")
    if r == 1:
        return list(P), L
    P = P[1:]
    M, Q, w, peak = [1], 1, [r], 0
    for _ in P:
        S = sum(map(mul, map(mul, w, P), reversed(M)))
        peak = max(peak, S.bit_length())
        den = L * Q
        g = math.gcd(S, den)
        den //= g
        if Q % den:
            up = den // math.gcd(Q, den)
            Q *= up
            M = [m * up for m in M]
        M.append(S // g * (Q // den))
        w = [w[0] - 1, *map(add, w, w[1:]), r]
    if stats is not None:
        stats["max_num_bits"] = max(stats.get("max_num_bits", 0), peak)
    return M, Q


def _power(c: Sequence[Fraction], r: int) -> list[Fraction]:
    """Ordinary coefficients c_0^r G_n / n! of c^r, c_0 != 0, where G is
    `exponential_power` of F_k = k! c_k / c_0."""
    fact = list(accumulate(range(1, len(c)), mul, initial=1))
    M, Q = exponential_power([x * f / c[0] for x, f in zip(c, fact)], r)
    scale = c[0] ** r
    return [Fraction(scale.numerator * m, scale.denominator * Q * f) for m, f in zip(M, fact)]
