"""Truncated formal power series over exact rationals.

A TruncatedSeries holds the ordinary coefficients c_0..c_K of a formal
power series known through degree K (the truncation order).  Nothing past
K is ever fabricated: every binary operation truncates its result to the
shorter operand, so precision loss is explicit rather than silent.

The series here carry exponential generating functions in ordinary form:
a sequence d_n with EGF sum(d_n t^n / n!) is stored as c_n = d_n / n!.
Ordinary coefficients are the natural carrier for the Hasse-Teichmueller
derivative H^(n), which maps c_m t^m to c_m C(m, n) t^(m-n), and for the
determinant entries derived from it.  `inverse` is the package's one copy
of the convolution recurrence behind the related numbers, and `**` takes
any integer power by Miller's recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .arith import StatsDict, binomial, sum_products

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
            a, b = self.coeffs, other.coeffs
            n_out = min(len(a), len(b))
            return TruncatedSeries(
                sum_products((1, a[j], b[n - j]) for j in range(n + 1))
                for n in range(n_out)
            )
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return TruncatedSeries(tuple(x * c for x in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, r: int) -> "TruncatedSeries":
        """r-th power for any integer r, by J.C.P. Miller's recurrence.

        For g = f^r with f_0 != 0, differentiating g = f^r gives
        f g' = r f' g, and comparing the coefficients of t^(n-1):

            g_0 = f_0^r,
            g_n = 1/(n f_0) * sum_{k=1..n} ((r+1)k - n) f_k g_{n-k},

        O(K^2) operations for the whole prefix whatever r is (Knuth,
        TAOCP vol. 2, section 4.7).  A series with f_0 = 0 is t^v h with
        h_0 != 0, and f^r = t^(vr) h^r, for r >= 0 only (NotInvertibleError
        otherwise).  The result keeps the order K.
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
        h = c[v : v + len(c) - shift]
        h0 = h[0]
        g = [h0**r]
        for n in range(1, len(h)):
            s = sum_products(((r + 1) * k - n, h[k], g[n - k]) for k in range(1, n + 1))
            g.append(s / (n * h0))
        return TruncatedSeries([_ZERO] * shift + g)

    def inverse(self, stats: Optional[StatsDict] = None) -> "TruncatedSeries":
        """Multiplicative inverse up to the truncation order.

        Uses the triangular recurrence b_0 = 1/a_0,
        b_n = -(1/a_0) * sum_{m<n} a_{n-m} b_m, the package's one copy of
        it; `stats` gets the largest lifted numerator's "max_num_bits".
        """
        a = self.coeffs
        if a[0] == 0:
            raise NotInvertibleError("series with zero constant term has no inverse")
        inv0 = _ONE / a[0]
        b = [inv0]
        for n in range(1, len(a)):
            s = sum_products(((1, a[n - m], b[m]) for m in range(n)), stats)
            b.append(-inv0 * s)
        return TruncatedSeries(b)

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
        out = [cs[m] * binomial(m, n) for m in range(n, len(cs))]
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
