"""Truncated formal power series over exact rationals.

A TruncatedSeries holds the ordinary coefficients c_0..c_K of a formal
power series known through degree K (the truncation order).  Nothing past
K is ever fabricated: every binary operation truncates its result to the
shorter operand, so precision loss is explicit rather than silent.

The series here carry exponential generating functions in ordinary form:
a sequence d_n with EGF sum(d_n t^n / n!) is stored as c_n = d_n / n!.
Ordinary coefficients are the natural carrier for the Hasse-Teichmueller
derivative H^(n), which maps c_m t^m to c_m C(m, n) t^(m-n), and for the
determinant entries derived from it.  `**` and `inverse` run the
package's one integer Miller loop, stated in `exponential_power_numerators`;
on a flat input its steps are sums on a difference table, stated in
`_seidel`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count, repeat
from operator import add, mul
from typing import Iterable, Optional, Sequence, Union

from .arith import StatsDict, convolve, factorials, lift, step_rows

Scalar = Union[Fraction, int]


class NotInvertibleError(ZeroDivisionError):
    """Inversion of a series whose constant term is zero."""


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
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

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


def exponential_power_numerators(
    P: Sequence[int], L: int, r: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """`exponential_power` of F_k = P_k / L (L > 0, P_0 = L so F_0 = 1),
    as (M, Q): G_n = M_n / Q.  For r != 1, Q = lcm(den G_0..G_K) whatever
    L is; at r = 1 the result is (P, L) itself.

    The package's one Miller loop.  For g = f^r with f_0 = 1, f g' = r f' g
    gives g_n = 1/n sum_{k=1..n} ((r+1) k - n) f_k g_{n-k}, O(K^2)
    operations whatever r is (J.C.P. Miller; Knuth, TAOCP vol. 2, 4.7).
    Times n!, it runs on the exponential coefficients F_k = k! f_k and
    G_n = n! g_n: G_0 = 1 and n G_n = sum_k C(n, k) ((r+1) k - n) F_k G_{n-k}.
    Unshifted (m = 0) it runs on F as given, with the integer weights
    w_k = r C(n-1, k-1) - C(n-1, k), which obey Pascal's rule themselves:
    the row w_1..w_n of step n rolls forward to w_1 - 1, w_1 + w_2, ...,
    w_{n-1} + w_n, r.  It may run on binomially shifted coefficients
    instead: write F_k = H_k / C(k+m, m); since C(n, k) / C(k+m, m) =
    C(n+m, k+m) / C(n+m, m), the step becomes

        n C(n+m, m) G_n = sum_{k=1..n} C(n+m, k+m) ((r+1) k - n) H_k G_{n-k},

    on the numerators P_k C(k+m, m) of H over the same L, built once here
    for the loop.  Each step forms its weights
    w_k = C(n+m, k+m) ((r+1) k - n) once, from the row C(n+m, 0..n+m)
    rolled by Pascal's rule (w_1 = r at step 1, as at m = 0), and
    n C(n+m, m) joins the step's divisor.  `_shift` picks the loop's m,
    0 below SHIFT_MIN_TERMS terms: hyper-Bernoulli(2, 3) takes m = 4 and
    H_k = k + 1, so the large F_k become small integers.  Either way F
    (or H) is kept as integers P_k / c over L / c, for a c that divides
    L and every P_k read so far, so L / c is the lcm of only the
    denominators the steps have needed.  When P_n is not a multiple of
    c, c drops to gcd(c, P_n..P_{n+8}), eight steps ahead so that such
    re-lifts stay rare, and the stored F are rescaled.  G_0..G_{n-1} are
    kept as M_m / Q over one running Q; the dot product S, with each
    weight multiplied in last, gives G_n = S over (L / c) Q times the
    step's divisor, reduced by one gcd; when den G_n does not divide Q,
    Q rises to their lcm and the stored M are rescaled (`_reduced`).

    A flat input, H_1 = ... = H_K at some m <= SHIFT_MAX, runs each
    step's S at that m as additions on a difference table of G, at any
    length: `_seidel` states how.  Euler is flat at m = 0, Bernoulli
    (d_k = 1/(k+1), H_k = 1) at m = 1 and hyper-Bernoulli(1, N) at m = N.
    P_1 (m+1) = P_2 C(m+2, 2) fixes the one m to test (m = 0 when K < 2
    or P_2 = 0), and the test stops at the first H_k that differs; only
    an input that is not flat reaches `_shift`.  The loop's one other
    rule drops only products by 0, so S is the same integer.
    Zero tail: the loop keeps the last j with M_j != 0, past which every
    M_j read so far is 0 (past the degree of a polynomial power, as for
    hyper-Cauchy(3, 2) at r = -4).  When more than two terms of step n
    read such zeros, it sums from that last nonzero M_j down.

    No Fraction is built: each caller makes its values from (M, Q) once,
    or compares them as they are.  Each step hands the |S|.bit_length()
    of the form that ran to `arith.step_rows`, which keeps `stats`; at
    r = 1 no loop runs and `stats` is left as given.
    """
    if P[0] != L:
        raise ValueError(f"exponential power needs F_0 = 1, got {Fraction(P[0], L)}")
    if r == 1:
        return list(P), L
    K = len(P) - 1
    # P_1 (m+1) = P_2 C(m+2, 2) fixes the only m at which H can be flat
    m = 2 * P[1] // P[2] - 2 if K > 1 and P[2] else 0
    if 0 <= m <= SHIFT_MAX:
        h = P[K] * math.comb(K + m, m)
        if all(P[k] * math.comb(k + m, m) == h for k in range(1, K)):
            return _seidel(L, h, K, r, m, stats)
    m = _shift(P)
    return _miller([p * math.comb(k + m, m) for k, p in enumerate(P)], L, r, m, stats)


#: Shortest prefix d_0..d_K (K + 1 terms) that `_shift` probes for the
#: loop's shift; a flat input takes `_seidel` at its shift at any length,
#: without the probe.  The shifted loop step costs one more product per
#: term, which pays only once the operands are large: at Bernoulli
#: (m = 1), hyper-Bernoulli(2, 3) (m = 4) and hyper-Cauchy(2, 3) (m = 3),
#: r in {1, 3}, the shifted loop took 1.22-1.33x the unshifted loop's
#: time at K = 40, 1.13-1.21x at K = 60, 0.95-1.02x at K = 140 and
#: 0.93-0.99x at K = 160 (0.72x for Bernoulli at K = 400; one core of a
#: 2-vCPU Intel Xeon VM, Python 3.11.7, best of 7).
SHIFT_MIN_TERMS = 160
#: Largest shift m tried.  hyper-Bernoulli(M, N) takes m = M + N - 1, so
#: 8 serves M + N <= 9; the D_2 table of hyper-Bernoulli(2, 3) takes 8.
#: Each m tried costs one pass over the probe, 2-6 us.
SHIFT_MAX = 8
#: `_shift` reads d_0..d_SHIFT_PROBE, enough for the denominators of every
#: m <= SHIFT_MAX to show.  The choice then costs 22-50 us, 0.8-1.5 % of
#: the loop at SHIFT_MIN_TERMS (Bernoulli, Euler, hyper-Bernoulli(2, 3),
#: hyper-Cauchy(2, 3), r = -1; same machine).
SHIFT_PROBE = 16


def _shift(P: Sequence[int]) -> int:
    """The loop's shift for F_k = P_k / L on an input that is not flat (a
    flat one takes `_seidel` at its own shift at any length): 0 on a
    prefix shorter than SHIFT_MIN_TERMS, else the m in 0..SHIFT_MAX whose
    numerators P_k C(k+m, m), k <= SHIFT_PROBE, divided by their gcd have
    the fewest bits in all (P_0 = L is among them, so the lifted
    denominator counts too); the smallest such m."""
    if len(P) < SHIFT_MIN_TERMS:
        return 0

    def bits(m: int) -> int:
        H = [p * math.comb(k + m, m) for k, p in enumerate(P[: SHIFT_PROBE + 1])]
        g = math.gcd(*H)
        return sum((h // g).bit_length() for h in H)

    return min(range(SHIFT_MAX + 1), key=bits)


def _seidel(
    L: int, h: int, K: int, r: int, m: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """`exponential_power_numerators` at shift m of a flat H:
    H_k = P_k C(k+m, m) = h over L for 1 <= k <= K.  Each step is the
    loop's own S, found by additions on a running difference table of
    G (L. Seidel, 1877; D. Dumont, Matrices d'Euler-Seidel, 1981).

    Write V(N) = sum_{j<n} C(N, j) G_j.  With H_k = h, j = n - k and
    j C(N, j) = N (C(N, j) - C(N-1, j)), the shifted step's sum is

        h sum_{j<n} C(n+m, j) (r n - (r+1) j) G_j
            = h (r n V(n+m) - (r+1) (n+m) (V(n+m) - V(n+m-1))),

    over the loop's divisor n C(n+m, m); at m = 0 its sum over w_k is
    h ((r+1) V(n-1) - V(n)) = h (r V(n) - (r+1) (V(n) - V(n-1))), with
    no divisor.  So one form runs, with k = n at m >= 1 and k = 1 at
    m = 0 in the factors r k and (r+1) (k+m) and the divisor k C(k+m, m).

    The table keeps, over the loop's Q, the anti-diagonal
    e_i = sum_{l<=i} C(i+m, l) G_{n-1-i+l}, i < n, of G's difference
    table m rows down.  By the hockey stick, e_{n-1} = V(n+m-1) and
    sum e = V(n+m), so a step's two values cost one sum.  Pascal's rule
    moves the table on with one `accumulate`: the next e_0 is G_n, and
    the next e_{i+1} is the next e_i plus e_i plus C(i+m, m-1) G_n.
    Those multiples are 0, G_n and (i+2) G_n at m = 0, 1, 2, counted
    off by additions; past m = 2 they take one product each, by a
    stored binomial, and so built the table still ran 1.07-1.60x
    `_miller`'s speed (hyper-Bernoulli(1, N), N = 3..8, n = 200-280,
    r in {-1, 2, 3}; one core of a 2-vCPU Intel Xeon VM, Python
    3.11.7).  A step's few other products are by h and small factors,
    and S, hence (M, Q) and "max_num_bits", is the loop's bit for bit:
    c = gcd(L, h) is the loop's lift after its first step, and the
    reduction is `_reduced`, as in `_miller`.  That call costs both
    kernels 3-7 % at n = 12-30 and nothing measurable from n = 60 on
    (same machine).
    """
    c = math.gcd(L, h)
    h, Lc = h // c, L // c
    b = [math.comb(i + m, m - 1) for i in range(K)] if m > 2 else ()
    M, Q, e, step = [1], 1, [1], step_rows(stats)
    for n in range(1, K + 1):
        lo, hi, k = e[-1], sum(e), n if m else 1
        S = h * (r * k * hi - (r + 1) * (k + m) * (hi - lo))
        if step:
            step(S.bit_length())
        S, Q, up = _reduced(S, Lc * Q * k * math.comb(k + m, m), Q)
        if up > 1:
            M = [x * up for x in M]
            e = [x * up for x in e]
        M.append(S)
        if m:
            e = map(add, e, map(S.__mul__, b) if b else count(2 * S, S) if m == 2 else repeat(S))
        e = list(accumulate(e, initial=S))
    return M, Q


def _miller(
    H: Sequence[int], L: int, r: int, m: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """`exponential_power_numerators` at shift m (see there), r != 1, on
    the shifted numerators H_k = P_k C(k+m, m) over L."""
    H = H[1:]
    M, Q, F, c, Lc, step = [1], 1, [], L, 1, step_rows(stats)
    last = 0  # the last j with M_j != 0
    w = [r]  # the weights of step 1, at every m
    row = [math.comb(m + 1, j) for j in range(m + 2)]  # C(n+m, j) at step n = 1
    for n, p in enumerate(H, 1):  # step n reads p = H_n
        if p % c:
            up = c
            c = math.gcd(c, *H[n - 1 : n + 8])
            up //= c
            F = [f * up for f in F]
            Lc = L // c
        F.append(p // c)
        i = n - 1 - last  # term k < i reads M_{n-1-k} = 0
        if i > 2:
            S = sum(map(mul, w[i:], map(mul, F[i:], M[last::-1])))
        else:
            S = sum(map(mul, w, map(mul, F, reversed(M))))
        if step:
            step(S.bit_length())
        if m:
            den = Lc * Q * n * row[m]
            row = [1, *map(add, row, row[1:]), 1]
            w = list(map(mul, row[m + 1 :], count(r - n, r + 1)))  # step n + 1's
        else:
            den = Lc * Q
            w = [w[0] - 1, *map(add, w, w[1:]), r]
        S, Q, up = _reduced(S, den, Q)
        if up > 1:
            M = [x * up for x in M]
        if S:
            last = n
        M.append(S)
    return M, Q


def _reduced(S: int, den: int, Q: int) -> tuple[int, int, int]:
    """A step's G_n = S / den over the running Q, by one gcd: its
    numerator, the new Q and the factor up by which Q rose.  Q rises to
    lcm(Q, den G_n) when den G_n does not divide it (else up = 1), and
    the caller rescales its stored numerators by up."""
    g = math.gcd(S, den)
    den //= g
    up = den // math.gcd(Q, den) if Q % den else 1
    Q *= up
    return S // g * (Q // den), Q, up
