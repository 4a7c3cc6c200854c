"""The package's one Miller loop: the exponential coefficients of f^r,
for any integer r, as integer numerators over one denominator.

`exponential_power_numerators` states the loop; on a flat input its
steps are sums on a difference table, stated in `_seidel`, and on a long
hyper-Cauchy-like input they run on the ordinary coefficients themselves,
by Horner's rule (`_ordinary`).  The unshifted loop keeps G over one
running denominator Q; the other forms keep each G_j over the Q of the
step that found it, fold each rise of Q into their sums, and lift G onto
the last Q once, at the end (`_lifted`).  `engine` runs it on a family's
(P, L); `library.TruncatedSeries` and `library.exponential_power` run it
on rationals.
"""

from __future__ import annotations

import math
from itertools import accumulate, count, repeat
from operator import add, mul
from typing import Optional, Sequence

from .arith import StatsDict, format_ratio, step_rows


def exponential_power_numerators(
    P: Sequence[int], L: int, r: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """G = F^r for F_k = P_k / L (L > 0, P_0 = L so F_0 = 1), as (M, Q):
    G_n = M_n / Q, with Q = lcm(den G_0..G_K) for every r whatever
    L is: at r = 1 the result is (P, L) divided by their gcd.

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
    (or H) is lifted once, before the first step: it is kept as the
    integers H_k / c over L / c for c = gcd(L, H_1..H_K), so L / c is
    the least common denominator of H_1 / L..H_K / L.  The step's sum S,
    with each weight multiplied in last, gives G_n = S over (L / c) Q
    times the step's divisor, for Q = Q_{n-1} = lcm(den G_0..G_{n-1}),
    reduced by one gcd; when den G_n does not divide Q, Q rises to their
    lcm, Q_n = U_n Q_{n-1} (`_reduced`; U_n = 1 when it does not rise).
    The unshifted loop keeps G_0..G_{n-1} as M_j / Q over the one running
    Q and rescales the stored M by U_n, so its S is one dot product.  The
    shifted loop keeps each M_j over Q_j, the Q of the step that reduced
    G_j, and never rescales it: it sums the terms t_j in ascending j by
    Horner's rule, S <- S U_j + t_j, which lifts each term onto Q as it
    goes, so S is the same integer.  When the loop ends, one pass
    (`_lifted`) multiplies each M_j by U_{j+1} ... U_K onto the last Q.

    The third form runs on the ordinary coefficients c_k = F_k / k! =
    P_k / (L k!) and keeps G exponential: since C(n, k) k! = n! / (n-k)!,

        G_n = sum_{j=0..n-1} (n-1)! / j! (r n - (r+1) j) c_{n-j} G_j,

    which `_ordinary` sums by Horner's rule on the falling factorial,
    S <- S j U_j + (r n - (r+1) j) C_{n-j} M_j for j = 0..n-1, with each
    M_j over its own Q_j as in the shifted loop: the one multiplier j U_j
    both steps the falling factorial and lifts the sum onto Q, so the
    large running sum is only ever multiplied by the small j U_j, never
    by a weight.  The c_k are kept in lowest terms as C_k over Lc, the lcm of
    the denominators read so far, rescaled when Lc rises (`_reduced`), and
    G_n = S / (Lc Q).  It pays where F_k carries a k!: hyper-Cauchy's
    d_k carry (M)^(k), so at hyper-Cauchy(2, 3), n = 220 the shifted
    numerators H_k reach 1423 bits and the C_k 312.  On a prefix of at
    least SHIFT_MIN_TERMS terms that is not flat, `_shift` weighs this
    lift against the shifts m = 0..SHIFT_MAX by the same bit rule: every
    hyper-Cauchy kind takes it, and hyper-Bernoulli, whose ordinary lift
    is the far larger one, keeps its shift.

    A flat input, H_1 = ... = H_K at some m <= SHIFT_MAX, runs each
    step's S at that m as additions on a difference table of G, at any
    length: `_seidel` states how.  Euler is flat at m = 0, Bernoulli
    (d_k = 1/(k+1), H_k = 1) at m = 1 and hyper-Bernoulli(1, N) at m = N.
    P_1 (m+1) = P_2 C(m+2, 2) fixes the one m to test (m = 0 when K < 2
    or P_2 = 0), and the test stops at the first H_k that differs; only
    an input that is not flat reaches `_shift`.
    Zero tail: only the ordinary form stops at G's zero tail.
    `_ordinary` keeps the last j with M_j != 0, past which every M_j
    read so far is 0 (past the degree of a polynomial power, as for
    hyper-Cauchy(3, 2) at r = -4, which runs on `_ordinary` from
    SHIFT_MIN_TERMS terms on), stops Horner's rule there and multiplies
    once by the skipped multipliers j U_j past it, kept as a running
    product: Q does not rise at a step whose G_j = 0, so U_j = 1 there and
    the product is (n-1)! / last!.  It drops only products by 0, so S is
    the same integer.  The shifted and unshifted forms sum every term.

    No Fraction is built: each caller makes its values from (M, Q) once,
    or compares them as they are.  Each step hands the |S|.bit_length()
    of the form that ran to `arith.step_rows`, which keeps `stats`; at
    r = 1 no loop runs and `stats` is left as given.
    """
    if P[0] != L:
        raise ValueError(f"exponential power needs F_0 = 1, got {format_ratio(P[0], L)}")
    if r == 1:
        g = math.gcd(*P)
        return [p // g for p in P], L // g
    K = len(P) - 1
    # P_1 (m+1) = P_2 C(m+2, 2) fixes the only m at which H can be flat
    m = 2 * P[1] // P[2] - 2 if K > 1 and P[2] else 0
    if 0 <= m <= SHIFT_MAX:
        h = P[K] * math.comb(K + m, m)
        if all(P[k] * math.comb(k + m, m) == h for k in range(1, K)):
            return _seidel(L, h, K, r, m, stats)
    m = _shift(P)
    if m < 0:
        return _ordinary(P, L, r, stats)
    return _miller([p * math.comb(k + m, m) for k, p in enumerate(P)], L, r, m, stats)


#: Shortest prefix d_0..d_K (K + 1 terms) that `_shift` probes for the
#: loop's shift; a flat input takes `_seidel` at its shift at any length,
#: without the probe.  The shifted loop step costs one more product per
#: term, which pays only once the operands are large.
SHIFT_MIN_TERMS = 160
#: Largest shift m tried.  hyper-Bernoulli(M, N) takes m = M + N - 1, so
#: 8 serves M + N <= 9; the D_2 table of hyper-Bernoulli(2, 3) takes 8.
#: Each m tried costs one pass over the probe.
SHIFT_MAX = 8
#: `_shift` reads d_0..d_SHIFT_PROBE, enough for the denominators of every
#: m <= SHIFT_MAX to show, and for the ordinary lift's k! to outgrow a
#: shift's.
SHIFT_PROBE = 32


def _shift(P: Sequence[int]) -> int:
    """The loop's shift for F_k = P_k / L on an input that is not flat (a
    flat one takes `_seidel` at its own shift at any length), or -1 for
    the ordinary lift that `_ordinary` runs on: 0 on a prefix shorter
    than SHIFT_MIN_TERMS, else the m in -1..SHIFT_MAX whose numerators
    over k <= K = SHIFT_PROBE, P_k C(k+m, m) or, at -1, P_k K! / k!,
    divided by their gcd have the fewest bits in all (P_0 = L is among
    them, so the lifted denominator counts too); the smallest such m."""
    if len(P) < SHIFT_MIN_TERMS:
        return 0
    g = math.gcd(*P[: SHIFT_PROBE + 1])  # common to every candidate
    P = [p // g for p in P[: SHIFT_PROBE + 1]]

    def bits(m):
        H = [
            p * (math.comb(k + m, m) if m >= 0 else math.perm(SHIFT_PROBE, SHIFT_PROBE - k))
            for k, p in enumerate(P)
        ]
        g = math.gcd(*H)
        return sum((h // g).bit_length() for h in H)

    return min(range(-1, SHIFT_MAX + 1), key=bits)


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

    The loop never reads G: each M_j stays over its own Q_j, lifted onto
    the last Q once, at the end (`_lifted`).  The table keeps, over the
    loop's running Q, rescaled when Q rises, the anti-diagonal
    e_i = sum_{l<=i} C(i+m, l) G_{n-1-i+l}, i < n, of G's difference
    table m rows down.  By the hockey stick, e_{n-1} = V(n+m-1) and
    sum e = V(n+m), so a step's two values cost one sum.  Pascal's rule
    moves the table on with one `accumulate`: the next e_0 is G_n, and
    the next e_{i+1} is the next e_i plus e_i plus C(i+m, m-1) G_n.
    Those multiples are 0, G_n and (i+2) G_n at m = 0, 1, 2, counted
    off by additions; past m = 2 they take one product each, by a
    stored binomial, and so built the table still outruns `_miller`.
    A step's few other products are by h and small factors,
    and S, hence (M, Q) and "max_num_bits", is the loop's bit for bit:
    c = gcd(L, h) is the loop's one lift, and the reduction is
    `_reduced`, as in `_miller`.
    """
    c = math.gcd(L, h)
    h, Lc = h // c, L // c
    b = [math.comb(i + m, m - 1) for i in range(K)] if m > 2 else ()
    M, U, Q, e, step = [1], [1], 1, [1], step_rows(stats)
    for n in range(1, K + 1):
        lo, hi, k = e[-1], sum(e), n if m else 1
        S = h * (r * k * hi - (r + 1) * (k + m) * (hi - lo))
        if step:
            step(S.bit_length())
        S, Q, up = _reduced(S, Lc * Q * k * math.comb(k + m, m), Q)
        if up > 1:
            e = [x * up for x in e]
        U.append(up)
        M.append(S)
        if m:
            e = map(add, e, map(S.__mul__, b) if b else count(2 * S, S) if m == 2 else repeat(S))
        e = list(accumulate(e, initial=S))
    return _lifted(M, U), Q


def _miller(
    H: Sequence[int], L: int, r: int, m: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """`exponential_power_numerators` at shift m (see there), r != 1, on
    the shifted numerators H_k = P_k C(k+m, m) over L (H_0 = L).  At
    m = 0 its M share one Q and each step is one dot product; at m >= 1
    each M_j stays over its own Q_j, summed by Horner's rule in U_j."""
    c = math.gcd(*H)
    F, Lc = [h // c for h in H[1:]], L // c
    M, U, Q, step = [1], [1], 1, step_rows(stats)
    w = [r]  # the weights of step 1, at every m
    row = [math.comb(m + 1, j) for j in range(m + 2)]  # C(n+m, j) at step n = 1
    for n in range(1, len(H)):
        if m:  # M_j over Q_j: Horner's rule in U_j lifts each term onto Q
            S = 0
            for u, t in zip(U, map(mul, reversed(w), map(mul, reversed(F[:n]), M))):
                S = S * u + t
            den = Lc * Q * n * row[m]
            row = [1, *map(add, row, row[1:]), 1]
            w = list(map(mul, row[m + 1 :], count(r - n, r + 1)))  # step n + 1's
        else:  # the products stop at len(M) = n: F_1..F_n
            S = sum(map(mul, w, map(mul, F, reversed(M))))
            den = Lc * Q
            w = [w[0] - 1, *map(add, w, w[1:]), r]
        if step:
            step(S.bit_length())
        S, Q, up = _reduced(S, den, Q)
        if m:
            U.append(up)
        elif up > 1:
            M = [x * up for x in M]
        M.append(S)
    return _lifted(M, U) if m else M, Q


def _ordinary(
    P: Sequence[int], L: int, r: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """`exponential_power_numerators` on the ordinary coefficients
    c_k = P_k / (L k!), r != 1: the third form there, by Horner's rule on
    the falling factorial (n-1)! / j! with each M_j kept over its own
    Q_j, so the multiplier of term j is j U_j.  Its step's S is G_n Lc Q."""
    M, U, V, Q, C, Lc, fact, step = [1], [1], [0], 1, [0], 1, L, step_rows(stats)
    last, tail = 0, 1  # tail = V_{last+1} ... V_{n-1}, each U_j = 1 past last
    for n, p in enumerate(P[1:], 1):
        fact *= n
        c, Lc, up = _reduced(p, fact, Lc)
        if up > 1:
            C = [x * up for x in C]
        C.append(c)
        terms = map(mul, map(mul, count(r * n, -r - 1), reversed(C)), M[: last + 1])
        S = 0
        for v, t in zip(V, terms):  # t = (r n - (r+1) j) C_{n-j} M_j, v = j U_j
            S = S * v + t
        S *= tail
        if step:
            step(S.bit_length())
        S, Q, up = _reduced(S, Lc * Q, Q)
        U.append(up)
        V.append(n * up)
        if S:
            last, tail = n, 1
        else:
            tail *= n  # and U_n = 1, as G_n = 0
        M.append(S)
    return _lifted(M, U), Q


def _lifted(M: list[int], U: list[int]) -> list[int]:
    """Each M_j, kept over Q_j (the running Q when G_j was reduced), over
    the last Q_K instead: times U_{j+1} ... U_K, for U_j = Q_j / Q_{j-1}
    (U_0 is not read), in one pass from the end."""
    return list(map(mul, reversed(M), accumulate(reversed(U), mul, initial=1)))[::-1]


def _reduced(S: int, den: int, Q: int) -> tuple[int, int, int]:
    """A step's G_n = S / den over the running Q, by one gcd: its
    numerator, the new Q and the factor up by which Q rose.  Q rises to
    lcm(Q, den G_n) when den G_n does not divide it (else up = 1).  The
    unshifted `_miller` rescales its stored numerators by up; the other
    forms keep it as U_n, fold it into their sums and lift once at the
    end (`_lifted`).  `_ordinary` lifts each c_n = P_n / (L n!) over its
    running Lc the same way, and rescales its stored C by up."""
    g = math.gcd(S, den)
    den //= g
    up = den // math.gcd(Q, den) if Q % den else 1
    Q *= up
    return S // g * (Q // den), Q, up
