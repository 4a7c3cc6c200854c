"""The package's one Miller loop: the exponential coefficients of f^r,
for any integer r, as integer numerators over one denominator.

`exponential_power_numerators` states the loop and runs it in one of
three forms: on F itself, as one dot product a step (`_miller`); on a
long hyper-Cauchy-like input, on the ordinary coefficients by Horner's
rule (`_ordinary`); and on an input whose binomially shifted numerators
are a polynomial of low degree (every flat input, and hyper-Bernoulli
from SHIFT_MIN_TERMS terms on), as sums on a difference table of G
(`_seidel`).  Bernoulli's and Euler's f^(-s), s <= TANGENT_MAX, skip
the loop: `_tangent` finds order 1 from the tangent numbers and raises
it s - 1 times.  `_miller` keeps G over one running denominator Q;
`_ordinary` and `_seidel` keep each G_j over the Q of the step that
found it, fold each rise of Q into their sums, and lift G onto the last
Q once, at the end (`_lifted`).  `engine` runs it on a family's (P, L);
`library.TruncatedSeries` and `library.exponential_power` run it on
rationals.
"""

from __future__ import annotations

import math
from itertools import accumulate, count, repeat
from operator import add, mul, neg, sub
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
    `_miller` runs it on F as given, with the integer weights
    w_k = r C(n-1, k-1) - C(n-1, k), which obey Pascal's rule themselves:
    the row w_1..w_n of step n rolls forward to w_1 - 1, w_1 + w_2, ...,
    w_{n-1} + w_n, r.  F is lifted once, before the first step: it is
    kept as the integers P_k / c over L / c for c = gcd(L, P_1..P_K), so
    L / c is the least common denominator of F_1..F_K.  The step's sum
    S, with each weight multiplied in last, gives G_n = S over s Q for
    the step's own divisor s = L / c and Q = Q_{n-1} =
    lcm(den G_0..G_{n-1}).  Q rises to lcm(Q, den G_n) = U_n Q by
    U_n = s / gcd(S, s), and S / gcd(S, s) is G_n over it: one gcd with
    s, none with Q (`_reduced`; U_n = 1 when Q does not rise).
    `_miller` keeps G_0..G_{n-1} as M_j / Q over the one running Q and
    rescales the stored M by U_n, so its S is one dot product.

    The second form runs on the ordinary coefficients c_k = F_k / k! =
    P_k / (L k!) and keeps G exponential: since C(n, k) k! = n! / (n-k)!,

        G_n = sum_{j=0..n-1} (n-1)! / j! (r n - (r+1) j) c_{n-j} G_j,

    which `_ordinary` sums by Horner's rule on the falling factorial,
    S <- S j U_j + (r n - (r+1) j) C_{n-j} M_j for j = 0..n-1.  It keeps
    each M_j over Q_j, the Q of the step that reduced G_j, and never
    rescales it: the one multiplier j U_j both steps the falling
    factorial and lifts the sum onto Q, so the large running sum is only
    ever multiplied by the small j U_j, never by a weight.  When the loop
    ends, one pass (`_lifted`) multiplies each M_j by U_{j+1} ... U_K
    onto the last Q.  The c_k are kept in lowest terms as C_k over Lc,
    the lcm of the denominators read so far: c_n = P_n / (s Lc) for
    s = L n! / Lc, an integer as each earlier denominator divides L n!,
    so Lc rises by the same rule (`_reduced`) and the stored C are
    rescaled; G_n = S / (Lc Q), the step's divisor Lc.  It pays where
    F_k carries a k!: hyper-Cauchy's d_k carry (M)^(k), so at
    hyper-Cauchy(2, 3), n = 220 the lifted P_k reach 1688 bits and the
    C_k 312.  On a prefix of at least SHIFT_MIN_TERMS terms that the
    tests below do not send to `_seidel`, `_ordinary_pays` weighs this
    lift against F's own by the bits of their numerators over
    d_0..d_{SHIFT_MAX+2}, the terms `_polynomial` probes: every
    hyper-Cauchy kind takes it.

    The third form runs on binomially shifted numerators: write
    F_k = H_k / C(k+m, m); since C(n, k) / C(k+m, m) =
    C(n+m, k+m) / C(n+m, m), the step becomes

        n C(n+m, m) G_n = sum_{k=1..n} C(n+m, k+m) ((r+1) k - n) H_k G_{n-k},

    for the numerators H_k = P_k C(k+m, m) over L.  When H_1..H_K are
    the values of a polynomial in k of degree d <= m, `_seidel` finds
    each step's sum on a running difference table of G, and states how.
    A flat input, H_1 = ... = H_K (d = 0) at some m <= SHIFT_MAX, takes
    it at any length: Euler is flat at m = 0, Bernoulli (d_k = 1/(k+1),
    H_k = 1) at m = 1 and hyper-Bernoulli(1, N) at m = N.
    P_1 (m+1) = P_2 C(m+2, 2) fixes the one m to test (m = 0 when K < 2
    or P_2 = 0), and the test stops at the first H_k that differs.  On a
    prefix of at least SHIFT_MIN_TERMS terms that is not flat,
    `_polynomial` looks for the smallest m <= SHIFT_MAX with
    1 <= d <= m: hyper-Bernoulli(M, N) has H_k = C(k+M-1, M-1) over its
    L at m = M + N - 1, a polynomial of degree M - 1.

    The fourth form runs no loop.  At r = -s, 1 <= s <= TANGENT_MAX, a
    flat input that is Euler's (m = 0 and 2h = L, so F_k = 1/2) or
    Bernoulli's (m = 1 and h = L, so F_k = 1/(k+1); hyper-Bernoulli(1, 1)
    and an equal custom list too) takes `_tangent`.  Order 1 comes from
    the tangent numbers T_j = 4^(j-1) |G_2j| / j, with the Genocchi
    numbers G_2j found on L. Seidel's triangle (1877) in about K^2 / 4
    additions, one `accumulate` a row:
    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)), B_1 = -1/2, and
    2 / (e^t + 1) has e_(2j-1) = (-1)^j T_j / 2^(2j-1); the other values
    past index 0 are 0.  Order t + 1 follows from order t by
    N. E. Norlund's recurrences (1924), O(K) products each:
    a'_n = ((t - n) a_n - t n a_(n-1)) / t for Bernoulli and
    a'_n = 2 (a_(n+1) + t a_n) / t for Euler.

    Zero tail: only the ordinary form stops at G's zero tail.
    `_ordinary` keeps the last j with M_j != 0, past which every M_j
    read so far is 0 (past the degree of a polynomial power, as for
    hyper-Cauchy(3, 2) at r = -4, which runs on `_ordinary` from
    SHIFT_MIN_TERMS terms on), stops Horner's rule there and multiplies
    once by the skipped multipliers j U_j past it, kept as a running
    product: Q does not rise at a step whose G_j = 0, so U_j = 1 there and
    the product is (n-1)! / last!.  It drops only products by 0, so S is
    the same integer.  `_miller` sums every term; `_seidel` and
    `_tangent` read no G.

    No Fraction is built: each caller makes its values from (M, Q) once,
    or compares them as they are.  Each step hands the |S|.bit_length()
    of the form that ran to `arith.step_rows`, which keeps `stats`
    (`_tangent`'s rows, all at its last raise, carry its running peak);
    at r = 1 no loop runs and `stats` is left as given.
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
            if m < 2 and 2 * h == (m + 1) * L and -TANGENT_MAX <= r < 0:
                return _tangent(K, -r, m, stats)  # Euler (m = 0) or Bernoulli (m = 1)
            return _seidel(L, [h], K, r, m, stats)
    if len(P) >= SHIFT_MIN_TERMS:
        found = _polynomial(P)
        if found:
            return _seidel(L, found[1], K, r, found[0], stats)
        if _ordinary_pays(P):
            return _ordinary(P, L, r, stats)
    return _miller(P, L, r, stats)


#: Shortest prefix d_0..d_K (K + 1 terms) on which an input that is not
#: flat may leave `_miller`, the one gate of both long-prefix forms:
#: `_seidel`, when `_polynomial` finds its shift, else `_ordinary`, when
#: `_ordinary_pays`.  A flat input takes `_seidel` at its shift at any
#: length.  On shorter prefixes `_miller`'s one dot product a step is the
#: faster form.
SHIFT_MIN_TERMS = 120
#: Largest shift m that `_polynomial` tries.  hyper-Bernoulli(M, N) is
#: polynomial at m = M + N - 1, so 8 serves M + N <= 9.  Each m tried
#: costs one pass over d_1..d_{SHIFT_MAX+2}, which hold a (d+1)-th
#: difference of H at every d <= SHIFT_MAX.
SHIFT_MAX = 8
#: Largest s at which Bernoulli's and Euler's f^(-s) take `_tangent`:
#: past it, each raise's O(K) products let Euler's short prefixes run
#: faster on `_seidel` (`scripts/gates.py` times the crossover).
TANGENT_MAX = 9


def _polynomial(P: Sequence[int]) -> Optional[tuple[int, list[int]]]:
    """The smallest shift m <= SHIFT_MAX at which the numerators
    H_k = P_k C(k+m, m), k = 1..K, are the values p(k) of a polynomial of
    degree d, 1 <= d <= m, as (m, D) with D_t = Delta^t p(1) for
    t = 0..d; None if there is none.  Polynomial at m, H is polynomial
    at every larger m too, as C(k+m+1, m+1) / C(k+m, m) is linear in k,
    so the m are tried from SHIFT_MAX down, each on H_1..H_{SHIFT_MAX+2},
    whose forward differences fix d where the (d+1)-th vanishes, and the
    last m that passes is confirmed on H_1..H_K.  Two polynomials of
    degree at most SHIFT_MAX that agree on the probe are one, so when H
    is polynomial at some m <= SHIFT_MAX, the probe passes no m that H
    does not."""

    def differences(m, K):
        # Delta^t H_1 over H_1..H_K, to the last order not all 0 or m + 2 orders
        D, H = [], [p * math.comb(k + m, m) for k, p in enumerate(P[1 : K + 1], 1)]
        while any(H) and len(D) <= m + 1:
            D.append(H[0])
            H = list(map(sub, H[1:], H[:-1]))
        return D

    m = SHIFT_MAX
    while m and 2 <= len(differences(m, SHIFT_MAX + 2)) <= m + 1:
        m -= 1
    D = differences(m + 1, len(P)) if m < SHIFT_MAX else ()
    return (m + 1, D) if 2 <= len(D) <= m + 2 else None


def _ordinary_pays(P: Sequence[int]) -> bool:
    """Whether a long input that `_polynomial` leaves takes the ordinary
    lift that `_ordinary` runs on, not F's own that `_miller` runs on:
    whether its numerators over k <= K = SHIFT_MAX + 2 (the terms
    `_polynomial` probes), P_k K! / k!, divided by their gcd have no more
    bits in all than P_k divided by theirs (P_0 = L is among them, so the
    lifted denominator counts too)."""
    K = SHIFT_MAX + 2
    bits = [
        sum((h // g).bit_length() for h in H)
        for H in ([p * math.perm(K, K - k) for k, p in enumerate(P[: K + 1])], P[: K + 1])
        for g in [math.gcd(*H)]
    ]
    return bits[0] <= bits[1]


def _seidel(
    L: int, D: Sequence[int], K: int, r: int, m: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """`exponential_power_numerators` at shift m when
    H_k = P_k C(k+m, m) = p(k) over L for 1 <= k <= K, p a polynomial
    of degree d <= m given by its forward differences D_t = Delta^t p(1),
    t = 0..d (D = [h] for a flat H_k = h).  Each step is the shifted
    loop's own S, found on a running difference table of G (L. Seidel,
    1877; D. Dumont, Matrices d'Euler-Seidel, 1981).

    Write N = n + m and V(x) = sum_{j<n} C(x, j) G_j.  Put pi(u) = p(u-m),
    which extends p to k <= 0 by its vanishing (d+1)-th difference, and
    let a_t and b_t be the forward differences at u = 0 of pi(u) and of
    u pi(u), t = 0..d+1: fixed integers, with b_t = t (a_{t-1} + a_t).
    With u = N - j, r n - (r+1) j = (r+1) u - (n + (r+1) m), and since
    C(u, t) C(N, j) = C(N, t) C(N-t, j), the shifted step's sum is

        sum_{j<n} C(N, j) (r n - (r+1) j) p(n-j) G_j
            = sum_{t=0..d+1} ((r+1) b_t - (n + (r+1) m) a_t) C(N, t) V(N-t),

    over the loop's divisor n C(N, m).  At d = 0 it is
    h (r n V(N) - (r+1) N (V(N) - V(N-1))), which the flat step keeps as
    such; at m = 0, where only d = 0 is possible, the unshifted sum over
    w_k is h ((r+1) V(n-1) - V(n)) = h (r V(n) - (r+1) (V(n) - V(n-1))),
    with no divisor.  So the flat step runs one form, with k = n at
    m >= 1 and k = 1 at m = 0 in the factors r k and (r+1) (k+m) and the
    divisor k C(k+m, m).

    The loop never reads G: each M_j stays over its own Q_j, lifted onto
    the last Q once, at the end (`_lifted`).  The table keeps, over the
    loop's running Q, rescaled when Q rises, the anti-diagonal
    e_i = sum_{l<=i} C(i+m, l) G_{n-1-i+l}, i < n, of G's difference
    table m rows down.  By the hockey stick, sum e = V(N), and by
    Pascal's rule the i-th backward difference of e at e_{n-1} is
    V(N-1-i), reading e_i = 0 for i < 0; so a step's values cost one sum
    and d (d+1) / 2 subtractions.  Pascal's rule moves the table on with
    one `accumulate`: the next e_0 is G_n, and the next e_{i+1} is the
    next e_i plus e_i plus C(i+m, m-1) G_n.  Those multiples are 0, G_n
    and (i+2) G_n at m = 0, 1, 2, counted off by additions; past m = 2
    they take one product each, by a stored binomial.  A step's other
    products are d + 2 by small weights, and S, hence (M, Q) and
    "max_num_bits", is the shifted loop's bit for bit:
    c = gcd(L, D_0..D_d) = gcd(L, H_1..H_K) is its one lift, and
    `_reduced` raises Q by the step's own divisor Lc k C(k+m, m).
    """
    c = math.gcd(L, *D)
    a, Lc, d = [x // c for x in D] + [0], L // c, len(D) - 1
    for _ in range(m + 1):  # p's differences at k = 1 moved down to k = -m
        for t in reversed(range(d)):
            a[t] -= a[t + 1]
    # the weight of C(N, t) V(N-t) at step n is (r+1) b_t - m (r+1) a_t - n a_t
    ab = [((r + 1) * (t * (x + y) - m * y), y) for t, (x, y) in enumerate(zip([0, *a], a))]
    b = [math.comb(i + m, m - 1) for i in range(K)] if m > 2 else ()
    M, U, Q, e, step = [1], [1], 1, [1], step_rows(stats)
    for n in range(1, K + 1):
        lo, hi, k = e[-1], sum(e), n if m else 1
        if d:
            x, V = [0] * (d + 1 - n) + e[-d - 1 :], [hi, lo]
            for _ in range(d):  # V(N-1-i), the i-th backward difference at e_{n-1}
                x = list(map(sub, x[1:], x[:-1]))
                V.append(x[-1])
            S = sum(
                math.comb(n + m, t) * (y - n * z) * v for t, ((y, z), v) in enumerate(zip(ab, V))
            )
        else:
            S = a[0] * (r * k * hi - (r + 1) * (k + m) * (hi - lo))
        if step:
            step(S.bit_length())
        S, up = _reduced(S, Lc * k * math.comb(k + m, m))
        Q *= up
        if up > 1:
            e = [x * up for x in e]
        U.append(up)
        M.append(S)
        if m:
            e = map(add, e, map(S.__mul__, b) if b else count(2 * S, S) if m == 2 else repeat(S))
        e = list(accumulate(e, initial=S))
    return _lifted(M, U), Q


def _tangent(K: int, s: int, m: int, stats: Optional[StatsDict] = None) -> tuple[list[int], int]:
    """`exponential_power_numerators` at r = -s, 1 <= s <= TANGENT_MAX,
    for Euler's F_k = 1/2 (m = 0) and Bernoulli's F_k = 1/(k+1) (m = 1),
    k = 1..K, from the tangent numbers T_j = (2j-1)! [t^(2j-1)] tan t.

    T_j = 4^(j-1) |G_2j| / j, exactly, for the Genocchi numbers G_2j,
    and L. Seidel's triangle (1877; D. Dumont and G. Viennot, 1980)
    finds |G_2j| by additions alone.  From the row [1], each next row is
    the running sums of the last one read from its end, twice: the even
    row, then the odd row, whose last entry is |G_2j|; the odd row then
    grows by repeating that entry, and the next pair starts from it.
    Each row is one `accumulate`, so T_1..T_J cost about J^2 additions
    and no Python statement per entry, with two rows alive at a time.
    (R. P. Brent and D. Harvey's all-integer recurrence, 2011, finds the
    same T_j in J^2 / 2 updates by small multipliers, one statement
    each.)  Order 1 of Euler, 2 / (e^t + 1) =
    1 - tanh(t/2), is e_0 = 1, e_(2j-1) = (-1)^j T_j / 2^(2j-1) and
    e_2j = 0; t / (e^t - 1) = t / (e^t + 1) + 2t / (e^(2t) - 1) gives
    Bernoulli's B_0 = 1 and B_n = -n 2^(n-1) e_(n-1) / (2^n (2^n - 1)):
    B_1 = -1/2, B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)), 0 at odd
    n >= 3.  Both are lifted over a multiple D of the lcm of their
    reduced denominators, found without a gcd: e_(2j-1) is over
    2^(1 + v_2(j)), as 2j e_(2j-1) is an odd Genocchi number, so D is
    2 to the bit length of J; B_2j is over the product of the primes p
    with p - 1 | 2j (von Staudt-Clausen), so D = lcm(1..K+1) holds them
    all.  Order t then raises to t + 1 on the numerators over D, with
    D <- t D, by N. E. Norlund's recurrences (Vorlesungen ueber
    Differenzenrechnung, 1924):

        Bernoulli: a'_n = ((t - n) a_n - t n a_(n-1)) / t,
        Euler:     a'_n = 2 (a_(n+1) + t a_n) / t,

    so Euler's order 1 runs to K + s - 1.  Dividing by gcd(D, A_0..A_K)
    leaves Q = lcm(den G_0..G_K).  The K step rows are kept at the last
    raise, where every a_n becomes known; their bits are the running
    peak over T_J and every table raised."""
    N = K if m else K + s  # Bernoulli reads e_0..e_(K-1), Euler's raises e_0..e_(K+s-1)
    J = N // 2
    row, T = [1], [1]  # T_1, and the last row of Seidel's triangle so far
    for j in range(2, J + 1):
        row = list(accumulate(reversed(row)))  # the even row
        row = list(accumulate(reversed(row)))  # the odd row, which ends in |G_2j|
        T.append((row[-1] << 2 * j - 2) // j)  # T_j = 4^(j-1) |G_2j| / j
        row.append(row[-1])
    T[::2] = map(neg, T[::2])  # (-1)^j T_j
    E = [1]  # E_n = 2^n e_n
    for x in T:
        E += x, 0
    num = [1, *map(mul, count(-1, -1), E)] if m else E  # 2^n (2^n - 1) B_n, or E_n
    D = math.lcm(*range(1, K + 2)) if m else 1 << J.bit_length()
    A = [(x * D >> n) // ((1 << n) - 1 or 1) ** m for n, x in zip(range(N + m), num)]
    step, peak = step_rows(stats), T[-1].bit_length()
    for t in range(1, s):
        if step:
            peak = max(peak, *map(int.bit_length, A))
        if m:
            A = list(map(sub, map(mul, count(t, -1), A), map(mul, count(0, t), [0, *A])))
        else:
            A = [2 * (x + t * y) for y, x in zip(A, A[1:])]
        D *= t
    for x in A[1:] if step else ():
        step(max(peak, x.bit_length()))
    c = math.gcd(D, *A)
    return [x // c for x in A], D // c


def _miller(
    P: Sequence[int], L: int, r: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """`exponential_power_numerators` on F as given, r != 1 (see there):
    its M share one Q, and each step is one dot product with the weight
    row rolled by Pascal's rule."""
    c = math.gcd(*P)
    F, Lc = [p // c for p in P[1:]], L // c
    M, Q, step = [1], 1, step_rows(stats)
    w = [r]  # the weights of step 1
    for n in range(1, len(P)):
        # the products stop at len(M) = n: F_1..F_n
        S = sum(map(mul, w, map(mul, F, reversed(M))))
        w = [w[0] - 1, *map(add, w, w[1:]), r]
        if step:
            step(S.bit_length())
        S, up = _reduced(S, Lc)
        Q *= up
        if up > 1:
            M = [x * up for x in M]
        M.append(S)
    return M, Q


def _ordinary(
    P: Sequence[int], L: int, r: int, stats: Optional[StatsDict] = None
) -> tuple[list[int], int]:
    """`exponential_power_numerators` on the ordinary coefficients
    c_k = P_k / (L k!), r != 1: the third form there, by Horner's rule on
    the falling factorial (n-1)! / j! with each M_j kept over its own
    Q_j, so the multiplier of term j is j U_j.  Its step's S is G_n Lc Q,
    and Q rises by `_reduced` on the divisor Lc; c_n = P_n / (L n!) rises
    onto Lc the same way, on L n! / Lc."""
    M, U, V, Q, C, Lc, fact, step = [1], [1], [0], 1, [0], 1, L, step_rows(stats)
    last, tail = 0, 1  # tail = V_{last+1} ... V_{n-1}, each U_j = 1 past last
    for n, p in enumerate(P[1:], 1):
        fact *= n
        c, up = _reduced(p, fact // Lc)
        Lc *= up
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
        S, up = _reduced(S, Lc)
        Q *= up
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


def _reduced(S: int, s: int) -> tuple[int, int]:
    """A step's G_n = S / (s Q) over the running Q, by one gcd with the
    step's own divisor s: its numerator over the new Q and the factor up
    by which Q rises, up = s / gcd(S, s) (1 when it does not).  The
    least multiple Q up of Q with G_n Q up an integer has S up / s an
    integer, so up = s / gcd(S, s) whatever Q is, and Q up is
    lcm(Q, den G_n).  Each caller does Q *= up: `_miller` rescales its
    stored numerators by up; `_seidel` and `_ordinary` keep it as U_n,
    fold it into their sums and lift once at the end (`_lifted`).
    `_ordinary` lifts each c_n = P_n / (L n!) over its running Lc the
    same way, with s = L n! / Lc, and rescales its stored C by up."""
    g = math.gcd(S, s)
    return S // g, s // g
