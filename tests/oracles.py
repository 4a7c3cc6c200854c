"""Independent reference implementations used only by the tests.

Nothing here calls back into the package's algorithm code paths beyond
trivially constructing TruncatedSeries values; the point is to have a
second, dumber route to every quantity under test.  The exceptions are
the power-sum checks, whose right sides are the package's Bernoulli and
Euler tables under test, set against a direct summation, and the
D-recurrence adapters `recurrence_values` and `hessenberg_leading_minors`,
which run the package's Miller loop (`library.exponential_power`) on a
D table, for the tests that set it against the determinant kernels and
the composition sum.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import add, mul
from typing import Iterator, Optional

from appellseq.families import HYPER_BERNOULLI, FamilySpec, family_coefficients
from appellseq.library import (
    TruncatedSeries,
    appell_polynomial,
    exponential_power,
    polynomial_eval,
    related_numbers_recurrence,
)
from appellseq.witness import DEFAULT_COMPOSITION_CAP, CombinatorialBlowupError

ZERO = Fraction(0)
ONE = Fraction(1)


def rand_fraction(rng, p_max=9, q_max=9):
    return Fraction(rng.randint(-p_max, p_max), rng.randint(1, q_max))


def rand_series(rng, order, nonzero_constant=False):
    c0 = rand_fraction(rng)
    if nonzero_constant:
        while c0 == 0:
            c0 = rand_fraction(rng)
    return TruncatedSeries([c0] + [rand_fraction(rng) for _ in range(order)])


def ordinary(seq):
    """f(t) as an ordinary-coefficient series: c_m = d_m / m!."""
    return TruncatedSeries(dm / factorial(m) for m, dm in enumerate(seq.d))


def naive_mul(a, b):
    """Cauchy product of two coefficient lists, shortest prefix wins."""
    n_out = min(len(a), len(b))
    out = []
    for n in range(n_out):
        out.append(sum((a[j] * b[n - j] for j in range(n + 1)), ZERO))
    return out


def naive_inverse(a):
    """Coefficients of 1/a by b_0 = 1/a_0, b_n = -(1/a_0) sum_{m<n} a_{n-m} b_m,
    summed with plain Fraction addition."""
    b = [ONE / a[0]]
    for n in range(1, len(a)):
        b.append(-sum((a[n - m] * b[m] for m in range(n)), ZERO) / a[0])
    return b


def global_lift_power(P, L, r):
    """(M, Q) of Miller's loop for F^r, F_k = P_k / L, with every F_k
    over the L given, not divided by the prefix's gcd as the loop's one
    lift divides it, and each weight multiplied in first: the plain
    unshifted form, kept as the reference for the (M, Q) of
    `series.exponential_power_numerators`."""
    if r == 1:  # the loop's shortcut: (P, L) in lowest terms
        g = math.gcd(*P)
        return [p // g for p in P], L // g
    P = P[1:]
    M, Q, w = [1], 1, [r]
    for _ in P:
        S = sum(map(mul, map(mul, w, P), reversed(M)))
        S, Q, up = lcm_reduced(S, L * Q, Q)
        if up > 1:
            M = [m * up for m in M]
        M.append(S)
        w = [w[0] - 1, *map(add, w, w[1:]), r]
    return M, Q


def lcm_reduced(S, den, Q):
    """G = S / den over the running Q, the lcm way: reduce G by
    gcd(S, den), and when its denominator does not divide Q, raise Q to
    their lcm.  Returns G's numerator over the new Q, the new Q and the
    factor up by which Q rose (1 when it did not): the reference for
    `series._reduced`, which reads only the step's own divisor."""
    g = math.gcd(S, den)
    den //= g
    up = den // math.gcd(Q, den) if Q % den else 1
    Q *= up
    return S // g * (Q // den), Q, up


def gauss_det(matrix):
    """Determinant by plain fraction Gaussian elimination with pivoting."""
    n = len(matrix)
    rows = [list(row) for row in matrix]
    det = ONE
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = -det
        pivot = rows[k][k]
        det *= pivot
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot
            if factor:
                for j in range(k, n):
                    rows[i][j] -= factor * rows[k][j]
    return det


# The Hessenberg matrix itself and Bareiss elimination of a general
# matrix, with row swaps past zero pivots: the reference that the band
# kernel `witness.determinant_numerators` is tested against.


def related_matrix(D, n):
    """The n x n unit-superdiagonal Hessenberg matrix over D(1)..D(n)."""
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    if len(D) <= n:
        raise ValueError(f"need D(0)..D({n}), got only {len(D)} entries")
    rows = []
    for i in range(n):
        row = [D[i - j + 1] if j <= i else (ONE if j == i + 1 else ZERO) for j in range(n)]
        rows.append(row)
    return rows


def bareiss_matrix_minors(matrix, stats=None):
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
    dets = [ONE]
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
            dets += [ZERO] * (swap + 1 - len(dets))
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
    dets += [ZERO] * (n + 1 - len(dets))
    if track:
        stats["max_num_bits"] = max(stats.get("max_num_bits", 0), max_bits)
    return dets


def bareiss_matrix_det(matrix, stats=None):
    """Exact determinant of a rational matrix: the last leading minor
    from `bareiss_matrix_minors`."""
    if not matrix:
        raise ValueError("empty matrix")
    return bareiss_matrix_minors(matrix, stats)[-1]


# The D-recurrence on a D table: the package's loop at the power -1.


def recurrence_values(D, n_max, stats=None):
    """a_0..a_{n_max} of the convolution recurrence on a D table: a_n = M_n / Q
    from `exponential_power` at -1 on 1, 1! D(1), 2! D(2), ... (D(0) is not
    read), the cofactor recurrence of the Hessenberg minors times (-1)^n n!."""
    if not 0 <= n_max < len(D):
        raise ValueError(f"need D(0)..D({n_max}), got {len(D)} entries")
    E = [factorial(n) * D[n] for n in range(1, n_max + 1)]
    M, Q = exponential_power([1, *E], -1, stats)
    return [Fraction(m, Q) for m in M]


def hessenberg_leading_minors(D, n_max, stats=None):
    """Leading minors det_n = (-1)^n a_n / n!, n <= n_max, of the Hessenberg
    matrix over D, from `recurrence_values`."""
    a = recurrence_values(D, n_max, stats)
    return [(-x if n & 1 else x) / factorial(n) for n, x in enumerate(a)]


def iter_compositions(n, k, lo):
    """All tuples (i_1..i_k), each part >= lo, summing to n, in ascending
    lexicographic order."""
    if k == 1:
        if n >= lo:
            yield (n,)
        return
    for first in range(lo, n + 1):
        for rest in iter_compositions(n - first, k - 1, lo):
            yield (first,) + rest


def partitions(
    n: int, *, cap: int | None = DEFAULT_COMPOSITION_CAP
) -> Iterator[tuple[int, ...]]:
    """Enumerate the partitions of n as non-increasing tuples of parts >= 1.

    The order is deterministic (reverse lexicographic, largest first part
    first) and each partition is produced exactly once; n = 0 has the one
    empty partition.  Sorting each strict composition of n into k parts
    gives a partition with k parts, and each partition with multiplicities
    m_i arises from k!/prod(m_i!) compositions.

    Raises CombinatorialBlowupError when n exceeds `cap` (pass cap=None to
    disable the guard).
    """
    if n < 0:
        raise ValueError(f"partitions needs n >= 0, got {n}")
    if cap is not None and n > cap:
        raise CombinatorialBlowupError(
            f"refusing to enumerate partitions of n={n}: "
            f"enumeration cap is {cap}"
        )
    return _partitions(n, n)


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def composition_by_partitions(D, n_max):
    """a_0..a_{n_max} by the alternating sum over partitions, one Fraction
    product per partition and a fresh sum for every n:

        a_n = n! sum_lambda (-1)^l(lambda) l(lambda)!/prod_i m_i(lambda)!
                            * prod_j D(lambda_j).
    """
    out = [ONE]
    for n in range(1, n_max + 1):
        total = ZERO
        for parts in partitions(n, cap=None):
            orderings = factorial(len(parts))
            prod = ONE
            for e, m in Counter(parts).items():
                orderings //= factorial(m)
                prod *= D[e] ** m
            total += -orderings * prod if len(parts) % 2 else orderings * prod
        out.append(factorial(n) * total)
    return out


def composition_by_partition_walk(D, n_max):
    """a_0..a_{n_max} by the alternating sum over partitions, summed over
    integers in one walk of the partition tree for every n <= n_max.

    Every D(k) is lifted to N_k / L over one L = lcm(den D(1..n_max)).
    Each node of the tree is a partition of some n <= n_max (parts
    non-increasing, each child appends one part); the walk carries the
    number of parts l, the run m of the last part, the weight
    l!/prod m_i! and the product of the N_k down to each node, which adds
    its weighted product to acc[n][l].  Then

        a_n = n! sum_l (-1)^l acc[n][l] L^(n-l) / L^n.

    One term per partition, p(n) of them for each n: the reference the
    package's power triangle is checked against.
    """
    L = math.lcm(*(x.denominator for x in D[1 : n_max + 1]))
    N = [x.numerator * (L // x.denominator) for x in D[: n_max + 1]]
    acc = [[0] * (n + 1) for n in range(n_max + 1)]
    # (n, last part, number of parts, run of the last part, weight, product)
    stack = [(0, n_max, 0, 0, 1, 1)]
    while stack:
        n, top, parts, run, w, prod = stack.pop()
        k = parts + 1  # the number of parts of each child
        for e in range(min(top, n_max - n), 0, -1):
            if not N[e]:
                continue  # every partition below this child has product 0
            m = run + 1 if e == top else 1
            weight, product = w * k // m, prod * N[e]
            acc[n + e][k] += weight * product
            if n + e < n_max:
                stack.append((n + e, e, k, m, weight, product))
    out = [ONE]
    for n in range(1, n_max + 1):
        total = sum((-c if k & 1 else c) * L ** (n - k) for k, c in enumerate(acc[n]))
        out.append(Fraction(factorial(n) * total, L**n))
    return out


def related_numbers_by_inversion(spec, r, n_max):
    """a_0..a_{n_max} of order r as n! [t^n] (1/f)^r, by plain-Fraction
    inversion and r - 1 Cauchy products."""
    inv = naive_inverse([dm / factorial(m) for m, dm in enumerate(family_coefficients(spec, n_max).d)])
    power = inv
    for _ in range(r - 1):
        power = naive_mul(power, inv)
    return [x * factorial(n) for n, x in enumerate(power)]


def appell_coefficients(a, n):
    """Coefficients of z^0..z^n in A_n(z) = sum_m C(n, m) a_m z^(n-m)."""
    return [math.comb(n, m) * a[m] for m in range(n, -1, -1)]


def appell_value(a, n, z):
    """A_n(z) = sum_m C(n, m) a_m z^(n-m), summed term by term."""
    return sum((math.comb(n, m) * a[m] * z ** (n - m) for m in range(n + 1)), ZERO)


def polynomial_derivative(p):
    """Formal d/dz of the coefficient vector (ascending powers)."""
    if p.n == 0:
        return (ZERO,)
    return tuple(j * p.coeffs_in_z[j] for j in range(1, p.n + 1))


def rising_factorial(x, n):
    """Rising factorial x(x+1)...(x+n-1); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError(f"rising_factorial needs n >= 0, got {n}")
    x = Fraction(x)
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def weak_D(d, r, e):
    """D_r(e) as the literal weak-composition sum over d_i / i!."""
    fact = [1] * (e + 1)
    for i in range(1, e + 1):
        fact[i] = fact[i - 1] * i
    total = ZERO
    for parts in iter_compositions(e, r, 0):
        prod = ONE
        for i in parts:
            prod *= Fraction(d[i], fact[i]) if isinstance(d[i], int) else d[i] / fact[i]
        total += prod
    return total


def akiyama_tanigawa(n_max):
    """Bernoulli numbers B_0..B_{n_max} by the Akiyama-Tanigawa scheme.

    The scheme natively produces the B_1 = +1/2 convention; the sign at
    n = 1 is flipped to match the generating function t/(e^t - 1).
    """
    out = []
    for n in range(n_max + 1):
        row = [ZERO] * (n + 1)
        for m in range(n + 1):
            row[m] = Fraction(1, m + 1)
            for j in range(m, 0, -1):
                row[j - 1] = j * (row[j - 1] - row[j])
        out.append(-row[0] if n == 1 else row[0])
    return out


def ht_by_differentiation(series, n):
    """H^(n) computed as (1/n!) (d/dt)^n, the classical route."""
    coeffs = list(series.coeffs)
    for _ in range(n):
        coeffs = [m * coeffs[m] for m in range(1, len(coeffs))]
        if not coeffs:
            coeffs = [ZERO]
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    return TruncatedSeries([c / fact for c in coeffs])


def _composition_series_sum(tables, n, lo):
    """Sum over compositions (i_1..i_k) of n, k = len(tables), parts >= lo,
    of the series products tables[0][i_1] * ... * tables[k-1][i_k], or None
    when there is no such composition.

    Built bottom-up, sharing every suffix: after j factors, sums[m] is the
    sum over compositions of m into j parts, and by distributivity
    sums_j[m] = sum_i sums_{j-1}[m - i] * tables[j-1][i].  For a single
    series f repeated k times, pass the same table k times.
    """
    k = len(tables)
    sums = {m: tables[0][m] for m in range(lo, n - lo * (k - 1) + 1)}
    for j, table in enumerate(tables[1:], start=2):
        top = n - lo * (k - j)
        nxt = {}
        for m in range(n if j == k else lo * j, top + 1):
            total = None
            for i in range(lo, m - lo * (j - 1) + 1):
                term = sums[m - i] * table[i]
                total = term if total is None else total + term
            nxt[m] = total
        sums = nxt
    return sums.get(n)


def ht_product_rule_rhs(factors, n):
    """Right side of the order-n product rule for the given series factors:
    the sum over weak compositions of n of products of H-derivatives."""
    tables = [[f.ht(i) for i in range(n + 1)] for f in factors]
    return _composition_series_sum(tables, n, 0)


def ht_quotient_strict_rhs(f, n):
    """Right side of the strict quotient rule,

        sum_{k=1..n} (-1)^k / f^(k+1) * sum over (i_1..i_k >= 1) of
        H^(i_1)(f) ... H^(i_k)(f),

    truncated to the order the left side supports."""
    table = [f.ht(i) for i in range(n + 1)]
    inv = f.inverse()
    inv_pow = inv
    total = None
    for k in range(1, n + 1):
        inv_pow = inv_pow * inv  # 1 / f^(k+1)
        inner = _composition_series_sum([table] * k, n, 1)
        if inner is None:
            continue
        term = inner * inv_pow
        if k % 2:
            term = -term
        total = term if total is None else total + term
    return total.truncate(max(f.order - n, 0))


def ht_quotient_weak_rhs(f, n):
    """Right side of the weak-composition quotient rule,

        sum_{k=1..n} C(n+1, k+1) (-1)^k / f^(k+1) * sum over
        (i_1..i_k >= 0) of H^(i_1)(f) ... H^(i_k)(f),

    truncated to the order the left side supports."""
    from math import comb

    table = [f.ht(i) for i in range(n + 1)]
    inv = f.inverse()
    inv_pow = inv
    total = None
    for k in range(1, n + 1):
        inv_pow = inv_pow * inv
        inner = _composition_series_sum([table] * k, n, 0)
        term = inner * inv_pow * comb(n + 1, k + 1)
        if k % 2:
            term = -term
        total = term if total is None else total + term
    return total.truncate(max(f.order - n, 0))


def power_sum_check(n, m):
    """Both sides of sum_{j=1..m} j^n = (B_{n+1}(m+1) - B_{n+1}) / (n+1).

    The left side is direct summation; the right side goes through the
    classical Bernoulli family at order 1.  The two must be equal.
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    seq = family_coefficients(FamilySpec.bernoulli(), n + 1)
    table = related_numbers_recurrence(seq, 1, n + 1)
    poly = appell_polynomial(table, n + 1)
    lhs = Fraction(sum(j**n for j in range(1, m + 1)))
    # Telescoping B_{n+1}(z+1) - B_{n+1}(z) = (n+1) z^n covers j = 0..m, so
    # the 0^n term (nonzero only at n = 0) must come back off.
    rhs = (polynomial_eval(poly, m + 1) - table.a[n + 1]) / (n + 1)
    if n == 0:
        rhs -= 1
    return lhs, rhs


def alt_power_sum_check(n, m):
    """Both sides of the alternating power sum identity

        sum_{j=1..m} (-1)^(j+1) j^n = -((-1)^m E_n(m+1) + E_n(0)) / 2

    through the Euler family at order 1.  The two must be equal.
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    seq = family_coefficients(FamilySpec.euler(), n)
    table = related_numbers_recurrence(seq, 1, n)
    poly = appell_polynomial(table, n)
    lhs = Fraction(sum(j**n if j % 2 else -(j**n) for j in range(1, m + 1)))
    sign = 1 if m % 2 == 0 else -1
    # E_n(1) + E_n(0) = 2 * 0^n, so the closed form picks up a 0^n term
    # that only matters at n = 0.
    rhs = -(sign * polynomial_eval(poly, m + 1) + table.a[n]) / 2
    if n == 0:
        rhs += 1
    return lhs, rhs


def identity_reach_by_weights(P, A, Q, r):
    """`witness.identity_reach` in its first form: the largest n < len(A)
    with A_0 = Q and, for N = 1..n,

        sum_{k=0..N} C(N, k) (N + (r - 1) k) P_k A_{N-k} = 0,

    N L Q times the coefficient of t^(N-1) / (N-1)! in f h' + r f' h,
    each weight taken from `math.comb`; -1 when A_0 != Q."""
    if A[0] != Q:
        return -1
    for N in range(1, len(A)):
        if sum(math.comb(N, k) * (N + (r - 1) * k) * P[k] * A[N - k] for k in range(N + 1)):
            return N - 1
    return len(A) - 1


@dataclass(frozen=True)
class IdentityCheck:
    """Result of comparing a family against a closed form, term by term."""

    n_max: int
    first_mismatch: Optional[int]

    @property
    def ok(self):
        return self.first_mismatch is None


def family_identity_checks(spec, n_max):
    """Check the M = 1 hypergeometric Bernoulli closed form.

    For hyper_bernoulli(1, N) the coefficients collapse to
    d_n = n! N! / (N+n)!; any other spec is rejected.
    """
    if spec.kind != HYPER_BERNOULLI or spec.m != 1:
        raise ValueError("closed-form check applies to hyper_bernoulli(1, N) only")
    d = family_coefficients(spec, n_max).d
    N = spec.n
    first_bad = None
    for n in range(n_max + 1):
        expected = ONE
        for i in range(n):  # n! N! / (N+n)! = prod_{i<n} (i+1)/(N+i+1)
            expected *= Fraction(i + 1, N + i + 1)
        if d[n] != expected:
            first_bad = n
            break
    return IdentityCheck(n_max=n_max, first_mismatch=first_bad)


def classical_cauchy_oracle(n_max):
    """Cauchy numbers c_0..c_{n_max} straight from t/log(1+t).

    Built from first principles: log(1+t)/t has ordinary coefficients
    l_n = (-1)^n/(n+1), its inverse has b_0 = 1 and
    b_n = -sum_{j=1..n} l_j b_{n-j}, and c_n = n! b_n.  The inversion is
    a plain loop rather than `TruncatedSeries.inverse`, so the oracle is
    independent of the package's recurrence kernel as well as of the
    hypergeometric route.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    log_over_t = [Fraction(-1 if n % 2 else 1, n + 1) for n in range(n_max + 1)]
    b = [ONE]
    for n in range(1, n_max + 1):
        b.append(-sum((log_over_t[j] * b[n - j] for j in range(1, n + 1)), ZERO))
    out = []
    fact = 1
    for n in range(n_max + 1):
        if n:
            fact *= n
        out.append(fact * b[n])
    return out
