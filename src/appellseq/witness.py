"""The checks that `--check` runs beside the production table, and how
they are compared.

`identity_reach` proves the production table: it checks the equation
that defines f^(-r) on the table and f's own numerators.  Given the
family, `input_reach` certifies those numerators in turn, on the
family's definition.  Two witnesses,
the paper's two explicit expressions, compute the same table
a_0..a_{n_max} as the production route, `engine.negative_power_numerators`
(a_n = n! [t^n] f^(-r), Miller's loop on d_0..d_{n_max} themselves):

* the composition sum, `composition_numerators`: the explicit sum over
  the compositions of n, read off d itself, not D_r;
* the Hessenberg determinant, `determinant_numerators`: (-1)^n n! times
  the determinant of the unit-superdiagonal Hessenberg matrix over
  D_r(1)..D_r(n), by Bareiss elimination on its band.

Each route has one integer kernel that returns its table as numerators
over positive denominators, unreduced, and each lifts what it reads: the
composition sum lifts f's (P, L) once (`composition_lift`), Bareiss
reduces each D_r(e) of f^r's (M, Q) itself, and the identity divides
f's raw P by its gcd.  `ROUTES` names the three in the order they run
and the report lists them, and one function, `run_routes`,
feeds them for `cross_verify`, the CLI and `library`'s Fraction tables:
one `if route in routes:` block per route, in that order, each calling
its kernel once.  `cross_verify` runs all of `ROUTES`, compares the
tables by cross-multiplication and proves the production table, and
`bench_table` builds `bench`'s per-step rows from one `run_routes`.

This module reads the request path only as `engine.<name>`, and each
route's leg in `run_routes` (its blocks, and the call of `identity_reach`
for the identity) reads only the names of its row in `READS`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count, repeat
from operator import add, mul
from typing import Mapping, Optional, Sequence

from . import engine
from .arith import (
    DEFAULT_COMPOSITION_CAP,
    MAX_COMPOSITION_WORK,
    Record,
    StatsDict,
    convolve,
    factorials,
    format_ratio,
    step_rows,
)

COMPOSITION = "composition"
DETERMINANT_BAREISS = "determinant:bareiss"
IDENTITY = "identity"
INPUT = "input"
#: The routes that `run_routes` can run, in the order it runs them and the
#: report lists them.
ROUTES = (DETERMINANT_BAREISS, COMPOSITION, engine.NEGATIVE_POWER)

#: What each route's leg in `run_routes` may read from the request path,
#: `engine`, with the kernels of this module that it calls: Bareiss starts
#: from the production loop's f^r, so a fault in that loop is common to it
#: and the production table; the composition sum reads only f's own
#: (P, L), the identity f's raw numerators and the production table, and
#: the input check f's (P, L) alone.  tests/test_engine.py holds every leg
#: to its row.
READS = {
    DETERMINANT_BAREISS: ("power_numerators", "check_table"),
    COMPOSITION: ("CoefficientSequence.prefix",),
    engine.NEGATIVE_POWER: ("negative_power_numerators",),
    IDENTITY: ("CoefficientSequence.P",),
    INPUT: ("CoefficientSequence.P", "CoefficientSequence.L"),
}


class CombinatorialBlowupError(ValueError):
    """Raised when a composition table would pass the route's cap on n
    (DEFAULT_COMPOSITION_CAP, or the caller's) or its work bound,
    MAX_COMPOSITION_WORK."""


def check_cap(cap: Optional[int]) -> None:
    """Refuse a composition cap below 0 (None: no cap)."""
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")


def identity_reach(P: Sequence[int], A: Sequence[int], Q: int, r: int) -> int:
    """Largest n < len(A) such that A_0..A_n over Q are a_0..a_n of
    f^(-r), f's d_k = P_k / L with P_0 = L: A_0 = Q and, for N = 1..n,

        sum_{k=0..N} u_k P_k A_{N-k} = 0,  u_k = C(N-1, k) + r C(N-1, k-1),

    L Q times the coefficient of t^(N-1) / (N-1)! in f h' + r f' h, which
    vanishes for the multiples of h = f^(-r) alone.  Its k = 0 term is
    L A_N, so the identity at N fixes A_N from A_0..A_{N-1}.  -1 when
    A_0 != Q.  The weights u are one Pascal row ending in r, rolled
    forward.  The equation is homogeneous in P, so P is first divided by
    its gcd: the verdict is the same, on smaller products."""
    if A[0] != Q:
        return -1
    g = math.gcd(*P)
    P = [p // g for p in P]
    u = [1]
    for N in range(1, len(A)):
        u = [1, *map(add, u, u[1:]), r]
        if sum(map(mul, u, map(mul, P, reversed(A[: N + 1])))):
            return N - 1
    return len(A) - 1


def input_reach(family, P: Sequence[int], L: int) -> int:
    """Largest n < len(P) such that P_0..P_n over L are the d_0..d_n
    that `families` defines for `family` (a `FamilySpec`); -1 when
    P_0 != L, that is d_0 != 1.  Each kind is read off its definition in
    the `families` docstring, by cross-multiplication on (P, L), with no
    running product: a custom list value by value, Euler's d_k = 1/2, and
    the others by their term ratio d_k / d_(k-1) = a_k / b_k, as
    b_k P_k = a_k P_(k-1) for k >= 1:

        Bernoulli        d_k = 1/(k+1)                  k / (k+1)
        hyper-Bernoulli  (M)^(k) / (M+N)^(k)            (M+k-1) / (M+N+k-1)
        hyper-Cauchy     (-1)^k N (M)^(k) / (N+k)       -(M+k-1) (N+k-1) / (N+k)
    """
    if P[0] != L:
        return -1
    kind, M, N, top = family.kind, family.m, family.n, len(P) - 1
    # b_k, and the value that b_k P_k must equal, for k = 1, 2, ...
    if kind == "custom":
        values = family.values[1 : top + 1]
        b, top = (v.denominator for v in values), len(values)
        rhs = (v.numerator * L for v in values)
    elif kind == "euler":
        b, rhs = repeat(2), repeat(L)
    elif kind == "bernoulli":
        b, rhs = count(2), map(mul, count(1), P)
    elif kind == "hyper_bernoulli":
        b, rhs = count(M + N), map(mul, count(M), P)
    else:  # hyper_cauchy
        b, rhs = count(N + 1), map(mul, map(mul, count(-M, -1), count(N)), P)
    return next((k for k, x, y in zip(count(), map(mul, b, P[1:]), rhs) if x != y), top)


def composition_lift(P: Sequence[int], L: int, n_max: int) -> tuple[list[int], int]:
    """f's ordinary coefficients c_e = d_e / e! = P_e / (L e!) for
    e = 1..m, lifted once: (N, L_m) with c_e = N[e-1] / L_m over their
    least common denominator L_m, for the largest m <= n_max with
    m bits(max |N_e|) at most MAX_COMPOSITION_WORK.

    Each c_e is P_e n_max! / e! over D = L n_max!, and a running gcd
    g_m = gcd(D, P_1 n_max! / 1!, ..., P_m n_max! / m!) gives both
    L_m = D / g_m and the numerators over it.  The product never falls
    as m grows."""
    N, f = [], 1
    for e in range(n_max, 0, -1):  # f = n_max! / e!
        N.append(P[e] * f)
        f *= e
    N.reverse()
    D = L * f
    m, g, top = 0, D, 0  # the reach so far, g_m and max |N_e|
    for x in N:
        h, t = math.gcd(g, x), max(top, abs(x))
        if (m + 1) * (t // h).bit_length() > MAX_COMPOSITION_WORK:
            break
        m, g, top = m + 1, h, t
    return [x // g for x in N[:m]], D // g


def composition_numerators(N: Sequence[int], L: int, r: int) -> tuple[list[int], list[int]]:
    """The composition route's a_0..a_n, n = len(N), as (n! S_n, L^n), from
    f's ordinary coefficients c_e = d_e / e! = N[e-1] / L, e = 1..n
    (`composition_lift`).

    The Hasse-Teichmueller chain rule on 1/f^r = (1 + g)^(-r), g = f - 1,
    gives a_n = n! sum_k C(-r, k) [t^n] g^k, C(-r, k) = (-1)^k C(r+k-1, k),
    and [t^n] g^k sums c_(e_1)...c_(e_k) over the compositions
    e_1+..+e_k = n (Faa di Bruno; Comtet, Advanced Combinatorics, 3.3).
    Row k+1 of the power triangle of N(t) = sum_e N_e t^e is row k
    convolved with N, one dot product per entry, O(n^3) products over
    integers.  Over L^n, entry [t^n] of row k enters S_n weighted by
    C(-r, k) and scaled by L^(n-k): Horner's rule in L,
    S_n <- S_n L + C(-r, k) [t^n] N(t)^k for k = 1..n.  At r = 1 on a
    D table in place of f's it gives the coefficients of 1/D.
    """
    n = len(N)
    S = [1] + [0] * n
    row, weight = N, 1  # row[j] = [t^(k+j)] N(t)^k, here for k = 1
    for k in range(1, n + 1):
        weight = weight * (-r - k + 1) // k  # C(-r, k)
        S[k:] = [s * L + weight * x for s, x in zip(S[k:], row)]
        row = convolve(N, row, len(row) - 1)
    return list(map(mul, factorials(n), S)), list(accumulate(repeat(L, n), mul, initial=1))


def determinant_numerators(
    M: Sequence[int],
    Q: int,
    n_max: int,
    stats: Optional[StatsDict] = None,
) -> tuple[list[int], list[int]]:
    """The determinant route's a_0..a_{n_max} from f^r's (M, Q),
    n! D_r(n) = M_n / Q (`engine.power_numerators`), as
    ((-1)^n n! p_n, s_n), unreduced, over the leading minors
    det_n = p_n / s_n of the Hessenberg matrix

        | D(1)  1                 |
        | D(2)  D(1)  1           |
        | ...               1     |
        | D(n)  ...   D(2)  D(1)  |

    by fraction-free (Bareiss) elimination on its band.  Each D(e) =
    M_e / (Q e!) is first reduced by one gcd to num[e] / den[e], and row i
    is lifted by L_i = lcm(den D(1..i+1)).  Before step k, c_i (i >= k) is the
    minor of the lifted matrix on rows 0..k-1, i and columns 0..k, so the
    pivot p_k = c_k gives det_{k+1} = p_k / (L_0...L_k), and expanding the
    next minor along column k+1 (row k holds L_k, row i holds L_i D(i-k))
    gives c_i <- L_i D(i-k) p_k - L_k c_i for i > k: O(n^2) products, no
    division, no row swap, so a zero minor passes through like any other.
    Without its lifts that update is the cofactor recurrence run forward,
    so as a witness it checks the other routes' integer bookkeeping, not
    their algebra.  D(0) is not read.  `stats` gets "max_num_bits": the
    bit length of the largest |c_i|, and "steps" (`StatsDict`), whose row
    of n comes with p_{n-1}, so after the band rows up to n_max.
    """
    engine.check_table(M, n_max)
    num, den = [], []
    for m, d in zip(M, map(Q.__mul__, factorials(n_max))):  # D(e) in lowest terms
        g = math.gcd(m, d)
        num.append(m // g)
        den.append(d // g)
    step = step_rows(stats)
    lifts = list(accumulate(den[1:], math.lcm))  # lifts[i] = L_i
    c = [L // den[i + 1] * num[i + 1] for i, L in enumerate(lifts)]
    signed, scales = [1], [1]
    sign_fact, scale = 1, 1  # (-1)^k k!, L_0 ... L_{k-1}
    for k, Lk in enumerate(lifts):
        if step:  # c[k:] is what step k-1 left, or the lifted column 0
            step(max(map(int.bit_length, c[k:])))
        pivot = c[k]
        sign_fact *= -k - 1
        scale *= Lk
        signed.append(sign_fact * pivot)
        scales.append(scale)
        c[k + 1 :] = [
            lifts[i] // den[i - k] * num[i - k] * pivot - Lk * c[i]
            for i in range(k + 1, n_max)
        ]
    return signed, scales


class VerificationReport(Record):
    """Outcome of running every independent route on one (sequence, r) pair.

    `pairs` maps each route to its table as it was compared: (num, den),
    integer numerators over positive denominators.  `table` reduces one
    route's values to Fractions on demand.  `proved` is the production
    table's `identity_reach`, None when that route did not run, and
    `certified` the input's `input_reach`, None when no family was given.
    `repr` leaves `pairs` out.
    """

    __slots__ = ("r", "n_max", "pairs", "first_mismatch", "proved", "certified")
    _hidden = ("pairs",)

    def __init__(
        self,
        r: int,
        n_max: int,
        pairs: Mapping[str, tuple[Sequence[int], Sequence[int]]],
        first_mismatch: Optional[int],
        proved: Optional[int] = None,
        certified: Optional[int] = None,
    ):
        Record.__init__(self, r, n_max, pairs, first_mismatch, proved, certified)

    @property
    def agree(self) -> bool:
        return self.first_mismatch is None

    @property
    def coverage(self) -> dict[str, int]:
        """Largest n the input check certified and the identity proved,
        each when it ran, then each route computed; every route starts
        at n = 0."""
        checks = {INPUT: self.certified, IDENTITY: self.proved}
        return {**{k: n for k, n in checks.items() if n is not None},
                **{name: len(num) - 1 for name, (num, _) in self.pairs.items()}}

    def table(self, name: str) -> tuple[Fraction, ...]:
        """Route `name`'s values, each reduced once."""
        return tuple(map(Fraction, *self.pairs[name]))

    def describe(self) -> str:
        proved, first, certified = self.proved, self.first_mismatch, self.certified
        if first is not None:
            if certified is not None and certified < first:
                what = "input differs from its family"
            elif proved is None or proved >= first:
                what = "routes disagree"
            else:
                what = "identity fails"
            return f"{what} first at n={first} (r={self.r})"
        text = "" if certified is None else f"input is its family's for n <= {certified}; "
        text += "" if proved is None else f"identity proves n <= {proved}; "
        text += f"all {len(self.pairs)} routes agree for r={self.r}, n <= {self.n_max}"
        for name, top in self.coverage.items():
            if top < self.n_max:
                text += f", {name} only n <= {top}"
        return text


def first_disagreement_pairs(
    pairs: Mapping[str, tuple[Sequence[int], Sequence[int]]],
) -> Optional[int]:
    """Smallest index where the given tables differ, or None if they agree.

    Each table is (num, den), the values num[n] / den[n] with den[n] > 0
    in any terms: u/d = u'/d' exactly when u d' = u' d.  Tables may have
    different lengths; each is compared with the longest one on the
    indices it contains.
    """
    ref_num, ref_den = ref = max(pairs.values(), key=lambda pair: len(pair[0]))
    first = None
    for num, den in (pair for pair in pairs.values() if pair is not ref):
        for n, (x, y) in enumerate(zip(map(mul, num, ref_den), map(mul, ref_num, den))):
            if x != y:
                first = n if first is None else min(first, n)
                break
    return first


def cross_verify(
    seq: engine.CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    cap: Optional[int] = DEFAULT_COMPOSITION_CAP,
    family=None,
) -> VerificationReport:
    """Prove the production table with `identity_reach`, and run every
    route of `ROUTES` (Bareiss, the composition sum and the production
    route) once each and compare them exactly, index by index.  The
    production table and its proof cover the full range; both witnesses
    are only taken up to `cap`, and the composition sum also to its work
    bound (`composition_lift`).  With cap None both witnesses must be
    whole (see `run_routes`); a cap below 0 raises ValueError before any
    route runs.  Given the `FamilySpec` that seq was built from,
    `input_reach` certifies seq against its definition too, to n_max.
    No value is reduced; a failure is reported, not raised.
    """
    return run_routes(seq, r, n_max, ROUTES, cap, family=family)


def run_routes(
    seq: engine.CoefficientSequence,
    r: int,
    n_max: Optional[int],
    routes: Sequence[str],
    cap: Optional[int] = None,
    stats: Optional[Mapping[str, StatsDict]] = None,
    family=None,
) -> VerificationReport:
    """Each of `routes` run once on (seq, r), in `ROUTES` order, compared
    as `cross_verify` compares them, and the production table, when it is
    one of them, proved by `identity_reach`; seq itself, when its
    `family` is given, certified by `input_reach`; the one place that
    feeds the routes.  A failing check counts as a mismatch at its first
    bad n.  `pairs` lists the tables in `ROUTES` order.  `stats` maps a
    route to the stats dict its kernel is given by keyword; the
    composition sum takes none.

    The production route runs to n_max, every witness to min(n_max, cap).
    The composition sum reads f's ordinary coefficients d_e / e!, lifted
    once by `composition_lift`, which cuts it short at its work bound;
    with cap None it must reach n_max, and a work bound short of it raises
    CombinatorialBlowupError before f^r is built and before any route
    runs.  f^r is computed once, as (M, Q), only for Bareiss, which
    reduces each D_r(e) = M_e / (Q e!) itself.  An order r
    below 1 raises ValueError before any of that, and so does an empty
    `routes` or a name in it that is not in `ROUTES`.
    """
    if not routes or set(routes).difference(ROUTES):
        raise ValueError(f"routes must be one or more of {', '.join(ROUTES)}, got {routes!r}")
    engine.check_order(r)
    check_cap(cap)
    n_max = engine.check_table(seq.P, n_max)
    top = n_max if cap is None else min(n_max, cap)  # how far the witnesses go
    if COMPOSITION in routes:
        N, L = composition_lift(*seq.prefix(top), top)
        if cap is None and len(N) < n_max:
            raise CombinatorialBlowupError(
                f"composition route cannot serve n_max={n_max}: n times the bit length "
                f"of the lifted d_1/1!..d_n/n! passes {MAX_COMPOSITION_WORK} at n={len(N) + 1}"
            )
    # each route's block writes its table; the production route's name is
    # a local, so that its block reads nothing of `engine` but its kernel
    stats, pairs, production = stats or {}, {}, engine.NEGATIVE_POWER
    if DETERMINANT_BAREISS in routes:
        pairs[DETERMINANT_BAREISS] = determinant_numerators(
            *engine.power_numerators(seq, r, top), top, stats=stats.get(DETERMINANT_BAREISS)
        )
    if COMPOSITION in routes:
        pairs[COMPOSITION] = composition_numerators(N, L, r)
    if production in routes:
        A, Q = engine.negative_power_numerators(seq, r, n_max, stats=stats.get(production))
        pairs[production] = A, [Q] * len(A)
    first, proved, certified = first_disagreement_pairs(pairs), None, None
    if production in pairs:  # the identity's leg: the call below
        proved = identity_reach(seq.P, A, Q, r)
    if family is not None:  # the input's leg: the call below
        certified = input_reach(family, seq.P[: n_max + 1], seq.L)
    for reach in (proved, certified):
        if reach is not None and reach < n_max and (first is None or reach < first):
            first = reach + 1
    return VerificationReport(r=r, n_max=n_max, pairs=pairs, first_mismatch=first, proved=proved,
                              certified=certified)


def bench_table(seq: engine.CoefficientSequence, r: int, n_max: int) -> tuple[bool, str]:
    """`bench`'s output: (True, a CSV of the seconds into its run and the
    running peak bits at each n of each kernel that `--check` runs but the
    composition sum, from one `run_routes` to n_max and the kernels'
    "steps" rows, then the production value), the kernels being the
    production route's and Bareiss's; or, on any failure, found as
    `--check` finds it, (False, the error line) and no timings."""
    kernels = {"negative_power": engine.NEGATIVE_POWER, "bareiss": DETERMINANT_BAREISS}
    stats = {route: {"steps": []} for route in kernels.values()}
    report = run_routes(seq, r, n_max, tuple(stats), stats=stats)
    n, pairs = report.first_mismatch, report.pairs
    if n is not None:
        detail = ", ".join(f"{k}={format_ratio(pairs[route][0][n], pairs[route][1][n])}"
                           for k, route in kernels.items())
        return False, f"error: {report.describe()}: {detail}; refusing to emit timings"
    lines = [",".join(["n", *(f"{k}_seconds,{k}_max_num_bits" for k in kernels), "value"])]
    for n, value in enumerate(map(format_ratio, *pairs[engine.NEGATIVE_POWER])):
        timings = (f"{seconds:.6f},{peak}" for seconds, peak in
                   (kernel["steps"][n] for kernel in stats.values()))
        lines.append(",".join([str(n), *timings, value]))
    return True, "\n".join(lines)
