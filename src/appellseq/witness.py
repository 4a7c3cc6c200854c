"""The checks that `--check` runs beside the production table, and how
they are compared.

`identity_reach` proves the production table: it checks the equation
that defines f^(-r) on the table and f's own numerators.  Two witnesses,
the paper's two explicit expressions, compute the same table
a_0..a_{n_max} as the production route, `engine.negative_power_numerators`
(a_n = n! [t^n] f^(-r), Miller's loop on d_0..d_{n_max} themselves):

* the composition sum, `composition_numerators`: the explicit sum over
  the compositions of n, read off d itself, not D_r;
* the Hessenberg determinant, `determinant_numerators`: (-1)^n n! times
  the determinant of the unit-superdiagonal Hessenberg matrix over
  D_r(1)..D_r(n), by Bareiss elimination on its band.

Each route has one integer kernel that returns its table as numerators
over positive denominators, unreduced, and one function, `run_routes`,
feeds them for `cross_verify`, the CLI and `library`'s Fraction tables.
`cross_verify` runs all three, compares the tables by cross-multiplication
and proves the production table.

This module reads the request path only as `engine.<name>`, and each
route's leg in `run_routes` reads only the names of its row in `READS`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
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
    step_rows,
)

COMPOSITION = "composition"
DETERMINANT_BAREISS = "determinant:bareiss"
IDENTITY = "identity"

#: What each route's leg in `run_routes` may read from the request path,
#: `engine`, with the kernels of this module that it calls: Bareiss starts
#: from the production loop's f^r, so a fault in that loop is common to it
#: and the production table; the composition sum reads only f's own
#: (P, L), and the identity f's raw numerators and the production table.
#: tests/test_engine.py holds every leg to its row.
READS = {
    DETERMINANT_BAREISS: ("power_numerators", "reduced_power_table", "check_table"),
    COMPOSITION: ("CoefficientSequence.prefix", "reduced_power_table"),
    engine.NEGATIVE_POWER: ("negative_power_numerators",),
    IDENTITY: ("CoefficientSequence.P",),
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
    forward; nothing is divided."""
    if A[0] != Q:
        return -1
    u = [1]
    for N in range(1, len(A)):
        u = [1, *map(add, u, u[1:]), r]
        if sum(map(mul, u, map(mul, P, reversed(A[: N + 1])))):
            return N - 1
    return len(A) - 1


def composition_reach(num: Sequence[int], den: Sequence[int], n_max: int) -> int:
    """Largest m <= n_max with m bits(max_{e<=m} |N_e|) at most
    MAX_COMPOSITION_WORK, where N_e = c_e L_m over L_m = lcm(den c_1..c_m),
    c_e = num[e] / den[e].  The product never falls as m grows."""
    L, top = 1, 0  # L_m and the largest |N_e| over it
    for m in range(1, n_max + 1):
        up = den[m] // math.gcd(L, den[m])
        L *= up
        top = max(top * up, abs(num[m]) * (L // den[m]))
        if m * top.bit_length() > MAX_COMPOSITION_WORK:
            return m - 1
    return n_max


def composition_numerators(
    num: Sequence[int], den: Sequence[int], r: int, n_max: int
) -> tuple[list[int], list[int]]:
    """The composition route's a_0..a_{n_max}, as (n! S_n, L^n), from f's
    ordinary coefficients c_e = d_e / e! = num[e] / den[e] in lowest terms.

    The Hasse-Teichmueller chain rule on 1/f^r = (1 + g)^(-r), g = f - 1,
    gives a_n = n! sum_k C(-r, k) [t^n] g^k, C(-r, k) = (-1)^k C(r+k-1, k),
    and [t^n] g^k sums c_(e_1)...c_(e_k) over the compositions
    e_1+..+e_k = n (Faa di Bruno; Comtet, Advanced Combinatorics, 3.3).
    Every c_e is lifted to N_e / L over L = lcm(den c_1..c_{n_max}); row
    k+1 of the power triangle of -N(t) is row k convolved with -N, one dot
    product per entry, O(n_max^3) products over integers.  Entry [t^n] of
    row k enters S_n weighted by C(r+k-1, k) and scaled by L^(n-k).  At
    r = 1 on a D table in place of f's it gives the coefficients of 1/D.
    """
    L = math.lcm(*den[1 : n_max + 1])
    N = [-x * (L // d) for x, d in zip(num[1 : n_max + 1], den[1 : n_max + 1])]
    L_pow = [L**i for i in range(n_max + 1)]
    S = [1] + [0] * n_max
    row, weight = N, 1  # row[m] = [t^(k+m)] (-N(t))^k, here for k = 1
    for k in range(1, n_max + 1):
        weight = weight * (r + k - 1) // k  # C(r+k-1, k)
        S[k:] = map(add, S[k:], map(mul, map(mul, row, L_pow), repeat(weight)))
        row = convolve(N, row, len(row) - 1)
    return list(map(mul, factorials(n_max), S)), L_pow


def determinant_numerators(
    num: Sequence[int],
    den: Sequence[int],
    n_max: int,
    stats: Optional[StatsDict] = None,
) -> tuple[list[int], list[int]]:
    """The determinant route's a_0..a_{n_max} from D_r(e) = num[e] / den[e]
    in lowest terms (den[e] > 0), as ((-1)^n n! p_n, s_n), unreduced, over
    the leading minors det_n = p_n / s_n of the Hessenberg matrix

        | D(1)  1                 |
        | D(2)  D(1)  1           |
        | ...               1     |
        | D(n)  ...   D(2)  D(1)  |

    by fraction-free (Bareiss) elimination on its band.  Row i is lifted
    by L_i = lcm(den D(1..i+1)).  Before step k, c_i (i >= k) is the
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
    engine.check_table(num, n_max)
    step = step_rows(stats)
    lifts = list(accumulate(den[1 : n_max + 1], math.lcm))  # lifts[i] = L_i
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
    table's `identity_reach`, None when that route did not run.  `repr`
    leaves `pairs` out.
    """

    __slots__ = ("r", "n_max", "pairs", "first_mismatch", "proved")
    _hidden = ("pairs",)

    def __init__(
        self,
        r: int,
        n_max: int,
        pairs: Mapping[str, tuple[Sequence[int], Sequence[int]]],
        first_mismatch: Optional[int],
        proved: Optional[int] = None,
    ):
        Record.__init__(self, r, n_max, pairs, first_mismatch, proved)

    @property
    def agree(self) -> bool:
        return self.first_mismatch is None

    @property
    def coverage(self) -> dict[str, int]:
        """Largest n the identity proved, when it ran, then each route
        computed; every route starts at n = 0."""
        tops = {name: len(num) - 1 for name, (num, _) in self.pairs.items()}
        return tops if self.proved is None else {IDENTITY: self.proved, **tops}

    def table(self, name: str) -> tuple[Fraction, ...]:
        """Route `name`'s values, each reduced once."""
        return tuple(map(Fraction, *self.pairs[name]))

    def describe(self) -> str:
        proved, first = self.proved, self.first_mismatch
        if first is not None:
            what = "routes disagree" if proved is None or proved >= first else "identity fails"
            return f"{what} first at n={first} (r={self.r})"
        text = "" if proved is None else f"identity proves n <= {proved}; "
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
) -> VerificationReport:
    """Prove the production table with `identity_reach`, and run Bareiss,
    the composition sum and the production route once each and compare
    them exactly, index by index.  The production table and its proof
    cover the full range; both witnesses are only taken up to `cap`, and
    the composition sum also to `composition_reach`.  With cap None both
    witnesses must be whole (see `run_routes`); a cap below 0 raises
    ValueError before any route runs.  No value is reduced; a failure is
    reported, not raised.
    """
    return run_routes(seq, r, n_max, (DETERMINANT_BAREISS, COMPOSITION, engine.NEGATIVE_POWER), cap)


def run_routes(
    seq: engine.CoefficientSequence,
    r: int,
    n_max: Optional[int],
    routes: Sequence[str],
    cap: Optional[int] = None,
    stats: Optional[Mapping[str, StatsDict]] = None,
) -> VerificationReport:
    """Each of `routes` run once on (seq, r), compared as `cross_verify`
    compares them, and the production table, when it is one of them,
    proved by `identity_reach`; the one place that feeds the routes.
    `stats` maps a route to the stats dict its kernel is given; the
    composition sum takes none.

    The production route runs to n_max, every witness to min(n_max, cap).
    The composition sum reads f's ordinary coefficients d_e / e!, reduced
    by one gcd each, and is cut short at their `composition_reach`; with
    cap None it must reach n_max, and a work bound short of it raises
    CombinatorialBlowupError before f^r is built and before any route
    runs.  f^r is computed once, as (M, Q), only for Bareiss, which
    reads each D_r(e) = M_e / (Q e!) reduced by one gcd.  An order r
    below 1 raises ValueError before any of that, and so does an empty
    `routes` or a name in it that is not one of the three routes.
    """
    # route -> its table from its kernel's stats, in the report's order; each
    # reads what the `if ... in routes` blocks below compute for it
    legs = {
        DETERMINANT_BAREISS: lambda s: determinant_numerators(
            *engine.reduced_power_table(M, Q), top, stats=s
        ),
        COMPOSITION: lambda s: composition_numerators(c_num, c_den, r, reach),
        engine.NEGATIVE_POWER: lambda s: _over_one(
            *engine.negative_power_numerators(seq, r, n_max, stats=s)
        ),
    }
    if not routes or set(routes) - legs.keys():
        raise ValueError(f"routes must be one or more of {', '.join(legs)}, got {routes!r}")
    engine.check_order(r)
    check_cap(cap)
    n_max = engine.check_table(seq.P, n_max)
    top = n_max if cap is None else min(n_max, cap)  # how far the witnesses go
    if COMPOSITION in routes:
        c_num, c_den = engine.reduced_power_table(*seq.prefix(top))
        reach = composition_reach(c_num, c_den, top)
        if cap is None and reach < n_max:
            raise CombinatorialBlowupError(
                f"composition route cannot serve n_max={n_max}: n times the bit length "
                f"of the lifted d_1/1!..d_n/n! passes {MAX_COMPOSITION_WORK} at n={reach + 1}"
            )
    if DETERMINANT_BAREISS in routes:
        M, Q = engine.power_numerators(seq, r, top)
    stats = stats or {}
    pairs = {route: run(stats.get(route)) for route, run in legs.items() if route in routes}
    first, proved = first_disagreement_pairs(pairs), None
    if engine.NEGATIVE_POWER in pairs:  # the identity's leg: the call below
        A, den = pairs[engine.NEGATIVE_POWER]
        proved = identity_reach(seq.P, A, den[0], r)
        if proved < n_max and (first is None or proved < first):
            first = proved + 1
    return VerificationReport(r=r, n_max=n_max, pairs=pairs, first_mismatch=first, proved=proved)


def _over_one(M: list[int], Q: int) -> tuple[list[int], list[int]]:
    """The loop's (M, Q) as a table pair: every M_n over the same Q."""
    return M, [Q] * len(M)
