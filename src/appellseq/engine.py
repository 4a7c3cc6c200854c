"""Related numbers and polynomials of higher-order Appell sequences.

A normalized coefficient sequence d_0=1, d_1, d_2, ... defines the series
f(t) = sum(d_n t^n / n!).  A `CoefficientSequence` keeps it as integer
numerators over one denominator, d_n = P_n / L; its Fractions `.d` are
built only on demand.  The order-r related numbers a_n^(r) are the
exponential coefficients of 1/f(t)^r, and the order-r Appell polynomials

    A_n^(r)(z) = sum_{m=0..n} C(n, m) a_m^(r) z^(n-m)

are the exponential coefficients of e^(zt)/f(t)^r.  With the classical
choices of f this machinery produces Bernoulli, Euler and (hypergeometric)
Cauchy numbers and polynomials.

Four routes compute the same table a_0..a_{n_max}:

* `related_numbers_negative_power`, the production route: a_n = n! [t^n]
  f^(-r), one pass of J.C.P. Miller's recurrence on the (P, L) of
  d_0..d_{n_max}, giving a_n = M_n / Q (`negative_power_numerators`);
* `related_numbers_recurrence`: the paper's O(n^2) convolution recurrence
  a_n = -n! sum_{m<n} D_r(n-m) a_m / m!, the same loop at the power -1 on
  the exponential coefficients n! D_r(n); a witness for r >= 2;
* `related_numbers_composition`: the explicit alternating sum over the
  compositions of n, read off the power triangle of sum_{e>=1} D_r(e) t^e;
* `related_numbers_determinant`: (-1)^n n! times the determinant of the
  unit-superdiagonal Hessenberg matrix over D_r(1)..D_r(n), by Bareiss
  elimination on its band.

D_r(e) = [t^e] f(t)^r comes from the same loop at the power r
(`power_numerators`).  Each route has one integer kernel that returns its
table as numerators over positive denominators, unreduced, and one
function, `run_routes`, feeds them for the `related_numbers_*` functions,
`cross_verify` and the CLI.  `cross_verify` compares the tables by
cross-multiplication, the CLI prints each value from its integer pair,
and only the library's tables are reduced to Fractions, on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping, Optional, Sequence

from .arith import (
    DEFAULT_COMPOSITION_CAP,
    MAX_COMPOSITION_WORK,
    CombinatorialBlowupError,
    StatsDict,
    compositions,  # unused here; perfbench/spans.py wraps engine.compositions
    factorials,
    format_ratio,
    lift,
)
from .determinants import (
    bareiss_det,  # unused here; perfbench/spans.py wraps engine.bareiss_det
    bareiss_numerators,
    hessenberg_leading_minors,
)
from .series import (  # TruncatedSeries for perfbench/spans.py
    TruncatedSeries,
    exponential_power,
    exponential_power_numerators,
)

RECURRENCE = "recurrence"
COMPOSITION = "composition"
DETERMINANT_BAREISS = "determinant:bareiss"
NEGATIVE_POWER = "negative-power"


class NormalizationError(ValueError):
    """A coefficient sequence whose leading entry is not 1."""


@dataclass(frozen=True)
class CoefficientSequence:
    """Exponential coefficients d_0..d_{n_max} of f(t), d_0 = 1, kept as
    integer numerators over one denominator: d_n = P[n] / L."""

    P: tuple[int, ...]
    L: int = 1

    def __post_init__(self):
        if not self.P:
            raise NormalizationError("empty coefficient sequence: d_0 must be 1")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.P[0] != self.L:
            raise NormalizationError(f"d_0 must be 1 (got {format_ratio(self.P[0], self.L)})")

    @classmethod
    def from_values(cls, values: Iterable) -> "CoefficientSequence":
        L, P = lift(list(map(Fraction, values)))
        return cls(tuple(P), L)

    @property
    def d(self) -> tuple[Fraction, ...]:
        """d_0..d_{n_max} as Fractions, built on each call."""
        return _reduced(_over_one(self.P, self.L))

    def prefix(self, n_max: Optional[int] = None) -> tuple[Sequence[int], int]:
        """(P_0..P_{n_max}, L) reduced by gcd(P_0..P_{n_max}) (P_0 = L),
        so that L = lcm(den d_0..d_{n_max})."""
        P = self.P[: self._resolve(n_max) + 1]
        g = math.gcd(*P)
        return [p // g for p in P], self.L // g

    @property
    def n_max(self) -> int:
        return len(self.P) - 1

    def _resolve(self, n_max: Optional[int]) -> int:
        if n_max is None:
            return self.n_max
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        if n_max > self.n_max:
            raise ValueError(
                f"sequence provides d_0..d_{self.n_max}, cannot serve n_max={n_max}"
            )
        return n_max


@dataclass(frozen=True)
class PowerCoefficientTable:
    """D_r(e) = [t^e] f(t)^r for e = 0..n_max (ordinary coefficients)."""

    r: int
    D: tuple[Fraction, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"order r must be >= 1, got {self.r}")
        if not self.D or self.D[0] != 1:
            raise ValueError("D_r(0) must be 1 for a normalized sequence")

    @property
    def n_max(self) -> int:
        return len(self.D) - 1


@dataclass(frozen=True)
class RelatedNumberTable:
    """a_n^(r) for n = 0..n_max, tagged with the algorithm that made it."""

    r: int
    a: tuple[Fraction, ...]
    algorithm: str

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"order r must be >= 1, got {self.r}")
        if not self.a or self.a[0] != 1:
            raise ValueError("a_0 must be 1 for a normalized sequence")

    @property
    def n_max(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class AppellPolynomial:
    """A_n^(r)(z) as the coefficient vector of z^0..z^n (ascending)."""

    n: int
    r: int
    coeffs_in_z: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs_in_z) != self.n + 1:
            raise ValueError("coefficient vector must have length n + 1")


def compute_D(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> PowerCoefficientTable:
    """Ordinary coefficients of f(t)^r: `reduced_power_table` as Fractions."""
    D = _reduced(reduced_power_table(*power_numerators(seq, r, n_max)))
    return PowerCoefficientTable(r=r, D=D)


def power_numerators(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> tuple[list[int], int]:
    """(M, Q) with n! D_r(n) = M_n / Q for n = 0..n_max: Miller's loop on
    d_0..d_{n_max} at the power r, before any Fraction is built."""
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")
    P, L = seq.prefix(n_max)
    return exponential_power(P, r, L=L)


def reduced_power_table(M: Sequence[int], Q: int) -> tuple[list[int], list[int]]:
    """D_r(n) = M_n / (Q n!) from `power_numerators`, as numerators over
    positive denominators in lowest terms: one gcd each, no Fraction."""
    num, den = [], []
    for m, f in zip(M, factorials(len(M) - 1)):
        d = Q * f
        g = math.gcd(m, d)
        num.append(m // g)
        den.append(d // g)
    return num, den


def recurrence_values(
    D: Sequence[Fraction], n_max: int, stats: Optional[StatsDict] = None
) -> list[Fraction]:
    """a_0..a_{n_max} of the convolution recurrence on a D table, as
    (-1)^n n! det_n over the leading minors of `hessenberg_leading_minors`
    (no route calls it; perfbench/spans.py wraps engine.recurrence_values)."""
    minors = hessenberg_leading_minors(D, n_max, stats=stats)
    return [
        -f * x if n & 1 else f * x for n, (f, x) in enumerate(zip(factorials(n_max), minors))
    ]


def _reduced(pair: tuple[Sequence[int], Sequence[int]]) -> tuple[Fraction, ...]:
    """The values num[n] / den[n] of an integer pair, each reduced once."""
    return tuple(map(Fraction, *pair))


def related_numbers_recurrence(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """The paper's O(n^2) recurrence over D_r, a_0 = 1; a witness: the
    Miller loop at the power -1 on f^r's own (M, Q), n! D_r(n) = M_n / Q."""
    return _route_table(seq, r, n_max, RECURRENCE)


def check_composition_cap(n_max: int, cap: int) -> None:
    """Refuse a composition table past `cap` up front, rather than after
    grinding through the small n; raises CombinatorialBlowupError."""
    if n_max > cap:
        raise CombinatorialBlowupError(
            f"composition route cannot serve n_max={n_max}: "
            f"enumeration cap is {cap}"
        )


def composition_reach(num: Sequence[int], den: Sequence[int], n_max: int) -> int:
    """Largest m <= n_max with m bits(max_{e<=m} |N_e|) at most
    MAX_COMPOSITION_WORK, where N_e = D_r(e) L_m over
    L_m = lcm(den D_r(1..m)).  The product never falls as m grows."""
    L, top = 1, 0  # L_m and the largest |N_e| over it
    for m in range(1, n_max + 1):
        up = den[m] // math.gcd(L, den[m])
        L *= up
        top = max(top * up, abs(num[m]) * (L // den[m]))
        if m * top.bit_length() > MAX_COMPOSITION_WORK:
            return m - 1
    return n_max


def composition_numerators(
    num: Sequence[int], den: Sequence[int], n_max: int
) -> tuple[list[int], list[int]]:
    """The composition route's a_0..a_{n_max} from D_r(e) = num[e] / den[e]
    in lowest terms, as (n! S_n, L^n): see `related_numbers_composition`."""
    L = math.lcm(*den[1 : n_max + 1])
    N = [-x * (L // d) for x, d in zip(num[1 : n_max + 1], den[1 : n_max + 1])]
    L_pow = [L**i for i in range(n_max + 1)]
    S = [1] + [0] * n_max
    row = N  # row[m] = [t^(k+m)] (-N(t))^k, here for k = 1
    for k in range(1, n_max + 1):
        S[k:] = map(add, S[k:], map(mul, row, L_pow))
        row = [sum(map(mul, N[: m + 1], row[m::-1])) for m in range(len(row) - 1)]
    return list(map(mul, factorials(n_max), S)), L_pow


def related_numbers_composition(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    cap: int = DEFAULT_COMPOSITION_CAP,
) -> RelatedNumberTable:
    """Explicit alternating sum over the compositions of each n.

    The strict compositions e_1+..+e_k = n sum D_r(e_1)...D_r(e_k) to
    [t^n] h^k for h(t) = sum_{e>=1} D_r(e) t^e, so a_n = n! sum_k (-1)^k
    [t^n] h^k: Faa di Bruno's formula for 1/(1 + h) (Comtet, Advanced
    Combinatorics, 3.3).  Every D_r(e) is lifted to N_e / L over one
    L = lcm(den D_r(1..n_max)); row k+1 of the power triangle of -N(t)
    is row k convolved with -N, one dot product per entry, O(n_max^3)
    products over integers.  Entry [t^n] of row k enters the sum S_n
    scaled by L^(n-k), and a_n = n! S_n / L^n.  It reads only the D
    table: no Miller loop, no determinant.  n_max past `cap`, or past
    the work bound of `composition_reach`, raises
    CombinatorialBlowupError before the triangle is built.
    """
    check_composition_cap(seq._resolve(n_max), cap)
    return _route_table(seq, r, n_max, COMPOSITION)


def determinant_numerators(
    num: Sequence[int],
    den: Sequence[int],
    n_max: int,
    stats: Optional[StatsDict] = None,
) -> tuple[list[int], list[int]]:
    """The determinant route's a_0..a_{n_max} from D_r(e) = num[e] / den[e]
    in lowest terms, as ((-1)^n n! p_n, s_n) over the leading minors
    det_n = p_n / s_n of `bareiss_numerators`."""
    pivots, scales = bareiss_numerators(num, den, n_max, stats=stats)
    signed = [
        -f * p if n & 1 else f * p for n, (f, p) in enumerate(zip(factorials(n_max), pivots))
    ]
    return signed, scales


def related_numbers_determinant(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """a_n^(r) = (-1)^n n! det(M_n) over the Hessenberg matrix of D values.

    Every leading minor M_1..M_{n_max} comes from one O(n^2) pass of
    fraction-free elimination on the band of M_{n_max}, which never
    builds the matrix and shares no code with the Miller loop, though
    it is the cofactor recurrence run forward (see `determinants`).
    """
    return _route_table(seq, r, n_max, DETERMINANT_BAREISS)


# unused here; perfbench/spans.py wraps engine.related_numbers_inversion
related_numbers_inversion = related_numbers_recurrence


def related_numbers_negative_power(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """Production path: a_n^(r) = n! [t^n] f^(-r), by Miller's recurrence
    on d_0..d_{n_max} themselves, in one pass over exponential coefficients.

    It never sees the D table, so as a witness it checks D_r too.  At
    r = 1 it is the D-recurrence itself, run on D_1 = f, and
    `cross_verify` runs it once; for r >= 2 it is an algebraically
    different recurrence.
    """
    return _route_table(seq, r, n_max, NEGATIVE_POWER)


def negative_power_numerators(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    stats: Optional[StatsDict] = None,
) -> tuple[list[int], int]:
    """(M, Q) with a_n^(r) = M_n / Q for n = 0..n_max: the state Miller's
    loop for f^(-r) ends in, Q = lcm(den a_0..a_{n_max}), before any
    Fraction is built.  `stats` gets "max_num_bits": the bit length of
    the loop's largest dot product |S|."""
    P, L = seq.prefix(n_max)
    return exponential_power(P, -r, stats, L=L)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of running every independent route on one (sequence, r) pair.

    `pairs` maps each route to its table as it was compared: (num, den),
    integer numerators over positive denominators.  `table` reduces one
    route's values to Fractions on demand.
    """

    r: int
    n_max: int
    pairs: Mapping[str, tuple[Sequence[int], Sequence[int]]] = field(repr=False)
    first_mismatch: Optional[int]

    @property
    def agree(self) -> bool:
        return self.first_mismatch is None

    @property
    def coverage(self) -> dict[str, int]:
        """Largest n each route computed; every route starts at n = 0."""
        return {name: len(num) - 1 for name, (num, _) in self.pairs.items()}

    def table(self, name: str) -> tuple[Fraction, ...]:
        """Route `name`'s values, each reduced once."""
        return _reduced(self.pairs[name])

    def describe(self) -> str:
        if self.agree:
            text = (
                f"all {len(self.pairs)} routes agree for r={self.r}, "
                f"n <= {self.n_max}"
            )
            for name, top in self.coverage.items():
                if top < self.n_max:
                    text += f", {name} only n <= {top}"
            return text
        return f"routes disagree first at n={self.first_mismatch} (r={self.r})"


def first_disagreement_pairs(
    pairs: Mapping[str, tuple[Sequence[int], Sequence[int]]],
) -> Optional[int]:
    """Smallest index where the given tables differ, or None if they agree.

    Each table is (num, den), the values num[n] / den[n] with den[n] > 0
    in any terms: u/d = u'/d' exactly when u d' = u' d.  Tables may have
    different lengths; each is compared with the longest one on the
    indices it contains.
    """
    ref = max(pairs.values(), key=lambda pair: len(pair[0]))
    ref_num, ref_den = ref
    first = None
    for pair in pairs.values():
        if pair is ref:
            continue
        num, den = pair
        for n, (x, y) in enumerate(zip(map(mul, num, ref_den), map(mul, ref_num, den))):
            if x != y:
                if first is None or n < first:
                    first = n
                break
    return first


def cross_verify(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    cap: Optional[int] = DEFAULT_COMPOSITION_CAP,
) -> VerificationReport:
    """Run every independent route once and compare exactly, index by index.

    At r = 1 the D-recurrence is the negative power's own loop on the same
    input, so it is left out and three routes remain.  The composition
    route is only taken up to `cap` and `composition_reach`; the others
    cover the full range.  With cap None the composition table must be
    whole (see `run_routes`).  No value is reduced; disagreement is
    reported, not raised.
    """
    routes = (DETERMINANT_BAREISS, COMPOSITION, NEGATIVE_POWER)
    return run_routes(seq, r, n_max, (RECURRENCE, *routes) if r > 1 else routes, cap)


def run_routes(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int],
    routes: Sequence[str],
    cap: Optional[int] = None,
) -> VerificationReport:
    """Each of `routes` run once on (seq, r) to n_max, compared as
    `cross_verify` compares them; the one place that feeds the routes.

    f^r is computed once, as (M, Q), when a D-based route is asked for:
    the D-recurrence runs the Miller loop on M over Q, and Bareiss and
    the composition sum read each D_r(e) = M_e / (Q e!) reduced by one
    gcd.  The negative power starts from f, so a fault in D_r shows too.
    The composition leg runs to min(n_max, cap), cut short at its
    `composition_reach`; with cap None it must reach n_max, and a work
    bound short of it raises CombinatorialBlowupError as soon as D_r is
    known, before any route runs.
    """
    n_max = seq._resolve(n_max)
    pairs = {}
    if set(routes) - {NEGATIVE_POWER}:
        M, Q = power_numerators(seq, r, n_max)
        num, den = reduced_power_table(M, Q)
    if COMPOSITION in routes:
        reach = composition_reach(num, den, n_max if cap is None else min(n_max, cap))
        if cap is None and reach < n_max:
            raise CombinatorialBlowupError(
                f"composition route cannot serve n_max={n_max}: n times the bit length "
                f"of the lifted D_r(1..n) passes {MAX_COMPOSITION_WORK} at n={reach + 1}"
            )
    if RECURRENCE in routes:
        pairs[RECURRENCE] = _over_one(*exponential_power_numerators(M, Q, -1))
    if DETERMINANT_BAREISS in routes:
        pairs[DETERMINANT_BAREISS] = determinant_numerators(num, den, n_max)
    if COMPOSITION in routes:
        pairs[COMPOSITION] = composition_numerators(num, den, reach)
    if NEGATIVE_POWER in routes:
        pairs[NEGATIVE_POWER] = _over_one(*negative_power_numerators(seq, r, n_max))
    return VerificationReport(
        r=r, n_max=n_max, pairs=pairs, first_mismatch=first_disagreement_pairs(pairs)
    )


def _route_table(
    seq: CoefficientSequence, r: int, n_max: Optional[int], route: str
) -> RelatedNumberTable:
    """`route`'s table alone, its composition leg whole, each value
    reduced once."""
    a = run_routes(seq, r, n_max, (route,)).table(route)
    return RelatedNumberTable(r=r, a=a, algorithm=route)


def _over_one(M: list[int], Q: int) -> tuple[list[int], list[int]]:
    """The loop's (M, Q) as a table pair: every M_n over the same Q."""
    return M, [Q] * len(M)


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
