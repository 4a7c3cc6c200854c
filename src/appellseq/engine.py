"""Related numbers and polynomials of higher-order Appell sequences.

A normalized coefficient sequence d_0=1, d_1, d_2, ... defines the series
f(t) = sum(d_n t^n / n!).  The order-r related numbers a_n^(r) are the
exponential coefficients of 1/f(t)^r, and the order-r Appell polynomials

    A_n^(r)(z) = sum_{m=0..n} C(n, m) a_m^(r) z^(n-m)

are the exponential coefficients of e^(zt)/f(t)^r.  With the classical
choices of f this machinery produces Bernoulli, Euler and (hypergeometric)
Cauchy numbers and polynomials.

Four algorithms compute the same table a_0..a_{n_max}:

* `related_numbers_negative_power`: a_n = n! [t^n] f^(-r), the production
  path: one pass of J.C.P. Miller's recurrence for f^(-r), run by
  `series.exponential_power` directly on d_0..d_{n_max}; it never builds
  D_r and never leaves exponential form;
* `related_numbers_recurrence`: the paper's O(n^2) convolution recurrence
  a_n = -n! sum_{m<n} D_r(n-m) a_m / m!, the inverse of f^r run by
  `TruncatedSeries.inverse` (`related_numbers_inversion` and the
  Hessenberg determinant kernel are aliases of it); a witness;
* `related_numbers_composition`: the explicit alternating sum
  a_n = n! sum_k (-1)^k sum over strict compositions e_1+..+e_k = n of
  D_r(e_1)...D_r(e_k), with the compositions grouped by the partition
  they sort to, so it costs p(n) terms per n, summed over integers in
  one walk of the partition tree for every n <= n_max; a small-n oracle;
* `related_numbers_determinant`: (-1)^n n! times the determinant of the
  unit-superdiagonal Hessenberg matrix over D_r(1)..D_r(n), every n from
  one pass of Bareiss elimination on the matrix's band: O(n^2)
  division-free integer steps, read straight from the D table.

Here D_r(e) is the ordinary coefficient of t^e in f(t)^r, equal to the
weak-composition sum over d_{i_1}..d_{i_r}/(i_1!..i_r!); `compute_D`
runs Miller's loop on d_n at the power r.  f^(-r), f^r and the inverse
of D_r all run in that one loop; the composition sum lifts D_r to one
common denominator itself.
`cross_verify` runs the three D-based routes on one D_r table and the
negative power on f, which checks D_r, and reports the first
disagreement, if any; agreement must be exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .arith import (
    DEFAULT_COMPOSITION_CAP,
    CombinatorialBlowupError,
    StatsDict,
    binomial,
    compositions,  # unused here; perfbench/spans.py wraps engine.compositions
)
from .determinants import (
    bareiss_det,  # unused here; perfbench/spans.py wraps engine.bareiss_det
    bareiss_leading_minors,
    hessenberg_leading_minors,
)
from .series import TruncatedSeries, exponential_power

_ZERO = Fraction(0)
_ONE = Fraction(1)

RECURRENCE = "recurrence"
COMPOSITION = "composition"
DETERMINANT_HESSENBERG = "determinant:hessenberg"
DETERMINANT_BAREISS = "determinant:bareiss"
INVERSION = "inversion"
NEGATIVE_POWER = "negative-power"


class NormalizationError(ValueError):
    """A coefficient sequence whose leading entry is not 1."""


@dataclass(frozen=True)
class CoefficientSequence:
    """Exponential coefficients d_0..d_{n_max} of f(t), with d_0 = 1."""

    d: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.d:
            raise NormalizationError("empty coefficient sequence: d_0 must be 1")
        if self.d[0] != 1:
            raise NormalizationError(f"d_0 must be 1 (got {self.d[0]})")

    @classmethod
    def from_values(cls, values: Iterable) -> "CoefficientSequence":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def n_max(self) -> int:
        return len(self.d) - 1

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
    """Ordinary coefficients of f(t)^r: Miller's loop on d_0..d_{n_max},
    divided by n! once."""
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")
    n_max = seq._resolve(n_max)
    G = exponential_power(seq.d[: n_max + 1], r)
    return PowerCoefficientTable(r=r, D=tuple(g / f for g, f in zip(G, _factorials(n_max))))


def _factorials(n_max: int) -> list[int]:
    fact = [1] * (n_max + 1)
    for n in range(1, n_max + 1):
        fact[n] = fact[n - 1] * n
    return fact


def _exponential(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """n! c_n for the ordinary coefficients c_0, c_1, ... of a series."""
    return [f * c for f, c in zip(_factorials(len(coeffs) - 1), coeffs)]


def recurrence_values(
    D: Sequence[Fraction], n_max: int, stats: Optional[StatsDict] = None
) -> list[Fraction]:
    """a_0..a_{n_max} from a D table by the convolution recurrence.

    a_n/n! = -sum_{m<n} D(n-m) a_m/m! is [t^n] of the inverse of
    1 + sum_{k>=1} D(k) t^k (D(0) is not read).  `stats` gets
    "max_num_bits" from `TruncatedSeries.inverse`: the bit length of the
    largest integer dot product |S| of its Miller loop.
    """
    if len(D) <= n_max:
        raise ValueError(f"need D(0)..D({n_max}), got only {len(D)} entries")
    return _exponential(TruncatedSeries((_ONE, *D[1 : n_max + 1])).inverse(stats).coeffs)


def _power_table(
    seq: CoefficientSequence, r: int, n_max: int, D: Optional[Sequence[Fraction]]
) -> Sequence[Fraction]:
    """The given D table, checked to reach n_max, or f^r computed afresh."""
    if D is None:
        return compute_D(seq, r, n_max).D
    if len(D) <= n_max:
        raise ValueError(f"need D(0)..D({n_max}), got only {len(D)} entries")
    return D


def related_numbers_recurrence(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    D: Optional[Sequence[Fraction]] = None,
) -> RelatedNumberTable:
    """The paper's O(n^2) recurrence from the D table, a_0 = 1; a witness.

    Pass `D` (D_r(0)..D_r(n_max) at least) to reuse a table already
    computed for this sequence and order; the other routes take it too.
    """
    n_max = seq._resolve(n_max)
    D = _power_table(seq, r, n_max, D)
    return RelatedNumberTable(r=r, a=tuple(recurrence_values(D, n_max)), algorithm=RECURRENCE)


def check_composition_cap(n_max: int, cap: int) -> None:
    """Refuse a composition table past `cap` up front, rather than after
    grinding through the small n; raises CombinatorialBlowupError."""
    if n_max > cap:
        raise CombinatorialBlowupError(
            f"composition route cannot serve n_max={n_max}: "
            f"enumeration cap is {cap}"
        )


def related_numbers_composition(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    cap: int = DEFAULT_COMPOSITION_CAP,
    D: Optional[Sequence[Fraction]] = None,
) -> RelatedNumberTable:
    """Explicit alternating sum over the partitions of each n.

    The 2^(n-1) strict compositions of n are grouped by the partition
    lambda they sort to, Faa di Bruno style:

        a_n = n! sum_lambda (-1)^l(lambda) l(lambda)!/prod_i m_i(lambda)!
                            * prod_j D_r(lambda_j),

    where l(lambda) is the number of parts and m_i(lambda) the number of
    parts equal to i.  Every D_r(k) is lifted to N_k / L over one
    L = lcm(den D_r(1..n_max)), and one walk of the tree whose nodes are
    the partitions of every n <= n_max (parts non-increasing, each child
    appends one part) carries l, the run m of the last part, the weight
    l!/prod m_i! and the integer product of the N_k down to each node; a
    node adds its weighted product to acc[n][l], and
    a_n = n! sum_l (-1)^l acc[n][l] L^(n-l) / L^n.  Siblings share only
    their parent's prefix product, so this is still one term per
    partition.  It is an oracle for small n, not a production path;
    n_max past `cap` raises CombinatorialBlowupError.
    """
    n_max = seq._resolve(n_max)
    check_composition_cap(n_max, cap)
    D = _power_table(seq, r, n_max, D)
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
    fact = _factorials(n_max)
    L_pow = [L**i for i in range(n_max + 1)]
    a = [_ONE]
    for n in range(1, n_max + 1):
        total = sum(
            (-c if k & 1 else c) * L_pow[n - k] for k, c in enumerate(acc[n]) if c
        )
        a.append(Fraction(fact[n] * total, L_pow[n]))
    return RelatedNumberTable(r=r, a=tuple(a), algorithm=COMPOSITION)


def related_numbers_determinant(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    kernel: str = "hessenberg",
    stats: Optional[StatsDict] = None,
    D: Optional[Sequence[Fraction]] = None,
) -> RelatedNumberTable:
    """a_n^(r) = (-1)^n n! det(M_n) over the Hessenberg matrix of D values.

    Both kernels get every leading minor M_1..M_{n_max} from one O(n^2)
    pass: kernel "hessenberg" from the recurrence's kernel, kernel
    "bareiss" by independent fraction-free elimination on the band of
    M_{n_max}, which never builds the matrix.
    """
    n_max = seq._resolve(n_max)
    D = _power_table(seq, r, n_max, D)
    if kernel == "hessenberg":
        dets = hessenberg_leading_minors(D, n_max, stats=stats)
        tag = DETERMINANT_HESSENBERG
    elif kernel == "bareiss":
        dets = bareiss_leading_minors(D, n_max, stats=stats)
        tag = DETERMINANT_BAREISS
    else:
        raise ValueError(f"unknown determinant kernel {kernel!r}")
    a = _exponential([-x if n & 1 else x for n, x in enumerate(dets)])
    return RelatedNumberTable(r=r, a=tuple(a), algorithm=tag)


def related_numbers_inversion(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    D: Optional[Sequence[Fraction]] = None,
) -> RelatedNumberTable:
    """a_n^(r) = n! [t^n] (f^r)^(-1): the recurrence's table, tagged INVERSION."""
    return replace(related_numbers_recurrence(seq, r, n_max, D=D), algorithm=INVERSION)


def related_numbers_negative_power(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    stats: Optional[StatsDict] = None,
) -> RelatedNumberTable:
    """Production path: a_n^(r) = n! [t^n] f^(-r), by Miller's recurrence
    on d_0..d_{n_max} themselves, in one pass over exponential coefficients.

    It never sees the D table, so as a witness it checks D_r too.  At
    r = 1 every Miller weight ((r+1)k - n)/n is -1: it is the D-recurrence's
    own sum run on f, and checks only D_1 = f.  For r >= 2 it is an
    algebraically different recurrence.  `stats` gets "max_num_bits" as
    in `recurrence_values`.
    """
    n_max = seq._resolve(n_max)
    a = exponential_power(seq.d[: n_max + 1], -r, stats)
    return RelatedNumberTable(r=r, a=tuple(a), algorithm=NEGATIVE_POWER)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of running every independent route on one (sequence, r) pair."""

    r: int
    n_max: int
    tables: Mapping[str, tuple[Fraction, ...]] = field(repr=False)
    first_mismatch: Optional[int]

    @property
    def agree(self) -> bool:
        return self.first_mismatch is None

    @property
    def coverage(self) -> dict[str, int]:
        """Largest n each route computed; every route starts at n = 0."""
        return {name: len(table) - 1 for name, table in self.tables.items()}

    def describe(self) -> str:
        if self.agree:
            text = (
                f"all {len(self.tables)} routes agree for r={self.r}, "
                f"n <= {self.n_max}"
            )
            for name, top in self.coverage.items():
                if top < self.n_max:
                    text += f", {name} only n <= {top}"
            return text
        return f"routes disagree first at n={self.first_mismatch} (r={self.r})"


def first_disagreement(tables: Mapping[str, Sequence[Fraction]]) -> Optional[int]:
    """Smallest index where the given tables differ, or None if they agree.

    Tables may have different lengths; each index is compared across every
    table long enough to contain it.
    """
    longest = max(len(t) for t in tables.values())
    for n in range(longest):
        seen = None
        for t in tables.values():
            if n >= len(t):
                continue
            if seen is None:
                seen = t[n]
            elif t[n] != seen:
                return n
    return None


def cross_verify(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    cap: int = DEFAULT_COMPOSITION_CAP,
) -> VerificationReport:
    """Run the four independent routes and compare exactly, index by index.

    f^r is computed once for the routes that start from D; the negative
    power starts from f, so a fault in D_r shows too.  The composition
    route is only taken up to `cap`; the other three cover the full
    range.  Disagreement is reported, not raised.
    """
    n_max = seq._resolve(n_max)
    D = compute_D(seq, r, n_max).D
    tables = {
        RECURRENCE: related_numbers_recurrence(seq, r, n_max, D=D).a,
        DETERMINANT_BAREISS: related_numbers_determinant(
            seq, r, n_max, kernel="bareiss", D=D
        ).a,
        COMPOSITION: related_numbers_composition(
            seq, r, min(n_max, cap), cap=cap, D=D
        ).a,
        NEGATIVE_POWER: related_numbers_negative_power(seq, r, n_max).a,
    }
    return VerificationReport(
        r=r, n_max=n_max, tables=tables, first_mismatch=first_disagreement(tables)
    )


def appell_polynomial(table: RelatedNumberTable, n: int) -> AppellPolynomial:
    """A_n^(r)(z) = sum_m C(n, m) a_m z^(n-m) from a computed table."""
    if n < 0 or n > table.n_max:
        raise ValueError(f"degree {n} outside the table range 0..{table.n_max}")
    coeffs = tuple(binomial(n, j) * table.a[n - j] for j in range(n + 1))
    return AppellPolynomial(n=n, r=table.r, coeffs_in_z=coeffs)


def polynomial_eval(p: AppellPolynomial, z) -> Fraction:
    """Exact value of the polynomial at a rational point (Horner)."""
    z = Fraction(z)
    acc = p.coeffs_in_z[-1]
    for c in reversed(p.coeffs_in_z[:-1]):
        acc = acc * z + c
    return acc


def polynomial_derivative(p: AppellPolynomial) -> tuple[Fraction, ...]:
    """Formal d/dz of the coefficient vector (ascending powers)."""
    if p.n == 0:
        return (_ZERO,)
    return tuple(j * p.coeffs_in_z[j] for j in range(1, p.n + 1))
