"""Related numbers and polynomials of higher-order Appell sequences.

A normalized coefficient sequence d_0=1, d_1, d_2, ... defines the series
f(t) = sum(d_n t^n / n!).  The order-r related numbers a_n^(r) are the
exponential coefficients of 1/f(t)^r, and the order-r Appell polynomials

    A_n^(r)(z) = sum_{m=0..n} C(n, m) a_m^(r) z^(n-m)

are the exponential coefficients of e^(zt)/f(t)^r.  With the classical
choices of f this machinery produces Bernoulli, Euler and (hypergeometric)
Cauchy numbers and polynomials.

Three independent algorithms compute the same table a_0..a_{n_max}:

* `related_numbers_recurrence`: the O(n^2) convolution recurrence
  a_n = -n! sum_{m<n} D_r(n-m) a_m / m!, the production path;
* `related_numbers_composition`: the explicit alternating sum
  a_n = n! sum_k (-1)^k sum over strict compositions e_1+..+e_k = n of
  D_r(e_1)...D_r(e_k), with the compositions grouped by the partition
  they sort to, so it costs p(n) terms per n; a small-n oracle;
* `related_numbers_determinant`: (-1)^n n! times the determinant of the
  unit-superdiagonal Hessenberg matrix over D_r(1)..D_r(n), with a choice
  of two kernels.

Here D_r(e) is the ordinary coefficient of t^e in f(t)^r, equal to the
weak-composition sum over d_{i_1}..d_{i_r}/(i_1!..i_r!).  `cross_verify`
runs every route (plus direct series inversion of f^r) and reports the
first disagreement, if any; agreement must be exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .arith import (
    DEFAULT_COMPOSITION_CAP,
    CombinatorialBlowupError,
    binomial,
    compositions,  # unused here; perfbench/spans.py wraps engine.compositions
    partitions,
)
from .determinants import (
    StatsDict,
    bareiss_det,
    hessenberg_leading_minors,
    related_matrix,
)
from .series import TruncatedSeries

_ZERO = Fraction(0)
_ONE = Fraction(1)

RECURRENCE = "recurrence"
COMPOSITION = "composition"
DETERMINANT_HESSENBERG = "determinant:hessenberg"
DETERMINANT_BAREISS = "determinant:bareiss"
INVERSION = "inversion"


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

    def ordinary(self, n_max: Optional[int] = None) -> TruncatedSeries:
        """f(t) as an ordinary-coefficient series: c_m = d_m / m!."""
        n_max = self._resolve(n_max)
        coeffs = []
        fact = 1
        for m, dm in enumerate(self.d[: n_max + 1]):
            if m:
                fact *= m
            coeffs.append(dm / fact)
        return TruncatedSeries(coeffs)

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
    """Ordinary coefficients of f(t)^r via truncated series power."""
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")
    n_max = seq._resolve(n_max)
    powered = seq.ordinary(n_max) ** r
    return PowerCoefficientTable(r=r, D=powered.coeffs)


def _factorials(n_max: int) -> list[int]:
    fact = [1] * (n_max + 1)
    for n in range(1, n_max + 1):
        fact[n] = fact[n - 1] * n
    return fact


def recurrence_values(
    D: Sequence[Fraction], n_max: int, stats: Optional[StatsDict] = None
) -> list[Fraction]:
    """a_0..a_{n_max} from a D table by the convolution recurrence."""
    if len(D) <= n_max:
        raise ValueError(f"need D(0)..D({n_max}), got only {len(D)} entries")
    fact = _factorials(n_max)
    a = [_ONE]
    a_over_fact = [_ONE]  # a_m / m!
    max_bits = 0
    track = stats is not None
    for n in range(1, n_max + 1):
        s = _ZERO
        for m in range(n):
            Dnm = D[n - m]
            if Dnm:
                s += Dnm * a_over_fact[m]
            if track:
                b = s.numerator.bit_length()
                if b > max_bits:
                    max_bits = b
        an = -fact[n] * s
        a.append(an)
        a_over_fact.append(-s)  # a_n / n! without a second division
    if track:
        stats["max_num_bits"] = max(stats.get("max_num_bits", 0), max_bits)
    return a


def related_numbers_recurrence(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """Production path: O(n^2) recurrence from the D table, a_0 = 1."""
    n_max = seq._resolve(n_max)
    D = compute_D(seq, r, n_max).D
    return RelatedNumberTable(r=r, a=tuple(recurrence_values(D, n_max)), algorithm=RECURRENCE)


def related_numbers_composition(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    cap: int = DEFAULT_COMPOSITION_CAP,
) -> RelatedNumberTable:
    """Explicit alternating sum over the strict compositions of each n.

    The 2^(n-1) compositions are grouped by the partition lambda they sort
    to, Faa di Bruno style:

        a_n = n! sum_lambda (-1)^l(lambda) l(lambda)!/prod_i m_i(lambda)!
                            * prod_j D_r(lambda_j),

    where l(lambda) is the number of parts and m_i(lambda) the number of
    parts equal to i.  It is an oracle for small n, not a production path;
    n_max past `cap` raises CombinatorialBlowupError.
    """
    n_max = seq._resolve(n_max)
    if n_max > cap:
        # refuse up front rather than after grinding through the small n
        raise CombinatorialBlowupError(
            f"composition route cannot serve n_max={n_max}: "
            f"enumeration cap is {cap}"
        )
    D = compute_D(seq, r, n_max).D
    fact = _factorials(n_max)
    a = [_ONE]
    for n in range(1, n_max + 1):
        total = _ZERO
        for parts in partitions(n, cap=cap):
            # the number of compositions that sort to this partition
            orderings = fact[len(parts)]
            prod = _ONE
            for e, m in Counter(parts).items():
                orderings //= fact[m]
                prod *= D[e] ** m
            term = orderings * prod
            total = total - term if len(parts) & 1 else total + term
        a.append(fact[n] * total)
    return RelatedNumberTable(r=r, a=tuple(a), algorithm=COMPOSITION)


def related_numbers_determinant(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    kernel: str = "hessenberg",
    stats: Optional[StatsDict] = None,
) -> RelatedNumberTable:
    """a_n^(r) = (-1)^n n! det(M_n) over the Hessenberg matrix of D values.

    kernel "hessenberg" evaluates all n in one O(n^2) minor-recurrence
    pass; kernel "bareiss" runs an independent fraction-free elimination
    per n.
    """
    n_max = seq._resolve(n_max)
    D = compute_D(seq, r, n_max).D
    fact = _factorials(n_max)
    if kernel == "hessenberg":
        dets = hessenberg_leading_minors(D, n_max, stats=stats)
        a = [
            fact[n] * dets[n] if n % 2 == 0 else -fact[n] * dets[n]
            for n in range(n_max + 1)
        ]
        tag = DETERMINANT_HESSENBERG
    elif kernel == "bareiss":
        a = [_ONE]
        for n in range(1, n_max + 1):
            det = bareiss_det(related_matrix(D, n), stats=stats)
            a.append(fact[n] * det if n % 2 == 0 else -fact[n] * det)
        tag = DETERMINANT_BAREISS
    else:
        raise ValueError(f"unknown determinant kernel {kernel!r}")
    return RelatedNumberTable(r=r, a=tuple(a), algorithm=tag)


def related_numbers_inversion(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """a_n^(r) = n! [t^n] (f^r)^(-1), by direct truncated-series inversion."""
    n_max = seq._resolve(n_max)
    inv = (seq.ordinary(n_max) ** r).inverse()
    fact = _factorials(n_max)
    a = tuple(fact[n] * inv.coeffs[n] for n in range(n_max + 1))
    return RelatedNumberTable(r=r, a=a, algorithm=INVERSION)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of running every algorithm on one (sequence, r) pair."""

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
    """Run all algorithms and compare exactly, index by index.

    The composition route is only taken up to `cap`; the other four routes
    cover the full range.  Disagreement is reported, not raised.
    """
    n_max = seq._resolve(n_max)
    tables = {
        RECURRENCE: related_numbers_recurrence(seq, r, n_max).a,
        DETERMINANT_HESSENBERG: related_numbers_determinant(
            seq, r, n_max, kernel="hessenberg"
        ).a,
        DETERMINANT_BAREISS: related_numbers_determinant(
            seq, r, n_max, kernel="bareiss"
        ).a,
        INVERSION: related_numbers_inversion(seq, r, n_max).a,
        COMPOSITION: related_numbers_composition(seq, r, min(n_max, cap), cap=cap).a,
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


def power_sum_check(n: int, m: int) -> tuple[Fraction, Fraction]:
    """Both sides of sum_{j=1..m} j^n = (B_{n+1}(m+1) - B_{n+1}) / (n+1).

    The left side is direct summation; the right side goes through the
    classical Bernoulli family at order 1.  The two must be equal.
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    from .families import FamilySpec, family_coefficients

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


def alt_power_sum_check(n: int, m: int) -> tuple[Fraction, Fraction]:
    """Both sides of the alternating power sum identity

        sum_{j=1..m} (-1)^(j+1) j^n = -((-1)^m E_n(m+1) + E_n(0)) / 2

    through the Euler family at order 1.  The two must be equal.
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    from .families import FamilySpec, family_coefficients

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
