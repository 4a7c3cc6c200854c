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
* `related_numbers_composition`: the explicit sum over the compositions
  of n, read off d itself, not D_r (`composition_numerators`);
* `related_numbers_determinant`: (-1)^n n! times the determinant of the
  unit-superdiagonal Hessenberg matrix over D_r(1)..D_r(n), by Bareiss
  elimination on its band (`determinant_numerators`).

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
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul
from typing import Iterable, Mapping, Optional, Sequence

from .arith import (
    DEFAULT_COMPOSITION_CAP,
    MAX_COMPOSITION_WORK,
    CombinatorialBlowupError,
    StatsDict,
    compositions,  # unused here; perfbench/spans.py wraps engine.compositions
    convolve,
    factorials,
    format_ratio,
    lift,
    step_rows,
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


_set = object.__setattr__  # sets a Record's field; only its __init__ calls it


class Record:
    """An immutable value object over the fields its class names in
    `__slots__`, in constructor order: `==` and `hash` over its class and
    those fields, `repr` over the fields but `_hidden`, as a frozen
    dataclass has them, and any attribute assignment or deletion raises
    AttributeError.  Each `__init__` sets its fields once, each with its
    own `_set` call.  `copy` and `pickle` rebuild it through `__init__`."""

    __slots__ = ()
    _hidden = ()

    def __reduce__(self):
        return self.__class__, tuple(map(getattr, repeat(self), self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__reduce__() == other.__reduce__()
        return NotImplemented

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = (f"{k}={getattr(self, k)!r}" for k in self.__slots__ if k not in self._hidden)
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CoefficientSequence(Record):
    """Exponential coefficients d_0..d_{n_max} of f(t), d_0 = 1, kept as
    integer numerators over one denominator: d_n = P[n] / L."""

    __slots__ = ("P", "L")

    def __init__(self, P: tuple[int, ...], L: int = 1):
        if not P:
            raise NormalizationError("empty coefficient sequence: d_0 must be 1")
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        if P[0] != L:
            raise NormalizationError(f"d_0 must be 1 (got {format_ratio(P[0], L)})")
        _set(self, "P", P)
        _set(self, "L", L)

    @classmethod
    def from_values(cls, values: Iterable) -> "CoefficientSequence":
        L, P = lift(list(map(Fraction, values)))
        return cls(tuple(P), L)

    @property
    def d(self) -> tuple[Fraction, ...]:
        """d_0..d_{n_max} as Fractions, built on each call."""
        return _fractions(_over_one(self.P, self.L))

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
        _check_table(self.P, n_max)
        return n_max


class PowerCoefficientTable(Record):
    """D_r(e) = [t^e] f(t)^r for e = 0..n_max (ordinary coefficients)."""

    __slots__ = ("r", "D")

    def __init__(self, r: int, D: tuple[Fraction, ...]):
        _check_order(r)
        if not D or D[0] != 1:
            raise ValueError("D_r(0) must be 1 for a normalized sequence")
        _set(self, "r", r)
        _set(self, "D", D)

    @property
    def n_max(self) -> int:
        return len(self.D) - 1


class RelatedNumberTable(Record):
    """a_n^(r) for n = 0..n_max, tagged with the algorithm that made it."""

    __slots__ = ("r", "a", "algorithm")

    def __init__(self, r: int, a: tuple[Fraction, ...], algorithm: str):
        _check_order(r)
        if not a or a[0] != 1:
            raise ValueError("a_0 must be 1 for a normalized sequence")
        _set(self, "r", r)
        _set(self, "a", a)
        _set(self, "algorithm", algorithm)

    @property
    def n_max(self) -> int:
        return len(self.a) - 1


class AppellPolynomial(Record):
    """A_n^(r)(z) as the coefficient vector of z^0..z^n (ascending)."""

    __slots__ = ("n", "r", "coeffs_in_z")

    def __init__(self, n: int, r: int, coeffs_in_z: tuple[Fraction, ...]):
        if len(coeffs_in_z) != n + 1:
            raise ValueError("coefficient vector must have length n + 1")
        _set(self, "n", n)
        _set(self, "r", r)
        _set(self, "coeffs_in_z", coeffs_in_z)


def compute_D(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> PowerCoefficientTable:
    """Ordinary coefficients of f(t)^r: `reduced_power_table` as Fractions."""
    D = _fractions(reduced_power_table(*power_numerators(seq, r, n_max)))
    return PowerCoefficientTable(r=r, D=D)


def power_numerators(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> tuple[list[int], int]:
    """(M, Q) with n! D_r(n) = M_n / Q for n = 0..n_max: Miller's loop on
    d_0..d_{n_max} at the power r, before any Fraction is built."""
    _check_order(r)
    P, L = seq.prefix(n_max)
    return exponential_power_numerators(P, L, r)


def reduced_power_table(M: Sequence[int], Q: int) -> tuple[list[int], list[int]]:
    """D_r(n) = M_n / (Q n!) from `power_numerators` (d_n / n! from
    `seq.prefix`), as numerators over positive denominators in lowest
    terms: one gcd each, no Fraction."""
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
    """a_0..a_{n_max} of the convolution recurrence on a D table: a_n = M_n / Q
    from `exponential_power` at -1 on 1, 1! D(1), 2! D(2), ... (D(0) is not
    read), the cofactor recurrence of the Hessenberg minors times (-1)^n n!.
    No route calls it; perfbench/spans.py wraps it."""
    _check_table(D, n_max)
    E = map(mul, factorials(n_max)[1:], D[1 : n_max + 1])
    M, Q = exponential_power([1, *E], -1, stats)
    return [Fraction(m, Q) for m in M]


def _check_order(r: int) -> None:
    """Refuse an order r below 1."""
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")


def _check_cap(cap: Optional[int]) -> None:
    """Refuse a composition cap below 0 (None: no cap)."""
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")


def _check_table(D: Sequence, n_max: int) -> None:
    """Refuse an n_max below 0 or past the end of the table D[0]..."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if len(D) <= n_max:
        raise ValueError(f"need entries 0..{n_max}, got only {len(D)}")


def hessenberg_leading_minors(
    D: Sequence[Fraction], n_max: int, stats: Optional[StatsDict] = None
) -> list[Fraction]:
    """Leading minors det_n = (-1)^n a_n / n!, n <= n_max, of the Hessenberg
    matrix over D, from `recurrence_values`.  Kept for perfbench/spans.py."""
    a = recurrence_values(D, n_max, stats=stats)
    return [(-x if n & 1 else x) / f for n, (x, f) in enumerate(zip(a, factorials(n_max)))]


def _fractions(pair: tuple[Sequence[int], Sequence[int]]) -> tuple[Fraction, ...]:
    """The values num[n] / den[n] of an integer pair, each reduced once."""
    return tuple(map(Fraction, *pair))


def related_numbers_recurrence(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """The paper's O(n^2) recurrence over D_r, a_0 = 1; a witness: the
    Miller loop at the power -1 on f^r's own (M, Q), n! D_r(n) = M_n / Q."""
    return _route_table(seq, r, n_max, RECURRENCE)


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


def related_numbers_composition(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    cap: Optional[int] = DEFAULT_COMPOSITION_CAP,
) -> RelatedNumberTable:
    """a_n^(r) by the sum over compositions that `composition_numerators`
    states, read off d alone: no f^r, no Miller loop, no determinant.
    n_max past `cap` (None: no cap, as in `cross_verify`), or past the
    work bound of `composition_reach`, raises CombinatorialBlowupError
    before the triangle is built; a cap below 0 raises ValueError."""
    _check_cap(cap)
    n_max = seq._resolve(n_max)
    if cap is not None and n_max > cap:
        raise CombinatorialBlowupError(
            f"composition route cannot serve n_max={n_max}: enumeration cap is {cap}"
        )
    return _route_table(seq, r, n_max, COMPOSITION)


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
    _check_table(num, n_max)
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


def bareiss_det(
    D: Sequence[Fraction], n: int, stats: Optional[StatsDict] = None
) -> Fraction:
    """det of the n x n Hessenberg matrix over D(1)..D(n) (1 at n = 0), from
    `determinant_numerators`.  Kept for perfbench/spans.py."""
    D = D[: n + 1]
    signed, scales = determinant_numerators(
        [x.numerator for x in D], [x.denominator for x in D], n, stats
    )
    return Fraction(signed[-1] * (-1) ** n, scales[-1] * math.factorial(n))


def related_numbers_determinant(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """a_n^(r) = (-1)^n n! det M_n over the Hessenberg matrix M_n of D_r,
    every M_n from one Bareiss pass, `determinant_numerators`."""
    return _route_table(seq, r, n_max, DETERMINANT_BAREISS)


# unused here; perfbench/spans.py wraps engine.related_numbers_inversion
related_numbers_inversion = related_numbers_recurrence


def related_numbers_negative_power(
    seq: CoefficientSequence, r: int, n_max: Optional[int] = None
) -> RelatedNumberTable:
    """Production path: a_n^(r) = n! [t^n] f^(-r), Miller's loop on
    d_0..d_{n_max} themselves.  It never sees the D table, so as a witness
    it checks D_r too; at r = 1 it is the D-recurrence (see `check_routes`)."""
    return _route_table(seq, r, n_max, NEGATIVE_POWER)


def negative_power_numerators(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    stats: Optional[StatsDict] = None,
) -> tuple[list[int], int]:
    """(M, Q) with a_n^(r) = M_n / Q for n = 0..n_max: the state Miller's
    loop for f^(-r) ends in, Q = lcm(den a_0..a_{n_max}), before any
    Fraction is built.  `stats` gets "max_num_bits", the bit length of
    the loop's largest dot product |S|, and "steps" (`StatsDict`).  An
    order r below 1 raises ValueError before the loop runs."""
    _check_order(r)
    P, L = seq.prefix(n_max)
    return exponential_power_numerators(P, L, -r, stats)


class VerificationReport(Record):
    """Outcome of running every independent route on one (sequence, r) pair.

    `pairs` maps each route to its table as it was compared: (num, den),
    integer numerators over positive denominators.  `table` reduces one
    route's values to Fractions on demand.  `repr` leaves `pairs` out.
    """

    __slots__ = ("r", "n_max", "pairs", "first_mismatch")
    _hidden = ("pairs",)

    def __init__(
        self,
        r: int,
        n_max: int,
        pairs: Mapping[str, tuple[Sequence[int], Sequence[int]]],
        first_mismatch: Optional[int],
    ):
        _set(self, "r", r)
        _set(self, "n_max", n_max)
        _set(self, "pairs", pairs)
        _set(self, "first_mismatch", first_mismatch)

    @property
    def agree(self) -> bool:
        return self.first_mismatch is None

    @property
    def coverage(self) -> dict[str, int]:
        """Largest n each route computed; every route starts at n = 0."""
        return {name: len(num) - 1 for name, (num, _) in self.pairs.items()}

    def table(self, name: str) -> tuple[Fraction, ...]:
        """Route `name`'s values, each reduced once."""
        return _fractions(self.pairs[name])

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
    ref_num, ref_den = ref = max(pairs.values(), key=lambda pair: len(pair[0]))
    first = None
    for num, den in (pair for pair in pairs.values() if pair is not ref):
        for n, (x, y) in enumerate(zip(map(mul, num, ref_den), map(mul, ref_num, den))):
            if x != y:
                first = n if first is None else min(first, n)
                break
    return first


def cross_verify(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int] = None,
    cap: Optional[int] = DEFAULT_COMPOSITION_CAP,
) -> VerificationReport:
    """Run every route of `check_routes(r)` once and compare exactly, index
    by index.  The composition route is only taken up to `cap` and
    `composition_reach`; the others cover the full range.  With cap None
    the composition table must be whole (see `run_routes`); a cap below 0
    raises ValueError before any route runs.  No value is reduced;
    disagreement is reported, not raised.
    """
    return run_routes(seq, r, n_max, check_routes(r), cap)


def check_routes(r: int) -> tuple[str, ...]:
    """The routes `--check` runs at order r: at r = 1 the D-recurrence is
    the negative power's own loop on the same input, so it is left out."""
    routes = (DETERMINANT_BAREISS, COMPOSITION, NEGATIVE_POWER)
    return (RECURRENCE, *routes) if r > 1 else routes


def run_routes(
    seq: CoefficientSequence,
    r: int,
    n_max: Optional[int],
    routes: Sequence[str],
    cap: Optional[int] = None,
    stats: Optional[Mapping[str, StatsDict]] = None,
) -> VerificationReport:
    """Each of `routes` run once on (seq, r) to n_max, compared as
    `cross_verify` compares them; the one place that feeds the routes.
    `stats` maps a route to the stats dict its kernel is given; the
    composition sum takes none.

    The composition sum reads f's ordinary coefficients d_e / e!, reduced
    by one gcd each, up to min(n_max, cap) and cut short at their
    `composition_reach`; with cap None it must reach n_max, and a work
    bound short of it raises CombinatorialBlowupError before f^r is built
    and before any route runs.  f^r is computed once, as (M, Q), only for
    the D-recurrence, which runs the Miller loop on M over Q, and for
    Bareiss, which reads each D_r(e) = M_e / (Q e!) reduced by one gcd.
    An order r below 1 raises ValueError before any of that, and so does
    an empty `routes` or a name in it that is not one of the four routes.
    """
    # route -> its table from its kernel's stats, in the report's order; each
    # reads what the lines below compute for the routes asked for
    kernels = {
        RECURRENCE: lambda s: _over_one(*exponential_power_numerators(M, Q, -1, stats=s)),
        DETERMINANT_BAREISS: lambda s: determinant_numerators(
            *reduced_power_table(M, Q), n_max, stats=s
        ),
        COMPOSITION: lambda s: composition_numerators(c_num, c_den, r, reach),
        NEGATIVE_POWER: lambda s: _over_one(*negative_power_numerators(seq, r, n_max, stats=s)),
    }
    if not routes or set(routes) - kernels.keys():
        raise ValueError(f"routes must be one or more of {', '.join(kernels)}, got {routes!r}")
    _check_order(r)
    _check_cap(cap)
    n_max = seq._resolve(n_max)
    if COMPOSITION in routes:
        top = n_max if cap is None else min(n_max, cap)
        c_num, c_den = reduced_power_table(*seq.prefix(top))
        reach = composition_reach(c_num, c_den, top)
        if cap is None and reach < n_max:
            raise CombinatorialBlowupError(
                f"composition route cannot serve n_max={n_max}: n times the bit length "
                f"of the lifted d_1/1!..d_n/n! passes {MAX_COMPOSITION_WORK} at n={reach + 1}"
            )
    if RECURRENCE in routes or DETERMINANT_BAREISS in routes:
        M, Q = power_numerators(seq, r, n_max)
    stats = stats or {}
    pairs = {route: run(stats.get(route)) for route, run in kernels.items() if route in routes}
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
