import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from appellseq.engine import power_numerators
from appellseq.families import FamilySpec, family_coefficients
from appellseq import engine, series
from appellseq.arith import lift
from appellseq.library import NotInvertibleError, TruncatedSeries, exponential_power
from appellseq.witness import identity_reach
from appellseq.series import (
    SHIFT_MAX,
    SHIFT_MIN_TERMS,
    TANGENT_MAX,
    _miller,
    _ordinary,
    _ordinary_pays,
    _reduced,
    _seidel,
    _tangent,
    exponential_power_numerators,
)

import oracles
from oracles import hessenberg_leading_minors, recurrence_values

F = Fraction

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def series_strategy(min_order=0, max_order=8, nonzero_constant=False):
    constant = rationals.filter(lambda x: x != 0) if nonzero_constant else rationals
    return st.builds(
        lambda c0, rest: TruncatedSeries([c0] + rest),
        constant,
        st.lists(rationals, min_size=min_order, max_size=max_order),
    )


class TestConstruction:
    def test_coefficients_coerced_to_fraction(self):
        s = TruncatedSeries([1, 2, F(1, 2)])
        assert all(isinstance(c, Fraction) for c in s.coeffs)
        assert s.coeffs == (1, 2, F(1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_immutable(self):
        s = TruncatedSeries([1, 2])
        with pytest.raises(AttributeError):
            s.coeffs = (F(3),)

    def test_field_cannot_be_deleted(self):
        s = TruncatedSeries([1, 2])
        with pytest.raises(AttributeError):
            del s.coeffs
        assert s.coeffs == (1, 2)

    def test_copy_and_pickle_round_trip_but_no_hash(self):
        s = TruncatedSeries([1, F(-1, 2), 0])
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert type(twin) is TruncatedSeries and twin == s
            assert twin.coeffs == s.coeffs and twin != TruncatedSeries([1, F(-1, 2)])
        with pytest.raises(TypeError, match="unhashable type: 'TruncatedSeries'"):
            hash(s)

    def test_order(self):
        assert TruncatedSeries([1]).order == 0
        assert TruncatedSeries([1, 2, 3]).order == 2

    def test_equality(self):
        a = TruncatedSeries([1, F(1, 2)])
        b = TruncatedSeries([F(2, 2), F(2, 4)])
        assert a == b
        assert a != TruncatedSeries([1, F(1, 2), 0])  # different order
        assert a != "not a series"

    def test_repr_shows_coefficients(self):
        assert repr(TruncatedSeries([1, F(-1, 2)])) == "TruncatedSeries([1, -1/2])"


class TestTruncation:
    def test_truncate_shortens(self):
        s = TruncatedSeries([1, 2, 3, 4])
        assert s.truncate(1).coeffs == (1, 2)

    def test_truncate_noop_returns_self(self):
        s = TruncatedSeries([1, 2])
        assert s.truncate(5) is s
        assert s.truncate(1) is s

    def test_truncate_negative_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1]).truncate(-1)

    def test_shorter_operand_wins_add(self):
        a = TruncatedSeries([1, 2, 3, 4, 5])
        b = TruncatedSeries([1, 1, 1])
        assert (a + b).order == 2
        assert (a + b).coeffs == (2, 3, 4)
        assert (a - b).coeffs == (0, 1, 2)

    def test_shorter_operand_wins_mul(self):
        a = TruncatedSeries([1, 2, 3, 4, 5])
        b = TruncatedSeries([1, 1])
        assert (a * b).order == 1


class TestArithmetic:
    def test_neg(self):
        assert (-TruncatedSeries([1, -2])).coeffs == (-1, 2)

    def test_scalar_mul_both_sides(self):
        s = TruncatedSeries([1, F(1, 2)])
        assert (s * 2).coeffs == (2, 1)
        assert (2 * s).coeffs == (2, 1)
        assert (s * F(1, 3)).coeffs == (F(1, 3), F(1, 6))

    def test_known_product(self):
        # (1 + t)(1 - t) = 1 - t^2
        a = TruncatedSeries([1, 1, 0])
        b = TruncatedSeries([1, -1, 0])
        assert (a * b).coeffs == (1, 0, -1)

    def test_exponential_square(self):
        # e^t * e^t = e^(2t): ordinary coefficients 2^n / n!
        e = TruncatedSeries([1, 1, F(1, 2), F(1, 6)])
        assert (e * e).coeffs == (1, 2, 2, F(4, 3))

    def test_mul_by_one_is_identity(self):
        a = TruncatedSeries([F(2, 3), -1, F(5, 7)])
        assert a * TruncatedSeries([1, 0, 0]) == a

    @given(
        st.lists(rationals, min_size=1, max_size=8),
        st.lists(rationals, min_size=1, max_size=8),
    )
    def test_mul_matches_naive(self, a, b):
        got = TruncatedSeries(a) * TruncatedSeries(b)
        assert list(got.coeffs) == oracles.naive_mul(a, b)

    @given(series_strategy(), series_strategy(), series_strategy())
    def test_mul_associative_after_truncation(self, a, b, c):
        k = min(a.order, b.order, c.order)
        left = ((a * b) * c).truncate(k)
        right = (a * (b * c)).truncate(k)
        assert left == right

    @given(series_strategy(), series_strategy())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(series_strategy(max_order=6), st.integers(0, 5))
    def test_pow_matches_repeated_mul(self, s, r):
        by_mul = TruncatedSeries([1] + [0] * s.order)
        for _ in range(r):
            by_mul = by_mul * s
        assert s**r == by_mul

    def test_pow_zero_keeps_order(self):
        s = TruncatedSeries([2, 3, 4])
        assert s**0 == TruncatedSeries([1, 0, 0])

    def test_binomial_cube(self):
        s = TruncatedSeries([1, 1, 0, 0])
        assert (s**3).coeffs == (1, 3, 3, 1)

    @pytest.mark.parametrize("family", ["bernoulli", "hyper-cauchy"])
    @pytest.mark.parametrize("r", [3, 16])
    def test_pow_of_family_series_matches_naive_products(self, family, r):
        spec = FamilySpec.bernoulli() if family == "bernoulli" else FamilySpec.hyper_cauchy(2, 3)
        f = oracles.ordinary(family_coefficients(spec, 40))
        by_mul = list(f.coeffs)
        for _ in range(r - 1):
            by_mul = oracles.naive_mul(by_mul, f.coeffs)
        assert list((f**r).coeffs) == by_mul

    def test_pow_with_zero_constant_term_truncates(self):
        # (t^2 + t^3 + ...)^3 = t^6 (1 + t + ...)^3, known through order 9
        s = TruncatedSeries([0, 0] + [1] * 8)
        assert (s**3).coeffs == (0, 0, 0, 0, 0, 0, 1, 3, 6, 10)
        assert (s**5).coeffs == (0,) * 10  # t^10 is past the order
        assert (TruncatedSeries([0, 0, 0]) ** 2).coeffs == (0, 0, 0)
        assert s**1 is s

    def test_pow_rejects_bad_exponents(self):
        s = TruncatedSeries([1, 1])
        assert s ** -1 == s.inverse()
        with pytest.raises(ValueError):
            s ** F(1, 2)

    def test_negative_power_is_inverse_of_power(self):
        for spec in (FamilySpec.bernoulli(), FamilySpec.hyper_cauchy(2, 3)):
            f = oracles.ordinary(family_coefficients(spec, 40))
            for r in (1, 2, 3, 16):
                assert f**-r == (f**r).inverse(), (spec.label, r)

    def test_negative_power_needs_nonzero_constant(self):
        for s in (TruncatedSeries([0, 1, 1]), TruncatedSeries([0, 0])):
            for r in (-1, -2):
                with pytest.raises(NotInvertibleError):
                    s**r


class TestInverse:
    def test_geometric(self):
        # 1/(1 - t) = 1 + t + t^2 + ...
        s = TruncatedSeries([1, -1, 0, 0, 0])
        assert s.inverse().coeffs == (1, 1, 1, 1, 1)

    def test_constant_scaling(self):
        s = TruncatedSeries([F(2, 3), 0, 0])
        assert s.inverse().coeffs == (F(3, 2), 0, 0)

    def test_one_plus_t(self):
        s = TruncatedSeries([1, 1, 0, 0])
        assert s.inverse().coeffs == (1, -1, 1, -1)

    def test_bernoulli_generating_inverse(self):
        # (e^t - 1)/t has ordinary coefficients 1/(m+1)!; its inverse
        # carries B_n / n!
        f = TruncatedSeries([1, F(1, 2), F(1, 6), F(1, 24), F(1, 120)])
        assert f.inverse().coeffs == (1, F(-1, 2), F(1, 12), 0, F(-1, 720))

    def test_zero_constant_rejected(self):
        with pytest.raises(NotInvertibleError):
            TruncatedSeries([0, 1]).inverse()

    @settings(max_examples=50)
    @given(series_strategy(max_order=7, nonzero_constant=True))
    def test_inverse_round_trip(self, s):
        assert s * s.inverse() == TruncatedSeries([1] + [0] * s.order)
        assert s.inverse().inverse() == s


PRIMES_ABOVE_40 = [p for p in range(41, 400) if all(p % q for q in range(2, 20))]


def kernel_series(seed, order):
    """c_0 not in {0, 1}, c_k = 0 at every k = 2 (mod 3), and every other
    c_k over its own prime above the order, which k! cannot cancel: the
    Miller loop's running denominator keeps growing."""
    rng = random.Random(seed)
    c0 = F(rng.choice([-3, -2, 3, 5]), rng.choice([1, 2, 7]))
    primes = rng.sample(PRIMES_ABOVE_40, order)
    rest = [0 if k % 3 == 2 else F(rng.randint(-50, 50) or 1, q) for k, q in enumerate(primes, 1)]
    return TruncatedSeries([c0] + rest)


def loop_values(E, r):
    """G_n = M_n / Q from `exponential_power(E, r)`, after checking that its
    numerators are integers over Q = lcm(den G_0..G_K)."""
    M, Q = exponential_power(E, r)
    assert all(type(m) is int for m in M) and type(Q) is int
    G = [F(m, Q) for m in M]
    assert Q == math.lcm(*(g.denominator for g in G)), r
    return G


class _Taken(Exception):
    pass


def classical(P, L):
    """Whether F_k = P_k / L, K >= 1, is Euler's 1/2 or Bernoulli's
    1/(k+1) at every k = 1..K: the inputs whose f^(-s) takes `_tangent`."""
    terms = list(enumerate(P[1:], 1))
    euler, bernoulli = (all((k + 1) ** m * p * 2 ** (1 - m) == L for k, p in terms) for m in (0, 1))
    return bool(terms) and (euler or bernoulli)


#: `_tangent`'s label by its m, the kind it runs
TANGENT_KINDS = ("euler", "bernoulli")


def form_taken(P, L, r=-1):
    """The form `exponential_power_numerators(P, L, r)` picks, found
    without running it: "_miller", "_ordinary", "_seidel m=.. d=.."
    with `_seidel`'s shift and degree, or "_tangent euler" /
    "_tangent bernoulli", as `scripts/traffic.py` labels them."""
    kernels = {name: getattr(series, name)
               for name in ("_seidel", "_miller", "_ordinary", "_tangent")}
    labels = {
        "_seidel": lambda L, D, K, r, m, *rest: f"_seidel m={m} d={len(D) - 1}",
        "_tangent": lambda K, s, m, *rest: f"_tangent {TANGENT_KINDS[m]}",
    }

    def taker(name):
        def take(*args):
            raise _Taken(labels[name](*args) if name in labels else name)

        return take

    try:
        for name in kernels:
            setattr(series, name, taker(name))
        exponential_power_numerators(P, L, r)
    except _Taken as taken:
        return taken.args[0]
    finally:
        for name, kernel in kernels.items():
            setattr(series, name, kernel)


class TestMillerKernel:
    """`**`, `inverse` and the loop's (M, Q) against plain-Fraction oracles."""

    @pytest.mark.parametrize("order", [0, 1, 2, 40])
    def test_powers_and_inverse_match_naive_oracles(self, order):
        fact = [math.factorial(k) for k in range(order + 1)]
        for seed in (1, 2):
            s = kernel_series(seed, order)
            c = list(s.coeffs)
            E = [x * f / c[0] for x, f in zip(c, fact)]
            inv = oracles.naive_inverse(c)
            assert list(s.inverse().coeffs) == inv
            by_mul = inv
            for r in range(-1, -6, -1):
                assert list((s**r).coeffs) == by_mul, (seed, order, r)
                assert by_mul == oracles.naive_inverse(list((s**-r).coeffs))
                want = [x * f / c[0] ** r for x, f in zip(by_mul, fact)]
                assert loop_values(E, r) == want, (seed, order, r)
                by_mul = oracles.naive_mul(by_mul, inv)
            by_mul = c
            for r in range(2, 17):
                by_mul = oracles.naive_mul(by_mul, c)
                assert list((s**r).coeffs) == by_mul, (seed, order, r)
                want = [x * f / c[0] ** r for x, f in zip(by_mul, fact)]
                assert loop_values(E, r) == want, (seed, order, r)

    def test_exponential_power_on_exponential_coefficients(self):
        # The engine's entry: E_k = k! c_k with c_0 = 1 in, n! [t^n] c^r out.
        s = kernel_series(3, 20)
        c = [x / s.coeffs[0] for x in s.coeffs]
        fact = [math.factorial(k) for k in range(21)]
        inv = oracles.naive_inverse(c)
        oracle = {-2: oracles.naive_mul(inv, inv), -1: inv, 1: c, 2: oracles.naive_mul(c, c)}
        E = [x * f for x, f in zip(c, fact)]
        for r, want in oracle.items():
            assert loop_values(E, r) == [x * f for x, f in zip(want, fact)], r
        with pytest.raises(ValueError, match="F_0 = 1"):
            exponential_power([F(2), F(1)], -1)

    def test_f0_error_reads_f0_in_lowest_terms(self):
        with pytest.raises(ValueError) as caught:
            exponential_power_numerators([1, 1], 2, -1)
        assert str(caught.value) == "exponential power needs F_0 = 1, got 1/2"

    def test_peak_bits_of_a_small_inverse(self):
        # 1/(1 + t/2 + t^2/3 + t^3/5): F = 1, 1/2, 2/3, 6/5 over L = 30, so
        # P = 15, 20, 36.  The one lift divides by gcd(30, 15, 20, 36) = 1,
        # so F stays over L = 30 at every step.  The dot
        # products are S_1 = -15 (G_1 = -1/2, Q = 2), S_2 = -10
        # (G_2 = -1/6, Q = 6) and S_3 = 9 (G_3 = 1/20): 4 bits.
        # The loop ends on Q = lcm(2, 6, 20) = 60.
        s = TruncatedSeries([1, F(1, 2), F(1, 3), F(1, 5)])
        D = s.coeffs
        stats = {}
        assert exponential_power([1, F(1, 2), F(2, 3), F(6, 5)], -1, stats) == (
            [60, -30, -10, 3],
            60,
        )
        assert stats == {"max_num_bits": 4}
        assert s.inverse().coeffs == (1, F(-1, 2), F(-1, 12), F(1, 120))
        stats = {}
        assert recurrence_values(D, 3, stats) == [1, F(-1, 2), F(-1, 6), F(1, 20)]
        assert stats == {"max_num_bits": 4}
        stats = {"max_num_bits": 3}
        hessenberg_leading_minors(D, 3, stats)
        assert stats == {"max_num_bits": 4}


# every catalogue kind, and a custom list whose denominators bring new
# primes in late (97 at k = 90, 101 at k = 150), which the one lift's
# denominator holds from step 1 on
LIFT_SPECS = [
    FamilySpec.bernoulli(),
    FamilySpec.euler(),
    FamilySpec.hyper_bernoulli(1, 1),
    FamilySpec.hyper_bernoulli(2, 3),
    FamilySpec.hyper_cauchy(1, 1),
    FamilySpec.hyper_cauchy(3, 2),
    FamilySpec.custom(
        [1] + [F(1, 97) if k == 90 else F(1, 101) if k == 150 else F(k, 2) for k in range(1, 201)]
    ),
]


class TestOneLift:
    """The loop lifts F once, over the least common denominator of the
    whole prefix; its (M, Q) must be the global-lift reference's, bit for
    bit, also on an input scaled by a common factor g that the lift
    divides out.  At n = 200 f^(-1) runs the form pinned in FORMS.  The
    Bernoulli, hyper-Bernoulli(1,1) and Euler rows are flat: their
    f^(-r) runs `_tangent` up to r = TANGENT_MAX, and f^r and f^(-16)
    run `_seidel`'s difference table, at every n; at n = 200 the
    hyper-Bernoulli(2,3) row runs the table, on its linear H_k = k + 1
    at m = 4, the hyper-Cauchy rows run `_ordinary`, and the custom row
    `_miller`, at every r.  The inverse of f^r takes whichever kernel
    its own input picks.  `TestShiftedLoop` calls `_seidel` itself at
    every shift, `TestSkippedProducts` calls `_miller`,
    `TestOrdinaryLoop` calls `_ordinary` and `TestTangent` compares
    `_tangent` with `_seidel`."""

    FORMS = {
        "bernoulli": "_tangent bernoulli",
        "euler": "_tangent euler",
        "hyper-bernoulli(1,1)": "_tangent bernoulli",
        "hyper-bernoulli(2,3)": "_seidel m=4 d=1",
        "hyper-cauchy(1,1)": "_ordinary",
        "hyper-cauchy(3,2)": "_ordinary",
        "custom": "_miller",
    }

    @pytest.mark.parametrize("r", [1, 2, 3, 7, 16])
    @pytest.mark.parametrize("spec", LIFT_SPECS, ids=lambda spec: spec.label)
    def test_matches_the_global_lift(self, spec, r):
        seq = family_coefficients(spec, 200)
        assert form_taken(*seq.prefix(200)) == self.FORMS[spec.label]
        for n in (0, 1, 9, 10, 200):
            P, L = seq.prefix(n)
            power = power_numerators(seq, r, n)
            assert power == oracles.global_lift_power(P, L, r), (n, "f^r")
            for what, (A, B), s in (
                (f"f^{-r}", (P, L), -r),
                ("inverse of f^r", power, -1),
            ):
                M, Q = exponential_power_numerators(A, B, s)
                assert (M, Q) == oracles.global_lift_power(A, B, s), (n, what)
                assert Q == math.lcm(*(F(m, Q).denominator for m in M)), (n, what)
        g = 2**61 - 1  # prime, so the lift's gcd is at least g
        for n in (40, 200):
            P, L = seq.prefix(n)
            Pg, Lg = [p * g for p in P], L * g
            for s in {r, -r} - {1}:
                want = exponential_power_numerators(P, L, s)
                assert exponential_power_numerators(Pg, Lg, s) == want, (n, s)
                assert oracles.global_lift_power(Pg, Lg, s) == want, (n, s)


class TestCommonFactor:
    """`prefix` hands the loop (P, L) as built: every form divides out a
    factor c common to P and L in its one lift, and the r = 1 shortcut
    divides (P, L) by their gcd, so (c P, c L) gives the same (M, Q) and
    the same stats rows as (P, L), with Q = lcm(den G_0..G_K) at every r."""

    @staticmethod
    def run(P, L, r):
        """(M, Q), "max_num_bits" and the bits of each "steps" row."""
        stats = {"steps": []}
        power = exponential_power_numerators(P, L, r, stats)
        return power, stats.get("max_num_bits"), [bits for _, bits in stats["steps"]]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=9), st.integers(-4, 5), st.integers(2, 2**64))
    def test_a_common_factor_changes_nothing(self, rest, r, c):
        P, L = engine.CoefficientSequence.from_values([F(1)] + rest).prefix()
        want = self.run(P, L, r)
        assert self.run([c * p for p in P], c * L, r) == want
        M, Q = want[0]
        assert Q == math.lcm(*(F(m, Q).denominator for m in M))
        if r == 1:
            assert math.gcd(*M) == 1  # M_0 = Q: (M, Q) in lowest terms

    @pytest.mark.parametrize("spec", LIFT_SPECS, ids=lambda spec: spec.label)
    def test_every_form_divides_it_out(self, spec):
        # 200 terms: `_seidel`, `_ordinary` or `_miller`, as
        # TestOneLift.FORMS pins them
        P, L = family_coefficients(spec, 200).prefix()
        c = 2**61 - 1
        for r in (1, -3):
            assert self.run([c * p for p in P], c * L, r) == self.run(P, L, r), r


#: s and Q of a step: products of small prime powers, so that gcd(S, s)
#: and gcd(Q, s) range from 1 to s
smooth = st.lists(st.sampled_from([2, 2, 3, 3, 5, 7, 11, 13]), max_size=12).map(math.prod)


class TestReduced:
    """`_reduced(S, s)` then Q *= up is the lcm-form reduction of
    G = S / (s Q) over the running Q (`oracles.lcm_reduced`) for every
    Q: the same numerator, the same new Q, the same rise factor."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-(10**6), 10**6), smooth, smooth, smooth)
    @example(0, 1, 1, 1)
    @example(0, 1, 12, 35)
    @example(-6, 1, 4, 6)
    @example(7, 1, 7, 7)
    def test_matches_the_lcm_form(self, a, b, s, Q):
        S = a * b  # 0, negative, or sharing factors with s and Q
        num, up = _reduced(S, s)
        assert (num, Q * up, up) == oracles.lcm_reduced(S, s * Q, Q)
        assert F(num, Q * up) == F(S, s * Q)


def shifted_peak_bits(P, L, m, G):
    """The bit length of the largest |S| of the loop at shift m on
    F_k = P_k / L, from its values G: step n's S is G_n times the step's
    divisor before reduction, (L / c) Q n C(n+m, m) ((L / c) Q at m = 0),
    where Q = lcm(den G_0..G_{n-1}) and c is the one lift,
    gcd(L, H_1..H_K) over the shifted numerators H_k = P_k C(k+m, m)."""
    H = [p * math.comb(k + m, m) for k, p in enumerate(P)]
    c, Q, peak = math.gcd(*H), 1, 0
    for n in range(1, len(H)):
        Q = math.lcm(Q, G[n - 1].denominator)
        S = G[n] * (L // c) * Q * (n * math.comb(n + m, m) if m else 1)
        assert S.denominator == 1, n
        peak = max(peak, S.numerator.bit_length())
    return peak


def ordinary_peak_bits(P, L, G):
    """The bit length of the largest |S| of `_ordinary` on F_k = P_k / L,
    from its values G: step n's S is G_n Lc_n Q, where Lc_n is the lcm of
    the denominators of the ordinary coefficients c_k = P_k / (L k!),
    k <= n, and Q = lcm(den G_0..G_{n-1})."""
    Lc, Q, peak = 1, 1, 0
    for n in range(1, len(P)):
        Lc = math.lcm(Lc, F(P[n], L * math.factorial(n)).denominator)
        Q = math.lcm(Q, G[n - 1].denominator)
        S = G[n] * Lc * Q
        assert S.denominator == 1, n
        peak = max(peak, S.numerator.bit_length())
    return peak


def polynomial_input(D, m, K):
    """(L, P, D') for d_0 = 1 and d_k = p(k) / C(k+m, m), k = 1..K, where p
    has the forward differences D at k = 1: the lift of d, and the
    differences at k = 1 of its numerators H_k = P_k C(k+m, m) = L p(k)."""
    p = [sum(x * math.comb(k - 1, t) for t, x in enumerate(D)) for k in range(1, K + 1)]
    L, P = lift([F(1)] + [v / math.comb(k + m, m) for k, v in enumerate(p, 1)])
    D = [L * x for x in D]
    assert all(x.denominator == 1 for x in D)
    return L, P, [int(x) for x in D]


class TestShiftedLoop:
    """`_seidel` on binomially shifted numerators H_k = P_k C(k+m, m) that
    are a polynomial of degree d <= m, at every shift m <= SHIFT_MAX, and
    the form each input takes."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(rationals, max_size=30),
        st.sampled_from([-16, -3, -2, -1, 2, 3, 7, 2**40 + 3]),
    )
    def test_every_shift_matches_the_global_lift(self, tail, r):
        # F_k = tail_k runs `_miller`; at each shift m, the polynomial whose
        # differences at k = 1 are 1, tail_1..tail_m runs `_seidel` on 30 terms
        L, P = lift([F(1), *tail])
        want = oracles.global_lift_power(P, L, r)
        assert identity_reach(P, *want, -r) == len(tail)  # f^r is f^(-(-r))
        G = [F(x, want[1]) for x in want[0]]
        stats = {}
        assert _miller(P, L, r, stats) == want
        assert stats == {"max_num_bits": shifted_peak_bits(P, L, 0, G)}
        for m in range(SHIFT_MAX + 1):
            L, P, D = polynomial_input([F(1), *tail[:m]], m, 30)
            want = oracles.global_lift_power(P, L, r)
            G = [F(x, want[1]) for x in want[0]]
            stats = {}
            assert _seidel(L, D, 30, r, m, stats) == want, m
            assert stats == {"max_num_bits": shifted_peak_bits(P, L, m, G)}, m

    @pytest.mark.parametrize(
        "spec, long, short, table",
        [
            pytest.param(
                FamilySpec.bernoulli(), "_tangent bernoulli", "_tangent bernoulli",
                "_seidel m=1 d=0", id="bernoulli-1",
            ),
            pytest.param(
                FamilySpec.hyper_bernoulli(2, 3), "_seidel m=4 d=1", "_miller", None,
                id="hyper-bernoulli(2,3)-4",
            ),
            pytest.param(
                FamilySpec.euler(), "_tangent euler", "_tangent euler", "_seidel m=0 d=0",
                id="euler-0",
            ),
        ],
    )
    def test_shift_pins(self, spec, long, short, table):
        # The form each prefix runs at r = -1, from SHIFT_MIN_TERMS terms on
        # and below (one term short of it, and the bench grid's n = 16).
        # d_k = 1/(k+1) over C(k+1, 1) is 1, flat, so Bernoulli takes m = 1
        # at any length, as Euler's flat 1/2 takes m = 0, and both run
        # `_tangent` at r = -1 and `_seidel` at r = 2;
        # hyper-Bernoulli(2, 3)'s d_k = 24/((k+2)(k+3)(k+4)) over C(k+4, 4)
        # is k+1, not flat: it takes the table only on a long prefix.
        seq = family_coefficients(spec, 200)
        sizes = (SHIFT_MIN_TERMS - 1, 200, SHIFT_MIN_TERMS - 2, 16)
        taken = [form_taken(*seq.prefix(K)) for K in sizes]
        assert taken == [long, long, short, short]
        taken = [form_taken(*seq.prefix(K), 2) for K in sizes]
        assert taken == ([long, long, short, short] if table is None else [table] * 4)

    def test_every_hyper_bernoulli_takes_the_table_when_long(self):
        # hyper-Bernoulli(M, N), M + N - 1 <= SHIFT_MAX, has H_k = C(k+M-1, M-1)
        # at m = M + N - 1: from SHIFT_MIN_TERMS terms on it runs `_seidel`
        # there, and below that `_miller`, unless it is flat (M = 1);
        # hyper-Bernoulli(1, 1) is Bernoulli, whose f^(-1) runs `_tangent`
        for M in range(1, SHIFT_MAX + 1):
            for N in range(1, SHIFT_MAX + 1 - M + 1):
                seq = family_coefficients(FamilySpec.hyper_bernoulli(M, N), 200)
                table = f"_seidel m={M + N - 1} d={M - 1}"
                if (M, N) == (1, 1):
                    table = "_tangent bernoulli"
                for K in (SHIFT_MIN_TERMS - 1, 200):
                    assert form_taken(*seq.prefix(K)) == table, (M, N, K)
                for K in (SHIFT_MIN_TERMS - 2, 60):
                    assert form_taken(*seq.prefix(K)) == (table if M == 1 else "_miller"), (M, N, K)


# d_k = (-2)^k k! (k^2 + 1) / (k + 3): a custom list whose numerators grow
# factorially, as hyper-Cauchy's do
FACTORIAL = FamilySpec.custom(
    [1] + [F((-2) ** k * math.factorial(k) * (k * k + 1), k + 3) for k in range(1, 401)]
)


class TestOrdinaryLoop:
    """The loop on the ordinary coefficients c_k = F_k / k!, by Horner's
    rule on the falling factorial (n-1)! / j!, and the pick that sends an
    input there."""

    # (spec, r, K): the zero tail of hyper-Cauchy(3, 2), a polynomial power
    # at r = -4, and r + 1 = 0 at r = -1, where the linear factor is
    # constant; each pair at 160 and 200 terms, the first of each spec at
    # 400 too (those runs take 0.2-0.4 s each)
    VALUES = [
        (spec, r, K)
        for spec, rs in (
            (FamilySpec.hyper_cauchy(1, 1), (-1, 3)),
            (FamilySpec.hyper_cauchy(2, 3), (-16, 2)),
            (FamilySpec.hyper_cauchy(3, 2), (-4, 3)),
            (FamilySpec.hyper_cauchy(7, 1), (2, -1)),
            (FamilySpec.hyper_cauchy(1024, 3), (3, -4)),
            (FACTORIAL, (-1, -16, 2)),
        )
        for r in rs
        for K in (160, 200, 400)[: 3 if r == rs[0] else 2]
    ]

    @pytest.mark.parametrize(
        "spec, r, K", VALUES, ids=[f"{spec.label}-{r}-{K}" for spec, r, K in VALUES]
    )
    def test_matches_the_global_lift(self, spec, r, K):
        P, L = family_coefficients(spec, K).prefix()
        want = oracles.global_lift_power(P, L, r)
        if K < 400:
            assert identity_reach(P, *want, -r) == K
        stats = {}
        assert _ordinary(P, L, r, stats) == want
        if K == 160:
            G = [F(x, want[1]) for x in want[0]]
            assert stats == {"max_num_bits": ordinary_peak_bits(P, L, G)}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(rationals, max_size=30),
        st.sampled_from([-16, -3, -1, 0, 2, 3, 7, 2**40 + 3]),
        st.integers(0, 30),
    )
    def test_short_inputs_match_the_global_lift(self, tail, r, zeros):
        # a zero tail from d_zeros on, when zeros <= len(tail)
        tail = [0 if k >= zeros else x for k, x in enumerate(tail, 1)]
        L, P = lift([F(1), *tail])
        want = oracles.global_lift_power(P, L, r)
        assert identity_reach(P, *want, -r) == len(tail)
        G = [F(x, want[1]) for x in want[0]]
        stats = {}
        assert _ordinary(P, L, r, stats) == want
        assert stats == {"max_num_bits": ordinary_peak_bits(P, L, G)}

    # the kernel each catalogue kind takes at 200 terms
    KERNELS = [
        (FamilySpec.bernoulli(), "_seidel"),
        (FamilySpec.euler(), "_seidel"),
        (FamilySpec.hyper_bernoulli(1, 3), "_seidel"),
        (FamilySpec.hyper_bernoulli(2, 3), "_seidel"),
        (FamilySpec.hyper_bernoulli(5, 3), "_seidel"),
        (FamilySpec.hyper_cauchy(1, 1), "_ordinary"),
        (FamilySpec.hyper_cauchy(2, 3), "_ordinary"),
        (FamilySpec.hyper_cauchy(3, 2), "_ordinary"),
        (FamilySpec.hyper_cauchy(1024, 3), "_ordinary"),
        (FACTORIAL, "_ordinary"),
    ]

    # the kinds whose f^(-1) takes another kernel: Bernoulli's and Euler's
    INVERSE = {"bernoulli": "_tangent", "euler": "_tangent"}

    @pytest.mark.parametrize("spec, kernel", KERNELS, ids=lambda x: getattr(x, "label", x))
    def test_dispatch_pins(self, monkeypatch, spec, kernel):
        kernels = (self.INVERSE.get(spec.label, kernel), kernel)  # r = -1, 3
        taken = []
        for name in ("_seidel", "_miller", "_ordinary", "_tangent"):
            def record(*args, name=name, kernel=getattr(series, name)):
                taken.append(name)
                return kernel(*args)

            monkeypatch.setattr(series, name, record)
        seq = family_coefficients(spec, 200)
        for r in (-1, 3):
            exponential_power_numerators(*seq.prefix(200), r)
        assert taken == list(kernels)
        # no prefix shorter than SHIFT_MIN_TERMS takes the ordinary lift, and
        # only a flat one takes the table: Bernoulli, Euler, hyper-Bernoulli(1, N),
        # and of those Bernoulli and Euler take `_tangent` at r = -1
        assert "_ordinary" not in {form_taken(*seq.prefix(K)) for K in range(SHIFT_MIN_TERMS - 1)}
        del taken[:]
        exponential_power_numerators(*seq.prefix(SHIFT_MIN_TERMS - 2), -1)
        flat = kernels[1] == "_seidel" and spec.m in (None, 1)
        assert taken == [kernels[0] if flat else "_miller"]


def random_custom(seed, n=200):
    """A seeded random custom list: d_0 = 1 and d_k = a / b for k = 1..n,
    -9 <= a <= 9 and 1 <= b <= 9."""
    rng = random.Random(seed)
    return FamilySpec.custom([1] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])


class TestLongPrefixPick:
    """The one gate of the long-prefix forms: from SHIFT_MIN_TERMS terms
    on, an input that `_polynomial` leaves runs `_ordinary` when
    `_ordinary_pays` and `_miller` when not; a shorter prefix runs
    `_miller` without the weighing."""

    # (spec, r, the form it runs): at r = 1 the family's d_0..d_200, the
    # catalogue kinds and the random list; past it library route 2's
    # input, f^r's (M, Q), read at the power -1
    PICKS = [
        (FamilySpec.hyper_cauchy(2, 3), 1, "_ordinary"),
        (FamilySpec.hyper_cauchy(1, 1), 1, "_ordinary"),
        (FamilySpec.hyper_cauchy(3, 2), 1, "_ordinary"),
        (FamilySpec.hyper_cauchy(7, 1), 1, "_ordinary"),
        (FamilySpec.hyper_cauchy(1, 9), 1, "_ordinary"),
        (FamilySpec.hyper_cauchy(2, 3), 2, "_ordinary"),
        (FamilySpec.hyper_bernoulli(5, 5), 1, "_miller"),
        (FamilySpec.hyper_bernoulli(3, 7), 1, "_miller"),
        (FamilySpec.bernoulli(), 2, "_miller"),
        (FamilySpec.hyper_bernoulli(2, 3), 3, "_miller"),
        (FamilySpec.euler(), 3, "_miller"),
        (random_custom(11), 1, "_miller"),
    ]

    @pytest.mark.parametrize("spec, r, form", PICKS, ids=[f"{s.label}^{r}" for s, r, _ in PICKS])
    def test_pins(self, monkeypatch, spec, r, form):
        seq = family_coefficients(spec, 200)
        P, L = power_numerators(seq, r) if r > 1 else seq.prefix()
        # the forms wrapped, as scripts/traffic.py wraps them: each call
        # runs the form and records its name, and each weighing the
        # length of the prefix weighed
        taken, weighed = [], []
        for kernel in ("_seidel", "_miller", "_ordinary", "_tangent"):
            def record(*args, kernel=kernel, run=getattr(series, kernel)):
                taken.append(kernel)
                return run(*args)

            monkeypatch.setattr(series, kernel, record)

        def weigh(P, pays=_ordinary_pays):
            weighed.append(len(P))
            return pays(P)

        monkeypatch.setattr(series, "_ordinary_pays", weigh)
        exponential_power_numerators(P, L, -1)
        assert (taken, weighed) == ([form], [201])
        del weighed[:]
        assert form_taken(P[: SHIFT_MIN_TERMS - 1], L) == "_miller"
        assert weighed == []


def flat_run(P, m):
    """The largest n with H_1 = ... = H_n, H_k = P_k C(k+m, m); the input
    takes `_seidel` when that is all of it, at the shift it takes."""
    H = [p * math.comb(k + m, m) for k, p in enumerate(P)]
    return next((k - 1 for k in range(2, len(H)) if H[k] != H[1]), len(H) - 1)


def vanished_from(M, z):
    """The least j of parity z with M_i = 0 at every i >= j of that parity."""
    return max((j for j in range(z, len(M), 2) if M[j]), default=z - 2) + 2


def bernoulli_with(k, value, n=200):
    """Bernoulli's d_0..d_n with d_k replaced by `value`."""
    d = list(family_coefficients(FamilySpec.bernoulli(), n).d)
    d[k] = F(value)
    return d


class TestSkippedProducts:
    """`_ordinary` drops the products by the M_j of G's zero tail, past
    the last nonzero M_j, and `_miller` sums them; either way S, and with
    it (M, Q) and the peak bits, must stay the global-lift reference's.
    Inputs flat for a while, which `exponential_power_numerators` sends
    to `_seidel` only when flat throughout, run `_miller` here."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, SHIFT_MAX),
        rationals.filter(lambda a: a not in (0, 1)),
        st.integers(1, 30),
        st.integers(2, 40),
        st.sampled_from([-16, -3, -1, 2, 7]),
    )
    def test_flat_tails_match_the_global_lift(self, m, a, K, b, r):
        # d_k = a / C(k+m, m) makes H_k = a at shift m; from k = b on (when
        # b <= K) a new prime denominator ends the run and lifts F again
        d = [F(1)] + [a / math.comb(k + m, m) for k in range(1, K + 1)]
        if b <= K:
            d[b] /= 97
        L, P = lift(d)
        assert flat_run(P, m) == min(b - 1, K)
        want = oracles.global_lift_power(P, L, r)
        G = [F(x, want[1]) for x in want[0]]
        stats = {}
        assert _miller(P, L, r, stats) == want
        assert stats == {"max_num_bits": shifted_peak_bits(P, L, 0, G)}

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([FamilySpec.bernoulli(), FamilySpec.euler()]),
        st.integers(1, SHIFT_MIN_TERMS + 9),
        rationals,
        st.sampled_from([-3, -1, 2]),
    )
    def test_doctored_long_prefixes_match_the_global_lift(self, spec, k, value, r):
        # one d_k changed anywhere in a long prefix: it ends the flat run
        # there and may revive a vanished parity.  A value equal to d_k
        # changes nothing, and the flat prefix takes `_tangent` at r < 0
        d = list(family_coefficients(spec, SHIFT_MIN_TERMS + 9).d)
        assume(value != d[k])
        d[k] = value
        L, P = lift(d)
        want = oracles.global_lift_power(P, L, r)
        G = [F(x, want[1]) for x in want[0]]
        stats = {}
        assert exponential_power_numerators(P, L, r, stats) == want
        assert not _ordinary_pays(P)
        assert stats == {"max_num_bits": shifted_peak_bits(P, L, 0, G)}

    # (d_0..d_n, r), n = 200 unless named: the zero tail of the polynomial
    # (1+t)^8, every G_j past 8, which `_ordinary` skips, at n = 200 and at
    # n = 60, below SHIFT_MIN_TERMS; a single vanished parity, summed in
    # full with its zeros (Bernoulli's odd j >= 3, Euler's even j >= 2,
    # every odd j of the even cosh(t)^(-3), Bernoulli with d_170 changed,
    # whose odd G_j are 0 from 3 to 169 and turn nonzero at 171); a custom
    # list flat at m = 1 up to k = 150
    LONG = {
        "bernoulli": (family_coefficients(FamilySpec.bernoulli(), 200).d, -1),
        "euler": (family_coefficients(FamilySpec.euler(), 200).d, -1),
        "hyper-cauchy(3,2)": (family_coefficients(FamilySpec.hyper_cauchy(3, 2), 200).d, -4),
        "hyper-cauchy(3,2), n = 60": (
            family_coefficients(FamilySpec.hyper_cauchy(3, 2), 60).d, -4
        ),
        "cosh": ([1 - k % 2 for k in range(201)], -3),
        "flat to 150": ([1] + [F(1, k + 1 + (k > 150)) for k in range(1, 201)], -1),
        "bernoulli, d_170 changed": (bernoulli_with(170, F(1, 3)), -1),
    }

    @pytest.mark.parametrize("name", list(LONG))
    def test_long_inputs_match_the_global_lift(self, name):
        # the linear factor (r+1) k - n is constant at r = -1, so the two
        # polynomial powers check it on `_ordinary`'s skipping sum
        d, r = self.LONG[name]
        L, P = lift(d)
        want = oracles.global_lift_power(P, L, r)
        G = [F(x, want[1]) for x in want[0]]
        stats = {}
        assert _miller(P, L, r, stats) == want
        assert stats == {"max_num_bits": shifted_peak_bits(P, L, 0, G)}
        stats = {}
        assert _ordinary(P, L, r, stats) == want
        assert stats == {"max_num_bits": ordinary_peak_bits(P, L, G)}

    def test_skip_pins(self):
        # the inputs above have the property they are there for; the flat
        # run of H at the one shift m at which it can be flat,
        # P_1 (m+1) = P_2 C(m+2, 2): 200 for the inputs that take `_seidel`,
        # and None where that m is past 0..SHIFT_MAX, as for the 200 terms of
        # hyper-Cauchy(3, 2), which take `_ordinary`, with the same zero tail
        def run(name):
            d, r = self.LONG[name]
            L, P = lift(d)
            m = 2 * P[1] // P[2] - 2
            M, _ = oracles.global_lift_power(P, L, r)
            flat = flat_run(P, m) if 0 <= m <= SHIFT_MAX else None
            return flat, vanished_from(M, 0), vanished_from(M, 1)

        assert run("bernoulli") == (200, 202, 3)
        assert run("euler") == (200, 2, 201)
        assert run("hyper-cauchy(3,2)") == (None, 10, 9)
        assert run("hyper-cauchy(3,2), n = 60")[1:] == (10, 9)
        assert run("cosh")[1:] == (202, 1)
        assert run("flat to 150") == (150, 202, 201)
        assert run("bernoulli, d_170 changed") == (169, 202, 201)
        L, P = lift(self.LONG["bernoulli, d_170 changed"][0])
        M, _ = oracles.global_lift_power(P, L, -1)
        assert not any(M[3:171:2]) and M[171]
        # hyper-Bernoulli(1, 2), as in the order workload, is flat at its
        # shift m = 2 (H_k = 1), and the prefixes run there are long
        P, L = family_coefficients(FamilySpec.hyper_bernoulli(1, 2), 200).prefix(200)
        assert form_taken(P, L) == "_seidel m=2 d=0" and flat_run(P, 2) == 200

    def test_zero_tail_costs_no_products(self, monkeypatch):
        # hyper-Cauchy(3, 2) at r = 4: a_n = n! C(8, n), and from
        # SHIFT_MIN_TERMS terms on the power takes `_ordinary`, whose step
        # past the zero tail multiplies only a_0..a_8 by their two factors
        # (and one more product, pulled before a_0..a_8 run out), at any
        # length; the end lift takes two more per step, one into its
        # running product of U_j and one onto M_j
        calls = []

        def counted(x, y):
            calls.append(None)
            return x * y

        seq = family_coefficients(FamilySpec.hyper_cauchy(3, 2), 400)
        assert form_taken(*seq.prefix(SHIFT_MIN_TERMS), -4) == "_ordinary"
        monkeypatch.setattr(series, "mul", counted)
        counts = []
        for n in (SHIFT_MIN_TERMS, 200, 400):
            del calls[:]
            M, Q = engine.negative_power_numerators(seq, 4, n)
            assert [F(m, Q) for m in M] == [math.perm(8, j) for j in range(n + 1)]
            counts.append(len(calls))
        assert counts[1] - counts[0] == (2 * 9 + 1 + 2) * (200 - SHIFT_MIN_TERMS)
        assert counts[2] - counts[1] == (2 * 9 + 1 + 2) * 200


class TestDifferenceTable:
    """A flat input, at any shift m <= SHIFT_MAX and any length, and from
    SHIFT_MIN_TERMS terms on an input whose H_k is a polynomial of degree
    d <= m, runs each step on `_seidel`'s difference table of G; its S,
    and with it (M, Q) and the peak bits, must stay the global-lift
    reference's."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, SHIFT_MAX),
        rationals,
        st.integers(0, 30),
        st.sampled_from([-16, -3, -2, -1, 2, 3, 7, 2**40 + 3]),
    )
    @example(2, F(0), 30, -1)
    @example(1, F(-7, 3), 30, 2**40 + 3)
    @example(0, F(-1), 30, -16)
    def test_flat_inputs_match_the_global_lift(self, m, a, K, r):
        # d_k = a / C(k+m, m) makes every H_k = P_k C(k+m, m) the numerator of a over L
        L, P = lift([F(1)] + [a / math.comb(k + m, m) for k in range(1, K + 1)])
        h = P[K] * math.comb(K + m, m)
        assert all(P[k] * math.comb(k + m, m) == h for k in range(1, K + 1))
        want = oracles.global_lift_power(P, L, r)
        assert identity_reach(P, *want, -r) == K
        G = [F(x, want[1]) for x in want[0]]
        stats = {}
        assert _seidel(L, [h], K, r, m, stats) == want
        assert stats == {"max_num_bits": shifted_peak_bits(P, L, m, G)}

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, SHIFT_MAX).flatmap(
            lambda m: st.tuples(st.just(m), st.lists(rationals, min_size=1, max_size=m + 1))
        ),
        st.integers(SHIFT_MIN_TERMS - 1, 219),
        st.integers(-8, 8),
    )
    def test_polynomial_inputs_match_the_global_lift(self, shift_and_differences, K, r):
        # d_k = p(k) / C(k+m, m) on 160-220 terms, for a p of degree d <= m
        # given by its differences at k = 1: the input takes the table, and
        # the table at m keeps the shifted loop's S
        m, D = shift_and_differences
        L, P, D = polynomial_input(D, m, K)
        want = oracles.global_lift_power(P, L, r)
        G = [F(x, want[1]) for x in want[0]]
        stats = {}
        assert _seidel(L, D, K, r, m, stats) == want
        assert stats == {"max_num_bits": shifted_peak_bits(P, L, m, G)}
        if r != 1:
            tangent = classical(P, L) and -TANGENT_MAX <= r < 0
            assert form_taken(P, L, r).startswith("_tangent" if tangent else "_seidel")

    # a flat prefix takes the table on both sides of SHIFT_MIN_TERMS
    TABLE = [
        (FamilySpec.euler(), 10),
        (FamilySpec.euler(), 200),
        (FamilySpec.bernoulli(), SHIFT_MIN_TERMS - 2),
        (FamilySpec.bernoulli(), 158),
        (FamilySpec.bernoulli(), 200),
        (FamilySpec.hyper_bernoulli(1, 2), 200),
        (FamilySpec.hyper_bernoulli(1, 3), 200),
        (FamilySpec.hyper_bernoulli(1, 8), 200),
    ]
    LOOP = [
        (FamilySpec.hyper_bernoulli(2, 3), 16),
        (FamilySpec.hyper_bernoulli(2, 3), SHIFT_MIN_TERMS - 2),
        (FamilySpec.hyper_cauchy(1, 1), 200),
        (FamilySpec.hyper_cauchy(3, 2), 200),
    ]

    @staticmethod
    def run_without(monkeypatch, name, d, r):
        # the power of d_0..d_K with series.`name` made to fail
        def fail(*args):
            raise AssertionError(f"{name} ran")

        L, P = lift(d)
        want = oracles.global_lift_power(P, L, r)
        assert identity_reach(P, *want, -r) == len(d) - 1
        monkeypatch.setattr(series, name, fail)
        assert exponential_power_numerators(P, L, r) == want

    @pytest.mark.parametrize("r", [-1, 2])
    @pytest.mark.parametrize("spec, n", TABLE, ids=lambda x: getattr(x, "label", x))
    def test_flat_families_take_the_table(self, monkeypatch, spec, n, r):
        # Bernoulli's and Euler's f^(-1) take `_tangent` instead
        L, P = lift(family_coefficients(spec, n).d)
        form = "_tangent" if classical(P, L) and r < 0 else "_seidel"
        assert form_taken(P, L, r).startswith(form)
        self.run_without(monkeypatch, "_miller", family_coefficients(spec, n).d, r)

    @pytest.mark.parametrize("r", [-1, 2])
    @pytest.mark.parametrize("spec, n", LOOP, ids=lambda x: getattr(x, "label", x))
    def test_other_inputs_take_the_loop(self, monkeypatch, spec, n, r):
        self.run_without(monkeypatch, "_seidel", family_coefficients(spec, n).d, r)

    @pytest.mark.parametrize("k", [1, 100, 200])
    def test_one_changed_term_takes_the_loop(self, monkeypatch, k):
        self.run_without(monkeypatch, "_seidel", bernoulli_with(k, F(1, 3)), -1)


class TestTangent:
    """Bernoulli's and Euler's f^(-s), 1 <= s <= TANGENT_MAX, run
    `_tangent`: its (M, Q) must be those of `_seidel` called directly on
    the same flat input, whatever the step rows; every other order, and
    every other flat input, keeps the table."""

    SPECS = [FamilySpec.euler(), FamilySpec.bernoulli(), FamilySpec.hyper_bernoulli(1, 1)]

    @staticmethod
    def table(spec, K, r):
        """(P, L) of spec's d_0..d_K and `_seidel`'s (M, Q) for it at r, at
        the shift m = 0 (Euler) or 1 (Bernoulli), where it is flat."""
        P, L = family_coefficients(spec, K).prefix()
        m = int(spec.kind != "euler")
        return (P, L), _seidel(L, [P[K] * math.comb(K + m, m)], K, r, m)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.label)
    def test_matches_the_table(self, spec):
        m = int(spec.kind != "euler")
        # K = 119 is SHIFT_MIN_TERMS terms, which a flat input does not
        # read; 281 and 401 are odd; 520 runs past Bernoulli's n = 400
        for K in [*range(61), 119, 120, 200, 281, 400, 401, 520]:
            for s in range(1, TANGENT_MAX + 2) if K <= 60 else (1, 2):
                (P, L), want = self.table(spec, K, -s)
                assert exponential_power_numerators(P, L, -s) == want, (K, s)
                if s <= TANGENT_MAX:
                    assert _tangent(K, s, m) == want, (K, s)
                    if K > 1:
                        assert form_taken(P, L, -s) == f"_tangent {TANGENT_KINDS[m]}", (K, s)

    @pytest.mark.parametrize(
        "spec, values",
        [
            # 2 / (e^t + 1): e_(2j-1) = G_2j / (2j) for the Genocchi
            # numbers G_2..G_12 = -1, 1, -3, 17, -155, 2073; e_2j = 0 past e_0
            (FamilySpec.euler(), [1, F(-1, 2), 0, F(1, 4), 0, F(-1, 2), 0, F(17, 8), 0,
                                  F(-31, 2), 0, F(691, 4), 0]),
            # t / (e^t - 1): B_0..B_12
            (FamilySpec.bernoulli(), [1, F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0,
                                      F(-1, 30), 0, F(5, 66), 0, F(-691, 2730)]),
        ],
        ids=["euler", "bernoulli"],
    )
    def test_order_one_pins(self, spec, values):
        P, L = family_coefficients(spec, 12).prefix()
        M, Q = exponential_power_numerators(P, L, -1)
        assert [F(x, Q) for x in M] == values
        assert (M, Q) == _tangent(12, 1, int(spec.kind != "euler"))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.label)
    def test_other_orders_keep_the_table(self, spec):
        P, L = family_coefficients(spec, 40).prefix()
        label = f"_seidel m={int(spec.kind != 'euler')} d=0"
        for r in (-TANGENT_MAX - 1, -16, 2, 3, 7):
            assert form_taken(P, L, r) == label, r

    @pytest.mark.parametrize(
        "values, label",
        [
            ([F(1, 3)] * 40, "_seidel m=0 d=0"),  # flat at m = 0, but not 1/2
            ([F(2, k + 1) for k in range(1, 41)], "_seidel m=1 d=0"),  # m = 1, not 1/(k+1)
            # hyper-Bernoulli(1, 2): H_k = 1 = h / L, but at m = 2
            ([F(2, (k + 1) * (k + 2)) for k in range(1, 41)], "_seidel m=2 d=0"),
        ],
        ids=["third", "two-over-k+1", "hyper-bernoulli(1,2)"],
    )
    def test_other_flat_inputs_keep_the_table(self, values, label):
        L, P = lift([F(1), *values])
        for s in range(1, TANGENT_MAX + 1):
            assert form_taken(P, L, -s) == label, s

    @pytest.mark.parametrize("spec", SPECS[:2], ids=lambda spec: spec.label)
    def test_library_powers_agree_with_the_loop(self, spec):
        K = 30
        d = family_coefficients(spec, K).d
        c = [x / math.factorial(k) for k, x in enumerate(d)]  # f's ordinary coefficients
        for s in (1, 2, 5, TANGENT_MAX):
            _, (M, Q) = self.table(spec, K, -s)
            assert exponential_power(d, -s) == (M, Q), s
            G = tuple(F(x, Q) / math.factorial(n) for n, x in enumerate(M))
            assert (TruncatedSeries(c) ** -s).coeffs == G, s
            # 3 f: the power scales by 3^(-s), and the loop's input is f's own
            assert (TruncatedSeries([3 * x for x in c]) ** -s).coeffs == tuple(
                g / 3**s for g in G
            ), s
            if s == 1:
                assert TruncatedSeries(c).inverse().coeffs == G


class TestHasseTeichmuller:
    def test_definition_spot_check(self):
        # c_m t^m -> C(m, n) c_m t^(m-n)
        s = TruncatedSeries([5, 7, 11, 13])
        assert s.ht(2).coeffs == (11, 3 * 13)
        assert s.ht(3).coeffs == (13,)

    def test_order_zero_is_identity(self):
        s = TruncatedSeries([1, 2, 3])
        assert s.ht(0) is s

    def test_exhausted_prefix_floors_at_zero(self):
        s = TruncatedSeries([1, 2])
        assert s.ht(5).coeffs == (0,)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1]).ht(-1)

    @given(series_strategy(max_order=8), st.integers(0, 4), st.integers(0, 4))
    def test_composition_rule(self, s, m, n):
        # H^(m) H^(n) = C(m+n, n) H^(m+n)
        lhs = s.ht(n).ht(m)
        rhs = s.ht(m + n) * math.comb(m + n, n)
        assert lhs.truncate(rhs.order) == rhs.truncate(lhs.order)

    @given(series_strategy(max_order=8), st.integers(0, 6))
    def test_matches_classical_derivative(self, s, n):
        assert s.ht(n) == oracles.ht_by_differentiation(s, n)


class TestProductRuleSmall:
    """The weak-composition product rule, exercised directly at unit scale."""

    def test_two_factors_small(self):
        rng = random.Random(7)
        for _ in range(10):
            f = oracles.rand_series(rng, 6)
            g = oracles.rand_series(rng, 6)
            for n in range(1, 4):
                lhs = (f * g).ht(n)
                rhs = oracles.ht_product_rule_rhs([f, g], n)
                k = min(lhs.order, rhs.order)
                assert lhs.truncate(k) == rhs.truncate(k)
