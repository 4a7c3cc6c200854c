"""Acceptance gate for the library's headline claims.

Each test covers one numbered criterion and prints a single PASS line
(visible with `pytest -s` or in the captured output of a failure).  All
comparisons are exact rational equality; the only tolerance anywhere is
the wall-clock bound in criterion 10.  Random batteries use a fixed seed
so a failure is reproducible bit for bit.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from appellseq.engine import CoefficientSequence
from appellseq.library import (
    appell_polynomial,
    compute_D,
    polynomial_eval,
    related_numbers_negative_power,
)
from appellseq.families import FamilySpec, family_coefficients
from appellseq.witness import (
    cross_verify,
    related_numbers_determinant,
    related_numbers_recurrence,
)

import oracles
from oracles import (
    alt_power_sum_check,
    classical_cauchy_oracle,
    polynomial_derivative,
    power_sum_check,
    rising_factorial,
)

F = Fraction
SEED = 746353


def _pass(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _residual_vanishes(D, a):
    """Sum_{m=0..n} D(n-m) a_m / m! == 0 for every covered n >= 1."""
    fact = [1] * len(a)
    for i in range(1, len(a)):
        fact[i] = fact[i - 1] * i
    for n in range(1, min(len(a), len(D))):
        residual = sum((D[n - m] * a[m] / fact[m] for m in range(n + 1)), F(0))
        if residual != 0:
            return n
    return None


@pytest.fixture(scope="module")
def bernoulli_tables():
    seq = family_coefficients(FamilySpec.bernoulli(), 20)
    return {
        "seq": seq,
        "recurrence": related_numbers_recurrence(seq, 1, 20),
        "determinant": related_numbers_determinant(seq, 1, 20),
    }


@pytest.fixture(scope="module")
def cauchy_tables():
    seq = family_coefficients(FamilySpec.hyper_cauchy(1, 1), 20)
    return {
        "seq": seq,
        "determinant": related_numbers_determinant(seq, 1, 20),
    }


@pytest.fixture(scope="module")
def random_battery():
    """100 random normalized sequences, all orders r in 1..4, all routes."""
    rng = random.Random(SEED)
    results = []
    for _ in range(100):
        seq = CoefficientSequence.from_values(
            [F(1)] + [oracles.rand_fraction(rng) for _ in range(12)]
        )
        for r in (1, 2, 3, 4):
            results.append((seq, r, cross_verify(seq, r, 12)))
    return results


class TestCriterion01:
    def test_criterion_01_bernoulli_determinant_vs_recurrence(self, bernoulli_tables):
        rec = bernoulli_tables["recurrence"].a
        assert bernoulli_tables["determinant"].a == rec
        spots = {1: F(-1, 2), 2: F(1, 6), 4: F(-1, 30), 12: F(-691, 2730)}
        for n, value in spots.items():
            assert rec[n] == value, f"B_{n} != {value}"
        _pass(1, "Bernoulli Bareiss determinant table equals recurrence for n <= 20, "
                 "spot values B_1, B_2, B_4, B_12 exact")


class TestCriterion02:
    def test_criterion_02_cauchy_determinant_vs_series_oracle(self, cauchy_tables):
        det = cauchy_tables["determinant"].a
        oracle = classical_cauchy_oracle(20)
        assert list(det) == oracle
        assert det[1] == F(1, 2)
        assert det[2] == F(-1, 6)
        _pass(2, "hyper-Cauchy(1,1) Bareiss determinant equals log(1+t)/t inversion "
                 "oracle for n <= 20, spot values c_1, c_2 exact")


class TestCriterion03:
    def test_criterion_03_five_route_agreement(self, random_battery):
        assert len(random_battery) == 400
        for seq, r, report in random_battery:
            assert report.agree, (
                f"routes disagree for r={r}, d={seq.d}: {report.describe()}"
            )
        _pass(3, "recurrence (r >= 2), Bareiss determinant, composition sum and "
                 "negative power f^(-r) agree on 100 random sequences x r in 1..4, "
                 "n <= 12")


class TestCriterion04:
    def test_criterion_04_residual_identity(
        self, bernoulli_tables, cauchy_tables, random_battery
    ):
        checked = 0
        D = compute_D(bernoulli_tables["seq"], 1, 20).D
        for key in ("recurrence", "determinant"):
            assert _residual_vanishes(D, bernoulli_tables[key].a) is None
            checked += 1
        D = compute_D(cauchy_tables["seq"], 1, 20).D
        assert _residual_vanishes(D, cauchy_tables["determinant"].a) is None
        checked += 1
        for seq, r, report in random_battery:
            D = compute_D(seq, r, 12).D
            tables = {name: report.table(name) for name in report.pairs}
            for route, values in tables.items():
                assert _residual_vanishes(D, values) is None, (route, r, seq.d)
                checked += 1
        _pass(4, f"sum_m D_r(n-m) a_m/m! = 0 on all {checked} tables produced "
                 "in criteria 1-3")


class TestCriterion05:
    def test_criterion_05_product_rule(self):
        rng = random.Random(SEED + 5)
        for k in (2, 3):
            for _ in range(50):
                factors = [oracles.rand_series(rng, 10) for _ in range(k)]
                product = factors[0]
                for f in factors[1:]:
                    product = product * f
                for n in range(1, 9):
                    lhs = product.ht(n)
                    rhs = oracles.ht_product_rule_rhs(factors, n)
                    order = min(lhs.order, rhs.order)
                    assert lhs.truncate(order) == rhs.truncate(order), (k, n)
        _pass(5, "product rule holds for k in {2,3}, n <= 8 on 50 random "
                 "series tuples each (order 10)")

    def test_criterion_05_quotient_rules(self):
        rng = random.Random(SEED + 55)
        for _ in range(50):
            f = oracles.rand_series(rng, 10, nonzero_constant=True)
            inv = f.inverse()
            for n in range(1, 7):
                direct = inv.ht(n).truncate(f.order - n)
                strict = oracles.ht_quotient_strict_rhs(f, n)
                weak = oracles.ht_quotient_weak_rhs(f, n)
                assert direct == strict, n
                assert direct == weak, n
        _pass(5, "strict and weak quotient rules both equal direct inversion "
                 "for n <= 6 on 50 random series (order 10)")


CATALOG = [
    FamilySpec.bernoulli(),
    FamilySpec.euler(),
    FamilySpec.hyper_bernoulli(1, 1),
    FamilySpec.hyper_bernoulli(2, 3),
    FamilySpec.hyper_cauchy(1, 1),
    FamilySpec.hyper_cauchy(3, 2),
]


class TestCriterion06:
    def test_criterion_06_appell_characterization(self):
        for spec in CATALOG:
            seq = family_coefficients(spec, 12)
            for r in (1, 2, 3):
                table = related_numbers_recurrence(seq, r, 12)
                polys = [appell_polynomial(table, n) for n in range(13)]
                for n in range(13):
                    assert polynomial_eval(polys[n], 0) == table.a[n], (spec.label, r, n)
                    if n >= 1:
                        expected = tuple(n * c for c in polys[n - 1].coeffs_in_z)
                        assert polynomial_derivative(polys[n]) == expected, (
                            spec.label, r, n,
                        )
        _pass(6, "A_n' = n A_(n-1) and A_n(0) = a_n for the whole catalog, "
                 "r <= 3, n <= 12")


class TestCriterion07:
    def test_criterion_07_power_sums(self):
        for n in range(7):
            for m in range(1, 11):
                lhs, rhs = power_sum_check(n, m)
                assert lhs == rhs, ("plain", n, m)
                lhs, rhs = alt_power_sum_check(n, m)
                assert lhs == rhs, ("alternating", n, m)
        _pass(7, "Bernoulli power sums and Euler alternating power sums agree "
                 "for all n <= 6, m <= 10")


def _display_matrix(n, entry):
    """Unit-superdiagonal Hessenberg matrix with entry(e) at e = i - j + 1."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == i + 1:
                row.append(F(1))
            elif j > i + 1:
                row.append(F(0))
            else:
                row.append(entry(i - j + 1))
        rows.append(row)
    return rows


class TestCriterion08:
    def test_criterion_08_hypergeometric_displays(self):
        for M in (1, 2, 3):
            for N in (1, 2, 3):
                b_seq = family_coefficients(FamilySpec.hyper_bernoulli(M, N), 10)
                b = related_numbers_recurrence(b_seq, 1, 10).a
                c_seq = family_coefficients(FamilySpec.hyper_cauchy(M, N), 10)
                c = related_numbers_recurrence(c_seq, 1, 10).a
                assert b[0] == 1 and c[0] == 1

                def b_entry(e, M=M, N=N):
                    return rising_factorial(M, e) / (
                        math.factorial(e) * rising_factorial(M + N, e)
                    )

                def c_entry(e, M=M, N=N):
                    return rising_factorial(M, e) * N / (math.factorial(e) * (N + e))

                fact = 1
                for n in range(1, 11):
                    fact *= n
                    det_b = oracles.gauss_det(_display_matrix(n, b_entry))
                    expected_b = fact * det_b if n % 2 == 0 else -fact * det_b
                    assert b[n] == expected_b, ("bernoulli", M, N, n)
                    # the Cauchy display absorbs the (-1)^n into the matrix:
                    # all entries positive, prefactor just n!
                    det_c = oracles.gauss_det(_display_matrix(n, c_entry))
                    assert c[n] == fact * det_c, ("cauchy", M, N, n)
        _pass(8, "verbatim display matrices reproduce B_{M,N,n} and c_{M,N,n} "
                 "for (M,N) in {1,2,3}^2, n <= 10 (independent Gaussian "
                 "elimination)")


class TestCriterion09:
    def test_criterion_09_convolution_law(self):
        rng = random.Random(SEED + 9)
        for _ in range(20):
            seq = CoefficientSequence.from_values(
                [F(1)] + [oracles.rand_fraction(rng) for _ in range(10)]
            )
            tables = {r: compute_D(seq, r, 10).D for r in range(1, 7)}
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    for e in range(11):
                        convolved = sum(
                            (tables[r][j] * tables[s][e - j] for j in range(e + 1)),
                            F(0),
                        )
                        assert tables[r + s][e] == convolved, (r, s, e)
        _pass(9, "D_(r+s)(e) = sum_j D_r(j) D_s(e-j) for r,s <= 3, e <= 10 "
                 "on 20 random sequences")


class TestCriterion10:
    def test_criterion_10_performance_sanity(self):
        seq = family_coefficients(FamilySpec.bernoulli(), 200)
        t0 = time.perf_counter()
        det = related_numbers_determinant(seq, 1, 200)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"Bareiss determinant n=200 took {elapsed:.2f}s"
        assert det.a == related_numbers_negative_power(seq, 1, 200).a
        _pass(10, f"Bareiss determinant full table n=200 in {elapsed:.2f}s (< 10s); "
                  "the negative power agrees up to n = 200")
