import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appellseq import engine
from appellseq.arith import DEFAULT_COMPOSITION_CAP, CombinatorialBlowupError
from appellseq.engine import (
    COMPOSITION,
    DETERMINANT_BAREISS,
    DETERMINANT_HESSENBERG,
    INVERSION,
    NEGATIVE_POWER,
    RECURRENCE,
    AppellPolynomial,
    CoefficientSequence,
    NormalizationError,
    PowerCoefficientTable,
    VerificationReport,
    appell_polynomial,
    compute_D,
    cross_verify,
    first_disagreement,
    polynomial_derivative,
    polynomial_eval,
    recurrence_values,
    related_numbers_composition,
    related_numbers_determinant,
    related_numbers_inversion,
    related_numbers_negative_power,
    related_numbers_recurrence,
)
from appellseq.families import FamilySpec, family_coefficients, load_custom_family

import oracles
from oracles import alt_power_sum_check, power_sum_check

F = Fraction

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def sequence_strategy(max_len=9):
    return st.builds(
        lambda rest: CoefficientSequence.from_values([F(1)] + rest),
        st.lists(rationals, min_size=1, max_size=max_len),
    )


def bernoulli_seq(n_max):
    return family_coefficients(FamilySpec.bernoulli(), n_max)


class TestCoefficientSequence:
    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError):
            CoefficientSequence.from_values([2, 1])
        with pytest.raises(NormalizationError):
            CoefficientSequence(())

    def test_ordinary_divides_by_factorials(self):
        seq = CoefficientSequence.from_values([1, 1, 1, 1])
        assert oracles.ordinary(seq).coeffs == (1, 1, F(1, 2), F(1, 6))

    def test_resolve_bounds(self):
        seq = CoefficientSequence.from_values([1, 2])
        assert seq.n_max == 1
        with pytest.raises(ValueError):
            compute_D(seq, 1, 5)
        with pytest.raises(ValueError):
            related_numbers_recurrence(seq, 1, -1)


class TestComputeD:
    def test_r1_is_ordinary_series(self):
        seq = bernoulli_seq(6)
        assert compute_D(seq, 1).D == oracles.ordinary(seq).coeffs

    def test_matches_weak_composition_sum(self):
        rng = random.Random(5)
        for _ in range(10):
            seq = CoefficientSequence.from_values(
                [F(1)] + [oracles.rand_fraction(rng) for _ in range(8)]
            )
            for r in (1, 2, 3):
                table = compute_D(seq, r, 8)
                for e in range(9):
                    assert table.D[e] == oracles.weak_D(seq.d, r, e)

    def test_exponential_base_case(self):
        # f = e^t: D_r(e) = r^e / e!
        seq = CoefficientSequence.from_values([1] * 7)
        for r in (1, 2, 3):
            D = compute_D(seq, r, 6).D
            fact = 1
            for e in range(7):
                if e:
                    fact *= e
                assert D[e] == F(r**e, fact)

    def test_recurrence_records_peak_bits(self):
        D = compute_D(bernoulli_seq(20), 2).D
        stats = {}
        a = recurrence_values(D, 20, stats=stats)
        assert a == recurrence_values(D, 20)
        assert stats["max_num_bits"] > 0

    def test_recurrence_does_not_read_d0(self):
        D = compute_D(bernoulli_seq(12), 2).D
        assert recurrence_values((F(5),) + D[1:], 12) == recurrence_values(D, 12)

    def test_routes_take_a_shared_table(self):
        seq = bernoulli_seq(10)
        D = compute_D(seq, 2, 10).D
        assert related_numbers_inversion(seq, 2, 10, D=D) == related_numbers_inversion(seq, 2, 10)
        assert related_numbers_recurrence(seq, 2, 10, D=D).a == related_numbers_inversion(seq, 2, 10).a
        with pytest.raises(ValueError, match="D"):
            related_numbers_recurrence(seq, 2, 10, D=D[:10])

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            compute_D(bernoulli_seq(3), 0)
        with pytest.raises(ValueError):
            PowerCoefficientTable(r=1, D=(F(2),))


class TestKnownTables:
    def test_bernoulli_numbers(self):
        table = related_numbers_recurrence(bernoulli_seq(12), 1, 12)
        assert table.a == (
            1, F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0,
            F(-1, 30), 0, F(5, 66), 0, F(-691, 2730),
        )
        assert table.algorithm == RECURRENCE

    def test_bernoulli_against_akiyama_tanigawa(self):
        table = related_numbers_recurrence(bernoulli_seq(16), 1, 16)
        assert list(table.a) == oracles.akiyama_tanigawa(16)

    def test_euler_numbers(self):
        seq = family_coefficients(FamilySpec.euler(), 8)
        table = related_numbers_recurrence(seq, 1, 8)
        assert table.a == (1, F(-1, 2), 0, F(1, 4), 0, F(-1, 2), 0, F(17, 8), 0)

    def test_higher_order_bernoulli_small(self):
        # 1/f^2 where f = (e^t - 1)/t: a_1^(2) = -1, a_2^(2) = 5/6
        table = related_numbers_recurrence(bernoulli_seq(2), 2, 2)
        assert table.a == (1, F(-1), F(5, 6))


class TestRouteAgreement:
    @settings(max_examples=25, deadline=None)
    @given(sequence_strategy(max_len=8), st.integers(1, 4))
    def test_all_routes_agree(self, seq, r):
        n_max = seq.n_max
        rec = related_numbers_recurrence(seq, r, n_max)
        assert related_numbers_determinant(seq, r, n_max, kernel="hessenberg").a == rec.a
        assert related_numbers_determinant(seq, r, n_max, kernel="bareiss").a == rec.a
        assert related_numbers_composition(seq, r, n_max).a == rec.a
        assert related_numbers_inversion(seq, r, n_max).a == rec.a

    def test_algorithm_tags(self):
        seq = bernoulli_seq(3)
        assert related_numbers_composition(seq, 1).algorithm == COMPOSITION
        assert related_numbers_inversion(seq, 1).algorithm == INVERSION
        assert (
            related_numbers_determinant(seq, 1, kernel="hessenberg").algorithm
            == DETERMINANT_HESSENBERG
        )
        assert (
            related_numbers_determinant(seq, 1, kernel="bareiss").algorithm
            == DETERMINANT_BAREISS
        )

    def test_both_kernels_serve_n_max_zero(self):
        for kernel in ("hessenberg", "bareiss"):
            assert related_numbers_determinant(bernoulli_seq(3), 1, 0, kernel=kernel).a == (1,)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            related_numbers_determinant(bernoulli_seq(3), 1, kernel="gauss")

    def test_composition_cap(self):
        seq = bernoulli_seq(DEFAULT_COMPOSITION_CAP + 1)
        with pytest.raises(CombinatorialBlowupError):
            related_numbers_composition(seq, 1, DEFAULT_COMPOSITION_CAP + 1)
        # a tighter explicit cap trips earlier; a looser one lifts the guard
        with pytest.raises(CombinatorialBlowupError):
            related_numbers_composition(seq, 1, 8, cap=5)
        table = related_numbers_composition(seq, 1, 8, cap=8)
        assert table.a == related_numbers_recurrence(seq, 1, 8).a


    def test_composition_matches_partition_oracle_on_random_sequences(self):
        rng = random.Random(41)
        entries = [F(0)] * 12 + [F(p, q) for p in range(-4, 5) if p for q in (1, 2, 3)]
        tables_with_zeros = 0
        for _ in range(200):
            n_max = rng.randint(0, 12)
            r = rng.randint(1, 4)
            seq = CoefficientSequence.from_values(
                [F(1)] + [rng.choice(entries) for _ in range(n_max)]
            )
            D = compute_D(seq, r, n_max).D
            tables_with_zeros += 0 in D[1:]
            got = related_numbers_composition(seq, r, n_max).a
            assert list(got) == oracles.composition_by_partitions(D, n_max)
        assert tables_with_zeros >= 40

    @pytest.mark.parametrize(
        "spec, r",
        [
            (FamilySpec.bernoulli(), 1),
            (FamilySpec.euler(), 2),
            (FamilySpec.hyper_bernoulli(2, 3), 3),
            (FamilySpec.hyper_cauchy(2, 3), 2),
        ],
    )
    def test_composition_matches_partition_oracle_on_catalog(self, spec, r):
        seq = family_coefficients(spec, 22)
        D = compute_D(seq, r, 22).D
        got = related_numbers_composition(seq, r, 22, D=D).a
        assert list(got) == oracles.composition_by_partitions(D, 22)

    @pytest.mark.parametrize(
        "spec, r", [(FamilySpec.bernoulli(), 1), (FamilySpec.hyper_cauchy(2, 3), 2)]
    )
    def test_composition_at_n_34(self, spec, r):
        seq = family_coefficients(spec, 34)
        D = compute_D(seq, r, 34).D
        assert list(related_numbers_composition(seq, r, 34, D=D).a) == recurrence_values(D, 34)


class TestProductionRoute:
    """The production table, Miller's loop on f^(-r), must equal the paper's
    D_r convolution recurrence exactly."""

    ORDERS = (1, 2, 3, 7, 16)

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.bernoulli(),
            FamilySpec.euler(),
            FamilySpec.hyper_bernoulli(1, 1),
            FamilySpec.hyper_bernoulli(2, 3),
            FamilySpec.hyper_cauchy(1, 1),
            FamilySpec.hyper_cauchy(3, 2),
        ],
        ids=lambda spec: spec.label,
    )
    def test_equals_d_recurrence_on_catalog(self, spec):
        seq = family_coefficients(spec, 60)
        for r in self.ORDERS:
            table = related_numbers_negative_power(seq, r, 60)
            assert table.algorithm == NEGATIVE_POWER
            assert table.a == related_numbers_recurrence(seq, r, 60).a, (spec.label, r)

    def test_equals_d_recurrence_on_custom_file(self, tmp_path):
        rng = random.Random(9)
        values = ["1"] + [
            f"{rng.randint(-40, 40)}/{rng.choice((2, 3, 7, 11, 13, 49))}" for _ in range(60)
        ]
        path = tmp_path / "fam.txt"
        path.write_text("\n".join(values) + "\n")
        seq = family_coefficients(load_custom_family(path), 60)
        assert any(d.denominator > 1 for d in seq.d)
        for r in self.ORDERS:
            assert (
                related_numbers_negative_power(seq, r, 60).a
                == related_numbers_recurrence(seq, r, 60).a
            ), r


class TestCrossVerify:
    def test_agreement_report(self):
        report = cross_verify(bernoulli_seq(10), 2, 10)
        assert report.agree
        assert report.first_mismatch is None
        assert "all 4 routes agree" in report.describe()
        assert set(report.tables) == {
            RECURRENCE,
            DETERMINANT_BAREISS,
            COMPOSITION,
            NEGATIVE_POWER,
        }

    def test_composition_capped_not_failed(self):
        # past the cap the composition route shortens instead of raising
        report = cross_verify(bernoulli_seq(15), 1, 15, cap=10)
        assert report.agree
        assert len(report.tables[COMPOSITION]) == 11
        assert len(report.tables[RECURRENCE]) == 16

    def test_capped_report_names_composition_range(self):
        report = cross_verify(bernoulli_seq(14), 1, 14, cap=8)
        assert report.coverage[COMPOSITION] == 8
        assert report.coverage[RECURRENCE] == 14
        text = report.describe()
        assert text.startswith("all 4 routes agree for r=1, n <= 14")
        assert "composition only n <= 8" in text
        # a route that covered the full range is not singled out
        full = cross_verify(bernoulli_seq(8), 1, 8, cap=8).describe()
        assert full == "all 4 routes agree for r=1, n <= 8"

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_doctored_power_table_is_caught(self, monkeypatch, r):
        # Every route but the negative power starts from compute_D's table,
        # so only that witness can see a wrong D_r(5).
        def doctored(seq, r, n_max=None):
            D = list(real_compute_D(seq, r, n_max).D)
            D[5] += F(1, 7)
            return PowerCoefficientTable(r=r, D=tuple(D))

        real_compute_D = engine.compute_D
        monkeypatch.setattr(engine, "compute_D", doctored)
        report = cross_verify(family_coefficients(FamilySpec.hyper_cauchy(2, 3), 10), r, 10)
        assert report.first_mismatch == 5
        assert report.describe() == f"routes disagree first at n=5 (r={r})"

    def test_first_disagreement_detects_doctored_table(self):
        good = (F(1), F(-1, 2), F(1, 6))
        bad = (F(1), F(-1, 2), F(1, 7))
        assert first_disagreement({"a": good, "b": good}) is None
        assert first_disagreement({"a": good, "b": bad}) == 2
        # shorter tables only constrain the indices they cover
        assert first_disagreement({"a": good, "b": good[:2]}) is None
        assert first_disagreement({"a": good, "b": (F(1), F(1, 3))}) == 1
        report = VerificationReport(
            r=1, n_max=2, tables={"a": good, "b": bad}, first_mismatch=2
        )
        assert not report.agree
        assert "disagree first at n=2" in report.describe()


class TestAppellPolynomials:
    def test_bernoulli_polynomials(self):
        table = related_numbers_recurrence(bernoulli_seq(3), 1, 3)
        # B_2(z) = z^2 - z + 1/6, ascending coefficients
        assert appell_polynomial(table, 2).coeffs_in_z == (F(1, 6), F(-1), F(1))
        assert appell_polynomial(table, 0).coeffs_in_z == (F(1),)

    def test_euler_polynomials(self):
        seq = family_coefficients(FamilySpec.euler(), 3)
        table = related_numbers_recurrence(seq, 1, 3)
        # E_2(z) = z^2 - z, E_3(z) = z^3 - (3/2) z^2 + 1/4
        assert appell_polynomial(table, 2).coeffs_in_z == (0, F(-1), F(1))
        assert appell_polynomial(table, 3).coeffs_in_z == (F(1, 4), 0, F(-3, 2), F(1))

    def test_degree_bounds(self):
        table = related_numbers_recurrence(bernoulli_seq(3), 1, 3)
        with pytest.raises(ValueError):
            appell_polynomial(table, 4)
        with pytest.raises(ValueError):
            appell_polynomial(table, -1)
        with pytest.raises(ValueError):
            AppellPolynomial(n=2, r=1, coeffs_in_z=(F(1),))

    def test_eval_horner(self):
        table = related_numbers_recurrence(bernoulli_seq(4), 1, 4)
        B3 = appell_polynomial(table, 3)
        assert polynomial_eval(B3, F(1, 2)) == 0
        assert polynomial_eval(B3, 0) == table.a[3]
        assert polynomial_eval(B3, 1) == F(1, 2) - F(3, 2) + 1  # B_3(1)

    def test_derivative(self):
        table = related_numbers_recurrence(bernoulli_seq(4), 1, 4)
        B3 = appell_polynomial(table, 3)
        B2 = appell_polynomial(table, 2)
        assert polynomial_derivative(B3) == tuple(3 * c for c in B2.coeffs_in_z)
        assert polynomial_derivative(appell_polynomial(table, 0)) == (F(0),)

    @settings(max_examples=20, deadline=None)
    @given(sequence_strategy(max_len=7), st.integers(1, 3))
    def test_appell_property_random(self, seq, r):
        table = related_numbers_recurrence(seq, r, seq.n_max)
        for n in range(1, seq.n_max + 1):
            pn = appell_polynomial(table, n)
            pn1 = appell_polynomial(table, n - 1)
            assert polynomial_derivative(pn) == tuple(
                n * c for c in pn1.coeffs_in_z
            )
            assert polynomial_eval(pn, 0) == table.a[n]


class TestResidualIdentity:
    def test_residual_vanishes(self):
        rng = random.Random(11)
        for _ in range(10):
            seq = CoefficientSequence.from_values(
                [F(1)] + [oracles.rand_fraction(rng) for _ in range(8)]
            )
            for r in (1, 2, 3):
                D = compute_D(seq, r, 8).D
                table = related_numbers_recurrence(seq, r, 8)
                fact = [1] * 9
                for i in range(1, 9):
                    fact[i] = fact[i - 1] * i
                for n in range(1, 9):
                    residual = sum(
                        (D[n - m] * table.a[m] / fact[m] for m in range(n + 1)),
                        F(0),
                    )
                    assert residual == 0


class TestPowerSums:
    def test_direct_values(self):
        assert power_sum_check(1, 10) == (55, 55)
        assert power_sum_check(2, 4) == (30, 30)
        assert power_sum_check(0, 5) == (5, 5)

    def test_alternating_values(self):
        assert alt_power_sum_check(0, 2) == (0, 0)
        assert alt_power_sum_check(1, 4) == (-2, -2)
        assert alt_power_sum_check(3, 3) == (20, 20)

    def test_all_small_cases_agree(self):
        for n in range(7):
            for m in range(1, 11):
                lhs, rhs = power_sum_check(n, m)
                assert lhs == rhs
                lhs, rhs = alt_power_sum_check(n, m)
                assert lhs == rhs

    def test_validation(self):
        with pytest.raises(ValueError):
            power_sum_check(-1, 3)
        with pytest.raises(ValueError):
            power_sum_check(2, 0)
        with pytest.raises(ValueError):
            alt_power_sum_check(2, 0)
