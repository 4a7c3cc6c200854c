import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appellseq import determinants, engine, series
from appellseq.arith import DEFAULT_COMPOSITION_CAP, CombinatorialBlowupError
from appellseq.engine import (
    COMPOSITION,
    DETERMINANT_BAREISS,
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
    first_disagreement_pairs,
    polynomial_eval,
    recurrence_values,
    related_numbers_composition,
    related_numbers_determinant,
    related_numbers_negative_power,
    related_numbers_recurrence,
)
from appellseq.families import FamilySpec, family_coefficients, load_custom_family

import oracles
from oracles import alt_power_sum_check, polynomial_derivative, power_sum_check

F = Fraction

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def sequence_strategy(max_len=9):
    return st.builds(
        lambda rest: CoefficientSequence.from_values([F(1)] + rest),
        st.lists(rationals, min_size=1, max_size=max_len),
    )


def bernoulli_seq(n_max):
    return family_coefficients(FamilySpec.bernoulli(), n_max)


def pair(D):
    """A D table as the numerators and denominators the kernels take."""
    return [x.numerator for x in D], [x.denominator for x in D]


def composition_table(D, n):
    """The composition kernel on D's numerators and denominators, each
    value reduced once."""
    return list(map(F, *engine.composition_numerators(*pair(D), n)))


CATALOG = [
    FamilySpec.bernoulli(),
    FamilySpec.euler(),
    FamilySpec.hyper_bernoulli(1, 1),
    FamilySpec.hyper_bernoulli(2, 3),
    FamilySpec.hyper_cauchy(1, 1),
    FamilySpec.hyper_cauchy(3, 2),
]


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
        # the minor recurrence: (-1)^n n! det M_n = a_n
        minors = determinants.hessenberg_leading_minors(compute_D(seq, r, n_max).D, n_max)
        fact = [math.factorial(n) for n in range(n_max + 1)]
        assert tuple((-1) ** n * fact[n] * x for n, x in enumerate(minors)) == rec.a
        assert related_numbers_determinant(seq, r, n_max).a == rec.a
        assert related_numbers_composition(seq, r, n_max).a == rec.a
        assert related_numbers_negative_power(seq, r, n_max).a == rec.a

    def test_algorithm_tags(self):
        seq = bernoulli_seq(3)
        assert related_numbers_recurrence(seq, 1).algorithm == RECURRENCE
        assert related_numbers_composition(seq, 1).algorithm == COMPOSITION
        assert related_numbers_determinant(seq, 1).algorithm == DETERMINANT_BAREISS
        assert related_numbers_negative_power(seq, 1).algorithm == NEGATIVE_POWER

    def test_both_kernels_serve_n_max_zero(self):
        seq = bernoulli_seq(3)
        assert related_numbers_determinant(seq, 1, 0).a == (1,)
        assert determinants.hessenberg_leading_minors(compute_D(seq, 1, 0).D, 0) == [1]

    def test_kernel_argument_is_gone(self):
        # one determinant route, Bareiss: no knob to pick another
        with pytest.raises(TypeError):
            related_numbers_determinant(bernoulli_seq(3), 1, kernel="bareiss")

    def test_d_table_and_stats_arguments_are_gone(self):
        # every route computes D_r itself, from f^r's (M, Q)
        seq = bernoulli_seq(3)
        D = compute_D(seq, 1, 3).D
        for route in (
            related_numbers_recurrence, related_numbers_composition, related_numbers_determinant,
        ):
            with pytest.raises(TypeError):
                route(seq, 1, 3, D=D)
        with pytest.raises(TypeError):
            related_numbers_determinant(seq, 1, 3, stats={})

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
        assert composition_table(D, 22) == oracles.composition_by_partitions(D, 22)

    @pytest.mark.parametrize(
        "spec, r", [(FamilySpec.bernoulli(), 1), (FamilySpec.hyper_cauchy(2, 3), 2)]
    )
    def test_composition_at_n_34(self, spec, r):
        seq = family_coefficients(spec, 34)
        D = compute_D(seq, r, 34).D
        assert composition_table(D, 34) == recurrence_values(D, 34)


sparse_tables = st.lists(
    st.one_of(st.just(F(0)), rationals), min_size=1, max_size=14
).filter(lambda rest: rest.count(0) * 2 >= len(rest))


class TestCompositionTriangle:
    """The power triangle of h = sum D_r(e) t^e against the partition
    walk it replaced, the production table and the D-recurrence."""

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.label)
    def test_equals_partition_walk_on_catalog(self, spec):
        seq = family_coefficients(spec, 34)
        for r in (1, 2, 3, 7):
            D = compute_D(seq, r, 34).D
            got = composition_table(D, 34)
            assert got == oracles.composition_by_partition_walk(D, 34), r

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.label)
    def test_equals_production_table_to_60(self, spec):
        seq = family_coefficients(spec, 60)
        for r in (1, 2, 7):
            got = related_numbers_composition(seq, r, 60, cap=60)
            assert got.a == related_numbers_negative_power(seq, r, 60).a, r

    @settings(max_examples=60, deadline=None)
    @given(sparse_tables)
    def test_sparse_tables(self, rest):
        # at least half of D(1..n) is zero, so most products vanish
        D = (F(1), *rest)
        n = len(rest)
        got = composition_table(D, n)
        assert got == oracles.composition_by_partition_walk(D, n)
        assert got == oracles.composition_by_partitions(D, n)
        assert got == recurrence_values(D, n)

    def test_shares_no_code_with_the_other_witnesses(self, monkeypatch):
        seq = family_coefficients(FamilySpec.hyper_cauchy(2, 3), 20)
        D = compute_D(seq, 3, 20).D
        expected = recurrence_values(D, 20)

        def must_not_run(*args, **kwargs):
            raise AssertionError("the composition route ran another witness")

        for owner, name in (
            (series, "exponential_power"),
            (engine, "exponential_power"),
            (series, "exponential_power_numerators"),
            (engine, "exponential_power_numerators"),
            (determinants, "bareiss_numerators"),
            (engine, "bareiss_numerators"),
        ):
            monkeypatch.setattr(owner, name, must_not_run)
        assert composition_table(D, 20) == expected


class TestProductionRoute:
    """The production table, Miller's loop on f^(-r), must equal the paper's
    D_r convolution recurrence exactly."""

    ORDERS = (1, 2, 3, 7, 16)

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.label)
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
        assert set(report.pairs) == {
            RECURRENCE,
            DETERMINANT_BAREISS,
            COMPOSITION,
            NEGATIVE_POWER,
        }

    def test_composition_capped_not_failed(self):
        # past the cap the composition route shortens instead of raising
        report = cross_verify(bernoulli_seq(15), 1, 15, cap=10)
        assert report.agree
        assert len(report.table(COMPOSITION)) == 11
        assert len(report.table(NEGATIVE_POWER)) == 16

    def test_capped_report_names_composition_range(self):
        report = cross_verify(bernoulli_seq(14), 1, 14, cap=8)
        assert report.coverage[COMPOSITION] == 8
        assert report.coverage[NEGATIVE_POWER] == 14
        text = report.describe()
        # at r = 1 the D-recurrence is the negative power: 3 routes, not 4
        assert text.startswith("all 3 routes agree for r=1, n <= 14")
        assert "composition only n <= 8" in text
        # a route that covered the full range is not singled out
        full = cross_verify(bernoulli_seq(8), 1, 8, cap=8).describe()
        assert full == "all 3 routes agree for r=1, n <= 8"

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_doctored_power_table_is_caught(self, monkeypatch, r):
        # Every route but the negative power starts from f^r's (M, Q), so
        # only that witness can see a wrong D_r(5) = M_5 / (Q 5!).
        def doctored(seq, r, n_max=None):
            M, Q = real_power_numerators(seq, r, n_max)
            M = list(M)
            M[5] += 1
            return M, Q

        real_power_numerators = engine.power_numerators
        monkeypatch.setattr(engine, "power_numerators", doctored)
        report = cross_verify(family_coefficients(FamilySpec.hyper_cauchy(2, 3), 10), r, 10)
        assert report.first_mismatch == 5
        assert report.describe() == f"routes disagree first at n=5 (r={r})"

    def test_first_disagreement_detects_doctored_table(self):
        pairs = {"a": ([1, -1, 1], [1, 2, 6]), "b": ([1, -1, 1], [1, 2, 7])}
        report = VerificationReport(
            r=1, n_max=2, pairs=pairs, first_mismatch=first_disagreement_pairs(pairs)
        )
        assert report.first_mismatch == 2
        assert not report.agree
        assert "disagree first at n=2" in report.describe()


class TestIntegerComparison:
    """`first_disagreement_pairs` compares u/d with u'/d' as u d' == u' d,
    and `cross_verify` reports a one-unit change in any route's
    numerators at its index."""

    def test_equal_rationals_written_differently_agree(self):
        assert first_disagreement_pairs({"a": ([2], [4]), "b": ([1], [2])}) is None
        assert first_disagreement_pairs({"a": ([-3], [6]), "b": ([-1], [2])}) is None
        assert first_disagreement_pairs({"a": ([1, -3], [1, 6]), "b": ([1, 1], [1, 2])}) == 1
        assert first_disagreement_pairs({"a": ([0, 4], [5, 8]), "b": ([0, 1], [1, 2])}) is None

    def test_doctored_table_is_found_at_its_index(self):
        good = ([1, -1, 1], [1, 2, 6])
        bad = ([1, -1, 1], [1, 2, 7])
        assert first_disagreement_pairs({"a": good, "b": good}) is None
        assert first_disagreement_pairs({"a": good, "b": bad}) == 2
        # shorter tables only constrain the indices they cover
        assert first_disagreement_pairs({"a": good, "b": ([1, -1], [1, 2])}) is None
        assert first_disagreement_pairs({"a": good, "b": ([1, 1], [1, 3])}) == 1

    def test_unequal_lengths_compare_the_shared_prefix(self):
        full = ([1, 2, 3], [1, 1, 1])
        assert first_disagreement_pairs({"a": full, "b": ([2, 4], [2, 2])}) is None
        assert first_disagreement_pairs({"a": ([2, 4], [2, 2]), "b": full}) is None
        assert first_disagreement_pairs({"a": ([2], [2]), "b": full, "c": ([1, 2], [1, 1])}) is None
        # b and c differ from each other where both are shorter than a
        short = {"b": ([1, 2], [1, 1]), "c": ([1, 5], [1, 2])}
        assert first_disagreement_pairs({"a": full, **short}) == 1
        # the smallest index over every table, not the first table's
        late, early = ([1, 2, 4], [1, 1, 1]), ([1, 3, 3], [1, 1, 1])
        assert first_disagreement_pairs({"a": full, "b": late, "c": early}) == 1

    # the engine name of each route's kernel, as cross_verify calls it; at
    # r >= 2 only the D-recurrence calls the Miller loop on numerators
    KERNELS = {
        RECURRENCE: "exponential_power_numerators",
        DETERMINANT_BAREISS: "determinant_numerators",
        COMPOSITION: "composition_numerators",
        NEGATIVE_POWER: "negative_power_numerators",
    }

    @pytest.mark.parametrize("route", list(KERNELS))
    def test_one_unit_in_any_route_is_reported_at_its_index(self, monkeypatch, route):
        seq = family_coefficients(FamilySpec.hyper_cauchy(2, 3), 12)
        kernel = getattr(engine, self.KERNELS[route])
        for k in (0, 1, 5, 12):

            def nudged(*args, **kwargs):
                num, den = kernel(*args, **kwargs)
                num = list(num)
                num[k] += 1
                return num, den

            monkeypatch.setattr(engine, self.KERNELS[route], nudged)
            report = cross_verify(seq, 2, 12)
            assert set(report.pairs) == set(self.KERNELS)
            assert report.first_mismatch == k, (route, k)
        monkeypatch.undo()
        assert cross_verify(seq, 2, 12).agree

    def test_tables_are_reduced_on_demand(self, monkeypatch):
        seq = family_coefficients(FamilySpec.hyper_bernoulli(2, 3), 14)
        report = cross_verify(seq, 3, 14)
        assert report.agree
        expected = related_numbers_negative_power(seq, 3, 14).a
        for name in report.pairs:
            assert report.table(name) == expected, name
        tables = {name: report.table(name) for name in report.pairs}
        assert tables == {name: expected for name in report.pairs}
        # a report is made without building a Fraction from any table
        built = []
        real_new = F.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted)
        report = cross_verify(seq, 3, 14)
        assert built == []
        report.table(NEGATIVE_POWER)
        assert len(built) == 15


class TestCompositionWorkBound:
    """`composition_reach`: the largest n whose n * bits(max |N_e|) stays
    inside MAX_COMPOSITION_WORK, N_e the D_r(1..n) over their lcm."""

    @staticmethod
    def work(D, n):
        L = math.lcm(*(x.denominator for x in D[1 : n + 1]))
        return n * max((abs(x.numerator) * (L // x.denominator) for x in D[1 : n + 1]),
                       default=0).bit_length()

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.label)
    def test_reach_is_the_largest_n_inside_the_bound(self, monkeypatch, spec):
        seq = family_coefficients(spec, 40)
        for r in (1, 3):
            D = compute_D(seq, r, 40).D
            num, den = [x.numerator for x in D], [x.denominator for x in D]
            work = [self.work(D, n) for n in range(41)]
            assert work == sorted(work)
            for bound in (0, work[1], work[10] - 1, work[10], work[40] - 1, work[40]):
                monkeypatch.setattr(engine, "MAX_COMPOSITION_WORK", bound)
                expected = max(n for n in range(41) if work[n] <= bound)
                assert engine.composition_reach(num, den, 40) == expected, (r, bound)
                assert engine.composition_reach(num, den, 7) == min(7, expected)

    def test_route_refuses_past_the_bound_before_the_triangle(self, monkeypatch):
        seq = family_coefficients(FamilySpec.euler(), 20)
        D = compute_D(seq, 2, 20).D
        monkeypatch.setattr(engine, "MAX_COMPOSITION_WORK", self.work(D, 12))

        def must_not_run(*args, **kwargs):
            raise AssertionError("built the triangle past the work bound")

        with monkeypatch.context() as patch:
            patch.setattr(engine, "composition_numerators", must_not_run)
            with pytest.raises(CombinatorialBlowupError, match="n_max=20: .* at n=13$"):
                related_numbers_composition(seq, 2, 20)
        assert related_numbers_composition(seq, 2, 12).a == related_numbers_negative_power(
            seq, 2, 12
        ).a
        report = cross_verify(seq, 2, 20)
        assert report.agree
        assert report.coverage[COMPOSITION] == 12
        assert report.describe() == "all 4 routes agree for r=2, n <= 20, composition only n <= 12"


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


class TestPackageSurface:
    def test_star_import_binds_exactly_all(self):
        import appellseq

        namespace = {}
        exec("from appellseq import *", namespace)
        del namespace["__builtins__"]
        assert len(appellseq.__all__) == len(set(appellseq.__all__))
        assert set(namespace) == set(appellseq.__all__)

    def test_test_helpers_are_not_exported(self):
        # reached only by tests or by the benchmark's tracer, which reads
        # them from `engine`
        import appellseq

        for name in (
            "binomial", "rising_factorial", "polynomial_derivative",
            "bareiss_leading_minors", "bareiss_det", "compositions",
            "hessenberg_leading_minors",
        ):
            assert name not in appellseq.__all__, name
