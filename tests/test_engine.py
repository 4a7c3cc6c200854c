import copy
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appellseq import engine, library, series, witness
from appellseq.arith import lift
from appellseq.engine import (
    NEGATIVE_POWER,
    CoefficientSequence,
    NormalizationError,
)
from appellseq.library import (
    AppellPolynomial,
    PowerCoefficientTable,
    RelatedNumberTable,
    appell_polynomial,
    compute_D,
    RECURRENCE,
    polynomial_eval,
    related_numbers_composition,
    related_numbers_determinant,
    related_numbers_negative_power,
    related_numbers_recurrence,
)
from appellseq.families import FamilySpec, family_coefficients, load_custom_family
from appellseq.witness import (
    COMPOSITION,
    DEFAULT_COMPOSITION_CAP,
    DETERMINANT_BAREISS,
    IDENTITY,
    CombinatorialBlowupError,
    VerificationReport,
    cross_verify,
    first_disagreement_pairs,
)

import oracles
from oracles import (
    alt_power_sum_check,
    polynomial_derivative,
    power_sum_check,
    recurrence_values,
)

F = Fraction

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def sequence_strategy(max_len=9):
    return st.builds(
        lambda rest: CoefficientSequence.from_values([F(1)] + rest),
        st.lists(rationals, min_size=1, max_size=max_len),
    )


def bernoulli_seq(n_max):
    return family_coefficients(FamilySpec.bernoulli(), n_max)


def pair(D, n):
    """D(1)..D(n) of a D table lifted over one denominator, (N, L), as the
    composition kernel takes them."""
    L, N = lift(D[1 : n + 1])
    return N, L


def composition_table(D, n):
    """The composition kernel at r = 1 on D(1)..D(n) lifted, the
    exponential coefficients of 1/D, each value reduced once."""
    return list(map(F, *witness.composition_numerators(*pair(D, n), 1)))


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
        minors = oracles.hessenberg_leading_minors(compute_D(seq, r, n_max).D, n_max)
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
        assert oracles.hessenberg_leading_minors(compute_D(seq, 1, 0).D, 0) == [1]

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
    """The power triangle of h = sum D_r(e) t^e at r = 1 against the
    partition walk it replaced and the D-recurrence, and the route on f
    itself against the production table."""

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
        production = {r: related_numbers_negative_power(seq, r, 20).a for r in (2, 7)}

        def must_not_run(*args, **kwargs):
            raise AssertionError("the composition route ran another witness")

        for owner, name in (
            (library, "exponential_power"),
            (series, "exponential_power_numerators"),
            (engine, "exponential_power_numerators"),
            (engine, "power_numerators"),
            (witness, "determinant_numerators"),
        ):
            monkeypatch.setattr(owner, name, must_not_run)
        assert composition_table(D, 20) == expected
        # the route reads f's (P, L) alone: no f^r, no loop, no determinant
        for r, a in production.items():
            assert related_numbers_composition(seq, r, 20).a == a, r

    @settings(max_examples=40, deadline=None)
    @given(sequence_strategy(max_len=9), st.integers(1, 20))
    def test_weights_on_f_give_the_negative_power(self, seq, r):
        # row k of f - 1's triangle weighted by C(r+k-1, k) sums to f^(-r)
        N, L = pair(compute_D(seq, 1).D, seq.n_max)  # D_1(e) = d_e / e!
        got = list(map(F, *witness.composition_numerators(N, L, r)))
        assert got == list(related_numbers_negative_power(seq, r).a)

    @pytest.mark.parametrize("r", [0, -1])
    def test_order_below_1_is_refused_before_any_input(self, monkeypatch, r):
        # the sum itself takes any r: alone it gave 1, 0, 0, ... at r = 0
        # and f's own d_n at r = -1
        for owner, name in ((witness, "composition_numerators"),
                            (engine, "exponential_power_numerators")):
            monkeypatch.setattr(owner, name, fail)
        seq = bernoulli_seq(5)
        message = rf"^order r must be >= 1, got {r}$"
        with pytest.raises(ValueError, match=message):
            witness.run_routes(seq, r, 5, (COMPOSITION,))
        with pytest.raises(ValueError, match=message):
            related_numbers_composition(seq, r, 5)


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

    @pytest.mark.parametrize("r", [0, -1, -3])
    def test_order_below_1_is_refused_before_the_loop(self, monkeypatch, r):
        # as `power_numerators` refuses it; at r = -1 the loop would give
        # f's own table and leave `stats` empty
        monkeypatch.setattr(engine, "exponential_power_numerators", fail)
        seq = bernoulli_seq(5)
        message = rf"^order r must be >= 1, got {r}$"
        with pytest.raises(ValueError, match=message):
            engine.negative_power_numerators(seq, r, 5, stats={"steps": []})
        with pytest.raises(ValueError, match=message):
            witness.run_routes(seq, r, 5, (NEGATIVE_POWER,))


class TestRunRoutes:
    @pytest.mark.parametrize(
        "routes", [(), ("foo",), (NEGATIVE_POWER, "foo"), NEGATIVE_POWER, ("recurrence",)]
    )
    def test_route_names_are_checked_before_any_work(self, monkeypatch, routes):
        # an empty selection once failed in max(); an unknown name beside a
        # known one was dropped, and "all 1 routes agree" reported; a bare
        # name is a sequence of one-letter names; the D-recurrence is a
        # library route, not a check
        for name in ("power_numerators", "exponential_power_numerators"):
            monkeypatch.setattr(engine, name, fail)
        message = (
            "^routes must be one or more of determinant:bareiss, "
            "composition, negative-power, got "
        )
        with pytest.raises(ValueError, match=message):
            witness.run_routes(bernoulli_seq(5), 1, 3, routes)

    @pytest.mark.parametrize("cap", [None, 12])
    @pytest.mark.parametrize("spec, r", [(FamilySpec.bernoulli(), 2),
                                         (FamilySpec.hyper_cauchy(2, 3), 3)])
    def test_every_subset_gives_the_full_run_tables(self, spec, r, cap):
        # each non-empty subset, named in reverse order: its tables come back
        # in ROUTES order, each as the full run made it, and the identity
        # runs exactly when the production route does
        seq = family_coefficients(spec, 20)
        full = witness.run_routes(seq, r, 20, witness.ROUTES, cap)
        assert list(full.pairs) == list(witness.ROUTES) and full.proved == 20
        for mask in range(1, 2 ** len(witness.ROUTES)):
            subset = [route for i, route in enumerate(witness.ROUTES) if mask >> i & 1]
            report = witness.run_routes(seq, r, 20, subset[::-1], cap)
            assert list(report.pairs) == subset
            assert report.pairs == {route: full.pairs[route] for route in subset}
            assert report.proved == (full.proved if NEGATIVE_POWER in subset else None)
            assert report.agree

    def test_library_recurrence_goes_through_no_check(self, monkeypatch):
        # the D-recurrence runs the request path's kernels itself
        monkeypatch.setattr(witness, "run_routes", fail)
        for spec, r in ((FamilySpec.bernoulli(), 1), (FamilySpec.hyper_cauchy(2, 3), 3)):
            seq = family_coefficients(spec, 30)
            table = related_numbers_recurrence(seq, r, 30)
            assert table.algorithm == RECURRENCE
            assert table.a == related_numbers_negative_power(seq, r, 30).a, spec.label


class TestCrossVerify:
    def test_agreement_report(self):
        report = cross_verify(bernoulli_seq(10), 2, 10)
        assert report.agree
        assert report.first_mismatch is None
        assert report.describe() == "identity proves n <= 10; all 3 routes agree for r=2, n <= 10"
        assert set(report.pairs) == {
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

    def test_capped_report_names_each_witness_range(self):
        # the cap bounds both witnesses; the identity proves the whole table
        report = cross_verify(bernoulli_seq(14), 1, 14, cap=8)
        assert report.coverage == {IDENTITY: 14, DETERMINANT_BAREISS: 8, COMPOSITION: 8,
                                   NEGATIVE_POWER: 14}
        assert report.describe() == (
            "identity proves n <= 14; all 3 routes agree for r=1, n <= 14, "
            "determinant:bareiss only n <= 8, composition only n <= 8"
        )
        # a route that covered the full range is not singled out
        full = cross_verify(bernoulli_seq(8), 1, 8, cap=8).describe()
        assert full == "identity proves n <= 8; all 3 routes agree for r=1, n <= 8"

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_doctored_power_table_is_caught(self, monkeypatch, r):
        # Bareiss starts from f^r's (M, Q); the negative power and the
        # composition sum read f, so both see a wrong D_r(5) = M_5 / (Q 5!).
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

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_report_runs_the_same_legs_at_every_r(self, r):
        report = cross_verify(bernoulli_seq(6), r, 6)
        assert tuple(report.pairs) == (DETERMINANT_BAREISS, COMPOSITION, NEGATIVE_POWER)
        assert report.proved == 6

    @pytest.mark.parametrize("cap", [-1, -7])
    def test_negative_cap_is_refused_as_the_cap(self, monkeypatch, cap):
        # one ValueError that names the cap, from both functions that take
        # one, before any route runs
        for owner, name in ((engine, "power_numerators"), (engine, "negative_power_numerators"),
                            (witness, "composition_numerators"),
                            (witness, "determinant_numerators")):
            monkeypatch.setattr(owner, name, fail)
        seq = bernoulli_seq(5)
        for call in (cross_verify, related_numbers_composition):
            with pytest.raises(ValueError, match=rf"^cap must be >= 0, got {cap}$") as info:
                call(seq, 1, 5, cap=cap)
            assert not isinstance(info.value, CombinatorialBlowupError), call

    def test_first_disagreement_detects_doctored_table(self):
        pairs = {"a": ([1, -1, 1], [1, 2, 6]), "b": ([1, -1, 1], [1, 2, 7])}
        report = VerificationReport(
            r=1, n_max=2, pairs=pairs, first_mismatch=first_disagreement_pairs(pairs)
        )
        assert report.first_mismatch == 2
        assert not report.agree
        assert "disagree first at n=2" in report.describe()


class TestIdentity:
    """`identity_reach` proves a table of f^(-r) on f's raw numerators: it
    refuses a wrong table at its first wrong index and passes every right
    one; `run_routes` runs it whenever the production route runs."""

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.label)
    def test_every_catalogue_table_passes(self, spec):
        seq = family_coefficients(spec, 200)
        for r in (1, 2, 3, 7, 16):
            M, Q = engine.negative_power_numerators(seq, r, 200)
            for n in (0, 1, 37, 200):
                assert witness.identity_reach(seq.P, M[: n + 1], Q, r) == n, (r, n)

    def test_a_wrong_table_is_refused_at_its_index(self):
        seq = family_coefficients(FamilySpec.hyper_cauchy(2, 3), 60)
        M, Q = engine.negative_power_numerators(seq, 3, 60)
        for k in (0, 1, 30, 60):  # one unit at the first, a middle and the last index
            bad = list(M)
            bad[k] += 1
            assert witness.identity_reach(seq.P, bad, Q, 3) == k - 1, k
        assert witness.identity_reach(seq.P, M, 2 * Q, 3) == -1  # a_0 = 1/2
        for r in (1, 2, 4):  # a wrong r fails at N = 1, as d_1 = -2/3
            assert witness.identity_reach(seq.P, M, Q, r) == 0, r
        for spec in (FamilySpec.bernoulli(), FamilySpec.euler(), FamilySpec.hyper_cauchy(2, 3)):
            seq = family_coefficients(spec, 60)
            for r in (1, 2, 16):
                M, Q = engine.negative_power_numerators(seq, r, 60)
                for k in (0, 1, 30, 60):
                    bad = list(M)
                    bad[k] += 1
                    assert witness.identity_reach(seq.P, bad, Q, r) == k - 1, (spec.label, r, k)

    @settings(max_examples=60, deadline=None)
    @given(sequence_strategy(max_len=9), st.integers(1, 20), st.integers(0, 9), st.booleans())
    def test_the_rolled_row_reaches_as_far_as_the_first_form(self, seq, r, k, nudge):
        # u_k = C(N-1, k) + r C(N-1, k-1) is C(N, k) (N + (r - 1) k) / N
        M, Q = engine.negative_power_numerators(seq, r)
        if nudge:
            M[k % len(M)] += 1
        assert witness.identity_reach(seq.P, M, Q, r) == oracles.identity_reach_by_weights(
            seq.P, M, Q, r)

    @pytest.mark.parametrize("r", [1, 2])
    def test_a_fault_every_route_shares_fails_the_identity(self, monkeypatch, r):
        # every route reads d through `prefix`; the identity reads seq.P
        real = engine.CoefficientSequence.prefix

        def shifted(self, n_max=None):
            P, L = real(self, n_max)
            return [p + (k == 7) * L for k, p in enumerate(P)], L

        monkeypatch.setattr(engine.CoefficientSequence, "prefix", shifted)
        report = cross_verify(family_coefficients(FamilySpec.bernoulli(), 12), r, 12)
        assert first_disagreement_pairs(report.pairs) is None
        assert (report.first_mismatch, report.proved) == (7, 6)
        assert report.coverage[IDENTITY] == 6
        assert report.describe() == f"identity fails first at n=7 (r={r})"

    def test_runs_only_with_the_production_route(self):
        seq = bernoulli_seq(8)
        alone = witness.run_routes(seq, 2, 8, (DETERMINANT_BAREISS,))
        assert alone.proved is None and IDENTITY not in alone.coverage
        assert alone.describe() == "all 1 routes agree for r=2, n <= 8"
        assert witness.run_routes(seq, 2, 8, (NEGATIVE_POWER,)).coverage == {
            IDENTITY: 8, NEGATIVE_POWER: 8}


def hyper_cauchy_151(m, nn, n):
    """hyper-Cauchy's d_0..d_n as `families` builds them, with the
    running product's factor (M + 150) taken as (M + 151): d_151 onward
    wrong, over the right L."""
    L = math.lcm(*range(nn, nn + n + 1))
    P, top = [], nn
    for k in range(n + 1):
        P.append((-top if k & 1 else top) * (L // (nn + k)))
        top *= m + k + (k == 150)
    return CoefficientSequence(P, L)


class TestInputCheck:
    """`input_reach` certifies (P, L) against the family's definition,
    with none of the builder's running products, and `run_routes` runs
    it whenever it is given the family: a wrong d_k that every route and
    the identity read alike is refused at k."""

    KINDS = [*CATALOG, FamilySpec.hyper_bernoulli(5, 5), FamilySpec.hyper_cauchy(2, 3),
             FamilySpec.hyper_cauchy(2**300, 3), FamilySpec.hyper_cauchy(7, 2**40)]

    @pytest.mark.parametrize("spec", KINDS, ids=lambda spec: spec.label)
    def test_every_kind_passes_to_400(self, spec):
        for n in (0, 1, 2, 3, 151, 400):
            seq = family_coefficients(spec, n)
            assert witness.input_reach(spec, seq.P, seq.L) == n, n
            assert witness.input_reach(spec, seq.P, 2 * seq.L) == -1  # d_0 = 1/2

    def test_a_custom_list_is_checked_value_by_value(self):
        values = [1, F(1, 2), F(-3, 7), 0, F(5, 9), 4]
        spec, seq = FamilySpec.custom(values), CoefficientSequence.from_values(values)
        assert witness.input_reach(spec, seq.P, seq.L) == 5
        assert witness.input_reach(spec, seq.P[:3], seq.L) == 2
        for k in range(1, 6):
            other = list(values)
            other[k] += F(1, 11)
            bad = CoefficientSequence.from_values(other)
            assert witness.input_reach(spec, bad.P, bad.L) == k - 1, k
        # a list shorter than the sequence certifies no index past its end
        assert witness.input_reach(FamilySpec.custom(values[:4]), seq.P, seq.L) == 3

    def test_each_kind_is_refused_at_a_wrong_term(self):
        for spec in self.KINDS:
            seq = family_coefficients(spec, 40)
            for k in (1, 2, 17, 40):
                P = list(seq.P)
                P[k] += 1
                assert witness.input_reach(spec, P, seq.L) == k - 1, (spec.label, k)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_the_d151_fault_is_caught_at_151(self, r):
        spec = FamilySpec.hyper_cauchy(2, 3)
        seq = hyper_cauchy_151(2, 3, 200)
        right = family_coefficients(spec, 200)
        wrong = [k for k, (x, y) in enumerate(zip(seq.d, right.d)) if x != y]
        assert wrong == list(range(151, 201))
        # without the family, every route and the identity pass the wrong input
        assert cross_verify(seq, r, 200).agree
        report = cross_verify(seq, r, 200, family=spec)
        assert (report.first_mismatch, report.certified, report.proved) == (151, 150, 200)
        assert report.coverage[witness.INPUT] == 150
        assert report.describe() == f"input differs from its family first at n=151 (r={r})"
        right = cross_verify(right, r, 200, family=spec)
        assert right.agree and right.certified == 200
        assert right.describe().startswith("input is its family's for n <= 200; identity proves")

    def test_runs_only_with_the_family(self):
        seq = bernoulli_seq(8)
        report = witness.run_routes(seq, 2, 8, (DETERMINANT_BAREISS,),
                                    family=FamilySpec.bernoulli())
        assert (report.certified, report.proved) == (8, None)
        assert report.coverage == {witness.INPUT: 8, DETERMINANT_BAREISS: 8}
        assert cross_verify(seq, 2, 8).certified is None
        # Bernoulli's d_1 = 1/2 is Euler's too, and its d_2 = 1/3 is not
        report = cross_verify(seq, 2, 5, family=FamilySpec.euler())
        assert (report.certified, report.first_mismatch, report.proved) == (1, 2, 5)


def fail(*args, **kwargs):
    raise AssertionError("the other kernel ran")


class TestStepRows:
    """Each integer kernel hands every step's bits to `arith.step_rows`:
    n + 1 rows, index 0's (0.0, 0) first, seconds and peaks that never
    fall, the last peak the call's "max_num_bits", and a reused dict
    that keeps the larger max.  The loops run past SHIFT_MIN_TERMS, where
    they take the difference table or the ordinary lift, and skip
    products; Bernoulli and Euler at r = -1, -2 take `_tangent`, whose
    rows all come at its last raise."""

    N = series.SHIFT_MIN_TERMS + 10
    # case -> (spec, r, the form the loop takes at N, and `_seidel`'s shift
    # m and degree d or `_tangent`'s m)
    LOOPS = {
        "_seidel at m = 4, d = 1": (FamilySpec.hyper_bernoulli(2, 3), -2, "_seidel", (4, 1)),
        "_ordinary": (FamilySpec.hyper_cauchy(2, 3), -2, "_ordinary", None),
        "_seidel at m = 1": (FamilySpec.bernoulli(), -series.TANGENT_MAX - 1, "_seidel", (1, 0)),
        "_seidel at m = 0": (FamilySpec.euler(), 2, "_seidel", (0, 0)),
        "_tangent at m = 1": (FamilySpec.bernoulli(), -1, "_tangent", 1),
        "_tangent at m = 0": (FamilySpec.euler(), -2, "_tangent", 0),
    }
    CASES = [*LOOPS, "determinant_numerators"]

    def kernel(self, monkeypatch, case):
        """The case's kernel as a function of its stats dict, and its n_max."""
        if case == "determinant_numerators":
            n = 60
            seq = family_coefficients(FamilySpec.hyper_cauchy(2, 3), n)
            M, Q = engine.power_numerators(seq, 3, n)
            return lambda stats: witness.determinant_numerators(M, Q, n, stats), n
        spec, r, name, form = self.LOOPS[case]
        P, L = family_coefficients(spec, self.N).prefix()
        kernel = getattr(series, name)

        def checked(*args):
            if name == "_seidel":
                assert (args[4], len(args[1]) - 1) == form
            elif name == "_tangent":
                assert args[2] == form
            return kernel(*args)

        for other in ("_miller", "_seidel", "_ordinary", "_tangent"):
            monkeypatch.setattr(series, other, checked if other == name else fail)
        return lambda stats: series.exponential_power_numerators(P, L, r, stats), self.N

    @pytest.mark.parametrize("case", CASES)
    def test_rows(self, monkeypatch, case):
        run, n = self.kernel(monkeypatch, case)
        stats = {"steps": []}
        run(stats)
        assert len(stats["steps"]) == n + 1
        assert stats["steps"][0] == (0.0, 0)
        seconds, peaks = map(list, zip(*stats["steps"]))
        assert seconds == sorted(seconds) and peaks == sorted(peaks)
        assert peaks[-1] == stats["max_num_bits"] > 0
        plain = {}
        run(plain)
        assert plain == {"max_num_bits": peaks[-1]}

    @pytest.mark.parametrize("case", CASES)
    def test_reused_dict_keeps_the_larger_max(self, monkeypatch, case):
        run, _ = self.kernel(monkeypatch, case)
        fresh = {}
        run(fresh)
        peak = fresh["max_num_bits"]
        for before in (1, peak + 1):
            stats = {"max_num_bits": before, "steps": []}
            run(stats)
            assert stats["max_num_bits"] == max(before, peak)
            assert stats["steps"][-1][1] == peak  # the rows hold this call's peak
        run(fresh)
        assert fresh == {"max_num_bits": peak}


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

    # the module and name of each route's kernel, as cross_verify calls it
    KERNELS = {
        DETERMINANT_BAREISS: (witness, "determinant_numerators"),
        COMPOSITION: (witness, "composition_numerators"),
        NEGATIVE_POWER: (engine, "negative_power_numerators"),
    }

    @pytest.mark.parametrize("route", list(KERNELS))
    def test_one_unit_in_any_route_is_reported_at_its_index(self, monkeypatch, route):
        seq = family_coefficients(FamilySpec.hyper_cauchy(2, 3), 12)
        kernel = getattr(*self.KERNELS[route])
        for k in (0, 1, 5, 12):

            def nudged(*args, **kwargs):
                num, den = kernel(*args, **kwargs)
                num = list(num)
                num[k] += 1
                return num, den

            monkeypatch.setattr(*self.KERNELS[route], nudged)
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
    """`composition_lift`'s reach: the largest n whose n * bits(max |N_e|)
    stays inside MAX_COMPOSITION_WORK, N_e f's d_1/1!..d_n/n! over their
    lcm; it does not depend on r."""

    @staticmethod
    def work(D, n):
        L = math.lcm(*(x.denominator for x in D[1 : n + 1]))
        return n * max((abs(x.numerator) * (L // x.denominator) for x in D[1 : n + 1]),
                       default=0).bit_length()

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.label)
    def test_reach_is_the_largest_n_inside_the_bound(self, monkeypatch, spec):
        seq = family_coefficients(spec, 40)
        D = compute_D(seq, 1, 40).D  # D_1(e) = d_e / e!
        work = [self.work(D, n) for n in range(41)]
        assert work == sorted(work)
        for bound in (0, work[1], work[10] - 1, work[10], work[40] - 1, work[40]):
            monkeypatch.setattr(witness, "MAX_COMPOSITION_WORK", bound)
            expected = max(n for n in range(41) if work[n] <= bound)
            assert len(witness.composition_lift(*seq.prefix(), 40)[0]) == expected, bound
            assert len(witness.composition_lift(*seq.prefix(7), 7)[0]) == min(7, expected)

    def test_route_refuses_past_the_bound_before_the_triangle(self, monkeypatch):
        seq = family_coefficients(FamilySpec.euler(), 20)
        D = compute_D(seq, 1, 20).D  # f's table, whatever r the route serves
        monkeypatch.setattr(witness, "MAX_COMPOSITION_WORK", self.work(D, 12))

        def must_not_run(*args, **kwargs):
            raise AssertionError("built the triangle past the work bound")

        with monkeypatch.context() as patch:
            patch.setattr(witness, "composition_numerators", must_not_run)
            with pytest.raises(CombinatorialBlowupError, match="n_max=20: .* at n=13$"):
                related_numbers_composition(seq, 2, 20)
        assert related_numbers_composition(seq, 2, 12).a == related_numbers_negative_power(
            seq, 2, 12
        ).a
        report = cross_verify(seq, 2, 20)
        assert report.agree
        assert report.coverage[COMPOSITION] == 12
        assert report.describe() == (
            "identity proves n <= 20; all 3 routes agree for r=2, n <= 20, "
            "composition only n <= 12"
        )

    def test_no_cap_needs_the_whole_table(self, monkeypatch):
        # cap=None means no cap in both functions: the composition table
        # must reach n_max, past the default cap too, and a work bound
        # short of n_max raises before any route runs
        n = DEFAULT_COMPOSITION_CAP + 1
        seq = family_coefficients(FamilySpec.euler(), n)
        table = related_numbers_composition(seq, 2, n, cap=None)
        assert table.a == related_numbers_negative_power(seq, 2, n).a
        assert cross_verify(seq, 2, n, cap=None).coverage[COMPOSITION] == n
        D = compute_D(seq, 1, 20).D
        monkeypatch.setattr(witness, "MAX_COMPOSITION_WORK", self.work(D, 12))
        for owner, kernel in ((witness, "composition_numerators"), (engine, "power_numerators"),
                              (engine, "negative_power_numerators"),
                              (witness, "determinant_numerators")):
            monkeypatch.setattr(owner, kernel, fail)
        for route in (related_numbers_composition, cross_verify):
            with pytest.raises(CombinatorialBlowupError, match="n_max=20: .* at n=13$"):
                route(seq, 2, 20, cap=None)


class TestCommonFactor:
    """`prefix` hands each kernel (P, L) as built, so a factor c common to
    P and L must change no check's verdict: the composition sum's one
    lift divides it out, and the identity's equation is homogeneous in P."""

    @settings(max_examples=60, deadline=None)
    @given(sequence_strategy(max_len=9), st.integers(2, 2**64), st.integers(0, 400))
    def test_the_composition_lift_is_that_of_the_terms_it_reaches(self, seq, c, bound):
        n = seq.n_max
        D = [d / math.factorial(e) for e, d in enumerate(seq.d)]  # d_e / e!
        expected = max(m for m in range(n + 1) if TestCompositionWorkBound.work(D, m) <= bound)
        scaled = CoefficientSequence([c * p for p in seq.P], c * seq.L)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(witness, "MAX_COMPOSITION_WORK", bound)
            for s in (seq, scaled):
                N, L = witness.composition_lift(*s.prefix(), n)
                assert len(N) == expected
                assert (L, N) == lift(D[1 : expected + 1])

    @settings(max_examples=60, deadline=None)
    @given(sequence_strategy(max_len=9), st.integers(1, 20), st.integers(0, 9), st.booleans(),
           st.integers(2, 2**64))
    def test_the_identity_reaches_as_far_on_c_p(self, seq, r, k, nudge, c):
        M, Q = engine.negative_power_numerators(seq, r)
        if nudge:
            M[k % len(M)] += 1
        reach = witness.identity_reach(seq.P, M, Q, r)
        assert witness.identity_reach([c * p for p in seq.P], M, Q, r) == reach


class TestPolynomialPowers:
    """hyper-Cauchy(N+1, N) has f = 2F1(N+1, N; N+1; -t) = (1+t)^(-N), so
    a_n^(r) = n! [t^n] (1+t)^(N r) = n! C(N r, n), 0 for every n > N r."""

    CASES = [(1, 3), (2, 4), (3, 2)]

    @staticmethod
    def closed_form(N, r, n_max):
        return tuple(math.factorial(n) * math.comb(N * r, n) for n in range(n_max + 1))

    @pytest.mark.parametrize("N, r", CASES)
    def test_every_route_gives_the_closed_form(self, N, r):
        report = cross_verify(family_coefficients(FamilySpec.hyper_cauchy(N + 1, N), 40), r, 40)
        assert report.agree and set(report.coverage.values()) == {40}
        for route in report.pairs:
            assert report.table(route) == self.closed_form(N, r, 40), route

    @pytest.mark.parametrize("N, r", CASES)
    def test_closed_form_past_the_shift_threshold(self, N, r):
        seq = family_coefficients(FamilySpec.hyper_cauchy(N + 1, N), 200)
        assert seq.n_max + 1 >= series.SHIFT_MIN_TERMS
        M, Q = engine.negative_power_numerators(seq, r, 200)
        assert tuple(F(m, Q) for m in M) == self.closed_form(N, r, 200)


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
            "determinant_numerators", "recurrence_values",
            "hessenberg_leading_minors", "bareiss_det", "compositions",
        ):
            assert name not in appellseq.__all__, name

    @staticmethod
    def loaded_after(*argvs):
        """The modules a fresh interpreter holds after `import appellseq.cli`
        and `cli.main` on each argv: fresh, since pytest itself imports
        dataclasses, and without site, whose .pth files may import pathlib."""
        import appellseq

        src = str(Path(appellseq.__file__).resolve().parents[1])
        code = (
            "import sys, appellseq.cli\n"
            f"for argv in {[list(argv) for argv in argvs]!r}:\n"
            "    assert appellseq.cli.main(argv) == 0, argv\n"
            "print(*sorted(sys.modules), file=sys.stderr)"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        return set(result.stderr.split())

    def test_cli_import_loads_no_dataclasses_inspect_or_pathlib(self):
        loaded = self.loaded_after()
        assert "appellseq.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "pathlib"}, loaded

    def test_no_module_imports_a_private_name_of_another(self):
        # a name that starts with "_" stays inside its module: no relative
        # `from .x import _y` anywhere in the package
        import ast
        import appellseq

        found = []
        for path in sorted(Path(appellseq.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.level:
                    found += [
                        f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                        for a in node.names if a.name.startswith("_")
                    ]
        assert found == []

    def test_every_top_level_def_is_exported_or_named_in_the_package(self):
        # a function or class that `__all__` leaves out and no module of the
        # package names (docstrings aside) serves only callers outside it
        import ast
        import appellseq

        trees = {
            path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(appellseq.__file__).parent.glob("*.py"))
        }
        # the names each top-level statement reads or imports; binding a
        # name, or calling it from its own body, does not count as naming it
        reads = []
        for tree in trees.values():
            for top in tree.body:
                names = set()
                for node in ast.walk(top):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        names.add(node.attr)
                    elif isinstance(node, ast.alias):
                        names.add(node.name)
                reads.append((top, names))
        # a module's PEP 562 hooks, __getattr__ and __dir__, are named by
        # the interpreter
        unreached = [
            f"{name}: {top.name}"
            for name, tree in trees.items()
            for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and top.name not in appellseq.__all__ and top.name not in ("__getattr__", "__dir__")
            and not any(top.name in names for other, names in reads if other is not top)
        ]
        assert unreached == []

    @staticmethod
    def module_tree(module):
        import ast

        return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))

    def test_request_path_imports_nothing_from_witness(self):
        # nor from library, and witness nothing from library
        import ast
        from appellseq import arith, families

        found = []
        for module in (engine, series, families, arith, witness):
            banned = {"library"} if module is witness else {"witness", "library"}
            for node in ast.walk(self.module_tree(module)):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or "",
                             *(alias.name for alias in node.names)]
                    if any(name.split(".")[-1] in banned for name in names):
                        found.append(f"{module.__name__}: {ast.unparse(node)}")
        # but engine's __getattr__, tracer glue that ROADMAP item 1 deletes,
        # which hands perfbench/spans.py library's TruncatedSeries
        assert found == ["appellseq.engine: from .library import TruncatedSeries"]

    def test_plain_requests_load_only_the_request_path(self):
        def package(*argvs):
            return {m for m in self.loaded_after(*argvs) if m.partition(".")[0] == "appellseq"}

        path = {f"appellseq.{m}" for m in ("arith", "series", "engine", "families", "cli")}
        assert package() == {"appellseq", *path}
        family = ["--family", "hyper-cauchy", "--m", "2", "--nn", "3", "--order", "2"]
        plain = (["compute", *family, "--n", "12"], ["poly", *family, "--n", "6", "--z", "1/3"])
        assert package(*plain) == {"appellseq", *path}
        for argv in (["compute", *family, "--n", "12", "--check"], ["bench", *family, "--n", "6"]):
            assert package(argv) == {"appellseq", "appellseq.witness", *path}, argv

    def test_every_public_name_resolves_to_its_home(self):
        import appellseq
        from appellseq import arith, families

        homes = {arith, engine, families, library, witness}
        for name in appellseq.__all__:
            value = getattr(appellseq, name)
            assert name in dir(appellseq), name
            owners = [m for m in homes if getattr(m, name, None) is value]
            assert owners and any(
                getattr(value, "__module__", m.__name__) == m.__name__ for m in owners
            ), name
        with pytest.raises(AttributeError, match="no attribute 'run_routes'"):
            appellseq.run_routes

    def test_witness_reads_engine_by_attribute_and_no_private_name(self):
        # `engine` comes in as a module, so a test that patches
        # engine.<name> reaches the checks; names come only from `arith`,
        # and no `x._y` is read outside `self`
        import ast

        found = []
        for node in ast.walk(self.module_tree(witness)):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                if node.module != "arith":
                    found.append(ast.unparse(node))
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                if not node.attr.startswith("__") and ast.unparse(node.value) != "self":
                    found.append(ast.unparse(node))
        assert found == []

    def test_no_witness_name_is_forwarded_from_engine(self):
        # perfbench/spans.py's placeholder binds related_numbers_composition
        # on engine to None, and engine's __getattr__ gives the tracer
        # library's TruncatedSeries; nothing witness defines is on engine
        import ast

        defined = set()
        for top in self.module_tree(witness).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add(top.name)
            elif isinstance(top, ast.Assign):
                defined.update(t.id for t in top.targets if isinstance(t, ast.Name))
        assert "cross_verify" in defined and "CombinatorialBlowupError" in defined
        assert engine.TruncatedSeries is library.TruncatedSeries
        assert {name: getattr(engine, name) for name in defined
                if getattr(engine, name, None) is not None} == {}

    def test_each_check_reads_only_its_row_of_the_request_path(self):
        # A route's leg in `run_routes` is the `if ... in routes` blocks
        # whose test names the route, and the functions of `witness` those
        # call, followed to the end; the identity's leg is its call of
        # `identity_reach`, and the input's its call of `input_reach`.
        # Its reads of the request path are its
        # `engine.<name>` reads and its `seq.<name>` reads, as
        # CoefficientSequence.<name>; they must be its row of
        # `witness.READS`.  The rest of `run_routes` reads only the guards,
        # the production route's name and seq.P.  A test may name its
        # route through a local of `run_routes` bound to a name or an
        # attribute, as `production` is; any other name fails the audit,
        # naming the block.
        import ast

        tree = self.module_tree(witness)
        defs = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
        run = defs.pop("run_routes")
        scope = dict(vars(witness))
        for node in ast.walk(run):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                    bound = zip(target.elts, value.elts)
                else:
                    bound = [(target, value)]
                for name, expr in bound:
                    if isinstance(name, ast.Name) and isinstance(expr, (ast.Name, ast.Attribute)):
                        try:
                            scope[name.id] = eval(ast.unparse(expr), scope)
                        except NameError:  # bound to an argument: not a route
                            pass

        def route(node):
            try:
                return eval(ast.unparse(node), scope)
            except NameError as error:
                raise AssertionError(f"`if ... {ast.unparse(node)} in routes:` in run_routes "
                                     f"names no route: {error}") from None

        legs, checks = {}, {"identity_reach": IDENTITY, "input_reach": witness.INPUT}
        for node in ast.walk(run):
            if isinstance(node, ast.If):
                for test in ast.walk(node.test):
                    if isinstance(test, ast.Compare) and ast.unparse(test).endswith(" in routes"):
                        legs.setdefault(route(test.left), []).extend(node.body)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in checks:
                legs.setdefault(checks[ast.unparse(node.func)], []).append(node)
        assert legs.keys() == witness.READS.keys()

        def walk(node, skip=frozenset()):
            if id(node) not in skip:
                yield node
                for child in ast.iter_child_nodes(node):
                    yield from walk(child, skip)

        def reads(roots, skip=frozenset()):
            found, seen, todo = set(), set(), list(roots)
            while todo:
                for node in walk(todo.pop(), skip):
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                        owner = {"engine": "", "seq": "CoefficientSequence."}.get(node.value.id)
                        if owner is not None:
                            found.add(owner + node.attr)
                    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                        if node.func.id in defs and node.func.id not in seen:
                            seen.add(node.func.id)
                            todo.append(defs[node.func.id])
            return found

        for name, nodes in legs.items():
            assert reads(nodes) == set(witness.READS[name]), name
        in_legs = {id(node) for nodes in legs.values() for node in nodes}
        assert reads(run.body, in_legs) == {"check_order", "check_table", "NEGATIVE_POWER",
                                         "CoefficientSequence.P"}


class TestRecords:
    """The library's value records, as they behaved when they were frozen
    dataclasses: constructors, validation, ==, hash, repr, immutability."""

    def records(self):
        seq = CoefficientSequence((6, 3, 2), 6)
        table = related_numbers_negative_power(seq, 1)
        report = cross_verify(bernoulli_seq(2), 1, 2)
        return {
            "FamilySpec(kind='hyper_cauchy', m=2, n=3, values=None)":
                FamilySpec.hyper_cauchy(2, 3),
            "FamilySpec(kind='euler', m=None, n=None, values=None)":
                FamilySpec(kind="euler", m=None, n=None, values=None),
            "FamilySpec(kind='custom', m=None, n=None, "
            "values=(Fraction(1, 1), Fraction(1, 2)))": FamilySpec.custom([1, F(1, 2)]),
            "CoefficientSequence(P=(6, 3, 2), L=6)": seq,
            "CoefficientSequence(P=(1,), L=1)": CoefficientSequence((1,)),
            "PowerCoefficientTable(r=2, D=(Fraction(1, 1), Fraction(1, 1), Fraction(7, 12)))":
                compute_D(seq, 2),
            "RelatedNumberTable(r=1, a=(Fraction(1, 1), Fraction(-1, 2), Fraction(1, 6)), "
            "algorithm='negative-power')": table,
            "AppellPolynomial(n=2, r=1, coeffs_in_z=(Fraction(1, 6), Fraction(-1, 1), "
            "Fraction(1, 1)))": appell_polynomial(table, 2),
            "VerificationReport(r=1, n_max=2, first_mismatch=None, proved=2, certified=None)":
                report,
        }

    def test_repr(self):
        for text, record in self.records().items():
            assert repr(record) == text

    def test_equal_records_are_equal_and_hash_equal(self):
        again = self.records()
        for text, record in self.records().items():
            assert record == again[text] and not record != again[text], text
            assert record != text and record != (), text
            if isinstance(record, VerificationReport):
                with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                    hash(record)
            else:
                assert hash(record) == hash(again[text]), text
        assert FamilySpec.euler() == FamilySpec("euler") != FamilySpec.bernoulli()
        assert CoefficientSequence((6, 3, 2), 6) != CoefficientSequence((2, 1), 2)
        assert len({FamilySpec.euler(), FamilySpec("euler"), FamilySpec.bernoulli()}) == 2

    def test_fields_cannot_be_set_or_deleted(self):
        for text, record in self.records().items():
            name = text[text.index("(") + 1 : text.index("=")]  # the first field
            value = getattr(record, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, value)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
            with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
                record.extra = 1
            assert getattr(record, name) is value

    def test_sequence_fields_are_kept_as_tuples(self):
        # built from a list, a record equals and hashes like the one built
        # from a tuple, and its field cannot be appended to
        for field, listed, tupled in [
            ("P", CoefficientSequence([2, 1, 1], 2), CoefficientSequence((2, 1, 1), 2)),
            ("D", PowerCoefficientTable(1, [F(1), F(2)]), PowerCoefficientTable(1, (F(1), F(2)))),
            ("a", RelatedNumberTable(1, [1, 2], "x"), RelatedNumberTable(1, (1, 2), "x")),
            ("coeffs_in_z", AppellPolynomial(1, 1, [F(1), F(2)]),
             AppellPolynomial(1, 1, (F(1), F(2)))),
        ]:
            assert listed == tupled and hash(listed) == hash(tupled), field
            assert type(getattr(listed, field)) is tuple, field

    def test_copy_and_pickle_round_trip(self):
        for record in self.records().values():
            for twin in (copy.copy(record), copy.deepcopy(record),
                         pickle.loads(pickle.dumps(record))):
                assert type(twin) is type(record) and twin == record

    @pytest.mark.parametrize("make, error, message", [
        (lambda: CoefficientSequence(()), NormalizationError,
         "empty coefficient sequence: d_0 must be 1"),
        (lambda: CoefficientSequence((1,), 0), ValueError, "L must be >= 1, got 0"),
        (lambda: CoefficientSequence((2, 1), 3), NormalizationError, "d_0 must be 1 (got 2/3)"),
        (lambda: PowerCoefficientTable(0, (F(1),)), ValueError, "order r must be >= 1, got 0"),
        (lambda: PowerCoefficientTable(1, ()), ValueError,
         "D_r(0) must be 1 for a normalized sequence"),
        (lambda: PowerCoefficientTable(1, (F(2),)), ValueError,
         "D_r(0) must be 1 for a normalized sequence"),
        (lambda: library.RelatedNumberTable(0, (F(1),), "x"), ValueError,
         "order r must be >= 1, got 0"),
        (lambda: library.RelatedNumberTable(1, (F(2),), "x"), ValueError,
         "a_0 must be 1 for a normalized sequence"),
        (lambda: AppellPolynomial(2, 1, (F(1),)), ValueError,
         "coefficient vector must have length n + 1"),
        (lambda: FamilySpec("hyper_cauchy", 0, 1), ValueError,
         "hyper_cauchy needs integer parameters M >= 1 and N >= 1"),
        (lambda: FamilySpec("hyper_bernoulli", 1, None), ValueError,
         "hyper_bernoulli needs integer parameters M >= 1 and N >= 1"),
        (lambda: FamilySpec("custom"), ValueError, "custom family needs a nonempty value list"),
        (lambda: FamilySpec("custom", values=(F(2),)), NormalizationError,
         "d_0 must be 1 (got 2)"),
        (lambda: FamilySpec("nope"), ValueError, "unknown family kind 'nope'"),
        (lambda: CoefficientSequence(), TypeError, "missing 1 required positional argument: 'P'"),
        (lambda: FamilySpec("euler", 1, 2, None, 5), TypeError,
         "takes from 2 to 5 positional arguments but 6 were given"),
        (lambda: CoefficientSequence(P=(1,), Q=2), TypeError,
         "got an unexpected keyword argument 'Q'"),
        # floats and bools once passed, and == held between [4.0, 2.0, 1.0]
        # over 4.0 and [4, 2, 1] over 4
        (lambda: CoefficientSequence([1.0, 0.5, 0.25], 1.0), ValueError,
         "numerators P_k and denominator L must be int"),
        (lambda: CoefficientSequence([4.0, 2.0, 1.0], 4.0), ValueError,
         "numerators P_k and denominator L must be int"),
        (lambda: CoefficientSequence([2, 1], 2.0), ValueError,
         "numerators P_k and denominator L must be int"),
        (lambda: CoefficientSequence([True, 1], True), ValueError,
         "numerators P_k and denominator L must be int"),
        (lambda: CoefficientSequence([F(1), 1], 1), ValueError,
         "numerators P_k and denominator L must be int"),
    ])
    def test_validation_errors(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert type(info.value) is error
        assert str(info.value).endswith(message), str(info.value)
