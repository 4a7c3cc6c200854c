import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from appellseq import engine, series
from appellseq.arith import factorials, lift
from appellseq.library import compute_D, related_numbers_recurrence
from appellseq.families import FamilySpec, family_coefficients
from appellseq.witness import determinant_numerators

import oracles
from oracles import (
    bareiss_matrix_det,
    bareiss_matrix_minors,
    hessenberg_leading_minors,
    related_matrix,
)

F = Fraction

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def bareiss_leading_minors(D, n_max, stats=None):
    """Leading principal minors det_0=1, det_1, ..., det_{n_max}, by
    `determinant_numerators` on (M, Q), M_e / Q = e! D(e) lifted over one
    denominator: det_n = (-1)^n signed_n / (n! s_n), each minor reduced
    once.  A short table or a negative n_max is refused by the kernel's
    own check."""
    D = D[: n_max + 1]
    Q, M = lift(list(map(mul, factorials(len(D) - 1), D)))
    signed, scales = determinant_numerators(M, Q, n_max, stats)
    return [
        Fraction(-x if n & 1 else x, f * s)
        for n, (x, s, f) in enumerate(zip(signed, scales, factorials(n_max)))
    ]


def matrix_strategy(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


class TestRelatedMatrix:
    def test_layout_n3(self):
        D = [F(1), F(2), F(3), F(4)]
        assert related_matrix(D, 3) == [
            [F(2), F(1), F(0)],
            [F(3), F(2), F(1)],
            [F(4), F(3), F(2)],
        ]

    def test_layout_n1(self):
        assert related_matrix([F(1), F(5)], 1) == [[F(5)]]

    def test_unit_superdiagonal_and_zeros(self):
        D = [F(1)] * 7
        M = related_matrix(D, 6)
        for i in range(6):
            for j in range(6):
                if j == i + 1:
                    assert M[i][j] == 1
                elif j > i + 1:
                    assert M[i][j] == 0

    def test_size_and_data_validation(self):
        with pytest.raises(ValueError):
            related_matrix([F(1), F(2)], 0)
        with pytest.raises(ValueError):
            related_matrix([F(1), F(2)], 2)


class TestHessenbergMinors:
    def test_base_case(self):
        assert hessenberg_leading_minors([F(1)], 0) == [F(1)]

    def test_matches_gauss_on_random_tables(self):
        rng = random.Random(42)
        for _ in range(20):
            D = [F(1)] + [oracles.rand_fraction(rng) for _ in range(8)]
            minors = hessenberg_leading_minors(D, 8)
            assert minors[0] == 1
            for n in range(1, 9):
                assert minors[n] == oracles.gauss_det(related_matrix(D, n))

    def test_zero_entries_skipped_correctly(self):
        D = [F(1), F(0), F(1, 2), F(0), F(1, 3)]
        minors = hessenberg_leading_minors(D, 4)
        for n in range(1, 5):
            assert minors[n] == oracles.gauss_det(related_matrix(D, n))

    def test_d0_is_not_read(self):
        # the matrix holds D(1)..D(n) only, so D(0) = 5 changes no minor
        rng = random.Random(7)
        D = [F(1)] + [oracles.rand_fraction(rng) for _ in range(8)]
        D5 = [F(5)] + D[1:]
        minors = hessenberg_leading_minors(D5, 8)
        assert minors == hessenberg_leading_minors(D, 8)
        for n in range(1, 9):
            assert minors[n] == oracles.gauss_det(related_matrix(D5, n))

    def test_stats_record_bit_growth(self):
        D = [F(1)] + [F(97, 89)] * 30
        stats = {"max_num_bits": 3}
        hessenberg_leading_minors(D, 30, stats=stats)
        assert stats["max_num_bits"] > 3  # updated by max, not replaced

    def test_validation(self):
        with pytest.raises(ValueError):
            hessenberg_leading_minors([F(1)], -1)
        with pytest.raises(ValueError):
            hessenberg_leading_minors([F(1), F(2)], 5)


class TestBareiss:
    """Bareiss elimination of a general matrix (`oracles.bareiss_matrix_det`,
    the reference for the band kernel) and the band kernel's determinant,
    the last of `bareiss_leading_minors`."""

    def test_known_small_determinants(self):
        assert bareiss_matrix_det([[F(3)]]) == 3
        assert bareiss_matrix_det([[F(1), F(2)], [F(3), F(4)]]) == -2
        assert bareiss_matrix_det([[F(1, 2), F(1)], [F(1, 6), F(1, 2)]]) == F(1, 12)
        # | 1/2  1  |
        # | 1/6 1/2 |, the Hessenberg matrix over D = (1, 1/2, 1/6)
        assert bareiss_leading_minors([F(1), F(1, 2), F(1, 6)], 2)[2] == F(1, 12)
        assert bareiss_leading_minors([F(1), F(3)], 1)[1] == 3
        assert bareiss_leading_minors([F(1)], 0)[0] == 1

    def test_identity_and_permutation(self):
        eye = [[F(int(i == j)) for j in range(4)] for i in range(4)]
        assert bareiss_matrix_det(eye) == 1
        # swapping two rows flips the sign; pivoting must handle the zeros
        perm = [eye[1], eye[0], eye[2], eye[3]]
        assert bareiss_matrix_det(perm) == -1

    def test_singular_matrix(self):
        assert bareiss_matrix_det([[F(1), F(2)], [F(2), F(4)]]) == 0
        assert bareiss_matrix_det([[F(0), F(0)], [F(1), F(1)]]) == 0

    def test_zero_pivot_needs_row_swap(self):
        M = [[F(0), F(1)], [F(1), F(0)]]
        assert bareiss_matrix_det(M) == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            bareiss_matrix_det([])
        with pytest.raises(ValueError):
            bareiss_matrix_det([[F(1), F(2)]])
        with pytest.raises(ValueError):
            bareiss_leading_minors([F(1), F(2)], 2)
        with pytest.raises(ValueError):
            bareiss_leading_minors([F(1)], -1)

    def test_stats_record_bit_growth(self):
        D = [F(1)] + [F(12345, 678)] * 13
        stats = {"max_num_bits": 3}
        bareiss_leading_minors(D, 12, stats=stats)
        assert stats["max_num_bits"] > 3  # updated by max, not replaced

    def test_rows_with_different_denominators(self):
        # each row is lifted by its own lcm: 6, 35, 1 and 22
        M = [
            [F(1, 2), F(1, 3), F(0), F(1)],
            [F(2, 5), F(-3, 7), F(1), F(4)],
            [F(5), F(0), F(-2), F(1)],
            [F(7, 11), F(1), F(1, 2), F(-3)],
        ]
        assert bareiss_matrix_det(M) == oracles.gauss_det(M)

    def test_row_lift_keeps_bernoulli_entries_small(self):
        # the lcm over the whole n=40 matrix gave 6476-bit intermediates
        D = [F(1, math.factorial(e + 1)) for e in range(41)]
        stats = {}
        det = bareiss_leading_minors(D, 40, stats=stats)[40]
        assert det == hessenberg_leading_minors(D, 40)[40]
        assert stats["max_num_bits"] < 6476

    @settings(max_examples=60)
    @given(matrix_strategy())
    def test_matches_gauss_elimination(self, M):
        rows = [[F(x) for x in row] for row in M]
        assert bareiss_matrix_det(rows) == oracles.gauss_det(rows)

    @settings(max_examples=30)
    @given(matrix_strategy(max_n=4))
    def test_transpose_invariant(self, M):
        rows = [[F(x) for x in row] for row in M]
        n = len(rows)
        transposed = [[rows[j][i] for j in range(n)] for i in range(n)]
        assert bareiss_matrix_det(rows) == bareiss_matrix_det(transposed)


# mostly zeros, so that zero pivots and row swaps are common
sparse_rationals = st.one_of(st.just(F(0)), st.just(F(0)), rationals)


def leading_gauss_minors(M):
    return [F(1)] + [oracles.gauss_det([row[:m] for row in M[:m]]) for m in range(1, len(M) + 1)]


class TestBareissLeadingMinors:
    """The band kernel, and the general elimination's row swaps past zero
    pivots (which the band kernel does without)."""

    @settings(max_examples=100)
    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.lists(
                st.lists(sparse_rationals, min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_matches_gauss_on_every_leading_block(self, M):
        assert bareiss_matrix_minors(M) == leading_gauss_minors(M)

    def test_swap_partner_beyond_the_block(self):
        # column 0 is nonzero only in row 3, so det_1 = det_2 = det_3 = 0
        M = [
            [F(0), F(2), F(1), F(0)],
            [F(0), F(1), F(3), F(1)],
            [F(0), F(0), F(1), F(1, 2)],
            [F(5), F(1), F(1), F(1)],
        ]
        minors = bareiss_matrix_minors(M)
        assert minors == leading_gauss_minors(M)
        assert minors[1:4] == [0, 0, 0]
        assert minors[4] == F(-5, 2)  # -5 times the minor of rows 0..2, columns 1..3

    def test_all_zero_pivot_column(self):
        # column 1 vanishes after one step of elimination: no row to swap in
        M = [[F(1), F(2), F(3)], [F(2), F(4), F(5)], [F(3), F(6), F(7)]]
        assert bareiss_matrix_minors(M) == [1, 1, 0, 0]
        M = [[F(1, 2), F(0), F(2)], [F(3), F(0), F(4)], [F(5), F(0), F(6)]]
        assert bareiss_matrix_minors(M) == [1, F(1, 2), 0, 0]

    def test_empty_matrix_has_only_det_0(self):
        assert bareiss_matrix_minors([]) == [1]
        assert bareiss_leading_minors([F(1)], 0) == [1]
        assert bareiss_leading_minors([F(7), F(2)], 0) == [1]  # D(0) is not read

    def test_validation(self):
        with pytest.raises(ValueError):
            bareiss_matrix_minors([[F(1), F(2)], [F(3)]])
        with pytest.raises(ValueError):
            bareiss_leading_minors([F(1)], -1)
        with pytest.raises(ValueError):
            bareiss_leading_minors([F(1), F(2)], 5)

    @pytest.mark.parametrize(
        "spec, zero_at",
        [
            (FamilySpec.bernoulli(), lambda n: n >= 3 and n % 2 == 1),
            (FamilySpec.euler(), lambda n: n >= 2 and n % 2 == 0),
        ],
    )
    def test_classical_zero_minors(self, spec, zero_at):
        D = compute_D(family_coefficients(spec, 30), 1).D
        minors = bareiss_leading_minors(D, 30)
        assert minors == hessenberg_leading_minors(D, 30)
        assert [n for n in range(31) if minors[n] == 0] == [n for n in range(31) if zero_at(n)]

    def test_bernoulli_n40_peak_bits(self):
        D = [F(1, math.factorial(e + 1)) for e in range(41)]
        stats = {}
        minors = bareiss_leading_minors(D, 40, stats=stats)
        assert minors == hessenberg_leading_minors(D, 40)
        assert stats["max_num_bits"] == 2798
        # the general elimination's entries peak at the same integer
        general = {}
        bareiss_matrix_minors(related_matrix(D, 40), stats=general)
        assert general["max_num_bits"] == 2798


class TestKernelsAgree:
    def test_hessenberg_vs_bareiss_on_related_matrices(self):
        rng = random.Random(99)
        for _ in range(10):
            D = [F(1)] + [oracles.rand_fraction(rng) for _ in range(10)]
            minors = hessenberg_leading_minors(D, 10)
            for n in range(1, 11):
                assert bareiss_leading_minors(D, n)[n] == minors[n]


CATALOG = [
    FamilySpec.bernoulli(),
    FamilySpec.euler(),
    FamilySpec.hyper_bernoulli(1, 1),
    FamilySpec.hyper_bernoulli(2, 3),
    FamilySpec.hyper_cauchy(1, 1),
    FamilySpec.hyper_cauchy(3, 2),
]


class TestBandKernel:
    """`bareiss_leading_minors` reads the D table's band and never builds
    the matrix; its minors must equal the general elimination's exactly."""

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.label)
    def test_matches_general_bareiss_and_gauss_on_catalog(self, spec):
        seq = family_coefficients(spec, 60)
        for r in (1, 2, 3, 7):
            D = compute_D(seq, r, 60).D
            minors = bareiss_leading_minors(D, 60)
            assert minors == bareiss_matrix_minors(related_matrix(D, 60)), (spec.label, r)
            for n in (1, 2, 5, 24):
                assert minors[n] == oracles.gauss_det(related_matrix(D, n)), (spec.label, r, n)

    @settings(max_examples=60)
    @given(st.lists(sparse_rationals, min_size=1, max_size=10))
    def test_zero_minors_of_sparse_tables(self, tail):
        # mostly-zero D makes zero minors common; the band kernel neither
        # divides nor swaps rows, so it must pass them through unchanged
        D = [F(1), *tail]
        n = len(tail)
        minors = bareiss_leading_minors(D, n)
        assume(0 in minors)
        M = related_matrix(D, n)
        assert minors == leading_gauss_minors(M)
        assert minors == bareiss_matrix_minors(M)

    def test_shares_no_code_with_the_recurrence(self, monkeypatch):
        # the Miller loop runs f^r, the inverse of D_r and f^(-r); with it
        # disabled the Bareiss route must still produce the whole table
        seq = family_coefficients(FamilySpec.hyper_cauchy(2, 3), 40)
        D = compute_D(seq, 3, 40).D
        expected = related_numbers_recurrence(seq, 3, 40).a
        Q, M = lift(list(map(mul, factorials(40), D)))

        def refuse(*args, **kwargs):
            raise AssertionError("the Bareiss route ran the Miller loop")

        monkeypatch.setattr(series, "exponential_power_numerators", refuse)
        monkeypatch.setattr(engine, "exponential_power_numerators", refuse)
        with pytest.raises(AssertionError):
            related_numbers_recurrence(seq, 3, 40)
        assert tuple(map(F, *determinant_numerators(M, Q, 40))) == expected
