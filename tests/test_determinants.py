import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appellseq.determinants import (
    bareiss_det,
    hessenberg_leading_minors,
    related_matrix,
)

import oracles

F = Fraction

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


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
    def test_known_small_determinants(self):
        assert bareiss_det([[F(3)]]) == 3
        assert bareiss_det([[F(1), F(2)], [F(3), F(4)]]) == -2
        assert bareiss_det([[F(1, 2), F(1)], [F(1, 6), F(1, 2)]]) == F(1, 12)

    def test_identity_and_permutation(self):
        eye = [[F(int(i == j)) for j in range(4)] for i in range(4)]
        assert bareiss_det(eye) == 1
        # swapping two rows flips the sign; pivoting must handle the zeros
        perm = [eye[1], eye[0], eye[2], eye[3]]
        assert bareiss_det(perm) == -1

    def test_singular_matrix(self):
        assert bareiss_det([[F(1), F(2)], [F(2), F(4)]]) == 0
        assert bareiss_det([[F(0), F(0)], [F(1), F(1)]]) == 0

    def test_zero_pivot_needs_row_swap(self):
        M = [[F(0), F(1)], [F(1), F(0)]]
        assert bareiss_det(M) == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            bareiss_det([])
        with pytest.raises(ValueError):
            bareiss_det([[F(1), F(2)]])

    def test_stats_record_bit_growth(self):
        D = [F(1)] + [F(12345, 678)] * 13
        stats = {}
        bareiss_det(related_matrix(D, 12), stats=stats)
        assert stats["max_num_bits"] > 0

    def test_rows_with_different_denominators(self):
        # each row is lifted by its own lcm: 6, 35, 1 and 22
        M = [
            [F(1, 2), F(1, 3), F(0), F(1)],
            [F(2, 5), F(-3, 7), F(1), F(4)],
            [F(5), F(0), F(-2), F(1)],
            [F(7, 11), F(1), F(1, 2), F(-3)],
        ]
        assert bareiss_det(M) == oracles.gauss_det(M)

    def test_row_lift_keeps_bernoulli_entries_small(self):
        # the lcm over the whole n=40 matrix gave 6476-bit intermediates
        D = [F(1, math.factorial(e + 1)) for e in range(41)]
        stats = {}
        det = bareiss_det(related_matrix(D, 40), stats=stats)
        assert det == hessenberg_leading_minors(D, 40)[40]
        assert stats["max_num_bits"] < 6476

    @settings(max_examples=60)
    @given(matrix_strategy())
    def test_matches_gauss_elimination(self, M):
        rows = [[F(x) for x in row] for row in M]
        assert bareiss_det(rows) == oracles.gauss_det(rows)

    @settings(max_examples=30)
    @given(matrix_strategy(max_n=4))
    def test_transpose_invariant(self, M):
        rows = [[F(x) for x in row] for row in M]
        n = len(rows)
        transposed = [[rows[j][i] for j in range(n)] for i in range(n)]
        assert bareiss_det(rows) == bareiss_det(transposed)


class TestKernelsAgree:
    def test_hessenberg_vs_bareiss_on_related_matrices(self):
        rng = random.Random(99)
        for _ in range(10):
            D = [F(1)] + [oracles.rand_fraction(rng) for _ in range(10)]
            minors = hessenberg_leading_minors(D, 10)
            for n in range(1, 11):
                assert bareiss_det(related_matrix(D, n)) == minors[n]
