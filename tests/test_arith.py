import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from appellseq.arith import (
    DEFAULT_COMPOSITION_CAP,
    CombinatorialBlowupError,
    binomial,
    compositions,
    format_rational,
    parse_rational,
    rising_factorial,
)

from oracles import partitions


class TestParseRational:
    def test_bare_integers(self):
        assert parse_rational("7") == 7
        assert parse_rational("-3") == -3
        assert parse_rational("+5") == 5
        assert parse_rational("0") == 0

    def test_fractions(self):
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("-22/7") == Fraction(-22, 7)
        assert parse_rational("4/6") == Fraction(2, 3)

    def test_whitespace_tolerated(self):
        assert parse_rational("  3 / 4 ") == Fraction(3, 4)

    @pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/-2", "1/2/3", "1e3", "/3"])
    def test_rejects_non_pq(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")


class TestFormatRational:
    def test_lowest_terms(self):
        assert format_rational(Fraction(2, 4)) == "1/2"
        assert format_rational(Fraction(-6, 4)) == "-3/2"

    def test_integers_bare(self):
        assert format_rational(Fraction(8, 4)) == "2"
        assert format_rational(5) == "5"
        assert format_rational(Fraction(0, 3)) == "0"

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_round_trip(self, p, q):
        x = Fraction(p, q)
        assert parse_rational(format_rational(x)) == x


class TestBinomial:
    def test_matches_math_comb_in_range(self):
        for n in range(10):
            for k in range(n + 1):
                assert binomial(n, k) == math.comb(n, k)

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(0, 1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestRisingFactorial:
    def test_empty_product(self):
        assert rising_factorial(Fraction(7, 3), 0) == 1
        assert rising_factorial(0, 0) == 1

    def test_integer_base(self):
        # (1)^(n) = n!
        for n in range(8):
            assert rising_factorial(1, n) == math.factorial(n)
        assert rising_factorial(3, 4) == 3 * 4 * 5 * 6

    def test_fraction_base(self):
        assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            rising_factorial(1, -1)


class TestCompositions:
    def test_strict_counts(self):
        # C(n-1, k-1) strict compositions of n into k parts
        for n in range(1, 10):
            for k in range(1, n + 1):
                got = list(compositions(n, k))
                assert len(got) == math.comb(n - 1, k - 1)

    def test_weak_counts(self):
        # C(n+k-1, k-1) weak compositions
        for n in range(0, 8):
            for k in range(1, 5):
                got = list(compositions(n, k, weak=True))
                assert len(got) == math.comb(n + k - 1, k - 1)

    def test_parts_sum_and_bounds(self):
        for parts in compositions(7, 3):
            assert sum(parts) == 7
            assert all(p >= 1 for p in parts)
        for parts in compositions(5, 3, weak=True):
            assert sum(parts) == 5
            assert all(p >= 0 for p in parts)

    def test_lexicographic_and_unique(self):
        got = list(compositions(6, 3))
        assert got == sorted(got)
        assert len(got) == len(set(got))

    def test_explicit_small_case(self):
        assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
        assert list(compositions(2, 2, weak=True)) == [(0, 2), (1, 1), (2, 0)]

    def test_too_many_strict_parts_is_empty(self):
        assert list(compositions(2, 3)) == []

    def test_cap_enforced(self):
        with pytest.raises(CombinatorialBlowupError):
            compositions(DEFAULT_COMPOSITION_CAP + 1, 2)
        # the guard is eager, before any iteration
        with pytest.raises(CombinatorialBlowupError):
            compositions(50, 1, cap=10)

    def test_cap_override_and_disable(self):
        assert len(list(compositions(25, 1, cap=30))) == 1
        assert len(list(compositions(25, 1, cap=None))) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            compositions(-1, 2)
        with pytest.raises(ValueError):
            compositions(3, 0)

    @given(st.integers(1, 12), st.integers(1, 6))
    def test_strict_subset_of_weak(self, n, k):
        strict = set(compositions(n, k))
        weak = set(compositions(n, k, weak=True))
        assert strict <= weak


def orderings(parts):
    """k!/prod(m_i!): the compositions that sort to this partition."""
    count = math.factorial(len(parts))
    for m in Counter(parts).values():
        count //= math.factorial(m)
    return count


class TestPartitions:
    def test_explicit_small_case(self):
        assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert list(partitions(0)) == [()]

    def test_weighted_count_is_all_compositions(self):
        for n in range(1, 13):
            assert sum(orderings(p) for p in partitions(n)) == 2 ** (n - 1)

    def test_weights_match_sorted_compositions(self):
        # every partition is a sorted strict composition, listed once
        for n in range(1, 13):
            got = list(partitions(n))
            assert len(got) == len(set(got))
            sorted_compositions = Counter()
            for k in range(1, n + 1):
                sorted_compositions.update(
                    tuple(sorted(c, reverse=True)) for c in compositions(n, k)
                )
            assert sorted_compositions == {p: orderings(p) for p in got}

    def test_cap_enforced(self):
        with pytest.raises(CombinatorialBlowupError, match="cap"):
            partitions(DEFAULT_COMPOSITION_CAP + 1)
        # the guard is eager, before any iteration
        with pytest.raises(CombinatorialBlowupError, match="cap"):
            partitions(11, cap=10)
        assert len(list(partitions(25, cap=None))) == 1958

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions(-1)
