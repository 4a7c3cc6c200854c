import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from appellseq.arith import format_ratio, format_rational, parse_rational
from appellseq.witness import DEFAULT_COMPOSITION_CAP, CombinatorialBlowupError

from oracles import iter_compositions, partitions, rising_factorial


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

    @pytest.mark.parametrize("digits", [4299, 4301, 9000, 30001])
    def test_past_the_int_digit_limit(self, digits):
        # Python refuses str() of an int past 4300 digits by default;
        # the package's own results print in full regardless
        saved = sys.get_int_max_str_digits()
        big = 10 ** (digits - 1) + 7
        try:
            sys.set_int_max_str_digits(0)
            expected = [str(x) for x in (big, -big, Fraction(-big, 3), Fraction(5, big))]
            sys.set_int_max_str_digits(4300)
            got = [format_rational(x) for x in (big, -big, Fraction(-big, 3), Fraction(5, big))]
        finally:
            sys.set_int_max_str_digits(saved)
        assert got == expected
        assert len(got[0]) == digits

    def test_pair_prints_what_the_fraction_prints(self):
        # zero, negative numerators, den = 1, unreduced pairs, and values
        # past Python's int->str digit limit
        saved = sys.get_int_max_str_digits()
        big = 10**5000 + 3
        pairs = [(0, 1), (0, 7), (-3, 1), (-6, 4), (-5, 3), (9, 1), (12, 3), (6, 4),
                 (10 * big, 20), (-big * 6, 4 * big), (big, 3), (7, big), (-2 * big, 6)]
        try:
            sys.set_int_max_str_digits(0)
            expected = [str(Fraction(num, den)) for num, den in pairs]
            sys.set_int_max_str_digits(4300)
            got = [format_ratio(num, den) for num, den in pairs]
            assert got == [format_rational(Fraction(num, den)) for num, den in pairs]
        finally:
            sys.set_int_max_str_digits(saved)
        assert got == expected

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_pair_matches_fraction(self, p, q):
        assert format_ratio(p, q) == str(Fraction(p, q))

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_round_trip(self, p, q):
        x = Fraction(p, q)
        assert parse_rational(format_rational(x)) == x


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
                got = list(iter_compositions(n, k, 1))
                assert len(got) == math.comb(n - 1, k - 1)

    def test_weak_counts(self):
        # C(n+k-1, k-1) weak compositions
        for n in range(0, 8):
            for k in range(1, 5):
                got = list(iter_compositions(n, k, 0))
                assert len(got) == math.comb(n + k - 1, k - 1)

    def test_parts_sum_and_bounds(self):
        for parts in iter_compositions(7, 3, 1):
            assert sum(parts) == 7
            assert all(p >= 1 for p in parts)
        for parts in iter_compositions(5, 3, 0):
            assert sum(parts) == 5
            assert all(p >= 0 for p in parts)

    def test_lexicographic_and_unique(self):
        got = list(iter_compositions(6, 3, 1))
        assert got == sorted(got)
        assert len(got) == len(set(got))

    def test_explicit_small_case(self):
        assert list(iter_compositions(4, 2, 1)) == [(1, 3), (2, 2), (3, 1)]
        assert list(iter_compositions(2, 2, 0)) == [(0, 2), (1, 1), (2, 0)]

    def test_too_many_strict_parts_is_empty(self):
        assert list(iter_compositions(2, 3, 1)) == []

    @given(st.integers(1, 12), st.integers(1, 6))
    def test_strict_subset_of_weak(self, n, k):
        strict = set(iter_compositions(n, k, 1))
        weak = set(iter_compositions(n, k, 0))
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
                    tuple(sorted(c, reverse=True)) for c in iter_compositions(n, k, 1)
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
