import math
from fractions import Fraction

import pytest

from appellseq.engine import NormalizationError
from appellseq.families import FamilySpec, family_coefficients, load_custom_family

from oracles import classical_cauchy_oracle, family_identity_checks

F = Fraction


class TestFamilySpec:
    def test_labels(self):
        assert FamilySpec.bernoulli().label == "bernoulli"
        assert FamilySpec.euler().label == "euler"
        assert FamilySpec.hyper_bernoulli(2, 3).label == "hyper-bernoulli(2,3)"
        assert FamilySpec.hyper_cauchy(1, 4).label == "hyper-cauchy(1,4)"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("weierstrass")

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-2, 3)])
    def test_parametric_bounds(self, m, n):
        with pytest.raises(ValueError):
            FamilySpec.hyper_bernoulli(m, n)
        with pytest.raises(ValueError):
            FamilySpec.hyper_cauchy(m, n)

    def test_float_parameter_refused(self):
        # it once gave float numerators, and the loop a TypeError on them
        with pytest.raises(ValueError, match="integer parameters"):
            FamilySpec.hyper_cauchy(1.5, 2)

    def test_integral_float_parameter_refused(self):
        with pytest.raises(ValueError, match="integer parameters"):
            FamilySpec.hyper_bernoulli(2.0, 3)

    @pytest.mark.parametrize("kind", ["bernoulli", "euler", "custom"])
    @pytest.mark.parametrize("m,n", [(1, 1), (2.5, "x"), (None, 1), (1, None)])
    def test_kinds_without_parameters_refuse_them(self, kind, m, n):
        # a Bernoulli spec built with M = N = 1 once differed from
        # FamilySpec.bernoulli() as a value and as a key
        values = (Fraction(1),) if kind == "custom" else None
        with pytest.raises(ValueError, match=f"^{kind} takes no parameters M and N"):
            FamilySpec(kind, m, n, values)
        FamilySpec(kind, values=values)  # None for both is the one accepted form

    def test_bool_parameter_refused(self):
        # it once made the label hyper-cauchy(True,2)
        for m, n in ((True, 2), (2, True)):
            with pytest.raises(ValueError, match="integer parameters"):
                FamilySpec.hyper_cauchy(m, n)

    def test_custom_requires_normalized_head(self):
        with pytest.raises(ValueError):
            FamilySpec.custom([])
        with pytest.raises(NormalizationError):
            FamilySpec.custom([F(2), F(1)])
        spec = FamilySpec.custom([1, F(-1, 2)])
        assert spec.values == (1, F(-1, 2))


class TestCoefficients:
    def test_bernoulli(self):
        d = family_coefficients(FamilySpec.bernoulli(), 5).d
        assert d == (1, F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6))

    def test_euler(self):
        d = family_coefficients(FamilySpec.euler(), 4).d
        assert d == (1, F(1, 2), F(1, 2), F(1, 2), F(1, 2))

    def test_hyper_bernoulli_1_1_is_bernoulli(self):
        a = family_coefficients(FamilySpec.hyper_bernoulli(1, 1), 10)
        b = family_coefficients(FamilySpec.bernoulli(), 10)
        assert a.d == b.d

    def test_hyper_bernoulli_general_entry(self):
        # d_n = (M)^(n) / (M+N)^(n)
        d = family_coefficients(FamilySpec.hyper_bernoulli(2, 3), 3).d
        assert d == (1, F(2, 5), F(2 * 3, 5 * 6), F(2 * 3 * 4, 5 * 6 * 7))

    def test_hyper_cauchy_sign_alternates(self):
        # d_n = (-1)^n (M)^(n) (N)^(n) / (N+1)^(n); M=N=1 gives n!/(n+1)
        d = family_coefficients(FamilySpec.hyper_cauchy(1, 1), 4).d
        assert d == (
            1,
            F(-1, 2),
            F(math.factorial(2), 3),
            F(-math.factorial(3), 4),
            F(math.factorial(4), 5),
        )

    def test_hyper_cauchy_general_entry(self):
        d = family_coefficients(FamilySpec.hyper_cauchy(2, 3), 2).d
        assert d == (1, F(-2 * 3, 4), F(2 * 3 * 3 * 4, 4 * 5))

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 1), (4, 7)])
    def test_hypergeometric_match_rising_factorial_forms(self, m, n):
        from oracles import rising_factorial

        bern = family_coefficients(FamilySpec.hyper_bernoulli(m, n), 30).d
        cauchy = family_coefficients(FamilySpec.hyper_cauchy(m, n), 30).d
        for k in range(31):
            assert bern[k] == rising_factorial(m, k) / rising_factorial(m + n, k)
            assert cauchy[k] == (-1) ** k * (
                rising_factorial(m, k) * rising_factorial(n, k)
                / rising_factorial(n + 1, k)
            )

    def test_custom_serves_prefix(self):
        spec = FamilySpec.custom([1, F(1, 2), F(1, 3)])
        assert family_coefficients(spec, 1).d == (1, F(1, 2))
        with pytest.raises(ValueError):
            family_coefficients(spec, 3)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError):
            family_coefficients(FamilySpec.bernoulli(), -1)


def fraction_d(spec, n_max):
    """d_0..d_{n_max} of `spec` as Fractions, from the definitions."""
    from oracles import rising_factorial

    m, nn = spec.m, spec.n
    if spec.kind == "custom":
        return spec.values[: n_max + 1]
    return tuple(
        {
            "bernoulli": lambda: F(1, k + 1),
            "euler": lambda: F(1, 2 if k else 1),
            "hyper_bernoulli": lambda: rising_factorial(m, k) / rising_factorial(m + nn, k),
            "hyper_cauchy": lambda: (-1) ** k * rising_factorial(m, k)
            * rising_factorial(nn, k) / rising_factorial(nn + 1, k),
        }[spec.kind]()
        for k in range(n_max + 1)
    )


INTEGER_FORM_SPECS = [
    FamilySpec.bernoulli(),
    FamilySpec.euler(),
    FamilySpec.hyper_bernoulli(1, 1),
    FamilySpec.hyper_bernoulli(2, 3),
    FamilySpec.hyper_bernoulli(5, 2),
    FamilySpec.hyper_cauchy(1, 1),
    FamilySpec.hyper_cauchy(2, 3),
    FamilySpec.hyper_cauchy(3, 2),
    FamilySpec.custom([1, F(-1, 2), F(1, 12), 0, F(-1, 720), F(7, 6), -3] + [F(k, 9) for k in range(54)]),
]


class TestIntegerForm:
    """A sequence is kept as integer numerators P over one denominator L."""

    @pytest.mark.parametrize("spec", INTEGER_FORM_SPECS, ids=lambda spec: spec.label)
    def test_numerators_over_L_are_the_fraction_d(self, spec):
        for n in (0, 1, 2, 24, 60):
            seq = family_coefficients(spec, n)
            assert seq.P[0] == seq.L >= 1
            assert tuple(F(p, seq.L) for p in seq.P) == fraction_d(spec, n), n
            assert seq.d == fraction_d(spec, n), n

    @pytest.mark.parametrize("spec", INTEGER_FORM_SPECS, ids=lambda spec: spec.label)
    def test_a_prefix_is_a_slice_over_the_built_L(self, spec):
        # not reduced: each kernel lifts the input it reads
        seq = family_coefficients(spec, 60)
        for n in (0, 1, 2, 24, 60):
            P, L = seq.prefix(n)
            assert (tuple(P), L) == (seq.P[: n + 1], seq.L), n
            assert tuple(F(p, L) for p in P) == fraction_d(spec, n), n


class TestCustomFile:
    def test_load_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("# custom family\n\n1\n-1/2\n\n1/12\n# trailing\n")
        spec = load_custom_family(path)
        assert spec.values == (1, F(-1, 2), F(1, 12))

    def test_line_numbers_in_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n1/2\noops\n")
        with pytest.raises(ValueError, match="bad.txt:3"):
            load_custom_family(path)

    def test_reading_stops_after_d_n(self, tmp_path):
        # a malformed line past d_{n_max} is never parsed; at or before
        # it, it is reported with its line
        path = tmp_path / "long.txt"
        path.write_bytes(b"1\n# note\n\n1/2\r\n1/3\roops\n")
        assert load_custom_family(path, 0).values == (1,)
        assert load_custom_family(path, 2).values == (1, F(1, 2), F(1, 3))
        for n_max in (3, None):
            with pytest.raises(ValueError, match="long.txt:6"):
                load_custom_family(path, n_max)

    def test_one_byte_order_mark_may_open_the_file(self, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(b"1\n1/2\n1/3\n")
        bom.write_bytes(b"\xef\xbb\xbf1\n1/2\n1/3\n")
        assert load_custom_family(bom) == load_custom_family(plain)
        # a U+FEFF anywhere else is not part of a p/q
        for lineno, text in ((3, "1\n1/2\n\ufeff1/3\n"), (1, "\ufeff\ufeff1\n1/2\n")):
            path = tmp_path / "feff.txt"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=f"feff.txt:{lineno}: not a p/q rational"):
                load_custom_family(path)

    def test_unnormalized_head_rejected(self, tmp_path):
        path = tmp_path / "head.txt"
        path.write_text("3\n1/2\n")
        with pytest.raises(NormalizationError, match="d_0 must be 1"):
            load_custom_family(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no coefficients"):
            load_custom_family(path)


class TestIdentityChecks:
    def test_m1_closed_form_holds(self):
        for N in range(1, 6):
            check = family_identity_checks(FamilySpec.hyper_bernoulli(1, N), 12)
            assert check.ok
            assert check.first_mismatch is None

    def test_other_specs_rejected(self):
        with pytest.raises(ValueError):
            family_identity_checks(FamilySpec.hyper_bernoulli(2, 1), 5)
        with pytest.raises(ValueError):
            family_identity_checks(FamilySpec.bernoulli(), 5)


class TestTelescoping:
    def test_rising_factorial_ratio_collapses(self):
        # (N)^(n) / (N+1)^(n) = N / (N+n), the step that turns the
        # hypergeometric Cauchy coefficients into the display entries
        from oracles import rising_factorial

        for N in range(1, 6):
            for n in range(11):
                ratio = rising_factorial(N, n) / rising_factorial(N + 1, n)
                assert ratio == F(N, N + n)


class TestCauchyOracle:
    def test_spot_values(self):
        c = classical_cauchy_oracle(4)
        assert c == [1, F(1, 2), F(-1, 6), F(1, 4), F(-19, 30)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classical_cauchy_oracle(-1)
