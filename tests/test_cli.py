import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from appellseq import cli, engine, series
from appellseq.arith import DEFAULT_COMPOSITION_CAP
from appellseq.engine import VerificationReport
from appellseq.families import FamilySpec, family_coefficients

F = Fraction


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommand:
    def test_csv_output(self, capsys):
        code, out, err = run(
            capsys, "compute", "--family", "bernoulli", "--n", "4", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value"
        assert lines[1:] == ["0,1", "1,-1/2", "2,1/6", "3,0", "4,-1/30"]

    def test_json_output_schema(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "euler", "--order", "2",
            "--n", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "euler"
        assert doc["order"] == 2
        assert [v["n"] for v in doc["values"]] == [0, 1, 2, 3]
        assert [Fraction(v["value"]) for v in doc["values"]] == [1, -1, F(1, 2), F(1, 2)]

    def test_pretty_output(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "bernoulli", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["0  1", "1  -1/2", "2  1/6"]

    def test_classical_cauchy_values(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "hyper-cauchy", "--m", "1", "--nn", "1",
            "--order", "1", "--n", "2", "--format", "csv",
        )
        assert code == 0
        assert out.strip().splitlines()[1:] == ["0,1", "1,1/2", "2,-1/6"]

    def test_all_algorithms_give_same_output(self, capsys):
        outputs = set()
        for algo in ("recurrence", "determinant", "composition"):
            code, out, _ = run(
                capsys, "compute", "--family", "hyper-cauchy", "--m", "2", "--nn", "2",
                "--n", "6", "--algo", algo, "--format", "csv",
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_retired_flags_exit_2(self, capsys):
        # one name per route: no --kernel, no --algo all, and --cap only
        # where the composition route can run
        family = ("--family", "bernoulli", "--n", "8")
        for argv in (
            ("compute", *family, "--algo", "determinant", "--kernel", "bareiss"),
            ("compute", *family, "--algo", "all"),
            ("poly", *family, "--cap", "3"),
            ("bench", *family, "--cap", "3"),
        ):
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (2, ""), argv

    def test_check_flag_passes(self, capsys):
        code, out, err = run(
            capsys, "compute", "--family", "hyper-bernoulli", "--m", "2", "--nn", "3",
            "--order", "2", "--n", "8", "--check", "--format", "csv",
        )
        assert code == 0
        assert err == ""

    def test_check_failure_exits_4(self, capsys, monkeypatch):
        bad = VerificationReport(
            r=1, n_max=2, tables={"a": (F(1),), "b": (F(2),)}, first_mismatch=0
        )
        monkeypatch.setattr(cli, "cross_verify", lambda *a, **k: bad)
        code, out, err = run(
            capsys, "compute", "--family", "bernoulli", "--n", "2", "--check"
        )
        assert code == 4
        assert "cross-verification failed" in err

    def test_family_coefficients_built_once(self, capsys, monkeypatch):
        calls = []

        def counted(spec, n_max):
            calls.append(n_max)
            return family_coefficients(spec, n_max)

        monkeypatch.setattr(cli, "family_coefficients", counted)
        code, _, _ = run(
            capsys, "compute", "--family", "euler", "--n", "6", "--check",
            "--format", "csv",
        )
        assert code == 0
        assert calls == [6]

    @staticmethod
    def count_miller_loops(monkeypatch) -> list:
        """Record the exponent of every run of the one Miller loop."""
        calls = []
        loop = series.exponential_power

        def counted(F, r, stats=None):
            calls.append(r)
            return loop(F, r, stats)

        for owner in (series, engine):
            monkeypatch.setattr(owner, "exponential_power", counted)
        return calls

    def test_power_computed_once_per_check(self, capsys, monkeypatch):
        calls = self.count_miller_loops(monkeypatch)
        for r in (1, 2, 3):
            for algo in ("recurrence", "determinant", "composition"):
                calls.clear()
                code, out, _ = run(
                    capsys, "compute", "--family", "hyper-cauchy", "--m", "2", "--nn", "3",
                    "--order", str(r), "--n", "8", "--algo", algo, "--check",
                    "--format", "csv",
                )
                assert code == 0
                # f^r once, the D-recurrence witness's inverse of D_r, f^(-r)
                # once; at r = 1 the witness is f^(-1) itself, run once
                assert calls == ([1, -1] if r == 1 else [r, -1, -r]), (r, algo)
                assert out.splitlines()[0] == "n,value"

    def test_plain_requests_never_build_d(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("built D_r for a plain request")

        calls = self.count_miller_loops(monkeypatch)
        monkeypatch.setattr(engine, "compute_D", must_not_run)
        for argv in (
            ("compute", "--family", "hyper-cauchy", "--m", "2", "--nn", "3",
             "--order", "3", "--n", "8"),
            ("poly", "--family", "euler", "--order", "3", "--n", "8", "--z", "1/3"),
        ):
            calls.clear()
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert calls == [-3]

    def test_no_request_builds_a_truncated_series(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a request built a TruncatedSeries")

        monkeypatch.setattr(series.TruncatedSeries, "__init__", must_not_run)
        family = ("--family", "hyper-cauchy", "--m", "2", "--nn", "3", "--n", "8")
        for r in ("1", "2"):
            for extra in (
                ("compute", "--check"),
                ("compute", "--algo", "determinant", "--check"),
                ("compute", "--algo", "determinant"),
                ("compute", "--algo", "composition"),
                ("poly", "--z", "1/3"),
                ("bench",),
            ):
                code, _, err = run(capsys, extra[0], *family, "--order", r, *extra[1:])
                assert (code, err) == (0, ""), extra

    def test_check_prints_the_chosen_route(self, capsys):
        for extra in (("--algo", "determinant"), ("--algo", "composition"), ()):
            plain = run(
                capsys, "compute", "--family", "euler", "--order", "2", "--n", "10",
                *extra, "--format", "csv",
            )
            checked = run(
                capsys, "compute", "--family", "euler", "--order", "2", "--n", "10",
                *extra, "--format", "csv", "--check",
            )
            assert plain == checked
            assert plain[0] == 0
        # every --algo names a table that cross_verify reports at every r
        assert {algo: route for algo, (route, _) in cli.ROUTES.items()} == {
            "recurrence": engine.NEGATIVE_POWER,
            "determinant": engine.DETERMINANT_BAREISS,
            "composition": engine.COMPOSITION,
        }

    def test_determinant_check_prints_the_bareiss_table(self, capsys, monkeypatch):
        # mark the Bareiss table so that no other route's table can pass for it
        marks = (F(1), *(F(1000 + n, 7) for n in range(1, 7)))

        def marked(seq, r, n_max, cap):
            report = engine.cross_verify(seq, r, n_max, cap=cap)
            assert engine.DETERMINANT_BAREISS in report.tables
            tables = {**report.tables, engine.DETERMINANT_BAREISS: marks}
            return VerificationReport(r=r, n_max=n_max, tables=tables, first_mismatch=None)

        monkeypatch.setattr(cli, "cross_verify", marked)
        for r in ("1", "2"):
            code, out, err = run(
                capsys, "compute", "--family", "euler", "--order", r, "--n", "6",
                "--algo", "determinant", "--check", "--format", "csv",
            )
            assert (code, err) == (0, "")
            assert out.splitlines()[1:] == [
                f"{n},{cli.format_rational(v)}" for n, v in enumerate(marks)
            ]

    def test_composition_past_cap_with_check_exits_3(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the cap was checked")

        monkeypatch.setattr(cli, "family_coefficients", must_not_run)
        monkeypatch.setattr(cli, "cross_verify", must_not_run)
        code, out, err = run(
            capsys, "compute", "--family", "bernoulli", "--n", "12", "--cap", "6",
            "--algo", "composition", "--check",
        )
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: composition route cannot serve n_max=12: enumeration cap is 6"
        ]

    def test_checked_json_names_each_route_range(self, capsys):
        argv = ("compute", "--family", "euler", "--order", "2", "--n", "9", "--format", "json")
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        assert "verified" not in json.loads(plain)
        code, checked, _ = run(capsys, *argv, "--check", "--cap", "7")
        assert code == 0
        doc = json.loads(checked)
        assert doc["verified"] == {
            "recurrence": 9,
            "determinant:bareiss": 9,
            "composition": 7,
            "negative-power": 9,
        }
        del doc["verified"]
        assert doc == json.loads(plain)

    def test_default_cap_checks_every_route_to_40(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "bernoulli", "--n", "40", "--check",
            "--format", "json",
        )
        assert code == 0
        # at r = 1 the D-recurrence is the negative power, reported once
        assert json.loads(out)["verified"] == {
            "determinant:bareiss": 40,
            "composition": 40,
            "negative-power": 40,
        }

    def test_custom_family_round_trip(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("# bernoulli by hand\n1\n1/2\n1/3\n1/4\n1/5\n")
        code, out, _ = run(
            capsys, "compute", "--family", "custom", "--custom-path", str(path),
            "--n", "4", "--format", "csv",
        )
        assert code == 0
        assert out.strip().splitlines()[1:] == ["0,1", "1,-1/2", "2,1/6", "3,0", "4,-1/30"]


class TestParserCache:
    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        for _ in range(2):
            code, _, _ = run(capsys, "poly", "--family", "euler", "--n", "3")
            assert code == 0
        assert len(built) == 1


class TestUsageErrors:
    def test_custom_without_path(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "custom", "--n", "3")
        assert code == 2
        assert "--custom-path" in err

    def test_bad_order(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "bernoulli", "--n", "3", "--order", "0"
        )
        assert code == 2
        assert "--order" in err

    def test_bad_n(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "bernoulli", "--n", "-2"
        )
        assert code == 2

    def test_huge_n_is_refused_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("family coefficients were built")

        monkeypatch.setattr(cli, "family_coefficients", refuse)
        for n in (cli.MAX_N + 1, 100_000_000):
            for command in ("compute", "poly", "bench"):
                code, out, err = run(capsys, command, "--family", "euler", "--n", str(n))
                assert code == 2
                assert out == ""
                assert err.splitlines() == [f"error: --n must be <= {cli.MAX_N}, got {n}"]
        # the limit itself is a valid size
        config = cli.RunConfig(family=FamilySpec.euler(), order=1, n_max=cli.MAX_N)
        assert config.n_max == cli.MAX_N

    def test_huge_family_parameters_are_refused_before_any_work(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before --m and --nn were checked")

        monkeypatch.setattr(cli, "family_coefficients", must_not_run)
        for command in ("compute", "poly", "bench"):
            for family in ("hyper-bernoulli", "hyper-cauchy"):
                for params in (("--m", str(10**1000)), ("--nn", str(10**1000))):
                    code, out, err = run(
                        capsys, command, "--family", family, "--n", "100", *params,
                    )
                    assert (code, out) == (2, ""), (command, family, params)
                    assert err.splitlines() == [
                        f"error: --n times the bit lengths of --m and --nn must be <= "
                        f"{cli.MAX_ORDER_WORK}, got 100 * "
                        + ("(3322 + 1)" if params[0] == "--m" else "(1 + 3322)")
                    ]
        # the budget bounds n * (bits(M) + bits(N)): at n = 256 and N = 1,
        # M of 255 bits passes and one more bit does not
        spec = FamilySpec.hyper_cauchy(2**255 - 1, 1)
        cli.RunConfig(family=spec, order=1, n_max=256)
        code, _, err = run(
            capsys, "compute", "--family", "hyper-cauchy", "--n", "256", "--m", str(2**255)
        )
        assert code == 2
        assert err.endswith("got 256 * (256 + 1)\n")

    def test_huge_order_is_refused_before_any_work(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before --order was checked")

        monkeypatch.setattr(cli, "family_coefficients", must_not_run)
        monkeypatch.setattr(engine, "exponential_power", must_not_run)
        for command in ("compute", "poly", "bench"):
            code, out, err = run(
                capsys, command, "--family", "euler", "--n", "300",
                "--order", str(10**4000),
            )
            assert (code, out) == (2, "")
            assert err.splitlines() == [
                f"error: --n times the bit length of --order must be <= "
                f"{cli.MAX_ORDER_WORK}, got 300 * 13288"
            ]
        # the budget bounds n * bits(r): the largest order of 218 bits
        # passes at n = 300, one more bit does not
        bits = cli.MAX_ORDER_WORK // 300
        cli.RunConfig(family=FamilySpec.euler(), order=2**bits - 1, n_max=300)
        code, _, err = run(
            capsys, "compute", "--family", "euler", "--n", "300", "--order", str(2**bits)
        )
        assert code == 2
        assert err.endswith(f"got 300 * {bits + 1}\n")

    def test_unknown_family_is_argparse_error(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "pell", "--n", "3")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_bad_custom_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\nnope\n")
        code, _, err = run(
            capsys, "compute", "--family", "custom", "--custom-path", str(path),
            "--n", "1",
        )
        assert code == 2
        assert "bad.txt:2" in err

    def test_unnormalized_custom_file(self, capsys, tmp_path):
        path = tmp_path / "head.txt"
        path.write_text("2\n1\n")
        code, _, err = run(
            capsys, "compute", "--family", "custom", "--custom-path", str(path),
            "--n", "1",
        )
        assert code == 2
        assert "d_0 must be 1" in err

    def test_missing_custom_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "compute", "--family", "custom",
            "--custom-path", str(tmp_path / "absent.txt"), "--n", "1",
        )
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()


int_options = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["x", "1.5", "", "-"]))
# written as latin-1, so "\xff" is a byte that is not UTF-8
custom_lines = st.one_of(
    st.fractions(min_value=-99, max_value=99, max_denominator=99).map(str),
    st.sampled_from(["1", "0", "1/0", "# note", "", "p/q", "1.5", "\xff", "2/-3"]),
)


@st.composite
def fuzzed_argv(draw):
    """(argv, custom file text or None): compute, poly or bench with drawn
    family, sizes, --z, --format and --check, --n at most 12."""
    command = draw(st.sampled_from(["compute", "poly", "bench"]))
    family = draw(st.sampled_from(
        ["bernoulli", "euler", "hyper-bernoulli", "hyper-cauchy", "custom", "pell"]
    ))
    argv = [command, "--family", family, "--n", draw(int_options)]
    for option in ("--m", "--nn", "--order", "--cap"):
        if draw(st.booleans()):
            argv += [option, draw(int_options)]
    if draw(st.booleans()):
        # up to 4500 digits: past the work budget at some --n, and past
        # the interpreter's 4300-digit int parsing limit
        argv += ["--order", "9" * draw(st.integers(15, 4500))]
    text = None
    if family == "custom" and draw(st.booleans()):
        text = "\n".join(draw(st.lists(custom_lines, max_size=14)))
        argv += ["--custom-path", "{path}"]
    if draw(st.booleans()):
        argv += ["--z", draw(st.one_of(
            st.fractions(min_value=-9, max_value=9, max_denominator=9).map(str),
            st.sampled_from(["1/0", "", "abc", "-x", "0.5"]),
        ))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["csv", "json", "pretty", "xml"]))]
    if draw(st.booleans()):
        argv.append("--check")
    return argv, text


class TestArgvFuzz:
    """Whatever the argv, `main` exits with a documented code and at most
    one error line, in process."""

    @settings(max_examples=60, deadline=None)
    @given(fuzzed_argv())
    def test_exit_codes_and_one_error_line(self, drawn):
        argv, text = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "custom.txt"
            if text is not None:
                path.write_bytes(text.encode("latin-1"))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([a.replace("{path}", str(path)) for a in argv])
        assert code in (0, 2, 3, 4), (argv, text, err.getvalue())
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1


class TestCapExit:
    def test_composition_past_cap_exits_3(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "bernoulli",
            "--n", str(DEFAULT_COMPOSITION_CAP + 1), "--algo", "composition",
        )
        assert code == 3
        assert "cap" in err

    def test_negative_cap_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "compute", "--family", "bernoulli", "--n", "5",
            "--check", "--cap", "-1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --cap")

    def test_cap_flag_lowers_threshold(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "bernoulli", "--n", "10",
            "--algo", "composition", "--cap", "5",
        )
        assert code == 3


class TestPolyCommand:
    def test_coefficients_ascending(self, capsys):
        code, out, _ = run(capsys, "poly", "--family", "euler", "--n", "2")
        assert code == 0
        assert out.strip() == "0, -1, 1"

    def test_degree_one_and_zero(self, capsys):
        code, out, _ = run(capsys, "poly", "--family", "bernoulli", "--n", "1")
        assert code == 0
        assert out.strip() == "-1/2, 1"
        code, out, _ = run(capsys, "poly", "--family", "bernoulli", "--n", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_evaluation(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--family", "bernoulli", "--n", "3", "--z", "1/2"
        )
        assert code == 0
        assert out.strip() == "0"

    def test_json_coefficients(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--family", "bernoulli", "--n", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "family": "bernoulli",
            "order": 1,
            "n": 2,
            "coeffs": ["1/6", "-1", "1"],
        }

    def test_json_evaluation(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--family", "euler", "--n", "3", "--z", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        # E_3(2) = 8 - 6 + 1/4
        assert Fraction(doc["value"]) == F(9, 4)
        assert doc["z"] == "2"

    def test_zero_denominator_z_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "poly", "--family", "bernoulli", "--n", "3", "--z", "1/0"
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: zero denominator in '1/0'"]

    def test_negative_z_after_space(self, capsys):
        code, out, err = run(
            capsys, "poly", "--family", "bernoulli", "--n", "4", "--z", "-1/2"
        )
        assert code == 0
        assert err == ""
        # B_4(z) = z^4 - 2z^3 + z^2 - 1/30
        assert Fraction(out.strip()) == F(127, 240)

    def test_bad_z_rejected(self, capsys):
        code, _, err = run(
            capsys, "poly", "--family", "euler", "--n", "2", "--z", "0.5"
        )
        assert code == 2


@contextlib.contextmanager
def int_digit_limit(digits):
    """Python's int<->str digit limit set to `digits` (0: no limit)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestOutputPastTheDigitLimit:
    """Values longer than Python's int->str limit (4300 digits by default)
    still print in full: Euler a_4 at r = 10^1200 has about 4800 digits."""

    ORDER = 10**1200

    def expected(self):
        seq = family_coefficients(FamilySpec.euler(), 4)
        table = engine.related_numbers_negative_power(seq, self.ORDER, 4)
        poly = engine.appell_polynomial(table, 4)
        with int_digit_limit(0):
            assert len(str(table.a[4].numerator)) > 4300
            return (
                [str(v) for v in table.a],
                [str(c) for c in poly.coeffs_in_z],
                str(engine.polynomial_eval(poly, 1)),
            )

    def test_compute_and_poly_in_every_format(self, capsys):
        values, coeffs, at_one = self.expected()
        args = ("--family", "euler", "--n", "4", "--order", str(self.ORDER))
        with int_digit_limit(4300):
            self.check_outputs(capsys, args, values, coeffs, at_one)

    def check_outputs(self, capsys, args, values, coeffs, at_one):

        code, out, err = run(capsys, "compute", *args, "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["n,value"] + [f"{n},{v}" for n, v in enumerate(values)]

        code, out, err = run(capsys, "compute", *args, "--format", "pretty")
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"{n}  {v}" for n, v in enumerate(values)]

        code, out, err = run(capsys, "compute", *args, "--format", "json")
        assert (code, err) == (0, "")
        assert [row["value"] for row in json.loads(out)["values"]] == values

        code, out, err = run(capsys, "poly", *args, "--z", "1")
        assert (code, out, err) == (0, at_one + "\n", "")
        code, out, err = run(capsys, "poly", *args, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["coeffs"] == coeffs

    def test_a_failed_row_prints_no_partial_table(self, capsys, monkeypatch):
        def fail_on_the_last(x):
            if x == values[-1]:
                raise ValueError("cannot format")
            return str(x)

        seq = family_coefficients(FamilySpec.euler(), 4)
        values = engine.related_numbers_negative_power(seq, 1, 4).a
        monkeypatch.setattr(cli, "format_rational", fail_on_the_last)
        for fmt in ("csv", "json", "pretty"):
            code, out, err = run(
                capsys, "compute", "--family", "euler", "--n", "4", "--format", fmt
            )
            assert (code, out, err) == (2, "", "error: cannot format\n")


class TestBenchCommand:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "bernoulli", "--n", "6"
        )
        assert code == 0
        lines = out.strip().splitlines()
        # at r = 1 the D_r recurrence is the negative power's own loop
        assert lines[0] == (
            "n,negative_power_seconds,negative_power_max_num_bits,"
            "bareiss_seconds,bareiss_max_num_bits,value"
        )
        assert len(lines) == 8
        values = [line.split(",")[-1] for line in lines[1:]]
        assert values == ["1", "-1/2", "1/6", "0", "-1/30", "0", "1/42"]
        code, out, _ = run(
            capsys, "bench", "--family", "bernoulli", "--order", "2", "--n", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "n,negative_power_seconds,negative_power_max_num_bits,"
            "bareiss_seconds,bareiss_max_num_bits,"
            "recurrence_seconds,recurrence_max_num_bits,value"
        )
        assert [line.split(",")[-1] for line in lines[1:]] == ["1", "-1", "5/6", "-1/2"]

    def test_disagreement_refuses_timings(self, capsys, monkeypatch):
        def corrupted(D, n_max, stats=None):
            good = cli.engine.recurrence_values(D, n_max, stats=stats)
            if n_max >= 2:
                good[2] += 1
            return good

        monkeypatch.setattr(cli, "recurrence_values", corrupted)
        # the recurrence column runs at r >= 2 only
        code, out, err = run(
            capsys, "bench", "--family", "bernoulli", "--order", "2", "--n", "4"
        )
        assert code == 4
        assert "disagreement at n=2" in err
        assert "n,negative_power_seconds" not in out

    def test_single_trivial_row(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "euler", "--n", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        cols = lines[1].split(",")
        assert cols[0] == "0"
        assert cols[-1] == "1"

    def test_run_benchmark_structure(self):
        # at r = 1 the D_r recurrence is the negative power's own loop, so
        # only r >= 2 times it
        for r, methods in ((1, {"negative_power", "bareiss"}),
                           (2, {"negative_power", "bareiss", "recurrence"})):
            rows = cli.run_benchmark(FamilySpec.euler(), r, 5)
            assert [row.n for row in rows] == [0, 1, 2, 3, 4, 5]
            for row in rows:
                assert set(row.cells) == methods, r
                assert len({cell.value for cell in row.cells.values()}) == 1
                for cell in row.cells.values():
                    assert cell.seconds >= 0


class TestBenchmarkTracer:
    def test_install_and_uninstall_restore_every_name(self, capsys, monkeypatch):
        # The benchmark's tracer wraps these names by getattr; a missing
        # one would crash every traced run.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans

        tracer = spans.Tracer(time.perf_counter)
        tracer.install(cli)
        patched = list(tracer._undo)
        try:
            wrapped = {(owner, attr) for owner, attr, _ in patched}
            for name in (
                "hessenberg_leading_minors", "bareiss_det", "compositions",
                "related_numbers_inversion", "recurrence_values",
                "related_numbers_composition",
            ):
                assert (cli.engine, name) in wrapped, name
            assert (cli.engine.TruncatedSeries, "__pow__") in wrapped
            code, _, _ = run(
                capsys, "compute", "--family", "bernoulli", "--n", "8", "--check",
                "--algo", "determinant",
            )
            assert code == 0
        finally:
            tracer.uninstall()
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, attr

    def test_cached_parser_is_traced_and_untraced(self, capsys, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans

        build_parser = cli.build_parser
        tracer = spans.Tracer(time.perf_counter)
        tracer.install(cli)
        try:
            for _ in range(2):
                code, _, _ = run(capsys, "poly", "--family", "euler", "--n", "3")
                assert code == 0
            names = [span[0] for span in tracer.spans]
            assert names.count("cli.parse_args") == 2
        finally:
            tracer.uninstall()
        assert cli.build_parser is build_parser
        recorded = len(tracer.spans)
        code, _, _ = run(capsys, "poly", "--family", "euler", "--n", "3")
        assert code == 0
        assert len(tracer.spans) == recorded


class TestReadmeFlags:
    def test_flags_line_lists_exactly_the_compute_options(self):
        # README's "Flags:" paragraph runs to the next blank line
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("\nFlags:") :].split("\n\n")[0]
        documented = set(re.findall(r"`(--[a-z][a-z-]*)", paragraph))
        parser = cli.build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        compute = subparsers.choices["compute"]
        accepted = {s for a in compute._actions for s in a.option_strings} - {"-h", "--help"}
        assert documented == accepted
