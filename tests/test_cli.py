import contextlib
import io
import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from appellseq import cli
from appellseq.arith import DEFAULT_COMPOSITION_CAP
from appellseq.engine import VerificationReport
from appellseq.families import family_coefficients
from appellseq.series import TruncatedSeries

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
        for algo in ("recurrence", "determinant", "composition", "all"):
            code, out, _ = run(
                capsys, "compute", "--family", "hyper-cauchy", "--m", "2", "--nn", "2",
                "--n", "6", "--algo", algo, "--format", "csv",
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_kernel_choice(self, capsys):
        code_h, out_h, _ = run(
            capsys, "compute", "--family", "bernoulli", "--n", "8",
            "--algo", "determinant", "--kernel", "hessenberg", "--format", "csv",
        )
        code_b, out_b, _ = run(
            capsys, "compute", "--family", "bernoulli", "--n", "8",
            "--algo", "determinant", "--kernel", "bareiss", "--format", "csv",
        )
        assert code_h == code_b == 0
        assert out_h == out_b

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

    def test_power_computed_once_per_check(self, capsys, monkeypatch):
        calls = []
        power = TruncatedSeries.__pow__

        def counted(series, r):
            calls.append(r)
            return power(series, r)

        monkeypatch.setattr(TruncatedSeries, "__pow__", counted)
        for algo in ("recurrence", "determinant", "composition", "all"):
            calls.clear()
            code, out, _ = run(
                capsys, "compute", "--family", "hyper-cauchy", "--m", "2", "--nn", "3",
                "--order", "3", "--n", "8", "--algo", algo, "--check", "--format", "csv",
            )
            assert code == 0
            assert calls == [3, -3]
            assert out.splitlines()[0] == "n,value"

    def test_check_prints_the_chosen_route(self, capsys):
        plain = run(
            capsys, "compute", "--family", "euler", "--order", "2", "--n", "10",
            "--algo", "determinant", "--kernel", "bareiss", "--format", "csv",
        )
        checked = run(
            capsys, "compute", "--family", "euler", "--order", "2", "--n", "10",
            "--algo", "determinant", "--kernel", "bareiss", "--format", "csv",
            "--check",
        )
        assert plain == checked
        assert plain[0] == 0

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

    def test_default_cap_checks_composition_to_34(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "bernoulli", "--n", "40", "--check",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["verified"] == {
            "recurrence": 40,
            "determinant:bareiss": 40,
            "composition": 34,
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


class TestBenchCommand:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "bernoulli", "--n", "6"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "n,hessenberg_seconds,hessenberg_max_num_bits,"
            "bareiss_seconds,bareiss_max_num_bits,"
            "recurrence_seconds,recurrence_max_num_bits,value"
        )
        assert len(lines) == 8
        values = [line.split(",")[-1] for line in lines[1:]]
        assert values == ["1", "-1/2", "1/6", "0", "-1/30", "0", "1/42"]

    def test_disagreement_refuses_timings(self, capsys, monkeypatch):
        def corrupted(D, n_max, stats=None):
            good = cli.engine.recurrence_values(D, n_max, stats=stats)
            if n_max >= 2:
                good[2] += 1
            return good

        monkeypatch.setattr(cli, "recurrence_values", corrupted)
        code, out, err = run(capsys, "bench", "--family", "bernoulli", "--n", "4")
        assert code == 4
        assert "disagreement at n=2" in err
        assert "n,hessenberg_seconds" not in out

    def test_single_trivial_row(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "euler", "--n", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        cols = lines[1].split(",")
        assert cols[0] == "0"
        assert cols[-1] == "1"

    def test_run_benchmark_structure(self):
        from appellseq.families import FamilySpec

        rows = cli.run_benchmark(FamilySpec.euler(), 2, 5)
        assert [row.n for row in rows] == [0, 1, 2, 3, 4, 5]
        for row in rows:
            assert set(row.cells) == {"hessenberg", "bareiss", "recurrence"}
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
            for name in ("bareiss_det", "hessenberg_leading_minors", "compositions"):
                assert (cli.engine, name) in wrapped
            code, _, _ = run(
                capsys, "compute", "--family", "bernoulli", "--n", "8", "--check",
                "--algo", "determinant", "--kernel", "bareiss",
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
