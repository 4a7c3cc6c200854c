import json
from fractions import Fraction

from appellseq import cli
from appellseq.engine import VerificationReport
from appellseq.families import family_coefficients

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

    def test_custom_family_round_trip(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("# bernoulli by hand\n1\n1/2\n1/3\n1/4\n1/5\n")
        code, out, _ = run(
            capsys, "compute", "--family", "custom", "--custom-path", str(path),
            "--n", "4", "--format", "csv",
        )
        assert code == 0
        assert out.strip().splitlines()[1:] == ["0,1", "1,-1/2", "2,1/6", "3,0", "4,-1/30"]


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


class TestCapExit:
    def test_composition_past_cap_exits_3(self, capsys):
        code, _, err = run(
            capsys, "compute", "--family", "bernoulli", "--n", "25",
            "--algo", "composition",
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
