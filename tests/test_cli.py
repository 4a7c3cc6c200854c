import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appellseq import cli, engine, library, series, witness
from appellseq.families import FamilySpec, family_coefficients
from appellseq.witness import VerificationReport

import oracles

F = Fraction


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def admitted(*argv):
    """(family, bits) that `config_from_args` admits for `compute` with
    these flags; a refusal raises its ValueError."""
    return cli.config_from_args(cli.build_parser().parse_args(["compute", *argv]))


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

    @pytest.mark.parametrize("label", ["euler", 'custom "q\u00fc\u2211" \\ \n'])
    @pytest.mark.parametrize("verified", [None, {"recurrence": 0, "negative-power": 4}])
    @pytest.mark.parametrize("pair", [([1], [1]), ([-3, 0, 5, -691], [2, 1, 6, 2730])])
    def test_json_is_what_json_dumps_prints(self, capsys, label, verified, pair):
        # the values array is written without `json`, the header with it,
        # so a label that needs escaping (a quote, non-ASCII) is escaped
        cli.emit_table(pair, argparse.Namespace(order=3, fmt="json"), label, verified)
        doc = {"family": label, "order": 3}
        if verified is not None:
            doc["verified"] = verified
        doc["values"] = [{"n": n, "value": str(F(p, q))} for n, (p, q) in enumerate(zip(*pair))]
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

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

    def test_polynomial_power_closed_form(self, capsys):
        # hyper-Cauchy(3, 2) has f = (1+t)^(-2), so at order 4 a_n = n! C(8, n)
        code, out, _ = run(
            capsys, "compute", "--family", "hyper-cauchy", "--m", "3", "--nn", "2",
            "--order", "4", "--n", "200", "--format", "csv",
        )
        assert code == 0
        want = [f"{n},{math.factorial(n) * math.comb(8, n)}" for n in range(201)]
        assert out.strip().splitlines() == ["n,value", *want]

    def test_retired_flags_exit_2(self, capsys):
        # compute prints the production table, so it takes no --algo and
        # no --kernel; --cap only where --check can run the composition leg
        family = ("--family", "bernoulli", "--n", "8")
        for argv in (
            ("compute", *family, "--algo", "determinant", "--kernel", "bareiss"),
            ("compute", *family, "--algo", "all"),
            ("compute", *family, "--algo", "determinant"),
            ("compute", *family, "--algo", "composition"),
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
            r=1, n_max=2, pairs={"a": ([1], [1]), "b": ([2], [1])}, first_mismatch=0
        )
        monkeypatch.setattr(cli, "cross_verify", lambda *a, **k: bad)
        code, out, err = run(capsys, "compute", "--family", "bernoulli", "--n", "2", "--check")
        assert (code, out) == (4, "")
        assert "cross-verification failed" in err

    def test_a_wrong_input_fails_the_check_at_its_first_bad_term(self, capsys, monkeypatch):
        # hyper-Cauchy's builder with (M + 151) in place of (M + 150): d_151
        # onward wrong, which every route and the identity read alike
        def faulty(spec, n):
            seq = family_coefficients(spec, n)
            late = F(spec.m + 151, spec.m + 150)
            d = [x * (late if k > 150 else 1) for k, x in enumerate(seq.d)]
            return engine.CoefficientSequence.from_values(d)

        monkeypatch.setattr(cli, "family_coefficients", faulty)
        argv = ("compute", "--family", "hyper-cauchy", "--m", "2", "--nn", "3", "--n", "200")
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--check")
        assert (code, out) == (4, "")
        assert err == ("cross-verification failed: input differs from its family first at n=151"
                       " (r=1)\n")
        code, out, err = run(capsys, *argv[:-1], "150", "--check", "--format", "json")
        assert (code, err) == (0, "") and json.loads(out)["verified"]["input"] == 150

    def test_every_check_goes_through_cli_cross_verify(self, capsys, monkeypatch):
        # the name the benchmark's tracer wraps sees each checked table once
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return witness.cross_verify(*args, **kwargs)

        monkeypatch.setattr(cli, "cross_verify", counted)
        family = ("--family", "euler", "--order", "2", "--n", "6")
        code, _, err = run(capsys, "compute", *family, "--check")
        assert (code, err, len(calls)) == (0, "", 1)
        calls.clear()
        code, _, err = run(capsys, "compute", *family)
        assert (code, err, calls) == (0, "", [])

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
        """Record the exponent of every run of the one Miller loop, whether
        it is entered through `exponential_power` or on numerators."""
        calls = []
        loop = series.exponential_power_numerators

        def counted(P, L, r, stats=None):
            calls.append(r)
            return loop(P, L, r, stats)

        for owner in (series, engine):
            monkeypatch.setattr(owner, "exponential_power_numerators", counted)
        return calls

    def test_power_computed_once_per_check(self, capsys, monkeypatch):
        calls = self.count_miller_loops(monkeypatch)
        for r in (1, 2, 3):
            calls.clear()
            code, out, _ = run(
                capsys, "compute", "--family", "hyper-cauchy", "--m", "2", "--nn", "3",
                "--order", str(r), "--n", "8", "--check", "--format", "csv",
            )
            assert code == 0
            # f^r once, for Bareiss, and f^(-r) once, at every r
            assert calls == [r, -r], r
            assert out.splitlines()[0] == "n,value"

    def test_plain_requests_never_build_d(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("built D_r for a plain request")

        calls = self.count_miller_loops(monkeypatch)
        monkeypatch.setattr(library, "compute_D", must_not_run)
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

        monkeypatch.setattr(library.TruncatedSeries, "__init__", must_not_run)
        family = ("--family", "hyper-cauchy", "--m", "2", "--nn", "3", "--n", "8")
        for r in ("1", "2"):
            for extra in (
                ("compute", "--check"),
                ("poly", "--z", "1/3"),
                ("bench",),
            ):
                code, _, err = run(capsys, extra[0], *family, "--order", r, *extra[1:])
                assert (code, err) == (0, ""), extra

    def test_checked_json_names_each_route_range(self, capsys):
        argv = ("compute", "--family", "euler", "--order", "2", "--n", "9", "--format", "json")
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        assert "verified" not in json.loads(plain)
        code, checked, _ = run(capsys, *argv, "--check", "--cap", "7")
        assert code == 0
        doc = json.loads(checked)
        # the input and the identity cover the whole table; --cap bounds
        # both witnesses
        assert doc["verified"] == {
            "input": 9,
            "identity": 9,
            "determinant:bareiss": 7,
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
        assert json.loads(out)["verified"] == {
            "input": 40,
            "identity": 40,
            "determinant:bareiss": 40,
            "composition": 40,
            "negative-power": 40,
        }

    def test_cap_bounds_both_witnesses_and_not_the_proof(self, capsys):
        argv = ("compute", "--family", "bernoulli", "--n", "60", "--check", "--format", "json")
        for extra, witnesses in (((), 50), (("--cap", "70"), 60)):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, err) == (0, ""), extra
            assert json.loads(out)["verified"] == {
                "input": 60,
                "identity": 60,
                "determinant:bareiss": witnesses,
                "composition": witnesses,
                "negative-power": 60,
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


class TestParseOnce:
    """A known subcommand's argv is read by that subcommand's parser alone,
    in one pass; what it prints and exits with, usage and errors
    included, is what argparse's own two-pass path gives."""

    ARGVS = (
        (),
        ("--help",),
        ("nope",),
        ("compute", "-h"),
        ("poly", "--help"),
        ("bench", "-h"),
        ("compute", "--family", "bernoulli"),
        ("poly", "--family", "euler", "--n", "3", "--bogus"),
        ("compute", "--family", "euler", "--n", "x"),
        ("poly",),
        ("bench", "--family", "euler", "--n", "3", "extra"),
    )
    # exit code, stdout and stderr of each of ARGVS at 80 columns, taken
    # with Python 3.11 on argparse's own two-pass path
    DIGEST = "7a7cb9a83c0efedfe0f0babd34481d3606e65ee4568feba7efaaef724ce55401"
    GOOD = (
        ("compute", "--family", "hyper-cauchy", "--m", "2", "--nn", "3", "--n", "4", "--check"),
        ("poly", "--family", "euler", "--order", "2", "--n", "3", "--z", "-1/2"),
        ("bench", "--family", "bernoulli", "--n", "2"),
    )

    @staticmethod
    def argparse_path(monkeypatch):
        monkeypatch.setattr(cli._Parser, "parse_known_args",
                            argparse.ArgumentParser.parse_known_args)

    def test_a_subcommand_is_parsed_in_one_pass(self, capsys, monkeypatch):
        passes = []
        parse = argparse.ArgumentParser._parse_known_args

        def counted(parser, *args):
            passes.append(parser.prog)
            return parse(parser, *args)

        monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", counted)
        parser = cli.build_parser()
        for argv in self.GOOD:
            del passes[:]
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert passes == [f"appellseq {argv[0]}"], argv
            args = vars(parser.parse_args(cli._attach_negative_z(argv)))
            with monkeypatch.context() as patched:
                self.argparse_path(patched)
                two_pass = vars(parser.parse_args(cli._attach_negative_z(argv)))
            # nothing reads the subcommand's name back
            assert args == {k: v for k, v in two_pass.items() if k != "command"}, argv

    def test_prints_what_argparse_own_path_prints(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.ARGVS:
            got = run(capsys, *argv)
            with monkeypatch.context() as patched:
                self.argparse_path(patched)
                assert run(capsys, *argv) == got, argv

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse words its usage differently in other versions")
    def test_usage_digest(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        digest = hashlib.sha256()
        for argv in self.ARGVS:
            code, out, err = run(capsys, *argv)
            digest.update(f"{code}\0{out}\0{err}\0".encode())
        assert digest.hexdigest() == self.DIGEST


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
        assert admitted("--family", "euler", "--n", str(cli.MAX_N)) == (FamilySpec.euler(), 1)

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
        admitted("--family", "hyper-cauchy", "--m", str(2**255 - 1), "--n", "256")
        code, _, err = run(
            capsys, "compute", "--family", "hyper-cauchy", "--n", "256", "--m", str(2**255)
        )
        assert code == 2
        assert err.endswith("got 256 * (256 + 1)\n")

    def test_order_and_family_together_are_refused_before_any_work(
        self, capsys, monkeypatch, tmp_path
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before --order and the family were checked together")

        monkeypatch.setattr(cli, "family_coefficients", must_not_run)
        # each passes alone (100 * 601, 100 * 602), their sum does not
        path = tmp_path / "big.txt"
        path.write_text("1\n" + f"{2**600}\n" * 100)
        what = "the bit lengths of --order and of the family's parameters or values"
        for family, bits in (
            (("--family", "hyper-cauchy", "--m", str(2**300), "--nn", str(2**300)), 602),
            (("--family", "hyper-bernoulli", "--m", str(2**300), "--nn", str(2**300)), 602),
            (("--family", "custom", "--custom-path", str(path)), 602),
        ):
            for command in ("compute", "poly", "bench"):
                code, out, err = run(
                    capsys, command, *family, "--order", str(2**600), "--n", "100",
                )
                assert (code, out) == (2, ""), (command, family)
                assert err.splitlines() == [
                    f"error: --n times {what} must be <= {cli.MAX_ORDER_WORK}, "
                    f"got 100 * (601 + {bits})"
                ]
        # the sum at the budget is admitted, and so is r = 1 beside a family
        # that fills the budget alone
        family = ("--family", "hyper-cauchy", "--m", str(2**127 - 1), "--n", "256")
        admitted(*family, "--order", str(2**127))
        admitted("--family", "hyper-cauchy", "--m", str(2**255 - 1), "--n", "256")
        with pytest.raises(ValueError, match=r"got 256 \* \(129 \+ 128\)$"):
            admitted(*family, "--order", str(2**128))

    def test_huge_order_is_refused_before_any_work(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before --order was checked")

        monkeypatch.setattr(cli, "family_coefficients", must_not_run)
        monkeypatch.setattr(engine, "exponential_power_numerators", must_not_run)
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
        admitted("--family", "euler", "--n", "300", "--order", str(2**bits - 1))
        code, _, err = run(
            capsys, "compute", "--family", "euler", "--n", "300", "--order", str(2**bits)
        )
        assert code == 2
        assert err.endswith(f"got 300 * {bits + 1}\n")

    def test_poly_z_is_checked_before_any_work(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before --z was checked")

        monkeypatch.setattr(cli, "family_coefficients", must_not_run)
        for owner in (series, engine):
            monkeypatch.setattr(owner, "exponential_power_numerators", must_not_run)
        q = int("7" * 4000)
        for n, z, message in (
            ("200", f"1/{q}", f"--n times the bit lengths of the numerator and denominator "
             f"of --z must be <= {cli.MAX_ORDER_WORK}, got 200 * (1 + {q.bit_length()})"),
            ("1200", "abc", "not a p/q rational: 'abc'"),
            ("3", "1/0", "zero denominator in '1/0'"),
        ):
            code, out, err = run(capsys, "poly", "--family", "euler", "--n", n, "--z", z)
            assert (code, out) == (2, ""), z
            assert err.splitlines() == [f"error: {message}"]
        # the budget bounds n * (bits(p) + bits(q)): at n = 256 and q = 1,
        # |p| of 255 bits passes and one more bit does not
        for p in (2**255 - 1, -(2**255 - 1)):
            assert cli.parse_z(str(p), 256) == p
        for p in (2**255, -(2**255)):
            with pytest.raises(ValueError, match=r"got 256 \* \(256 \+ 1\)$"):
                cli.parse_z(str(p), 256)

    def test_huge_custom_values_are_refused_before_any_work(self, capsys, monkeypatch, tmp_path):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the custom values were checked")

        monkeypatch.setattr(cli, "family_coefficients", must_not_run)
        for owner in (series, engine):
            monkeypatch.setattr(owner, "exponential_power_numerators", must_not_run)
        q = int("7" * 4000)
        path = tmp_path / "big.txt"
        path.write_text("1\n" + "".join(f"{k}/{q}\n" for k in range(1, 30)))
        for command in ("compute", "poly", "bench"):
            for n in (10, 25):
                code, out, err = run(
                    capsys, command, "--family", "custom", "--custom-path", str(path),
                    "--n", str(n),
                )
                assert (code, out) == (2, ""), (command, n)
                bits = n.bit_length() + q.bit_length()
                assert err.splitlines() == [
                    f"error: --n times the largest bit length of numerator plus "
                    f"denominator of the --custom-path values d_0..d_n must be <= "
                    f"{cli.MAX_ORDER_WORK}, got {n} * {bits}"
                ]
        # the budget bounds n * max(bits(num d_k) + bits(den d_k)) over k <= n:
        # at n = 256, d_k of 255 + 1 bits passes and one more bit does not,
        # and a larger d_k past n is not read
        path.write_text("1\n" * 256 + f"{2**255 - 1}\n{2**4000}\n")
        admitted("--family", "custom", "--custom-path", str(path), "--n", "256")
        path.write_text("1\n" * 256 + f"{2**255}\n")
        code, _, err = run(
            capsys, "compute", "--family", "custom", "--custom-path", str(path), "--n", "256"
        )
        assert code == 2
        assert err.endswith("got 256 * 257\n")

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

    def test_custom_file_that_is_not_utf8_is_named(self, capsys, tmp_path):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"\xff\xfe1\n")
        code, out, err = run(
            capsys, "compute", "--family", "custom", "--custom-path", str(path), "--n", "0"
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}:1: ") and err.count("\n") == 1, err

    def test_custom_file_with_a_byte_order_mark(self, capsys, tmp_path):
        outputs = []
        for name, head in (("plain.txt", b""), ("bom.txt", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(head + b"1\n1/2\n1/3\n")
            outputs.append(run(
                capsys, "compute", "--family", "custom", "--custom-path", str(path), "--n", "2"
            ))
        assert outputs[0] == outputs[1] == (0, "0  1\n1  -1/2\n2  1/6\n", "")

    def test_custom_file_is_read_to_d_n_only(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("1\n1/2\n1/3\nnope\n")
        argv = ("compute", "--family", "custom", "--custom-path", str(path), "--format", "csv")
        code, out, err = run(capsys, *argv, "--n", "2")
        assert (code, out, err) == (0, "n,value\n0,1\n1,-1/2\n2,1/6\n", "")
        code, out, err = run(capsys, *argv, "--n", "3")
        assert (code, out) == (2, "")
        assert "long.txt:4" in err

    def test_unnormalized_custom_file(self, capsys, tmp_path):
        path = tmp_path / "head.txt"
        path.write_text("2\n1\n")
        code, _, err = run(
            capsys, "compute", "--family", "custom", "--custom-path", str(path),
            "--n", "1",
        )
        assert code == 2
        assert "d_0 must be 1" in err

    @pytest.mark.parametrize("command", ["compute", "poly"])
    def test_unnormalized_custom_file_prints_one_error_line(self, capsys, tmp_path, command):
        # NormalizationError reaches `main` as the ValueError it is
        path = tmp_path / "head.txt"
        path.write_text("1/2\n1\n")
        code, out, err = run(
            capsys, command, "--family", "custom", "--custom-path", str(path), "--n", "1",
        )
        assert (code, out, err) == (2, "", f"error: {path}: d_0 must be 1 (got 1/2)\n")

    def test_missing_custom_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "compute", "--family", "custom",
            "--custom-path", str(tmp_path / "absent.txt"), "--n", "1",
        )
        assert code == 2

    def test_refused_n_is_answered_before_the_custom_file_is_read(
        self, capsys, monkeypatch, tmp_path
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("read the custom file before --n was checked")

        monkeypatch.setattr(cli, "load_custom_family", must_not_run)
        path = tmp_path / "fam.txt"
        path.write_text("1\n1/2\n")
        too_big = str(cli.MAX_N + 1)
        for n, message in (("-1", "--n must be >= 0, got -1"),
                           (too_big, f"--n must be <= {cli.MAX_N}, got {too_big}")):
            for command in ("compute", "poly", "bench"):
                code, out, err = run(
                    capsys, command, "--family", "custom", "--custom-path", str(path),
                    "--n", n,
                )
                assert (code, out, err) == (2, "", f"error: {message}\n"), (command, n)

    def test_sizes_are_refused_before_a_missing_custom_file_is_opened(self, capsys, tmp_path):
        # README: an --n out of range is refused before the file is opened;
        # so is an --order below 1
        path = str(tmp_path / "absent.txt")
        too_big = str(cli.MAX_N + 1)
        for sizes, message in (
            (("--n", too_big), f"--n must be <= {cli.MAX_N}, got {too_big}"),
            (("--n", "-1"), "--n must be >= 0, got -1"),
            (("--n", "3", "--order", "0"), "--order must be >= 1, got 0"),
        ):
            for command in ("compute", "poly", "bench"):
                code, out, err = run(
                    capsys, command, "--family", "custom", "--custom-path", path, *sizes
                )
                assert (code, out, err) == (2, "", f"error: {message}\n"), (command, sizes)

    def test_hypergeometric_parameters_are_named_as_flags(self, capsys):
        for family, m, nn in (("hyper-cauchy", "0", "3"), ("hyper-bernoulli", "2", "-1")):
            code, out, err = run(
                capsys, "poly", "--family", family, "--m", m, "--nn", nn, "--n", "3"
            )
            assert (code, out) == (2, "")
            assert err == f"error: --family {family} needs --m >= 1 and --nn >= 1\n"

    def test_family_spec_is_the_catalogue_one(self):
        # --m and --nn reach the spec only for the hypergeometric kinds, so
        # a Bernoulli request names the same family, as a value and a key,
        # as FamilySpec.bernoulli(), whatever --m it was given
        parser = cli.build_parser()
        for argv, want in (
            (["--family", "bernoulli"], FamilySpec.bernoulli()),
            (["--family", "euler", "--m", "5", "--nn", "7"], FamilySpec.euler()),
            (["--family", "hyper-cauchy", "--m", "2", "--nn", "3"],
             FamilySpec.hyper_cauchy(2, 3)),
        ):
            spec = cli.family_from_args(parser.parse_args(["compute", *argv, "--n", "4"]))
            assert spec == want and hash(spec) == hash(want), argv

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
        assert code in (0, 2, 4), (argv, text, err.getvalue())
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1


class TestCapExit:
    def test_negative_cap_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "compute", "--family", "bernoulli", "--n", "5",
            "--check", "--cap", "-1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --cap")


class TestCompositionWorkExit:
    """`--check` stops the composition leg at MAX_COMPOSITION_WORK:
    hyper-Cauchy with M = 2^300 lifts d_1/1!..d_n/n! past the bound at
    n = 30, and the other routes still cover the full range."""

    ARGV = ("compute", "--family", "hyper-cauchy", "--m", str(2**300), "--n", "50")

    def test_check_stops_the_composition_leg_inside_the_bound(self, capsys):
        code, out, err = run(capsys, *self.ARGV, "--check", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["verified"] == {
            "input": 50,
            "identity": 50,
            "determinant:bareiss": 50,
            "composition": 29,
            "negative-power": 50,
        }

    def test_high_order_is_covered_in_full(self, capsys):
        # Euler at r = 2^1310 - 1 lifts D_r(1..n) to about 17 500 bits each,
        # past the bound from n = 15; f's own d_e/e! stay small at any r
        argv = ("compute", "--family", "euler", "--n", "50", "--order", str(2**1310 - 1))
        code, out, err = run(capsys, *argv, "--check", "--format", "json")
        assert (code, err) == (0, "")
        assert set(json.loads(out)["verified"].values()) == {50}
        production = run(capsys, *argv, "--format", "csv")
        assert production[0] == 0

    # (family flags, r, n, cap): the sizes of the benchmark's `verify` requests
    VERIFY_SIZED = (
        (("--family", "bernoulli"), 1, 40, 14),
        (("--family", "bernoulli"), 1, 36, 15),
        (("--family", "bernoulli"), 2, 36, 15),
        (("--family", "euler"), 1, 36, 15),
        (("--family", "euler"), 2, 36, 15),
        (("--family", "hyper-bernoulli", "--m", "2", "--nn", "3"), 1, 36, 15),
        (("--family", "hyper-cauchy", "--m", "2", "--nn", "3"), 1, 48, 14),
    )

    def test_verify_sized_requests_take_both_witnesses_to_the_cap(self, capsys):
        for family, r, n, cap in self.VERIFY_SIZED:
            code, out, err = run(
                capsys, "compute", *family, "--order", str(r), "--n", str(n),
                "--cap", str(cap), "--check", "--format", "json",
            )
            assert (code, err) == (0, ""), family
            verified = json.loads(out)["verified"]
            assert verified.pop("composition") == verified.pop("determinant:bareiss") == cap
            assert verified == {"input": n, "identity": n, "negative-power": n}, family


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

    def test_json_writes_z_in_lowest_terms(self, capsys):
        for z, canonical in (("2/4", "1/2"), ("+3/6", "1/2"), ("-0/7", "0"), (" 1 / 2", "1/2")):
            code, out, err = run(
                capsys, "poly", "--family", "bernoulli", "--n", "2", f"--z={z}",
                "--format", "json",
            )
            assert (code, err) == (0, ""), z
            doc = json.loads(out)
            assert doc["z"] == canonical, z
            assert doc["value"] == str(F(canonical) ** 2 - F(canonical) + F(1, 6)), z

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

    def test_csv_format_is_refused(self, capsys):
        # poly prints one list or one value, not n,value rows
        code, out, err = run(
            capsys, "poly", "--family", "bernoulli", "--n", "3", "--format", "csv"
        )
        assert (code, out) == (2, "")
        assert "argument --format: invalid choice: 'csv'" in err

    CATALOG = [
        FamilySpec.bernoulli(),
        FamilySpec.euler(),
        FamilySpec.hyper_bernoulli(1, 1),
        FamilySpec.hyper_bernoulli(2, 3),
        FamilySpec.hyper_cauchy(1, 1),
        FamilySpec.hyper_cauchy(3, 2),
    ]
    POINTS = ("0", "1", "-1/2", "7/3", "-9/4", "5", f"1/{7**20}")

    def test_matches_the_plain_fraction_oracle(self, capsys):
        for spec in self.CATALOG:
            family = ["--family", spec.kind.replace("_", "-")]
            if spec.m is not None:
                family += ["--m", str(spec.m), "--nn", str(spec.n)]
            for r in (1, 2, 3):
                a = oracles.related_numbers_by_inversion(spec, r, 30)
                for n in (0, 1, 7, 30):
                    where = (spec.label, r, n)
                    args = ["poly", *family, "--order", str(r), "--n", str(n)]
                    coeffs = [str(c) for c in oracles.appell_coefficients(a, n)]
                    code, out, err = run(capsys, *args)
                    assert (code, out, err) == (0, ", ".join(coeffs) + "\n", ""), where
                    code, out, err = run(capsys, *args, "--format", "json")
                    assert (code, err) == (0, ""), where
                    head = {"family": spec.label, "order": r, "n": n}
                    assert json.loads(out) == {**head, "coeffs": coeffs}, where
                    for z in self.POINTS:
                        value = str(oracles.appell_value(a, n, F(z)))
                        if z == "0":
                            assert value == str(a[n]), where  # A_n(0) = a_n
                        code, out, err = run(capsys, *args, f"--z={z}")
                        assert (code, out, err) == (0, value + "\n", ""), (where, z)
                        code, out, err = run(capsys, *args, f"--z={z}", "--format", "json")
                        assert (code, err) == (0, ""), (where, z)
                        assert json.loads(out) == {**head, "z": z, "value": value}, (where, z)
                    code, out, err = run(capsys, *args, "--z", "-1/2")
                    want = str(oracles.appell_value(a, n, F(-1, 2)))
                    assert (code, out, err) == (0, want + "\n", ""), where


class TestPolyOutputPin:
    """The sha256 of everything `poly` prints over a fixed grid.  Any change
    to a printed byte has to come with a new DIGEST, deliberately."""

    FAMILIES = (
        ("--family", "bernoulli"),
        ("--family", "euler"),
        ("--family", "hyper-bernoulli", "--m", "2", "--nn", "3"),
        ("--family", "hyper-cauchy", "--m", "2", "--nn", "3"),
    )
    ORDERS = ("1", "2", "3", "7")
    DEGREES = ("0", "1", "9", "24")
    POINTS = (None, "0", "1", "-1/2", "7/3", "-9/4", f"1/{7**20}")
    FORMATS = ("pretty", "json")
    DIGEST = "aa697050e367acc24f277d1d59b3620f9de41d4f9d9901b023eb7d50c40388b5"

    def test_output_digest(self, capsys):
        digest = hashlib.sha256()
        for family in self.FAMILIES:
            for r in self.ORDERS:
                for n in self.DEGREES:
                    for z in self.POINTS:
                        for fmt in self.FORMATS:
                            argv = ["poly", *family, "--order", r, "--n", n, "--format", fmt]
                            if z is not None:
                                argv.append(f"--z={z}")
                            code, out, err = run(capsys, *argv)
                            assert (code, err) == (0, ""), argv
                            digest.update(out.encode() + b"\0")
        assert digest.hexdigest() == self.DIGEST


class TestBenchOutputPin:
    """The sha256 of what `bench` prints, with its exit code, over a fixed
    grid, the `*_seconds` columns removed: the values and the peak bits of
    every kernel (DIGEST), and of its `n` and `value` columns alone
    (VALUE_DIGEST).  Any change to a pinned byte has to come with a new
    digest, deliberately."""

    FAMILIES = TestPolyOutputPin.FAMILIES
    ORDERS = ("1", "2", "3", "7")
    DIGEST = "83ad12ff42838981ffc5249db62b4809d18e1fa26a7ffccc4e95727965327377"
    VALUE_DIGEST = "4a0cf05f5a9821dc5afdbc74dd71ab79199198e9ad2e453224a0665ee6fcf296"

    def digest(self, capsys, columns):
        digest = hashlib.sha256()
        for family in self.FAMILIES:
            for r in self.ORDERS:
                code, out, err = run(capsys, "bench", *family, "--order", r, "--n", "16")
                assert err == "", (family, r)
                rows = [line.split(",") for line in out.splitlines()]
                keep = [i for i, name in enumerate(rows[0]) if columns(name)]
                text = "\n".join(",".join(row[i] for i in keep) for row in rows)
                digest.update(f"{code}\0{text}\0".encode())
        return digest.hexdigest()

    def test_output_digest(self, capsys):
        assert self.digest(capsys, lambda name: not name.endswith("_seconds")) == self.DIGEST

    def test_value_digest(self, capsys):
        # the a_n alone: the peak bits may move with the kernels' operand
        # sizes, the values may not
        assert self.digest(capsys, lambda name: name in ("n", "value")) == self.VALUE_DIGEST


class TestComputeOutputPin:
    """The sha256 of everything `compute` prints, with its exit code, over
    a fixed grid of families, orders, sizes, modes (plain or checked) and
    formats.  The checked mode prints the production table as
    `cross_verify` left it; any change to a printed byte has to come with
    a new DIGEST, deliberately."""

    FAMILIES = TestPolyOutputPin.FAMILIES
    ORDERS = ("1", "2", "3", "7")
    DEGREES = ("0", "1", "9", "24")
    MODES = ((), ("--check",))
    FORMATS = ("csv", "json", "pretty")
    DIGEST = "c39137f4c89ec3cea5b10746301fdc92192c4035a286cc51546c6f241ea83311"

    def test_output_digest(self, capsys):
        digest = hashlib.sha256()
        for family in self.FAMILIES:
            for r in self.ORDERS:
                for n in self.DEGREES:
                    for mode in self.MODES:
                        for fmt in self.FORMATS:
                            argv = ["compute", *family, "--order", r, "--n", n, *mode,
                                    "--format", fmt]
                            code, out, err = run(capsys, *argv)
                            assert err == "", argv
                            digest.update(f"{code}\0{out}\0".encode())
        assert digest.hexdigest() == self.DIGEST


class TestNoFractionOnTheRequestPath:
    """Plain `compute` and `poly` without --z run from the family's integer
    numerators to the printed digit: no Fraction is built on the way."""

    def test_plain_requests_build_no_fraction(self, capsys, monkeypatch):
        from appellseq import families

        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built on the request path")

        for module in (families, engine, cli):
            monkeypatch.setattr(module, "Fraction", refuse)
        monkeypatch.setattr(F, "__new__", refuse)
        for family in TestPolyOutputPin.FAMILIES:
            for fmt in ("csv", "json", "pretty"):
                argv = ["compute", *family, "--order", "3", "--n", "12", "--format", fmt]
                code, out, err = run(capsys, *argv)
                assert (code, err) == (0, ""), argv
            for fmt in ("json", "pretty"):
                argv = ["poly", *family, "--order", "2", "--n", "9", "--format", fmt]
                code, out, err = run(capsys, *argv)
                assert (code, err) == (0, ""), argv



class TestPlainPathReachesNoWitness:
    """Plain `compute` and `poly` print what they printed with every
    function of `witness` made to raise; `compute --check` then fails."""

    def test_witness_functions_that_raise_change_no_plain_byte(self, capsys, monkeypatch):
        family = ["--family", "hyper-cauchy", "--m", "2", "--nn", "3", "--order", "3"]
        requests = [
            *(["compute", *family, "--n", "12", "--format", fmt]
              for fmt in ("csv", "json", "pretty")),
            *(["poly", *family, "--n", "9", "--format", fmt, *z]
              for fmt in ("json", "pretty") for z in ((), ("--z", "-1/3")))
        ]
        expected = [run(capsys, *argv) for argv in requests]
        assert all(code == 0 and out for code, out, _ in expected)

        def must_not_run(*args, **kwargs):
            raise AssertionError("a plain request reached witness")

        function = type(must_not_run)
        patched = [name for name, value in vars(witness).items()
                   if isinstance(value, function) and value.__module__ == witness.__name__]
        assert {"cross_verify", "run_routes", "determinant_numerators"} <= set(patched)
        for name in patched:
            monkeypatch.setattr(witness, name, must_not_run)
        assert [run(capsys, *argv) for argv in requests] == expected
        with pytest.raises(AssertionError, match="reached witness"):
            cli.main(["compute", *family, "--n", "12", "--check"])


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
        table = library.related_numbers_negative_power(seq, self.ORDER, 4)
        poly = library.appell_polynomial(table, 4)
        with int_digit_limit(0):
            assert len(str(table.a[4].numerator)) > 4300
            return (
                [str(v) for v in table.a],
                [str(c) for c in poly.coeffs_in_z],
                str(library.polynomial_eval(poly, 1)),
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

    def test_poly_json_is_what_json_dumps_prints(self, capsys):
        # `poly --format json` writes its coefficient array itself; Euler's
        # at ORDER has values past the digit limit
        hyper = ["--family", "hyper-cauchy", "--m", "2", "--nn", "3", "--order", "3"]
        requests = [("hyper-cauchy(2,3)", 3, hyper, n) for n in (0, 1, 60)]
        requests.append(("euler", self.ORDER, ["--family", "euler", "--order", str(self.ORDER)], 4))
        longest = 0
        with int_digit_limit(4300):
            for label, r, args, n in requests:
                for z in (None, "-7/3"):
                    argv = ["poly", *args, "--n", str(n)] + ([] if z is None else [f"--z={z}"])
                    code, text, err = run(capsys, *argv)
                    assert (code, err) == (0, ""), argv
                    doc = {"family": label, "order": r, "n": n}
                    if z is None:
                        doc["coeffs"] = text.rstrip("\n").split(", ")
                        longest = max(longest, *map(len, doc["coeffs"]))
                    else:
                        doc.update(z=z, value=text.rstrip("\n"))
                    want = json.dumps(doc, indent=2) + "\n"
                    assert run(capsys, *argv, "--format", "json") == (0, want, ""), argv
        assert longest > 4300

    def test_a_failed_row_prints_no_partial_table(self, capsys, monkeypatch):
        def fail_on_the_last(num, den):
            if F(num, den) == values[-1]:
                raise ValueError("cannot format")
            return str(F(num, den))

        seq = family_coefficients(FamilySpec.euler(), 4)
        values = library.related_numbers_negative_power(seq, 1, 4).a
        monkeypatch.setattr(cli, "format_ratio", fail_on_the_last)
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
            "bareiss_seconds,bareiss_max_num_bits,value"
        )
        assert [line.split(",")[-1] for line in lines[1:]] == ["1", "-1", "5/6", "-1/2"]

    def test_disagreement_refuses_timings(self, capsys, monkeypatch):
        kernel = witness.determinant_numerators

        def corrupted(*args, **kwargs):
            signed, scales = kernel(*args, **kwargs)
            signed[2] += 1
            return signed, scales

        monkeypatch.setattr(witness, "determinant_numerators", corrupted)
        code, out, err = run(
            capsys, "bench", "--family", "bernoulli", "--order", "2", "--n", "4"
        )
        assert code == 4
        assert err.startswith("error: routes disagree first at n=2 (r=2): negative_power=")
        assert "n,negative_power_seconds" not in out

    def test_unproved_table_refuses_timings(self, capsys, monkeypatch):
        # the production table and Bareiss both read a wrong d_3 through
        # `prefix`; only the identity, on the raw P, sees it
        real = engine.CoefficientSequence.prefix

        def shifted(self, n_max=None):
            P, L = real(self, n_max)
            return [p + (k == 3) * L for k, p in enumerate(P)], L

        monkeypatch.setattr(engine.CoefficientSequence, "prefix", shifted)
        code, out, err = run(capsys, "bench", "--family", "euler", "--n", "6")
        assert (code, out) == (4, "")
        assert err.startswith("error: identity fails first at n=3 (r=1): negative_power=")

    def test_single_trivial_row(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "euler", "--n", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        cols = lines[1].split(",")
        assert cols[0] == "0"
        assert cols[-1] == "1"

    def test_large_n_is_refused_before_any_work(self, capsys, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "family_coefficients", reached)
        n = str(cli.MAX_BENCH_N + 1)
        code, out, err = run(capsys, "bench", "--family", "bernoulli", "--n", n)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: bench --n must be <= {cli.MAX_BENCH_N}, got {n}"]
        # the limit itself is admitted: the run gets as far as the family
        with pytest.raises(Reached):
            cli.main(["bench", "--family", "bernoulli", "--n", str(cli.MAX_BENCH_N)])

    # (the sum of the bits that `admit` counts, argv): each ran for 30 s
    # or more; the first is admitted with its --order or its --m and --nn
    # alone
    HEAVY = (
        (52, ["--family", "hyper-cauchy", "--m", "4096", "--nn", "4096",
              "--order", str(2**25), "--n", "100"]),
        (601, ["--family", "euler", "--order", str(2**600), "--n", "100"]),
        (603, ["--family", "hyper-cauchy", "--m", str(2**300), "--nn", str(2**300),
               "--n", "100"]),
    )

    def test_large_work_is_refused_before_any_work(self, capsys, monkeypatch, tmp_path):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "family_coefficients", reached)
        # d_1..d_20 = 2^1000 count 1001 + 1 bits: 20 * 1002 is inside the
        # one-run budget, 20^2 * (1 + 1002) is not
        path = tmp_path / "big.txt"
        path.write_text("1\n" + f"{2**1000}\n" * 20)
        custom = (1003, ["--family", "custom", "--custom-path", str(path), "--n", "20"])
        for bits, argv in (*self.HEAVY, custom):
            n = int(argv[-1])
            assert n * n * bits > cli.MAX_BENCH_WORK
            t0 = time.perf_counter()
            code, out, err = run(capsys, "bench", *argv)
            assert time.perf_counter() - t0 < 1, argv
            assert (code, out) == (2, ""), argv
            assert err.splitlines() == [
                "error: bench --n squared times the bit lengths of --order and of the "
                f"family's parameters or values must be <= {cli.MAX_BENCH_WORK}, "
                f"got {n}^2 * {bits}"
            ]
            # one run of each is admitted: the request gets as far as the family
            with pytest.raises(Reached):
                cli.main(["compute", *argv])

    def test_work_is_refused_before_n(self, capsys):
        # past both bench bounds, the MAX_BENCH_WORK line is the one printed
        code, out, err = run(
            capsys, "bench", "--family", "euler", "--order", str(2**600), "--n", "101"
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: bench --n squared times the bit lengths of --order and of the "
            f"family's parameters or values must be <= {cli.MAX_BENCH_WORK}, got 101^2 * 601"
        ]

    def test_every_bench_call_here_is_admitted(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "family_coefficients", reached)
        # the pinned grid, the argv of the other bench tests, and the
        # sizes MAX_BENCH_N was measured at (ROADMAP, "Figures behind the
        # constants"), all at their largest n:
        # each gets as far as the family
        calls = [
            [*family, "--order", r, "--n", "16"]
            for family in TestBenchOutputPin.FAMILIES for r in TestBenchOutputPin.ORDERS
        ]
        calls += [
            ["--family", "bernoulli", "--order", "2", "--n", "4"],
            ["--family", "euler", "--order", "2", "--n", "5"],
            ["--family", "bernoulli", "--n", str(cli.MAX_BENCH_N)],
            ["--family", "euler", "--order", "2", "--n", str(cli.MAX_BENCH_N)],
            ["--family", "hyper-bernoulli", "--m", "2", "--nn", "3", "--order", "13",
             "--n", str(cli.MAX_BENCH_N)],
            ["--family", "hyper-cauchy", "--m", "2", "--nn", "3", "--order", "16",
             "--n", str(cli.MAX_BENCH_N)],
        ]
        for argv in calls:
            with pytest.raises(Reached):
                cli.main(["bench", *argv])

    def test_kernel_columns_at_orders_1_and_2(self, capsys):
        # the production route and Bareiss, at every r
        for r, pairs in ((1, 2), (2, 2)):
            code, out, err = run(capsys, "bench", "--family", "euler", "--order", str(r),
                                 "--n", "5")
            assert (code, err) == (0, "")
            header, *rows = [line.split(",") for line in out.splitlines()]
            assert len(header) == 2 + 2 * pairs, r
            assert [row[0] for row in rows] == ["0", "1", "2", "3", "4", "5"]
            for row in rows:
                assert len(row) == len(header)
                assert all(float(cell) >= 0 for cell in row[1:-1]), (r, row)

    def test_each_kernel_runs_once(self, capsys, monkeypatch):
        calls = []
        for owner, name in ((engine, "power_numerators"), (engine, "negative_power_numerators"),
                            (witness, "determinant_numerators")):
            def counted(*args, kernel=getattr(owner, name), name=name, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        for r in ("1", "2"):
            calls.clear()
            code, _, err = run(capsys, "bench", "--family", "bernoulli", "--order", r, "--n", "12")
            assert (code, err) == (0, "")
            assert sorted(calls) == [
                "determinant_numerators", "negative_power_numerators", "power_numerators"
            ], r

    # (family flags, its spec, r): Euler's flat input takes the
    # difference-table kernel, the others and every D-recurrence the
    # Miller loop
    REQUESTS = (
        (["--family", "euler"], FamilySpec.euler(), 2),
        (["--family", "bernoulli"], FamilySpec.bernoulli(), 1),
        (["--family", "bernoulli"], FamilySpec.bernoulli(), 3),
        (["--family", "hyper-cauchy", "--m", "2", "--nn", "3"], FamilySpec.hyper_cauchy(2, 3), 3),
    )

    @staticmethod
    def bench_columns(capsys, family, r, n):
        code, out, err = run(capsys, "bench", *family, "--order", str(r), "--n", str(n))
        assert (code, err) == (0, "")
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert [int(row[0]) for row in rows] == list(range(n + 1))
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}

    def test_seconds_and_bits_never_fall(self, capsys):
        for family, _, r in self.REQUESTS:
            for name, column in self.bench_columns(capsys, family, r, 24).items():
                if name.endswith(("_seconds", "_max_num_bits")):
                    values = list(map(float, column))
                    assert values == sorted(values), (family, r, name)

    def test_last_bits_are_those_of_one_kernel_call(self, capsys):
        n = 24
        for family, spec, r in self.REQUESTS:
            columns = self.bench_columns(capsys, family, r, n)
            seq = family_coefficients(spec, n)
            M, Q = engine.power_numerators(seq, r, n)
            calls = {
                "negative_power": lambda stats: engine.negative_power_numerators(seq, r, n, stats),
                "bareiss": lambda stats: witness.determinant_numerators(M, Q, n, stats),
            }
            assert [name for name in columns if name.endswith("_max_num_bits")] == [
                f"{name}_max_num_bits" for name in calls
            ]
            for name, call in calls.items():
                stats = {}
                call(stats)
                assert int(columns[f"{name}_max_num_bits"][-1]) == stats["max_num_bits"], name


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
            code, _, _ = run(capsys, "compute", "--family", "bernoulli", "--n", "8", "--check")
            assert code == 0
        finally:
            tracer.uninstall()
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, attr

    def test_hooked_kernel_runs_under_bench(self, capsys, monkeypatch):
        # a span with a stats hook puts "stats" into the keywords when they
        # lack it, so `run_routes` must hand each kernel its stats by keyword
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans

        tracer = spans.Tracer(time.perf_counter)
        name = "engine.negative_power_numerators"
        kernel = tracer.span(name, engine.negative_power_numerators, stats_hook=True)
        monkeypatch.setattr(engine, "negative_power_numerators", kernel)
        code, out, err = run(
            capsys, "bench", "--family", "bernoulli", "--order", "2", "--n", "12"
        )
        assert (code, err) == (0, "")
        header, *rows = [line.split(",") for line in out.splitlines()]
        bits = int(rows[-1][header.index("negative_power_max_num_bits")])
        assert bits == tracer.peak_bits[(name, None)] > 0
        assert [span[0] for span in tracer.spans] == [name]

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
    def test_layout_names_exactly_the_modules(self):
        # the file names at the start of the src/appellseq/ lines of
        # README's "Layout" block
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        block = readme[readme.index("\n## Layout") :].split("```")[1]
        listing = block[block.index("src/appellseq/") : block.index("\ntests/")]
        documented = re.findall(r"^  (\S+\.py) ", listing, re.M)
        modules = sorted(p.name for p in (root / "src" / "appellseq").glob("*.py"))
        assert sorted(documented) == modules

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

    def test_library_example_holds(self):
        # the code block of "Library surface", run as written, gives the
        # results its comments state
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("\n## Library surface") :]
        block = section.split("```python\n")[1].split("```")[0]
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        # each commented line that assigns nothing states its own value
        checks = [
            (code, comment.strip())
            for code, _, comment in (line.partition("#") for line in block.splitlines())
            if comment and " = " not in code
        ]
        assert [comment for _, comment in checks] == [
            "Fraction(-691, 2730)", "True", "B_4(1/2) = 7/240",
        ]
        values = [eval(code, namespace) for code, _ in checks]
        assert values == [F(-691, 2730), True, F(7, 240)]
        for value, (_, comment) in zip(values, checks):
            assert comment.endswith((repr(value), str(value))), comment

    def test_command_line_examples_run(self, capsys, tmp_path):
        # each command of "Command line", run in process as written (a
        # temporary file stands in for my_family.txt), exits 0 and says
        # nothing on stderr
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("\n## Command line") :]
        block = section.split("```\n")[1]
        family = tmp_path / "my_family.txt"
        family.write_text("".join(f"1/{k + 1}\n" for k in range(9)))
        commands = [line.partition("#")[0].split() for line in block.splitlines()]
        assert commands and all(argv[0] == "appellseq" for argv in commands)
        for argv in commands:
            argv = [str(family) if a == "my_family.txt" else a for a in argv[1:]]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out, argv

    def test_every_stated_budget_is_a_cli_constant(self):
        # every number README writes with a thousands space is one of the
        # budgets, and each budget is written there
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        grouped = re.findall(r"\b\d{1,3}(?: \d{3})+\b", readme)
        stated = {int(x.replace(" ", "")) for x in grouped}
        assert stated == {cli.MAX_N, cli.MAX_ORDER_WORK, cli.MAX_COMPOSITION_WORK,
                          cli.MAX_BENCH_WORK}

    def test_route_table_is_witness_reads(self):
        # the rows of README's "reads from `engine`" table, route by route
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme[readme.index("| route | reads from `engine` |") :].split("\n\n")[0]
        documented = {
            route.strip(): tuple(re.findall(r"`([\w.]+)`", names))
            for route, names in re.findall(r"^\| (\S+) \|(.*)\|$", table, re.M)[1:]
        }
        assert documented == witness.READS
