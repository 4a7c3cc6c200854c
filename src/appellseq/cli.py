"""Command-line front end: compute tables, cross-verify, emit CSV/JSON,
and run the per-n kernel micro-benchmark.

Exit codes: 0 success, 2 usage or configuration error, 3 enumeration cap
exceeded, 4 cross-verification or kernel mismatch.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from . import determinants, engine, families
from .arith import (
    DEFAULT_COMPOSITION_CAP,
    MAX_COMPOSITION_WORK,
    CombinatorialBlowupError,
    format_rational,
    parse_rational,
)
from .engine import (
    NormalizationError,
    RelatedNumberTable,
    appell_polynomial,  # unused here; perfbench/spans.py wraps cli.appell_polynomial
    cross_verify,
    polynomial_eval,  # unused here; perfbench/spans.py wraps cli.polynomial_eval
    recurrence_values,
)
from .families import FamilySpec, family_coefficients, load_custom_family

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4

#: Largest --n a request may ask for, refused before any work.  The cost
#: grows faster than n^2 with the digits of the values: a Bernoulli
#: `compute` takes about 1.9 s at n=800 and 22 s at n=1600, more than ten
#: times as long per doubling (one core of a 2-vCPU Xeon VM, Python 3.11).
MAX_N = 10_000

#: Largest n * bit_length(r), refused before any work: r adds about
#: n * bits(r) bits to each value.  Euler `compute` takes 0.2 / 2.5 s at
#: n = 25 / 400 with n * bits(r) near 2^16, and 1.0 / 23 s near 2^18.
#: The same budget bounds n * (bits(M) + bits(N)) of the hypergeometric
#: kinds, whose d_n carry about that many bits, and n * (bits(p) + bits(q))
#: of a `poly --z p/q`, whose Horner sum carries about that many, and
#: n * (bits(numerator) + bits(denominator)) of the largest custom-file d_k,
#: k <= n: a 400-line file of 4000-digit values took 7.5 / 75 / 163 s at
#: n = 10 / 20 / 25.
MAX_ORDER_WORK = 2**16


#: --algo -> (the cross_verify table it prints under --check, the route
#: that computes that table alone from a sequence and a RunConfig)
ROUTES = {
    "recurrence": (
        engine.NEGATIVE_POWER,
        lambda seq, c: engine.related_numbers_negative_power(seq, c.order, c.n_max),
    ),
    "determinant": (
        engine.DETERMINANT_BAREISS,
        lambda seq, c: engine.related_numbers_determinant(seq, c.order, c.n_max),
    ),
    "composition": (
        engine.COMPOSITION,
        lambda seq, c: engine.related_numbers_composition(seq, c.order, c.n_max, cap=c.cap),
    ),
}


class KernelMismatchError(RuntimeError):
    """Benchmark refused to report timings because the kernels disagreed."""


@dataclass
class RunConfig:
    """Everything one CLI invocation needs."""

    family: FamilySpec
    order: int
    n_max: int
    algorithm: str = "recurrence"
    fmt: str = "pretty"
    check: bool = False
    cap: int = DEFAULT_COMPOSITION_CAP

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"--order must be >= 1, got {self.order}")
        if self.n_max < 0:
            raise ValueError(f"--n must be >= 0, got {self.n_max}")
        if self.n_max > MAX_N:
            raise ValueError(f"--n must be <= {MAX_N}, got {self.n_max}")
        bits = self.order.bit_length()
        if self.n_max * bits > MAX_ORDER_WORK:
            raise ValueError(
                f"--n times the bit length of --order must be <= {MAX_ORDER_WORK}, "
                f"got {self.n_max} * {bits}"
            )
        if self.family.kind in (families.HYPER_BERNOULLI, families.HYPER_CAUCHY):
            m_bits, nn_bits = self.family.m.bit_length(), self.family.n.bit_length()
            if self.n_max * (m_bits + nn_bits) > MAX_ORDER_WORK:
                raise ValueError(
                    f"--n times the bit lengths of --m and --nn must be <= "
                    f"{MAX_ORDER_WORK}, got {self.n_max} * ({m_bits} + {nn_bits})"
                )
        if self.family.kind == families.CUSTOM:
            bits = max(
                d.numerator.bit_length() + d.denominator.bit_length()
                for d in self.family.values[: self.n_max + 1]
            )
            if self.n_max * bits > MAX_ORDER_WORK:
                raise ValueError(
                    f"--n times the largest bit length of numerator plus denominator "
                    f"of the --custom-path values d_0..d_n must be <= {MAX_ORDER_WORK}, "
                    f"got {self.n_max} * {bits}"
                )
        if self.cap < 0:
            raise ValueError(f"--cap must be >= 0, got {self.cap}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="appellseq",
        description=(
            "Exact related numbers a_n^(r) and polynomials A_n^(r)(z) of "
            "higher-order Appell sequences (Bernoulli, Euler, hypergeometric "
            "Bernoulli and Cauchy)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument(
            "--family",
            required=True,
            choices=["bernoulli", "euler", "hyper-bernoulli", "hyper-cauchy", "custom"],
        )
        p.add_argument("--m", type=int, default=1, help="family parameter M (default 1)")
        p.add_argument("--nn", type=int, default=1, help="family parameter N (default 1)")
        p.add_argument("--order", type=int, default=1, help="order r (default 1)")
        p.add_argument("--n", type=int, required=True, help="compute n = 0..N")
        p.add_argument("--custom-path", help="coefficient file for --family custom")

    p_compute = sub.add_parser("compute", help="tabulate a_n^(r) for n = 0..N")
    add_common(p_compute)
    p_compute.add_argument(
        "--algo",
        choices=list(ROUTES),
        default="recurrence",
        help=(
            "recurrence (default): the production route, Miller's recurrence "
            "on f^(-r); the paper's recurrence over D_r = f^r is a --check "
            "witness"
        ),
    )
    p_compute.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_COMPOSITION_CAP,
        help=(
            f"composition enumeration cap (default {DEFAULT_COMPOSITION_CAP}); the "
            f"route also stops where n times the bit length of its lifted D_r "
            f"passes {MAX_COMPOSITION_WORK}"
        ),
    )
    p_compute.add_argument(
        "--format", dest="fmt", choices=["csv", "json", "pretty"], default="pretty"
    )
    p_compute.add_argument(
        "--check",
        action="store_true",
        help="cross-verify all algorithms and fail on any disagreement",
    )
    p_compute.set_defaults(func=cmd_compute)

    p_poly = sub.add_parser(
        "poly", help="coefficients of A_n^(r)(z), or its exact value at --z"
    )
    add_common(p_poly)
    p_poly.add_argument("--z", help="evaluation point as p/q (omit to print coefficients)")
    p_poly.add_argument("--format", dest="fmt", choices=["json", "pretty"], default="pretty")
    p_poly.set_defaults(func=cmd_poly)

    p_bench = sub.add_parser(
        "bench", help="time the production route, Bareiss and (r >= 2) the D_r recurrence per n"
    )
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def family_from_args(args: argparse.Namespace) -> FamilySpec:
    name = args.family
    if name == "bernoulli":
        return FamilySpec.bernoulli()
    if name == "euler":
        return FamilySpec.euler()
    if name == "hyper-bernoulli":
        return FamilySpec.hyper_bernoulli(args.m, args.nn)
    if name == "hyper-cauchy":
        return FamilySpec.hyper_cauchy(args.m, args.nn)
    if not args.custom_path:
        raise ValueError("--family custom requires --custom-path")
    return load_custom_family(args.custom_path)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        family=family_from_args(args),
        order=args.order,
        n_max=args.n,
        algorithm=getattr(args, "algo", "recurrence"),
        fmt=getattr(args, "fmt", "pretty"),
        check=getattr(args, "check", False),
        cap=getattr(args, "cap", DEFAULT_COMPOSITION_CAP),
    )


def cmd_compute(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    if config.algorithm == "composition":
        # before the family or any route is computed
        engine.check_composition_cap(config.n_max, config.cap)
    seq = family_coefficients(config.family, config.n_max)
    route, compute_alone = ROUTES[config.algorithm]
    if config.check:
        report = cross_verify(seq, config.order, config.n_max, cap=config.cap)
        if not report.agree:
            print(f"cross-verification failed: {report.describe()}", file=sys.stderr)
            return EXIT_MISMATCH
        # only the composition leg can stop short: at its work bound
        engine.check_composition_reach(config.n_max, report.coverage[route])
        table = RelatedNumberTable(r=config.order, a=report.table(route), algorithm=route)
        emit_table(table, config, verified=report.coverage)
        return EXIT_OK
    emit_table(compute_alone(seq, config), config)
    return EXIT_OK


def emit_table(
    table: RelatedNumberTable,
    config: RunConfig,
    verified: Optional[Mapping[str, int]] = None,
):
    """Print the table; JSON also maps each cross-verified route to the
    largest n it covered, when `verified` is given.  Every row is
    formatted before any is printed."""
    values = [format_rational(v) for v in table.a]
    if config.fmt == "csv":
        print("\n".join(["n,value", *(f"{n},{v}" for n, v in enumerate(values))]))
    elif config.fmt == "json":
        doc = {"family": config.family.label, "order": table.r}
        if verified is not None:
            doc["verified"] = dict(verified)
        doc["values"] = [{"n": n, "value": v} for n, v in enumerate(values)]
        print(json.dumps(doc, indent=2))
    else:
        width = len(str(table.n_max))
        print("\n".join(f"{n:>{width}}  {v}" for n, v in enumerate(values)))


def parse_z(text: str, n: int) -> Fraction:
    """The evaluation point p/q of `poly`, refused when n * (bits(p) +
    bits(q)) passes MAX_ORDER_WORK."""
    z = parse_rational(text)
    p_bits, q_bits = z.numerator.bit_length(), z.denominator.bit_length()
    if n * (p_bits + q_bits) > MAX_ORDER_WORK:
        raise ValueError(
            f"--n times the bit lengths of the numerator and denominator of --z "
            f"must be <= {MAX_ORDER_WORK}, got {n} * ({p_bits} + {q_bits})"
        )
    return z


def cmd_poly(args: argparse.Namespace) -> int:
    """Coefficients of A_n^(r)(z), or its value at --z, from the integer
    numerators M over Q of f^(-r): coefficient j is C(n, j) M_{n-j} / Q,
    and every printed number is reduced once, as it is formatted."""
    config = config_from_args(args)
    n = config.n_max
    z = None if args.z is None else parse_z(args.z, n)
    seq = family_coefficients(config.family, n)
    M, Q = engine.negative_power_numerators(seq, config.order, n)
    N = engine.appell_numerators(M, n)
    doc = {"family": config.family.label, "order": config.order, "n": n}
    if z is None:
        coeffs = [format_rational(Fraction(c, Q)) for c in N]
        doc["coeffs"] = coeffs
        text = ", ".join(coeffs)
    else:
        H = engine.horner_numerator(N, z.numerator, z.denominator)
        value = format_rational(Fraction(H, Q * z.denominator**n))
        doc["z"] = args.z
        doc["value"] = value
        text = value
    print(json.dumps(doc, indent=2) if config.fmt == "json" else text)
    return EXIT_OK


@dataclass
class BenchCell:
    seconds: float
    max_num_bits: int
    value: Fraction


@dataclass
class BenchRow:
    n: int
    cells: dict[str, BenchCell]


def run_benchmark(spec: FamilySpec, r: int, n_max: int) -> list[BenchRow]:
    """Per-n wall time and peak intermediate size for every kernel.

    The production route (Miller's loop on f^(-r)), Bareiss and, for
    r >= 2, the paper's D_r recurrence are different computations; at
    r = 1 that recurrence is the production route's own loop on the same
    input, so it is not run.  The shared D table is prepared outside the
    timers, so the D-based cells measure determinant (or recurrence)
    evaluation only.  All methods must produce identical values;
    otherwise no timings are reported.
    """
    seq = family_coefficients(spec, n_max)
    D = engine.compute_D(seq, r, n_max).D
    fact = 1
    rows = []
    for n in range(n_max + 1):
        if n:
            fact *= n
        cells: dict[str, BenchCell] = {}

        stats: dict[str, int] = {}
        t0 = time.perf_counter()
        a = engine.related_numbers_negative_power(seq, r, n, stats=stats).a
        dt = time.perf_counter() - t0
        cells["negative_power"] = BenchCell(dt, stats.get("max_num_bits", 0), a[n])

        stats = {}
        t0 = time.perf_counter()
        det = determinants.bareiss_det(D, n, stats=stats)
        dt = time.perf_counter() - t0
        value = fact * det if n % 2 == 0 else -fact * det
        cells["bareiss"] = BenchCell(dt, stats.get("max_num_bits", 0), value)

        if r > 1:
            stats = {}
            t0 = time.perf_counter()
            a = recurrence_values(D, n, stats=stats)
            dt = time.perf_counter() - t0
            cells["recurrence"] = BenchCell(dt, stats.get("max_num_bits", 0), a[n])

        rows.append(BenchRow(n=n, cells=cells))

    for row in rows:
        values = {m: c.value for m, c in row.cells.items()}
        if len(set(values.values())) != 1:
            detail = ", ".join(f"{m}={format_rational(v)}" for m, v in values.items())
            raise KernelMismatchError(
                f"kernel disagreement at n={row.n}: {detail}; refusing to emit timings"
            )
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    rows = run_benchmark(config.family, config.order, config.n_max)
    methods = list(rows[0].cells)  # the kernels actually run, in run order
    header = ["n"]
    for method in methods:
        header += [f"{method}_seconds", f"{method}_max_num_bits"]
    header.append("value")
    lines = [",".join(header)]
    for row in rows:
        cols = [str(row.n)]
        for method in methods:
            cell = row.cells[method]
            cols += [f"{cell.seconds:.6f}", str(cell.max_num_bits)]
        cols.append(format_rational(row.cells["negative_power"].value))
        lines.append(",".join(cols))
    print("\n".join(lines))
    return EXIT_OK


def _attach_negative_z(argv: Sequence[str]) -> list[str]:
    """Rewrite `--z -1/2` as `--z=-1/2`.

    argparse reads a token that starts with "-" as an option unless it is
    a plain negative number, so a negative p/q after a space would leave
    --z without its value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--z" and re.match(r"-\d", arg):
            out[-1] = f"--z={arg}"
        else:
            out.append(arg)
    return out


# (builder, parser): the parser `main` reuses and the function that built it
_parser_cache: Optional[tuple[Callable, argparse.ArgumentParser]] = None


def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on first use and again only when
    `build_parser` has been replaced since (a tracer may wrap it)."""
    global _parser_cache
    if _parser_cache is None or _parser_cache[0] is not build_parser:
        _parser_cache = (build_parser, build_parser())
    return _parser_cache[1]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(
            _attach_negative_z(sys.argv[1:] if argv is None else argv)
        )
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except CombinatorialBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except KernelMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (NormalizationError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
