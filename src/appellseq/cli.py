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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from . import engine, families
from .arith import (
    DEFAULT_COMPOSITION_CAP,
    MAX_COMPOSITION_WORK,
    CombinatorialBlowupError,
    format_ratio,
    format_rational,
    parse_rational,
)
from .engine import (
    NormalizationError,
    appell_polynomial,  # unused here; perfbench/spans.py wraps cli.appell_polynomial
    cross_verify,
    polynomial_eval,  # unused here; perfbench/spans.py wraps cli.polynomial_eval
)
from .families import FamilySpec, family_coefficients, load_custom_family

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4

#: Largest --n a request may ask for, refused before any work.  The cost
#: grows faster than n^2 with the digits of the values: a Bernoulli
#: `compute` takes 0.31-0.48 s at n=800 and 2.2-2.7 s at n=1600, five to
#: seven times as long per doubling (one core of a 2-vCPU Intel Xeon VM,
#: Python 3.11.7, whole process, three runs each).
MAX_N = 10_000

#: Largest `bench` --n, refused before any work.  `run_benchmark` runs
#: every kernel again at each n = 0..N, so its work grows about like N^6:
#: 0.5-1.1 s at N = 100 and 4.2-6.9 s at N = 150 (Bernoulli, Euler r = 2,
#: hyper-Bernoulli(2, 3) r = 13, hyper-Cauchy(2, 3) r = 16; same machine,
#: whole process).  An interim bound: one run per kernel would lift it.
MAX_BENCH_N = 100

#: Largest `bench` n^2 * bits, bits summing what `admit` counts (--order,
#: --m and --nn, or the largest custom value), refused before any work:
#: `bench` reruns every kernel at each n, and its cost grows faster than
#: the bits.  At N = 100 Euler --order 2^600 took 74 s and --order 2^25
#: (26 bits) 1.4 s, but hyper-Cauchy --m 2048 --nn 1024 --order 4 (26)
#: 7.1 s and --m 128 --nn 128 --order 512 (26) 11.9 s.  On this bound,
#: hyper-Cauchy with --m, --nn and an --order >= 2 all raised took
#: 0.75-3.4 s at N = 36-100 (N = 70 the slowest), Bernoulli 0.6 s at
#: N = 100 (same machine, whole process).
MAX_BENCH_WORK = 2**17

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


#: --algo -> the route whose table `compute` prints, checked or not
ROUTES = {
    "recurrence": engine.NEGATIVE_POWER,
    "determinant": engine.DETERMINANT_BAREISS,
    "composition": engine.COMPOSITION,
}


class KernelMismatchError(RuntimeError):
    """Benchmark refused to report timings because the kernels disagreed."""


@dataclass
class RunConfig:
    """Everything one CLI invocation needs.  `bits` sums the bit lengths
    that `admit` counted, for `bench`'s MAX_BENCH_WORK; with r > 1 that
    sum, too, is held to MAX_ORDER_WORK."""

    family: FamilySpec
    order: int
    n_max: int
    algorithm: str = "recurrence"
    fmt: str = "pretty"
    check: bool = False
    cap: int = DEFAULT_COMPOSITION_CAP
    bits: int = field(init=False)

    def __post_init__(self):
        n, spec = self.n_max, self.family
        order_bits, family_bits = check_sizes(self.order, n), 0
        if spec.kind in (families.HYPER_BERNOULLI, families.HYPER_CAUCHY):
            family_bits = admit(n, "the bit lengths of --m and --nn", spec.m.bit_length(),
                                spec.n.bit_length())
        if spec.kind == families.CUSTOM:
            top = max(d.numerator.bit_length() + d.denominator.bit_length()
                      for d in spec.values[: n + 1])
            family_bits = admit(n, "the largest bit length of numerator plus denominator of "
                                "the --custom-path values d_0..d_n", top)
        if self.order > 1:  # r = 1 adds no bits to the family's values
            admit(n, "the bit lengths of --order and of the family's parameters or values",
                  order_bits, family_bits)
        self.bits = order_bits + family_bits
        if self.cap < 0:
            raise ValueError(f"--cap must be >= 0, got {self.cap}")


def check_sizes(order: int, n: int) -> int:
    """Refuse --order and --n out of range or past MAX_ORDER_WORK, and
    return the bit length of --order."""
    if order < 1:
        raise ValueError(f"--order must be >= 1, got {order}")
    if n < 0:
        raise ValueError(f"--n must be >= 0, got {n}")
    if n > MAX_N:
        raise ValueError(f"--n must be <= {MAX_N}, got {n}")
    return admit(n, "the bit length of --order", order.bit_length())


def admit(n: int, what: str, *bits: int) -> int:
    """Refuse a request whose --n times the sum of `bits` passes
    MAX_ORDER_WORK, with a ValueError that says what was measured, and
    return that sum."""
    if n * sum(bits) > MAX_ORDER_WORK:
        got = bits[0] if len(bits) == 1 else f"({' + '.join(map(str, bits))})"
        raise ValueError(f"--n times {what} must be <= {MAX_ORDER_WORK}, got {n} * {got}")
    return sum(bits)


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
            f"route also stops where n times the bit length of its lifted "
            f"d_e/e! passes {MAX_COMPOSITION_WORK}"
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
    if args.family.startswith("hyper-") and min(args.m, args.nn) < 1:
        raise ValueError(f"--family {args.family} needs --m >= 1 and --nn >= 1")
    if args.family != "custom":
        return FamilySpec(args.family.replace("-", "_"), args.m, args.nn)
    if not args.custom_path:
        raise ValueError("--family custom requires --custom-path")
    return load_custom_family(args.custom_path, args.n)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    check_sizes(args.order, args.n)  # before a custom file is read
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
    route, cap, n = ROUTES[config.algorithm], config.cap, config.n_max
    if route == engine.COMPOSITION:
        # refused past --cap before the family is built; the printed table
        # must then be whole, and is refused at its work bound from d,
        # before f^r is built and before any route runs
        engine.check_composition_cap(n, cap)
        cap = None
    seq = family_coefficients(config.family, n)
    if config.check:
        report = cross_verify(seq, config.order, n, cap=cap)
    else:
        report = engine.run_routes(seq, config.order, n, (route,), cap)
    if not report.agree:
        print(f"cross-verification failed: {report.describe()}", file=sys.stderr)
        return EXIT_MISMATCH
    emit_table(report.pairs[route], config, verified=report.coverage if config.check else None)
    return EXIT_OK


def emit_table(
    pair: tuple[Sequence[int], Sequence[int]],
    config: RunConfig,
    verified: Optional[Mapping[str, int]] = None,
):
    """Print a_0..a_n from a route's (numerators, denominators); JSON also
    maps each cross-verified route to the largest n it covered, when
    `verified` is given.  Every row is formatted before any is printed.

    JSON prints what `json.dumps(doc, indent=2)` would, but only the
    header goes through `json`, whose indenting encoder is pure Python:
    each value is digits, "-" and "/", which need no escaping."""
    rows = list(map(format_ratio, *pair))
    if config.fmt == "csv":
        print("\n".join(["n,value", *(f"{n},{v}" for n, v in enumerate(rows))]))
    elif config.fmt == "json":
        doc = {"family": config.family.label, "order": config.order}
        if verified is not None:
            doc["verified"] = dict(verified)
        values = ",\n".join(
            f'    {{\n      "n": {n},\n      "value": "{v}"\n    }}' for n, v in enumerate(rows)
        )
        print(f'{json.dumps(doc, indent=2)[:-2]},\n  "values": [\n{values}\n  ]\n}}')
    else:
        width = len(str(len(rows) - 1))
        print("\n".join(f"{n:>{width}}  {v}" for n, v in enumerate(rows)))


def parse_z(text: str, n: int) -> Fraction:
    """The evaluation point p/q of `poly`, refused when n * (bits(p) +
    bits(q)) passes MAX_ORDER_WORK."""
    z = parse_rational(text)
    what = "the bit lengths of the numerator and denominator of --z"
    admit(n, what, z.numerator.bit_length(), z.denominator.bit_length())
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
        coeffs = [format_ratio(c, Q) for c in N]
        doc["coeffs"] = coeffs
        text = ", ".join(coeffs)
    else:
        H = engine.horner_numerator(N, z.numerator, z.denominator)
        value = format_ratio(H, Q * z.denominator**n)
        doc["z"] = format_rational(z)
        doc["value"] = value
        text = value
    print(json.dumps(doc, indent=2) if config.fmt == "json" else text)
    return EXIT_OK


def run_benchmark(
    spec: FamilySpec, r: int, n_max: int
) -> list[tuple[int, dict[str, tuple[float, int, str]]]]:
    """Per-n wall time and peak intermediate size of each kernel that
    `--check` runs, on its table to n: rows (n, {kernel: (seconds,
    max_num_bits, a_n in lowest terms as printed)}).

    The kernels are the production route's `negative_power_numerators`,
    Bareiss's `determinant_numerators` and, for r >= 2, the paper's D_r
    recurrence (the loop at the power -1 on n! D_r(n); at r = 1 it is the
    production loop on the same input, so it is not run).  f^r, the
    reduced D_r and the recurrence's lifted input are prepared outside
    the timers.  The kernels' a_n are compared at each n as it is timed;
    on any disagreement no timings are reported.  An n_max past
    MAX_BENCH_N is refused before any work.
    """
    if n_max > MAX_BENCH_N:
        raise ValueError(f"bench --n must be <= {MAX_BENCH_N}, got {n_max}")
    seq = family_coefficients(spec, n_max)
    M, Q = engine.power_numerators(seq, r, n_max)
    num, den = engine.reduced_power_table(M, Q)
    power = engine.CoefficientSequence(M, Q)  # k! D_r(k) = M_k / Q
    rows = []
    for n in range(n_max + 1):
        dt, bits, (A, QA) = _timed(engine.negative_power_numerators, seq, r, n)
        cells = {"negative_power": (dt, bits, format_ratio(A[n], QA))}
        dt, bits, (signed, scales) = _timed(engine.determinant_numerators, num, den, n)
        cells["bareiss"] = (dt, bits, format_ratio(signed[n], scales[n]))
        if r > 1:
            dt, bits, (A, QA) = _timed(engine.exponential_power_numerators, *power.prefix(n), -1)
            cells["recurrence"] = (dt, bits, format_ratio(A[n], QA))
        if len({value for _, _, value in cells.values()}) != 1:
            detail = ", ".join(f"{m}={v}" for m, (_, _, v) in cells.items())
            raise KernelMismatchError(
                f"kernel disagreement at n={n}: {detail}; refusing to emit timings"
            )
        rows.append((n, cells))
    return rows


def _timed(kernel: Callable, *args) -> tuple[float, int, tuple]:
    """Wall seconds and "max_num_bits" of one kernel call, and its result."""
    stats: dict[str, int] = {}
    t0 = time.perf_counter()
    result = kernel(*args, stats)
    return time.perf_counter() - t0, stats.get("max_num_bits", 0), result


def cmd_bench(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    if config.n_max**2 * config.bits > MAX_BENCH_WORK:
        raise ValueError(
            f"bench --n squared times the bit lengths of --order and of the family's "
            f"parameters or values must be <= {MAX_BENCH_WORK}, "
            f"got {config.n_max}^2 * {config.bits}"
        )
    rows = run_benchmark(config.family, config.order, config.n_max)
    header = ["n"]
    for method in rows[0][1]:  # the kernels actually run, in run order
        header += [f"{method}_seconds", f"{method}_max_num_bits"]
    lines = [",".join([*header, "value"])]
    for n, cells in rows:
        cols = [str(n)]
        for seconds, bits, _ in cells.values():
            cols += [f"{seconds:.6f}", str(bits)]
        cols.append(cells["negative_power"][2])
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
