"""Command-line front end: compute tables, cross-verify, emit CSV/JSON,
and run the per-n kernel micro-benchmark.

`compute` and `poly` print the production route's table; `compute
--check` first verifies it against every witness.  Exit codes: 0 success,
2 usage or configuration error, 4 cross-verification or kernel mismatch.
Importing this module loads the request path alone: `witness` is
imported when `compute --check` or `bench` runs, and `library` never.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import engine, families
from .arith import (
    DEFAULT_COMPOSITION_CAP,
    MAX_COMPOSITION_WORK,
    format_ratio,
    format_rational,
    parse_rational,
)
from .families import FamilySpec, family_coefficients, load_custom_family

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 4

#: Largest --n a request may ask for, refused before any work: the cost
#: grows faster than n^2 with the digits of the values.
MAX_N = 10_000

#: Largest `bench` --n, refused before any work; an interim bound, until
#: one from the bit-growth cost model replaces it.
MAX_BENCH_N = 100

#: Largest `bench` n^2 * bits, bits summing what `admit` counts (--order,
#: --m and --nn, or the largest custom value), refused before any work:
#: `bench` runs every kernel at each n, so it takes more than one run needs.
MAX_BENCH_WORK = 2**17

#: Largest n * bit_length(r), refused before any work: r adds about
#: n * bits(r) bits to each value.  The same budget bounds
#: n * (bits(M) + bits(N)) of the hypergeometric kinds, whose d_n carry
#: about that many bits, and n * (bits(p) + bits(q)) of a `poly --z p/q`,
#: whose Horner sum carries about that many, and
#: n * (bits(numerator) + bits(denominator)) of the largest custom-file d_k,
#: k <= n.
MAX_ORDER_WORK = 2**16


def admit(n: int, what: str, *bits: int) -> int:
    """Refuse a request whose --n times the sum of `bits` passes
    MAX_ORDER_WORK, with a ValueError that says what was measured, and
    return that sum."""
    if n * sum(bits) > MAX_ORDER_WORK:
        got = bits[0] if len(bits) == 1 else f"({' + '.join(map(str, bits))})"
        raise ValueError(f"--n times {what} must be <= {MAX_ORDER_WORK}, got {n} * {got}")
    return sum(bits)


class _Parser(argparse.ArgumentParser):
    """A top-level parser that parses a subcommand's argv once."""

    commands: Mapping[str, argparse.ArgumentParser]  # set by build_parser

    def parse_known_args(self, args=None, namespace=None):
        if args and args[0] in self.commands:
            return self.commands[args[0]].parse_known_args(args[1:], namespace)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser.  When argv[0] names a subcommand, its parser alone
    reads argv[1:], one pass over the tokens; argparse's own path would
    classify every token at the top level first and then parse them all
    again.  It prints, and exits with, what that path would, but leaves
    no `command` in the namespace.  No argv, `-h` and an unknown command
    still take argparse's own path."""
    parser = _Parser(
        prog="appellseq",
        description=(
            "Exact related numbers a_n^(r) and polynomials A_n^(r)(z) of "
            "higher-order Appell sequences (Bernoulli, Euler, hypergeometric "
            "Bernoulli and Cauchy)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)
    parser.commands = sub.choices

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
        "--cap",
        type=int,
        default=DEFAULT_COMPOSITION_CAP,
        help=(
            f"how far --check takes both witnesses, Bareiss and the composition "
            f"sum (default {DEFAULT_COMPOSITION_CAP}); the composition sum also "
            f"stops where n times the bit length of its lifted d_e/e! passes "
            f"{MAX_COMPOSITION_WORK}"
        ),
    )
    p_compute.add_argument(
        "--format", dest="fmt", choices=["csv", "json", "pretty"], default="pretty"
    )
    p_compute.add_argument(
        "--check",
        action="store_true",
        help="prove the table by its defining identity, cross-verify it with the "
        "witnesses and fail on any disagreement",
    )
    p_compute.set_defaults(func=cmd_compute)

    p_poly = sub.add_parser(
        "poly", help="coefficients of A_n^(r)(z), or its exact value at --z"
    )
    add_common(p_poly)
    p_poly.add_argument("--z", help="evaluation point as p/q (omit to print coefficients)")
    p_poly.add_argument("--format", dest="fmt", choices=["json", "pretty"], default="pretty")
    p_poly.set_defaults(func=cmd_poly)

    p_bench = sub.add_parser("bench", help="time the production route and Bareiss in one run "
                             "to N, with a row at each n")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def family_from_args(args: argparse.Namespace) -> FamilySpec:
    if args.family.startswith("hyper-"):
        if min(args.m, args.nn) < 1:
            raise ValueError(f"--family {args.family} needs --m >= 1 and --nn >= 1")
        return FamilySpec(args.family.replace("-", "_"), args.m, args.nn)
    if args.family != "custom":
        return FamilySpec(args.family)
    if not args.custom_path:
        raise ValueError("--family custom requires --custom-path")
    return load_custom_family(args.custom_path, args.n)


def config_from_args(args: argparse.Namespace) -> tuple[FamilySpec, int]:
    """Admit every size of a request, in the order it is refused, and
    return its family and the sum of the bit lengths `admit` counted
    (--order's, and --m's and --nn's or the largest custom value's);
    with r > 1 that sum, too, is held to MAX_ORDER_WORK.  --order and
    --n are checked before a custom file is opened."""
    order, n = args.order, args.n
    if order < 1:
        raise ValueError(f"--order must be >= 1, got {order}")
    if n < 0:
        raise ValueError(f"--n must be >= 0, got {n}")
    if n > MAX_N:
        raise ValueError(f"--n must be <= {MAX_N}, got {n}")
    order_bits = admit(n, "the bit length of --order", order.bit_length())
    family, family_bits = family_from_args(args), 0
    if family.m is not None:  # a hypergeometric kind
        family_bits = admit(n, "the bit lengths of --m and --nn", family.m.bit_length(),
                            family.n.bit_length())
    elif family.kind == families.CUSTOM:  # read to d_n only
        top = max(d.numerator.bit_length() + d.denominator.bit_length() for d in family.values)
        family_bits = admit(n, "the largest bit length of numerator plus denominator of "
                            "the --custom-path values d_0..d_n", top)
    if order > 1:  # r = 1 adds no bits to the family's values
        admit(n, "the bit lengths of --order and of the family's parameters or values",
              order_bits, family_bits)
    if getattr(args, "cap", 0) < 0:
        raise ValueError(f"--cap must be >= 0, got {args.cap}")
    return family, order_bits + family_bits


def cross_verify(seq, r, n_max=None, cap=DEFAULT_COMPOSITION_CAP, family=None):
    """`witness.cross_verify`, `witness` imported on first use: the name
    that perfbench/spans.py wraps and `cmd_compute` calls; tracer glue
    that ROADMAP item 1 deletes."""
    from . import witness

    return witness.cross_verify(seq, r, n_max, cap, family=family)


def __getattr__(name: str):
    """`cli.appell_polynomial` and `cli.polynomial_eval`, which
    perfbench/spans.py wraps, from `library` on first use; tracer glue
    that ROADMAP item 1 deletes."""
    if name in ("appell_polynomial", "polynomial_eval"):
        from . import library

        return getattr(library, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_compute(args: argparse.Namespace) -> int:
    family, _ = config_from_args(args)
    seq = family_coefficients(family, args.n)
    if args.check:
        report = cross_verify(seq, args.order, args.n, cap=args.cap, family=family)
        if not report.agree:
            print(f"cross-verification failed: {report.describe()}", file=sys.stderr)
            return EXIT_MISMATCH
        emit_table(report.pairs[engine.NEGATIVE_POWER], args, family.label, report.coverage)
    else:
        M, Q = engine.negative_power_numerators(seq, args.order, args.n)
        emit_table((M, repeat(Q)), args, family.label)
    return EXIT_OK


def emit_table(
    pair: tuple[Iterable[int], Iterable[int]],
    args: argparse.Namespace,
    label: str,
    verified: Optional[Mapping[str, int]] = None,
):
    """Print a_0..a_n from a route's (numerators, denominators) in
    `args.fmt`; JSON also maps each cross-verified route to the largest n
    it covered, when `verified` is given.  Every row is formatted before
    any is printed."""
    rows = list(map(format_ratio, *pair))
    if args.fmt == "csv":
        print("\n".join(["n,value", *(f"{n},{v}" for n, v in enumerate(rows))]))
    elif args.fmt == "json":
        doc = {"family": label, "order": args.order}
        if verified is not None:
            doc["verified"] = dict(verified)
        print(json_with_list(doc, "values", (
            f'{{\n      "n": {n},\n      "value": "{v}"\n    }}' for n, v in enumerate(rows)
        )))
    else:
        width = len(str(len(rows) - 1))
        print("\n".join(f"{n:>{width}}  {v}" for n, v in enumerate(rows)))


def json_with_list(doc: dict, key: str, items: Iterable[str]) -> str:
    """`json.dumps({**doc, key: [...]}, indent=2)` for a non-empty doc and
    list, the list given as the JSON text of its items, each indented as
    the list's item.  Only doc goes through `json`, whose indenting
    encoder is pure Python: each value printed here is digits, "-" and
    "/", which need no escaping."""
    head = json.dumps(doc, indent=2)[:-2]
    return f'{head},\n  "{key}": [\n    ' + ",\n    ".join(items) + "\n  ]\n}"


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
    family, _ = config_from_args(args)
    n = args.n
    z = None if args.z is None else parse_z(args.z, n)
    seq = family_coefficients(family, n)
    M, Q = engine.negative_power_numerators(seq, args.order, n)
    N = engine.appell_numerators(M, n)
    doc = {"family": family.label, "order": args.order, "n": n}
    if z is None:
        coeffs = [format_ratio(c, Q) for c in N]
        if args.fmt == "json":
            print(json_with_list(doc, "coeffs", (f'"{c}"' for c in coeffs)))
        else:
            print(", ".join(coeffs))
        return EXIT_OK
    H = engine.horner_numerator(N, z.numerator, z.denominator)
    value = format_ratio(H, Q * z.denominator**n)
    doc["z"] = format_rational(z)
    doc["value"] = value
    print(json.dumps(doc, indent=2) if args.fmt == "json" else value)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    """`witness.bench_table` to --n, its CSV on stdout or its error line on
    stderr.  Past MAX_BENCH_WORK, and then past MAX_BENCH_N, a request is
    refused before any work."""
    from . import witness

    family, bits = config_from_args(args)
    n_max, r = args.n, args.order
    if n_max**2 * bits > MAX_BENCH_WORK:
        raise ValueError(
            f"bench --n squared times the bit lengths of --order and of the family's "
            f"parameters or values must be <= {MAX_BENCH_WORK}, got {n_max}^2 * {bits}"
        )
    if n_max > MAX_BENCH_N:
        raise ValueError(f"bench --n must be <= {MAX_BENCH_N}, got {n_max}")
    agree, text = witness.bench_table(family_coefficients(family, n_max), r, n_max)
    print(text, file=sys.stdout if agree else sys.stderr)
    return EXIT_OK if agree else EXIT_MISMATCH


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
    except (ValueError, ZeroDivisionError, OSError) as exc:  # NormalizationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
