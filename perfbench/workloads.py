"""Request lists for the appellseq benchmark, generated from a seed.

A workload is a fixed multiset of requests.  The seed only decides what
does not change the amount of work much: the order of the requests, the
output format of each one and, in `poly`, the evaluation points z.  The
sizes (n, r, family, --cap) are fixed, so the mix behind every median is
the same whatever the seed.

The program receives only the argv lists; the other fields of `Request`
tell the checker what the output must be.

Print the request list of one pass:

    python3 perfbench/workloads.py --workload poly --seed 7
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# Faults kept in every `poly` pass until the program is fixed.  Both
# inputs are fixed, so every pass fails them in the same way.
FAULT_ZERO_DENOMINATOR = "zero-denominator-traceback"
FAULT_NEGATIVE_Z = "negative-z-read-as-option"


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what its output must satisfy."""

    argv: tuple[str, ...]
    family: str
    m: int
    nn: int
    r: int
    n: int
    kind: str  # "table", "value" or "coeffs"
    fmt: str
    z: Optional[Fraction] = None
    expect_usage_error: bool = False
    fault: Optional[str] = None  # the kept fault this request runs into


def _family_args(family: str, m: int, nn: int) -> list[str]:
    args = ["--family", family]
    if family.startswith("hyper-"):
        args += ["--m", str(m), "--nn", str(nn)]
    return args


def compute_request(family, m, nn, r, n, fmt, cap=None) -> Request:
    argv = ["compute", *_family_args(family, m, nn), "--order", str(r), "--n", str(n)]
    if cap is not None:
        argv += ["--check", "--cap", str(cap)]
    argv += ["--format", fmt]
    return Request(tuple(argv), family, m, nn, r, n, "table", fmt)


def poly_request(family, m, nn, r, n, fmt, z=None, z_argv=None, **extra) -> Request:
    argv = ["poly", *_family_args(family, m, nn), "--order", str(r), "--n", str(n)]
    if z is not None and z_argv is None:
        # A negative value would be read as an option after a space.
        z_argv = [f"--z={z}"] if z < 0 else ["--z", str(z)]
    argv += z_argv or []
    argv += ["--format", fmt]
    kind = "coeffs" if z_argv is None else "value"
    return Request(tuple(argv), family, m, nn, r, n, kind, fmt, z, **extra)


# (family, M, N, r, n): the production path on large tables at r <= 2.
TABLE = [
    ("bernoulli", 1, 1, 1, 400),
    ("bernoulli", 1, 1, 2, 280),
    ("euler", 1, 1, 1, 360),
    ("euler", 1, 1, 2, 280),
    ("hyper-bernoulli", 2, 3, 1, 230),
    ("hyper-bernoulli", 2, 3, 2, 200),
    ("hyper-cauchy", 2, 3, 1, 220),
    ("hyper-cauchy", 2, 3, 2, 210),
]

# (family, M, N, r, n): high orders, where D_r and the family
# coefficients take more than half of the time.
ORDER = [
    ("hyper-cauchy", 2, 3, 16, 200),
    ("hyper-cauchy", 2, 3, 7, 200),
    ("hyper-cauchy", 1, 1, 12, 180),
    ("hyper-cauchy", 3, 2, 4, 200),
    ("hyper-bernoulli", 1, 2, 3, 200),
    ("hyper-bernoulli", 2, 3, 5, 200),
    ("hyper-bernoulli", 3, 1, 9, 180),
    ("hyper-bernoulli", 2, 2, 13, 180),
]

# (family, M, N, r, n, cap): --check with --cap below n, sized so that
# the composition route and the Bareiss kernel share the time, about
# 40 % and 60 %.
VERIFY = [
    ("bernoulli", 1, 1, 1, 40, 14),
    ("bernoulli", 1, 1, 1, 36, 15),
    ("bernoulli", 1, 1, 2, 36, 15),
    ("euler", 1, 1, 1, 36, 15),
    ("euler", 1, 1, 2, 36, 15),
    ("hyper-bernoulli", 2, 3, 1, 36, 15),
    ("hyper-cauchy", 2, 3, 1, 48, 14),
]

POLY_FAMILIES = [
    ("bernoulli", 1, 1),
    ("euler", 1, 1),
    ("hyper-bernoulli", 2, 3),
    ("hyper-cauchy", 2, 3),
]
POLY_ORDERS = (1, 2, 3)
POLY_DEGREES = tuple(range(10, 61, 5))

# Reference seconds (see speed.py) one pass takes on the machine the
# README describes.  The number of passes in a run is fixed from
# --seconds and these, so every run of a workload does the same work
# however fast the machine is at the time.
NOMINAL_PASS_S = {"table": 9.5, "order": 12.9, "verify": 10.3, "poly": 5.1}

WORKLOADS = tuple(NOMINAL_PASS_S)


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def _random_z(rng: random.Random) -> Fraction:
    while True:
        z = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if z:
            return z


def build(workload: str, seed: int) -> list[Request]:
    """The request list of one pass of `workload`, fixed by `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table":
        reqs = [compute_request(f, m, nn, r, n, rng.choice(("csv", "json"))) for f, m, nn, r, n in TABLE]
    elif workload == "order":
        reqs = [compute_request(f, m, nn, r, n, rng.choice(("csv", "json"))) for f, m, nn, r, n in ORDER]
    elif workload == "verify":
        reqs = [
            compute_request(f, m, nn, r, n, rng.choice(("pretty", "csv", "json")), cap)
            for f, m, nn, r, n, cap in VERIFY
        ]
    elif workload == "poly":
        reqs = []
        for f, m, nn in POLY_FAMILIES:
            for r in POLY_ORDERS:
                for n in POLY_DEGREES:
                    fmt = rng.choice(("pretty", "json"))
                    reqs.append(poly_request(f, m, nn, r, n, fmt, _random_z(rng)))
                    reqs.append(poly_request(f, m, nn, r, n, rng.choice(("pretty", "json"))))
        reqs.append(poly_request("bernoulli", 1, 1, 1, 3, "pretty", z_argv=["--z", "1/0"],
                          expect_usage_error=True, fault=FAULT_ZERO_DENOMINATOR))
        reqs.append(poly_request("bernoulli", 1, 1, 1, 4, "pretty", Fraction(-1, 2),
                          z_argv=["--z", "-1/2"], fault=FAULT_NEGATIVE_Z))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(reqs)
    return reqs


def main() -> None:
    parser = argparse.ArgumentParser(description="Print one pass of a workload's request list.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for req in build(args.workload, args.seed):
        print(" ".join(req.argv))


if __name__ == "__main__":
    main()
