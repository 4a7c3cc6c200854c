#!/usr/bin/env python3
"""Time the crossover behind `appellseq.series.TANGENT_MAX`, in process.

TANGENT_MAX is the largest s at which Bernoulli's and Euler's f^(-s)
take `_tangent` (order 1 from the tangent numbers, then s - 1 raises)
in place of the flat difference table `_seidel`, which serves every
other order.  For each kind, n and s = 1..--orders, the script builds
the flat input d_0..d_n, times `_seidel` and `_tangent` on it
alternating, and keeps the best of --k runs of each.  One row per input
gives both times and their ratio, the table's time over `_tangent`'s,
so above 1 means `_tangent` is faster.  One row per s then gives the
least and the median ratio over the inputs.  The last line is the
largest s up to which every input wins by MARGIN (every ratio at it
and below is at least MARGIN) beside the constant; the script exits 1
when they differ.

    PYTHONPATH=src python3 scripts/gates.py
    PYTHONPATH=src python3 scripts/gates.py --kinds euler --sizes 40 --orders 12 --k 15
"""

import argparse
import math
import statistics
import sys
import time

from appellseq.families import FamilySpec, family_coefficients
from appellseq.series import TANGENT_MAX, _seidel, _tangent

KINDS = {"bernoulli": (FamilySpec.bernoulli(), 1), "euler": (FamilySpec.euler(), 0)}
#: The least ratio that counts as a win: on the 40-term prefixes each
#: kernel takes about 0.05 ms, and their ratio moves by up to 0.03
#: between runs
MARGIN = 1.05


def times(kind: str, n: int, s: int, k: int) -> tuple[float, float]:
    """Best of k seconds of `_seidel` and of `_tangent` on kind's d_0..d_n
    at r = -s, the two run alternating."""
    spec, m = KINDS[kind]
    P, L = family_coefficients(spec, n).prefix()
    runs = [lambda: _seidel(L, [P[n] * math.comb(n + m, m)], n, -s, m), lambda: _tangent(n, s, m)]
    best = [math.inf, math.inf]
    for _ in range(k):
        for i, run in enumerate(runs):
            start = time.perf_counter()
            run()
            best[i] = min(best[i], time.perf_counter() - start)
    return best[0], best[1]


def last_winning(ratios: dict[int, list[float]], margin: float) -> int:
    """The largest s such that every ratio at each s' <= s is at least
    margin, over the orders 1, 2, ... in `ratios`; 0 if s = 1 loses."""
    last = 0
    while last + 1 in ratios and min(ratios[last + 1]) >= margin:
        last += 1
    return last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kinds", nargs="+", choices=tuple(KINDS), default=list(KINDS))
    parser.add_argument("--sizes", type=int, nargs="+", default=[40, 100, 200, 400])
    parser.add_argument("--orders", type=int, default=16, help="time s = 1..ORDERS")
    parser.add_argument("--k", type=int, default=9, help="best of K runs of each kernel")
    args = parser.parse_args(argv)

    ratios = {s: [] for s in range(1, args.orders + 1)}
    print(f"{'kind':<10} {'n':>4} {'s':>3} {'seidel_ms':>10} {'tangent_ms':>10} {'ratio':>6}")
    for kind in args.kinds:
        for n in args.sizes:
            for s in ratios:
                table, tangent = times(kind, n, s, args.k)
                ratios[s].append(table / tangent)
                print(f"{kind:<10} {n:>4} {s:>3} {table * 1e3:>10.3f} {tangent * 1e3:>10.3f}"
                      f" {table / tangent:>6.2f}")
    print(f"\n{'s':>3} {'least':>6} {'median':>6}")
    for s, row in ratios.items():
        print(f"{s:>3} {min(row):>6.2f} {statistics.median(row):>6.2f}")
    last = last_winning(ratios, MARGIN)
    print(f"\nlast s won by every input at x{MARGIN:g}: {last}; TANGENT_MAX = {TANGENT_MAX}")
    return 0 if last == TANGENT_MAX else 1


if __name__ == "__main__":
    sys.exit(main())
