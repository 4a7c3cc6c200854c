#!/usr/bin/env python3
"""Time the crossovers behind `appellseq.series`' dispatch constants, in process.

TANGENT_MAX is the largest s at which Bernoulli's and Euler's f^(-s)
take `_tangent` (order 1 from the tangent numbers, then s - 1 raises)
in place of the flat difference table `_seidel`, which serves every
other order.  For each kind, n and s = 1..--orders, the script builds
the flat input d_0..d_n, times `_seidel` and `_tangent` on it
alternating, and keeps the best of --k runs of each.  One row per input
gives both times and their ratio, the table's time over `_tangent`'s,
so above 1 means `_tangent` is faster.  One row per s then gives the
least and the median ratio over the inputs.  Its verdict is the
largest s up to which every input wins by MARGIN (every ratio at it
and below is at least MARGIN), beside the constant.

SHIFT_MIN_TERMS is the shortest prefix on which an input that is not
flat may leave `_miller` for a long form: `_seidel` when `_polynomial`
finds its shift, else `_ordinary` when `_ordinary_pays`.  For each input
of SHIFT_INPUTS (each hyper-Bernoulli kind on the table, each
hyper-Cauchy kind on `_ordinary`, at five loop powers, and library
route 2's f^2 of hyper-Cauchy(2,3) at -1) and each prefix of --terms
terms, the script times the long form with both probes, as the
dispatcher runs it from the gate on, against `_miller` on the same
(P, L), alternating, best of --k.  One row per input gives both times
and their ratio, `_miller`'s time over the long form's, so above 1
means the long form is faster; one row per length gives the least and
the median ratio over the table's inputs, over `_ordinary`'s and over
all.  Its verdict is the shortest length from which on every input wins
by MARGIN at every length timed, beside the constant.

The last line of each gate is its verdict; the script exits 1 when a
verdict differs from its constant.

    PYTHONPATH=src python3 scripts/gates.py
    PYTHONPATH=src python3 scripts/gates.py --gate tangent --kinds euler --sizes 40 --orders 12
    PYTHONPATH=src python3 scripts/gates.py --gate shift --terms 100 110 120 --k 15
"""

import argparse
import math
import statistics
import sys
import time

from appellseq.engine import power_numerators
from appellseq.families import FamilySpec, family_coefficients
from appellseq.series import (
    SHIFT_MIN_TERMS,
    TANGENT_MAX,
    _miller,
    _ordinary,
    _ordinary_pays,
    _polynomial,
    _seidel,
    _tangent,
)

KINDS = {"bernoulli": (FamilySpec.bernoulli(), 1), "euler": (FamilySpec.euler(), 0)}
#: The inputs of the SHIFT_MIN_TERMS pair, as (label, spec, the power of f
#: read, the loop power): the family's own d at five loop powers, and
#: library route 2's input, f^2's (M, Q), read at -1
SHIFT_INPUTS = [
    (f"{spec.label}^{power}", spec, 1, power)
    for spec in [
        *(FamilySpec.hyper_bernoulli(*p) for p in ((2, 1), (2, 2), (2, 3), (3, 1), (4, 4), (2, 6))),
        *(FamilySpec.hyper_cauchy(*p) for p in ((2, 3), (3, 2), (1, 1), (7, 1), (1, 9), (2, 1))),
    ]
    for power in (-1, -3, -9, -16, 3)
] + [("hyper-cauchy(2,3)^2^-1", FamilySpec.hyper_cauchy(2, 3), 2, -1)]
#: The least ratio that counts as a win: on the 40-term prefixes each
#: kernel takes about 0.05 ms, and their ratio moves by up to 0.03
#: between runs
MARGIN = 1.05


def best_of(runs, k: int) -> list[float]:
    """Best of k seconds of each of `runs`, the runs alternating."""
    best = [math.inf] * len(runs)
    for _ in range(k):
        for i, run in enumerate(runs):
            start = time.perf_counter()
            run()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def times(kind: str, n: int, s: int, k: int) -> tuple[float, float]:
    """Best of k seconds of `_seidel` and of `_tangent` on kind's d_0..d_n
    at r = -s, the two run alternating."""
    spec, m = KINDS[kind]
    P, L = family_coefficients(spec, n).prefix()
    table, tangent = best_of(
        [lambda: _seidel(L, [P[n] * math.comb(n + m, m)], n, -s, m), lambda: _tangent(n, s, m)], k
    )
    return table, tangent


def long_form(P, L, r):
    """The form the dispatcher runs on an input that is not flat, from
    SHIFT_MIN_TERMS terms on, with its probes, and its name."""
    found = _polynomial(P)
    if found:
        return "table", _seidel(L, found[1], len(P) - 1, r, found[0])
    if _ordinary_pays(P):
        return "ordinary", _ordinary(P, L, r)
    return "miller", _miller(P, L, r)


def shift_times(spec: FamilySpec, power: int, r: int, terms: int, k: int):
    """(the long form's name, its best of k seconds, `_miller`'s) on the
    first `terms` terms of spec's f^power at the loop power r, the two run
    alternating, once each first to check that they agree."""
    seq = family_coefficients(spec, terms - 1)
    P, L = power_numerators(seq, power) if power > 1 else seq.prefix()
    form, value = long_form(P, L, r)
    if value != _miller(P, L, r):
        raise AssertionError(f"{spec.label}^{power} at {r}, {terms} terms: the forms disagree")
    long, miller = best_of([lambda: long_form(P, L, r), lambda: _miller(P, L, r)], k)
    return form, long, miller


def last_winning(ratios: dict[int, list[float]], margin: float) -> int:
    """The largest s such that every ratio at each s' <= s is at least
    margin, over the orders 1, 2, ... in `ratios`; 0 if s = 1 loses."""
    last = 0
    while last + 1 in ratios and min(ratios[last + 1]) >= margin:
        last += 1
    return last


def first_winning(ratios: dict[int, list[float]], margin: float):
    """The least length in `ratios` such that every ratio at it and at
    every longer length in `ratios` is at least margin; None if the
    longest loses."""
    first = None
    for terms in sorted(ratios, reverse=True):
        if min(ratios[terms]) < margin:
            break
        first = terms
    return first


def tangent_gate(args) -> bool:
    """Print the TANGENT_MAX pair; whether its verdict is the constant."""
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
    return last == TANGENT_MAX


def shift_gate(args) -> bool:
    """Print the SHIFT_MIN_TERMS pair; whether its verdict is the constant."""
    ratios = {terms: {"table": [], "ordinary": []} for terms in args.terms}
    width = max(len(label) for label, *_ in SHIFT_INPUTS)
    print(f"{'input':<{width}} {'form':<8} {'terms':>5} {'long_ms':>8} {'miller_ms':>9}"
          f" {'ratio':>6}")
    for label, spec, power, r in SHIFT_INPUTS:
        for terms in args.terms:
            form, long, miller = shift_times(spec, power, r, terms, args.k)
            ratios[terms].setdefault(form, []).append(miller / long)
            print(f"{label:<{width}} {form:<8} {terms:>5} {long * 1e3:>8.3f} {miller * 1e3:>9.3f}"
                  f" {miller / long:>6.2f}")
    print(f"\n{'terms':>5} {'table':>13} {'ordinary':>13} {'all':>13}   (least / median)")
    every = {}
    for terms, forms in ratios.items():
        every[terms] = [x for form in ("table", "ordinary") for x in forms[form]]
        cells = [f"{min(row):.2f} / {statistics.median(row):.2f}" if row else "-"
                 for row in (forms["table"], forms["ordinary"], every[terms])]
        print(f"{terms:>5} " + " ".join(f"{cell:>13}" for cell in cells))
    first = first_winning(every, MARGIN)
    print(f"\nfirst length won by every input from there on at x{MARGIN:g}: {first}; "
          f"SHIFT_MIN_TERMS = {SHIFT_MIN_TERMS}")
    return first == SHIFT_MIN_TERMS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", choices=("tangent", "shift", "all"), default="all")
    parser.add_argument("--kinds", nargs="+", choices=tuple(KINDS), default=list(KINDS))
    parser.add_argument("--sizes", type=int, nargs="+", default=[40, 100, 200, 400],
                        help="the tangent pair's n")
    parser.add_argument("--orders", type=int, default=16, help="time s = 1..ORDERS")
    parser.add_argument("--terms", type=int, nargs="+", default=list(range(40, 161, 20)),
                        help="the shift pair's prefix lengths")
    parser.add_argument("--k", type=int, default=9, help="best of K runs of each kernel")
    args = parser.parse_args(argv)

    agree = True
    if args.gate in ("tangent", "all"):
        agree &= tangent_gate(args)
    if args.gate == "all":
        print()
    if args.gate in ("shift", "all"):
        agree &= shift_gate(args)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
