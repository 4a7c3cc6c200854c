#!/usr/bin/env python3
"""Count which form of the Miller loop the benchmark's requests reach.

Runs one pass of each workload's request list (from
perfbench/workloads.py, which it only reads) through `appellseq.cli.main`
in process, with the loop's three forms in `appellseq.series` wrapped:
`_seidel` (the difference table, labelled by its shift m and the degree
d of its shifted numerators), `_miller` (the loop on F as given) and
`_ordinary`.  For each workload, seed and form it prints the number of
calls, the steps those calls ran, how many of the steps read more than
two terms past G's last nonzero value, found from the M each call
returned (the steps a zero-tail skip would shorten), and how many raised
the running denominator Q, found from the returned (M, Q) as the running
lcm of the reduced denominators of G_0..G_n (the steps whose rise
`_seidel` and `_ordinary` fold into their sums, and `_miller` rescales).

    PYTHONPATH=src python3 scripts/traffic.py --workload all --seed 1 2 3
"""

import argparse
import contextlib
import io
import math
import sys
from collections import Counter
from pathlib import Path

from appellseq import cli, series

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    """perfbench/workloads.py as a module, leaving no bytecode behind."""
    sys.path.insert(0, str(PERFBENCH))
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = write
        sys.path.remove(str(PERFBENCH))
    return workloads


def past_tail_steps(M) -> int:
    """Steps n = 1..K whose terms M_0..M_{n-1} run more than two past the
    last nonzero one."""
    last, count = 0, 0
    for n in range(1, len(M)):
        if M[n - 1]:
            last = n - 1
        count += n - 1 - last > 2
    return count


def rise_steps(M, Q) -> int:
    """Steps n = 1..K at which lcm(den G_0..G_n), G_n = M_n / Q, rose."""
    count, running = 0, 1
    for m in M[1:]:
        den = Q // math.gcd(m, Q)
        count += running % den != 0
        running = math.lcm(running, den)
    return count


@contextlib.contextmanager
def traced(tally: Counter):
    """Wrap the loop's forms on `series`; each call adds to `tally` under
    (form, "calls" / "steps" / "past tail" / "rises")."""
    kept = {name: getattr(series, name) for name in ("_seidel", "_miller", "_ordinary")}

    def wrap(name, form):
        def run(*args, **kwargs):
            M, Q = kept[name](*args, **kwargs)
            key = form(*args)
            tally[key, "calls"] += 1
            tally[key, "steps"] += len(M) - 1
            tally[key, "past tail"] += past_tail_steps(M)
            tally[key, "rises"] += rise_steps(M, Q)
            return M, Q

        return run

    forms = {
        "_seidel": lambda L, D, K, r, m, *rest: f"_seidel m={m} d={len(D) - 1}",
        "_miller": lambda *args: "_miller",
        "_ordinary": lambda *args: "_ordinary",
    }
    for name, form in forms.items():
        setattr(series, name, wrap(name, form))
    try:
        yield
    finally:
        for name, fn in kept.items():
            setattr(series, name, fn)


def tally_pass(workloads, workload: str, seed: int) -> Counter:
    """Run one pass of `workload` at `seed` and tally the loop's forms."""
    tally = Counter()
    with traced(tally):
        for req in workloads.build(workload, seed):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                try:
                    cli.main(list(req.argv))
                except Exception:  # a request the benchmark keeps as a known fault
                    pass
    return tally


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    print(f"{'workload':<9} {'seed':>4}  {'form':<15} {'calls':>6} {'steps':>7} {'past tail':>9}"
          f" {'rises':>6}")
    for workload in names:
        for seed in args.seed:
            tally = tally_pass(workloads, workload, seed)
            for form in sorted({form for form, _ in tally}):
                calls, steps, past, rises = (
                    tally[form, k] for k in ("calls", "steps", "past tail", "rises")
                )
                print(f"{workload:<9} {seed:>4}  {form:<15} {calls:>6} {steps:>7} {past:>9} {rises:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
