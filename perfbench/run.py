#!/usr/bin/env python3
"""Benchmark of the appellseq CLI, run in process from a source checkout.

One caller sends the requests of a workload one after another (a closed
loop) through `appellseq.cli.main(argv)`, with stdout and stderr
captured, and checks every output with `checker.py`, which does not use
appellseq.  A run repeats the workload's fixed request list a fixed
number of passes, round(--seconds / nominal pass time), so every run of
a workload does the same work.  Timings are in reference seconds (see
speed.py).

    python3 perfbench/run.py --workload table --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps the program's public functions in spans (see spans.py) and
reports the per-layer metrics instead.  The last line of stdout is one
JSON object; the lines before it give the same figures for a reader.
Each run also writes its result, per-request timings and, in a traced
run, its spans under perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402

SETUP_REPEATS = 15

END_TO_END = {
    "req_per_s": "1/s",
    "req_p50_s": "s",
    "req_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Sent after the passes of a traced run, so that every layer has spans in
# every trace; a workload that bypasses a layer shows only their small
# time there.  They count in no per-request count, peak or byte figure.
COVERAGE_REQUESTS = [
    workloads.compute_request("bernoulli", 1, 1, 1, 10, "csv", cap=6),
    workloads.poly_request("euler", 1, 1, 2, 8, "json", Fraction(1, 3)),
]


@dataclass
class Timed:
    """A stretch of timed work: perf_counter bounds and probe-clock seconds."""

    start: float
    end: float
    seconds: float
    scale: float = 0.0  # reference seconds per second, set once the run is over

    @property
    def reference_s(self) -> float:
        return self.seconds * self.scale


@dataclass
class Outcome:
    request_id: str
    timing: Timed
    fault: Optional[str]
    out_bytes: int


def timed(probe: SpeedProbe, fn, *args):
    """fn(*args), and how long it took."""
    start, t0 = time.perf_counter(), probe.clock()
    value = fn(*args)
    return value, Timed(start, time.perf_counter(), probe.clock() - t0)


def setup(workload: str, seed: int):
    """Import appellseq afresh and build the request list."""
    for name in [n for n in sys.modules if n == "appellseq" or n.startswith("appellseq.")]:
        del sys.modules[name]
    return importlib.import_module("appellseq.cli"), workloads.build(workload, seed)


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # escapes main: a traceback for a CLI user
            rc = exc
    return rc, out.getvalue(), err.getvalue()


def judge(chk: checker.Checker, req: workloads.Request, rc, out: str, err: str):
    """(fault, problem): why the request failed, or what is wrong with its output."""
    if isinstance(rc, Exception):
        return req.fault or f"exception-{type(rc).__name__}", None
    if req.expect_usage_error:
        if rc == 2 and not out and len(err.splitlines()) == 1 and err.startswith("error:"):
            return None, None
        return req.fault or f"exit-{rc}", None
    if rc != 0:
        return req.fault or f"exit-{rc}", None
    if (req.argv, out) in chk.verified:
        return None, None
    try:
        if req.kind == "table":
            chk.check_table(req.family, req.m, req.nn, req.r, checker.parse_table(out, req.fmt))
        else:
            got = checker.parse_poly(out, req.fmt, req.kind)
            chk.check_poly(req.family, req.m, req.nn, req.r, req.n, req.z, got)
    except checker.CheckError as exc:
        return None, f"{' '.join(req.argv)}: {exc}"
    chk.verified.add((req.argv, out))
    return None, None


def run_requests(cli, reqs, passes, chk, probe, tracer=None, label=""):
    """Send `passes` rounds of `reqs`; returns the outcomes and the wrong outputs."""
    outcomes, problems = [], []
    for p in range(passes):
        for i, req in enumerate(reqs):
            request_id = f"{label}{p}.{i}"
            if tracer is not None:
                tracer.request_id = request_id
            gc.collect()
            (rc, out, err), timing = timed(probe, call, cli, req.argv)
            fault, problem = judge(chk, req, rc, out, err)
            if problem:
                problems.append(problem)
            outcomes.append(Outcome(request_id, timing, fault, len(out.encode())))
    return outcomes, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    passes = workloads.passes_for(workload, seconds)
    chk = checker.Checker()
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            (cli, reqs), timing = timed(probe, setup, workload, seed)
            setups.append(timing)
        # Every request starts from a collected heap, as a fresh process
        # would; freezing what exists now keeps those collections cheap.
        gc.collect()
        gc.freeze()
        tracer = spans.Tracer(probe.clock) if trace else None
        extra = []  # the coverage requests of a traced run
        if tracer is not None:
            tracer.install(cli)
        try:
            outcomes, problems = run_requests(cli, reqs, passes, chk, probe, tracer)
            if tracer is not None:
                extra, extra_problems = run_requests(cli, COVERAGE_REQUESTS, 1, chk, probe, tracer,
                                                     "coverage")
                problems += extra_problems
                problems += [f"{' '.join(r.argv)}: failed ({o.fault})"
                             for r, o in zip(COVERAGE_REQUESTS, extra) if o.fault]
        finally:
            if tracer is not None:
                tracer.uninstall()
    for timing in setups + [o.timing for o in outcomes + extra]:
        timing.scale = probe.scale(timing.start, timing.end)
    faults = Counter(o.fault for o in outcomes if o.fault)
    ok_latency = [o.timing.reference_s for o in outcomes if not o.fault]
    request_s = sum(o.timing.reference_s for o in outcomes)
    if tracer is not None:
        scale = {o.request_id: o.timing.scale for o in outcomes + extra}
        values = tracer.layer_metrics([o.request_id for o in outcomes], scale,
                                      sum(o.out_bytes for o in outcomes))
        units = spans.PER_LAYER
    else:
        values = {
            "req_per_s": len(ok_latency) / request_s,
            "req_p50_s": statistics.median(ok_latency),
            "req_p90_s": statistics.quantiles(ok_latency, n=10, method="inclusive")[8],
            "setup_s": statistics.median(t.reference_s for t in setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    for problem in problems[:5]:
        print(f"WRONG OUTPUT {problem}")
    print(f"workload {workload} seed {seed}: {passes} passes of {len(reqs)} requests, "
          f"{request_s:.3f} reference s in requests{' (traced)' if trace else ''}; "
          f"speed probe mean {statistics.fmean(probe.durations) * 1e6:.0f} us "
          f"(reference {REFERENCE_S * 1e6:.0f} us)")
    print(f"attempted {len(outcomes)}, failed {len(outcomes) - len(ok_latency)}"
          + "".join(f"; {name}: {count}" for name, count in sorted(faults.items())))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(ok_latency),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    record = {
        "workload": workload, "seed": seed, "passes": passes, "request_s": request_s,
        "probe_s": [probe.starts, probe.durations],
        "requests": [(o.request_id, o.timing.seconds, o.timing.scale, o.fault) for o in outcomes],
        "result": result,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return result


def run_all(args) -> int:
    """Every workload, each in its own process so that peak RSS stays its own."""
    summary = {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        print(proc.stdout, end="")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "appellseq" / "cli.py").is_file():
        print(f"error: no appellseq source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    # Every set-up compiles appellseq from source: no bytecode cache is
    # read or written, so set-up time does not depend on earlier runs.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(HERE / "results" / "no-bytecode-cache")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
