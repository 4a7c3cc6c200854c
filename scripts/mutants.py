#!/usr/bin/env python3
"""What `--check` catches: a fixed list of source edits, each row's run
on a copy of src/ against a fixed grid of checked requests.

For each row the script copies src/ to a temporary directory, applies
the row's edits there (one, or several for a row whose fault shows only
in combination), and runs the grid in a fresh interpreter through the
public `appellseq.cross_verify`, as `compute --check` runs it.  A table
is wrong when its production values (the table `compute` prints) differ
from those of the unedited tree.  One row per entry of ROWS, after the
unedited tree's own row:

    wrong     tables whose production values are wrong
    flagged   how many of the wrong tables `--check` refused
    first     the smallest n at which `--check` refused a wrong table
    ident     how many of the flagged wrong tables only the identity
              flagged: the report's tables agree
              (`witness.first_disagreement_pairs`)
    alarms    right tables that `--check` refused

A row whose edited tree raises in the child prints `crash` in every
column, and the child's last line of stderr (the exception) goes to
stderr; the other rows still run and print.  The script exits 1, before
any run, when an edit's old text is not found exactly once in its file.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

SCRIPTS = Path(__file__).resolve().parent
SRC = SCRIPTS.parent / "src"


class Edit(NamedTuple):
    file: str  # under src/appellseq
    old: str
    new: str
    breaks: str


# one row per entry, its edits applied together.  The `series.py` edits
# hit the Miller loop's forms (the two U_170 rows keep one rise factor
# wrong in `_ordinary`'s Horner sum and in the table's end lift, and the
# weight and backward-difference rows hit the table's polynomial step,
# which hyper-Bernoulli(2, 3) takes at n = 200) and `_tangent`, which
# Bernoulli's and Euler's tables take (the repeated last entry of one row
# of Seidel's triangle, and one weight of each raise at t = 1, which
# r = 2 and 3 reach, and one at t = 2, which r = 3 alone reaches); the
# `families.py` edit makes hyper-Cauchy's d_151 onward wrong, an input
# every check reads, and the `engine.py` edit makes d_170 wrong as
# `CoefficientSequence.prefix` slices it for every route.  The
# `witness.py` edits hit the checks: the identity's last weight
# and its gcd, taken from P_0, P_1 alone; the composition sum's one lift
# and its weights; Bareiss's reduction of D(e); and the double mutant, a
# blind comparison, which alone makes no table wrong, with the `_seidel`
# fault, which only the identity is left to see
SEIDEL = Edit("series.py", "(r + 1) * (k + m) * (hi - lo)",
              "((r + 1) * (k + m) + (n == 120)) * (hi - lo)", "_seidel (k+m) factor")
ROWS = [
    [Edit("series.py", "c = math.gcd(*P)", "c = math.gcd(*P[:2])",
          "_miller lift from P_0, P_1 alone")],
    [Edit("series.py", "w = [w[0] - 1, ", "w = [w[0] - 1 - (n == 30), ",
          "_miller unshifted weight roll")],
    [Edit("series.py", "- m * y), y)", "- m * y), y + (t == 1))",
          "_seidel weight a_1")],
    [Edit("series.py", "M[: last + 1]", "M[: last + (last < n - 1)]",
          "_ordinary zero-tail stop")],
    [Edit("series.py", "V.append(n * up)", "V.append(n * up + (n == 170))",
          "_ordinary fold multiplier j U_j at j = 170")],
    [Edit("series.py", "U.append(up)\n        M.append(S)",
          "U.append(up + (n == 170))\n        M.append(S)", "_seidel end lift U_j at j = 170")],
    [SEIDEL],
    [Edit("series.py", "math.comb(i + m, m - 1) for i", "math.comb(i + m, m - 1) + (i == 150) for i",
          "_seidel m > 2 binomials")],
    [Edit("series.py", "V.append(x[-1])", "V.append(x[-1] + (n == 170))",
          "_seidel backward difference at n = 170")],
    [Edit("series.py", "_reduced(p, fact // Lc)", "_reduced(p + (n == 170), fact // Lc)",
          "_ordinary lift of c_n")],
    [Edit("series.py", "row.append(row[-1])", "row.append(row[-1] + (j == 30))",
          "_tangent repeated row end at j = 30")],
    [Edit("series.py", "map(mul, count(t, -1), A)",
          "map(mul, (t - n + ((t, n) == (1, 150)) for n in count()), A)",
          "_tangent Bernoulli raise weight t - n at (t, n) = (1, 150)")],
    [Edit("series.py", "map(mul, count(t, -1), A)",
          "map(mul, (t - n + ((t, n) == (2, 150)) for n in count()), A)",
          "_tangent Bernoulli raise weight t - n at (t, n) = (2, 150)")],
    [Edit("series.py", "[2 * (x + t * y) for y, x in zip(A, A[1:])]",
          "[2 * (x + (t + ((t, n) == (1, 151))) * y) for n, (y, x) in enumerate(zip(A, A[1:]))]",
          "_tangent Euler raise weight t at (t, n) = (1, 151)")],
    [Edit("series.py", "return S // g, s // g",
          "return S // g + (s // g % 7 == 0), s // g",
          "_reduced when 7 divides up")],
    [Edit("families.py", "top *= m + k\n    else:", "top *= m + k + (k == 150)\n    else:",
          "hyper-Cauchy input d_151..")],
    [Edit("engine.py", "return self.P[: check_table(self.P, n_max) + 1], self.L",
          "return [p + (k == 170) for k, p in enumerate(self.P[: check_table(self.P, n_max) + 1])],"
          " self.L",
          "prefix output at k = 170")],
    [Edit("witness.py", "u[1:]), r]", "u[1:]), r + (N == 170) * (r - 1)]",
          "identity weight u_N at N = 170, r >= 2")],
    [Edit("witness.py", "g = math.gcd(*P)\n", "g = math.gcd(*P[:2])\n",
          "identity gcd from P_0, P_1 alone")],
    [Edit("witness.py", "return [x // g for x in N[:m]], D // g",
          "return [x // g + (e == 30) for e, x in enumerate(N[:m], 1)], D // g",
          "composition lift N_e at e = 30")],
    [Edit("witness.py", "weight = weight * (-r - k + 1) // k", "weight = weight * (-r - k + 1) // k + (k == 30)",
          "composition weight at k = 30")],
    [Edit("witness.py", "den.append(d // g)", "den.append(d // g + (len(den) == 25))",
          "Bareiss D(25) denominator")],
    [Edit("witness.py", "    return first\n", "    return None\n", "comparison blind"),
     SEIDEL],
]

# FamilySpec arguments, orders, sizes and the composition cap: six
# families at r = 1, 2, 3 and n = 40, 200, 36 checked tables per row.
# n = 200 reaches the table's polynomial step (hyper-Bernoulli(2, 3) at
# m = 4, d = 1) and `_ordinary` (160 terms and up) and every edit's n;
# r = 3 reaches `_tangent`'s second raise (t = 2);
# hyper-Bernoulli(1, 3) is flat at m = 3 > 2, so its tables are the only
# ones on the flat step, as Bernoulli's and Euler's take `_tangent`
GRID = {
    "families": [["bernoulli"], ["euler"], ["hyper_bernoulli", 2, 3], ["hyper_bernoulli", 1, 3],
                 ["hyper_cauchy", 2, 3], ["hyper_cauchy", 3, 2]],
    "orders": [1, 2, 3],
    "sizes": [40, 200],
    "cap": 50,
}


def child() -> None:
    """Run the grid read from stdin with the appellseq on sys.path and
    print one JSON row per table: (family, r, n, the sha256 of its
    production values, the report's first mismatch, the tables' first
    disagreement)."""
    from appellseq import FamilySpec, cross_verify, family_coefficients
    from appellseq.witness import first_disagreement_pairs

    grid = json.load(sys.stdin)
    rows = []
    for family in grid["families"]:
        for r in grid["orders"]:
            for n in grid["sizes"]:
                seq = family_coefficients(FamilySpec(*family), n)
                report = cross_verify(seq, r, n, cap=grid["cap"])
                values = " ".join(map(str, map(Fraction, *report.pairs["negative-power"])))
                rows.append([family, r, n, hashlib.sha256(values.encode()).hexdigest(),
                             report.first_mismatch, first_disagreement_pairs(report.pairs)])
    json.dump(rows, sys.stdout)


def run_grid(src: Path, grid: dict) -> list:
    """The child's rows for the tree at `src`."""
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{SCRIPTS}"}
    done = subprocess.run(
        [sys.executable, "-c", "import mutants; mutants.child()"],
        input=json.dumps(grid), env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def edited_rows(edits: list[Edit], grid: dict) -> list:
    """`run_grid` on a copy of src/ with `edits` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        for edit in edits:
            path = src / "appellseq" / edit.file
            path.write_text(path.read_text().replace(edit.old, edit.new))
        return run_grid(src, grid)


def missing(rows: list[list[Edit]]) -> list[Edit]:
    """The edits whose old text is not in their file exactly once."""
    edits = [edit for row in rows for edit in row]
    return [e for e in edits if (SRC / "appellseq" / e.file).read_text().count(e.old) != 1]


def tally(reference: list, rows: list) -> tuple:
    """(wrong, flagged, first, ident, alarms) of one row's tables."""
    wrong = flagged = ident = alarms = 0
    first = None
    for (*_, good, _, _), (*_, values, mismatch, tables) in zip(reference, rows):
        if values != good:
            wrong += 1
            if mismatch is not None:
                flagged += 1
                first = mismatch if first is None else min(first, mismatch)
                ident += tables is None
        elif mismatch is not None:
            alarms += 1
    return wrong, flagged, first, ident, alarms


def outcome(edits: list[Edit], grid: dict) -> list | subprocess.CalledProcessError:
    """`edited_rows`, or the error of a child that raised."""
    try:
        return edited_rows(edits, grid)
    except subprocess.CalledProcessError as crash:
        return crash


def table(rows: list[list[Edit]], grid: dict) -> list[tuple]:
    """One (label, wrong, flagged, first, ident, alarms) per row of edits,
    after the unedited tree's own row; two grids run at a time.  A row
    whose child raised reads `crash` in every column."""
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(lambda edits: outcome(edits, grid), [[], *rows]))
    if isinstance(runs[0], subprocess.CalledProcessError):  # no reference to compare with
        raise runs[0]
    labels = ["(no edit)", *(" + ".join(f"{e.file}: {e.breaks}" for e in row) for row in rows)]
    out = []
    for label, tables in zip(labels, runs):
        if isinstance(tables, subprocess.CalledProcessError):
            print(f"{label}: {tables.stderr.strip().splitlines()[-1]}", file=sys.stderr)
            out.append((label, *["crash"] * 5))
        else:
            out.append((label, *tally(runs[0], tables)))
    return out


def main() -> int:
    absent = missing(ROWS)
    for edit in absent:
        print(f"error: {edit.file} does not hold {edit.old!r} exactly once", file=sys.stderr)
    if absent:
        return 1
    rows = table(ROWS, GRID)
    width = max(len(row[0]) for row in rows)
    print(f"{'edit':<{width}} {'wrong':>5} {'flagged':>7} {'first':>5} {'ident':>5} {'alarms':>6}")
    for label, wrong, flagged, first, ident, alarms in rows:
        first = "-" if first is None else first
        print(f"{label:<{width}} {wrong:>5} {flagged:>7} {first:>5} {ident:>5} {alarms:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
