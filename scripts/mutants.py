#!/usr/bin/env python3
"""What `--check` catches: a fixed list of source edits, each one run on
a copy of src/ against a fixed grid of checked requests.

For each edit the script copies src/ to a temporary directory, applies
the edit there, and runs the grid in a fresh interpreter through the
public `appellseq.cross_verify`, as `compute --check` runs it.  A table
is wrong when its production values (the table `compute` prints) differ
from those of the unedited tree.  One row per edit, after the unedited
tree's own row:

    wrong     tables whose production values are wrong
    flagged   how many of the wrong tables `--check` refused
    first     the smallest n at which `--check` refused a wrong table
    d-rec     how many of the flagged wrong tables only the D-recurrence
              leg flagged: the report's tables without "recurrence"
              agree (`witness.first_disagreement_pairs`)
    alarms    right tables that `--check` refused

The script exits 1, before any run, when an edit's old text is not
found exactly once in its file.

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


# the `series.py` edits hit the Miller loop's forms; the `families.py`
# edit makes hyper-Cauchy's d_151 onward wrong, an input every route reads,
# and the `engine.py` edit makes d_170 wrong as `CoefficientSequence.prefix`
# hands it to every route
EDITS = [
    Edit("series.py", "H[n - 1 : n + 8]", "H[n : n + 8]",
         "_miller re-lift look-ahead"),
    Edit("series.py", "w = [w[0] - 1, ", "w = [w[0] - 1 - (n == 100), ",
         "_miller unshifted weight roll"),
    Edit("series.py", "count(r - n, r + 1)", "count(r - n - (n == 180), r + 1)",
         "_miller shifted weights"),
    Edit("series.py", "M[: last + 1]", "M[: last + (last < n - 1)]",
         "_ordinary zero-tail stop"),
    Edit("series.py", "(r + 1) * (k + m) * (hi - lo)", "((r + 1) * (k + m) + (n == 120)) * (hi - lo)",
         "_seidel (k+m) factor"),
    Edit("series.py", "math.comb(i + m, m - 1) for i", "math.comb(i + m, m - 1) + (i == 150) for i",
         "_seidel m > 2 binomials"),
    Edit("series.py", "_miller([p * math.comb(k + m, m) for k, p",
         "_miller([p * math.comb(k + m, m) + (k == 170) for k, p",
         "shifted numerators H_k"),
    Edit("series.py", "_reduced(p, fact, Lc)", "_reduced(p + (n == 170), fact, Lc)",
         "_ordinary lift of c_n"),
    Edit("series.py", "return S // g * (Q // den), Q, up",
         "return S // g * (Q // den) + (up % 7 == 0 and up > 1), Q, up",
         "_reduced when 7 divides up"),
    Edit("families.py", "top *= m + k\n    else:", "top *= m + k + (k == 150)\n    else:",
         "hyper-Cauchy input d_151.."),
    Edit("engine.py", "return [p // g for p in P], self.L // g",
         "return [p // g + (k == 170) for k, p in enumerate(P)], self.L // g",
         "prefix output at k = 170"),
]

# FamilySpec arguments, orders, sizes and the composition cap: six
# families at r = 1, 2 and n = 40, 200, 24 checked tables per edit.
# n = 200 reaches the shifted loop and `_ordinary` (160 terms and up) and
# every edit's n; hyper-Bernoulli(1, 3) is flat at m = 3 > 2
GRID = {
    "families": [["bernoulli"], ["euler"], ["hyper_bernoulli", 2, 3], ["hyper_bernoulli", 1, 3],
                 ["hyper_cauchy", 2, 3], ["hyper_cauchy", 3, 2]],
    "orders": [1, 2],
    "sizes": [40, 200],
    "cap": 50,
}


def child() -> None:
    """Run the grid read from stdin with the appellseq on sys.path and
    print one JSON row per table: (family, r, n, the sha256 of its
    production values, the report's first mismatch, the first one
    without the D-recurrence table)."""
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
                pairs = {name: pair for name, pair in report.pairs.items() if name != "recurrence"}
                rows.append([family, r, n, hashlib.sha256(values.encode()).hexdigest(),
                             report.first_mismatch, first_disagreement_pairs(pairs)])
    json.dump(rows, sys.stdout)


def run_grid(src: Path, grid: dict) -> list:
    """The child's rows for the tree at `src`."""
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{SCRIPTS}"}
    done = subprocess.run(
        [sys.executable, "-c", "import mutants; mutants.child()"],
        input=json.dumps(grid), env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def edited_rows(edit: Optional[Edit], grid: dict) -> list:
    """`run_grid` on a copy of src/ with `edit` applied (None: no edit)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if edit is not None:
            path = src / "appellseq" / edit.file
            path.write_text(path.read_text().replace(edit.old, edit.new))
        return run_grid(src, grid)


def missing(edits: list[Edit]) -> list[Edit]:
    """The edits whose old text is not in their file exactly once."""
    return [e for e in edits if (SRC / "appellseq" / e.file).read_text().count(e.old) != 1]


def tally(reference: list, rows: list) -> tuple:
    """(wrong, flagged, first, d-rec, alarms) of one edit's rows."""
    wrong = flagged = d_rec = alarms = 0
    first = None
    for (*_, good, _, _), (*_, values, mismatch, without) in zip(reference, rows):
        if values != good:
            wrong += 1
            if mismatch is not None:
                flagged += 1
                first = mismatch if first is None else min(first, mismatch)
                d_rec += without is None
        elif mismatch is not None:
            alarms += 1
    return wrong, flagged, first, d_rec, alarms


def table(edits: list[Edit], grid: dict) -> list[tuple]:
    """One (label, wrong, flagged, first, d-rec, alarms) per edit, after the
    unedited tree's own row; two grids run at a time."""
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(lambda edit: edited_rows(edit, grid), [None, *edits]))
    labels = ["(no edit)", *(f"{e.file}: {e.breaks}" for e in edits)]
    return [(label, *tally(runs[0], rows)) for label, rows in zip(labels, runs)]


def main() -> int:
    absent = missing(EDITS)
    for edit in absent:
        print(f"error: {edit.file} does not hold {edit.old!r} exactly once", file=sys.stderr)
    if absent:
        return 1
    print(f"{'edit':<42} {'wrong':>5} {'flagged':>7} {'first':>5} {'d-rec':>5} {'alarms':>6}")
    for label, wrong, flagged, first, d_rec, alarms in table(EDITS, GRID):
        first = "-" if first is None else first
        print(f"{label:<42} {wrong:>5} {flagged:>7} {first:>5} {d_rec:>5} {alarms:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
