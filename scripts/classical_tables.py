#!/usr/bin/env python3
"""Print the classical number tables side by side, cross-verified first.

A quick way to eyeball the library's output against the literature:
Bernoulli B_n, Euler E_n, Cauchy c_n, and one hypergeometric column of
each kind, all cross-verified by every independent route, and each input
certified against its family's definition, before printing.

    python scripts/classical_tables.py --n 12
"""

import argparse
import sys

from appellseq.engine import NEGATIVE_POWER
from appellseq.families import FamilySpec, family_coefficients
from appellseq.witness import cross_verify

COLUMNS = [
    ("B_n", FamilySpec.bernoulli()),
    ("E_n", FamilySpec.euler()),
    ("c_n", FamilySpec.hyper_cauchy(1, 1)),
    ("B_{2,3,n}", FamilySpec.hyper_bernoulli(2, 3)),
    ("c_{2,3,n}", FamilySpec.hyper_cauchy(2, 3)),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=12, help="largest index to print")
    parser.add_argument("--order", type=int, default=1, help="order r of the table")
    args = parser.parse_args(argv)

    tables = {}
    for title, spec in COLUMNS:
        seq = family_coefficients(spec, args.n)
        report = cross_verify(seq, args.order, args.n, family=spec)
        if not report.agree:
            print(f"{title}: {report.describe()}", file=sys.stderr)
            return 1
        tables[title] = report.table(NEGATIVE_POWER)

    widths = {
        title: max(len(title), max(len(str(v)) for v in values))
        for title, values in tables.items()
    }
    head = "  n  " + "  ".join(f"{title:>{widths[title]}}" for title, _ in COLUMNS)
    print(head)
    print("-" * len(head))
    for n in range(args.n + 1):
        row = "  ".join(
            f"{str(tables[title][n]):>{widths[title]}}" for title, _ in COLUMNS
        )
        print(f"{n:>3}  {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
