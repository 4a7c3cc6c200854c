#!/usr/bin/env python3
"""Print the size of src/appellseq: lines, bytes and `ast.walk` nodes.

One row per module, in name order, then their total.  Nodes are every
node `ast.walk` visits in the module's parse tree, the figure that
follows what importing the package compiles; lines are newline-terminated
lines, as `wc -l` counts them.

    python3 scripts/size.py
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "appellseq"


def module_size(path: Path) -> tuple[int, int, int]:
    """(lines, bytes, nodes) of one source file."""
    data = path.read_bytes()
    nodes = sum(1 for _ in ast.walk(ast.parse(data, str(path))))
    return data.count(b"\n"), len(data), nodes


def main() -> int:
    print(f"{'module':<16} {'lines':>6} {'bytes':>7} {'nodes':>6}")
    total = [0, 0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        size = module_size(path)
        total = [t + s for t, s in zip(total, size)]
        print(f"{path.name:<16} {size[0]:>6} {size[1]:>7} {size[2]:>6}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>7} {total[2]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
