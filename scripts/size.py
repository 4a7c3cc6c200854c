#!/usr/bin/env python3
"""Print the size of src/appellseq: lines, bytes and `ast.walk` nodes.

One row per module, in name order, then their total, then the "plain
path": the modules that `import appellseq.cli` loads, as a fresh
interpreter without site holds them in `sys.modules`.  That import is
what every command-line run compiles when no bytecode cache is read, and
what the benchmark's `setup_s` times.  Nodes are every node `ast.walk`
visits in the module's parse tree, the figure that follows what importing
a module compiles; lines are newline-terminated lines, as `wc -l` counts
them.

    python3 scripts/size.py
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "appellseq"


def module_size(path: Path) -> tuple[int, int, int]:
    """(lines, bytes, nodes) of one source file."""
    data = path.read_bytes()
    nodes = sum(1 for _ in ast.walk(ast.parse(data, str(path))))
    return data.count(b"\n"), len(data), nodes


def plain_path(package: Path) -> list[Path]:
    """The source files of the modules that `import <package>.cli` loads
    in a fresh interpreter, without site."""
    code = (
        f"import sys, {package.name}.cli\n"
        "for m in list(sys.modules.values()):\n"
        f"    if m.__name__.partition('.')[0] == {package.name!r} and getattr(m, '__file__', None):\n"
        "        print(m.__file__)"
    )
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return sorted(map(Path, done.stdout.splitlines()))


def main() -> int:
    print(f"{'module':<16} {'lines':>6} {'bytes':>7} {'nodes':>6}")
    total = [0, 0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        size = module_size(path)
        total = [t + s for t, s in zip(total, size)]
        print(f"{path.name:<16} {size[0]:>6} {size[1]:>7} {size[2]:>6}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>7} {total[2]:>6}")
    plain = [sum(col) for col in zip(*map(module_size, plain_path(PACKAGE)))]
    print(f"{'plain path':<16} {plain[0]:>6} {plain[1]:>7} {plain[2]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
