"""Smoke tests of the scripts under scripts/, run in process, and the
mutation table's verdict as a gate."""

import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_classical_tables_prints_verified_columns(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import classical_tables

    assert classical_tables.main(["--n", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "B_n", "E_n", "c_n", "B_{2,3,n}", "c_{2,3,n}"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert sorted(rows, key=int) == [str(n) for n in range(7)]
    assert rows["6"][0] == "1/42"  # B_6


def test_traffic_counts_the_loop_forms_of_verify(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import traffic

    assert traffic.main(["--workload", "verify", "--seed", "1"]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert head.split() == ["workload", "seed", "form", "calls", "steps", "past", "tail", "rises"]
    table = {}
    for row in rows:
        workload, seed, *form, calls, steps, past, rises = row.split()
        assert (workload, seed) == ("verify", "1") and form[0] in ("_miller", "_seidel", "_tangent")
        table[" ".join(form)] = int(calls), int(steps), int(past), int(rises)
    # --check at r <= 2 runs `_miller`, the difference table on f^r of
    # Bernoulli and Euler, flat at m = 1 and 0, and `_tangent` on their
    # f^(-r); no step of theirs reads a zero tail, and Q rises at some of
    # their steps
    assert table["_miller"][0] > 0
    flat = {"_seidel m=0 d=0", "_seidel m=1 d=0", "_tangent euler", "_tangent bernoulli"}
    assert flat <= set(table)
    assert all(calls <= steps and past == 0 and 0 < rises <= steps
               for calls, steps, past, rises in table.values())
    assert traffic.past_tail_steps([1, 2, 0, 0, 0, 0, 5, 0]) == 2  # steps 5 and 6
    # G = 1, 1/2, 1/3, 1 over Q = 6: the running lcm 1, 2, 6, 6 rises twice
    assert traffic.rise_steps([6, 3, 2, 6], 6) == 2


def test_size_counts_each_module_and_the_total(capsys, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import size

    assert size.main() == 0  # the package itself
    *_, total, plain, check = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert total[0] == "total" and plain[:2] == ["plain", "path"] and check[:2] == ["check", "path"]
    assert 0 < int(plain[-1]) < int(check[-1]) < int(total[-1])
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("x = 1\n")  # Module, Assign, Name, Store, Constant
    (package / "b.py").write_text('"""doc"""\n\n\ndef f():\n    pass\n')
    (package / "cli.py").write_text("from . import a\n")  # Module, ImportFrom, alias
    (package / "witness.py").write_text("from . import cli\n")
    monkeypatch.setattr(size, "PACKAGE", package)
    assert size.main() == 0
    head, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert head == ["module", "lines", "bytes", "nodes"]
    assert rows == [
        ["a.py", "1", "6", "5"],
        ["b.py", "5", "30", "6"],  # Module, Expr, Constant, FunctionDef, arguments, Pass
        ["cli.py", "1", "16", "3"],
        ["witness.py", "1", "18", "3"],
        ["total", "8", "70", "17"],
        ["plain", "path", "2", "22", "8"],  # a.py and cli.py: `import pkg.cli` loads them
        ["check", "path", "3", "40", "11"],  # and witness.py: `import pkg.witness`
    ]


def test_mutants_runs_the_unedited_tree_and_one_edit(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import mutants

    assert mutants.missing(mutants.ROWS) == []
    grid = {"families": [["bernoulli"], ["hyper_cauchy", 2, 3]], "orders": [1, 2],
            "sizes": [12], "cap": 50}
    row = next(row for row in mutants.ROWS if row[0].breaks == "_reduced when 7 divides up")
    blind = mutants.ROWS[-1][0]  # the double mutant's blind comparison
    assert mutants.table([row, [blind, *row]], grid) == [
        ("(no edit)", 0, 0, None, 0, 0),
        # Bernoulli's f^(-r) takes `_tangent`, which has no `_reduced`, so only
        # hyper-Cauchy's two tables go wrong; Bernoulli's Bareiss leg at r = 2
        # reads f^2 from the table, which does, and refuses a right table
        ("series.py: _reduced when 7 divides up", 2, 2, 4, 0, 1),
        # a row's edits apply together: with the comparison blind, only the
        # identity flags the wrong tables, and no leg's disagreement is seen
        ("witness.py: comparison blind + series.py: _reduced when 7 divides up", 2, 2, 4, 2, 0),
    ]
    # an edit whose old text is gone stops the script before any run
    gone = mutants.Edit("series.py", "no such text", "", "nothing")
    monkeypatch.setattr(mutants, "ROWS", [row, [row[0], gone]])
    assert mutants.main() == 1
    assert capsys.readouterr().err == "error: series.py does not hold 'no such text' exactly once\n"


def test_mutants_prints_a_crashing_row_and_every_other_row(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import mutants

    crash = mutants.Edit("series.py", "    g = math.gcd(S, s)\n", "    g = math.gcd(S, s) // 0\n",
                         "_reduced divides by 0")
    row = next(row for row in mutants.ROWS if row[0].breaks == "_reduced when 7 divides up")
    monkeypatch.setattr(mutants, "ROWS", [[crash], row])
    monkeypatch.setattr(mutants, "GRID", {"families": [["hyper_cauchy", 2, 3]], "orders": [1, 2],
                                          "sizes": [12], "cap": 50})
    assert mutants.main() == 0
    out, err = capsys.readouterr()
    assert [line.split()[-5:] for line in out.splitlines()[1:]] == [
        ["0", "0", "-", "0", "0"],
        ["crash"] * 5,  # the child raised, and the rows after it still run
        ["2", "2", "4", "0", "0"],
    ]
    assert err == "series.py: _reduced divides by 0: ZeroDivisionError: integer division or modulo by zero\n"


def test_gates_times_both_kernels_and_compares_the_last_winning_order(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import gates

    code = gates.main(["--gate", "tangent", "--kinds", "euler", "--sizes", "12", "20",
                       "--orders", "2", "--k", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["kind", "n", "s", "seidel_ms", "tangent_ms", "ratio"]
    rows = [line.split() for line in lines[1:5]]
    assert [row[:3] for row in rows] == [["euler", n, s] for n in ("12", "20") for s in ("1", "2")]
    assert lines[5:7] == ["", "  s  least median"]
    assert [line.split()[0] for line in lines[7:9]] == ["1", "2"]
    # no timing is asserted: whichever s the run found, the exit code
    # says whether it is the constant, which --orders 2 cannot reach
    *_, verdict = lines
    last = int(verdict.split(": ")[1].split(";")[0])
    assert 0 <= last <= 2 and verdict.endswith(f"TANGENT_MAX = {gates.TANGENT_MAX}")
    assert code == 1
    # the verdict: every input at every order up to it wins by the margin
    assert gates.last_winning({1: [2.0, 1.5], 2: [1.2, 1.06], 3: [1.3, 1.04], 4: [2.0]}, 1.05) == 2
    assert gates.last_winning({1: [1.0, 3.0], 2: [2.0]}, 1.05) == 0
    assert gates.last_winning({1: [1.1]}, 1.05) == 1


def test_gates_times_the_long_forms_against_miller_and_compares_the_first_winning_length(
    capsys, monkeypatch
):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import gates

    code = gates.main(["--gate", "shift", "--terms", "12", "20", "--k", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["input", "form", "terms", "long_ms", "miller_ms", "ratio"]
    rows = [line.split() for line in lines[1 : 1 + 2 * len(gates.SHIFT_INPUTS)]]
    assert [row[0] for row in rows[::2]] == [label for label, *_ in gates.SHIFT_INPUTS]
    assert [row[2] for row in rows] == ["12", "20"] * len(gates.SHIFT_INPUTS)
    # each hyper-Bernoulli kind takes the table and each hyper-Cauchy kind
    # `_ordinary`, as on the long prefixes the dispatcher sends there
    assert {row[1] for row in rows if row[0].startswith("hyper-bernoulli")} == {"table"}
    assert {row[1] for row in rows if row[0].startswith("hyper-cauchy")} == {"ordinary"}
    summary = lines[2 + 2 * len(gates.SHIFT_INPUTS) :]
    assert summary[0].split()[:4] == ["terms", "table", "ordinary", "all"]
    assert [line.split()[0] for line in summary[1:3]] == ["12", "20"]
    # no timing is asserted: whichever length the run found, the exit code
    # says whether it is the constant, which 12 and 20 terms cannot be
    *_, verdict = lines
    assert verdict.endswith(f"SHIFT_MIN_TERMS = {gates.SHIFT_MIN_TERMS}")
    assert code == 1
    # the verdict: every input at that length and at every longer one wins
    assert gates.first_winning({40: [0.9], 60: [1.2, 1.06], 80: [1.3, 1.1]}, 1.05) == 60
    assert gates.first_winning({40: [1.2], 60: [1.04], 80: [1.3]}, 1.05) == 80
    assert gates.first_winning({40: [1.2], 60: [1.1, 1.0]}, 1.05) is None


@pytest.fixture(scope="module")
def mutation_table():
    """`scripts/mutants.py` and its whole table on its own grid, run once
    for the tests below (about 7 s of wall time on 2 vCPUs)."""
    sys.path.insert(0, str(SCRIPTS))
    try:
        import mutants
    finally:
        sys.path.remove(str(SCRIPTS))
    assert mutants.missing(mutants.ROWS) == []
    return mutants, mutants.table(mutants.ROWS, mutants.GRID)


class TestMutationVerdict:
    """What `--check` catches, held by tier-1: every edit of the table
    that makes wrong tables has all of them refused, no edit is vacuous
    on the grid, the unedited tree reads clean, and README's table is the
    script's output.  A row may go only with the code it edits."""

    def test_every_wrong_table_is_flagged(self, mutation_table):
        _, rows = mutation_table
        assert [row for row in rows if "crash" in row] == []
        assert [row[0] for row in rows if row[1] != row[2]] == []

    def test_no_edit_is_vacuous(self, mutation_table):
        _, rows = mutation_table
        assert [row[0] for row in rows[1:] if row[1] + row[5] == 0] == []

    def test_the_unedited_tree_reads_clean(self, mutation_table):
        _, rows = mutation_table
        assert rows[0] == ("(no edit)", 0, 0, None, 0, 0)

    def test_readme_holds_the_printed_rows(self, mutation_table):
        mutants, rows = mutation_table
        readme = (SCRIPTS.parent / "README.md").read_text()
        block = readme[readme.index("| edit | wrong | flagged |") :].split("\n\n")[0]
        assert "\n".join(line.strip() for line in block.splitlines()) == mutants.markdown(rows)
