"""Smoke tests of the scripts under scripts/, run in process."""

from pathlib import Path

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

    crash = mutants.Edit("series.py", "    g = math.gcd(S, den)\n", "    g = math.gcd(S, den) // 0\n",
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
