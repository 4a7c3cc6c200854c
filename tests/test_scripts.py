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
