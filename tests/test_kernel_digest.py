"""The values the integer kernels return, pinned by one sha256 (VALUE),
and the bit growth they record, pinned by another (COST).

The grid reaches what the CLI pins do not: `_shift`'s probe (n = 200 is
past SHIFT_MIN_TERMS), `_ordinary` (hyper-Cauchy at n = 200), `_seidel`
past m = 2 (hyper-Bernoulli(1, 3) takes m = 3), and the zero tail at
r >= 2 (hyper-Cauchy(3, 2) is a polynomial power).  Each entry is the
values alone: the loop's (M, Q), whose Q is the least common
denominator, and each witness's pair with every value in lowest terms.
So a change that keeps every value keeps the digest, however it forms
them, and any wrong value moves it.  Integers are hashed in
hexadecimal, which has no digit limit.

COST hashes, for the same grid, each stats-keeping kernel run's
"max_num_bits" and the running peak bits of each of its "steps" rows,
never their seconds: the Miller loop for f^(-r) and for f^r (through
`exponential_power_numerators`, as `power_numerators` keeps no stats) at
every (family, r, n), and Bareiss at WITNESS_N.  A change to a kernel's
operands may move it while VALUE stays; its new pin then says which
columns moved.

`test_value_digest_on_other_interpreters` computes both digests under
every other CPython >= 3.10 it finds, as `python -S` with only `src` and
this directory on the path (the package is stdlib-only, so no pytest is
needed there).  Run this file as a script to print both digests.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from appellseq.engine import negative_power_numerators, power_numerators
from appellseq.families import FamilySpec, family_coefficients
from appellseq.series import exponential_power_numerators
from appellseq.witness import composition_lift, composition_numerators, determinant_numerators

FAMILIES = (
    FamilySpec.bernoulli(),
    FamilySpec.euler(),
    FamilySpec.hyper_bernoulli(2, 3),
    FamilySpec.hyper_bernoulli(1, 3),
    FamilySpec.hyper_cauchy(2, 3),
    FamilySpec.hyper_cauchy(3, 2),
)
ORDERS = (1, 2, 3, 7, 16)
SIZES = (40, 200)
#: n of the determinant and composition pairs
WITNESS_N = 40

VALUE = "7f25da8c8853188c15b6d016548637aee343bef0a27c8791ccb55be8dd1c801e"
COST = "1350a9e0650db648f358497a90de9a0fb892cd9f7cce0bd07dd778d83300b9fd"


def lowest_terms(num, den):
    """Each num[n] / den[n] in lowest terms, as a flat list of integers."""
    return [x for value in map(Fraction, num, den) for x in value.as_integer_ratio()]


def kernel_runs():
    """(label, integers) for every kernel run of the grid, in a fixed order."""
    for spec in FAMILIES:
        seq = family_coefficients(spec, max(SIZES))
        for r in ORDERS:
            for n in SIZES:
                for name, kernel in (("f^-r", negative_power_numerators),
                                     ("f^r", power_numerators)):
                    M, Q = kernel(seq, r, n)
                    yield f"{spec.label} r={r} n={n} {name}", [*M, Q]
            signed, scales = determinant_numerators(*power_numerators(seq, r, WITNESS_N), WITNESS_N)
            yield f"{spec.label} r={r} bareiss", lowest_terms(signed, scales)
            S, L_pow = composition_numerators(
                *composition_lift(*seq.prefix(WITNESS_N), WITNESS_N), r)
            yield f"{spec.label} r={r} composition", lowest_terms(S, L_pow)


def value_digest():
    digest = hashlib.sha256()
    for label, integers in kernel_runs():
        digest.update(f"{label}\0{','.join(map(hex, integers))}\0".encode())
    return digest.hexdigest()


def test_value_digest():
    assert value_digest() == VALUE


def peak_bits(kernel, *args):
    """A kernel run's "max_num_bits" and the running peak of each of its
    "steps" rows."""
    stats = {"steps": []}
    kernel(*args, stats=stats)
    return [stats.get("max_num_bits", 0), *(bits for _, bits in stats["steps"])]


def cost_runs():
    """(label, peak bits) for every stats-keeping kernel run of the grid."""
    for spec in FAMILIES:
        seq = family_coefficients(spec, max(SIZES))
        for r in ORDERS:
            for n in SIZES:
                yield f"{spec.label} r={r} n={n} f^-r", peak_bits(
                    negative_power_numerators, seq, r, n)
                yield f"{spec.label} r={r} n={n} f^r", peak_bits(
                    exponential_power_numerators, *seq.prefix(n), r)
            yield f"{spec.label} r={r} bareiss", peak_bits(
                determinant_numerators, *power_numerators(seq, r, WITNESS_N), WITNESS_N)


def cost_digest():
    digest = hashlib.sha256()
    for label, bits in cost_runs():
        digest.update(f"{label}\0{','.join(map(str, bits))}\0".encode())
    return digest.hexdigest()


def test_cost_digest():
    assert cost_digest() == COST


HERE = Path(__file__).resolve().parent
VERSION = "import sys; print(sys.implementation.name, *sys.version_info[:3])"


def other_interpreters():
    """{version: executable} for every CPython >= 3.10 other than this one
    among the python3.N names on PATH and pyenv's versions.  A name on
    PATH may be a shim with no interpreter behind it, so each candidate
    runs and reports its own version, and only a clean exit counts."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = {*filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 30)))}
    candidates.update(map(str, pyenv.glob("versions/*/bin/python")))
    runs = {exe: subprocess.Popen([exe, "-S", "-c", VERSION], stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            for exe in sorted(candidates)}
    mine = ("cpython", *sys.version_info[:3])
    found = {}
    for exe, run in runs.items():
        out = run.communicate(timeout=60)[0].split()
        if run.returncode == 0 and len(out) == 4 and out[0] == "cpython":
            version = ("cpython", *map(int, out[1:]))
            if version >= ("cpython", 3, 10) and version != mine:
                found.setdefault(version, exe)
    return found


def test_value_digest_on_other_interpreters():
    import pytest  # here, so that the file runs as a script without it

    found = other_interpreters()
    if not found:
        pytest.skip("no other CPython >= 3.10 found on PATH or under pyenv")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE.parent / "src"), str(HERE)])}
    runs = {version: subprocess.Popen([exe, "-S", str(Path(__file__).resolve())],
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      text=True, env=env)
            for version, exe in found.items()}
    for version, run in runs.items():
        out, err = run.communicate(timeout=120)
        assert (run.returncode, out.split()) == (0, [VALUE, COST]), (version, err)


if __name__ == "__main__":
    print(value_digest())
    print(cost_digest())
