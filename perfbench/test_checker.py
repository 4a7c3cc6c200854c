"""The checker accepts right outputs and rejects wrong ones.

Run with:  python3 -m pytest perfbench/test_checker.py

The right tables come from plain exact series arithmetic written here,
not from appellseq and not from the checker's modular code.
"""

import json
import math
from fractions import Fraction

import pytest

from checker import Checker, CheckError, check_bernoulli, parse_poly, parse_table

FAMILIES = [("bernoulli", 1, 1), ("euler", 1, 1), ("hyper-bernoulli", 2, 3), ("hyper-cauchy", 2, 3)]


def rising(x, n):
    return math.prod(range(x, x + n))


def exact_d(family, m, nn, k):
    if family == "bernoulli":
        return Fraction(1, k + 1)
    if family == "euler":
        return Fraction(1 if k == 0 else Fraction(1, 2))
    if family == "hyper-bernoulli":
        return Fraction(rising(m, k), rising(m + nn, k))
    return Fraction((-1) ** k * rising(m, k) * rising(nn, k), rising(nn + 1, k))


def exact_table(family, m, nn, r, n_max):
    """a_0..a_n_max as n! [t^n] f(t)^(-r), by series product and inversion."""
    c = [exact_d(family, m, nn, k) / math.factorial(k) for k in range(n_max + 1)]
    f_r = [Fraction(1)] + [Fraction(0)] * n_max
    for _ in range(r):
        f_r = [sum(f_r[j] * c[n - j] for j in range(n + 1)) for n in range(n_max + 1)]
    inv = [Fraction(1)]
    for n in range(1, n_max + 1):
        inv.append(-sum(f_r[j] * inv[n - j] for j in range(1, n + 1)))
    return [math.factorial(n) * x for n, x in enumerate(inv)]


@pytest.mark.parametrize("family,m,nn", FAMILIES)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_right_table_passes(family, m, nn, r):
    Checker().check_table(family, m, nn, r, exact_table(family, m, nn, r, 24))


@pytest.mark.parametrize("family,m,nn", FAMILIES)
@pytest.mark.parametrize("r", [1, 2])
def test_one_perturbed_entry_is_rejected(family, m, nn, r):
    table = exact_table(family, m, nn, r, 24)
    for k in (0, 1, 7, 24):
        bad = list(table)
        bad[k] += Fraction(1, 10**30)
        with pytest.raises(CheckError):
            Checker().check_table(family, m, nn, r, bad)


@pytest.mark.parametrize("family,m,nn", FAMILIES)
def test_one_flipped_sign_is_rejected(family, m, nn):
    table = exact_table(family, m, nn, 2, 24)
    for k in (1, 2, 13, 24):
        assert table[k] != 0
        bad = list(table)
        bad[k] = -bad[k]
        with pytest.raises(CheckError):
            Checker().check_table(family, m, nn, 2, bad)


def test_bernoulli_exact_properties():
    b = exact_table("bernoulli", 1, 1, 1, 30)
    assert b[12] == Fraction(-691, 2730)
    check_bernoulli(b)
    for k, wrong in ((12, Fraction(691, 2730)), (12, Fraction(-691, 1365)), (13, Fraction(1, 10**9))):
        bad = list(b)
        bad[k] = wrong
        with pytest.raises(CheckError, match=f"B_{k} "):
            check_bernoulli(bad)


@pytest.mark.parametrize("family,m,nn", FAMILIES)
def test_poly_value_and_coefficients(family, m, nn):
    n, r, z = 12, 2, Fraction(-3, 7)
    a = exact_table(family, m, nn, r, n)
    coeffs = [math.comb(n, j) * a[n - j] for j in range(n + 1)]
    value = sum(c * z**j for j, c in enumerate(coeffs))
    chk = Checker()
    chk.check_poly(family, m, nn, r, n, z, [value])
    chk.check_poly(family, m, nn, r, n, None, coeffs)
    with pytest.raises(CheckError):
        chk.check_poly(family, m, nn, r, n, z, [-value])
    bad = list(coeffs)
    bad[3] += 1
    with pytest.raises(CheckError):
        chk.check_poly(family, m, nn, r, n, None, bad)


def test_parsers_read_every_format():
    a = exact_table("euler", 1, 1, 1, 5)
    csv = "n,value\n" + "".join(f"{n},{x}\n" for n, x in enumerate(a))
    doc = json.dumps({"family": "euler", "order": 1,
                      "values": [{"n": n, "value": str(x)} for n, x in enumerate(a)]})
    pretty = "".join(f"{n}  {x}\n" for n, x in enumerate(a))
    for text, fmt in ((csv, "csv"), (doc, "json"), (pretty, "pretty")):
        assert parse_table(text, fmt) == a
    with pytest.raises(CheckError):
        parse_table(pretty.replace("3  ", "4  "), "pretty")
    assert parse_poly("1/2, -3, 0\n", "pretty", "coeffs") == [Fraction(1, 2), -3, 0]
    assert parse_poly(json.dumps({"value": "-7/9"}), "json", "value") == [Fraction(-7, 9)]
