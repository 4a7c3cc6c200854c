"""The values the integer kernels return, pinned by one sha256 (VALUE).

The grid reaches what the CLI pins do not: `_shift`'s probe (n = 200 is
past SHIFT_MIN_TERMS), `_seidel` past m = 2 (hyper-Bernoulli(1, 3) takes
m = 3), and the zero tail at r >= 2 (hyper-Cauchy(3, 2) is a polynomial
power).  Each entry is the values alone: the loop's (M, Q), whose Q is
the least common denominator, and each witness's pair with every value
in lowest terms.  So a change that keeps every value keeps the digest,
however it forms them, and any wrong value moves it.  Integers are
hashed in hexadecimal, which has no digit limit.
"""

import hashlib
from fractions import Fraction

from appellseq.engine import (
    composition_numerators,
    determinant_numerators,
    negative_power_numerators,
    power_numerators,
    reduced_power_table,
)
from appellseq.families import FamilySpec, family_coefficients

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
            num, den = reduced_power_table(*power_numerators(seq, r, WITNESS_N))
            signed, scales = determinant_numerators(num, den, WITNESS_N)
            yield f"{spec.label} r={r} bareiss", lowest_terms(signed, scales)
            c_num, c_den = reduced_power_table(*seq.prefix(WITNESS_N))
            S, L_pow = composition_numerators(c_num, c_den, r, WITNESS_N)
            yield f"{spec.label} r={r} composition", lowest_terms(S, L_pow)


def test_value_digest():
    digest = hashlib.sha256()
    for label, integers in kernel_runs():
        digest.update(f"{label}\0{','.join(map(hex, integers))}\0".encode())
    assert digest.hexdigest() == VALUE
