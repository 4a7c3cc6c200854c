"""Exact scalar arithmetic and combinatorial primitives.

Every numeric value in this package is a `fractions.Fraction`: arbitrary
precision, stored in lowest terms with a positive denominator, so equality
is structural and safe for cross-algorithm comparison.  The helpers here
add the wire format ("p/q" strings), the binomial convention used by the
Hasse-Teichmueller derivative, rising factorials and composition
enumeration.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, MutableMapping, Union

#: Largest n the composition route (and `compositions`) serves by default.
#: The route's power triangle costs O(n^3) products of numbers that grow
#: with n: 7 / 17 / 60 / 170 ms at n <= 34 / 40 / 50 / 60 (Bernoulli,
#: r = 1, one core of a 2-vCPU Xeon VM, Python 3.11).  At 50 it costs
#: about half of what the partition walk it replaced cost at the old cap
#: of 34; past the cap it is refused.
DEFAULT_COMPOSITION_CAP = 50

RationalLike = Union[Fraction, int]

#: Optional per-call statistics; kernels record "max_num_bits" in it.
StatsDict = MutableMapping[str, int]

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*(\d+))?")


class CombinatorialBlowupError(ValueError):
    """Raised when an enumeration of compositions or partitions would exceed
    the configured cap."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer) into a Fraction.

    Only the integer and integer/positive-integer forms are accepted;
    decimal or float notation is rejected.
    """
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a p/q rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(x: RationalLike) -> str:
    """Render a rational as "p/q" in lowest terms, or "p" when q == 1.

    Zero renders as "0".  This is the serialization used by every file and
    CLI format in the package, and it round-trips through parse_rational.
    The output is str(Fraction(x)), but without Python's int->str digit
    limit: the package's own results may run to any length.  Parsing
    (`parse_rational`, custom files) keeps the limit.
    """
    x = x if isinstance(x, Fraction) else Fraction(x)
    try:
        return str(x)
    except ValueError:  # a numerator or denominator past the limit
        if x.denominator == 1:
            return _decimal(x.numerator)
        return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def _decimal(x: int) -> str:
    """str(x) for an int of any length.

    An int past the interpreter's int->str digit limit is split by a power
    of ten near half its digits, and the halves are rendered the same way.
    """
    try:
        return str(x)
    except ValueError:
        k = x.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
        hi, lo = divmod(abs(x), 10**k)
        return ("-" if x < 0 else "") + _decimal(hi) + _decimal(lo).zfill(k)


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that k < 0 or k > n gives 0."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def rising_factorial(x: RationalLike, n: int) -> Fraction:
    """Rising factorial x(x+1)...(x+n-1); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError(f"rising_factorial needs n >= 0, got {n}")
    x = Fraction(x)
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def compositions(
    n: int,
    k: int,
    *,
    weak: bool = False,
    cap: int | None = DEFAULT_COMPOSITION_CAP,
) -> Iterator[tuple[int, ...]]:
    """Enumerate the compositions of n into exactly k parts, lexicographically.

    Strict compositions (the default) have every part >= 1 and number
    C(n-1, k-1); weak compositions allow zero parts and number
    C(n+k-1, k-1).  The order is deterministic (ascending lexicographic),
    and each tuple is produced exactly once.

    Raises CombinatorialBlowupError when n exceeds `cap` (pass cap=None to
    disable the guard).
    """
    if n < 0:
        raise ValueError(f"compositions needs n >= 0, got {n}")
    if k < 1:
        raise ValueError(f"compositions needs k >= 1, got {k}")
    if cap is not None and n > cap:
        raise CombinatorialBlowupError(
            f"refusing to enumerate compositions of n={n}: "
            f"enumeration cap is {cap}"
        )
    return _compositions(n, k, 0 if weak else 1)


def _compositions(n: int, k: int, lo: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        if n >= lo:
            yield (n,)
        return
    for first in range(lo, n - lo * (k - 1) + 1):
        for rest in _compositions(n - first, k - 1, lo):
            yield (first,) + rest
