"""Exact scalar arithmetic and combinatorial primitives: the wire format
("p/q" strings, parsed to a `Fraction` and printed from a Fraction or an
integer pair), the lift of rationals to integer numerators over one
denominator, the factorial prefix 0!..n!, the integer convolution,
composition enumeration and the kernels' per-call statistics.
"""

from __future__ import annotations

import math
import re
import time
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Any, Callable, Iterator, MutableMapping, Optional, Sequence

#: Largest n the composition route (and `compositions`) serves by default.
#: The route's power triangle costs O(n^3) products of numbers that grow
#: with n: 7 / 17 / 60 / 170 ms at n <= 34 / 40 / 50 / 60 (Bernoulli,
#: r = 1, one core of a 2-vCPU Xeon VM, Python 3.11); past the cap it is
#: refused.
DEFAULT_COMPOSITION_CAP = 50

#: Largest n * bit_length(max_e |N_e|) the composition route takes on, where
#: N_e are f's d_1/1!..d_n/n! lifted to integers over one denominator: the
#: triangle's products grow with those bits as well as with n, and r adds
#: only the weights C(r+k-1, k).  Its kernel at n = 50 costs, on Euler
#: (about 10 750), 0.035 / 0.12 / 0.44 s at r = 1, 2^200, 2^1310 - 1, and
#: at the bound 0.14 s on hyper-Cauchy (2^109, 1) but 15.6 s on
#: hyper-Bernoulli (2^106, 1) (same machine as above).  Past it, a whole
#: composition table is refused and `--check` takes the composition leg to
#: the largest n inside it.
MAX_COMPOSITION_WORK = 2**18

#: Optional per-call statistics of a kernel, kept by `step_rows`:
#: "max_num_bits", the bit length of its largest intermediate (or the
#: value already there, if larger), and, when the caller puts a list under
#: "steps", one row appended to it per output index n: (seconds since the
#: kernel started when a_n was known, this call's running peak bits).
StatsDict = MutableMapping[str, Any]

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*(\d+))?")


class CombinatorialBlowupError(ValueError):
    """Raised when an enumeration of compositions or partitions would exceed
    the configured cap."""


def step_rows(stats: Optional[StatsDict]) -> Optional[Callable[[int], None]]:
    """None when `stats` is None, else a kernel's one step recorder, called
    at each n >= 1 with the bits of step n's largest intermediate: it
    keeps `stats` (`StatsDict`), whose rows start with index 0's (0.0, 0)."""
    if stats is None:
        return None
    stats.setdefault("max_num_bits", 0)
    steps, start = stats.get("steps", []), time.perf_counter()
    steps.append((0.0, 0))

    def step(bits: int) -> None:
        steps.append((time.perf_counter() - start, max(steps[-1][1], bits)))
        stats["max_num_bits"] = max(stats["max_num_bits"], bits)

    return step


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


def format_rational(x: Fraction) -> str:
    """Render a rational as "p/q" in lowest terms, or "p" when q == 1.

    Zero renders as "0".  This is the serialization used by every file and
    CLI format in the package, and it round-trips through parse_rational.
    The output is str(Fraction(x)), but without Python's int->str digit
    limit: the package's own results may run to any length.  Parsing
    (`parse_rational`, custom files) keeps the limit.
    """
    return format_ratio(x.numerator, x.denominator)


def format_ratio(num: int, den: int) -> str:
    """`format_rational(Fraction(num, den))`, den > 0, by one gcd and no
    Fraction."""
    g = math.gcd(num, den)
    if g > 1:
        num, den = num // g, den // g
    try:
        return f"{num}/{den}" if den > 1 else str(num)
    except ValueError:  # a numerator or denominator past the limit
        return _decimal(num) + (f"/{_decimal(den)}" if den > 1 else "")


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


def factorials(n_max: int) -> list[int]:
    """0!, 1!, ..., n_max!."""
    return list(accumulate(range(1, n_max + 1), mul, initial=1))


def lift(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """L = lcm(den xs) and the integer numerators x L."""
    L = math.lcm(*(x.denominator for x in xs))
    return L, [x.numerator * (L // x.denominator) for x in xs]


def convolve(a: Sequence[int], b: Sequence[int], k: int) -> list[int]:
    """The first k terms sum_{j<=n} a_j b_(n-j), n < k, of the Cauchy
    product of two integer lists, k <= min(len(a), len(b))."""
    return [sum(map(mul, a[: n + 1], b[n::-1])) for n in range(k)]


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
