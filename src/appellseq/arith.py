"""Exact scalar arithmetic and combinatorial primitives: the wire format
("p/q" strings, parsed to a `Fraction` and printed from a Fraction or an
integer pair), the lift of rationals to integer numerators over one
denominator, the factorial prefix 0!..n!, the integer convolution, the
kernels' per-call statistics, `Record`, the immutable value base of the
package's records, and the composition witness's cap and work bound,
which the command line states in its `--cap` help.
"""

from __future__ import annotations

import math
import re
import time
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Any, Callable, MutableMapping, Optional, Sequence

#: Optional per-call statistics of a kernel, kept by `step_rows`:
#: "max_num_bits", the bit length of its largest intermediate (or the
#: value already there, if larger), and, when the caller puts a list under
#: "steps", one row appended to it per output index n: (seconds since the
#: kernel started when a_n was known, this call's running peak bits).
StatsDict = MutableMapping[str, Any]

#: Largest n the composition route serves by default: its power triangle
#: costs O(n^3) products of numbers that grow with n.
DEFAULT_COMPOSITION_CAP = 50

#: Largest n * bit_length(max_e |N_e|) the composition route takes on, where
#: N_e are f's d_1/1!..d_n/n! lifted to integers over one denominator: the
#: triangle's products grow with those bits as well as with n, and r adds
#: only the weights C(r+k-1, k).  Past it, a whole composition table is
#: refused and `--check` takes the composition leg to the largest n inside it.
MAX_COMPOSITION_WORK = 2**18

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*(\d+))?")


_set = object.__setattr__  # sets a Record's field; only Record.__init__ calls it


class Record:
    """An immutable value object over the fields its class names in
    `__slots__`, in constructor order: `==` and `hash` over its class and
    those fields, `repr` over the fields but `_hidden`, as a frozen
    dataclass has them, and any attribute assignment or deletion raises
    AttributeError.  `Record.__init__(self, *values)` sets the fields
    once, in `__slots__` order; a subclass's `__init__` validates its
    arguments and then makes that one call.  `copy` and `pickle` rebuild
    a record through its class's `__init__`."""

    __slots__ = ()
    _hidden = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __reduce__(self):
        return self.__class__, tuple(map(getattr, repeat(self), self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__reduce__() == other.__reduce__()
        return NotImplemented

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = (f"{k}={getattr(self, k)!r}" for k in self.__slots__ if k not in self._hidden)
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
