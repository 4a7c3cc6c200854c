"""Catalog of generating-function families producing coefficient sequences.

Each family fixes the exponential coefficients d_n of f(t):

* bernoulli:        f(t) = (e^t - 1)/t,      d_n = 1/(n+1)
* euler:            f(t) = (e^t + 1)/2,      d_0 = 1, d_n = 1/2 (n >= 1)
* hyper_bernoulli:  f(t) = 1F1(M; M+N; t),   d_n = (M)^(n) / (M+N)^(n)
* hyper_cauchy:     f(t) = 2F1(M, N; N+1; -t),
                    d_n = (-1)^n (M)^(n) (N)^(n) / (N+1)^(n)
* custom:           user-supplied d_n from a file

where (x)^(n) is the rising factorial.  The alternating sign of the
hypergeometric Cauchy kind is folded into d_n so every family presents
the same normalized f(t) to the engine.  M = N = 1 recovers the classical
Bernoulli and Cauchy numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from os import PathLike
from typing import Optional

from .arith import lift, parse_rational
from .engine import CoefficientSequence, NormalizationError, Record, _set

BERNOULLI = "bernoulli"
EULER = "euler"
HYPER_BERNOULLI = "hyper_bernoulli"
HYPER_CAUCHY = "hyper_cauchy"
CUSTOM = "custom"

_PARAMETRIC_KINDS = (HYPER_BERNOULLI, HYPER_CAUCHY)


class FamilySpec(Record):
    """A named generating family, or a custom coefficient list."""

    __slots__ = ("kind", "m", "n", "values")

    def __init__(
        self,
        kind: str,
        m: Optional[int] = None,
        n: Optional[int] = None,
        values: Optional[tuple[Fraction, ...]] = None,
    ):
        if kind in _PARAMETRIC_KINDS:
            if type(m) is not int or type(n) is not int or m < 1 or n < 1:
                raise ValueError(f"{kind} needs integer parameters M >= 1 and N >= 1")
        elif kind == CUSTOM:
            if not values:
                raise ValueError("custom family needs a nonempty value list")
            if values[0] != 1:
                raise NormalizationError(f"d_0 must be 1 (got {values[0]})")
        elif kind not in (BERNOULLI, EULER):
            raise ValueError(f"unknown family kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "values", values)

    @classmethod
    def bernoulli(cls) -> "FamilySpec":
        return cls(BERNOULLI)

    @classmethod
    def euler(cls) -> "FamilySpec":
        return cls(EULER)

    @classmethod
    def hyper_bernoulli(cls, m: int, n: int) -> "FamilySpec":
        return cls(HYPER_BERNOULLI, m=m, n=n)

    @classmethod
    def hyper_cauchy(cls, m: int, n: int) -> "FamilySpec":
        return cls(HYPER_CAUCHY, m=m, n=n)

    @classmethod
    def custom(cls, values) -> "FamilySpec":
        return cls(CUSTOM, values=tuple(Fraction(v) for v in values))

    @property
    def label(self) -> str:
        if self.kind in _PARAMETRIC_KINDS:
            return f"{self.kind.replace('_', '-')}({self.m},{self.n})"
        return self.kind


def family_coefficients(spec: FamilySpec, n_max: int) -> CoefficientSequence:
    """Exact d_0..d_{n_max} for the given family (d_0 = 1), as integer
    numerators over one denominator, built with no Fraction: Bernoulli
    over lcm(1..n_max+1), Euler over 2, a custom list lifted once, the
    hypergeometric kinds over products of their denominators' factors,
    which `CoefficientSequence.prefix` reduces by one gcd."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    m, nn, k_max = spec.m, spec.n, range(n_max + 1)
    if spec.kind == BERNOULLI:
        L = math.lcm(*range(1, n_max + 2))
        P = [L // (k + 1) for k in k_max]
    elif spec.kind == EULER:
        L, P = 2, [2] + [1] * n_max
    elif spec.kind == HYPER_BERNOULLI:
        # d_k = (M)^(k) (M+N+k)^(n_max-k) / (M+N)^(n_max), O(n) products
        L = rest = math.prod(range(m + nn, m + nn + n_max))
        P, top = [], 1
        for k in k_max:
            P.append(top * rest)
            top *= m + k
            rest //= m + nn + k
    elif spec.kind == HYPER_CAUCHY:
        # (N)^(k) / (N+1)^(k) = N / (N+k), so d_k = (-1)^k N (M)^(k) / (N+k)
        L = math.lcm(*range(nn, nn + n_max + 1))
        P, top = [], nn
        for k in k_max:
            P.append((-top if k & 1 else top) * (L // (nn + k)))
            top *= m + k
    elif spec.kind == CUSTOM:
        if n_max >= len(spec.values):
            raise ValueError(
                f"custom family provides d_0..d_{len(spec.values) - 1}, "
                f"cannot serve n_max={n_max}"
            )
        L, P = lift(spec.values[: n_max + 1])
    else:  # pragma: no cover - kinds are validated on construction
        raise ValueError(f"unknown family kind {spec.kind!r}")
    return CoefficientSequence(tuple(P), L)


def load_custom_family(path: str | PathLike, n_max: Optional[int] = None) -> FamilySpec:
    """Read a custom family file: one "p/q" per line, d_0 first, up to
    d_{n_max} (every value when n_max is None); no line past it is parsed.

    Blank lines and lines starting with '#' are ignored; the file may
    start with one UTF-8 byte-order mark.  The first value must equal 1
    (the normalization every algorithm assumes).
    """
    values = []
    # bytes that are not UTF-8 are kept as surrogates and decoded strictly
    # line by line, so the error names its line: a strict read fails on a
    # chunk read ahead, at no known line.  "utf-8-sig" drops one BOM at the
    # start of the file, and no U+FEFF after it
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as lines:
        for lineno, raw in enumerate(lines, 1):
            try:
                line = raw.encode("utf-8", "surrogateescape").decode("utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                values.append(parse_rational(line))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if len(values) - 1 == n_max:
                break
    if not values:
        raise ValueError(f"{path}: no coefficients found")
    if values[0] != 1:
        raise NormalizationError(f"{path}: d_0 must be 1 (got {values[0]})")
    return FamilySpec.custom(values)
