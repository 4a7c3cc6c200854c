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

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .arith import parse_rational
from .engine import CoefficientSequence, NormalizationError

BERNOULLI = "bernoulli"
EULER = "euler"
HYPER_BERNOULLI = "hyper_bernoulli"
HYPER_CAUCHY = "hyper_cauchy"
CUSTOM = "custom"

_PARAMETRIC_KINDS = (HYPER_BERNOULLI, HYPER_CAUCHY)


@dataclass(frozen=True)
class FamilySpec:
    """A named generating family, or a custom coefficient list."""

    kind: str
    m: Optional[int] = None
    n: Optional[int] = None
    values: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        if self.kind in _PARAMETRIC_KINDS:
            if self.m is None or self.n is None or self.m < 1 or self.n < 1:
                raise ValueError(
                    f"{self.kind} needs integer parameters M >= 1 and N >= 1"
                )
        elif self.kind == CUSTOM:
            if not self.values:
                raise ValueError("custom family needs a nonempty value list")
            if self.values[0] != 1:
                raise NormalizationError(f"d_0 must be 1 (got {self.values[0]})")
        elif self.kind not in (BERNOULLI, EULER):
            raise ValueError(f"unknown family kind {self.kind!r}")

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
    """Exact d_0..d_{n_max} for the given family; d_0 = 1 in every kind."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if spec.kind == BERNOULLI:
        d = [Fraction(1, n + 1) for n in range(n_max + 1)]
    elif spec.kind == EULER:
        d = [Fraction(1)] + [Fraction(1, 2)] * n_max
    elif spec.kind == HYPER_BERNOULLI:
        # d_n = d_{n-1} (M+n-1)/(M+N+n-1): each rising factorial gains one
        # factor per step, O(n) products for the table.
        d = [Fraction(1)]
        for k in range(n_max):
            d.append(d[-1] * Fraction(spec.m + k, spec.m + spec.n + k))
    elif spec.kind == HYPER_CAUCHY:
        # d_n = -d_{n-1} (M+n-1)(N+n-1)/(N+n), likewise incremental.
        d = [Fraction(1)]
        for k in range(n_max):
            d.append(d[-1] * Fraction(-(spec.m + k) * (spec.n + k), spec.n + 1 + k))
    elif spec.kind == CUSTOM:
        if n_max >= len(spec.values):
            raise ValueError(
                f"custom family provides d_0..d_{len(spec.values) - 1}, "
                f"cannot serve n_max={n_max}"
            )
        d = list(spec.values[: n_max + 1])
    else:  # pragma: no cover - kinds are validated on construction
        raise ValueError(f"unknown family kind {spec.kind!r}")
    return CoefficientSequence(tuple(d))


def load_custom_family(path: Union[str, Path]) -> FamilySpec:
    """Read a custom family file: one "p/q" per line, d_0 first.

    Blank lines and lines starting with '#' are ignored.  The first value
    must equal 1 (the normalization every algorithm assumes).
    """
    path = Path(path)
    values = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(parse_rational(line))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not values:
        raise ValueError(f"{path}: no coefficients found")
    if values[0] != 1:
        raise NormalizationError(f"{path}: d_0 must be 1 (got {values[0]})")
    return FamilySpec.custom(values)
