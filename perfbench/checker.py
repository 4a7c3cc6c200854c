"""Checks of appellseq's outputs that do not use appellseq.

Every check is a computation of its own, made from the closed forms of
the families, never a stored copy of earlier output:

* a table a_0..a_N of order r must satisfy the defining identity
  f(t)^r * sum(a_n t^n / n!) = 1 through t^N;
* at r = 1 the Bernoulli table must also have B_n = 0 at every odd
  n >= 3, the von Staudt-Clausen denominators and alternating signs;
* a polynomial value or coefficient list must equal
  A_n^(r)(z) = n! [t^n] e^(zt) f(t)^(-r).

The series identities are checked modulo the prime P = 2^61 - 1.  Every
denominator in these families is a product of integers far below P, so P
divides none of them and the reduction is well defined; a wrong value
passes only if it agrees with the right one modulo P.  f^r and f^(-r)
come from J.C.P. Miller's power recurrence, which the program does not
use.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence

P = (1 << 61) - 1


class CheckError(ValueError):
    """An output that is malformed or not the right value."""


def to_modp(x: Fraction) -> int:
    try:
        return x.numerator % P * pow(x.denominator, -1, P) % P
    except ValueError:
        raise CheckError(f"denominator of {x} is divisible by the check prime") from None


def _rising_modp(x: int, n_max: int) -> list[int]:
    out = [1]
    for i in range(n_max):
        out.append(out[-1] * (x + i) % P)
    return out


def family_d(family: str, m: int, nn: int, n_max: int) -> list[int]:
    """Exponential coefficients d_0..d_{n_max} of f(t), modulo P."""
    if family == "bernoulli":  # (e^t - 1)/t
        return [pow(n + 1, -1, P) for n in range(n_max + 1)]
    if family == "euler":  # (e^t + 1)/2
        return [1] + [pow(2, -1, P)] * n_max
    if family == "hyper-bernoulli":  # 1F1(M; M+N; t)
        num, den = _rising_modp(m, n_max), _rising_modp(m + nn, n_max)
        return [a * pow(b, -1, P) % P for a, b in zip(num, den)]
    if family == "hyper-cauchy":  # 2F1(M, N; N+1; -t)
        a, b, c = _rising_modp(m, n_max), _rising_modp(nn, n_max), _rising_modp(nn + 1, n_max)
        return [(-1) ** k * a[k] * b[k] * pow(c[k], -1, P) % P for k in range(n_max + 1)]
    raise ValueError(f"unknown family {family!r}")


class Checker:
    """Checks outputs; caches f^(+-r) per family, since requests repeat."""

    def __init__(self):
        self._fact = [1]
        self._series: dict[tuple, list[int]] = {}
        # (argv, stdout) pairs already checked: a later pass that prints
        # the same text for the same request is right without a recount.
        self.verified: set[tuple] = set()

    def _factorials(self, n_max: int) -> list[int]:
        while len(self._fact) <= n_max:
            self._fact.append(self._fact[-1] * len(self._fact) % P)
        return self._fact

    def power(self, family: str, m: int, nn: int, alpha: int, n_max: int) -> list[int]:
        """Ordinary coefficients of f(t)^alpha through t^n_max, modulo P.

        Miller's recurrence for g = f^alpha with c_0 = 1:
        g_n = (1/n) sum_{k=1..n} ((alpha+1) k - n) c_k g_{n-k}.
        """
        key = (family, m, nn, alpha, n_max)
        if key not in self._series:
            fact = self._factorials(n_max)
            c = [dk * pow(fact[k], -1, P) % P for k, dk in enumerate(family_d(family, m, nn, n_max))]
            g = [1]
            for n in range(1, n_max + 1):
                s = sum(((alpha + 1) * k - n) * c[k] * g[n - k] for k in range(1, n + 1))
                g.append(s % P * pow(n, -1, P) % P)
            self._series[key] = g
        return self._series[key]

    def check_table(self, family: str, m: int, nn: int, r: int, a: Sequence[Fraction]) -> None:
        """Raise CheckError unless a_0..a_N are the order-r related numbers."""
        n_max = len(a) - 1
        fr = self.power(family, m, nn, r, n_max)
        fact = self._factorials(n_max)
        egf = [to_modp(x) * pow(fact[k], -1, P) % P for k, x in enumerate(a)]
        for n in range(n_max + 1):
            s = sum(fr[k] * egf[n - k] for k in range(n + 1)) % P
            if s != (1 if n == 0 else 0):
                raise CheckError(f"f^{r} * sum a_n t^n/n! != 1 at t^{n}")
        if family == "bernoulli" and r == 1:
            check_bernoulli(a)

    def check_poly(self, family: str, m: int, nn: int, r: int, n: int,
                   z: Optional[Fraction], got: Sequence[Fraction]) -> None:
        """Raise CheckError unless `got` is A_n^(r)(z), or its coefficients
        in ascending powers of z when z is None."""
        g = self.power(family, m, nn, -r, n)
        fact = self._factorials(n)
        # coefficient of z^j in n! [t^n] e^(zt) g(t) is n!/j! g_{n-j}
        coeffs = [fact[n] * pow(fact[j], -1, P) * g[n - j] % P for j in range(n + 1)]
        if z is None:
            if len(got) != n + 1:
                raise CheckError(f"expected {n + 1} coefficients, got {len(got)}")
            for j, (want, x) in enumerate(zip(coeffs, got)):
                if to_modp(x) != want:
                    raise CheckError(f"coefficient of z^{j} is wrong")
            return
        zp, acc = to_modp(z), 0
        for c in reversed(coeffs):
            acc = (acc * zp + c) % P
        if len(got) != 1 or to_modp(got[0]) != acc:
            raise CheckError(f"A_{n}^({r})({z}) is wrong")


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(n + 1) if sieve[p]]


def check_bernoulli(b: Sequence[Fraction]) -> None:
    """Exact properties of B_0..B_N (with B_1 = -1/2)."""
    primes = _primes_upto(len(b))
    for n, x in enumerate(b):
        if n >= 3 and n % 2 == 1:
            if x != 0:
                raise CheckError(f"B_{n} must vanish at odd n >= 3")
        elif n >= 2:
            den = 1
            for p in primes:
                if n % (p - 1) == 0:
                    den *= p
            if x.denominator != den:
                raise CheckError(f"B_{n} has denominator {x.denominator}, von Staudt-Clausen gives {den}")
            if (x > 0) != (n % 4 == 2):
                raise CheckError(f"B_{n} has the wrong sign")


def parse_table(text: str, fmt: str) -> list[Fraction]:
    """a_0..a_N from `compute` output in any of its three formats."""
    lines = text.splitlines()
    if fmt == "csv" and (not lines or lines[0] != "n,value"):
        raise CheckError("csv output lacks its header")
    try:
        if fmt == "json":
            rows = [(v["n"], v["value"]) for v in json.loads(text)["values"]]
        else:
            rows = [line.split("," if fmt == "csv" else None) for line in lines[fmt == "csv":]]
        labels = [int(n) for n, _ in rows]
        values = [Fraction(v) for _, v in rows]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"unparsable table: {exc!r}") from None
    if not values or labels != list(range(len(values))):
        raise CheckError("rows are not labelled 0..N")
    return values


def parse_poly(text: str, fmt: str, kind: str) -> list[Fraction]:
    """The value (as a one-element list) or the coefficients from `poly`."""
    try:
        if fmt == "json":
            doc = json.loads(text)
            items = [doc["value"]] if kind == "value" else doc["coeffs"]
        else:
            items = text.strip().split(", ") if kind == "coeffs" else [text.strip()]
        return [Fraction(s) for s in items]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"unparsable poly output: {exc!r}") from None
