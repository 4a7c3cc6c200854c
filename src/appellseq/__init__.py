"""Exact arithmetic for the related numbers and Appell polynomials of
higher-order Appell sequences.

Given f(t) = sum_n d_n t^n / n! with d_0 = 1, the related numbers of
order r are defined by 1 / f(t)^r = sum_n a_n^(r) t^n / n!, and the
attached polynomials are A_n^(r)(z) = sum_m binom(n, m) a_m^(r) z^(n-m).
Four routes compute the same numbers; the docstring of
`appellseq.library` lists them.  `--check` proves the production table
and compares it with the two witnesses that `appellseq.witness` holds.

The package has three layers: the request path (`arith`, `series`,
`engine`, `families`, with `cli` on top), the checks (`witness`) and the
library's extras (`library`), which reads `witness`.  Each public name
is imported from its module when it is first read (PEP 562), so
`import appellseq.cli` loads the request path alone.
"""

__version__ = "0.1.0"

# the module each public name lives in
_HOME = {
    name: module
    for module, names in (
        ("arith", "DEFAULT_COMPOSITION_CAP format_rational parse_rational"),
        ("engine", "CoefficientSequence NormalizationError"),
        ("families", "FamilySpec family_coefficients load_custom_family"),
        ("library", "AppellPolynomial NotInvertibleError PowerCoefficientTable RelatedNumberTable "
                    "TruncatedSeries appell_polynomial compute_D polynomial_eval "
                    "related_numbers_composition related_numbers_determinant "
                    "related_numbers_negative_power related_numbers_recurrence"),
        ("witness", "CombinatorialBlowupError VerificationReport cross_verify"),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A name of `__all__`, read from its module on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    globals()[name] = value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
