"""Exact arithmetic for the related numbers and Appell polynomials of
higher-order Appell sequences.

Given f(t) = sum_n d_n t^n / n! with d_0 = 1, the related numbers of
order r are defined by 1 / f(t)^r = sum_n a_n^(r) t^n / n!, and the
attached polynomials are A_n^(r)(z) = sum_m binom(n, m) a_m^(r) z^(n-m).
Four routes compute the same numbers and are cross-checked; the
docstring of `appellseq.engine` lists them.
"""

from .arith import (
    DEFAULT_COMPOSITION_CAP,
    CombinatorialBlowupError,
    format_rational,
    parse_rational,
)
from .engine import (
    AppellPolynomial,
    CoefficientSequence,
    NormalizationError,
    PowerCoefficientTable,
    RelatedNumberTable,
    VerificationReport,
    appell_polynomial,
    compute_D,
    cross_verify,
    polynomial_eval,
    related_numbers_composition,
    related_numbers_determinant,
    related_numbers_negative_power,
    related_numbers_recurrence,
)
from .families import (
    FamilySpec,
    family_coefficients,
    load_custom_family,
)
from .series import (
    NotInvertibleError,
    TruncatedSeries,
)

__version__ = "0.1.0"

__all__ = [
    "AppellPolynomial",
    "CoefficientSequence",
    "CombinatorialBlowupError",
    "DEFAULT_COMPOSITION_CAP",
    "FamilySpec",
    "NormalizationError",
    "NotInvertibleError",
    "PowerCoefficientTable",
    "RelatedNumberTable",
    "TruncatedSeries",
    "VerificationReport",
    "appell_polynomial",
    "compute_D",
    "cross_verify",
    "family_coefficients",
    "format_rational",
    "load_custom_family",
    "parse_rational",
    "polynomial_eval",
    "related_numbers_composition",
    "related_numbers_determinant",
    "related_numbers_negative_power",
    "related_numbers_recurrence",
]
