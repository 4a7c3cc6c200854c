"""Exact arithmetic for the related numbers and Appell polynomials of
higher-order Appell sequences.

Given f(t) = sum_n d_n t^n / n! with d_0 = 1, the related numbers of
order r are defined by 1 / f(t)^r = sum_n a_n^(r) t^n / n!, and the
attached polynomials are A_n^(r)(z) = sum_m binom(n, m) a_m^(r) z^(n-m).
Four routes compute the same numbers and are cross-checked: the
negative power f^(-r) taken straight from f by Miller's recurrence (the
production route), and three witnesses over D_r = f^r: a triangular
recurrence (series inversion of f^r; at r = 1 the negative power
itself), an alternating sum over compositions, and a lower-Hessenberg
determinant by Bareiss elimination.
"""

from .arith import (
    DEFAULT_COMPOSITION_CAP,
    CombinatorialBlowupError,
    binomial,
    compositions,
    format_rational,
    parse_rational,
    rising_factorial,
)
from .determinants import (
    bareiss_det,
    bareiss_leading_minors,
    hessenberg_leading_minors,
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
    polynomial_derivative,
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
    InsufficientPrecisionError,
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
    "InsufficientPrecisionError",
    "NormalizationError",
    "NotInvertibleError",
    "PowerCoefficientTable",
    "RelatedNumberTable",
    "TruncatedSeries",
    "VerificationReport",
    "appell_polynomial",
    "bareiss_det",
    "bareiss_leading_minors",
    "binomial",
    "compositions",
    "compute_D",
    "cross_verify",
    "family_coefficients",
    "format_rational",
    "hessenberg_leading_minors",
    "load_custom_family",
    "parse_rational",
    "polynomial_derivative",
    "polynomial_eval",
    "related_numbers_composition",
    "related_numbers_determinant",
    "related_numbers_negative_power",
    "related_numbers_recurrence",
    "rising_factorial",
]
