"""Value-distribution of the main term in the summatory Goldbach problem.

The package builds the radial limit density by Hankel inversion of an
infinite product of Bessel factors, checks it against torus Monte-Carlo
sampling and long averages over the real line, and validates the
arithmetic side (Goldbach representation counts) at desk scale.
"""

from .density import (
    DensityProfile,
    char_M_N,
    convolve_step,
    integrate_against,
    invert_limit_density,
    invert_to_density,
    support_radius,
)
from .empirical import compare_report, haar_oracle, weyl_test
from .errors import (
    AmbiguousBracketError,
    MfunError,
    PrecisionError,
    QuadratureError,
    RangeError,
    ZeroTableError,
)
from .goldbach import a2_curve, compare_main_term, sieve_lambda, singular_series
from .spectral import CoefficientTable, build_coefficients, eval_f_N, tail_bound
from .testfuncs import TestFunction
from .zeros import ZeroTable, bundled_zeros_path, load_zeros, verify_table

__version__ = "0.1.0"

__all__ = [
    "AmbiguousBracketError",
    "CoefficientTable",
    "DensityProfile",
    "MfunError",
    "PrecisionError",
    "QuadratureError",
    "RangeError",
    "TestFunction",
    "ZeroTable",
    "ZeroTableError",
    "a2_curve",
    "build_coefficients",
    "bundled_zeros_path",
    "char_M_N",
    "compare_main_term",
    "compare_report",
    "convolve_step",
    "eval_f_N",
    "haar_oracle",
    "integrate_against",
    "invert_limit_density",
    "invert_to_density",
    "load_zeros",
    "sieve_lambda",
    "singular_series",
    "support_radius",
    "tail_bound",
    "verify_table",
    "weyl_test",
    "__version__",
]
