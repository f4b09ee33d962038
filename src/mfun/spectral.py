"""Per-zero coefficients and the oscillating series built from them.

Each ordinate gamma_m yields b_m = (1/2+i*gamma_m)(3/2+i*gamma_m), with
modulus reciprocal c_m and argument beta_m; a CoefficientTable holds the
three as read-only arrays.  The series of interest is
f_N(alpha) = sum_{m<=N} c_m exp(i(alpha*gamma_m - beta_m)); the summatory
Goldbach main term is -4 x^{3/2} Re f(log x).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import f_series
from .errors import RangeError
from .zeros import ZeroTable

__all__ = [
    "CoefficientTable", "build_coefficients", "analytic_tail_remainder",
    "tail_bound", "eval_f_N",
]


@dataclass(frozen=True)
class CoefficientTable:
    """Read-only arrays gamma_m, c_m = 1/|b_m| and beta_m = arg b_m."""
    gamma: np.ndarray
    c: np.ndarray
    beta: np.ndarray

    def __len__(self) -> int:
        return len(self.gamma)

    def check_order(self, n: int) -> None:
        if not 1 <= n <= len(self):
            raise RangeError(f"truncation order {n} outside 1..{len(self)}")


def build_coefficients(table: ZeroTable) -> CoefficientTable:
    """c_m and beta_m for every ordinate of a zero table.

    Each b_m is one Python complex product, and c_m and beta_m its
    reciprocal modulus and ``cmath.phase``.  For gamma_m > 0, beta_m lies
    in (0, pi), |c_m gamma_m^2 - 1| <= 2/gamma_m^2, and c_m falls as
    gamma_m rises.
    """
    b = [complex(0.5, g) * complex(1.5, g) for g in table.gammas.tolist()]
    c = np.array([1.0 / abs(x) for x in b])
    beta = np.array([cmath.phase(x) for x in b])
    c.setflags(write=False)
    beta.setflags(write=False)
    return CoefficientTable(table.gammas, c, beta)


def analytic_tail_remainder(gamma_max: float, p: int) -> float:
    """Sum of gamma_m^-p over the zeros above gamma_max, by zero density.

    integral_{gamma_max}^inf log(t/2pi)/(2pi) t^-p dt in closed form, for
    p > 1.  Since c_m < 1/gamma_m^2, p = 2 bounds the tail of c_m and
    p = 4 that of c_m^2.
    """
    q = p - 1
    return ((math.log(gamma_max / (2 * math.pi)) / q + 1.0 / q ** 2)
            / (2 * math.pi * gamma_max ** q))


def tail_bound(table: CoefficientTable, n: int, power: int = 1) -> float:
    """Upper bound for sum of c_m^power over m > n: the table's terms past
    n plus ``analytic_tail_remainder`` at p = 2 power, as c_m^power <
    gamma_m^(-2 power).  power 1 bounds the limit's support radius,
    power 2 the characteristic-function gap of its error budget."""
    table.check_order(n)
    return float(np.sum(table.c[n:] ** power)) + analytic_tail_remainder(
        float(table.gamma[-1]), 2 * power)


def eval_f_N(table: CoefficientTable, n: int, alpha):
    """Finite sum f_N(alpha) for a scalar alpha or an array of any shape.

    A scalar alpha returns bit for bit the matching element of an array
    call: the kernel sums each point on its own, in ascending m.
    """
    table.check_order(n)
    arr = np.asarray(alpha, dtype=np.float64)
    out = f_series(arr.reshape(-1), table.c[:n], table.gamma[:n],
                   table.beta[:n])
    return complex(out[0]) if np.isscalar(alpha) else out.reshape(arr.shape)
