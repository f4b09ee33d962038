"""Per-zero coefficients and the oscillating series built from them.

Each ordinate gamma_m yields b_m = (1/2+i*gamma_m)(3/2+i*gamma_m), with
modulus reciprocal c_m and argument beta_m.  The series of interest is
f_N(alpha) = sum_{m<=N} c_m exp(i(alpha*gamma_m - beta_m)); the summatory
Goldbach main term is -4 x^{3/2} Re f(log x).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import f_series
from .errors import PrecisionError, RangeError
from .zeros import ZeroTable

__all__ = [
    "Coefficient", "CoefficientTable", "build_coefficients",
    "analytic_tail_remainder", "tail_bound", "eval_f_N", "eval_f",
    "main_term",
]


@dataclass(frozen=True)
class Coefficient:
    index: int
    gamma: float
    b: complex
    c: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < math.pi:
            raise ValueError(f"beta_{self.index} = {self.beta} outside (0, pi)")
        g2 = self.gamma ** 2
        if abs(self.c * g2 - 1.0) > 2.0 / g2:
            raise ValueError(f"coefficient invariant violated at index "
                             f"{self.index}: |c*gamma^2 - 1| > 2/gamma^2")


@dataclass(frozen=True)
class CoefficientTable:
    coefficients: tuple[Coefficient, ...]

    def __post_init__(self):
        cs = self.c
        if np.any(np.diff(cs) >= 0):
            raise ValueError("c_m must be strictly decreasing")

    def __len__(self) -> int:
        return len(self.coefficients)

    @property
    def gamma(self) -> np.ndarray:
        return np.array([co.gamma for co in self.coefficients])

    @property
    def c(self) -> np.ndarray:
        return np.array([co.c for co in self.coefficients])

    @property
    def beta(self) -> np.ndarray:
        return np.array([co.beta for co in self.coefficients])

    def check_order(self, n: int) -> None:
        if not 1 <= n <= len(self):
            raise RangeError(f"truncation order {n} outside 1..{len(self)}")


def coefficient_from_gamma(index: int, gamma: float) -> Coefficient:
    """Exact arithmetic for one b_m, c_m, beta_m triple."""
    b = complex(0.5, gamma) * complex(1.5, gamma)
    return Coefficient(index=index, gamma=gamma, b=b, c=1.0 / abs(b),
                       beta=cmath.phase(b))


def build_coefficients(table: ZeroTable) -> CoefficientTable:
    """Coefficient triples for every ordinate of a zero table."""
    coeffs = tuple(coefficient_from_gamma(z.index, z.gamma)
                   for z in table.zeros)
    return CoefficientTable(coeffs)


def analytic_tail_remainder(gamma_max: float, p: int) -> float:
    """Sum of gamma_m^-p over the zeros above gamma_max, by zero density.

    integral_{gamma_max}^inf log(t/2pi)/(2pi) t^-p dt in closed form, for
    p > 1.  Since c_m < 1/gamma_m^2, p = 2 bounds the tail of c_m and
    p = 4 that of c_m^2.
    """
    q = p - 1
    return ((math.log(gamma_max / (2 * math.pi)) / q + 1.0 / q ** 2)
            / (2 * math.pi * gamma_max ** q))


def tail_bound(table: CoefficientTable, n: int) -> float:
    """Upper bound for sum of c_m over m > n (table tail + analytic rest)."""
    table.check_order(n)
    return float(np.sum(table.c[n:])) + analytic_tail_remainder(
        table.coefficients[-1].gamma, 2)


def eval_f_N(table: CoefficientTable, n: int, alpha):
    """Finite sum f_N(alpha); alpha may be a scalar or an array.

    A scalar alpha returns bit for bit the matching element of an array
    call: the kernel sums each point on its own, in ascending m.
    """
    table.check_order(n)
    arr = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    out = f_series(arr, table.c[:n], table.gamma[:n], table.beta[:n])
    return complex(out[0]) if np.isscalar(alpha) else out


def eval_f(table: CoefficientTable, alpha, eps: float):
    """f(alpha) to guaranteed accuracy eps; returns (value, N_used).

    Picks the smallest truncation order whose tail bound is below eps;
    raises PrecisionError when the table cannot reach eps at all.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    floor = tail_bound(table, len(table))
    if floor > eps:
        raise PrecisionError(
            f"requested accuracy {eps} below the achievable floor {floor:.3e}"
            " for this table; supply more zeros")
    lo, hi = 1, len(table)
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_bound(table, mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return eval_f_N(table, lo, alpha), lo


def main_term(table: CoefficientTable, x: float, n: int) -> float:
    """Truncated main term -4 x^{3/2} Re f_N(log x)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    table.check_order(n)
    return -4.0 * x ** 1.5 * eval_f_N(table, n, math.log(x)).real
