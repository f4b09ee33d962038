"""Empirical routes to the limit law: Haar Monte-Carlo on the torus,
time averages over the shift parameter, and closed-form Weyl sums.

Monte-Carlo uses numpy's Philox generator (a named counter-based RNG with
a 64-bit seed); angles are drawn as 2*pi times 53-bit-mantissa uniforms,
so a fixed seed reproduces results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import GRID_BLOCK, f_grid, phasor_sum
from .density import DensityProfile, integrate_against
from .errors import MfunError, RangeError
from .spectral import CoefficientTable
from .testfuncs import TestFunction

__all__ = [
    "TorusPoint", "torus_map", "haar_oracle", "alpha_average",
    "alpha_average_many", "weyl_test",
    "compare_report", "CompareReport",
]

MIN_HAAR_SAMPLES = 10 ** 4
RESONANCE_FLOOR = 1e-9
_CHUNK = 1 << 20


class ResonanceError(MfunError):
    """The integer combination of ordinates is numerically near zero."""


@dataclass(frozen=True)
class TorusPoint:
    angles: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=np.float64)
        if not np.all(np.isfinite(a)):
            raise ValueError("angles must be finite (interpreted mod 2*pi)")


def torus_map(coeffs: CoefficientTable, point: TorusPoint) -> complex:
    """sum c_m t_m for a torus point t = (e^{i theta_1}, ..., e^{i theta_N})."""
    angles = np.asarray(point.angles, dtype=np.float64)
    if angles.ndim != 1 or not 1 <= angles.size <= len(coeffs):
        raise RangeError(
            f"angle vector length {angles.size} does not match an available "
            f"truncation order (1..{len(coeffs)})")
    return complex(phasor_sum(angles[None, :], coeffs.c[:angles.size])[0])


def _angle_stream(n: int, samples: int, seed: int):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    done = 0
    while done < samples:
        m = min(_CHUNK, samples - done)
        yield 2.0 * math.pi * rng.random((m, n))
        done += m


def haar_oracle(coeffs: CoefficientTable, n: int, phis, samples: int,
                seed: int):
    """Means of each Phi over i.i.d. Haar samples S_N of the torus.

    Every Phi is evaluated at every sample, so the means carry sampling
    noise only.  Returns (means list, max |S_N| seen).
    """
    coeffs.check_order(n)
    if samples < MIN_HAAR_SAMPLES:
        raise RangeError(f"need at least {MIN_HAAR_SAMPLES} samples")
    c = coeffs.c[:n]
    sums = [0.0 + 0.0j for _ in phis]
    max_abs = 0.0
    for theta in _angle_stream(n, samples, seed):
        s = phasor_sum(theta, c)
        max_abs = max(max_abs, float(np.max(np.abs(s))))
        for i, phi in enumerate(phis):
            sums[i] += complex(np.sum(phi(s)))
    means = [v / samples for v in sums]
    means = [m.real if abs(m.imag) == 0.0 else m for m in means]
    return means, max_abs


def _alpha_grid_step(coeffs: CoefficientTable, n: int, x: float,
                     step: float | None) -> float:
    limit = 2.0 * math.pi / (10.0 * coeffs.gamma[n - 1])
    if step is None:
        step = limit
    if step > limit * (1.0 + 1e-12):
        raise RangeError(f"alpha step {step} too coarse; need <= {limit:.3e} "
                         "to resolve the fastest oscillation")
    if x < 100.0 * 2.0 * math.pi / coeffs.gamma[0]:
        raise RangeError(f"X={x} too short; need at least "
                         f"{100 * 2 * math.pi / coeffs.gamma[0]:.1f}")
    return step


def alpha_average_many(coeffs: CoefficientTable, n: int, phis, x_list,
                       step: float | None = None):
    """Trapezoid means (1/X) integral_0^X Phi(f_N(alpha)) d alpha.

    One sweep over the largest X, recording every requested checkpoint;
    returns a list over phis of lists over x_list.  f_N comes from
    ``f_grid`` in chunks of whole grid blocks.  The Phi values are summed
    within each block and the block sums in ascending order, so the means
    depend neither on ``_CHUNK`` nor on the thread count.
    """
    assert _CHUNK % GRID_BLOCK == 0, "a chunk must hold whole grid blocks"
    coeffs.check_order(n)
    x_list = sorted(float(x) for x in x_list)
    step = _alpha_grid_step(coeffs, n, x_list[0], step)
    x_max = x_list[-1]
    total_pts = int(math.ceil(x_max / step)) + 1
    h = x_max / (total_pts - 1)
    marks = [min(int(round(x / h)), total_pts - 1) for x in x_list]
    c, g, b = coeffs.c[:n], coeffs.gamma[:n], coeffs.beta[:n]
    sums = np.zeros((len(phis), len(marks)), dtype=np.complex128)
    # sum of each Phi over the blocks before the current chunk
    running = np.zeros(len(phis), dtype=np.complex128)
    first_vals = np.zeros(len(phis), dtype=np.complex128)
    for done in range(0, total_pts, _CHUNK):
        m = min(_CHUNK, total_pts - done)
        fv = f_grid(done, m, h, c, g, b)
        starts = np.arange(0, m, GRID_BLOCK)
        marks_here = [(j, k) for j, k in enumerate(marks)
                      if done <= k < done + m]
        for i, phi in enumerate(phis):
            vals = np.asarray(phi(fv), dtype=np.complex128)
            if done == 0:
                first_vals[i] = vals[0]
            # before[q] = running + the sums of the blocks before block q,
            # added one block at a time
            before = np.cumsum(np.concatenate(
                ([running[i]], np.add.reduceat(vals, starts))))
            for j, k in marks_here:
                lo = (k - done) // GRID_BLOCK * GRID_BLOCK
                total = before[lo // GRID_BLOCK] + vals[lo:k - done + 1].sum()
                integral = h * (total - 0.5 * (first_vals[i] + vals[k - done]))
                sums[i, j] = integral / (k * h)
            running[i] = before[-1]
    out = []
    for i, phi in enumerate(phis):
        is_complex = np.iscomplexobj(phi(np.array([0j])))
        out.append([complex(v) if is_complex else v.real for v in sums[i]])
    return out


def alpha_average(coeffs: CoefficientTable, n: int, phi: TestFunction,
                  x: float, step: float | None = None):
    """(1/X) integral_0^X Phi(f_N(alpha)) d alpha by composite trapezoid."""
    return alpha_average_many(coeffs, n, [phi], [x], step)[0][0]


def weyl_test(coeffs: CoefficientTable, n_vector, x: float) -> complex:
    """Closed-form (1/X) integral_0^X e^{i alpha n.gamma} d alpha * e^{-i n.beta}.

    The modulus is bounded by 2/(X |n.gamma|); a combination below the
    resonance floor would contradict rational independence of the
    ordinates and is reported instead of divided through.
    """
    n_vector = np.asarray(n_vector, dtype=np.float64)
    if n_vector.ndim != 1 or n_vector.size > len(coeffs):
        raise RangeError("integer vector length exceeds the table")
    if not np.any(n_vector):
        raise ValueError("integer vector must be nonzero")
    omega = float(np.dot(n_vector, coeffs.gamma[:n_vector.size]))
    if abs(omega) < RESONANCE_FLOOR:
        raise ResonanceError(
            f"|n.gamma| = {abs(omega):.3e} below {RESONANCE_FLOOR}; "
            "near-rational relation between ordinates")
    phase = float(np.dot(n_vector, coeffs.beta[:n_vector.size]))
    return cmathexp(-phase) * (cmathexp(x * omega) - 1.0) / (1j * x * omega)


def cmathexp(t: float) -> complex:
    return complex(math.cos(t), math.sin(t))


@dataclass(frozen=True)
class CompareRow:
    phi: str
    density_value: complex
    haar_value: complex
    alpha_values: tuple
    x_ladder: tuple
    discrepancies: tuple
    trend_ok: bool


@dataclass(frozen=True)
class CompareReport:
    rows: tuple[CompareRow, ...]
    max_discrepancy: float
    trend_floor: float

    @property
    def all_trends_ok(self) -> bool:
        return all(r.trend_ok for r in self.rows)


def compare_report(coeffs: CoefficientTable, n: int, haar_means,
                   density: DensityProfile, phis,
                   x_ladder=(1e4, 1e5, 1e6), step: float | None = None,
                   trend_floor: float = 2e-3) -> CompareReport:
    """Three-route comparison: alpha-averages vs Haar samples vs density.

    haar_means are the order-n Haar means of phis, as ``haar_oracle``
    returns them.  The trend check asks each discrepancy ladder to be
    non-increasing up to a factor-2 noise allowance above the quadrature
    floor.
    """
    if (isinstance(density.order, int) and density.order != n) \
            or (density.n_used is not None and density.n_used != n):
        raise RangeError("truncation orders of the two routes do not match")
    ladders = alpha_average_many(coeffs, n, phis, x_ladder, step)
    rows = []
    worst = 0.0
    for phi, ladder, haar in zip(phis, ladders, haar_means, strict=True):
        dens = integrate_against(density, phi)
        disc = tuple(abs(a - dens) for a in ladder)
        trend_ok = all(
            disc[k + 1] <= max(2.0 * disc[k], trend_floor)
            for k in range(len(disc) - 1))
        worst = max(worst, disc[-1])
        rows.append(CompareRow(
            phi=phi.label, density_value=dens, haar_value=haar,
            alpha_values=tuple(ladder), x_ladder=tuple(x_ladder),
            discrepancies=disc, trend_ok=trend_ok))
    return CompareReport(rows=tuple(rows), max_discrepancy=worst,
                         trend_floor=trend_floor)
