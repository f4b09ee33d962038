"""Construction of the value-distribution density and its Fourier side.

The distribution of the truncated phasor sum is rotation-invariant factor
by factor, so everything is one-dimensional in the radius: the Fourier
transform of one circle measure of radius c is J0(c*rho), the transform of
the order-N truncation is the product of those factors, and the density
itself is recovered by an order-zero Hankel inversion

    M_N(r) = integral_0^inf rho * J0(rho*r) * prod_{n<=N} J0(c_n*rho) drho.

M_N vanishes beyond s = sum_{n<=N} c_n, so on any [0, R] with R >= s it is
a Fourier-Bessel series whose coefficients are the characteristic function
at the nodes j_{0,k}/R (the sampling theorem of the discrete Hankel
transform); that series is the inversion used here.  ``invert_to_density``
is its one entry point.  It takes a point count and a radius R >= s
(1.1 s by default), refusing anything else before it does any work, and
builds from them the one grid the series is summed on,
r_i = i R/(points - 1); a ``DensityProfile`` stores that radius and its
values, and derives its r grid from them.  It builds the nodes
k = 1..K itself, up to the first node past the point where the |J0|
amplitude envelope of the characteristic function falls below
ENVELOPE_CUTOFF; cutting the series there is its only error.  Radial
integrals use one rule, the trapezoid plus an Euler-Maclaurin end term
at r = 0.

Planar measure is normalized as |dw| = du dv / (2*pi), so total mass is
integral_0^inf r * M_N(r) dr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._kernels import char_prod, hankel_sum, j0_arr, j1_arr
from .errors import PrecisionError, QuadratureError, RangeError
from .spectral import CoefficientTable, tail_bound
from .testfuncs import TestFunction

__all__ = [
    "DensityProfile", "char_M_N", "support_radius",
    "default_rho_grid", "check_inversion_order",
    "invert_to_density", "limit_order", "invert_limit_density",
    "convolve_step", "integrate_against",
]

MIN_INVERSION_ORDER = 5
ENVELOPE_CUTOFF = 1e-10
R_GRID_POINTS = 4096


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Radial density samples r -> M_N(r), with bookkeeping.

    The samples lie on r_grid = linspace(0, radius, values.size), which is
    derived from those two and cannot be set.  An inversion also holds its
    Fourier-Bessel nodes ``rho_grid`` and the characteristic function
    there.  A limit density (``error_budget`` set) is M_order, within that
    certified scaled sup-error of the N -> inf limit, and its support
    radius is the limit's.  Profiles compare by identity: their array
    fields have no single truth value.
    """
    radius: float
    values: np.ndarray
    order: int
    support_radius: float
    mass: float
    rho_grid: np.ndarray | None = None
    characteristic: np.ndarray | None = None
    error_budget: float | None = None
    r_grid: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "r_grid",
                           np.linspace(0.0, self.radius, self.values.size))

    @property
    def peak(self) -> float:
        return float(np.max(self.values))

    @property
    def leakage(self) -> float:
        """Largest |M| beyond the support radius, relative to the peak."""
        outside = self.r_grid > self.support_radius
        if not np.any(outside):
            return 0.0
        return float(np.max(np.abs(self.values[outside]))) / self.peak


def support_radius(coeffs: CoefficientTable, n: int,
                   limit: bool = False) -> float:
    """Radius of the disc carrying the order-n truncation (or the limit)."""
    coeffs.check_order(n)
    radius = float(np.sum(coeffs.c[:n]))
    if limit:
        radius += tail_bound(coeffs, n)
    return radius


def char_M_N(coeffs: CoefficientTable, n: int, rho) -> np.ndarray:
    """The characteristic function prod_{m<=n} J0(c_m*rho) at each rho."""
    coeffs.check_order(n)
    return char_prod(np.asarray(rho, dtype=np.float64), coeffs.c[:n])


def _envelope_pieces(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending breakpoints b_m = 2/(pi*c_m) and log K_j for j = 0..N.

    The |J0| amplitude envelope prod_n min(1, sqrt(2/(pi*c_n*rho))) is
    K_j * rho^(-j/2) on [b_j, b_{j+1}), b_0 = 0, b_{N+1} = inf; log K_j =
    sum_{m<=j} log(b_m) / 2 stays finite however many small c_m enter it.
    """
    b = np.sort(2.0 / (math.pi * np.asarray(c, dtype=np.float64)))
    return b, np.concatenate(([0.0], 0.5 * np.cumsum(np.log(b))))


def _envelope_cutoff_rho(c: np.ndarray, threshold: float) -> float:
    """Smallest rho where the decay envelope falls to threshold (< 1)."""
    b, log_k = _envelope_pieces(c)
    at_b = log_k[1:] - 0.5 * np.arange(1, b.size + 1) * np.log(b)
    # the envelope at b_j falls with j: the root is in the last piece
    # that starts above the threshold
    j = int(np.count_nonzero(at_b > math.log(threshold)))
    return math.exp(2.0 * (log_k[j] - math.log(threshold)) / j)


@lru_cache(maxsize=16)
def _j0_zeros(k: int) -> np.ndarray:
    """The first k positive zeros j_{0,1..k} of J0, read-only and cached.

    McMahon's expansion (DLMF 10.21.19) in b = (m - 1/4) pi,
    b + 1/(8b) - 124/(3 (8b)^3) + 120928/(15 (8b)^5), is within 3e-3 of
    j_{0,m} at m = 1 and closer beyond; three Newton steps
    x <- x + J0(x)/J1(x) (J0' = -J1) take every zero to within 2 ulps,
    given the 2.5u bound of ``j0_arr``.  Each zero depends only on m: the
    first k of a longer list are these k bit for bit.
    """
    b = (np.arange(1, k + 1) - 0.25) * math.pi
    w = 1.0 / (8.0 * b)
    w2 = w * w
    x = b + w * (1.0 - w2 * (124.0 / 3.0 - w2 * (120928.0 / 15.0)))
    for _ in range(3):
        x += j0_arr(x) / j1_arr(x)
    x.setflags(write=False)
    return x


def default_rho_grid(coeffs: CoefficientTable, n: int,
                     radius: float) -> np.ndarray:
    """Fourier-Bessel nodes j_{0,k}/R, k = 1..K, of the order-n inversion
    on [0, R], R = radius (``invert_to_density`` passes its radius R >= s).

    K = ceil(rho_cut R / pi) + 1, so the last node (j_{0,K} > (K - 1/4) pi)
    lies beyond the cutoff rho_cut where the amplitude envelope of the
    characteristic function falls below ENVELOPE_CUTOFF.
    """
    rho_cut = _envelope_cutoff_rho(coeffs.c[:n], ENVELOPE_CUTOFF)
    k = int(math.ceil(rho_cut * radius / math.pi)) + 1
    return _j0_zeros(k) / radius


def check_inversion_order(n: int) -> None:
    """RangeError unless order n is high enough for pointwise inversion."""
    if n < MIN_INVERSION_ORDER:
        raise RangeError(
            f"pointwise inversion needs order >= {MIN_INVERSION_ORDER}, "
            f"got {n}; use the Monte-Carlo route for smaller orders")


def invert_to_density(coeffs: CoefficientTable, n: int,
                      points: int = R_GRID_POINTS,
                      radius: float | None = None) -> DensityProfile:
    """The order-n density M_n at r_i = i R/(points - 1), R = radius, by
    Fourier-Bessel inversion.

    Requires order >= 5 (below that the truncated density need not be
    bounded; use the Monte-Carlo route instead), points >= 2
    (QuadratureError otherwise) and a finite R at or past the support
    radius s (RangeError otherwise); R defaults to 1.1 s.  The checks come
    in that order, before any node is built.  With the nodes
    rho_k = j_{0,k}/R of ``default_rho_grid``, exactly for a density
    supported in [0, s],

        M(r) = sum_k 2 phi(rho_k) J0(rho_k r) / (R J1(j_{0,k}))**2,
        integral_0^R r M(r) dr = sum_k 2 phi(rho_k) / (j_{0,k} J1(j_{0,k})).

    The only error is the truncation of both series after the last node
    K: every term left out has |phi(rho_k)| <= env_n(rho_k), the |J0|
    amplitude envelope, which is below ENVELOPE_CUTOFF at rho_K and falls
    beyond it.  The mass is numpy's pairwise ``sum`` over the nodes (not
    a BLAS dot, whose order can change with the thread count).  The
    profile keeps the nodes and phi.
    """
    check_inversion_order(n)
    if points < 2:
        raise QuadratureError(f"inversion needs >= 2 r points, got {points}")
    s = support_radius(coeffs, n)
    radius = 1.1 * s if radius is None else float(radius)
    # the chained comparison also refuses NaN
    if not s <= radius < math.inf:
        raise RangeError(f"inversion radius {radius:.6g} is not finite "
                         f"and >= support {s:.6g}")
    rho = default_rho_grid(coeffs, n, radius)
    phi = char_M_N(coeffs, n, rho)
    jk = _j0_zeros(rho.size)
    j1k = j1_arr(jk)
    coef = 2.0 * phi
    values = hankel_sum(np.linspace(0.0, radius, points), rho,
                        coef / (radius * j1k) ** 2)
    mass = float(np.sum(coef / (jk * j1k)))
    return DensityProfile(
        radius=radius, values=values, order=n, support_radius=s,
        mass=mass, rho_grid=rho, characteristic=phi)


def _limit_error_budget(coeffs: CoefficientTable, n: int) -> float:
    """Certified sup bound on the scaled density gap |M - M_n|.

    Integrates rho * min(a*rho^2, 2*envelope), a = sum_{m>n} c_m^2 / 4, in
    closed form over the envelope's power-law pieces, and converts to
    density units of 1/c_1^2 (the natural O(1) normalization of the problem).
    a*rho^2 bounds the gap of the factor product past n: the 1/4 comes from
    |e^{ix}-1-ix| <= x^2/2 averaged over the circle, where the mean of
    cos^2 contributes another 1/2.
    """
    a = 0.25 * tail_bound(coeffs, n, 2)
    b, log_k = _envelope_pieces(coeffs.c[:n])
    log_b, log_2a = np.log(b), math.log(2.0 / a)
    j = np.arange(n + 1)
    # a*rho^2 - 2*envelope rises through zero once, in piece i
    i = int(np.count_nonzero((2 + 0.5 * j[1:]) * log_b - log_k[1:] < log_2a))
    log_star = (log_2a + log_k[i]) / (2.0 + 0.5 * i)
    inner = 0.25 * a * math.exp(4.0 * log_star)
    # 2 K_j rho^(p-1), p = 2 - j/2, on each piece from the crossing to inf:
    # over log rho in [lo, lo + d] it integrates to 2 K_j e^(p lo) *
    # (e^(p d) - 1)/p, and to 2 K_j d at p = 0 (j = 4)
    lo = np.concatenate(([log_star], log_b[i:]))
    d = np.append(log_b[i:], np.inf) - lo
    p = 2.0 - 0.5 * j[i:]
    with np.errstate(divide="ignore", invalid="ignore"):
        width = np.where(p == 0.0, d, np.expm1(p * d) / p)
    outer = float(np.sum(2.0 * np.exp(log_k[i:] + p * lo) * width))
    return coeffs.c[0] ** 2 * (inner + outer)


def limit_order(coeffs: CoefficientTable, eps: float) -> tuple[int, float]:
    """Smallest order whose certified scaled sup-error is <= eps, with that bound.

    The bound is ``_limit_error_budget``: the propagated characteristic-
    function tail, in units of c_1^-2 (in which the density peak is O(1)).
    PrecisionError when even the whole table cannot certify eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for n in range(MIN_INVERSION_ORDER, len(coeffs) + 1):
        budget = _limit_error_budget(coeffs, n)
        if budget <= eps:
            return n, budget
    raise PrecisionError(
        f"cannot certify scaled sup-error {eps} with {len(coeffs)} "
        f"zeros (floor {_limit_error_budget(coeffs, len(coeffs)):.3e}); "
        "supply more zeros")


def invert_limit_density(coeffs: CoefficientTable, eps: float,
                         points: int = R_GRID_POINTS) -> DensityProfile:
    """Density of the full limit, to a certified scaled sup-error <= eps.

    Inverts at the order n that ``limit_order`` picks for eps, with the
    given number of points on the default radius of that order.
    """
    n, budget = limit_order(coeffs, eps)
    density = invert_to_density(coeffs, n, points)
    return replace(density, error_budget=budget,
                   support_radius=support_radius(coeffs, n, limit=True))


def convolve_step(density: DensityProfile, c: float) -> DensityProfile:
    """One more circle factor: angular convolution on the radial grid.

    M_{N+1}(r) = (1/2pi) integral M_N(sqrt(r^2 + c^2 - 2 r c cos t)) dt.
    """
    if c < 0:
        raise ValueError("radius must be nonnegative")
    if density.error_budget is not None or density.order < MIN_INVERSION_ORDER:
        raise RangeError("convolve_step needs a finite order >= 5 input")
    r, radius = density.r_grid, density.radius
    h = radius / (r.size - 1)
    if c != 0.0 and c < 4 * h:
        raise QuadratureError(
            f"grid step {h:.3e} too coarse to resolve circle radius {c:.3e}")
    if c == 0.0:
        return density
    n_theta = 512
    theta = np.linspace(0.0, math.pi, n_theta + 1)
    # cosine symmetry: average over [0, pi] with trapezoid end weights
    wts = np.full(n_theta + 1, 1.0 / n_theta)
    wts[0] = wts[-1] = 0.5 / n_theta
    arg = np.sqrt(np.maximum(
        r[:, None] ** 2 + c * c - 2.0 * c * r[:, None] * np.cos(theta)[None, :],
        0.0))
    vals = np.where(arg <= radius, _spline(density.values, radius, arg), 0.0)
    new_values = vals @ wts
    mass = float(_radial_integral(new_values, radius))
    return DensityProfile(
        radius=radius, values=new_values, order=density.order + 1,
        support_radius=density.support_radius + c, mass=mass)


# pole of the cubic B-spline prefilter; |pole|^30 < 1e-17
_SPLINE_POLE = math.sqrt(3.0) - 2.0
_SPLINE_TAPS = 30


def _spline(values: np.ndarray, radius: float, x: np.ndarray) -> np.ndarray:
    """The cubic spline interpolating values on linspace(0, R, n), R =
    radius, n = values.size, at each x in [0, R] (larger x are clamped
    to R).

    The spline is sum_j c_j B3(x/h - j), B3 the cubic B-spline, with the
    values mirrored about both ends: about r = 0 that is the radial
    density's own symmetry.  The coefficients are the B-spline prefilter
    (Unser, IEEE Signal Processing Magazine 16(6), 1999): gain 6 and two
    first-order recursions with pole z = sqrt(3) - 2, one causal and one
    anticausal.  Together they are the symmetric filter sqrt(3) z^|k|,
    applied here as one convolution truncated at |k| <= 30, where
    |z|^30 < 1e-17.
    """
    n = values.size
    h = radius / (n - 1)
    ext = np.pad(values, _SPLINE_TAPS + 1, mode="reflect")
    taps = math.sqrt(3.0) * _SPLINE_POLE ** np.abs(
        np.arange(-_SPLINE_TAPS, _SPLINE_TAPS + 1))
    # c_{-1} .. c_n
    coef = np.convolve(ext, taps, mode="valid")
    t = np.minimum(x, radius) / h
    i = np.minimum(np.floor(t), n - 2)
    u = t - i
    i = i.astype(np.intp)
    v = 1.0 - u
    u3, v3 = u * u * u, v * v * v
    # B3 at u + 1, u, u - 1 and u - 2
    out = coef[i] * (v3 / 6.0)
    out += coef[i + 1] * (2.0 / 3.0 - u * u + 0.5 * u3)
    out += coef[i + 2] * (2.0 / 3.0 - v * v + 0.5 * v3)
    out += coef[i + 3] * (u3 / 6.0)
    return out


def _radial_integral(g: np.ndarray, radius: float):
    """integral_0^R r g(r) dr for g sampled on r = linspace(0, R, n),
    R = radius, n = g.size: the trapezoid rule plus the Euler-Maclaurin
    end term h^2 g(0)/12, which cancels the error of the kink of r g at
    r = 0 exactly.  For a smooth even g vanishing near R the rule exceeds
    the integral by h^4 g''(0)/240 + O(h^6); at a jump of g the error is
    O(h).
    """
    r = np.linspace(0.0, radius, g.size)
    h = radius / (g.size - 1)
    return h * (np.sum(r * g) - 0.5 * radius * g[-1]) + h * h * g[0] / 12.0


def integrate_against(density: DensityProfile, phi: TestFunction):
    """integral of M * Phi over the plane (|dw| = du dv / 2pi).

    Radial reduction: integral of r * M(r) * angular-average of Phi.
    """
    avg = phi.angular_average(density.r_grid)
    out = _radial_integral(density.values * avg, density.radius)
    return complex(out) if np.iscomplexobj(avg) else float(out)
