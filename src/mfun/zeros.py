"""Ingestion and independent verification of zeta-zero ordinates.

A zero table is a plain text file with one positive ordinate per line
(ascending, ``#`` comments allowed), held as one read-only array.
Verification evaluates the Hardy Z-function via Euler-Maclaurin summation
of zeta(1/2+it), brackets a sign change around each claimed ordinate on a
21-point grid, and refines it by Illinois regula falsi seeded with the two
grid values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import AmbiguousBracketError, RangeError, ZeroTableError

__all__ = [
    "ZeroTable", "load_zeros", "bundled_zeros_path",
    "hardy_z", "verify_zero", "verify_table", "counting_check",
]

# Euler-Maclaurin tuning: ~3t main terms and four Bernoulli corrections.
# Against mpmath, Z is within 1e-8 on [15, 240] and within 1e-11 at
# t = 1000.3 and 1419.4 (tests/test_zeros.py).
_EM_FACTOR = 3.0
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30)

# Stirling's series for log Gamma: B_2k / (2k (2k - 1)), k = 1 .. 7, summed
# at |w| >= 12
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)
_STIRLING_R2 = 144.0

_BRACKET = 0.05
_MAX_SHRINK = 4


@dataclass(frozen=True)
class ZeroTable:
    """Ordinates gamma_1 < gamma_2 < ..., held as one read-only array.

    They are checked once, here: a nonempty list of positive, finite,
    strictly increasing numbers.
    """
    gammas: np.ndarray
    source: str

    def __post_init__(self):
        g = np.array(self.gammas, dtype=np.float64)
        if not g.size:
            raise ZeroTableError(f"empty zero table ({self.source})")
        bad = np.flatnonzero(~(np.isfinite(g) & (g > 0)))
        if bad.size:
            raise ZeroTableError(
                f"{self.source}: ordinate #{bad[0] + 1} must be a positive "
                f"finite number, got {g[bad[0]]}")
        bad = np.flatnonzero(np.diff(g) <= 0)
        if bad.size:
            i = bad[0] + 1
            raise ZeroTableError(
                f"{self.source}: ordinates not strictly increasing at "
                f"#{i + 1}: {g[i - 1]} -> {g[i]}")
        g.setflags(write=False)
        object.__setattr__(self, "gammas", g)


def load_zeros(path) -> ZeroTable:
    """Parse a zero-ordinate file into a validated ZeroTable."""
    path = Path(path)
    gammas = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                gammas.append(float(text))
            except ValueError:
                raise ZeroTableError(
                    f"{path}:{lineno}: cannot parse ordinate {text!r}") from None
    return ZeroTable(np.array(gammas), source=str(path))


def bundled_zeros_path() -> Path:
    """Path of the bundled table of the first 100 ordinates."""
    return Path(resources.files("mfun").joinpath("data/zeros100.txt"))


def _riemann_siegel_theta(t: float) -> float:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, for t > 0.

    Stirling's series for log Gamma(w) at w = a + ib, b = t/2, with
    a = 1/4 + n and n >= 0 the fewest unit steps up that make |w| >= 12:
    log Gamma(1/4 + ib) = log Gamma(w) - sum_{j<n} log(1/4 + j + ib).  The
    imaginary part of (w - 1/2) log w - w - (t/2) log pi is
    b log(|w|/(pi e)) + (a - 1/2) arg w, and the series' seven terms
    B_2k/(2k (2k - 1) w^(2k-1)) leave out less than 2e-18.  The rounding
    is a few ulps of b log(|w|/(pi e)): within 2e-15 (t + 1) of theta.
    """
    b = 0.5 * t
    a, shift = 0.25, 0.0
    while a * a + b * b < _STIRLING_R2:
        shift -= math.atan2(b, a)
        a += 1.0
    inv = 1.0 / complex(a, b)
    inv2 = inv * inv
    series = 0j
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    return (b * math.log(math.hypot(a, b) / (math.pi * math.e))
            + (a - 0.5) * math.atan2(b, a) + (series * inv).imag + shift)


def _zeta_half_line(t: float) -> complex:
    """zeta(1/2 + it) by Euler-Maclaurin summation."""
    s = 0.5 + 1j * t
    m = max(int(_EM_FACTOR * abs(t)), 10)
    n = np.arange(1, m)
    total = complex(np.sum(n ** (-s)))
    total += m ** (1.0 - s) / (s - 1.0)
    total += 0.5 * m ** (-s)
    # Bernoulli corrections: B_{2k}/(2k)! * M^{1-s-2k} * prod_{j=0}^{2k-2}(s+j)
    fact = 1.0
    poch = 1.0 + 0j
    for k, b2k in enumerate(_BERNOULLI, start=1):
        fact *= (2 * k - 1) * (2 * k)
        poch *= (s + (2 * k - 2)) * (s + (2 * k - 3)) if k > 1 else s
        total += (b2k / fact) * poch * m ** (1.0 - s - 2 * k)
    return total


def hardy_z(t: float) -> float:
    """Hardy Z-function; real with the same zeros as zeta on the line."""
    z = _zeta_half_line(t)
    theta = _riemann_siegel_theta(t)
    return math.cos(theta) * z.real - math.sin(theta) * z.imag


def _refine_root(a: float, b: float, fa: float, fb: float) -> float:
    """Illinois regula falsi (Dowell and Jarratt, 1971) for the sign change
    of Z in [a, b], seeded with Z(a) = fa and Z(b) = fb of opposite signs:
    the secant point replaces the end of its sign, and an end kept twice in
    a row has its value halved.  Returns the midpoint of the last bracket,
    which is at most max(1e-13, ulp(b)) wide (ulp(t) > 1e-13 above 512).
    """
    side = 0   # -1: the last step moved b, +1: it moved a
    while abs(b - a) > max(1e-13, math.ulp(b)):
        c = b - fb * (b - a) / (fb - fa)
        fc = hardy_z(c)
        if fc == 0.0:
            return c
        if (fc > 0.0) == (fb > 0.0):
            fa *= 0.5 if side == -1 else 1.0
            b, fb, side = c, fc, -1
        else:
            fb *= 0.5 if side == 1 else 1.0
            a, fa, side = c, fc, 1
    return 0.5 * (a + b)


def verify_zero(gamma: float, tolerance: float) -> tuple[bool, float]:
    """Check that a sign change of Z brackets `gamma` within `tolerance`.

    Returns (verified, residual).  If Z has no sign change anywhere in the
    bracket the ordinate is spurious and (False, inf) is returned.  A
    bracket holding two sign changes is shrunk up to four times; if the
    ambiguity persists, AmbiguousBracketError reports both roots.
    """
    if gamma <= 0 or tolerance <= 0:
        raise ValueError("gamma and tolerance must be positive")
    delta = _BRACKET
    for _ in range(_MAX_SHRINK + 1):
        grid = np.linspace(gamma - delta, gamma + delta, 21).tolist()
        vals = [hardy_z(t) for t in grid]
        flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if len(flips) == 0:
            return False, math.inf
        if len(flips) == 1:
            i = flips[0]
            root = _refine_root(grid[i], grid[i + 1], vals[i], vals[i + 1])
            residual = abs(root - gamma)
            return residual <= tolerance, residual
        delta *= 0.5
    roots = [_refine_root(grid[i], grid[i + 1], vals[i], vals[i + 1])
             for i in flips[:2]]
    raise AmbiguousBracketError(gamma, roots)


def verify_table(table: ZeroTable,
                 tolerance: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """verify_zero at every ordinate: (verified flags, residuals)."""
    verified, residuals = zip(*(verify_zero(g, tolerance)
                                for g in table.gammas.tolist()))
    return np.array(verified, dtype=bool), np.array(residuals)


def counting_expected(t: float) -> float:
    """Riemann-von Mangoldt asymptotic for the number of zeros below t."""
    return t / (2 * math.pi) * math.log(t / (2 * math.pi * math.e)) + 7.0 / 8


def counting_check(table: ZeroTable, t: float) -> tuple[int, float]:
    """Observed vs expected zero count below t (completeness diagnostic)."""
    if t > table.gammas[-1]:
        raise RangeError(
            f"T={t} exceeds the table range (max ordinate "
            f"{table.gammas[-1]})")
    observed = int(np.count_nonzero(table.gammas <= t))
    return observed, counting_expected(t)
