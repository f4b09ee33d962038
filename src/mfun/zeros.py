"""Ingestion and independent verification of zeta-zero ordinates.

A zero table is a plain text file with one positive ordinate per line
(ascending, ``#`` comments allowed), held as one read-only array.
Verification evaluates the Hardy Z-function via Euler-Maclaurin summation
of zeta(1/2+it), brackets a sign change around each claimed ordinate on a
21-point grid, and refines it by Illinois regula falsi seeded with the two
grid values.  A table is verified in lockstep: one Z evaluation covers the
grids of all ordinates, and each refinement round one more covers the
secant points of the brackets still open.

``hardy_z`` takes a number or an array of t.  It works through blocks of
points and panels of terms sized from the block budget (64 points and
1024 terms at 512 KiB), and a value depends only on its own t: a number
gives, bit for bit, the matching element of any array holding it.
Against mpmath, Z is within 1e-8 on [15, 240] and within 1e-11 at
t = 1000.3 and 1419.4 (tests/test_zeros.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from ._kernels import _per_block, expi
from .errors import AmbiguousBracketError, RangeError, ZeroTableError

__all__ = [
    "ZeroTable", "load_zeros", "bundled_zeros_path",
    "hardy_z", "verify_zero", "verify_table", "counting_check",
]

# Euler-Maclaurin tuning: m(t) = max(floor(|t|), 10) main terms and K = 10
# Bernoulli corrections, B_2 .. B_20.
_EM_MIN_TERMS = 10.0
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330)

# Stirling's series for log Gamma: B_2k / (2k (2k - 1)), k = 1 .. 7, summed
# at |w| >= 12
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)
_STIRLING_R2 = 144.0

# Each row of hardy_z's main terms is summed in chunks of _Z_CHUNK terms.
_Z_CHUNK = 64

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


def _riemann_siegel_theta(t: np.ndarray) -> np.ndarray:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, elementwise.

    Stirling's series for log Gamma(w) at w = a + ib, b = t/2, with
    a = 1/4 + n and n >= 0 the fewest unit steps up that make |w| >= 12:
    log Gamma(1/4 + ib) = log Gamma(w) - sum_{j<n} log(1/4 + j + ib).  The
    imaginary part of (w - 1/2) log w - w - (t/2) log pi is
    b log(|w|/(pi e)) + (a - 1/2) arg w, and the series' seven terms
    B_2k/(2k (2k - 1) w^(2k-1)) leave out less than 2e-18.  The rounding
    is a few ulps of b log(|w|/(pi e)): within 2e-15 (t + 1) of theta for
    t > 0.  Every step is elementwise, each element taking its own shifts.
    """
    b = 0.5 * np.asarray(t, dtype=np.float64)
    a = np.full(b.shape, 0.25)
    shift = np.zeros(b.shape)
    low = a * a + b * b < _STIRLING_R2
    while low.any():
        shift[low] -= np.arctan2(b[low], a[low])
        a[low] += 1.0
        low = a * a + b * b < _STIRLING_R2
    inv = 1.0 / (a + 1j * b)
    inv2 = inv * inv
    series = np.zeros(b.shape, dtype=np.complex128)
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    return (b * np.log(np.hypot(a, b) / (math.pi * math.e))
            + (a - 0.5) * np.arctan2(b, a) + (series * inv).imag + shift)


def _zeta_half_line(t: np.ndarray, panel: int) -> np.ndarray:
    """zeta(1/2 + it) by Euler-Maclaurin summation, for a block of t,
    taking the terms in panels of panel columns (whole chunks).

    Row r sums n^(-1/2) e^(-it log n) over n < m = max(floor(|t_r|), 10),
    the phases through ``expi``, and adds the end terms
    m^(1-s)/(s-1) + m^(-s)/2 and the Bernoulli corrections
    B_2k/(2k)! (s)_(2k-1) m^(1-s-2k), k = 1 .. K = 10, s = 1/2 + it_r.  The
    remainder is at most |s + 2K + 1|/(sigma + 2K + 1) times the first
    omitted term (Edwards, Riemann's Zeta Function, 6.4): at most 1.8e-14
    (near t = 11, where m = 10) and below 3e-16 on [15, 10^6].  The block
    is padded to its largest m with zero terms.  Each row is summed in
    chunks of ``_Z_CHUNK`` consecutive n, pairwise within a chunk, and the
    chunk sums in ascending order up to the row's own last chunk, so the
    padding and the other rows leave a row's sum unchanged.
    """
    m = np.maximum(np.floor(np.abs(t)), _EM_MIN_TERMS)
    last = (m.astype(np.int64) - 2) // _Z_CHUNK   # the chunk of n = m - 1
    width = (int(last.max()) + 1) * _Z_CHUNK
    sums = np.empty((t.size, width // _Z_CHUNK), dtype=np.complex128)
    for lo in range(0, width, panel):
        n = np.arange(lo + 1, min(lo + panel, width) + 1, dtype=np.float64)
        terms = expi(np.multiply.outer(-t, np.log(n)))
        terms *= 1.0 / np.sqrt(n)
        np.putmask(terms, n >= m[:, None], 0.0)
        sums[:, lo // _Z_CHUNK:(lo + n.size) // _Z_CHUNK] = (
            terms.reshape(t.size, -1, _Z_CHUNK).sum(axis=2))
    np.cumsum(sums, axis=1, out=sums)
    total = sums[np.arange(t.size), last]
    # m^(-s) times [m/(s - 1) + 1/2 + sum_k B_2k/(2k)! (s)_(2k-1) m^(1-2k)]
    s = 0.5 + 1j * t
    end = m / (s - 1.0) + 0.5
    fact = 1.0
    poch = s
    for k, b2k in enumerate(_BERNOULLI, start=1):
        fact *= (2 * k - 1) * (2 * k)
        if k > 1:
            poch = poch * (s + (2 * k - 2)) * (s + (2 * k - 3))
        end += (b2k / fact) * poch * m ** (1.0 - 2 * k)
    # not in place: numpy rounds an in-place complex product of a
    # one-element array apart from the same product in its array loop
    return total + end * expi(-t * np.log(m)) / np.sqrt(m)


def hardy_z(t):
    """Hardy's Z-function Z(t) = e^(i theta(t)) zeta(1/2 + it).

    Real, with the zeros of zeta on the critical line.  t is a number or
    an array: a number gives a float, an array an array of its shape.  The
    points go in blocks and each value depends only on its own t, so a
    number gives the matching element of an array bit for bit.
    Against mpmath, Z is within 1e-8 on [15, 240] and within 1e-11 at
    t = 1000.3 and 1419.4.
    """
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    flat = t.reshape(-1)
    z = np.empty(flat.size)
    # a point holds a panel row of 2 chunks of terms, 64 bytes a term (its
    # phase, its value and its share of expi's block), and the sums of its
    # max(|t|, 10) terms' chunks, 16 bytes a chunk
    terms = int(np.abs(flat).max(initial=0.0))
    rows = _per_block(2 * 64 * _Z_CHUNK + terms // 4)
    panel = _per_block(64 * rows * _Z_CHUNK) * _Z_CHUNK
    for lo in range(0, flat.size, rows):
        tb = flat[lo:lo + rows]
        zeta = _zeta_half_line(tb, panel)
        phase = expi(_riemann_siegel_theta(tb))
        z[lo:lo + tb.size] = phase.real * zeta.real - phase.imag * zeta.imag
    return float(z[0]) if t.ndim == 0 else z.reshape(t.shape)


def _refine_roots(a, b, fa, fb) -> np.ndarray:
    """Illinois regula falsi (Dowell and Jarratt, 1971) for the sign change
    of Z in each bracket [a_i, b_i], seeded with Z(a_i) = fa_i and
    Z(b_i) = fb_i of opposite signs.  In a bracket the secant point
    replaces the end of its sign, and an end kept twice in a row has its
    value halved.  A bracket closes at an exact zero of Z, its root, or
    once it is at most max(1e-13, ulp(b)) wide (ulp(t) > 1e-13 above 512),
    with its midpoint as the root.

    The brackets run in lockstep: each round evaluates Z once, at the
    secant points of the brackets still open.  As a value of Z does not
    depend on the points evaluated with it, every bracket takes the steps
    it would take alone.
    """
    a, b, fa, fb = (np.array(v, dtype=np.float64) for v in (a, b, fa, fb))
    side = np.zeros(a.shape)   # -1: the last step moved b, +1: it moved a
    live = np.arange(a.size)
    roots = np.empty(a.size)
    while True:
        wide = np.abs(b - a) > np.maximum(1e-13, np.spacing(np.abs(b)))
        roots[live[~wide]] = 0.5 * (a[~wide] + b[~wide])
        a, b, fa, fb, side, live = (v[wide] for v in (a, b, fa, fb, side,
                                                      live))
        if not live.size:
            return roots
        c = b - fb * (b - a) / (fb - fa)
        fc = hardy_z(c)
        hit = fc == 0.0
        roots[live[hit]] = c[hit]
        same = (fc > 0.0) == (fb > 0.0)
        fa = np.where(same, np.where(side == -1, 0.5 * fa, fa), fc)
        fb = np.where(same, fc, np.where(side == 1, 0.5 * fb, fb))
        a = np.where(same, a, c)
        b = np.where(same, c, b)
        side = np.where(same, -1.0, 1.0)
        a, b, fa, fb, side, live = (v[~hit] for v in (a, b, fa, fb, side,
                                                      live))


def verify_zero(gamma: float, tolerance: float) -> tuple[bool, float]:
    """Check that a sign change of Z brackets `gamma` within `tolerance`.

    Returns (verified, residual).  If Z has no sign change anywhere in the
    bracket the ordinate is spurious and (False, inf) is returned.  A
    bracket holding two sign changes is shrunk up to four times; if the
    ambiguity persists, AmbiguousBracketError reports both roots.
    """
    if gamma <= 0 or tolerance <= 0:
        raise ValueError("gamma and tolerance must be positive")
    verified, residuals = verify_table(
        ZeroTable(np.array([gamma]), source=f"gamma={gamma}"), tolerance)
    return bool(verified[0]), float(residuals[0])


def verify_table(table: ZeroTable,
                 tolerance: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """verify_zero at every ordinate, in lockstep: (verified flags,
    residuals).

    Z is evaluated once on the 21-point grids of all ordinates still to
    bracket, then once per round of ``_refine_roots``.  Each ordinate gets
    the flag and residual that verify_zero gives it alone; an ambiguous
    bracket raises for the first such ordinate.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    gammas = table.gammas
    n = gammas.size
    lo, hi, flo, fhi = (np.empty(n) for _ in range(4))
    single = np.zeros(n, dtype=bool)
    todo = np.arange(n)
    delta = _BRACKET
    for _ in range(_MAX_SHRINK + 1):
        grids = np.linspace(gammas[todo] - delta, gammas[todo] + delta, 21,
                            axis=-1)
        vals = hardy_z(grids)
        flips = np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) < 0
        count = flips.sum(axis=1)
        rows = np.flatnonzero(count == 1)
        i = flips[rows].argmax(axis=1)
        k = todo[rows]
        lo[k], hi[k] = grids[rows, i], grids[rows, i + 1]
        flo[k], fhi[k] = vals[rows, i], vals[rows, i + 1]
        single[k] = True
        ambiguous = count > 1
        todo = todo[ambiguous]
        if not todo.size:
            break
        delta *= 0.5
    else:
        row = np.flatnonzero(ambiguous)[0]
        i = np.flatnonzero(flips[row])[:2]
        roots = _refine_roots(grids[row, i], grids[row, i + 1],
                              vals[row, i], vals[row, i + 1])
        raise AmbiguousBracketError(float(gammas[todo[0]]), roots.tolist())
    k = np.flatnonzero(single)
    residuals = np.full(n, math.inf)
    residuals[k] = np.abs(_refine_roots(lo[k], hi[k], flo[k], fhi[k])
                          - gammas[k])
    return residuals <= tolerance, residuals


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
