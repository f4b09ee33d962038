"""Planar test functions and their angular averages.

A TestFunction can be evaluated on complex samples (for the empirical
routes) and radially averaged (for integration against a radial density).
Indicator averages are computed geometrically as arc-length fractions;
smooth kinds fall back to periodic trapezoid quadrature, which converges
spectrally for these integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _per_block, expi

__all__ = ["TestFunction"]

_QUAD_NODES_MIN = 64


def _disc_arc_fraction(r, center: complex, radius: float):
    """Fraction of each circle |w|=r lying inside the disc |w-center|<=radius."""
    d = abs(center)
    # r = 0 or d = 0 divides by zero; np.where below replaces those values
    with np.errstate(divide="ignore", invalid="ignore"):
        cosphi = (r * r + d * d - radius * radius) / (2.0 * r * d)
    out = np.arccos(np.clip(cosphi, -1.0, 1.0)) / math.pi
    out = np.where(np.abs(r - d) >= radius, 0.0, out)
    out = np.where(r + d <= radius, 1.0, out)
    return np.where(r == 0.0, float(d <= radius), out)


def _rect_arc_fraction(r, x0: float, x1: float, y0: float, y1: float):
    """Fraction of each circle |w|=r lying inside [x0,x1] x [y0,y1].

    The circle is cut where it crosses the four edge lines; an arc between
    neighbouring cuts lies inside or outside as its midpoint does.  A
    missing crossing is a repeated cut at 0, an arc of length zero.
    """
    two_pi = 2.0 * math.pi
    cuts = [np.zeros(r.shape), np.full(r.shape, two_pi)]
    for edge, arc, mirror in ((x0, np.arccos, 0.0), (x1, np.arccos, 0.0),
                              (y0, np.arcsin, math.pi),
                              (y1, np.arcsin, math.pi)):
        hit = abs(edge) < r
        a = arc(np.divide(edge, r, out=np.zeros(r.shape), where=hit))
        cuts += [np.where(hit, a % two_pi, 0.0),
                 np.where(hit, (mirror - a) % two_pi, 0.0)]
    cuts = np.sort(np.stack(cuts, axis=1), axis=1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    w = r[:, None] * expi(0.5 * (lo + hi))
    inside = ((x0 <= w.real) & (w.real <= x1)
              & (y0 <= w.imag) & (w.imag <= y1))
    arcs = np.where(inside, hi - lo, 0.0)
    total = np.zeros(r.shape)
    for j in range(arcs.shape[1]):   # ascending angle, as a running sum
        total += arcs[:, j]
    frac = total / two_pi
    centre_in = x0 <= 0.0 <= x1 and y0 <= 0.0 <= y1
    return np.where(r == 0.0, float(centre_in), frac)


@dataclass(frozen=True)
class TestFunction:
    """One of the supported planar test-function kinds."""
    kind: str
    params: dict = field(default_factory=dict)

    __test__ = False  # not a pytest collection target

    # -- constructors -----------------------------------------------------
    @staticmethod
    def one() -> "TestFunction":
        return TestFunction("one")

    @staticmethod
    def rectangle(x0, x1, y0, y1) -> "TestFunction":
        if not (x0 < x1 and y0 < y1):
            raise ValueError("degenerate rectangle")
        return TestFunction("rectangle", {"x0": x0, "x1": x1,
                                          "y0": y0, "y1": y1})

    @staticmethod
    def disc(center: complex, radius: float) -> "TestFunction":
        if radius <= 0:
            raise ValueError("disc radius must be positive")
        return TestFunction("disc", {"center": complex(center),
                                     "radius": float(radius)})

    @staticmethod
    def annulus(r_inner: float, r_outer: float) -> "TestFunction":
        if not 0 <= r_inner < r_outer:
            raise ValueError("need 0 <= r_inner < r_outer")
        return TestFunction("annulus", {"r_inner": float(r_inner),
                                        "r_outer": float(r_outer)})

    @staticmethod
    def gaussian(center: complex, sigma: float) -> "TestFunction":
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return TestFunction("gaussian", {"center": complex(center),
                                         "sigma": float(sigma)})

    @staticmethod
    def character(z: complex) -> "TestFunction":
        return TestFunction("character", {"z": complex(z)})

    # -- evaluation -------------------------------------------------------
    @property
    def label(self) -> str:
        if self.kind == "one":
            return "one"
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items(),
                                                       key=lambda kv: kv[0]))
        return f"{self.kind}({inner})"

    def __call__(self, w):
        w = np.asarray(w, dtype=np.complex128)
        p = self.params
        if self.kind == "one":
            return np.ones(w.shape)
        if self.kind == "rectangle":
            return (((p["x0"] <= w.real) & (w.real <= p["x1"])
                     & (p["y0"] <= w.imag) & (w.imag <= p["y1"]))
                    .astype(np.float64))
        if self.kind == "disc":
            return (np.abs(w - p["center"]) <= p["radius"]).astype(np.float64)
        if self.kind == "annulus":
            aw = np.abs(w)
            return ((p["r_inner"] < aw) & (aw <= p["r_outer"])).astype(np.float64)
        if self.kind == "gaussian":
            # exp(-|w - center|^2 / (2 sigma^2)) in place in |w - center|,
            # the same operations in the same order as the formula
            a = np.abs(w - p["center"])
            a *= a
            np.negative(a, out=a)
            a /= 2.0 * p["sigma"] ** 2
            return np.exp(a, out=a)
        if self.kind == "character":
            z = p["z"]
            x = w.real * z.real   # Re(conj(z) w), written contiguously
            x += w.imag * z.imag
            return expi(x)
        raise ValueError(f"unknown kind {self.kind!r}")

    def angular_average(self, r):
        """(1/2pi) * integral of Phi(r e^{i theta}) d theta, per radius.

        The smooth kinds take the mean over the quadrature nodes one block
        of radii at a time, sized by the bytes a point (radius x node)
        holds: 80 for a character, 40 for a Gaussian.  Each radius's mean
        is its own row's, so the blocks do not change it.  A rectangle's
        arc fractions are taken in row blocks too, each radius's ten cut
        angles within one block.
        """
        r = np.atleast_1d(np.asarray(r, dtype=np.float64))
        p = self.params
        if self.kind == "one":
            return np.ones(r.shape)
        if self.kind == "rectangle":
            out = np.empty(r.shape)
            flat, res = r.reshape(-1), out.reshape(-1)
            # ten cut angles, nine arcs and their phases through expi
            rows = _per_block(672)
            for lo in range(0, flat.size, rows):
                res[lo:lo + rows] = _rect_arc_fraction(
                    flat[lo:lo + rows], p["x0"], p["x1"], p["y0"], p["y1"])
            return out
        if self.kind == "disc":
            return _disc_arc_fraction(r, p["center"], p["radius"])
        if self.kind == "annulus":
            return ((r > p["r_inner"]) & (r <= p["r_outer"])).astype(np.float64)
        # smooth kinds: periodic trapezoid in theta
        if self.kind == "character":
            scale = abs(p["z"]) * float(r.max(initial=0.0))
            out, held = np.empty(r.size, dtype=np.complex128), 80
        elif self.kind == "gaussian":
            scale = float(r.max(initial=0.0)) / p["sigma"]
            out, held = np.empty(r.size), 40
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        n = max(_QUAD_NODES_MIN, 4 * int(scale) + 16)
        nodes = expi(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
        r = r.reshape(-1)
        rows = _per_block(held * n)
        for lo in range(0, r.size, rows):
            w = np.outer(r[lo:lo + rows], nodes)
            out[lo:lo + rows] = self(w).mean(axis=1)
        return out
