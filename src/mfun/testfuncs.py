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

__all__ = ["TestFunction"]

_QUAD_NODES_MIN = 64


def _disc_arc_fraction(r: float, center: complex, radius: float) -> float:
    """Fraction of the circle |w|=r lying inside the disc |w-center|<=radius."""
    d = abs(center)
    if r == 0.0:
        return 1.0 if d <= radius else 0.0
    if r + d <= radius:
        return 1.0
    if abs(r - d) >= radius:
        return 0.0
    cosphi = (r * r + d * d - radius * radius) / (2.0 * r * d)
    return math.acos(max(-1.0, min(1.0, cosphi))) / math.pi


def _rect_arc_fraction(r: float, x0: float, x1: float,
                       y0: float, y1: float) -> float:
    """Fraction of the circle |w|=r lying inside [x0,x1] x [y0,y1]."""
    if r == 0.0:
        return 1.0 if (x0 <= 0.0 <= x1 and y0 <= 0.0 <= y1) else 0.0
    cuts = {0.0, 2.0 * math.pi}
    for x in (x0, x1):
        if abs(x) < r:
            a = math.acos(x / r)
            cuts.update(((a) % (2 * math.pi), (-a) % (2 * math.pi)))
    for y in (y0, y1):
        if abs(y) < r:
            a = math.asin(y / r)
            cuts.update((a % (2 * math.pi), (math.pi - a) % (2 * math.pi)))
    angles = sorted(cuts)
    inside = 0.0
    for lo, hi in zip(angles[:-1], angles[1:]):
        mid = 0.5 * (lo + hi)
        u, v = r * math.cos(mid), r * math.sin(mid)
        if x0 <= u <= x1 and y0 <= v <= y1:
            inside += hi - lo
    return inside / (2.0 * math.pi)


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
            return np.exp(-np.abs(w - p["center"]) ** 2
                          / (2.0 * p["sigma"] ** 2))
        if self.kind == "character":
            x = (np.conj(p["z"]) * w).real
            out = np.empty(w.shape, dtype=np.complex128)
            np.cos(x, out=out.real)
            np.sin(x, out=out.imag)
            return out
        raise ValueError(f"unknown kind {self.kind!r}")

    def angular_average(self, r):
        """(1/2pi) * integral of Phi(r e^{i theta}) d theta, per radius."""
        r = np.atleast_1d(np.asarray(r, dtype=np.float64))
        p = self.params
        if self.kind == "one":
            return np.ones(r.shape)
        if self.kind == "rectangle":
            return np.array([_rect_arc_fraction(ri, p["x0"], p["x1"],
                                                p["y0"], p["y1"]) for ri in r])
        if self.kind == "disc":
            return np.array([_disc_arc_fraction(ri, p["center"], p["radius"])
                             for ri in r])
        if self.kind == "annulus":
            return ((r > p["r_inner"]) & (r <= p["r_outer"])).astype(np.float64)
        # smooth kinds: periodic trapezoid in theta
        if self.kind == "character":
            scale = abs(p["z"]) * float(r.max(initial=0.0))
        elif self.kind == "gaussian":
            scale = float(r.max(initial=0.0)) / p["sigma"]
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        n = max(_QUAD_NODES_MIN, 4 * int(scale) + 16)
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        w = np.outer(r, np.exp(1j * theta))
        return self(w).mean(axis=1)
