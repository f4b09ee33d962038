"""Angular averages of the indicator test functions.

Oracle: the scalar arc-fraction formulas below, evaluated one radius at a
time with the math module.
"""

import math

import numpy as np
import pytest

from mfun import TestFunction


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


S = 0.05   # about the support radius at N = 10
# A fraction lies in [0, 1]; 2 ulp of 1.0.  numpy's arccos and arcsin may
# differ from math's by 1 ulp, which moves a cut by up to ulp(2 pi).
TOL = 2.0 * np.spacing(1.0)


def _radii(special):
    """A uniform grid from 0 past the support, plus each special radius
    and its neighbouring doubles."""
    special = np.array(special, dtype=np.float64)
    r = np.concatenate([np.linspace(0.0, 1.2 * S, 4097), special,
                        np.nextafter(special, np.inf),
                        np.nextafter(special, -np.inf)])
    return r[r >= 0.0]


@pytest.mark.parametrize("box", [
    (-0.5 * S, 0.5 * S, -0.5 * S, 0.5 * S),
    (-0.25 * S, 0.75 * S, 0.0, 0.6 * S),
    (0.1 * S, 0.3 * S, 0.2 * S, 0.9 * S),
    (-S, -0.2 * S, -0.4 * S, -0.1 * S),
])
def test_rectangle_average_matches_scalar(box):
    """Radii include 0, the edge distances (tangent circles) and the corners."""
    x0, x1, y0, y1 = box
    r = _radii([0.0, *(abs(v) for v in box),
                *(math.hypot(x, y) for x in (x0, x1) for y in (y0, y1))])
    want = np.array([_rect_arc_fraction(ri, x0, x1, y0, y1) for ri in r])
    got = TestFunction.rectangle(x0, x1, y0, y1).angular_average(r)
    assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("center, radius", [
    (0.0, 0.5 * S),
    (0.25 * S + 0.0j, S / 3.0),
    (0.3 * S - 0.4j * S, 0.1 * S),
    (0.2j * S, 0.5 * S),
])
def test_disc_average_matches_scalar(center, radius):
    """Radii include 0, the centre distance and the tangent circles."""
    d = abs(center)
    r = _radii([0.0, d, abs(d - radius), d + radius])
    want = np.array([_disc_arc_fraction(ri, center, radius) for ri in r])
    got = TestFunction.disc(center, radius).angular_average(r)
    assert np.max(np.abs(got - want)) <= TOL
