"""The package's own J0, J1 and zeros of J0 against mpmath.

External oracle: mpmath's besselj and besseljzero at 30 digits.  The
near-field table is checked against the script that generates it.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from mfun import _bessel_table, _kernels
from mfun._kernels import j0_arr, j1_arr
from mfun.density import _j0_zeros

U = 2.0 ** -53
BOUND = 2.5 * U   # j0_arr's and j1_arr's stated bound, absolute
X0 = _kernels._HANKEL_X0
ROOT = Path(__file__).resolve().parents[1]


def _points():
    """Random x on [0, 1e5], x0 and its neighbouring doubles, and every
    unit interval edge with its neighbours."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(15)))
    edges = np.arange(0.0, X0 + 1.0)
    return np.concatenate([
        rng.uniform(0.0, X0, 1200),
        rng.uniform(X0, 2.0 * X0, 400),
        10.0 ** rng.uniform(math.log10(2.0 * X0), 5.0, 600),
        [X0, np.nextafter(X0, 0.0), np.nextafter(X0, np.inf), 1e5, 1e-300],
        edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, np.inf),
    ])


@pytest.mark.parametrize("nu, kernel", [(0, j0_arr), (1, j1_arr)])
def test_bessel_matches_mpmath_within_bound(nu, kernel):
    mp = pytest.importorskip("mpmath")
    x = _points()
    got = kernel(x)
    with mp.workdps(30):
        worst = max(abs(mp.besselj(nu, mp.mpf(float(xi))) - mp.mpf(float(g)))
                    for xi, g in zip(x, got))
    assert float(worst) <= BOUND


def test_bessel_symmetry_and_non_finite():
    x = _points()
    assert np.array_equal(j0_arr(-x), j0_arr(x))
    assert np.array_equal(j1_arr(-x), -j1_arr(x))
    assert j0_arr(0.0) == 1.0 and j1_arr(0.0) == 0.0
    with np.errstate(invalid="ignore"):
        for kernel in (j0_arr, j1_arr):
            assert np.all(np.isnan(kernel([np.nan, np.inf, -np.inf])))


def test_bessel_values_depend_only_on_their_argument():
    """A value is the same alone, with near or far neighbours around it,
    and written in place (tests/test_budget.py varies the blocks)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(8)))
    x = rng.uniform(0.0, 2.0 * X0, 3 * 64 + 5)
    x[:64] = rng.uniform(0.0, X0, 64)           # a block all near
    x[64:128] = rng.uniform(X0, 4.0 * X0, 64)   # a block all far
    for kernel in (j0_arr, j1_arr):
        whole = kernel(x)
        for i in (0, 63, 64, 65, 127, 128, x.size - 1):
            assert kernel(x[i]) == whole[i]
            assert kernel(x[i:i + 1])[0] == whole[i]
        assert np.array_equal(kernel(x.reshape(1, -1)), whole.reshape(1, -1))
    inplace = x.copy()
    assert j0_arr(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, j0_arr(x))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 10, 99, 100, 1000, 4097,
                               9999, 13569, 13570])
def test_j0_zeros_match_mpmath_within_two_ulps(k):
    mp = pytest.importorskip("mpmath")
    got = float(_j0_zeros(13570)[k - 1])
    with mp.workdps(30):
        gap = abs(mp.besseljzero(0, k) - mp.mpf(got))
    assert float(gap) <= 2.0 * math.ulp(got)


def test_j0_zeros_depend_only_on_their_index():
    long = _j0_zeros(13570)
    for k in (1, 2, 313, 4096):
        assert np.array_equal(_j0_zeros(k), long[:k])
    assert not long.flags.writeable
    assert np.all(np.diff(long) > 0.0)


def test_near_table_is_what_the_script_generates():
    pytest.importorskip("mpmath")
    path = ROOT / "tools" / "bessel_table.py"
    spec = importlib.util.spec_from_file_location("bessel_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert tuple(script.coefficients(0)) == _bessel_table.J0
    assert tuple(script.coefficients(1)) == _bessel_table.J1
    assert _kernels._NEAR[0].shape == (script.DEGREE + 1, script.INTERVALS)
    assert script.INTERVALS == X0
