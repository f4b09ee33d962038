"""Coefficients c_m, beta_m and the truncated phase sum f_N.

External oracle: mpmath resummation at 30 digits (frozen constants),
plus structural properties (triangle inequality, tail monotonicity).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfun import _kernels
from mfun._kernels import phasor_sum
from mfun.empirical import (
    MIN_HAAR_SAMPLES,
    TorusPoint,
    _angle_stream,
    haar_oracle,
    torus_map,
)
from mfun.errors import PrecisionError, RangeError
from mfun.spectral import (
    analytic_tail_remainder,
    build_coefficients,
    coefficient_from_gamma,
    eval_f,
    eval_f_N,
    eval_psi_s,
    main_term,
    tail_bound,
)

# [DERIVED] mpmath, 30 digits: b_m = (1/2 + i gamma_m)(3/2 + i gamma_m)
C_ORACLE = (0.00497418478293009755,
            0.00225644485713653746,
            0.00159542508873688628)
BETA_ORACLE = (3.00050760029089835,
               3.04657961697393750,
               3.06170179680688456)

# [DERIVED] mpmath resummation of f_10 at 30 digits
F10_ORACLE = {1.0: -0.000751162295061635958 - 0.0057049357200724105j,
              2.5: 0.000553580359683460854 + 0.000593481673713861248j}
F100_LOG1E5 = -0.00336875586149005059 + 0.00387914706649979506j


def test_coefficients_match_oracle(coeffs):
    for m in range(3):
        assert coeffs.c[m] == pytest.approx(C_ORACLE[m], rel=1e-14)
        assert coeffs.beta[m] == pytest.approx(BETA_ORACLE[m], rel=1e-14)


def test_c_strictly_decreasing(coeffs):
    assert np.all(np.diff(coeffs.c) < 0)


def test_beta_in_upper_half(coeffs):
    assert np.all((0 < coeffs.beta) & (coeffs.beta < math.pi))


def test_c_near_inverse_gamma_squared(coeffs):
    # |b_m| = gamma_m^2 sqrt((1 + 1/(4 gamma^2))(1 + 9/(4 gamma^2)))
    assert np.all(np.abs(coeffs.c * coeffs.gamma ** 2 - 1.0)
                  <= 2.0 / coeffs.gamma ** 2)


def test_coefficient_from_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        coefficient_from_gamma(1, -3.0)


def test_f_N_matches_oracle(coeffs):
    for alpha, want in F10_ORACLE.items():
        got = eval_f_N(coeffs, 10, alpha)
        assert got == pytest.approx(want, abs=1e-13)
    got = eval_f_N(coeffs, 100, math.log(1e5))
    assert got == pytest.approx(F100_LOG1E5, abs=1e-13)


def test_f_N_vectorized_consistent(coeffs):
    alphas = np.linspace(0.0, 10.0, 37)
    vec = eval_f_N(coeffs, 25, alphas)
    for a, v in zip(alphas, vec):
        assert eval_f_N(coeffs, 25, float(a)) == pytest.approx(v, abs=0.0)


def test_phase_sums_independent_of_batch(coeffs, monkeypatch):
    """f_series and phasor_sum values do not depend on the points around them.

    Both kernels add their terms in ascending m, so a value is the same
    double alone, inside a batch, and on either side of a chunk boundary.
    """
    n = 25
    c, g, b = coeffs.c[:n], coeffs.gamma[:n], coeffs.beta[:n]
    alphas = np.linspace(0.0, 1e3, 200)
    whole = _kernels.f_series(alphas, c, g, b)
    monkeypatch.setattr(_kernels, "_F_CHUNK", 64)
    chunked = _kernels.f_series(alphas, c, g, b)
    assert np.array_equal(chunked, whole)
    for i in (0, 62, 63, 64, 65, 127, 128, 199):
        assert _kernels.f_series(alphas[i:i + 1], c, g, b)[0] == whole[i]

    seed = 11
    theta = next(_angle_stream(n, MIN_HAAR_SAMPLES, seed))
    batch = phasor_sum(theta, c)
    alone = np.array([torus_map(coeffs, TorusPoint(row)) for row in theta])
    assert np.array_equal(batch, alone)
    _, max_abs = haar_oracle(coeffs, n, [], MIN_HAAR_SAMPLES, seed)
    assert max_abs == float(np.max(np.abs(alone)))


def test_f_N_bounded_by_support_radius(coeffs):
    s = float(np.sum(coeffs.c[:40]))
    alphas = np.linspace(0.0, 50.0, 500)
    assert np.all(np.abs(eval_f_N(coeffs, 40, alphas)) <= s + 1e-15)


def test_tail_bound_decreasing_and_positive(coeffs):
    bounds = [tail_bound(coeffs, n) for n in (1, 10, 50, 100)]
    assert all(b > 0 for b in bounds)
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_tail_bound_dominates_table_tail(coeffs):
    # the bound at order n must cover the summed table tail beyond n
    for n in (10, 60):
        table_tail = float(np.sum(coeffs.c[n:]))
        assert tail_bound(coeffs, n) >= table_tail


def test_analytic_tail_remainder_monotone():
    assert analytic_tail_remainder(100.0) > analytic_tail_remainder(1000.0) > 0


def test_eval_f_meets_eps(coeffs):
    eps = 5e-3
    value, n_used = eval_f(coeffs, 1.0, eps)
    assert abs(value - eval_f_N(coeffs, 100, 1.0)) <= eps
    assert tail_bound(coeffs, n_used) <= eps


def test_eval_f_below_floor_raises(coeffs):
    with pytest.raises(PrecisionError):
        eval_f(coeffs, 1.0, 1e-12)


def test_eval_psi_s_matches_mpmath(coeffs):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    s, x = 1.25 + 0.5j, 50.0
    total = mp.mpc(0)
    for g in coeffs.gamma:
        g = mp.mpf(float(g))
        total += (mp.expj(g * mp.log(x))
                  / ((mp.mpf('0.5') + 1j * g) ** s
                     * (mp.mpf('1.5') + 1j * g) ** s))
    assert eval_psi_s(coeffs, s, x) == pytest.approx(
        complex(total), rel=1e-12)


def test_eval_psi_s_rejects_left_halfplane(coeffs):
    with pytest.raises(RangeError):
        eval_psi_s(coeffs, 0.25 + 1j, 10.0)


def test_main_term_matches_definition(coeffs):
    x = 1234.0
    want = -4.0 * x ** 1.5 * eval_f_N(coeffs, 30, math.log(x)).real
    assert main_term(coeffs, x, 30) == pytest.approx(want, rel=1e-14)


def _shared_coeffs(_cache=[]):
    if not _cache:
        from mfun import build_coefficients, bundled_zeros_path, load_zeros
        _cache.append(build_coefficients(load_zeros(bundled_zeros_path())))
    return _cache[0]


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(-20.0, 20.0), n=st.integers(1, 100))
def test_triangle_inequality_property(alpha, n):
    # |f_n| <= sum c_m, and consecutive truncations differ by exactly c_n
    table = _shared_coeffs()
    fn = eval_f_N(table, n, alpha)
    assert abs(fn) <= float(np.sum(table.c[:n])) * (1 + 1e-13)
    if n > 1:
        step = fn - eval_f_N(table, n - 1, alpha)
        assert abs(step) == pytest.approx(table.c[n - 1], rel=1e-12)
