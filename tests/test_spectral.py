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
from mfun._kernels import phasor_sum, splitmix64
from mfun.empirical import MIN_HAAR_SAMPLES, haar_oracle
from mfun.errors import ZeroTableError
from mfun.goldbach import a2_curve, compare_main_term, sieve_lambda
from mfun.spectral import analytic_tail_remainder, eval_f_N, tail_bound
from mfun.zeros import ZeroTable

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
    for values in (coeffs.gamma, coeffs.c, coeffs.beta):
        assert not values.flags.writeable


def test_c_strictly_decreasing(coeffs):
    assert np.all(np.diff(coeffs.c) < 0)


def test_beta_in_upper_half(coeffs):
    assert np.all((0 < coeffs.beta) & (coeffs.beta < math.pi))


def test_c_near_inverse_gamma_squared(coeffs):
    # |b_m| = gamma_m^2 sqrt((1 + 1/(4 gamma^2))(1 + 9/(4 gamma^2)))
    assert np.all(np.abs(coeffs.c * coeffs.gamma ** 2 - 1.0)
                  <= 2.0 / coeffs.gamma ** 2)


def test_table_rejects_bad_ordinates():
    """Coefficients are built only from a table of positive, finite,
    strictly increasing ordinates, which is checked as it is made."""
    for gammas in ([-3.0], [14.1, 0.0], [14.1, math.inf], [14.1, math.nan],
                   [21.0, 14.1], [14.1, 14.1], []):
        with pytest.raises(ZeroTableError):
            ZeroTable(np.array(gammas), "synthetic")


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
    # an n-D alpha gives its own shape, each value as in the 1-D call
    grid = eval_f_N(coeffs, 25, alphas[:6].reshape(2, 3))
    assert grid.shape == (2, 3)
    assert np.array_equal(grid, vec[:6].reshape(2, 3))


def test_phase_sums_independent_of_batch(coeffs):
    """f_series and phasor_sum values do not depend on the points around them.

    Both kernels add their terms in ascending m, so a value is the same
    double alone, inside a batch, and on either side of a block edge.
    """
    n = 25
    c, g, b = coeffs.c[:n], coeffs.gamma[:n], coeffs.beta[:n]
    alphas = np.linspace(0.0, 1e3, 700)
    whole = _kernels.f_series(alphas, c, g, b)
    edge = _kernels._per_block(64 * n)   # points per block: 327 here
    picks = {0, alphas.size - 1, edge - 2, edge - 1, edge, edge + 1,
             2 * edge - 1, 2 * edge}
    for i in sorted(picks):
        assert _kernels.f_series(alphas[i:i + 1], c, g, b)[0] == whole[i]

    seed = 11
    # Haar's draws: the top 24 bits of each SplitMix64 word
    theta = (splitmix64(seed, 0, MIN_HAAR_SAMPLES * n) >> 40).reshape(-1, n)
    batch = phasor_sum(theta, c)
    alone = np.concatenate([phasor_sum(row[None, :], c) for row in theta])
    assert np.array_equal(batch, alone)
    _, max_abs = haar_oracle(coeffs, n, [], MIN_HAAR_SAMPLES, seed)
    assert max_abs == float(np.max(np.abs(alone)))


@pytest.mark.parametrize("n", [10, 100])
def test_f_grid_matches_mpmath_within_bound(coeffs, n):
    """f_grid_chunks against an mpmath sum at block and chunk edges and
    alpha ~ 1e6.

    The grid is the one the time averages use up to X = 1e6; the direct
    ``f_series`` at the rounded alpha is held to the same bound.
    """
    mp = pytest.importorskip("mpmath")
    c, g, b = coeffs.c[:n], coeffs.gamma[:n], coeffs.beta[:n]
    last = int(math.ceil(1e6 * 10.0 * g[-1] / (2.0 * math.pi)))
    h = 1e6 / last
    k, chunk = _kernels.GRID_BLOCK, 1 << 20
    picks = [0, 1, k - 1, k, k + 1, 5 * k - 1, chunk - 1, chunk, chunk + 1,
             last // chunk * chunk, last - k, last - 1, last]
    u = 2.0 ** -53
    with mp.workdps(30):
        for j in picks:
            alpha = mp.mpf(j) * mp.mpf(h)
            exact = mp.fsum(mp.mpf(cm) * mp.expj(mp.mpf(gm) * alpha - mp.mpf(bm))
                            for cm, gm, bm in zip(c, g, b))
            bound = u * float(np.sum(c * (3.0 * g * float(alpha) + b
                                          + 2 * n + 16)))
            for got in (next(_kernels.f_grid_chunks(j, j + 1, 1,
                                                    h, c, g, b))[0],
                        _kernels.f_series(np.array([j * h]), c, g, b)[0]):
                assert float(abs(mp.mpc(got) - exact)) <= bound, (j, got)


def test_f_grid_values_depend_only_on_the_index(coeffs):
    """A node's value is the same alone, in any window, in any chunking
    and across blocks (tests/test_budget.py varies the grouping of blocks)."""
    n = 10
    c, g, b = coeffs.c[:n], coeffs.gamma[:n], coeffs.beta[:n]
    h = 2.0 * math.pi / (10.0 * g[-1])
    k = _kernels.GRID_BLOCK
    start = (1 << 20) - 2 * k
    stop = start + 4 * k + 7
    whole = next(_kernels.f_grid_chunks(start, stop, stop - start,
                                        h, c, g, b))
    for lo, hi in ((0, 1), (k - 1, k + 1), (3, 2 * k + 5), (2 * k, 4 * k + 7)):
        part = next(_kernels.f_grid_chunks(start + lo, start + hi, hi - lo,
                                           h, c, g, b))
        assert np.array_equal(part, whole[lo:hi])
    pieces = _kernels.f_grid_chunks(start, stop, k + 3, h, c, g, b)
    assert np.array_equal(np.concatenate(list(pieces)), whole)


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
        for power in (1, 2):
            table_tail = float(np.sum(coeffs.c[n:] ** power))
            assert tail_bound(coeffs, n, power) >= table_tail


def test_analytic_tail_remainder_monotone():
    for p in (2, 4):
        assert (analytic_tail_remainder(100.0, p)
                > analytic_tail_remainder(1000.0, p) > 0)


@pytest.mark.parametrize("p", [2, 4])
def test_analytic_tail_remainder_matches_mpmath_quad(coeffs, p):
    mp = pytest.importorskip("mpmath")
    t0 = coeffs.gamma[-1]
    with mp.workdps(30):
        want = mp.quad(lambda t: mp.log(t / (2 * mp.pi)) / (2 * mp.pi)
                       * t ** -p, [t0, mp.inf])
    assert analytic_tail_remainder(t0, p) == pytest.approx(float(want),
                                                          rel=1e-14)


def test_main_term_matches_definition(coeffs):
    x = 1234
    (row,) = compare_main_term(a2_curve(sieve_lambda(2000), [x]), coeffs,
                               30, [x])
    want = -4.0 * x ** 1.5 * eval_f_N(coeffs, 30, math.log(x)).real
    assert row["main_term"] == pytest.approx(want, rel=1e-14)


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
