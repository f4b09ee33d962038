"""Torus sampling, alpha-averaging, Weyl sums and the comparison report."""

import math

import numpy as np
import pytest

from mfun import TestFunction
from mfun.density import char_M_N, default_r_grid, default_rho_grid, invert_to_density
from mfun.empirical import (
    ResonanceError,
    TorusPoint,
    alpha_average,
    compare_report,
    fujii_rectangle_measure,
    haar_oracle,
    torus_map,
    weyl_test,
)
from mfun.errors import RangeError
from mfun.spectral import eval_f_N


def test_torus_map_identity_bit_exact(coeffs):
    """f_N(alpha) equals the torus map at angles theta_m = alpha gamma_m - beta_m.

    Both paths evaluate cos/sin on identical doubles, so the match is exact.
    """
    n = 12
    for alpha in (0.0, 1.0, 2.5, 17.3):
        angles = alpha * coeffs.gamma[:n] - coeffs.beta[:n]
        direct = eval_f_N(coeffs, n, alpha)
        mapped = torus_map(coeffs, TorusPoint(angles))
        assert direct == mapped


def test_torus_map_rejects_bad_length(coeffs):
    with pytest.raises(RangeError):
        torus_map(coeffs, TorusPoint(np.zeros(101)))


def test_haar_oracle_deterministic(coeffs):
    phis = [TestFunction.disc(0.0, 0.005), TestFunction.character(100.0)]
    a = haar_oracle(coeffs, 5, phis, 20000, seed=7)
    b = haar_oracle(coeffs, 5, phis, 20000, seed=7)
    assert a == b
    c = haar_oracle(coeffs, 5, phis, 20000, seed=8)
    assert a[0] != c[0]


def test_haar_oracle_sample_floor(coeffs):
    with pytest.raises(RangeError):
        haar_oracle(coeffs, 5, [TestFunction.one()], 100, seed=1)


def test_haar_phi_means_support(coeffs):
    n = 8
    means, max_abs = haar_oracle(coeffs, n, [TestFunction.one()],
                                 50000, seed=2)
    assert means[0] == pytest.approx(1.0)
    assert max_abs <= float(np.sum(coeffs.c[:n])) * (1 + 1e-12)


def test_reflection_symmetry(coeffs):
    """Conjugation symmetry of the Haar law.

    The law of the phasor sum is invariant under conjugation, so a
    rectangle and its mirror image in the real axis carry the same
    probability, to sampling noise.
    """
    n = 5
    samples = 200000
    s = float(np.sum(coeffs.c[:n]))
    rect = TestFunction.rectangle(-0.3 * s, 0.6 * s, 0.1 * s, 0.5 * s)
    mirror = TestFunction.rectangle(-0.3 * s, 0.6 * s, -0.5 * s, -0.1 * s)
    (p, q), _ = haar_oracle(coeffs, n, [rect, mirror], samples, seed=11)
    assert 0.0 < p < 1.0
    sigma = math.sqrt((p + q) / samples)   # Var(1_A - 1_B) <= p + q, A and B disjoint
    assert abs(p - q) <= 5.0 * sigma


def test_alpha_average_constant(coeffs):
    assert alpha_average(coeffs, 5, TestFunction.one(),
                         2000.0) == pytest.approx(1.0, rel=1e-12)


def test_alpha_average_matches_brute_trapezoid(coeffs):
    n = 5
    phi = TestFunction.gaussian(0.0, 0.004)
    x = 500.0
    got = alpha_average(coeffs, n, phi, x)
    limit = 2.0 * math.pi / (10.0 * coeffs.gamma[n - 1])
    pts = int(math.ceil(x / limit)) + 1
    grid = np.linspace(0.0, x, pts)
    vals = phi(eval_f_N(coeffs, n, grid))
    brute = float(np.trapezoid(vals.real, grid)) / x
    assert got == pytest.approx(brute, rel=1e-10)


def test_alpha_average_checkpoints_consistent(coeffs):
    from mfun.empirical import alpha_average_many
    n = 5
    phi = TestFunction.disc(0.0, 0.005)
    ladder = alpha_average_many(coeffs, n, [phi], [1000.0, 4000.0])[0]
    single = alpha_average(coeffs, n, phi, 1000.0)
    assert ladder[0] == pytest.approx(single, rel=1e-9)


def test_alpha_average_guards(coeffs):
    with pytest.raises(RangeError):
        alpha_average(coeffs, 5, TestFunction.one(), 10.0)   # X too short
    with pytest.raises(RangeError):
        alpha_average(coeffs, 5, TestFunction.one(), 1000.0, step=1.0)


def test_fujii_rectangle_measure(coeffs):
    rect = TestFunction.rectangle(-1.0, 1.0, -1.0, 1.0)
    assert fujii_rectangle_measure(coeffs, 5, rect, 1000.0) == pytest.approx(
        1.0, rel=1e-12)
    with pytest.raises(ValueError):
        fujii_rectangle_measure(coeffs, 5, TestFunction.one(), 1000.0)


def test_weyl_bound_exact(coeffs):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(42)))
    x = 1e4
    for _ in range(20):
        vec = rng.integers(-3, 4, size=8)
        if not np.any(vec):
            continue
        val = weyl_test(coeffs, vec.astype(float), x)
        omega = float(np.dot(vec, coeffs.gamma[:8]))
        assert abs(val) <= 2.0 / (x * abs(omega)) * (1 + 1e-12)


def test_weyl_closed_form_value(coeffs):
    vec = np.array([1.0])
    x = 100.0
    omega = coeffs.gamma[0]
    beta = coeffs.beta[0]
    want = (np.exp(-1j * beta)
            * (np.exp(1j * x * omega) - 1.0) / (1j * x * omega))
    assert weyl_test(coeffs, vec, x) == pytest.approx(complex(want), rel=1e-14)


def test_weyl_rejects_zero_vector(coeffs):
    with pytest.raises(ValueError):
        weyl_test(coeffs, np.zeros(5), 1e4)


def test_weyl_resonance_guard(coeffs):
    """A synthetic table with a rational relation trips the resonance floor."""
    from mfun.spectral import CoefficientTable, coefficient_from_gamma
    g = 14.134725141734694
    synthetic = CoefficientTable(tuple(
        coefficient_from_gamma(i + 1, v)
        for i, v in enumerate([g, 2.0 * g + 1e-14])))
    with pytest.raises(ResonanceError):
        weyl_test(synthetic, np.array([2.0, -1.0]), 1e4)


def test_compare_report_small(coeffs):
    n = 6
    d = invert_to_density(
        char_M_N(coeffs, n, default_rho_grid(coeffs, n)),
        default_r_grid(coeffs, n, 1024))
    phis = [TestFunction.disc(0.0, 0.006), TestFunction.character(100.0)]
    means, _ = haar_oracle(coeffs, n, phis, 100000, seed=5)
    report = compare_report(coeffs, n, means, d, phis,
                            x_ladder=(500.0, 5000.0))
    assert len(report.rows) == 2
    assert report.max_discrepancy <= 1e-2
    for row in report.rows:
        assert abs(row.haar_value - row.density_value) <= 1e-2


def test_compare_report_order_mismatch(coeffs):
    n = 6
    d = invert_to_density(
        char_M_N(coeffs, n, default_rho_grid(coeffs, n)),
        default_r_grid(coeffs, n, 512))
    phis = [TestFunction.one()]
    means, _ = haar_oracle(coeffs, 5, phis, 20000, seed=5)   # different order
    with pytest.raises(RangeError):
        compare_report(coeffs, 5, means, d, phis, x_ladder=(500.0, 1000.0))
