"""Zero table loading, Hardy-Z verification and the counting diagnostic.

External oracle: mpmath (zetazero / siegelz at 30 digits), evaluated live
where cheap and frozen as constants where not.  Internal oracles: the
scalar Euler-Maclaurin Z that the array form replaced, and verify_zero
one ordinate at a time for the lockstep verify_table.
"""

import math

import numpy as np
import pytest

import mfun.zeros
from mfun.errors import AmbiguousBracketError, RangeError, ZeroTableError
from mfun.zeros import (
    ZeroTable,
    bundled_zeros_path,
    counting_check,
    counting_expected,
    hardy_z,
    load_zeros,
    verify_table,
    verify_zero,
)

# [DERIVED] mpmath.zetazero, 30 digits
GAMMA_1 = 14.1347251417346938
GAMMA_2 = 21.0220396387715550
GAMMA_3 = 25.0108575801456888
GAMMA_100 = 236.5242296658162060

# [DERIVED] mpmath.siegelz, 30 digits
Z_ORACLE = {20.0: 1.14784241218519728,
            50.5: -1.14289218402380187,
            100.0: 2.69269705666446347}


def test_bundled_table_shape(zero_table):
    assert zero_table.gammas.shape == (100,)
    assert np.all(np.diff(zero_table.gammas) > 0)
    assert not zero_table.gammas.flags.writeable


def test_bundled_ordinates_match_oracle(zero_table):
    g = zero_table.gammas
    assert g[0] == pytest.approx(GAMMA_1, abs=1e-10)
    assert g[1] == pytest.approx(GAMMA_2, abs=1e-10)
    assert g[2] == pytest.approx(GAMMA_3, abs=1e-10)
    assert g[99] == pytest.approx(GAMMA_100, abs=1e-10)


def test_hardy_z_matches_oracle():
    for t, z in Z_ORACLE.items():
        assert hardy_z(t) == pytest.approx(z, abs=1e-9)


def test_hardy_z_against_mpmath_scan():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for t in np.linspace(15.0, 240.0, 17):
        assert hardy_z(float(t)) == pytest.approx(
            float(mp.siegelz(mp.mpf(float(t)))), abs=1e-8)


@pytest.mark.parametrize("t", [1000.3, 1419.4])
def test_hardy_z_far_up_the_line(t):
    """Above the bundled table: about 1.2e-12 and 3.6e-13 off mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        assert abs(hardy_z(t) - float(mp.siegelz(mp.mpf(t)))) <= 1e-11


def test_riemann_siegel_theta_matches_mpmath_within_bound():
    """The Stirling series, shifted up for small t, within its stated
    2e-15 (t + 1) from t = 0.5 to 1500."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    wide = 10.0 ** rng.uniform(math.log10(0.5), math.log10(1500.0), 400)
    # t = 24 is where |1/4 + it/2| reaches 12 and the shift stops
    ts = np.concatenate([np.linspace(0.5, 30.0, 119), wide,
                         [23.9, 24.0, 24.1, 1500.0]])
    with mp.workdps(30):
        for t in ts.tolist():
            theta = mfun.zeros._riemann_siegel_theta(t)
            assert abs(theta - mp.siegeltheta(mp.mpf(t))) <= 2e-15 * (t + 1)


def verify_grids(gammas):
    """The 21-point grids gamma +- 0.05 that zeros-verify evaluates first."""
    gammas = np.asarray(gammas, dtype=np.float64)
    return np.linspace(gammas - 0.05, gammas + 0.05, 21, axis=-1)


# Stirling's series for log Gamma, for the scalar oracle's theta
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)


def hardy_z_scalar(t):
    """Oracle: Z(t) one point at a time, as before the array form: the
    Euler-Maclaurin sum of n**-s by numpy's complex power, then theta by
    Stirling's series in Python complex arithmetic."""
    s = 0.5 + 1j * t
    m = max(int(abs(t)), 10)
    zeta = complex(np.sum(np.arange(1, m) ** (-s)))
    zeta += m ** (1.0 - s) / (s - 1.0) + 0.5 * m ** (-s)
    fact, poch = 1.0, 1.0 + 0j
    for k, b2k in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                             -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798,
                             -174611 / 330), start=1):
        fact *= (2 * k - 1) * (2 * k)
        poch *= (s + (2 * k - 2)) * (s + (2 * k - 3)) if k > 1 else s
        zeta += (b2k / fact) * poch * m ** (1.0 - s - 2 * k)
    b, a, shift = 0.5 * t, 0.25, 0.0
    while a * a + b * b < 144.0:
        shift -= math.atan2(b, a)
        a += 1.0
    inv = 1.0 / complex(a, b)
    series = 0j
    for c in reversed(_STIRLING):
        series = series * inv * inv + c
    theta = (b * math.log(math.hypot(a, b) / (math.pi * math.e))
             + (a - 0.5) * math.atan2(b, a) + (series * inv).imag + shift)
    return math.cos(theta) * zeta.real - math.sin(theta) * zeta.imag


def test_hardy_z_scalar_equals_array_element(zero_table):
    """A number gives the matching element of an array bit for bit, in any
    order: on the zeros-verify grids, below t = 24 where theta takes
    Stirling shift steps, and on the grid of an ordinate below 0.05, which
    reaches t <= 0."""
    t = np.concatenate([verify_grids(zero_table.gammas).ravel(),
                        np.linspace(0.5, 24.5, 97),
                        verify_grids([0.03]).ravel()])
    assert t.min() < 0.0
    z = hardy_z(t)
    assert z.shape == t.shape
    assert [hardy_z(x) for x in t.tolist()] == z.tolist()
    order = np.random.Generator(np.random.Philox(key=np.uint64(5))).permutation(
        t.size)
    assert np.array_equal(hardy_z(t[order]), z[order])
    assert np.array_equal(hardy_z(t.reshape(2, -1)), z.reshape(2, -1))


def test_hardy_z_matches_scalar_form(zero_table):
    """On the zeros-verify grids, within 1e-14 of the scalar form (1.2e-15
    measured; max |Z| there is 0.26)."""
    t = verify_grids(zero_table.gammas).ravel()
    old = np.array([hardy_z_scalar(x) for x in t.tolist()])
    assert np.max(np.abs(hardy_z(t) - old)) <= 1e-14


def test_hardy_z_rejects_non_finite():
    with pytest.raises(ValueError):
        hardy_z(np.array([20.0, math.nan]))


def test_verify_zero_accepts_true_ordinate():
    ok, residual = verify_zero(GAMMA_1, 1e-6)
    assert ok and residual <= 1e-6


def test_verify_zero_rejects_typo():
    ok, residual = verify_zero(GAMMA_1 + 0.3, 1e-6)
    assert not ok
    assert residual == math.inf


@pytest.mark.parametrize("gamma", [GAMMA_1, GAMMA_2, GAMMA_3, GAMMA_100])
def test_verify_zero_refines_to_oracle(gamma):
    """The refined sign change of Z is the mpmath ordinate to 1e-12."""
    ok, residual = verify_zero(gamma, 1e-6)
    assert ok and residual <= 1e-12


def test_verify_zero_reports_both_roots(monkeypatch):
    """Two sign changes 1e-3 apart survive every shrink and are reported."""
    monkeypatch.setattr(mfun.zeros, "hardy_z",
                        lambda t: (t - 10.0) * (t - 10.001))
    with pytest.raises(AmbiguousBracketError) as info:
        verify_zero(10.0005, 1e-6)
    low, high = info.value.roots
    assert abs(low - 10.0) <= 1e-12 and abs(high - 10.001) <= 1e-12


def test_verify_zero_refines_above_512(monkeypatch):
    """Above t = 512 neighbouring doubles are more than 1e-13 apart; the
    refinement still stops, a few ulp from a root that is not a double."""
    root = 600.3013
    half_ulp = 0.5 * math.ulp(root)
    monkeypatch.setattr(mfun.zeros, "hardy_z",
                        lambda t: (t - root) + half_ulp)
    ok, residual = verify_zero(600.3, 1e-2)
    assert ok
    assert abs(residual - (root - 600.3)) <= 4 * math.ulp(root)


def test_verify_table_all_pass(zero_table):
    verified, residuals = verify_table(zero_table, 1e-6)
    assert verified.shape == residuals.shape == (100,)
    assert np.all(verified)
    assert np.max(residuals) <= 1e-6


@pytest.fixture(scope="module")
def typo_table(zero_table):
    """The bundled table with its 8th ordinate moved off its zero by 0.3."""
    g = zero_table.gammas.copy()
    g[7] += 0.3
    return ZeroTable(g, source="typo")


def test_verify_table_matches_verify_zero(typo_table):
    """Lockstep over the table gives what verify_zero gives one ordinate at
    a time, in flags and residuals; the ordinates, moved by up to 0.03,
    put their sign changes at different grid steps."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    moved = ZeroTable(typo_table.gammas + rng.uniform(-0.03, 0.03, 100),
                      source="moved")
    for tol in (1e-6, 0.02):
        verified, residuals = verify_table(moved, tol)
        loop = [verify_zero(g, tol) for g in moved.gammas.tolist()]
        assert verified.tolist() == [ok for ok, _ in loop]
        assert residuals.tolist() == [r for _, r in loop]
    assert 0 < verified.sum() < 99


def test_verify_table_flags_only_the_typo(typo_table):
    verified, residuals = verify_table(typo_table, 1e-6)
    assert np.flatnonzero(~verified).tolist() == [7]
    assert residuals[7] == math.inf
    assert np.max(np.delete(residuals, 7)) <= 1e-6


def test_verify_zero_below_bracket_width():
    """An ordinate below 0.05 puts t <= 0 on its grid; Z < 0 throughout."""
    assert verify_zero(0.03, 1e-6) == (False, math.inf)


def test_verify_table_reports_both_roots(monkeypatch):
    """The lockstep table run raises for the ambiguous ordinate, with the
    same two roots as verify_zero."""
    monkeypatch.setattr(mfun.zeros, "hardy_z",
                        lambda t: (t - 10.0) * (t - 10.001))
    table = ZeroTable(np.array([5.0, 10.0005, 20.0]), source="two roots")
    with pytest.raises(AmbiguousBracketError) as info:
        verify_table(table, 1e-6)
    assert info.value.gamma == 10.0005
    low, high = info.value.roots
    assert abs(low - 10.0) <= 1e-12 and abs(high - 10.001) <= 1e-12


def test_counting_expected_known_value():
    # (T/2pi) log(T/(2 pi e)) + 7/8 at T=100 is 28.9995; 29 zeros lie below
    assert counting_expected(100.0) == pytest.approx(28.9995, abs=5e-3)


def test_counting_check_within_slack(zero_table):
    for t in np.linspace(25.0, zero_table.gammas[-1], 12):
        observed, expected = counting_check(zero_table, float(t))
        assert abs(observed - expected) <= 2


def test_counting_check_out_of_range(zero_table):
    with pytest.raises(RangeError):
        counting_check(zero_table, 1e4)


def test_load_rejects_nonmonotone(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.134725\n13.0\n")
    with pytest.raises(ZeroTableError):
        load_zeros(bad)


def test_load_rejects_nonpositive(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.134725\n-21.02\n")
    with pytest.raises(ZeroTableError):
        load_zeros(bad)


def test_load_reports_line_number(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# header\n14.134725\noops\n")
    with pytest.raises(ZeroTableError, match=":3:"):
        load_zeros(bad)


def test_bundled_path_exists():
    assert bundled_zeros_path().exists()
