"""The table-driven phase exponential ``expi`` and the integer-phase
tables of ``phasor_sum`` against mpmath, and the SplitMix64 stream
against its reference words.

External oracle: mpmath's cos and sin at 40 digits, whose argument
reduction is exact for any double, 1e300 included.
"""

import math

import numpy as np
import pytest

from mfun import _kernels
from mfun._kernels import EXPI_LIMIT, expi, phasor_sum, splitmix64

U = 2.0 ** -53
BOUND = 4.0 * U   # expi's stated bound, per component, absolute
L = _kernels._EXPI_L


def _worst_error(mp, x, got):
    """max over x of |Re got - cos x| and |Im got - sin x|, exactly."""
    worst = mp.mpf(0)
    for xi, zi in zip(x, got):
        v = mp.expj(mp.mpf(float(xi)))
        worst = max(worst, abs(v.real - mp.mpf(zi.real)),
                    abs(v.imag - mp.mpf(zi.imag)))
    return float(worst)


def test_expi_matches_mpmath_within_bound():
    """Random x on several scales, every table node and rounding boundary
    with its neighbouring doubles, signed zeros, the fallback limit, 1e300."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2024)))
    sign = rng.choice([-1.0, 1.0], 4000)
    random = np.concatenate([
        rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 3000),
        rng.uniform(-1e3, 1e3, 3000),
        rng.uniform(-EXPI_LIMIT, EXPI_LIMIT, 3000),
        sign * 10.0 ** rng.uniform(-300.0, math.log10(EXPI_LIMIT), 4000),
    ])
    # table nodes k 2pi/L and the rounding boundaries (k + 1/2) 2pi/L, over
    # one turn from -pi: every table index on both sides of both
    k = np.arange(-L // 2, L // 2)
    step = 2.0 * math.pi / L
    edges = np.concatenate([k * step, (k + 0.5) * step])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf)])
    limit = np.array([EXPI_LIMIT, np.nextafter(EXPI_LIMIT, 0.0),
                      np.nextafter(EXPI_LIMIT, np.inf)])
    special = np.concatenate([[0.0, -0.0, 1e300, -1e300, 1e-300],
                              limit, -limit])
    x = np.concatenate([random, edges, special])
    got = expi(x)
    with mp.workdps(40):
        assert _worst_error(mp, x, got) <= BOUND


def test_expi_table_and_split():
    """The table entries are within 1u; 2pi = P1 + P2 + P3 with P1, P2 of
    17 significant bits, so that k * P/L is exact for |k| < 2^36."""
    mp = pytest.importorskip("mpmath")
    table = _kernels._EXPI_TABLE
    assert table.size == L
    steps = (_kernels._STEP_1, _kernels._STEP_2, _kernels._STEP_3)
    with mp.workdps(60):
        for k, t in enumerate(table):
            v = mp.expj(2 * mp.pi * k / L)
            assert abs(v.real - mp.mpf(t.real)) <= U
            assert abs(v.imag - mp.mpf(t.imag)) <= U
        split = sum(mp.mpf(s) for s in steps) * L
        assert abs(split - 2 * mp.pi) < mp.mpf(2) ** -85
    for s in steps[:2]:
        mantissa, _ = math.frexp(s)
        assert math.ldexp(mantissa, 17).is_integer()
    k_max = math.ceil(EXPI_LIMIT * _kernels._INV_STEP) + 1
    assert k_max < 2 ** 36


def test_expi_non_finite_propagate_like_cos_and_sin():
    x = np.array([np.nan, np.inf, -np.inf, 1.0, -np.nan, 2.0 * EXPI_LIMIT])
    with np.errstate(invalid="ignore"):
        got = expi(x)
        want_cos, want_sin = np.cos(x), np.sin(x)
    assert np.array_equal(got.real[:3], want_cos[:3], equal_nan=True)
    assert np.array_equal(got.imag[:3], want_sin[:3], equal_nan=True)
    assert np.all(np.isnan(got[[0, 1, 2, 4]].real))
    assert got[5] == complex(want_cos[5], want_sin[5])


def test_expi_values_depend_only_on_their_argument():
    """A value is the same alone and next to a fallback (tests/test_budget.py
    varies the blocks)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    x = rng.uniform(-50.0, 50.0, 3 * 64 + 6)
    whole = expi(x)
    for i in (0, 63, 64, 65, x.size - 1):
        assert expi(x[i:i + 1])[0] == whole[i]
    wild = x.copy()
    wild[70] = np.inf   # its block takes the fallback for that element only
    with np.errstate(invalid="ignore"):
        mixed = expi(wild)
    keep = np.arange(x.size) != 70
    assert np.array_equal(mixed[keep], whole[keep])
    assert np.array_equal(expi(x.reshape(2, -1)), whole.reshape(2, -1))


def test_splitmix64_reference_words():
    """The first words from seed 0 are those of Vigna's splitmix64.c."""
    assert splitmix64(0, 0, 3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert splitmix64(0, 0, 3).dtype == np.uint64


@pytest.mark.parametrize("seed", [0, 3, 2 ** 64 - 1])
def test_splitmix64_any_split(seed):
    """Words [lo, hi) are that slice of words [0, hi), at splits inside and
    across the Haar draw blocks of N = 10 (one phasor_sum step of rows of
    10); the top seed wraps the state mod 2^64."""
    block = _kernels._per_block(64 * 10) * 10
    whole = splitmix64(seed, 0, 3 * block + 7)
    for lo, hi in [(0, 1), (block - 1, block + 1), (block, 2 * block),
                   (block - 3, 2 * block + 5), (2 * block + 1, whole.size),
                   (5, 5)]:
        assert np.array_equal(splitmix64(seed, lo, hi), whole[lo:hi])


def test_phase_tables_within_bound():
    """phasor_sum's phasor E[k >> 12] * F[k & 4095] of an integer phase k
    is within 4u per part of cos and sin(2 pi k/2^24) at k = 4097 j,
    j = 0 .. 4095, a stride through all 2^24 phases that takes entry j of
    both tables; and
    |E * F| <= 1 + 4u at every phase, which the support bound's 1e-12
    margin relies on.  A single term with c = 1 is the product itself."""
    mp = pytest.importorskip("mpmath")
    one = np.ones(1)
    k = np.arange(0, 2 ** 24, L + 1)
    got = phasor_sum(k[:, None], one)
    with mp.workdps(40):
        x = [2 * mp.pi * int(ki) / 2 ** 24 for ki in k]
        worst = max(max(abs(mp.cos(xi) - mp.mpf(z.real)),
                        abs(mp.sin(xi) - mp.mpf(z.imag)))
                    for xi, z in zip(x, got))
    assert float(worst) <= BOUND
    assert np.unique(k >> 12).size == L and np.unique(k & (L - 1)).size == L
    block = 1 << 18
    for lo in range(0, 2 ** 24, block):
        phases = np.arange(lo, lo + block)[:, None]
        assert np.abs(phasor_sum(phases, one)).max() <= 1.0 + BOUND


def test_phasor_sum_takes_integer_phases():
    """Phases are integers mod 2^24: k and k + 2^24, negative ones too, give
    the same sum; the caller's phases are left as they were, also at N = 1
    where a block of them is already in the kernel's order; and float
    angles are refused rather than truncated."""
    c = np.array([0.5, 0.25, 0.125])
    k = np.array([[0, 1, 2 ** 24 - 1], [4095, 4096, 123456789]])
    want = phasor_sum(k, c)
    assert np.array_equal(phasor_sum(k + 2 ** 24, c), want)
    assert np.array_equal(phasor_sum(k - 2 ** 24, c), want)
    column = k.reshape(-1, 1)
    phasor_sum(column, c[:1])
    assert np.array_equal(column.reshape(k.shape), k)
    with pytest.raises(TypeError):
        phasor_sum(k.astype(np.float64), c)
