"""Arithmetic side: Lambda sieve, r_2 convolution, singular series, A_2.

Oracles: exact closed forms in logs of small primes, an O(x^2) brute
force at desk scale, the direct double loop over prime-power pairs that
the FFT convolution replaced, the per-prime loop that the small/large
prime split of the singular series replaced, and the truncated defining
Euler products.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfun
from mfun.errors import RangeError
from mfun.goldbach import (
    TWIN_PRIME_CONSTANT,
    X_MAX_GUARD,
    a2_curve,
    brute_force_sums,
    compare_main_term,
    primes_up_to,
    r2_convolve,
    sieve_lambda,
    singular_series,
    singular_series_all,
)

LOG2, LOG3, LOG5 = math.log(2), math.log(3), math.log(5)

# [DERIVED] the infinite product C_2 = prod_{p>2} (1 - 1/(p-1)^2) (OEIS A005597)
C2_INFINITE = 0.66016181584686957392781211001455


@pytest.fixture(scope="module")
def table():
    return sieve_lambda(3000)


def test_lambda_values(table):
    lam = table.lam
    assert lam[0] == lam[1] == 0.0
    assert lam[2] == pytest.approx(LOG2)
    assert lam[4] == pytest.approx(LOG2)
    assert lam[8] == pytest.approx(LOG2)
    assert lam[9] == pytest.approx(LOG3)
    assert lam[12] == 0.0
    assert lam[2048] == pytest.approx(LOG2)


def test_lambda_chebyshev_sum(table):
    # psi(3000) = 3001.094650 [DERIVED: direct summation over primes]
    assert float(table.lam.sum()) == pytest.approx(3001.094650, abs=1e-4)


def test_lambda_matches_prime_power_loop():
    """The vectorized sieve equals the loop over every prime, bit for bit."""
    x = 200_000
    want = np.zeros(x + 1)
    for p in primes_up_to(x).tolist():
        q = p
        while q <= x:
            want[q] = math.log(p)
            q *= p
    assert np.array_equal(sieve_lambda(x).lam, want)


def test_primes_up_to():
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def r2_whole(table):
    """r_2 over 0 .. limit, gathered from r2_convolve's blocks."""
    return gathered(r2_convolve(table.pp, table.lam_pp, table.limit),
                    table.limit)


def test_r2_closed_forms(table):
    r2 = r2_whole(table)
    assert r2[4] == pytest.approx(LOG2 ** 2)
    assert r2[5] == pytest.approx(2 * LOG2 * LOG3)          # 1.523000...
    assert r2[6] == pytest.approx(2 * LOG2 ** 2 + LOG3 ** 2)
    assert r2[7] == pytest.approx(2 * LOG2 * LOG5 + 2 * LOG2 * LOG3)
    assert r2[3] == 0.0  # Lambda(1) = 0, so 3 = 1 + 2 contributes nothing


def test_r2_matches_brute_force(table):
    r2 = r2_whole(table)
    brute, _ = brute_force_sums(table, np.zeros(table.limit + 1))
    for m in range(2, 2001):
        assert r2[m] == pytest.approx(brute[m], abs=1e-9)


def test_r2_halved_symmetry(table):
    # summing over l < m/2, doubling, and adding the middle term agrees
    lam = table.lam
    r2 = r2_whole(table)
    for m in (100, 101, 999, 2000):
        half = 2.0 * float(np.dot(lam[1:(m + 1) // 2],
                                  lam[m - 1:m - (m + 1) // 2:-1]))
        if m % 2 == 0:
            half += float(lam[m // 2]) ** 2
        assert r2[m] == pytest.approx(half, abs=1e-9)


def gathered(blocks, n_max):
    """r2[0..n_max] from r2_convolve's blocks, which must follow each other
    from 0 to n_max + 1."""
    parts, a = [], 0
    for lo, block in blocks:
        assert lo == a and block.size > 0
        parts.append(block)
        a += block.size
    assert a == n_max + 1
    return np.concatenate(parts)


def r2_direct(pp, lam_pp, n_max):
    """Oracle: r2[n] = sum_{l+m=n} Lambda(l) Lambda(m) by the direct double
    loop over all ordered pairs of prime powers (O(pi(x)^2) updates)."""
    pp = np.asarray(pp, dtype=np.int64)
    lam_pp = np.asarray(lam_pp, dtype=np.float64)
    r2 = np.zeros(n_max + 1, dtype=np.float64)
    for i in range(pp.size):
        li = pp[i]
        if li + pp[0] > n_max:
            break
        # targets are distinct within one i, so the fancy-indexed add is safe
        k = np.searchsorted(pp, n_max - li, side="right")
        r2[li + pp[:k]] += lam_pp[i] * lam_pp[:k]
    return r2


@pytest.fixture(scope="module", params=[5000, 200000])
def r2_pair(request):
    """(FFT r2, direct-loop r2, stated error bound) at x = param."""
    x = request.param
    lam = sieve_lambda(x).lam
    pp = np.nonzero(lam)[0].astype(np.int64)
    fast = gathered(r2_convolve(pp, lam[pp], x), x)
    # the bound of r2_convolve, 2 eps log2(L) sum Lambda^2, at L <= 2x
    bound = (2.0 * np.finfo(float).eps * math.log2(2 * x)
             * float(np.sum(lam[pp] ** 2)))
    return fast, r2_direct(pp, lam[pp], x), bound


def test_r2_fft_within_stated_bound(r2_pair):
    fast, direct, bound = r2_pair
    assert np.max(np.abs(fast - direct)) <= bound


def test_r2_fft_structural_zeros_exact(r2_pair):
    fast, direct, _ = r2_pair
    zeros = direct == 0.0
    assert zeros.sum() > 100
    assert np.array_equal(fast == 0.0, zeros)


def test_r2_blocks_within_stated_bound(monkeypatch):
    """Ten 256-point blocks of the half grid at x = 5000 (overlap-add over
    every pair of blocks) stay within the bound at L = 2B = 512 against
    the direct loop, and keep its structural zeros."""
    import mfun.goldbach as gb
    x = 5000
    lam = sieve_lambda(x).lam
    pp = np.nonzero(lam)[0].astype(np.int64)
    monkeypatch.setattr(gb, "_r2_block", lambda k: 256)
    assert -(-((x - 6) // 2 + 1) // 256) == 10
    fast = gathered(r2_convolve(pp, lam[pp], x), x)
    direct = r2_direct(pp, lam[pp], x)
    bound = (2.0 * np.finfo(float).eps * math.log2(512)
             * float(np.sum(lam[pp] ** 2)))
    assert np.max(np.abs(fast - direct)) <= bound
    assert np.array_equal(fast == 0.0, direct == 0.0)


def test_r2_one_block_is_one_transform():
    """Up to x = 2000 the half grid is one block: r2 is bit for bit the
    single real FFT of the odd weights at length 1 << (2k - 2).bit_length()
    plus the exact even-index sums."""
    for x in (10, 999, 2000):
        lam = sieve_lambda(x).lam
        pp = np.nonzero(lam)[0].astype(np.int64)
        po, pe = pp[pp % 2 == 1], pp[pp % 2 == 0]
        k = (x - 2 * 3) // 2 + 1
        half = np.zeros(k)
        keep = po <= x - 3
        half[(po[keep] - 3) // 2] = lam[po[keep]]
        size = 1 << (2 * k - 2).bit_length()
        spec = np.fft.rfft(half, size)
        spec *= spec
        want = np.zeros(x + 1)
        want[6::2] = np.fft.irfft(spec, size)[:k]
        for e in pe.tolist():
            j = np.searchsorted(po, x - e, side="right")
            want[e + po[:j]] += (2.0 * lam[e]) * lam[po[:j]]
            j = np.searchsorted(pe, x - e, side="right")
            want[e + pe[:j]] += lam[e] * lam[pe[:j]]
        (a, block), = r2_convolve(pp, lam[pp], x)
        assert a == 0 and np.array_equal(block, want), x


def test_goldbach_csv_independent_of_threads(tmp_path):
    src = str(Path(mfun.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "mfun.cli", "goldbach-validate",
             "--x-max", "20000", "--N", "30", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "goldbach.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_twin_prime_constant():
    """The literal is the product over the odd primes p <= 10^7, recomputed
    here by math.fsum over the logs, and lies above the infinite product
    by no more than the dropped factors allow."""
    primes = primes_up_to(10 ** 7)[1:].tolist()
    product = math.exp(math.fsum(math.log1p(-1.0 / (p - 1) ** 2)
                                 for p in primes))
    assert abs(TWIN_PRIME_CONSTANT - product) <= 2 * math.ulp(product)
    excess = TWIN_PRIME_CONSTANT / C2_INFINITE - 1.0
    # the factors over p > 10^7 multiply to at least 1 - 1/10^7
    assert 0.0 < excess <= 2.0 / 10 ** 7


def test_singular_series_values():
    c2 = TWIN_PRIME_CONSTANT
    assert singular_series(3) == 0.0
    assert singular_series(4) == pytest.approx(2 * c2, rel=1e-9)
    assert singular_series(6) == pytest.approx(4 * c2, rel=1e-9)
    assert singular_series(30) == pytest.approx(
        2 * c2 * 2.0 * (4.0 / 3.0), rel=1e-9)


def test_singular_series_reduction_matches_product():
    """S_2 from the sieve equals the double Euler product truncated at
    10^5, within the bound on the factors that truncation drops."""
    cutoff = 10 ** 5
    s2 = singular_series_all(10 ** 4)
    odd_primes = [int(p) for p in primes_up_to(cutoff)[1:]]
    tail = 2.0 / cutoff   # analytic bound for the dropped factors
    for n in (4, 6, 10, 12, 90, 2310, 9240, 9998):
        prod = 2.0
        for p in odd_primes:
            if n % p == 0:
                prod *= (p - 1.0) / (p - 2.0)
            prod *= 1.0 - 1.0 / (p - 1.0) ** 2
        assert abs(s2[n] - prod) <= abs(prod) * tail + 1e-12


def singular_series_loop(x_max):
    """Oracle: S_2(n) for all n <= x_max by one strided multiply per odd
    prime up to x_max/2, in ascending order."""
    s2 = np.zeros(x_max + 1)
    s2[2::2] = 2.0 * TWIN_PRIME_CONSTANT
    for p in primes_up_to(x_max // 2)[1:]:
        s2[2 * p::2 * p] *= (p - 1.0) / (p - 2.0)
    return s2


@pytest.mark.parametrize("x_max", [0, 1, 2, 3, 4, 5, 6, 7, 500_000,
                                   2_000_000])
def test_singular_series_split_matches_loop(x_max):
    """The small/large prime split multiplies in the loop's order: equal
    bit for bit."""
    assert np.array_equal(singular_series_all(x_max),
                          singular_series_loop(x_max))


def test_singular_series_all_matches_scalar():
    """The sieve equals scalar trial division at every even n <= 10^4 and
    at 200 seeded even n up to 10^7, all read from one 10^7 array."""
    s2 = singular_series_all(10 ** 4)
    assert s2[1::2].tolist() == [0.0] * 5000
    for n in range(2, 10 ** 4 + 1, 2):
        assert s2[n] == singular_series(n), n
    rng = np.random.Generator(np.random.Philox(key=np.uint64(17)))
    sample = 2 * rng.integers(1, 5 * 10 ** 6, 200, endpoint=True)
    s2 = singular_series_all(10 ** 7)
    for n in sample.tolist():
        assert s2[n] == singular_series(n), n


def curve(table):
    """A_2 over 0 .. limit, read from a2_curve at every x."""
    picked = a2_curve(table, range(table.limit + 1))
    return np.array([picked[x] for x in range(table.limit + 1)])


def steps_of(table):
    """The steps r_2(n) - n S_2(n) of A_2 over 0 .. limit."""
    n = np.arange(table.limit + 1, dtype=np.float64)
    return r2_whole(table) - n * singular_series_all(table.limit)


def test_a2_recurrence(table):
    a2 = curve(table)
    assert a2[0] == pytest.approx(0.0)
    recon = np.cumsum(steps_of(table))
    assert np.max(np.abs(a2 - recon)) <= 1e-8 * max(
        1.0, float(np.max(np.abs(a2))))


def test_a2_compensated_sum_within_bound():
    """Sampled prefixes of A_2 against math.fsum, within the stated bound."""
    x = 200000
    table = sieve_lambda(x)
    steps = steps_of(table)
    ks = np.linspace(0, x, 60).astype(int).tolist()
    a2 = a2_curve(table, ks)
    u = 2.0 ** -53
    for k in ks:
        head = steps[:k + 1].tolist()
        exact = math.fsum(head)
        gamma = k * u / (1.0 - k * u)
        bound = u * abs(exact) + gamma ** 2 * math.fsum(map(abs, head))
        assert abs(a2[k] - exact) <= bound, k


def sum2_one_shot(values):
    """Oracle: Sum2 (Ogita, Rump and Oishi) of every prefix over the whole
    array at once, e_0 = 0."""
    s = np.cumsum(values)
    t = s[1:] - s[:-1]
    e = (s[:-1] - (s[1:] - t)) + (values[1:] - t)
    out = s.copy()
    out[1:] += np.cumsum(e)
    return out


def test_a2_blocks_match_one_shot_sum2():
    """A_2 summed in slices (three at x = 2e4), carrying both running sums
    across them, is bit for bit the one-shot Sum2 of the same steps."""
    x = 20000
    table = sieve_lambda(x)
    assert np.array_equal(curve(table), sum2_one_shot(steps_of(table)))


def test_a2_grid_holds_no_whole_array():
    """The grid path (what goldbach-validate runs) keeps A_2 at the grid
    only.  At x_max = 4e6 its traced peak stays below 1.5 arrays of
    x_max + 1 doubles: r2_convolve's spectra (1.05 arrays) and buffers of
    one block, where one more whole array would make 2.05.  (At 5e5 the
    buffers of one 2^15-point block alone are 0.57 arrays, so the same
    peak there is 1.96 arrays.)"""
    import tracemalloc
    x = 4_000_000
    table = sieve_lambda(x)
    grid = np.geomspace(100, x, 257).astype(int).tolist()
    tracemalloc.start()
    try:
        a2_curve(table, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (x + 1) * 8, peak / ((x + 1) * 8)


def slice_edges(table):
    """Every n at which the block engine starts a slice, with its
    neighbours: the edges of r2_convolve's blocks among them."""
    import mfun.goldbach as gb
    starts = [lo for lo, _, _ in gb._a2_slices(table)]
    return sorted({n for lo in starts for n in (lo - 1, lo, lo + 1)
                   if 0 <= n <= table.limit})


@pytest.mark.parametrize("x", [2000, 20_000, 500_000])
def test_grid_values_are_the_curve(tmp_path, x):
    """goldbach-validate's A_2 column, and the grid path at every block and
    slice edge, equal the one-shot Sum2 of the whole-range steps bit for
    bit."""
    import csv
    from mfun.cli import main
    table = sieve_lambda(x)
    whole = sum2_one_shot(steps_of(table))
    edges = slice_edges(table)
    assert len(edges) > 6 or x == 2000   # up to 2000 one slice holds all
    picked = a2_curve(table, edges)
    assert [picked[n] for n in edges] == whole[edges].tolist()
    assert main(["goldbach-validate", "--x-max", str(x), "--N", "30",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "goldbach.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    xs = [int(r["x"]) for r in rows]
    assert xs[-1] == x
    assert [float(r["a2"]) for r in rows] == whole[xs].tolist()


def test_a2_grid_range_guard(table):
    with pytest.raises(RangeError):
        a2_curve(table, [100, table.limit + 1])
    with pytest.raises(RangeError):
        a2_curve(table, [-1, 100])


@pytest.mark.parametrize("x", range(2, 65))
def test_small_x_max_matches_brute_force(x):
    """Every x_max up to 64, where the odd + odd transform is short or
    absent: r_2 and A_2 match the O(x^2) brute force, S_2 the scalar
    formula, and A_2 at every n the one-shot Sum2 of the steps."""
    table = sieve_lambda(x)
    s2 = singular_series_all(x)
    r2b, a2b = brute_force_sums(table, s2)
    a2 = curve(table)
    assert np.max(np.abs(r2_whole(table) - r2b)) <= 1e-12
    assert np.max(np.abs(a2 - a2b)) <= 1e-9 * max(
        1.0, float(np.max(np.abs(a2b))))
    assert s2.tolist() == [0.0] + [singular_series(n)
                                   for n in range(1, x + 1)]
    assert np.array_equal(a2, sum2_one_shot(steps_of(table)))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("x_max", [20_000, 2_000_000])
def test_singular_series_ranges_match_whole(x_max):
    """S_2 sieved on [lo, hi) is the matching slice of the whole-range
    sieve, bit for bit: ranges at 0, 1 and 2, short ones where every large
    prime has at most one multiple, ranges narrower than their widest
    large primes, one that straddles x_max / 2, empty ones, and with a
    prime table that runs past x_max / 2."""
    whole = singular_series_all(x_max)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    starts = rng.integers(0, x_max + 1, size=12).tolist()
    widths = rng.integers(0, x_max // 8, size=12).tolist()
    ranges = [(0, x_max + 1), (1, 2), (2, 3), (0, 7), (3, 4), (5, 5),
              (x_max - 9, x_max + 1), (x_max // 2, x_max // 2 + 2),
              (x_max // 3, x_max // 3 + 4096),
              (x_max // 2 - 999, x_max // 2 + 1001),
              (x_max - 4097, x_max - 3001), (x_max // 5 + 1, x_max // 5 + 257),
              (x_max // 7, x_max // 7 + 2 * math.isqrt(x_max))]
    ranges += [(a, min(a + w, x_max + 1)) for a, w in zip(starts, widths)]
    primes = primes_up_to(x_max)[1:]
    for lo, hi in ranges:
        part = singular_series_all(hi - 1, lo)
        assert np.array_equal(bits(part), bits(whole[lo:hi])), (lo, hi)
        part = singular_series_all(hi - 1, lo, primes)
        assert np.array_equal(bits(part), bits(whole[lo:hi])), (lo, hi)


def lambda_table_loop(x):
    """Oracle: the dense Lambda table as it was built before the table was
    held on its support: log p at every prime, then the higher powers of
    the primes up to sqrt(x)."""
    lam = np.zeros(x + 1)
    primes = primes_up_to(x)
    lam[primes] = [math.log(p) for p in primes.tolist()]
    for p in primes[primes <= math.isqrt(x)].tolist():
        q = p * p
        while q <= x:
            lam[q] = math.log(p)
            q *= p
    return lam


@pytest.mark.parametrize("x", [*range(2, 40), 1000, 65_536, 1_000_000])
def test_lambda_table_matches_dense_table(x):
    """The table on its support gives the dense table bit for bit, and its
    support is the ascending nonzero entries of that table."""
    table = sieve_lambda(x)
    want = lambda_table_loop(x)
    assert np.array_equal(bits(table.lam), bits(want))
    assert np.array_equal(table.pp, np.flatnonzero(want))
    assert np.array_equal(bits(table.lam_pp), bits(want[table.pp]))


def test_a2_matches_brute_force(table):
    a2 = curve(table)
    _, a2b = brute_force_sums(table, singular_series_all(table.limit))
    assert np.max(np.abs(a2b[:2001] - a2[:2001])) <= 1e-9 * float(
        np.max(np.abs(a2b[:2001])))


def test_compare_main_term_rows(table, coeffs):
    rows = compare_main_term(a2_curve(table, [100, 1000, 2999]), coeffs, 20,
                             [100, 1000, 2999])
    assert [r["x"] for r in rows] == [100, 1000, 2999]
    for r in rows:
        assert r["residual"] == pytest.approx(r["a2"] - r["main_term"])
        assert r["normalized_residual"] == pytest.approx(
            r["residual"] / (r["x"] * math.log(r["x"]) ** 3))


def test_compare_main_term_range_guard(table, coeffs):
    a2 = a2_curve(table, range(table.limit + 1))
    with pytest.raises(RangeError):
        compare_main_term(a2, coeffs, 20, [100, 10 ** 6])


def test_sieve_guard():
    with pytest.raises(RangeError):
        sieve_lambda(int(X_MAX_GUARD) + 1)
