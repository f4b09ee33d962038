"""Arithmetic side: Lambda sieve, pair sums of r_2, singular series, A_2.

Oracles: exact closed forms in logs of small primes, an O(x^2) brute
force at desk scale, the direct double loop over prime-power pairs, exact
integer sums of the table's doubles, the per-prime loop that the
small/large prime split of the singular series replaced, and the
truncated defining Euler products.
"""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mfun
import mfun.goldbach as gb
from mfun import _kernels
from mfun.errors import RangeError
from mfun.goldbach import (
    TWIN_PRIME_CONSTANT,
    X_MAX_GUARD,
    a2_curve,
    brute_force_sums,
    compare_main_term,
    primes_up_to,
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


@pytest.mark.parametrize("x", [200_000, 2_000_000])
def test_sieve_holds_one_copy(x):
    """sieve_lambda's traced peak is at most 1.25 times the table it
    keeps: the prime powers are inserted into the primes once, the primes
    let go, and Lambda taken from that one array."""
    import tracemalloc
    tracemalloc.start()
    try:
        table = sieve_lambda(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = table.pp.nbytes + table.lam_pp.nbytes
    assert peak <= 1.25 * kept, peak / kept


def test_primes_up_to():
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


U = 2.0 ** -53


def pair_running_sums(table, xs):
    """The Sum2 running sums (s, e) of R(x) = sum_{n<=x} r_2(n) at each x
    of the ascending xs."""
    return gb._pair_sums(table, np.asarray(xs, dtype=np.int64))


def pair_sums(table, xs):
    """R(x) at each x of the ascending xs, rounded once."""
    s, e = pair_running_sums(table, xs)
    return s + e


def pair_gap(table, xs):
    """|s + e - R(x)| at each x of xs, exactly, and the bound of
    ``_pair_sums``, 3 u (R + psi(x/2)**2)."""
    return [(abs(Fraction(s) + Fraction(e) - r), 3 * U * (r + q))
            for s, e, (r, q, _) in zip(*pair_running_sums(table, xs),
                                       exact_sums(table, xs))]


def r2_whole(table):
    """r_2 over 0 .. limit, as the steps R(n) - R(n - 1) of the pair sums."""
    return np.diff(pair_sums(table, range(table.limit + 1)), prepend=0.0)


def test_r2_closed_forms(table):
    r2 = r2_whole(table)
    assert r2[4] == pytest.approx(LOG2 ** 2)
    assert r2[5] == pytest.approx(2 * LOG2 * LOG3)          # 1.523000...
    assert r2[6] == pytest.approx(2 * LOG2 ** 2 + LOG3 ** 2)
    assert r2[7] == pytest.approx(2 * LOG2 * LOG5 + 2 * LOG2 * LOG3)
    assert r2[3] == 0.0  # Lambda(1) = 0, so 3 = 1 + 2 contributes nothing


def test_r2_matches_brute_force(table):
    """The pair sums at every x <= 2000 are the running sum of the O(x^2)
    brute force's r_2, within that running sum's own rounding (at most
    2000 u of it)."""
    brute, _ = brute_force_sums(table, np.zeros(table.limit + 1))
    want = np.cumsum(brute[:2001])
    assert np.all(np.abs(pair_sums(table, range(2001)) - want)
                  <= 2048 * U * want)


def test_r2_halved_symmetry(table):
    """R(x) sums over l <= x/2 only, doubles, and takes off psi(x/2)**2:
    the sum of Lambda(l) psi(x - l) over every l agrees."""
    lam = table.lam
    psi = np.cumsum(lam)
    xs = [100, 101, 999, 2000, 2999]
    for x, r in zip(xs, pair_sums(table, xs)):
        whole = float(np.dot(lam[1:x], psi[x - 1:0:-1]))
        assert r == pytest.approx(whole, rel=1e-12), x


def exact_sums(table, xs):
    """(R(x), psi(floor(x/2))**2, T(x)) at each x as exact Fractions: the
    sums of the table's Lambda and of singular_series_all's S_2 taken in
    Python integers.  Both are 0 or at least 1/2, so 2**53 times each is
    an integer."""
    one = 2 ** 53
    lam = [int(w * one) for w in table.lam.tolist()]
    psi = list(itertools.accumulate(lam))
    t = list(itertools.accumulate(
        n * int(v * one)
        for n, v in enumerate(singular_series_all(table.limit).tolist())))
    pp = table.pp.tolist()
    out = []
    for x in xs:
        h = x // 2
        pairs = sum(lam[l] * psi[x - l]
                    for l in itertools.takewhile(lambda l: l <= h, pp))
        out.append((Fraction(2 * pairs - psi[h] ** 2, one * one),
                    Fraction(psi[h] ** 2, one * one), Fraction(t[x], one)))
    return out


@pytest.mark.parametrize("x", [5000, 200000])
def test_r2_within_stated_bound(x):
    """The pair sums at 40 points up to x, against their exact values,
    within the bound of ``_pair_sums``."""
    table = sieve_lambda(x)
    xs = np.linspace(0, x, 40).astype(int).tolist()
    for n, (gap, bound) in zip(xs, pair_gap(table, xs)):
        assert gap <= bound, n


def test_r2_blocks_within_stated_bound(monkeypatch):
    """At a budget of 4,000 bytes psi runs in blocks of 100 prime powers
    and the chain of each R(x) at x = 5000 in blocks of 62 terms (up to
    7 of them), carrying both running sums across.  The pair sums keep
    their bound against the exact values, and are the same bits as at
    the default budget, where each chain is one block."""
    x = 5000
    table = sieve_lambda(x)
    xs = list(range(0, x + 1, 7))
    want = pair_running_sums(table, xs)
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 4000)
    got = pair_running_sums(table, xs)
    for a, b in zip(got, want):
        assert np.array_equal(bits(a), bits(b))
    sample = xs[::18]
    for n, (gap, bound) in zip(sample, pair_gap(table, sample)):
        assert gap <= bound, n


def r2_direct(pp, lam_pp, lo, n_max):
    """Oracle: r2[n - lo] = sum_{l+m=n} Lambda(l) Lambda(m) for
    lo <= n <= n_max by the direct double loop over the ordered pairs of
    prime powers."""
    pp = np.asarray(pp, dtype=np.int64)
    lam_pp = np.asarray(lam_pp, dtype=np.float64)
    r2 = np.zeros(n_max - lo + 1, dtype=np.float64)
    for i in range(pp.size):
        li = pp[i]
        if li + pp[0] > n_max:
            break
        # targets are distinct within one i, so the fancy-indexed add is safe
        a, b = np.searchsorted(pp, (lo - li, n_max - li + 1))
        r2[li + pp[a:b] - lo] += lam_pp[i] * lam_pp[a:b]
    return r2


@pytest.mark.parametrize("x", [5000, 200000])
def test_r2_structural_zeros_exact(x):
    """Where no two prime powers sum to n (3, 149, 331, 373, ...), R(n)
    and R(n - 1) add the same terms in the same order, so they are equal
    bit for bit.  Checked at up to 100 such n among the top 5,000 below
    x (all 111 of them at x = 5000), and at 100 other n there, where R
    steps up."""
    table = sieve_lambda(x)
    lo = max(2, x - 5000)
    direct = r2_direct(table.pp, table.lam_pp, lo, x)
    zeros = np.flatnonzero(direct == 0.0) + lo
    assert zeros.size > 100
    rng = np.random.Generator(np.random.Philox(key=np.uint64(23)))
    zeros = rng.choice(zeros, min(100, zeros.size), replace=False)
    steps = rng.choice(np.flatnonzero(direct > 0.0) + lo, 100, replace=False)
    n = np.union1d(zeros, steps)
    grid = np.union1d(n, n - 1)
    r = dict(zip(grid.tolist(), pair_sums(table, grid).tolist()))
    assert all(r[k] == r[k - 1] for k in zeros.tolist())
    assert all(r[k] > r[k - 1] for k in steps.tolist())


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
    """The steps r_2(n) - n S_2(n) of A_2 over 0 .. limit, with r_2 from
    the O(x^2) brute force."""
    n = np.arange(table.limit + 1, dtype=np.float64)
    s2 = singular_series_all(table.limit)
    return brute_force_sums(table, s2)[0] - n * s2


def test_a2_recurrence(table):
    a2 = curve(table)
    assert a2[0] == pytest.approx(0.0)
    recon = np.cumsum(steps_of(table))
    assert np.max(np.abs(a2 - recon)) <= 1e-8 * max(
        1.0, float(np.max(np.abs(a2))))


def test_a2_compensated_sum_within_bound():
    """Sampled A_2(x) up to x = 2e5 against its exact value, within the
    bound that a2_curve states: 5 u (R + psi(x/2)**2 + T)."""
    x = 200000
    table = sieve_lambda(x)
    ks = np.linspace(0, x, 60).astype(int).tolist()
    a2 = a2_curve(table, ks)
    for k, (r, q, t) in zip(ks, exact_sums(table, ks)):
        assert abs(Fraction(a2[k]) - (r - t)) <= 5 * U * (r + q + t), k


def slice_edges(limit, step):
    """Each n at which a block of step S_2 entries starts, with its
    neighbours, within [1, limit]."""
    return sorted({n for lo in range(step, limit + 1, step)
                   for n in (lo - 1, lo, lo + 1) if n <= limit})


def test_a2_blocks_match_one_shot_sum2(monkeypatch):
    """At x = 2e4 the default budget sums T in one S_2 block and each
    R(x) in one chain block.  A budget of 4,000 bytes cuts T into 41
    blocks of 500 and each chain into up to 21 blocks of 62 terms: A_2 at
    every x <= 1000, at the goldbach-validate grid and at every edge of
    those S_2 blocks with its neighbours is the same bits."""
    x = 20000
    table = sieve_lambda(x)
    grid = sorted({*range(1001), *slice_edges(x, 500),
                   *np.geomspace(100, x, 257).astype(int).tolist()})
    want = a2_curve(table, grid)
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 4000)
    assert _kernels._per_block(8) == 500
    assert a2_curve(table, grid) == want


def test_a2_grid_holds_no_whole_array():
    """The grid path (what goldbach-validate runs) keeps A_2 at the grid
    only.  At x_max = 4e6 its traced peak stays below 0.5 arrays of
    x_max + 1 doubles: psi at the prime powers (0.07 arrays), the odd
    primes up to x_max / 2 and the blocks of one budget, 0.09 arrays in
    all."""
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
    assert peak < 0.5 * (x + 1) * 8, peak / ((x + 1) * 8)


@pytest.mark.parametrize("x", [2000, 20_000, 500_000])
def test_grid_values_are_the_curve(tmp_path, monkeypatch, x):
    """goldbach-validate's A_2 column is a2_curve at its grid, bit for
    bit.  A_2 at that grid and at each edge of the S_2 blocks with its
    neighbours is the same bits asked together, one x at a time, and at
    a budget of 255,255 bytes, whose blocks and chains are cut
    elsewhere."""
    import csv
    from mfun.cli import main
    assert main(["goldbach-validate", "--x-max", str(x), "--N", "30",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "goldbach.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    xs = [int(r["x"]) for r in rows]
    assert xs[-1] == x
    table = sieve_lambda(x)
    edges = slice_edges(x, _kernels._per_block(8))
    assert len(edges) > 6 or x < 2 ** 16
    both = a2_curve(table, xs + edges)
    assert [float(r["a2"]) for r in rows] == [both[n] for n in xs]
    for n in [xs[0], *edges[-3:], x]:
        assert a2_curve(table, [n]) == {n: both[n]}, n
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 255_255)
    assert a2_curve(table, xs + edges) == both


def test_a2_grid_range_guard(table):
    with pytest.raises(RangeError):
        a2_curve(table, [100, table.limit + 1])
    with pytest.raises(RangeError):
        a2_curve(table, [-1, 100])


@pytest.mark.parametrize("x", [2, 3, 6, 1000, 200_000])
def test_one_sieve_per_run(monkeypatch, x):
    """sieve_lambda sieves the primes once, and a2_curve takes the odd
    primes up to x/2 that S_2 needs from the table's support: the array
    that sieve would give, with the powers of primes left out."""
    calls, given = [], []
    sieve, series = gb.primes_up_to, gb.singular_series_all

    def counted(n):
        calls.append(n)
        return sieve(n)

    def spied(x_max, lo=0, primes=None):
        given.append(primes)
        return series(x_max, lo, primes)

    monkeypatch.setattr(gb, "primes_up_to", counted)
    monkeypatch.setattr(gb, "singular_series_all", spied)
    a2_curve(sieve_lambda(x), [x])
    assert calls == [x]
    want = sieve(x // 2)[1:]
    assert given and all(np.array_equal(p, want) for p in given)


@pytest.mark.parametrize("x", range(2, 65))
def test_small_x_max_matches_brute_force(monkeypatch, x):
    """Every x_max up to 64: r_2 (the steps of the pair sums) and A_2
    match the O(x^2) brute force, S_2 the scalar formula, and A_2 at
    every n is the same bits when each block holds one item: one term of
    a chain, one prime power of psi, one S_2 entry."""
    table = sieve_lambda(x)
    s2 = singular_series_all(x)
    r2b, a2b = brute_force_sums(table, s2)
    a2 = curve(table)
    assert np.max(np.abs(r2_whole(table) - r2b)) <= 1e-12
    assert np.max(np.abs(a2 - a2b)) <= 1e-9 * max(
        1.0, float(np.max(np.abs(a2b))))
    assert s2.tolist() == [0.0] + [singular_series(n)
                                   for n in range(1, x + 1)]
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 1)
    assert np.array_equal(bits(curve(table)), bits(a2))


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
