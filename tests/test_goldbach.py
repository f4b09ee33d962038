"""Arithmetic side: Lambda sieve, r_2 convolution, singular series, A_2.

Oracles: exact closed forms in logs of small primes, an O(x^2) brute
force at desk scale, the direct double loop over prime-power pairs that
the FFT convolution replaced, and the truncated defining Euler products.
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
    MIN_PRIME_CUTOFF,
    X_MAX_GUARD,
    a2_curve,
    compare_main_term,
    primes_up_to,
    r2_all,
    r2_convolve,
    sieve_lambda,
    singular_series,
    singular_series_all,
    twin_prime_constant,
)

LOG2, LOG3, LOG5 = math.log(2), math.log(3), math.log(5)

# [DERIVED] 2M-prime partial product at 30 digits (mpmath)
C2_ORACLE = 0.660161837203508125


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


def test_primes_up_to():
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_r2_closed_forms(table):
    r2 = r2_all(table)
    assert r2[4] == pytest.approx(LOG2 ** 2)
    assert r2[5] == pytest.approx(2 * LOG2 * LOG3)          # 1.523000...
    assert r2[6] == pytest.approx(2 * LOG2 ** 2 + LOG3 ** 2)
    assert r2[7] == pytest.approx(2 * LOG2 * LOG5 + 2 * LOG2 * LOG3)
    assert r2[3] == 0.0  # Lambda(1) = 0, so 3 = 1 + 2 contributes nothing


def test_r2_matches_brute_force(table):
    lam = table.lam
    r2 = r2_all(table)
    for m in range(2, 2001):
        brute = float(np.dot(lam[1:m], lam[m - 1:0:-1]))
        assert r2[m] == pytest.approx(brute, abs=1e-9)


def test_r2_halved_symmetry(table):
    # summing over l < m/2, doubling, and adding the middle term agrees
    lam = table.lam
    r2 = r2_all(table)
    for m in (100, 101, 999, 2000):
        half = 2.0 * float(np.dot(lam[1:(m + 1) // 2],
                                  lam[m - 1:m - (m + 1) // 2:-1]))
        if m % 2 == 0:
            half += float(lam[m // 2]) ** 2
        assert r2[m] == pytest.approx(half, abs=1e-9)


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
    fast = r2_convolve(pp, lam[pp], x)
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
             "--x-max", "20000", "--N", "30", "--prime-cutoff", "100000",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "goldbach.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_twin_prime_constant(table):
    assert twin_prime_constant(2 * 10 ** 6) == pytest.approx(
        C2_ORACLE, abs=1e-12)


def test_singular_series_values():
    c2 = twin_prime_constant(10 ** 5)
    assert singular_series(3, 10 ** 5) == 0.0
    assert singular_series(4, 10 ** 5) == pytest.approx(2 * c2, rel=1e-9)
    assert singular_series(6, 10 ** 5) == pytest.approx(4 * c2, rel=1e-9)
    assert singular_series(30, 10 ** 5) == pytest.approx(
        2 * c2 * 2.0 * (4.0 / 3.0), rel=1e-9)


def test_singular_series_reduction_matches_product():
    """S_2 from the sieve equals the truncated double Euler product."""
    cutoff = MIN_PRIME_CUTOFF
    s2 = singular_series_all(10 ** 4, cutoff)
    odd_primes = [int(p) for p in primes_up_to(cutoff)[1:]]
    tail = 2.0 / cutoff   # analytic bound for the dropped factors
    for n in (4, 6, 10, 12, 90, 2310, 9240, 9998):
        prod = 2.0
        for p in odd_primes:
            if n % p == 0:
                prod *= (p - 1.0) / (p - 2.0)
            prod *= 1.0 - 1.0 / (p - 1.0) ** 2
        assert abs(s2[n] - prod) <= abs(prod) * tail + 1e-12


def test_a2_recurrence(table):
    sums = a2_curve(table, MIN_PRIME_CUTOFF)
    n = np.arange(len(sums.a2), dtype=float)
    steps = sums.r2 - n * sums.s2
    assert sums.a2[0] == pytest.approx(0.0)
    recon = np.cumsum(steps)
    assert np.max(np.abs(sums.a2 - recon)) <= 1e-8 * max(
        1.0, float(np.max(np.abs(sums.a2))))


def test_a2_compensated_sum_within_bound():
    """Sampled prefixes of A_2 against math.fsum, within the stated bound."""
    x = 200000
    sums = a2_curve(sieve_lambda(x), MIN_PRIME_CUTOFF)
    steps = sums.r2 - np.arange(x + 1, dtype=float) * sums.s2
    u = 2.0 ** -53
    for k in np.linspace(0, x, 60).astype(int).tolist():
        head = steps[:k + 1].tolist()
        exact = math.fsum(head)
        gamma = k * u / (1.0 - k * u)
        bound = u * abs(exact) + gamma ** 2 * math.fsum(map(abs, head))
        assert abs(sums.a2[k] - exact) <= bound, k


def test_a2_matches_brute_force(table):
    lam = table.lam
    sums = a2_curve(table, MIN_PRIME_CUTOFF)
    r2b = np.zeros(2001)
    for m in range(2, 2001):
        r2b[m] = float(np.dot(lam[1:m], lam[m - 1:0:-1]))
    a2b = np.cumsum(r2b - np.arange(2001, dtype=float) * sums.s2[:2001])
    assert np.max(np.abs(a2b - sums.a2[:2001])) <= 1e-9 * float(
        np.max(np.abs(a2b)))


def test_compare_main_term_rows(table, coeffs):
    sums = a2_curve(table, MIN_PRIME_CUTOFF)
    rows = compare_main_term(sums, coeffs, 20, [100, 1000, 2999])
    assert [r["x"] for r in rows] == [100, 1000, 2999]
    for r in rows:
        assert r["residual"] == pytest.approx(r["a2"] - r["main_term"])
        assert r["normalized_residual"] == pytest.approx(
            r["residual"] / (r["x"] * math.log(r["x"]) ** 3))


def test_compare_main_term_range_guard(table, coeffs):
    sums = a2_curve(table, MIN_PRIME_CUTOFF)
    with pytest.raises(RangeError):
        compare_main_term(sums, coeffs, 20, [100, 10 ** 6])


def test_sieve_guard():
    with pytest.raises(RangeError):
        sieve_lambda(int(X_MAX_GUARD) + 1)
