"""Desk-scale Goldbach arithmetic: von Mangoldt sieve, the weighted
representation counts r_2(n), the singular series S_2(n), the summatory
residue A_2(x), and its comparison against the zero-sum main term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RangeError
from .spectral import CoefficientTable, eval_f_N

__all__ = [
    "ArithmeticTable", "GoldbachSums", "sieve_lambda", "r2_convolve",
    "r2_all", "twin_prime_constant", "singular_series", "singular_series_all",
    "a2_curve", "compare_main_term", "primes_up_to",
]

X_MAX_GUARD = 10 ** 7
MIN_PRIME_CUTOFF = 10 ** 5


@dataclass(frozen=True)
class ArithmeticTable:
    """Von Mangoldt values Lambda(n) for 0 <= n <= limit (Lambda(0)=Lambda(1)=0)."""
    limit: int
    lam: np.ndarray


@dataclass(frozen=True)
class GoldbachSums:
    """r_2, S_2 and the cumulative A_2 on a common index range."""
    r2: np.ndarray
    s2: np.ndarray
    a2: np.ndarray
    prime_cutoff: int


def primes_up_to(n: int) -> np.ndarray:
    """Ascending primes <= n (Eratosthenes on the odd numbers only)."""
    if n < 2:
        return np.array([], dtype=np.int64)
    sieve = np.ones((n + 1) // 2, dtype=bool)   # sieve[i] stands for 2i + 1
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2::p] = False
    # slot 0 (the number 1) is kept and becomes the prime 2
    primes = np.nonzero(sieve)[0].astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def sieve_lambda(x_max: int) -> ArithmeticTable:
    """Exact Lambda table: log p at prime powers p^k, zero elsewhere."""
    if not 2 <= x_max <= X_MAX_GUARD:
        raise RangeError(f"x_max={x_max} outside the desk-scale guard "
                         f"[2, {X_MAX_GUARD}]")
    lam = np.zeros(x_max + 1)
    for p in primes_up_to(x_max):
        logp = math.log(p)
        q = int(p)
        while q <= x_max:
            lam[q] = logp
            q *= int(p)
    return ArithmeticTable(limit=x_max, lam=lam)


def r2_convolve(pp, lam_pp, n_max):
    """Self-convolution r2[n] = sum_{l+m=n} w(l) w(m) of weights on a support.

    pp: ascending support indices (the prime powers, for Lambda), lam_pp:
    the matching weights w.  Returns r2[0..n_max].

    The sum is split by parity.  Odd + odd gives the even n: one real FFT
    of the odd weights on the half grid (2i + 1 -> i, offset by the least
    odd index), squared and transformed back.  Odd n, and even n from two
    even indices, are short exact sums added directly, one shifted copy per
    even index (for Lambda the ~log2(x) powers of two).  So every odd entry
    is a sum of at most one product per even index, a structural zero
    there (3, 149, 331, 373, ...) stays exactly 0.0, and entries below
    twice the least index are never written.

    Error bound (eps = 2**-52, L <= 2 n_max the FFT length, S the sum of
    w(n)**2 over n <= n_max), against the exact sums:

        max_n |r2[n] - sum_{l+m=n} w(l) w(m)| <= 2 eps log2(L) S.

    The transforms round each output to O(eps log2 L) of the largest one
    (the usual root-mean-square estimate, not a worst case), and by
    Cauchy-Schwarz no r2[n] exceeds S.  For Lambda, checked against exact
    (fsum) sums up to x = 1e7, the error stays near eps * max r2, below
    0.03 eps log2(L) S.  The direct double loop in floating point is
    itself off by up to 0.6 eps log2(L) S at x = 2e5; the tests hold this
    function to the bound against that loop.
    """
    pp = np.asarray(pp, dtype=np.int64)
    lam_pp = np.asarray(lam_pp, dtype=np.float64)
    r2 = np.zeros(n_max + 1)
    odd = pp % 2 == 1
    po, wo = pp[odd], lam_pp[odd]
    pe, we = pp[~odd], lam_pp[~odd]
    if po.size and 2 * po[0] <= n_max:
        lo = int(po[0])
        k = (n_max - 2 * lo) // 2 + 1           # r2[2 lo + 2j] for j < k
        keep = po <= n_max - lo
        half = np.zeros(k)
        half[(po[keep] - lo) // 2] = wo[keep]
        size = 1 << (2 * k - 2).bit_length()    # >= 2k - 1: no wrap-around
        spec = np.fft.rfft(half, size)
        spec *= spec
        r2[2 * lo::2] = np.fft.irfft(spec, size)[:k]
    for e, w in zip(pe.tolist(), we.tolist()):
        j = np.searchsorted(po, n_max - e, side="right")
        r2[e + po[:j]] += (2.0 * w) * wo[:j]    # e + o and o + e
        j = np.searchsorted(pe, n_max - e, side="right")
        r2[e + pe[:j]] += w * we[:j]
    return r2


def r2_all(table: ArithmeticTable) -> np.ndarray:
    """r_2(n) = sum_{l+m=n} Lambda(l) Lambda(m) for all n <= limit.

    Parity-split FFT self-convolution over the prime powers
    (``r2_convolve``, which states its error bound against the direct
    double loop); odd entries and structural zeros are exact sums.
    """
    pp = np.nonzero(table.lam)[0].astype(np.int64)
    return r2_convolve(pp, table.lam[pp], table.limit)


@lru_cache(maxsize=8)
def twin_prime_constant(prime_cutoff: int) -> float:
    """Partial product of (1 - 1/(p-1)^2) over odd primes up to the cutoff."""
    p = primes_up_to(prime_cutoff)[1:].astype(np.float64)
    # log1p(-1/(p-1)^2), in place to keep the 1e7-cutoff temporaries small
    p -= 1.0
    p *= p
    np.reciprocal(p, out=p)
    np.negative(p, out=p)
    np.log1p(p, out=p)
    return float(np.exp(np.sum(p)))


def singular_series(n: int, prime_cutoff: int) -> float:
    """S_2(n): zero for odd n, else 2*C_2 * prod_{p|n, p>2} (p-1)/(p-2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if prime_cutoff < MIN_PRIME_CUTOFF:
        raise RangeError(f"prime_cutoff={prime_cutoff} below the minimum "
                         f"{MIN_PRIME_CUTOFF}")
    if n % 2 == 1:
        return 0.0
    value = 2.0 * twin_prime_constant(prime_cutoff)
    m = n
    while m % 2 == 0:
        m //= 2
    p = 3
    while p * p <= m:
        if m % p == 0:
            value *= (p - 1.0) / (p - 2.0)
            while m % p == 0:
                m //= p
        p += 2
    if m > 1:
        value *= (m - 1.0) / (m - 2.0)
    return value


def singular_series_all(x_max: int, prime_cutoff: int) -> np.ndarray:
    """S_2(n) for all n <= x_max via a multiplicative sieve."""
    if prime_cutoff < MIN_PRIME_CUTOFF:
        raise RangeError(f"prime_cutoff={prime_cutoff} below the minimum "
                         f"{MIN_PRIME_CUTOFF}")
    s2 = np.zeros(x_max + 1)
    s2[2::2] = 2.0 * twin_prime_constant(prime_cutoff)
    for p in primes_up_to(x_max // 2)[1:]:   # larger p: 2p > x_max
        s2[2 * p::2 * p] *= (p - 1.0) / (p - 2.0)
    return s2


def _compensated_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated running sum; A_2 is a small difference of large sums.

    Sum2 of Ogita, Rump and Oishi (SIAM J. Sci. Comput. 26, 2005) applied
    to every prefix: s = cumsum(v), the exact rounding error of each step
    by TwoSum, e_i = (s_{i-1} - (s_i - t)) + (v_i - t) with
    t = s_i - s_{i-1} and e_0 = 0, and the result s + cumsum(e).  With
    u = 2**-53 and gamma_k = k u / (1 - k u), each prefix S_k obeys

        |out[k] - S_k| <= u |S_k| + gamma_k**2 * sum_{i<=k} |v_i|.

    values is overwritten: it holds v_i - t, so that one array of
    transients suffices.
    """
    out = np.cumsum(values)
    t = out[1:] - out[:-1]
    v = values[1:]
    v -= t
    np.subtract(out[1:], t, out=t)
    np.subtract(out[:-1], t, out=t)
    t += v
    np.cumsum(t, out=t)
    out[1:] += t
    return out


def a2_curve(table: ArithmeticTable, prime_cutoff: int) -> GoldbachSums:
    """Cumulative A_2(x) = sum_{n<=x} (r_2(n) - n S_2(n)) at integer x."""
    r2 = r2_all(table)
    s2 = singular_series_all(table.limit, prime_cutoff)
    steps = np.arange(table.limit + 1, dtype=np.float64)
    steps *= s2
    np.subtract(r2, steps, out=steps)
    a2 = _compensated_cumsum(steps)
    return GoldbachSums(r2=r2, s2=s2, a2=a2, prime_cutoff=prime_cutoff)


def compare_main_term(sums: GoldbachSums, coeffs: CoefficientTable, n: int,
                      x_grid) -> list[dict]:
    """Rows (x, A_2, main term, residual, residual/(x log^3 x)) per grid x."""
    x_grid = sorted(int(x) for x in x_grid)
    if not x_grid or x_grid[0] < 2 or x_grid[-1] >= len(sums.a2):
        raise RangeError("x_grid must lie within [2, x_max]")
    rows = []
    for x in x_grid:
        main = -4.0 * x ** 1.5 * eval_f_N(coeffs, n, math.log(x)).real
        residual = float(sums.a2[x]) - main
        rows.append({
            "x": x,
            "a2": float(sums.a2[x]),
            "main_term": main,
            "residual": residual,
            "normalized_residual": residual / (x * math.log(x) ** 3),
        })
    return rows
