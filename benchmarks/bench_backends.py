"""Timing comparison of the compiled kernels against the pure numpy fallback.

Run:  python benchmarks/bench_backends.py [--repeat 3]
"""

import argparse
import time

import numpy as np

from mfun import build_coefficients, bundled_zeros_path, load_zeros
from mfun import _purepy

try:
    from mfun import _core
except ImportError:
    _core = None


def timeit(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if _core is None:
        print("compiled extension not available; nothing to compare")
        return

    coeffs = build_coefficients(load_zeros(bundled_zeros_path()))
    n = 10
    c, g, b = coeffs.c[:n], coeffs.gamma[:n], coeffs.beta[:n]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))

    alpha = np.arange(2 * 10 ** 6) * 0.0126
    theta = 2.0 * np.pi * rng.random((200000, n))
    rho = np.linspace(0.0, 3e4, 40001)
    r = np.linspace(0.0, 0.014, 1024)
    w = rho * np.exp(-rho / 5e3)

    cases = [
        ("f_series (2e6 alphas, N=10)",
         lambda k: k.f_series(alpha, c, g, b)),
        ("phasor_sum (2e5 x 10 angles)",
         lambda k: k.phasor_sum(theta, c)),
        ("char_prod (4e4 rhos, N=10)",
         lambda k: k.char_prod(rho, c)),
        ("hankel_sum (1024 x 4e4)",
         lambda k: k.hankel_sum(r, rho, w)),
    ]

    print(f"{'kernel':38s} {'compiled':>10s} {'pure':>10s} {'speedup':>8s}")
    for name, call in cases:
        tc = timeit(lambda: call(_core), args.repeat)
        tp = timeit(lambda: call(_purepy), args.repeat)
        print(f"{name:38s} {tc * 1e3:9.1f}ms {tp * 1e3:9.1f}ms "
              f"{tp / tc:7.1f}x")


if __name__ == "__main__":
    main()
