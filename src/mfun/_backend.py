"""Kernel backend selection.

The compiled Cython extension is preferred when importable; set the
environment variable ``MFUN_PURE=1`` to force the pure numpy fallback
(useful for benchmarking and debugging).
"""

import os

if os.environ.get("MFUN_PURE"):
    from . import _purepy as kernels
else:
    try:
        from . import _core as kernels  # type: ignore[no-redef]
    except ImportError:
        from . import _purepy as kernels  # type: ignore[no-redef]

COMPILED = bool(kernels.COMPILED)
BACKEND = "compiled" if COMPILED else "pure"

j0_arr = kernels.j0_arr
j1_arr = kernels.j1_arr
f_series = kernels.f_series
phasor_sum = kernels.phasor_sum
char_prod = kernels.char_prod
hankel_sum = kernels.hankel_sum
