"""Generate ``src/mfun/_bessel_table.py``: the near-field polynomials of
``mfun._kernels.j0_arr`` and ``j1_arr``.

On each unit interval [i, i+1), i = 0 .. 19 (below the kernels' x0 = 20),
J_nu(x) is interpolated at the DEGREE + 1 Chebyshev points of the
interval by a polynomial in s = x - (i + 1/2), computed with mpmath at
DPS digits and rounded to doubles.  Run from the repository root:

    python tools/bessel_table.py > src/mfun/_bessel_table.py

``tests/test_bessel.py`` regenerates the table and checks that the
committed file holds exactly these doubles.  Needs mpmath.
"""

import mpmath as mp

INTERVALS = 20
DEGREE = 12
DPS = 40


def coefficients(nu: int) -> list[tuple[float, ...]]:
    """Row i: the s^0 .. s^DEGREE coefficients of J_nu on [i, i+1)."""
    with mp.workdps(DPS):
        half = mp.mpf(1) / 2
        nodes = [half * mp.cos(mp.pi * (2 * j + 1) / (2 * DEGREE + 2))
                 for j in range(DEGREE + 1)]
        vander = mp.matrix([[s ** p for p in range(DEGREE + 1)]
                            for s in nodes])
        rows = []
        for i in range(INTERVALS):
            values = mp.matrix([mp.besselj(nu, i + half + s) for s in nodes])
            rows.append(tuple(float(c) for c in mp.lu_solve(vander, values)))
    return rows


def module_text() -> str:
    lines = [
        '"""Near-field polynomials of J0 and J1, generated by '
        'tools/bessel_table.py.',
        "",
        f"Row i of J0 and J1 holds the coefficients of s^0 .. s^{DEGREE}, "
        "s = x - (i + 1/2),",
        f"of the polynomial interpolating J_nu on [i, i+1) at its "
        f"{DEGREE + 1} Chebyshev points",
        f"(mpmath at {DPS} digits, rounded to doubles).  Do not edit.",
        '"""',
        "",
    ]
    for name, nu in (("J0", 0), ("J1", 1)):
        lines.append(f"{name} = (")
        for row in coefficients(nu):
            lines.append("    (" + ", ".join(repr(c) for c in row) + "),")
        lines.append(")")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(module_text(), end="")
