"""Reference values the benchmark checks the program against.

Nothing here imports dotx.  Two references of the closed-form exchange
energy are kept:

- `j_mp`: the formula in 50-digit mpmath arithmetic.  It gives the
  accuracy metric `j_max_rel_err` on `ACCURACY_GRID` and the sign-switch
  field of the GaAs reference geometry.
- `j_np`: the same formula vectorised in float64 with `expm1` in the
  1/sinh prefactor, so it does not share the program's small-d
  cancellation.  It checks every J value and every switch a workload
  produces.  `check_float_reference` holds it to the mpmath one before a
  run is trusted.

The lab-to-dimensionless mapping is re-derived from CODATA constants.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf
from scipy.constants import elementary_charge, epsilon_0, hbar, m_e
from scipy.optimize import brentq
from scipy.special import i0e

mp.dps = 50

#: Relative tolerance the golden file's values are pinned at
#: (tests/test_acceptance.py, AC-8); switches are held to it as well.
GOLDEN_RTOL = 1e-6
#: Tolerance of a program J value against `j_np`: rtol * |J_ref| + atol (meV).
J_RTOL = 1e-9
J_ATOL_MEV = 1e-12

GAAS = {"effective_mass": 0.067, "dielectric_const": 13.1, "confinement_mev": 3.0}

# Fixed (b, d, chi) grid of `j_max_rel_err`.  It keeps the small-d points
# (d <= 1e-4), where the program's 1 - exp(-2 arg) cancels, and points
# with b*d^2 >= 50.  Points where J is below the normal float range are
# dropped, since a float result there is 0 or subnormal by representation.
ACCURACY_C = 2.36
ACCURACY_B = (1.0, 1.5, 3.0, 10.0, 50.0)
ACCURACY_D = (1e-8, 1e-6, 1e-4, 1e-2, 0.3, 0.7, 1.5, 3.0, 6.0)
ACCURACY_CHI = (0.0, 0.3, 3.0)
_SMALLEST_J = 1e-290


def lab_scales():
    """(omega0 [rad/s], a_B [nm], c, hbar omega0 [J], m [kg]) of GaAs."""
    m = GAAS["effective_mass"] * m_e
    hw0 = GAAS["confinement_mev"] * 1e-3 * elementary_charge
    omega0 = hw0 / hbar
    a_b = math.sqrt(hbar / (m * omega0))
    e_coul = elementary_charge**2 / (4.0 * math.pi * epsilon_0 * GAAS["dielectric_const"] * a_b)
    c = math.sqrt(math.pi / 2.0) * e_coul / hw0
    return omega0, a_b * 1e9, c, hw0, m


def lab_to_dimensionless(B, E, a_nm):
    """Arrays (b, d, c, chi) for lab inputs B [T], E [V/m], a [nm]."""
    omega0, a_b_nm, c, hw0, m = lab_scales()
    B, E, a_nm = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (B, E, a_nm)))
    larmor = elementary_charge * np.abs(B) / (2.0 * m)
    b = np.hypot(omega0, larmor) / omega0
    d = a_nm / a_b_nm
    chi = elementary_charge * E * a_nm * 1e-9 / hw0
    return b, d, np.full_like(b, c), chi


def j_np(b, d, c, chi):
    """Dimensionless J in float64, broadcasting over its arguments."""
    b, d, c, chi = (np.asarray(v, dtype=float) for v in (b, d, c, chi))
    d2 = d * d
    x1 = b * d2
    x2 = d2 * (b - 1.0 / b)
    arg = 2.0 * (x1 + x2)
    csb = c * np.sqrt(b)
    quartic = 0.75 / b * (1.0 + x1)
    efield = 1.5 * chi * chi / d2
    em = np.exp(-arg)
    with np.errstate(over="ignore", under="ignore"):
        num = 2.0 * em * (csb * i0e(x1) + quartic + efield) - 2.0 * csb * i0e(x2) * np.exp(-2.0 * x1)
    return num / -np.expm1(-2.0 * arg)


def j_lab_mev(B, E, a_nm):
    """J in meV for lab inputs, float64 reference."""
    return j_np(*lab_to_dimensionless(B, E, a_nm)) * GAAS["confinement_mev"]


def j_mp(b, d, c, chi):
    """Dimensionless J in 50-digit arithmetic."""
    b, d, c, chi = (mpf(repr(float(v))) for v in (b, d, c, chi))
    d2 = d * d
    x1 = b * d2
    x2 = d2 * (b - 1 / b)
    bracket = (
        c * mp.sqrt(b) * (mp.exp(-x1) * mp.besseli(0, x1) - mp.exp(x2) * mp.besseli(0, x2))
        + mpf(3) / (4 * b) * (1 + x1)
        + mpf(3) / 2 * chi * chi / d2
    )
    return bracket / mp.sinh(2 * d2 * (2 * b - 1 / b))


def accuracy_grid():
    """(b, d, chi, J_ref) rows of the fixed accuracy grid, J_ref as float."""
    rows = []
    for b in ACCURACY_B:
        for d in ACCURACY_D:
            for chi in ACCURACY_CHI:
                ref = j_mp(b, d, ACCURACY_C, chi)
                if abs(ref) >= _SMALLEST_J:
                    rows.append((b, d, chi, float(ref)))
    return rows


def check_float_reference(grid) -> float:
    """Largest relative gap of `j_np` to the 50-digit values on `grid`.

    Raises if it is not within 1e-12, since every per-point check of a
    run leans on `j_np`.
    """
    b, d, chi, ref = (np.array(col) for col in zip(*grid))
    worst = float(np.max(np.abs(j_np(b, d, ACCURACY_C, chi) - ref) / np.abs(ref)))
    if not worst <= 1e-12:
        raise RuntimeError(f"float64 reference is off the mpmath one by {worst:.3g}")
    return worst


def check_golden(golden: dict):
    """Hold the lab mapping and `j_np` to tests/golden/pinned_values.json."""
    omega0, a_b_nm, c, hw0, m = lab_scales()
    a = 0.7 * a_b_nm
    got = {
        "bohr_radius_gaas_nm": a_b_nm,
        "c_coulomb_gaas": c,
        "j_mev_gaas_b0_a0p7ab": float(j_lab_mev(0.0, 0.0, a)),
        "j_mev_gaas_1t_a0p7ab": float(j_lab_mev(1.0, 0.0, a)),
    }
    for key, value in got.items():
        if abs(value - golden[key]) > GOLDEN_RTOL * abs(golden[key]):
            raise RuntimeError(f"reference disagrees with golden {key}: {value!r} vs {golden[key]!r}")


def switch_root(axis: str, fixed: dict, lo: float, hi: float) -> float:
    """Sign switch of the float64 reference J along B or E in [lo, hi]."""

    def f(x):
        point = dict(fixed, **{axis: x})
        return float(j_lab_mev(point["B"], point["E"], point["a"]))

    return brentq(f, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=500)


def switch_root_mp(a_nm: float, lo: float, hi: float) -> float:
    """Sign switch of the 50-digit J along B at E = 0, by bisection to 1e-12 T."""
    omega0, a_b_nm, c, hw0, m = lab_scales()
    d = a_nm / a_b_nm

    def j(B):
        b = math.hypot(omega0, elementary_charge * B / (2.0 * m)) / omega0
        return j_mp(b, d, c, 0.0)

    j_lo = j(lo)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        j_mid = j(mid)
        if (j_mid > 0) == (j_lo > 0):
            lo, j_lo = mid, j_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
