"""Analytic exchange energy of the coupled-dot pair.

The Heitler-London treatment of two laterally coupled single-electron
dots collapses to a closed form in the dimensionless parameters (b, d, c,
chi): a 1/sinh tunnelling prefactor multiplying three contributions,

    coulomb  c sqrt(b) [exp(-b d^2) I0(b d^2)
                        - exp(d^2 (b - 1/b)) I0(d^2 (b - 1/b))],
    quartic  (3 / 4b) (1 + b d^2),
    efield   (3/2) chi^2 / d^2,

where chi = e E a / (hbar omega_0).  The overlap of the two dot orbitals
is S = exp(-d^2 (2b - 1/b)), and the prefactor 1/sinh(2 d^2 (2b - 1/b))
equals 2 S^2 / (1 - S^4).  J > 0 favours the spin singlet
(antiferromagnetic coupling), J < 0 the triplet (ferromagnetic).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidParameterError, SingularConfigurationError
from .special import bessel_i0e, bessel_i0e_array
from .units import (
    E_CHARGE,
    MEV_TO_J,
    NM_TO_M,
    FieldConfig,
    MaterialParams,
    _lab_point,
    _material_constants,
    derive_parameters,
)

if TYPE_CHECKING:
    import numpy as np

#: The lab coordinates J is evaluated along: B (Tesla), E (V/m) and the
#: half-distance d in units of a_B.
AXES = ("B", "E", "d")


class ExchangeBreakdown(NamedTuple):
    """Exchange energy and its term-by-term decomposition.

    j_dimensionless = prefactor * (coulomb_term + quartic_term + efield_term)
    and j_mev is the same number scaled by the confinement quantum.
    coulomb_term is reported as -inf where 2 x2 = 2 d^2 (b - 1/b) >= 700,
    because exp(2 x2) overflows there; j_dimensionless stays finite through
    an overflow-free regrouping of the same sum.
    """

    prefactor: float
    coulomb_term: float
    quartic_term: float
    efield_term: float
    j_dimensionless: float
    j_mev: float


def overlap(b: float, d: float) -> float:
    """Overlap S of the left and right dot orbitals."""
    _check_bd(b, d, allow_zero_d=True)
    return math.exp(-d * d * (2.0 * b - 1.0 / b))


def exchange_energy(
    b: float,
    d: float,
    c: float,
    efield_ratio: float,
    energy_scale_mev: float = 1.0,
) -> ExchangeBreakdown:
    """Exchange splitting for dimensionless inputs.

    `energy_scale_mev` is the confinement quantum used to express j_mev;
    callers working in lab units pass the material value (see
    `exchange_energy_lab`), dimensionless callers can leave the default.
    """
    x2, arg, em, csb, i0e_x1, i0e_x2, quartic_term, efield_term, j_dimensionless = _terms(
        b, d, c, efield_ratio, energy_scale_mev
    )
    # 1/sinh(arg) == 2 exp(-arg) to double precision once exp(-2 arg)
    # underflows; switching forms avoids overflowing sinh itself.
    prefactor = 1.0 / math.sinh(arg) if arg < 350.0 else 2.0 * em
    # The term as printed overflows through exp(x2) for extreme (b, d);
    # report -inf there, while j uses an overflow-free regrouping.
    coulomb_term = (
        csb * (i0e_x1 - math.exp(2.0 * x2) * i0e_x2) if 2.0 * x2 < 700.0 else -math.inf
    )

    return ExchangeBreakdown(
        prefactor=prefactor,
        coulomb_term=coulomb_term,
        quartic_term=quartic_term,
        efield_term=efield_term,
        j_dimensionless=j_dimensionless,
        j_mev=j_dimensionless * energy_scale_mev,
    )


def exchange_energy_lab(mat: MaterialParams, fields: FieldConfig) -> ExchangeBreakdown:
    """Exchange splitting for lab inputs (Tesla, V/m, nm)."""
    p = derive_parameters(mat, fields)
    return exchange_energy(
        p.b, p.d, p.c_coulomb, p.efield_ratio, energy_scale_mev=mat.confinement_energy
    )


def _terms(b: float, d: float, c: float, efield_ratio: float, scale: float = 1.0) -> tuple:
    """`_formula` of (b, d, c, chi), checked.

    Raises where the inputs make J meaningless, in this order: b, d, c or
    chi out of range (the checks of `_check_bd`, then c, then chi), d^2 or
    b d^2 overflowing, 1 - S^4 rounding to 0 (exactly where d^2 does),
    chi^2 / d^2 overflowing, J (or J times the energy `scale` it is reported
    in) or 1/sinh(arg) overflowing.
    """
    isfinite = math.isfinite
    d2 = d * d
    if not (
        isfinite(b) and b >= 1.0 - 1e-12 and isfinite(d) and d > 0.0
        and isfinite(c) and c >= 0.0 and isfinite(efield_ratio)
        and 0.0 < d2 and b * d2 < math.inf
    ):
        _check_bd(b, d, allow_zero_d=False)
        if not (isfinite(c) and c >= 0.0):
            raise InvalidParameterError(f"coulomb strength c must be finite and >= 0, got {c!r}")
        if not isfinite(efield_ratio):
            raise InvalidParameterError(f"efield_ratio must be finite, got {efield_ratio!r}")
        if b * d2 == math.inf:  # J would be 0 * inf = nan
            raise _overflow(b, d, efield_ratio)
        raise SingularConfigurationError(
            f"singular configuration d={d!r}: 1 - S^4 rounds to 0, the two dots coincide"
        )
    terms = _formula(b, d2, c, efield_ratio, bessel_i0e)
    _, arg, _, _, _, _, _, efield_term, j_dimensionless = terms
    if efield_term == math.inf:  # J would be inf
        raise _overflow(b, d, efield_ratio)
    if abs(j_dimensionless * scale) == math.inf:  # e.g. 1 - S^4 subnormal, d below ~1e-154
        raise SingularConfigurationError(
            f"J overflows at d={d!r}, chi={efield_ratio!r}: the two dots all but coincide, "
            "or the field is too strong"
        )
    if 1.0 / arg == math.inf:  # the prefactor 1/sinh(arg) = 1/arg overflows, J need not
        raise SingularConfigurationError(
            f"prefactor 1/sinh(2 d^2 (2b - 1/b)) overflows at d={d!r}, b={b!r}: "
            "the two dots all but coincide"
        )
    return terms


def _formula(b, d2, c, chi, i0e, exp=math.exp, expm1=math.expm1, sqrt=math.sqrt):
    """The operations of J for (b, d^2, c, chi), unchecked: (x2, arg, exp(-arg),
    c sqrt(b), I0e(x1), I0e(x2), quartic_term, efield_term, j), for floats or,
    with `bessel_i0e_array` and numpy's exp, expm1 and sqrt, arrays.  The
    callers' checks, b >= 1 - 1e-12 and 0 < d^2, b d^2 < inf, make 1 - S^4 > 0;
    i0e comes per call, so a wrapper on the module attribute sees each call."""
    x1 = b * d2
    x2 = d2 * (b - 1.0 / b)
    arg = 2.0 * (x1 + x2)  # 2 d^2 (2b - 1/b)
    em = exp(-arg)
    denominator = -expm1(-2.0 * arg)  # 1 - S^4, without cancelling at small d
    csb = c * sqrt(b)
    quartic_term = 0.75 / b * (1.0 + x1)
    efield_term = 1.5 * (chi * chi) / d2
    i0e_x1 = i0e(x1)
    i0e_x2 = i0e(x2)
    j_dimensionless = (
        2.0 * em * (csb * i0e_x1 + quartic_term + efield_term)
        - 2.0 * csb * i0e_x2 * exp(-2.0 * x1)
    ) / denominator
    return x2, arg, em, csb, i0e_x1, i0e_x2, quartic_term, efield_term, j_dimensionless


def _overflow(b: float, d: float, efield_ratio: float) -> InvalidParameterError:
    """The error of the first overflow check `_terms` fails at this point."""
    if d * d == math.inf:
        return InvalidParameterError(f"distance d={d!r} is too large: d^2 overflows")
    if b * (d * d) == math.inf:  # as the checks form it, not (b d) d
        return InvalidParameterError(
            f"distance d={d!r} is too large at b={b!r}: b*d^2 overflows"
        )
    return InvalidParameterError(
        f"electric field chi={efield_ratio!r} is too large at distance d={d!r}: "
        "chi^2/d^2 overflows"
    )


def efield_switch(mat: MaterialParams, B: float, a: float) -> float:
    """|E*| in V/m at which J(B, E*, a) = 0, or nan where no switch exists.

    E enters J only through (3/2) chi^2 / d^2 under a positive prefactor, so
    at fixed (B, a) the switch is chi*^2 = -(2/3) d^2 (coulomb + quartic),
    which exists exactly where J(B, 0, a) < 0, and E* = chi* hbar omega_0 /
    (e a).  exp(x2) is factored out of the square root, so exp(2 x2) is
    never formed; E* is inf where exp(x2) alone overflows.  Raises what
    `exchange_energy_lab` raises at (B, 0, a).

    b and d come from `units._lab_point`, with the bits and the checks of
    `derive_parameters`, but no `DerivedParams` is built: on the E axis of
    `find_switch` that was most of the switch's own cost.
    """
    const = _material_constants(mat)
    _, _, b, d, _ = _lab_point(const, B, 0.0, a)
    x2, _, _, csb, i0e_x1, i0e_x2, quartic_term, _, _ = _terms(
        b, d, const.c, 0.0, mat.confinement_energy
    )
    # -(coulomb + quartic) = exp(2 x2) * radicand
    radicand = csb * i0e_x2 - (csb * i0e_x1 + quartic_term) * math.exp(-2.0 * x2)
    if not radicand >= 0.0:
        return math.nan
    try:
        chi = d * math.sqrt(radicand / 1.5) * math.exp(x2)
    except OverflowError:
        return math.inf
    return chi * mat.confinement_energy * MEV_TO_J / (E_CHARGE * a * NM_TO_M)


def exchange_energy_along(
    mat: MaterialParams, fixed: FieldConfig, axis: str
) -> Callable[[float], float]:
    """J in meV as a function of one lab coordinate, the others from `fixed`.

    axis is "B" (Tesla), "E" (V/m) or "d" (the half-distance in units of
    a_B).  Each value has the bits `exchange_energy_lab(...).j_mev` gives,
    and a point raises the error that path raises: the material is checked
    and its constants derived once, so a point costs `units._lab_point`,
    `_terms` and nothing else.
    """
    if axis not in AXES:
        raise InvalidParameterError(f"axis must be one of {AXES}, got {axis!r}")
    const = _material_constants(mat)
    a_b, c, scale = const.bohr_radius, const.c, mat.confinement_energy
    B0, E0, a0 = fixed.B, fixed.E, fixed.a

    def j_mev(x: float) -> float:
        B, E, a = (x, E0, a0) if axis == "B" else (B0, x, a0) if axis == "E" else (B0, E0, x * a_b)
        _, _, b, d, chi = _lab_point(const, B, E, a)
        return _terms(b, d, c, chi, scale)[-1] * scale

    return j_mev


class ExchangeColumns(NamedTuple):
    """`exchange_energy_lab` and `overlap` over 1-D arrays of lab points.

    Each column holds the scalar functions' number, up to numpy's exp,
    expm1, sinh and hypot rounding unlike the C library's: b and the quartic
    term within a few eps, S and the prefactor within a few eps (1 + arg), J
    within a few eps (1 + arg) M, M the size of the terms that cancel in it.
    valid is False where `exchange_energy_lab` raises InvalidParameterError or
    SingularConfigurationError (the points a sweep marks singular), except d^2,
    b d^2 or chi^2 / d^2 overflowing, which raises; every column is nan there.
    """

    b: np.ndarray
    d: np.ndarray
    efield_ratio: np.ndarray
    prefactor: np.ndarray
    coulomb_term: np.ndarray
    quartic_term: np.ndarray
    efield_term: np.ndarray
    j_dimensionless: np.ndarray
    j_mev: np.ndarray
    s_overlap: np.ndarray
    valid: np.ndarray


def exchange_energy_arrays(mat: MaterialParams, B, E, a) -> ExchangeColumns:
    """Exchange splitting over lab arrays (Tesla, V/m, nm), broadcast to 1-D.

    Maps the points to (b, d, chi) by `units._lab_point`'s formulas (b via
    numpy's hypot) and runs `_formula`, the scalar form's operations, with
    numpy's ufuncs (`ExchangeColumns` says how far that moves the values)
    on the points its mask keeps.  Like the scalar form it raises
    InvalidParameterError for a material it rejects and where d^2, b d^2
    or chi^2 / d^2 overflows.
    """
    import numpy as np

    B, E, a = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (B, E, a)))
    m, omega0, a_b, c, quantum = _material_constants(mat)
    with np.errstate(all="ignore"):  # floats overflow silently; so do the columns
        larmor = E_CHARGE * np.abs(B) / (2.0 * m)
        b = np.hypot(omega0, larmor) / omega0
        d = a / a_b
        chi = E_CHARGE * E * a * NM_TO_M / quantum
        d2 = d * d
        valid = (
            np.isfinite(a) & (a > 0.0) & np.isfinite(B) & np.isfinite(E)  # `_lab_point`'s check
            & np.isfinite(b) & (b >= 1.0 - 1e-12)
            & np.isfinite(d) & (d > 0.0)
            & np.isfinite(chi)
            & (d2 != 0.0)  # where 1 - S^4 rounds to 0, as in `_terms`
        )
        overflow = valid & ((b * d2 == math.inf) | (1.5 * (chi * chi) / d2 == math.inf))
        if overflow.any():  # the first point where the scalar form raises
            first = np.flatnonzero(overflow)[0]
            raise _overflow(b[first].item(), d[first].item(), chi[first].item())
        keep = slice(None) if valid.all() else valid  # a view when every point is valid
        b, d, d2, chi = b[keep], d[keep], d2[keep], chi[keep]
        x2, arg, em, csb, i0e_x1, i0e_x2, quartic_term, efield_term, j_dimensionless = _formula(
            b, d2, c, chi, bessel_i0e_array, np.exp, np.expm1, np.sqrt
        )

        prefactor = 2.0 * em
        near = arg < 350.0
        prefactor[near] = 1.0 / np.sinh(arg[near])
        coulomb_term = np.full_like(arg, -math.inf)
        finite = 2.0 * x2 < 700.0
        coulomb_term[finite] = csb[finite] * (
            i0e_x1[finite] - np.exp(2.0 * x2[finite]) * i0e_x2[finite]
        )
        s_overlap = np.exp(-d * d * (2.0 * b - 1.0 / b))
        j_mev = j_dimensionless * mat.confinement_energy
        ok = np.isfinite(j_mev) & np.isfinite(prefactor)  # singular where `_terms` raises
        valid[np.flatnonzero(valid)[~ok]] = False

    def column(values):
        if valid.all():
            return values
        out = np.full(valid.shape, math.nan)
        out[valid] = values[ok]
        return out

    columns = (b, d, chi, prefactor, coulomb_term, quartic_term, efield_term, j_dimensionless)
    return ExchangeColumns(*map(column, columns + (j_mev, s_overlap)), valid)


def _check_bd(b: float, d: float, allow_zero_d: bool):
    if not (math.isfinite(b) and b >= 1.0 - 1e-12):
        raise InvalidParameterError(f"compression factor b must be finite and >= 1, got {b!r}")
    if not math.isfinite(d) or d < 0.0:
        raise InvalidParameterError(f"distance d must be finite and >= 0, got {d!r}")
    if d == 0.0 and not allow_zero_d:
        raise SingularConfigurationError(
            "singular configuration d=0: the two dots coincide"
        )
