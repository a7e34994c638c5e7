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

from .errors import InvalidParameterError, ParameterOverflowError, SingularConfigurationError
from .special import _i0e_array_pair, _i0e_pair
from .units import (
    E_CHARGE,
    MEV_TO_J,
    NM_TO_M,
    FieldConfig,
    MaterialParams,
    _lab_b,
    _lab_chi,
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
    """Overlap S of the left and right dot orbitals; raises `_terms`' error
    for b or d out of range (d = 0 gives S = 1)."""
    b_ok, d_ok, *_ = tests = _admits(b, d, 0.0, 0.0, math.isfinite)
    if not (b_ok and d_ok):
        _reject(_ADMITS, tests, b, d, 0.0, 0.0)
    s = math.exp(-d * d * (2.0 * b - 1.0 / b))
    if s != s:  # 0 * inf
        raise InvalidParameterError(
            f"overlap is undefined at b={b!r}, d={d!r}: d^2 rounds to 0 and 2b overflows"
        )
    return s


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


def _terms(b: float, d: float, c: float, efield_ratio: float, scale: float = 1.0, held=None, fields=None):
    """`_formula` of (b, d, c, chi), checked by the accept rule: raises the
    error of the first case the point fails (`_reject`).  J times `scale`,
    its energy unit, must be finite.  `held` is `_formula`'s."""
    isfinite = math.isfinite
    tests = _admits(b, d, c, efield_ratio, isfinite)
    if tests != (True,) * 8:
        _reject(_ADMITS, tests, b, d, c, efield_ratio, fields)
    terms = _formula(b, d * d, c, efield_ratio, _i0e_pair, held)
    _, arg, _, csb, _, _, _, efield_term, j_dimensionless = terms
    tests = _settles(arg, csb, efield_term, j_dimensionless * scale, isfinite)
    if tests != (True,) * 4:
        _reject(_SETTLES, tests, b, d, c, efield_ratio)
    return terms


#: The closed form's accept rule: per case, in the order checked, the error
#: of a point that fails it and its message.  A ParameterOverflowError
#: raises in every caller; a sweep marks a point failing any other case
#: singular.  `_admits` tests these cases before `_formula`, `_settles` after.
_ADMITS = (
    (InvalidParameterError, "compression factor b must be finite and >= 1, got {b!r}"),
    (InvalidParameterError, "distance d must be finite and >= 0, got {d!r}"),
    (SingularConfigurationError, "singular configuration d=0: the two dots coincide"),
    (InvalidParameterError, "coulomb strength c must be finite and >= 0, got {c!r}"),
    (InvalidParameterError, "efield_ratio must be finite, got {chi!r}"),
    (SingularConfigurationError,
     "singular configuration d={d!r}: 1 - S^4 rounds to 0, the two dots coincide"),
    (ParameterOverflowError, "distance d={d!r} is too large: d^2 overflows"),
    (ParameterOverflowError, "distance d={d!r} is too large at b={b!r}: b*d^2 overflows"),
)
_SETTLES = (
    (ParameterOverflowError,
     "electric field chi={chi!r} is too large at distance d={d!r}: chi^2/d^2 overflows"),
    (ParameterOverflowError,
     "coulomb strength c={c!r} is too large at b={b!r}: c*sqrt(b) overflows"),
    (SingularConfigurationError, "J overflows at d={d!r}, chi={chi!r}: the two dots all "
     "but coincide, or the field is too strong"),
    (SingularConfigurationError, "prefactor 1/sinh(2 d^2 (2b - 1/b)) overflows at d={d!r}, "
     "b={b!r}: the two dots all but coincide"),
)


def _admits(b, d, c, chi, isfinite):
    """The tests of `_ADMITS`, True where the point passes, for floats with
    math.isfinite or arrays with numpy's.  Past them 1 - S^4 > 0."""
    d2 = d * d
    b_in_range, bd2_finite = _admits_b(b, d2, isfinite)
    return (
        b_in_range, isfinite(d) & (d >= 0.0), d != 0.0,
        isfinite(c) & (c >= 0.0), _admits_chi(chi, isfinite),
        d2 != 0.0,  # 1 - S^4 rounds to 0 exactly where d^2 does
        d2 < math.inf, bd2_finite,  # else J = 0 * inf
    )


def _admits_b(b, d2, isfinite):
    """`_admits`' tests on b, its first and last, at d^2 = `d2`."""
    return isfinite(b) & (b >= 1.0 - 1e-12), b * d2 < math.inf


def _admits_chi(chi, isfinite):
    """`_admits`' test on chi, its fifth."""
    return isfinite(chi)


def _settles(arg, csb, efield_term, j_scaled, isfinite):
    """The tests of `_SETTLES` on `_formula`'s outputs and J times the energy
    scale, as `_admits`' are: J is neither inf nor nan, and the prefactor
    1/sinh(arg) = 1/arg is finite, which J alone need not show."""
    return efield_term < math.inf, csb < math.inf, isfinite(j_scaled), 1.0 / arg < math.inf


def _reject(cases, tests, b, d, c, chi, fields=None):
    """Raise `FieldConfig(*fields)`'s error where it rejects that lab point (each
    it rejects fails an `_admits` test), else the first failing case's error."""
    if fields is not None:
        FieldConfig(*fields).validate()
    error, message = cases[tests.index(False)]
    raise error(message.format(b=b, d=d, c=c, chi=chi))


def _fold(cases, tests, valid, overflows):
    """`_reject` over arrays, in place: `valid` keeps the points that pass
    every test, `overflows` gains those whose first failed case overflows.
    True if some test fails; where none does, it changes nothing."""
    if all(test.all() for test in tests):
        return False
    for test, (error, _) in zip(tests, cases):
        if error is ParameterOverflowError:
            overflows |= valid & ~test
        valid &= test
    return True


def _formula(b, d2, c, chi, i0e, held, exp=math.exp, expm1=math.expm1, sqrt=math.sqrt):
    """The operations of J for (b, d^2, c, chi), unchecked: (x2, arg, exp(-arg),
    c sqrt(b), I0e(x1), I0e(x2), quartic_term, efield_term, j), for floats or,
    with `_i0e_array_pair` and numpy's exp, expm1 and sqrt, arrays, on points
    that pass `_admits`.  `i0e(x1, x2)` returns (I0e(x1), I0e(x2)) from one
    call, `bessel_i0e`'s bits for floats (`_i0e_pair`); it comes per call, so
    a wrapper on the module attribute sees each call.  `held` is None or a
    list that keeps the chi-free part for later points at the same (b, d^2,
    c): an empty one is set whole (a second setter writes the same values),
    a set one is read, and only chi^2/d^2 and J are formed, in the same
    order and bits.  J's factor 2 is applied last, to the quotient: the two
    terms of the regrouped sum, each doubled first, can overflow to inf - inf
    where J is finite, and doubling is exact short of overflow."""
    if held:
        x2, arg, em, denominator, csb, i0e_x1, i0e_x2, quartic_term, direct, exchange = held
    else:
        x1 = b * d2
        x2 = d2 * (b - 1.0 / b)
        arg = 2.0 * (x1 + x2)  # 2 d^2 (2b - 1/b)
        em = exp(-arg)
        denominator = -expm1(-2.0 * arg)  # 1 - S^4, without cancelling at small d
        csb = c * sqrt(b)
        quartic_term = 0.75 / b * (1.0 + x1)
        i0e_x1, i0e_x2 = i0e(x1, x2)
        direct = csb * i0e_x1 + quartic_term
        exchange = csb * i0e_x2 * exp(-2.0 * x1)  # half the exchange term
        if held is not None:
            held[:] = x2, arg, em, denominator, csb, i0e_x1, i0e_x2, quartic_term, direct, exchange
    efield_term = 1.5 * (chi * chi) / d2
    j_dimensionless = 2.0 * ((em * (direct + efield_term) - exchange) / denominator)
    return x2, arg, em, csb, i0e_x1, i0e_x2, quartic_term, efield_term, j_dimensionless


def efield_switch(mat: MaterialParams, B: float, a: float) -> float:
    """|E*| in V/m at which J(B, E*, a) = 0, or nan where no switch exists.

    E enters J only through (3/2) chi^2 / d^2 under a positive prefactor, so
    at fixed (B, a) the switch is chi*^2 = -(2/3) d^2 (coulomb + quartic),
    which exists exactly where J(B, 0, a) < 0, and E* = chi* hbar omega_0 /
    (e a).  exp(x2) is factored out of the square root, so exp(2 x2) is
    never formed; E* is inf where exp(x2) alone overflows.  Raises what
    `exchange_energy_lab` raises at (B, 0, a): an E evaluator's `e_star()`.
    """
    return exchange_energy_along(mat, FieldConfig(B, 0.0, a), "E").e_star()


def exchange_energy_along(
    mat: MaterialParams, fixed: FieldConfig, axis: str
) -> Callable[[float], float]:
    """J in meV as a function of one lab coordinate, the others from `fixed`.

    axis is "B" (Tesla), "E" (V/m) or "d" (the half-distance in units of
    a_B).  Each value has the bits `exchange_energy_lab(...).j_mev` gives,
    and a point raises the error that path raises.  The material's constants
    and the model coordinates the axis fixes (d and chi along B, b and d
    along E, b along d) are formed once; a point maps what it moves, by
    `units._lab_point`'s maps, and runs `_terms`, which checks the lab
    fields where the model rejects the point.  Along B and E the evaluator
    tests `_admits` once on what the axis fixes, (d, c, chi) at b = 1 or
    (b, d, c) at chi = 0; where that passes, a point tests only its own
    coordinate's cases (`_admits_b` or `_admits_chi`), runs `_formula` and
    `_settles`, and goes through `_terms` only to raise.  A B point takes
    about 2.3-2.6 us on CPython 3.11, most of it `_formula` and its one
    `_i0e_pair` call.  Along E the evaluator holds `_formula`'s chi-free
    part from its first point that passes, so later points form no I0e
    (about 0.6 us); its `e_star()` is `efield_switch` from that part.
    Along d a point runs `_terms` whole.
    """
    if axis not in AXES:
        raise InvalidParameterError(f"axis must be one of {AXES}, got {axis!r}")
    const = _material_constants(mat)
    a_b, c, scale = const.bohr_radius, const.c, mat.confinement_energy
    B0, E0, a0 = fixed
    if axis == "B":
        d, chi, isfinite = a0 / a_b, _lab_chi(const, E0, a0), math.isfinite
        d2 = d * d
        admitted = _admits(1.0, d, c, chi, isfinite) == (True,) * 8  # the fixed (d, c, chi) pass

        def j_mev(x: float) -> float:
            b = _lab_b(const, x)[2]
            if admitted and _admits_b(b, d2, isfinite) == (True, True):
                _, arg, _, csb, _, _, _, efield_term, j = _formula(b, d2, c, chi, _i0e_pair, None)
                if _settles(arg, csb, efield_term, j * scale, isfinite) == (True,) * 4:
                    return j * scale
            return _terms(b, d, c, chi, scale, None, (x, E0, a0))[-1] * scale  # raises
        return j_mev
    b, d = _lab_b(const, B0)[2], a0 / a_b
    if axis == "d":
        def j_mev(x: float) -> float:
            a = x * a_b
            return _terms(b, a / a_b, c, _lab_chi(const, E0, a), scale, None, (B0, E0, a))[-1] * scale
        return j_mev
    d2, isfinite = d * d, math.isfinite
    admitted = _admits(b, d, c, 0.0, isfinite) == (True,) * 8  # the fixed (b, d, c) pass
    held = []

    def j_mev(x: float) -> float:
        chi = _lab_chi(const, x, a0)
        if admitted and _admits_chi(chi, isfinite):
            _, arg, _, csb, _, _, _, efield_term, j = _formula(b, d2, c, chi, _i0e_pair, held)
            if _settles(arg, csb, efield_term, j * scale, isfinite) == (True,) * 4:
                return j * scale
        return _terms(b, d, c, chi, scale, held, (B0, x, a0))[-1] * scale  # raises

    def e_star() -> float:
        x2, _, _, csb, i0e_x1, i0e_x2, quartic, _, _ = _terms(b, d, c, 0.0, scale, held, (B0, 0.0, a0))
        # -(coulomb + quartic) = exp(2 x2) * radicand
        radicand = csb * i0e_x2 - (csb * i0e_x1 + quartic) * math.exp(-2.0 * x2)
        if not radicand >= 0.0:
            return math.nan
        try:
            chi = d * math.sqrt(radicand / 1.5) * math.exp(x2)
        except OverflowError:
            return math.inf
        return chi * scale * MEV_TO_J / (E_CHARGE * a0 * NM_TO_M)

    j_mev.e_star = e_star
    return j_mev


class ExchangeColumns(NamedTuple):
    """`exchange_energy_lab` and `overlap` over lab arrays of any broadcast shape.

    Each column holds the scalar functions' number, up to numpy's exp,
    expm1, sinh and hypot rounding unlike the C library's: b and the quartic
    term within a few eps, S and the prefactor within a few eps (1 + arg), J
    within a few eps (1 + arg) M, M the size of the terms that cancel in it.
    valid is False where the accept rule (`_ADMITS`, `_SETTLES`) rejects the
    point, as `exchange_energy_lab` does: the points a sweep marks singular.
    Every column is nan there.

    Every column has the inputs' broadcast shape, at least 1-D.  A column
    formed on fewer coordinates than the grid has (b on B alone, d on a,
    b's and d's terms on (B, a)) is an `np.broadcast_to` view of that
    shape, which is read-only: copy it before writing into it.  Where a
    point is rejected, every column is a new array.
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
    """Exchange splitting over lab arrays (Tesla, V/m, nm) of any broadcast shape.

    Maps the points to (b, d, chi) by `units._lab_point` with numpy's hypot
    and runs `_formula`, the scalar form's operations, with numpy's ufuncs
    (`ExchangeColumns` says how far that moves the values).  B, E and a are
    taken as they come, not broadcast: numpy's broadcasting gives each term
    the shape of the coordinates it depends on, so a (B, E) grid forms b,
    d^2 and the I0e pair once per B, and only chi's terms and J per point.
    Elementwise ufuncs give the same bits on a broadcast operand.
    The mask is the accept rule's, by `_admits` and `_settles` on arrays,
    whose tests of mixed shape `_fold` folds into the grid's; a point
    `FieldConfig` rejects fails one of `_admits`' range tests, and one
    `_admits` rejects runs `_formula` as (b, d, chi) = (1, 0, 0): its I0e
    arguments are 0, so no nan reaches I0e and the point adds no term to
    its series.  Where one of the overflow cases fails (d^2, b d^2,
    chi^2 / d^2 or c sqrt(b)), the kernel raises the scalar form's error at
    the first such point in flat order, with (b, d, chi) broadcast to the
    grid only then, as it raises for a material it rejects.
    """
    import numpy as np

    B, E, a = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (B, E, a))
    shape = np.broadcast_shapes(B.shape, E.shape, a.shape)
    const = _material_constants(mat)
    with np.errstate(all="ignore"):  # floats overflow silently; so do the columns
        _, _, b, d, chi = _lab_point(const, B, E, a, np.hypot)
        points = b, d, chi
        valid = np.ones(shape, dtype=bool)
        overflows = np.zeros_like(valid)
        if _fold(_ADMITS, _admits(b, d, const.c, chi, np.isfinite), valid, overflows):
            b, d, chi = np.where(valid, b, 1.0), np.where(valid, d, 0.0), np.where(valid, chi, 0.0)
        x2, arg, em, csb, i0e_x1, i0e_x2, quartic_term, efield_term, j_dimensionless = _formula(
            b, d * d, const.c, chi, _i0e_array_pair, None, np.exp, np.expm1, np.sqrt
        )
        j_mev = j_dimensionless * mat.confinement_energy
        _fold(_SETTLES, _settles(arg, csb, efield_term, j_mev, np.isfinite), valid, overflows)
        if overflows.any():  # the scalar form's error, at the first point where it raises
            i = overflows.argmax()
            b0, d0, chi0 = (v.item(i) for v in np.broadcast_arrays(*points))
            _terms(b0, d0, const.c, chi0, mat.confinement_energy)

        prefactor = np.where(arg < 350.0, 1.0 / np.sinh(arg), 2.0 * em)
        coulomb_term = np.where(
            2.0 * x2 < 700.0, csb * (i0e_x1 - np.exp(2.0 * x2) * i0e_x2), -math.inf
        )
        s_overlap = np.exp(-d * d * (2.0 * b - 1.0 / b))
    columns = (b, d, chi, prefactor, coulomb_term, quartic_term, efield_term, j_dimensionless,
               j_mev, s_overlap)
    if not valid.all():
        return ExchangeColumns(*(np.where(valid, column, math.nan) for column in columns), valid)
    return ExchangeColumns(
        *(column if column.shape == shape else np.broadcast_to(column, shape) for column in columns),
        valid,
    )
