"""Parameter sweeps and sign-switch finding for the exchange energy.

These drive the datasets users actually plot: J against B, E, or d, the
zero crossings that mark the antiferromagnetic/ferromagnetic transition,
and the quasi-static switching trajectory that takes a dot pair across
the transition and back with the magnetic field held constant.

Only `sweep` imports numpy, and only for a grid of more than
`_SCALAR_MAX_STEPS` points, which it evaluates in one call of the array
kernel.  A shorter grid, like the switch pre-scan and the scenario
phases, maps the scalar closed form over a pure-Python grid: numpy's
import would cost more than the array call saves there.  So these,
`find_switch` and `brent` run without numpy.
"""

from __future__ import annotations

import gc
import math
import operator
import sys
from itertools import repeat
from typing import NamedTuple

from .closed_form import (
    AXES,
    ExchangeBreakdown,
    exchange_energy,
    exchange_energy_along,
    exchange_energy_arrays,
    overlap,
)
from .errors import (
    DotxError,
    InvalidParameterError,
    NoRootInBracketError,
    ParameterOverflowError,
    RootConvergenceError,
    ScenarioError,
)
from .units import FieldConfig, MaterialParams, _lab_point, _material_constants, bohr_radius_nm

#: Root resolution per axis, in that axis's unit: Brent's bracket-width target.
#: E is solved in closed form, far inside its entry, with Brent only where it misses tol.
AXIS_XTOL = {"B": 1e-6, "E": 1.0, "d": 1e-8}

# Upper bound on every grid length a caller can ask for (sweep, pre-scan,
# scenario phase), so a mistyped count fails before any allocation.
_MAX_STEPS = 100_000

# The longest grid `sweep` evaluates point by point with the scalar closed
# form.  In a process that has numpy loaded, the array kernel is faster from
# a few dozen points on (at 512 points about 0.7 ms against 3-5 ms), but a
# fresh process pays about 100 ms to import numpy.
_SCALAR_MAX_STEPS = 512


class SweepSpec(NamedTuple):
    """One-dimensional scan description.

    vary is "B" (Tesla), "E" (V/m) or "d" (dimensionless half-distance);
    the non-varied values come from `fixed`.
    """

    vary: str
    start: float
    stop: float
    steps: int
    fixed: FieldConfig
    material: MaterialParams

    def validate(self):
        if self.vary not in AXES:
            raise InvalidParameterError(f"vary must be one of {AXES}, got {self.vary!r}")
        if not (self.start < self.stop):
            raise InvalidParameterError("sweep range must satisfy start < stop")
        _check_finite_range("sweep", self.start, self.stop)
        if not _is_count(self.steps, 2):
            raise InvalidParameterError(
                f"sweep needs between 2 and {_MAX_STEPS} steps, got {self.steps!r}"
            )
        if self.vary == "d" and self.start <= 0.0:
            raise InvalidParameterError("d sweeps must start above 0")


def _is_count(n, low: int) -> bool:
    """Whether `n` is an int (numpy's too, not a bool) in [low, _MAX_STEPS]."""
    try:
        return not isinstance(n, bool) and low <= operator.index(n) <= _MAX_STEPS
    except TypeError:  # a float, or anything else that is not an integer
        return False


def _check_finite_range(what: str, start: float, stop: float):
    # A grid on an infinite range, or one whose width overflows, is nan/inf.
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(stop - start)):
        raise InvalidParameterError(
            f"{what} range must be finite with a finite width, got [{start!r}, {stop!r}]"
        )


def _grid(start: float, stop: float, n: int) -> list:
    """`np.linspace(start, stop, n).tolist()`, bit for bit, without numpy."""
    start, stop = float(start), float(stop)
    delta = stop - start
    if n == 1:
        return [0.0 * delta + start]
    div = n - 1
    step = delta / div
    if step == 0.0:  # numpy's branch for equal ends and a step that underflows
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


def _check_tol(tol: float):
    if not 0.0 <= tol < math.inf:
        raise InvalidParameterError(f"tol must be finite and >= 0, got {tol!r}")


def validate_scan_steps(scan_steps: int):
    """Bound the pre-scan grid of `scan_switches`."""
    if not _is_count(scan_steps, 2):
        raise InvalidParameterError(
            f"scan needs between 2 and {_MAX_STEPS} steps, got {scan_steps!r}"
        )


class SweepRow(NamedTuple):
    """One sweep point: x, J in meV, (b, d, S) and J's terms as `ExchangeBreakdown`
    names them; a singular row (the closed form rejects the point) is nan past x."""

    x: float
    j_mev: float
    b: float
    d: float
    s_overlap: float
    prefactor: float
    coulomb_term: float
    quartic_term: float
    efield_term: float
    j_dimensionless: float
    singular: bool = False

    @property
    def breakdown(self) -> ExchangeBreakdown | None:
        """J's terms as one record, built on each read; None where singular."""
        if self.singular:
            return None
        return ExchangeBreakdown(self.prefactor, self.coulomb_term, self.quartic_term,
                                 self.efield_term, self.j_dimensionless, self.j_mev)


class SwitchPoint(NamedTuple):
    """A located zero crossing of J along one axis."""

    axis: str
    value: float
    bracket: tuple
    residual: float
    direction: str  # "antiferro_to_ferro" or "ferro_to_antiferro"
    iterations: int = 0  # Brent iterations; on E, 0 unless E* misses tol
    evaluations: int = 0  # J evaluations, each at a distinct point
    final_bracket: tuple = ()  # last sign-change bracket around value; (value, value) if J = 0


def _axis_fields(fixed: FieldConfig, axis: str, x, a_b: float):
    """(B, E, a) with `x` (a grid value or the grid array) on `axis`, the rest
    from `fixed`; a d value is scaled by the Bohr radius `a_b`, in nm."""
    if axis == "B":
        return x, fixed.E, fixed.a
    if axis == "E":
        return fixed.B, x, fixed.a
    return fixed.B, fixed.E, x * a_b


def _row_columns(spec: SweepSpec) -> list:
    # Per-point lists in SweepRow's field order, singular last (the kernel's
    # columns are nan there); the arrays they come from are freed on return,
    # before the rows are built.  A column the kernel broadcast from one
    # value (stride 0: d along B, b along d, all but chi's terms along E)
    # becomes that one float repeated, as does singular on a row of valid
    # points.
    import numpy as np

    # linspace's last product overflows on some ranges up to the largest float,
    # before stop replaces it; a d grid overflowing to a = inf is marked invalid
    with np.errstate(over="ignore"):
        grid = np.linspace(spec.start, spec.stop, spec.steps)
        lab = _axis_fields(spec.fixed, spec.vary, grid, bohr_radius_nm(spec.material))
    cols = exchange_energy_arrays(spec.material, *lab)
    n = spec.steps
    return [
        [column.item(0)] * n if column.strides == (0,) else column.tolist()
        for column in (
            grid, cols.j_mev, cols.b, cols.d, cols.s_overlap, cols.prefactor,
            cols.coulomb_term, cols.quartic_term, cols.efield_term, cols.j_dimensionless,
        )
    ] + [[False] * n if cols.valid.all() else (~cols.valid).tolist()]


def _scalar_rows(spec: SweepSpec) -> list:
    """`sweep`'s rows point by point, by `_lab_point`, `exchange_energy` and
    `overlap`.  A row is singular where `exchange_energy` rejects the point,
    as it does each that `FieldConfig` rejects: where the kernel's mask is
    False.  A ParameterOverflowError propagates from the first point that
    raises it, as the kernel's does."""
    const = _material_constants(spec.material)
    c, scale = const.c, spec.material.confinement_energy
    rows = []
    for x in _grid(spec.start, spec.stop, spec.steps):
        B, E, a = _axis_fields(spec.fixed, spec.vary, x, const.bohr_radius)
        _, _, b, d, chi = _lab_point(const, B, E, a)
        try:
            bd = exchange_energy(b, d, c, chi, scale)
        except ParameterOverflowError:
            raise
        except DotxError:
            rows.append(SweepRow(x, *[math.nan] * 9, singular=True))
            continue
        rows.append(SweepRow(x, bd.j_mev, b, d, overlap(b, d), *bd[:5]))
    return rows


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the exchange energy along a monotone grid.

    A grid of up to `_SCALAR_MAX_STEPS` points is evaluated point by point
    with the scalar closed form, and its rows carry `exchange_energy_lab`'s
    bits; a longer one in one call of the array kernel, whose rows are
    within `ExchangeColumns`' rounding of those.  Both apply the closed
    form's one accept rule (`closed_form._ADMITS` and `_SETTLES`), so they
    mark the same rows singular and raise the same error at the same point.
    """
    spec.validate()
    if spec.steps <= _SCALAR_MAX_STEPS:
        return _scalar_rows(spec)
    # The rows hold floats and a bool, so they form no cycle: the collector
    # pauses while they are built, not to walk the young column lists on
    # every pass their allocations set off.
    enabled = gc.isenabled()
    gc.disable()
    try:
        # tuple.__new__ skips the record's Python __new__ and defaults: singular is given.
        return list(map(tuple.__new__, repeat(SweepRow), zip(*_row_columns(spec))))
    finally:
        if enabled:
            gc.enable()


def brent(
    f, a: float, b: float, xtol: float, max_iter: int = 200, *,
    fa: float, fb: float, ftol: float = math.inf,
):
    """Classic Brent zero finder on a sign-change bracket [a, b].

    `fa` and `fb` are f(a) and f(b), and must be nonzero and of opposite
    sign, as `find_switch` requires of J: f = 0 has no sign, so an end where
    f is 0 raises NoRootInBracketError.  f is evaluated only inside (a, b).
    Inverse quadratic interpolation with secant and bisection fallbacks,
    until the bracket is `xtol` wide (plus 4 eps of the root) and |f| at its
    best end is at most `ftol` (default inf: the width alone); past that
    width, steps of at least one float go on until |f| <= ftol or the ends are
    adjacent floats.  An iterate where f is exactly 0 ends the search, with
    the bracket (x, x).  Returns (root, f(root), (lo, hi), iterations), where
    (lo, hi) is the final bracket.
    """
    if fa == 0.0 or fb == 0.0 or (fa > 0.0) == (fb > 0.0):
        raise NoRootInBracketError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")
    c, fc = a, fa
    e = d = b - a
    # 2 eps |b| is evaluated as (2 eps) |b|, so the hoisted factors keep tol's bits
    two_eps, half_xtol = 2.0 * sys.float_info.epsilon, 0.5 * xtol
    for it in range(1, max_iter + 1):
        if fb == 0.0:
            return b, fb, (b, b), it
        abs_fb, abs_fc = abs(fb), abs(fc)
        if abs_fc < abs_fb:
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
            abs_fb = abs_fc
        tol = two_eps * abs(b) + half_xtol
        m = 0.5 * (c - b)
        fine = abs(m) <= tol  # narrow enough; past the return, |f| > ftol
        if fine:
            if not abs_fb > ftol:  # |f| <= ftol, or f is nan
                return b, fb, (b, c) if b <= c else (c, b), it
            # Narrow enough, but |f| is not small enough: narrow on, at least
            # one float per step, until the ends are adjacent floats.
            tol = math.ulp(min(abs(b), abs(c)))
            if b + m in (b, c):
                return b, fb, (b, c) if b <= c else (c, b), it
        if abs(e) < tol or abs(fa) <= abs_fb:
            e = d = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        if fine and b in (a, c):  # rounded back onto an end
            b = math.nextafter(a, c)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
    lo, hi = (b, c) if b <= c else (c, b)
    raise RootConvergenceError(
        f"root refinement exceeded {max_iter} iterations", bracket=(lo, hi)
    )


def _efield_root(j, lo: float, hi: float, j_lo: float, j_hi: float, tol: float, e_star):
    """brent's result on the E axis, from the closed-form switch `e_star`.

    J is nonzero at both ends, with opposite signs.  J is even in E, so the
    sign change holds one of +-E*; J is evaluated there once.  Where
    |J(E*)| <= tol, E* is the root, in the half of the bracket that keeps
    the sign change.  Otherwise brent narrows that half-bracket, from E*
    to the end across the sign change, to 1 V/m and `tol`.  Where rounding
    leaves E* nan or not strictly inside, brent searches the whole bracket.
    Returns brent's 4-tuple and the count of J's values at E*, 1 or 0.
    """
    root = e_star if lo < e_star < hi else -e_star
    if not lo < root < hi:
        return (*brent(j, lo, hi, AXIS_XTOL["E"], fa=j_lo, fb=j_hi, ftol=tol), 0)
    j_root = j(root)
    # The end of the bracket across the sign change from E*.
    if math.copysign(1.0, j_root) == math.copysign(1.0, j_lo):
        far, j_far = hi, j_hi
    else:
        far, j_far = lo, j_lo
    if abs(j_root) <= tol:
        return root, j_root, (root, far) if root < far else (far, root), 0, 1
    return (*brent(j, root, far, AXIS_XTOL["E"], fa=j_root, fb=j_far, ftol=tol), 1)


def find_switch(
    axis: str,
    material: MaterialParams,
    fixed: FieldConfig,
    bracket: tuple,
    tol: float = 1e-9,
) -> SwitchPoint:
    """Locate the sign switch of J inside a bracket along one axis.

    `tol` bounds |J| at the root in meV.  Along B and d, Brent narrows the
    bracket to the axis resolution (1e-6 T, 1e-8 in d), and on until |J|
    at its best end is at most `tol`.  Along E the root is the closed form
    `efield_switch`, taken from the `e_star` of the evaluator that gave J at
    the ends, with no bracket iteration (`iterations` is 0); where
    |J| there exceeds `tol`, or rounding puts it outside the bracket,
    Brent narrows the sign change to 1 V/m and `tol` (see `_efield_root`).
    J must be nonzero at both ends, with opposite signs: J = 0 (a root on an
    end, or underflow) has no sign, as in `scan_switches`, so such a bracket
    raises NoRootInBracketError.  The direction is the sign of J at `lo`.
    """
    if axis not in AXES:
        raise InvalidParameterError(f"axis must be one of {AXES}, got {axis!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InvalidParameterError("bracket must satisfy lo < hi")
    _check_tol(tol)
    j = exchange_energy_along(material, fixed, axis)
    return _refine(axis, j, lo, hi, j(lo), j(hi), tol)


def _refine(axis: str, j, lo: float, hi: float, j_lo: float, j_hi: float, tol: float):
    """`find_switch`'s search on [lo, hi] with the evaluator `j` of `axis`,
    from J at the ends.  `evaluations` counts those two, one per Brent
    iteration but the last (where it returns), and E* where it is evaluated."""
    if j_lo == 0.0 or j_hi == 0.0 or (j_lo > 0.0) == (j_hi > 0.0):
        raise NoRootInBracketError(f"no sign change on [{lo}, {hi}]: f={j_lo}, {j_hi}")
    if axis == "E":
        *result, probes = _efield_root(j, lo, hi, j_lo, j_hi, tol, j.e_star())
    else:
        result, probes = brent(j, lo, hi, AXIS_XTOL[axis], fa=j_lo, fb=j_hi, ftol=tol), 0
    root, j_root, final_bracket, iterations = result
    if abs(j_root) > tol:
        raise RootConvergenceError(
            f"|J(root)| = {abs(j_root)} meV exceeds tol {tol}", bracket=final_bracket
        )
    direction = "antiferro_to_ferro" if j_lo > 0.0 else "ferro_to_antiferro"
    return SwitchPoint(axis, root, (lo, hi), abs(j_root), direction, iterations,
                       2 + probes + max(iterations - 1, 0), final_bracket)


def _sign_changes(points) -> list:
    """The (left, right) brackets of J's sign changes over (x, J) `points`:
    between consecutive signed samples of opposite sign.  J of exactly 0 (a
    root on the grid, or underflow) has no sign, nor has a nan J (a singular
    sweep row)."""
    signed = [(x, j) for x, j in points if j > 0.0 or j < 0.0]
    return [
        (left, right)
        for (left, j_left), (right, j_right) in zip(signed, signed[1:])
        if (j_left > 0.0) != (j_right > 0.0)
    ]


def scan_switches(
    axis: str,
    material: MaterialParams,
    fixed: FieldConfig,
    lo: float,
    hi: float,
    scan_steps: int = 121,
    tol: float = 1e-9,
) -> list[SwitchPoint]:
    """Pre-scan [lo, hi] on a uniform grid and refine every sign change.

    Each sign change `_sign_changes` finds on the grid is refined, by
    `find_switch`'s search with the scan's evaluator and J at its ends, and
    reported once.  The closed form is not expected to produce more than
    one crossing per axis, but nothing assumes that: each is reported in
    order.
    """
    validate_scan_steps(scan_steps)
    _check_finite_range("scan", lo, hi)
    if not lo < hi:
        raise InvalidParameterError("scan range must satisfy lo < hi")
    _check_tol(tol)
    j = exchange_energy_along(material, fixed, axis)
    values = {x: j(x) for x in _grid(lo, hi, scan_steps)}
    return [_refine(axis, j, left, right, values[left], values[right], tol)
            for left, right in _sign_changes(values.items())]


class ScenarioStep(NamedTuple):
    phase: str  # "A" ramp-B, "B" ferro plateau, "C" ramp-E, "D" antiferro plateau
    B: float
    E: float
    j_mev: float
    sign: int


class ScenarioResult(NamedTuple):
    steps: list
    b_switch: SwitchPoint
    e_switch: SwitchPoint


def switching_scenario(
    material: MaterialParams,
    a_nm: float,
    b_operating: float = 2.0,
    e_limit: float = 2e6,
    steps_per_phase: int = 13,
) -> ScenarioResult:
    """Quasi-static switching trajectory through the sign change and back.

    Phase A ramps B from 0 to `b_operating` at E = 0, crossing the
    antiferro-to-ferro point; phase B holds the ferro plateau; phase C
    ramps E at fixed B until the coupling switches back; phase D holds
    the recovered antiferro plateau.  Fails if the operating field sits
    below the switch threshold, in which case no E crossing exists.
    """
    if not _is_count(steps_per_phase, 1):
        raise InvalidParameterError(
            f"scenario needs between 1 and {_MAX_STEPS} steps per phase, got {steps_per_phase!r}"
        )
    if not (math.isfinite(b_operating) and b_operating > 0.0):
        raise InvalidParameterError(f"operating field {b_operating!r} T must be finite and > 0")
    if not (math.isfinite(e_limit) and e_limit > 0.0):
        raise InvalidParameterError(f"e_limit {e_limit!r} V/m must be finite and > 0")
    fixed = FieldConfig(B=0.0, E=0.0, a=a_nm)
    j_b = exchange_energy_along(material, fixed, "B")
    j_operating = j_b(b_operating)
    if j_operating == 0.0:
        raise ScenarioError(
            f"J underflows to 0 at the operating field {b_operating} T, so its sign "
            "is unknown there; choose a smaller field or distance"
        )
    if j_operating > 0.0:
        roots = scan_switches("B", material, fixed, 0.0, max(3.0, 2.0 * b_operating))
        threshold = f"{roots[0].value:.4g} T" if roots else "above the scanned range"
        raise ScenarioError(
            f"operating field {b_operating} T is below the sign-switch threshold "
            f"({threshold}); J never turns ferromagnetic so no E-driven switch "
            "back exists"
        )

    b_points = scan_switches("B", material, fixed, 0.0, b_operating)
    if not b_points:  # J < 0 at b_operating and no sign change below it
        raise ScenarioError(
            f"J is already ferromagnetic at B = 0: no sign change of J on [0, {b_operating}] T, "
            "so no B-driven switch exists"
        )
    b_switch = b_points[0]
    fixed_b = fixed._replace(B=b_operating)
    e_points = scan_switches("E", material, fixed_b, 0.0, e_limit)
    if not e_points:
        raise ScenarioError(
            f"no E-driven switch found up to {e_limit} V/m at B = {b_operating} T"
        )
    e_switch = e_points[0]
    e_stop = 1.25 * e_switch.value

    j_e = exchange_energy_along(material, fixed_b, "E")
    plateau = max(2, steps_per_phase // 4)
    path = (
        [("A", x, 0.0) for x in _grid(0.0, b_operating, steps_per_phase)]
        + [("B", b_operating, 0.0)] * plateau
        + [("C", b_operating, x) for x in _grid(0.0, e_stop, steps_per_phase)]
        + [("D", b_operating, e_stop)] * plateau
    )
    steps = []
    for phase, b, e in path:
        j = j_b(b) if phase in "AB" else j_e(e)
        steps.append(ScenarioStep(phase, b, e, j, 0 if j == 0.0 else (1 if j > 0.0 else -1)))

    return ScenarioResult(steps=steps, b_switch=b_switch, e_switch=e_switch)
