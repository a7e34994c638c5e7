"""Parameter sweeps and sign-switch finding for the exchange energy.

These drive the datasets users actually plot: J against B, E, or d, the
zero crossings that mark the antiferromagnetic/ferromagnetic transition,
and the quasi-static switching trajectory that takes a dot pair across
the transition and back with the magnetic field held constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import ExchangeBreakdown, exchange_energy, exchange_energy_lab, overlap
from .errors import (
    InvalidParameterError,
    NoRootInBracketError,
    RootConvergenceError,
    ScenarioError,
    SingularConfigurationError,
)
from .units import FieldConfig, MaterialParams, bohr_radius_nm, derive_parameters

AXES = ("B", "E", "d")

#: Bracket-width convergence targets per axis, in that axis's unit.
AXIS_XTOL = {"B": 1e-6, "E": 1.0, "d": 1e-8}

# Upper bound on every grid length a caller can ask for (sweep, pre-scan,
# scenario phase), so a mistyped count fails before any allocation.
_MAX_STEPS = 100_000


@dataclass(frozen=True)
class SweepSpec:
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
        if not (2 <= self.steps <= _MAX_STEPS):
            raise InvalidParameterError(
                f"sweep needs between 2 and {_MAX_STEPS} steps, got {self.steps!r}"
            )
        if self.vary == "d" and self.start <= 0.0:
            raise InvalidParameterError("d sweeps must start above 0")


@dataclass(frozen=True)
class SweepRow:
    x: float
    j_mev: float
    breakdown: ExchangeBreakdown | None
    b: float
    d: float
    s_overlap: float
    singular: bool = False


@dataclass(frozen=True)
class SwitchPoint:
    """A located zero crossing of J along one axis."""

    axis: str
    value: float
    bracket: tuple
    residual: float
    direction: str  # "antiferro_to_ferro" or "ferro_to_antiferro"


def _config_at(spec_material, fixed: FieldConfig, axis: str, x: float) -> FieldConfig:
    if axis == "B":
        return replace(fixed, B=x)
    if axis == "E":
        return replace(fixed, E=x)
    return replace(fixed, a=x * bohr_radius_nm(spec_material))


def _j_of(material: MaterialParams, fixed: FieldConfig, axis: str):
    def j(x: float) -> float:
        return exchange_energy_lab(material, _config_at(material, fixed, axis, x)).j_mev

    return j


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the exchange energy along a monotone grid."""
    spec.validate()
    grid = np.linspace(spec.start, spec.stop, spec.steps)
    rows = []
    for x in grid:
        x = float(x)
        cfg = _config_at(spec.material, spec.fixed, spec.vary, x)
        try:
            p = derive_parameters(spec.material, cfg)
            bd = exchange_energy(
                p.b, p.d, p.c_coulomb, p.efield_ratio,
                energy_scale_mev=spec.material.confinement_energy,
            )
        except (SingularConfigurationError, InvalidParameterError):
            rows.append(
                SweepRow(x, math.nan, None, math.nan, math.nan, math.nan, singular=True)
            )
            continue
        rows.append(SweepRow(x, bd.j_mev, bd, p.b, p.d, overlap(p.b, p.d)))
    return rows


def brent(f, a: float, b: float, xtol: float, max_iter: int = 200):
    """Classic Brent zero finder on a sign-change bracket [a, b].

    Inverse quadratic interpolation with secant and bisection fallbacks.
    Returns (root, f(root), (lo, hi), iterations) where (lo, hi) is the
    final bracket.  Requires f(a) and f(b) of opposite sign.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a, 0.0, (a, a), 0
    if fb == 0.0:
        return b, 0.0, (b, b), 0
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise NoRootInBracketError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")
    c, fc = a, fa
    e = d = b - a
    eps = np.finfo(float).eps
    for it in range(1, max_iter + 1):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            lo, hi = (b, c) if b <= c else (c, b)
            return b, fb, (lo, hi), it
        if abs(e) < tol or abs(fa) <= abs(fb):
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
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
    lo, hi = (b, c) if b <= c else (c, b)
    raise RootConvergenceError(
        f"root refinement exceeded {max_iter} iterations", bracket=(lo, hi)
    )


def _polish_residual(f, bracket, best_x, best_f, ftol, max_iter=200):
    lo, hi = bracket
    f_lo, f_hi = f(lo), f(hi)
    if abs(f_lo) <= abs(best_f):
        best_x, best_f = lo, f_lo
    if abs(f_hi) <= abs(best_f):
        best_x, best_f = hi, f_hi
    for _ in range(max_iter):
        if abs(best_f) <= ftol or hi - lo <= math.ulp(max(abs(lo), abs(hi))):
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < abs(best_f):
            best_x, best_f = mid, f_mid
        if f_mid == 0.0:
            break
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return best_x, best_f, (lo, hi)


def find_switch(
    axis: str,
    material: MaterialParams,
    fixed: FieldConfig,
    bracket: tuple,
    tol: float = 1e-9,
) -> SwitchPoint:
    """Locate the sign switch of J inside a bracket along one axis.

    `tol` bounds |J| at the root in meV; the bracket width converges to
    the axis-appropriate resolution (1e-6 T, 1 V/m, 1e-8 in d).
    """
    if axis not in AXES:
        raise InvalidParameterError(f"axis must be one of {AXES}, got {axis!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InvalidParameterError("bracket must satisfy lo < hi")
    j = _j_of(material, fixed, axis)
    j_lo = j(lo)
    root, j_root, final_bracket, _ = brent(j, lo, hi, AXIS_XTOL[axis])
    if abs(j_root) > tol:
        # Brent stops on bracket width; bisect further until the residual
        # itself is under tol (J is smooth, so this converges fast).
        root, j_root, final_bracket = _polish_residual(j, final_bracket, root, j_root, tol)
    if abs(j_root) > tol:
        raise RootConvergenceError(
            f"|J(root)| = {abs(j_root)} meV exceeds tol {tol}", bracket=final_bracket
        )
    direction = "antiferro_to_ferro" if j_lo > 0.0 else "ferro_to_antiferro"
    return SwitchPoint(
        axis=axis,
        value=root,
        bracket=(lo, hi),
        residual=abs(j_root),
        direction=direction,
    )


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

    The closed form is not expected to produce more than one crossing per
    axis, but nothing assumes that: each bracketed change is refined and
    reported in order.
    """
    if not (2 <= scan_steps <= _MAX_STEPS):
        raise InvalidParameterError(
            f"scan needs between 2 and {_MAX_STEPS} steps, got {scan_steps!r}"
        )
    grid = np.linspace(lo, hi, scan_steps)
    j = _j_of(material, fixed, axis)
    values = [j(float(x)) for x in grid]
    points = []
    for left, right, j_left, j_right in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if j_left == 0.0 or math.copysign(1.0, j_left) != math.copysign(1.0, j_right):
            if j_left == 0.0 and j_right == 0.0:
                continue
            points.append(
                find_switch(axis, material, fixed, (float(left), float(right)), tol=tol)
            )
    return points


@dataclass(frozen=True)
class ScenarioStep:
    phase: str  # "A" ramp-B, "B" ferro plateau, "C" ramp-E, "D" antiferro plateau
    B: float
    E: float
    j_mev: float
    sign: int


@dataclass(frozen=True)
class ScenarioResult:
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
    if not (1 <= steps_per_phase <= _MAX_STEPS):
        raise InvalidParameterError(
            f"scenario needs between 1 and {_MAX_STEPS} steps per phase, got {steps_per_phase!r}"
        )
    fixed = FieldConfig(B=0.0, E=0.0, a=a_nm)
    j = _j_of(material, fixed, "B")
    if j(b_operating) >= 0.0:
        roots = scan_switches("B", material, fixed, 0.0, max(3.0, 2.0 * b_operating))
        threshold = f"{roots[0].value:.4g} T" if roots else "above the scanned range"
        raise ScenarioError(
            f"operating field {b_operating} T is below the sign-switch threshold "
            f"({threshold}); J never turns ferromagnetic so no E-driven switch "
            "back exists"
        )

    b_points = scan_switches("B", material, fixed, 0.0, b_operating)
    b_switch = b_points[0]
    fixed_b = replace(fixed, B=b_operating)
    e_points = scan_switches("E", material, fixed_b, 0.0, e_limit)
    if not e_points:
        raise ScenarioError(
            f"no E-driven switch found up to {e_limit} V/m at B = {b_operating} T"
        )
    e_switch = e_points[0]
    e_stop = 1.25 * e_switch.value

    steps = []

    def add(phase, B, E):
        cfg = FieldConfig(B=B, E=E, a=a_nm)
        value = exchange_energy_lab(material, cfg).j_mev
        sign = 0 if value == 0.0 else (1 if value > 0.0 else -1)
        steps.append(ScenarioStep(phase, B, E, value, sign))

    for x in np.linspace(0.0, b_operating, steps_per_phase):
        add("A", float(x), 0.0)
    for _ in range(max(2, steps_per_phase // 4)):
        add("B", b_operating, 0.0)
    for x in np.linspace(0.0, e_stop, steps_per_phase):
        add("C", b_operating, float(x))
    for _ in range(max(2, steps_per_phase // 4)):
        add("D", b_operating, e_stop)

    return ScenarioResult(steps=steps, b_switch=b_switch, e_switch=e_switch)


# ---------------------------------------------------------------------------
# serialization helpers (CSV / JSON payloads; file writing lives in the CLI)


def sweep_csv_text(spec: SweepSpec, rows: list, provenance: dict) -> str:
    lines = ["# dotx sweep"]
    for key in sorted(provenance):
        lines.append(f"# {key} = {provenance[key]!r}")
    lines.append("x,J_meV,prefactor,coulomb_term,quartic_term,efield_term,b,d,S")
    for row in rows:
        if row.singular or row.breakdown is None:
            lines.append(f"{row.x!r},nan,nan,nan,nan,nan,nan,nan,nan")
            continue
        bd = row.breakdown
        lines.append(
            ",".join(
                repr(float(v))
                for v in (
                    row.x,
                    row.j_mev,
                    bd.prefactor,
                    bd.coulomb_term,
                    bd.quartic_term,
                    bd.efield_term,
                    row.b,
                    row.d,
                    row.s_overlap,
                )
            )
        )
    return "\n".join(lines) + "\n"


def switch_point_dict(point: SwitchPoint) -> dict:
    return {
        "axis": point.axis,
        "value": point.value,
        "bracket": list(point.bracket),
        "residual_mev": point.residual,
        "direction": point.direction,
    }


def scenario_dict(result: ScenarioResult) -> dict:
    return {
        "b_switch": switch_point_dict(result.b_switch),
        "e_switch": switch_point_dict(result.e_switch),
        "steps": [
            {"phase": s.phase, "B_T": s.B, "E_Vm": s.E, "J_meV": s.j_mev, "sign": s.sign}
            for s in result.steps
        ],
    }
