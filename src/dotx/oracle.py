"""Numerical cross-check of the closed-form exchange energy.

Everything here works in the dot's natural units: lengths in the single
well Bohr radius a_B, energies in the confinement quantum hbar*omega_0.
The two dot ground states are magnetically compressed Gaussians carrying
a linear y-phase (the momentum translation that makes each one an exact
eigenstate of its own displaced well in the symmetric gauge):

    phi(x, y) = sqrt(b/pi) exp(i k y) exp(-(b/2) [(x - x_c)^2 + y^2])

with x_c = s*d - chi/d for well sign s = -1 (dot 1) or +1 (dot 2), and
k = -lambda * x_c where lambda = omega_L / omega_0.  The electric field
shifts both centers the same way, so it enters the exchange energy only
through the quartic cross terms.

The five matrix-element groups entering the exchange splitting (single
particle direct/exchange, Coulomb direct/exchange, quartic tunnelling
correction) are evaluated by quadrature: single-particle operators are
applied analytically (polynomial times Gaussian, no discretization), the
two-body Coulomb integrals are reduced from 4D to 2D by integrating the
Gaussian center-of-mass coordinate in closed form, leaving a relative
coordinate integral done in polar coordinates where the Jacobian cancels
the 1/r singularity.  Assembling them with the numerically computed
overlap S gives a value of J that shares no code path with the closed
form beyond the raw inputs.

The 13 single-particle brackets share one Gaussian width and only three
node centres (each dot and their midpoint), so one point's working set
(`_Point`) derives the parameters once and evaluates each orbital once
per node grid; every bracket still runs its own `integrate_2d`
refinement and reads phi_A/phi_B from there.  Each integrand keeps its
expression and grouping, and the element lists are summed in a fixed
order: floating-point sums are not associative, so regrouping or
reordering them would move the last bits of the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .closed_form import exchange_energy
from .errors import QuadratureError
from .special import QuadratureSpec, integrate_2d, integrate_coulomb_relative
from .units import FieldConfig, MaterialParams, derive_parameters

#: Relative-discrepancy denominators never drop below this (in units of
#: the confinement quantum), so comparisons near sign changes stay sane.
NOISE_FLOOR = 1e-6

_WELL_SIGN = {1: -1.0, 2: +1.0}

_DEFAULT_SINGLE = QuadratureSpec(rule="tensor_gauss_hermite", order=64, rel_tol=1e-10)
_DEFAULT_COULOMB = QuadratureSpec(rule="adaptive_polar", order=64, rel_tol=1e-8)


class TermEstimate(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class OrbitalSpec:
    """One translated ground-state orbital, in a_B / hbar*omega_0 units.

    center_x     orbital center on the x axis
    compression  Gaussian exponent parameter (equals b), units 1/a_B^2
    phase_slope  coefficient k of the linear phase exp(i k y), units 1/a_B
    dot_index    1 (well at -d) or 2 (well at +d)

    The amplitude sqrt(b/pi) normalizes |phi|^2 to 1 exactly; the modulus
    does not depend on phase_slope.
    """

    center_x: float
    compression: float
    phase_slope: float
    dot_index: int


@dataclass(frozen=True)
class HLBreakdown:
    """Quadrature-side exchange energy with its per-term report.

    upsilon maps u1..u5 to (value, error) in units of the confinement
    quantum; j_oracle is their assembly through the overlap S_num, and
    rel_discrepancy compares against the closed form with a noise-floored
    denominator.  `incomplete` flags any term whose quadrature failed
    (its best estimate is still used).
    """

    s_num: float
    upsilon: dict
    j_oracle: float
    j_error: float
    j_closed_form: float
    rel_discrepancy: float
    incomplete: bool
    failures: tuple

    @property
    def per_term_report(self):
        return {name: (est.value, est.error) for name, est in self.upsilon.items()}

    def to_report_dict(self, params: dict | None = None) -> dict:
        out = {
            "params": params or {},
            "S_num": self.s_num,
            "upsilon": {
                name: {"value": est.value, "error": est.error}
                for name, est in self.upsilon.items()
            },
            "j_oracle": self.j_oracle,
            "j_closed_form": self.j_closed_form,
            "rel_discrepancy": self.rel_discrepancy,
        }
        if max(abs(self.j_oracle), abs(self.j_closed_form)) < NOISE_FLOOR:
            out["below_noise_floor"] = True
        if self.incomplete:
            out["incomplete"] = True
            out["failures"] = list(self.failures)
        return out


@dataclass(frozen=True)
class _Frame:
    """Dimensionless working set shared by all matrix elements."""

    b: float
    d: float
    lam: float  # omega_L / omega_0
    fshift: float  # common E-field center displacement, a_B units
    chi: float
    c: float

    def well_center(self, dot_index: int) -> float:
        return _WELL_SIGN[dot_index] * self.d


def _frame(mat: MaterialParams, fields: FieldConfig) -> _Frame:
    p = derive_parameters(mat, fields)
    omega0 = p.fock_darwin / p.b
    return _Frame(
        b=p.b,
        d=p.d,
        lam=p.larmor / omega0,
        fshift=p.efield_ratio / p.d,
        chi=p.efield_ratio,
        c=p.c_coulomb,
    )


def _orbital(fr: _Frame, dot_index: int) -> OrbitalSpec:
    center = fr.well_center(dot_index) - fr.fshift
    return OrbitalSpec(
        center_x=center,
        compression=fr.b,
        phase_slope=-fr.lam * center,
        dot_index=dot_index,
    )


def build_orbital(dot_index: int, mat: MaterialParams, fields: FieldConfig) -> OrbitalSpec:
    """Ground-state orbital of one dot under the applied fields."""
    if dot_index not in _WELL_SIGN:
        raise ValueError(f"dot_index must be 1 or 2, got {dot_index!r}")
    return _orbital(_frame(mat, fields), dot_index)


def eval_orbital(spec: OrbitalSpec, x, y):
    """Complex orbital amplitude at (x, y); accepts arrays."""
    beta = spec.compression
    dx = x - spec.center_x
    return math.sqrt(beta / math.pi) * np.exp(
        1j * spec.phase_slope * y - 0.5 * beta * (dx * dx + y * y)
    )


def _polynomial_prefix(spec: OrbitalSpec, fr: _Frame, x, y):
    """kinetic + angular + diamagnetic + dipole: the part of H_j's
    polynomial on `spec` that does not depend on the well j."""
    beta = spec.compression
    lam = fr.lam
    gx = -beta * (x - spec.center_x)
    gy = 1j * spec.phase_slope - beta * y
    kinetic = beta - 0.5 * (gx * gx + gy * gy)
    angular = -1j * lam * (x * gy - y * gx)
    diamagnetic = 0.5 * lam * lam * (x * x + y * y)
    dipole = fr.fshift * x
    return kinetic + angular + diamagnetic + dipole


def _well(s_well: float, x, y):
    dxw = x - s_well
    return 0.5 * (dxw * dxw + y * y)


def apply_hamiltonian(
    spec: OrbitalSpec, j: int, mat: MaterialParams, fields: FieldConfig
) -> Callable:
    """Pointwise action of the single-well Hamiltonian j on the orbital.

    Because the orbital is exp(quadratic + linear imaginary), the kinetic
    term with the symmetric-gauge vector potential, the dipole term and
    the harmonic well all act as multiplication by a second-degree
    polynomial; the returned field is that polynomial times the orbital.
    """
    fr = _frame(mat, fields)
    s_well = fr.well_center(j)

    def field(x, y):
        return (_polynomial_prefix(spec, fr, x, y) + _well(s_well, x, y)) * eval_orbital(spec, x, y)

    return field


class _Point:
    """Working set of one oracle point.

    Holds the frame, both orbitals and each orbital's values on every node
    grid a bracket sampled, so the brackets that share a grid read phi_A
    and phi_B instead of evaluating them again.  A grid is named by
    (quadrature spec, centre, scale, node-array shape); its orbital values
    live as long as the point.  A ket's j-independent polynomial on a grid
    is kept only until its second reader (H_1 and H_2 share it) takes it.
    """

    def __init__(self, mat: MaterialParams, fields: FieldConfig):
        self.frame = _frame(mat, fields)
        self.orb1 = _orbital(self.frame, 1)
        self.orb2 = _orbital(self.frame, 2)
        self._phi = {}
        self._prefix = {}

    def phi(self, spec: OrbitalSpec, grid, x, y):
        key = (spec, grid)
        values = self._phi.get(key)
        if values is None:
            values = self._phi[key] = eval_orbital(spec, x, y)
        return values

    def prefix(self, spec: OrbitalSpec, grid, x, y):
        key = (spec, grid)
        values = self._prefix.pop(key, None)
        if values is None:
            values = self._prefix[key] = _polynomial_prefix(spec, self.frame, x, y)
        return values


def _integrate(integrator, f, quad, failures, label, **hints):
    """Run one quadrature; with a `failures` list, a QuadratureError is
    recorded there and its best estimate returned instead of raised."""
    try:
        return integrator(f, quad, **hints)
    except QuadratureError as exc:
        if failures is None:
            raise
        failures.append(f"{label}: {exc}")
        value = exc.value if exc.value is not None else math.nan
        err = exc.error_estimate if exc.error_estimate is not None else math.inf
        return value, err


def _bracket(bra, ket, f, quad, failures, label):
    """Integrate f(grid, x, y), the integrand of <bra|...|ket>, on nodes
    centred between the two orbitals at the bra's Gaussian width.  `grid`
    names the node set (x, y) belongs to, so f can read values kept for it."""
    center = (0.5 * (bra.center_x + ket.center_x), 0.0)
    scale = 1.0 / math.sqrt(bra.compression)

    def integrand(x, y):
        return f((quad, center, scale, np.shape(x)), x, y)

    return _integrate(integrate_2d, integrand, quad, failures, label, center=center, scale=scale)


def orbital_norm(spec: OrbitalSpec, quad: QuadratureSpec | None = None):
    """Quadrature of the orbital density (should be 1)."""
    return _bracket(
        spec, spec, lambda grid, x, y: np.abs(eval_orbital(spec, x, y)) ** 2,
        quad or _DEFAULT_SINGLE, None, "norm",
    )


def overlap_numeric(
    mat: MaterialParams,
    fields: FieldConfig,
    quad: QuadratureSpec | None = None,
    failures: list | None = None,
):
    """Overlap <phi_2|phi_1> by quadrature; returns (value, error)."""
    return _overlap(_Point(mat, fields), quad or _DEFAULT_SINGLE, failures)


def _overlap(pt: _Point, quad, failures):
    orb1, orb2 = pt.orb1, pt.orb2
    value, err = _bracket(
        orb2, orb1,
        lambda grid, x, y: np.conj(pt.phi(orb2, grid, x, y)) * pt.phi(orb1, grid, x, y),
        quad, failures, "overlap",
    )
    value = complex(value)
    return value.real, err + abs(value.imag)


def _h_element(pt: _Point, bra, j, ket, quad, failures=None, label="h-element"):
    """<bra | H_j | ket> as a (complex value, error) pair."""
    s_well = pt.frame.well_center(j)

    def f(grid, x, y):
        h_ket = (pt.prefix(ket, grid, x, y) + _well(s_well, x, y)) * pt.phi(ket, grid, x, y)
        return np.conj(pt.phi(bra, grid, x, y)) * h_ket

    return _bracket(bra, ket, f, quad, failures, label)


def _w_element(pt: _Point, bra, ket, quad, failures=None, label="w-element"):
    """<bra | W_1 + W_2 | ket> with the double-well quartic correction.

    W_s(x) = 1/2 [ (x^2 - d^2)^2 / (4 d^2) - (x - s d)^2 ] completes the
    harmonic well s to the smooth quartic double well, so the sum over
    both wells is what every two-particle bracket sees.
    """
    d = pt.frame.d

    def w_sum(x):
        q = x * x - d * d
        w1 = 0.5 * (q * q / (4.0 * d * d) - (x + d) ** 2)
        w2 = 0.5 * (q * q / (4.0 * d * d) - (x - d) ** 2)
        return w1 + w2

    return _bracket(
        bra, ket,
        lambda grid, x, y: np.conj(pt.phi(bra, grid, x, y)) * w_sum(x) * pt.phi(ket, grid, x, y),
        quad, failures, label,
    )


def _sum_elements(parts):
    total = 0.0 + 0.0j
    err = 0.0
    for value, e in parts:
        total += complex(value)
        err += e
    return TermEstimate(total.real, err + abs(total.imag))


def upsilon_single(
    mat: MaterialParams,
    fields: FieldConfig,
    quad: QuadratureSpec | None = None,
    s_num: float | None = None,
    failures: list | None = None,
):
    """Single-particle direct and exchange sums (u1, u2).

    u1 collects the four diagonal elements <orb|H_j|orb> (the spectator
    norms are 1); u2 the cross elements, each weighted by the spectator
    overlap S.
    """
    return _single(_Point(mat, fields), quad or _DEFAULT_SINGLE, s_num, failures)


def _single(pt: _Point, quad, s_num, failures):
    a, b = pt.orb1, pt.orb2
    if s_num is None:
        s_num, _ = _overlap(pt, quad, failures)
    u1 = _sum_elements(
        [
            _h_element(pt, a, 1, a, quad, failures, "u1 <A|H1|A>"),
            _h_element(pt, b, 2, b, quad, failures, "u1 <B|H2|B>"),
            _h_element(pt, b, 1, b, quad, failures, "u1 <B|H1|B>"),
            _h_element(pt, a, 2, a, quad, failures, "u1 <A|H2|A>"),
        ]
    )
    cross = _sum_elements(
        [
            _h_element(pt, a, 1, b, quad, failures, "u2 <A|H1|B>"),
            _h_element(pt, b, 2, a, quad, failures, "u2 <B|H2|A>"),
            _h_element(pt, b, 1, a, quad, failures, "u2 <B|H1|A>"),
            _h_element(pt, a, 2, b, quad, failures, "u2 <A|H2|B>"),
        ]
    )
    u2 = TermEstimate(s_num * cross.value, abs(s_num) * cross.error)
    return u1, u2


def upsilon_coulomb(
    mat: MaterialParams,
    fields: FieldConfig,
    quad: QuadratureSpec | None = None,
    failures: list | None = None,
):
    """Coulomb direct and exchange sums (u3, u4).

    Both are 4D integrals over two electron coordinates; the Gaussian
    center-of-mass factor integrates out in closed form and the remaining
    relative-coordinate integral runs in polar coordinates.  For two
    width-b Gaussian densities the relative coordinate is Gaussian with
    exponent b/2 centered at the center separation; the exchange version
    picks up the phase mismatch exp(i kappa y) and the static attenuation
    exp(-b Delta^2 / 2).
    """
    return _coulomb(_Point(mat, fields), quad or _DEFAULT_COULOMB, failures)


def _coulomb(pt: _Point, quad, failures):
    fr = pt.frame
    a, b_orb = pt.orb1, pt.orb2
    beta = fr.b
    delta = a.center_x - b_orb.center_x  # -2d
    kappa = b_orb.phase_slope - a.phase_slope
    v0 = fr.c * math.sqrt(2.0 / math.pi)  # dimensionless Coulomb prefactor
    norm = beta / (2.0 * math.pi)
    width = math.sqrt(2.0 / beta)

    def g_direct(r, theta):
        x = r * np.cos(theta) - delta
        y = r * np.sin(theta)
        return norm * v0 * np.exp(-0.5 * beta * (x * x + y * y)) / r

    attenuation = math.exp(-0.5 * beta * delta * delta)

    def g_exchange(r, theta):
        y = r * np.sin(theta)
        gauss = attenuation * np.exp(-0.5 * beta * r * r)
        return norm * v0 * gauss * np.exp(1j * kappa * y) / r

    direct, err3 = _integrate(
        integrate_coulomb_relative, g_direct, quad, failures, "u3 direct coulomb",
        scale=width, r_peak=abs(delta),
    )
    exchange, err4 = _integrate(
        integrate_coulomb_relative, g_exchange, quad, failures, "u4 exchange coulomb",
        scale=width, r_peak=0.0,
    )
    direct = complex(direct)
    exchange = complex(exchange)
    u3 = TermEstimate(2.0 * direct.real, 2.0 * (err3 + abs(direct.imag)))
    u4 = TermEstimate(2.0 * exchange.real, 2.0 * (err4 + abs(exchange.imag)))
    return u3, u4


def upsilon_quartic(
    mat: MaterialParams,
    fields: FieldConfig,
    quad: QuadratureSpec | None = None,
    s_num: float | None = None,
    failures: list | None = None,
):
    """Quartic tunnelling-correction sum u5.

    Diagonal brackets enter directly; the translated cross brackets carry
    one spectator overlap S and the overall 1/S^2 of the exchange
    channel, leaving a net -1/S weight.
    """
    return _quartic(_Point(mat, fields), quad or _DEFAULT_SINGLE, s_num, failures)


def _quartic(pt: _Point, quad, s_num, failures):
    a, b = pt.orb1, pt.orb2
    if s_num is None:
        s_num, _ = _overlap(pt, quad, failures)
    diag = _sum_elements(
        [
            _w_element(pt, a, a, quad, failures, "u5 <A|W|A>"),
            _w_element(pt, b, b, quad, failures, "u5 <B|W|B>"),
        ]
    )
    cross = _sum_elements(
        [
            _w_element(pt, b, a, quad, failures, "u5 <B|W|A>"),
            _w_element(pt, a, b, quad, failures, "u5 <A|W|B>"),
        ]
    )
    value = diag.value - cross.value / s_num
    error = diag.error + cross.error / abs(s_num)
    return TermEstimate(value, error)


def assemble_oracle(
    mat: MaterialParams,
    fields: FieldConfig,
    quad_single: QuadratureSpec | None = None,
    quad_coulomb: QuadratureSpec | None = None,
) -> HLBreakdown:
    """Full quadrature evaluation of the exchange energy.

    J = S^2/(1 - S^4) [u1 - u2/S^2 + u3 - u4/S^2 + u5], all in units of
    the confinement quantum, with S taken from quadrature as well.  Any
    failed sub-integral keeps its best estimate and flags the report.
    """
    quad_single = quad_single or _DEFAULT_SINGLE
    quad_coulomb = quad_coulomb or _DEFAULT_COULOMB
    pt = _Point(mat, fields)
    fr = pt.frame

    failures: list = []
    s_num, _ = _overlap(pt, quad_single, failures)
    u1, u2 = _single(pt, quad_single, s_num, failures)
    u3, u4 = _coulomb(pt, quad_coulomb, failures)
    u5 = _quartic(pt, quad_single, s_num, failures)

    s2 = s_num * s_num
    weight = s2 / (1.0 - s2 * s2)
    j_oracle = weight * (u1.value - u2.value / s2 + u3.value - u4.value / s2 + u5.value)
    j_error = abs(weight) * (
        u1.error + u2.error / s2 + u3.error + u4.error / s2 + u5.error
    )

    j_closed = exchange_energy(fr.b, fr.d, fr.c, fr.chi).j_dimensionless
    denom = max(abs(j_oracle), abs(j_closed), NOISE_FLOOR)
    rel = abs(j_oracle - j_closed) / denom

    return HLBreakdown(
        s_num=s_num,
        upsilon={"u1": u1, "u2": u2, "u3": u3, "u4": u4, "u5": u5},
        j_oracle=j_oracle,
        j_error=j_error,
        j_closed_form=j_closed,
        rel_discrepancy=rel,
        incomplete=bool(failures),
        failures=tuple(failures),
    )
