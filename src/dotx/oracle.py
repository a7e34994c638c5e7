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

Every single-particle integrand factors as X(x) Y(y) (P(x) + Q(y)):
X = conj(phi_bra,x) phi_ket,x is a real Gaussian carrying the b/pi
amplitude, Y = conj(phi_bra,y) phi_ket,y is complex and carries both
phase slopes, and the operator acts on the ket as P + Q.  For H_j, with
the ket's g = grad(phi)/phi, x g_y - y g_x = i k x - b c_x y splits the
angular term (f is the field shift, s_j the well centre):

    P(x) = b - g_x^2/2 + lambda k x + lambda^2 x^2/2 + f x + (x - s_j)^2/2
         = c2 x^2 + (b^2 c_x + lambda k + f - s_j) x + b - b^2 c_x^2/2 + s_j^2/2
    Q(y) = -g_y^2/2 + i lambda b c_x y + lambda^2 y^2/2 + y^2/2
         = c2 y^2 + i b (k + lambda c_x) y + k^2/2

with c2 = (1 + lambda^2 - b^2)/2; the brackets evaluate these quadratics
from their coefficients.  For W, Q = 0 and

    P(x) = W_1 + W_2 = x^4/(4 d^2) - 3 x^2/2 - 3 d^2/4.

The tensor Gauss-Hermite sum is then exactly
(sum w X P)(sum w Y) + (sum w X)(sum w Y Q) on the same nodes,
refinement and error estimate.  Q's linear coefficient is taken from
the ket's own k and c_x, not assumed: it vanishes where the ket is an
eigenstate of its own well (k = -lambda c_x, exactly so in floating
point for the orbitals built here), which keeps Q and the n^2 pass over
|P + Q| real, and any other ket gets a complex Q.  Whatever imaginary
part a bracket sum keeps, the element lists fold into the error as
|imag|.  Element lists are summed in a fixed order, so a report repeats
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .closed_form import exchange_energy
from .errors import QuadratureError, SingularConfigurationError
from .special import QuadratureSpec, _integrate_separable, integrate_coulomb_relative
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
    beta, lam = spec.compression, fr.lam

    def field(x, y):
        gx = -beta * (x - spec.center_x)
        gy = 1j * spec.phase_slope - beta * y
        kinetic = beta - 0.5 * (gx * gx + gy * gy)
        angular = -1j * lam * (x * gy - y * gx)
        diamagnetic = 0.5 * lam * lam * (x * x + y * y)
        dxw = x - s_well
        well = 0.5 * (dxw * dxw + y * y)
        return (kinetic + angular + diamagnetic + fr.fshift * x + well) * eval_orbital(spec, x, y)

    return field


class _Point:
    """Working set of one oracle point: the frame and both orbitals."""

    def __init__(self, mat: MaterialParams, fields: FieldConfig):
        self.frame = _frame(mat, fields)
        self.orb1 = _orbital(self.frame, 1)
        self.orb2 = _orbital(self.frame, 2)


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


def _bracket(bra, ket, poly, quad, failures, label):
    """<bra| P(x) + Q(y) |ket> with (P, Q) = poly(x, y), on nodes centred
    between the two orbitals at the bra's Gaussian width."""
    center = (0.5 * (bra.center_x + ket.center_x), 0.0)
    beta = bra.compression  # the two orbitals of a point share their width
    scale = 1.0 / math.sqrt(beta)
    kappa = ket.phase_slope - bra.phase_slope

    def factors(x, y):
        # X = conj(phi_bra,x) phi_ket,x and Y = conj(phi_bra,y) phi_ket,y
        dx_bra, dx_ket = x - bra.center_x, x - ket.center_x
        x_factor = beta / math.pi * np.exp(-0.5 * beta * (dx_bra * dx_bra + dx_ket * dx_ket))
        y_factor = np.exp(1j * kappa * y - beta * y * y)
        p, q = poly(x, y)
        return x_factor, p, y_factor, q

    return _integrate(
        _integrate_separable, factors, quad, failures, label, center=center, scale=scale
    )


def orbital_norm(spec: OrbitalSpec, quad: QuadratureSpec | None = None):
    """Quadrature of the orbital density (should be 1)."""
    return _bracket(spec, spec, lambda x, y: (1.0, 0.0), quad or _DEFAULT_SINGLE, None, "norm")


def overlap_numeric(
    mat: MaterialParams,
    fields: FieldConfig,
    quad: QuadratureSpec | None = None,
    failures: list | None = None,
):
    """Overlap <phi_2|phi_1> by quadrature; returns (value, error)."""
    return _overlap(_Point(mat, fields), quad or _DEFAULT_SINGLE, failures)


def _overlap(pt: _Point, quad, failures):
    value, err = _bracket(pt.orb2, pt.orb1, lambda x, y: (1.0, 0.0), quad, failures, "overlap")
    value = complex(value)
    return value.real, err + abs(value.imag)


def _weight_overlap(pt: _Point, quad, failures):
    """S for the 1/S^2 and S^2/(1 - S^4) weights, which an S whose square
    underflows, or whose fourth power rounds to 1, leaves undefined."""
    s_num, _ = _overlap(pt, quad, failures)
    s2 = s_num * s_num
    b_d2 = pt.frame.b * pt.frame.d * pt.frame.d
    if s2 == 0.0:
        raise SingularConfigurationError(f"overlap S = {s_num!r} squares to 0 at b*d^2 = {b_d2!r}")
    if 1.0 - s2 * s2 == 0.0:
        raise SingularConfigurationError(
            f"overlap S = {s_num!r} leaves 1 - S^4 = 0 at b*d^2 = {b_d2!r}: the two dots coincide"
        )
    return s_num


def _h_element(pt: _Point, bra, j, ket, quad, failures=None, label="h-element"):
    """<bra | H_j | ket> as a (complex value, error) pair; H_j acts on the
    ket as P(x) + Q(y) of the module docstring."""
    fr = pt.frame
    beta, k, cx, lam = ket.compression, ket.phase_slope, ket.center_x, fr.lam
    s_well = fr.well_center(j)
    c2 = 0.5 * (1.0 + lam * lam - beta * beta)  # shared by P and Q
    p1 = beta * beta * cx + lam * k + fr.fshift - s_well
    p0 = beta - 0.5 * beta * beta * cx * cx + 0.5 * s_well * s_well
    q1 = 1j * beta * (k + lam * cx) or 0.0  # a real zero keeps Q real
    q0 = 0.5 * k * k

    def poly(x, y):
        return (c2 * x + p1) * x + p0, (c2 * y + q1) * y + q0

    return _bracket(bra, ket, poly, quad, failures, label)


def _w_element(pt: _Point, bra, ket, quad, failures=None, label="w-element"):
    """<bra | W_1 + W_2 | ket> with the double-well quartic correction.

    W_s(x) = 1/2 [ (x^2 - d^2)^2 / (4 d^2) - (x - s d)^2 ] completes the
    harmonic well s to the smooth quartic double well, so the sum over
    both wells is what every two-particle bracket sees.
    """
    d2 = pt.frame.d * pt.frame.d
    c4 = 0.25 / d2  # W_1 + W_2 = x^4 / (4 d^2) - 3 x^2 / 2 - 3 d^2 / 4
    c0 = -0.75 * d2

    def w_sum(x):
        x2 = x * x
        return (c4 * x2 - 1.5) * x2 + c0

    return _bracket(bra, ket, lambda x, y: (w_sum(x), 0.0), quad, failures, label)


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

    The exchange kernel is integrated as its real part cos(kappa y), with
    y = r sin(theta).  Its imaginary part sin(kappa y) is odd under the
    fold theta -> 2 pi - theta, which maps the periodic trapezoid nodes
    onto themselves, so its sum is 0 up to roundoff; the radial factor is
    formed once per radius.
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
        # the real part of exp(i kappa y): the imaginary part is odd in theta
        radial = norm * v0 * attenuation * np.exp(-0.5 * beta * r * r) / r
        return radial * np.cos((kappa * r) * np.sin(theta))

    direct, err3 = _integrate(
        integrate_coulomb_relative, g_direct, quad, failures, "u3 direct coulomb",
        scale=width, r_peak=abs(delta),
    )
    exchange, err4 = _integrate(
        integrate_coulomb_relative, g_exchange, quad, failures, "u4 exchange coulomb",
        scale=width, r_peak=0.0,
    )
    # both kernels are real, so the integrals are too
    return TermEstimate(2.0 * direct, 2.0 * err3), TermEstimate(2.0 * exchange, 2.0 * err4)


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
        s_num = _weight_overlap(pt, quad, failures)
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
    s_num = _weight_overlap(pt, quad_single, failures)
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
