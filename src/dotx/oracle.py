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

The tensor Gauss-Hermite sum of a bracket is then exactly
(sum w X P)(sum w Y) + (sum w X)(sum w Y Q) on the same nodes.  A point's
brackets share one stacked pass per refinement level, which builds X and
Y once per (bra, ket) pair and P and Q once per open bracket and takes
each sum as a row sum; each bracket refines on its own.  Q's linear
coefficient comes from the ket's own k and c_x: it vanishes where the
ket is an eigenstate of its own well (k = -lambda c_x, exactly so in
floating point for the orbitals built here), which keeps Q and the n^2
pass over |P + Q| real; any other ket gets a complex Q.  Whatever
imaginary part a bracket sum keeps, the element lists fold into the error
as |imag|; summed in a fixed order, a report repeats bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .closed_form import exchange_energy
from .errors import QuadratureError, SingularConfigurationError
from .special import (
    QuadratureSpec, _hermite_nodes, _refine_many, integrate_2d, integrate_coulomb_relative,
)
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


def _attempt(integrator, f, quad, **hints):
    """A quadrature's (value, error), or the QuadratureError it failed with."""
    try:
        return integrator(f, quad, **hints)
    except QuadratureError as exc:
        return exc


def _settle(result, failures, label):
    """A quadrature result as (value, error).  A QuadratureError is raised,
    or with a `failures` list recorded there and its best estimate kept."""
    if not isinstance(result, QuadratureError):
        return result
    if failures is None:
        raise result
    failures.append(f"{label}: {result}")
    value = result.value if result.value is not None else math.nan
    return value, result.error_estimate if result.error_estimate is not None else math.inf


class _Bracket(NamedTuple):
    """<bra| P(x) + Q(y) |ket> with P = (a u + b) u + c for p = (a, b, c),
    u = x^2 if quartic else x, and Q = (a y + b) y + c for q, or Q = 0."""

    bra: OrbitalSpec
    ket: OrbitalSpec
    p: tuple
    quartic: bool = False
    q: tuple | None = None


def _quadratic(a, b, c, u):
    return (a * u + b) * u + c


def _stacked_sampler(brackets):
    """`_refine_many`'s sample(n, with_l1, open_) for the stacked sums of `brackets`."""
    pairs = list(dict.fromkeys((br.bra, br.ket) for br in brackets))
    pair = np.array([pairs.index((br.bra, br.ket)) for br in brackets])
    u_row = pair + len(pairs) * np.array([br.quartic for br in brackets])
    p_coef = np.array([br.p for br in brackets])
    q_coef = np.array([br.q or (0.0, 0.0, 0.0) for br in brackets])
    bra_x, ket_x = (np.array([[orb.center_x] for orb in side]) for side in zip(*pairs))
    center = 0.5 * (bra_x + ket_x)  # nodes centred between the two orbitals
    i_kappa = np.array([[1j * (ket.phase_slope - bra.phase_slope)] for bra, ket in pairs])
    beta = brackets[0].bra.compression  # the orbitals of a point share their width
    scale = 1.0 / math.sqrt(beta)

    def sample(n, with_l1, open_):
        t, w = _hermite_nodes(n)
        st = scale * t
        x, y = center + st, 0.0 + st
        dx_bra, dx_ket = x - bra_x, x - ket_x  # X and Y of the module docstring, times w
        wx = w * (beta / math.pi * np.exp(-0.5 * beta * (dx_bra * dx_bra + dx_ket * dx_ket)))
        wy, rows = w * np.exp(i_kappa * y - beta * y * y), pair[open_]
        p = _quadratic(*p_coef[open_].T[..., None], np.concatenate((x, x * x))[u_row[open_]])
        q = _quadratic(*q_coef[open_].T[..., None], y)
        wx_p = wx[rows] * p
        sums = zip(wx_p.sum(1), wy.sum(1)[rows], wx.sum(1)[rows], (wy[rows] * q).sum(1))
        values = [complex(a * b + c * d) * scale * scale for a, b, c, d in sums]
        if not with_l1:
            return [(value, None) for value in values]
        abs_wx, abs_wy = np.abs(wx), np.abs(wy)
        l1s = np.abs(wx_p).sum(1) * abs_wy.sum(1)[rows]  # |f| factors where Q = 0
        for j, i in enumerate(open_):
            if brackets[i].q is not None:  # a real Q keeps |P_i + Q_j| in real arithmetic
                l1s[j] = abs_wx[rows[j]] @ np.abs(np.add.outer(p[j], q[j])) @ abs_wy[rows[j]]
        return [(value, float(l1) * scale * scale) for value, l1 in zip(values, l1s)]

    return sample


def _integrate_brackets(brackets, quad):
    """(value, error) or QuadratureError per bracket; polar takes each product alone."""
    if quad.rule == "tensor_gauss_hermite":
        sample = _stacked_sampler(brackets)
        return _refine_many(sample, len(brackets), _hermite_nodes, quad, "integrate_2d")
    results, beta = [], brackets[0].bra.compression
    for br in brackets:
        def f(x, y, br=br):  # conj(phi_bra) (P(x) + Q(y)) phi_ket
            p = _quadratic(*br.p, x * x if br.quartic else x) + _quadratic(*(br.q or (0, 0, 0)), y)
            return np.conj(eval_orbital(br.bra, x, y)) * p * eval_orbital(br.ket, x, y)
        center = (0.5 * (br.bra.center_x + br.ket.center_x), 0.0)
        results.append(_attempt(integrate_2d, f, quad, center=center, scale=1.0 / math.sqrt(beta)))
    return results


def orbital_norm(spec: OrbitalSpec, quad: QuadratureSpec | None = None):
    """Quadrature of the orbital density (should be 1)."""
    (result,) = _integrate_brackets([_Bracket(spec, spec, (0.0, 0.0, 1.0))], quad or _DEFAULT_SINGLE)
    return _settle(result, None, "norm")


# The single-particle brackets, in the order their failures are reported
_U1 = ("u1 <A|H1|A>", "u1 <B|H2|B>", "u1 <B|H1|B>", "u1 <A|H2|A>")
_U2 = ("u2 <A|H1|B>", "u2 <B|H2|A>", "u2 <B|H1|A>", "u2 <A|H2|B>")
_U5 = ("u5 <A|W|A>", "u5 <B|W|B>", "u5 <B|W|A>", "u5 <A|W|B>")


def _bracket(pt: _Point, label):
    """The bracket `label` names: "overlap" is <B|A>, and "uN <bra|op|ket>"
    applies H_j (P + Q of the module docstring) or W = W_1 + W_2 to the ket,
    for A dot 1's orbital and B dot 2's.  W_s(x) = 1/2 [ (x^2 - d^2)^2 / (4 d^2)
    - (x - s d)^2 ] completes the harmonic well s to the smooth quartic double
    well, so the sum over both wells is what every two-particle bracket sees."""
    bra, op, ket = label[4:-1].split("|") if label != "overlap" else ("B", "1", "A")
    bra, ket = (pt.orb1 if side == "A" else pt.orb2 for side in (bra, ket))
    fr, d2 = pt.frame, pt.frame.d * pt.frame.d
    if op == "1":
        return _Bracket(bra, ket, (0.0, 0.0, 1.0))
    if op == "W":  # W_1 + W_2 = x^4 / (4 d^2) - 3 x^2 / 2 - 3 d^2 / 4
        return _Bracket(bra, ket, (0.25 / d2, -1.5, -0.75 * d2), quartic=True)
    beta, k, cx, lam = ket.compression, ket.phase_slope, ket.center_x, fr.lam
    s_well = fr.well_center(int(op[1]))
    c2 = 0.5 * (1.0 + lam * lam - beta * beta)  # shared by P and Q
    p1 = beta * beta * cx + lam * k + fr.fshift - s_well
    p0 = beta - 0.5 * beta * beta * cx * cx + 0.5 * s_well * s_well
    q1 = 1j * beta * (k + lam * cx) or 0.0  # a real zero keeps Q real
    return _Bracket(bra, ket, (c2, p1, p0), q=(c2, q1, 0.5 * k * k))


def _brackets(pt: _Point, quad, labels):
    """{label: (value, error) or QuadratureError} for the point's brackets
    named in `labels`, integrated together."""
    return dict(zip(labels, _integrate_brackets([_bracket(pt, label) for label in labels], quad)))


def overlap_numeric(
    mat: MaterialParams,
    fields: FieldConfig,
    quad: QuadratureSpec | None = None,
    failures: list | None = None,
):
    """Overlap <phi_2|phi_1> by quadrature; returns (value, error)."""
    res = _brackets(_Point(mat, fields), quad or _DEFAULT_SINGLE, ["overlap"])
    return _sum_elements(res, ["overlap"], failures)


def _weight_overlap(pt: _Point, res, failures):
    """S for the 1/S^2 and S^2/(1 - S^4) weights, which an S whose square
    underflows, or whose fourth power rounds to 1, leaves undefined."""
    s_num, _ = _sum_elements(res, ["overlap"], failures)
    s2 = s_num * s_num
    b_d2 = pt.frame.b * pt.frame.d * pt.frame.d
    if s2 == 0.0:
        raise SingularConfigurationError(f"overlap S = {s_num!r} squares to 0 at b*d^2 = {b_d2!r}")
    if 1.0 - s2 * s2 == 0.0:
        raise SingularConfigurationError(
            f"overlap S = {s_num!r} leaves 1 - S^4 = 0 at b*d^2 = {b_d2!r}: the two dots coincide"
        )
    return s_num


def _sum_elements(res, labels, failures):
    total, err = 0.0 + 0.0j, 0.0
    for label in labels:
        value, e = _settle(res[label], failures, label)
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
    labels = _U1 + _U2 if s_num is not None else ("overlap",) + _U1 + _U2
    return _single(_brackets(_Point(mat, fields), quad or _DEFAULT_SINGLE, labels), s_num, failures)


def _single(res, s_num, failures):
    if s_num is None:
        s_num, _ = _sum_elements(res, ["overlap"], failures)
    u1 = _sum_elements(res, _U1, failures)
    cross = _sum_elements(res, _U2, failures)
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

    direct, err3 = _settle(
        _attempt(integrate_coulomb_relative, g_direct, quad, scale=width, r_peak=abs(delta)),
        failures, "u3 direct coulomb",
    )
    exchange, err4 = _settle(
        _attempt(integrate_coulomb_relative, g_exchange, quad, scale=width, r_peak=0.0),
        failures, "u4 exchange coulomb",
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
    pt = _Point(mat, fields)
    labels = _U5 if s_num is not None else ("overlap",) + _U5
    return _quartic(pt, _brackets(pt, quad or _DEFAULT_SINGLE, labels), s_num, failures)


def _quartic(pt: _Point, res, s_num, failures):
    if s_num is None:
        s_num = _weight_overlap(pt, res, failures)
    diag = _sum_elements(res, _U5[:2], failures)
    cross = _sum_elements(res, _U5[2:], failures)
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

    res = _brackets(pt, quad_single, ("overlap",) + _U1 + _U2 + _U5)
    failures: list = []
    s_num = _weight_overlap(pt, res, failures)
    u1, u2 = _single(res, s_num, failures)
    u3, u4 = _coulomb(pt, quad_coulomb, failures)
    u5 = _quartic(pt, res, s_num, failures)

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
