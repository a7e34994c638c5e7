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
each sum as a row sum; each bracket refines on its own.  The sum of |f|
that floors the error is bounded by 1-D sums too, through |P + Q| <=
|P + q0| + |q2| y^2 + |q1| |y| for Q = (q2 y + q1) y + q0: exactly the
tensor sum where Q = 0, and within a few eps of its n^2 pass for kets that
are eigenstates of their own well (k = -lambda c_x, exactly so in floating
point for the orbitals built here), as q1 = 0 and c2 = 0 up to rounding
(b^2 = 1 + lambda^2).  Any other ket gets a complex Q, still bounded.
Whatever imaginary part a bracket sum keeps, the element lists fold into
the error as |imag|; summed in a fixed order, a report repeats bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import exchange_energy
from .errors import QuadratureError, SingularConfigurationError
from .special import (
    _DOMAIN_CUT, QuadratureSpec, _hermite_nodes, _legendre_nodes, _polar_radii, _refine_many,
)
from .units import FieldConfig, MaterialParams, derive_parameters

#: Relative-discrepancy denominators never drop below this (in units of
#: the confinement quantum), so comparisons near sign changes stay sane.
NOISE_FLOOR = 1e-6

_WELL_SIGN = {1: -1.0, 2: +1.0}

_DEFAULT_SINGLE = QuadratureSpec(order=64, rel_tol=1e-10)
_DEFAULT_COULOMB = QuadratureSpec(order=64, rel_tol=1e-8)


class TermEstimate(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class _Orbital:
    """One translated ground-state orbital, in a_B / hbar*omega_0 units.

    center_x     orbital center on the x axis
    compression  Gaussian exponent parameter (equals b), units 1/a_B^2
    phase_slope  coefficient k of the linear phase exp(i k y), units 1/a_B

    The amplitude sqrt(b/pi) normalizes |phi|^2 to 1 exactly; the modulus
    does not depend on phase_slope.
    """

    center_x: float
    compression: float
    phase_slope: float


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


def _orbital(fr: _Frame, dot_index: int) -> _Orbital:
    center = fr.well_center(dot_index) - fr.fshift
    return _Orbital(center_x=center, compression=fr.b, phase_slope=-fr.lam * center)


class _Point:
    """Working set of one oracle point: the frame and both orbitals."""

    def __init__(self, mat: MaterialParams, fields: FieldConfig):
        self.frame = _frame(mat, fields)
        self.orb1 = _orbital(self.frame, 1)
        self.orb2 = _orbital(self.frame, 2)


def _settle(result, failures, label):
    """A quadrature result as (value, error); a QuadratureError is recorded
    in the `failures` list and its best estimate kept."""
    if not isinstance(result, QuadratureError):
        return result
    failures.append(f"{label}: {result}")
    value = result.value if result.value is not None else math.nan
    return value, result.error_estimate if result.error_estimate is not None else math.inf


class _Bracket(NamedTuple):
    """<bra| P(x) + Q(y) |ket> for (bra, ket) = pairs[pair], P = (a u + b) u + c
    for p = (a, b, c), u = x^2 if quartic else x, and Q likewise in y, or 0."""

    pair: int
    p: tuple
    quartic: bool = False
    q: tuple | None = None


def _quadratic(a, b, c, u):
    return (a * u + b) * u + c


def _stacked_sampler(pairs, brackets):
    """`_refine_many`'s sample(n, with_l1, open_) for the stacked `brackets`."""
    pair = np.array([br.pair for br in brackets])
    u_row = pair + len(pairs) * np.array([br.quartic for br in brackets])
    p_coef = np.array([br.p for br in brackets])
    q_coef = np.array([br.q or (0.0, 0.0, 0.0) for br in brackets])
    bra_x, ket_x = (np.array([[orb.center_x] for orb in side]) for side in zip(*pairs))
    center = 0.5 * (bra_x + ket_x)  # nodes centred between the two orbitals
    i_kappa = np.array([[1j * (ket.phase_slope - bra.phase_slope)] for bra, ket in pairs])
    beta = pairs[0][0].compression  # the orbitals of a point share their width
    scale = 1.0 / math.sqrt(beta)

    def sample(n, with_l1, open_):
        t, w = _hermite_nodes(n)
        st = scale * t
        x, y = center + st, 0.0 + st
        dx_bra, dx_ket = x - bra_x, x - ket_x  # X and Y of the module docstring, times w
        wx = w * (beta / math.pi * np.exp(-0.5 * beta * (dx_bra * dx_bra + dx_ket * dx_ket)))
        wy, rows = w * np.exp(i_kappa * y - beta * y * y), pair[open_]
        p = _quadratic(*p_coef[open_].T[..., None], np.concatenate((x, x * x))[u_row[open_]])
        q2, q1, q0 = q_coef[open_].T[..., None]
        wx_p, wy_q = wx[rows] * p, wy[rows] * _quadratic(q2, q1, q0, y)
        sums = zip(wx_p.sum(1), wy.sum(1)[rows], wx.sum(1)[rows], wy_q.sum(1))
        values = [complex(a * b + c * d) * scale * scale for a, b, c, d in sums]
        if not with_l1:
            return [(value, None) for value in values]
        # |P + Q| <= |P + q0| + |q2| y^2 + |q1| |y| (module docstring)
        abs_wy = np.abs(wy)[rows]
        l1s = np.abs(wx[rows] * (p + q0)).sum(1) * abs_wy.sum(1) + np.abs(wx)[rows].sum(1) * (
            abs_wy * (np.abs(q2) * (y * y) + np.abs(q1) * np.abs(y))
        ).sum(1)
        return [(value, float(l1) * scale * scale) for value, l1 in zip(values, l1s)]

    return sample


# The single-particle brackets, in the order their failures are reported
_U1 = ("u1 <A|H1|A>", "u1 <B|H2|B>", "u1 <B|H1|B>", "u1 <A|H2|A>")
_U2 = ("u2 <A|H1|B>", "u2 <B|H2|A>", "u2 <B|H1|A>", "u2 <A|H2|B>")
_U5 = ("u5 <A|W|A>", "u5 <B|W|B>", "u5 <B|W|A>", "u5 <A|W|B>")


# The brackets' (bra, ket) pairs as dot indices, and each label's pair number and
# operator: "overlap" is <B|1|A>; in "uN <bra|op|ket>" A is dot 1's orbital, B dot 2's
_PAIRS = ((2, 1), (1, 1), (2, 2), (1, 2))
_PLAN = {
    label: (_PAIRS.index(("AB".index(bra) + 1, "AB".index(ket) + 1)), op)
    for label in ("overlap",) + _U1 + _U2 + _U5
    for bra, op, ket in [label[4:-1].split("|") if label != "overlap" else ("B", "1", "A")]
}


def _bracket(fr: _Frame, pair, op, ket: _Orbital):
    """The bracket of `op` on `ket` for the orbital pair number `pair`: "1",
    H_j as "Hj" (P + Q of the module docstring), or "W" for W = W_1 + W_2.
    W_s(x) = 1/2 [ (x^2 - d^2)^2 / (4 d^2) - (x - s d)^2 ] completes the
    harmonic well s to the smooth quartic double well, so the sum over both
    wells is what every two-particle bracket sees."""
    d2 = fr.d * fr.d
    if op == "1":
        return _Bracket(pair, (0.0, 0.0, 1.0))
    if op == "W":  # W_1 + W_2 = x^4 / (4 d^2) - 3 x^2 / 2 - 3 d^2 / 4
        return _Bracket(pair, (0.25 / d2, -1.5, -0.75 * d2), quartic=True)
    beta, k, cx, lam = ket.compression, ket.phase_slope, ket.center_x, fr.lam
    s_well = fr.well_center(int(op[1]))
    c2 = 0.5 * (1.0 + lam * lam - beta * beta)  # shared by P and Q
    p1 = beta * beta * cx + lam * k + fr.fshift - s_well
    p0 = beta - 0.5 * beta * beta * cx * cx + 0.5 * s_well * s_well
    q1 = 1j * beta * (k + lam * cx) or 0.0  # a real zero keeps Q real
    return _Bracket(pair, (c2, p1, p0), q=(c2, q1, 0.5 * k * k))


def _brackets(pt: _Point, quad, labels):
    """{label: (value, error) or QuadratureError} of the point's `labels`, integrated together."""
    orbs = (None, pt.orb1, pt.orb2)
    pairs = [(orbs[bra], orbs[ket]) for bra, ket in _PAIRS]
    plan = [_PLAN[label] for label in labels]
    brackets = [_bracket(pt.frame, pair, op, pairs[pair][1]) for pair, op in plan]
    sample = _stacked_sampler(pairs, brackets)
    results = _refine_many(sample, len(brackets), _hermite_nodes, quad, "integrate_2d")
    return dict(zip(labels, results))


def _weight_overlap(pt: _Point, res, failures):
    """S = <phi_2|phi_1> by quadrature, for the 1/S^2 and S^2/(1 - S^4) weights,
    which an S whose square underflows, or whose S^4 rounds to 1, leaves undefined."""
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


def _coulomb(pt: _Point, quad, failures):
    """Coulomb direct and exchange sums (u3, u4).

    Both are 4D integrals over two electron coordinates; the Gaussian
    center-of-mass factor integrates out in closed form and the remaining
    relative-coordinate integral runs in polar coordinates.  For two
    width-b Gaussian densities the relative coordinate is Gaussian with
    exponent b/2 centered at the center separation; the exchange version
    picks up the phase mismatch exp(i kappa y) and the static attenuation
    exp(-b Delta^2 / 2).

    The exchange kernel is integrated as its real part cos(kappa y), with
    y = r sin(theta): its imaginary part is odd in theta, so on the periodic
    trapezoid nodes theta_k = 2 pi k / n it sums to 0 up to roundoff.  Both
    kernels are even in theta, so the sum runs over k = 0..n/2 only, each
    node counted twice but theta = 0 and, for even n, theta = pi.  The two
    integrals refine in lockstep, each on its own radial domain.
    """
    beta = pt.frame.b
    delta = pt.orb1.center_x - pt.orb2.center_x  # -2d
    kappa = pt.orb2.phase_slope - pt.orb1.phase_slope
    amplitude = beta / (2.0 * math.pi) * (pt.frame.c * math.sqrt(2.0 / math.pi))  # density norm, v0
    attenuation = math.exp(-0.5 * beta * delta * delta)

    def g_direct(r, cos, sin):
        x = r * cos - delta
        y = r * sin
        return amplitude * np.exp(-0.5 * beta * (x * x + y * y)) / r

    def g_exchange(r, cos, sin):
        radial = amplitude * attenuation * np.exp(-0.5 * beta * r * r) / r
        return radial * np.cos((kappa * r) * sin)

    r_cut = _DOMAIN_CUT * math.sqrt(2.0 / beta)
    kernels = ((g_direct, abs(delta) + r_cut), (g_exchange, r_cut))

    def sample(n, with_l1, open_):
        k = np.arange(n // 2 + 1)
        theta = 2.0 * math.pi * k / n
        w_theta = np.where((k == 0) | (2 * k == n), 2.0, 4.0) * math.pi / n
        cos, sin = np.cos(theta), np.sin(theta)
        out = []
        for g, r_max in (kernels[i] for i in open_):
            r, wr_r = _polar_radii(n, r_max)
            vals = g(r[:, None], cos, sin)
            l1 = float(wr_r @ np.abs(vals) @ w_theta) if with_l1 else None
            out.append((float(wr_r @ vals @ w_theta), l1))
        return out

    direct, exchange = _refine_many(sample, 2, _legendre_nodes, quad, "polar Coulomb rule")
    direct, err3 = _settle(direct, failures, "u3 direct coulomb")
    exchange, err4 = _settle(exchange, failures, "u4 exchange coulomb")
    return TermEstimate(2.0 * direct, 2.0 * err3), TermEstimate(2.0 * exchange, 2.0 * err4)


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
    # u1 sums the diagonal elements <orb|H_j|orb> (the spectator norms are 1),
    # u2 the cross elements, each weighted by the spectator overlap S
    u1, cross = _sum_elements(res, _U1, failures), _sum_elements(res, _U2, failures)
    u2 = TermEstimate(s_num * cross.value, abs(s_num) * cross.error)
    u3, u4 = _coulomb(pt, quad_coulomb, failures)
    # u5: the diagonal quartic brackets enter directly; the cross ones carry one
    # spectator S and the exchange channel's overall 1/S^2, a net -1/S weight
    diag, cross = _sum_elements(res, _U5[:2], failures), _sum_elements(res, _U5[2:], failures)
    u5 = TermEstimate(diag.value - cross.value / s_num, diag.error + cross.error / abs(s_num))

    s2 = s_num * s_num
    weight = s2 / (1.0 - s2 * s2)
    j_oracle = weight * (u1.value - u2.value / s2 + u3.value - u4.value / s2 + u5.value)
    j_error = abs(weight) * (u1.error + u2.error / s2 + u3.error + u4.error / s2 + u5.error)

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
