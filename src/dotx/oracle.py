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
         = c2 y^2 + k^2/2

with c2 = (1 + lambda^2 - b^2)/2, as k + lambda c_x = 0 for every ket (exactly
so in floating point: (-lambda) x_c is -(lambda x_c)); the brackets evaluate
these quadratics from their coefficients.  For W, Q = 0 and

    P(x) = W_1 + W_2 = x^4/(4 d^2) - 3 x^2/2 - 3 d^2/4.

The tensor Gauss-Hermite sum of a bracket is then exactly
(sum w X P)(sum w Y) + (sum w X)(sum w Y Q) on the same nodes.  A point's
brackets share one stacked pass per refinement round, over the nodes of
its two levels side by side: it builds X and Y once per (bra, ket) pair
and P and Q once per open bracket and takes each level's sums as row sums
over its own columns; each bracket refines on its own.  The sum of |f|
that floors the error is bounded by 1-D sums too, through |P + Q| <=
|P + q0| + |q2| y^2 for Q = q2 y^2 + q0: exactly the tensor sum where
Q = 0, and within a few eps of its n^2 pass for the H brackets, as c2 = 0
up to rounding (b^2 = 1 + lambda^2).  Whatever imaginary part a bracket
sum keeps, the element lists fold into the error as |imag|; summed in a
fixed order, a report repeats bit for bit.
"""

from __future__ import annotations

import functools
import math
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

#: The Coulomb pair runs at the single-particle order, to no tighter a rel_tol than this.
_COULOMB_REL_TOL = 1e-8


class TermEstimate(NamedTuple):
    value: float
    error: float


class HLBreakdown(NamedTuple):
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


class _Point(NamedTuple):
    """Dimensionless working set of one oracle point, shared by all matrix
    elements: the closed form's (b, d, chi, c), lam = omega_L / omega_0, the
    common E-field center displacement fshift = chi / d (a_B units), and
    the orbitals of dot 1 (well center -d) and dot 2 (well center +d) as
    their centers x[j] and phase slopes k[j] = -lam x[j] (index 0 unused).
    Every orbital has width b (module docstring).  j_closed is the closed
    form's dimensionless J at the point."""

    b: float
    d: float
    lam: float
    fshift: float
    chi: float
    c: float
    x: tuple
    k: tuple
    j_closed: float


def _point(mat: MaterialParams, fields: FieldConfig) -> _Point:
    p = derive_parameters(mat, fields)
    # First, so a point the closed form rejects (d = 0 among them, where fshift
    # and W would divide by d) raises before any quadrature runs.
    j_closed = exchange_energy(p.b, p.d, p.c_coulomb, p.efield_ratio).j_dimensionless
    # omega_0 as Omega / b, which misses the material's by an ulp at ~0.1% of fields
    lam = p.larmor / (p.fock_darwin / p.b)
    fshift = p.efield_ratio / p.d
    x = (None, -p.d - fshift, p.d - fshift)
    k = (None, -lam * x[1], -lam * x[2])
    return _Point(p.b, p.d, lam, fshift, p.efield_ratio, p.c_coulomb, x, k, j_closed)


def _settle(result, failures, label):
    """A quadrature result as (value, error); a QuadratureError is recorded
    in the `failures` list and its best estimate kept."""
    if not isinstance(result, QuadratureError):
        return result
    failures.append(f"{label}: {result}")
    value = result.value if result.value is not None else math.nan
    return value, result.error_estimate if result.error_estimate is not None else math.inf


class _Bracket(NamedTuple):
    """<bra| P(x) + Q(y) |ket> for (bra, ket) = _PAIRS[pair], P = (a u + b) u + c
    for p = (a, b, c), u = x^2 if quartic else x, and Q = q2 y^2 + q0 for
    q = (q2, q0), or 0."""

    pair: int
    p: tuple
    quartic: bool = False
    q: tuple | None = None


def _quadratic(a, b, c, u):
    return (a * u + b) * u + c


def _stacked_sampler(pt: _Point, brackets):
    """`_refine_many`'s sample(n, n_hi, open_) for the point's stacked `brackets`:
    one pass over the order-n and order-n_hi nodes side by side, whose columns
    [:n] and [n:] give each level's row sums, and |f| on the [n:] part only."""
    pair = np.array([br.pair for br in brackets])
    u_row = pair + len(_PAIRS) * np.array([br.quartic for br in brackets])
    p_coef = np.array([br.p for br in brackets])
    q_coef = np.array([br.q or (0.0, 0.0) for br in brackets])
    bra_x, ket_x = (np.array([[pt.x[j]] for j in side]) for side in zip(*_PAIRS))
    center = 0.5 * (bra_x + ket_x)  # nodes centred between the two orbitals
    i_kappa = np.array([[1j * (pt.k[ket] - pt.k[bra])] for bra, ket in _PAIRS])
    beta = pt.b  # the orbitals of a point share their width
    scale = 1.0 / math.sqrt(beta)

    def sample(n, n_hi, open_):
        t, w = (np.concatenate(level) for level in zip(_hermite_nodes(n), _hermite_nodes(n_hi)))
        st = scale * t
        x, y = center + st, 0.0 + st
        dx_bra, dx_ket = x - bra_x, x - ket_x  # X and Y of the module docstring, times w
        wx = w * (beta / math.pi * np.exp(-0.5 * beta * (dx_bra * dx_bra + dx_ket * dx_ket)))
        wy, rows = w * np.exp(i_kappa * y - beta * y * y), pair[open_]
        p = _quadratic(*p_coef[open_].T[..., None], np.concatenate((x, x * x))[u_row[open_]])
        q2, q0 = q_coef[open_].T[..., None]
        wx_p, wy_q = wx[rows] * p, wy[rows] * (q2 * y * y + q0)
        lo, hi = (  # each level's sums, over its own columns
            [complex(a * b + c * d) * scale * scale for a, b, c, d in zip(
                wx_p[:, s].sum(1), wy[:, s].sum(1)[rows], wx[:, s].sum(1)[rows], wy_q[:, s].sum(1)
            )]
            for s in (slice(n), slice(n, None))
        )
        # |P + Q| <= |P + q0| + |q2| y^2 (module docstring), on the higher level
        wx_hi, abs_wy, y = wx[rows, n:], np.abs(wy[rows, n:]), y[n:]
        l1s = np.abs(wx_hi * (p[:, n:] + q0)).sum(1) * abs_wy.sum(1) + np.abs(wx_hi).sum(1) * (
            abs_wy * (np.abs(q2) * (y * y))
        ).sum(1)
        return [(v, None) for v in lo], [(v, float(l1) * scale * scale) for v, l1 in zip(hi, l1s)]

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


def _bracket(pt: _Point, pair, op):
    """The bracket of `op` on the ket of the orbital pair number `pair`: "1",
    H_j as "Hj" (P + Q of the module docstring), or "W" for W = W_1 + W_2.
    W_s(x) = 1/2 [ (x^2 - d^2)^2 / (4 d^2) - (x - s d)^2 ] completes the
    harmonic well s to the smooth quartic double well, so the sum over both
    wells is what every two-particle bracket sees."""
    d2 = pt.d * pt.d
    if op == "1":
        return _Bracket(pair, (0.0, 0.0, 1.0))
    if op == "W":  # W_1 + W_2 = x^4 / (4 d^2) - 3 x^2 / 2 - 3 d^2 / 4
        return _Bracket(pair, (0.25 / d2, -1.5, -0.75 * d2), quartic=True)
    ket = _PAIRS[pair][1]
    beta, k, cx, lam = pt.b, pt.k[ket], pt.x[ket], pt.lam
    s_well = pt.d if op == "H2" else -pt.d
    c2 = 0.5 * (1.0 + lam * lam - beta * beta)  # shared by P and Q
    p1 = beta * beta * cx + lam * k + pt.fshift - s_well
    p0 = beta - 0.5 * beta * beta * cx * cx + 0.5 * s_well * s_well
    return _Bracket(pair, (c2, p1, p0), q=(c2, 0.5 * k * k))


def _brackets(pt: _Point, quad, labels):
    """{label: (value, error) or QuadratureError} of the point's `labels`, integrated together."""
    brackets = [_bracket(pt, *_PLAN[label]) for label in labels]
    sample = _stacked_sampler(pt, brackets)
    results = _refine_many(
        sample, len(brackets), _hermite_nodes, quad, "Gauss-Hermite bracket rule"
    )
    return dict(zip(labels, results))


def _weight_overlap(pt: _Point, res, failures):
    """S = <phi_2|phi_1> by quadrature, for the 1/S^2 and S^2/(1 - S^4) weights,
    which an S whose square underflows, or whose S^4 rounds to 1, leaves undefined."""
    s_num, _ = _sum_elements(res, ["overlap"], failures)
    s2 = s_num * s_num
    b_d2 = pt.b * pt.d * pt.d
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


@functools.cache
def _angles(n):
    """The order-n periodic trapezoid angles theta_k = 2 pi k / n that
    `_coulomb` sums on, as ((cos, sin), weights) of the direct kernel's half
    circle k = 0..n/2 and ((sin,), weights) of the exchange kernel's nodes:
    for even n the quarter circle k = 0..n/4, each node carrying the weights
    of k and n/2 - k, once where the two coincide.  Cached per order."""
    k = np.arange(n // 2 + 1)
    theta = 2.0 * math.pi * k / n
    w = np.where((k == 0) | (2 * k == n), 2.0, 4.0) * math.pi / n
    sin = np.sin(theta)
    exchange = ((sin,), w)
    if n % 2 == 0:
        k = k[: n // 4 + 1]
        exchange = ((sin[k],), np.where((k == 0) | (4 * k == n), 4.0, 8.0) * math.pi / n)
    return ((np.cos(theta), sin), w), exchange


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
    node counted twice but theta = 0 and, for even n, theta = pi.  For even
    n the exchange kernel, which depends on theta through sin(theta) only,
    takes the same value at k and n/2 - k, so its sum runs over the quarter
    circle k = 0..n/4 (`_angles`).  The two integrals refine in lockstep,
    each on its own radial domain.
    """
    beta = pt.b
    delta = pt.x[1] - pt.x[2]  # -2d
    kappa = pt.k[2] - pt.k[1]
    amplitude = beta / (2.0 * math.pi) * (pt.c * math.sqrt(2.0 / math.pi))  # density norm, v0
    attenuation = math.exp(-0.5 * beta * delta * delta)

    def g_direct(r, cos, sin):
        x = r * cos - delta
        y = r * sin
        return amplitude * np.exp(-0.5 * beta * (x * x + y * y)) / r

    def g_exchange(r, sin):
        radial = amplitude * attenuation * np.exp(-0.5 * beta * r * r) / r
        return radial * np.cos((kappa * r) * sin)

    r_cut = _DOMAIN_CUT * math.sqrt(2.0 / beta)
    kernels = ((g_direct, abs(delta) + r_cut), (g_exchange, r_cut))

    def level(n, with_l1, open_):
        out = []
        for i in open_:
            (g, r_max), (angles, w_theta) = kernels[i], _angles(n)[i]
            r, wr_r = _polar_radii(n, r_max)
            vals = g(r[:, None], *angles)
            l1 = float(wr_r @ np.abs(vals) @ w_theta) if with_l1 else None
            out.append((float(wr_r @ vals @ w_theta), l1))
        return out

    def sample(n, n_hi, open_):
        return level(n, False, open_), level(n_hi, True, open_)

    direct, exchange = _refine_many(sample, 2, _legendre_nodes, quad, "polar Coulomb rule")
    direct, err3 = _settle(direct, failures, "u3 direct coulomb")
    exchange, err4 = _settle(exchange, failures, "u4 exchange coulomb")
    return TermEstimate(2.0 * direct, 2.0 * err3), TermEstimate(2.0 * exchange, 2.0 * err4)


def assemble_oracle(
    mat: MaterialParams,
    fields: FieldConfig,
    quad: QuadratureSpec | None = None,
) -> HLBreakdown:
    """Full quadrature evaluation of the exchange energy.

    J = S^2/(1 - S^4) [u1 - u2/S^2 + u3 - u4/S^2 + u5], all in units of
    the confinement quantum, with S taken from quadrature as well.  `quad`
    (default `QuadratureSpec()`) sets the single-particle brackets' rule;
    the Coulomb pair runs at its order, to a rel_tol of at least 1e-8.  Any
    failed sub-integral keeps its best estimate and flags the report.
    """
    quad = quad or QuadratureSpec()
    quad.validate()
    pt = _point(mat, fields)

    res = _brackets(pt, quad, ("overlap",) + _U1 + _U2 + _U5)
    failures: list = []
    s_num = _weight_overlap(pt, res, failures)
    # u1 sums the diagonal elements <orb|H_j|orb> (the spectator norms are 1),
    # u2 the cross elements, each weighted by the spectator overlap S
    u1, cross = _sum_elements(res, _U1, failures), _sum_elements(res, _U2, failures)
    u2 = TermEstimate(s_num * cross.value, abs(s_num) * cross.error)
    u3, u4 = _coulomb(pt, quad._replace(rel_tol=max(quad.rel_tol, _COULOMB_REL_TOL)), failures)
    # u5: the diagonal quartic brackets enter directly; the cross ones carry one
    # spectator S and the exchange channel's overall 1/S^2, a net -1/S weight
    diag, cross = _sum_elements(res, _U5[:2], failures), _sum_elements(res, _U5[2:], failures)
    u5 = TermEstimate(diag.value - cross.value / s_num, diag.error + cross.error / abs(s_num))

    s2 = s_num * s_num
    weight = s2 / (1.0 - s2 * s2)
    j_oracle = weight * (u1.value - u2.value / s2 + u3.value - u4.value / s2 + u5.value)
    j_error = abs(weight) * (u1.error + u2.error / s2 + u3.error + u4.error / s2 + u5.error)

    denom = max(abs(j_oracle), abs(pt.j_closed), NOISE_FLOOR)
    rel = abs(j_oracle - pt.j_closed) / denom

    return HLBreakdown(
        s_num=s_num,
        upsilon={"u1": u1, "u2": u2, "u3": u3, "u4": u4, "u5": u5},
        j_oracle=j_oracle,
        j_error=j_error,
        j_closed_form=pt.j_closed,
        rel_discrepancy=rel,
        incomplete=bool(failures),
        failures=tuple(failures),
    )
