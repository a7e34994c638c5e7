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

The five matrix-element groups of the exchange splitting (single particle
direct/exchange, Coulomb direct/exchange, quartic tunnelling correction)
are evaluated by quadrature in plain Python, with the single-particle
operators applied analytically.  Assembled with the numerically computed
overlap S, they give a J that shares no code path with the closed form
beyond the raw inputs.

Every single-particle integrand factors as X(x) Y(y) (P(x) + Q(y)):
X = conj(phi_bra,x) phi_ket,x is a real Gaussian carrying the b/pi
amplitude, Y = conj(phi_bra,y) phi_ket,y = exp(i kappa y - b y^2) with
kappa = k_ket - k_bra, and the operator acts on the ket as P + Q.  For H_j,
with the ket's g = grad(phi)/phi, x g_y - y g_x = i k x - b c_x y splits the
angular term (f is the field shift, s_j the well centre):

    P(x) = b - g_x^2/2 + lambda k x + lambda^2 x^2/2 + f x + (x - s_j)^2/2
         = c2 x^2 + (b^2 c_x + lambda k + f - s_j) x + b - b^2 c_x^2/2 + s_j^2/2
    Q(y) = -g_y^2/2 + i lambda b c_x y + lambda^2 y^2/2 + y^2/2
         = c2 y^2 + k^2/2

with c2 = (1 + lambda^2 - b^2)/2, as k + lambda c_x = 0 for every ket (exactly
so in floating point: (-lambda) x_c is -(lambda x_c)).  For W, Q = 0 and

    P(x) = W_1 + W_2 = x^4/(4 d^2) - 3 x^2/2 - 3 d^2/4.

A bracket is then (int X P)(int Y) + (int X)(int Y Q), summed from the
moments of X and Y at the nodes.  The x nodes sit midway between the two
orbitals.  On the real line Y oscillates, and its size exp(-kappa^2/4b)
would have to come out of cancelling O(1) sums, so the y nodes sit on the
line y = i kappa/(2b) + t through Y's saddle point: the integrand is entire
and decays like a Gaussian in the strip between, so by Cauchy's theorem the
integral is the same, and there Y = exp(-kappa^2/4b) exp(-b t^2) comes out
pointwise.  Each factor is then a Gaussian of the Gauss-Hermite weight's
width times a polynomial of degree <= 4, which the rules of orders 3 and 4
(exact to degrees 5 and 7) both integrate exactly.  Their difference is
rounding; with the sum of |f| at order 4, bounded through |P + Q| <=
|a| |u|^2 + |b| |u| + |c + q0| + |q2| |y|^2 for P = (a u + b) u + c and
Q = q2 y^2 + q0, it gives the error by the test `_refine` accepts a level
with.  That bound is read at order 4 only, so only order 4 sums |.|
moments, and as every X weight is >= 0 only the odd x^k need their own.
Whatever imaginary part a sum keeps joins the error.

The 13 brackets take their moments from four orbital pairs, and exchanging
the two dots repeats three of the pairs' eight moment sets, so a point sums
five: (1, 2) has the X of (2, 1), whose midpoint and (t + h)^2 + (t - h)^2
are the same floats for the half separation h and -h, and the conjugate of
its Y, as kappa flips sign; (1, 1) and (2, 2) share the Y of kappa = 0.
Their operators have six coefficient sets, formed once per point: 1, W,
and H1 and H2 on each ket, each H set serving one u1 and one u2 bracket.

The Coulomb pair goes through the Gaussian transform 1/r = (2/sqrt(pi))
int_0^inf exp(-r^2 t^2) dt (Boys, Proc. R. Soc. A 200, 542 (1950)).  The
relative coordinate of two width-b densities is a Gaussian of exponent
a = b/2 about their separation delta; the exchange density also carries
exp(i kappa y) and exp(-a delta^2).  Each plane integral is then Gaussian,
and t = sqrt(a) tan(phi) leaves, with P = 2 amplitude 2 sqrt(pi)/sqrt(a),

    u3 = P int_0^{pi/2} exp(-a delta^2 sin^2 phi) dphi
    u4 = P exp(-a delta^2) int_0^{pi/2} exp(-(kappa^2/4a) cos^2 phi) dphi

Both integrands are pi-periodic and entire, so the trapezoid rule converges
geometrically (Trefethen & Weideman, SIAM Review 56 (2014) 385); phi ->
pi/2 - phi maps its nodes onto themselves, so the cos^2 integral is summed
as a sin^2 one.  That integral is exp(-z) I0(z) up to a factor, which the
closed form tabulates, but the oracle takes z from its own orbitals (delta,
kappa and b).  So it still checks the closed form's Coulomb arguments and
prefactors, the Heitler-London assembly and `bessel_i0e` by quadrature; the
2-D -> 1-D reduction is exact analysis, which it no longer checks
numerically.  Summed in a fixed order, a report repeats bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

from .closed_form import exchange_energy
from .errors import QuadratureError, SingularConfigurationError
from .special import QuadratureSpec, _compare_levels, _refine
from .units import FieldConfig, MaterialParams, derive_parameters

#: Relative-discrepancy denominators never drop below this (in units of
#: the confinement quantum), so comparisons near sign changes stay sane.
NOISE_FLOOR = 1e-6

#: The Coulomb pair's trapezoid sums refine from the spec's order, to no tighter a rel_tol than this.
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
    (its best estimate is still used).  b, d and c are the point's
    dimensionless compression, half-distance and Coulomb strength, as
    `derive_parameters` gives them.
    """

    s_num: float
    upsilon: dict
    j_oracle: float
    j_error: float
    j_closed_form: float
    rel_discrepancy: float
    incomplete: bool
    failures: tuple
    b: float
    d: float
    c: float

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
    elements: the closed form's (b, d, c), lam = omega_L / omega_0, the
    common E-field center displacement fshift = chi / d (a_B units), and
    the orbitals of dot 1 (well center -d) and dot 2 (well center +d) as
    their centers x[j] and phase slopes k[j] = -lam x[j] (index 0 unused).
    Every orbital has width b (module docstring).  j_closed is the closed
    form's dimensionless J at the point."""

    b: float
    d: float
    lam: float
    fshift: float
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
    return _Point(p.b, p.d, lam, fshift, p.c_coulomb, x, k, j_closed)


def _settle(result, failures, label):
    """A quadrature result as (value, error); a QuadratureError is recorded
    in the `failures` list and its best estimate kept."""
    if not isinstance(result, QuadratureError):
        return result
    failures.append(f"{label}: {result}")
    value = result.value if result.value is not None else math.nan
    return value, result.error_estimate if result.error_estimate is not None else math.inf


_SQRT_PI, _SQRT_6 = math.sqrt(math.pi), math.sqrt(6.0)

# The Gauss-Hermite rules of orders 3 and 4 in closed form, as (node t,
# weight times exp(t^2)) pairs, the integrand's own Gaussian formed at the
# nodes: t = 0, +-sqrt(3/2), and t^2 = (3 -+ sqrt(6))/2 with weight
# sqrt(pi)/(4 (3 -+ sqrt(6))).
_RULES = tuple(
    tuple((t, w * math.exp(t * t)) for t, w in rule)
    for rule in (
        [(0.0, 2.0 * _SQRT_PI / 3.0)] + [(s * math.sqrt(1.5), _SQRT_PI / 6.0) for s in (-1.0, 1.0)],
        [(s * math.sqrt(0.5 * (3.0 + r)), _SQRT_PI / (4.0 * (3.0 + r)))
         for s in (-1.0, 1.0) for r in (-_SQRT_6, _SQRT_6)],
    )
)


def _x_moments(pt: _Point, bra, ket):
    """(mx3, mx4, ax4): the moments sum w X x^k of the orbital pair (bra, ket)'s X
    for k = 0..4 at orders 3 and 4, and the order-4 sums of |w X x^k|.  Every
    w X is >= 0, so the even k's are the signed sums, bit for bit."""
    beta = pt.b  # the orbitals of a point share their width
    scale = 1.0 / math.sqrt(beta)
    center = 0.5 * (pt.x[bra] + pt.x[ket])  # nodes centred between the two orbitals
    # Half the centres' separation, from the wells at -d and +d: the field moves
    # both centres by the same fshift, and taking the separation from the centres
    # would only add their rounding.
    half = (ket - bra) * pt.d
    amplitude, exponent = beta / math.pi, -0.5 * beta
    levels = []
    for rule, bound in zip(_RULES, (False, True)):
        m0 = m1 = m2 = m3 = m4 = a1 = a3 = 0.0
        for t, w in rule:
            st = scale * t
            x = center + st
            w0 = w * (amplitude * math.exp(exponent * ((st + half) ** 2 + (st - half) ** 2)))  # w X
            w1 = w0 * x
            w2 = w1 * x
            w3 = w2 * x
            w4 = w3 * x
            m0, m1, m2, m3, m4 = m0 + w0, m1 + w1, m2 + w2, m3 + w3, m4 + w4
            if bound:
                a1, a3 = a1 + abs(w1), a3 + abs(w3)
        levels.append([m0, m1, m2, m3, m4])
    return levels[0], levels[1], [m0, a1, m2, a3, m4]


def _y_moments(pt: _Point, bra, ket):
    """(my3, my4, ay4): (sum w Y, sum w Y y^2) of the orbital pair (bra, ket)'s Y on
    the contour through its saddle point at orders 3 and 4, and the order-4
    (sum |w Y|, sum |w Y| |y|^2)."""
    beta = pt.b
    scale = 1.0 / math.sqrt(beta)
    # kappa = -lambda (x_ket - x_bra), from the wells as in `_x_moments`
    i_kappa = 1j * (-pt.lam * (2.0 * ((ket - bra) * pt.d)))
    saddle = i_kappa / (2.0 * beta)
    levels = []
    for rule, bound in zip(_RULES, (False, True)):
        my0 = my2 = abs_my0 = abs_my2 = 0.0
        for t, w in rule:
            y = saddle + scale * t
            wy = w * cmath.exp(i_kappa * y - beta * y * y)  # w Y
            my0, my2 = my0 + wy, my2 + wy * y * y
            if bound:
                abs_wy = abs(wy)
                abs_my0, abs_my2 = abs_my0 + abs_wy, abs_my2 + abs_wy * abs(y) ** 2
        levels.append((my0, my2))
    return levels[0], levels[1], (abs_my0, abs_my2)


def _pair_levels(pt: _Point):
    """Per orbital pair of `_PAIRS`, its moments (mx3, my3, mx4, my4, ax4, ay4)
    at orders 3 and 4, from the five distinct sets of the module docstring."""
    x_cross, y_cross, y_diag = _x_moments(pt, 2, 1), _y_moments(pt, 2, 1), _y_moments(pt, 1, 1)
    (my3_0, my3_2), (my4_0, my4_2), ay4 = y_cross
    y_conj = ((my3_0.conjugate(), my3_2.conjugate()), (my4_0.conjugate(), my4_2.conjugate()), ay4)
    sets = ((x_cross, y_cross), (_x_moments(pt, 1, 1), y_diag), (_x_moments(pt, 2, 2), y_diag), (x_cross, y_conj))
    return [(mx3, my3, mx4, my4, ax4, ay4) for (mx3, mx4, ax4), (my3, my4, ay4) in sets]


def _operators(pt: _Point):
    """The point's six operator coefficient sets, {"1", "W", "H1A", "H1B", "H2A",
    "H2B"}: H_j on the ket A (dot 1's orbital) or B (dot 2's) as P + Q of the
    module docstring, and W = W_1 + W_2.  Each set is (a, b, c + q0, q2, hi, lo)
    for P = (a u + b) u + c, Q = q2 y^2 + q0 and x^hi = u^2, x^lo = u.
    W_s(x) = 1/2 [ (x^2 - d^2)^2 / (4 d^2) - (x - s d)^2 ] completes the
    harmonic well s to the smooth quartic double well, so the sum over both
    wells is what every two-particle bracket sees."""
    d2 = pt.d * pt.d
    beta, lam = pt.b, pt.lam
    c2 = 0.5 * (1.0 + lam * lam - beta * beta)  # shared by P and Q
    # W_1 + W_2 = x^4 / (4 d^2) - 3 x^2 / 2 - 3 d^2 / 4; q0 = 0 for 1 and W
    ops = {"1": (0.0, 0.0, 1.0, 0.0, 2, 1), "W": (0.25 / d2, -1.5, -0.75 * d2, 0.0, 4, 2)}
    for ket, name in ((1, "A"), (2, "B")):
        k, cx = pt.k[ket], pt.x[ket]
        for op, s_well in (("H1", -pt.d), ("H2", pt.d)):
            p1 = beta * beta * cx + lam * k + pt.fshift - s_well
            p0 = beta - 0.5 * beta * beta * cx * cx + 0.5 * s_well * s_well
            # c + q0 before the moments, as P's and Q's constants cancel
            ops[op + name] = (c2, p1, p0 + 0.5 * k * k, c2, 2, 1)
    return ops


# The single-particle brackets, in the order their failures are reported
_U1 = ("u1 <A|H1|A>", "u1 <B|H2|B>", "u1 <B|H1|B>", "u1 <A|H2|A>")
_U2 = ("u2 <A|H1|B>", "u2 <B|H2|A>", "u2 <B|H1|A>", "u2 <A|H2|B>")
_U5 = ("u5 <A|W|A>", "u5 <B|W|B>", "u5 <B|W|A>", "u5 <A|W|B>")


# The brackets' (bra, ket) pairs as dot indices, and each label's pair number and
# `_operators` set: "overlap" is <B|1|A>; in "uN <bra|op|ket>" A is dot 1's
# orbital, B dot 2's, and H_j takes the set of its ket
_PAIRS = ((2, 1), (1, 1), (2, 2), (1, 2))
_PLAN = {
    label: (_PAIRS.index(("AB".index(bra) + 1, "AB".index(ket) + 1)), op + ket if op[0] == "H" else op)
    for label in ("overlap",) + _U1 + _U2 + _U5
    for bra, op, ket in [label[4:-1].split("|") if label != "overlap" else ("B", "1", "A")]
}


def _brackets(pt: _Point, quad, labels):
    """{label: (value, error) or QuadratureError} of the point's `labels`, each
    summed at orders 3 and 4 from its pair's moments, as (int X P)(int Y) +
    (int X)(int Y Q), with the order-4 bound on its sum of |f| of the module
    docstring, and accepted at quad.rel_tol."""
    levels, ops, out = _pair_levels(pt), _operators(pt), {}
    scale2 = 1.0 / pt.b  # the squared node scale
    for label in labels:
        pair, key = _PLAN[label]
        a, b, c0, q2, hi, lo = ops[key]
        mx3, (y3, y3_2), mx4, (y4, y4_2), ax, (ay, ay_2) = levels[pair]
        v3 = (a * mx3[hi] + b * mx3[lo]) * y3 + mx3[0] * (c0 * y3 + q2 * y3_2)
        v4 = (a * mx4[hi] + b * mx4[lo]) * y4 + mx4[0] * (c0 * y4 + q2 * y4_2)
        l1 = (abs(a) * ax[hi] + abs(b) * ax[lo] + abs(c0) * ax[0]) * ay + ax[0] * abs(q2) * ay_2
        out[label], converged = _compare_levels(v3 * scale2, v4 * scale2, l1 * scale2, quad.rel_tol)
        if not converged:
            value, error = out[label]
            message = f"Gauss-Hermite bracket rule did not converge to rel_tol={quad.rel_tol} by order 4"
            out[label] = QuadratureError(message, value=value, error_estimate=error)
    return out


def _weight_overlap(pt: _Point, res, failures):
    """S = <phi_2|phi_1> by quadrature, for the 1/S^2 and S^2/(1 - S^4) weights,
    which an S whose square underflows, or whose 1 - S^4 lies within its
    error of 0 (the dots coincide to the quadrature's precision), leaves
    undefined."""
    s_num, s_error = _sum_elements(res, ["overlap"], failures)
    s2 = s_num * s_num
    b_d2 = pt.b * pt.d * pt.d
    if s2 == 0.0:
        raise SingularConfigurationError(f"overlap S = {s_num!r} squares to 0 at b*d^2 = {b_d2!r}")
    one_minus_s4, error = 1.0 - s2 * s2, 4.0 * s_error
    if abs(one_minus_s4) <= error:
        raise SingularConfigurationError(
            f"overlap S = {s_num!r} leaves 1 - S^4 = {one_minus_s4!r} within its error {error!r} "
            f"of 0 at b*d^2 = {b_d2!r}: the two dots coincide"
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
def _sin_squared(n):
    """sin^2 at the n + 1 trapezoid nodes phi_k = k pi / (2 n) of [0, pi/2]."""
    h = 0.5 * math.pi / n
    return tuple(math.sin(k * h) ** 2 for k in range(n + 1))


def _phi_integral(z, n):
    """The n-interval trapezoid sum of exp(-z sin^2 phi) over [0, pi/2], added
    left to right: built-in `sum` compensates from Python 3.12 on."""
    s = _sin_squared(n)
    exp, neg_z = math.exp, -z
    total = 0.0
    for s2 in s:
        total += exp(neg_z * s2)
    return 0.5 * math.pi / n * (total - 0.5 * (exp(neg_z * s[0]) + exp(neg_z * s[-1])))


def _coulomb(pt: _Point, quad, failures):
    """Coulomb direct and exchange sums (u3, u4), as the two trapezoid sums
    of the module docstring, each refined on its own; their integrands are
    positive, so each sum of |f| is its value."""
    a = 0.5 * pt.b  # exponent of the relative coordinate's Gaussian
    delta = -2.0 * pt.d  # x[1] - x[2], as in `_x_moments`
    kappa = -pt.lam * (2.0 * pt.d)  # k[2] - k[1]
    amplitude = pt.b / (2.0 * math.pi) * (pt.c * math.sqrt(2.0 / math.pi))  # density norm, v0

    def refined(z, label):
        sample = lambda n, with_l1: (v := _phi_integral(z, n), v if with_l1 else None)  # noqa: E731
        return _settle(_refine(sample, _sin_squared, quad, "Coulomb trapezoid rule"), failures, label)

    direct, err3 = refined(a * delta * delta, "u3 direct coulomb")
    exchange, err4 = refined(kappa * kappa / (4.0 * a), "u4 exchange coulomb")
    p3 = 2.0 * amplitude * 2.0 * _SQRT_PI / math.sqrt(a)  # P of the module docstring
    p4 = p3 * math.exp(-a * delta * delta)
    return TermEstimate(p3 * direct, p3 * err3), TermEstimate(p4 * exchange, p4 * err4)


def assemble_oracle(
    mat: MaterialParams,
    fields: FieldConfig,
    quad: QuadratureSpec | None = None,
) -> HLBreakdown:
    """Full quadrature evaluation of the exchange energy.

    J = S^2/(1 - S^4) [u1 - u2/S^2 + u3 - u4/S^2 + u5], all in units of
    the confinement quantum, with S taken from quadrature as well.  `quad`
    (default `QuadratureSpec()`) sets the rel_tol the fixed-order
    single-particle brackets are accepted at, and the first level of the
    Coulomb pair's trapezoid sums, which refine to a rel_tol of at least
    1e-8.  Any failed sub-integral keeps its best estimate and flags the
    report.
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
        b=pt.b,
        d=pt.d,
        c=pt.c,
    )
