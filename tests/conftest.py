import json
import math
import pathlib
import sys

import numpy as np
import pytest

from dotx.closed_form import exchange_energy, overlap
from dotx.errors import InvalidParameterError, SingularConfigurationError
from dotx.oracle import _Point
from dotx.special import (
    QuadratureSpec, _legendre_nodes, _polar_radii, _refine, bessel_i0e, integrate_2d,
)
from dotx.sweeps import SweepRow
from dotx.units import GAAS, FieldConfig, bohr_radius_nm, derive_parameters

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "pinned_values.json"


@pytest.fixture(scope="session")
def gaas():
    return GAAS


@pytest.fixture(scope="session")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def gaas_fields():
    """GaAs reference geometry: a = 0.7 a_B, no applied fields."""
    return FieldConfig(B=0.0, E=0.0, a=0.7 * bohr_radius_nm(GAAS))


@pytest.fixture()
def factored_samples(monkeypatch):
    """Orders sampled by each stacked single-particle bracket, one list per
    bracket, in the order the oracle integrates them; the polar Coulomb
    pair, which refines on Gauss-Legendre radii, is not recorded."""
    import dotx.oracle

    samples = []
    refine = dotx.oracle._refine_many

    def refine_counted(sample, count, *args):
        if args[0] is not dotx.oracle._hermite_nodes:
            return refine(sample, count, *args)
        orders = [[] for _ in range(count)]
        samples.extend(orders)

        def counted(n, with_l1, open_):
            for i in open_:
                orders[i].append(n)
            return sample(n, with_l1, open_)

        return refine(counted, count, *args)

    monkeypatch.setattr(dotx.oracle, "_refine_many", refine_counted)
    return samples


@pytest.fixture()
def count_derivations(monkeypatch):
    """Install a counting derive_parameters in the given modules; the
    returned list gets one entry per call."""

    def install(*modules):
        calls = []

        def counting(mat, fields):
            calls.append(fields)
            return derive_parameters(mat, fields)

        for module in modules:
            monkeypatch.setattr(module, "derive_parameters", counting)
        return calls

    return install


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


EPS = sys.float_info.epsilon

# Below this |J| is out of the normal float range, or near it, and its error
# is set by underflow: J is held to it as an absolute bound there.
J_FLOOR = 1e-306


def j_size(b, d, c, efield_term):
    """(M, arg) at a point: M = (|2 S^2 (c sqrt(b) I0e(x1) + quartic + efield)|
    + |2 c sqrt(b) I0e(x2) exp(-2 x1)|) / (1 - S^4) is the size of the two
    terms that cancel in J, and arg = 2 d^2 (2b - 1/b) the exponent of S^2."""
    d2 = d * d
    x1, x2 = b * d2, d2 * (b - 1.0 / b)
    arg = 2.0 * (x1 + x2)
    csb = c * math.sqrt(b)
    quartic = 0.75 / b * (1.0 + x1)
    size = (
        abs(2.0 * math.exp(-arg) * (csb * bessel_i0e(x1) + quartic + efield_term))
        + abs(2.0 * csb * bessel_i0e(x2) * math.exp(-2.0 * x1))
    ) / -math.expm1(-2.0 * arg)
    return size, arg


def j_bound(k, b, d, c, efield_term):
    """k eps (1 + arg) M + J_FLOOR, the bound J is held to at a point.  The
    (1 + arg) is the condition of exp(-arg): an ulp of b or d moves J by
    about arg eps M."""
    size, arg = j_size(b, d, c, efield_term)
    return k * EPS * (1.0 + arg) * size + J_FLOOR


def kernel_bounds(want: dict, c: float, scale: float) -> dict:
    """Absolute bound per column of the array kernel against the scalar
    values `want` (a dict of column -> float) at one valid point.

    numpy's exp, expm1, sinh and hypot may round the other way from the C
    library's.  b then moves by an ulp for a few points in a thousand, and
    every column that depends on it moves by its condition, which grows
    with arg = 2 d^2 (2b - 1/b).  Each constant is 5 to 9 times the largest
    ratio seen on 80 000 random lab points (|B| up to 60 T, a/a_B from 1e-8
    to 8): b 1.04 eps, quartic 1.66 eps, the prefactor 3.2 eps (1 + arg),
    S 1.8 eps (1 + arg), coulomb 1.0 eps (1 + 2 arg) Mc with Mc the size of
    its two terms, J 2.9 eps (1 + arg) M and j_mev 3.0 eps (1 + arg) M
    scale (`j_size`).  d, chi and efield_term are exact.
    """
    b, d, efield = want["b"], want["d"], want["efield_term"]
    d2 = d * d
    x2 = d2 * (b - 1.0 / b)
    arg = 2.0 * (b * d2 + x2)
    csb = c * math.sqrt(b)
    bounds = {
        "x": 0.0, "d": 0.0, "efield_ratio": 0.0, "efield_term": 0.0,
        "b": 8.0 * EPS * b,
        "quartic_term": 8.0 * EPS * want["quartic_term"],
        "prefactor": 16.0 * EPS * (1.0 + arg) * want["prefactor"],
        "s_overlap": 16.0 * EPS * (1.0 + arg) * want["s_overlap"],
        "j_dimensionless": j_bound(16.0, b, d, c, efield),
    }
    bounds["j_mev"] = bounds["j_dimensionless"] * scale
    if math.isfinite(want["coulomb_term"]):
        coulomb_size = csb * (bessel_i0e(b * d2) + math.exp(2.0 * x2) * bessel_i0e(x2))
        bounds["coulomb_term"] = 8.0 * EPS * (1.0 + 2.0 * arg) * coulomb_size
    return bounds


def assert_kernel_close(got: dict, want: dict, c: float, scale: float, where=None):
    """Each column of `got` (the kernel) within `kernel_bounds` of `want`;
    a column bounded by 0, or not finite in `want`, must match by repr."""
    bounds = kernel_bounds(want, c, scale)
    for name, w in want.items():
        g, bound = got[name], bounds.get(name, 0.0)
        if bound == 0.0 or not math.isfinite(w):
            assert repr(g) == repr(w), (name, g, w, where)
        else:
            assert abs(g - w) <= bound, (name, g, w, abs(g - w) / bound, where)


def row_columns(row) -> dict:
    extra = {"x": row.x, "b": row.b, "d": row.d, "s_overlap": row.s_overlap}
    return {**row.breakdown._asdict(), **extra}


def assert_rows_close(got: list, want: list, material):
    """Sweep rows against `loop_sweep`'s: the same singular rows, equal by
    repr, and every valid row's columns within `kernel_bounds`."""
    from dotx.units import coulomb_strength

    c = coulomb_strength(material)
    assert [r.singular for r in got] == [r.singular for r in want]
    for i, (g, w) in enumerate(zip(got, want)):
        if w.singular:
            assert repr(g) == repr(w), i
            continue
        assert type(g) is SweepRow and g.singular is False and g.j_mev == g.breakdown.j_mev
        assert_kernel_close(row_columns(g), row_columns(w), c, material.confinement_energy, i)


def j_mp(b, d, c, chi):
    """Dimensionless J in 50-digit arithmetic at the floats (b, d, c, chi)."""
    from mpmath import mp, mpf

    with mp.workdps(50):
        b, d, c, chi = (mpf(repr(float(v))) for v in (b, d, c, chi))
        d2 = d * d
        x1, x2 = b * d2, d2 * (b - 1 / b)
        bracket = (
            c * mp.sqrt(b) * (mp.exp(-x1) * mp.besseli(0, x1) - mp.exp(x2) * mp.besseli(0, x2))
            + mpf(3) / (4 * b) * (1 + x1)
            + mpf(3) / 2 * chi * chi / d2
        )
        return bracket / mp.sinh(2 * d2 * (2 * b - 1 / b))


def loop_sweep(spec):
    """The per-point sweep that `sweep` replaced, kept as its reference."""
    rows = []
    for x in np.linspace(spec.start, spec.stop, spec.steps).tolist():
        B, E, a = spec.fixed.B, spec.fixed.E, spec.fixed.a
        if spec.vary == "B":
            B = x
        elif spec.vary == "E":
            E = x
        else:
            a = x * bohr_radius_nm(spec.material)
        try:
            p = derive_parameters(spec.material, FieldConfig(B, E, a))
            bd = exchange_energy(
                p.b, p.d, p.c_coulomb, p.efield_ratio,
                energy_scale_mev=spec.material.confinement_energy,
            )
        except (SingularConfigurationError, InvalidParameterError):
            rows.append(SweepRow(x, math.nan, None, math.nan, math.nan, math.nan, singular=True))
            continue
        rows.append(SweepRow(x, bd.j_mev, bd, p.b, p.d, overlap(p.b, p.d)))
    return rows


def efield_switch_mp(mat, B, a_nm, lo, hi, width=1e-6):
    """The E-switch (V/m) of J in 50-digit arithmetic, by bisection of J's
    sign on [lo, hi] down to `width`; b, d and c are the program's floats.

    J = (coulomb + quartic + (3/2) chi^2 / d^2) / sinh(2 d^2 (2b - 1/b)),
    with chi = e E a / (hbar omega_0) = E a / (hbar omega_0 / e).
    """
    from mpmath import mp, mpf

    p = derive_parameters(mat, FieldConfig(B, 0.0, a_nm))
    with mp.workdps(50):
        b, d, c = (mpf(repr(v)) for v in (p.b, p.d, p.c_coulomb))
        volts = mpf(repr(mat.confinement_energy)) / 1000  # hbar omega_0 / e
        chi_per_field = mpf(repr(a_nm)) / 10**9 / volts
        d2 = d * d
        x1, x2 = b * d2, d2 * (b - 1 / b)

        def j(E):
            chi = mpf(repr(E)) * chi_per_field
            coulomb = c * mp.sqrt(b) * (
                mp.exp(-x1) * mp.besseli(0, x1) - mp.exp(x2) * mp.besseli(0, x2)
            )
            bracket = coulomb + mpf(3) / (4 * b) * (1 + x1) + mpf(3) / 2 * chi**2 / d2
            return bracket / mp.sinh(2 * d2 * (2 * b - 1 / b))

        j_lo = j(lo)
        assert j_lo * j(hi) < 0
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if (j(mid) > 0) == (j_lo > 0):
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


# Reference orbital and quadrature code.  The oracle sums its brackets as
# 1-D factors of a stacked Gauss-Hermite rule and its Coulomb pair on the
# half circle; the tests hold it against the pointwise integrands and the
# generic polar rules below, which share only the refinement loop with it.

# Polar radial domain, in Gaussian widths beyond the radius of peak mass
POLAR_DOMAIN_CUT = 8.0


def build_orbital(dot_index, mat, fields):
    """The oracle's orbital of dot 1 (well at -d) or dot 2 (well at +d)."""
    pt = _Point(mat, fields)
    return {1: pt.orb1, 2: pt.orb2}[dot_index]


def eval_orbital(orb, x, y):
    """Complex amplitude sqrt(b/pi) exp(i k y - (b/2) [(x - x_c)^2 + y^2]) of
    the orbital at (x, y); accepts arrays."""
    beta = orb.compression
    dx = x - orb.center_x
    phase = 1j * orb.phase_slope * y
    return math.sqrt(beta / math.pi) * np.exp(phase - 0.5 * beta * (dx * dx + y * y))


def apply_hamiltonian(orb, j, mat, fields):
    """Pointwise action of the single-well Hamiltonian j on the orbital.

    Because the orbital is exp(quadratic + linear imaginary), the kinetic
    term with the symmetric-gauge vector potential, the dipole term and
    the harmonic well all act as multiplication by a second-degree
    polynomial; the returned field is that polynomial times the orbital.
    """
    p = derive_parameters(mat, fields)
    lam = p.larmor / (p.fock_darwin / p.b)  # omega_L / omega_0
    fshift = p.efield_ratio / p.d
    s_well = {1: -p.d, 2: p.d}[j]
    beta = orb.compression

    def field(x, y):
        gx = -beta * (x - orb.center_x)
        gy = 1j * orb.phase_slope - beta * y
        kinetic = beta - 0.5 * (gx * gx + gy * gy)
        angular = -1j * lam * (x * gy - y * gx)
        diamagnetic = 0.5 * lam * lam * (x * x + y * y)
        dxw = x - s_well
        well = 0.5 * (dxw * dxw + y * y)
        return (kinetic + angular + diamagnetic + fshift * x + well) * eval_orbital(orb, x, y)

    return field


def orbital_norm(orb, quad=None):
    """Tensor Gauss-Hermite quadrature of the orbital density, as (value,
    error); the value should be 1."""
    density = lambda x, y: np.abs(eval_orbital(orb, x, y)) ** 2  # noqa: E731
    scale = 1.0 / math.sqrt(orb.compression)
    return integrate_2d(density, quad, center=(orb.center_x, 0.0), scale=scale)


def polar_sample(g, n, r_max, with_l1, center=None):
    """(value, sum of |g|) of the order-n polar rule on the disc of radius
    r_max: Gauss-Legendre radii weighted by r, periodic trapezoid angles on
    the full circle.  g takes (x, y) around `center`, or (r, theta) if
    `center` is None; l1 is None unless `with_l1`."""
    r, wr_r = _polar_radii(n, r_max)
    theta = 2.0 * math.pi * np.arange(n) / n
    if center is None:
        vals = np.asarray(g(r[:, None], theta[None, :]))
    else:
        x = center[0] + r[:, None] * np.cos(theta)[None, :]
        y = center[1] + r[:, None] * np.sin(theta)[None, :]
        vals = np.asarray(g(x, y))
    vals = np.broadcast_to(vals, (n, n))
    weight = wr_r[:, None] * (2.0 * math.pi / n)
    value = complex(np.sum(weight * vals))
    return value, float(np.sum(weight * np.abs(vals))) if with_l1 else None


def integrate_polar_2d(f, quad=None, center=(0.0, 0.0), scale=1.0):
    """f(x, y) over the plane by the polar rule around `center`, refined as
    `integrate_2d` is; `scale` is the Gaussian width of f."""
    return _refine(
        lambda n, l1: polar_sample(f, n, POLAR_DOMAIN_CUT * scale, l1, center),
        _legendre_nodes,
        quad or QuadratureSpec(),
        "polar rule",
    )


def integrate_coulomb_relative(g, quad=None, scale=1.0, r_peak=0.0):
    """g(r, theta) * r over the polar plane, on the full circle of angles.

    Meant for Coulomb kernels: g may carry a 1/r singularity, which the
    polar Jacobian cancels (nodes never touch r = 0).  `scale` is the
    radial Gaussian width of g and `r_peak` a radius where its mass is
    concentrated; the radial domain ends at r_peak + 8 scale.  Failures
    carry the label of the oracle's half-circle Coulomb pair.
    """
    return _refine(
        lambda n, l1: polar_sample(g, n, r_peak + POLAR_DOMAIN_CUT * scale, l1),
        _legendre_nodes,
        quad or QuadratureSpec(rel_tol=1e-8),
        "polar Coulomb rule",
    )
