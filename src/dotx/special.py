"""Modified Bessel function I0 and the 2D quadrature primitives.

Only what the exchange-energy formula and its numerical cross-check need:
I0 (plus its exponentially scaled variant), a tensor Gauss-Hermite rule
for Gaussian-times-polynomial integrands over the plane, and a polar rule
for Coulomb kernels whose 1/r singularity is cancelled by the Jacobian.

All quadratures are deterministic: nodes are cached per order and sums
run in a fixed order, so identical inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, QuadratureError

_EPS = float(np.finfo(float).eps)

# Splice point between the power series and the large-argument expansion.
_I0_SPLIT = 7.5

# Chebyshev coefficients (Clenshaw form, variable u = 2*(7.5/x) - 1) of
# f(t) = sqrt(2 pi x) exp(-x) I0(x) with t = 7.5/x, valid for x >= 7.5.
# Derived from an extended-precision series evaluation; max relative error
# of the reconstructed I0 is below 1e-15 on [7.5, inf).
_I0_LARGE_CHEB = (
    1.0088696640788999,
    9.061375058741961e-03,
    2.0026543292369153e-04,
    9.205112464599046e-06,
    7.281065809837760e-07,
    8.956148480293904e-08,
    1.377694644886208e-08,
    1.598189253389968e-09,
    -2.242621048758002e-10,
    -2.152947543099295e-10,
    -5.913750938545176e-11,
    9.932169551759627e-13,
    6.256608310702987e-12,
    1.464151740235879e-12,
    -3.985724247962167e-13,
    -2.516713600641390e-13,
    1.123417057461181e-14,
    3.494146521498432e-14,
    1.999552089009900e-15,
    -4.884481340656640e-15,
    -5.521421243296771e-16,
    7.384672149813298e-16,
    9.255863080583429e-17,
    -1.224994747179527e-16,
    -1.122444567881939e-17,
    2.180803776656082e-17,
    3.647492107379136e-19,
    -3.989085928643835e-18,
    3.730914097355119e-19,
    7.075967102270992e-19,
    -1.739646498906607e-19,
    -1.114472193406838e-19,
)


def _i0_series(x: float) -> float:
    # All terms positive, so the sum is benign at any argument; the term
    # recurrence t_k = t_{k-1} * (x^2/4) / k^2 stops at float convergence.
    q = 0.25 * x * x
    total = term = 1.0
    k = 0
    while True:
        k += 1
        term *= q / (k * k)
        updated = total + term
        if updated == total:
            return total
        total = updated


def _i0e_large(x: float) -> float:
    # Clenshaw evaluation of the fitted expansion in 7.5/x.
    u = 2.0 * (_I0_SPLIT / x) - 1.0
    b1 = b2 = 0.0
    for coef in reversed(_I0_LARGE_CHEB[1:]):
        b1, b2 = 2.0 * u * b1 - b2 + coef, b1
    poly = u * b1 - b2 + _I0_LARGE_CHEB[0]
    return poly / math.sqrt(2.0 * math.pi * x)


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series below 7.5, fitted inverse-argument expansion above;
    the two branches agree at the splice to machine precision.  Extended
    to negative arguments by evenness.  Overflows to inf near x ~ 710,
    where exp(x) leaves double range; use `bessel_i0e` there.
    """
    if math.isnan(x):
        raise InvalidArgumentError("bessel_i0 received NaN")
    x = abs(x)
    if x < _I0_SPLIT:
        return _i0_series(x)
    return math.exp(x) * _i0e_large(x) if x < 709.0 else math.inf


def bessel_i0e(x: float) -> float:
    """Exponentially scaled variant exp(-|x|) * I0(x); never overflows."""
    if math.isnan(x):
        raise InvalidArgumentError("bessel_i0e received NaN")
    x = abs(x)
    if x < _I0_SPLIT:
        return math.exp(-x) * _i0_series(x)
    return _i0e_large(x)


# Refinement samples up to 12x this order per axis, so 128 already means
# 1536^2 complex nodes (about 38 MB per array).
_MAX_ORDER = 128


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls one family of 2D integrals.

    rule        "tensor_gauss_hermite" or "adaptive_polar"
    order       points per axis at the first refinement level, 4..128
    rel_tol     target relative error (against the integral of |f|)
    domain_cut  truncation radius in units of the Gaussian width
    """

    rule: str = "tensor_gauss_hermite"
    order: int = 64
    rel_tol: float = 1e-10
    domain_cut: float = 8.0

    def __post_init__(self):
        if self.rule not in ("tensor_gauss_hermite", "adaptive_polar"):
            raise InvalidArgumentError(f"unknown quadrature rule {self.rule!r}")
        if self.order < 4:
            raise InvalidArgumentError("quadrature order must be >= 4")
        if self.order > _MAX_ORDER:
            raise InvalidArgumentError(f"quadrature order must be <= {_MAX_ORDER}")
        if not (0.0 < self.rel_tol < 1.0):
            raise InvalidArgumentError("rel_tol must lie in (0, 1)")
        if self.domain_cut < 4.0:
            raise InvalidArgumentError("domain_cut must be >= 4")


_hermite_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_legendre_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _hermite_nodes(n: int):
    if n not in _hermite_cache:
        t, w = np.polynomial.hermite.hermgauss(n)
        # Fold the exp(t^2) de-weighting into the weights via logs so very
        # high orders do not overflow intermediate factors; keep the tensor
        # weight matrix that every 2D sample of this order uses.
        w = np.exp(np.log(w) + t * t)
        _hermite_cache[n] = (t, w[:, None] * w[None, :])
    return _hermite_cache[n]


def _legendre_nodes(n: int):
    if n not in _legendre_cache:
        _legendre_cache[n] = np.polynomial.legendre.leggauss(n)
    return _legendre_cache[n]


def _gauss_hermite_sample(f, n, center, scale):
    t, weight = _hermite_nodes(n)
    x = center[0] + scale * t[:, None]
    y = center[1] + scale * t[None, :]
    vals = np.broadcast_to(np.asarray(f(x, y)), (n, n))
    value = complex(np.sum(weight * vals)) * scale * scale
    l1 = float(np.sum(weight * np.abs(vals))) * scale * scale
    return value, l1


def _polar_sample(g, n, scale, r_peak, domain_cut, center=None, cartesian=False):
    r_max = r_peak + domain_cut * scale
    t, w = _legendre_nodes(n)
    r = 0.5 * r_max * (t + 1.0)
    wr = 0.5 * r_max * w
    theta = 2.0 * math.pi * np.arange(n) / n  # periodic trapezoid
    wt = 2.0 * math.pi / n
    if cartesian:
        x = center[0] + r[:, None] * np.cos(theta)[None, :]
        y = center[1] + r[:, None] * np.sin(theta)[None, :]
        vals = np.asarray(g(x, y))
    else:
        vals = np.asarray(g(r[:, None], theta[None, :]))
    vals = np.broadcast_to(vals, (len(r), len(theta)))
    weight = (wr * r)[:, None] * wt  # Jacobian r cancels a 1/r singularity
    value = complex(np.sum(weight * vals))
    l1 = float(np.sum(weight * np.abs(vals)))
    return value, l1


def _refine(sample, spec: QuadratureSpec, label: str):
    """Run `sample(order)` at increasing order until the change between
    consecutive levels drops under rel_tol of the integrand mass."""
    n = spec.order
    for _ in range(4):
        v_lo, _ = sample(n)
        v_hi, l1 = sample(n + max(2, n // 2))
        err = max(abs(v_hi - v_lo), 16.0 * _EPS * l1)
        if err <= spec.rel_tol * max(abs(v_hi), l1):
            value = v_hi if isinstance(v_hi, complex) else complex(v_hi)
            return (value.real if value.imag == 0.0 else value), err
        n *= 2
    raise QuadratureError(
        f"{label} did not converge to rel_tol={spec.rel_tol} by order {n}",
        value=(v_hi.real if v_hi.imag == 0.0 else v_hi),
        error_estimate=err,
    )


def integrate_2d(f, spec: QuadratureSpec | None = None, center=(0.0, 0.0), scale=1.0):
    """Integrate f(x, y) over the plane.

    The integrand must decay at least as fast as a Gaussian of width
    `scale` around `center`; those two hints let the rule place its nodes.
    Returns (value, error_estimate).  The estimate is the conservative
    change between two refinement levels, floored at roundoff of the
    integral of |f|.
    """
    spec = spec or QuadratureSpec()
    if spec.rule == "tensor_gauss_hermite":
        return _refine(lambda n: _gauss_hermite_sample(f, n, center, scale), spec, "integrate_2d")
    return _refine(
        lambda n: _polar_sample(f, n, scale, 0.0, spec.domain_cut, center=center, cartesian=True),
        spec,
        "integrate_2d",
    )


def integrate_coulomb_relative(g, spec: QuadratureSpec | None = None, scale=1.0, r_peak=0.0):
    """Integrate g(r, theta) * r over the polar plane.

    Meant for Coulomb kernels: g may carry a 1/r singularity, which the
    polar Jacobian cancels (nodes never touch r = 0).  `scale` is the
    radial Gaussian width of g and `r_peak` an optional radius where the
    integrand mass is concentrated; the radial domain is truncated at
    r_peak + domain_cut * scale.
    """
    spec = spec or QuadratureSpec(rule="adaptive_polar", rel_tol=1e-8)
    return _refine(
        lambda n: _polar_sample(g, n, scale, r_peak, spec.domain_cut),
        spec,
        "integrate_coulomb_relative",
    )
