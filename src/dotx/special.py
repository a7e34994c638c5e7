"""Modified Bessel function I0 and the 2D quadrature primitives.

Only what the exchange-energy formula and its numerical cross-check need:
I0 (plus its exponentially scaled variant), a tensor Gauss-Hermite rule
for Gaussian-times-polynomial integrands over the plane, the refinement
loop the oracle drives its integrals with, and the Gauss-Legendre radii of
its polar Coulomb rule, whose Jacobian cancels the kernels' 1/r.

All quadratures are deterministic: nodes are cached per order and sums
run in a fixed order, so identical inputs give bit-identical results.

Only the array functions and the quadratures import numpy, when they are
called, so the scalar functions run without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidArgumentError, QuadratureError

if TYPE_CHECKING:
    import numpy as np

_EPS = sys.float_info.epsilon

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


# Upper bound on the terms `_i0_series` adds below the splice (the longest
# loop on [0, 7.5) stops at k = 20): past it a term can no longer change
# the rounded sum, so a fixed-length sum gives the same bits.
_I0_SERIES_TERMS = 20


def _i0e_large(x, sqrt=math.sqrt):
    # Clenshaw evaluation of the fitted expansion in 7.5/x; the same
    # operations serve a float and (with sqrt=np.sqrt) an array.
    u = 2.0 * (_I0_SPLIT / x) - 1.0
    b1 = b2 = 0.0
    for coef in reversed(_I0_LARGE_CHEB[1:]):
        b1, b2 = 2.0 * u * b1 - b2 + coef, b1
    poly = u * b1 - b2 + _I0_LARGE_CHEB[0]
    return poly / sqrt(2.0 * math.pi * x)


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


def bessel_i0e_array(x: np.ndarray) -> np.ndarray:
    """`bessel_i0e` of each element of a 1-D float array; numpy's exp in the
    series branch may move a value by an ulp or two from the scalar one."""
    import numpy as np

    if np.isnan(x).any():
        raise InvalidArgumentError("bessel_i0e received NaN")
    x = np.abs(x)
    out = np.empty_like(x)
    small = x < _I0_SPLIT
    xs, xl = x[small], x[~small]
    if xs.size:  # each branch runs only on a non-empty part
        q = 0.25 * xs * xs
        total = np.ones_like(xs)
        term = np.ones_like(xs)
        for k in range(1, _I0_SERIES_TERMS + 1):
            term *= q / (k * k)
            total += term
        out[small] = np.exp(-xs) * total
    if xl.size:
        with np.errstate(over="ignore"):  # 2 pi x is inf near x = 1e308, as in float
            out[~small] = _i0e_large(xl, np.sqrt)
    return out


# The oracle's polar Coulomb rule samples up to 12x this order on its
# radii and 6x on its half circle of angles, so 128 already means
# 1536 x 769 nodes (about 9 MB per float array).  The Gauss-Hermite rule
# stops earlier, at the first order float64 cannot hold (371 with numpy's
# rule, see `_hermite_nodes`); the oracle's brackets sum its 1-D factors,
# so its n^2 arrays stay small.
_MAX_ORDER = 128


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls one family of 2D integrals.

    order       points per axis at the first refinement level, an int 4..128
    rel_tol     target relative error (against the integral of |f|)
    """

    order: int = 64
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.order, int) or isinstance(self.order, bool):
            raise InvalidArgumentError(f"quadrature order must be an integer, got {self.order!r}")
        if self.order < 4:
            raise InvalidArgumentError("quadrature order must be >= 4")
        if self.order > _MAX_ORDER:
            raise InvalidArgumentError(f"quadrature order must be <= {_MAX_ORDER}")
        if not (0.0 < self.rel_tol < 1.0):
            raise InvalidArgumentError("rel_tol must lie in (0, 1)")


_hermite_cache: dict[int, tuple[np.ndarray, np.ndarray] | None] = {}
_legendre_cache: dict[int, tuple[np.ndarray, np.ndarray] | None] = {}


def _finite_rule(t, w):
    """(t, w), or None unless every node is finite and every weight finite
    and positive, as a Gauss rule's weights are."""
    import numpy as np

    return (t, w) if np.isfinite(t).all() and ((0.0 < w) & (w < np.inf)).all() else None


def _hermite_nodes(n: int):
    """Nodes and de-weighted weights of the order-n Gauss-Hermite rule, or
    None where float64 cannot hold them: numpy's weights all underflow to 0
    at n = 371 and turn nan from n = 372."""
    if n not in _hermite_cache:
        import numpy as np

        with np.errstate(all="ignore"):  # the finiteness check below decides
            t, w = np.polynomial.hermite.hermgauss(n)
            # Fold the exp(t^2) de-weighting into the weights via logs so very
            # high orders do not overflow intermediate factors.
            _hermite_cache[n] = _finite_rule(t, np.exp(np.log(w) + t * t))
    return _hermite_cache[n]


def _legendre_nodes(n: int):
    """Gauss-Legendre nodes and weights of order n, or None where not finite."""
    if n not in _legendre_cache:
        import numpy as np

        with np.errstate(all="ignore"):
            _legendre_cache[n] = _finite_rule(*np.polynomial.legendre.leggauss(n))
    return _legendre_cache[n]


# Each sampler returns (value, l1) at order n, where l1 is the same rule's
# sum of |f|; with with_l1 false it skips that pass and l1 is None.


def _gauss_hermite_sample(f, n, center, scale, with_l1):
    import numpy as np

    t, w = _hermite_nodes(n)
    weight = w[:, None] * w[None, :]
    x = center[0] + scale * t[:, None]
    y = center[1] + scale * t[None, :]
    vals = np.broadcast_to(np.asarray(f(x, y)), (n, n))
    value = complex(np.sum(weight * vals)) * scale * scale
    if not with_l1:
        return value, None
    return value, float(np.sum(weight * np.abs(vals))) * scale * scale


# Radial truncation of the polar Coulomb rule, in units of the kernel's
# Gaussian width, beyond the radius where its mass peaks
_DOMAIN_CUT = 8.0


def _polar_radii(n, r_max):
    """Order-n Gauss-Legendre radii on [0, r_max], and their weights times r."""
    t, w = _legendre_nodes(n)
    r = 0.5 * r_max * (t + 1.0)
    return r, 0.5 * r_max * w * r


def _refine_many(sample, count, nodes, spec: QuadratureSpec, label: str):
    """Refine `count` integrals in lockstep at increasing order, each until the
    change between consecutive levels drops under rel_tol of its integrand
    mass; returns (value, error), or the QuadratureError, of each.

    `sample(n, with_l1, open_)` gives a (value, l1) pair per integral in
    `open_`, those not yet converged; l1 is the sum of |f|, on the higher
    level of each round only.  A round at an order for which `nodes` has no
    rule is not sampled: its QuadratureError carries the last sampled level.
    """
    import numpy as np

    n = spec.order
    results = [(None, None)] * count
    open_ = list(range(count))
    # An integrand past the float range samples to inf or nan, which fails
    # the error test: the QuadratureError reports it, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            n_hi = n + max(2, n // 2)
            if nodes(n) is None or nodes(n_hi) is None:
                n_bad = n if nodes(n) is None else n_hi
                reason = f": no rule of order {n_bad} with finite nodes and positive weights"
                break
            levels = zip(open_, sample(n, False, open_), sample(n_hi, True, open_))
            open_ = []
            for i, (v_lo, _), (v_hi, l1) in levels:
                # hypot, unlike complex abs, gives inf past the float range instead of raising
                diff = math.hypot(v_hi.real - v_lo.real, v_hi.imag - v_lo.imag)
                err = max(diff, 16.0 * _EPS * l1)
                results[i] = v_hi.real if v_hi.imag == 0.0 else v_hi, err
                # a bound past the float range certifies nothing
                if not err <= spec.rel_tol * max(math.hypot(v_hi.real, v_hi.imag), l1) < math.inf:
                    open_.append(i)
            if not open_:
                return results
            n *= 2
        else:
            reason = f" by order {n}"
    message = f"{label} did not converge to rel_tol={spec.rel_tol}{reason}"
    for i in open_:
        results[i] = QuadratureError(message, value=results[i][0], error_estimate=results[i][1])
    return results


def _refine(sample, nodes, spec: QuadratureSpec, label: str):
    """`_refine_many` of one integral, `sample(n, with_l1)`; raises on failure."""
    (result,) = _refine_many(lambda n, with_l1, _: [sample(n, with_l1)], 1, nodes, spec, label)
    if isinstance(result, QuadratureError):
        raise result
    return result


def integrate_2d(f, spec: QuadratureSpec | None = None, center=(0.0, 0.0), scale=1.0):
    """Integrate f(x, y) over the plane by the tensor Gauss-Hermite rule.

    The integrand must decay at least as fast as a Gaussian of width
    `scale` around `center`; those two hints let the rule place its nodes.
    Returns (value, error_estimate).  The estimate is the conservative
    change between two refinement levels, floored at roundoff of the
    integral of |f|.
    """
    return _refine(
        lambda n, l1: _gauss_hermite_sample(f, n, center, scale, l1),
        _hermite_nodes,
        spec or QuadratureSpec(),
        "integrate_2d",
    )
