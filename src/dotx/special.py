"""Modified Bessel function I0 and the quadrature primitives.

Only what the exchange-energy formula and its numerical cross-check need:
I0 (plus its exponentially scaled variant), a tensor Gauss-Hermite rule
for Gaussian-times-polynomial integrands over the plane, and the
refinement loop of one integral, which `integrate_2d` and each of the
oracle's Coulomb trapezoid sums run, with the test by which it, and the
oracle's fixed-order brackets, accept a level.

All quadratures are deterministic: nodes are cached per order and sums
run in a fixed order, so identical inputs give bit-identical results.

Only the array functions and `integrate_2d` import numpy, when they are
called, so the scalar functions and the refinement loop run without it.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, NamedTuple

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


# Upper bound on the terms the series adds below the splice (the longest
# early-exit loop on [0, 7.5] stops at k = 20): past it a term can no longer
# change the rounded sum, so a fixed-length sum gives the same bits.
_I0_SERIES_TERMS = 20

# The series' k^2 as floats: a division by one has the bits of one by int k * k.
_K_SQUARED = tuple(float(k * k) for k in range(1, _I0_SERIES_TERMS + 1))


def _i0_series(x: float) -> float:
    # All terms positive, so the sum is benign at any argument; the term
    # recurrence t_k = t_{k-1} * (x^2/4) / k^2 stops at float convergence,
    # which it reaches within the table for every x up to the splice.
    q = 0.25 * x * x
    total = term = 1.0
    for k2 in _K_SQUARED:
        term *= q / k2
        updated = total + term
        if updated == total:
            break
        total = updated
    return total


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
    to negative arguments by evenness.  Past 709, where exp(x) leaves
    double range, exp(x/2) is applied twice; I0 itself overflows to inf
    near x ~ 713.99, where `bessel_i0e` still serves.
    """
    if math.isnan(x):
        raise InvalidArgumentError("bessel_i0 received NaN")
    x = abs(x)
    if x < _I0_SPLIT:
        return _i0_series(x)
    if x < 709.0:
        return math.exp(x) * _i0e_large(x)
    if x < 714.0:
        half = math.exp(0.5 * x)
        return half * (half * _i0e_large(x))  # inf past I0's own overflow
    return math.inf


def bessel_i0e(x: float) -> float:
    """Exponentially scaled variant exp(-|x|) * I0(x); never overflows."""
    if math.isnan(x):
        raise InvalidArgumentError("bessel_i0e received NaN")
    x = abs(x)
    if x < _I0_SPLIT:
        return math.exp(-x) * _i0_series(x)
    return _i0e_large(x)


def _i0e_pair(x1, x2):
    """(bessel_i0e(x1), bessel_i0e(x2)), bit for bit, for J's arguments
    x1 = b d^2 and x2 = d^2 (b - 1/b), with 0 <= |x2| <= x1 and no nan.

    Below the splice one loop advances both series and stops where x1's
    does.  By then no term of x2 can change its sum.  Where the two sums
    share a binade, x2's term is at most x1's, which is at most half an ulp.
    Where x2's sum lies in a lower binade, its term at x1's stop is below
    0.87 of its half ulp at each binade boundary under the splice, where it
    is largest (a test checks each).  Past that term the terms fall, as in
    `bessel_i0e_array`'s ratio argument, so adding them changes nothing."""
    if not x1 < _I0_SPLIT:
        return _i0e_large(x1), bessel_i0e(x2)
    x2 = abs(x2)
    q1 = 0.25 * x1 * x1
    q2 = 0.25 * x2 * x2
    total1 = term1 = total2 = term2 = 1.0
    for k2 in _K_SQUARED:
        term1 *= q1 / k2
        updated = total1 + term1
        if updated == total1:
            break
        total1 = updated
        term2 *= q2 / k2
        total2 += term2
    return math.exp(-x1) * total1, math.exp(-x2) * total2


def _i0e_array_pair(x1, x2):
    # `_i0e_pair`'s contract over arrays: one `bessel_i0e_array` call each,
    # so x2's series stops at its own length (a stacked call measured slower).
    return bessel_i0e_array(x1), bessel_i0e_array(x2)


def bessel_i0e_array(x: np.ndarray) -> np.ndarray:
    """`bessel_i0e` of each element of an array, taken as float64; numpy's
    exp in the series branch may move a value by an ulp or two from the
    scalar one.

    The series sums the terms of `_i0_series` for every element at once and
    ends at the first k where the term of the element with the largest q =
    x^2/4 is below 2^-55 of its sum, at most `_I0_SERIES_TERMS` terms.  That
    keeps the bits of the whole fixed-length sum: the ratio of the k-th term
    q^k/(k!)^2 to the sum up to it rises with q, so every element's term is
    below 2^-55 of its sum too.  A term that small is past the largest one
    (a largest term is at least 1/(k+1) of the sum), so q/(k+1)^2 < 1 and
    each later term is smaller still: under half an ulp of the sum, which
    adding it leaves as it is.  `_i0e_pair` relies on that last step for
    x2's terms past the one at which x1's series stops.
    """
    import numpy as np

    x = np.abs(np.asarray(x, dtype=np.float64))
    if np.isnan(x).any():
        raise InvalidArgumentError("bessel_i0e received NaN")
    small = x < _I0_SPLIT
    if small.all():  # an array below the splice is neither gathered nor scattered
        return _i0e_series_array(x)
    with np.errstate(over="ignore"):  # 2 pi x is inf near x = 1e308, as in float
        out = np.empty_like(x)
        out[~small] = _i0e_large(x[~small], np.sqrt)
    out[small] = _i0e_series_array(x[small])
    return out


def _i0e_series_array(x):
    # exp(-x) times `_i0_series` of a float64 array below the splice, to the
    # term at which `bessel_i0e_array` stops.
    import numpy as np

    q = 0.25 * x * x
    total = np.ones_like(x)
    term = np.ones_like(x)
    ratio = np.empty_like(x)
    for k2 in _K_SQUARED[:_series_length(float(q.max(initial=0.0)))]:
        term *= np.divide(q, k2, out=ratio)
        total += term
    total *= np.exp(-x, out=ratio)
    return total


def _series_length(q):
    # The terms the series of the largest q needs: its recurrence, in the
    # array's float operations, to the first term below 2^-55 of the sum.
    total = term = 1.0
    for n, k2 in enumerate(_K_SQUARED, 1):
        term *= q / k2
        total += term
        if term < 2.0**-55 * total:
            return n
    return _I0_SERIES_TERMS


# The oracle's Coulomb trapezoid sums reach 12x this order by their fourth
# round (1536 intervals from 128); integrate_2d's Gauss-Hermite rule stops
# earlier, at the first order float64 cannot hold (`_HERMITE_END`).
_MAX_ORDER = 128


class QuadratureSpec(NamedTuple):
    """Controls one refined quadrature, checked by `validate`, which
    `integrate_2d` and `assemble_oracle` call before they sample a node.

    order       first refinement level, an int 4..128: points per axis of
                `integrate_2d`'s tensor rule, and intervals of the oracle's
                Coulomb trapezoid sums on [0, pi/2]
    rel_tol     target relative error (against the integral of |f|); the
                oracle's fixed-order brackets are accepted against it too
    """

    order: int = 64
    rel_tol: float = 1e-10

    def validate(self):
        if not isinstance(self.order, int) or isinstance(self.order, bool):
            raise InvalidArgumentError(f"quadrature order must be an integer, got {self.order!r}")
        if self.order < 4:
            raise InvalidArgumentError("quadrature order must be >= 4")
        if self.order > _MAX_ORDER:
            raise InvalidArgumentError(f"quadrature order must be <= {_MAX_ORDER}")
        if not (0.0 < self.rel_tol < 1.0):
            raise InvalidArgumentError("rel_tol must lie in (0, 1)")


# numpy's Gauss-Hermite weights all underflow to 0 at this order and turn
# nan above it; every lower order gives finite nodes and positive weights.
_HERMITE_END = 371


@functools.cache
def _hermite_nodes(n: int):
    """Nodes and de-weighted weights of the order-n Gauss-Hermite rule, or
    None from order `_HERMITE_END` on, where float64 cannot hold them."""
    if n >= _HERMITE_END:
        return None
    import numpy as np

    t, w = np.polynomial.hermite.hermgauss(n)
    # Fold the exp(t^2) de-weighting into the weights via logs so very
    # high orders do not overflow intermediate factors.
    return t, np.exp(np.log(w) + t * t)


def _gauss_hermite_sample(f, n, center, scale, with_l1):
    """(value, sum of |f|) of the order-n tensor rule; l1 is None unless
    `with_l1`."""
    import numpy as np

    t, w = _hermite_nodes(n)
    weight = w[:, None] * w[None, :]
    x = center[0] + scale * t[:, None]
    y = center[1] + scale * t[None, :]
    # An integrand past the float range samples to inf or nan, which fails
    # the error test: the QuadratureError reports it, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.broadcast_to(np.asarray(f(x, y)), (n, n))
        value = complex(np.sum(weight * vals)) * scale * scale
        if not with_l1:
            return value, None
        return value, float(np.sum(weight * np.abs(vals))) * scale * scale


def _compare_levels(v_lo, v_hi, l1, rel_tol):
    """The higher of two levels as (value, error), and whether the error
    certifies it: the change between the levels, floored at the roundoff
    16 eps of the sum of |f| `l1`, within rel_tol of the larger of |value|
    and l1.  A value with no imaginary part is returned as a float."""
    # hypot, unlike complex abs, gives inf past the float range instead of raising
    diff = math.hypot(v_hi.real - v_lo.real, v_hi.imag - v_lo.imag)
    err = max(diff, 16.0 * _EPS * l1)
    value = v_hi.real if v_hi.imag == 0.0 else v_hi
    # a bound past the float range certifies nothing
    return (value, err), err <= rel_tol * max(math.hypot(v_hi.real, v_hi.imag), l1) < math.inf


def _refine(sample, nodes, spec: QuadratureSpec, label: str):
    """Refine one integral at increasing order until `_compare_levels`
    certifies a round; returns (value, error), or the QuadratureError.

    Round k samples orders n = spec.order * 2^k and n_hi = n + max(2, n // 2)
    by `sample(n, with_l1)`, which gives (value, l1), l1 the sum of |f| or
    None unless `with_l1`, taken on n_hi only.  A round at an order for which
    `nodes` has no rule is not sampled: its QuadratureError carries the last
    sampled level.  Past the last round it names the last order sampled.
    """
    n = spec.order
    result = (None, None)
    for _ in range(4):
        n_hi = n + max(2, n // 2)
        if nodes(n) is None or nodes(n_hi) is None:
            n_bad = n if nodes(n) is None else n_hi
            reason = f": no rule of order {n_bad} with finite nodes and positive weights"
            break
        (v_lo, _), (v_hi, l1) = sample(n, False), sample(n_hi, True)
        result, converged = _compare_levels(v_lo, v_hi, l1, spec.rel_tol)
        if converged:
            return result
        n *= 2
    else:
        reason = f" by order {n_hi}"
    message = f"{label} did not converge to rel_tol={spec.rel_tol}{reason}"
    return QuadratureError(message, value=result[0], error_estimate=result[1])


def integrate_2d(f, spec: QuadratureSpec | None = None, center=(0.0, 0.0), scale=1.0):
    """Integrate f(x, y) over the plane by the tensor Gauss-Hermite rule.

    The integrand must decay at least as fast as a Gaussian of width
    `scale` around `center`; those two hints let the rule place its nodes.
    Returns (value, error_estimate).  The estimate is the conservative
    change between two refinement levels, floored at roundoff of the
    integral of |f|.
    """
    spec = spec or QuadratureSpec()
    spec.validate()
    sample = lambda n, l1: _gauss_hermite_sample(f, n, center, scale, l1)  # noqa: E731
    result = _refine(sample, _hermite_nodes, spec, "integrate_2d")
    if isinstance(result, QuadratureError):
        raise result
    return result
