import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dotx.oracle
import dotx.special
from dotx.errors import InvalidArgumentError, QuadratureError
from dotx.closed_form import _admits
from dotx.special import (  # noqa: the refinement loop and the I0e pair are internal, exercised directly
    _I0_SPLIT,
    QuadratureSpec,
    _hermite_nodes,
    _i0e_array_pair,
    _i0e_pair,
    _refine,
    bessel_i0,
    bessel_i0e,
    bessel_i0e_array,
    integrate_2d,
)
from dotx.units import GAAS, FieldConfig

from conftest import integrate_coulomb_relative, rel_err


def i0_series_loop(x):
    """The I0 power series as an open loop with int k * k divisors, as
    `special._i0_series` ran before its table: the reference for its bits."""
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


class TestBesselI0:
    @settings(derandomize=True, database=None, max_examples=2000, deadline=None)
    @given(st.floats(0.0, 7.5, exclude_max=True) | st.sampled_from([7.5, 1e-300, 5e-324]))
    def test_series_keeps_the_loop_bits(self, x):
        assert repr(dotx.special._i0_series(x)) == repr(i0_series_loop(x))

    def test_series_table_is_float_k_squared(self):
        table = dotx.special._K_SQUARED
        assert len(table) == dotx.special._I0_SERIES_TERMS
        assert all(type(k2) is float and k2 == k * k for k, k2 in enumerate(table, 1))

    def test_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_pinned_values(self, golden):
        for key, want in golden["bessel_i0"].items():
            assert rel_err(bessel_i0(float(key)), want) < 1e-13, key

    def test_even_extension(self):
        for x in (0.3, 2.0, 12.0):
            assert bessel_i0(-x) == bessel_i0(x)

    def test_finite_past_exp_overflow(self):
        # exp(x) leaves double range at 709.78, I0(x) only near 713.99
        from mpmath import besseli, mp

        with mp.workdps(30):
            for x in (709.0, 710.0, 712.0, 713.9):
                assert rel_err(bessel_i0(x), float(besseli(0, x))) <= 1e-13, x
                assert bessel_i0(-x) == bessel_i0(x)
        for x in (714.0, math.inf):
            assert bessel_i0(x) == bessel_i0(-x) == math.inf

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bessel_i0(math.nan)
        with pytest.raises(InvalidArgumentError):
            bessel_i0e(math.nan)

    def test_at_least_one(self):
        for x in np.linspace(0.0, 60.0, 601):
            assert bessel_i0(float(x)) >= 1.0

    def test_monotone_and_log_convex(self):
        xs = np.linspace(0.0, 40.0, 801)
        logs = np.array([math.log(bessel_i0(float(x))) for x in xs])
        assert np.all(np.diff(logs) > 0.0)
        # log-convexity: second differences of log I0 stay nonnegative
        assert np.all(np.diff(logs, 2) > -1e-12)

    def test_branch_splice(self):
        from dotx.special import _i0_series, _i0e_large

        series = _i0_series(7.5)
        expansion = math.exp(7.5) * _i0e_large(7.5)
        assert rel_err(series, expansion) < 1e-13

    def test_scaled_variant(self):
        for x in (0.0, 0.5, 5.0, 20.0, 120.0):
            assert rel_err(bessel_i0e(x), math.exp(-x) * bessel_i0(x) if x < 700 else 0) < 1e-12
        # far beyond exp overflow the scaled form keeps working
        x = 1e6
        leading = 1.0 / math.sqrt(2.0 * math.pi * x)
        assert rel_err(bessel_i0e(x), leading * (1.0 + 1.0 / (8.0 * x))) < 1e-9


def j_arguments(b, d):
    """I0e's two arguments at (b, d) as `closed_form._formula` forms them."""
    d2 = d * d
    return b * d2, d2 * (b - 1.0 / b)


def admitted(b, d):
    return _admits(b, d, 1.0, 0.0, math.isfinite) == (True,) * 8


# (b, d) points the accept rule admits: b on [1 - 1e-12, 1), where x2 < 0, and
# up to 1e12; d up to the splice and where d^2, and with it x1, is subnormal.
J_POINTS = st.tuples(
    st.floats(1.0 - 1e-12, 1.0, exclude_max=True) | st.floats(1.0, 50.0) | st.floats(50.0, 1e12),
    st.floats(0.0, 3.0) | st.floats(-162.0, -154.0).map(lambda t: 10.0**t),
).filter(lambda p: admitted(*p))

_BELOW, _ABOVE = math.nextafter(_I0_SPLIT, 0.0), math.nextafter(_I0_SPLIT, math.inf)

# (x1, x2) with 0 <= |x2| <= x1 at the splice: each side of it within an ulp,
# x1 >= 7.5 > |x2|, and both at or past 7.5.
SPLICE_PAIRS = st.tuples(
    st.sampled_from([_BELOW, _I0_SPLIT, _ABOVE]) | st.floats(_I0_SPLIT, 1e3),
    st.floats(-1e-12, 1.0) | st.sampled_from([1.0, 0.0, -1e-12]),
).map(lambda p: (p[0], p[0] * p[1])) | st.sampled_from(
    [(_ABOVE, _BELOW), (_I0_SPLIT, _BELOW), (_ABOVE, _I0_SPLIT), (_BELOW, -_BELOW),
     (_BELOW, 5e-324), (5e-324, 0.0), (5e-324, -5e-324), (1e-310, 0.0)]
)


def series_terms(x):
    """`_i0_series`' terms at x, the whole table's worth."""
    q, term, terms = 0.25 * x * x, 1.0, []
    for k2 in dotx.special._K_SQUARED:
        term *= q / k2
        terms.append(term)
    return terms


class TestI0ePair:
    """`_i0e_pair` has the bits of two `bessel_i0e` calls on J's arguments."""

    @settings(derandomize=True, database=None, max_examples=1500, deadline=None)
    @given(J_POINTS)
    def test_j_points(self, point):
        x1, x2 = j_arguments(*point)
        assert repr(_i0e_pair(x1, x2)) == repr((bessel_i0e(x1), bessel_i0e(x2)))

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(SPLICE_PAIRS)
    def test_splice_and_subnormal_pairs(self, pair):
        x1, x2 = pair
        assert abs(x2) <= x1
        assert repr(_i0e_pair(x1, x2)) == repr((bessel_i0e(x1), bessel_i0e(x2)))

    def test_drawn_points_reach_each_case(self):
        # Each case the first test is to cover is an admitted point of its strategy.
        negative, subnormal, below, across, past = (
            j_arguments(b, d)
            for b, d in [(1.0 - 1e-13, 0.8), (2.0, 1e-158), (3.0, 1.5), (1.2, 2.6), (1e4, 0.03)]
            if admitted(b, d)
        )
        assert negative[1] < 0.0 < subnormal[0] < sys.float_info.min
        assert abs(below[1]) <= below[0] < _I0_SPLIT
        assert across[1] < _I0_SPLIT <= across[0] and _I0_SPLIT <= past[1] <= past[0]
        for x1, x2 in (negative, subnormal, below, across, past):
            assert repr(_i0e_pair(x1, x2)) == repr((bessel_i0e(x1), bessel_i0e(x2)))

    def test_x1_stop_covers_x2_across_binades(self):
        # x2's series stops with x1's.  Where x2's sum lies in a lower binade
        # than x1's, x2's term at x1's stop is largest with x1 at the bottom of
        # its binade and x2 at the top of its own: below 0.87 of x2's half ulp
        # there, it is below it everywhere, and so are the falling terms after it.
        def reaching(e):  # the least x whose series sum is at least 2^e
            lo, hi = 0.0, _I0_SPLIT
            while math.nextafter(lo, hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if dotx.special._i0_series(mid) < 2.0**e else (lo, mid)
            return hi

        top = math.frexp(dotx.special._i0_series(_BELOW))[1] - 1  # the binade of I0(7.5-)
        assert top == 8
        for e1 in range(1, top + 1):
            stop = next(
                k for k, t in enumerate(series_terms(reaching(e1))) if t <= 2.0 ** (e1 - 53)
            )
            for e2 in range(e1):
                assert series_terms(reaching(e2 + 1))[stop] < 0.87 * 2.0 ** (e2 - 53), (e1, e2)

    @pytest.mark.parametrize(
        "x1, x2",
        [([0.0, 5e-324, 1.0, _BELOW, _I0_SPLIT, 40.0], [0.0, -5e-324, 0.5, _BELOW, 3.0, 39.0]),
         ([2.0, 3.0], [-1e-12, 1.5])],
    )
    def test_array_pair_is_two_array_calls(self, x1, x2):
        x1, x2 = np.array(x1), np.array(x2)
        got = _i0e_array_pair(x1, x2)
        want = bessel_i0e_array(x1), bessel_i0e_array(x2)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def gaussian_density(x, y):
    return np.exp(-0.5 * (x * x + y * y)) / (2.0 * math.pi)


class TestIntegrate2D:
    def test_gaussian_normalization(self):
        value, err = integrate_2d(gaussian_density)
        assert abs(value - 1.0) < 1e-10
        assert err < 1e-10

    def test_second_moment(self):
        value, _ = integrate_2d(lambda x, y: x * x * gaussian_density(x, y))
        assert abs(value - 1.0) < 1e-10

    def test_quartic_moment(self):
        # (x^2 - a^2)^2 against a unit Gaussian: 3 s^4 - 2 a^2 s^2 + a^4 = 2
        value, _ = integrate_2d(lambda x, y: (x * x - 1.0) ** 2 * gaussian_density(x, y))
        assert abs(value - 2.0) < 1e-9

    def test_offcenter_scaled(self):
        sigma = 0.35
        cx, cy = 3.0, -2.0

        def f(x, y):
            return np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma**2)) / (
                2 * math.pi * sigma**2
            )

        value, _ = integrate_2d(f, center=(cx, cy), scale=sigma)
        assert abs(value - 1.0) < 1e-10

    def test_deterministic(self):
        r1 = integrate_2d(lambda x, y: (1 + x * x + y**4) * gaussian_density(x, y))
        r2 = integrate_2d(lambda x, y: (1 + x * x + y**4) * gaussian_density(x, y))
        assert r1 == r2

    def test_error_estimate_never_grows_on_doubling(self):
        fams = [
            gaussian_density,
            lambda x, y: x * x * gaussian_density(x, y),
            lambda x, y: (x * x - 1.0) ** 2 * gaussian_density(x, y),
        ]
        for f in fams:
            errs = []
            for order in (8, 16, 32, 64):
                _, err = integrate_2d(f, QuadratureSpec(order=order, rel_tol=0.5))
                errs.append(err)
            for e1, e2 in zip(errs[:-1], errs[1:]):
                assert e2 <= e1 + 1e-30

    def test_complex_integrand(self):
        # exp(i k y) against a unit Gaussian has the exact transform value
        k = 1.7
        value, _ = integrate_2d(lambda x, y: np.exp(1j * k * y) * gaussian_density(x, y))
        assert abs(value - math.exp(-0.5 * k * k)) < 1e-12

    def test_nonconvergent_raises_with_best_estimate(self):
        spec = QuadratureSpec(order=4, rel_tol=1e-12)

        def wiggly(x, y):
            return np.cos(200.0 * y) * np.exp(-(x * x + y * y))

        with pytest.raises(QuadratureError) as excinfo:
            integrate_2d(wiggly, spec)
        assert excinfo.value.value is not None
        assert excinfo.value.error_estimate > 0.0

    def test_spec_validation(self, monkeypatch):
        # a spec is built unchecked, and checked where it is used, before any node
        cases = [
            (QuadratureSpec(order=2), "order must be >= 4"),
            (QuadratureSpec(rel_tol=0.0), "rel_tol must lie in"),
            (QuadratureSpec(order=129), "order must be <= 128"),
            # a non-integer order would reach numpy's node builders as a bare TypeError
            *((QuadratureSpec(order=order), "order must be an integer")
              for order in (8.0, 64.5, True, "64")),
        ]
        sampled = []
        for sampler in ("_x_moments", "_y_moments"):  # the bracket nodes
            monkeypatch.setattr(dotx.oracle, sampler, lambda *args: sampled.append(args))
        monkeypatch.setattr(dotx.oracle, "_sin_squared", sampled.append)
        singular = FieldConfig(B=1.0, E=0.0, a=0.0)  # its point raises when derived
        for spec, message in cases:
            with pytest.raises(InvalidArgumentError, match=message):
                spec.validate()
            with pytest.raises(InvalidArgumentError, match=message):
                integrate_2d(lambda x, y: sampled.append(x), spec)
            with pytest.raises(InvalidArgumentError, match=message):
                dotx.oracle.assemble_oracle(GAAS, singular, spec)
        assert sampled == []
        QuadratureSpec(order=128).validate()
        assert QuadratureSpec._fields == ("order", "rel_tol")


class TestRefinement:
    """The refinement loop on its own, with a scripted sampler."""

    @staticmethod
    def scripted(values, log):
        """A sampler of one integral; logs (order, |f| summed) per level."""

        def sample(n, with_l1):
            log.append((n, with_l1))
            return values(n), (1.0 if with_l1 else None)

        return sample

    @staticmethod
    def refine_one(sample, nodes, spec):
        return _refine(sample, nodes, spec, "scripted")

    def test_one_abs_pass_per_round(self):
        # one level at a time, |f| summed on each round's higher level only
        log = []
        sample = self.scripted(lambda n: complex(1.0 / n), log)
        result = self.refine_one(sample, lambda n: (), QuadratureSpec(order=8, rel_tol=1e-12))
        assert isinstance(result, QuadratureError)
        assert log == [(8, False), (12, True), (16, False), (24, True),
                       (32, False), (48, True), (64, False), (96, True)]
        # the last order sampled, not the next round's lower order
        assert str(result) == "scripted did not converge to rel_tol=1e-12 by order 96"
        assert result.value == 1.0 / 96

    def test_a_certified_round_ends_the_refinement(self):
        # a constant integral converges in the first round, keeping its value
        # and the roundoff floor 16 eps of its sum of |f| as the error
        log = []
        result = self.refine_one(self.scripted(lambda n: complex(1.0), log), lambda n: (),
                                 QuadratureSpec(order=8))
        assert log == [(8, False), (12, True)]
        assert result == (1.0, 16.0 * sys.float_info.epsilon)

    def test_stops_before_an_order_without_a_rule(self):
        # the round (32, 48) has no finite nodes: nothing is sampled there and
        # the error carries the value and error of the round before
        log = []
        sample = self.scripted(lambda n: complex(1.0 / n, 0.5 / n), log)
        nodes = lambda n: None if n >= 40 else ()  # noqa: E731
        result = self.refine_one(sample, nodes, QuadratureSpec(order=8, rel_tol=1e-12))
        assert isinstance(result, QuadratureError)
        assert "no rule of order 48 with finite nodes" in str(result)
        assert [n for n, _ in log] == [8, 12, 16, 24]
        assert result.value == complex(1.0 / 24, 0.5 / 24)
        assert result.error_estimate == abs(complex(1.0 / 24 - 1.0 / 16, 0.5 / 24 - 0.5 / 16))

    def test_difference_past_float_range_is_an_infinite_error(self):
        # complex abs raises OverflowError on a finite difference this large
        huge = complex(1.5e308, 1.5e308)
        sample = self.scripted(lambda n: huge if n % 3 == 0 else 0j, [])
        result = self.refine_one(sample, lambda n: (), QuadratureSpec(order=8))
        assert isinstance(result, QuadratureError)
        assert result.value == huge
        assert result.error_estimate == math.inf


class TestHermiteRule:
    def test_non_finite_orders_give_no_rule(self):
        for n in (4, 96, 192, 288, 370):
            t, w = _hermite_nodes(n)
            assert np.isfinite(t).all() and np.isfinite(w).all() and (w > 0.0).all()
        for n in (371, 372, 384, 768):  # all weights 0 at 371, some nan above
            assert _hermite_nodes(n) is None

    def test_no_rule_is_built_past_the_last_finite_order(self, monkeypatch):
        # numpy's rule of order 371 or more is not built only to be thrown away
        asked = []
        hermgauss = np.polynomial.hermite.hermgauss
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", lambda n: asked.append(n) or hermgauss(n))
        _hermite_nodes.cache_clear()
        try:
            for n in (370, 371, 384, 768):
                _hermite_nodes(n)
        finally:
            _hermite_nodes.cache_clear()
        assert asked == [370]

    def test_refinement_ends_at_the_last_finite_level(self, monkeypatch):
        # at order 128 the second round would need order 384
        orders = []
        sample = dotx.special._gauss_hermite_sample

        def counted(f, n, *args):
            orders.append(n)
            return sample(f, n, *args)

        monkeypatch.setattr(dotx.special, "_gauss_hermite_sample", counted)

        def wiggly(x, y):
            return np.cos(200.0 * y) * np.exp(-(x * x + y * y))

        with pytest.raises(QuadratureError, match="no rule of order 384 with finite nodes") as excinfo:
            integrate_2d(wiggly, QuadratureSpec(order=128, rel_tol=1e-12))
        assert orders == [128, 192]
        assert math.isfinite(excinfo.value.value) and math.isfinite(excinfo.value.error_estimate)


class TestCoulombRelative:
    """The reference full-circle polar Coulomb rule the oracle's half-circle
    pair is held against."""

    def test_gaussian_over_r(self, golden):
        value, err = integrate_coulomb_relative(lambda r, theta: np.exp(-r * r) / r)
        assert rel_err(value, golden["coulomb_polar_gauss_over_r"]) < 1e-10
        assert err < 1e-8

    def test_angle_independent_separates(self):
        g = lambda r, theta: np.exp(-2.0 * r * r) * (1.0 + 0.0 * theta)
        value, _ = integrate_coulomb_relative(g)
        radial = 1.0 / 4.0  # int_0^inf r exp(-2 r^2) dr
        assert rel_err(value, 2.0 * math.pi * radial) < 1e-10

    def test_decay_monotone_in_alpha(self):
        values = []
        for alpha in (1.0, 4.0, 16.0, 64.0):
            v, _ = integrate_coulomb_relative(
                lambda r, theta, a=alpha: np.exp(-a * r * r) / r,
                scale=1.0 / math.sqrt(alpha),
            )
            values.append(v)
        assert all(v2 < v1 for v1, v2 in zip(values[:-1], values[1:]))
        assert values[-1] < 0.8

    def test_oscillatory_kernel(self):
        # exp(-r^2) exp(i b r cos t) / r integrates to pi^(3/2) exp(-b^2/8) I0(b^2/8)
        beta = 1.3
        g = lambda r, theta: np.exp(-r * r) * np.exp(1j * beta * r * np.cos(theta)) / r
        value, _ = integrate_coulomb_relative(g)
        want = math.pi**1.5 * math.exp(-beta**2 / 8.0) * bessel_i0(beta**2 / 8.0)
        assert rel_err(abs(complex(value)), want) < 1e-9

    def test_deterministic(self):
        g = lambda r, theta: np.exp(-r * r) / r
        assert integrate_coulomb_relative(g) == integrate_coulomb_relative(g)
