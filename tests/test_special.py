import dataclasses
import math
import sys

import numpy as np
import pytest

import dotx.special
from dotx.errors import InvalidArgumentError, QuadratureError
from dotx.oracle import _Bracket, _Orbital, _stacked_sampler  # noqa: internal
from dotx.special import (  # noqa: the samplers are internal, compared directly
    QuadratureSpec,
    _gauss_hermite_sample,
    _hermite_nodes,
    _refine,
    _refine_many,
    bessel_i0,
    bessel_i0e,
    integrate_2d,
)

from conftest import integrate_coulomb_relative, rel_err


class TestBesselI0:
    def test_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_pinned_values(self, golden):
        for key, want in golden["bessel_i0"].items():
            assert rel_err(bessel_i0(float(key)), want) < 1e-13, key

    def test_even_extension(self):
        for x in (0.3, 2.0, 12.0):
            assert bessel_i0(-x) == bessel_i0(x)

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

    def test_spec_validation(self):
        with pytest.raises(InvalidArgumentError):
            QuadratureSpec(order=2)
        with pytest.raises(InvalidArgumentError):
            QuadratureSpec(rel_tol=0.0)
        assert QuadratureSpec(order=128).order == 128
        with pytest.raises(InvalidArgumentError, match="order must be <= 128"):
            QuadratureSpec(order=129)
        # a non-integer order would reach numpy's node builders as a bare TypeError
        for order in (8.0, 64.5, True, "64"):
            with pytest.raises(InvalidArgumentError, match="order must be an integer"):
                QuadratureSpec(order=order)
        assert tuple(f.name for f in dataclasses.fields(QuadratureSpec)) == ("order", "rel_tol")


class TestSeparableSample:
    """The oracle's stacked 1-D factored sum against the tensor sum it
    stands for, for a bracket with two orbitals of different centres and
    phase slopes, P = x^2 - 1 and a complex or zero Q.  The sum of |f| is a
    bound from 1-D sums: exact where Q = 0, never below the tensor sum."""

    @pytest.mark.parametrize("q_kind", ["complex", "zero"])
    @pytest.mark.parametrize("n", [8, 64, 96])
    def test_matches_tensor_sum(self, q_kind, n):
        bra = _Orbital(center_x=-0.3, compression=1.4, phase_slope=0.5)
        ket = _Orbital(center_x=0.5, compression=1.4, phase_slope=-0.8)
        q = (0.5, 0.2j, -0.3) if q_kind == "complex" else None
        sample = _stacked_sampler([(bra, ket)], [_Bracket(0, (1.0, 0.0, -1.0), q=q)])

        def product(x, y):
            x_factor = 1.4 / math.pi * np.exp(-0.7 * ((x + 0.3) ** 2 + (x - 0.5) ** 2))
            y_factor = np.exp(-1.3j * y - 1.4 * y * y)
            return x_factor * y_factor * (x * x - 1.0 + ((0.5 * y + 0.2j) * y - 0.3 if q else 0.0))

        center, scale = (0.1, 0.0), 1.0 / math.sqrt(1.4)
        [(value, l1)] = sample(n, True, [0])
        want, want_l1 = _gauss_hermite_sample(product, n, center, scale, True)
        assert abs(value - want) <= 1e-14 * want_l1
        if q:
            assert want_l1 < l1 < 2.0 * want_l1
        else:
            assert rel_err(l1, want_l1) < 1e-13
        assert sample(n, False, [0]) == [(value, None)]


class TestRefinement:
    """The refinement loop on its own, with a scripted sampler."""

    @staticmethod
    def scripted(values, log):
        def sample(n, with_l1):
            log.append((n, with_l1))
            return values(n), (1.0 if with_l1 else None)

        return sample

    def test_one_abs_pass_per_round(self):
        log = []
        sample = self.scripted(lambda n: complex(1.0 / n), log)
        with pytest.raises(QuadratureError):
            _refine(sample, lambda n: (), QuadratureSpec(order=8, rel_tol=1e-12), "scripted")
        assert log == [(8, False), (12, True), (16, False), (24, True),
                       (32, False), (48, True), (64, False), (96, True)]

    def test_converged_integral_is_not_sampled_again(self):
        # integral 0 converges in the first round and keeps that round's
        # value and error; integral 1 never converges
        log = []

        def sample(n, with_l1, open_):
            log.append((n, list(open_)))
            values = {0: complex(1.0), 1: complex(1.0 / n)}
            return [(values[i], 1.0 if with_l1 else None) for i in open_]

        first, second = _refine_many(sample, 2, lambda n: (), QuadratureSpec(order=8), "scripted")
        assert log == [(8, [0, 1]), (12, [0, 1]), (16, [1]), (24, [1]), (32, [1]), (48, [1]),
                       (64, [1]), (96, [1])]
        assert first == (1.0, 16.0 * sys.float_info.epsilon)
        assert isinstance(second, QuadratureError) and second.value == 1.0 / 96

    def test_stops_before_an_order_without_a_rule(self):
        # the round (32, 48) has no finite nodes: nothing is sampled there and
        # the error carries the value and error of the round before
        log = []
        sample = self.scripted(lambda n: complex(1.0 / n, 0.5 / n), log)
        nodes = lambda n: None if n >= 40 else ()  # noqa: E731
        with pytest.raises(QuadratureError, match="no rule of order 48 with finite nodes") as excinfo:
            _refine(sample, nodes, QuadratureSpec(order=8, rel_tol=1e-12), "scripted")
        assert [n for n, _ in log] == [8, 12, 16, 24]
        assert excinfo.value.value == complex(1.0 / 24, 0.5 / 24)
        assert excinfo.value.error_estimate == abs(complex(1.0 / 24 - 1.0 / 16, 0.5 / 24 - 0.5 / 16))

    def test_difference_past_float_range_is_an_infinite_error(self):
        # complex abs raises OverflowError on a finite difference this large
        huge = complex(1.5e308, 1.5e308)
        sample = self.scripted(lambda n: huge if n % 3 == 0 else 0j, [])
        with pytest.raises(QuadratureError) as excinfo:
            _refine(sample, lambda n: (), QuadratureSpec(order=8), "scripted")
        assert excinfo.value.value == huge
        assert excinfo.value.error_estimate == math.inf


class TestHermiteRule:
    def test_non_finite_orders_give_no_rule(self):
        for n in (4, 96, 192, 288, 370):
            t, w = _hermite_nodes(n)
            assert np.isfinite(t).all() and np.isfinite(w).all() and (w > 0.0).all()
        for n in (371, 372, 384, 768):  # all weights 0 at 371, some nan above
            assert _hermite_nodes(n) is None

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
