import math

import numpy as np
import pytest

from dotx.errors import InvalidArgumentError, QuadratureError
from dotx.special import (
    QuadratureSpec,
    bessel_i0,
    bessel_i0e,
    integrate_2d,
    integrate_coulomb_relative,
)

from conftest import rel_err


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

    def test_polar_rule_gaussian(self):
        spec = QuadratureSpec(rule="adaptive_polar", order=64, rel_tol=1e-10)
        value, _ = integrate_2d(gaussian_density, spec)
        assert abs(value - 1.0) < 1e-9

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
        with pytest.raises(InvalidArgumentError):
            QuadratureSpec(domain_cut=1.0)
        with pytest.raises(InvalidArgumentError):
            QuadratureSpec(rule="monte_carlo")
        assert QuadratureSpec(order=128).order == 128
        with pytest.raises(InvalidArgumentError, match="order must be <= 128"):
            QuadratureSpec(order=129)


class TestCoulombRelative:
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
