import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

import dotx.oracle
from dotx.closed_form import exchange_energy_lab, overlap
from dotx.errors import QuadratureError, SingularConfigurationError
from dotx.oracle import assemble_oracle
import dotx.special
from dotx.oracle import _Point, _brackets, _coulomb, _sum_elements  # noqa: internal, exercised directly
from dotx.special import QuadratureSpec, integrate_2d
from dotx.units import FieldConfig, bohr_radius_nm, derive_parameters

from conftest import (
    apply_hamiltonian,
    build_orbital,
    eval_orbital,
    integrate_coulomb_relative,
    integrate_polar_2d,
    orbital_norm,
    rel_err,
)

POLAR = QuadratureSpec(rel_tol=1e-10)


@pytest.fixture()
def fields_1t(gaas):
    return FieldConfig(B=1.0, E=0.0, a=0.7 * bohr_radius_nm(gaas))


def bracket(mat, fields, label, quad=None):
    """The point's single-particle bracket `label` as (value, error); A is
    dot 1's orbital and B dot 2's."""
    return _brackets(_Point(mat, fields), quad or QuadratureSpec(), [label])[label]


def overlap_estimate(mat, fields, quad=None):
    """The numerical overlap S as (value, error), summed as the oracle sums it."""
    res = _brackets(_Point(mat, fields), quad or QuadratureSpec(), ["overlap"])
    return _sum_elements(res, ["overlap"], [])


def coulomb_terms(mat, fields):
    """(u3, u4) integrated on their own, with the oracle's default rule."""
    return _coulomb(_Point(mat, fields), dotx.oracle._DEFAULT_COULOMB, [])


class TestOrbitals:
    def test_zero_field_spec(self, gaas, gaas_fields):
        orb = build_orbital(1, gaas, gaas_fields)
        assert orb.phase_slope == 0.0
        assert orb.compression == 1.0  # m omega_0 / hbar in Bohr-radius units
        assert math.isclose(orb.center_x, -0.7, rel_tol=1e-14)

    def test_centers_mirror_at_zero_efield(self, gaas, fields_1t):
        o1 = build_orbital(1, gaas, fields_1t)
        o2 = build_orbital(2, gaas, fields_1t)
        assert o1.center_x == -o2.center_x
        assert o1.phase_slope == -o2.phase_slope

    def test_phase_slope_magnitude(self, gaas, fields_1t):
        # |k| = lambda * d, the momentum translation e B a / (2 hbar) in
        # Bohr-radius units
        p = derive_parameters(gaas, fields_1t)
        lam = math.sqrt(p.b**2 - 1.0)
        o1 = build_orbital(1, gaas, fields_1t)
        assert rel_err(abs(o1.phase_slope), lam * p.d) < 1e-12
        assert o1.phase_slope > 0.0

    def test_efield_shifts_both_centers_together(self, gaas, gaas_fields):
        shifted = replace(gaas_fields, E=5e5)
        p = derive_parameters(gaas, shifted)
        o1 = build_orbital(1, gaas, shifted)
        o2 = build_orbital(2, gaas, shifted)
        f = p.efield_ratio / p.d
        assert rel_err(o1.center_x, -p.d - f) < 1e-12
        assert rel_err(o2.center_x, p.d - f) < 1e-12

    def test_peak_modulus(self, gaas, fields_1t):
        orb = build_orbital(1, gaas, fields_1t)
        peak = abs(eval_orbital(orb, orb.center_x, 0.0))
        assert rel_err(peak, math.sqrt(orb.compression / math.pi)) < 1e-14

    def test_modulus_independent_of_phase(self, gaas, fields_1t):
        orb = build_orbital(1, gaas, fields_1t)
        flat = replace(orb, phase_slope=0.0)
        xs = np.linspace(-2.0, 2.0, 7)
        for x in xs:
            for y in xs:
                assert rel_err(
                    abs(eval_orbital(orb, x, y)), abs(eval_orbital(flat, x, y))
                ) < 1e-14

    def test_phase_linear_in_y(self, gaas, fields_1t):
        orb = build_orbital(1, gaas, fields_1t)
        for x, y in [(0.0, 0.5), (-1.0, 1.3), (0.4, -2.0)]:
            dphi = cmath.phase(eval_orbital(orb, x, y)) - cmath.phase(
                eval_orbital(orb, x, 0.0)
            )
            dphi = (dphi + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(dphi - orb.phase_slope * y) < 1e-12

    @pytest.mark.parametrize("B,E", [(0.0, 0.0), (1.0, 0.0), (2.0, 5e5), (3.0, -2e5)])
    def test_normalization(self, gaas, B, E):
        fields = FieldConfig(B=B, E=E, a=0.7 * bohr_radius_nm(gaas))
        for idx in (1, 2):
            value, _ = orbital_norm(build_orbital(idx, gaas, fields))
            assert abs(value - 1.0) < 1e-8


class TestHamiltonian:
    def test_ground_state_pointwise_zero_field(self, gaas, gaas_fields):
        orb = build_orbital(1, gaas, gaas_fields)
        h = apply_hamiltonian(orb, 1, gaas, gaas_fields)
        for x, y in [(-0.7, 0.0), (0.0, 0.5), (-1.5, -0.8)]:
            ratio = complex(h(x, y)) / complex(eval_orbital(orb, x, y))
            assert abs(ratio - 1.0) < 1e-10  # energy is one confinement quantum

    def test_ground_state_pointwise_with_field(self, gaas, fields_1t):
        p = derive_parameters(gaas, fields_1t)
        orb = build_orbital(2, gaas, fields_1t)
        h = apply_hamiltonian(orb, 2, gaas, fields_1t)
        for x, y in [(0.7, 0.0), (0.2, 0.9), (1.4, -0.3)]:
            ratio = complex(h(x, y)) / complex(eval_orbital(orb, x, y))
            assert abs(ratio - p.b) < 1e-10  # Fock-Darwin ground level

    def test_expectation_values(self, gaas, gaas_fields, fields_1t):
        value, _ = bracket(gaas, gaas_fields, "u1 <A|H1|A>")
        assert rel_err(complex(value).real, 1.0) < 1e-8
        p = derive_parameters(gaas, fields_1t)
        value, _ = bracket(gaas, fields_1t, "u1 <A|H1|A>")
        assert rel_err(complex(value).real, p.b) < 1e-8

    def test_finite_difference_cross_check(self, gaas, fields_1t):
        """Derivative terms re-derived by extended-precision central
        differences at 1e-6 step; agreement well under 1e-5 relative."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        fields = replace(fields_1t, E=3e5)
        p = derive_parameters(gaas, fields)
        orb = build_orbital(1, gaas, fields)
        h_field = apply_hamiltonian(orb, 1, gaas, fields)

        beta = mp.mpf(repr(orb.compression))
        k = mp.mpf(repr(orb.phase_slope))
        x0 = mp.mpf(repr(orb.center_x))
        lam = mp.sqrt(mp.mpf(repr(p.b)) ** 2 - 1)
        fsh = mp.mpf(repr(p.efield_ratio)) / mp.mpf(repr(p.d))
        d = mp.mpf(repr(p.d))
        step = mp.mpf("1e-6")

        def phi(x, y):
            return mp.sqrt(beta / mp.pi) * mp.e ** (
                1j * k * y - beta / 2 * ((x - x0) ** 2 + y * y)
            )

        def h_phi_fd(x, y):
            x, y = mp.mpf(repr(x)), mp.mpf(repr(y))
            lap = (
                phi(x + step, y)
                + phi(x - step, y)
                + phi(x, y + step)
                + phi(x, y - step)
                - 4 * phi(x, y)
            ) / (step * step)
            px = -1j * (phi(x + step, y) - phi(x - step, y)) / (2 * step)
            py = -1j * (phi(x, y + step) - phi(x, y - step)) / (2 * step)
            potential = (
                lam * lam * (x * x + y * y) / 2
                + fsh * x
                + ((x + d) ** 2 + y * y) / 2  # dot 1 well
            )
            return -lap / 2 + lam * (x * py - y * px) + potential * phi(x, y)

        for x, y in [(-0.9, 0.2), (0.1, -0.6), (-1.8, 1.1)]:
            want = complex(h_phi_fd(x, y))
            got = complex(h_field(x, y))
            assert abs(got - want) / abs(want) < 1e-5

    def test_hermitian_cross_elements(self, gaas, fields_1t):
        ab, err_ab = bracket(gaas, fields_1t, "u2 <A|H1|B>")
        ba, err_ba = bracket(gaas, fields_1t, "u2 <B|H1|A>")
        assert abs(complex(ab) - complex(ba).conjugate()) <= err_ab + err_ba + 1e-12


class TestUpsilonTerms:
    @pytest.mark.parametrize("rule", ["hermite", "polar"])
    def test_overlap_estimate_matches_closed_form(self, gaas, fields_1t, rule):
        p = derive_parameters(gaas, fields_1t)
        if rule == "hermite":
            s, err = overlap_estimate(gaas, fields_1t)
        else:  # the reference polar rule on the pointwise product
            (s, err), *_ = loop_oracle(gaas, fields_1t, POLAR, integrate_polar_2d)
        assert rel_err(s, overlap(p.b, p.d)) < 1e-10
        assert err < 1e-10

    def test_u1_mirror_symmetry(self, gaas, fields_1t):
        # at E = 0 the two dots are mirror images, so u1 collapses to
        # twice the sum of one own-well and one opposite-well element
        quad = QuadratureSpec()
        u1 = assemble_oracle(gaas, fields_1t, quad_single=quad).upsilon["u1"]
        own_a = complex(bracket(gaas, fields_1t, "u1 <A|H1|A>", quad)[0]).real
        own_b = complex(bracket(gaas, fields_1t, "u1 <B|H2|B>", quad)[0]).real
        opp_a = complex(bracket(gaas, fields_1t, "u1 <A|H2|A>", quad)[0]).real
        opp_b = complex(bracket(gaas, fields_1t, "u1 <B|H1|B>", quad)[0]).real
        assert rel_err(own_a, own_b) < 1e-12
        assert rel_err(opp_a, opp_b) < 1e-12
        assert rel_err(u1.value, 2.0 * (own_a + opp_b)) < 1e-10

    def test_polar_brackets_agree_with_hermite(self, gaas):
        # the reference polar rule integrates each H and W bracket's product on its own
        fields = FieldConfig(B=1.0, E=2e5, a=0.7 * bohr_radius_nm(gaas))
        _, got, failures, _ = loop_oracle(gaas, fields, POLAR, integrate_polar_2d)
        want = assemble_oracle(gaas, fields).upsilon
        assert not failures
        for (value, error), h_est in ((got[key], want[key]) for key in ("u1", "u2", "u5")):
            assert abs(value - h_est.value) <= error + h_est.error

    def test_single_particle_difference_is_geometric(self, gaas):
        # u1 - u2/S^2 equals 4 d^2 for any fields: the well offsets are the
        # only asymmetry surviving the direct/exchange cancellation
        for B, E, d in [(0.0, 0.0, 0.7), (1.5, 0.0, 0.5), (1.0, 4e5, 0.85)]:
            fields = FieldConfig(B=B, E=E, a=d * bohr_radius_nm(gaas))
            hb = assemble_oracle(gaas, fields)
            s, u1, u2 = hb.s_num, hb.upsilon["u1"], hb.upsilon["u2"]
            assert rel_err(u1.value - u2.value / (s * s), 4.0 * d * d) < 1e-9

    def test_coulomb_direct_positive(self, gaas, fields_1t):
        hb = assemble_oracle(gaas, fields_1t)
        u3, u4 = hb.upsilon["u3"], hb.upsilon["u4"]
        assert u3.value > 0.0
        assert u3.error < 1e-6
        assert u4.error < 1e-6

    def test_coulomb_matches_bessel_terms(self, gaas, gaas_fields):
        # assembled Coulomb channel against the closed form's Bessel pair
        p = derive_parameters(gaas, gaas_fields)
        hb = assemble_oracle(gaas, gaas_fields)
        s, u3, u4 = hb.s_num, hb.upsilon["u3"], hb.upsilon["u4"]
        weight = s * s / (1.0 - s**4)
        got = weight * (u3.value - u4.value / (s * s))
        bd = exchange_energy_lab(gaas, gaas_fields)
        want = bd.prefactor * bd.coulomb_term
        assert rel_err(got, want) < 1e-3  # agreement is in fact ~1e-12

    def test_quartic_matches_closed_term(self, gaas, gaas_fields):
        p = derive_parameters(gaas, gaas_fields)
        hb = assemble_oracle(gaas, gaas_fields)
        s, u1, u2, u5 = hb.s_num, hb.upsilon["u1"], hb.upsilon["u2"], hb.upsilon["u5"]
        weight = s * s / (1.0 - s**4)
        got = weight * (u1.value - u2.value / (s * s) + u5.value)
        bd = exchange_energy_lab(gaas, gaas_fields)
        want = bd.prefactor * (bd.quartic_term + bd.efield_term)
        assert rel_err(got, want) < 1e-3

    def test_dot_relabel_with_field_reversal(self, gaas):
        # swapping the dots is the same as reversing E; every term agrees
        a_nm = 0.7 * bohr_radius_nm(gaas)
        plus = assemble_oracle(gaas, FieldConfig(B=1.0, E=3e5, a=a_nm))
        minus = assemble_oracle(gaas, FieldConfig(B=1.0, E=-3e5, a=a_nm))
        for key in ("u1", "u2", "u3", "u4", "u5"):
            p_est = plus.upsilon[key]
            m_est = minus.upsilon[key]
            assert abs(p_est.value - m_est.value) <= p_est.error + m_est.error + 1e-10


class TestAssemble:
    def test_matches_closed_form(self, gaas, fields_1t):
        hb = assemble_oracle(gaas, fields_1t)
        assert not hb.incomplete
        assert hb.rel_discrepancy < 1e-9
        assert hb.j_error < 1e-9
        assert 0.0 < hb.s_num < 1.0

    def test_isolated_dot_limit(self, gaas):
        hb = assemble_oracle(gaas, FieldConfig(B=0.0, E=0.0, a=3.0 * bohr_radius_nm(gaas)))
        assert abs(hb.j_oracle) < 1e-5
        assert abs(hb.j_closed_form) < 1e-5

    def test_report_schema(self, gaas, fields_1t):
        hb = assemble_oracle(gaas, fields_1t)
        report = hb.to_report_dict({"B_T": 1.0})
        assert set(report) == {
            "params",
            "S_num",
            "upsilon",
            "j_oracle",
            "j_closed_form",
            "rel_discrepancy",
        }
        assert set(report["upsilon"]) == {"u1", "u2", "u3", "u4", "u5"}
        for entry in report["upsilon"].values():
            assert set(entry) == {"value", "error"}

    def test_quadrature_failure_flags_incomplete(self, gaas, fields_1t):
        # rel_tol below the roundoff floor can never be certified
        impossible = QuadratureSpec(order=4, rel_tol=1e-15)
        hb = assemble_oracle(gaas, fields_1t, quad_single=impossible)
        assert hb.incomplete
        assert hb.failures
        assert math.isfinite(hb.j_oracle)  # assembled from best estimates

    @pytest.mark.parametrize("B, d", [(0.0, 20.0), (1e6, 0.7)])
    def test_underflowing_overlap_is_singular(self, gaas, B, d):
        # S^2 underflows to 0, which would leave the 1/S^2 weights undefined
        fields = FieldConfig(B=B, E=0.0, a=d * bohr_radius_nm(gaas))
        with pytest.raises(SingularConfigurationError, match=r"overlap S = .* b\*d\^2 = "):
            assemble_oracle(gaas, fields)

    def test_coinciding_dots_are_singular(self, gaas):
        # S rounds to 1, so 1 - S^4 = 0 would divide the weight S^2/(1 - S^4) by 0
        fields = FieldConfig(B=1.0, E=0.0, a=1e-9 * bohr_radius_nm(gaas))
        with pytest.raises(SingularConfigurationError, match=r"overlap S = 1\.0 leaves 1 - S\^4 = 0"):
            assemble_oracle(gaas, fields)

    def test_monte_carlo_4d_secondary_check(self, gaas, fields_1t):
        """Slow sanity check of the analytic center-of-mass reduction:
        sample both electron coordinates from the orbital densities and
        average the bare kernel (fixed seed keeps it deterministic)."""
        p = derive_parameters(gaas, fields_1t)
        u3 = assemble_oracle(gaas, fields_1t).upsilon["u3"]
        a = build_orbital(1, gaas, fields_1t)
        b = build_orbital(2, gaas, fields_1t)
        rng = np.random.default_rng(20260810)
        n = 400_000
        sigma = math.sqrt(1.0 / (2.0 * p.b))
        r1 = rng.normal([a.center_x, 0.0], sigma, size=(n, 2))
        r2 = rng.normal([b.center_x, 0.0], sigma, size=(n, 2))
        rho = np.hypot(r1[:, 0] - r2[:, 0], r1[:, 1] - r2[:, 1])
        v0 = p.c_coulomb * math.sqrt(2.0 / math.pi)
        mc = float(np.mean(v0 / rho))
        assert rel_err(mc, u3.value / 2.0) < 0.01


def loop_oracle(mat, fields, quad, integrate=integrate_2d):
    """S as (value, error), u1, u2, u5 and the failures of the 13
    single-particle brackets, each integrated on its own by `integrate`
    with fresh reference eval_orbital / apply_hamiltonian integrands,
    summed in the oracle's order.  Also returns the integrand calls per
    bracket."""
    a, b = build_orbital(1, mat, fields), build_orbital(2, mat, fields)
    d = derive_parameters(mat, fields).d
    failures, samples = [], []

    def bracket(label, bra, ket, f):
        calls = []
        samples.append(calls)

        def counted(x, y):
            calls.append(np.shape(x))
            return f(x, y)

        center = (0.5 * (bra.center_x + ket.center_x), 0.0)
        try:
            scale = 1.0 / math.sqrt(bra.compression)
            return integrate(counted, quad, center=center, scale=scale)
        except QuadratureError as exc:
            failures.append(f"{label}: {exc}")
            return exc.value, exc.error_estimate

    def h(label, bra, j, ket):
        h_ket = apply_hamiltonian(ket, j, mat, fields)
        return bracket(label, bra, ket, lambda x, y: np.conj(eval_orbital(bra, x, y)) * h_ket(x, y))

    def w_sum(x):
        q = x * x - d * d
        w1 = 0.5 * (q * q / (4.0 * d * d) - (x + d) ** 2)
        w2 = 0.5 * (q * q / (4.0 * d * d) - (x - d) ** 2)
        return w1 + w2

    def w(label, bra, ket):
        return bracket(
            label, bra, ket,
            lambda x, y: np.conj(eval_orbital(bra, x, y)) * w_sum(x) * eval_orbital(ket, x, y),
        )

    def total(parts):
        value, err = 0.0 + 0.0j, 0.0
        for v, e in parts:
            value += complex(v)
            err += e
        return value.real, err + abs(value.imag)

    s, s_error = total([bracket(
        "overlap", b, a, lambda x, y: np.conj(eval_orbital(b, x, y)) * eval_orbital(a, x, y)
    )])
    u1 = total([
        h("u1 <A|H1|A>", a, 1, a), h("u1 <B|H2|B>", b, 2, b),
        h("u1 <B|H1|B>", b, 1, b), h("u1 <A|H2|A>", a, 2, a),
    ])
    cross = total([
        h("u2 <A|H1|B>", a, 1, b), h("u2 <B|H2|A>", b, 2, a),
        h("u2 <B|H1|A>", b, 1, a), h("u2 <A|H2|B>", a, 2, b),
    ])
    diag = total([w("u5 <A|W|A>", a, a), w("u5 <B|W|B>", b, b)])
    w_cross = total([w("u5 <B|W|A>", b, a), w("u5 <A|W|B>", a, b)])
    upsilon = {
        "u1": u1,
        "u2": (s * cross[0], abs(s) * cross[1]),
        "u5": (diag[0] - w_cross[0] / s, diag[1] + w_cross[1] / abs(s)),
    }
    return (s, s_error), upsilon, failures, samples


@pytest.fixture()
def refinements(monkeypatch):
    """Per integral, one (order, |f| summed) pair per sampled level, from
    the stacked brackets' refinement and every single-integral one."""
    runs = []
    refine = dotx.special._refine_many

    def refine_counted(sample, count, *args):
        levels = [[] for _ in range(count)]
        runs.extend(levels)

        def counted(n, with_l1, open_):
            results = sample(n, with_l1, open_)
            for i, (_, l1) in zip(open_, results):
                levels[i].append((n, l1 is not None))
            return results

        return refine(counted, count, *args)

    monkeypatch.setattr(dotx.special, "_refine_many", refine_counted)
    monkeypatch.setattr(dotx.oracle, "_refine_many", refine_counted)
    return runs


def complex_kernel_u4(mat, fields):
    """u4 from the full kernel exp(i kappa y) with its imaginary part, whose
    roundoff the error folds in; the oracle integrates its real part."""
    p = derive_parameters(mat, fields)
    a, b = build_orbital(1, mat, fields), build_orbital(2, mat, fields)
    beta = p.b
    delta = a.center_x - b.center_x
    kappa = b.phase_slope - a.phase_slope
    prefactor = beta / (2.0 * math.pi) * p.c_coulomb * math.sqrt(2.0 / math.pi)
    attenuation = math.exp(-0.5 * beta * delta * delta)

    def g(r, theta):
        gauss = attenuation * np.exp(-0.5 * beta * r * r)
        return prefactor * gauss * np.exp(1j * kappa * r * np.sin(theta)) / r

    value, err = integrate_coulomb_relative(
        g, dotx.oracle._DEFAULT_COULOMB, scale=math.sqrt(2.0 / beta), r_peak=0.0
    )
    value = complex(value)
    return 2.0 * value.real, 2.0 * (err + abs(value.imag))


def assert_agrees(hb, s, upsilon, s_error):
    """S, u1, u2 and u5 within 1e-12 relative of the loop's and within the
    oracle's own error estimate."""
    assert abs(hb.s_num - s) <= min(1e-12 * abs(s), s_error)
    for key in ("u1", "u2", "u5"):
        value, error = hb.upsilon[key]
        want = upsilon[key][0]
        assert abs(value - want) <= min(1e-12 * abs(want), error)


class TestFactoredBrackets:
    """assemble_oracle sums each single-particle bracket as 1-D factors of
    the tensor Gauss-Hermite rule, all brackets of a point in one stacked
    pass per level.  Floating-point sums regroup, so the result agrees with
    the n^2 tensor sum of integrate_2d within the oracle's error bar instead
    of bit for bit; the refinement of each bracket, and so the failures and
    the samples taken, are the same."""

    @pytest.mark.parametrize(
        "quad, B, E, d",
        [
            (QuadratureSpec(), 1.0, 0.0, 0.7),
            (QuadratureSpec(order=8), 3.0, 1e5, 1.0),
            (QuadratureSpec(), 2.0, -3e5, 0.5),
            (QuadratureSpec(), 8.0, 2e5, 1.5),
        ],
        ids=["default", "refined", "efield", "far"],
    )
    def test_matches_per_bracket_loop(self, gaas, quad, B, E, d, factored_samples):
        fields = FieldConfig(B=B, E=E, a=d * bohr_radius_nm(gaas))
        (s, _), upsilon, failures, samples = loop_oracle(gaas, fields, quad)
        hb = assemble_oracle(gaas, fields, quad_single=quad)
        assert factored_samples == [[shape[0] for shape in calls] for calls in samples]
        assert not failures and not hb.incomplete
        s_num, s_error = overlap_estimate(gaas, fields, quad)
        assert s_num == hb.s_num
        assert_agrees(hb, s, upsilon, s_error)
        u3, u4 = coulomb_terms(gaas, fields)
        assert hb.upsilon["u3"] == u3 and hb.upsilon["u4"] == u4
        if quad.order == 8:  # some bracket must go past the first level
            assert max(len(calls) for calls in samples) > 2
        want, want_error = complex_kernel_u4(gaas, fields)
        assert abs(u4.value - want) <= min(1e-12 * abs(want), u4.error, want_error)

    @pytest.mark.parametrize(
        "quad", [QuadratureSpec(order=8), QuadratureSpec(order=4, rel_tol=1e-15)],
        ids=["refined", "failing"],
    )
    def test_one_abs_pass_per_round(self, gaas, quad, refinements):
        # |f| is summed on the higher level of each round only, for each of
        # the 13 brackets and both polar Coulomb integrals
        hb = assemble_oracle(gaas, FieldConfig(B=3.0, E=1e5, a=bohr_radius_nm(gaas)), quad_single=quad)
        assert len(refinements) == 15
        for levels in refinements:
            assert [with_l1 for _, with_l1 in levels] == [False, True] * (len(levels) // 2)
            lows, highs = [n for n, _ in levels[::2]], [n for n, _ in levels[1::2]]
            assert highs == [n + max(2, n // 2) for n in lows]
        assert max(map(len, refinements)) > 2
        # a bracket that converged is not sampled again, though others are
        sampled = [len(levels) for levels in refinements[:13]]
        assert sampled == ([8] * 13 if hb.incomplete else [4, 2, 2, 2, 2, 4, 4, 4, 4, 2, 2, 4, 4])

    def test_failures_keep_their_order(self, gaas, fields_1t, factored_samples):
        impossible = QuadratureSpec(order=4, rel_tol=1e-15)
        (s, _), upsilon, failures, samples = loop_oracle(gaas, fields_1t, impossible)
        hb = assemble_oracle(gaas, fields_1t, quad_single=impossible)
        assert factored_samples == [[shape[0] for shape in calls] for calls in samples]
        assert failures
        assert list(hb.failures) == failures
        _, s_error = overlap_estimate(gaas, fields_1t, impossible)
        assert_agrees(hb, s, upsilon, s_error)

    def test_no_orbital_evaluated_on_a_grid(self, gaas, fields_1t, monkeypatch):
        # the oracle holds no pointwise orbital and takes no n^2 tensor sum
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return counted

        for name in ("integrate_2d", "_gauss_hermite_sample"):
            monkeypatch.setattr(dotx.special, name, counting(name, getattr(dotx.special, name)))
        assemble_oracle(gaas, fields_1t)
        assert calls == []
        assert not {"eval_orbital", "integrate_2d", "_gauss_hermite_sample"} & set(vars(dotx.oracle))

    def test_frame_derived_once_per_point(self, gaas, fields_1t, count_derivations):
        calls = count_derivations(dotx.oracle)
        assemble_oracle(gaas, fields_1t)
        assert len(calls) == 1


def full_circle_coulomb(mat, fields, quad):
    """u3 and u4 as the generic polar rule gives them, each refined on its
    own over the full circle of trapezoid angles, as (u3, u4, failures)."""
    a, b = build_orbital(1, mat, fields), build_orbital(2, mat, fields)
    p = derive_parameters(mat, fields)
    beta = p.b
    delta = a.center_x - b.center_x
    kappa = b.phase_slope - a.phase_slope
    amplitude = beta / (2.0 * math.pi) * (p.c_coulomb * math.sqrt(2.0 / math.pi))
    attenuation = math.exp(-0.5 * beta * delta * delta)

    def g_direct(r, theta):
        x = r * np.cos(theta) - delta
        y = r * np.sin(theta)
        return amplitude * np.exp(-0.5 * beta * (x * x + y * y)) / r

    def g_exchange(r, theta):
        radial = amplitude * attenuation * np.exp(-0.5 * beta * r * r) / r
        return radial * np.cos((kappa * r) * np.sin(theta))

    failures, terms = [], []
    for g, r_peak, label in ((g_direct, abs(delta), "u3 direct coulomb"), (g_exchange, 0.0, "u4 exchange coulomb")):
        try:
            value, error = integrate_coulomb_relative(g, quad, scale=math.sqrt(2.0 / beta), r_peak=r_peak)
        except QuadratureError as exc:
            failures.append(f"{label}: {exc}")
            value, error = exc.value, exc.error_estimate
        terms.append((2.0 * value, 2.0 * error))
    return terms[0], terms[1], failures


class TestHalfCircleCoulomb:
    """The oracle sums both Coulomb kernels, which are even in theta, over
    the half circle of trapezoid angles, each node but theta = 0 and (for an
    even order) theta = pi counted twice.  The generic full-circle rule gives
    the same numbers up to roundoff, and the same failures."""

    @pytest.mark.parametrize("order", [4, 5, 8, 64])
    @pytest.mark.parametrize("B, d, E", [(1.0, 0.7, 0.0), (3.0, 1.0, 1e5), (0.0, 0.5, 0.0), (8.0, 1.5, 2e5)])
    def test_matches_full_circle(self, gaas, B, d, E, order, refinements):
        fields = FieldConfig(B=B, E=E, a=d * bohr_radius_nm(gaas))
        quad = QuadratureSpec(order=order, rel_tol=1e-8)
        failures = []
        got = _coulomb(_Point(gaas, fields), quad, failures)
        *want, want_failures = full_circle_coulomb(gaas, fields, quad)
        assert failures == want_failures
        for (value, _), (want_value, want_error) in zip(got, want):
            assert abs(value - want_value) <= min(4e-15 * abs(want_value), want_error)
        if order == 5:  # odd levels have no node at theta = pi
            for levels in refinements[:2]:
                assert {7, 15} <= {n for n, _ in levels}
