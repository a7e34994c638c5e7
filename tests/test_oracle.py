import cmath
import hashlib
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dotx.oracle
from dotx.closed_form import exchange_energy_lab, overlap
from dotx.errors import DotxError, QuadratureError, SingularConfigurationError
from dotx.oracle import assemble_oracle
import dotx.special
from dotx.oracle import (  # noqa: internal, exercised directly
    _PAIRS, _PLAN, _U1, _U2, _U5, _bracket, _bracket_sum, _brackets, _coulomb, _pair_levels, _point,
    _sum_elements,
)
from dotx.special import QuadratureSpec
from dotx.units import GAAS, FieldConfig, MaterialParams, bohr_radius_nm, derive_parameters

from conftest import (
    apply_hamiltonian,
    build_orbital,
    coulomb_spec,
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
    return _brackets(_point(mat, fields), quad or QuadratureSpec(), [label])[label]


def overlap_estimate(mat, fields, quad=None):
    """The numerical overlap S as (value, error), summed as the oracle sums it."""
    res = _brackets(_point(mat, fields), quad or QuadratureSpec(), ["overlap"])
    return _sum_elements(res, ["overlap"], [])


def coulomb_terms(mat, fields, quad=None):
    """(u3, u4) integrated on their own, at the rule `assemble_oracle` derives
    from the single-particle spec `quad`."""
    return _coulomb(_point(mat, fields), coulomb_spec(quad or QuadratureSpec()), [])


# GaAs, an InSb-like material and a Si-like one with its Coulomb strength fixed
MATERIALS = [
    GAAS,
    MaterialParams(effective_mass=0.014, dielectric_const=16.8, confinement_energy=1.5),
    MaterialParams(effective_mass=0.19, dielectric_const=11.7, confinement_energy=5.0, c_override=3.0),
]


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
        shifted = gaas_fields._replace(E=5e5)
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
        flat = orb._replace(phase_slope=0.0)
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

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(
        st.sampled_from(MATERIALS),
        st.one_of(st.floats(-100.0, 100.0), st.floats()),
        st.one_of(st.floats(-1e7, 1e7), st.floats()),
        st.one_of(st.floats(1e-3, 1e3), st.floats()),
    )
    def test_each_ket_is_an_eigenstate_of_its_own_well(self, mat, B, E, a):
        # k = -lambda x_c exactly wherever the point is finite, so the H
        # brackets' Q(y) has no term linear in y and stays real
        try:
            pt = _point(mat, FieldConfig(B, E, a))
        except DotxError:
            return
        for j in (1, 2):
            if math.isfinite(pt.lam) and math.isfinite(pt.x[j]) and math.isfinite(pt.k[j]):
                assert pt.k[j] + pt.lam * pt.x[j] == 0.0, (j, pt)


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
        fields = fields_1t._replace(E=3e5)
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
        u1 = assemble_oracle(gaas, fields_1t, quad).upsilon["u1"]
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
        _, got, failures = loop_oracle(gaas, fields, POLAR, integrate_polar_2d)
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
        hb = assemble_oracle(gaas, fields_1t, impossible)
        assert hb.incomplete
        assert hb.failures
        assert math.isfinite(hb.j_oracle)  # assembled from best estimates

    @pytest.mark.parametrize("B, d", [(0.0, 20.0), (1e6, 0.7)])
    def test_underflowing_overlap_is_singular(self, gaas, B, d):
        # S^2 underflows to 0, which would leave the 1/S^2 weights undefined
        fields = FieldConfig(B=B, E=0.0, a=d * bohr_radius_nm(gaas))
        with pytest.raises(SingularConfigurationError, match=r"overlap S = .* b\*d\^2 = "):
            assemble_oracle(gaas, fields)

    @pytest.mark.parametrize("a", [5e-324, 1e-200])
    def test_vanishing_distance_raises_the_closed_form_error(self, gaas, a):
        # d = a / a_B underflows to 0 (5e-324 nm), or its square does: the
        # closed form's own error, not a ZeroDivisionError from chi / d
        fields = FieldConfig(B=1.0, E=1.0, a=a)
        with pytest.raises(SingularConfigurationError) as want:
            exchange_energy_lab(gaas, fields)
        with pytest.raises(SingularConfigurationError) as got:
            assemble_oracle(gaas, fields)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_closed_form_rejects_before_any_quadrature(self, gaas, monkeypatch):
        # chi^2/d^2 overflows: the closed form's error, raised before any bracket
        # samples the point's inf and nan values
        def no_brackets(*args):
            raise AssertionError("quadrature ran on a point the closed form rejects")

        monkeypatch.setattr(dotx.oracle, "_brackets", no_brackets)
        fields = FieldConfig(B=1.0, E=1e300, a=1e10)
        with pytest.raises(DotxError) as want:
            exchange_energy_lab(gaas, fields)
        with pytest.raises(DotxError) as got:
            assemble_oracle(gaas, fields)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
        assert "chi^2/d^2 overflows" in str(got.value)

    def test_coulomb_spec_derived_from_quad(self, gaas, fields_1t, monkeypatch):
        # the Coulomb pair runs at the spec's order, to a rel_tol no tighter than 1e-8
        specs = []
        coulomb = dotx.oracle._coulomb
        monkeypatch.setattr(
            dotx.oracle, "_coulomb", lambda pt, quad, failures: specs.append(quad) or coulomb(pt, quad, failures)
        )
        assemble_oracle(gaas, fields_1t, QuadratureSpec(96, 1e-12))
        assemble_oracle(gaas, fields_1t)
        assert specs == [(96, 1e-8), (64, 1e-8)]
        assert all(type(spec) is QuadratureSpec for spec in specs)

    def test_coinciding_dots_are_singular(self, gaas):
        # 1 - S^4 lies within its error of 0, so the weight S^2/(1 - S^4) is
        # undefined, whichever side of 1 the rounding puts S
        for B in (0.0, 1.0, 3.0, 30.0):
            for d in (1e-12, 1e-9, 1e-8):
                fields = FieldConfig(B=B, E=1e5, a=d * bohr_radius_nm(gaas))
                with pytest.raises(SingularConfigurationError, match=r"overlap S = .* leaves 1 - S\^4 = .* "
                                   r"within its error .* of 0 at b\*d\^2 = .*: the two dots coincide"):
                    assemble_oracle(gaas, fields)

    def test_frame_derived_once_per_point(self, gaas, fields_1t, count_derivations):
        calls = count_derivations(dotx.oracle)
        assemble_oracle(gaas, fields_1t)
        assert len(calls) == 1

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


def loop_oracle(mat, fields, quad, integrate):
    """S as (value, error), u1, u2, u5 and the failures of the 13
    single-particle brackets, each integrated on its own by `integrate`
    with fresh reference eval_orbital / apply_hamiltonian integrands,
    summed in the oracle's order."""
    a, b = build_orbital(1, mat, fields), build_orbital(2, mat, fields)
    d = derive_parameters(mat, fields).d
    failures = []

    def bracket(label, bra, ket, f):
        center = (0.5 * (bra.center_x + ket.center_x), 0.0)
        try:
            scale = 1.0 / math.sqrt(bra.compression)
            return integrate(f, quad, center=center, scale=scale)
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
    return (s, s_error), upsilon, failures


@pytest.fixture()
def refinements(monkeypatch):
    """Per integral the oracle refines, one (order, value, l1) triple per
    sampled level; l1 is None on a round's lower level."""
    runs = []
    refine = dotx.oracle._refine

    def refine_counted(sample, *args):
        levels = []
        runs.append(levels)

        def counted(n, with_l1):
            value, l1 = sample(n, with_l1)
            levels.append((n, value, l1))
            return value, l1

        return refine(counted, *args)

    monkeypatch.setattr(dotx.oracle, "_refine", refine_counted)
    return runs


LABELS = ("overlap",) + _U1 + _U2 + _U5

# The 50 points of the benchmark's oracle check: the default 5 x 5 (B, d) grid
# of `dotx oracle` at E = 0 and 1e5 V/m
CHECK_POINTS = [
    (B, d, E) for E in (0.0, 1e5) for B in (0.0, 1.0, 1.5, 2.0, 3.0) for d in (0.5, 0.6, 0.7, 0.85, 1.0)
]

# Large b d^2, where an oscillating real-line Y left the overlap as noise
FAR_POINTS = [
    (10.0, 3.0, 0.0), (30.0, 2.0, 0.0), (30.0, 3.0, 0.0), (30.0, 4.0, 0.0), (60.0, 2.0, 0.0),
    (60.0, 3.0, 0.0),
]


def gaussian_moment_bracket(pt, label):
    """(value, arg): the bracket `label` at the point's floats in 40-digit
    arithmetic, and the exponent arg = b h^2 + kappa^2/(4b) of its Gaussian
    factor exp(-arg).  The value comes from the closed-form moments of the
    Gaussians: X is (b/pi) exp(-b h^2) times a
    Gaussian of variance 1/(2b) about the centres' midpoint c, h their half
    separation, and Y = exp(i kappa y - b y^2) has mean i kappa/(2b), so

        int X x^k dx = (b/pi) exp(-b h^2) sqrt(pi/b) E[(c + Z)^k],
        int Y dy = sqrt(pi/b) exp(-kappa^2/(4b)),
        int Y y^2 dy = int Y dy (1/(2b) - kappa^2/(4b^2)).

    P and Q are the oracle's own float coefficients (`_bracket`)."""
    from mpmath import mp, mpf

    pair, op = _PLAN[label]
    br = _bracket(pt, pair, op)
    bra, ket = _PAIRS[pair]
    with mp.workdps(40):
        beta, d, lam, f = (mpf(v) for v in (pt.b, pt.d, pt.lam, pt.fshift))
        x_bra, x_ket = -d - f if bra == 1 else d - f, -d - f if ket == 1 else d - f
        c, h, kappa = (x_bra + x_ket) / 2, (x_ket - x_bra) / 2, -lam * (x_ket - x_bra)
        v = 1 / (2 * beta)
        gx = beta / mp.pi * mp.exp(-beta * h * h) * mp.sqrt(mp.pi / beta)
        # E[(c + Z)^k] for Z of variance v
        mx = [gx * m for m in (1, c, c**2 + v, c**3 + 3 * c * v, c**4 + 6 * c * c * v + 3 * v * v)]
        my0 = mp.sqrt(mp.pi / beta) * mp.exp(-kappa**2 / (4 * beta))
        my2 = my0 * (v - kappa**2 / (4 * beta**2))
        a, b, c0 = (mpf(t) for t in br.p)
        q2, q0 = (mpf(t) for t in (br.q or (0.0, 0.0)))
        hi, lo = (4, 2) if br.quartic else (2, 1)
        value = (a * mx[hi] + b * mx[lo] + c0 * mx[0]) * my0 + mx[0] * (q2 * my2 + q0 * my0)
        return value, beta * h * h + kappa**2 / (4 * beta)


class TestExactBrackets:
    """Each single-particle bracket is a weight-matched Gaussian times a
    polynomial of degree <= 4 once Y is sampled on the contour through its
    saddle point, so the Gauss-Hermite rules of orders 3 and 4 are both exact:
    the oracle's value differs from the exact one by rounding only."""

    @pytest.mark.parametrize("B, d, E", CHECK_POINTS + FAR_POINTS + [(8.0, 1.5, 2e5), (50.0, 0.02, 3e5)])
    def test_each_bracket_matches_gaussian_moments(self, gaas, B, d, E):
        # within its error estimate times the condition 1 + arg of the
        # bracket's Gaussian factor exp(-arg), whose rounding it leaves out
        pt = _point(gaas, FieldConfig(B=B, E=E, a=d * bohr_radius_nm(gaas)))
        res = _brackets(pt, QuadratureSpec(), LABELS)
        for label in LABELS:
            want, arg = gaussian_moment_bracket(pt, label)
            value, error = res[label]
            value = complex(value)
            diff = abs(value.real - want) + abs(value.imag)
            assert diff <= (1.0 + float(arg)) * error, (label, float(diff / abs(want)), error)
            assert diff <= 1e-13 * abs(want), label

    @pytest.mark.parametrize("rule", [0, 1])
    def test_closed_form_rules_are_gauss_hermite(self, rule):
        # the closed-form nodes and weights are numpy's rule of order 3 or 4,
        # and that rule integrates t^k exp(-t^2) exactly for k <= 2n - 1
        nodes = sorted(dotx.oracle._RULES[rule])
        n = len(nodes)
        assert n == rule + 3
        want_t, want_w = np.polynomial.hermite.hermgauss(n)
        for (t, w), wt, ww in zip(nodes, want_t, want_w):
            assert abs(t - wt) <= 4 * sys.float_info.epsilon * max(1.0, abs(wt))
            assert rel_err(w * math.exp(-t * t), ww) <= 1e-14
        for k in range(2 * n):
            got = math.fsum(w * math.exp(-t * t) * t**k for t, w in nodes)
            want = math.gamma(0.5 * (k + 1)) if k % 2 == 0 else 0.0
            assert abs(got - want) <= 1e-14 * math.gamma(0.5 * (k + 2)), k

    @pytest.mark.parametrize("B, d, E", CHECK_POINTS)
    def test_orders_three_and_four_agree_to_rounding(self, gaas, B, d, E):
        # the two orders differ by less than the roundoff floor 16 eps l1, so
        # every error reported is that floor
        pt = _point(gaas, FieldConfig(B=B, E=E, a=d * bohr_radius_nm(gaas)))
        levels = _pair_levels(pt)
        for label in LABELS:
            br = _bracket(pt, *_PLAN[label])
            (v3, _), (v4, l1) = (_bracket_sum(br, level) for level in levels[br.pair])
            assert abs(v3 - v4) <= 16 * sys.float_info.epsilon * l1, label

    def test_brackets_do_not_depend_on_the_order(self, gaas):
        pt = _point(gaas, FieldConfig(B=3.0, E=1e5, a=bohr_radius_nm(gaas)))
        want = _brackets(pt, QuadratureSpec(), LABELS)
        assert _brackets(pt, QuadratureSpec(order=4), LABELS) == want
        assert _brackets(pt, QuadratureSpec(order=128), LABELS) == want

    def test_failures_keep_their_order(self, gaas, fields_1t):
        # rel_tol below the roundoff floor: every bracket fails, in label order,
        # and keeps its value; the Coulomb pair runs at rel_tol 1e-8 and converges
        impossible = QuadratureSpec(order=4, rel_tol=1e-15)
        hb = assemble_oracle(gaas, fields_1t, impossible)
        message = "Gauss-Hermite bracket rule did not converge to rel_tol=1e-15 by order 4"
        assert list(hb.failures) == [f"{label}: {message}" for label in LABELS]
        default = assemble_oracle(gaas, fields_1t)
        assert hb.s_num == default.s_num
        for key in ("u1", "u2", "u5"):
            assert hb.upsilon[key] == default.upsilon[key]

    def test_no_numpy_and_no_grid(self, gaas, fields_1t, monkeypatch):
        # the oracle holds no pointwise orbital and takes no tensor sum
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return counted

        for name in ("integrate_2d", "_gauss_hermite_sample", "_hermite_nodes"):
            monkeypatch.setattr(dotx.special, name, counting(name, getattr(dotx.special, name)))
        assemble_oracle(gaas, fields_1t)
        assert calls == []
        assert not {"np", "numpy", "eval_orbital", "integrate_2d"} & set(vars(dotx.oracle))


def pinned_points():
    """The 50 check points, 300 seeded draws (B in [-60, 60] T and 0 at every
    tenth, E in [-3e5, 3e5] V/m, d log-uniform in [0.02, 6] a_B) and two
    points whose brackets fail, at E = 1e15 and 1e100 V/m."""
    rng = random.Random(2070)
    drawn = []
    for i in range(300):
        B, E = rng.uniform(-60.0, 60.0), rng.uniform(-3e5, 3e5)
        d = math.exp(rng.uniform(math.log(0.02), math.log(6.0)))
        drawn.append((0.0 if i % 10 == 0 else B, d, E))
    return CHECK_POINTS + drawn + [(1.0, 0.7, 1e15), (1.0, 0.7, 1e100)]


def oracle_digest(points, specs):
    """sha256 over the repr of each `assemble_oracle` report on GaAs, or
    `type: message` of its DotxError, point by point and spec by spec."""
    digest = hashlib.sha256()
    for B, d, E in points:
        fields = FieldConfig(B=B, E=E, a=d * bohr_radius_nm(GAAS))
        for spec in specs:
            try:
                out = repr(assemble_oracle(GAAS, fields, spec))
            except DotxError as exc:
                out = f"{type(exc).__name__}: {exc}"
            digest.update(out.encode() + b"\n")
    return digest.hexdigest()


class TestPinnedBits:
    def test_reports_and_errors_keep_their_bits(self):
        # a regression guard: every report and error of these 1056 calls has
        # these bits, on CPython 3.10-3.13
        specs = [None, QuadratureSpec(order=4, rel_tol=1e-15), QuadratureSpec(order=8)]
        assert oracle_digest(pinned_points(), specs) == (
            "f667a33ce859cb4a5c618aec25b3a4134af45ec728e3499fb38de0696d663d4c"
        )


def coulomb_besseli(pt):
    """(u3, u4) at the point's floats in 40-digit arithmetic: with a = b/2,
    delta = 2d and kappa = 2 lambda d, int_0^{pi/2} exp(-z sin^2) = (pi/2)
    exp(-z/2) I0(z/2) at z = a delta^2 and at kappa^2/(4a)."""
    from mpmath import mp, mpf

    with mp.workdps(40):
        beta, d, lam, c = (mpf(v) for v in (pt.b, pt.d, pt.lam, pt.c))
        a, delta, kappa = beta / 2, 2 * d, 2 * lam * d
        amplitude = beta / (2 * mp.pi) * c * mp.sqrt(2 / mp.pi)
        prefactor = 2 * amplitude * 2 * mp.sqrt(mp.pi) / mp.sqrt(a)

        def phi_integral(z):
            return mp.pi / 2 * mp.exp(-z / 2) * mp.besseli(0, z / 2)

        return (
            prefactor * phi_integral(a * delta**2),
            prefactor * mp.exp(-a * delta**2) * phi_integral(kappa**2 / (4 * a)),
        )


class TestCoulombPair:
    """u3 and u4 as two 1-D periodic trapezoid sums from the Gaussian
    transform of 1/r."""

    @pytest.mark.parametrize("B, d, E", CHECK_POINTS + FAR_POINTS)
    def test_matches_besseli(self, gaas, B, d, E, refinements):
        pt = _point(gaas, FieldConfig(B=B, E=E, a=d * bohr_radius_nm(gaas)))
        failures = []
        terms = _coulomb(pt, coulomb_spec(QuadratureSpec()), failures)
        assert not failures
        for (value, error), want in zip(terms, coulomb_besseli(pt)):
            assert abs(value - want) <= 1e-14 * want
            assert error <= 4e-15 * value
        # both converge on their first round, orders 64 and 96
        assert [[n for n, *_ in levels] for levels in refinements] == [[64, 96], [64, 96]]

    @pytest.mark.parametrize("B, d, E", [(1.0, 0.7, 0.0), (3.0, 1.0, 1e5), (0.0, 0.5, 0.0), (8.0, 1.5, 2e5)])
    def test_matches_the_polar_rule(self, gaas, B, d, E):
        # the 2-D relative-coordinate integrals on the full circle, in polar
        # coordinates, against the 1-D reduction; on the 50 check points the
        # polar rule's error estimate undershoots its true error against
        # besseli by up to 2.6x, so it is taken 4 times
        fields = FieldConfig(B=B, E=E, a=d * bohr_radius_nm(gaas))
        pt = _point(gaas, fields)
        beta, delta, kappa = pt.b, pt.x[1] - pt.x[2], pt.k[2] - pt.k[1]
        amplitude = beta / (2.0 * math.pi) * (pt.c * math.sqrt(2.0 / math.pi))
        attenuation = math.exp(-0.5 * beta * delta * delta)

        def g_direct(r, theta):
            x, y = r * np.cos(theta) - delta, r * np.sin(theta)
            return amplitude * np.exp(-0.5 * beta * (x * x + y * y)) / r

        def g_exchange(r, theta):
            return amplitude * attenuation * np.exp(-0.5 * beta * r * r + 1j * kappa * r * np.sin(theta)) / r

        scale = math.sqrt(2.0 / beta)
        u3, u4 = coulomb_terms(gaas, fields)
        for (value, error), g, r_peak in ((u3, g_direct, abs(delta)), (u4, g_exchange, 0.0)):
            want, want_error = integrate_coulomb_relative(g, POLAR, scale=scale, r_peak=r_peak)
            want = complex(want)
            assert abs(value - 2.0 * want.real) <= 4.0 * 2.0 * (want_error + abs(want.imag)) + error

    @pytest.mark.parametrize("order", [4, 5, 8, 64, 128])
    def test_trapezoid_ladder(self, gaas, order, refinements):
        # each round samples orders n and n + max(2, n/2), then doubles n; l1 is
        # taken on the higher level only, and equals the positive integrand's sum
        pt = _point(gaas, FieldConfig(B=30.0, E=0.0, a=4.0 * bohr_radius_nm(gaas)))
        failures = []
        _coulomb(pt, QuadratureSpec(order=order, rel_tol=1e-8), failures)
        assert len(refinements) == 2
        for levels in refinements:
            lows, highs = levels[::2], levels[1::2]
            assert [n_hi for n_hi, *_ in highs] == [n + max(2, n // 2) for n, *_ in lows]
            assert [n for n, *_ in lows] == [order * 2**k for k in range(len(lows))]
            assert all(l1 is None for *_, l1 in lows) and all(l1 == v for _, v, l1 in highs)
        if order == 4:  # z ~ 280: the small first levels take every round
            assert failures and all("Coulomb trapezoid rule did not converge" in f for f in failures)
        else:
            assert not failures

    def test_a_converged_sum_is_not_sampled_again(self, gaas, refinements):
        # at B = 0 the exchange integrand is constant, exact at any level
        pt = _point(gaas, FieldConfig(B=0.0, E=0.0, a=3.0 * bohr_radius_nm(gaas)))
        _coulomb(pt, QuadratureSpec(order=4, rel_tol=1e-8), [])
        direct, exchange = refinements
        assert len(exchange) == 2 and len(direct) > 2


def overlap_mp(b, d):
    """The exact overlap exp(-d^2 (2b - 1/b)) at the floats b, d, and its exponent."""
    from mpmath import mp, mpf

    with mp.workdps(40):
        b, d = mpf(b), mpf(d)
        arg = d * d * (2 * b - 1 / b)
        return mp.exp(-arg), arg


def oracle_errors(mat, fields):
    """(error, closed_raised): the oracle's DotxError or None, and whether
    `exchange_energy_lab` raised at the same point."""
    try:
        exchange_energy_lab(mat, fields)
        closed_raised = False
    except DotxError:
        closed_raised = True
    try:
        return assemble_oracle(mat, fields), None, closed_raised
    except DotxError as exc:
        return None, exc, closed_raised


class TestDomain:
    """The oracle over B in [0, 60] T, d log-uniform in [0.02, 6] a_B and
    |E| <= 3e5 V/m."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(
        st.floats(0.0, 60.0),
        st.floats(math.log(0.02), math.log(6.0)).map(math.exp),
        st.floats(-3e5, 3e5),
    )
    # the largest S errors of 3600 random points, near S^2's underflow, and a
    # point where the overlap check raises though the closed-form J is normal
    @example(57.5413127202589, 3.24150662277487, -218647.32891064772)
    @example(31.15258140593913, 3.8333126016920525, 66306.20226181817)
    @example(50.398066830752484, 4.376426260085086, -15540.997548213345)
    def test_complete_accurate_and_raising_only_where_documented(self, B, d, E):
        fields = FieldConfig(B=B, E=E, a=d * bohr_radius_nm(GAAS))
        hb, error, closed_raised = oracle_errors(GAAS, fields)
        if error is not None:
            # raised only where the closed form raises, or at the overlap's two checks
            overlap_error = r"overlap S = \S+ (squares to 0|leaves 1 - S\^4 = \S+ within its error \S+ of 0) at .*"
            assert closed_raised or re.fullmatch(overlap_error, str(error)), error
            return
        assert not closed_raised
        if abs(hb.j_closed_form) >= sys.float_info.min:  # a normal J
            assert not hb.incomplete, hb.failures
        # S = exp(-arg) to 1e-13, or to 2 eps (1 + arg), the condition of
        # exp(-arg) at arg > 224: the oracle forms its factors exp(-b d^2) and
        # exp(-kappa^2/4b) from rounded exponents, and float `overlap` its own
        p = derive_parameters(GAAS, fields)
        s_exact, arg = overlap_mp(p.b, p.d)
        if s_exact * s_exact >= sys.float_info.min:
            bound = max(1e-13, 2.0 * sys.float_info.epsilon * (1.0 + float(arg)))
            assert abs(hb.s_num - s_exact) <= bound * s_exact
            assert abs(hb.s_num - overlap(p.b, p.d)) <= bound * s_exact

    @pytest.mark.parametrize("d", [2.0, 3.0, 4.0])
    def test_far_dots_at_30_tesla(self, gaas, d):
        # the overlap is no longer noise at large b d^2, and every term converges
        fields = FieldConfig(B=30.0, E=0.0, a=d * bohr_radius_nm(gaas))
        hb = assemble_oracle(gaas, fields)
        p = derive_parameters(gaas, fields)
        assert not hb.incomplete
        assert rel_err(hb.s_num, overlap(p.b, p.d)) < 1e-13
        assert rel_err(hb.j_oracle, hb.j_closed_form) < 1e-12
