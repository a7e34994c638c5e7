import math

import numpy as np
import pytest

from dotx.closed_form import exchange_energy, exchange_energy_lab, overlap
from dotx.errors import InvalidParameterError, ParameterOverflowError, SingularConfigurationError
from dotx.units import FieldConfig, MaterialParams

from conftest import j_mp, rel_err


class TestOverlap:
    def test_coincident_dots(self):
        assert overlap(1.0, 0.0) == 1.0
        assert overlap(1.7, 0.0) == 1.0

    def test_pinned_against_quadrature(self, golden):
        assert rel_err(overlap(1.0, 0.7), golden["overlap_b1_d0p7"]) < 1e-9
        assert rel_err(overlap(1.0406, 0.7), golden["overlap_b1p0406_d0p7"]) < 1e-9

    def test_range(self):
        for b in (1.0, 1.2, 2.0, 3.0):
            for d in (0.1, 0.7, 1.5, 3.0):
                s = overlap(b, d)
                assert 0.0 < s < 1.0

    def test_undefined_where_d2_underflows_and_2b_overflows(self):
        # -d^2 (2b - 1/b) is 0 * inf there: S was nan
        with pytest.raises(
            InvalidParameterError,
            match=r"^overlap is undefined at b=1.7976931348623157e\+308, d=1e-300: "
                  r"d\^2 rounds to 0 and 2b overflows$",
        ):
            overlap(1.7976931348623157e308, 1e-300)
        assert overlap(1.7976931348623157e308, 1e-100) == 0.0  # d^2 > 0: S underflows to 0
        assert overlap(1e300, 1e-300) == 1.0  # 2b is finite: S = exp(-0)

    def test_prefactor_consistency(self):
        # S^2/(1-S^4) must equal 1/(2 sinh(2 d^2 (2b - 1/b)))
        for b in np.linspace(1.0, 3.0, 9):
            for d in np.linspace(0.1, 2.0, 9):
                s = overlap(float(b), float(d))
                lhs = s * s / (1.0 - s**4)
                rhs = 1.0 / (2.0 * math.sinh(2.0 * d * d * (2.0 * b - 1.0 / b)))
                assert rel_err(lhs, rhs) < 1e-12


class TestExchangeEnergy:
    def test_pinned_reference_point(self, golden):
        bd = exchange_energy(1.0, 0.7, 2.36, 0.0)
        assert rel_err(bd.j_dimensionless, golden["j_dimensionless_b1_d0p7_c2p36"]) < 1e-12

    def test_breakdown_identity(self):
        for b, d, c, chi in [(1.0, 0.7, 2.36, 0.0), (1.3, 0.5, 2.0, 0.6), (2.0, 1.1, 3.0, 1.4)]:
            bd = exchange_energy(b, d, c, chi)
            total = bd.prefactor * (bd.coulomb_term + bd.quartic_term + bd.efield_term)
            assert rel_err(bd.j_dimensionless, total) < 1e-12

    def test_efield_shift_is_algebraic(self):
        for chi in (0.25, 0.455, 1.0, 2.3):
            with_e = exchange_energy(1.2, 0.7, 2.36, chi)
            without = exchange_energy(1.2, 0.7, 2.36, 0.0)
            shift = with_e.j_dimensionless - without.j_dimensionless
            want = with_e.prefactor * 1.5 * chi * chi / 0.49
            assert rel_err(shift, want) < 1e-12

    def test_even_in_efield(self):
        assert exchange_energy(1.3, 0.8, 2.36, 0.9) == exchange_energy(1.3, 0.8, 2.36, -0.9)

    def test_monotone_in_efield_magnitude(self):
        values = [
            exchange_energy(1.4, 0.7, 2.36, chi).j_dimensionless
            for chi in (0.0, 0.2, 0.5, 1.0, 2.0)
        ]
        assert all(v2 > v1 for v1, v2 in zip(values[:-1], values[1:]))

    def test_quartic_positive_efield_nonnegative(self):
        for b, d, chi in [(1.0, 0.4, 0.0), (1.8, 1.2, 1.1), (2.5, 0.9, 0.0)]:
            bd = exchange_energy(b, d, 2.36, chi)
            assert bd.quartic_term > 0.0
            assert bd.efield_term >= 0.0
            assert (bd.efield_term == 0.0) == (chi == 0.0)
            assert bd.prefactor > 0.0

    def test_far_separated_dots_negligible(self):
        bd = exchange_energy(1.0, 4.0, 2.36, 0.0)
        assert abs(bd.j_dimensionless) < 1e-4

    def test_coulomb_exchange_overtakes_with_compression(self):
        # the second (exchange) piece grows with b and flips the sign
        terms = [exchange_energy(b, 0.7, 2.36, 0.0).coulomb_term for b in (1.0, 1.2, 1.5, 2.0)]
        assert all(t2 < t1 for t1, t2 in zip(terms[:-1], terms[1:]))
        j_low = exchange_energy(1.0, 0.7, 2.36, 0.0).j_dimensionless
        j_high = exchange_energy(2.0, 0.7, 2.36, 0.0).j_dimensionless
        assert j_low > 0.0 > j_high

    def test_singular_distance_rejected(self):
        with pytest.raises(SingularConfigurationError):
            exchange_energy(1.0, 0.0, 2.36, 0.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            exchange_energy(0.5, 0.7, 2.36, 0.0)
        with pytest.raises(InvalidParameterError):
            exchange_energy(1.0, 0.7, -1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            exchange_energy(1.0, 0.7, 2.36, math.inf)

    @pytest.mark.parametrize(
        "call, got",
        [
            (lambda: exchange_energy(1.0, -1.0, 1.0, 0.0), "-1.0"),
            (lambda: exchange_energy(1.0, math.nan, 1.0, 0.0), "nan"),
            (lambda: overlap(1.0, -0.5), "-0.5"),
        ],
    )
    def test_negative_or_nan_distance_rejected(self, call, got):
        with pytest.raises(InvalidParameterError, match=f"^distance d must be finite and >= 0, got {got}$"):
            call()

    def test_overflowing_coulomb_strength_raises(self):
        # c sqrt(b) = 2e308 is inf: J was nan, 0 * inf or inf - inf
        with pytest.raises(
            ParameterOverflowError,
            match=r"^coulomb strength c=1e\+308 is too large at b=4.0: c\*sqrt\(b\) overflows$",
        ):
            exchange_energy(4.0, 0.7, 1e308, 0.0)

    def test_nan_j_is_singular(self):
        # chi^2/d^2 = 1e308 is finite, but J, about 1.5e308 / sinh(0.02), is not
        with pytest.raises(SingularConfigurationError, match=r"^J overflows at d=0.1, chi=1e\+153"):
            exchange_energy(1.0, 0.1, 2.36, 1e153)

    def test_j_near_the_float_limit_is_representable(self):
        # Twice each half of J's regrouped sum overflows here (inf - inf
        # reported this J as singular); the halves do not
        j = exchange_energy(1.0, 0.1, 1e308, 0.0).j_dimensionless
        assert math.isfinite(j)
        assert rel_err(j, float(j_mp(1.0, 0.1, 1e308, 0.0))) < 1e-13

    def test_extreme_arguments_stay_finite(self):
        bd = exchange_energy(12.0, 6.0, 2.36, 0.0)
        assert math.isfinite(bd.j_dimensionless)
        assert abs(bd.j_dimensionless) < 1e-30


class TestExchangeEnergyLab:
    def test_overflowing_coulomb_strength_of_a_material_raises(self):
        # c = 6.3e209 and sqrt(b) = 4.3e118: c sqrt(b) overflows, and J was nan
        mat = MaterialParams(1.5e21, 8.8e-68, 2.1e-260)
        with pytest.raises(
            ParameterOverflowError,
            match=r"^coulomb strength c=6.27.*e\+209 is too large at b=1.83.*e\+237: "
                  r"c\*sqrt\(b\) overflows$",
        ):
            exchange_energy_lab(mat, FieldConfig(1.0, 0.0, 1.0))

    def test_composition_pins(self, gaas, gaas_fields, golden):
        bd = exchange_energy_lab(gaas, gaas_fields)
        assert rel_err(bd.j_mev, golden["j_mev_gaas_b0_a0p7ab"]) < 1e-12
        bd1 = exchange_energy_lab(gaas, gaas_fields._replace(B=1.0))
        assert rel_err(bd1.j_mev, golden["j_mev_gaas_1t_a0p7ab"]) < 1e-12

    def test_even_in_b(self, gaas, gaas_fields):
        plus = exchange_energy_lab(gaas, gaas_fields._replace(B=1.5))
        minus = exchange_energy_lab(gaas, gaas_fields._replace(B=-1.5))
        assert plus == minus

    def test_sign_change_once_in_b(self, gaas, gaas_fields):
        grid = np.linspace(0.01, 3.0, 300)
        signs = [
            exchange_energy_lab(gaas, gaas_fields._replace(B=float(B))).j_mev > 0.0
            for B in grid
        ]
        flips = sum(1 for s1, s2 in zip(signs[:-1], signs[1:]) if s1 != s2)
        assert signs[0]
        assert flips == 1

    def test_strong_field_ferromagnetic_and_fading(self, gaas, gaas_fields):
        values = [
            exchange_energy_lab(gaas, gaas_fields._replace(B=B)).j_mev
            for B in (6.0, 7.0, 8.0, 10.0)
        ]
        assert all(v < 0.0 for v in values)
        assert all(abs(v2) < abs(v1) for v1, v2 in zip(values[:-1], values[1:]))

    def test_errors_propagate(self, gaas):
        with pytest.raises(SingularConfigurationError):
            exchange_energy_lab(gaas, FieldConfig(B=0.0, E=0.0, a=0.0))
