import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dotx
from dotx import units
from dotx.errors import InvalidParameterError, SingularConfigurationError
from dotx.units import (
    FieldConfig,
    MaterialParams,
    coulomb_strength,
    derive_parameters,
    fields_from_dimensionless,
    load_material,
    material_by_name,
)

from conftest import rel_err


def test_zero_field_identity(gaas, gaas_fields):
    p = derive_parameters(gaas, gaas_fields)
    assert p.larmor == 0.0
    assert p.b == 1.0
    assert math.isclose(p.d, 0.7, rel_tol=1e-14)


def test_one_tesla_pins(gaas, gaas_fields, golden):
    p = derive_parameters(gaas, gaas_fields._replace(B=1.0))
    hbar_larmor_mev = p.larmor * 1.0545718176461565e-34 / 1.602176634e-22
    assert rel_err(hbar_larmor_mev, golden["hbar_omega_larmor_1t_mev"]) < 1e-9
    assert rel_err(p.b, golden["b_at_1t"]) < 1e-12
    assert rel_err(p.bohr_radius, golden["bohr_radius_gaas_nm"]) < 1e-12


def test_coulomb_strength_gaas(gaas, golden):
    c = coulomb_strength(gaas)
    assert rel_err(c, golden["c_coulomb_gaas"]) < 1e-12
    assert abs(c - 2.36) < 0.05


def test_coulomb_strength_override(gaas):
    assert coulomb_strength(gaas._replace(c_override=2.36)) == 2.36


def test_derive_parameters_trivials(gaas, gaas_fields):
    p = derive_parameters(gaas, gaas_fields)
    assert (p.b, p.efield_ratio) == (1.0, 0.0)
    assert math.isclose(p.d, 0.7, rel_tol=1e-14)
    assert p.c_coulomb == coulomb_strength(gaas)
    for B in (0.5, 2.0, 7.0):
        assert derive_parameters(gaas, gaas_fields._replace(B=B)).efield_ratio == 0.0


def test_efield_ratio_pinned(gaas, golden):
    chi = derive_parameters(gaas, FieldConfig(B=0.0, E=1e5, a=13.65)).efield_ratio
    assert rel_err(chi, golden["efield_ratio_e1e5_a13p65nm"]) < 1e-12


def test_b_even_and_increasing(gaas, gaas_fields):
    bs = []
    for B in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        b_pos = derive_parameters(gaas, gaas_fields._replace(B=B)).b
        b_neg = derive_parameters(gaas, gaas_fields._replace(B=-B)).b
        assert b_pos == b_neg
        bs.append(b_pos)
    assert bs[0] == 1.0
    assert all(b2 > b1 for b1, b2 in zip(bs[:-1], bs[1:]))


@pytest.mark.parametrize("b,d,chi", [(1.0, 0.7, 0.0), (1.3, 0.45, 0.8), (2.5, 1.8, -0.2)])
def test_dimensionless_round_trip(gaas, b, d, chi):
    fields = fields_from_dimensionless(gaas, b, d, chi)
    p = derive_parameters(gaas, fields)
    assert rel_err(p.b, b) < 1e-12
    assert rel_err(p.d, d) < 1e-12
    if chi:
        assert rel_err(p.efield_ratio, chi) < 1e-12


@pytest.mark.parametrize(
    "b,d,chi,message",
    [
        (1.5, 0.7, math.nan, "E must be finite, got nan"),
        (1.5, 0.7, math.inf, "E must be finite, got inf"),
        (1e200, 0.7, 0.0, "B must be finite, got inf"),  # b * b overflows
        (1.5, 1e-300, 0.3, "E must be finite, got inf"),  # e * a underflows to 0
        (1.5, 1e308, 0.0, "half-distance a must be finite and > 0, got inf"),
    ],
)
def test_dimensionless_fields_past_the_float_range_rejected(gaas, b, d, chi, message):
    # the error FieldConfig.validate raises, not a record derive_parameters rejects
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        fields_from_dimensionless(gaas, b, d, chi)


@pytest.mark.parametrize(
    "b,d,message",
    [
        (0.5, 0.7, "compression factor b must be finite and >= 1, got 0.5"),
        (1.5, 0.0, "dimensionless distance d must be > 0, got 0.0"),
    ],
)
def test_dimensionless_inputs_out_of_range_rejected(gaas, b, d, message):
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        fields_from_dimensionless(gaas, b, d)


def test_dimensionless_distance_underflowing_to_zero_rejected(gaas):
    tiny = gaas._replace(effective_mass=1e150, confinement_energy=1e100)  # a_B near 1e-124 nm
    with pytest.raises(InvalidParameterError, match="singular configuration d=0"):
        fields_from_dimensionless(tiny, 1.0, 1e-200)


def test_dimensionless_zero_field_needs_no_division(gaas):
    # e * a underflows to 0 here (a ZeroDivisionError before); chi = 0 gives E = 0
    fields = fields_from_dimensionless(gaas, 1.5, 1e-300)
    assert fields.E == 0.0 and 0.0 < fields.a < 1e-298
    assert derive_parameters(gaas, fields).b == pytest.approx(1.5, rel=1e-12)
    # chi = -0 keeps its sign, as the division gave it before
    assert math.copysign(1.0, fields_from_dimensionless(gaas, 1.5, 0.7, -0.0).E) == -1.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1.0, 1e150), st.floats(1e-300, 1e300), st.floats(-1e300, 1e300, allow_subnormal=False)
)
def test_dimensionless_fields_keep_their_bits(b, d, chi):
    # every record that was valid before keeps the bits of its three formulas
    gaas = units.GAAS
    const = units._material_constants(gaas)
    with np.errstate(all="ignore"):
        a_nm = d * const.bohr_radius
        B = 2.0 * const.mass * (const.omega0 * np.sqrt(np.float64(b) * b - 1.0)) / units.E_CHARGE
        E = (np.float64(chi) * gaas.confinement_energy * units.MEV_TO_J
             / (units.E_CHARGE * np.float64(a_nm) * units.NM_TO_M))
    if not (np.isfinite(a_nm) and np.isfinite(B) and np.isfinite(E) and a_nm > 0.0):
        return  # rejected now, and out of the float range before
    fields = fields_from_dimensionless(gaas, b, d, chi)
    assert (fields.B, fields.E, fields.a) == (float(B), float(E), a_nm)
    assert math.copysign(1.0, fields.E) == math.copysign(1.0, E)


def test_c_scales_inverse_sqrt_confinement(gaas):
    c1 = coulomb_strength(gaas)
    c2 = coulomb_strength(gaas._replace(confinement_energy=2 * gaas.confinement_energy))
    assert rel_err(c2, c1 / math.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize(
    "mat",
    [
        MaterialParams(-0.067, 13.1, 3.0),
        MaterialParams(0.067, 0.0, 3.0),
        MaterialParams(0.067, 13.1, -3.0),
        MaterialParams(math.nan, 13.1, 3.0),
    ],
)
def test_invalid_material_rejected(mat):
    with pytest.raises(InvalidParameterError):
        derive_parameters(mat, FieldConfig(B=0.0, E=0.0, a=10.0))


def test_invalid_fields_rejected(gaas):
    with pytest.raises(SingularConfigurationError):
        derive_parameters(gaas, FieldConfig(B=0.0, E=0.0, a=0.0))
    with pytest.raises(InvalidParameterError):
        derive_parameters(gaas, FieldConfig(B=0.0, E=0.0, a=-1.0))
    with pytest.raises(InvalidParameterError):
        derive_parameters(gaas, FieldConfig(B=math.inf, E=0.0, a=1.0))


def test_material_file_round_trip(tmp_path, gaas):
    path = tmp_path / "custom.json"
    path.write_text(
        '{"effective_mass": 0.067, "dielectric_const": 13.1,'
        ' "confinement_energy_mev": 3.0, "c_override": 2.36}',
        encoding="utf-8",
    )
    mat = load_material(str(path))
    assert mat.effective_mass == gaas.effective_mass
    assert mat.c_override == 2.36
    assert coulomb_strength(mat) == 2.36


def test_material_file_missing_key(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"effective_mass": 0.067}', encoding="utf-8")
    with pytest.raises(InvalidParameterError):
        load_material(str(path))


def test_material_by_name(tmp_path, monkeypatch, gaas):
    assert material_by_name("gaas") == gaas
    assert material_by_name("GaAs") == gaas
    with pytest.raises(InvalidParameterError):
        material_by_name("unobtainium")
    path = tmp_path / "inas.json"
    path.write_text(
        '{"effective_mass": 0.023, "dielectric_const": 15.15, "confinement_energy_mev": 3.0}',
        encoding="utf-8",
    )
    monkeypatch.setenv("DOTX_MATERIAL_PATH", str(tmp_path))
    assert material_by_name("inas").effective_mass == 0.023


def test_constants_equal_scipy_codata():
    from scipy import constants

    assert units.E_CHARGE == constants.elementary_charge
    assert units.EPS0 == constants.epsilon_0
    assert units.HBAR == constants.hbar
    assert units.M_ELECTRON == constants.m_e


def test_import_loads_no_scipy():
    src = str(pathlib.Path(dotx.__file__).resolve().parents[1])
    probe = "import sys, dotx, dotx.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
