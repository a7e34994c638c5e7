import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

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
    p = derive_parameters(gaas, replace(gaas_fields, B=1.0))
    hbar_larmor_mev = p.larmor * 1.0545718176461565e-34 / 1.602176634e-22
    assert rel_err(hbar_larmor_mev, golden["hbar_omega_larmor_1t_mev"]) < 1e-9
    assert rel_err(p.b, golden["b_at_1t"]) < 1e-12
    assert rel_err(p.bohr_radius, golden["bohr_radius_gaas_nm"]) < 1e-12


def test_coulomb_strength_gaas(gaas, golden):
    c = coulomb_strength(gaas)
    assert rel_err(c, golden["c_coulomb_gaas"]) < 1e-12
    assert abs(c - 2.36) < 0.05


def test_coulomb_strength_override(gaas):
    assert coulomb_strength(replace(gaas, c_override=2.36)) == 2.36


def test_derive_parameters_trivials(gaas, gaas_fields):
    p = derive_parameters(gaas, gaas_fields)
    assert (p.b, p.efield_ratio) == (1.0, 0.0)
    assert math.isclose(p.d, 0.7, rel_tol=1e-14)
    assert p.c_coulomb == coulomb_strength(gaas)
    for B in (0.5, 2.0, 7.0):
        assert derive_parameters(gaas, replace(gaas_fields, B=B)).efield_ratio == 0.0


def test_efield_ratio_pinned(gaas, golden):
    chi = derive_parameters(gaas, FieldConfig(B=0.0, E=1e5, a=13.65)).efield_ratio
    assert rel_err(chi, golden["efield_ratio_e1e5_a13p65nm"]) < 1e-12


def test_b_even_and_increasing(gaas, gaas_fields):
    bs = []
    for B in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        b_pos = derive_parameters(gaas, replace(gaas_fields, B=B)).b
        b_neg = derive_parameters(gaas, replace(gaas_fields, B=-B)).b
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


def test_c_scales_inverse_sqrt_confinement(gaas):
    c1 = coulomb_strength(gaas)
    c2 = coulomb_strength(replace(gaas, confinement_energy=2 * gaas.confinement_energy))
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
