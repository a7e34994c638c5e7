import json
import pathlib

import pytest

from dotx.units import GAAS, FieldConfig, bohr_radius_nm, derive_parameters

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "pinned_values.json"


@pytest.fixture(scope="session")
def gaas():
    return GAAS


@pytest.fixture(scope="session")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def gaas_fields():
    """GaAs reference geometry: a = 0.7 a_B, no applied fields."""
    return FieldConfig(B=0.0, E=0.0, a=0.7 * bohr_radius_nm(GAAS))


@pytest.fixture()
def count_derivations(monkeypatch):
    """Install a counting derive_parameters in the given modules; the
    returned list gets one entry per call."""

    def install(*modules):
        calls = []

        def counting(mat, fields):
            calls.append(fields)
            return derive_parameters(mat, fields)

        for module in modules:
            monkeypatch.setattr(module, "derive_parameters", counting)
        return calls

    return install


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)
