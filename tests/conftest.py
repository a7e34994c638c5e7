import json
import math
import pathlib

import numpy as np
import pytest

from dotx.closed_form import exchange_energy, overlap
from dotx.errors import InvalidParameterError, SingularConfigurationError
from dotx.sweeps import SweepRow
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


def loop_sweep(spec):
    """The per-point sweep that `sweep` replaced, kept as its reference."""
    rows = []
    for x in np.linspace(spec.start, spec.stop, spec.steps).tolist():
        B, E, a = spec.fixed.B, spec.fixed.E, spec.fixed.a
        if spec.vary == "B":
            B = x
        elif spec.vary == "E":
            E = x
        else:
            a = x * bohr_radius_nm(spec.material)
        try:
            p = derive_parameters(spec.material, FieldConfig(B, E, a))
            bd = exchange_energy(
                p.b, p.d, p.c_coulomb, p.efield_ratio,
                energy_scale_mev=spec.material.confinement_energy,
            )
        except (SingularConfigurationError, InvalidParameterError):
            rows.append(SweepRow(x, math.nan, None, math.nan, math.nan, math.nan, singular=True))
            continue
        rows.append(SweepRow(x, bd.j_mev, bd, p.b, p.d, overlap(p.b, p.d)))
    return rows


def efield_switch_mp(mat, B, a_nm, lo, hi, width=1e-6):
    """The E-switch (V/m) of J in 50-digit arithmetic, by bisection of J's
    sign on [lo, hi] down to `width`; b, d and c are the program's floats.

    J = (coulomb + quartic + (3/2) chi^2 / d^2) / sinh(2 d^2 (2b - 1/b)),
    with chi = e E a / (hbar omega_0) = E a / (hbar omega_0 / e).
    """
    from mpmath import mp, mpf

    p = derive_parameters(mat, FieldConfig(B, 0.0, a_nm))
    with mp.workdps(50):
        b, d, c = (mpf(repr(v)) for v in (p.b, p.d, p.c_coulomb))
        volts = mpf(repr(mat.confinement_energy)) / 1000  # hbar omega_0 / e
        chi_per_field = mpf(repr(a_nm)) / 10**9 / volts
        d2 = d * d
        x1, x2 = b * d2, d2 * (b - 1 / b)

        def j(E):
            chi = mpf(repr(E)) * chi_per_field
            coulomb = c * mp.sqrt(b) * (
                mp.exp(-x1) * mp.besseli(0, x1) - mp.exp(x2) * mp.besseli(0, x2)
            )
            bracket = coulomb + mpf(3) / (4 * b) * (1 + x1) + mpf(3) / 2 * chi**2 / d2
            return bracket / mp.sinh(2 * d2 * (2 * b - 1 / b))

        j_lo = j(lo)
        assert j_lo * j(hi) < 0
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if (j(mid) > 0) == (j_lo > 0):
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)
