"""Material parameters, field configuration, and unit conversions.

Lab-facing quantities are SI-flavoured (Tesla, V/m, nm, meV).  Everything
downstream works with four dimensionless numbers derived here:

    b   magnetic compression factor of the dot orbitals (>= 1),
    d   half inter-dot distance in units of the effective Bohr radius,
    c   Coulomb interaction strength relative to the confinement quantum,
    chi electric dipole ratio e*E*a / (hbar*omega_0).

The confinement quantum hbar*omega_0 sets the energy unit and the single
well Bohr radius a_B = sqrt(hbar / (m omega_0)) sets the length unit.
The physical constants are CODATA 2022 (the doubles scipy.constants holds).
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

from .errors import InvalidParameterError, SingularConfigurationError

E_CHARGE = 1.602176634e-19  # C
EPS0 = 8.8541878188e-12  # F/m
HBAR = 1.0545718176461565e-34  # J s
M_ELECTRON = 9.1093837139e-31  # kg
MEV_TO_J = 1e-3 * E_CHARGE
NM_TO_M = 1e-9


class MaterialParams(NamedTuple):
    """Host material and confinement description.

    effective_mass        electron mass as a multiple of the bare mass
    dielectric_const      relative permittivity kappa
    confinement_energy    single-well level spacing hbar*omega_0 in meV
    c_override            optional fixed value for the dimensionless
                          Coulomb strength, replacing the derived one
    """

    effective_mass: float
    dielectric_const: float
    confinement_energy: float
    c_override: float | None = None

    def validate(self):
        for name in ("effective_mass", "dielectric_const", "confinement_energy"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")
        if self.c_override is not None and not (
            math.isfinite(self.c_override) and self.c_override >= 0.0
        ):
            raise InvalidParameterError(f"c_override must be finite and >= 0, got {self.c_override!r}")


class FieldConfig(NamedTuple):
    """Applied fields and geometry.

    B   magnetic flux density in Tesla, along z (sign irrelevant: enters
        through b only, so negative values are folded by symmetry)
    E   electric field in V/m, along x
    a   half distance between the dot centers, in nm (> 0)
    """

    B: float
    E: float
    a: float

    def validate(self):
        if self.a == 0.0:
            raise SingularConfigurationError(
                "singular configuration d=0: the two dots coincide"
            )
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise InvalidParameterError(f"half-distance a must be finite and > 0, got {self.a!r}")
        if not math.isfinite(self.B):
            raise InvalidParameterError(f"B must be finite, got {self.B!r}")
        if not math.isfinite(self.E):
            raise InvalidParameterError(f"E must be finite, got {self.E!r}")


class DerivedParams(NamedTuple):
    """Dimensionless model inputs plus the frequencies they come from.

    larmor        omega_L = e B / (2 m), rad/s
    fock_darwin   Omega = sqrt(omega_0^2 + omega_L^2), rad/s
    b             Omega / omega_0, magnetic compression factor
    d             a / a_B, dimensionless half-distance
    bohr_radius   a_B in nm
    c_coulomb     dimensionless Coulomb strength
    efield_ratio  e E a / (hbar omega_0)
    """

    larmor: float
    fock_darwin: float
    b: float
    d: float
    bohr_radius: float
    c_coulomb: float
    efield_ratio: float


GAAS = MaterialParams(effective_mass=0.067, dielectric_const=13.1, confinement_energy=3.0)

BUILTIN_MATERIALS = {"gaas": GAAS}

#: Environment variable naming a directory of extra material JSON presets.
MATERIAL_PATH_ENV = "DOTX_MATERIAL_PATH"


class _Material(NamedTuple):
    """The per-material constants every lab-to-model mapping uses."""

    mass: float  # effective mass m, kg
    omega0: float  # confinement frequency omega_0, rad/s
    bohr_radius: float  # a_B = sqrt(hbar / (m omega_0)), nm
    c: float  # dimensionless Coulomb strength
    quantum: float  # confinement quantum hbar omega_0, J


#: The last material `_material_constants` accepted, with its constants.
_last_material: tuple = (object(), None)


def _material_constants(mat: MaterialParams) -> _Material:
    """Check the material and derive its constants, each formula written once.

    c = sqrt(pi/2) * (e^2 / (4 pi eps0 kappa a_B)) / (hbar omega_0), i.e.
    the screened interaction energy at the Bohr-radius scale measured
    against the confinement quantum, unless the material overrides it.
    The last material object accepted is remembered with its constants, one
    slot matched by identity, so a switch map checks GaAs once.  Equal
    materials stay apart (c_override -0.0 and 0.0 give `coulomb_term`s of
    opposite sign), and a rejected material raises on every call.
    """
    global _last_material
    held, const = _last_material
    if held is mat:
        return const
    mat.validate()
    quantum = mat.confinement_energy * MEV_TO_J
    m = mat.effective_mass * M_ELECTRON
    omega0 = quantum / HBAR
    m_omega0 = m * omega0  # 0 where the mass or the quantum underflows
    a_b = math.sqrt(HBAR / m_omega0) / NM_TO_M if m_omega0 > 0.0 else math.inf
    if not (math.isfinite(a_b) and a_b > 0.0):
        raise InvalidParameterError(
            f"effective_mass {mat.effective_mass!r} and confinement_energy_mev "
            f"{mat.confinement_energy!r} give a Bohr radius that is not finite and > 0"
        )
    c = mat.c_override
    if c is None:
        screening = 4.0 * math.pi * EPS0 * mat.dielectric_const * (a_b * NM_TO_M)
        # The product underflows to 0 for a tiny kappa: c is then infinite.
        e_coul = E_CHARGE**2 / screening if screening > 0.0 else math.inf
        c = math.sqrt(math.pi / 2.0) * e_coul / quantum
        if not math.isfinite(c):
            raise InvalidParameterError(
                f"dielectric_const {mat.dielectric_const!r} gives a Coulomb strength "
                "that is not finite"
            )
    const = _Material(m, omega0, a_b, c, quantum)
    _last_material = mat, const  # one tuple, so a reader sees both or neither
    return const


def _lab_point(const: _Material, B, E, a, hypot=math.hypot) -> tuple:
    """(larmor, fock_darwin, b, d, efield_ratio) of the lab point (B, E, a) for
    the material's constants, unchecked: the one map from lab fields to the
    model, for floats or, with numpy's hypot, arrays."""
    return (*_lab_b(const, B, hypot), a / const.bohr_radius, _lab_chi(const, E, a))


def _lab_b(const: _Material, B, hypot=math.hypot) -> tuple:
    """(larmor, fock_darwin, b) of B, as `_lab_point` forms them."""
    larmor = E_CHARGE * abs(B) / (2.0 * const.mass)
    fock_darwin = hypot(const.omega0, larmor)
    return larmor, fock_darwin, fock_darwin / const.omega0


def _lab_chi(const: _Material, E, a):
    """chi = e E a / (hbar omega_0) of E and a (nm), as `_lab_point` forms it."""
    return E_CHARGE * E * a * NM_TO_M / const.quantum


def bohr_radius_nm(mat: MaterialParams) -> float:
    """Effective Bohr radius sqrt(hbar / (m omega_0)) of one well, in nm.
    Like every constant below, it raises InvalidParameterError for a
    material `_material_constants` rejects."""
    return _material_constants(mat).bohr_radius


def coulomb_strength(mat: MaterialParams) -> float:
    """Dimensionless Coulomb strength for the material (see
    `_material_constants`).  GaAs with a 3 meV well gives c close to 2.36.
    """
    return _material_constants(mat).c


def derive_parameters(mat: MaterialParams, fields: FieldConfig) -> DerivedParams:
    """Map lab inputs to the dimensionless model parameters; fields
    `FieldConfig.validate` rejects raise its error."""
    const = _material_constants(mat)
    B, E, a = fields
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(B) and math.isfinite(E)):
        fields.validate()  # raises: the accept condition above fails
    larmor, fock_darwin, b, d, chi = _lab_point(const, B, E, a)
    return DerivedParams(larmor, fock_darwin, b, d, const.bohr_radius, const.c, chi)


def fields_from_dimensionless(
    mat: MaterialParams, b: float, d: float, efield_ratio: float = 0.0
) -> FieldConfig:
    """Invert (b, d, chi) back to lab fields for the given material.  Fields
    that `FieldConfig.validate` rejects raise InvalidParameterError with its message."""
    m, omega0, a_b, _, _ = _material_constants(mat)
    if not (math.isfinite(b) and b >= 1.0):
        raise InvalidParameterError(f"compression factor b must be finite and >= 1, got {b!r}")
    if not (math.isfinite(d) and d > 0.0):
        raise InvalidParameterError(f"dimensionless distance d must be > 0, got {d!r}")
    larmor = omega0 * math.sqrt(b * b - 1.0)
    B = 2.0 * m * larmor / E_CHARGE
    a_nm = d * a_b
    E = efield_ratio * mat.confinement_energy * MEV_TO_J  # chi = 0 gives E = 0 undivided
    if efield_ratio != 0.0:
        e_a = E_CHARGE * a_nm * NM_TO_M  # 0 where a tiny a underflows: E is then inf
        E = E / e_a if e_a > 0.0 else math.inf
    fields = FieldConfig(B=B, E=E, a=a_nm)
    try:  # a nan chi, or fields past the float range, fail here
        fields.validate()
    except SingularConfigurationError as exc:  # d a_B underflows to a = 0
        raise InvalidParameterError(str(exc)) from None
    return fields


def load_material(path: str) -> MaterialParams:
    """Read a material config file (JSON).

    Required keys: effective_mass, dielectric_const, confinement_energy_mev.
    Optional: c_override.
    """
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidParameterError(f"cannot read material file {path}: {exc}") from exc
    try:
        mat = MaterialParams(
            effective_mass=float(raw["effective_mass"]),
            dielectric_const=float(raw["dielectric_const"]),
            confinement_energy=float(raw["confinement_energy_mev"]),
            c_override=(float(raw["c_override"]) if "c_override" in raw else None),
        )
    except KeyError as exc:
        raise InvalidParameterError(f"material file {path} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"material file {path} is malformed: {exc}") from exc
    mat.validate()
    return mat


def material_by_name(name: str, search_dir: str | None = None) -> MaterialParams:
    """Resolve a preset name, falling back to `<dir>/<name>.json`.

    The directory comes from `search_dir` or the DOTX_MATERIAL_PATH
    environment variable.
    """
    key = name.lower()
    if key in BUILTIN_MATERIALS:
        return BUILTIN_MATERIALS[key]
    directory = search_dir or os.environ.get(MATERIAL_PATH_ENV)
    if directory:
        candidate = os.path.join(directory, f"{name}.json")
        if os.path.exists(candidate):
            return load_material(candidate)
    raise InvalidParameterError(f"unknown material preset {name!r}")
