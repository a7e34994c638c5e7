"""Exchange energy of two laterally coupled single-electron quantum dots.

Closed-form Heitler-London result in the dimensionless parameters
(b, d, c, chi), an independent quadrature oracle built from the dot
orbitals, and sweep/switch tooling on top, all behind the `dotx` CLI.

The oracle's one computing entry point is `assemble_oracle`.  Its result
holds the numerical overlap `s_num`, the sums u1..u5 (`upsilon`) and J.

Importing the package loads the closed form, its units, special functions
and errors, but not numpy (the array functions import it when first
called) and not the drivers: `dotx.sweeps`, `dotx.oracle` and the public
names they define (`_LAZY`) are resolved on first access.
`from dotx import *` brings `__all__`, which leaves out the oracle's names.
"""

from .closed_form import ExchangeBreakdown, exchange_energy, exchange_energy_lab, overlap
from .errors import (
    DotxError,
    InvalidArgumentError,
    InvalidParameterError,
    NoRootInBracketError,
    QuadratureError,
    RootConvergenceError,
    ScenarioError,
    SingularConfigurationError,
)
from .special import QuadratureSpec, bessel_i0, bessel_i0e, integrate_2d
from .units import (
    BUILTIN_MATERIALS,
    GAAS,
    DerivedParams,
    FieldConfig,
    MaterialParams,
    bohr_radius_nm,
    coulomb_strength,
    derive_parameters,
    fields_from_dimensionless,
    load_material,
    material_by_name,
)

__version__ = "0.1.0"

_SWEEPS_NAMES = (
    "ScenarioResult", "ScenarioStep", "SweepRow", "SweepSpec", "SwitchPoint",
    "brent", "find_switch", "scan_switches", "sweep", "switching_scenario",
)
_ORACLE_NAMES = ("HLBreakdown", "TermEstimate", "assemble_oracle")

#: Each deferred module, and each public name it defines, to that module.
_LAZY = {name: module for module, names in (("sweeps", _SWEEPS_NAMES), ("oracle", _ORACLE_NAMES))
         for name in (module, *names)}

__all__ = [
    "BUILTIN_MATERIALS", "DerivedParams", "DotxError", "ExchangeBreakdown", "FieldConfig",
    "GAAS", "InvalidArgumentError", "InvalidParameterError", "MaterialParams",
    "NoRootInBracketError", "QuadratureError", "QuadratureSpec", "RootConvergenceError",
    "ScenarioError", "SingularConfigurationError", "bessel_i0", "bessel_i0e",
    "bohr_radius_nm", "coulomb_strength", "derive_parameters", "exchange_energy",
    "exchange_energy_lab", "fields_from_dimensionless", "integrate_2d", "load_material",
    "material_by_name", "overlap", *_SWEEPS_NAMES,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)
