"""Exchange energy of two laterally coupled single-electron quantum dots.

Closed-form Heitler-London result in the dimensionless parameters
(b, d, c, chi), an independent quadrature oracle built from the dot
orbitals, and sweep/switch tooling on top, all behind the `dotx` CLI.

The oracle's one computing entry point is `assemble_oracle`.  Its result
holds the numerical overlap `s_num`, the sums u1..u5 (`upsilon`) and J.

Importing the package does not import numpy: the array functions import it
when first called.  The oracle works on arrays throughout, so the names
it exports (`_ORACLE_NAMES`) are resolved from `dotx.oracle` on first
access, and `from dotx import *` does not bring them.
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
from .sweeps import (
    ScenarioResult,
    ScenarioStep,
    SweepRow,
    SweepSpec,
    SwitchPoint,
    brent,
    find_switch,
    scan_switches,
    sweep,
    switching_scenario,
)
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

_ORACLE_NAMES = frozenset(("HLBreakdown", "TermEstimate", "assemble_oracle"))


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
