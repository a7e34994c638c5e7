"""numpy loads on the first array call: importing dotx, and the commands
that evaluate J at points, find a switch or run the scenario, run without it.

Each check runs in a fresh interpreter, since this one has numpy loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import dotx

SRC = str(pathlib.Path(dotx.__file__).resolve().parents[1])

# Every public name of `dotx/__init__`; the oracle's 3 are resolved on
# first access.
PUBLIC_NAMES = [
    "BUILTIN_MATERIALS", "DerivedParams", "DotxError", "ExchangeBreakdown", "FieldConfig",
    "GAAS", "HLBreakdown", "InvalidArgumentError", "InvalidParameterError", "MaterialParams",
    "NoRootInBracketError", "QuadratureError", "QuadratureSpec", "RootConvergenceError",
    "ScenarioError", "ScenarioResult", "ScenarioStep", "SingularConfigurationError", "SweepRow",
    "SweepSpec", "SwitchPoint", "TermEstimate", "assemble_oracle", "bessel_i0", "bessel_i0e",
    "bohr_radius_nm", "brent", "coulomb_strength", "derive_parameters", "exchange_energy",
    "exchange_energy_lab", "fields_from_dimensionless", "find_switch", "integrate_2d",
    "load_material", "material_by_name", "overlap", "scan_switches", "sweep",
    "switching_scenario",
]

ORACLE_NAMES = ["HLBreakdown", "TermEstimate", "assemble_oracle"]

# Second entry points that `assemble_oracle` and `derive_parameters` cover,
# and the orbital and polar-rule helpers only the tests called (the tests
# keep their own reference copies).
REMOVED_NAMES = [
    "overlap_numeric", "to_dimensionless", "upsilon_coulomb", "upsilon_quartic", "upsilon_single",
    "apply_hamiltonian", "build_orbital", "eval_orbital", "OrbitalSpec",
    "integrate_coulomb_relative",
]


def run_python(code: str, cwd) -> list:
    """The JSON value `code` prints on its last line, run in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def run_cli(argv: list, cwd) -> tuple:
    """(exit code, numpy loaded) of `dotx.cli.main(argv)` in a fresh interpreter."""
    code = (
        "import json, sys\n"
        "import dotx.cli\n"
        f"code = dotx.cli.main({argv!r})\n"
        "print()\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))\n"
    )
    return tuple(run_python(code, cwd))


@pytest.mark.parametrize("modules", ["dotx", "dotx.cli"])
def test_import_loads_no_numpy(tmp_path, modules):
    code = f"import json, sys, {modules}\nprint(json.dumps('numpy' in sys.modules))"
    assert run_python(code, tmp_path) is False


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--json"],
        ["eval", "--B", "2", "--E", "1e5"],
        ["switch", "--vary", "B", "--from", "0.5", "--to", "3"],
        ["switch", "--vary", "E", "--B", "2", "--from", "0", "--to", "2e5"],
        ["switch", "--vary", "d", "--B", "1.5", "--from", "0.3", "--to", "1.2"],
        ["switch", "--vary", "B", "--scan", "--from", "0.3", "--to", "4"],
        ["scenario"],
    ],
)
def test_scalar_commands_run_without_numpy(tmp_path, argv):
    assert run_cli(argv, tmp_path) == (0, False)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--vary", "B", "--from", "0", "--to", "3", "--steps", "11"],
        ["oracle", "--grid-b", "1", "--grid-d", "0.7"],
    ],
)
def test_array_commands_load_numpy_and_succeed(tmp_path, argv):
    assert run_cli(argv, tmp_path) == (0, True)


def test_public_names_resolve(tmp_path):
    code = (
        "import json, sys\n"
        "import dotx\n"
        f"names = {PUBLIC_NAMES!r}\n"
        "before = 'numpy' in sys.modules\n"
        "found = [n for n in names if getattr(dotx, n, None) is not None]\n"
        "imported = []\n"
        "for n in names:\n"
        "    exec(f'from dotx import {n}')\n"
        "    imported.append(n)\n"
        "print(json.dumps([before, found, imported]))\n"
    )
    before, found, imported = run_python(code, tmp_path)
    assert before is False
    assert found == imported == PUBLIC_NAMES


def test_oracle_names_are_the_oracle_objects():
    import dotx.oracle

    for name in ORACLE_NAMES:
        assert getattr(dotx, name) is getattr(dotx.oracle, name)
    assert set(ORACLE_NAMES) <= set(PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        dotx.not_a_name  # noqa: B018


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(dotx, name)


def test_star_import_leaves_out_the_oracle_names(tmp_path):
    code = (
        "import json, sys\n"
        "from dotx import *\n"
        f"print(json.dumps([sorted(n for n in {ORACLE_NAMES!r} if n in globals()),"
        " 'numpy' in sys.modules]))\n"
    )
    assert run_python(code, tmp_path) == [[], False]
