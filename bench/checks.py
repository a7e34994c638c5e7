"""Checks of a workload's first-pass outputs against the references.

Each check returns one message per failed op.  An op fails when it
raised or a CLI command exited non-zero (counted by the worker), when its
output does not parse, when a J value is off the float64 reference by
more than rtol*|J| + atol, when a switch is off the reference root by
more than the golden relative tolerance, or when an oracle point is
incomplete or above the CLI's 0.01 discrepancy threshold.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

import reference as ref

ORACLE_THRESHOLD = 0.01  # the `dotx oracle --threshold` default


def _a_b():
    return ref.lab_scales()[1]


def _j_ok(got, B, E, a_nm) -> bool:
    want = ref.j_lab_mev(B, E, a_nm)
    got = np.asarray(got, dtype=float)
    return bool(np.all(np.abs(got - want) <= ref.J_RTOL * np.abs(want) + ref.J_ATOL_MEV))


def _root_ok(got: float, want: float) -> bool:
    return abs(got - want) <= ref.GOLDEN_RTOL * abs(want)


def check(workload: str, inputs: dict, first: list) -> list[str]:
    """Failure messages for the ops of the first pass that ran."""
    checker = {
        "cli-session": _check_cli,
        "phase-map": _check_map,
        "switch-curve": _check_switch,
        "oracle-check": _check_oracle,
    }[workload]
    failures = []
    for i, output in enumerate(first):
        if output is None:  # the op raised; the worker counted it
            continue
        try:
            problem = checker(inputs, i, output)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"output does not parse: {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"op {i}: {problem}")
    return failures


def _check_map(inputs, i, js):
    row = inputs["rows"][i]
    x = np.linspace(row["start"], row["stop"], inputs["steps"])
    a = row["a_over_ab"] * _a_b()
    if row["vary"] == "B":
        ok = _j_ok(js, x, row["E"], a)
    else:
        ok = _j_ok(js, row["B"], row["E"], x * _a_b())
    return None if ok else f"J off the reference on {row['vary']} row"


def _check_switch(inputs, i, curves):
    a = inputs["a_over_ab"] * _a_b()
    for curve, points in zip(inputs["curves"], curves, strict=True):
        for fixed, (value, residual) in zip(curve["fixed"], points, strict=True):
            want = ref.switch_root(curve["axis"], dict(fixed, a=a), *curve["bracket"])
            if residual > inputs["tol"] or not _root_ok(value, want):
                return f"{curve['axis']} switch at {fixed}: {value!r} vs reference {want!r} (residual {residual!r})"
    return None


def _check_oracle(inputs, i, output):
    p = inputs["points"][i]
    j_oracle, j_closed, disc, incomplete = output
    if incomplete or not disc <= ORACLE_THRESHOLD:
        return f"oracle point {p}: incomplete={incomplete} discrepancy={disc!r}"
    if not _j_ok(j_closed * ref.GAAS["confinement_mev"], p["B"], p["E"], p["d"] * _a_b()):
        return f"closed form at oracle point {p} off the reference"
    return None


def _opt(argv, flag, default=None):
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


def _csv_rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header, *rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return header, np.array(rows, dtype=float)


def _b_switch_reference(a_nm):
    # The sign switch of the GaAs pair at E = 0, about 1.33 T at a = 0.7 a_B.
    return ref.switch_root_mp(a_nm, 0.5, 2.5)


def _check_cli(inputs, i, out):
    command = inputs["commands"][i]
    argv = command["argv"]
    if out["exit"] != 0:
        return f"{command['name']} exited {out['exit']}"
    text = out["text"]
    a_b = _a_b()
    a = _opt(argv, "--a-over-ab", 0.7) * a_b
    name = command["name"]
    if name == "eval":
        payload = json.loads(text)
        ok = _j_ok(payload["J_meV"], _opt(argv, "--B"), _opt(argv, "--E"), a)
    elif name == "sweep":
        header, rows = _csv_rows(text)
        ok = len(rows) == int(_opt(argv, "--steps")) and header[1] == "J_meV"
        ok = ok and _j_ok(rows[:, 1], rows[:, 0], _opt(argv, "--E", 0.0), a)
    elif name == "switch":
        points = json.loads(text)["switch_points"]
        ok = len(points) == 1 and _root_ok(points[0]["value"], _b_switch_reference(a))
    elif name == "scenario":
        payload = json.loads(text)
        b_op = _opt(argv, "--b-operating")
        e_want = ref.switch_root("E", {"B": b_op, "E": 0.0, "a": a}, 0.0, 2e6)
        steps = payload["steps"]
        ok = (
            _root_ok(payload["b_switch"]["value"], _b_switch_reference(a))
            and _root_ok(payload["e_switch"]["value"], e_want)
            and len(steps) == 32
            and _j_ok([s["J_meV"] for s in steps], [s["B_T"] for s in steps], [s["E_Vm"] for s in steps], a)
        )
    elif name.startswith("figure"):
        header, rows = _csv_rows(text)
        vary = {"1": "B", "2": "E", "4": "d"}[argv[argv.index("--id") + 1]]
        ok = len(header) > 1 and len(rows) > 1
        for col, label in enumerate(header[1:], start=1):
            key, value = label.removeprefix("J_meV_").split("=")
            point = {"B": 0.0, "E": 0.0, "a": a}
            point["B" if key == "B_T" else "E"] = float(value)
            if vary == "d":
                point["a"] = rows[:, 0] * a_b
            else:
                point[vary] = rows[:, 0]
            ok = ok and _j_ok(rows[:, col], point["B"], point["E"], point["a"])
    elif name == "oracle":
        payload = json.loads(text)
        (point,) = payload["points"]
        ok = (
            payload["all_within_threshold"]
            and not point.get("incomplete", False)
            and point["rel_discrepancy"] <= ORACLE_THRESHOLD
        )
    else:
        return f"no check for command {name!r}"
    return None if ok else f"{name} output fails its check"
