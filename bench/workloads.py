"""The benchmark's workloads: why each exists, and its inputs from a seed.

Every load comes from one process with no worker threads.  A workload's
inputs depend only on its seed; the program receives only these inputs.
A workload runs in passes over its inputs; one pass is a list of
operations ("ops") that each carry the same work, counted in the
workload's work unit.
"""

from __future__ import annotations

import random

WORKLOADS = {
    "cli-session": {
        "why": (
            "dotx commands one after another, each in a fresh process, as a user runs them at "
            "a terminal. About 90% of the wall time is interpreter start plus import and the "
            "compute is a few ms per command, so it shows import, dependency and lazy-import "
            "changes and bypasses kernel work."
        ),
        "loop": "closed loop, one client; next command starts when the previous one exits",
        "op": "one dotx command in a fresh process",
        "unit": "commands",
        "rate_alias": "commands_per_s",
        "latency_alias": "cli",
    },
    "phase-map": {
        "why": (
            "J in process, after import, over a dense (B, E) grid and a (B, d) grid, one long "
            "sweep row per fixed field. The closed form and derive_parameters do nearly all the "
            "work, so this is the load an array-native kernel targets; it bypasses import and "
            "the oracle."
        ),
        "loop": "closed loop, one client, in process",
        "op": "one sweep row of 1601 points",
        "unit": "J points",
        "rate_alias": "map_points_per_s",
        "latency_alias": "row",
    },
    "switch-curve": {
        "why": (
            "find_switch in process over fixed brackets, tracing B*(E) along B and E*(B) along "
            "E at tol=1e-9 meV. It uses the closed form the other way, as dependent scalar "
            "calls that cannot be batched, so per-call overhead added by a batch kernel shows "
            "here as a regression."
        ),
        "loop": "closed loop, one client, in process",
        "op": "one switch map: the B*(E) and E*(B) curves, 80 find_switch calls",
        "unit": "switches",
        "rate_alias": "switches_per_s",
        "latency_alias": "map",
    },
    "oracle-check": {
        "why": (
            "assemble_oracle in process over the default 5x5 (B, d) grid at E = 0 and "
            "E = 1e5 V/m. It is the only workload where the oracle and the special quadratures "
            "do the work; without it the oracle layer goes unmeasured."
        ),
        "loop": "closed loop, one client, in process",
        "op": "one assemble_oracle point, as a one-point `dotx oracle` computes it",
        "unit": "oracle points",
        "rate_alias": "oracle_points_per_s",
        "latency_alias": "point",
    },
}

# Sizes are fixed; the seed only places points and brackets in the stated
# ranges.  Ranges keep every bracket around exactly one sign change.
ROW_STEPS = 1601
MAP_ROWS = 12
CURVE_POINTS = 40
ORACLE_GRID_B = (0.0, 1.0, 1.5, 2.0, 3.0)
ORACLE_GRID_D = (0.5, 0.6, 0.7, 0.85, 1.0)
ORACLE_GRID_E = (0.0, 1e5)
SWITCH_TOL_MEV = 1e-9
SWITCH_BRACKET_B = (0.2, 9.5)  # T
SWITCH_BRACKET_E = (0.0, 1.5e6)  # V/m
#: Seed of the cli-session commands whose output digests are pinned in
#: cli_digests.json.
DIGEST_SEED = 0


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one workload; equal seeds give equal inputs."""
    rng = random.Random(f"{workload}:{seed}")
    u = rng.uniform
    if workload == "cli-session":
        return {"commands": _cli_commands(rng)}
    if workload == "phase-map":
        a_over_ab = u(0.6, 0.8)
        rows = [
            {"vary": "B", "start": 0.0, "stop": u(7.0, 8.0), "B": 0.0, "E": e, "a_over_ab": a_over_ab}
            for e in _linspace(0.0, u(2.5e5, 3e5), MAP_ROWS)
        ]
        e_fixed = u(0.0, 5e4)
        d_start, d_stop = u(0.1, 0.15), u(1.4, 1.5)
        rows += [
            {"vary": "d", "start": d_start, "stop": d_stop, "B": b, "E": e_fixed, "a_over_ab": a_over_ab}
            for b in _linspace(0.0, u(2.5, 3.0), MAP_ROWS)
        ]
        return {"steps": ROW_STEPS, "rows": rows}
    if workload == "switch-curve":
        curves = [
            {"axis": "B", "bracket": SWITCH_BRACKET_B,
             "fixed": [{"B": 0.0, "E": e} for e in _linspace(0.0, u(2.5e5, 3e5), CURVE_POINTS)]},
            {"axis": "E", "bracket": SWITCH_BRACKET_E,
             "fixed": [{"B": b, "E": 0.0} for b in _linspace(u(1.8, 2.0), u(3.5, 4.0), CURVE_POINTS)]},
        ]
        return {"a_over_ab": u(0.65, 0.75), "tol": SWITCH_TOL_MEV, "curves": curves}
    if workload == "oracle-check":
        points = [{"B": b, "d": d, "E": e} for e in ORACLE_GRID_E for b in ORACLE_GRID_B for d in ORACLE_GRID_D]
        rng.shuffle(points)
        return {"points": points}
    raise ValueError(f"unknown workload {workload!r}")


def _cli_commands(rng) -> list:
    u = rng.uniform

    def num(x):
        return repr(float(x))

    a_fig = num(u(0.65, 0.75))
    return [
        {"name": "eval", "argv": ["eval", "--json", "--B", num(u(0.0, 3.0)), "--E", num(u(0.0, 2e5)),
                                  "--a-over-ab", num(u(0.5, 1.0))]},
        {"name": "sweep", "argv": ["sweep", "--vary", "B", "--from", "0", "--to", num(u(6.0, 8.0)),
                                   "--steps", "161", "--E", num(u(0.0, 1e5)), "--out", "sweep.csv"]},
        {"name": "switch", "argv": ["switch", "--vary", "B", "--scan", "--from", num(u(0.3, 0.8)),
                                    "--to", num(u(2.5, 4.0)), "--out", "switch.json"]},
        {"name": "scenario", "argv": ["scenario", "--b-operating", num(u(1.8, 2.6)),
                                      "--out", "scenario.json"]},
        {"name": "figure-1", "argv": ["figure", "--id", "1", "--a-over-ab", a_fig, "--out", "fig"]},
        {"name": "figure-2", "argv": ["figure", "--id", "2", "--a-over-ab", a_fig, "--out", "fig"]},
        {"name": "figure-4", "argv": ["figure", "--id", "4", "--a-over-ab", a_fig, "--out", "fig"]},
        {"name": "oracle", "argv": ["oracle", "--grid-b", num(u(0.0, 3.0)), "--grid-d", num(u(0.5, 1.0)),
                                    "--E", num(u(0.0, 1e5)), "--out", "oracle.json"]},
    ]


def output_file(command: dict) -> str | None:
    """Path of the file a command writes, relative to its work directory;
    None when the output is its standard output."""
    argv = command["argv"]
    if "--out" not in argv:
        return None
    out = argv[argv.index("--out") + 1]
    if argv[0] == "figure":
        return f"{out}/fig{argv[argv.index('--id') + 1]}.csv"
    return out
