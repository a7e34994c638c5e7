"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q

The smoke runs start the real runner on one-second runs, so the whole
file takes about a minute.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import calibration
import checks
import run
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, make_inputs

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["bench"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert make_inputs(workload, 7) == make_inputs(workload, 7)
    assert make_inputs("phase-map", 7) != make_inputs("phase-map", 8)


def test_latency_stats():
    stats = run.latency_stats([float(i) for i in range(100)])
    assert stats["tail_s"] == 89.0 and stats["beyond_tail"] == 10 and stats["tail_pct"] == 90.0
    assert stats["p50_s"] == 49.5 and stats["p75_s"] == 74.25
    assert run.latency_stats([1.0, 2.0, 3.0])["tail_s"] == 3.0


def test_op_median_weighs_every_op_once():
    # The third op ran in one more pass than the others.
    assert run.op_median([[1.0, 3.0], [4.0, 4.0], [5.0, 6.0, 7.0]]) == 4.0
    assert run.op_median([[2.0], []]) == 2.0


def test_scaled_time_divides_out_the_probe():
    assert calibration.scaled(1.0, calibration.REF_S, calibration.REF_S) == 1.0
    assert calibration.scaled(3.0, 1.5 * calibration.REF_S, 1.5 * calibration.REF_S) == pytest.approx(2.0)


def test_pinned_digests_cover_the_digest_seed_commands():
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    commands = make_inputs("cli-session", table["seed"])["commands"]
    assert list(table["digests"]) == [c["name"] for c in commands]


def _dotx_attributes():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "dotx" or name.startswith("dotx.")
        for attr, value in vars(module).items()
    }


def test_traced_run_restores_every_wrapped_attribute():
    import dotx.cli  # noqa: F401  (every layer module loaded)
    import dotx.sweeps
    from dotx.units import GAAS, FieldConfig

    before = _dotx_attributes()
    tracer = Tracer()
    with tracer:
        assert dotx.sweeps.exchange_energy_lab is not before[("dotx.sweeps", "exchange_energy_lab")]
        spec = dotx.sweeps.SweepSpec("B", 0.0, 2.0, 5, FieldConfig(B=0.0, E=0.0, a=13.6), GAAS)
        dotx.sweeps.sweep(spec)
    after = _dotx_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert {name.split(".")[0] for name in tracer.table()} <= set(LAYERS)
    calls = {name: row["calls"] for name, row in tracer.table().items()}
    assert calls["sweeps.sweep"] == 1 and calls["closed_form.exchange_energy_lab"] == 5


def test_integrand_nodes_are_counted():
    import dotx.special

    tracer = Tracer()
    with tracer:
        value, _ = dotx.special.integrate_2d(lambda x, y: np.exp(-(x * x + y * y)))
    assert abs(value - np.pi) < 1e-12
    assert tracer.counters["special.integrate_2d.nodes"] > 0


def test_checks_catch_a_wrong_j_value():
    inputs = make_inputs("phase-map", 1)
    rows = inputs["rows"][:1]
    x = np.linspace(rows[0]["start"], rows[0]["stop"], inputs["steps"])
    a = rows[0]["a_over_ab"] * checks.ref.lab_scales()[1]
    good = list(checks.ref.j_lab_mev(x, rows[0]["E"], a))
    assert checks.check("phase-map", dict(inputs, rows=rows), [good]) == []
    bad = good[:]
    bad[7] *= 1.0 + 1e-7
    assert len(checks.check("phase-map", dict(inputs, rows=rows), [bad])) == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in section)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
