"""Runs one workload's timed load in a process of its own.

    python3 bench/worker.py <spec.json>

The spec (written by run.py) holds the workload name, its generated
inputs, the run length, the trace flag and the paths to use.  The worker
imports dotx from the spec's source directory, runs passes over the
inputs until the run length is reached (always at least one full pass),
and writes its timings, the first pass's outputs and, when traced, the
per-layer metrics to the spec's `out` path.  Checking outputs against the
references is left to run.py, so that this process holds nothing but the
program, its inputs and the calibration probe (numpy and a 160 kB array)
when its peak memory is read.

Untraced: every op is timed on its own, between two calibration probes
(calibration.py); outputs of later passes are compared with the first
pass.  Traced: untraced and traced passes alternate, and the traced ones
run with every public dotx function wrapped (see tracer.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

from calibration import pin_to_one_core, probe, scaled
from workloads import output_file

IMPORT_REPEATS = 3


def _dotx():
    import dotx.cli
    import dotx.oracle
    import dotx.sweeps
    import dotx.units

    return dotx


def make_ops(workload: str, inputs: dict, work_dir: str, in_process_cli: bool) -> list:
    """[(op, units)] for one pass; op() returns what later passes must repeat."""
    if workload == "cli-session":
        # Commands in fresh processes need no dotx here, and must not have
        # it: a child's peak RSS starts from its parent's (see peak_rss_mb).
        # The probe's numpy stays well below a command's peak.
        run = _cli_in_process if in_process_cli else _cli_subprocess
        return [(lambda c=c: run(c, work_dir), 1) for c in inputs["commands"]]

    dotx = _dotx()
    units, sweeps, oracle = dotx.units, dotx.sweeps, dotx.oracle
    gaas = units.GAAS
    a_b = units.bohr_radius_nm(gaas)

    if workload == "phase-map":
        ops = []
        for row in inputs["rows"]:
            spec = sweeps.SweepSpec(
                vary=row["vary"], start=row["start"], stop=row["stop"], steps=inputs["steps"],
                fixed=units.FieldConfig(B=row["B"], E=row["E"], a=row["a_over_ab"] * a_b),
                material=gaas,
            )
            ops.append((lambda s=spec: [r.j_mev for r in sweeps.sweep(s)], inputs["steps"]))
        return ops

    if workload == "switch-curve":
        a = inputs["a_over_ab"] * a_b

        def switch_map():
            curves = []
            for curve in inputs["curves"]:
                points = []
                for fixed in curve["fixed"]:
                    field = units.FieldConfig(B=fixed["B"], E=fixed["E"], a=a)
                    p = sweeps.find_switch(curve["axis"], gaas, field, tuple(curve["bracket"]), tol=inputs["tol"])
                    points.append([p.value, p.residual])
                curves.append(points)
            return curves

        return [(switch_map, sum(len(c["fixed"]) for c in inputs["curves"]))]

    if workload == "oracle-check":

        def point(p):
            hl = oracle.assemble_oracle(gaas, units.FieldConfig(B=p["B"], E=p["E"], a=p["d"] * a_b))
            return [hl.j_oracle, hl.j_closed_form, hl.rel_discrepancy, hl.incomplete]

        return [(lambda p=p: point(p), 1) for p in inputs["points"]]

    raise ValueError(f"unknown workload {workload!r}")


def _cli_result(command, code, stdout, work_dir):
    path = output_file(command)
    text = stdout
    if path is not None and code == 0:
        with open(os.path.join(work_dir, path), encoding="utf-8") as fh:
            text = fh.read()
    return {"exit": code, "text": text, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _cli_subprocess(command, work_dir):
    # No timeout: with one, subprocess polls in sleeps of up to 50 ms and the
    # command times would be rounded.  run.py ends a worker that hangs.
    proc = subprocess.run(
        [sys.executable, "-m", "dotx.cli", *command["argv"]],
        cwd=work_dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return _cli_result(command, proc.returncode, proc.stdout, work_dir)


def _cli_in_process(command, work_dir):
    import dotx.cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = dotx.cli.main(list(command["argv"]))
    finally:
        os.chdir(cwd)
    return _cli_result(command, code, out.getvalue(), work_dir)


def _comparable(output):
    """What a later pass must reproduce: the digest for CLI commands, else the values."""
    return output["sha256"] if isinstance(output, dict) else repr(output)


class PassRunner:
    """Runs passes over the ops and keeps timings, failures and first outputs."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)
        self.first_key = [None] * len(ops)
        self.latencies: list[float] = []
        self.scaled: list[list[float]] = [[] for _ in ops]
        self.units = 0
        self.attempted = 0
        self.errors: list[str] = []
        self.mismatches = 0
        self.passes = 0

    def run_pass(self, deadline=None, ops=None):
        """One pass; stops early at `deadline` unless it is the first pass."""
        total = 0.0
        before = probe()
        for i, (op, units) in enumerate(ops or self.ops):
            if self.passes and deadline is not None and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            try:
                output = op()
            except Exception as exc:  # a failing op is counted, the run goes on
                output = exc
            elapsed = time.perf_counter() - t0
            after = probe()
            self.attempted += 1
            self.latencies.append(elapsed)
            self.scaled[i].append(scaled(elapsed, before, after))
            before = after
            total += elapsed
            if isinstance(output, Exception):
                self.errors.append(f"op {i}: {type(output).__name__}: {output}")
                continue
            self.units += units
            key = _comparable(output)
            if self.passes == 0:
                self.first[i], self.first_key[i] = output, key
            elif key != self.first_key[i]:
                self.mismatches += 1
        self.passes += 1
        return total


def _median(values):
    return statistics.median(values) if values else 0.0


def import_metrics(env) -> dict:
    """Interpreter start and per-module import times, medians of fresh processes."""
    starts, rows = [], {"dotx.units": [], "dotx.special": [], "dotx.cli": []}
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dotx.cli"],
            env=env, check=True, stderr=subprocess.PIPE, text=True,
        )
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m and m.group(2) in rows:
                rows[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {
        "cli.interpreter_s": _median(starts),
        "units.import_s": _median(rows["dotx.units"]),
        "special.import_s": _median(rows["dotx.special"]),
        "cli.import_s": _median(rows["dotx.cli"]),
    }


def layer_metrics(tracer, units: int, overhead: float) -> dict:
    """Per-layer metrics, normalised per work unit of the traced passes."""
    table = tracer.table()
    counters = tracer.counters

    def get(name, field):
        return table.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_unit(name, field):
        return ratio(get(name, field), units)

    out = {
        "cli.main_s": per_unit("cli.main", "inclusive_s"),
        "special.bessel_i0e.large_arg_frac": ratio(
            counters.get("special.bessel_i0e.large_args", 0), counters.get("special.bessel_i0e.args", 0)
        ),
        "sweeps.sweep.self_s": per_unit("sweeps.sweep", "self_s"),
        "sweeps.evals_per_switch": ratio(
            counters.get("sweeps.find_switch.evals", 0), get("sweeps.find_switch", "calls")
        ),
        "sweeps.brent.iterations": ratio(counters.get("sweeps.brent.iterations", 0), get("sweeps.brent", "calls")),
        "oracle.eval_orbital.calls": per_unit("oracle.eval_orbital", "calls"),
        "trace.overhead": overhead,
    }
    for name in (
        "units.derive_parameters", "special.bessel_i0e", "closed_form.exchange_energy",
        "closed_form.exchange_energy_lab", "sweeps.find_switch",
        "special.integrate_2d", "special.integrate_coulomb_relative",
    ):
        out[f"{name}.calls"] = per_unit(name, "calls")
        out[f"{name}.self_s"] = per_unit(name, "self_s")
    for name in ("overlap_numeric", "upsilon_single", "upsilon_coulomb", "upsilon_quartic", "assemble_oracle"):
        out[f"oracle.{name}.s"] = per_unit(f"oracle.{name}", "inclusive_s")
    for name in ("special.integrate_2d", "special.integrate_coulomb_relative"):
        out[f"{name}.nodes"] = ratio(counters.get(f"{name}.nodes", 0), units)
    return out


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the process doing the work.

    ru_maxrss of a process started by fork and exec begins at its parent's
    peak, so it would report run.py's memory.  The worker reads the peak
    of its own address space (VmHWM) instead; for cli-session the lean
    worker's children report their own peak through RUSAGE_CHILDREN.
    """
    if workload == "cli-session":
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # KiB on Linux
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kib / 1024.0


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workload, seconds = spec["workload"], spec["seconds"]
    pin_to_one_core()
    os.makedirs(spec["work_dir"], exist_ok=True)
    result = {}

    if not spec["trace"]:
        runner = PassRunner(make_ops(workload, spec["inputs"], spec["work_dir"], in_process_cli=False))
        deadline = time.perf_counter() + seconds
        while not runner.passes or time.perf_counter() < deadline:
            runner.run_pass(deadline)
        result["peak_rss_mb"] = peak_rss_mb(workload)
    else:
        imports = import_metrics(dict(os.environ))
        from tracer import Tracer

        ops = make_ops(workload, spec["inputs"], spec["work_dir"], in_process_cli=True)
        tracer = Tracer()
        traced_ops = [(tracer.wrap("bench.op", op), units) for op, units in ops]
        runner = PassRunner(ops)
        plain, traced, traced_units = [], [], 0
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            plain.append(runner.run_pass())
            tracer.store = not traced
            units_before = runner.units
            with tracer:
                traced.append(runner.run_pass(ops=traced_ops))
            traced_units += runner.units - units_before
        tracer.store = False
        tracer.write_spans(spec["spans"])
        overhead = _median(traced) / _median(plain) - 1.0
        result["per_layer"] = {**imports, **layer_metrics(tracer, traced_units, overhead)}
        result["functions"] = tracer.table()
        result["spans_stored"] = len(tracer.span_name)

    result.update(
        passes=runner.passes, attempted=runner.attempted, units=runner.units, errors=runner.errors[:20],
        n_errors=len(runner.errors), mismatches=runner.mismatches, latencies=runner.latencies,
        scaled=runner.scaled, first=runner.first,
    )
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
