"""Benchmark of dotx: four workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from its `src/` directory.  The last line of standard output is
one JSON object.  For a single workload it holds `correct`, `attempted`,
`failed` and `metrics`: every end-to-end metric of BENCHMARK.json with
`--trace 0`, every per-layer metric with `--trace 1`.  With `--workload
all` it maps each workload to that object.  Lines before it give the same
numbers for people, under the workload-specific names of README.md.

A run writes its record (metadata, metrics, latency statistics, failures,
output digests, the per-function trace table) to
bench/results/<workload>-seed<N>-trace<T>.json and, when traced, the
stored spans to bench/results/spans-<workload>.json.

Order of a run: build the references (outside any timed region), time
the set-up (`setup_s`, trace 0 only), run the timed load in a worker
process (worker.py), check the worker's outputs, then measure accuracy
(trace 0 only).  Every time is taken at a reference speed
(calibration.py).  Runs of cli-session and traced runs also run the
cli-session commands of DIGEST_SEED once and compare the sha256 of their
outputs with cli_digests.json (`cli.output_digest_changes`);
`python3 bench/run.py --pin-digests` rewrites that table.  Exits non-zero
without a result when the program, the golden file or the worker is
missing or fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata as pkg_metadata
from pathlib import Path

import checks
import reference
import worker
from calibration import pin_to_one_core, probe, scaled
from workloads import DIGEST_SEED, ORACLE_GRID_B, ORACLE_GRID_D, ORACLE_GRID_E, WORKLOADS, make_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "pinned_values.json"
RESULTS = BENCH_DIR / "results"
DIGESTS = BENCH_DIR / "cli_digests.json"

SETUP_REPEATS = 7
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: "1" for name in THREAD_ENV})
    return env


def measure_setup(env) -> dict:
    """Median time of a fresh `python -c "import dotx"`, after one unmeasured
    run: `scaled_s` at the reference speed (calibration.py), `wall_s` as measured.

    The child is waited for without a timeout: with one, subprocess polls
    in sleeps of up to 50 ms, which would round the times.  A timer kills
    a child that hangs.
    """
    walls, scaled_times = [], []
    before = probe()
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", "import dotx"], env=env) as proc:
            guard = threading.Timer(60.0, proc.kill)
            guard.start()
            code = proc.wait()
            guard.cancel()
        wall = time.perf_counter() - t0
        after = probe()
        if code != 0:
            raise BenchError(f"python -c 'import dotx' exited {code}")
        if i:
            walls.append(wall)
            scaled_times.append(scaled(wall, before, after))
        before = after
    return {"scaled_s": statistics.median(scaled_times), "wall_s": statistics.median(walls)}


def run_worker(workload, inputs, seconds, trace, env, tag) -> dict:
    work_dir = RESULTS / f"work-{tag}"
    shutil.rmtree(work_dir, ignore_errors=True)
    spec_path, out_path = RESULTS / f"spec-{tag}.json", RESULTS / f"worker-{tag}.json"
    spec = {
        "workload": workload, "inputs": inputs, "seconds": seconds, "trace": trace,
        "work_dir": str(work_dir), "out": str(out_path),
        "spans": str(RESULTS / f"spans-{workload}.json"),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # The worker gets a session of its own, so that a timeout also ends the
    # CLI processes it may have started.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=seconds + 100)  # polling is fine here: nothing is timed
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{stderr[-2000:]}")
        return json.loads(out_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {exc.timeout} s") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        for path in (spec_path, out_path):
            path.unlink(missing_ok=True)


def op_median(per_op) -> float:
    """Each op's median time, averaged over the ops of a pass.

    Taken per op, so that the ops of an unfinished last pass do not tip
    the mix of a workload whose ops differ in cost."""
    return statistics.fmean(statistics.median(times) for times in per_op if times)


def latency_stats(latencies) -> dict:
    """Median, third quartile, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail_index = n - 11 if n > 10 else n - 1
    _, p50, p75 = statistics.quantiles(ordered, n=4, method="inclusive") if n > 1 else ordered * 3
    return {
        "samples": n,
        "p50_s": p50,
        "p75_s": p75,
        "tail_s": ordered[tail_index],
        "tail_pct": 100.0 * (tail_index + 1) / n,
        "beyond_tail": n - tail_index - 1,
    }


def accuracy(grid) -> dict:
    """j_max_rel_err on the fixed grid, and the oracle discrepancy on the
    oracle-check grid without the seed's shuffle."""
    sys.path.insert(0, str(SRC))
    from dotx.closed_form import exchange_energy
    from dotx.oracle import assemble_oracle
    from dotx.units import GAAS, FieldConfig, bohr_radius_nm

    j_err = max(
        abs(exchange_energy(b, d, reference.ACCURACY_C, chi).j_dimensionless - want) / abs(want)
        for b, d, chi, want in grid
    )
    a_b = bohr_radius_nm(GAAS)
    worst, failures = 0.0, []
    for e_field in ORACLE_GRID_E:
        for b_field in ORACLE_GRID_B:
            for d in ORACLE_GRID_D:
                hl = assemble_oracle(GAAS, FieldConfig(B=b_field, E=e_field, a=d * a_b))
                worst = max(worst, hl.rel_discrepancy)
                if hl.incomplete or hl.rel_discrepancy > checks.ORACLE_THRESHOLD:
                    failures.append(f"oracle accuracy point B={b_field} d={d} E={e_field}: {hl.rel_discrepancy!r}")
    return {"j_max_rel_err": j_err, "oracle_max_rel_disc": worst, "failures": failures}


def run_metadata(seed: int, env: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "dotx").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "mpmath"):
        versions[package] = pkg_metadata.version(package)
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "memory_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "versions": versions,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
        "thread_env": {name: env.get(name) for name in THREAD_ENV},
        "platform": platform.platform(),
    }


def cli_digests(env) -> dict:
    """{command name: sha256 of its output} for the cli-session commands of
    DIGEST_SEED, each run once in a fresh process."""
    work_dir = RESULTS / "work-digests"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    digests = {}
    try:
        for command in make_inputs("cli-session", DIGEST_SEED)["commands"]:
            proc = subprocess.run(
                [sys.executable, "-m", "dotx.cli", *command["argv"]],
                env=env, cwd=work_dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
            )
            digests[command["name"]] = worker._cli_result(command, proc.returncode, proc.stdout, work_dir)["sha256"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return digests


def digest_changes(env) -> dict:
    """Digests of this checkout against cli_digests.json, and how many differ."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
    got = cli_digests(env)
    return {"digests": got, "changes": sum(got[name] != pinned.get(name) for name in got)}


def run_workload(workload, seed, seconds, trace, bench, grid) -> dict:
    env = child_env()
    inputs = make_inputs(workload, seed)
    tag = f"{workload}-seed{seed}-trace{trace}"
    setup = measure_setup(env) if not trace else None
    out = run_worker(workload, inputs, seconds, trace, env, tag)

    failures = checks.check(workload, inputs, out["first"])
    failed = out["n_errors"] + out["mismatches"] + len(failures)
    record = {
        "workload": workload, "trace": trace, "seconds": seconds, "inputs": inputs,
        "metadata": run_metadata(seed, env),
        "passes": out["passes"], "attempted": out["attempted"], "failed": failed,
        "worker_errors": out["errors"], "check_failures": failures, "mismatches": out["mismatches"],
    }
    if workload == "cli-session":
        record["digests"] = {c["name"]: o and o["sha256"] for c, o in zip(inputs["commands"], out["first"])}
    if workload == "cli-session" or trace:
        record["pinned_digest_check"] = digest_changes(env)
    if trace:
        out["per_layer"]["cli.output_digest_changes"] = record["pinned_digest_check"]["changes"]
        metrics = {m["name"]: out["per_layer"][m["name"]] for m in bench["per_layer"]}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        record.update(functions=out["functions"], spans_stored=out["spans_stored"])
        correct = failed == 0
    else:
        stats = latency_stats([t for times in out["scaled"] for t in times])
        wall = latency_stats(out["latencies"])
        stats["op_median_s"] = op_median(out["scaled"])
        acc = accuracy(grid)
        metrics = {
            "setup_s": setup["scaled_s"],
            "op_p50_s": stats["op_median_s"],
            "peak_rss_mb": out["peak_rss_mb"],
            "j_max_rel_err": acc["j_max_rel_err"],
            "oracle_max_rel_disc": acc["oracle_max_rel_disc"],
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        # Ops of a workload carry equal work, so this is the throughput at
        # the median op time: op_p50_s in other units, not bounded.
        units_per_op = out["units"] / max(1, out["attempted"] - out["n_errors"])
        stats["rate_per_s"] = units_per_op / stats["op_median_s"]
        record.update(
            latency=stats, latency_wall=wall, setup_wall_s=setup["wall_s"],
            accuracy_failures=acc["failures"], units_done=out["units"],
        )
        correct = failed == 0 and not acc["failures"]
    record["metrics"] = metrics
    record["correct"] = correct
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    _print_human(workload, record, units)
    return {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _print_human(workload, record, units):
    info = WORKLOADS[workload]
    print(f"== {workload}  seed {record['metadata']['seed']}  trace {record['trace']}  ({info['loop']}; op = {info['op']})")
    print(f"   attempted {record['attempted']}  failed {record['failed']}  correct {record['correct']}")
    for message in (record["worker_errors"] + record["check_failures"] + record.get("accuracy_failures", []))[:10]:
        print(f"   FAIL {message}")
    op = info["latency_alias"]
    for name, value in record["metrics"].items():
        note = f"  ({op}_p50_s)" if name == "op_p50_s" else ""
        print(f"   {name:<45} {value:<24.6g} {units[name]}{note}")
    if not record["trace"]:
        lat, wall = record["latency"], record["latency_wall"]
        print(f"   reported, not bounded (at the reference speed, then wall time as measured):")
        print(f"   {'setup_s wall':<45} {record['setup_wall_s']:<24.6g} s")
        print(f"   over all {lat['samples']} op times; the tail is p{lat['tail_pct']:.2f}, {lat['beyond_tail']} samples beyond")
        for key in ("p50", "p75", "tail"):
            name = f"op_{key}_s" if key != "p50" else "op_pooled_p50_s"
            alias = f"  ({op}_{key}_s)" if key != "p50" else ""
            print(f"   {name:<45} {lat[key + '_s']:<12.6g} {wall[key + '_s']:<11.6g} s{alias}")
        print(f"   {'rate_per_s':<45} {lat['rate_per_s']:<24.6g} 1/s  ({info['rate_alias']}; {info['unit']} "
              "per second at the op_p50_s op time)")
    check = record.get("pinned_digest_check")
    if check is not None:
        print(f"   cli.output_digest_changes: {check['changes']} of {len(check['digests'])} outputs "
              f"of the seed-{DIGEST_SEED} commands differ from cli_digests.json")
    if record["trace"]:
        print(f"   tracing overhead: traced passes take {record['metrics']['trace.overhead']:.1%} longer")
        top = sorted(record["functions"].items(), key=lambda item: -item[1]["self_s"])[:12]
        print(f"   {'function':<45} {'calls':>10} {'inclusive_s':>12} {'self_s':>12}")
        for name, row in top:
            print(f"   {name:<45} {row['calls']:>10} {row['inclusive_s']:>12.4f} {row['self_s']:>12.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true", help="rewrite cli_digests.json from this checkout")
    args = parser.parse_args(argv)
    if not args.pin_digests and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    # Turn SIGTERM into an exception, so that run_worker still ends the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_core()

    try:
        if not (SRC / "dotx" / "__init__.py").is_file():
            raise BenchError(f"no dotx package under {SRC}")
        if not GOLDEN.is_file():
            raise BenchError(f"golden values {GOLDEN} missing")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        RESULTS.mkdir(exist_ok=True)
        if args.pin_digests:
            table = {"seed": DIGEST_SEED, "digests": cli_digests(child_env())}
            DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
            return 0
        reference.check_golden(json.loads(GOLDEN.read_text(encoding="utf-8")))
        grid = reference.accuracy_grid()
        reference.check_float_reference(grid)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, bench, grid) for w in names}
    except (BenchError, subprocess.CalledProcessError, RuntimeError, OSError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
