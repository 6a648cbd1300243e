#!/usr/bin/env python3
"""Benchmark of the dtr-adhere CLI, driven in-process through ``cli.main``.

    python3 perfbench/run.py --workload sim-s4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                     # every workload, untraced

One run of one workload happens in a fresh process: generate the inputs from
the seed (untimed), measure set-up in separate fresh processes, run the
fixed-seed warm-up command and check it against reference.json, run commands
for ``--seconds``, check every output, rerun command 0 and require
byte-identical outputs.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` every other
command is traced and the object holds the per-layer metrics.  Everything runs
in one process with one job and only the stdlib and numpy.  The exit code is
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sim-s4", "boot-s1", "wald-s3")

# Fresh processes whose set-up is timed; setup_s is their median.
SETUP_PROCESSES = 3
# Commands every run makes however short --seconds is.  ok_frac counts the
# fits of exactly these commands, so it repeats exactly for a seed.
MIN_COMMANDS = {"sim-s4": 10, "boot-s1": 10, "wald-s3": 5}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cmd_s_p50": "s",
    "fits_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (layer, quantity).  Counts and seconds are per traced
# command; ok_ratio is successful over attempted work across the run.
PER_LAYER = (
    ("glm.fit_logistic", ("calls", "self_s", "iters", "fail")),
    ("glm.expit", ("calls", "self_s", "elems")),
    ("gest.estimate", ("calls", "self_s", "fail", "stage_sweeps")),
    ("gest.StackedScore.per_individual", ("calls", "self_s")),
    ("inference.numerical_jacobian", ("calls", "self_s")),
    ("inference.sandwich", ("self_s",)),
    ("model.build_design_matrix", ("calls", "self_s", "bytes")),
    ("model.Dataset.subset", ("calls", "self_s", "bytes")),
    ("model.Dataset.init", ("calls", "self_s")),
    ("cli.read_dataset_csv", ("calls", "self_s", "rows")),
    ("cli.main", ("self_s",)),
    ("simulation.generate", ("calls", "self_s")),
    ("simulation.run_replications", ("self_s", "ok_ratio")),
    ("inference.bootstrap", ("self_s", "ok_ratio")),
)
QUANTITY_UNITS = {"self_s": "s/cmd", "bytes": "B/cmd", "ok_ratio": "ratio"}


def per_layer_units() -> dict:
    units = {f"{layer}.{q}": QUANTITY_UNITS.get(q, "count/cmd")
             for layer, quantities in PER_LAYER for q in quantities}
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Environment record


def _blas_threads():
    """Thread count of the OpenBLAS that numpy wheels bundle; None otherwise."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for path in glob.glob(pattern):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(workloads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    s3 = workloads.simulation.scenario_models("s3")
    params = sum(len(m.contrast) + len(m.treatment_free) + len(m.assignment) + len(m.adherence)
                 for m in s3)
    caches = _caches()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "cpu": _cpu_model(),
        "l2_per_core": caches.get("L2"),
        "l3": caches.get("L3"),
        "wald_s3_working_set_bytes": workloads.ANALYZE["wald-s3"]["n"] * params * 8,
        "wald_s3_working_set_note": f"one (n, P) stacked-score matrix per forward pass, "
                                    f"P = {params}, computed from array sizes",
        "jobs": "1; --jobs > 1 and the process pool are deliberately unmeasured, "
                "because wall-clock scaling on a few shared cores is not steady",
    }


# ---------------------------------------------------------------------------
# One workload


class SetupError(RuntimeError):
    pass


def run_cli(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as err:  # argparse rejects the command line
        return err.code if isinstance(err.code, int) else 1


def measure_setup(argv, log_path: Path) -> float:
    """Seconds from starting a fresh process to the end of its warm-up
    command, which includes the interpreter start and ``import dtr_adhere.cli``."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-child", json.dumps(argv)],
            stdout=subprocess.PIPE, stderr=log, cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        tail = log_path.read_text().strip().splitlines()[-5:]
        raise SetupError(f"set-up process failed (exit {code}): " + " | ".join(tail))
    return elapsed


def setup_child(argv_json: str) -> int:
    sys.path.insert(0, str(SRC))
    from dtr_adhere import cli

    if run_cli(cli, json.loads(argv_json)) != 0:
        return 1
    print("ready", flush=True)
    return 0


def per_layer_values(totals: dict, walls, traced) -> dict:
    """Per-layer metrics from the traced commands' layer totals, plus the
    traced over the untraced command median."""
    values = {}
    for layer, quantities in PER_LAYER:
        entry = totals.get(layer, {})
        for q in quantities:
            if q == "ok_ratio":  # 0 when the layer never ran
                value = entry.get("ok", 0) / max(entry.get("attempted", 0), 1)
            else:
                value = entry.get(q, 0) / traced.count(True)
            values[f"{layer}.{q}"] = value
    values["trace.overhead_ratio"] = (
        statistics.median(w for w, t in zip(walls, traced) if t)
        / statistics.median(w for w, t in zip(walls, traced) if not t))
    return values


def tail_percentile(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            value = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
            return f"p{p:g} = {value:.6g} s over {n} commands"
    return f"no percentile above the median has 10 samples beyond it ({n} commands)"


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import speed
    import tracing
    import workloads as wl

    name, seed = args.workload, args.seed
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    probe = speed.SpeedProbe()
    problems = []
    ops = []  # one flag per checked command: warm-up, timed commands, rerun
    setups, raw_setups = [], []
    codes, walls, raw_walls, traced = [], [], [], []
    recorder = tracing.Recorder()
    try:
        reference = json.loads(wl.REFERENCE_PATH.read_text())[name]
        ref_csvs = wl.write_inputs(name, wl.REFERENCE_SEED, work / "ref")
        csv_paths = wl.write_inputs(name, seed, work / "run")

        setup_dirs = []
        if not args.trace:
            for k in range(SETUP_PROCESSES):
                argv = wl.prepare_command(name, wl.REFERENCE_SEED, 0, ref_csvs, work / f"setup-{k}")
                before = probe.measure(0.05)
                raw = measure_setup(argv, work / f"setup-{k}.log")
                setups.append(speed.scaled(raw, before, probe.measure(0.05)))
                raw_setups.append(raw)
                setup_dirs.append(work / f"setup-{k}" / "out-0")

        warm_argv = wl.prepare_command(name, wl.REFERENCE_SEED, 0, ref_csvs, work / "ref")
        warm_out = work / "ref" / "out-0"
        warm = wl.judge(name, run_cli(wl.cli, warm_argv), warm_out, reference)
        if warm.ok:
            for other in setup_dirs:
                if wl.output_bytes(other) != wl.output_bytes(warm_out):
                    warm.problems.append(f"outputs differ from those of {other.parent.name}")
        problems += [f"warm-up: {p}" for p in warm.problems]
        ops.append(warm.ok)

        # With --trace 1 every other command is traced, so the untraced ones
        # give the overhead under the same host conditions.
        restore = tracing.install(recorder) if args.trace else None
        try:
            started = time.perf_counter()
            before = probe.measure(0.0)
            while (len(codes) < MIN_COMMANDS[name]
                   or time.perf_counter() - started < args.seconds):
                i = len(codes)
                argv = wl.prepare_command(name, seed, i, csv_paths, work / "run")
                traced.append(bool(args.trace) and i % 2 == 1)
                recorder.command = i if traced[-1] else None
                t0 = time.perf_counter()
                codes.append(run_cli(wl.cli, argv))
                raw = time.perf_counter() - t0
                recorder.command = None
                after = probe.measure(0.05 * raw)
                walls.append(speed.scaled(raw, before, after))
                raw_walls.append(raw)
                before = after
        finally:
            if restore is not None:
                restore()

        outcomes = [wl.judge(name, code, work / "run" / f"out-{i}")
                    for i, code in enumerate(codes)]
        for i, outcome in enumerate(outcomes):
            problems += [f"command {i}: {p}" for p in outcome.problems]
            ops.append(outcome.ok)
        rerun = wl.prepare_command(name, seed, 0, csv_paths, work / "rerun")
        same = run_cli(wl.cli, rerun) == 0 and (
            wl.output_bytes(work / "rerun" / "out-0") == wl.output_bytes(work / "run" / "out-0"))
        if not same:
            problems.append("rerun of command 0 is not byte-identical")
        ops.append(same)
    except SetupError as err:
        problems.append(str(err))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"CHECK FAILED [{name}] {p}", file=sys.stderr)
    if not codes:
        return 1

    fits = sum(o.attempted for o in outcomes)
    failed_fits = sum(o.failed for o in outcomes)
    if args.trace:
        totals = tracing.layer_totals(recorder.spans)
        values = per_layer_values(totals, walls, traced)
        units = per_layer_units()
    else:
        counted = outcomes[:MIN_COMMANDS[name]]
        values = {
            "setup_s": statistics.median(setups),
            "cmd_s_p50": statistics.median(walls),
            "fits_per_s": (fits - failed_fits) / sum(walls),
            "ok_frac": sum(o.attempted - o.failed for o in counted)
                       / sum(o.attempted for o in counted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    env = environment(wl)
    report = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "metrics": metrics,
        "command_walls_scaled_s": walls, "command_walls_raw_s": raw_walls, "traced": traced,
        "setup_scaled_s": setups, "setup_raw_s": raw_setups,
        "fits": {"attempted": fits, "failed": failed_fits},
        "problems": problems,
    }
    STATE.mkdir(exist_ok=True)
    if args.trace:
        report["layers"] = totals
        (STATE / f"spans-{name}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "command", "failed", "counters"],
             "spans": tracing.span_rows(recorder.spans)}))
    (STATE / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    raw_plain = [w for w, t in zip(raw_walls, traced) if not t]
    print(f"workload {name}  seed {seed}  commands {len(codes)}  "
          f"fits {fits} (failed {failed_fits}, fail_frac {failed_fits / fits:.6g})")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"raw wall: command median {statistics.median(raw_plain):.6g} s, "
          + (f"set-up median {statistics.median(raw_setups):.6g} s, " if raw_setups else "")
          + "tail " + tail_percentile(raw_plain))
    for key, metric in metrics.items():
        print(f"  {key:<44} {metric['value']:.6g} {metric['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": ops.count(False),
                      "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Every workload


def run_all(args) -> int:
    rows, worst = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            rows.append((name, "no result", "", ""))
            continue
        for key, metric in result["metrics"].items():
            rows.append((name, key, f"{metric['value']:.6g}", metric["unit"]))
        rows.append((name, "correct", str(result["correct"]), ""))
    print()
    for row in rows:
        print(f"{row[0]:<8} {row[1]:<44} {row[2]:>12} {row[3]}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child is not None:
        return setup_child(args.setup_child)
    if not (SRC / "dtr_adhere" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'dtr_adhere'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
