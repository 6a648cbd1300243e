"""The benchmark's workloads: inputs, CLI commands and output checks.

Each workload fixes the size of its commands.  Inputs are generated from the
benchmark seed with ``simulation.generate_*`` and written with
``cli.write_dataset_csv``; the analysis models are the scenario's own
``simulation.scenario_models``.  Every command runs with one job.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dtr_adhere import cli, simulation

WORKLOADS = ("sim-s4", "boot-s1", "wald-s3")

# The fixed-seed command of each workload whose outputs were recorded at the
# seed commit in reference.json; the runner uses it as its warm-up command.
REFERENCE_SEED = 20240212
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SIM_S4 = dict(scenario="s4", n=1000, reps=20, param=1.0,
              estimators=("modified-fitted", "naive-proxy", "standard-actual"))
BOOT_REPLICATES = 100
ANALYZE = {
    "boot-s1": dict(scenario="s1", n=1000, validation=0.3,
                    inference={"method": "bootstrap", "replicates": BOOT_REPLICATES,
                               "level": 0.95}),
    "wald-s3": dict(scenario="s3", n=50000, validation=0.2,
                    inference={"method": "wald-sandwich", "level": 0.95}),
}

# Datasets per run.  boot-s1 cycles its commands over a pool, so that a run's
# median covers many datasets rather than how one dataset converges; the
# n=50000 wald-s3 datasets vary little in cost and take a second to write.
DATASETS = {"sim-s4": 0, "boot-s1": 16, "wald-s3": 1}

# Regime fits (EstimationPlan.estimate calls) one command asks for.
FITS_PER_COMMAND = {
    "sim-s4": SIM_S4["reps"] * len(SIM_S4["estimators"]),
    "boot-s1": BOOT_REPLICATES + 1,
    "wald-s3": 1,
}

# The program's own tolerated failure share (run_replications, bootstrap).
MAX_FAILURE_FRACTION = 0.05

PSI_ABS_TOL = 1e-8
INTERVAL_REL_TOL = 1e-6
MSE_X100_ABS_TOL = 1e-6


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def generate_dataset(workload: str, seed: int, k: int):
    """Dataset ``k`` of an analyze workload's pool for a benchmark seed."""
    spec = ANALYZE[workload]
    rng = np.random.default_rng(derive_seed(seed, WORKLOADS.index(workload), k))
    if spec["scenario"] == "s1":
        return simulation.generate_s1(spec["n"], 1.0, rng,
                                      validation_fraction=spec["validation"])
    return simulation.generate_s3(spec["n"], rng, validation_fraction=spec["validation"])


def write_inputs(workload: str, seed: int, directory: Path) -> list:
    """Write the pool of CSVs the analyze commands read; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(DATASETS[workload]):
        paths.append(directory / f"data-{k}.csv")
        cli.write_dataset_csv(generate_dataset(workload, seed, k), paths[-1])
    return paths


def prepare_command(workload: str, seed: int, index: int, csv_paths: list,
                    directory: Path) -> list:
    """The argv of command ``index``, which reads dataset ``index`` modulo the
    pool; writes its analyze config into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / f"out-{index}"
    command_seed = derive_seed(seed, 1000 + index)
    if workload == "sim-s4":
        return ["simulate", "--scenario", SIM_S4["scenario"], "--n", str(SIM_S4["n"]),
                "--reps", str(SIM_S4["reps"]), "--param", str(SIM_S4["param"]),
                "--estimators", ",".join(SIM_S4["estimators"]),
                "--seed", str(command_seed), "--out", str(out)]
    spec = ANALYZE[workload]
    config = {
        "input": str(csv_paths[index % len(csv_paths)]),
        "stages": 2,
        "outcome": "Y",
        "stage_columns": [
            {"covariates": {"X": f"X{j}"}, "proxy": f"A{j}star", "actual": f"A{j}",
             "validation": f"V{j}"}
            for j in (1, 2)
        ],
        "proxy_kind": "prescribed",
        "mode": "modified-prescribed",
        "adherence": {"kind": "fitted"},
        "inference": spec["inference"],
        "seed": command_seed,
        "jobs": 1,
        "models": [
            {"contrast": str(m.contrast), "treatment_free": str(m.treatment_free),
             "assignment": str(m.assignment), "adherence": str(m.adherence)}
            for m in simulation.scenario_models(spec["scenario"])
        ],
    }
    config_path = directory / f"config-{index}.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return ["analyze", str(config_path), "--out", str(out)]


# ---------------------------------------------------------------------------
# Outputs


def read_outputs(workload: str, out_dir: Path) -> dict:
    """The comparable content of a command's outputs: estimates, intervals,
    summary statistics and the fits the program tallied as failed."""
    if workload == "sim-s4":
        summary = json.loads((out_dir / "summary.json").read_text())
        with open(out_dir / "estimates.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["replicate", "estimator", "stage", "parameter", "value"]:
            raise ValueError(f"unexpected estimates.csv header {rows[0]}")
        return {
            "estimates": [[int(r[0]), r[1], int(r[2]), r[3], float(r[4])] for r in rows[1:]],
            "statistics": summary["estimators"],
            "failed_fits": sum(e["failures"] for e in summary["estimators"].values()),
        }
    fit = json.loads((out_dir / "fit.json").read_text())
    intervals = fit["intervals"]
    return {
        "psi": [v for stage in fit["stages"] for v in stage["contrast"]["estimates"]],
        "rule": [v for rule in fit["recommendation_rule"] for v in rule["coefficients"]],
        "method": intervals["method"],
        "intervals": intervals["parameters"],
        "failed_fits": intervals["failed_replicates"],
    }


def consistency_problems(workload: str, record: dict) -> list:
    """Checks that hold for the outputs of any seed."""
    problems = []
    if workload == "sim-s4":
        reps = SIM_S4["reps"]
        for name in SIM_S4["estimators"]:
            stats = record["statistics"].get(name)
            if stats is None:
                problems.append(f"summary lacks estimator {name}")
                continue
            if stats["failures"] > MAX_FAILURE_FRACTION * reps:
                problems.append(f"{name}: {stats['failures']} failures over the tolerated share")
            for row in stats["parameters"]:
                values = [e[4] for e in record["estimates"]
                          if e[1] == name and e[2] == row["stage"] and e[3] == row["parameter"]]
                if len(values) != reps - stats["failures"]:
                    problems.append(f"{name} {row['parameter']}: {len(values)} estimates")
                    continue
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"{name} {row['parameter']}: non-finite estimate")
                    continue
                mean = float(np.mean(values))
                if abs(mean - row["mean"]) > 1e-12 * max(1.0, abs(mean)):
                    problems.append(f"{name} {row['parameter']}: mean {row['mean']} != {mean}")
                mse = 100.0 * (row["bias"] ** 2 + row["variance"])
                if abs(mse - row["mse_x100"]) > 1e-9 * max(1.0, abs(mse)):
                    problems.append(f"{name} {row['parameter']}: mse_x100 inconsistent")
        return problems
    expected = ANALYZE[workload]["inference"]
    method = "bootstrap-percentile" if expected["method"] == "bootstrap" else expected["method"]
    if record["method"] != method:
        problems.append(f"interval method {record['method']}")
    if record["psi"] != record["rule"]:
        problems.append("recommendation rule differs from the contrast estimates")
    if not all(math.isfinite(v) for v in record["psi"]):
        problems.append("non-finite contrast estimate")
    if [r["estimate"] for r in record["intervals"]] != record["psi"]:
        problems.append("interval estimates differ from the contrast estimates")
    for row in record["intervals"]:
        ends = (row["lower"], row["estimate"], row["upper"])
        if not (all(math.isfinite(v) for v in ends) and ends[0] <= ends[1] <= ends[2]):
            problems.append(f"{row['parameter']}: bad interval {ends}")
    if record["failed_fits"] > MAX_FAILURE_FRACTION * expected.get("replicates", 1):
        problems.append(f"{record['failed_fits']} failed bootstrap refits over the tolerated share")
    return problems


def _close(a: float, b: float, *, abs_tol: float = 0.0, rel_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_tol, rel_tol * abs(b))


def reference_problems(workload: str, record: dict, reference: dict) -> list:
    """Compare against the recorded reference: contrast estimates to 1e-8
    absolute, interval endpoints to 1e-6 relative, summary statistics on the
    estimate scale (MSE x 100 to 1e-6 absolute) and failure tallies exactly."""
    problems = []
    if record["failed_fits"] != reference["failed_fits"]:
        problems.append(f"failed fits {record['failed_fits']} != {reference['failed_fits']}")
    if workload == "sim-s4":
        got, want = record["estimates"], reference["estimates"]
        if [r[:4] for r in got] != [r[:4] for r in want]:
            return problems + ["estimates.csv rows differ from the reference"]
        for g, w in zip(got, want):
            if not _close(g[4], w[4], abs_tol=PSI_ABS_TOL):
                problems.append(f"estimate {w[:4]}: {g[4]} != {w[4]}")
        for name, stats in reference["statistics"].items():
            mine = record["statistics"].get(name, {"parameters": []})["parameters"]
            if len(mine) != len(stats["parameters"]):
                problems.append(f"{name}: parameter rows differ")
                continue
            for g, w in zip(mine, stats["parameters"]):
                for key in ("truth", "mean", "bias", "variance"):
                    if not _close(g[key], w[key], abs_tol=PSI_ABS_TOL):
                        problems.append(f"{name} {w['parameter']} {key}: {g[key]} != {w[key]}")
                if not _close(g["mse_x100"], w["mse_x100"], abs_tol=MSE_X100_ABS_TOL):
                    problems.append(f"{name} {w['parameter']} mse_x100 differs")
        return problems
    if (len(record["psi"]) != len(reference["psi"])
            or len(record["intervals"]) != len(reference["intervals"])):
        return problems + ["contrast estimates or intervals differ in length"]
    for g, w in zip(record["psi"], reference["psi"]):
        if not _close(g, w, abs_tol=PSI_ABS_TOL):
            problems.append(f"psi {g} != {w}")
    for g, w in zip(record["intervals"], reference["intervals"]):
        for key in ("lower", "upper"):
            if g["parameter"] != w["parameter"] or not _close(
                    g[key], w[key], rel_tol=INTERVAL_REL_TOL):
                problems.append(f"{w['parameter']} {key}: {g[key]} != {w[key]}")
    return problems


@dataclass
class Outcome:
    """What one command produced: fits attempted and failed, and problems."""

    attempted: int
    failed: int
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def judge(workload: str, exit_code: int, out_dir: Path, reference: dict | None = None) -> Outcome:
    """Count a command's fits and check its outputs.

    Failed fits are the ones the program tallied (``summary.json`` failures,
    ``fit.json`` failed_replicates).  A command that exits non-zero or fails a
    check counts all of its fits as failed.
    """
    attempted = FITS_PER_COMMAND[workload]
    if exit_code != 0:
        return Outcome(attempted, attempted, [f"exit code {exit_code}"])
    try:
        record = read_outputs(workload, out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return Outcome(attempted, attempted, [f"unreadable outputs: {err!r}"])
    problems = consistency_problems(workload, record)
    if reference is not None:
        problems += reference_problems(workload, record, reference)
    if problems:
        return Outcome(attempted, attempted, problems)
    return Outcome(attempted, record["failed_fits"])


def output_bytes(out_dir: Path) -> dict:
    """Every output file's bytes, by name, for byte-identity checks."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}
