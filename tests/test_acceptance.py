"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or in
captured output on failure).  Reference numbers for the reported-treatment
MSE grid are frozen constants; everything else is checked against
independently computed oracles or explicit bands.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from dtr_adhere.cli import main as cli_main
from dtr_adhere.cli import write_dataset_csv
from dtr_adhere.glm import expit, fit_logistic
from dtr_adhere.gest import (
    AdherenceSource,
    EstimationPlan,
    StageModelSpec,
    pseudo_outcome_exact,
    psi_flat,
)
from dtr_adhere.inference import numerical_jacobian, sandwich
from dtr_adhere.model import Dataset
from dtr_adhere.simulation import (
    ScenarioConfig,
    generate_s1,
    run_replications,
    scenario_plan,
)


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"acceptance[{criterion}]: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


# -- 1. reported-treatment MSE grid ------------------------------------------

MSE_GRID_REFERENCE = {
    -1.0: {
        "modified-fitted": (3.4, 3.3, 2.8, 6.4),
        "naive-proxy": (7.8, 30.6, 11.2, 15.4),
        "standard-actual": (2.3, 2.0, 2.2, 4.3),
    },
    0.0: {
        "modified-fitted": (3.5, 2.9, 2.5, 5.6),
        "naive-proxy": (12.5, 21.6, 6.8, 4.3),
        "standard-actual": (2.2, 2.0, 2.2, 4.4),
    },
    1.0: {
        "modified-fitted": (3.7, 2.8, 2.5, 6.4),
        "naive-proxy": (15.5, 13.7, 3.9, 15.7),
        "standard-actual": (2.4, 1.9, 2.2, 4.8),
    },
}


def test_criterion_1_reported_treatment_mse_grid():
    """Scenario s4 MSE x 100 grid versus frozen reference values, +-35%.

    Note: the corrected-estimator reference values imply a smaller sampling
    variance than the estimating equations built here can attain; their
    asymptotic variance (verified against the implementation by direct
    calculation) sits roughly 1.5x above the stage-2 reference numbers, so
    those cells fail.  The criterion is kept as stated rather than loosened;
    the naive and as-treated columns reproduce the reference grid closely,
    pinning the data mechanism and the shared machinery.
    """
    failures, lines = [], []
    for param in (-1.0, 0.0, 1.0):
        config = ScenarioConfig(
            scenario="s4", n=1000, replications=500, seed=20250808,
            validation_fraction=0.3, varied_param=param,
            estimators=("modified-fitted", "naive-proxy", "standard-actual"),
        )
        stats = run_replications(config).statistics()
        for name, reference in MSE_GRID_REFERENCE[param].items():
            observed = [r["mse_x100"] for r in stats[name]["parameters"]]
            rel = [o / t - 1.0 for o, t in zip(observed, reference)]
            ok = all(abs(r) <= 0.35 for r in rel)
            lines.append(
                f"  row {param:+.0f} {name:16s} mse {np.round(observed, 2)} "
                f"ref {reference} {'ok' if ok else 'OUT'}"
            )
            if not ok:
                failures.append((param, name, np.round(observed, 2), reference))
    print("acceptance[1] reported-treatment MSE grid, 500 replications:")
    for line in lines:
        print(line)
    report("1 MSE grid +-35%", not failures, f"{len(failures)} estimator-rows out of band")


# -- 2. bias ordering ---------------------------------------------------------


def test_criterion_2_bias_ordering():
    ok = True
    details = []
    for param in (-1.0, 1.0):
        config = ScenarioConfig(
            scenario="s1", n=1000, replications=500, seed=20250808,
            validation_fraction=0.3, varied_param=param,
        )
        summary = run_replications(config)
        stats = summary.statistics()
        for name in ("modified-known", "modified-fitted", "standard-actual"):
            ests = summary.estimates[name]
            mcse = ests.std(axis=0, ddof=1) / np.sqrt(ests.shape[0])
            bias = np.array([r["bias"] for r in stats[name]["parameters"]])
            worst = float(np.max(np.abs(bias) / (3.0 * mcse)))
            details.append(f"{name}@{param:+.0f}:{worst:.2f}")
            ok &= worst <= 1.0
        naive = summary.estimates["naive-proxy"]
        mcse = naive.std(axis=0, ddof=1) / np.sqrt(naive.shape[0])
        bias = np.abs(naive.mean(axis=0) - summary.truth)
        stage2 = [p for p, (stage, _) in enumerate(summary.parameters) if stage == 2]
        naive_exceeds = bool(np.any(bias[stage2] > 3.0 * mcse[stage2]))
        details.append(f"naive@{param:+.0f}:{'biased' if naive_exceeds else 'unbiased?'}")
        ok &= naive_exceeds
    report("2 bias ordering", ok, "; ".join(details))


# -- 3. validation-set sizing --------------------------------------------------


def test_criterion_3_validation_set_sizing():
    mean_var = {}
    for p in (0.10, 0.20, 0.30, 0.50):
        config = ScenarioConfig(
            scenario="s2", n=1000, replications=500, seed=20250808,
            validation_fraction=p, estimators=("modified-fitted",),
        )
        summary = run_replications(config)
        mean_var[p] = float(summary.estimates["modified-fitted"].var(axis=0).mean())
    decreasing = mean_var[0.10] > mean_var[0.20]
    small_changes = (
        abs(mean_var[0.30] - mean_var[0.20]) <= 0.25 * mean_var[0.20]
        and abs(mean_var[0.50] - mean_var[0.30]) <= 0.25 * mean_var[0.30]
    )
    report(
        "3 validation sizing",
        decreasing and small_changes,
        ", ".join(f"p={p:.0%}: {v:.5f}" for p, v in mean_var.items()),
    )


# -- 4. sandwich coverage -------------------------------------------------------


@pytest.mark.parametrize("n,lo,hi", [(1000, 0.915, 0.98), (5000, 0.93, 0.97)])
def test_criterion_4_sandwich_coverage(n, lo, hi):
    config = ScenarioConfig(
        scenario="s3", n=n, replications=500, seed=20250808,
        validation_fraction=0.2, estimators=("modified-fitted",), coverage=True,
    )
    stats = run_replications(config).statistics()["modified-fitted"]
    coverage = np.array([r["coverage"] for r in stats["parameters"]])
    ok = bool(np.all((coverage >= lo) & (coverage <= hi)))
    report(f"4 coverage n={n}", ok, f"coverage {np.round(coverage, 3)} in [{lo}, {hi}]")


# -- 5. reduction identity -------------------------------------------------------


def _random_perfect_adherence_dataset(rng):
    n = int(rng.integers(150, 400))
    x1 = rng.normal(size=n)
    a1 = rng.binomial(1, expit(rng.normal() + rng.normal() * x1)).astype(float)
    x2 = rng.normal(size=n) + rng.normal() * a1
    a2 = rng.binomial(1, expit(rng.normal() + 0.8 * x2)).astype(float)
    y = (
        x1
        + a1 * (rng.normal() + x1)
        + a2 * (rng.normal() + x2)
        + rng.normal(size=n)
    )
    return Dataset(
        stage_covariates=[{"X": x1}, {"X": x2}],
        proxy=[a1, a2],
        proxy_kind="prescribed",
        actual=[a1.copy(), a2.copy()],
        validation=np.ones((n, 2), dtype=bool),
        outcome=y,
    )


def test_criterion_5_reduction_identity():
    specs = (
        StageModelSpec.from_strings("1 + X[1]", "1 + X[1]", "1 + X[1]", "1 + Astar[1]"),
        StageModelSpec.from_strings(
            "1 + X[2] + A[1]", "1 + X[1] + A[1] + X[2]", "1 + X[2]", "1 + Astar[2]"
        ),
    )
    pinned = AdherenceSource.known(
        coefficients=(np.array([-1000.0, 2000.0]), np.array([-1000.0, 2000.0]))
    )
    rng = np.random.default_rng(20250505)
    worst = 0.0
    for _ in range(50):
        data = _random_perfect_adherence_dataset(rng)
        modified = EstimationPlan(specs, "modified-prescribed", pinned).estimate(data)
        standard = EstimationPlan(specs, "standard-actual").estimate(data)
        gap = max(
            float(np.max(np.abs(a - b))) for a, b in zip(modified.psi, standard.psi)
        )
        worst = max(worst, gap)
    report("5 reduction identity", worst <= 1e-10, f"worst gap {worst:.3g}")


# -- 6. exact pseudo-outcome oracle ---------------------------------------------


def test_criterion_6_exact_pseudo_outcome_oracle():
    rng = np.random.default_rng(60606)
    worst = 0.0
    for _ in range(1000):
        v = rng.normal(scale=2)
        pi = rng.uniform()
        c1 = rng.normal(scale=3)
        c0 = rng.normal(scale=3)
        brute = v
        for lagged, weight in ((1, pi), (0, 1.0 - pi)):
            contrast = c1 if lagged == 1 else c0
            optimal = 1 if contrast > 0 else 0
            brute += weight * optimal * contrast
        worst = max(worst, abs(pseudo_outcome_exact(v, pi, c1, c0) - brute))
    report("6 exact pseudo-outcome oracle", worst <= 1e-12, f"worst {worst:.3g}")


# -- 7. zero-mean stacked score at truth ------------------------------------------


def test_criterion_7_score_mean_zero_at_truth():
    n = 200_000
    data = generate_s1(n, 0.0, np.random.default_rng(20250808))
    x1, x2 = data.covariate("X", 1), data.covariate("X", 2)
    a1s, a2s = data.proxy(1), data.proxy(2)
    a1, a2 = data.actual(1), data.actual(2)
    val = data.validation
    y = data.outcome

    p1, p2 = expit(x1), expit(x2)
    pi1 = expit(-4.6 - 0.83 * x1 + 7.5 * a1s)
    pi2 = expit(-4.6 - 0.83 * x2 + 7.5 * a2s)
    c2 = 1.0 + x2
    nu2 = np.minimum(x1, -1.0) + pi1 * (1.0 + x1) - np.maximum(1.0 + x2, 0.0)
    r2 = y - pi2 * c2 - nu2
    v2 = y + ((c2 > 0) - pi2) * c2
    c1 = 1.0 + x1
    nu1 = np.minimum(x1, -1.0)
    r1 = v2 - pi1 * c1 - nu1

    ones = np.ones(n)
    blocks = {
        "assignment2": np.column_stack([ones, x2]) * (a2s - p2)[:, None],
        "adherence2": np.column_stack([ones, x2, a2s]) * (val[:, 1] * (a2 - pi2))[:, None],
        "treatment_free2": np.column_stack([ones, x1, x2, pi1]) * r2[:, None],
        "contrast2": np.column_stack([ones, x2, pi1]) * ((a2s - p2) * r2)[:, None],
        "assignment1": np.column_stack([ones, x1]) * (a1s - p1)[:, None],
        "adherence1": np.column_stack([ones, x1, a1s]) * (val[:, 0] * (a1 - pi1))[:, None],
        "treatment_free1": np.column_stack([ones, x1]) * r1[:, None],
        "contrast1": np.column_stack([ones, x1]) * ((a1s - p1) * r1)[:, None],
    }
    worst, worst_block = 0.0, ""
    for name, rows in blocks.items():
        ratio = np.max(np.abs(rows.mean(axis=0)) / (4.0 * rows.std(axis=0) / np.sqrt(n)))
        if ratio > worst:
            worst, worst_block = float(ratio), name
    report(
        "7 score mean zero at truth", worst <= 1.0,
        f"worst |mean| at {worst:.2f} of its 4-SE band ({worst_block})",
    )


# -- 8. double robustness -----------------------------------------------------------


def test_criterion_8_double_robustness():
    def specs(tf1, tf2, assign):
        return (
            StageModelSpec.from_strings(
                "1 + X[1]", tf1, assign.format(j=1), "1 + X[1] + Astar[1]"
            ),
            StageModelSpec.from_strings(
                "1 + X[2] + A[1]", tf2, assign.format(j=2), "1 + X[2] + Astar[2]"
            ),
        )

    known = AdherenceSource.known(
        coefficients=(np.array([-4.6, -0.83, 7.5]), np.array([-4.6, -0.83, 7.5]))
    )
    truth = np.ones(5)
    rng = np.random.default_rng(np.random.SeedSequence(606, spawn_key=(4,)))
    data = generate_s1(100_000, 1.0, rng)

    wrong_tf = EstimationPlan(
        specs=specs("1", "1", "1 + X[{j}]"),
        mode="modified-prescribed", adherence=known,
    )
    rich_tf1 = "1 + X[1] + X[1]*X[1] + X[1]*X[1]*X[1]"
    rich_tf2 = (
        "1 + X[1] + X[1]*X[1] + X[1]*X[1]*X[1] + A[1] + A[1]*X[1] + X[2] + X[2]*X[2]"
        " + X[2]*X[2]*X[2] + X[2]*X[2]*X[2]*X[2] + A[1]*X[2] + A[1]*X[2]*X[2]"
    )
    wrong_assign = EstimationPlan(
        specs=specs(rich_tf1, rich_tf2, "1"),
        mode="modified-prescribed", adherence=known,
    )
    dev_a = float(np.max(np.abs(psi_flat(wrong_tf.estimate(data)) - truth)))
    dev_b = float(np.max(np.abs(psi_flat(wrong_assign.estimate(data)) - truth)))
    report(
        "8 double robustness",
        dev_a <= 0.05 and dev_b <= 0.05,
        f"wrong treatment-free {dev_a:.4f}, wrong assignment {dev_b:.4f} (limit 0.05)",
    )


# -- 9. sandwich oracles ---------------------------------------------------------------


def test_criterion_9_sandwich_oracles():
    rng = np.random.default_rng(909)
    x = rng.normal(1.5, 3.0, 700)
    theta = np.array([x.mean()])
    result = sandwich((x - theta[0])[:, None],
                      numerical_jacobian(lambda t: (x - t[0])[:, None].mean(axis=0), theta))
    mean_gap = abs(result.sigma_theta[0, 0] - np.var(x) / x.size)

    n = 5000
    design = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.binomial(1, expit(design @ np.array([0.4, -0.8]))).astype(float)
    fit = fit_logistic(design, y)

    def score(theta):
        return design * (y - expit(design @ theta))[:, None]

    robust = sandwich(score(fit.coefficients),
                      numerical_jacobian(lambda t: score(t).mean(axis=0), fit.coefficients))
    mu = expit(design @ fit.coefficients)
    info = (design * (mu * (1 - mu))[:, None]).T @ design
    ratio = np.diag(robust.sigma_theta) / np.diag(np.linalg.inv(info))
    logistic_ok = bool(np.all(np.abs(ratio - 1.0) <= 0.15))
    report(
        "9 sandwich oracles",
        mean_gap <= 1e-10 and logistic_ok,
        f"sample-mean gap {mean_gap:.2g}, logistic ratio {np.round(ratio, 3)}",
    )


# -- 10. command determinism --------------------------------------------------------------


def test_criterion_10_command_determinism(tmp_path):
    def run(*args):
        assert cli_main([str(a) for a in args]) == 0

    def digest(folder):
        return {
            p.name: p.read_bytes() for p in sorted(Path(folder).iterdir())
        }

    sim = ["simulate", "--scenario", "s4", "--n", "300", "--reps", "6",
           "--validation", "0.3", "--param", "0", "--seed", "11",
           "--estimators", "modified-fitted,naive-proxy"]
    run(*sim, "--out", tmp_path / "sim1")
    run(*sim, "--out", tmp_path / "sim2")
    run(*sim, "--out", tmp_path / "sim3", "--jobs", "2")
    same_sim = digest(tmp_path / "sim1") == digest(tmp_path / "sim2")
    config1 = json.loads((tmp_path / "sim1" / "config.json").read_text())
    config3 = json.loads((tmp_path / "sim3" / "config.json").read_text())
    jobs_same = (
        (tmp_path / "sim1" / "summary.json").read_bytes()
        == (tmp_path / "sim3" / "summary.json").read_bytes()
        and (tmp_path / "sim1" / "estimates.csv").read_bytes()
        == (tmp_path / "sim3" / "estimates.csv").read_bytes()
        and config1["seed"] == config3["seed"]
    )

    rng = np.random.default_rng(77)
    data = generate_s1(250, 0.0, rng, validation_fraction=0.4)
    csv_path = tmp_path / "data.csv"
    bindings = write_dataset_csv(data, csv_path)
    config = {
        "input": "data.csv", "stages": 2, "outcome": "Y",
        "proxy_kind": bindings["proxy_kind"],
        "stage_columns": bindings["stage_columns"],
        "models": [
            {"contrast": "1 + X[1]", "treatment_free": "1 + X[1]",
             "assignment": "1 + X[1]", "adherence": "1 + X[1] + Astar[1]"},
            {"contrast": "1 + X[2] + A[1]", "treatment_free": "1 + X[1] + X[2]",
             "assignment": "1 + X[2]", "adherence": "1 + X[2] + Astar[2]"},
        ],
        "mode": "modified-prescribed",
        "adherence": {"kind": "fitted"},
        "inference": {"method": "bootstrap", "replicates": 15, "level": 0.9},
        "seed": 13,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run("analyze", config_path, "--out", tmp_path / "an1")
    run("analyze", config_path, "--out", tmp_path / "an2")
    same_analyze = digest(tmp_path / "an1") == digest(tmp_path / "an2")

    grid = tmp_path / "grid.csv"
    with open(grid, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["1", "X", "Astar"])
        writer.writerows([[-4.6, -0.83, 7.5], [-4.6, -0.83, 6.0]])
    run("sensitivity", config_path, grid, "--out", tmp_path / "sw1")
    run("sensitivity", config_path, grid, "--out", tmp_path / "sw2")
    same_sweep = digest(tmp_path / "sw1") == digest(tmp_path / "sw2")

    report(
        "10 determinism",
        same_sim and jobs_same and same_analyze and same_sweep,
        f"simulate {same_sim}, jobs {jobs_same}, analyze {same_analyze}, sweep {same_sweep}",
    )
