"""Synthetic two-stage scenarios and the replication engine.

Each generator composes the outcome in regret form,

    Y = treatment_free(history) + noise - sum_j [I(C_j > 0) - A_j] C_j,

so the contrast coefficients used in generation are exactly the parameters a
correct analysis should recover at both stages (subtracting each stage's
realized regret leaves the optimal-continuation value, whatever the later
contrasts do to earlier histories).

Scenarios:

* ``s1`` -- normal tailoring covariates, prescription proxies with
  covariate-dependent nonadherence, stage-2 contrast tied to the stage-1
  treatment by a configurable coefficient;
* ``s2`` -- s1 with that coefficient pinned to zero, for varying the
  validation fraction;
* ``s3`` -- shifted assignment models and a direct stage-1 treatment effect
  in the outcome, for interval-coverage studies;
* ``s4`` -- three-point covariates with reported (post-treatment) proxies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .gest import (MAX_FAILURE_FRACTION, AdherenceSource, EstimationPlan, RegimeFit,
                   StageModelSpec, failure_counts, ordered_map, psi_flat, tally)
from .glm import expit
from .inference import regime_wald_intervals
from .model import Dataset

SCENARIOS = ("s1", "s2", "s3", "s4")
ESTIMATORS = ("modified-known", "modified-fitted", "naive-proxy", "standard-actual")
# Nominal level of the Wald intervals whose coverage a study records.
COVERAGE_LEVEL = 0.95
# Replicates fitted in one batched pass.  Fixed, so that which replicates
# share a pass, and so every result, never depends on jobs.
REPLICATION_BLOCK = 10

# Nonadherence mechanism shared by s1/s2/s3: the chance the treatment was
# actually taken, given the stage covariate and the prescription.
PRESCRIBED_ADHERENCE_COEF = (-4.6, -0.83, 7.5)


class ReplicationError(RuntimeError):
    """More replicates failed than the tolerated fraction."""


# ---------------------------------------------------------------------------
# Generators


def _regret_outcome(treatment_free, noise, contrasts, treatments):
    y = treatment_free + noise
    for c, a in zip(contrasts, treatments):
        y = y - ((c > 0.0).astype(float) - a) * c
    return y


def _validation_flags(n: int, fraction: float, rng: np.random.Generator, stages: int) -> np.ndarray:
    if not (0.0 < fraction <= 1.0):
        raise ValueError("validation fraction must be in (0, 1]")
    size = int(round(fraction * n))
    size = max(1, size)
    chosen = rng.choice(n, size=size, replace=False)
    flags = np.zeros((n, stages), dtype=bool)
    flags[chosen, :] = True
    return flags


def generate_s1(n: int, psi22: float, rng: np.random.Generator,
                validation_fraction: float = 0.3) -> Dataset:
    """Two-stage data with prescribed proxies and covariate-driven nonadherence.

    X1 ~ N(1,1), X2 ~ N(1,4); prescriptions follow expit(X_j); the treatment
    actually taken follows expit(-4.6 - 0.83 X_j + 7.5 A_j*).  Stage contrasts
    are 1 + X1 and 1 + X2 + psi22 * A1; the treatment-free part is X1 and the
    noise variance is 2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _prescribed_scenario(n, rng, validation_fraction, shifts=(0.0, 0.0), lag=psi22,
                                direct=0.0)


def generate_s3(n: int, rng: np.random.Generator, validation_fraction: float = 0.2) -> Dataset:
    """Coverage-study variant: assignment expit(0.5 + X1) / expit(-0.5 + X2),
    stage-2 contrast 1 + X2 - A1, and a direct 0.5-per-unit effect of the
    stage-1 treatment actually taken in the outcome, which folds into the
    stage-1 contrast and shifts its intercept to 1.5.
    """
    return _prescribed_scenario(n, rng, validation_fraction, shifts=(0.5, -0.5), lag=-1.0,
                                direct=0.5)


def _prescribed_scenario(n, rng, validation_fraction, *, shifts, lag, direct) -> Dataset:
    """The s1/s3 mechanism: prescriptions follow expit(shift_j + X_j), the
    stage-2 contrast is 1 + X2 + lag * A1, and the stage-1 treatment taken
    adds ``direct`` to the treatment-free part."""
    b0, b1, b2 = PRESCRIBED_ADHERENCE_COEF
    x1 = rng.normal(1.0, 1.0, n)
    astar1 = rng.binomial(1, expit(shifts[0] + x1)).astype(float)
    a1 = rng.binomial(1, expit(b0 + b1 * x1 + b2 * astar1)).astype(float)
    x2 = rng.normal(1.0, 2.0, n)
    astar2 = rng.binomial(1, expit(shifts[1] + x2)).astype(float)
    a2 = rng.binomial(1, expit(b0 + b1 * x2 + b2 * astar2)).astype(float)
    eps = rng.normal(0.0, np.sqrt(2.0), n)

    c1 = 1.0 + x1
    c2 = 1.0 + x2 + lag * a1
    y = _regret_outcome(x1 + direct * a1, eps, (c1, c2), (a1, a2))
    flags = _validation_flags(n, validation_fraction, rng, 2)
    return Dataset(
        ids=range(n),
        stage_covariates=[{"X": x1}, {"X": x2}],
        prescribed=[astar1, astar2],
        actual=[a1, a2],
        reported=[None, None],
        validation=flags,
        outcome=y,
    )


def generate_s4(n: int, psi21: float, rng: np.random.Generator,
                validation_fraction: float = 0.3) -> Dataset:
    """Reported-treatment variant on three-point covariates.

    X1, X2 uniform on {-1, 0, 1}; the treatment taken follows 0.5 + 0.3 X_j;
    the report follows A_j (0.9 - 0.05 X_j) + (1 - A_j)(0.05 + 0.045 X_j +
    0.005 X_j^2).  Contrasts are 1 + X1 and 1 + psi21 * A1.
    """
    x1 = rng.integers(-1, 2, n).astype(float)
    a1 = rng.binomial(1, 0.5 + 0.3 * x1).astype(float)
    rep1 = rng.binomial(1, _report_prob(a1, x1)).astype(float)
    x2 = rng.integers(-1, 2, n).astype(float)
    a2 = rng.binomial(1, 0.5 + 0.3 * x2).astype(float)
    rep2 = rng.binomial(1, _report_prob(a2, x2)).astype(float)
    eps = rng.normal(0.0, np.sqrt(2.0), n)

    c1 = 1.0 + x1
    c2 = 1.0 + psi21 * a1
    y = _regret_outcome(x1, eps, (c1, c2), (a1, a2))
    flags = _validation_flags(n, validation_fraction, rng, 2)
    return Dataset(
        ids=range(n),
        stage_covariates=[{"X": x1}, {"X": x2}],
        prescribed=[None, None],
        actual=[a1, a2],
        reported=[rep1, rep2],
        validation=flags,
        outcome=y,
    )


def _report_prob(a, x):
    return a * (0.9 - 0.05 * x) + (1.0 - a) * (0.05 + 0.045 * x + 0.005 * x * x)


def reported_inverse_probability(stage, cov, proxy):
    """True probability the treatment was taken given covariate and report in
    the s4 mechanism, by Bayes inversion."""
    x = cov("X", stage)
    p = 0.5 + 0.3 * x
    r1, r0 = _report_prob(1.0, x), _report_prob(0.0, x)
    proxy = np.asarray(proxy, dtype=float)
    num = np.where(proxy == 1.0, p * r1, p * (1.0 - r1))
    den = np.where(proxy == 1.0, p * r1 + (1.0 - p) * r0, p * (1.0 - r1) + (1.0 - p) * (1.0 - r0))
    return num / den


# ---------------------------------------------------------------------------
# Scenario analysis models and truths


def scenario_models(scenario: str, *, as_treated: bool = False) -> list:
    """Analysis model specs for a scenario.

    The as-treated comparator models the propensity of the treatment actually
    taken; on the prescription scenarios that propensity is logistic in the
    covariate and the prescription, so its assignment spec conditions on the
    stage proxy.  (On s4 the proxy is a report, a descendant of the treatment,
    and must not enter the assignment model; 0.5 + 0.3 X is exactly logistic
    in X there.)
    """
    if scenario in ("s1", "s2", "s3"):
        assign = "1 + X[{j}] + Astar[{j}]" if as_treated else "1 + X[{j}]"
        return [
            StageModelSpec.from_strings(
                contrast="1 + X[1]",
                treatment_free="1 + X[1]",
                assignment=assign.format(j=1),
                adherence="1 + X[1] + Astar[1]",
            ),
            StageModelSpec.from_strings(
                contrast="1 + X[2] + A[1]",
                treatment_free=(
                    "1 + X[1] + A[1]" if scenario == "s3"
                    else "1 + X[1] + A[1] + A[1]*X[1] + X[2]"
                ),
                assignment=assign.format(j=2),
                adherence="1 + X[2] + Astar[2]",
            ),
        ]
    if scenario == "s4":
        assign = "1 + X[{j}]" if as_treated else "1 + X[{j}] + X[{j}]*X[{j}]"
        return [
            StageModelSpec.from_strings(
                contrast="1 + X[1]",
                treatment_free="1 + X[1]",
                assignment=assign.format(j=1),
                adherence="1 + X[1] + Astar[1] + X[1]*Astar[1]",
            ),
            StageModelSpec.from_strings(
                contrast="1 + A[1]",
                treatment_free="1 + X[1] + X[1]*X[1] + A[1] + A[1]*X[1]",
                assignment=assign.format(j=2),
                adherence="1 + X[2] + Astar[2] + X[2]*Astar[2]",
            ),
        ]
    raise ValueError(f"unknown scenario '{scenario}'")


def scenario_truth(scenario: str, varied_param: float) -> np.ndarray:
    """Flattened true contrast parameters, stage 1 first."""
    if scenario == "s1":
        return np.array([1.0, 1.0, 1.0, 1.0, varied_param])
    if scenario == "s2":
        return np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    if scenario == "s3":
        # The 0.5 direct effect of the stage-1 treatment folds into the
        # stage-1 contrast intercept.
        return np.array([1.5, 1.0, 1.0, 1.0, -1.0])
    if scenario == "s4":
        return np.array([1.0, 1.0, 1.0, varied_param])
    raise ValueError(f"unknown scenario '{scenario}'")


def known_adherence(scenario: str) -> AdherenceSource:
    if scenario in ("s1", "s2", "s3"):
        coef = np.asarray(PRESCRIBED_ADHERENCE_COEF, dtype=float)
        return AdherenceSource.known(coefficients=(coef, coef))
    if scenario == "s4":
        return AdherenceSource.known(probability=reported_inverse_probability)
    raise ValueError(f"unknown scenario '{scenario}'")


def scenario_mode(scenario: str, estimator: str) -> str:
    if estimator == "standard-actual":
        return "standard-actual"
    if estimator == "naive-proxy":
        return "standard-naive-proxy"
    return "modified-reported" if scenario == "s4" else "modified-prescribed"


def scenario_plan(scenario: str, estimator: str, *, exact_pseudo_outcomes=False) -> EstimationPlan:
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator '{estimator}'")
    adherence = None
    if estimator == "modified-known":
        adherence = known_adherence(scenario)
    elif estimator == "modified-fitted":
        adherence = AdherenceSource.fitted()
    specs = scenario_models(scenario, as_treated=estimator == "standard-actual")
    return EstimationPlan(
        specs=tuple(specs),
        mode=scenario_mode(scenario, estimator),
        adherence=adherence,
        exact_pseudo_outcomes=exact_pseudo_outcomes and estimator.startswith("modified"),
    )


# ---------------------------------------------------------------------------
# Replication engine


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    n: int
    replications: int
    seed: int
    validation_fraction: float = 0.3
    varied_param: float = 0.0
    estimators: tuple = ESTIMATORS
    coverage: bool = False
    exact_pseudo_outcomes: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario '{self.scenario}'")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (0.0 < self.validation_fraction <= 1.0):
            raise ValueError("validation fraction must be in (0, 1]")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ValueError(f"unknown estimator '{est}'")
            if self.estimators.count(est) > 1:
                raise ValueError(f"estimator '{est}' listed twice")
        if not self.estimators:
            raise ValueError("no estimators requested")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.scenario == "s2" and self.varied_param != 0.0:
            raise ValueError("scenario s2 pins the varied parameter to 0")


def scenario_dataset(config: ScenarioConfig, rng: np.random.Generator) -> Dataset:
    if config.scenario in ("s1", "s2"):
        return generate_s1(config.n, config.varied_param, rng,
                           validation_fraction=config.validation_fraction)
    if config.scenario == "s3":
        return generate_s3(config.n, rng, validation_fraction=config.validation_fraction)
    return generate_s4(config.n, config.varied_param, rng,
                       validation_fraction=config.validation_fraction)


class _Replicate(NamedTuple):
    """What one successful replicate of an estimator yields."""

    estimates: np.ndarray  # the flattened contrast estimates, stage 1 first
    hits: Optional[np.ndarray]  # 0/1 per parameter: the Wald interval covers the truth
    positivity: list  # per stage, rows with an assignment probability of 0 or 1


def _replicate_block(config: ScenarioConfig, plans: dict, replicates: range) -> dict:
    """Generate the datasets of a block of replicates and fit each estimator
    on all of them in one batched pass; estimators that regress the same
    treatment on the same history share that assignment fit.  Maps each
    estimator to one ``tally``-style ``(_Replicate, error)`` pair per
    replicate."""
    datasets = [scenario_dataset(config, np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(r,)))) for r in replicates]
    stack, weights = Dataset.stack(datasets), np.broadcast_to(1.0, (len(datasets), config.n))
    if not config.coverage:  # only the coverage intervals need a replicate's own dataset
        datasets = [None] * len(datasets)
    assignment_fits = {}
    return {name: [(None, error) if error is not None else tally(_replicate, config, data, fit)
                   for data, (fit, error) in zip(datasets, plan.fit_members(
                       stack, weights, assignment_fits=assignment_fits))]
            for name, plan in plans.items()}


def _replicate(config: ScenarioConfig, data: Dataset, fit: RegimeFit) -> _Replicate:
    """A replicate's fit and, when coverage is requested, the hits of the Wald
    intervals computed on its own dataset."""
    hits = None
    if config.coverage:
        truth = scenario_truth(config.scenario, config.varied_param)
        intervals = regime_wald_intervals(data, fit, COVERAGE_LEVEL)
        hits = ((intervals.lower <= truth) & (truth <= intervals.upper)).astype(float)
    return _Replicate(psi_flat(fit), hits, fit.diagnostics["positivity_violations"])


@dataclass
class ReplicationSummary:
    config: ScenarioConfig
    parameters: list  # (stage, term label)
    truth: np.ndarray
    replicate_indices: dict  # estimator -> array of successful replicate indices
    estimates: dict  # estimator -> (n_ok, P) array
    coverage: dict  # estimator -> per-parameter coverage (or None)
    failures: dict  # estimator -> count
    failure_counts: dict  # estimator -> gest.failure_counts records
    positivity: dict  # estimator -> per stage, violations summed over successful replicates

    def statistics(self) -> dict:
        """Per-estimator, per-parameter mean, bias, variance, and 100 x MSE.

        The variance is the population (1/n) form so that
        MSE = bias^2 + variance holds exactly.
        """
        stats = {}
        for name, values in self.estimates.items():
            rows = []
            cov = self.coverage.get(name)
            for p, (stage, label) in enumerate(self.parameters):
                column = values[:, p]
                mean = float(np.mean(column))
                bias = mean - float(self.truth[p])
                variance = float(np.var(column))
                row = {
                    "stage": stage,
                    "parameter": label,
                    "truth": float(self.truth[p]),
                    "mean": mean,
                    "bias": bias,
                    "variance": variance,
                    "mse_x100": 100.0 * (bias * bias + variance),
                }
                if cov is not None:
                    row["coverage"] = float(cov[p])
                rows.append(row)
            stats[name] = {"failures": self.failures[name],
                           "failure_counts": self.failure_counts[name],
                           "positivity_violations": self.positivity[name],
                           "parameters": rows}
        return stats


def run_replications(config: ScenarioConfig) -> ReplicationSummary:
    """Run independently seeded replicates and aggregate estimator behavior.

    Each replicate generates one dataset from a seed stream derived from the
    master seed by replicate index, so individual replicates are
    reproducible.  Blocks of ``REPLICATION_BLOCK`` replicates are stacked,
    and each estimator fits a block in one batched pass; ``jobs`` worker
    processes share out the blocks, so results do not depend on the worker
    count.
    """
    plans = {name: scenario_plan(config.scenario, name,
                                 exact_pseudo_outcomes=config.exact_pseudo_outcomes)
             for name in config.estimators}
    blocks = [range(start, min(start + REPLICATION_BLOCK, config.replications))
              for start in range(0, config.replications, REPLICATION_BLOCK)]
    results = ordered_map(partial(_replicate_block, config, plans), blocks, config.jobs)

    specs = scenario_models(config.scenario)
    parameters = [
        (j, label)
        for j, spec in enumerate(specs, start=1)
        for label in spec.contrast.term_labels()
    ]
    truth = scenario_truth(config.scenario, config.varied_param)

    indices, estimates, coverage, failures, counts, positivity = {}, {}, {}, {}, {}, {}
    for name in config.estimators:
        runs = [pair for block in results for pair in block[name]]
        ok = [i for i, (_, err) in enumerate(runs) if err is None]
        failures[name] = config.replications - len(ok)
        if failures[name] > MAX_FAILURE_FRACTION * config.replications:
            first = next(err for _, err in runs if err is not None)
            raise ReplicationError(
                f"estimator '{name}' failed {failures[name]}/{config.replications} "
                f"replicates (first failure: {first})"
            )
        values = [runs[i][0] for i in ok]
        indices[name] = np.asarray(ok, dtype=int)
        estimates[name] = np.vstack([value.estimates for value in values])
        coverage[name] = (np.vstack([value.hits for value in values]).mean(axis=0)
                          if config.coverage else None)
        counts[name] = failure_counts(err for _, err in runs)
        positivity[name] = [int(total) for total in
                            np.sum([value.positivity for value in values], axis=0)]

    return ReplicationSummary(
        config=config,
        parameters=parameters,
        truth=truth,
        replicate_indices=indices,
        estimates=estimates,
        coverage=coverage,
        failures=failures,
        failure_counts=counts,
        positivity=positivity,
    )
