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

Each mechanism is written once, for a block of random generators, and draws
the block as one stacked ``Dataset``: member i comes from generator i alone,
so it does not depend on the block.  The ``generate_*`` functions and
``scenario_dataset`` draw a block of one generator.

A Bernoulli variable is drawn as numpy's ``Generator.binomial(1, p)`` draws
it, by inversion: one uniform a draw, none where p == 0.  ``_bernoulli``
takes each generator's uniforms in one fill and compares the block with the
inversion threshold at once; a row it cannot decide so, or that holds a
p == 0, ``binomial`` draws again.  So every seed keeps the dataset it drew.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple, Optional

import numpy as np

from .gest import (MAX_FAILURE_FRACTION, PROXY_FREE_MODES, AdherenceSource, EstimationPlan,
                   RegimeFit, StageModelSpec, failure_counts, ordered_map, passes, psi_flat,
                   tally)
from .glm import expit
from .inference import regime_wald_intervals
from .model import Dataset

SCENARIOS = ("s1", "s2", "s3", "s4")
ESTIMATORS = ("modified-known", "modified-fitted", "naive-proxy", "standard-actual")
# Nominal level of the Wald intervals whose coverage a study records.
COVERAGE_LEVEL = 0.95

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


def _check_sizes(n: int, fraction: float) -> None:
    """Every generator's argument check, made before anything is drawn."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not (0.0 < fraction <= 1.0):
        raise ValueError("validation fraction must be in (0, 1]")


def _normal(rngs, loc: float, scale: float, n: int) -> np.ndarray:
    """(b, n) normal draws, row i from generator i."""
    return np.array([rng.normal(loc, scale, n) for rng in rngs])


# How near q, or 1, a uniform must be for ``_bernoulli`` to leave its row to
# ``binomial``: libm moves q by a few ulps, and this is 16.
_INVERSION_MARGIN = 2.0 ** -49


def _bernoulli(rngs, p: np.ndarray) -> np.ndarray:
    """(b, n) 0/1 draws as floats, row i from generator i at probabilities
    p[i]: the draws, and the generators' states after them, of
    ``rng.binomial(1, p[i])``, from one uniform fill per generator.

    numpy draws ``binomial(1, p)`` by inversion (``random_binomial``, then
    ``random_binomial_inversion``).  Where p == 0 it draws nothing and gives
    0.  Elsewhere let r = p if p <= 0.5, else 1 - p, and q = 1 - r: one
    uniform U, the double ``Generator.random`` yields, gives
    X = [U > exp(log(q))], and the draw is X if p <= 0.5, else 1 - X.  Here
    each generator fills its row's uniforms in one ``random`` call, and the
    block is compared with q at once.  Within ``_INVERSION_MARGIN`` of q,
    libm's exp(log(q)) could fall on the other side of U, and from
    1 - ``_INVERSION_MARGIN`` up the inversion loop could reject U and draw
    again; a row holding such a U (about 5e-15 a draw), or a p == 0, for
    which the fill drew a uniform numpy does not, is drawn again by
    ``binomial``, from its generator's state before the fill.  p is checked
    over the whole block before anything is drawn, with numpy's error."""
    p = np.asarray(p, dtype=float)
    if not (np.all(p >= 0.0) and np.all(p <= 1.0)):
        raise ValueError("p < 0, p > 1 or p contains NaNs")
    # 1 - p is exact for p > 0.5, so q is 1 - (1 - p) = p there, and 1 - p
    # where p <= 0.5 (1 - p rounds to at least 0.5 >= p)
    q = np.maximum(p, 1.0 - p)
    u = np.empty(p.shape)
    states = []
    for i, rng in enumerate(rngs):
        states.append(rng.bit_generator.state)
        rng.random(out=u[i])
    x = u > q
    x ^= p > 0.5
    draws = x.astype(float)
    near = ((np.abs(u - q) <= _INVERSION_MARGIN) | (u >= 1.0 - _INVERSION_MARGIN)
            | (p == 0.0))
    for i in np.flatnonzero(near.any(axis=1)):
        rngs[i].bit_generator.state = states[i]
        draws[i] = rngs[i].binomial(1, p[i])
    return draws


def _generated(rngs, fraction: float, *, x, proxy, proxy_kind, actual, y) -> Dataset:
    """A block's freshly generated two-stage columns, (b, n), stage covariate
    ``X``, as one stacked dataset whose validation rows each generator draws
    last: ``fraction`` of its member's rows, at least one, validate both
    stages.  The columns are made read-only in place, so that ``Dataset``
    keeps them as they are instead of copying, and checks them once."""
    b, n = y.shape
    flags = np.zeros((b, n, 2), dtype=bool)
    for member, rng in zip(flags, rngs):
        member[rng.choice(n, size=max(1, int(round(fraction * n))), replace=False), :] = True
    for column in (*x, *proxy, *actual, flags, y):
        column.flags.writeable = False
    return Dataset(stage_covariates=[{"X": col} for col in x], proxy=proxy,
                   proxy_kind=proxy_kind, actual=actual, validation=flags, outcome=y)


def generate_s1(n: int, psi22: float, rng: np.random.Generator,
                validation_fraction: float = 0.3) -> Dataset:
    """Two-stage data with prescribed proxies and covariate-driven nonadherence.

    X1 ~ N(1,1), X2 ~ N(1,4); prescriptions follow expit(X_j); the treatment
    actually taken follows expit(-4.6 - 0.83 X_j + 7.5 A_j*).  Stage contrasts
    are 1 + X1 and 1 + X2 + psi22 * A1; the treatment-free part is X1 and the
    noise variance is 2.
    """
    return _s1_block(n, psi22, [rng], validation_fraction).subset(0)


def generate_s3(n: int, rng: np.random.Generator, validation_fraction: float = 0.2) -> Dataset:
    """Coverage-study variant: assignment expit(0.5 + X1) / expit(-0.5 + X2),
    stage-2 contrast 1 + X2 - A1, and a direct 0.5-per-unit effect of the
    stage-1 treatment actually taken in the outcome, which folds into the
    stage-1 contrast and shifts its intercept to 1.5.
    """
    return _s3_block(n, [rng], validation_fraction).subset(0)


def generate_s4(n: int, psi21: float, rng: np.random.Generator,
                validation_fraction: float = 0.3) -> Dataset:
    """Reported-treatment variant on three-point covariates.

    X1, X2 uniform on {-1, 0, 1}; the treatment taken follows 0.5 + 0.3 X_j;
    the report follows A_j (0.9 - 0.05 X_j) + (1 - A_j)(0.05 + 0.045 X_j +
    0.005 X_j^2).  Contrasts are 1 + X1 and 1 + psi21 * A1.
    """
    return _reported_scenario(n, psi21, [rng], validation_fraction).subset(0)


def _s1_block(n, psi22, rngs, validation_fraction) -> Dataset:
    return _prescribed_scenario(n, rngs, validation_fraction, shifts=(0.0, 0.0), lag=psi22,
                                direct=0.0)


def _s3_block(n, rngs, validation_fraction) -> Dataset:
    return _prescribed_scenario(n, rngs, validation_fraction, shifts=(0.5, -0.5), lag=-1.0,
                                direct=0.5)


def _prescribed_scenario(n, rngs, validation_fraction, *, shifts, lag, direct) -> Dataset:
    """The s1/s3 mechanism for a block of generators, member i drawn from
    ``rngs[i]``: prescriptions follow expit(shift_j + X_j), the stage-2
    contrast is 1 + X2 + lag * A1, and the stage-1 treatment taken adds
    ``direct`` to the treatment-free part.  Each generator draws X1, A1*, A1,
    X2, A2*, A2 and the noise in that order, then its validation rows, so a
    member does not depend on the block it is drawn in."""
    _check_sizes(n, validation_fraction)
    b0, b1, b2 = PRESCRIBED_ADHERENCE_COEF
    x1 = _normal(rngs, 1.0, 1.0, n)
    astar1 = _bernoulli(rngs, expit(shifts[0] + x1))
    a1 = _bernoulli(rngs, expit(b0 + b1 * x1 + b2 * astar1))
    x2 = _normal(rngs, 1.0, 2.0, n)
    astar2 = _bernoulli(rngs, expit(shifts[1] + x2))
    a2 = _bernoulli(rngs, expit(b0 + b1 * x2 + b2 * astar2))
    eps = _normal(rngs, 0.0, np.sqrt(2.0), n)

    c1 = 1.0 + x1
    c2 = 1.0 + x2 + lag * a1
    y = _regret_outcome(x1 + direct * a1, eps, (c1, c2), (a1, a2))
    return _generated(rngs, validation_fraction, x=(x1, x2), proxy=(astar1, astar2),
                      proxy_kind="prescribed", actual=(a1, a2), y=y)


def _reported_scenario(n, psi21, rngs, validation_fraction) -> Dataset:
    """The s4 mechanism for a block of generators, member i drawn from
    ``rngs[i]``; each generator draws X1, A1, its report, X2, A2, its report
    and the noise in that order, then its validation rows."""
    _check_sizes(n, validation_fraction)
    x1 = np.array([rng.integers(-1, 2, n) for rng in rngs], dtype=float)
    a1 = _bernoulli(rngs, 0.5 + 0.3 * x1)
    rep1 = _bernoulli(rngs, _report_prob(a1, x1))
    x2 = np.array([rng.integers(-1, 2, n) for rng in rngs], dtype=float)
    a2 = _bernoulli(rngs, 0.5 + 0.3 * x2)
    rep2 = _bernoulli(rngs, _report_prob(a2, x2))
    eps = _normal(rngs, 0.0, np.sqrt(2.0), n)

    c1 = 1.0 + x1
    c2 = 1.0 + psi21 * a1
    y = _regret_outcome(x1, eps, (c1, c2), (a1, a2))
    return _generated(rngs, validation_fraction, x=(x1, x2), proxy=(rep1, rep2),
                      proxy_kind="reported", actual=(a1, a2), y=y)


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
    """Analysis model specs for a scenario, as a fresh list.

    The as-treated comparator models the propensity of the treatment actually
    taken; on the prescription scenarios that propensity is logistic in the
    covariate and the prescription, so its assignment spec conditions on the
    stage proxy.  (On s4 the proxy is a report, a descendant of the treatment,
    and must not enter the assignment model; 0.5 + 0.3 X is exactly logistic
    in X there.)  The immutable specs are parsed once per process.
    """
    return list(_scenario_models(scenario, bool(as_treated)))


@cache
def _scenario_models(scenario: str, as_treated: bool) -> tuple:
    if scenario in ("s1", "s2", "s3"):
        assign = "1 + X[{j}] + Astar[{j}]" if as_treated else "1 + X[{j}]"
        return (
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
        )
    if scenario == "s4":
        assign = "1 + X[{j}]" if as_treated else "1 + X[{j}] + X[{j}]*X[{j}]"
        return (
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
        )
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
    corrected = "modified-reported" if scenario == "s4" else "modified-prescribed"
    return {"standard-actual": "standard-actual",
            "naive-proxy": "standard-naive-proxy"}.get(estimator, corrected)


def scenario_plan(scenario: str, estimator: str, *, exact_pseudo_outcomes=False) -> EstimationPlan:
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator '{estimator}'")
    adherence = None
    if estimator == "modified-known":
        adherence = known_adherence(scenario)
    elif estimator == "modified-fitted":
        adherence = AdherenceSource.fitted()
    mode = scenario_mode(scenario, estimator)
    specs = scenario_models(scenario, as_treated=mode in PROXY_FREE_MODES)
    return EstimationPlan(
        specs=tuple(specs),
        mode=mode,
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
        if not np.isfinite(self.varied_param):
            raise ValueError(f"varied parameter (--param) must be finite, got {self.varied_param}")
        if self.scenario == "s2" and self.varied_param != 0.0:
            raise ValueError("scenario s2 pins the varied parameter to 0")


def scenario_block(config: ScenarioConfig, rngs) -> Dataset:
    """The scenario's datasets for a block of generators as one stack:
    member i is drawn from ``rngs[i]`` alone, as ``scenario_dataset`` draws
    it."""
    fraction = config.validation_fraction
    if config.scenario in ("s1", "s2"):
        return _s1_block(config.n, config.varied_param, rngs, fraction)
    if config.scenario == "s3":
        return _s3_block(config.n, rngs, fraction)
    return _reported_scenario(config.n, config.varied_param, rngs, fraction)


def scenario_dataset(config: ScenarioConfig, rng: np.random.Generator) -> Dataset:
    """One replicate's dataset, drawn from ``rng``."""
    return scenario_block(config, [rng]).subset(0)


class _Replicate(NamedTuple):
    """What one successful replicate of an estimator yields."""

    estimates: np.ndarray  # the flattened contrast estimates, stage 1 first
    hits: Optional[np.ndarray]  # 0/1 per parameter: the Wald interval covers the truth
    positivity: list  # per stage, rows with an assignment probability of 0 or 1


def _replicate_block(config: ScenarioConfig, plans: dict, replicates: range) -> dict:
    """Draw a block of replicates as one stack, each from its own seed
    stream, and fit each estimator on the stack in one batched pass;
    estimators that regress the same treatment on the same history share
    that assignment fit.  Only the stack is kept: replicate i's coverage
    intervals read its member view, ``stack.subset(i)``.  Maps each estimator
    to one ``tally``-style ``(_Replicate, error)`` pair per replicate."""
    stack = scenario_block(config, [np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(r,))) for r in replicates])
    weights, assignment_fits = np.broadcast_to(1.0, stack.outcome.shape), {}
    return {name: [(None, error) if error is not None else tally(_replicate, config, stack, i, fit)
                   for i, (fit, error) in enumerate(plan.fit_members(
                       stack, weights, assignment_fits=assignment_fits))]
            for name, plan in plans.items()}


def _replicate(config: ScenarioConfig, stack: Dataset, member: int, fit: RegimeFit) -> _Replicate:
    """A replicate's fit and, when coverage is requested, the hits of the Wald
    intervals computed on its member of the block's stack."""
    hits = None
    if config.coverage:
        truth = scenario_truth(config.scenario, config.varied_param)
        intervals = regime_wald_intervals(stack.subset(member), fit, COVERAGE_LEVEL)
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

    Each replicate draws its dataset from a seed stream derived from the
    master seed by replicate index, so individual replicates are
    reproducible.  Each block ``gest.passes(replications, n)`` cuts is drawn
    as one stack, and each estimator fits a block in one batched pass; ``jobs``
    worker processes share out the blocks, so results do not depend on the
    worker count.
    """
    plans = {name: scenario_plan(config.scenario, name,
                                 exact_pseudo_outcomes=config.exact_pseudo_outcomes)
             for name in config.estimators}
    results = ordered_map(partial(_replicate_block, config, plans),
                          passes(config.replications, config.n), config.jobs)

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
