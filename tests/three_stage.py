"""A three-stage data generator for tests: every scenario of the package has
two stages, and the backward pass, the stacked score and the rules are
written for any number.

Stage j draws ``X_j`` from N(0.3 A_{j-1}, 1), a prescription from
expit(0.2 + 0.5 X_j) and the treatment taken from
expit(-1.5 + 0.5 X_j + 3 Astar_j), a model the validation rows pin down
without separation.  The outcome adds each stage's blip ``A_j C_j`` to
``X_1`` and noise, with contrasts 1 + X_1, 1 + X_2 - 0.5 A_1 and
1 + X_3 + 0.5 A_2.  ``in_regret_form`` takes each stage's optimal blip
``max(C_j, 0)`` off that outcome, which makes the contrasts the parameters a
correctly specified analysis recovers at every stage.
"""

from dataclasses import replace

import numpy as np

from dtr_adhere.gest import AdherenceSource, EstimationPlan, StageModelSpec
from dtr_adhere.glm import expit
from dtr_adhere.model import Dataset, parse_feature_spec
from dtr_adhere.simulation import scenario_mode

ADHERENCE_COEF = (-1.5, 0.5, 3.0)
STAGES = 3
# The coefficient of A_{j-1} in stage j's contrast 1 + X_j + LAGS[j-1] A_{j-1}.
LAGS = (0.0, -0.5, 0.5)
# Those contrasts' coefficients on the terms of the plans' contrast specs.
TRUE_PSI = ((1.0, 1.0), (1.0, 1.0, LAGS[1]), (1.0, 1.0, LAGS[2]))


def generate_three_stage(n: int, rng: np.random.Generator,
                         validation_fraction: float = 0.5) -> Dataset:
    b0, b1, b2 = ADHERENCE_COEF
    covariates, proxies, actuals = [], [], []
    outcome = rng.normal(0.0, 1.0, n)
    previous = np.zeros(n)
    for j in range(STAGES):
        x = rng.normal(0.3 * previous, 1.0)
        astar = rng.binomial(1, expit(0.2 + 0.5 * x)).astype(float)
        a = rng.binomial(1, expit(b0 + b1 * x + b2 * astar)).astype(float)
        lag = LAGS[j] * previous
        outcome += a * (1.0 + x + lag) + (x if j == 0 else 0.0)
        covariates.append({"X": x})
        proxies.append(astar)
        actuals.append(a)
        previous = a
    return Dataset(
        stage_covariates=covariates,
        proxy=proxies,
        proxy_kind="prescribed",
        actual=actuals,
        validation=rng.uniform(size=(n, STAGES)) < validation_fraction,
        outcome=outcome,
    )


def in_regret_form(data: Dataset) -> Dataset:
    """``data`` with the outcome ``X_1 + noise - sum_j (I(C_j > 0) - A_j) C_j``,
    the regret form of ``simulation``'s scenarios.  There every stage's
    treatment-free part is a function of the history alone, so the contrast
    coefficients are ``TRUE_PSI`` at each stage, though ``X_{j+1}`` depends
    on ``A_j``."""
    outcome, previous = data.outcome.copy(), np.zeros(data.n)
    for j in range(1, STAGES + 1):
        outcome -= np.maximum(1.0 + data.covariate("X", j) + LAGS[j - 1] * previous, 0.0)
        previous = data.actual(j)
    kept = range(1, STAGES + 1)
    return Dataset(stage_covariates=[{"X": data.covariate("X", j)} for j in kept],
                   proxy=[data.proxy(j) for j in kept], proxy_kind=data.proxy_kind,
                   actual=[data.actual(j) for j in kept], validation=data.validation,
                   outcome=outcome)


def as_treated_plan() -> EstimationPlan:
    """``standard-actual`` with each stage's assignment model in the covariate
    and the prescription, ``1 + X[j] + Astar[j]``: the true propensity of the
    treatment taken, with coefficients ``ADHERENCE_COEF``, as
    ``simulation.scenario_models(as_treated=True)`` writes it for s1."""
    plan = three_stage_plan("standard-actual")
    return replace(plan, specs=tuple(
        replace(spec, assignment=parse_feature_spec(f"1 + X[{j}] + Astar[{j}]"))
        for j, spec in enumerate(plan.specs, start=1)))


def three_stage_plan(estimator: str, *, exact_pseudo_outcomes: bool = False) -> EstimationPlan:
    """The plan of one of the package's estimators (``simulation.ESTIMATORS``)
    on three-stage data; ``modified-known`` pins the generating adherence
    coefficients at every stage."""
    specs = [StageModelSpec.from_strings("1 + X[1]", "1 + X[1]", "1 + X[1]", "1 + X[1] + Astar[1]")]
    for j in (2, 3):
        specs.append(StageModelSpec.from_strings(
            f"1 + X[{j}] + A[{j - 1}]", f"1 + X[{j - 1}] + A[{j - 1}] + X[{j}]", f"1 + X[{j}]",
            f"1 + X[{j}] + Astar[{j}]"))
    adherence = {"modified-fitted": AdherenceSource.fitted(),
                 "modified-known": AdherenceSource.known(
                     coefficients=(ADHERENCE_COEF,) * STAGES)}.get(estimator)
    return EstimationPlan(specs=tuple(specs), mode=scenario_mode("s1", estimator),
                          adherence=adherence, exact_pseudo_outcomes=exact_pseudo_outcomes)
