"""Metamorphic checks: how the estimates must move when the data is
transformed in a known way.

Every estimating equation is a sum over individuals, so permuting or
duplicating the rows leaves psi where it was.  The contrast equations are
linear in the outcome given the nuisance fits, and the rule I(C > 0) does not
depend on the outcome's scale, so Y -> 3Y scales psi by 3 and its sandwich
covariance by 9.  Tolerances sit well above the largest deviation seen over
these cases (3e-14, 2e-10, 8e-14 and 3e-9 relative).
"""

import numpy as np
import pytest

from dtr_adhere.gest import psi_flat
from dtr_adhere.inference import regime_sandwich
from dtr_adhere.model import Dataset
from dtr_adhere.simulation import (
    ESTIMATORS,
    generate_s1,
    generate_s3,
    generate_s4,
    scenario_plan,
)

CASES = pytest.mark.parametrize(
    "scenario,estimator,exact",
    [(s, e, x) for s in ("s1", "s3", "s4") for e in ESTIMATORS for x in (False, True)],
)


@pytest.fixture(scope="module")
def datasets():
    rng = np.random.default_rng(2468)
    return {
        "s1": generate_s1(1000, 1.0, rng),
        "s3": generate_s3(1000, rng),
        "s4": generate_s4(1000, 1.0, rng),
    }


def with_outcome(data, outcome):
    stages = range(1, data.n_stages + 1)
    return Dataset(
        ids=data.ids,
        stage_covariates=[
            {name: data.covariate(name, j) for name in data.covariate_names} for j in stages
        ],
        prescribed=[data.prescribed(j) for j in stages],
        actual=[data.actual(j) for j in stages],
        reported=[data.reported(j) for j in stages],
        validation=data.validation,
        outcome=outcome,
    )


def fitted(datasets, scenario, estimator, exact):
    data = datasets[scenario]
    plan = scenario_plan(scenario, estimator, exact_pseudo_outcomes=exact)
    return data, plan, plan.estimate(data)


@CASES
def test_row_permutation_leaves_psi(datasets, scenario, estimator, exact):
    data, plan, fit = fitted(datasets, scenario, estimator, exact)
    order = np.random.default_rng(5).permutation(data.n)
    moved = psi_flat(plan.estimate(data.subset(order)))
    assert np.max(np.abs(moved - psi_flat(fit))) <= 1e-10


@CASES
def test_duplicated_rows_leave_psi(datasets, scenario, estimator, exact):
    data, plan, fit = fitted(datasets, scenario, estimator, exact)
    doubled = psi_flat(plan.estimate(data.subset(np.tile(np.arange(data.n), 2))))
    assert np.max(np.abs(doubled - psi_flat(fit))) <= 1e-8


@CASES
def test_outcome_scale_scales_psi(datasets, scenario, estimator, exact):
    data, plan, fit = fitted(datasets, scenario, estimator, exact)
    scaled = psi_flat(plan.estimate(with_outcome(data, 3.0 * data.outcome)))
    assert np.max(np.abs(scaled - 3.0 * psi_flat(fit))) <= 1e-10


@CASES
def test_outcome_scale_scales_sandwich_by_square(datasets, scenario, estimator, exact):
    data, plan, fit = fitted(datasets, scenario, estimator, exact)
    scaled_data = with_outcome(data, 3.0 * data.outcome)
    sigma = 9.0 * regime_sandwich(data, fit).sigma_psi
    scaled = regime_sandwich(scaled_data, plan.estimate(scaled_data)).sigma_psi
    assert np.max(np.abs(scaled - sigma)) <= 1e-6 * np.max(np.abs(sigma))
