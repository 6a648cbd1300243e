"""Whole fits against the independent reference estimator
(``reference_estimator.py``): the package's contrast estimates match the
reference's to 1e-10 on s1, s3 and s4, in both standard modes and each
scenario's corrected mode, with fitted adherence, with the scenario's known
coefficients (on s4 those of its six-term spec) and with supplied
coefficients that carry a covariance, each with and without exact pseudo
outcomes."""

import dataclasses

import numpy as np
import pytest

from dtr_adhere.gest import AdherenceSource
from dtr_adhere.simulation import generate_s1, generate_s3, generate_s4, scenario_plan

from reference_estimator import reference_psi

GENERATE = {"s1": lambda n, rng: generate_s1(n, 1.0, rng),
            "s3": lambda n, rng: generate_s3(n, rng),
            "s4": lambda n, rng: generate_s4(n, 1.0, rng)}


def cases(scenario, data):
    """``(name, plan)`` for each estimator on ``data``."""
    for estimator in ("standard-actual", "naive-proxy"):
        yield estimator, scenario_plan(scenario, estimator)
    for exact in (False, True):
        fitted = scenario_plan(scenario, "modified-fitted", exact_pseudo_outcomes=exact)
        known = scenario_plan(scenario, "modified-known", exact_pseudo_outcomes=exact)
        alpha = [nuisance["alpha"] for nuisance in fitted.estimate(data).nuisance]
        supplied = AdherenceSource.known(
            coefficients=alpha, covariance=[np.diag(np.full(a.size, 0.05)) + 0.01 for a in alpha])
        yield f"fitted, exact={exact}", fitted
        yield f"known, exact={exact}", known
        yield f"supplied with a covariance, exact={exact}", dataclasses.replace(
            fitted, adherence=supplied)


@pytest.mark.parametrize("n", [300, 1000])
@pytest.mark.parametrize("scenario", ["s1", "s3", "s4"])
def test_contrast_estimates_match_the_reference(scenario, n):
    for seed in range(5):
        data = GENERATE[scenario](n, np.random.default_rng(seed))
        for name, plan in cases(scenario, data):
            got = np.concatenate(plan.estimate(data).psi)
            want = np.concatenate(reference_psi(plan, data))
            assert np.max(np.abs(got - want)) <= 1e-10, (seed, name, got - want)
