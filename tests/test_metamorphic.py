"""Metamorphic checks: how the estimates must move when the data is
transformed in a known way.

Every estimating equation is a sum over individuals, so permuting or
duplicating the rows leaves psi where it was.  The contrast equations are
linear in the outcome given the nuisance fits, and the rule I(C > 0) does not
depend on the outcome's scale, so Y -> 3Y scales psi by 3 and its sandwich
covariance by 9.  Tolerances sit well above the largest deviation seen over
these cases (3e-14, 2e-10, 8e-14 and 3e-9 relative).

Weights are frequency weights: a row of weight 2 is the row twice and a row
of weight 0 is no row at all, for the estimates and for every check a fit
makes on its rows.
"""

import numpy as np
import pytest

from dtr_adhere.gest import ESTIMATION_FAILURES, psi_flat, tally
from dtr_adhere.inference import regime_sandwich
from dtr_adhere.model import Dataset
from dtr_adhere.simulation import (
    ESTIMATORS,
    generate_s1,
    generate_s3,
    generate_s4,
    scenario_plan,
)

from row_copy import copy_rows

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


def columns(data):
    """The keyword arguments that rebuild ``data``."""
    stages = range(1, data.n_stages + 1)
    return dict(
        stage_covariates=[
            {name: data.covariate(name, j).copy() for name in data.covariate_names}
            for j in stages
        ],
        proxy=[data.proxy(j) for j in stages],
        proxy_kind=data.proxy_kind,
        actual=[data.actual(j) for j in stages],
        validation=data.validation.copy(),
        outcome=data.outcome,
    )


def with_outcome(data, outcome):
    return Dataset(**{**columns(data), "outcome": outcome})


def poisoned(data, rows):
    """``data`` with copies of ``rows`` appended, their stage-1 covariates
    blown up to 1e15 and flagged as validation rows at every stage.  Counted,
    such rows leave every treatment-free design rank deficient (X[1] enters
    each stage 1 design) and their assignment probabilities at 0 or 1."""
    cols = columns(copy_rows(data, np.concatenate([np.arange(data.n), rows])))
    for column in cols["stage_covariates"][0].values():
        column[data.n:] = 1e15
    cols["validation"][data.n:] = True
    return Dataset(**cols)


def assert_same_fit(got, want):
    """psi to 1e-8; the nuisance coefficients and the diagnostics to 1e-6
    relative, since a quasi-separated adherence fit (s3) stops on its step
    tolerance with its flat direction known to about 1e-7."""
    assert np.max(np.abs(psi_flat(got) - psi_flat(want))) <= 1e-8
    for mine, theirs in zip(got.nuisance, want.nuisance):
        for key, value in theirs.items():
            if value is not None:
                np.testing.assert_allclose(mine[key], value, rtol=1e-6, atol=1e-8)
    for key, value in want.diagnostics.items():
        mine = got.diagnostics[key]
        # adherence_iterations is None at a stage with no fitted α
        assert [v is None for v in mine] == [v is None for v in value]
        np.testing.assert_allclose([v for v in mine if v is not None],
                                   [v for v in value if v is not None], rtol=1e-6)


def weighted_estimate(plan, data, weights):
    """``plan.estimate`` with frequency ``weights``, one per row: the
    one-member case of ``plan.fit_members``, raising its failure."""
    ((fit, error),) = plan.fit_members(data, np.asarray(weights, dtype=float)[None])
    if error is not None:
        raise error
    return fit


def fitted(datasets, scenario, estimator, exact):
    data = datasets[scenario]
    plan = scenario_plan(scenario, estimator, exact_pseudo_outcomes=exact)
    return data, plan, plan.estimate(data)


@CASES
def test_row_permutation_leaves_psi(datasets, scenario, estimator, exact):
    data, plan, fit = fitted(datasets, scenario, estimator, exact)
    order = np.random.default_rng(5).permutation(data.n)
    moved = psi_flat(plan.estimate(copy_rows(data, order)))
    assert np.max(np.abs(moved - psi_flat(fit))) <= 1e-10


@CASES
def test_duplicated_rows_leave_psi(datasets, scenario, estimator, exact):
    data, plan, fit = fitted(datasets, scenario, estimator, exact)
    doubled = psi_flat(plan.estimate(copy_rows(data, np.tile(np.arange(data.n), 2))))
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


@CASES
def test_weight_two_equals_duplicated_rows(datasets, scenario, estimator, exact):
    data, plan, _ = fitted(datasets, scenario, estimator, exact)
    twice = np.random.default_rng(6).random(data.n) < 0.3
    weighted = weighted_estimate(plan, data, 1.0 + twice)
    duplicated = plan.estimate(copy_rows(data, np.concatenate([np.arange(data.n),
                                                               np.flatnonzero(twice)])))
    assert_same_fit(weighted, duplicated)


@CASES
def test_zero_weights_equal_dropped_rows(datasets, scenario, estimator, exact):
    data, plan, _ = fitted(datasets, scenario, estimator, exact)
    kept = np.random.default_rng(7).random(data.n) >= 0.25
    weighted = weighted_estimate(plan, data, kept * 1.0)
    dropped = plan.estimate(copy_rows(data, np.flatnonzero(kept)))
    assert_same_fit(weighted, dropped)


@CASES
def test_zero_weight_rows_leave_the_checks(datasets, scenario, estimator, exact):
    data, plan, fit = fitted(datasets, scenario, estimator, exact)
    rows = np.arange(5)
    bad = poisoned(data, rows)
    with pytest.raises(ESTIMATION_FAILURES):  # counted, the poisoned rows fail a check
        plan.estimate(bad)
    # weighted 0, they pass the rank and positivity checks untouched
    unweighted = np.concatenate([np.ones(data.n), np.zeros(rows.size)])
    weighted = weighted_estimate(plan, bad, unweighted)
    assert_same_fit(weighted, fit)  # diagnostics, positivity counts included
    # and they are no validation rows: with every real stage-1 validation row
    # weighted 0 too, a fitted adherence model has none left
    first = data.validation[:, 0]
    got = tally(weighted_estimate, plan, bad,
                unweighted * np.concatenate([~first, np.ones(rows.size)]))
    want = tally(plan.estimate, copy_rows(data, np.flatnonzero(~first)))
    if plan.fits_adherence:
        assert str(want[1]) == "no validation rows at stage 1"
        assert type(got[1]) is type(want[1]) and str(got[1]) == str(want[1])
    else:
        assert_same_fit(got[0], want[0])
