"""Three stages: the batched fits, the stacked score at the fit and at the
truth, Wald coverage and the partial-history rules, each checked at K=3 as
the two-stage scenarios check them at K=2."""

import numpy as np
import pytest

from dtr_adhere.gest import StackedScore, psi_flat, recommend
from dtr_adhere.inference import numerical_jacobian, regime_wald_intervals
from dtr_adhere.model import Dataset

from row_copy import stack_datasets
from three_stage import (ADHERENCE_COEF, STAGES, TRUE_PSI, as_treated_plan,
                         generate_three_stage, in_regret_form, three_stage_plan)

# (estimator, exact pseudo outcomes)
PLANS = [("modified-fitted", False), ("modified-fitted", True), ("modified-known", False),
         ("naive-proxy", False), ("standard-actual", False)]
EACH_PLAN = pytest.mark.parametrize(
    "case", PLANS, ids=[f"{estimator}{'-exact' if exact else ''}" for estimator, exact in PLANS])


def plan_of(case):
    estimator, exact = case
    return three_stage_plan(estimator, exact_pseudo_outcomes=exact)


def assert_same_fit(got, want):
    (fit, error), (ref, ref_error) = got, want
    assert error is None and ref_error is None
    np.testing.assert_allclose(psi_flat(fit), psi_flat(ref), rtol=0, atol=1e-10)
    np.testing.assert_allclose(fit.pseudo_outcomes, ref.pseudo_outcomes, rtol=0, atol=1e-10)
    assert (fit.diagnostics["positivity_violations"]
            == ref.diagnostics["positivity_violations"])


@EACH_PLAN
class TestBatchedMembersMatchOneMemberFits:
    def test_bootstrap_weight_block(self, case):
        plan = plan_of(case)
        n = 300
        data = generate_three_stage(n, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        counts = np.array([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(6)],
                          dtype=float)
        for i, member in enumerate(plan.fit_members(data, counts)):
            assert_same_fit(member, plan.fit_members(data, counts[i : i + 1])[0])

    def test_stacked_datasets(self, case):
        plan = plan_of(case)
        datasets = [generate_three_stage(200, np.random.default_rng(10 + i)) for i in range(4)]
        got = plan.fit_members(stack_datasets(datasets), np.ones((4, 200)))
        for member, data in zip(got, datasets):
            assert_same_fit(member, (plan.estimate(data), None))


@EACH_PLAN
def test_stacked_score_at_the_fit(case):
    # The fit solves every block, so the score has mean zero at the fitted
    # theta; its closed-form Jacobian matches central differences.
    data = generate_three_stage(600, np.random.default_rng(5))
    score = StackedScore(data, plan_of(case).estimate(data))
    scores, jacobian = score.evaluate(score.theta_hat, jacobian=True)
    assert np.max(np.abs(scores.mean(axis=0))) <= 1e-9
    oracle = numerical_jacobian(lambda t: score.per_individual(t).mean(axis=0), score.theta_hat)
    assert np.max(np.abs(jacobian - oracle)) <= 1e-8 * np.max(np.abs(oracle))


def test_stacked_score_mean_vanishes_at_the_truth():
    """Criterion 7's check at K=3: at the true contrasts and assignment
    coefficients, every block of the stacked score has a mean within four
    standard errors of zero.  The treatment-free coefficients have no closed
    form, so they are the least-squares projection at the truth, where their
    own blocks vanish; those blocks are linear in them, so one Newton step
    from the fit reaches it.  Regret-form data (``in_regret_form``) and the
    as-treated plan, whose assignment models are the true propensities,
    make ``TRUE_PSI`` the truth at every stage; on the package's other plans
    the corrected contrasts read ``EA[j-1]`` where the truth reads ``A[j-1]``.
    """
    n = 100_000
    data = in_regret_form(generate_three_stage(n, np.random.default_rng(1)))
    score = StackedScore(data, as_treated_plan().estimate(data))
    theta = score.theta_hat.copy()
    for j in range(1, STAGES + 1):
        theta[score.slices[(j, "contrast")]] = TRUE_PSI[j - 1]
        theta[score.slices[(j, "assignment")]] = ADHERENCE_COEF
    index = np.arange(score.size)
    beta = np.concatenate([index[score.slices[(j, "treatment_free")]]
                           for j in range(1, STAGES + 1)])
    scores, jacobian = score.evaluate(theta, jacobian=True)
    theta[beta] -= np.linalg.solve(jacobian[np.ix_(beta, beta)], scores.mean(axis=0)[beta])
    scores = score.evaluate(theta)[0]
    mean = scores.mean(axis=0)
    assert np.max(np.abs(mean[beta])) <= 1e-12
    band = 4.0 * scores.std(axis=0) / np.sqrt(n)
    assert np.max(np.abs(mean) / band) <= 1.0  # 0.44 at this seed


def test_wald_coverage():
    """The sandwich's 95% intervals cover ``TRUE_PSI`` on regret-form data
    with the as-treated plan: 200 replicates at n=1000, replicate r seeded
    by ``[8, r]``; coverage read 0.92 to 0.97 per parameter."""
    plan, truth = as_treated_plan(), np.concatenate(TRUE_PSI)
    hits = []
    for r in range(200):
        data = in_regret_form(generate_three_stage(1000, np.random.default_rng([8, r])))
        intervals = regime_wald_intervals(data, plan.estimate(data), 0.95)
        hits.append((intervals.lower <= truth) & (truth <= intervals.upper))
    coverage = np.mean(hits, axis=0)
    assert np.all((0.9 <= coverage) & (coverage <= 0.99)), coverage


def first_stages(data, stages):
    """``data``'s first ``stages`` stages, with an outcome of zero, which no
    rule reads."""
    kept = range(1, stages + 1)
    return Dataset(
        stage_covariates=[{"X": data.covariate("X", j)} for j in kept],
        proxy=[data.proxy(j) for j in kept],
        proxy_kind=data.proxy_kind,
        actual=[data.actual(j) for j in kept],
        validation=data.validation[:, :stages],
        outcome=np.zeros(data.n),
    )


@EACH_PLAN
def test_partial_histories_give_the_first_columns(case):
    data = generate_three_stage(500, np.random.default_rng(6))
    fit = plan_of(case).estimate(data)
    rules = recommend(fit, data)
    assert rules.shape == (500, STAGES)
    assert 0 < rules.mean() < 1
    for stages in (1, 2):
        np.testing.assert_array_equal(recommend(fit, first_stages(data, stages)),
                                      rules[:, :stages])
