"""Jacobians, sandwich covariance, Wald intervals, and the bootstrap engine."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dtr_adhere import gest, inference, simulation
from dtr_adhere.glm import NonConvergenceError, expit, fit_logistic
from dtr_adhere.inference import (
    BootstrapError,
    SandwichError,
    bootstrap,
    numerical_jacobian,
    regime_sandwich,
    regime_wald_intervals,
    sandwich,
    wald_intervals,
)
from dtr_adhere.gest import (ESTIMATION_FAILURES, AdherenceSource, EstimationError,
                             EstimationPlan, PASS_MEMBERS, SingularSystemError, StackedScore,
                             groups, passes, psi_flat, sensitivity_sweep, tally)
from dtr_adhere.model import parse_feature_spec
from dtr_adhere.simulation import (ScenarioConfig, generate_s1, generate_s3, generate_s4,
                                   run_replications, scenario_plan)

from row_copy import copy_rows


class TestNumericalJacobian:
    def test_linear_map(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 3))
        jac = numerical_jacobian(lambda t: a @ t, np.array([0.3, -1.2, 2.0]))
        np.testing.assert_allclose(jac, a, atol=1e-8)

    def test_quadratic_map(self):
        jac = numerical_jacobian(lambda t: np.array([t[0] ** 2, t[0] * t[1]]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(jac, [[2.0, 0.0], [2.0, 1.0]], atol=1e-6)

    def test_step_halving_consistency_on_stacked_score(self, monkeypatch):
        rng = np.random.default_rng(31)
        data = generate_s1(50, 0.0, rng, validation_fraction=0.5)
        plan = scenario_plan("s1", "modified-fitted")
        fit = plan.estimate(data)
        score = StackedScore(data, fit)
        monkeypatch.setattr(inference, "JACOBIAN_STEP", 1e-6)
        def mean(t):
            return score.per_individual(t).mean(axis=0)

        coarse = numerical_jacobian(mean, score.theta_hat)
        monkeypatch.setattr(inference, "JACOBIAN_STEP", 1e-7)
        fine = numerical_jacobian(mean, score.theta_hat)
        scale = np.linalg.norm(fine)
        assert np.linalg.norm(coarse - fine) / scale < 1e-4

    def test_nonfinite_rejected(self):
        with pytest.raises(Exception, match="finite"):
            numerical_jacobian(lambda t: np.array([np.inf]), np.array([0.0]))


class TestSandwich:
    def test_sample_mean_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(3.0, 2.0, 400)

        def score(theta):
            return (x - theta[0])[:, None]

        theta = np.array([x.mean()])
        result = sandwich(score(theta), numerical_jacobian(lambda t: score(t).mean(axis=0), theta))
        assert result.sigma_theta[0, 0] == pytest.approx(np.var(x) / x.size, abs=1e-10)

    def test_logistic_stack_matches_inverse_information(self):
        rng = np.random.default_rng(13)
        n = 5000
        design = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.binomial(1, expit(design @ np.array([0.4, -0.8]))).astype(float)
        fit = fit_logistic(design, y)

        def score(theta):
            mu = expit(design @ theta)
            return design * (y - mu)[:, None]

        theta = fit.coefficients
        result = sandwich(score(theta), numerical_jacobian(lambda t: score(t).mean(axis=0), theta))
        mu = expit(design @ fit.coefficients)
        info = (design * (mu * (1 - mu))[:, None]).T @ design
        model_based = np.linalg.inv(info)
        ratio = np.diag(result.sigma_theta) / np.diag(model_based)
        assert np.all(np.abs(ratio - 1.0) < 0.15)

    def test_regime_sandwich_psd_and_symmetric(self):
        rng = np.random.default_rng(14)
        data = generate_s1(800, 1.0, rng)
        plan = scenario_plan("s1", "modified-fitted")
        fit = plan.estimate(data)
        result = regime_sandwich(data, fit)
        sym_err = np.max(np.abs(result.sigma_theta - result.sigma_theta.T))
        assert sym_err <= 1e-8 * max(1.0, np.max(np.abs(result.sigma_theta)))
        eigs = np.linalg.eigvalsh(result.sigma_theta)
        assert eigs.min() >= -1e-8 * np.trace(result.sigma_theta)
        assert result.sigma_psi.shape == (5, 5)
        assert np.all(np.diag(result.sigma_psi) >= 0)

    def test_one_stage_system_pass_and_no_numerical_jacobian(self, monkeypatch):
        data = generate_s1(300, 1.0, np.random.default_rng(15))
        fitted = scenario_plan("s1", "modified-fitted").estimate(data)
        # external coefficients with a covariance add their blocks to theta
        # instead of refitting the regime
        external = _external_plan(fitted, (0, 1)).estimate(data)
        calls = []

        def counting(name, original):
            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(StackedScore, "evaluate", counting("pass", StackedScore.evaluate))
        monkeypatch.setattr(StackedScore, "per_individual",
                            counting("per_individual", StackedScore.per_individual))
        monkeypatch.setattr(EstimationPlan, "estimate", counting("estimate", EstimationPlan.estimate))
        monkeypatch.setattr(inference, "numerical_jacobian",
                            counting("numerical_jacobian", inference.numerical_jacobian))
        for fit in (fitted, external):
            calls.clear()
            regime_sandwich(data, fit)
            assert calls.count("pass") == 1
            assert calls.count("per_individual") <= 1
            assert "numerical_jacobian" not in calls and "estimate" not in calls

    def test_truncated_directions_counts_what_the_bread_drops(self):
        rng = np.random.default_rng(16)
        scores = rng.normal(size=(200, 3))
        jacobian = np.diag([2.0, 1.0, 1.0])
        assert sandwich(scores, jacobian).truncated_directions == 0
        jacobian[2, 2] = 1e-13  # below 1e-12 of the largest singular value
        result = sandwich(scores, jacobian)
        assert result.truncated_directions == 1
        assert result.bread_condition == pytest.approx(2e13)
        assert np.all(result.bread[2] == 0.0)

    def test_exactly_singular_jacobian_is_named_singular(self):
        scores = np.random.default_rng(16).normal(size=(50, 2))
        with pytest.raises(SandwichError, match="^bread Jacobian is singular$"):
            sandwich(scores, np.diag([1.0, 0.0]))
        # a nearly singular one keeps its dead direction pinned, and its
        # condition number is np.linalg.cond's to the bit
        jacobian = np.diag([1.0, 1e-14])
        result = sandwich(scores, jacobian)
        assert result.truncated_directions == 1
        assert result.bread_condition == np.linalg.cond(jacobian)

    def test_variance_shrinks_linearly(self):
        plan = scenario_plan("s1", "modified-fitted")
        diags = {}
        for n in (1000, 2000):
            acc = []
            for seed in range(4):
                rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(n, seed)))
                data = generate_s1(n, 0.0, rng)
                fit = plan.estimate(data)
                acc.append(np.diag(regime_sandwich(data, fit).sigma_psi))
            diags[n] = np.mean(acc, axis=0)
        ratio = diags[1000] / diags[2000]
        assert np.all(np.abs(ratio - 2.0) < 0.4)  # halving within 20%


def _external_plan(fit, stages):
    """``fit``'s plan with its fitted adherence coefficients supplied as
    external ones, carrying a covariance at ``stages`` (0-based)."""
    alpha = [nuis["alpha"] for nuis in fit.nuisance]
    covariance = [np.diag(np.full(a.size, 0.05)) + 0.01 if j in stages else None
                  for j, a in enumerate(alpha)]
    return replace(fit.plan,
                   adherence=AdherenceSource.known(coefficients=alpha, covariance=covariance))


class TestExternalAdherenceCovariance:
    @staticmethod
    def refit_delta_method(data, plan):
        """The covariance term by re-estimation: G Sigma_alpha G^T with G the
        central-difference derivative of the contrast estimates over the
        external coefficients of every stage with a covariance."""
        source = plan.adherence
        stages = [j for j, cov in enumerate(source.covariance) if cov is not None]
        sizes = [source.coefficients[j].size for j in stages]

        def psi_at(alpha):
            coefficients = list(source.coefficients)
            for j, part in zip(stages, np.split(alpha, np.cumsum(sizes)[:-1])):
                coefficients[j] = part
            supplied = AdherenceSource.known(coefficients=coefficients)
            return psi_flat(replace(plan, adherence=supplied).estimate(data))

        alpha = np.concatenate([source.coefficients[j] for j in stages])
        columns = []
        for k in range(alpha.size):
            h = 1e-5 * max(1.0, abs(alpha[k]))
            step = np.zeros(alpha.size)
            step[k] = h
            columns.append((psi_at(alpha + step) - psi_at(alpha - step)) / (2.0 * h))
        g = np.column_stack(columns)
        sigma_alpha = np.zeros((alpha.size, alpha.size))
        at = 0
        for j, size in zip(stages, sizes):
            sigma_alpha[at : at + size, at : at + size] = source.covariance[j]
            at += size
        return g @ sigma_alpha @ g.T

    @pytest.mark.parametrize("stages", [(0, 1), (1,)], ids=["both-stages", "stage-2"])
    def test_matches_refit_delta_method(self, stages):
        data = generate_s1(1000, 1.0, np.random.default_rng(43))
        fitted = scenario_plan("s1", "modified-fitted").estimate(data)
        plan = _external_plan(fitted, stages)
        fit = plan.estimate(data)
        bare = replace(plan,
                       adherence=AdherenceSource.known(coefficients=plan.adherence.coefficients))
        base = regime_sandwich(data, bare.estimate(data)).sigma_psi
        expected = base + self.refit_delta_method(data, plan)
        sigma_psi = regime_sandwich(data, fit).sigma_psi
        assert not np.allclose(sigma_psi, base)
        np.testing.assert_allclose(sigma_psi, expected, rtol=0,
                                   atol=1e-6 * np.max(np.abs(expected)))

    def test_no_refits(self, monkeypatch):
        data = generate_s1(400, 1.0, np.random.default_rng(44))
        fitted = scenario_plan("s1", "modified-fitted").estimate(data)
        fit = _external_plan(fitted, (0, 1)).estimate(data)
        calls = []
        original = EstimationPlan.estimate

        def counted(self, data):
            calls.append(1)
            return original(self, data)

        monkeypatch.setattr(EstimationPlan, "estimate", counted)
        regime_sandwich(data, fit)
        assert calls == []

    def test_sigma_psi_is_the_contrast_block_of_sigma_theta(self):
        data = generate_s1(400, 1.0, np.random.default_rng(45))
        fitted = scenario_plan("s1", "modified-fitted").estimate(data)
        fit = _external_plan(fitted, (0, 1)).estimate(data)
        result = regime_sandwich(data, fit)
        psi = StackedScore(data, fit).psi_index
        np.testing.assert_array_equal(result.sigma_psi, result.sigma_theta[np.ix_(psi, psi)])

    def test_supplied_covariance_inflates_contrast_variance(self):
        from dtr_adhere.gest import AdherenceSource, EstimationPlan
        from dtr_adhere.simulation import scenario_models

        rng = np.random.default_rng(41)
        data = generate_s1(1500, 0.0, rng)
        coef = (np.array([-4.6, -0.83, 7.5]), np.array([-4.6, -0.83, 7.5]))
        specs = tuple(scenario_models("s1"))
        bare = EstimationPlan(specs=specs, mode="modified-prescribed",
                              adherence=AdherenceSource.known(coefficients=coef))
        cov = tuple(np.diag([0.2, 0.05, 0.4]) for _ in range(2))
        inflated = EstimationPlan(
            specs=specs, mode="modified-prescribed",
            adherence=AdherenceSource.known(coefficients=coef, covariance=cov))
        fit = bare.estimate(data)
        base = regime_sandwich(data, fit)
        adjusted = regime_sandwich(data, inflated.estimate(data))
        base_d = np.diag(base.sigma_psi)
        adj_d = np.diag(adjusted.sigma_psi)
        assert np.all(adj_d >= base_d - 1e-12)
        assert adj_d.sum() > base_d.sum()

    def test_malformed_covariance_rejected(self):
        from dtr_adhere.gest import AdherenceSource

        coef = ([-4.6, -0.83, 7.5], [-4.6, -0.83, 7.5])
        good = np.diag([0.2, 0.05, 0.4])
        # rounding-level negative eigenvalues are accepted
        AdherenceSource.known(coefficients=coef,
                              covariance=(good, np.diag([1.0, -1e-14, 1.0])))
        for covariance, message in [
            ((good, good, good), "3 adherence covariance entries for 2 coefficient vectors"),
            ((np.eye(2), None), "stage 1 must be a finite, symmetric 3x3 matrix"),
            ((None, np.triu(np.ones((3, 3)))), "stage 2 must be a finite, symmetric"),
            ((np.diag([1.0, np.nan, 1.0]), None), "stage 1 must be a finite, symmetric"),
            ((None, np.diag([1.0, -1e-3, 1.0])), "stage 2 is not positive semidefinite"),
        ]:
            with pytest.raises(ValueError, match=message):
                AdherenceSource.known(coefficients=coef, covariance=covariance)

    def test_covariance_only_with_coefficients(self):
        # a covariance describes fixed coefficients; on a fitted source or a
        # probability function it would be silently ignored
        coef = (np.array([-4.6, -0.83, 7.5]),) * 2
        covariance = (np.diag([0.2, 0.05, 0.4]), None)
        message = "^only adherence coefficients take a covariance$"
        with pytest.raises(ValueError, match=message):
            AdherenceSource("fitted", covariance=covariance)
        with pytest.raises(ValueError, match=message):
            AdherenceSource.known(probability=lambda j, cov, proxy: proxy, covariance=covariance)
        source = AdherenceSource("known", coefficients=coef, covariance=covariance)
        assert source.covariance is covariance
        with pytest.raises(ValueError, match="^unknown adherence source kind 'external'$"):
            AdherenceSource("external", coefficients=coef, covariance=covariance)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        coef = [[-4.6, -0.83, 7.5], [-4.6, bad, 7.5]]
        with pytest.raises(ValueError, match="^adherence coefficients must be finite$"):
            AdherenceSource.known(coefficients=coef)
        with pytest.raises(ValueError, match="^adherence coefficients must be finite$"):
            AdherenceSource.known(coefficients=coef, covariance=(None, np.eye(3)))


class TestWaldIntervals:
    def test_quantile_value(self):
        iv = wald_intervals(np.array([1.0]), np.array([[0.25]]), 0.95)
        assert iv.lower[0] == pytest.approx(0.020, abs=5e-4)
        assert iv.upper[0] == pytest.approx(1.980, abs=5e-4)

    def test_zero_variance_degenerates(self):
        iv = wald_intervals(np.array([2.5]), np.array([[0.0]]), 0.95)
        assert iv.lower[0] == iv.estimate[0] == iv.upper[0] == 2.5

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            wald_intervals(np.array([0.0]), np.array([[-1.0]]), 0.95)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(4)
        est = rng.normal(size=6)
        sig = np.diag(rng.uniform(0.1, 2.0, 6))
        iv = wald_intervals(est, sig, 0.9)
        assert np.all(iv.lower <= iv.estimate)
        assert np.all(iv.estimate <= iv.upper)

    @pytest.mark.parametrize("n, seed, digits, written", [
        (800, 77, 3, 1.53e12),  # near singular: cond * eps = 3.4e-4
        (1000, 1, 12, 4370.70566938),  # cond * eps = 9.7e-13
    ])
    def test_bread_condition_keeps_the_digits_rounding_leaves(self, n, seed, digits, written):
        data = generate_s3(n, np.random.default_rng(seed), validation_fraction=0.3)
        fit = scenario_plan("s3", "modified-fitted").estimate(data)
        exact = regime_sandwich(data, fit).bread_condition
        assert regime_wald_intervals(data, fit).diagnostics["bread_condition"] == written
        assert exact != written  # the sandwich's own value keeps every digit
        assert abs(exact - written) <= 0.5 * 10.0 ** (1 - digits) * written


def _resample_mean(data, counts):
    return np.array([np.repeat(data.outcome, counts.astype(int)).mean()])


def _mean_outcome(data, weights):
    """The mean outcome of each replicate's resample, as estimator pairs."""
    return [(_resample_mean(data, w), None) for w in weights]


class TestBootstrap:
    def test_seed_determinism(self):
        rng = np.random.default_rng(21)
        data = generate_s1(120, 0.0, rng)
        one = bootstrap(data, _mean_outcome, 50, level=0.9, seed=7)
        two = bootstrap(data, _mean_outcome, 50, level=0.9, seed=7)
        np.testing.assert_array_equal(one.lower, two.lower)
        np.testing.assert_array_equal(one.upper, two.upper)

    def test_jobs_do_not_change_results(self):
        rng = np.random.default_rng(22)
        data = generate_s1(80, 0.0, rng)
        serial = bootstrap(data, _mean_outcome, 24, level=0.9, seed=5, jobs=1)
        parallel = bootstrap(data, _mean_outcome, 24, level=0.9, seed=5, jobs=2)
        np.testing.assert_array_equal(serial.lower, parallel.lower)
        np.testing.assert_array_equal(serial.upper, parallel.upper)

    def test_degenerate_dataset_gives_zero_width(self):
        rng = np.random.default_rng(23)
        base = generate_s1(40, 0.0, rng)
        data = copy_rows(base, np.zeros(40, dtype=int))  # forty copies of one row
        iv = bootstrap(data, _mean_outcome, 30, level=0.95, seed=3)
        assert iv.lower[0] == iv.estimate[0] == iv.upper[0]

    def test_midpoint_is_point_estimate(self):
        rng = np.random.default_rng(24)
        data = generate_s1(150, 0.0, rng)
        iv = bootstrap(data, _mean_outcome, 60, level=0.95, seed=11)
        assert iv.estimate[0] == pytest.approx(data.outcome.mean())
        assert iv.lower[0] <= iv.estimate[0] <= iv.upper[0]

    def test_failure_threshold(self):
        rng = np.random.default_rng(25)
        data = generate_s1(50, 0.0, rng)
        calls = {"n": 0}

        def flaky(d, weights):
            pairs = []
            for w in weights:
                calls["n"] += 1
                if calls["n"] % 3 == 0:
                    pairs.append((None, NonConvergenceError("boom")))
                else:
                    pairs.append((_resample_mean(d, w), None))
            return pairs

        with pytest.raises(BootstrapError):
            bootstrap(data, flaky, 30, seed=1)

    def test_failures_counted_by_class_and_stage(self):
        data = generate_s1(60, 0.0, np.random.default_rng(29))
        planted = {7: EstimationError("singular", stage=2), 19: NonConvergenceError("boom"),
                   23: EstimationError("singular", stage=1), 51: NonConvergenceError("boom")}

        def estimator(d, weights):
            pairs = _mean_outcome(d, weights)
            if len(weights) == 1:  # the point estimate
                return pairs
            start = estimator.seen
            estimator.seen += len(weights)
            return [(None, planted[start + k]) if start + k in planted else pair
                    for k, pair in enumerate(pairs)]

        estimator.seen = 0
        iv = bootstrap(data, estimator, 100, seed=2)
        assert iv.n_failed == 4
        assert iv.diagnostics["failures"] == [
            {"class": "EstimationError", "stage": 1, "count": 1},
            {"class": "EstimationError", "stage": 2, "count": 1},
            {"class": "NonConvergenceError", "stage": None, "count": 2},
        ]

    def test_regime_estimator_end_to_end(self):
        rng = np.random.default_rng(26)
        data = generate_s1(400, 0.0, rng)
        plan = scenario_plan("s1", "modified-fitted")
        fit = plan.estimate(data)
        names = [f"psi{j}.{label}" for j, label in fit.parameter_labels()]
        iv = bootstrap(data, plan.psi_estimator, 60, level=0.95, seed=17,
                       names=names, point_estimates=psi_flat(fit))
        assert iv.names[0] == "psi1.1"
        assert np.all(iv.lower <= iv.estimate) and np.all(iv.estimate <= iv.upper)
        assert iv.n_failed <= 3


class TestPassRule:
    """``simulate`` and the bootstrap cut a run into batched passes by one
    rule: at most 20 members a pass, and at most 100 000 rows a pass once n
    is above 5000.  The bootstrap first cuts its resamples into groups of at
    most 100 000 rows, whose adherence models share one Newton loop per
    stage, and each group into those passes.  Every cut is ``gest.cut``'s
    (test_gest.py's ``TestCut`` checks its shapes)."""

    MEMBERS = {300: 20, 1000: 20, 2500: 20, 5000: 20, 20000: 5, 50000: 2}
    GROUP = {300: 333, 1000: 100, 2500: 40, 5000: 20, 20000: 5, 50000: 2}

    @staticmethod
    def cut(total, size):
        return [len(piece) for piece in gest.cut(total, size)]

    @pytest.mark.parametrize("n", sorted(MEMBERS))
    def test_members_per_pass_are_the_same_for_both_callers(self, n, monkeypatch):
        """Each caller asks ``gest.cut`` for pieces of its own budget, and the
        pieces it gets are the ones its batches hold.  The budgets are pinned
        through the spy: a total of 45 cuts alike under several budgets."""
        class Cut(Exception):
            pass

        seen, asked = {}, []
        cut = gest.cut

        def cut_spy(total, size):
            asked.append((total, size))
            return cut(total, size)

        def recording(caller):
            def ordered_map(fn, items, jobs):
                seen[caller] = [len(block) for block in items]
                raise Cut  # the cut is all this needs
            return ordered_map

        def fit_pass(system, alphas, weights, *args):
            seen["passes"].append(len(weights))
            return [(None, None)] * len(weights)

        data = generate_s1(n, 0.0, np.random.default_rng(n))
        monkeypatch.setattr(gest, "cut", cut_spy)
        monkeypatch.setattr(simulation, "ordered_map", recording("simulate"))
        monkeypatch.setattr(inference, "ordered_map", recording("bootstrap"))
        with pytest.raises(Cut):
            run_replications(ScenarioConfig(scenario="s1", n=n, replications=45, seed=1))
        assert asked == [(45, self.MEMBERS[n])]
        asked.clear()
        with pytest.raises(Cut):
            bootstrap(data, _mean_outcome, 45, point_estimates=[0.0])
        assert asked == [(45, self.GROUP[n])]
        asked.clear()
        # the passes the bootstrap's estimator makes of its first group
        seen["passes"] = []
        monkeypatch.setattr(gest, "_fit_pass", fit_pass)
        scenario_plan("s1", "modified-fitted").psi_estimator(
            data, np.ones((seen["bootstrap"][0], n)))
        assert asked == [(seen["bootstrap"][0], self.MEMBERS[n])]
        assert seen["simulate"] == self.cut(45, self.MEMBERS[n])
        assert seen["bootstrap"] == self.cut(45, self.GROUP[n])
        assert seen["passes"] == self.cut(seen["bootstrap"][0], self.MEMBERS[n])

    def test_one_adherence_fit_per_stage_and_group(self, monkeypatch):
        """A B=100, n=1000 bootstrap is one group: each stage's adherence
        models are one batched fit, after the point fit's one per stage, and
        each of the group's five passes evaluates its own members'
        adherence probabilities, once per stage."""
        data = generate_s1(1000, 1.0, np.random.default_rng(6), validation_fraction=0.3)
        calls = []
        evaluations = _adherence_evaluations(monkeypatch)
        fit = gest._fit_validation_rows

        def spy(data, stage, design, weights, active):
            calls.append((stage, len(weights)))
            return fit(data, stage, design, weights, active)

        monkeypatch.setattr(gest, "_fit_validation_rows", spy)
        iv = bootstrap(data, scenario_plan("s1", "modified-fitted").psi_estimator, 100, seed=4)
        assert len(passes(100, data.n)) == 5
        assert calls == [(1, 1), (2, 1), (1, 100), (2, 100)]
        # the point fit's, then each pass's: each member once per stage
        assert evaluations == [(1, 1), (2, 1)] + [(1, 20), (2, 20)] * 5
        assert iv.n_failed == 0

    @pytest.mark.parametrize("members", [1, 20, 21, 100])
    def test_each_pass_evaluates_its_own_probabilities(self, members, monkeypatch):
        """At n=300 a pass holds at most 20 members.  Whether the call is
        one pass or several, it leaves each stage's adherence probabilities
        to its passes and holds the compiled designs."""
        data = generate_s1(300, 1.0, np.random.default_rng(6), validation_fraction=0.3)
        seen, fit_pass = [], gest._fit_pass

        def spy(system, alphas, weights, members_, assignment_fits, pi, pending):
            seen.append((sorted(pending), sorted(pi)))
            return fit_pass(system, alphas, weights, members_, assignment_fits, pi, pending)

        monkeypatch.setattr(gest, "_fit_pass", spy)
        scenario_plan("s1", "modified-fitted").psi_estimator(data, np.ones((members, data.n)))
        assert seen == [([1, 2], [])] * len(passes(members, data.n))

    def test_group_memory(self):
        """An n=1000, B=100 bootstrap is one group of five passes.  Its traced
        peak above the point fit measured 3.47 MB; a group that held its
        members' (b, n) adherence probabilities through the passes peaked at
        4.71 MB."""
        data = generate_s1(1000, 1.0, np.random.default_rng(6), validation_fraction=0.3)
        estimator = scenario_plan("s1", "modified-fitted").psi_estimator
        ((point, error),) = estimator(data, np.ones((1, data.n)))
        assert error is None
        tracemalloc.start()
        try:
            iv = bootstrap(data, estimator, 100, seed=3, point_estimates=point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iv.n_failed == 0
        assert peak < 4.1e6

    def test_large_n_bootstrap_memory(self):
        """At n=20000 a pass holds five resamples.  The traced peak of a
        40-resample s1 bootstrap measured 12.7 MB; with 20-resample passes it
        was 46.3 MB."""
        data = generate_s1(20000, 1.0, np.random.default_rng(5), validation_fraction=0.3)
        estimator = scenario_plan("s1", "modified-fitted").psi_estimator
        ((point, error),) = estimator(data, np.ones((1, data.n)))
        assert error is None
        tracemalloc.start()
        try:
            iv = bootstrap(data, estimator, 40, seed=3, point_estimates=point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iv.n_failed == 0
        assert peak < 20e6


def _resamples(n, seed, count):
    """The bootstrap's row draws for replicates 0..count-1 of ``seed``."""
    return [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
            .integers(0, n, size=n) for r in range(count)]


def _adherence_evaluations(monkeypatch) -> list:
    """``(stage, members)`` for each evaluation of adherence probabilities
    from now on: a ``gest.linear`` call whose coefficients are rows of one
    stage's batched adherence fit."""
    fits, evaluations = [], []
    fit, linear = gest._fit_validation_rows, gest.linear

    def fit_spy(data, stage, design, weights, active):
        out = fit(data, stage, design, weights, active)
        fits.append((stage, out.coefficients))
        return out

    def linear_spy(x, coef):
        evaluations.extend((stage, len(coef)) for stage, alpha in fits
                           if np.shares_memory(coef, alpha))
        return linear(x, coef)

    monkeypatch.setattr(gest, "_fit_validation_rows", fit_spy)
    monkeypatch.setattr(gest, "linear", linear_spy)
    return evaluations


def _digits_masked(message):
    return re.sub(r"[0-9][0-9.e+-]*", "#", message)


def _uncached_compiles(monkeypatch) -> list:
    """The key of every design a stage system compiles from now on, which
    no dict handed to it had kept, with the dataset's identity first."""
    keys = []
    compile_ = gest.compile_design

    def spy(spec, data, stage, mode, *, treatment_override=None):
        keys.append((id(data), spec, stage, mode, None if treatment_override is None
                     else tuple(sorted(treatment_override.items()))))
        return compile_(spec, data, stage, mode, treatment_override=treatment_override)

    monkeypatch.setattr(gest, "compile_design", spy)
    return keys


def _blocks_of(monkeypatch, data, fit, rows):
    """Make a sandwich of ``fit`` on ``data`` use row blocks of at most
    ``rows`` rows; returns the blocks."""
    size = StackedScore(data, fit).size
    monkeypatch.setattr(inference, "SANDWICH_DOUBLES", rows * size)
    return gest.cut(data.n, inference.SANDWICH_DOUBLES // size)


class TestRowBlocks:
    """A sandwich sums its meat and its Jacobian over row blocks of the
    dataset, windows that compile their own designs, and holds one block's
    scores at a time.  With blocks of at most 97 rows, n=1000 is eleven
    blocks of 90 or 91 rows, and the result matches the sandwich of one
    block to rounding."""

    # name -> (the n=1000 dataset from a generator, the plan for it)
    PLANS = {
        "s3-fitted": (lambda rng: generate_s3(1000, rng, validation_fraction=0.3),
                      lambda data: scenario_plan("s3", "modified-fitted")),
        "s1-external": (lambda rng: generate_s1(1000, 1.0, rng, validation_fraction=0.3),
                        lambda data: _external_plan(
                            scenario_plan("s1", "modified-fitted").estimate(data), (0, 1))),
        "s1-fitted-exact": (lambda rng: generate_s1(1000, 1.0, rng, validation_fraction=0.3),
                            lambda data: scenario_plan("s1", "modified-fitted",
                                                       exact_pseudo_outcomes=True)),
        "s4-known": (lambda rng: generate_s4(1000, 1.0, rng, validation_fraction=0.3),
                     lambda data: scenario_plan("s4", "modified-known")),  # a probability function
    }

    @classmethod
    def fitted(cls, name):
        """The dataset of plan ``name`` and that plan's fit on it."""
        generate, plan = cls.PLANS[name]
        data = generate(np.random.default_rng(44))
        return data, plan(data).estimate(data)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_blocks_match_one_block(self, name, monkeypatch):
        data, fit = self.fitted(name)
        whole = regime_sandwich(data, fit)
        whole_wald = regime_wald_intervals(data, fit)
        blocks = _blocks_of(monkeypatch, data, fit, 97)
        assert len(blocks) == 11
        assert {len(block) for block in blocks} == {90, 91}
        blocked = regime_sandwich(data, fit)
        blocked_wald = regime_wald_intervals(data, fit)
        # every entry within 1e-12 of the scale its variances set
        scale = np.sqrt(np.outer(np.diag(whole.sigma_theta), np.diag(whole.sigma_theta)))
        assert np.max(np.abs(blocked.sigma_theta - whole.sigma_theta) / scale) < 1e-12
        psi = StackedScore(data, fit).psi_index
        np.testing.assert_array_equal(blocked.sigma_psi, blocked.sigma_theta[np.ix_(psi, psi)])
        np.testing.assert_allclose(blocked_wald.lower, whole_wald.lower, rtol=1e-12)
        np.testing.assert_allclose(blocked_wald.upper, whole_wald.upper, rtol=1e-12)
        # the condition number to the digits rounding leaves it (s3's is
        # about 1.4e12 at this seed, so only its first three are written)
        cond = whole.bread_condition
        assert blocked.bread_condition == pytest.approx(cond, rel=cond * np.finfo(float).eps)
        assert blocked.truncated_directions == whole.truncated_directions
        assert blocked_wald.diagnostics == whole_wald.diagnostics

    @pytest.mark.parametrize("rows", [None, 97], ids=["one-block", "blocks"])
    def test_non_finite_scores_in_one_block(self, rows, monkeypatch):
        """A non-finite score in the fourth block only fails the sandwich
        with the text a non-finite score of one block gives."""
        data, fit = self.fitted("s3-fitted")
        if rows is not None:
            _blocks_of(monkeypatch, data, fit, rows)
        evaluate, calls = StackedScore.evaluate, []

        def spy(self, theta, **kwargs):
            scores, jacobian = evaluate(self, theta, **kwargs)
            calls.append(self.data.n)
            if len(calls) == (1 if rows is None else 4):
                scores[-1, 0] = np.nan
            return scores, jacobian

        monkeypatch.setattr(StackedScore, "evaluate", spy)
        with pytest.raises(SandwichError) as error:
            regime_sandwich(data, fit)
        assert str(error.value) == "per-individual scores are not finite at theta_hat"
        assert calls == ([1000] if rows is None else [90, 91, 91, 91])

    def test_block_grams_whose_sum_leaves_the_double_range(self, monkeypatch):
        """Each block's gram is finite (a score of 1e154 in its first row),
        but the sum of the eleven is not: the sandwich fails on its
        covariance, with no RuntimeWarning on the way."""
        data, fit = self.fitted("s3-fitted")
        _blocks_of(monkeypatch, data, fit, 97)
        evaluate = StackedScore.evaluate

        def spy(self, theta, **kwargs):
            scores, jacobian = evaluate(self, theta, **kwargs)
            scores[0, 0] = 1e154
            return scores, jacobian

        monkeypatch.setattr(StackedScore, "evaluate", spy)
        with pytest.raises(SandwichError) as error:
            regime_sandwich(data, fit)
        assert str(error.value) == "sandwich covariance is not finite"

    def test_memory_is_one_block(self):
        """At n=50000 (P=20, five blocks of 10 000 rows) the sandwich's
        traced peak measured 5.8 MB; the whole (n, P) pass peaked at 28.8 MB."""
        data = generate_s3(50000, np.random.default_rng(45), validation_fraction=0.2)
        fit = scenario_plan("s3", "modified-fitted").estimate(data)
        blocks = gest.cut(data.n, inference.SANDWICH_DOUBLES // StackedScore(data, fit).size)
        assert len(blocks) == 5
        tracemalloc.start()
        try:
            regime_sandwich(data, fit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestDesignsCompiledOnce:
    """A score evaluation and a sensitivity sweep keep the designs they
    compile, so each compiles a design once, with the same results as
    designs compiled afresh; a fit keeps none."""

    @pytest.mark.parametrize("seed, bound", [(45, 10e6), (46, 7.2e6)],
                             ids=["no-design-kept", "no-finished-form-kept"])
    def test_fit_memory(self, seed, bound):
        """At n=50000 the s3 fit's traced peak above its dataset measured
        6.8 MB.  It stays below 10e6 bytes, which a fit that kept every
        design through the stage solves exceeds (13.6 MB), and below 7.2e6,
        which a fit that held each stage's compiled contrast through its
        solve and weighted its rows by a (1, n) array of ones exceeds
        (8.4 MB)."""
        data = generate_s3(50000, np.random.default_rng(seed), validation_fraction=0.2)
        plan = scenario_plan("s3", "modified-fitted")
        tracemalloc.start()
        try:
            plan.estimate(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_one_evaluation(self, monkeypatch):
        """Its Jacobian section asks again for the designs its pass
        compiled; a second evaluation compiles them anew."""
        data = generate_s3(1000, np.random.default_rng(41), validation_fraction=0.3)
        score = StackedScore(data, scenario_plan("s3", "modified-fitted").estimate(data))
        keys = _uncached_compiles(monkeypatch)
        score.evaluate(score.theta_hat, jacobian=True)
        once = list(keys)
        assert once and len(once) == len(set(once))
        score.evaluate(score.theta_hat, jacobian=True)
        assert keys == once + once

    def test_one_sweep(self, monkeypatch):
        """Every point refits the same rows, so the first compiles what all
        of them use."""
        data = generate_s1(400, 0.0, np.random.default_rng(26))
        plan = scenario_plan("s1", "modified-fitted")
        keys = _uncached_compiles(monkeypatch)
        sensitivity_sweep(data, plan, [np.array([-4.6, -0.83, 7.5])])
        one = list(keys)
        keys.clear()
        grid = [np.array([-4.6, -0.83, c]) for c in (6.5, 7.5, 8.5)]
        points = sensitivity_sweep(data, plan, grid)
        assert all(error is None for _, error in points)
        assert one and len(keys) == len(set(keys)) == len(one) and set(keys) == set(one)

    def test_psi_is_unchanged_by_a_sandwich(self):
        data = generate_s3(1000, np.random.default_rng(42), validation_fraction=0.3)
        plan = scenario_plan("s3", "modified-fitted")
        before = psi_flat(plan.estimate(data))
        regime_sandwich(data, plan.estimate(data))
        np.testing.assert_array_equal(psi_flat(plan.estimate(data)), before)
        # designs compiled afresh on a copy give the same bits
        np.testing.assert_array_equal(psi_flat(plan.estimate(copy_rows(data, np.arange(data.n)))),
                                      before)


class TestBatchedReplicatesMatchSubsetFits:
    """Each member of a batched pass is the fit of its resample: psi, and for
    a failing replicate the exception class, stage and message, as a fit of
    ``copy_rows(data, idx)`` gives them.  A stage system's failure messages are
    compared exactly, since a condition number whose digits are rounding
    noise prints as "numerically singular"; other numbers inside messages
    (a coefficient norm) are compared with their digits masked, as no two
    summation orders need print them alike."""

    @pytest.mark.parametrize("n", [30, 60, 120])
    @pytest.mark.parametrize("estimator", ["modified-fitted", "naive-proxy"])
    def test_members_match_per_replicate_fits(self, n, estimator):
        self.check(n, estimator, passes)

    @pytest.mark.parametrize("n", [30, 60, 120])
    @pytest.mark.parametrize("estimator", ["modified-fitted", "modified-known", "naive-proxy"])
    def test_group_members_match_per_replicate_fits(self, n, estimator):
        """All 61 resamples in one call: one adherence fit per stage, then
        four passes, each taking its rows of the members' adherence
        probabilities (``modified-fitted``) or the shared known ones."""
        self.check(n, estimator, groups)

    @pytest.mark.parametrize("scenario, estimator, exact", [
        ("s4", "modified-known", False),  # shared probabilities from a probability function
        ("s1", "modified-fitted", True),  # every pass reads its rows of the stage-1 ones
    ])
    def test_group_members_match_per_replicate_fits_at_n120(self, scenario, estimator, exact):
        self.check(120, estimator, groups, scenario=scenario, exact=exact)

    def test_group_members_match_when_an_adherence_design_reads_an_earlier_stage(
            self, monkeypatch):
        """Stage 2's adherence design reads EA[1], so the group evaluates the
        stage-1 probabilities of all 61 members before fitting stage 2, and
        each of its four passes takes its rows of them; the stage-2 ones
        each pass evaluates for its own members.  The one-member reference
        fits follow, but for the resample without a stage-1 validation row,
        whose fit fails before any evaluation."""
        specs = list(simulation.scenario_models("s1"))
        specs[1] = replace(specs[1], adherence=parse_feature_spec("1 + X[2] + Astar[2] + EA[1]"))
        plan = EstimationPlan(tuple(specs), "modified-prescribed", AdherenceSource.fitted())
        evaluations = _adherence_evaluations(monkeypatch)
        self.check(120, "modified-fitted", groups, plan=plan)
        sizes = [len(part) for part in passes(61, 120)]
        assert sizes == [15, 15, 15, 16]
        assert evaluations == ([(1, 61)] + [(2, size) for size in sizes]
                               + [(1, 1), (2, 1)] * 60)

    @staticmethod
    def check(n, estimator, cut, scenario="s1", exact=False, plan=None):
        """Hand the estimator the draws as ``cut`` cuts them and compare each
        member with the fit of its resample (by ``plan``, when given)."""
        generate = generate_s4 if scenario == "s4" else generate_s1
        data = generate(n, 1.0, np.random.default_rng(900 + n), validation_fraction=0.3)
        plan = plan or scenario_plan(scenario, estimator, exact_pseudo_outcomes=exact)
        draws = _resamples(n, 31, 60)
        # one resample that keeps no stage-1 validation row
        outside = np.flatnonzero(~data.validation[:, 0])
        draws.append(np.random.default_rng(1).choice(outside, size=n))
        counts = np.array([np.bincount(idx, minlength=n) for idx in draws], dtype=float)
        got = []
        for block in cut(len(draws), n):
            got += plan.psi_estimator(data, counts[block.start : block.stop])
        if cut is groups:
            assert len(block) == len(draws) > PASS_MEMBERS
        want = [tally(lambda d: psi_flat(plan.estimate(d)), copy_rows(data, idx)) for idx in draws]

        assert [err is None for _, err in got] == [err is None for _, err in want]
        for (psi, err), (ref_psi, ref_err) in zip(got, want):
            if ref_err is None:
                np.testing.assert_allclose(psi, ref_psi, rtol=0, atol=1e-8)
                continue
            assert type(err) is type(ref_err)
            assert getattr(err, "stage", None) == getattr(ref_err, "stage", None)
            if type(ref_err) in (SingularSystemError, EstimationError):
                assert str(err) == str(ref_err)
            else:
                assert _digits_masked(str(err)) == _digits_masked(str(ref_err))
        if plan.fits_adherence:
            assert str(got[-1][1]) == "no validation rows at stage 1"
        else:
            assert got[-1][1] is None


class TestProgrammingErrorsPropagate:
    """Only estimation failures are tallied; any other exception is a bug and
    escapes the bootstrap, replication and sweep loops."""

    @staticmethod
    def broken(*args, **kwargs):
        raise TypeError("a programming error")

    def test_bootstrap(self):
        data = generate_s1(50, 0.0, np.random.default_rng(27))
        with pytest.raises(TypeError, match="a programming error"):
            bootstrap(data, self.broken, 10, point_estimates=np.zeros(1))

    def test_run_replications(self, monkeypatch):
        monkeypatch.setattr(EstimationPlan, "fit_members", self.broken)
        config = ScenarioConfig(scenario="s1", n=100, replications=2, seed=0,
                                estimators=("naive-proxy",))
        with pytest.raises(TypeError, match="a programming error"):
            run_replications(config)

    def test_sensitivity_sweep(self, monkeypatch):
        data = generate_s1(100, 0.0, np.random.default_rng(28))
        plan = scenario_plan("s1", "modified-fitted")
        monkeypatch.setattr(gest, "_fit_stages", self.broken)
        with pytest.raises(TypeError, match="a programming error"):
            sensitivity_sweep(data, plan, [np.array([-4.6, -0.83, 7.5])])


class TestDualMethodCoverage:
    """Wald-sandwich and percentile-bootstrap coverage on the same replicates.

    Reduced-scale nested Monte Carlo; both methods should sit near nominal and
    close to each other.
    """

    def test_interval_methods_agree(self):
        truth = np.ones(5)
        plan = scenario_plan("s1", "modified-fitted")
        outer, inner = 150, 120
        wald_hits, boot_hits = [], []
        for i in range(outer):
            rng = np.random.default_rng(np.random.SeedSequence(4242, spawn_key=(i,)))
            data = generate_s1(300, 1.0, rng, validation_fraction=0.3)
            try:
                fit = plan.estimate(data)
                wald = regime_wald_intervals(data, fit, 0.95)
                boot = bootstrap(data, plan.psi_estimator, inner, level=0.95,
                                 seed=100 + i, point_estimates=psi_flat(fit))
            except ESTIMATION_FAILURES + (BootstrapError,):
                continue
            wald_hits.append((wald.lower <= truth) & (truth <= wald.upper))
            boot_hits.append((boot.lower <= truth) & (truth <= boot.upper))
        wald_cov = np.mean(wald_hits, axis=0)
        boot_cov = np.mean(boot_hits, axis=0)
        assert len(wald_hits) >= 0.95 * outer
        assert np.all(boot_cov >= 0.88) and np.all(boot_cov <= 1.0)
        # measured 0.02 at this seed; the two methods track each other closely
        assert np.max(np.abs(wald_cov - boot_cov)) <= 0.03
