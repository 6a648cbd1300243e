"""Jacobians, sandwich covariance, Wald intervals, and the bootstrap engine."""

import re
from dataclasses import replace

import numpy as np
import pytest

from dtr_adhere import inference
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
from dtr_adhere.gest import (AdherenceSource, EstimationError, EstimationPlan,
                             SingularSystemError, StackedScore, psi_flat, sensitivity_sweep,
                             tally)
from dtr_adhere.simulation import ScenarioConfig, generate_s1, run_replications, scenario_plan


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
        coarse = numerical_jacobian(score.mean, score.theta_hat)
        monkeypatch.setattr(inference, "JACOBIAN_STEP", 1e-7)
        fine = numerical_jacobian(score.mean, score.theta_hat)
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
        data = base.subset(np.zeros(40, dtype=int))  # forty copies of one row
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


def _resamples(n, seed, count):
    """The bootstrap's row draws for replicates 0..count-1 of ``seed``."""
    return [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
            .integers(0, n, size=n) for r in range(count)]


def _digits_masked(message):
    return re.sub(r"[0-9][0-9.e+-]*", "#", message)


class TestBatchedReplicatesMatchSubsetFits:
    """Each member of a batched pass is the fit of its resample: psi, and for
    a failing replicate the exception class, stage and message, as a fit of
    ``data.subset(idx)`` gives them.  A stage system's failure messages are
    compared exactly, since a condition number whose digits are rounding
    noise prints as "numerically singular"; other numbers inside messages
    (a coefficient norm) are compared with their digits masked, as no two
    summation orders need print them alike."""

    @pytest.mark.parametrize("n", [30, 60, 120])
    @pytest.mark.parametrize("estimator", ["modified-fitted", "naive-proxy"])
    def test_members_match_per_replicate_fits(self, n, estimator):
        data = generate_s1(n, 1.0, np.random.default_rng(900 + n), validation_fraction=0.3)
        plan = scenario_plan("s1", estimator)
        draws = _resamples(n, 31, 60)
        # one resample that keeps no stage-1 validation row
        outside = np.flatnonzero(~data.validation[:, 0])
        draws.append(np.random.default_rng(1).choice(outside, size=n))
        counts = np.array([np.bincount(idx, minlength=n) for idx in draws], dtype=float)
        got = []
        for start in range(0, len(draws), inference.BOOTSTRAP_BLOCK):
            got += plan.psi_estimator(data, counts[start : start + inference.BOOTSTRAP_BLOCK])
        want = [tally(lambda d: psi_flat(plan.estimate(d)), data.subset(idx)) for idx in draws]

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
        monkeypatch.setattr(EstimationPlan, "estimate", self.broken)
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
            except Exception:
                continue
            wald_hits.append((wald.lower <= truth) & (truth <= wald.upper))
            boot_hits.append((boot.lower <= truth) & (truth <= boot.upper))
        wald_cov = np.mean(wald_hits, axis=0)
        boot_cov = np.mean(boot_hits, axis=0)
        assert len(wald_hits) >= 0.95 * outer
        assert np.all(boot_cov >= 0.88) and np.all(boot_cov <= 1.0)
        # measured 0.02 at this seed; the two methods track each other closely
        assert np.max(np.abs(wald_cov - boot_cov)) <= 0.03
