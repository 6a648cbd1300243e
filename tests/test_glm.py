"""Logistic fitting against closed forms and independent oracles."""

import re

import numpy as np
import pytest

from dtr_adhere import glm
from dtr_adhere.gest import EstimationError
from dtr_adhere.glm import (
    NonConvergenceError,
    RankDeficiencyError,
    expit,
    fit_logistic,
    fit_logistic_batch,
)
from dtr_adhere.simulation import generate_s1, scenario_plan


class TestExpit:
    def test_zero(self):
        assert expit(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.5, 5.0, 30.0, -0.5, -5.0, -30.0])
    def test_reflection_identity(self, x):
        assert expit(x) == pytest.approx(1.0 - expit(-x), abs=1e-15)

    def test_adherence_mechanism_value(self):
        # 7.5 - 4.6 - 0.83 = 2.07 on the linear scale: adherence just under 0.89,
        # so roughly an 11% miss rate at covariate value 1 for the prescribed arm
        p = expit(7.5 - 4.6 - 0.83 * 1.0)
        assert p == pytest.approx(0.8880, abs=5e-4)
        assert 1.0 - p == pytest.approx(0.112, abs=1e-3)

    def test_saturates_without_overflow(self):
        assert expit(800.0) == 1.0
        assert expit(-800.0) == 0.0

    def test_monotone(self):
        x = np.linspace(-40, 40, 2001)
        assert np.all(np.diff(expit(x)) >= 0)

    def test_vector_and_scalar(self):
        np.testing.assert_allclose(expit(np.array([0.0, 1.0])), [0.5, expit(1.0)])

    def test_zero_dimensional_input_returns_float(self):
        assert type(expit(np.float64(1.5))) is float
        assert type(expit(np.array(-2.0))) is float

    def test_matches_two_branch_reference(self):
        def reference(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        x = np.concatenate([np.linspace(-40.0, 40.0, 16001), [-1e3, -745.0, 745.0, 1e3]])
        assert np.max(np.abs(expit(x) - reference(x))) <= 2.3e-16


class TestFitLogistic:
    def test_intercept_only_half(self):
        y = np.array([0, 1, 0, 1], dtype=float)
        fit = fit_logistic(np.ones((4, 1)), y)
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-10)

    def test_intercept_only_three_quarters(self):
        y = np.array([1, 1, 1, 0] * 5, dtype=float)
        fit = fit_logistic(np.ones((20, 1)), y)
        assert fit.coefficients[0] == pytest.approx(np.log(3.0), abs=1e-8)

    def test_against_grid_search_oracle(self):
        rng = np.random.default_rng(20240601)
        x = rng.normal(0.0, 1.0, 200)
        y = rng.binomial(1, expit(0.3 + 0.9 * x)).astype(float)
        design = np.column_stack([np.ones(200), x])
        fit = fit_logistic(design, y)

        def loglik(b0, b1):
            eta = b0 + b1 * x
            return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

        # coarse-to-fine grid maximization, independent of the scoring iteration
        center, width = np.array([0.0, 0.0]), 3.0
        for _ in range(8):
            b0s = np.linspace(center[0] - width, center[0] + width, 21)
            b1s = np.linspace(center[1] - width, center[1] + width, 21)
            values = [(loglik(b0, b1), b0, b1) for b0 in b0s for b1 in b1s]
            _, b0, b1 = max(values)
            center, width = np.array([b0, b1]), width * 0.2
        np.testing.assert_allclose(fit.coefficients, center, atol=1e-4)

        mu = expit(design @ fit.coefficients)
        info = (design * (mu * (1.0 - mu))[:, None]).T @ design
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        assert abs(fit.coefficients[0] - 0.3) < 3 * se[0]
        assert abs(fit.coefficients[1] - 0.9) < 3 * se[1]

    def test_separation_raises(self):
        x = np.linspace(-1, 1, 30)
        y = (x > 0).astype(float)
        design = np.column_stack([np.ones(30), x])
        with pytest.raises((NonConvergenceError, RankDeficiencyError)):
            fit_logistic(design, y)

    def test_rank_deficiency_raises(self):
        x = np.ones(20)
        design = np.column_stack([x, 2 * x])
        y = np.array([0, 1] * 10, dtype=float)
        with pytest.raises(RankDeficiencyError):
            fit_logistic(design, y)

    def test_column_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 3))
        design = np.column_stack([np.ones(300), x])
        y = rng.binomial(1, expit(design @ np.array([0.2, 0.5, -0.7, 1.0]))).astype(float)
        scale = np.array([1.0, 10.0, 0.01, 5.0])
        fit = fit_logistic(design, y)
        fit_scaled = fit_logistic(design * scale, y)
        np.testing.assert_allclose(fit_scaled.coefficients * scale, fit.coefficients, atol=1e-7)
        np.testing.assert_allclose(
            expit(design @ fit.coefficients),
            expit((design * scale) @ fit_scaled.coefficients),
            atol=1e-8,
        )


class TestWeights:
    @staticmethod
    def problem(n=120, seed=8):
        rng = np.random.default_rng(seed)
        design = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.binomial(1, expit(design @ np.array([0.2, 0.9]))).astype(float)
        return design, y

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_weight_rejected_before_any_iteration(self, monkeypatch, bad):
        design, y = self.problem()
        weights = np.ones(y.size)
        weights[3] = bad

        def no_iteration(info):
            raise AssertionError("Newton iterated on invalid weights")

        monkeypatch.setattr(glm, "_cholesky", no_iteration)
        with pytest.raises(ValueError, match="weights"):
            fit_logistic(design, y, weights)

    def test_weights_of_the_wrong_length_rejected(self):
        design, y = self.problem()
        with pytest.raises(ValueError, match="weights"):
            fit_logistic(design, y, np.ones(y.size - 1))

    def test_integer_weights_equal_repeated_rows(self):
        design, y = self.problem()
        counts = np.random.default_rng(9).integers(0, 4, y.size)
        rows = np.repeat(np.arange(y.size), counts)
        weighted = fit_logistic(design, y, counts.astype(float))
        repeated = fit_logistic(design[rows], y[rows])
        np.testing.assert_allclose(weighted.coefficients, repeated.coefficients, atol=1e-10)

    def test_batch_members_equal_one_member_fits(self):
        # converging members, a separated one and one with a single row: each
        # member of the batch is the fit of its weights alone
        design, y = self.problem()
        rng = np.random.default_rng(10)
        weights = rng.integers(0, 3, (4, y.size)).astype(float)
        weights[1] = (y == (design[:, 1] > 0))
        weights[2] = np.eye(y.size)[0]
        batch = fit_logistic_batch(design, y, weights)
        failures = 0
        for i, w in enumerate(weights):
            try:
                alone = fit_logistic(design, y, w)
            except (NonConvergenceError, RankDeficiencyError) as err:
                assert type(batch.errors[i]) is type(err)
                assert str(batch.errors[i]) == str(err)
                failures += 1
                continue
            assert batch.errors[i] is None
            np.testing.assert_allclose(batch.coefficients[i], alone.coefficients, atol=1e-12)
            assert batch.iterations[i] == alone.iterations
        assert failures == 2

    @staticmethod
    def outcome(fit, i):
        """Member i's iterations and error class and message, or None."""
        error = fit.errors[i]
        return fit.iterations[i], error and (type(error), str(error))

    def test_batch_members_equal_fits_of_their_repeated_rows(self):
        # The oracle is the unweighted fit of each member's positive-weight
        # rows, each repeated by its count.  The block mixes converging
        # members, one separated on its weighted rows whose weight-0 rows
        # would be misclassified, one with a single row, and one separated on
        # rows so close together that its coefficients diverge first.
        design, y = self.problem()
        close = design[:8] * [1.0, 1e-7]
        design = np.vstack([design, close])
        y = np.concatenate([y, close[:, 1] > 0.0])
        separable = y == (design[:, 1] > 0.0)
        assert not separable[:120].all()
        rng = np.random.default_rng(12)
        weights = np.zeros((6, y.size))
        weights[:3, :120] = rng.integers(0, 3, (3, 120))
        weights[3, :120] = separable[:120] * rng.integers(1, 3, 120)
        weights[4, 5] = 1.0
        weights[5, 120:] = rng.integers(1, 3, 8)
        batch = fit_logistic_batch(design, y, weights)

        messages = []
        for i, w in enumerate(weights):
            rows = np.repeat(np.arange(y.size), w.astype(int))
            # fit_logistic's own call, which also reports a failure's iterations
            alone = fit_logistic_batch(design[rows], y[rows], np.ones((1, rows.size)))
            assert self.outcome(batch, i) == self.outcome(alone, 0)
            np.testing.assert_allclose(batch.coefficients[i], alone.coefficients[0], atol=1e-10)
            messages.append(alone.errors[0] and str(alone.errors[0]))
        assert messages[:3] == [None] * 3
        assert [re.match(r"[a-z ]+", m)[0] for m in messages[3:]] == [
            "complete separation in logistic fit ", "fewer rows than columns",
            "diverging logistic coefficients "]

        # up to rounding, a member's fit does not depend on its block
        order = np.arange(len(weights))[::-1]
        for members in (order, order[:3], order[3:]):
            part = fit_logistic_batch(design, y, weights[members])
            for k, i in enumerate(members):
                assert self.outcome(part, k) == self.outcome(batch, i)
                np.testing.assert_allclose(part.coefficients[k], batch.coefficients[i],
                                           atol=1e-12)

    def test_members_with_their_own_rows(self):
        # per-member designs and responses: each member, the separated one
        # included, is the fit of its own rows
        design, y = self.problem()
        rng = np.random.default_rng(11)
        perms = [rng.permutation(y.size) for _ in range(3)]
        designs = np.stack([design[p] for p in perms])
        responses = np.stack([y[p] for p in perms])
        responses[1] = designs[1, :, 1] > 0
        batch = fit_logistic_batch(designs, responses, np.ones(responses.shape))
        failed = []
        for i in range(3):
            try:
                alone = fit_logistic(designs[i], responses[i])
            except NonConvergenceError as err:
                assert str(batch.errors[i]) == str(err)
                failed.append(i)
                continue
            assert batch.errors[i] is None
            np.testing.assert_allclose(batch.coefficients[i], alone.coefficients, atol=1e-12)
            assert batch.iterations[i] == alone.iterations
        assert failed == [1]


class TestScoreRows:
    def test_columns_sum_to_zero_at_fit(self):
        rng = np.random.default_rng(5)
        design = np.column_stack([np.ones(400), rng.normal(size=(400, 2))])
        y = rng.binomial(1, expit(design @ np.array([0.1, -0.4, 0.8]))).astype(float)
        fit = fit_logistic(design, y)
        rows = design * (y - expit(design @ fit.coefficients))[:, None]
        np.testing.assert_allclose(rows.sum(axis=0), np.zeros(3), atol=1e-6)


class TestIterationLimit:
    @staticmethod
    def batch():
        """A shared design with two responses: member 0 weakly tied to the
        covariate, member 1 strongly, so member 1 takes more Newton steps."""
        rng = np.random.default_rng(21)
        design = np.column_stack([np.ones(300), rng.normal(size=300)])
        y = np.array([rng.binomial(1, expit(design @ beta)) for beta in
                      (np.array([0.1, 0.3]), np.array([0.5, 4.0]))], dtype=float)
        return design, y, np.ones(y.shape)

    def test_members_still_moving_at_max_iter_fail_the_rest_keep_their_fits(
            self, monkeypatch):
        design, y, weights = self.batch()
        free = fit_logistic_batch(design, y, weights)
        assert free.errors == [None, None]
        limit = int(free.iterations[0])
        assert limit < free.iterations[1]
        monkeypatch.setattr(glm, "MAX_ITER", limit)
        capped = fit_logistic_batch(design, y, weights)
        # member 0 converges on the last iteration allowed, and keeps its fit
        assert capped.errors[0] is None and capped.iterations[0] == limit
        np.testing.assert_array_equal(capped.coefficients[0], free.coefficients[0])
        # member 1 is still moving: it fails, with zero coefficients
        error = capped.errors[1]
        assert type(error) is NonConvergenceError
        assert re.fullmatch(rf"logistic fit did not converge in {limit} iterations "
                            r"\(coefficient norm [\d.e+]+; possible separation\)", str(error))
        assert capped.iterations[1] == limit
        np.testing.assert_array_equal(capped.coefficients[1], np.zeros(2))

    def test_an_assignment_fit_at_max_iter_fails_its_stage(self, monkeypatch):
        # the adherence probabilities are known, so the first logistic fit is
        # stage 1's assignment model
        data = generate_s1(300, 1.0, np.random.default_rng(3))
        monkeypatch.setattr(glm, "MAX_ITER", 1)
        with pytest.raises(EstimationError) as err:
            scenario_plan("s1", "modified-known").estimate(data)
        assert type(err.value) is EstimationError and err.value.stage == 1
        assert re.fullmatch(r"stage 1: assignment model failed: logistic fit did not converge "
                            r"in 1 iterations \(coefficient norm [\d.e+]+; possible separation\)",
                            str(err.value))
