"""Estimation core: pseudo outcomes, stage solves, adherence fits, full fits."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from dtr_adhere import gest
from dtr_adhere.gest import (
    AdherenceSource,
    EstimationError,
    EstimationPlan,
    SingularSystemError,
    StackedScore,
    StageModelSpec,
    _fit_stages,
    ordered_map,
    pseudo_outcome,
    pseudo_outcome_exact,
    psi_flat,
    recommend,
    sensitivity_sweep,
    validate_stage_models,
)
from dtr_adhere.glm import RankDeficiencyError, expit, fit_logistic, fit_logistic_batch
from dtr_adhere.inference import numerical_jacobian, regime_wald_intervals
from dtr_adhere.model import (
    CompiledDesign,
    DataError,
    Dataset,
    DesignError,
    build_design_matrix,
    compile_design,
    parse_feature_spec,
)
from dtr_adhere.simulation import (
    ReplicationError,
    ScenarioConfig,
    generate_s1,
    generate_s3,
    generate_s4,
    known_adherence,
    run_replications,
    scenario_models,
    scenario_plan,
)

from row_copy import copy_rows, scale_covariates, stack_datasets


class TestPseudoOutcomes:
    def test_standard(self):
        # the weight is the treatment taken
        assert pseudo_outcome(5.0, a_opt=1, weight=1, contrast=3.0) == 5.0
        assert pseudo_outcome(5.0, a_opt=1, weight=0, contrast=3.0) == 8.0
        assert pseudo_outcome(5.0, a_opt=0, weight=1, contrast=-2.0) == 7.0

    def test_modified(self):
        # the weight is the adherence probability
        assert pseudo_outcome(5.0, a_opt=1, weight=0.3, contrast=0.0) == 5.0
        assert pseudo_outcome(5.0, a_opt=1, weight=0.9, contrast=2.0) == pytest.approx(5.2)
        assert pseudo_outcome(5.0, a_opt=1, weight=1.0, contrast=7.0) == 5.0
        assert pseudo_outcome(5.0, a_opt=0, weight=0.0, contrast=7.0) == 5.0

    def test_exact_direct_values(self):
        assert pseudo_outcome_exact(0.0, 0.5, 2.0, -1.0) == pytest.approx(1.0)
        assert pseudo_outcome_exact(3.0, 0.7, -2.0, -0.5) == 3.0
        assert pseudo_outcome_exact(0.0, 1.0, 2.0, 5.0) == pytest.approx(2.0)
        assert pseudo_outcome_exact(0.0, 0.0, 2.0, 5.0) == pytest.approx(5.0)

    def test_exact_against_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            v = rng.normal()
            pi = rng.uniform()
            c1 = rng.normal(scale=3)
            c0 = rng.normal(scale=3)
            # enumerate the lagged treatment: weight * optimal-rule payoff
            expected = v
            for a_prev, weight in ((1, pi), (0, 1.0 - pi)):
                contrast = c1 if a_prev == 1 else c0
                payoff = contrast if contrast > 0 else 0.0
                expected += weight * payoff
            assert pseudo_outcome_exact(v, pi, c1, c0) == pytest.approx(expected, abs=1e-12)

    def test_vectorized(self):
        v = np.array([0.0, 1.0])
        out = pseudo_outcome_exact(v, np.array([0.5, 1.0]), np.array([2.0, -1.0]), np.array([-1.0, 4.0]))
        np.testing.assert_allclose(out, [1.0, 1.0])


def stage_equations(lam, tf, a, p, w, v, psi, beta):
    """Both blocks of the stage system at (psi, beta): treatment-free normal
    equations, then contrast equations."""
    resid = v - w * (lam @ psi) - tf @ beta
    return tf.T @ resid, lam.T @ ((a - p) * resid)


def _fit_stage(lam, tf_design, treatment, assignment_prob, weight, v_next, *, stage):
    """``_fit_stages`` for one member at unit weights: ``(psi, beta, cond)``,
    or its failure raised."""
    out = _fit_stages(lam, tf_design, treatment, assignment_prob, weight, v_next,
                      np.ones((1, len(v_next))), np.ones(1, dtype=bool), stage=stage)
    if out.errors[0] is not None:
        raise out.errors[0]
    return out.psi[0], out.beta[0], float(out.cond[0])


class TestSolveStage:
    """The joint [treatment-free; contrast] stage solve."""

    def test_hand_built_system(self):
        # six rows, two contrast terms, an intercept-only treatment-free model;
        # eliminating the intercept leaves a 2x2 system solved by hand below
        lam = np.array([[1.0, 0.5], [1.0, -1.0], [1.0, 2.0], [1.0, 0.0], [1.0, 1.5], [1.0, -0.5]])
        a = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        p = np.array([0.6, 0.4, 0.7, 0.3, 0.5, 0.55])
        v = np.array([2.0, -1.0, 0.5, 3.0, 1.0, -0.25])

        # beta = mean(v - a * lam psi), so row i contributes
        # lam_i (a_i - p_i) (v_i - mean v - (a_i lam_i - mean(a lam)) psi)
        mean_v = sum(v) / 6
        mean_al = [sum(a[i] * lam[i, k] for i in range(6)) / 6 for k in range(2)]
        m = [[0.0, 0.0], [0.0, 0.0]]
        b = [0.0, 0.0]
        for i in range(6):
            e = a[i] - p[i]
            for k in range(2):
                b[k] += lam[i, k] * e * (v[i] - mean_v)
                for l in range(2):
                    m[k][l] += lam[i, k] * e * (a[i] * lam[i, l] - mean_al[l])
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        expected = np.array([(m[1][1] * b[0] - m[0][1] * b[1]) / det,
                             (m[0][0] * b[1] - m[1][0] * b[0]) / det])
        expected_beta = mean_v - (mean_al[0] * expected[0] + mean_al[1] * expected[1])

        psi, beta, _ = _fit_stage(lam, np.ones((6, 1)), a, p, a, v, stage=1)
        np.testing.assert_allclose(psi, expected, atol=1e-12)
        np.testing.assert_allclose(beta, [expected_beta], atol=1e-12)

    def test_lambda_scaling_invariance(self):
        rng = np.random.default_rng(1)
        lam = np.column_stack([np.ones(50), rng.normal(size=50)])
        tf = np.column_stack([np.ones(50), rng.normal(size=50)])
        a = rng.binomial(1, 0.5, 50).astype(float)
        p = np.full(50, 0.5)
        v = rng.normal(size=50)
        scale = np.array([3.7, 0.02])
        psi, beta, _ = _fit_stage(lam, tf, a, p, a, v, stage=1)
        psi_s, beta_s, _ = _fit_stage(lam * scale, tf, a, p, a, v, stage=1)
        np.testing.assert_allclose(psi_s * scale, psi, atol=1e-12)
        np.testing.assert_allclose(beta_s, beta, atol=1e-12)

    def test_singular_system_raises(self):
        lam = np.ones((10, 2))  # duplicated columns
        a = np.array([0.0, 1.0] * 5)
        p = np.full(10, 0.5)
        with pytest.raises(SingularSystemError):
            _fit_stage(lam, np.ones((10, 1)), a, p, a, np.zeros(10), stage=1)

    def test_adherence_weight_equals_treatment_weight_under_truth(self):
        # an adherence model saturated at the treatment taken weights the
        # contrast exactly as the uncorrected equations do
        rng = np.random.default_rng(2)
        lam = np.column_stack([np.ones(40), rng.normal(size=40)])
        tf = np.column_stack([np.ones(40), rng.normal(size=40)])
        a = rng.binomial(1, 0.5, 40).astype(float)
        p = np.full(40, 0.5)
        v = rng.normal(size=40)
        pinned = expit(2000.0 * a - 1000.0)
        for got, want in zip(_fit_stage(lam, tf, a, p, pinned, v, stage=1),
                             _fit_stage(lam, tf, a, p, a, v, stage=1)):
            np.testing.assert_array_equal(got, want)

    def test_strongly_coupled_blocks_solve_jointly(self):
        # A constant assignment model for a treatment that tracks the
        # treatment-free covariate couples the blocks strongly: alternating
        # the two block solves contracts by only ~0.8 per sweep.  The joint
        # solve still zeroes both blocks.
        rng = np.random.default_rng(0)
        n = 60
        x = rng.normal(size=n)
        a = (x + 0.3 * rng.normal(size=n) > 0).astype(float)
        p = np.full(n, 0.5)
        lam = tf = np.column_stack([np.ones(n), x])
        v = 1.0 + x + a * (0.5 + x) + rng.normal(size=n)
        e = a - p
        m = (lam * (e * a)[:, None]).T @ lam
        sweep = np.linalg.solve(tf.T @ tf, tf.T @ (a[:, None] * lam)) @ np.linalg.solve(
            m, (lam * e[:, None]).T @ tf
        )
        assert np.max(np.abs(np.linalg.eigvals(sweep))) > 0.8

        psi, beta, _ = _fit_stage(lam, tf, a, p, a, v, stage=1)
        for block in stage_equations(lam, tf, a, p, a, v, psi, beta):
            np.testing.assert_allclose(block, 0.0, atol=1e-10)

    def test_rank_deficient_treatment_free_raises(self):
        rng = np.random.default_rng(4)
        lam = np.column_stack([np.ones(30), rng.normal(size=30)])
        a = rng.binomial(1, 0.5, 30).astype(float)
        tf = np.column_stack([np.ones(30), np.ones(30)])
        with pytest.raises(RankDeficiencyError):
            _fit_stage(lam, tf, a, np.full(30, 0.5), a, rng.normal(size=30), stage=1)

    def test_jointly_singular_raises(self):
        # each block is well posed, but the treatment-free design spans the
        # weighted contrast, so the stacked system is singular
        rng = np.random.default_rng(5)
        lam = np.column_stack([np.ones(30), rng.normal(size=30)])
        a = rng.binomial(1, 0.5, 30).astype(float)
        w = rng.uniform(0.2, 0.9, 30)
        with pytest.raises(EstimationError, match="jointly singular") as err:
            _fit_stage(lam, w[:, None] * lam, a, np.full(30, 0.5), w, rng.normal(size=30),
                       stage=2)
        assert not isinstance(err.value, SingularSystemError)
        assert err.value.stage == 2
        # exactly singular: the printed condition number would be rounding noise
        assert str(err.value) == ("stage 2: contrast/treatment-free equations are jointly "
                                  "singular (numerically singular)")

    def test_nearly_jointly_singular_message(self):
        # the treatment-free design is the weighted contrast moved by 1e-13:
        # a joint condition number above the limit, printed below 1/eps
        rng = np.random.default_rng(5)
        lam = np.column_stack([np.ones(30), rng.normal(size=30)])
        a = rng.binomial(1, 0.5, 30).astype(float)
        w = rng.uniform(0.2, 0.9, 30)
        tf = w[:, None] * lam + 1e-13 * np.random.default_rng(7).normal(size=(30, 2))
        with pytest.raises(EstimationError) as err:
            _fit_stage(lam, tf, a, np.full(30, 0.5), w, rng.normal(size=30), stage=2)
        assert type(err.value) is EstimationError and err.value.stage == 2
        assert re.fullmatch(r"stage 2: contrast/treatment-free equations are jointly singular "
                            r"\(condition [1-9]\.[0-9]+e\+1[2-5]\)", str(err.value))

    @pytest.mark.parametrize("offset,message", [
        (0.0, r"stage 1: stage system is numerically singular"),
        (1e-7, r"stage 1: stage system condition number [1-9]\.[0-9]+e\+1[2-5] exceeds 1e\+12"),
    ])
    def test_singular_contrast_block_message(self, offset, message):
        # the digits of a condition number are printed only below 1/eps
        rng = np.random.default_rng(6)
        x = rng.normal(size=30)
        tf = np.column_stack([np.ones(30), rng.normal(size=30)])
        lam = np.column_stack([np.ones(30), x, x + offset * rng.normal(size=30)])
        a = np.random.default_rng(5).binomial(1, 0.5, 30).astype(float)
        with pytest.raises(SingularSystemError) as err:
            _fit_stage(lam, tf, a, np.full(30, 0.5), a, rng.normal(size=30), stage=1)
        assert re.fullmatch(message, str(err.value))


class TestFitAdherence:
    """The adherence fit of ``plan.estimate``: the stage-j alpha of a
    ``modified-fitted`` plan."""

    def test_recovers_s1_mechanism(self):
        rng = np.random.default_rng(20240607)
        data = generate_s1(1000, 0.0, rng, validation_fraction=0.3)
        fit = scenario_plan("s1", "modified-fitted").estimate(data)
        alpha = fit.nuisance[0]["alpha"]
        spec = parse_feature_spec("1 + X[1] + Astar[1]")
        design = build_design_matrix(spec, data, 1, "use-proxy")
        x = design[data.validation[:, 0]]
        mu = expit(x @ alpha)
        se = np.sqrt(np.diag(np.linalg.inv((x * (mu * (1.0 - mu))[:, None]).T @ x)))
        truth = np.array([-4.6, -0.83, 7.5])
        assert np.all(np.abs(alpha - truth) < 3 * se)

    @staticmethod
    def _perfectly_adhered():
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        astar = rng.binomial(1, 0.5, 200).astype(float)
        return Dataset(
            stage_covariates=[{"X": x}],
            proxy=[astar],
            proxy_kind="prescribed",
            actual=[astar.copy()],
            validation=np.ones((200, 1), dtype=bool),
            outcome=rng.normal(size=200),
        )

    def test_failed_adherence_fit_fails_the_estimate_at_its_stage(self):
        spec = StageModelSpec.from_strings("1 + X[1]", "1 + X[1]", "1 + X[1]",
                                           "1 + X[1] + Astar[1]")
        plan = EstimationPlan((spec,), "modified-prescribed", AdherenceSource.fitted())
        with pytest.raises(EstimationError, match=r"^stage 1: adherence model failed: "
                                                  r"complete separation") as err:
            plan.estimate(self._perfectly_adhered())
        assert err.value.stage == 1

    def test_reported_mechanism_recovery_at_design_points(self):
        rng = np.random.default_rng(11)
        data = generate_s4(40000, 0.0, rng, validation_fraction=0.5)
        # s4's stage-1 adherence spec is 1 + X[1] + Astar[1] + X[1]*Astar[1]
        alpha = scenario_plan("s4", "modified-fitted").estimate(data).nuisance[0]["alpha"]

        def bayes(x, rep):
            p = 0.5 + 0.3 * x
            r1 = 0.9 - 0.05 * x
            r0 = 0.05 + 0.045 * x + 0.005 * x * x
            num = p * r1 if rep == 1 else p * (1 - r1)
            den = p * r1 + (1 - p) * r0 if rep == 1 else p * (1 - r1) + (1 - p) * (1 - r0)
            return num / den

        for x in (-1.0, 0.0, 1.0):
            for rep in (0.0, 1.0):
                eta = alpha @ np.array([1.0, x, rep, x * rep])
                assert abs(expit(eta) - bayes(x, int(rep))) < 0.05

    def test_requires_validation_rows(self):
        rng = np.random.default_rng(4)
        x1, x2 = rng.normal(size=50), rng.normal(size=50)
        astar1, astar2 = (rng.binomial(1, 0.5, 50).astype(float) for _ in range(2))
        data = Dataset(
            stage_covariates=[{"X": x1}, {"X": x2}],
            proxy=[astar1, astar2],
            proxy_kind="prescribed",
            actual=[None, None],
            validation=np.zeros((50, 2), dtype=bool),
            outcome=np.zeros(50),
        )
        with pytest.raises(Exception, match="validation"):
            scenario_plan("s1", "modified-fitted").estimate(data)

    @pytest.mark.parametrize("scenario, generate, n, validation, proxy_kind", [
        ("s1", generate_s1, 4000, (0.5, 0.4, 0.6), "prescribed"),
        ("s4", generate_s4, 1000, (0.3, 0.4, 0.5), "reported"),
    ])
    def test_alpha_is_the_logistic_fit_of_the_validation_rows(self, scenario, generate, n,
                                                              validation, proxy_kind):
        # A dataset's own fit and each member of a stacked one: the shared and
        # the per-member validation rows, whose counts differ, so the members
        # with fewer are padded.  Sized so that every fit is well
        # determined: a quasi-separated fit (|alpha| > 20, a validation cell
        # with no treated row) is fixed only up to rounding times its
        # condition.
        rng = np.random.default_rng(41)
        datasets = [generate(n, 0.0, rng, validation_fraction=v) for v in validation]
        plan = scenario_plan(scenario, "modified-fitted")
        members = plan.fit_members(stack_datasets(datasets), np.ones((3, n)))
        fits = [(datasets[0], plan.estimate(datasets[0]))]
        fits += [(data, fit) for data, (fit, _) in zip(datasets, members)]
        for data, fit in fits:
            assert data.proxy_kind == proxy_kind
            for j, spec in enumerate(plan.specs, start=1):
                mask = data.validation[:, j - 1]
                design = build_design_matrix(spec.adherence, data, j, "use-proxy")
                oracle = fit_logistic(design[mask], data.actual(j)[mask])
                assert np.max(np.abs(oracle.coefficients)) < 15.0
                np.testing.assert_allclose(fit.nuisance[j - 1]["alpha"], oracle.coefficients,
                                           rtol=0.0, atol=1e-10)
                assert fit.diagnostics["adherence_iterations"][j - 1] == oracle.iterations


def perfect_adherence_dataset(rng, n=400):
    """Random two-stage data where the prescription is always followed."""
    x1 = rng.normal(size=n)
    a1 = rng.binomial(1, expit(0.3 + 0.8 * x1)).astype(float)
    x2 = rng.normal(size=n) + 0.5 * a1
    a2 = rng.binomial(1, expit(-0.2 + 0.6 * x2)).astype(float)
    y = x1 + a1 * (1 + x1) + a2 * (0.5 + x2) + rng.normal(size=n)
    return Dataset(
        stage_covariates=[{"X": x1}, {"X": x2}],
        proxy=[a1, a2],
        proxy_kind="prescribed",
        actual=[a1.copy(), a2.copy()],
        validation=np.ones((n, 2), dtype=bool),
        outcome=y,
    )


def two_stage_specs():
    return [
        StageModelSpec.from_strings(
            "1 + X[1]", "1 + X[1]", "1 + X[1]", "1 + Astar[1]"
        ),
        StageModelSpec.from_strings(
            "1 + X[2] + A[1]", "1 + X[1] + A[1] + X[2]", "1 + X[2]", "1 + Astar[2]"
        ),
    ]


class TestEstimateRegime:
    def test_non_finite_pseudo_outcomes_fail_their_stage(self):
        """A stage-2 treatment coefficient of 1e308 carries the outcome's
        sums past the double range in the stage-2 solve: the fit fails at
        that stage on its non-finite pseudo outcomes, and the replication
        loop tallies that failure, without a RuntimeWarning on the way
        (which the test configuration turns into an error)."""
        data = generate_s4(200, 1e308, np.random.default_rng(1))
        with pytest.raises(EstimationError) as err:
            scenario_plan("s4", "modified-known").estimate(data)
        assert type(err.value) is EstimationError and err.value.stage == 2
        assert str(err.value) == "stage 2: pseudo outcomes are not finite"
        config = ScenarioConfig(scenario="s4", n=200, replications=3, seed=1,
                                varied_param=1e308, estimators=("modified-known",))
        with pytest.raises(ReplicationError, match=re.escape(
                "estimator 'modified-known' failed 3/3 replicates "
                "(first failure: stage 2: pseudo outcomes are not finite)")):
            run_replications(config)

    @pytest.mark.parametrize("estimator, model", [
        ("standard-actual", "assignment"), ("modified-fitted", "adherence")])
    def test_covariates_past_the_logistic_range_fail_at_once(self, estimator, model):
        """s1 with its covariates scaled by 1e160: the first logistic fit's
        information leaves the double range, so the fit fails at its first
        iteration, and the stage solve sums no lost member, so no
        RuntimeWarning (which the test configuration turns into an error)
        is given on the way."""
        scaled = scale_covariates(generate_s1(300, 1.0, np.random.default_rng(0)), 1e160)
        with pytest.raises(EstimationError) as err:
            scenario_plan("s1", estimator).estimate(scaled)
        assert type(err.value) is EstimationError and err.value.stage == 1
        assert str(err.value) == (f"stage 1: {model} model failed: logistic fit's score or "
                                  "information is not finite at iteration 1")

    @pytest.mark.parametrize("estimator, scale, error, stage, message", [
        ("standard-actual", 1e152, SingularSystemError, 2, "stage system is not finite"),
        ("standard-actual", 1e160, EstimationError, 1, "assignment model failed: logistic "
         "fit's score or information is not finite at iteration 1"),
        ("naive-proxy", 1e160, EstimationError, 1, "assignment model failed: logistic fit's "
         "score or information is not finite at iteration 1"),
        ("modified-fitted", 1e160, EstimationError, 1, "adherence model failed: logistic fit's "
         "score or information is not finite at iteration 1"),
    ])
    def test_design_products_past_the_double_range_fail(self, estimator, scale, error, stage,
                                                        message):
        """s4's stage-2 treatment-free design squares X[1].  With its
        covariates scaled by 1e152 the as-treated logistic fits stay in
        range, but the stage-2 solve's sums of that column's squares do not:
        the stage system is not finite.  At 1e160 the squared columns
        themselves leave the range when compiled, and a fit that reads one
        fails at its first iteration; the failed members' probabilities and
        contrasts are then evaluated at zero coefficients on those columns.
        None gives a RuntimeWarning (which the test configuration turns into
        an error) on the way."""
        with pytest.raises(EstimationError) as err:
            scenario_plan("s4", estimator).estimate(
                scale_covariates(generate_s4(300, 1.0, np.random.default_rng(0)), scale))
        assert type(err.value) is error and err.value.stage == stage
        assert str(err.value) == f"stage {stage}: {message}"

    @pytest.mark.parametrize("scale", [1e151, 1e160, 1e200])
    def test_known_probabilities_past_the_double_range_fail(self, scale):
        """s4's stage-1 assignment design squares X, so on covariates scaled
        by 1e151 or more its logistic fit's score or information leaves the
        double range at the first iteration, and the fit with s4's known
        coefficients fails there (from 1e160 the squared columns of the
        six-term adherence design are not finite either).  No RuntimeWarning
        is given on the way."""
        scaled = scale_covariates(generate_s4(300, 1.0, np.random.default_rng(0)), scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError) as err:
                scenario_plan("s4", "modified-known").estimate(scaled)
        assert type(err.value) is EstimationError and err.value.stage == 1
        assert str(err.value) == ("stage 1: assignment model failed: logistic fit's score or "
                                  "information is not finite at iteration 1")

    def test_psi_shapes(self):
        rng = np.random.default_rng(0)
        data = generate_s1(300, 0.0, rng)
        fit = EstimationPlan(scenario_models("s1"), "modified-prescribed",
                             AdherenceSource.fitted()).estimate(data)
        assert [len(p) for p in fit.psi] == [2, 3]
        assert fit.pseudo_outcomes.shape == (300, 2)
        assert np.all(np.isfinite(fit.pseudo_outcomes))

    def test_reduction_to_standard_under_perfect_adherence(self):
        rng = np.random.default_rng(123)
        data = perfect_adherence_dataset(rng)
        specs = two_stage_specs()
        # adherence pinned to the proxy itself: expit(+-1000) saturates to 0/1
        pinned = AdherenceSource.known(
            coefficients=(np.array([-1000.0, 2000.0]), np.array([-1000.0, 2000.0]))
        )
        modified = EstimationPlan(specs, "modified-prescribed", pinned).estimate(data)
        standard = EstimationPlan(specs, "standard-actual").estimate(data)
        for a, b in zip(modified.psi, standard.psi):
            np.testing.assert_allclose(a, b, atol=1e-10)
        np.testing.assert_allclose(
            modified.pseudo_outcomes, standard.pseudo_outcomes, atol=1e-10
        )

    def test_large_sample_stage2_consistency(self):
        # n = 100000 per draw with the known adherence mechanism; averaged over
        # a few seeded draws since a single draw's psi22 sampling error is
        # itself of order 0.01
        plan = scenario_plan("s1", "modified-known")
        draws = []
        for seed in range(12):
            rng = np.random.default_rng(np.random.SeedSequence(20240612, spawn_key=(seed,)))
            data = generate_s1(100000, 1.0, rng)
            draws.append(plan.estimate(data).psi[1])
        np.testing.assert_allclose(np.mean(draws, axis=0), [1.0, 1.0, 1.0], atol=0.02)

    def test_naive_bias_versus_corrected(self):
        rng = np.random.default_rng(20240613)
        data = generate_s1(200000, 1.0, rng)
        naive = scenario_plan("s1", "naive-proxy").estimate(data)
        corrected = scenario_plan("s1", "modified-known").estimate(data)
        truth = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        assert np.max(np.abs(psi_flat(naive) - truth)) > 0.1
        assert np.max(np.abs(psi_flat(corrected) - truth)) < 0.05

    def test_missing_adherence_source_rejected(self):
        rng = np.random.default_rng(0)
        data = generate_s1(100, 0.0, rng)
        with pytest.raises(Exception, match="AdherenceSource"):
            EstimationPlan(scenario_models("s1"), "modified-prescribed").estimate(data)

    def test_mode_field_compatibility(self):
        rng = np.random.default_rng(0)
        data = generate_s4(100, 0.0, rng)  # reported proxies only
        with pytest.raises(Exception, match="prescribed"):
            EstimationPlan(scenario_models("s4"), "modified-prescribed",
                           AdherenceSource.fitted()).estimate(data)

    def test_a_corrected_mode_rejects_the_other_proxy_kind(self):
        # one DataError wherever the stage system meets the data: the fit,
        # its sandwich score and its rules
        reported = generate_s4(300, 0.0, np.random.default_rng(0))
        prescribed = generate_s1(300, 0.0, np.random.default_rng(1))
        fit = scenario_plan("s4", "modified-known").estimate(reported)
        message = "modified-reported needs reported proxies, not prescribed ones"
        for call in (fit.plan.estimate, lambda data: recommend(fit, data),
                     lambda data: StackedScore(data, fit)):
            with pytest.raises(DataError, match=f"^{message}$"):
                call(prescribed)
        for member, error in fit.plan.fit_members(prescribed, np.ones((2, 300))):
            assert member is None and type(error) is DataError and str(error) == message
        # a standard mode takes either kind
        for data in (reported, prescribed):
            EstimationPlan(fit.plan.specs, "standard-naive-proxy").estimate(data)

    def test_a_design_failure_fails_every_member_of_a_pass(self):
        plan = scenario_plan("s1", "modified-fitted")
        stage_2 = dataclasses.replace(plan.specs[1],
                                      treatment_free=parse_feature_spec("1 + log(X[1])"))
        plan = dataclasses.replace(plan, specs=(plan.specs[0], stage_2))
        data = generate_s1(300, 0.0, np.random.default_rng(0), validation_fraction=0.3)
        message = "log of non-positive value in log(X[1])"
        with pytest.raises(DesignError, match=re.escape(message)):
            plan.estimate(data)
        members = plan.fit_members(data, np.ones((3, 300)))
        assert len(members) == 3
        for member, error in members:
            assert member is None and type(error) is DesignError and str(error) == message

    @pytest.mark.parametrize("estimator", ["modified-fitted", "modified-known"])
    def test_adherence_iterations_per_stage(self, estimator):
        data = generate_s3(1000, np.random.default_rng(12), validation_fraction=0.3)
        diagnostics = scenario_plan("s3", estimator).estimate(data).diagnostics
        iterations = diagnostics["adherence_iterations"]
        assert len(iterations) == len(diagnostics["assignment_iterations"]) == 2
        if estimator == "modified-fitted":
            assert all(type(count) is int and count > 0 for count in iterations)
        else:  # a known source fits no α
            assert iterations == [None, None]

    def test_joint_condition_per_stage(self):
        data = generate_s3(1000, np.random.default_rng(12), validation_fraction=0.3)
        diagnostics = scenario_plan("s3", "modified-fitted").estimate(data).diagnostics
        condition = diagnostics["joint_condition"]
        assert len(condition) == len(diagnostics["stage_condition"]) == 2
        assert all(type(c) is float and np.isfinite(c) and c >= 1.0 for c in condition)

    def test_determinism(self):
        rng = np.random.default_rng(55)
        data = generate_s1(500, -1.0, rng)
        plan = scenario_plan("s1", "modified-fitted")
        one = plan.estimate(data)
        two = plan.estimate(data)
        for a, b in zip(one.psi, two.psi):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(one.pseudo_outcomes, two.pseudo_outcomes)

    def test_exact_pseudo_outcomes_accept_single_lag(self):
        rng = np.random.default_rng(8)
        data = generate_s1(2000, 1.0, rng)
        plan = scenario_plan("s1", "modified-fitted", exact_pseudo_outcomes=True)
        fit = plan.estimate(data)
        assert fit.plan.exact_pseudo_outcomes
        approx = scenario_plan("s1", "modified-fitted").estimate(data)
        # same stage-2 solve; only the handed-back pseudo outcome differs
        np.testing.assert_array_equal(fit.psi[1], approx.psi[1])
        assert not np.allclose(fit.pseudo_outcomes[:, 1], approx.pseudo_outcomes[:, 1])

    @staticmethod
    def two_lag_problem():
        rng = np.random.default_rng(9)
        n = 500
        x = [rng.normal(size=n) for _ in range(3)]
        astar = [rng.binomial(1, expit(xj)).astype(float) for xj in x]
        actual = [rng.binomial(1, expit(-4.6 - 0.83 * xj + 7.5 * aj)).astype(float)
                  for xj, aj in zip(x, astar)]
        data = Dataset(
            stage_covariates=[{"X": xj} for xj in x],
            proxy=astar,
            proxy_kind="prescribed",
            actual=actual,
            validation=np.ones((n, 3), dtype=bool),
            outcome=rng.normal(size=n),
        )
        specs = [
            StageModelSpec.from_strings("1 + X[1]", "1 + X[1]", "1 + X[1]", "1 + Astar[1]"),
            StageModelSpec.from_strings("1 + X[2] + A[1]", "1 + X[1]", "1 + X[2]", "1 + Astar[2]"),
            StageModelSpec.from_strings(
                "1 + A[1] + A[2]", "1 + X[1]", "1 + X[3]", "1 + Astar[3]"
            ),
        ]
        return data, specs

    def test_exact_pseudo_outcomes_reject_two_lags(self):
        data, specs = self.two_lag_problem()
        with pytest.raises(Exception, match="one lagged treatment"):
            EstimationPlan(specs, "modified-prescribed", AdherenceSource.fitted(),
                           exact_pseudo_outcomes=True).estimate(data)

    def test_stacked_score_rejects_two_lags(self):
        # the plan refuses the form, so no fit, score or rule can fall back to
        # the modified pseudo outcome
        _, specs = self.two_lag_problem()
        plan = EstimationPlan(specs=tuple(specs), mode="modified-prescribed",
                              adherence=AdherenceSource.fitted())
        with pytest.raises(ValueError, match="stage 3: .*one lagged treatment.*stages \\[1, 2\\]"):
            dataclasses.replace(plan, exact_pseudo_outcomes=True)

    @pytest.mark.parametrize("mode,fields,message", [
        ("standard-naive-proxy", {"exact_pseudo_outcomes": True},
         "exact_pseudo_outcomes applies to the modified modes only, not 'standard-naive-proxy'"),
        ("standard-actual", {"adherence": AdherenceSource.fitted()},
         "adherence applies to the modified modes only, not 'standard-actual'"),
        ("modified-prescribed", {"adherence": AdherenceSource.fitted(),
                                 "exact_pseudo_outcomes": True},
         "stage 3: exact pseudo-outcome correction supports exactly one lagged treatment"),
    ], ids=["standard-exact", "standard-adherence", "modified-two-lags"])
    def test_plan_rejects_what_it_cannot_honour(self, mode, fields, message):
        # rejected when built, before any data is seen
        _, specs = self.two_lag_problem()
        with pytest.raises(ValueError, match=message):
            EstimationPlan(specs=tuple(specs), mode=mode, **fields)

    def test_stage_validation_rejects_future_references(self):
        specs = [
            StageModelSpec.from_strings("1 + X[2]", "1", "1", "1 + Astar[1]"),
            StageModelSpec.from_strings("1 + X[2]", "1", "1", "1 + Astar[2]"),
        ]
        with pytest.raises(DesignError):
            validate_stage_models(specs, 2)


def first_stages(data, stages, proxy=True):
    """``data``'s first ``stages`` stages as a new dataset whose outcome is
    zero, which no rule reads; without ``proxy`` it records no proxy."""
    kept = range(1, stages + 1)
    return Dataset(
        stage_covariates=[{name: data.covariate(name, j) for name in data.covariate_names}
                          for j in kept],
        proxy=[data.proxy(j) if proxy else None for j in kept],
        proxy_kind=data.proxy_kind if proxy else None,
        actual=[data.actual(j) for j in kept],
        validation=data.validation[:, :stages],
        outcome=np.zeros(data.n),
    )


class TestRecommend:
    @staticmethod
    def history(x1, prescribed=None):
        """One individual's stage-1 history as a one-row dataset."""
        return Dataset(stage_covariates=[{"X": [x1]}],
                       proxy=[None if prescribed is None else [prescribed]],
                       proxy_kind=None if prescribed is None else "prescribed",
                       actual=[None], validation=None, outcome=[0.0])

    def fixed_fit(self, psi1):
        rng = np.random.default_rng(10)
        data = generate_s1(400, 0.0, rng)
        plan = scenario_plan("s1", "modified-known")
        fit = plan.estimate(data)
        object.__setattr__(fit, "psi", (np.asarray(psi1, dtype=float), fit.psi[1]))
        return fit

    def test_zero_contrast_is_no_treatment(self):
        fit = self.fixed_fit([0.0, 0.0])
        assert recommend(fit, self.history(3.0, prescribed=1)).tolist() == [[0]]

    def test_negative_contrast(self):
        fit = self.fixed_fit([1.0, 1.0])
        assert recommend(fit, self.history(-2.0, prescribed=1)).tolist() == [[0]]
        assert recommend(fit, self.history(0.5, prescribed=1)).tolist() == [[1]]

    def test_scaling_invariance(self):
        rng = np.random.default_rng(21)
        data = generate_s1(500, 1.0, rng)
        plan = scenario_plan("s1", "modified-known")
        fit = plan.estimate(data)
        doubled = plan.estimate(data)
        object.__setattr__(doubled, "psi", tuple(2.0 * p for p in fit.psi))
        np.testing.assert_array_equal(recommend(fit, data), recommend(doubled, data))

    def test_second_stage_uses_adherence_model(self):
        rng = np.random.default_rng(33)
        data = generate_s1(2000, 1.0, rng)
        plan = scenario_plan("s1", "modified-known")
        fit = plan.estimate(data)
        assert recommend(fit, data)[5, 1] in (0, 1)

    def test_missing_covariate_raises(self):
        fit = self.fixed_fit([1.0, 1.0])
        bad = Dataset(stage_covariates=[{}], proxy=[None], proxy_kind=None, actual=[None],
                      validation=None, outcome=[0.0])
        with pytest.raises(DesignError):
            recommend(fit, bad)

    def test_more_stages_than_fit_raises(self):
        data = generate_s1(400, 1.0, np.random.default_rng(12))
        plan = scenario_plan("s1", "standard-actual")
        fit = dataclasses.replace(plan, specs=plan.specs[:1]).estimate(first_stages(data, 1))
        with pytest.raises(DesignError, match="a 2-stage dataset for a 1-stage fit"):
            recommend(fit, data)


class TestPartialHistories:
    """A history known up to stage k is the dataset of its first k stages:
    its rules are the first k columns of the full dataset's."""

    CASES = [
        ("s1", "standard-actual"),
        ("s1", "naive-proxy"),
        ("s1", "modified-fitted"),
        ("s1", "modified-known"),  # known coefficients
        ("s4", "standard-actual"),
        ("s4", "modified-fitted"),
        ("s4", "modified-known"),  # known coefficients of the six-term spec
    ]

    @pytest.mark.parametrize("scenario,estimator", CASES)
    def test_first_stage_equals_first_column(self, scenario, estimator):
        rng = np.random.default_rng(41)
        generate = generate_s1 if scenario == "s1" else generate_s4
        data = generate(600, 1.0, rng, validation_fraction=0.3)
        fit = scenario_plan(scenario, estimator).estimate(data)
        rules = recommend(fit, data)
        assert rules.shape == (600, 2)
        np.testing.assert_array_equal(recommend(fit, first_stages(data, 1)), rules[:, :1])
        np.testing.assert_array_equal(recommend(fit, first_stages(data, 2)), rules)

    @pytest.mark.parametrize("scenario", ["s1", "s4"])
    def test_history_without_proxy_raises(self, scenario):
        rng = np.random.default_rng(42)
        generate = generate_s1 if scenario == "s1" else generate_s4
        data = generate(400, 1.0, rng, validation_fraction=0.3)
        fit = scenario_plan(scenario, "modified-known").estimate(data)
        with pytest.raises(DesignError):
            recommend(fit, first_stages(data, 2, proxy=False))


def _score_dataset(scenario):
    rng = np.random.default_rng(99)
    if scenario == "s1":
        return generate_s1(1000, 1.0, rng, validation_fraction=0.3)
    if scenario == "s3":
        return generate_s3(1000, rng, validation_fraction=0.3)
    return generate_s4(1000, 1.0, rng, validation_fraction=0.3)


class TestStackedScore:
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize(
        "source", ["standard-actual", "naive-proxy", "fitted", "known", "external"]
    )
    @pytest.mark.parametrize("scenario", ["s1", "s3", "s4"])
    def test_mean_vanishes_at_fit(self, scenario, source, exact):
        # The fit solves every block of the stacked system, so the score the
        # sandwich differentiates must have mean zero at the fitted theta.
        data = _score_dataset(scenario)
        standard = source in ("standard-actual", "naive-proxy")
        base = scenario_plan(scenario, source if standard else
                             "modified-known" if source == "known" else "modified-fitted")
        adherence = base.adherence
        if source == "external":
            alpha = [nuis["alpha"] for nuis in base.estimate(data).nuisance]
            adherence = AdherenceSource.known(coefficients=alpha)
        plan = EstimationPlan(specs=base.specs, mode=base.mode, adherence=adherence,
                              exact_pseudo_outcomes=exact and not standard)
        score = StackedScore(data, plan.estimate(data))
        assert np.max(np.abs(score.per_individual(score.theta_hat).mean(axis=0))) <= 1e-9

    def test_non_finite_pseudo_outcomes_fail_their_stage(self):
        """A score evaluated at an infinite stage-2 contrast intercept has
        no finite stage-1 pseudo outcome: the evaluation raises the stage's
        failure, as the fit does."""
        data = generate_s1(200, 1.0, np.random.default_rng(1))
        score = StackedScore(data, scenario_plan("s1", "modified-fitted").estimate(data))
        theta = score.theta_hat.copy()
        theta[score.slices[(2, "contrast")].start] = np.inf
        with pytest.raises(EstimationError) as err:
            score.evaluate(theta)
        assert type(err.value) is EstimationError and err.value.stage == 2
        assert str(err.value) == "stage 2: pseudo outcomes are not finite"

    @pytest.mark.parametrize("estimator", ["modified-known", "modified-fitted", "naive-proxy",
                                           "standard-actual"])
    @pytest.mark.parametrize("jacobian", [False, True], ids=["scores", "jacobian"])
    def test_scores_past_the_double_range_fail_their_stage(self, estimator, jacobian):
        """At a stage-2 contrast intercept of 1e308 the pseudo outcomes stay
        finite, but the scores they feed do not: the evaluation fails at the
        highest stage whose scores are not finite, with no warning on the way.
        An infinite intercept makes the pseudo outcomes not finite in every
        mode, also where the uncorrected modes' weight equals the rule."""
        data = generate_s1(200, 1.0, np.random.default_rng(1))
        score = StackedScore(data, scenario_plan("s1", estimator).estimate(data))
        theta = score.theta_hat.copy()
        for value, message in ((1e308, "stage 2: scores are not finite"),
                               (np.inf, "stage 2: pseudo outcomes are not finite")):
            theta[score.slices[(2, "contrast")].start] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EstimationError) as err:
                    score.evaluate(theta, jacobian=jacobian)
            assert type(err.value) is EstimationError and err.value.stage == 2
            assert str(err.value) == message

    @staticmethod
    def adherence_source(scenario, source, data):
        """The adherence source named ``source``, built around the fitted
        adherence coefficients of ``scenario`` on ``data``."""
        alpha = [nuis["alpha"] for nuis in scenario_plan(scenario, "modified-fitted")
                 .estimate(data).nuisance]
        if source == "fitted":
            return AdherenceSource.fitted()
        if source == "known-coefficients":
            return AdherenceSource.known(coefficients=alpha)
        if source == "known-truth":
            return known_adherence(scenario)
        covariance = [np.diag(np.full(a.size, 0.05)) + 0.01 for a in alpha]
        if source == "external-stage-2":
            covariance[0] = None
        return AdherenceSource.known(coefficients=alpha, covariance=covariance)

    @pytest.mark.parametrize("source", [
        "standard-actual", "naive-proxy", "fitted", "known-coefficients", "known-truth",
        "external-stage-2", "external-both-stages",
    ])
    @pytest.mark.parametrize("scenario", ["s1", "s3", "s4"])
    def test_jacobian_matches_central_differences(self, scenario, source):
        data = _score_dataset(scenario)
        standard = source in ("standard-actual", "naive-proxy")
        # the scenario's true coefficients come with the specs they are true in
        base = scenario_plan(scenario, source if standard else
                             "modified-known" if source == "known-truth" else "modified-fitted")
        for exact in (False,) if standard else (False, True):
            plan = dataclasses.replace(base, exact_pseudo_outcomes=exact)
            if not standard:
                plan = dataclasses.replace(
                    plan, adherence=self.adherence_source(scenario, source, data))
            score = StackedScore(data, plan.estimate(data))
            oracle = numerical_jacobian(lambda t: score.per_individual(t).mean(axis=0),
                                        score.theta_hat)
            gap = np.max(np.abs(score.evaluate(score.theta_hat, jacobian=True)[1] - oracle))
            assert gap <= 1e-8 * np.max(np.abs(oracle)), (exact, gap)

    def test_jacobian_through_expected_treatments_in_every_design(self):
        # Stage-2 adherence and assignment depend on the stage-1 adherence
        # model through EA[1], and a squared A[1] enters the treatment-free
        # model, so every design carries tangents through the chain rule.
        data = _score_dataset("s1")
        specs = (
            StageModelSpec.from_strings("1 + X[1]", "1 + X[1]", "1 + X[1]", "1 + X[1] + Astar[1]"),
            StageModelSpec.from_strings(
                "1 + X[2] + A[1]", "1 + X[1] + A[1] + A[1]*A[1] + X[2]", "1 + X[2] + EA[1]",
                "1 + X[2] + Astar[2] + EA[1]"),
        )
        for exact in (False, True):
            plan = EstimationPlan(specs=specs, mode="modified-prescribed",
                                  adherence=AdherenceSource.fitted(), exact_pseudo_outcomes=exact)
            score = StackedScore(data, plan.estimate(data))
            oracle = numerical_jacobian(lambda t: score.per_individual(t).mean(axis=0),
                                        score.theta_hat)
            gap = np.max(np.abs(score.evaluate(score.theta_hat, jacobian=True)[1] - oracle))
            assert gap <= 1e-8 * np.max(np.abs(oracle)), (exact, gap)

    @pytest.mark.parametrize("scenario, source", [
        ("s3", "fitted"), ("s1", "known-coefficients"), ("s1", "external-stage-2"),
    ])
    def test_slices_lay_out_the_stacked_parameter(self, scenario, source):
        data = _score_dataset(scenario)
        plan = dataclasses.replace(scenario_plan(scenario, "modified-fitted"),
                                   adherence=self.adherence_source(scenario, source, data))
        fit = plan.estimate(data)
        score = StackedScore(data, fit)
        # stage K first; an adherence block only for fitted alpha or a stage
        # whose external coefficients carry a covariance
        stacked_alpha = {"fitted": (1, 2), "known-coefficients": (), "external-stage-2": (2,)}
        assert list(score.slices) == [
            (j, kind) for j in (2, 1)
            for kind in ("treatment_free", "adherence", "assignment", "contrast")
            if kind != "adherence" or j in stacked_alpha[source]
        ]
        index = np.arange(score.size)
        np.testing.assert_array_equal(
            np.concatenate([index[at] for at in score.slices.values()]), index)
        for (j, kind), at in score.slices.items():
            nuisance = fit.nuisance[j - 1]
            expected = {"treatment_free": nuisance["beta"], "assignment": nuisance["gamma"],
                        "contrast": fit.psi[j - 1],
                        "adherence": plan.adherence.coefficients[j - 1]
                        if source != "fitted" else nuisance["alpha"]}[kind]
            np.testing.assert_array_equal(score.theta_hat[at], expected)
        np.testing.assert_array_equal(
            score.psi_index, np.concatenate([index[score.slices[(j, "contrast")]] for j in (1, 2)]))

    def test_one_pass_gives_the_scores_and_the_jacobian(self):
        data = _score_dataset("s3")
        score = StackedScore(data, scenario_plan("s3", "modified-fitted").estimate(data))
        scores, jacobian = score.evaluate(score.theta_hat, jacobian=True)
        np.testing.assert_array_equal(scores, score.per_individual(score.theta_hat))
        np.testing.assert_array_equal(jacobian, score.evaluate(score.theta_hat, jacobian=True)[1])
        assert score.evaluate(score.theta_hat)[1] is None

    def test_a_second_pass_repeats_the_first(self):
        data = _score_dataset("s3")
        score = StackedScore(data, scenario_plan("s3", "modified-fitted").estimate(data))
        first = score.evaluate(score.theta_hat, jacobian=True)
        second = score.evaluate(score.theta_hat, jacobian=True)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_a_stage_system_keeps_each_design_in_its_dict(self):
        """One key, one design: the spec, stage, mode and override.  A key
        that differs in any of them compiles anew; without a dict, every
        request does."""
        data, plan = _score_dataset("s1"), scenario_plan("s1", "modified-fitted")
        spec, designs = parse_feature_spec("1 + X[1] + A[1] + Astar[1]*X[1]"), {}
        system = gest._StageSystem(plan, data, designs)
        form = system.compiled(spec, 2)
        assert system.compiled(parse_feature_spec(str(spec)), 2) is form  # an equal spec
        others = [system.compiled(spec, 1), system.compiled(spec, 2, "use-proxy"),
                  system.compiled(spec, 2, override=(1, 1.0)),
                  system.compiled(spec, 2, override=(1, 0.0)),
                  system.compiled(parse_feature_spec("1 + X[1]"), 2)]
        assert len({id(design) for design in [form, *others]}) == len(designs) == 6
        assert system.compiled(spec, 2, override=(1, 0.0)) is others[3]
        unkept = gest._StageSystem(plan, data)
        assert unkept.compiled(spec, 2) is not unkept.compiled(spec, 2)

    def test_stage_count_must_match_the_fit(self):
        data = _score_dataset("s1")
        fit = scenario_plan("s1", "modified-fitted").estimate(data)
        with pytest.raises(DesignError, match="a 1-stage dataset for a 2-stage fit"):
            StackedScore(first_stages(data, 1), fit)
        with pytest.raises(DesignError, match="a 1-stage dataset for a 2-stage fit"):
            regime_wald_intervals(first_stages(data, 1), fit)


def expected_treatment_specs():
    """s1-style stage models whose stage-2 adherence and assignment designs
    multiply in the stage-1 expected treatment, EA[1]."""
    return (
        StageModelSpec.from_strings("1 + X[1]", "1 + X[1]", "1 + X[1]", "1 + X[1] + Astar[1]"),
        StageModelSpec.from_strings("1 + X[2] + A[1]", "1 + X[1] + A[1] + X[2]",
                                    "1 + X[2] + EA[1]", "1 + X[2] + Astar[2] + EA[1]"),
    )


def relative_gap(got, want):
    """The largest entrywise gap between two arrays, over the largest entry."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestOneDesignLayout:
    """Every design stores each column contiguously within a member, the cut
    validation rows included; the layout moves results only by rounding."""

    PLAN = EstimationPlan(specs=expected_treatment_specs(), mode="modified-prescribed",
                          adherence=AdherenceSource.fitted())

    @staticmethod
    def spied_fits(monkeypatch):
        """The arguments of every ``fit_logistic_batch`` call a fit makes."""
        calls, fit = [], gest.fit_logistic_batch

        def spy(*args):
            calls.append(args)
            return fit(*args)

        monkeypatch.setattr(gest, "fit_logistic_batch", spy)
        return calls

    @pytest.mark.parametrize("stacked", [False, True])
    def test_the_fits_see_column_major_designs(self, monkeypatch, stacked):
        data = _score_dataset("s1")
        rng = np.random.default_rng(5)
        if stacked:
            data = stack_datasets([data, copy_rows(data, rng.permutation(data.n))])
            weights = np.ones((2, data.n))
        else:  # a bootstrap block: shared designs, and per member where EA[1] enters
            weights = rng.integers(0, 3, (3, data.n)).astype(float)
        calls = self.spied_fits(monkeypatch)
        assert all(error is None for _, error in self.PLAN.fit_members(data, weights))
        designs = [call[0] for call in calls]
        cut = [x for x in designs if x.shape[-2] < data.n]  # the validation rows
        assert len(cut) == 2 and len(designs) == 4
        assert {x.ndim for x in designs} == ({3} if stacked else {2, 3})
        for x in designs:
            assert np.swapaxes(x, -1, -2).flags.c_contiguous, (x.shape, x.strides)

    def test_row_major_fits_change_only_rounding(self, monkeypatch):
        data = _score_dataset("s1")
        weights = np.random.default_rng(6).integers(0, 3, (4, data.n)).astype(float)
        weights[3] = 0.0  # a member that fails on every fit
        calls = self.spied_fits(monkeypatch)
        self.PLAN.fit_members(data, weights)
        assert len(calls) == 4
        for design, *rest in calls:
            row_major = np.ascontiguousarray(design)
            assert row_major.flags.c_contiguous and not np.shares_memory(row_major, design)
            got, want = (fit_logistic_batch(x, *rest) for x in (row_major, design))
            np.testing.assert_array_equal(got.iterations, want.iterations)
            assert ([error and (type(error), str(error)) for error in got.errors]
                    == [error and (type(error), str(error)) for error in want.errors])
            assert relative_gap(got.coefficients, want.coefficients) <= 1e-12

    @pytest.mark.parametrize("plan", [PLAN, scenario_plan("s3", "modified-fitted")])
    def test_row_major_designs_change_only_rounding(self, monkeypatch, plan):
        """The whole fit and the sandwich's scores and Jacobian, on C-ordered
        copies of every evaluated design, agree with the column-major run to
        1e-12."""
        data = _score_dataset("s1")
        weights = np.random.default_rng(7).integers(0, 3, (3, data.n)).astype(float)
        fits = plan.fit_members(data, weights)
        fit = plan.estimate(data)
        score = StackedScore(data, fit)
        want = score.evaluate(score.theta_hat, jacobian=True)

        evaluate = CompiledDesign.evaluate
        monkeypatch.setattr(CompiledDesign, "evaluate",
                            lambda form, expected=None: np.ascontiguousarray(
                                evaluate(form, expected)))
        copy = copy_rows(data, np.arange(data.n))
        x = compile_design(plan.specs[0].assignment, copy, 1, "use-proxy").evaluate()
        assert x.flags.c_contiguous and not x.flags.f_contiguous
        for (got, error), (ref, _) in zip(plan.fit_members(copy, weights), fits):
            assert error is None
            assert relative_gap(psi_flat(got), psi_flat(ref)) <= 1e-12
            assert got.diagnostics["adherence_iterations"] == ref.diagnostics[
                "adherence_iterations"]
            assert got.diagnostics["assignment_iterations"] == ref.diagnostics[
                "assignment_iterations"]
        scores, jacobian = StackedScore(copy, fit).evaluate(score.theta_hat, jacobian=True)
        assert relative_gap(scores, want[0]) <= 1e-12
        assert relative_gap(jacobian, want[1]) <= 1e-12


class TestSensitivitySweep:
    def test_true_coefficients_match_known_estimation(self):
        rng = np.random.default_rng(14)
        data = generate_s1(2000, 0.0, rng)
        plan = scenario_plan("s1", "modified-fitted")
        grid = [np.array([-4.6, -0.83, 7.5])]
        ((fit, error),) = sensitivity_sweep(data, plan, grid)
        assert error is None
        known_fit = scenario_plan("s1", "modified-known").estimate(data)
        for a, b in zip(fit.psi, known_fit.psi):
            np.testing.assert_array_equal(a, b)

    def test_perfect_adherence_point_matches_naive(self):
        rng = np.random.default_rng(15)
        data = generate_s1(2000, 0.0, rng)
        plan = scenario_plan("s1", "modified-fitted")
        ((fit, _),) = sensitivity_sweep(data, plan, [np.array([-1000.0, 0.0, 2000.0])])
        naive = scenario_plan("s1", "naive-proxy").estimate(data)
        for a, b in zip(fit.psi, naive.psi):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_five_point_sweep_collects_results(self):
        rng = np.random.default_rng(16)
        data = generate_s1(3000, 0.0, rng)
        plan = scenario_plan("s1", "modified-fitted")
        grid = [np.array([-4.6, -0.83, c]) for c in (5.5, 6.5, 7.5, 8.5, 9.5)]
        points = sensitivity_sweep(data, plan, grid)
        assert len(points) == 5
        assert all(error is None for _, error in points)
        intercepts = [fit.psi[1][0] for fit, _ in points]
        assert len(set(np.round(intercepts, 6))) == 5  # sweep actually moves

    def test_failures_collected_not_fatal(self):
        rng = np.random.default_rng(17)
        data = generate_s1(500, 0.0, rng)
        plan = scenario_plan("s1", "modified-fitted")
        grid = [np.array([0.0, 0.0, 0.0]), np.array([-4.6, -0.83, 7.5])]
        (_, first), (_, second) = sensitivity_sweep(data, plan, grid)
        assert first is not None  # uninformative proxy: singular system
        assert second is None

    def test_standard_plan_rejected(self):
        # a standard mode has no adherence model to pin, so every point would
        # repeat the same fit
        data = generate_s1(200, 0.0, np.random.default_rng(18))
        plan = scenario_plan("s1", "naive-proxy")
        with pytest.raises(ValueError, match="adherence applies to the modified modes only"):
            sensitivity_sweep(data, plan, [np.zeros(3), np.array([-4.6, -0.83, 7.5])])


class TestPositivity:
    def test_counted_in_diagnostics_without_a_warning(self):
        data = generate_s1(60, 1.0, np.random.default_rng(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = scenario_plan("s1", "standard-actual").estimate(data)
        assert fit.diagnostics["positivity_violations"] == [0, 17]


class TestOrderedMap:
    """Worker counts, seen through a stand-in pool that starts no process."""

    @pytest.fixture
    def pools(self, monkeypatch):
        import concurrent.futures

        started = []

        class SpyPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        return started

    @pytest.mark.parametrize("jobs, items, workers", [
        (8, 3, [3]), (2, 5, [2]), (8, 1, []), (4, 0, []), (1, 4, [])])
    def test_no_more_workers_than_items(self, pools, jobs, items, workers):
        assert ordered_map(str, list(range(items)), jobs) == [str(i) for i in range(items)]
        assert pools == workers

    def test_one_replicate_block_runs_in_process(self, pools):
        config = ScenarioConfig(scenario="s1", n=100, replications=5, seed=3, jobs=8,
                                estimators=("naive-proxy",))
        assert run_replications(config).failures == {"naive-proxy": 0}
        assert pools == []


class TestCut:
    """``gest.cut``, the one rule every batch is cut by, over small totals
    and budgets, the non-positive budgets included."""

    def test_fewest_balanced_pieces_in_order(self):
        for total in range(201):
            for size in range(-1, 61):
                pieces = gest.cut(total, size)
                budget = max(1, size)
                assert all(type(piece) is range and piece.step == 1 for piece in pieces)
                assert [i for piece in pieces for i in piece] == list(range(total))
                assert len(pieces) == math.ceil(total / budget)
                lengths = [len(piece) for piece in pieces]
                assert all(length <= budget for length in lengths)
                if total:
                    assert max(lengths) - min(lengths) <= 1
                else:
                    assert pieces == []
