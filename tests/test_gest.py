"""Estimation core: pseudo outcomes, stage solves, adherence fits, full fits."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from dtr_adhere.gest import (
    AdherenceSource,
    EstimationError,
    EstimationPlan,
    SingularSystemError,
    StackedScore,
    StageModelSpec,
    _fit_stages,
    fit_adherence,
    pseudo_outcome,
    pseudo_outcome_exact,
    psi_flat,
    recommend,
    recommendations_matrix,
    sensitivity_sweep,
    validate_stage_models,
)
from dtr_adhere.glm import NonConvergenceError, RankDeficiencyError, expit
from dtr_adhere.inference import numerical_jacobian
from dtr_adhere.model import (
    Dataset,
    DesignError,
    StageRecord,
    Trajectory,
    build_design_matrix,
    parse_feature_spec,
)
from dtr_adhere.simulation import (
    PRESCRIBED_ADHERENCE_COEF,
    generate_s1,
    generate_s3,
    generate_s4,
    known_adherence,
    scenario_models,
    scenario_plan,
)


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
    def test_recovers_s1_mechanism(self):
        rng = np.random.default_rng(20240607)
        data = generate_s1(1000, 0.0, rng, validation_fraction=0.3)
        spec = parse_feature_spec("1 + X[1] + Astar[1]")
        fit = fit_adherence(data, 1, spec, "prescribed")
        design = build_design_matrix(spec, data, 1, "use-proxy", proxy_kind="prescribed")
        x = design[data.validation[:, 0]]
        mu = expit(x @ fit.coefficients)
        se = np.sqrt(np.diag(np.linalg.inv((x * (mu * (1.0 - mu))[:, None]).T @ x)))
        truth = np.array([-4.6, -0.83, 7.5])
        assert np.all(np.abs(fit.coefficients - truth) < 3 * se)

    @staticmethod
    def _perfectly_adhered():
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        astar = rng.binomial(1, 0.5, 200).astype(float)
        return Dataset(
            ids=range(200),
            stage_covariates=[{"X": x}],
            prescribed=[astar],
            actual=[astar.copy()],
            reported=[None],
            validation=np.ones((200, 1), dtype=bool),
            outcome=rng.normal(size=200),
        )

    def test_perfect_adherence_raises_separation(self):
        data = self._perfectly_adhered()
        with pytest.raises(NonConvergenceError):
            fit_adherence(data, 1, parse_feature_spec("1 + X[1] + Astar[1]"), "prescribed")

    def test_failed_adherence_fit_fails_the_estimate_at_its_stage(self):
        spec = StageModelSpec.from_strings("1 + X[1]", "1 + X[1]", "1 + X[1]",
                                           "1 + X[1] + Astar[1]")
        plan = EstimationPlan((spec,), "modified-prescribed", AdherenceSource.fitted())
        with pytest.raises(EstimationError, match=r"^stage 1: adherence model failed: ") as err:
            plan.estimate(self._perfectly_adhered())
        assert err.value.stage == 1

    def test_reported_mechanism_recovery_at_design_points(self):
        rng = np.random.default_rng(11)
        data = generate_s4(40000, 0.0, rng, validation_fraction=0.5)
        spec = parse_feature_spec("1 + X[1] + Astar[1] + X[1]*Astar[1]")
        fit = fit_adherence(data, 1, spec, "reported")

        def bayes(x, rep):
            p = 0.5 + 0.3 * x
            r1 = 0.9 - 0.05 * x
            r0 = 0.05 + 0.045 * x + 0.005 * x * x
            num = p * r1 if rep == 1 else p * (1 - r1)
            den = p * r1 + (1 - p) * r0 if rep == 1 else p * (1 - r1) + (1 - p) * (1 - r0)
            return num / den

        for x in (-1.0, 0.0, 1.0):
            for rep in (0.0, 1.0):
                eta = fit.coefficients @ np.array([1.0, x, rep, x * rep])
                assert abs(expit(eta) - bayes(x, int(rep))) < 0.05

    def test_requires_validation_rows(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=50)
        astar = rng.binomial(1, 0.5, 50).astype(float)
        data = Dataset(
            ids=range(50),
            stage_covariates=[{"X": x}],
            prescribed=[astar],
            actual=[None],
            reported=[None],
            validation=np.zeros((50, 1), dtype=bool),
            outcome=np.zeros(50),
        )
        with pytest.raises(Exception, match="validation"):
            fit_adherence(data, 1, parse_feature_spec("1 + X[1] + Astar[1]"), "prescribed")


def perfect_adherence_dataset(rng, n=400):
    """Random two-stage data where the prescription is always followed."""
    x1 = rng.normal(size=n)
    a1 = rng.binomial(1, expit(0.3 + 0.8 * x1)).astype(float)
    x2 = rng.normal(size=n) + 0.5 * a1
    a2 = rng.binomial(1, expit(-0.2 + 0.6 * x2)).astype(float)
    y = x1 + a1 * (1 + x1) + a2 * (0.5 + x2) + rng.normal(size=n)
    return Dataset(
        ids=range(n),
        stage_covariates=[{"X": x1}, {"X": x2}],
        prescribed=[a1, a2],
        actual=[a1.copy(), a2.copy()],
        reported=[None, None],
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

    def test_reduction_with_probability_function(self):
        rng = np.random.default_rng(77)
        data = perfect_adherence_dataset(rng)
        specs = two_stage_specs()

        def proxy_is_truth(stage, cov, proxy):
            return np.asarray(proxy, dtype=float)

        known = AdherenceSource.known(probability=proxy_is_truth)
        modified = EstimationPlan(specs, "modified-prescribed", known).estimate(data)
        standard = EstimationPlan(specs, "standard-actual").estimate(data)
        for a, b in zip(modified.psi, standard.psi):
            np.testing.assert_allclose(a, b, atol=1e-10)

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

    def test_plan_resolves_proxy_kind(self):
        specs = scenario_models("s4")
        assert EstimationPlan(specs, "modified-reported").proxy_kind == "reported"
        with pytest.raises(ValueError, match="conflicts"):
            EstimationPlan(specs, "modified-reported", proxy_kind="prescribed")
        with pytest.raises(ValueError, match="proxy_kind"):
            EstimationPlan(specs, "standard-naive-proxy", proxy_kind="nope")
        # a standard mode takes the dataset's kind; the fit records it
        data = generate_s4(300, 0.0, np.random.default_rng(0))
        plan = EstimationPlan(specs, "standard-naive-proxy")
        assert plan.proxy_kind is None
        assert plan.estimate(data).plan.proxy_kind == "reported"

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
            ids=range(n),
            stage_covariates=[{"X": xj} for xj in x],
            prescribed=astar,
            actual=actual,
            reported=[None] * 3,
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


class TestRecommend:
    @staticmethod
    def history(x1, prescribed=None, actual=None):
        return Trajectory(
            id="h",
            stages=(StageRecord(covariates={"X": x1}, prescribed=prescribed, actual=actual),),
            outcome=None,
        )

    def fixed_fit(self, psi1):
        rng = np.random.default_rng(10)
        data = generate_s1(400, 0.0, rng)
        plan = scenario_plan("s1", "modified-known")
        fit = plan.estimate(data)
        object.__setattr__(fit, "psi", (np.asarray(psi1, dtype=float), fit.psi[1]))
        return fit

    def test_zero_contrast_is_no_treatment(self):
        fit = self.fixed_fit([0.0, 0.0])
        assert recommend(fit, self.history(3.0, prescribed=1), 1) == 0

    def test_negative_contrast(self):
        fit = self.fixed_fit([1.0, 1.0])
        assert recommend(fit, self.history(-2.0, prescribed=1), 1) == 0
        assert recommend(fit, self.history(0.5, prescribed=1), 1) == 1

    def test_scaling_invariance(self):
        rng = np.random.default_rng(21)
        data = generate_s1(500, 1.0, rng)
        plan = scenario_plan("s1", "modified-known")
        fit = plan.estimate(data)
        doubled = plan.estimate(data)
        object.__setattr__(doubled, "psi", tuple(2.0 * p for p in fit.psi))
        for i in range(25):
            t = data.trajectory(i)
            for stage in (1, 2):
                assert recommend(fit, t, stage) == recommend(doubled, t, stage)

    def test_second_stage_uses_adherence_model(self):
        rng = np.random.default_rng(33)
        data = generate_s1(2000, 1.0, rng)
        plan = scenario_plan("s1", "modified-known")
        fit = plan.estimate(data)
        t = data.trajectory(5)
        out = recommend(fit, t, 2)
        assert out in (0, 1)

    def test_missing_covariate_raises(self):
        fit = self.fixed_fit([1.0, 1.0])
        bad = Trajectory(id="b", stages=(StageRecord(covariates={}),), outcome=None)
        with pytest.raises(DesignError):
            recommend(fit, bad, 1)


class TestRulesMatchMatrix:
    """``recommend`` on one history and ``recommendations_matrix`` on the
    whole dataset evaluate the same rules."""

    CASES = [
        ("s1", "standard-actual"),
        ("s1", "naive-proxy"),
        ("s1", "modified-fitted"),
        ("s1", "modified-known"),  # known coefficients
        ("s4", "standard-actual"),
        ("s4", "modified-fitted"),
        ("s4", "modified-known"),  # known probability function
    ]

    @pytest.mark.parametrize("scenario,estimator", CASES)
    def test_recommend_equals_matrix_row(self, scenario, estimator):
        rng = np.random.default_rng(41)
        generate = generate_s1 if scenario == "s1" else generate_s4
        data = generate(600, 1.0, rng, validation_fraction=0.3)
        fit = scenario_plan(scenario, estimator).estimate(data)
        matrix = recommendations_matrix(fit, data)
        assert matrix.shape == (600, 2)
        for i in range(40):
            history = data.trajectory(i)
            for j in (1, 2):
                assert recommend(fit, history, j) == matrix[i, j - 1]

    @pytest.mark.parametrize("scenario", ["s1", "s4"])
    def test_history_without_proxy_raises(self, scenario):
        rng = np.random.default_rng(42)
        generate = generate_s1 if scenario == "s1" else generate_s4
        data = generate(400, 1.0, rng, validation_fraction=0.3)
        fit = scenario_plan(scenario, "modified-known").estimate(data)
        history = data.trajectory(0)
        stripped = Trajectory(
            id=history.id,
            stages=tuple(StageRecord(covariates=s.covariates, actual=s.actual)
                         for s in history.stages),
        )
        with pytest.raises(DesignError):
            recommend(fit, stripped, 2)


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
        base = scenario_plan(scenario, source if standard else "modified-fitted")
        adherence = base.adherence
        if source == "known":
            adherence = known_adherence(scenario)
        elif source == "external":
            alpha = [nuis["alpha"] for nuis in base.estimate(data).nuisance]
            adherence = AdherenceSource.known(coefficients=alpha)
        plan = EstimationPlan(specs=base.specs, mode=base.mode, adherence=adherence,
                              exact_pseudo_outcomes=exact and not standard)
        score = StackedScore(data, plan.estimate(data))
        assert np.max(np.abs(score.mean(score.theta_hat))) <= 1e-9

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
        if source == "known-probability":
            if scenario == "s4":
                return known_adherence("s4")
            c = PRESCRIBED_ADHERENCE_COEF
            return AdherenceSource.known(
                probability=lambda j, cov, proxy: expit(c[0] + c[1] * cov("X", j) + c[2] * proxy))
        covariance = [np.diag(np.full(a.size, 0.05)) + 0.01 for a in alpha]
        if source == "external-stage-2":
            covariance[0] = None
        return AdherenceSource.known(coefficients=alpha, covariance=covariance)

    @pytest.mark.parametrize("source", [
        "standard-actual", "naive-proxy", "fitted", "known-coefficients", "known-probability",
        "external-stage-2", "external-both-stages",
    ])
    @pytest.mark.parametrize("scenario", ["s1", "s3", "s4"])
    def test_jacobian_matches_central_differences(self, scenario, source):
        data = _score_dataset(scenario)
        standard = source in ("standard-actual", "naive-proxy")
        base = scenario_plan(scenario, source if standard else "modified-fitted")
        for exact in (False,) if standard else (False, True):
            plan = dataclasses.replace(base, exact_pseudo_outcomes=exact)
            if not standard:
                plan = dataclasses.replace(
                    plan, adherence=self.adherence_source(scenario, source, data))
            score = StackedScore(data, plan.estimate(data))
            oracle = numerical_jacobian(score.mean, score.theta_hat)
            gap = np.max(np.abs(score.jacobian(score.theta_hat) - oracle))
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
            oracle = numerical_jacobian(score.mean, score.theta_hat)
            gap = np.max(np.abs(score.jacobian(score.theta_hat) - oracle))
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
        np.testing.assert_array_equal(jacobian, score.jacobian(score.theta_hat))
        assert score.evaluate(score.theta_hat)[1] is None


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
