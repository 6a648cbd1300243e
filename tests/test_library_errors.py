"""Each argument check and failure the library raises with a message of its
own, reached through the public call that meets it: the exception's class
and its whole message."""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from dtr_adhere.gest import (AdherenceSource, EstimationError, EstimationPlan, sensitivity_sweep,
                             validate_stage_models)
from dtr_adhere.glm import check_weights, fit_logistic, fit_logistic_batch
from dtr_adhere.inference import (BootstrapError, SandwichError, bootstrap, numerical_jacobian,
                                  regime_sandwich, sandwich, wald_intervals)
from dtr_adhere.model import (DataError, Dataset, DesignError, compile_design,
                              parse_feature_spec)
from dtr_adhere.simulation import (ScenarioConfig, generate_s1, known_adherence, scenario_models,
                                   scenario_plan, scenario_truth)


@cache
def s1():
    return generate_s1(60, 1.0, np.random.default_rng(0))


def rebuilt(**changes) -> Dataset:
    """``s1()``'s columns through ``Dataset(...)``, with ``changes`` made."""
    data, stages = s1(), (1, 2)
    fields = dict(stage_covariates=[{"X": data.covariate("X", j)} for j in stages],
                  proxy=[data.proxy(j) for j in stages], proxy_kind=data.proxy_kind,
                  actual=[data.actual(j) for j in stages], validation=data.validation,
                  outcome=data.outcome)
    return Dataset(**{**fields, **changes})


def with_missing(column) -> np.ndarray:
    """``column`` with its first entry missing."""
    out = np.array(column)
    out[0] = np.nan
    return out


def without_proxy() -> Dataset:
    return rebuilt(proxy=[None, None], proxy_kind=None)


def one_row(**changes) -> Dataset:
    fields = dict(stage_covariates=[{"X": [1.0]}], proxy=[[1.0]], proxy_kind="prescribed",
                  actual=[None], validation=None, outcome=[1.0])
    return Dataset(**{**fields, **changes})


def prescribed_plan(specs=None, **fields) -> EstimationPlan:
    specs = tuple(scenario_models("s1")) if specs is None else specs
    return EstimationPlan(specs=specs, mode="modified-prescribed", **fields)


def with_adherence(text: str) -> tuple:
    """s1's stage models, each stage's adherence spec ``text`` at that stage."""
    return tuple(replace(spec, adherence=None if text is None
                         else parse_feature_spec(text.format(j=j)))
                 for j, spec in enumerate(scenario_models("s1"), start=1))


def known_fit_sandwich(data: Dataset):
    """The sandwich, on ``data``, of a fit to ``s1()`` with known adherence
    coefficients."""
    plan = prescribed_plan(adherence=known_adherence("s1"))
    return regime_sandwich(data, plan.estimate(s1()))


def never_fits(data, weights):
    return [(None, EstimationError("no fit", stage=1))] * len(weights)


def config(**changes) -> ScenarioConfig:
    return ScenarioConfig(**{**dict(scenario="s1", n=10, replications=2, seed=0), **changes})


CASES = {
    # gest
    "stage-count": (lambda: validate_stage_models(scenario_models("s1")[:1], 2),
                    DesignError, "1 stage model specs for a 2-stage dataset"),
    "fitted-with-values": (lambda: AdherenceSource("fitted",
                                                   coefficients=known_adherence("s1").coefficients),
                           ValueError, "fitted adherence carries no fixed values"),
    "known-without-values": (lambda: AdherenceSource("known"), ValueError,
                             "known adherence needs coefficients"),
    "unknown-mode": (lambda: EstimationPlan(specs=tuple(scenario_models("s1")), mode="bogus"),
                     ValueError, "unknown estimation mode 'bogus'"),
    "known-coefficients-missing-proxy": (
        lambda: known_fit_sandwich(rebuilt(proxy=[with_missing(s1().proxy(1)), s1().proxy(2)])),
        DesignError, "prescribed treatment missing at stage 1"),
    "mode-without-proxy": (lambda: scenario_plan("s1", "naive-proxy").estimate(without_proxy()),
                           DataError, "no proxy treatment column available for this mode"),
    "mode-missing-actual": (
        lambda: scenario_plan("s1", "standard-actual").estimate(
            rebuilt(actual=[with_missing(s1().actual(1)), s1().actual(2)], validation=None)),
        DataError, "standard-actual needs the actual treatment; missing at stage 1"),
    "modified-without-source": (lambda: prescribed_plan().estimate(s1()), DataError,
                                "modified modes require an AdherenceSource"),
    "no-adherence-spec": (
        lambda: prescribed_plan(with_adherence(None), adherence=AdherenceSource.fitted())
        .estimate(s1()), DesignError, "no adherence spec at stage 1"),
    "adherence-spec-without-proxy": (
        lambda: prescribed_plan(with_adherence("1 + X[{j}]"), adherence=AdherenceSource.fitted())
        .estimate(s1()), DesignError, "adherence spec at stage 1 must include the stage-1 proxy"),
    "adherence-coefficient-shape": (
        lambda: prescribed_plan(adherence=AdherenceSource.known(
            coefficients=(np.zeros(2), np.zeros(3)))).estimate(s1()),
        DataError, "adherence coefficient vector at stage 1 has shape (2,), spec has 3 terms"),
    "empty-grid": (lambda: sensitivity_sweep(s1(), scenario_plan("s1", "modified-fitted"), []),
                   ValueError, "sensitivity grid is empty"),
    # glm
    "weights-shape": (lambda: check_weights(np.ones(3), (4,)), ValueError,
                      "weights have shape (3,), expected (4,)"),
    "weights-negative": (lambda: check_weights([1.0, -1.0], (2,)), ValueError,
                         "weights must be finite and nonnegative"),
    "response-length": (lambda: fit_logistic(np.ones((4, 1)), np.ones(3)), ValueError,
                        "response length does not match design rows"),
    "batch-response-length": (lambda: fit_logistic_batch(np.ones((4, 1)), np.ones(3),
                                                         np.ones((1, 4))),
                              ValueError, "response length does not match design rows"),
    "batch-response-not-binary": (lambda: fit_logistic_batch(np.ones((4, 1)), np.full(4, 0.5),
                                                             np.ones((1, 4))),
                                  ValueError, "logistic response must be 0/1"),
    # inference
    "jacobian-not-finite": (lambda: numerical_jacobian(lambda t: np.array([np.inf]), [0.0]),
                            SandwichError,
                            "non-finite evaluation while differentiating component 0"),
    "meat-past-the-double-range": (lambda: sandwich(np.full((2, 1), 1e200), np.eye(1)),
                                   SandwichError, "sandwich covariance is not finite"),
    "bread-jacobian-not-finite": (lambda: sandwich(np.ones((2, 1)), [[np.inf]]), SandwichError,
                                  "bread Jacobian is not finite"),
    "bread-not-finite": (lambda: sandwich(np.ones((2, 1)), [[1e-310]]), SandwichError,
                         "singular bread (condition number 1)"),
    "covariance-not-finite": (lambda: sandwich(np.full((4, 2), 1e153), 1e-3 * np.eye(2)),
                              SandwichError, "sandwich covariance is not finite"),
    "wald-level": (lambda: wald_intervals([0.0], [[1.0]], 1.5), ValueError,
                   "confidence level must be in (0, 1)"),
    "wald-negative-variance": (lambda: wald_intervals([0.0], [[-1.0]], 0.95), ValueError,
                               "negative variance diagonal"),
    "bootstrap-replicates": (lambda: bootstrap(s1(), never_fits, 1), ValueError,
                             "bootstrap needs at least 2 replicates"),
    "bootstrap-level": (lambda: bootstrap(s1(), never_fits, 10, level=1.0), ValueError,
                        "confidence level must be in (0, 1)"),
    "bootstrap-point-estimate": (lambda: bootstrap(s1(), never_fits, 10), EstimationError,
                                 "stage 1: no fit"),
    "bootstrap-failures": (lambda: bootstrap(s1(), never_fits, 10, point_estimates=[0.0]),
                           BootstrapError,
                           "10/10 bootstrap replicates failed (first failure: stage 1: no fit)"),
    # model
    "unknown-substitution-mode": (lambda: compile_design(parse_feature_spec("1"), s1(), 1,
                                                         "bogus"),
                                  ValueError, "unknown substitution mode 'bogus'"),
    "no-trajectories": (lambda: one_row(outcome=np.zeros(0)), DataError,
                        "dataset has no trajectories"),
    "no-stages": (lambda: one_row(stage_covariates=[], proxy=[], actual=[]), DataError,
                  "stages must be nonempty"),
    "ragged": (lambda: one_row(stage_covariates=[{"X": [1.0]}, {"Z": [0.0]}], proxy=[None, None],
                               proxy_kind=None, actual=[None, None]),
               DataError, "stage 2 covariate names differ from stage 1; ragged data are rejected"),
    "reserved-name": (lambda: one_row(stage_covariates=[{"A": [1.0]}]), DataError,
                      "covariate name 'A' is reserved"),
    "proxy-length": (lambda: one_row(proxy=[[1.0, 0.0]]), DataError,
                     "prescribed at stage 1 has wrong length"),
    "kind-without-proxy": (lambda: one_row(proxy=[None]), DataError,
                           "proxy_kind 'prescribed' given, but no stage records a proxy"),
    "flags-shape": (lambda: one_row(validation=np.zeros((1, 2), dtype=bool)), DataError,
                    "validation flags must have shape (n, stages), or (b, n, stages) on a stack"),
    "unknown-covariate": (lambda: s1().covariate("Z", 1), DesignError,
                          "unknown covariate 'Z' at stage 1"),
    "stage-out-of-range": (lambda: s1().covariate("X", 3), DesignError,
                           "stage 3 out of range (1..2)"),
    "member-of-unstacked": (lambda: s1().subset(0), DataError,
                            "an integer picks a member of a stacked dataset, "
                            "and this dataset is not stacked"),
    "covariate-beyond-stage": (lambda: parse_feature_spec("X[2]").validate_stage(1), DesignError,
                               "covariate X[2] references stage 2 beyond current stage 1"),
    "treatment-at-stage": (lambda: parse_feature_spec("A[1]").validate_stage(1), DesignError,
                           "treatment reference A[1] is not allowed at stage 1"),
    "design-without-proxy": (lambda: compile_design(parse_feature_spec("Astar[1]"),
                                                    without_proxy(), 1, "use-actual"),
                             DesignError, "no proxy treatment column available"),
    "design-missing-proxy": (
        lambda: compile_design(parse_feature_spec("Astar[1]"),
                               rebuilt(proxy=[with_missing(s1().proxy(1)), s1().proxy(2)]), 1,
                               "use-actual"),
        DesignError, "prescribed treatment missing at stage 1"),
    # simulation
    "generator-fraction": (lambda: generate_s1(10, 0.0, np.random.default_rng(0),
                                               validation_fraction=0.0),
                           ValueError, "validation fraction must be in (0, 1]"),
    "config-replications": (lambda: config(replications=0), ValueError,
                            "replications must be >= 1"),
    "config-n": (lambda: config(n=1), ValueError, "n must be >= 2"),
    "config-fraction": (lambda: config(validation_fraction=1.5), ValueError,
                        "validation fraction must be in (0, 1]"),
    "config-s2-param": (lambda: config(scenario="s2", varied_param=1.0), ValueError,
                        "scenario s2 pins the varied parameter to 0"),
    "models-scenario": (lambda: scenario_models("s9"), ValueError, "unknown scenario 's9'"),
    "truth-scenario": (lambda: scenario_truth("s9", 0.0), ValueError, "unknown scenario 's9'"),
    "adherence-scenario": (lambda: known_adherence("s9"), ValueError, "unknown scenario 's9'"),
    "plan-estimator": (lambda: scenario_plan("s1", "bogus"), ValueError,
                       "unknown estimator 'bogus'"),
}


@pytest.mark.parametrize("case", CASES)
def test_each_error_site_raises_its_class_and_message(case):
    call, kind, message = CASES[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message
