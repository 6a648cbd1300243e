"""Variance estimation for the stacked estimator and bootstrap intervals.

The sandwich estimator inverts the Jacobian of the mean stacked score as the
bread and uses the mean outer product of per-individual scores as the meat.
For a fitted regime the Jacobian comes in closed form from the same pass of
the stage system that gives the scores; ``numerical_jacobian`` (central
differences) serves any other estimating function.  The nonparametric
bootstrap resamples whole trajectories as multinomial frequency weights and
refits the entire pipeline, adherence models included, for a fixed-size block
of replicates at a time: one batched pass of the stage system per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from statistics import NormalDist
from typing import Callable

import numpy as np

from .gest import (MAX_FAILURE_FRACTION, EstimationError, RegimeFit, StackedScore,
                   failure_counts, ordered_map, psi_flat)
from .model import Dataset

# Relative central-difference step of numerical_jacobian.
JACOBIAN_STEP = 1e-6
# Singular values of the Jacobian at or below this fraction of the largest are
# dropped from the bread (``pinv``'s ``rcond``).
BREAD_RCOND = 1e-12
# Bootstrap replicates per call of the estimator.  Fixed, so that which
# replicates share a batched pass, and so every result, never depends on jobs.
BOOTSTRAP_BLOCK = 20


class SandwichError(EstimationError):
    """Sandwich assembly failed (non-finite scores or singular bread)."""


class BootstrapError(RuntimeError):
    """Too many bootstrap replicates failed to refit."""


@dataclass(frozen=True)
class SandwichResult:
    sigma_theta: np.ndarray
    sigma_psi: np.ndarray
    bread_condition: float
    bread: np.ndarray
    truncated_directions: int  # Jacobian directions the bread's pinv dropped


@dataclass(frozen=True)
class IntervalSet:
    names: tuple
    lower: np.ndarray
    estimate: np.ndarray
    upper: np.ndarray
    level: float
    method: str  # "wald-sandwich" | "bootstrap-percentile"
    n_failed: int = 0
    diagnostics: dict = field(default_factory=dict)  # written beside the intervals

    def rows(self) -> list:
        return [
            {
                "parameter": name,
                "lower": float(lo),
                "estimate": float(est),
                "upper": float(hi),
            }
            for name, lo, est, hi in zip(self.names, self.lower, self.estimate, self.upper)
        ]


def numerical_jacobian(f: Callable, theta) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function.

    Column k uses step ``h = JACOBIAN_STEP * max(1, |theta_k|)``.  ``f`` is
    never evaluated at ``theta`` itself.
    """
    theta = np.asarray(theta, dtype=float)
    columns = []
    for k in range(theta.shape[0]):
        h = JACOBIAN_STEP * max(1.0, abs(theta[k]))
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        f_up = np.asarray(f(up), dtype=float)
        f_down = np.asarray(f(down), dtype=float)
        if not (np.all(np.isfinite(f_up)) and np.all(np.isfinite(f_down))):
            raise SandwichError(f"non-finite evaluation while differentiating component {k}")
        columns.append((f_up - f_down) / (2.0 * h))
    return np.column_stack(columns)


def sandwich(scores, jacobian) -> SandwichResult:
    """Sandwich covariance for a stacked estimating equation.

    ``scores`` is the (n, P) matrix of per-individual score contributions at
    the estimate and ``jacobian`` the P x P derivative of their mean there.
    The bread inverts the Jacobian; the meat is the mean outer product of the
    scores; the result carries the 1/n finite-sample scaling.  A generic
    estimating function can supply ``numerical_jacobian(mean_score, theta)``.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise SandwichError("per-individual scores are not finite at theta_hat")
    n = scores.shape[0]
    jac = np.asarray(jacobian, dtype=float)
    if not np.all(np.isfinite(jac)):
        raise SandwichError("bread Jacobian is not finite")
    singular = np.linalg.svd(jac, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = float(singular[0] / singular[-1])  # as np.linalg.cond computes it
    if not np.isfinite(cond):
        raise SandwichError("bread Jacobian is singular")
    # A quasi-separated nuisance fit (e.g. an adherence model with a pure
    # validation cell) leaves an information-free direction in the bread.
    # Invert through a truncated SVD so dead directions are pinned instead of
    # exploding; the raw condition number and the number of pinned
    # directions are reported for diagnostics.
    bread = -np.linalg.pinv(jac, rcond=BREAD_RCOND)
    if not np.all(np.isfinite(bread)):
        raise SandwichError(f"singular bread (condition number {cond:.3g})")
    truncated = int(np.sum(singular <= BREAD_RCOND * singular[0]))
    meat = scores.T @ scores / n
    sigma = bread @ meat @ bread.T / n
    sigma = 0.5 * (sigma + sigma.T)
    return SandwichResult(sigma_theta=sigma, sigma_psi=sigma, bread_condition=cond, bread=bread,
                          truncated_directions=truncated)


def regime_sandwich(data: Dataset, fit: RegimeFit) -> SandwichResult:
    """Sandwich covariance for a fitted regime, from the stacked score of
    the system ``fit.plan`` solved on ``data`` and its closed-form Jacobian,
    both from one pass.

    Known adherence coefficients without a covariance are held fixed.  Known
    coefficients with a covariance ``Sigma_j`` are stacked parameters whose
    score holds them at the supplied value; the bread's columns ``B_j`` for
    them give the delta-method term ``B_j Sigma_j B_j^T``, added to the whole
    covariance.
    """
    stacked = StackedScore(data, fit)
    result = sandwich(*stacked.evaluate(stacked.theta_hat, jacobian=True))
    sigma = result.sigma_theta
    for j in sorted(stacked.external, reverse=True):  # in theta order, stage K first
        b = result.bread[:, stacked.slices[(j, "adherence")]]
        sigma = sigma + b @ stacked.external[j] @ b.T
    psi = stacked.psi_index
    return replace(result, sigma_theta=sigma, sigma_psi=sigma[np.ix_(psi, psi)])


def wald_intervals(psi_hat, sigma_psi, level: float, names=None) -> IntervalSet:
    """Normal-quantile intervals psi_k +/- z * sqrt(Sigma_kk)."""
    if not (0.0 < level < 1.0):
        raise ValueError("confidence level must be in (0, 1)")
    psi_hat = np.asarray(psi_hat, dtype=float)
    diag = np.diag(np.asarray(sigma_psi, dtype=float))
    if np.any(diag < 0):
        raise ValueError("negative variance diagonal")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * np.sqrt(diag)
    if names is None:
        names = tuple(f"psi[{i}]" for i in range(psi_hat.shape[0]))
    return IntervalSet(
        names=tuple(names),
        lower=psi_hat - half,
        estimate=psi_hat.copy(),
        upper=psi_hat + half,
        level=level,
        method="wald-sandwich",
    )


def _bootstrap_block(estimator, data, seed_entropy, replicates):
    """The estimator's ``(estimate, error)`` pairs for a block of replicates,
    each a resample of the rows given as counts."""
    counts = np.empty((len(replicates), data.n))
    for row, replicate in zip(counts, replicates):
        child = np.random.SeedSequence(entropy=seed_entropy, spawn_key=(replicate,))
        idx = np.random.default_rng(child).integers(0, data.n, size=data.n)
        row[:] = np.bincount(idx, minlength=data.n)
    return estimator(data, counts)


def bootstrap(
    data: Dataset,
    estimator: Callable[[Dataset, np.ndarray], list],
    n_replicates: int,
    level: float = 0.95,
    seed: int = 0,
    *,
    names=None,
    point_estimates=None,
    jobs: int = 1,
) -> IntervalSet:
    """Percentile bootstrap over trajectories.

    Replicate ``r`` resamples the individuals with replacement from a stream
    spawned from ``seed`` by ``r`` and hands the resample to ``estimator`` as
    frequency weights: the number of times each row was drawn.
    ``estimator(data, weights)`` maps a (b, n) block of such counts to b
    ``(estimate, error)`` pairs, ``error`` being ``None`` or the estimation
    failure of that replicate (``EstimationPlan.psi_estimator`` refits the
    whole pipeline in one batched pass).  Replicates go to the estimator in
    blocks of ``BOOTSTRAP_BLOCK``, spread over ``jobs`` worker processes, so
    results do not depend on ``jobs``.  Failed replicates are dropped and
    counted by class and stage in ``diagnostics["failures"]``; more than
    ``MAX_FAILURE_FRACTION`` failing is an error.
    """
    if n_replicates < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    if not (0.0 < level < 1.0):
        raise ValueError("confidence level must be in (0, 1)")
    if point_estimates is None:
        ((point_estimates, error),) = estimator(data, np.ones((1, data.n)))
        if error is not None:
            raise error
    point_estimates = np.asarray(point_estimates, dtype=float)

    blocks = [range(start, min(start + BOOTSTRAP_BLOCK, n_replicates))
              for start in range(0, n_replicates, BOOTSTRAP_BLOCK)]
    results = [pair for block in ordered_map(partial(_bootstrap_block, estimator, data, seed),
                                             blocks, jobs)
               for pair in block]
    draws = [est for est, err in results if err is None]
    n_failed = n_replicates - len(draws)
    if n_failed > MAX_FAILURE_FRACTION * n_replicates:
        first = next(err for _, err in results if err is not None)
        raise BootstrapError(
            f"{n_failed}/{n_replicates} bootstrap replicates failed "
            f"(first failure: {first})"
        )
    stack = np.vstack(draws)
    alpha = 1.0 - level
    lower = np.quantile(stack, alpha / 2.0, axis=0)
    upper = np.quantile(stack, 1.0 - alpha / 2.0, axis=0)
    if names is None:
        names = tuple(f"psi[{i}]" for i in range(point_estimates.shape[0]))
    return IntervalSet(
        names=tuple(names),
        lower=lower,
        estimate=point_estimates,
        upper=upper,
        level=level,
        method="bootstrap-percentile",
        n_failed=n_failed,
        diagnostics={"failures": failure_counts(err for _, err in results)},
    )


def regime_wald_intervals(data: Dataset, fit: RegimeFit, level: float = 0.95) -> IntervalSet:
    """Convenience wrapper: sandwich covariance then Wald intervals for the
    flattened contrast parameters (stage 1 first)."""
    result = regime_sandwich(data, fit)
    names = [f"psi{j}.{label}" for j, label in fit.parameter_labels()]
    intervals = wald_intervals(psi_flat(fit), result.sigma_psi, level, names=names)
    return replace(intervals, diagnostics={
        "bread_condition": result.bread_condition,
        "truncated_directions": result.truncated_directions,
    })
