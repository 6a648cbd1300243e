"""Variance estimation for the stacked estimator and bootstrap intervals.

The sandwich estimator inverts the Jacobian of the mean stacked score as the
bread and uses the mean outer product of per-individual scores as the meat.
For a fitted regime the Jacobian comes in closed form from the same pass of
the stage system that gives the scores, run on row blocks whose meat and
Jacobian are summed, so a sandwich holds one block's scores at any n;
``numerical_jacobian`` (central differences) serves any other estimating
function.  The nonparametric bootstrap resamples whole trajectories as
multinomial frequency weights and refits the entire pipeline, adherence
models included, for a group of replicates at a time (``gest.groups``): one
batched adherence fit per stage, then batched passes of the stage system
(``gest.passes``), each compiling and evaluating its own replicates'
adherence designs.  ``gest.cut`` cuts the row blocks, groups and passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from statistics import NormalDist
from typing import Callable

import numpy as np

from .gest import (MAX_FAILURE_FRACTION, PASS_ROWS, EstimationError, RegimeFit, StackedScore,
                   cut, failure_counts, groups, ordered_map, psi_flat)
from .model import Dataset

# Relative central-difference step of numerical_jacobian.
JACOBIAN_STEP = 1e-6
# Singular values of the Jacobian at or below this fraction of the largest are
# dropped from the bread (``pinv``'s ``rcond``).
BREAD_RCOND = 1e-12
# A sandwich evaluates its (rows, P) scores on row blocks of at most
# SANDWICH_DOUBLES // P rows: 1.6 MB of scores at any n and P.  At P=20 and
# n=50000, blocks of 5000 rows took 28 ms, of 10 000 or 20 000 rows 16-18 ms,
# and 10 000 rows held 4.4 MB at the peak against 7.2 MB.
SANDWICH_DOUBLES = 2 * PASS_ROWS


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
    ``regime_sandwich`` forms the same bread and covariance from sums over
    row blocks.
    """
    scores = np.asarray(scores, dtype=float)
    return _assemble(_gram(scores), scores.shape[0], jacobian)


def _gram(scores: np.ndarray) -> np.ndarray:
    """``scores^T scores``, the meat's sum over the rows of ``scores``."""
    if not np.all(np.isfinite(scores)):
        raise SandwichError("per-individual scores are not finite at theta_hat")
    with np.errstate(over="ignore", invalid="ignore"):  # _assemble fails a gram past range
        return scores.T @ scores


def _assemble(gram: np.ndarray, n: int, jacobian, external=()) -> SandwichResult:
    """The sandwich of ``n`` individuals from the sum of their scores' outer
    products and the Jacobian of the mean score, plus ``B_j Sigma_j B_j^T``
    for each ``(columns, Sigma_j)`` of ``external``, in that order."""
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
    # directions are reported for diagnostics.  A bread (a subnormal Jacobian
    # inverts to inf) or covariance that is not finite fails, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        bread = -np.linalg.pinv(jac, rcond=BREAD_RCOND)
        sigma = bread @ (gram / n) @ bread.T / n
        sigma = 0.5 * (sigma + sigma.T)
        for columns, cov in external:
            b = bread[:, columns]
            sigma = sigma + b @ cov @ b.T
    if not np.all(np.isfinite(bread)):
        raise SandwichError(f"singular bread (condition number {cond:.3g})")
    if not np.all(np.isfinite(sigma)):
        raise SandwichError("sandwich covariance is not finite")
    truncated = int(np.sum(singular <= BREAD_RCOND * singular[0]))
    return SandwichResult(sigma_theta=sigma, sigma_psi=sigma, bread_condition=cond, bread=bread,
                          truncated_directions=truncated)


def regime_sandwich(data: Dataset, fit: RegimeFit) -> SandwichResult:
    """Sandwich covariance for a fitted regime, from the stacked score of
    the system ``fit.plan`` solved on ``data`` and its closed-form Jacobian.

    At fixed theta each individual's score depends on its own row alone, so
    the score and the Jacobian are evaluated on the row blocks that
    ``gest.cut(n, SANDWICH_DOUBLES // P)`` cuts, windows of ``data`` that
    compile their own designs, and summed: the meat from each block's
    ``S_b^T S_b``, the Jacobian from each block's mean weighted by its share
    of the rows.  A sandwich then holds one block's scores, designs and
    tangents, whatever n.  The sums start from the first block, so a dataset
    of one block gets ``sandwich``'s result to the bit; the sums over several
    blocks move it only in the last bits.

    Known adherence coefficients without a covariance are held fixed.  Known
    coefficients with a covariance ``Sigma_j`` are stacked parameters whose
    score holds them at the supplied value; the bread's columns ``B_j`` for
    them give the delta-method term ``B_j Sigma_j B_j^T``, added to the whole
    covariance once.
    """
    stacked = StackedScore(data, fit)
    theta = stacked.theta_hat
    gram = jac = None
    for rows in cut(data.n, SANDWICH_DOUBLES // stacked.size):
        window = data.subset(slice(rows.start, rows.stop))
        scores, mean_jac = StackedScore(window, fit).evaluate(theta, jacobian=True)
        block = _gram(scores), len(rows) / data.n * mean_jac
        del scores  # freed before the next block's pass
        with np.errstate(over="ignore", invalid="ignore"):  # _assemble fails sums past range
            gram, jac = block if gram is None else (gram + block[0], jac + block[1])
    external = [(stacked.slices[(j, "adherence")], stacked.external[j])
                for j in sorted(stacked.external, reverse=True)]  # in theta order, stage K first
    result = _assemble(gram, data.n, jac, external)
    psi = stacked.psi_index
    return replace(result, sigma_psi=result.sigma_theta[np.ix_(psi, psi)])


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


def _bootstrap_group(estimator, data, seed_entropy, replicates):
    """The estimator's ``(estimate, error)`` pairs for a group of replicates,
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
    ``estimator(data, weights)`` maps a (b, n) group of such counts to b
    ``(estimate, error)`` pairs, ``error`` being ``None`` or the estimation
    failure of that replicate (``EstimationPlan.psi_estimator`` refits the
    whole pipeline: one batched adherence fit per stage for the group, then
    batched passes).  Replicates go to the estimator in the groups
    ``gest.groups(n_replicates, data.n)`` cuts, spread over ``jobs`` worker
    processes, so results do not depend on ``jobs``.  Failed
    replicates are dropped and counted by class and stage in
    ``diagnostics["failures"]``; more than ``MAX_FAILURE_FRACTION`` failing is
    an error.
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

    results = [pair for group in ordered_map(partial(_bootstrap_group, estimator, data, seed),
                                             groups(n_replicates, data.n), jobs)
               for pair in group]
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
    flattened contrast parameters (stage 1 first).  The bread's condition
    number keeps only the significant digits rounding leaves it."""
    result = regime_sandwich(data, fit)
    names = [f"psi{j}.{label}" for j, label in fit.parameter_labels()]
    intervals = wald_intervals(psi_flat(fit), result.sigma_psi, level, names=names)
    cond = result.bread_condition
    digits = max(1, int(np.floor(-np.log10(cond * np.finfo(float).eps))))
    return replace(intervals, diagnostics={
        "bread_condition": float(f"{cond:.{digits - 1}e}"),
        "truncated_directions": result.truncated_directions,
    })
