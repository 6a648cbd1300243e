"""Nuisance-model fitting: logistic regression by Newton scoring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


# Newton scoring's convergence thresholds and its step limit (see fit_logistic).
MAX_ITER = 100
SCORE_TOL = 1e-8
STEP_TOL = 1e-10


class RankDeficiencyError(ValueError):
    """Design (or working) matrix does not have full column rank."""


class NonConvergenceError(RuntimeError):
    """Iterative fit failed to meet its convergence criteria."""


@dataclass(frozen=True)
class GlmFit:
    coefficients: np.ndarray
    iterations: int


def expit(x):
    """Inverse logit, 1 / (1 + exp(-x)), as 0.5 * (1 + tanh(x / 2)).

    Saturates to 0.0 / 1.0 in floating point for large |x|; never overflows.
    """
    out = 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))
    if out.ndim == 0:
        return float(out)
    return out


def _as_matrix(design) -> np.ndarray:
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return x


def fit_logistic(design, response, weights: Optional[np.ndarray] = None) -> GlmFit:
    """Maximize the weighted Bernoulli log-likelihood by Newton scoring.

    Converged when the score sup-norm drops below ``SCORE_TOL`` or the
    parameter step sup-norm below ``STEP_TOL``.  Complete separation shows up
    as non-convergence with a diverging coefficient norm and is raised, not
    silently accepted.
    """
    x = _as_matrix(design)
    y = np.asarray(response, dtype=float)
    n, p = x.shape
    if y.shape != (n,):
        raise ValueError("response length does not match design rows")
    if n < p:
        raise RankDeficiencyError("fewer rows than columns")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("logistic response must be 0/1")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")

    def finish(beta, iteration):
        mu = expit(x @ beta)
        if np.max(np.abs(y - mu)) < 1e-4:
            # every observation classified perfectly: the likelihood has no
            # interior maximum and the coefficients are off to infinity
            raise NonConvergenceError(
                "complete separation in logistic fit "
                f"(coefficient norm {np.linalg.norm(beta):.3g})"
            )
        return GlmFit(coefficients=beta, iterations=iteration)

    beta = np.zeros(p)
    for iteration in range(1, MAX_ITER + 1):
        mu = expit(x @ beta)
        score = x.T @ (w * (y - mu))
        working = w * mu * (1.0 - mu)
        info = (x * working[:, None]).T @ x
        try:
            chol = np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(
                "rank-deficient working matrix in logistic fit"
            ) from None
        if np.max(np.abs(score)) < SCORE_TOL:
            return finish(beta, iteration)
        step = np.linalg.solve(chol.T, np.linalg.solve(chol, score))
        beta = beta + step
        if np.max(np.abs(beta)) > 1e6:
            raise NonConvergenceError(
                f"diverging logistic coefficients (norm {np.linalg.norm(beta):.3g}; "
                "possible separation)"
            )
        if np.max(np.abs(step)) < STEP_TOL:
            return finish(beta, iteration)
    raise NonConvergenceError(
        f"logistic fit did not converge in {MAX_ITER} iterations "
        f"(coefficient norm {np.linalg.norm(beta):.3g}; possible separation)"
    )
