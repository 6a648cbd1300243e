"""Nuisance-model fitting: logistic regression by Newton scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np


# Newton scoring's convergence thresholds and its step limit (see fit_logistic_batch).
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
    out = 0.5 * np.asarray(x, dtype=float)
    if out.ndim == 0:
        return float(0.5 * (1.0 + np.tanh(out)))
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _as_matrix(design) -> np.ndarray:
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return x


def check_weights(weights, shape: tuple) -> np.ndarray:
    """``weights`` as a float array of ``shape``, every entry finite and
    nonnegative; otherwise a ValueError."""
    w = np.asarray(weights, dtype=float)
    if w.shape != shape:
        raise ValueError(f"weights have shape {w.shape}, expected {shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    return w


@np.errstate(over="ignore", invalid="ignore")
def linear(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``x @ coef`` for a shared (n, p) or per-member (b, n, p) design and
    shared (p,) or per-member (b, p) coefficients.  A product past the
    double range is left non-finite, without a warning, as is a design's
    non-finite column at a failed member's zero coefficients: the fits and
    checks that read the result fail on it."""
    if coef.ndim == 1:
        return x @ coef
    if x.ndim == 2:
        return coef @ x.T
    return (x @ coef[..., None])[..., 0]


def _cross(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``x^T v`` per member: (b, p) for a (b, n) ``v`` and a shared or
    per-member design."""
    if x.ndim == 2:
        return v @ x
    return (v[..., None, :] @ x)[..., 0, :]


def _information(x: np.ndarray):
    """``a -> x^T diag(a) x`` per member for (b, n) row weights ``a``.  A
    shared design keeps its row outer products, so each call is one (b, n)
    by (n, p^2) product."""
    p = x.shape[-1]
    if x.ndim == 3:
        return lambda a: np.swapaxes(x * a[..., None], -1, -2) @ x
    xt = np.ascontiguousarray(x.T)
    outer = (xt[:, None, :] * xt[None, :, :]).reshape(p * p, -1).T  # row k: x_k x_k^T
    return lambda a: (a @ outer).reshape(len(a), p, p)


class BatchFit(NamedTuple):
    """Member-wise results of ``fit_logistic_batch``: (b, p) coefficients,
    (b,) Newton iterations and each member's failure, ``None`` for a member
    that converged.  A failed or skipped member's coefficients are zero."""

    coefficients: np.ndarray
    iterations: np.ndarray
    errors: list


def fit_logistic(design, response, weights: Optional[np.ndarray] = None) -> GlmFit:
    """Maximize the weighted Bernoulli log-likelihood by Newton scoring: the
    one-member call of ``fit_logistic_batch``.

    ``weights`` (default 1) must have the response's shape and be finite and
    nonnegative.  Complete separation shows up as non-convergence with a
    diverging coefficient norm and is raised, not silently accepted.
    """
    x = _as_matrix(design)
    y = np.asarray(response, dtype=float)
    if y.shape != (x.shape[0],):
        raise ValueError("response length does not match design rows")
    w = np.ones(y.shape) if weights is None else check_weights(weights, y.shape)
    fit = fit_logistic_batch(x, y, w[None])
    if fit.errors[0] is not None:
        raise fit.errors[0]
    return GlmFit(coefficients=fit.coefficients[0], iterations=int(fit.iterations[0]))


def _cholesky(info: np.ndarray):
    """Cholesky factors of a (b, p, p) stack and a mask of the members whose
    matrix has none (their factor is the identity)."""
    try:
        return np.linalg.cholesky(info), np.zeros(len(info), dtype=bool)
    except np.linalg.LinAlgError:
        chol, bad = np.empty_like(info), np.zeros(len(info), dtype=bool)
        for k, matrix in enumerate(info):
            try:
                chol[k] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                chol[k], bad[k] = np.eye(matrix.shape[0]), True
        return chol, bad


@np.errstate(over="ignore", invalid="ignore")
def fit_logistic_batch(design, response, weights: np.ndarray,
                       active: Optional[np.ndarray] = None) -> BatchFit:
    """Newton scoring for b weighted fits at once.

    ``design`` is (n, p), shared, or (b, n, p); ``response`` is (n,), shared,
    or (b, n); ``weights`` is (b, n), one row per member, finite and
    nonnegative (``check_weights``), and
    ``active`` (b,) marks the members to fit (default all).  Each member
    iterates on its own until the score sup-norm drops below ``SCORE_TOL``
    or the step sup-norm below ``STEP_TOL``, exactly as a fit of the rows
    repeated by their weights would; rows of weight 0 take no part, the
    separation check included, so up to rounding a member's fit does not
    depend on the other members of its block.  A member that fails keeps its
    exception in ``errors`` and the others carry on; one whose score or
    information leaves the double range (covariates near 1e155) fails at
    that iteration, and the fit runs under one ``np.errstate``, so it
    warns of no overflow.

    Each iteration writes into the leading rows of three (b, n) work arrays
    allocated once per call, in the operation order of ``expit`` and of the
    score and information expressions.  The members that stop in an
    iteration are settled together, with one refit of the probabilities of
    those that moved and one separation check; only failures are handled
    one by one.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    w = np.asarray(weights, dtype=float)
    p = x.shape[-1]
    if y.shape[-1:] != x.shape[-2:-1]:
        raise ValueError("response length does not match design rows")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("logistic response must be 0/1")
    b = len(w)
    coefficients, iterations, errors = np.zeros((b, p)), np.zeros(b, dtype=int), [None] * b
    short = w.sum(axis=1) < p
    todo = ~short if active is None else active & ~short
    for i in np.flatnonzero(short if active is None else active & short):
        errors[i] = RankDeficiencyError("fewer rows than columns")
    idx = np.flatnonzero(todo)  # the members still iterating
    if idx.size < b:
        w = w[idx]
        x = x[idx] if x.ndim == 3 else x
        y = y[idx] if y.ndim == 2 else y
    beta = np.zeros((idx.size, p))
    information = _information(x)
    # row k: member idx[k]'s mu; its weighted residual, then its information
    # weights; and 1 - mu
    work = np.empty((3, idx.size, x.shape[-2]))

    for iteration in range(1, MAX_ITER + 1):
        if idx.size == 0:
            break
        mu, r, a = work[:, :idx.size]
        # mu = expit(linear(x, beta)), r = w * (y - mu), then
        # r = w * mu * (1.0 - mu), each in the order of that expression
        if x.ndim == 2:
            np.matmul(beta, x.T, out=mu)
        else:
            np.matmul(x, beta[..., None], out=mu[..., None])
        mu *= 0.5
        np.tanh(mu, out=mu)
        mu += 1.0
        mu *= 0.5
        np.subtract(y, mu, out=r)
        r *= w
        score = _cross(x, r)
        np.multiply(w, mu, out=r)
        np.subtract(1.0, mu, out=a)
        r *= a
        info, norm = information(r), np.abs(score).max(axis=1)
        # A member whose score or information sums past the double range
        # stops and fails; one finite sum clears every member at once.
        lost = np.zeros(idx.size, dtype=bool)
        if not math.isfinite(np.add.reduce(info, axis=None) + np.add.reduce(norm)):
            lost = ~np.isfinite(np.add.reduce(info, axis=(1, 2)) + norm)
            info[lost] = np.eye(p)  # a placeholder to factor
        chol, singular = _cholesky(info)
        singular |= lost
        stop = singular | (norm < SCORE_TOL)
        if stop.all():
            step = np.zeros_like(beta)
        else:
            # through the factor, which exists for every member; a numerically
            # singular information matrix gives a huge step, not an error
            inverse = np.linalg.inv(chol)
            step = (np.swapaxes(inverse, -1, -2) @ (inverse @ score[..., None]))[..., 0]
            step[stop] = 0.0
        beta += step
        diverged = np.abs(beta).max(axis=1) > 1e6
        done = stop | diverged | (np.abs(step).max(axis=1) < STEP_TOL)
        if not done.any():
            continue
        iterations[idx[done]] = iteration
        # A member that stops unmoved keeps its last mu.  One that converged
        # fails if it classifies every row of positive weight perfectly: the
        # likelihood has no interior maximum, the coefficients are off to
        # infinity.  A singular or diverged member fails before this check.
        moved = ~stop
        refit = done & moved & ~diverged
        if refit.any():
            mu[refit] = expit(linear(x[refit] if x.ndim == 3 else x, beta[refit]))
        separated = np.zeros_like(done)
        separated[done] = np.max(np.abs((y[done] if y.ndim == 2 else y) - mu[done])
                                 * (w[done] > 0.0), axis=1, initial=0.0) < 1e-4
        converged = done & ~singular & ~(moved & diverged) & ~separated
        coefficients[idx[converged]] = beta[converged]
        for k in np.flatnonzero(done & ~converged):
            if lost[k]:
                error = NonConvergenceError(
                    f"logistic fit's score or information is not finite at iteration {iteration}")
            elif singular[k]:
                error = RankDeficiencyError("rank-deficient working matrix in logistic fit")
            elif moved[k] and diverged[k]:
                error = NonConvergenceError(
                    f"diverging logistic coefficients (norm {np.linalg.norm(beta[k]):.3g}; "
                    "possible separation)")
            else:
                error = NonConvergenceError(
                    "complete separation in logistic fit "
                    f"(coefficient norm {np.linalg.norm(beta[k]):.3g})")
            errors[idx[k]] = error
        if done.all():
            break
        keep = ~done
        idx, w, beta = idx[keep], w[keep], beta[keep]
        y = y[keep] if y.ndim == 2 else y
        if x.ndim == 3:
            x = x[keep]
            information = _information(x)
    else:  # MAX_ITER iterations and some members still moving
        iterations[idx] = MAX_ITER
        for k, i in enumerate(idx):
            errors[i] = NonConvergenceError(
                f"logistic fit did not converge in {MAX_ITER} iterations "
                f"(coefficient norm {np.linalg.norm(beta[k]):.3g}; possible separation)")
    return BatchFit(coefficients, iterations, errors)
