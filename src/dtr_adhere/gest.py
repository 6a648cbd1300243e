"""Estimation of optimal multi-stage treatment rules from proxy-recorded data.

Backward induction over stages: at each stage a logistic model for treatment
receipt (assignment) and, in the proxy-corrected modes, a logistic model for
the probability the treatment was actually taken given the recorded proxy
(adherence) are fitted first; the contrast parameters and a least-squares
treatment-free regression then solve one stacked linear system jointly.
Pseudo outcomes carry each solved stage's contribution backward.

Four modes are supported:

* ``standard-actual``        -- estimating equations on the actual treatments;
* ``standard-naive-proxy``   -- the recorded proxy treated as if it were true;
* ``modified-prescribed``    -- correction for prescribed-treatment proxies;
* ``modified-reported``      -- the same correction for reported treatments.

The corrected modes residualize the proxy against its own assignment model and
weight contrasts by the adherence probability, so the solved parameters target
the effect of treatment actually taken rather than of its proxy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .glm import (BatchFit, NonConvergenceError, RankDeficiencyError, check_weights, expit,
                  fit_logistic,  # unused; perfbench's test_install_wraps_every_binding_and_restores
                  fit_logistic_batch, linear)
from .model import (
    Dataset,
    DataError,
    DesignError,
    FeatureSpec,
    MODE_USE_ACTUAL,
    MODE_USE_EXPECTED,
    MODE_USE_PROXY,
    CompiledDesign,
    TreatmentRef,
    build_design_matrix,  # unused; that perfbench test asserts both bindings
    compile_design,
    parse_feature_spec,
)

# How each estimation mode resolves a treatment reference ``A[j]``.
_SUBSTITUTION = {
    "standard-actual": MODE_USE_ACTUAL,
    "standard-naive-proxy": MODE_USE_PROXY,
    "modified-prescribed": MODE_USE_EXPECTED,
    "modified-reported": MODE_USE_EXPECTED,
}
MODES = tuple(_SUBSTITUTION)
# The proxy kind each corrected mode is built for; the standard modes take
# the dataset's proxy, whatever its kind.
MODE_PROXY_KIND = {"modified-prescribed": "prescribed", "modified-reported": "reported"}
# The modes that read no proxy: those that substitute the actual treatment.
PROXY_FREE_MODES = frozenset(mode for mode, use in _SUBSTITUTION.items() if use == MODE_USE_ACTUAL)

CONDITION_LIMIT = 1e12
POSITIVITY_EPS = 1e-12
# A condition number at or beyond 1/eps has no significant digit left.
_NOISE_CONDITION = 1.0 / np.finfo(float).eps


class EstimationError(RuntimeError):
    """Stage-level estimation failure; carries the 1-based stage index."""

    def __init__(self, message: str, stage: Optional[int] = None):
        if stage is not None:
            message = f"stage {stage}: {message}"
        super().__init__(message)
        self.stage = stage


class SingularSystemError(EstimationError):
    """The stage linear system is singular or numerically unusable."""


# Every way an estimation can fail on data it accepts.  The replication,
# bootstrap and sweep loops tally these and let any other exception (a
# programming error) propagate.  inference.SandwichError is an EstimationError.
ESTIMATION_FAILURES = (EstimationError, NonConvergenceError, RankDeficiencyError,
                       DataError, DesignError, np.linalg.LinAlgError)
# The share of bootstrap or simulation replicates that may fail before the
# whole run is an error.
MAX_FAILURE_FRACTION = 0.05


def tally(fn, *args):
    """``(fn(*args), None)``, or ``(None, error)`` when the call fails with
    one of ESTIMATION_FAILURES; any other exception propagates."""
    try:
        return fn(*args), None
    except ESTIMATION_FAILURES as err:
        return None, err


def failure_counts(errors) -> list:
    """Failures counted by exception class and stage (``None`` for a failure
    tied to no stage), as ``{"class", "stage", "count"}`` records sorted by
    class and then stage; ``None`` entries are successes and are skipped."""
    counts = Counter((type(err).__name__, getattr(err, "stage", None))
                     for err in errors if err is not None)
    return [{"class": name, "stage": stage, "count": count}
            for (name, stage), count in sorted(counts.items(),
                                               key=lambda item: (item[0][0], item[0][1] or 0))]


def ordered_map(fn, items, jobs: int) -> list:
    """``list(map(fn, items))``, spread over ``min(jobs, len(items))`` worker
    processes when that is above 1; the results keep the input order either
    way.  No more workers than items: a fork pool starts all of them at once."""
    workers = min(jobs, len(items))
    if workers <= 1:
        return list(map(fn, items))
    # Imported here: the process pool pulls in multiprocessing, socket and
    # subprocess, which every start-up would otherwise pay for.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# A batched pass of bootstrap resamples or simulation replicates holds up to
# PASS_MEMBERS members of n rows each and, once n exceeds PASS_ROWS /
# PASS_MEMBERS, about PASS_ROWS rows in all: its (b, n) arrays then stay near
# one size at any n, while a pass keeps members enough to spread its fixed
# per-pass work (one member a pass was 20% slower at n=50000).  A bootstrap
# group, the resamples whose adherence models share one Newton loop per
# stage, is cut by rows alone: its (b, n) weights, and the probabilities of a
# stage a later adherence design reads, are held through its passes.
# ``cut`` balances every batch within its budget.
PASS_MEMBERS = 20
PASS_ROWS = 100_000


def cut(total: int, size: int) -> list:
    """``range(total)`` as the fewest consecutive ranges of at most
    ``max(1, size)`` members, their sizes differing by at most one: no small
    tail repeats a batch's fixed cost.  Every batch in the package is cut so."""
    count = -(-total // max(1, size))
    return [range(i * total // count, (i + 1) * total // count) for i in range(count)]


def passes(total: int, n: int) -> list:
    """``range(total)`` cut into batched passes of at most
    ``min(PASS_MEMBERS, PASS_ROWS // n)`` members (at least one).  The cut
    depends on ``total`` and ``n`` alone, so which members share a pass, and
    so every result, never depends on ``jobs``."""
    return cut(total, min(PASS_MEMBERS, PASS_ROWS // n))


def groups(total: int, n: int) -> list:
    """``range(total)`` cut into bootstrap groups of at most
    ``PASS_ROWS // n`` members (at least one): a group is a pass at
    n >= PASS_ROWS / PASS_MEMBERS, and several passes below.  Like
    ``passes``, the cut depends on ``total`` and ``n`` alone."""
    return cut(total, PASS_ROWS // n)


# ---------------------------------------------------------------------------
# Specifications


@dataclass(frozen=True)
class StageModelSpec:
    """Feature specs for the four per-stage models.

    The contrast and treatment-free specs may reference past treatments only;
    the contrast is multiplied by the current treatment externally.  The
    adherence spec conditions on the recorded proxy, so it must reference the
    current stage's treatment.
    """

    contrast: FeatureSpec
    treatment_free: FeatureSpec
    assignment: FeatureSpec
    adherence: Optional[FeatureSpec] = None

    @classmethod
    def from_strings(cls, contrast, treatment_free, assignment, adherence=None):
        return cls(
            contrast=parse_feature_spec(contrast),
            treatment_free=parse_feature_spec(treatment_free),
            assignment=parse_feature_spec(assignment),
            adherence=None if adherence is None else parse_feature_spec(adherence),
        )


def validate_stage_models(specs: Sequence[StageModelSpec], n_stages: int) -> None:
    if len(specs) != n_stages:
        raise DesignError(
            f"{len(specs)} stage model specs for a {n_stages}-stage dataset"
        )
    for j, spec in enumerate(specs, start=1):
        spec.contrast.validate_stage(j, allow_current_treatment=False)
        spec.treatment_free.validate_stage(j, allow_current_treatment=False)
        # An assignment model may condition on the current stage's proxy
        # (e.g. the prescription precedes the treatment actually taken).
        spec.assignment.validate_stage(j, allow_current_treatment=True)
        if spec.adherence is not None:
            spec.adherence.validate_stage(j, allow_current_treatment=True)


@dataclass(frozen=True)
class AdherenceSource:
    """How the probability of actual treatment given history and proxy is obtained.

    ``fitted`` estimates it by logistic regression on validation rows;
    ``known`` supplies it outright, as fixed coefficients for the stage
    adherence specs, so a known probability is logistic in its spec's terms.
    Fixed coefficients may carry a covariance per stage, which the sandwich
    adds to the contrast variance; without one they are held fixed.
    """

    kind: str
    coefficients: Optional[tuple] = None
    covariance: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "fitted":
            if self.coefficients is not None:
                raise ValueError("fitted adherence carries no fixed values")
        elif self.kind == "known":
            if self.coefficients is None:
                raise ValueError("known adherence needs coefficients")
        else:
            raise ValueError(f"unknown adherence source kind '{self.kind}'")
        coefficients = self.coefficients or ()
        if not all(np.all(np.isfinite(coef)) for coef in coefficients):
            raise ValueError("adherence coefficients must be finite")
        if self.covariance is not None and self.coefficients is None:
            raise ValueError("only adherence coefficients take a covariance")
        # Each covariance entry is None or a finite, symmetric, positive
        # semidefinite matrix sized to its stage's coefficient vector.
        covariance = self.covariance or ()
        if len(covariance) > len(coefficients):
            raise ValueError(f"{len(covariance)} adherence covariance entries for "
                             f"{len(coefficients)} coefficient vectors")
        for j, (cov, coef) in enumerate(zip(covariance, coefficients), start=1):
            if cov is None:
                continue
            size = coef.size
            tol = 1e-12 * np.max(np.abs(cov), initial=0.0)
            if (cov.shape != (size, size) or not np.all(np.isfinite(cov))
                    or np.any(np.abs(cov - cov.T) > tol)):
                raise ValueError(f"adherence covariance at stage {j} must be a finite, "
                                 f"symmetric {size}x{size} matrix")
            if np.linalg.eigvalsh(cov)[0] < -tol:
                raise ValueError(f"adherence covariance at stage {j} is not positive semidefinite")

    @classmethod
    def fitted(cls):
        return cls(kind="fitted")

    @classmethod
    def known(cls, coefficients=None, covariance=None):
        return cls(
            kind="known",
            coefficients=_coef_tuple(coefficients),
            covariance=None
            if covariance is None
            else tuple(None if c is None else np.asarray(c, dtype=float) for c in covariance),
        )


def _coef_tuple(coefficients):
    if coefficients is None:
        return None
    return tuple(np.asarray(c, dtype=float) for c in coefficients)


# ---------------------------------------------------------------------------
# Pseudo outcomes


def pseudo_outcome(v_next, a_opt, weight, contrast):
    """Next-stage pseudo outcome plus the regret ``(a_opt - weight) * contrast``.

    ``weight`` is the treatment taken in the standard modes; in the corrected
    modes the adherence probability stands in for that unobserved indicator.
    """
    return v_next + (np.asarray(a_opt, dtype=float) - weight) * contrast


def pseudo_outcome_exact(v_next, pi_prev, contrast_when_treated, contrast_when_untreated):
    """Pseudo-outcome increment averaging the optimal-rule payoff over the
    unobserved lagged treatment.

    Adds ``pi_prev * I{C(1)>0} C(1) + (1 - pi_prev) * I{C(0)>0} C(0)`` where
    ``C(a)`` is the contrast with the lagged treatment pinned to ``a``.
    """
    c1 = np.asarray(contrast_when_treated, dtype=float)
    c0 = np.asarray(contrast_when_untreated, dtype=float)
    gain1 = np.where(c1 > 0.0, c1, 0.0)
    gain0 = np.where(c0 > 0.0, c0, 0.0)
    return v_next + pi_prev * gain1 + (1.0 - np.asarray(pi_prev, dtype=float)) * gain0


# ---------------------------------------------------------------------------
# The stage solve and the adherence fit


class _StageSolve(NamedTuple):
    """One stage solved for a block of members: (b, q) contrast and (b, r)
    treatment-free coefficients, the (b,) condition numbers of the contrast
    blocks and of the joint systems, and each member's failure (``None``
    when it solved)."""

    psi: np.ndarray
    beta: np.ndarray
    cond: np.ndarray
    joint_cond: np.ndarray
    errors: list


def _fit_stages(lam, tf_design, treatment, assignment_prob, weight, v_next, weights,
                active, *, stage: int) -> _StageSolve:
    """Solve one stage's stacked [treatment-free; contrast] equations jointly,
    for each member of a block.

    With ``e = treatment - assignment_prob``, ``w`` the contrast weight (the
    adherence probability, or the treatment itself in the uncorrected modes)
    and ``U`` a member's row weights, the rows are the treatment-free normal
    equations ``T^T U (v - w * lam psi - T beta) = 0`` and the contrast
    equations ``lam^T U e (v - w * lam psi - T beta) = 0``.  Designs are
    shared (n, p) or per member (b, n, p), the n-vectors (n,) or (b, n), and
    ``weights`` is (b, n); ``active`` marks the members to solve.  Each
    member is checked as a fit of its rows repeated by their weights would
    be: the contrast block's condition, the rank of the treatment-free design
    over the rows it weights, and the joint condition.
    """
    b, n = weights.shape
    p_tf, p_psi = tf_design.shape[-1], lam.shape[-1]
    ue = weights * (treatment - assignment_prob)
    weight, v_next = np.asarray(weight, dtype=float), np.asarray(v_next, dtype=float)

    def member(a, i, shared=2):
        return a if a.ndim == shared else a[i]

    # Member by member, so no (b, p, n) temporary: joint = left [T, w lam]
    # and rhs = left v, with left's rows [u T, u e lam].  A member already
    # lost is not summed (its sums may leave the double range) and solves
    # the placeholder system I x = 0.  Sums past the double range are left
    # non-finite, without a warning: a member whose system is not finite
    # fails below, and one whose outcome sums are not fails on its pseudo
    # outcomes.
    joint = np.broadcast_to(np.eye(p_tf + p_psi), (b, p_tf + p_psi, p_tf + p_psi)).copy()
    rhs = np.zeros((b, p_tf + p_psi))
    left = np.empty((p_tf + p_psi, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in np.flatnonzero(active):
            tf_i, lam_i = member(tf_design, i), member(lam, i)
            np.multiply(tf_i.T, weights[i], out=left[:p_tf])
            np.multiply(lam_i.T, ue[i], out=left[p_tf:])
            joint[i, :, :p_tf] = left @ tf_i
            rhs[i] = left @ member(v_next, i, shared=1)
            left *= member(weight, i, shared=1)
            joint[i, :, p_tf:] = left @ lam_i
    finite = np.isfinite(joint).all(axis=(1, 2))
    joint[~finite] = np.eye(p_tf + p_psi)
    cond = np.linalg.cond(joint[:, p_tf:, p_tf:])
    joint_cond = np.linalg.cond(joint)
    # The eigenvalues of T^T U T = R^T R bound R's diagonal, |r_jj| between
    # sqrt of the smallest and the largest; a member whose smallest is clear
    # of rounding passes the rank check below without a QR.
    eig = np.linalg.eigvalsh(joint[:, :p_tf, :p_tf])
    full_rank = (eig[:, 0] > 1e-10 * eig[:, -1]) & (eig[:, 0] > 1e-20)

    def deficient(i):
        """Whether member i's treatment-free design, over the rows it
        weights, is rank deficient: R's smallest diagonal entry at or below
        1e-12 of its largest (or of 1)."""
        if full_rank[i]:
            return False
        rows = np.sqrt(weights[i])[:, None] * member(tf_design, i)
        diag = np.abs(np.diag(np.linalg.qr(rows, mode="r")))
        return np.min(diag) <= 1e-12 * max(np.max(diag), 1.0)

    def noise(c):
        """Whether a condition number's digits are rounding noise, so that a
        message printing them would depend on the summation order."""
        return not np.isfinite(c) or c >= _NOISE_CONDITION

    errors = [None] * b
    for i in np.flatnonzero(active):
        if not finite[i]:
            errors[i] = SingularSystemError("stage system is not finite", stage=stage)
        elif noise(cond[i]):
            errors[i] = SingularSystemError("stage system is numerically singular", stage=stage)
        elif cond[i] > CONDITION_LIMIT:
            errors[i] = SingularSystemError(f"stage system condition number {cond[i]:.3g} "
                                            f"exceeds {CONDITION_LIMIT:.0e}", stage=stage)
        elif deficient(i):
            errors[i] = RankDeficiencyError(
                f"treatment-free design at stage {stage} is rank deficient")
        elif noise(joint_cond[i]) or joint_cond[i] > CONDITION_LIMIT:
            condition = ("numerically singular" if noise(joint_cond[i])
                         else f"condition {joint_cond[i]:.3g}")
            errors[i] = EstimationError("contrast/treatment-free equations are jointly "
                                        f"singular ({condition})", stage=stage)
    solved = np.array([error is None for error in errors]) & active
    joint[~solved] = np.eye(p_tf + p_psi)  # placeholders for the members left unsolved
    solution = np.linalg.solve(joint, rhs[..., None])[..., 0]
    return _StageSolve(solution[:, p_tf:], solution[:, :p_tf], cond, joint_cond, errors)


def _fit_validation_rows(data: Dataset, stage: int, design: np.ndarray, weights: np.ndarray,
                         active: np.ndarray) -> BatchFit:
    """The adherence fit of each member of a block, on the validation rows
    its (b, n) ``weights`` keep; a member that keeps none fails.  Shared
    validation rows are cut out of each column, keeping the column layout.
    A stacked dataset's differ by member: each member's come first, in row
    order, and one with fewer than the most is padded with rows of weight 0."""
    actual = data.actual(stage)
    if data.validation.ndim == 2:
        mask = data.validation[:, stage - 1]
        if not mask.any():
            raise DataError(f"no validation rows at stage {stage}")
        design = np.swapaxes(np.compress(mask, np.swapaxes(design, -1, -2), axis=-1), -1, -2)
        actual, weights = actual[mask], np.compress(mask, weights, axis=1)
    else:
        mask = data.validation[..., stage - 1]
        rows = np.argsort(~mask, axis=1, kind="stable")[:, :np.max(mask.sum(axis=1))]
        design = np.swapaxes(np.take_along_axis(np.swapaxes(design, -1, -2), rows[:, None, :],
                                                axis=-1), -1, -2)  # keeps the column layout
        actual = np.take_along_axis(np.where(mask, actual, 0.0), rows, axis=1)
        weights = np.take_along_axis(weights * mask, rows, axis=1)
    kept = (weights > 0.0).any(axis=1)
    fit = fit_logistic_batch(design, actual, weights, kept & active)
    for i in np.flatnonzero(~kept):
        fit.errors[i] = DataError(f"no validation rows at stage {stage}")
    return fit


# ---------------------------------------------------------------------------
# The estimation plan


@dataclass(frozen=True)
class EstimationPlan:
    """One estimator: stage models, mode, adherence source and pseudo-outcome
    form.  A corrected mode fits data of its proxy kind (``MODE_PROXY_KIND``)."""

    specs: tuple
    mode: str
    adherence: Optional[AdherenceSource] = None
    exact_pseudo_outcomes: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown estimation mode '{self.mode}'")
        object.__setattr__(self, "specs", tuple(self.specs))
        for field in ("adherence", "exact_pseudo_outcomes"):
            if getattr(self, field) and not self.is_modified:
                raise ValueError(f"{field} applies to the modified modes only, not '{self.mode}'")
        for j, spec in enumerate(self.specs if self.exact_pseudo_outcomes else (), start=1):
            lagged = sorted(spec.contrast.treatment_stages())
            if len(lagged) > 1:
                raise ValueError(f"stage {j}: exact pseudo-outcome correction supports exactly "
                                 f"one lagged treatment in the contrast, found stages {lagged}")

    @property
    def is_modified(self) -> bool:
        return self.mode in MODE_PROXY_KIND

    @property
    def fits_adherence(self) -> bool:
        """Whether the adherence model is fitted from validation rows."""
        return self.adherence is not None and self.adherence.kind == "fitted"

    def estimate(self, data: Dataset) -> "RegimeFit":
        """Fit the plan to ``data``, raising any estimation failure.  This is
        the one-member case of the batched fit (``fit_members``), whose unit
        row weights are a read-only view of one 1.0, not n of them."""
        ((fit, error),) = _fit_regime(self, data, np.broadcast_to(1.0, (1, data.n)))
        if error is not None:
            raise error
        return fit

    def fit_members(self, data: Dataset, weights, *,
                    assignment_fits: Optional[dict] = None) -> list:
        """One batched fit per member, as b ``(RegimeFit, None)`` or
        ``(None, error)`` pairs.  The members are the rows of the (b, n)
        frequency ``weights``: on a dataset, b weightings of its rows; on a
        stacked dataset of (b, n) columns, one row of weights per member.
        ``assignment_fits``, a dict handed to every plan fitted to one
        stacked dataset with the same weights, lets them share their
        assignment fits (see ``_fit_regime``)."""
        return list(self._member_fits(data, weights, assignment_fits))

    def psi_estimator(self, data: Dataset, weights) -> list:
        """``fit_members`` as b ``(estimates, error)`` pairs: the flattened
        contrast estimates (stage 1 first) and ``None``, or ``None`` and the
        member's estimation failure.  The bootstrap's estimator; it lets go
        of each pass's fits once it has their estimates."""
        return [(None if fit is None else psi_flat(fit), error)
                for fit, error in self._member_fits(data, weights)]

    def _member_fits(self, data: Dataset, weights, assignment_fits: Optional[dict] = None):
        """``fit_members``'s pairs as an iterator that fits a pass at a time."""
        shape = data.outcome.shape if data.outcome.ndim == 2 else (len(weights), data.n)
        return _fit_regime(self, data, check_weights(weights, shape), assignment_fits)


@dataclass(frozen=True)
class RegimeFit:
    """Fitted regime: contrast estimates with nuisances and diagnostics."""

    plan: EstimationPlan
    psi: tuple
    nuisance: tuple  # per stage: {"alpha": array|None, "beta": array, "gamma": array}
    pseudo_outcomes: np.ndarray  # (n, K); column j-1 holds the stage-j pseudo outcome
    diagnostics: dict

    @property
    def n_stages(self) -> int:
        return len(self.psi)

    def parameter_labels(self) -> list:
        return [
            (j, label)
            for j, spec in enumerate(self.plan.specs, start=1)
            for label in spec.contrast.term_labels()
        ]


def psi_flat(fit: RegimeFit) -> np.ndarray:
    return np.concatenate(fit.psi)


# ---------------------------------------------------------------------------
# The stage system


class _StageTerms(NamedTuple):
    """One stage of a backward pass."""

    contrast_design: np.ndarray
    tf_design: np.ndarray
    weight: np.ndarray  # adherence probability, or the response when uncorrected
    v: np.ndarray  # pseudo outcome carried into the stage
    contrast: np.ndarray


class _Tangent:
    """The derivative of an n-vector over the stacked parameter, kept as a sum
    of terms ``(start, x, a)``: the rows of a design ``x`` scaled by ``a`` (an
    n-vector or a scalar) are the derivative over the theta block of
    ``x.shape[1]`` columns at ``start``.  Terms are never summed into an
    (n, P) array; ``contract`` forms each one's product directly.  Tangents
    add and subtract, and an n-vector on the left scales each row."""

    __array_ufunc__ = None  # ``vector * tangent`` scales instead of broadcasting

    def __init__(self, terms=()):
        self.terms = tuple(terms)

    def __add__(self, other: "_Tangent") -> "_Tangent":
        return _Tangent(self.terms + other.terms)

    def __sub__(self, other: "_Tangent") -> "_Tangent":
        return self + (-1.0) * other

    def __rmul__(self, vector) -> "_Tangent":
        vector = np.asarray(vector, dtype=float)
        return _Tangent((start, x, vector * a) for start, x, a in self.terms)

    def contract(self, y: np.ndarray, out: np.ndarray) -> None:
        """``out += y^T d`` for an (n, p) ``y``, with ``d`` the (n, P) derivative."""
        for start, x, a in self.terms:
            out[:, start : start + x.shape[1]] += (y * a[..., None]).T @ x


class _Tangents:
    """Forward-mode derivatives over the stacked parameter of the quantities
    a pass of ``_StageSystem`` evaluates: the adherence and assignment
    probabilities, and per stage the contrast weight, the contrast and the
    pseudo outcome carried into it.  ``slices`` maps ``(stage, kind)`` to
    that coefficient block's slice of theta; coefficients without a block are
    held fixed."""

    def __init__(self, slices: Mapping[tuple, slice]):
        self.slices = slices
        self.pi, self.p, self.weight, self.contrast, self.v = {}, {}, {}, {}, {}

    def linear(self, form: CompiledDesign, x: np.ndarray, pi: dict, coef: np.ndarray,
               key: tuple) -> _Tangent:
        """The derivative of ``x @ coef``, ``x = form.evaluate(pi)``, where
        ``coef`` is the theta block ``key``: ``x`` over that block, plus the
        design's dependence on the expected treatments through ``pi``."""
        block = self.slices.get(key)
        out = _Tangent(() if block is None else ((block.start, x, np.asarray(1.0)),))
        slopes = {}
        for stage, term, column in form.partials(pi):
            slopes[stage] = slopes.get(stage, 0.0) + coef[term] * column
        for stage, slope in slopes.items():
            out = out + slope * self.pi[stage]
        return out

    def design_rows(self, form: CompiledDesign, pi: dict, s: np.ndarray, out: np.ndarray) -> None:
        """``out += (dX)^T s`` for the design ``X = form.evaluate(pi)``: each
        term's derivative through the expected treatments it multiplies in."""
        for stage, term, column in form.partials(pi):
            self.pi[stage].contract((column * s)[:, None], out[term : term + 1])


class _StageSystem:
    """The stage estimating system of one plan on one dataset, written once.

    It evaluates the designs, the adherence and assignment probabilities and
    the pseudo outcomes for whatever parameter values its caller supplies,
    through callbacks ``coefficients(stage, design)``: values fitted stage by
    stage (estimation), blocks of a stacked parameter vector (the sandwich
    score) or a finished fit (the recommendation rules).  Given ``tangents``,
    a pass also records the derivatives of what it evaluates over the stacked
    parameter.  A design is compiled where a pass uses it and freed once
    used, unless the caller hands in ``designs``, a dict that keeps every
    design compiled into it for callers that ask again: one score evaluation
    (its Jacobian section), or a sweep's points, which refit the same rows.
    A corrected mode is built for one proxy kind, and data recording another
    raise.
    """

    def __init__(self, plan: EstimationPlan, data: Dataset, designs: Optional[dict] = None):
        kind = MODE_PROXY_KIND.get(plan.mode)  # None for a standard mode, which takes any
        if kind and data.proxy_kind not in (None, kind):
            raise DataError(f"{plan.mode} needs {kind} proxies, not {data.proxy_kind} ones")
        self.plan = plan
        self.data = data
        self.k = data.n_stages
        self.design_mode = _SUBSTITUTION[plan.mode]
        self.assign_mode = MODE_USE_ACTUAL if plan.mode in PROXY_FREE_MODES else MODE_USE_PROXY
        self.designs = designs

    def response(self, stage: int) -> np.ndarray:
        if self.plan.mode in PROXY_FREE_MODES:
            return self.data.actual(stage)
        return self.data.proxy(stage)

    def compiled(self, spec: FeatureSpec, stage: int, mode: Optional[str] = None,
                 override: Optional[tuple] = None) -> CompiledDesign:
        """``spec`` compiled at ``stage``; ``override`` is a ``(stage, value)``
        pair pinning one treatment."""
        mode = mode or self.design_mode
        designs = {} if self.designs is None else self.designs  # without a dict, kept by none
        key = (spec, stage, mode, override)
        if key not in designs:
            designs[key] = compile_design(spec, self.data, stage, mode, treatment_override=None
                                          if override is None else dict([override]))
        return designs[key]

    def adherence(self, upto: int, coefficients: Optional[Callable] = None,
                  tangents: Optional[_Tangents] = None, pi: Optional[dict] = None,
                  evaluate: bool = True):
        """Adherence designs and probabilities for stages 1..``upto``, built in
        stage order so each design can use the earlier stages' expected
        treatments.  Without ``coefficients`` the plan's fixed source supplies
        them; a stage in ``pi`` keeps the probabilities given there.  Without
        ``evaluate``, only the probabilities a later stage's design reads
        (``CompiledDesign.expected_stages``) are evaluated.  Returns
        ``(designs, pi)``, dicts keyed by stage; both are empty in the
        standard modes."""
        designs, pi, coefs = {}, dict(pi or {}), {}
        if not self.plan.is_modified:
            return designs, pi
        source = self.plan.adherence
        for j in range(1, upto + 1):
            if j in pi:
                continue
            form = self.compiled(self.plan.specs[j - 1].adherence, j, MODE_USE_PROXY)
            reads = {stage for stages in form.expected_stages for stage in stages}
            for read in sorted(reads - pi.keys()):  # left unevaluated until read
                pi[read] = expit(linear(designs[read], coefs[read]))
            designs[j] = form.evaluate(pi)
            coef = coefs[j] = (coefficients(j, designs[j]) if coefficients is not None
                               else source.coefficients[j - 1])
            if evaluate:
                pi[j] = expit(linear(designs[j], coef))
                if tangents is not None:
                    tangents.pi[j] = (pi[j] * (1.0 - pi[j])) * tangents.linear(
                        form, designs[j], pi, coef, (j, "adherence"))
        return designs, pi

    def assignment(self, pi: dict, coefficients: Callable,
                   tangents: Optional[_Tangents] = None):
        """Assignment designs and probabilities, stage 1 first."""
        designs, probs = [], []
        for j in range(1, self.k + 1):
            form = self.compiled(self.plan.specs[j - 1].assignment, j, self.assign_mode)
            design = form.evaluate(pi)
            coef = coefficients(j, design)
            designs.append(design)
            probs.append(expit(linear(design, coef)))
            if tangents is not None:
                tangents.p[j] = (probs[-1] * (1.0 - probs[-1])) * tangents.linear(
                    form, design, pi, coef, (j, "assignment"))
        return designs, probs

    def backward(self, pi: dict, solve: Callable, tangents: Optional[_Tangents] = None,
                 fail: Optional[Callable] = None):
        """Backward induction from stage K to stage 1.

        ``solve(j, contrast_design, tf_design, weight, v)`` returns the stage-j
        contrast coefficients, (q,) or one row per member.  Returns the
        (n, K), or (b, n, K), pseudo outcomes each stage hands back.
        Non-finite pseudo outcomes raise, or with ``fail`` are passed to
        ``fail(members, error)``, and those members carry zeros on.  A
        stage's compiled contrast is let go once evaluated, before the solve,
        unless the pass carries ``tangents``, which read it again.
        """
        columns = []
        v = self.data.outcome
        if tangents is not None:
            tangents.v[self.k] = _Tangent()
        for j in range(self.k, 0, -1):
            spec = self.plan.specs[j - 1]
            form = self.compiled(spec.contrast, j)
            lam = form.evaluate(pi)
            if tangents is None:
                del form  # its base columns, unless lam is them, are done with
            tf = self.compiled(spec.treatment_free, j).evaluate(pi)
            weight = pi[j] if self.plan.is_modified else self.response(j)
            psi = solve(j, lam, tf, weight, v)
            contrast = linear(lam, psi)
            if tangents is not None:
                tangents.weight[j] = tangents.pi[j] if self.plan.is_modified else _Tangent()
                tangents.contrast[j] = tangents.linear(form, lam, pi, psi, (j, "contrast"))
            del lam, tf  # a stage's designs, (b, n, p) when per member, are done with
            v = self._advance(j, psi, contrast, weight, v, pi, tangents)
            finite = np.all(np.isfinite(v), axis=-1)
            if not np.all(finite):
                error = EstimationError("pseudo outcomes are not finite", stage=j)
                if fail is None:
                    raise error
                fail(~finite, error)
                v = np.where(finite[..., None], v, 0.0)
            columns.append(v)
        return np.stack(columns[::-1], axis=-1)

    def _advance(self, j, psi, contrast, weight, v, pi, tangents=None):
        """The pseudo outcome carried into stage ``j - 1``.  Given
        ``tangents``, also its derivative (almost everywhere: the rule's
        indicators are held fixed) for ``j > 1``; the stage-1 pseudo outcome
        feeds no score."""
        spec = self.plan.specs[j - 1].contrast
        lagged = spec.treatment_stages() if self.plan.exact_pseudo_outcomes else ()
        tangents = tangents if j > 1 else None
        if tangents is not None:
            dv, dc, dw = tangents.v[j], tangents.contrast[j], tangents.weight[j]
        if not lagged:
            treat = contrast > 0.0
            if tangents is not None:
                tangents.v[j - 1] = dv + (treat - weight) * dc - contrast * dw
            return pseudo_outcome(v, treat, weight, contrast)
        (lag,) = lagged  # the plan admits at most one
        # the contrast with the lagged treatment pinned to 1, then to 0
        forms = [self.compiled(spec, j, override=(lag, value)) for value in (1.0, 0.0)]
        x1, x0 = (form.evaluate(pi) for form in forms)
        c1, c0 = linear(x1, psi), linear(x0, psi)
        if tangents is not None:
            dc1, dc0 = (tangents.linear(form, x, pi, psi, (j, "contrast"))
                        for form, x in zip(forms, (x1, x0)))
            gain = np.where(c1 > 0.0, c1, 0.0) - np.where(c0 > 0.0, c0, 0.0)
            tangents.v[j - 1] = (dv + gain * tangents.pi[lag] + (pi[lag] * (c1 > 0.0)) * dc1
                                 + ((1.0 - pi[lag]) * (c0 > 0.0)) * dc0
                                 - weight * dc - contrast * dw)
        # The expected optimal payoff replaces a_opt * contrast; the
        # adherence-weighted contrast is still subtracted as usual.
        return pseudo_outcome_exact(v, pi[lag], c1, c0) - weight * contrast


# ---------------------------------------------------------------------------
# Estimation


def _check_inputs(system: _StageSystem) -> None:
    plan, k, kind = system.plan, system.k, system.data.proxy_kind
    validate_stage_models(plan.specs, k)
    actual = plan.mode in PROXY_FREE_MODES
    if not actual and kind is None:
        raise DataError("no proxy treatment column available for this mode")
    for j in range(1, k + 1):
        col = system.response(j)
        if col is None or np.any(np.isnan(col)):
            what = "actual" if actual else kind
            raise DataError(f"{plan.mode} needs the {what} treatment; missing at stage {j}")
    if not plan.is_modified:
        return
    source = plan.adherence
    if source is None:
        raise DataError("modified modes require an AdherenceSource")
    if source.kind != "fitted" and len(source.coefficients) != k:
        raise DataError(f"{len(source.coefficients)} adherence coefficient vectors "
                        f"for {k} stages")
    for j in range(1, k + 1):
        spec = plan.specs[j - 1].adherence
        if spec is None:
            raise DesignError(f"no adherence spec at stage {j}")
        if source.kind == "fitted":
            if j not in spec.treatment_stages():
                raise DesignError(
                    f"adherence spec at stage {j} must include the stage-{j} proxy"
                )
            continue
        shape = np.shape(source.coefficients[j - 1])
        if shape != (len(spec.terms),):
            raise DataError(f"adherence coefficient vector at stage {j} has shape {shape}, "
                            f"spec has {len(spec.terms)} terms")


class _Members:
    """The members of a batched pass that still stand: each keeps the first
    estimation failure it meets, which is the failure a fit of that member
    alone would raise.  ``errors`` holds the failures they come with."""

    def __init__(self, errors):
        self.errors = list(errors)
        self.alive = np.array([error is None for error in self.errors])

    def fail(self, which, error: Exception) -> None:
        for i in np.flatnonzero(which & self.alive):
            self.errors[i], self.alive[i] = error, False

    def record(self, errors) -> None:
        for i, error in enumerate(errors):
            if error is not None and self.alive[i]:
                self.errors[i], self.alive[i] = error, False


def _fit_regime(plan: EstimationPlan, data: Dataset, weights: np.ndarray,
                assignment_fits: Optional[dict] = None, designs: Optional[dict] = None) -> Iterator:
    """Fit ``plan`` once per row of the (b, n) frequency ``weights``, with a
    leading member axis through the stage system.  Member ``i`` is a fit of
    the rows repeated by ``weights[i]``, of ``data`` or, when ``data`` is
    stacked, of its member ``i``: its nuisance fits, stage solves and checks
    see only the rows it weights.  A failing member drops out and the others
    carry on.  Yields b tally-style pairs, ``(RegimeFit, None)`` or
    ``(None, error)``.

    Each stage's adherence model is fitted for all b members in one batched
    Newton loop, so a member that is slow to stop holds one loop per stage;
    they evaluate a stage's probabilities only where a later stage's
    adherence design reads them.  The passes ``passes(b, n)`` cuts then run
    the adherence probabilities, assignment fits, stage solves and pseudo
    outcomes on their own members only (``_fit_pass``).  A stacked dataset
    is one pass: its caller sizes the stack as one.

    ``assignment_fits``, when given, holds the assignment fits of the plans
    already fitted to the same stacked ``data`` and ``weights``, keyed by
    stage, assignment mode and spec; a stage whose key is there reuses that
    fit, and one whose key is missing adds its own.  A call of more than one
    pass shares none.  ``designs`` is the stage system's (``_StageSystem``)."""
    k, b = data.n_stages, len(weights)
    members = _Members([None] * b)
    alphas, held = {}, {}

    def fit_alpha(j, design):
        alphas[j] = _fit_validation_rows(data, j, design, weights, members.alive)
        members.record(EstimationError(f"adherence model failed: {err}", stage=j)
                       if isinstance(err, (NonConvergenceError, RankDeficiencyError)) else err
                       for err in alphas[j].errors)
        return alphas[j].coefficients

    try:
        system = _StageSystem(plan, data, designs)
        _check_inputs(system)
        if plan.fits_adherence:
            held = system.adherence(k, fit_alpha, evaluate=False)[1]
    except ESTIMATION_FAILURES as err:  # a failure of the data or the plan fails every member
        members.fail(members.alive, err)
        yield from ((None, error) for error in members.errors)
        return
    cuts = passes(b, data.n) if data.outcome.ndim == 1 else [range(b)]
    for part in cuts:
        rows = slice(part.start, part.stop)
        yield from _fit_pass(system, {j: BatchFit(*(field[rows] for field in fit))
                                      for j, fit in alphas.items()},
                             weights[rows], _Members(members.errors[rows]),
                             assignment_fits if len(cuts) == 1 else None,
                             {j: p[rows] for j, p in held.items()})


def _fit_pass(system: _StageSystem, alphas: dict, weights: np.ndarray, members: _Members,
              assignment_fits: Optional[dict], held: dict) -> list:
    """``_fit_regime``'s pairs for one pass of its members, given their
    adherence fits ``alphas``, their rows of the group's ``held``
    probabilities by stage and their (b, n) ``weights``: the adherence
    probabilities of the other stages (``_StageSystem.adherence``), the
    assignment fits, stage solves and pseudo outcomes, then the fits."""
    plan, k, b = system.plan, system.k, len(weights)
    gammas, solved = {}, {}

    def fit_gamma(j, design):
        spec = plan.specs[j - 1].assignment
        if assignment_fits is None or _names_expected(spec):
            gammas[j] = fit_logistic_batch(design, system.response(j), weights, members.alive)
        else:
            # MODE_USE_PROXY and MODE_USE_ACTUAL substitute no expected
            # treatment, so unless the spec names EA[l] outright the design,
            # and the fit, depend only on the key, the data and the weights.
            # A shared fit runs on every member: a member another plan has
            # lost may still stand in this one.  Each stacked member has its
            # own design, so its iterates do not depend on which others are
            # fitted with it.
            key = (j, system.assign_mode, spec)
            if key not in assignment_fits:
                assignment_fits[key] = fit_logistic_batch(design, system.response(j), weights)
            gammas[j] = assignment_fits[key]
        members.record(None if err is None else
                       EstimationError(f"assignment model failed: {err}", stage=j)
                       for err in gammas[j].errors)
        return gammas[j].coefficients

    def solve(j, lam, tf, weight, v):
        solved[j] = _fit_stages(lam, tf, system.response(j), p_cols[j - 1], weight, v,
                                weights, members.alive, stage=j)
        members.record(EstimationError(str(err), stage=j)
                       if isinstance(err, RankDeficiencyError) else err
                       for err in solved[j].errors)
        return solved[j].psi

    try:
        fitted = (lambda j, _: alphas[j].coefficients) if plan.fits_adherence else None
        pi = system.adherence(k, fitted, pi=held)[1]
        p_cols = system.assignment(pi, fit_gamma)[1]
        pseudo = system.backward(pi, solve, fail=members.fail)
    except ESTIMATION_FAILURES as err:  # a failure of the data or the plan fails every member
        members.fail(members.alive, err)
        return [(None, error) for error in members.errors]

    stages = range(1, k + 1)
    # each diagnostic per stage, then once per pass as plain values per member
    per_member = {name: np.column_stack(values).tolist() for name, values in {
        "stage_condition": [solved[j].cond for j in stages],
        "joint_condition": [solved[j].joint_cond for j in stages],
        # one joint solve per stage; the key is kept for schema stability
        "outer_iterations": [np.ones(b, dtype=int)] * k,
        # rows counted by their weights
        "positivity_violations": [
            np.rint(np.sum(weights * ((p < POSITIVITY_EPS) | (p > 1.0 - POSITIVITY_EPS)),
                           axis=-1)).astype(int) for p in p_cols],
        "assignment_iterations": [gammas[j].iterations for j in stages],
        # None where α is not fitted
        "adherence_iterations": [alphas[j].iterations if j in alphas else np.full(b, None)
                                 for j in stages],
    }.items()}
    out = []
    for i, error in enumerate(members.errors):
        if error is not None:
            out.append((None, error))
            continue
        out.append((RegimeFit(
            plan=plan,
            psi=tuple(solved[j].psi[i] for j in stages),
            nuisance=tuple(
                {"alpha": alphas[j].coefficients[i] if j in alphas else None,
                 "beta": solved[j].beta[i],
                 "gamma": gammas[j].coefficients[i]}
                for j in stages
            ),
            pseudo_outcomes=pseudo[i],
            diagnostics={name: rows[i] for name, rows in per_member.items()},
        ), None))
    return out


def _names_expected(spec: FeatureSpec) -> bool:
    """Whether ``spec`` references an expected treatment ``EA[l]``, which
    every substitution mode resolves to the adherence probability."""
    return any(isinstance(f, TreatmentRef) and f.source == "expected"
               for term in spec.terms for f in term.factors)


# ---------------------------------------------------------------------------
# Recommendations


def recommend(fit: RegimeFit, data: Dataset, designs: Optional[dict] = None) -> np.ndarray:
    """(n, K) rule outputs, 1 iff the estimated contrast is strictly
    positive, for every individual and each of ``data``'s K stages.  A
    dataset with fewer stages than the fit is a partial history: its rules
    are the first columns of the full history's.  The outcome is not read.
    ``designs`` is the stage system's (``_StageSystem``): a dict handed to
    every rule evaluated on ``data`` compiles each design once."""
    if data.n_stages > fit.n_stages:
        raise DesignError(f"a {data.n_stages}-stage dataset for a {fit.n_stages}-stage fit")
    system = _StageSystem(fit.plan, data, designs)
    fitted = (lambda j, _: fit.nuisance[j - 1]["alpha"]) if fit.plan.fits_adherence else None
    _, pi = system.adherence(data.n_stages - 1, fitted)
    return np.column_stack([
        (system.compiled(fit.plan.specs[j - 1].contrast, j).evaluate(pi) @ fit.psi[j - 1]
         > 0.0).astype(int)
        for j in range(1, data.n_stages + 1)
    ])


# ---------------------------------------------------------------------------
# Sensitivity sweeps


def sensitivity_sweep(data: Dataset, plan: EstimationPlan, grid: Sequence) -> list:
    """Re-estimate ``plan`` once per grid point with adherence pinned to the
    point's coefficient vector at every stage (no adherence uncertainty).
    Returns one tally-style pair per point, ``(RegimeFit, None)`` or
    ``(None, error)``: failed points are collected, not fatal.
    """
    if not grid:
        raise ValueError("sensitivity grid is empty")
    points, designs = [], {}  # every point refits the same rows, so compiles the same designs
    for entry in grid:
        per_stage = (np.asarray(entry, dtype=float),) * data.n_stages
        pinned = replace(plan, adherence=AdherenceSource.known(coefficients=per_stage))
        points.extend(_fit_regime(pinned, data, np.broadcast_to(1.0, (1, data.n)),
                                  designs=designs))
    return points


# ---------------------------------------------------------------------------
# Stacked per-individual scores (for sandwich variance estimation)


class StackedScore:
    """Per-individual stacked estimating-function contributions as a function
    of the full parameter vector.

    ``slices`` maps ``(stage, kind)`` to that block's slice of theta.  Blocks
    run stage K down to stage 1; within a stage the order is treatment-free,
    adherence (when fitted from validation rows, or known coefficients with
    a covariance: its score ``alpha_ext - alpha`` holds it at the supplied
    value), assignment, contrast.  The forward pass re-evaluates the stage
    system of ``fit.plan`` -- adherence and assignment probabilities,
    substituted designs and pseudo outcomes -- at the supplied parameters, so
    derivatives propagate nuisance uncertainty into the contrast blocks.
    ``theta_hat`` holds the fit's own estimates, so the score is the system
    the fit solved.
    """

    def __init__(self, data: Dataset, fit: RegimeFit):
        if data.n_stages != fit.n_stages:
            raise DesignError(f"a {data.n_stages}-stage dataset for a {fit.n_stages}-stage fit")
        plan = fit.plan
        self.data = data
        self.k = data.n_stages
        self.system = _StageSystem(plan, data)
        source = plan.adherence
        # Stage -> the supplied covariance of known coefficients that carry one.
        self.external = {} if source is None else {
            j: cov for j, cov in enumerate(source.covariance or (), start=1) if cov is not None
        }
        self.slices, values, start = {}, [], 0
        for j in range(self.k, 0, -1):
            nuisance = fit.nuisance[j - 1]
            alpha = (nuisance["alpha"] if plan.fits_adherence
                     else source.coefficients[j - 1] if j in self.external else None)
            for kind, value in (("treatment_free", nuisance["beta"]), ("adherence", alpha),
                                ("assignment", nuisance["gamma"]), ("contrast", fit.psi[j - 1])):
                if value is not None:
                    self.slices[(j, kind)] = slice(start, start + value.size)
                    values.append(value)
                    start += value.size
        self.size = start
        self.theta_hat = np.concatenate(values)

    @property
    def psi_index(self) -> np.ndarray:
        """Indices of contrast parameters in theta, ordered stage 1..K."""
        index = np.arange(self.size)
        return np.concatenate([index[self.slices[(j, "contrast")]] for j in range(1, self.k + 1)])

    @np.errstate(over="ignore", invalid="ignore")
    def evaluate(self, theta: np.ndarray, *, jacobian: bool = False):
        """The (n, P) per-individual scores at ``theta`` and, with
        ``jacobian``, the P x P derivative of their mean over theta, from one
        pass of the stage system that carries tangents; otherwise ``None``.
        Scores past the double range fail their stage as pseudo outcomes do
        (``EstimationError``), without a warning; a Jacobian past it is left
        non-finite for the sandwich to reject.

        Each score block is a design times an n-vector, ``X * s[:, None]``,
        so its rows of the Jacobian are ``(X^T ds + (dX)^T s) / n``, formed
        block by block without an (n, p, P) array."""
        theta = np.asarray(theta, dtype=float)
        data, slices = self.data, self.slices
        # this evaluation's designs: the Jacobian section asks again for the pass's
        system = _StageSystem(self.system.plan, data, designs={})
        tangents = _Tangents(slices) if jacobian else None
        source = system.plan.adherence

        def alpha(j, _):
            at = slices.get((j, "adherence"))
            return source.coefficients[j - 1] if at is None else theta[at]

        adherence_designs, pi = system.adherence(self.k, alpha, tangents)
        assign_designs, p_cols = system.assignment(
            pi, lambda j, _: theta[slices[(j, "assignment")]], tangents)
        terms = [None] * self.k

        def contrast(j, lam, tf, weight, v):
            psi = theta[slices[(j, "contrast")]]
            terms[j - 1] = _StageTerms(lam, tf, weight, v, lam @ psi)
            return psi

        system.backward(pi, contrast, tangents)

        out = np.empty((data.n, self.size), order="F")  # written block by block
        jac = None if tangents is None else np.zeros((self.size, self.size))
        for j, (t, spec) in enumerate(zip(terms, system.plan.specs), start=1):
            tf, adh, asg, con = (slices.get((j, kind)) for kind in
                                 ("treatment_free", "adherence", "assignment", "contrast"))
            e = system.response(j) - p_cols[j - 1]
            resid = t.v - t.weight * t.contrast - t.tf_design @ theta[tf]
            out[:, tf] = t.tf_design * resid[:, None]
            if adh is not None and j in self.external:
                out[:, adh] = source.coefficients[j - 1] - theta[adh]  # every row
                if jac is not None:  # alpha_ext - alpha, so -I after the 1/n
                    jac[adh, adh] = -data.n * np.eye(adh.stop - adh.start)
            elif adh is not None:
                mask = data.validation[:, j - 1]
                target = mask * (np.where(mask, data.actual(j), 0.0) - pi[j])
                out[:, adh] = adherence_designs[j] * target[:, None]
                if jac is not None:
                    tangents.pi[j].contract(-(adherence_designs[j] * mask[:, None]), jac[adh])
                    tangents.design_rows(system.compiled(spec.adherence, j, MODE_USE_PROXY), pi,
                                         target, jac[adh])
            out[:, asg] = assign_designs[j - 1] * e[:, None]
            out[:, con] = t.contrast_design * (e * resid)[:, None]
            if jac is None:
                continue
            tangents.p[j].contract(-assign_designs[j - 1], jac[asg])
            tangents.design_rows(system.compiled(spec.assignment, j, system.assign_mode), pi,
                                 e, jac[asg])
            # the residual's derivative: dv - w dc - c dw - d(T beta)
            tf_form = system.compiled(spec.treatment_free, j)
            d_resid = (tangents.v[j] - t.weight * tangents.contrast[j]
                       - t.contrast * tangents.weight[j]
                       - tangents.linear(tf_form, t.tf_design, pi, theta[tf], (j, "treatment_free")))
            d_resid.contract(t.tf_design, jac[tf])
            tangents.design_rows(tf_form, pi, resid, jac[tf])
            d_resid.contract(t.contrast_design * e[:, None], jac[con])
            tangents.p[j].contract(t.contrast_design * -resid[:, None], jac[con])
            tangents.design_rows(system.compiled(spec.contrast, j), pi, e * resid, jac[con])
        finite = np.isfinite(out).all(axis=0)
        if not finite.all():  # blocks run stage K first: the highest such stage fails
            column = int(np.argmin(finite))
            stage = next(j for (j, _), at in slices.items() if at.start <= column < at.stop)
            raise EstimationError("scores are not finite", stage=stage)
        return out, None if jac is None else jac / data.n

    # evaluate's scores alone; perfbench's tracing.LAYERS wraps it by name
    def per_individual(self, theta: np.ndarray) -> np.ndarray:
        return self.evaluate(theta)[0]
