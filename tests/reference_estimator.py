"""An independent reference estimator for the tests: a whole fit's contrast
estimates from a dataset's columns, in numpy alone.

It reads a plan's parsed ``FeatureSpec`` terms and the dataset's columns, and
nothing else of the package: it evaluates each design itself, fits each
logistic model by its own Newton loop, solves each stage's stacked
treatment-free and contrast equations in one dense solve, and carries back
either pseudo-outcome form.  It follows the equations, not the code paths,
of ``dtr_adhere.gest``:

* every stage's adherence probability (corrected modes), stage 1 first:
  ``expit(X_j alpha_j)`` on the adherence design, which reads the proxy for
  ``A[l]`` and the earlier stages' probabilities for ``EA[l]``; ``alpha_j``
  is given, or fitted on stage j's validation rows to the actual treatment;
* every stage's assignment probability, ``expit(Z_j gamma_j)``, fitted on all
  rows to the stage's response (the actual treatment in ``standard-actual``,
  else the proxy), ``A[l]`` read as that response's source;
* backward from stage K: with contrast design L, treatment-free design T,
  ``e = response - p`` and weight ``w`` (the adherence probability, or the
  response when uncorrected), the solution of ``T'(v - w L psi - T beta) = 0``
  and ``L' diag(e) (v - w L psi - T beta) = 0``; then the pseudo outcome
  ``v + (I(c > 0) - w) c`` with ``c = L psi``, or, exact and with a lagged
  treatment l in the contrast, ``v + pi_l max(c1, 0) + (1 - pi_l) max(c0, 0)
  - w c`` with ``c1``, ``c0`` the contrast at ``A[l]`` pinned to 1 and 0.

Newton stops as the package's does: at a score sup-norm below 1e-8 (with no
step), or after a step whose sup-norm is below 1e-10.  Where a fit is
quasi-separated its coefficients are fixed only by where the walk halts, so
a different stopping rule would give different ones.
"""

import numpy as np

from dtr_adhere.model import Constant, Covariate, TreatmentRef

# The column an ``A[l]`` reference reads in each mode's contrast and
# treatment-free designs.
DESIGN_SOURCE = {"standard-actual": "actual", "standard-naive-proxy": "proxy",
                 "modified-prescribed": "expected", "modified-reported": "expected"}
MAX_ITER, SCORE_TOL, STEP_TOL = 100, 1e-8, 1e-10


def expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def newton(x, y):
    """Logistic regression of 0/1 ``y`` on the rows of ``x``."""
    beta = np.zeros(x.shape[1])
    for _ in range(MAX_ITER):
        mu = expit(x @ beta)
        score = x.T @ (y - mu)
        if np.max(np.abs(score)) < SCORE_TOL:
            return beta
        step = np.linalg.solve((x.T * (mu * (1.0 - mu))) @ x, score)
        beta = beta + step
        if np.max(np.abs(step)) < STEP_TOL:
            return beta
    raise RuntimeError("reference Newton fit did not converge")


def design(spec, data, a_source, pi, pinned=None):
    """The columns of ``spec``'s terms: each the product of its factors.  An
    ``A[l]`` reference reads ``a_source`` ("actual", "proxy" or "expected");
    ``Astar[l]`` the proxy; ``EA[l]`` and an expected ``A[l]`` ``pi[l]``;
    ``pinned``, a ``(stage, value)`` pair, overrides one stage's treatment."""
    columns = []
    for term in spec.terms:
        column = np.ones(data.n)
        for factor in term.factors:
            if isinstance(factor, Constant):
                continue
            if isinstance(factor, Covariate):
                value = data.covariate(factor.name, factor.stage)
                column = column * (np.log(value) if factor.transform == "log" else value)
                continue
            assert isinstance(factor, TreatmentRef)
            if pinned is not None and factor.stage == pinned[0]:
                column = column * pinned[1]
                continue
            source = a_source if factor.source == "actual" else factor.source
            column = column * {"actual": data.actual, "proxy": data.proxy,
                               "expected": pi.get}[source](factor.stage)
        columns.append(column)
    return np.column_stack(columns)


def reference_psi(plan, data):
    """The contrast estimates, stage 1 first, of ``plan`` on ``data``: a
    corrected plan's adherence coefficients are its known source's, or
    fitted on the validation rows."""
    k, mode = data.n_stages, plan.mode
    corrected = DESIGN_SOURCE[mode] == "expected"
    response_source = "actual" if mode == "standard-actual" else "proxy"
    response = {j: getattr(data, response_source)(j) for j in range(1, k + 1)}

    pi = {}
    for j in range(1, k + 1) if corrected else ():
        x = design(plan.specs[j - 1].adherence, data, "proxy", pi)
        if plan.adherence.kind == "fitted":
            rows = data.validation[:, j - 1]
            alpha = newton(x[rows], data.actual(j)[rows])
        else:
            alpha = plan.adherence.coefficients[j - 1]
        pi[j] = expit(x @ alpha)

    assign = {}
    for j in range(1, k + 1):
        z = design(plan.specs[j - 1].assignment, data, response_source, pi)
        assign[j] = expit(z @ newton(z, response[j]))

    psi, v = {}, data.outcome
    for j in range(k, 0, -1):
        spec = plan.specs[j - 1]
        lam = design(spec.contrast, data, DESIGN_SOURCE[mode], pi)
        tf = design(spec.treatment_free, data, DESIGN_SOURCE[mode], pi)
        e = response[j] - assign[j]
        w = pi[j] if corrected else response[j]
        p_tf = tf.shape[1]
        joint = np.block([[tf.T @ tf, tf.T @ (w[:, None] * lam)],
                          [(lam.T * e) @ tf, (lam.T * (e * w)) @ lam]])
        solution = np.linalg.solve(joint, np.concatenate([tf.T @ v, (lam.T * e) @ v]))
        psi[j] = solution[p_tf:]
        c = lam @ psi[j]
        lagged = {f.stage for term in spec.contrast.terms for f in term.factors
                  if isinstance(f, TreatmentRef)}
        if plan.exact_pseudo_outcomes and lagged:
            (lag,) = lagged
            c1, c0 = (design(spec.contrast, data, DESIGN_SOURCE[mode], pi, (lag, value))
                      @ psi[j] for value in (1.0, 0.0))
            v = v + pi[lag] * np.maximum(c1, 0.0) + (1.0 - pi[lag]) * np.maximum(c0, 0.0) - w * c
        else:
            v = v + ((c > 0.0) - w) * c
    return [psi[j] for j in range(1, k + 1)]

