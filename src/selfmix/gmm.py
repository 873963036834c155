"""Two-component 1-D Gaussian mixture fit by EM, used to split loss values.

The mixture is fit to per-sample training losses; the component with the
lower mean is interpreted as the "clean" population and its posterior is the
per-sample clean probability.

Everything is deterministic: initialization splits the sorted values in half
(no random restarts), the E-step runs in log space, and variance/weight
floors keep degenerate populations from collapsing the fit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANCE_FLOOR = 1e-6
WEIGHT_FLOOR = 1e-4
_MEAN_TIE = 1e-9


@dataclass(frozen=True)
class GMMParams:
    """Parameters of a 2-component 1-D mixture, ordered by ascending mean."""

    means: np.ndarray  # (2,)
    variances: np.ndarray  # (2,)
    weights: np.ndarray  # (2,)


def _log_pdf(values: np.ndarray, mean: float, variance: float) -> np.ndarray:
    return -0.5 * (np.log(2.0 * np.pi * variance) + (values - mean) ** 2 / variance)


def _component_log_joint(params: GMMParams, values: np.ndarray) -> np.ndarray:
    """(n, 2) array of log(weight_k) + log N(x_i; mean_k, var_k)."""
    cols = [
        np.log(params.weights[k]) + _log_pdf(values, params.means[k], params.variances[k])
        for k in range(2)
    ]
    return np.stack(cols, axis=1)


def log_likelihood(params: GMMParams, values: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    joint = _component_log_joint(params, values)
    return float(np.logaddexp(joint[:, 0], joint[:, 1]).sum())


def _ordered(means: np.ndarray, variances: np.ndarray, weights: np.ndarray) -> GMMParams:
    order = np.argsort(means, kind="stable")
    return GMMParams(means[order].copy(), variances[order].copy(), weights[order].copy())


def _init_params(values: np.ndarray) -> GMMParams:
    """Split the sorted values in half, one Gaussian per half, weights 0.5/0.5."""
    ordered = np.sort(values)
    n = ordered.size
    halves = (ordered[: n // 2], ordered[n // 2 :])
    means = np.array([h.mean() for h in halves])
    variances = np.maximum(np.array([h.var() for h in halves]), VARIANCE_FLOOR)
    weights = np.array([0.5, 0.5])
    return _ordered(means, variances, weights)


def _em_update(params: GMMParams, values: np.ndarray) -> GMMParams:
    joint = _component_log_joint(params, values)
    log_norm = np.logaddexp(joint[:, 0], joint[:, 1])
    resp = np.exp(joint - log_norm[:, None])  # (n, 2)
    nk = np.maximum(resp.sum(axis=0), 1e-12)
    means = (resp * values[:, None]).sum(axis=0) / nk
    variances = np.maximum(
        (resp * (values[:, None] - means[None, :]) ** 2).sum(axis=0) / nk,
        VARIANCE_FLOOR,
    )
    weights = np.maximum(nk / values.size, WEIGHT_FLOOR)
    weights /= weights.sum()
    return _ordered(means, variances, weights)


def fit_gmm_trace(
    values: np.ndarray, max_iter: int = 100, tol: float = 1e-6
) -> tuple[GMMParams, np.ndarray]:
    """Fit the mixture and return the per-evaluation log-likelihood trace.

    The trace starts with the initializer's log-likelihood and then records
    every candidate EM step evaluated, including a final candidate that was
    rejected for improving by less than ``tol``. Raises ValueError on fewer
    than two distinct values; ``core.select_split`` handles that case
    before fitting.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if np.unique(values).size < 2:
        raise ValueError(
            "need at least two distinct values to fit a two-component mixture"
        )
    params = _init_params(values)
    trace = [log_likelihood(params, values)]
    for _ in range(max_iter):
        candidate = _em_update(params, values)
        candidate_ll = log_likelihood(candidate, values)
        trace.append(candidate_ll)
        if candidate_ll - trace[-2] < tol:
            break
        params = candidate
    return params, np.array(trace)


def fit_gmm(values: np.ndarray, max_iter: int = 100, tol: float = 1e-6) -> GMMParams:
    params, _ = fit_gmm_trace(values, max_iter=max_iter, tol=tol)
    return params


def posterior_clean(params: GMMParams, values: float | np.ndarray) -> float | np.ndarray:
    """P(lower-mean component | value), computed in log space.

    Accepts a scalar (returns a float) or an array (returns an array of the
    same shape). When the two component means coincide (within 1e-9) the
    mixture carries no separation signal, so every value is treated as clean
    (probability 1).
    """
    arr = np.asarray(values, dtype=np.float64)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    if abs(float(params.means[1] - params.means[0])) <= _MEAN_TIE:
        out = np.ones(flat.shape)
    else:
        joint = _component_log_joint(params, flat)
        log_norm = np.logaddexp(joint[:, 0], joint[:, 1])
        low = int(np.argmin(params.means))
        out = np.exp(joint[:, low] - log_norm)
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)
