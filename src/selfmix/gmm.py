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
MAX_ITER = 100


@dataclass(frozen=True)
class GMMParams:
    """Parameters of a 2-component 1-D mixture, ordered by ascending mean."""

    means: np.ndarray  # (2,)
    variances: np.ndarray  # (2,)
    weights: np.ndarray  # (2,)


def _log_pdf(values: np.ndarray, mean: float, variance: float) -> np.ndarray:
    return -0.5 * (np.log(2.0 * np.pi * variance) + (values - mean) ** 2 / variance)


def _e_step(params: GMMParams, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) log(weight_k) + log N(x_i; mean_k, var_k) and, per value,
    their log-sum-exp, the log-likelihood of x_i."""
    joint = np.stack(
        [np.log(params.weights[k]) + _log_pdf(values, params.means[k], params.variances[k])
         for k in range(2)],
        axis=1,
    )
    return joint, np.logaddexp(joint[:, 0], joint[:, 1])


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


def _m_step(values: np.ndarray, joint: np.ndarray, log_norm: np.ndarray) -> GMMParams:
    """The next parameters from one E-step's log joints and log-sums."""
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


def fit_gmm_trace(values: np.ndarray, tol: float = 1e-6) -> tuple[GMMParams, np.ndarray]:
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
    e_step = _e_step(params, values)
    trace = [float(e_step[1].sum())]
    for _ in range(MAX_ITER):
        candidate = _m_step(values, *e_step)
        e_step = _e_step(candidate, values)
        trace.append(float(e_step[1].sum()))
        if trace[-1] - trace[-2] < tol:
            break
        params = candidate
    return params, np.array(trace)


def fit_gmm(values: np.ndarray, tol: float = 1e-6) -> GMMParams:
    params, _ = fit_gmm_trace(values, tol=tol)
    return params


def posterior_clean(params: GMMParams, values: np.ndarray) -> np.ndarray:
    """P(lower-mean component | value) of each value, computed in log space.

    Returns an array of the shape of ``values``. When the two component
    means coincide (within 1e-9) the mixture carries no separation signal,
    so every value is treated as clean (probability 1).
    """
    values = np.asarray(values, dtype=np.float64)
    if abs(float(params.means[1] - params.means[0])) <= _MEAN_TIE:
        return np.ones(values.shape)
    joint, log_norm = _e_step(params, values.ravel())
    low = int(np.argmin(params.means))
    return np.exp(joint[:, low] - log_norm).reshape(values.shape)
