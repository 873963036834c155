"""Two-component 1-D mixture fitting and the clean-sample posterior."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import N_CASES
from selfmix.gmm import (
    VARIANCE_FLOOR,
    GMMParams,
    fit_gmm,
    fit_gmm_trace,
    posterior_clean,
)


def _random_loss_sample(rng: np.random.Generator) -> np.ndarray:
    """Loss-shaped data: one or two positive clusters of varied spread."""
    n1 = int(rng.integers(5, 120))
    mu1 = rng.uniform(0.05, 2.0)
    s1 = rng.uniform(0.01, 0.5)
    values = rng.normal(mu1, s1, size=n1)
    if rng.random() < 0.7:
        n2 = int(rng.integers(5, 120))
        mu2 = mu1 + rng.uniform(0.5, 4.0)
        s2 = rng.uniform(0.01, 0.8)
        values = np.concatenate([values, rng.normal(mu2, s2, size=n2)])
    return np.abs(values) + 1e-6


def _manual_posteriors(params: GMMParams, values: np.ndarray) -> np.ndarray:
    """Brute-force (n, 2) responsibilities computed from public fields."""
    values = np.asarray(values, dtype=np.float64)[:, None]
    log_pdf = -0.5 * (
        np.log(2.0 * np.pi * params.variances)
        + (values - params.means) ** 2 / params.variances
    )
    joint = np.log(params.weights) + log_pdf
    joint -= joint.max(axis=1, keepdims=True)
    resp = np.exp(joint)
    return resp / resp.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_well_separated_mixture():
    rng = np.random.default_rng(2024)
    values = np.concatenate(
        [rng.normal(0.5, 0.1, 1000), rng.normal(3.0, 0.5, 1000)]
    )
    params = fit_gmm(values)
    assert abs(params.means[0] - 0.5) <= 0.05
    assert abs(params.means[1] - 3.0) <= 0.05
    assert abs(params.weights[0] - 0.5) <= 0.03
    assert abs(params.weights[1] - 0.5) <= 0.03


def test_fit_two_point_clusters_is_exact():
    values = np.array([0.0] * 50 + [5.0] * 50)
    params = fit_gmm(values)
    assert params.means[0] == pytest.approx(0.0, abs=1e-9)
    assert params.means[1] == pytest.approx(5.0, abs=1e-9)
    assert params.variances[0] == VARIANCE_FLOOR
    assert params.variances[1] == VARIANCE_FLOOR
    assert params.weights[0] == pytest.approx(0.5, abs=1e-9)


def test_fit_infinite_tol_returns_initialization():
    values = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    params, trace = fit_gmm_trace(values, tol=np.inf)
    lower, upper = np.sort(values)[:3], np.sort(values)[3:]
    assert params.means[0] == pytest.approx(lower.mean())
    assert params.means[1] == pytest.approx(upper.mean())
    assert params.variances[0] == pytest.approx(max(lower.var(), VARIANCE_FLOOR))
    assert params.weights.tolist() == [0.5, 0.5]
    # init evaluated, one candidate evaluated and rejected
    assert trace.size == 2
    manual = 0.0
    for x in values:
        density = sum(
            w * np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2.0 * np.pi * v)
            for w, m, v in zip(params.weights, params.means, params.variances)
        )
        manual += np.log(density)
    assert trace[0] == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("values", [[], [3.0], [2.0, 2.0, 2.0]])
def test_fit_requires_two_distinct_values(values):
    with pytest.raises(ValueError, match="two distinct"):
        fit_gmm(np.array(values, dtype=np.float64))


def test_fit_output_invariants_and_determinism():
    """Fitted parameters are well-formed, ordered by mean, and bit-identical
    across repeated fits of the same values."""
    rng = np.random.default_rng(88)
    for _ in range(N_CASES):
        values = _random_loss_sample(rng)
        if np.unique(values).size < 2:
            continue
        first = fit_gmm(values)
        second = fit_gmm(values.copy())
        assert np.array_equal(first.means, second.means)
        assert np.array_equal(first.variances, second.variances)
        assert np.array_equal(first.weights, second.weights)
        assert first.means[0] <= first.means[1]
        assert np.all(first.variances >= VARIANCE_FLOOR)
        assert np.all(first.weights >= 0.0)
        assert abs(first.weights.sum() - 1.0) <= 1e-9
        w = posterior_clean(first, values)
        assert np.array_equal(w, posterior_clean(second, values))


def test_em_log_likelihood_monotone_property():
    """Every evaluated EM candidate improves on its predecessor (to 1e-9),
    except the final rejected one which may fall short of tol."""
    rng = np.random.default_rng(99)
    for _ in range(N_CASES):
        values = _random_loss_sample(rng)
        if np.unique(values).size < 2:
            continue
        _, trace = fit_gmm_trace(values)
        assert np.all(np.diff(trace) >= -1e-9), trace


# ---------------------------------------------------------------------------
# Posterior
# ---------------------------------------------------------------------------


def test_posterior_scalar_and_array_forms():
    params = GMMParams(
        means=np.array([0.0, 4.0]),
        variances=np.array([1.0, 1.0]),
        weights=np.array([0.5, 0.5]),
    )
    scalar = posterior_clean(params, 2.0)
    assert isinstance(scalar, np.ndarray) and scalar.shape == ()
    assert float(scalar) == pytest.approx(0.5)
    arr = posterior_clean(params, np.array([[-1.0, 2.0], [5.0, 0.0]]))
    assert arr.shape == (2, 2)
    assert arr[0, 1] == pytest.approx(0.5)


def test_posterior_mean_tie_declares_everything_clean():
    params = GMMParams(
        means=np.array([1.0, 1.0]),
        variances=np.array([0.1, 2.0]),
        weights=np.array([0.3, 0.7]),
    )
    w = posterior_clean(params, np.array([-5.0, 0.0, 1.0, 9.0]))
    assert np.array_equal(w, np.ones(4))
    assert posterior_clean(params, 3.3) == 1.0


def test_posterior_bounds_and_complement_property():
    """posterior in [0, 1]; adds to the upper component's posterior as 1
    within 1e-12, for random parameters and inputs including extreme tails."""
    rng = np.random.default_rng(55)
    for _ in range(N_CASES):
        m0 = rng.uniform(-2.0, 2.0)
        p_clean = rng.uniform(0.05, 0.95)
        params = GMMParams(
            means=np.array([m0, m0 + rng.uniform(1e-6, 6.0)]),
            variances=rng.uniform(1e-4, 4.0, size=2),
            weights=np.array([p_clean, 1.0 - p_clean]),
        )
        values = np.concatenate(
            [
                rng.normal(params.means[0], 1.0, size=5),
                rng.normal(params.means[1], 1.0, size=5),
                np.array([m0 - 50.0, m0 + 50.0]),
            ]
        )
        w = posterior_clean(params, values)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        noisy = _manual_posteriors(params, values)[:, 1]
        assert np.all(np.abs(w + noisy - 1.0) <= 1e-12)


def test_posterior_non_increasing_with_equal_spread_property():
    """With equal variances and weights the posterior decays monotonically in
    the value whenever the means are distinct."""
    rng = np.random.default_rng(66)
    for _ in range(N_CASES):
        m0 = rng.uniform(-3.0, 3.0)
        gap = rng.uniform(1e-3, 5.0)
        var = rng.uniform(1e-4, 4.0)
        params = GMMParams(
            means=np.array([m0, m0 + gap]),
            variances=np.array([var, var]),
            weights=np.array([0.5, 0.5]),
        )
        grid = np.sort(rng.uniform(m0 - 10.0, m0 + gap + 10.0, size=31))
        w = posterior_clean(params, grid)
        assert np.all(np.diff(w) <= 1e-12)

