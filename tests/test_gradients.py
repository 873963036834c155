"""Finite-difference validation of every analytic gradient path.

Random small models (buckets <= 64, hidden <= 16, classes <= 4) are checked
for every loss term the trainer uses — cross-entropy (hard and soft targets),
confidence, dropout-agreement, and weighted composites of all three — with
central differences at step 1e-6 against a relative tolerance of 1e-5. Every
input is a feature bag, so each check covers the embedding rows it pools as
well as the head; the acceptance gate's criterion 1 adds the mixed bags of
the mixup term. Every model owns a row for each of its buckets, so the
checks cover non-zero embedding rows.
"""
from __future__ import annotations

import numpy as np

from conftest import (
    N_CASES,
    finite_difference,
    grad_lookup,
    param_arrays,
    random_distribution,
    random_features,
    relative_error,
    small_params,
)
from selfmix.encoder import BatchItem, backward

STEP = 1e-6
REL_TOL = 1e-5
COORDS_PER_ARRAY = 2


def _random_item(rng: np.random.Generator, params, kind: str):
    item_input = random_features(rng, params.num_buckets)
    target = None
    if kind == "ce":
        if rng.random() < 0.5:
            target = np.zeros(params.num_classes)
            target[int(rng.integers(params.num_classes))] = 1.0
        else:
            target = random_distribution(rng, params.num_classes)
    return BatchItem(
        item_input,
        kind,
        target,
        weight=float(rng.uniform(0.2, 1.5)),
        key=int(rng.integers(0, 8)),
    )


def _check_case(rng: np.random.Generator, items, params, mask_seed) -> float:
    _, grads, _ = backward(params, items, mask_seed=mask_seed)
    worst = 0.0
    for name, arr in param_arrays(params):
        flat = arr.reshape(-1)
        for _ in range(COORDS_PER_ARRAY):
            idx = int(rng.integers(flat.size))
            analytic = grad_lookup(grads, params, name, idx)
            fd = finite_difference(params, items, mask_seed, name, idx, step=STEP)
            worst = max(worst, relative_error(analytic, fd))
    return worst


def test_single_term_gradients_match_finite_differences():
    """Each loss kind alone, with dropout on and off."""
    rng = np.random.default_rng(101)
    worst = 0.0
    case = 0
    while case < N_CASES:
        for kind in ("ce", "pseudo", "rdrop"):
            params = small_params(rng)
            mask_seed = int(rng.integers(2**31)) if rng.random() < 0.5 else None
            items = [_random_item(rng, params, kind)]
            worst = max(worst, _check_case(rng, items, params, mask_seed))
            case += 1
    assert worst <= REL_TOL, f"worst relative error {worst:.3e}"


def test_composite_batch_gradients_match_finite_differences():
    """Mixed batches combining every kind and weight."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(N_CASES):
        params = small_params(rng)
        mask_seed = int(rng.integers(2**31))
        items = []
        for _ in range(int(rng.integers(2, 5))):
            kind = str(rng.choice(["ce", "pseudo", "rdrop"]))
            items.append(_random_item(rng, params, kind))
        worst = max(worst, _check_case(rng, items, params, mask_seed))
    assert worst <= REL_TOL, f"worst relative error {worst:.3e}"


def test_feature_input_touches_only_its_rows():
    rng = np.random.default_rng(404)
    for _ in range(50):
        params = small_params(rng)
        item = _random_item(rng, params, "ce")
        _, grads, _ = backward(params, [item], mask_seed=1)
        assert set(grads.emb_rows.tolist()) <= set(item.input.indices.tolist())
