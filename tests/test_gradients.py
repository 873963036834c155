"""Finite-difference validation of every analytic gradient path.

Random small models (buckets <= 64, hidden <= 16, classes <= 4) are checked
for every loss term the trainer uses — cross-entropy (hard and soft targets),
confidence, dropout-agreement, and weighted composites of all three — with
central differences at step 1e-6 against a relative tolerance of 1e-5. Every
input is a feature bag, so each check covers the embedding rows it pools as
well as the head; the acceptance gate's criterion 1 adds the mixed bags of
the mixup term. Every model owns a row for each of its buckets, so the
checks cover non-zero embedding rows. Batches of 15 to 50 items cross the
item blocks ``backward`` pools in; they are also compared with a per-item
loop to 1e-12.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

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
from selfmix.encoder import BatchItem, FeatureVector, _masks, backward

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


def _check_case(rng: np.random.Generator, items, params, mask_seed, buckets=()) -> float:
    """Worst relative error over random coordinates of every array, plus
    one coordinate of the embedding row of each bucket of ``buckets``."""
    _, grads, _ = backward(params, items, mask_seed=mask_seed)
    worst = 0.0
    for name, arr in param_arrays(params):
        flat = arr.reshape(-1)
        picks = [int(rng.integers(flat.size)) for _ in range(COORDS_PER_ARRAY)]
        if name == "embedding":
            picks += [
                int(params.slot[b] - 1) * params.hidden + int(rng.integers(params.hidden))
                for b in buckets
            ]
        for idx in picks:
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


BLOCK_SIZES = (15, 16, 17, 33, 50)


def _block_batch(rng: np.random.Generator, params, size: int):
    """``size`` items of every kind, across the item blocks ``backward`` pools
    in (16 items each). Item 0's bag is empty, item 1 names a bucket twice,
    and items 1, 2 and ``size - 1`` share a bucket, which lies in two blocks
    once ``size`` exceeds 16. Returns the items, the repeated bucket and the
    shared one."""
    kinds = ["ce", "pseudo", "rdrop"] + [
        str(k) for k in rng.choice(["ce", "pseudo", "rdrop"], size=size - 3)
    ]
    rng.shuffle(kinds)
    items = [_random_item(rng, params, kind) for kind in kinds]
    repeated, shared = (int(b) for b in rng.choice(params.num_buckets, 2, replace=False))
    empty = FeatureVector(np.empty(0, dtype=np.int64), np.empty(0))
    twice = FeatureVector(np.array([repeated, shared, repeated]), np.array([0.3, 0.5, 0.2]))
    items[0] = replace(items[0], input=empty)
    items[1] = replace(items[1], input=twice)
    for pos in (2, size - 1):
        bag = items[pos].input
        items[pos] = replace(
            items[pos],
            input=FeatureVector(np.append(bag.indices, shared), np.append(bag.weights, 0.4)),
        )
    return items, repeated, shared


def test_batches_spanning_blocks_match_finite_differences():
    """Composite batches of 15 to 50 items, checked at the rows of the
    repeated and the shared bucket as well as at random coordinates."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for size in BLOCK_SIZES:
        for _ in range(N_CASES // 10):
            params = small_params(rng)
            mask_seed = int(rng.integers(2**31))
            items, repeated, shared = _block_batch(rng, params, size)
            worst = max(worst, _check_case(rng, items, params, mask_seed, (repeated, shared)))
    assert worst <= REL_TOL, f"worst relative error {worst:.3e}"


def _reference_backward(params, items, mask_seed):
    """``backward`` as a loop: each item pooled, run through the head and
    differentiated on its own, its embedding gradient added per bucket."""
    total = 0.0
    breakdown: dict[str, tuple[float, int]] = {}
    head = {name: np.zeros_like(getattr(params, name)) for name in ("w1", "b1", "w2", "b2")}
    emb: dict[int, np.ndarray] = {}
    for pos, item in enumerate(items):
        key = pos if item.key is None else item.key
        bag = item.input
        e = np.zeros(params.hidden)
        for bucket, weight in zip(bag.indices, bag.weights):
            e += weight * params.embedding[params.slot[bucket]]
        passes = []
        for k in range(2 if item.kind == "rdrop" else 1):
            mask = _masks(params, mask_seed, np.array([key]), np.array([k]))[0]
            a1 = e @ params.w1 + params.b1
            h = np.maximum(a1, 0.0) * mask
            z = h @ params.w2 + params.b2
            log_p = z - z.max() - np.log(np.exp(z - z.max()).sum())
            passes.append((a1, h, mask, np.exp(log_p), log_p))
        p, log_p = passes[0][3], passes[0][4]
        if item.kind == "ce":
            loss = -(item.target * log_p).sum()
            g_zs = [p - item.target]
        elif item.kind == "pseudo":
            top = int(np.argmax(p))
            loss = -log_p[top]
            g_zs = [p - np.eye(p.size)[top]]
        else:
            q = passes[1][3]
            delta = np.log(np.maximum(p, 1e-12)) - np.log(np.maximum(q, 1e-12))
            kl_pq, kl_qp = (p * delta).sum(), (q * -delta).sum()
            loss = 0.5 * (kl_pq + kl_qp)
            g_zs = [0.5 * (p * (delta - kl_pq) + p - q), 0.5 * (q * (-delta - kl_qp) + q - p)]
        total += item.weight * loss
        raw, count = breakdown.get(item.kind, (0.0, 0))
        breakdown[item.kind] = (raw + loss, count + 1)
        d_e = np.zeros(params.hidden)
        for (a1, h, mask, _, _), g_z in zip(passes, g_zs):
            g_z = item.weight * g_z
            d_hidden = (params.w2 @ g_z) * mask * (a1 > 0.0)
            head["w2"] += np.outer(h, g_z)
            head["b2"] += g_z
            head["w1"] += np.outer(e, d_hidden)
            head["b1"] += d_hidden
            d_e += params.w1 @ d_hidden
        for bucket, weight in zip(bag.indices.tolist(), bag.weights):
            emb[bucket] = emb.get(bucket, np.zeros(params.hidden)) + weight * d_e
    return total, breakdown, head, emb


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_blocked_backward_matches_a_per_item_loop(size):
    """The total, the breakdown and every gradient agree with the loop to 1e-12."""
    rng = np.random.default_rng(505 + size)
    for _ in range(N_CASES // 20):
        params = small_params(rng)
        mask_seed = int(rng.integers(2**31))
        items, _, _ = _block_batch(rng, params, size)
        total, grads, breakdown = backward(params, items, mask_seed=mask_seed)
        ref_total, ref_breakdown, ref_head, ref_emb = _reference_backward(
            params, items, mask_seed
        )
        assert total == pytest.approx(ref_total, rel=1e-12, abs=1e-12)
        assert breakdown.keys() == ref_breakdown.keys()
        for kind, (raw, count) in breakdown.items():
            assert count == ref_breakdown[kind][1]
            assert raw == pytest.approx(ref_breakdown[kind][0], rel=1e-12, abs=1e-12)
        assert grads.emb_rows.tolist() == sorted(ref_emb)
        np.testing.assert_allclose(
            grads.emb_vals, [ref_emb[b] for b in sorted(ref_emb)], rtol=1e-12, atol=1e-12
        )
        for name, expected in ref_head.items():
            np.testing.assert_allclose(getattr(grads, name), expected, rtol=1e-12, atol=1e-12)
