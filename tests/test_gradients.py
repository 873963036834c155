"""Finite-difference validation of every analytic gradient path.

Random small models (buckets <= 64, hidden <= 16, classes <= 4) are checked
for every loss term the trainer uses — cross-entropy (hard and soft targets),
confidence, dropout-agreement, and weighted composites of all three — with
central differences at step 1e-6 against a relative tolerance of 1e-5. Every
item names a feature bag, a row of one feature matrix, so each check covers
the embedding rows it pools as well as the head; the acceptance gate's
criterion 1 adds the mixup term's items, which mix two pooled rows. Every
model owns a row for each of its buckets, so the checks cover non-zero
embedding rows. Batches of 15 to 50 items, each on its own row, cross the
document blocks ``backward`` pools in; they are also compared with a
per-item loop to 1e-12.
"""
from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    N_CASES,
    bag,
    finite_difference,
    grad_lookup,
    joined,
    matrix_of,
    param_arrays,
    random_distribution,
    random_features,
    relative_error,
    small_params,
)
from selfmix.encoder import _masks, backward, make_batch

STEP = 1e-6
REL_TOL = 1e-5
COORDS_PER_ARRAY = 2


def _random_item(rng: np.random.Generator, params, kind: str, row: int = 0):
    """A random bag and a one-item batch of ``kind`` that names it as row ``row``."""
    bag = random_features(rng, params.num_buckets)
    target = np.zeros(params.num_classes)  # only a ce term reads it
    if kind == "ce":
        if rng.random() < 0.5:
            target = np.zeros(params.num_classes)
            target[int(rng.integers(params.num_classes))] = 1.0
        else:
            target = random_distribution(rng, params.num_classes)
    return bag, make_batch(
        [row],
        kind,
        target=target,
        weight=float(rng.uniform(0.2, 1.5)),
        key=int(rng.integers(0, 8)),
    )


def _check_case(
    rng: np.random.Generator, items, features, params, mask_seed, buckets=()
) -> float:
    """Worst relative error over random coordinates of every array, plus
    one coordinate of the embedding row of each bucket of ``buckets``."""
    _, grads, _ = backward(params, items, features, mask_seed=mask_seed)
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
            fd = finite_difference(params, items, features, mask_seed, name, idx, step=STEP)
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
            bag, item = _random_item(rng, params, kind)
            worst = max(worst, _check_case(rng, item, matrix_of([bag]), params, mask_seed))
            case += 1
    assert worst <= REL_TOL, f"worst relative error {worst:.3e}"


def test_composite_batch_gradients_match_finite_differences():
    """Mixed batches combining every kind and weight."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(N_CASES):
        params = small_params(rng)
        mask_seed = int(rng.integers(2**31))
        bags, items = [], []
        for row in range(int(rng.integers(2, 5))):
            kind = str(rng.choice(["ce", "pseudo", "rdrop"]))
            bag, item = _random_item(rng, params, kind, row)
            bags.append(bag)
            items.append(item)
        worst = max(worst, _check_case(rng, joined(*items), matrix_of(bags), params, mask_seed))
    assert worst <= REL_TOL, f"worst relative error {worst:.3e}"


def test_feature_input_touches_only_its_rows():
    rng = np.random.default_rng(404)
    for _ in range(50):
        params = small_params(rng)
        bag, item = _random_item(rng, params, "ce")
        _, grads, _ = backward(params, item, matrix_of([bag]), mask_seed=1)
        assert set(grads.emb_rows.tolist()) <= set(bag.indices.tolist())


BLOCK_SIZES = (15, 16, 17, 33, 50)


def _block_batch(rng: np.random.Generator, params, size: int):
    """``size`` items of every kind, each on its own row, across the
    document blocks ``backward`` pools in (16 rows each). Row 0's bag is
    empty, row 1 names a bucket twice, and rows 1, 2 and ``size - 1`` share
    a bucket, which lies in two blocks once ``size`` exceeds 16. Returns the
    items, their feature matrix, the repeated bucket and the shared one."""
    kinds = ["ce", "pseudo", "rdrop"] + [
        str(k) for k in rng.choice(["ce", "pseudo", "rdrop"], size=size - 3)
    ]
    rng.shuffle(kinds)
    bags, items = zip(*(_random_item(rng, params, kind, row) for row, kind in enumerate(kinds)))
    bags = list(bags)
    repeated, shared = (int(b) for b in rng.choice(params.num_buckets, 2, replace=False))
    bags[0] = bag(np.empty(0, dtype=np.int64), np.empty(0))
    bags[1] = bag(np.array([repeated, shared, repeated]), np.array([0.3, 0.5, 0.2]))
    for pos in (2, size - 1):
        doc = bags[pos]
        bags[pos] = bag(np.append(doc.indices, shared), np.append(doc.weights, 0.4))
    return joined(*items), matrix_of(bags), repeated, shared


def test_batches_spanning_blocks_match_finite_differences():
    """Composite batches of 15 to 50 items, checked at the rows of the
    repeated and the shared bucket as well as at random coordinates."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for size in BLOCK_SIZES:
        for _ in range(N_CASES // 10):
            params = small_params(rng)
            mask_seed = int(rng.integers(2**31))
            items, features, repeated, shared = _block_batch(rng, params, size)
            worst = max(
                worst, _check_case(rng, items, features, params, mask_seed, (repeated, shared))
            )
    assert worst <= REL_TOL, f"worst relative error {worst:.3e}"


def _reference_backward(params, items, features, mask_seed):
    """``backward`` as a loop over the batch's records: each item's rows
    pooled and mixed, run through the head and differentiated on its own,
    its embedding gradient added per bucket."""
    total = 0.0
    breakdown: dict[str, tuple[float, int]] = {}
    head = {name: np.zeros_like(getattr(params, name)) for name in ("w1", "b1", "w2", "b2")}
    emb: dict[int, np.ndarray] = {}
    for item in items:
        kind = str(item.kind)
        parents = (
            (features.take([item.row]), item.lam),
            (features.take([item.partner]), 1.0 - item.lam),
        )
        e = np.zeros(params.hidden)
        for doc, coef in parents:
            for bucket, weight in zip(doc.indices, doc.weights):
                e += coef * weight * params.embedding[params.slot[bucket]]
        passes = []
        for k in range(2 if kind == "rdrop" else 1):
            mask = _masks(params, mask_seed, np.array([item.key]), np.array([k]))[0]
            a1 = e @ params.w1 + params.b1
            h = np.maximum(a1, 0.0) * mask
            z = h @ params.w2 + params.b2
            log_p = z - z.max() - np.log(np.exp(z - z.max()).sum())
            passes.append((a1, h, mask, np.exp(log_p), log_p))
        p, log_p = passes[0][3], passes[0][4]
        if kind == "ce":
            loss = -(item.target * log_p).sum()
            g_zs = [p - item.target]
        elif kind == "pseudo":
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
        raw, count = breakdown.get(kind, (0.0, 0))
        breakdown[kind] = (raw + loss, count + 1)
        d_e = np.zeros(params.hidden)
        for (a1, h, mask, _, _), g_z in zip(passes, g_zs):
            g_z = item.weight * g_z
            d_hidden = (params.w2 @ g_z) * mask * (a1 > 0.0)
            head["w2"] += np.outer(h, g_z)
            head["b2"] += g_z
            head["w1"] += np.outer(e, d_hidden)
            head["b1"] += d_hidden
            d_e += params.w1 @ d_hidden
        for doc, coef in parents:
            for bucket, weight in zip(doc.indices.tolist(), doc.weights):
                emb[bucket] = emb.get(bucket, np.zeros(params.hidden)) + coef * weight * d_e
    return total, breakdown, head, emb


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_blocked_backward_matches_a_per_item_loop(size):
    """The total, the breakdown and every gradient agree with the loop to 1e-12."""
    rng = np.random.default_rng(505 + size)
    for _ in range(N_CASES // 20):
        params = small_params(rng)
        mask_seed = int(rng.integers(2**31))
        items, features, _, _ = _block_batch(rng, params, size)
        total, grads, breakdown = backward(params, items, features, mask_seed=mask_seed)
        ref_total, ref_breakdown, ref_head, ref_emb = _reference_backward(
            params, items, features, mask_seed
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


def test_a_mixed_item_at_full_weight_or_on_its_own_row_is_the_plain_item():
    """A mixup item with lam = 1, or whose partner is its own row, reads and
    trains exactly as the plain item on its row: the total, the breakdown
    and every gradient are equal bit for bit."""
    rng = np.random.default_rng(606)
    for _ in range(N_CASES // 10):
        params = small_params(rng)
        mask_seed = int(rng.integers(2**31))
        items, features, _, _ = _block_batch(rng, params, int(rng.choice(BLOCK_SIZES)))
        k, partner = (int(i) for i in rng.integers(len(items), size=2))
        own_row = float(rng.uniform(0.5, 1.0))
        want = backward(params, items, features, mask_seed=mask_seed)
        for mixed_partner, lam in ((partner, 1.0), (items.row[k], own_row)):
            batch = items.copy()
            batch.partner[k], batch.lam[k] = mixed_partner, lam
            got = backward(params, batch, features, mask_seed=mask_seed)
            assert got[0] == want[0] and got[2] == want[2]
            for name in ("emb_rows", "emb_vals", "w1", "b1", "w2", "b2"):
                assert np.array_equal(getattr(got[1], name), getattr(want[1], name)), name
