"""Shared helpers for the test suite.

Property suites run at N_CASES (200) random cases each; hypothesis-based
suites use the "invariants" profile with the same example budget and
derandomized generation so a green suite stays green.
"""
from __future__ import annotations

from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from selfmix import core
from selfmix.common import round_half_up, subseed
from selfmix.data import Dataset, Example
from selfmix.encoder import (
    FeatureMatrix,
    Gradients,
    ModelParams,
    backward,
    init_params,
    make_batch,
)

N_CASES = 200

settings.register_profile(
    "invariants",
    max_examples=N_CASES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("invariants")


def without_oracle(ds: Dataset) -> Dataset:
    """``ds`` with every true label removed: what training sees."""
    stripped = tuple(replace(ex, true_label=None) for ex in ds)
    return Dataset(stripped, ds.num_classes, ds.name)


def small_params(
    rng: np.random.Generator,
    *,
    max_buckets: int = 64,
    max_hidden: int = 16,
    max_classes: int = 4,
    dropout_rate: float | None = None,
) -> ModelParams:
    """A random small model, sized per the gradient-check contract, that
    owns a row for every bucket."""
    num_buckets = int(rng.integers(4, max_buckets + 1))
    hidden = int(rng.integers(2, max_hidden + 1))
    num_classes = int(rng.integers(2, max_classes + 1))
    if dropout_rate is None:
        dropout_rate = float(rng.choice([0.0, 0.2, 0.5]))
    params = init_params(
        num_buckets,
        hidden,
        num_classes,
        dropout_rate,
        seed=int(rng.integers(2**31)),
        buckets=range(num_buckets),
    )
    # Noise the zero-initialized biases: exact logit ties and exact relu
    # zeros are kinks where a finite difference straddles two branches.
    params.b1 += rng.normal(scale=0.05, size=params.b1.shape)
    params.b2 += rng.normal(scale=0.05, size=params.b2.shape)
    return params


def bag(indices, weights) -> FeatureMatrix:
    """A one-row matrix: one document naming ``indices`` with ``weights``."""
    indices = np.asarray(indices, dtype=np.int64)
    return FeatureMatrix(
        np.array([0, indices.size], dtype=np.int64), indices, np.asarray(weights, dtype=np.float64)
    )


def random_features(rng: np.random.Generator, num_buckets: int) -> FeatureMatrix:
    """A random one-row feature matrix with normalized positive weights."""
    size = int(rng.integers(1, min(6, num_buckets) + 1))
    indices = np.sort(rng.choice(num_buckets, size=size, replace=False)).astype(np.int64)
    weights = rng.random(size) + 0.1
    weights /= weights.sum()
    return bag(indices, weights)


def matrix_of(bags) -> FeatureMatrix:
    """The rows of the matrices ``bags``, in order, stacked as one matrix."""
    indptr = np.zeros(1 + sum(len(b) for b in bags), dtype=np.int64)
    np.cumsum([size for b in bags for size in b.sizes()], out=indptr[1:])
    return FeatureMatrix(
        indptr,
        np.concatenate([np.empty(0, dtype=np.int64)] + [b.indices for b in bags]),
        np.concatenate([np.empty(0)] + [b.weights for b in bags]),
    )


def joined(*parts: np.recarray) -> np.recarray:
    """The batches ``parts``, in order, as one batch."""
    return np.concatenate(parts).view(np.recarray)


def rows_of(features: FeatureMatrix) -> list[FeatureMatrix]:
    """Each row of ``features`` as a one-row matrix, in order."""
    return [features.take([i]) for i in range(len(features))]


def reference_tokenize(text: str) -> list[str]:
    """The reference tokenizer: runs of ``str.isalnum`` code points, lowercased."""
    return ["".join(run) for alnum, run in groupby(text.lower(), key=str.isalnum) if alnum]


def reference_fnv1a64(data: bytes) -> int:
    """The reference FNV-1a 64: one Python-int step per byte."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def reference_labeled_pool(
    n: int,
    num_classes: int,
    *,
    class_vocab: int = 40,
    shared_vocab: int = 40,
    doc_len: tuple[int, int] = (8, 14),
    shared_fraction: float = 0.3,
    ambiguous_fraction: float = 0.0,
    seed: int = 0,
    name: str = "synthetic",
) -> tuple[Dataset, frozenset[int]]:
    """The reference ``make_labeled_pool``: one scalar ``Generator`` call per
    draw, in the order the documents and their words are written."""
    rng = np.random.default_rng(seed)
    lo, hi = doc_len
    num_ambiguous = round_half_up(ambiguous_fraction * n)
    examples = []
    for i in range(n):
        c = i % num_classes
        length = int(rng.integers(lo, hi + 1))
        ambiguous = i < num_ambiguous
        words = []
        for _ in range(length):
            from_shared = ambiguous or rng.random() < shared_fraction
            if from_shared:
                pair = (c - 1) % num_classes if rng.random() < 0.5 else c
                words.append(f"s{pair}w{int(rng.integers(shared_vocab)):03d}")
            else:
                words.append(f"c{c}w{int(rng.integers(class_vocab)):03d}")
        examples.append(Example(id=i, text=" ".join(words), observed_label=c))
    return Dataset(tuple(examples), num_classes, name), frozenset(range(num_ambiguous))


def reference_featurize(text: str, num_buckets: int) -> FeatureMatrix:
    """The reference featurizer: every unigram and adjacent bigram hashed on
    its own, counted in a dict, normalized by the total count."""
    tokens = reference_tokenize(text)
    grams = tokens + [f"{left}\x1f{right}" for left, right in zip(tokens, tokens[1:])]
    counts: dict[int, int] = {}
    for gram in grams:
        bucket = reference_fnv1a64(gram.encode("utf-8")) % num_buckets
        counts[bucket] = counts.get(bucket, 0) + 1
    if not counts:
        return bag(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    indices = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[i] for i in indices], dtype=np.float64)
    weights /= weights.sum()
    return bag(indices, weights)


def reference_ce_items(targets: np.ndarray):
    """The reference plain cross-entropy batch ``b``: one ``make_batch``
    call on its positions ``batch``, as the trainer built it one batch at a
    time."""
    return lambda b, batch: make_batch(
        batch, "ce", target=targets[batch], weight=1.0 / batch.size, key=batch
    )


def reference_selfmix_items(run, split, epoch: int):
    """The reference adaptive batch ``b`` of ``run`` under ``split``: its
    coefficients and partners drawn, its unlabeled members guessed by
    ``run.guess``, and its mixup, pseudo and rdrop records made by
    ``core.embmix`` and ``make_batch``, one batch at a time."""
    cfg = run.cfg

    def items_for(b: int, batch: np.ndarray) -> np.recarray:
        m = batch.size
        rng = np.random.default_rng(subseed(cfg.seed, "mixup", epoch, b))
        lam = rng.beta(cfg.alpha, cfg.alpha, size=m)
        partners = rng.integers(0, m, size=m)
        targets = run.targets[batch]
        u_rows = np.flatnonzero(~split.labeled[batch])
        u_members = batch[u_rows]
        if u_rows.size:
            targets[u_rows] = run.guess(u_members)
        parts = [core.embmix(
            batch, targets, batch[partners], targets[partners], lam,
            weight=1.0 / m, key=core._MIX_KEY_BASE,
        )]
        for kind, weight in (("pseudo", cfg.lambda_p), ("rdrop", cfg.lambda_r)):
            if weight > 0.0 and u_rows.size:
                parts.append(make_batch(
                    u_members, kind, target=targets[u_rows], weight=weight / u_rows.size,
                    key=u_members,
                ))
        return np.concatenate(parts).view(np.recarray)

    return items_for


def mask_of(size: int, positions) -> np.ndarray:
    """A bool mask over ``size`` positions, true at ``positions``."""
    out = np.zeros(size, dtype=bool)
    out[list(positions)] = True
    return out


def random_distribution(rng: np.random.Generator, num_classes: int) -> np.ndarray:
    p = rng.random(num_classes) + 1e-3
    return p / p.sum()


def param_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Every learnable array; the embedding as a view of the owned rows
    (row 0, the zero row unowned buckets read, is not a parameter)."""
    return [
        ("embedding", params.embedding[1:]),
        ("w1", params.w1),
        ("b1", params.b1),
        ("w2", params.w2),
        ("b2", params.b2),
    ]


def grad_lookup(grads: Gradients, params: ModelParams, name: str, flat_index: int) -> float:
    """Read one analytic gradient coordinate.

    Row ``r`` of the embedding view is table row ``r + 1``; its gradient is
    that of the bucket owning it, 0 if that bucket has none.
    """
    if name == "embedding":
        row, col = divmod(flat_index, params.hidden)
        hit = np.flatnonzero(params.slot[grads.emb_rows] == row + 1)
        return float(grads.emb_vals[hit, col].sum())
    return float(getattr(grads, name).reshape(-1)[flat_index])


def finite_difference(
    params: ModelParams,
    items: np.recarray,
    features: FeatureMatrix,
    mask_seed: int | None,
    name: str,
    flat_index: int,
    step: float = 1e-6,
) -> float:
    """Central finite difference of the batch objective in one coordinate."""
    arr = dict(param_arrays(params))[name].reshape(-1)
    saved = arr[flat_index]
    arr[flat_index] = saved + step
    plus, _, _ = backward(params, items, features, mask_seed=mask_seed)
    arr[flat_index] = saved - step
    minus, _, _ = backward(params, items, features, mask_seed=mask_seed)
    arr[flat_index] = saved
    return (plus - minus) / (2.0 * step)


def relative_error(a: float, b: float) -> float:
    """Relative error with an absolute guard for coordinates a central
    difference cannot resolve: FD noise is ~eps*|loss|/step ~ 1e-10, so
    magnitudes below 1e-4 are effectively compared absolutely at 1e-9."""
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
