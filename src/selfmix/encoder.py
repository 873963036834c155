"""A from-scratch text classifier with exact, hand-derived gradients.

Pipeline: text -> hashed n-gram features -> embedding-bag average -> 2-layer
MLP head -> softmax. Everything is numpy float64; no autodiff framework is
involved, so every loss term exposes its logit gradient in closed form and
the whole backward pass is checkable against finite differences.

Three loss kinds are supported per batch item:

- ``"ce"``     cross-entropy against a (possibly soft) target distribution
- ``"pseudo"`` negative log of the model's own top probability (confidence)
- ``"rdrop"``  half the symmetric KL between two dropout-perturbed passes

:func:`backward` is the single batch evaluator and the only definition of
each formula (``rdrop_from_probs`` is its agreement helper): it returns the
weighted total, a per-kind breakdown and, unless ``compute_grads`` is off,
the exact gradients.

Dropout is inverted dropout with one site (the hidden layer). All masks are
derived from a ``mask_seed`` plus a per-item key and pass index, so a forward
pass is a pure function of (params, items, mask_seed), which is exactly what
finite-difference checking and reproducible training need. Items of different
kinds that share a key also share per-pass masks; this is how a confidence
term can be evaluated on the same perturbed pass as a consistency term.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

import numpy as np

from .common import NumericError, subseed

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_BIGRAM_SEP = "\x1f"
_LOG_FLOOR = 1e-12
_MAGIC = b"SMX1"


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric codepoints."""
    return ["".join(run) for alnum, run in groupby(text.lower(), key=str.isalnum) if alnum]


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class FeatureVector:
    """Sparse hashed-n-gram representation: sorted bucket ids + weights.

    Weights are occurrence counts normalized to sum to 1, so the embedding
    lookup is an average over the document's unigrams and adjacent bigrams.
    Empty text yields an empty vector (and a zero embedding downstream).
    """

    indices: np.ndarray
    weights: np.ndarray


def featurize(tokens: list[str], num_buckets: int) -> FeatureVector:
    """Hash unigrams and adjacent bigrams into ``num_buckets`` buckets."""
    if num_buckets < 1:
        raise ValueError("num_buckets must be at least 1")
    counts: dict[int, int] = {}
    for tok in tokens:
        bucket = fnv1a64(tok.encode("utf-8")) % num_buckets
        counts[bucket] = counts.get(bucket, 0) + 1
    for left, right in zip(tokens, tokens[1:]):
        bucket = fnv1a64((left + _BIGRAM_SEP + right).encode("utf-8")) % num_buckets
        counts[bucket] = counts.get(bucket, 0) + 1
    if not counts:
        return FeatureVector(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    indices = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[i] for i in indices], dtype=np.float64)
    weights /= weights.sum()
    return FeatureVector(indices, weights)


def featurize_text(text: str, num_buckets: int) -> FeatureVector:
    """Tokenize then featurize in one step."""
    return featurize(tokenize(text), num_buckets)


@dataclass
class ModelParams:
    """All learnable arrays, plus the dropout rate baked into the model."""

    embedding: np.ndarray  # (num_buckets, hidden)
    w1: np.ndarray  # (hidden, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, num_classes)
    b2: np.ndarray  # (num_classes,)
    dropout_rate: float

    @property
    def num_buckets(self) -> int:
        return self.embedding.shape[0]

    @property
    def hidden(self) -> int:
        return self.embedding.shape[1]

    @property
    def num_classes(self) -> int:
        return self.w2.shape[1]


def init_params(
    num_buckets: int,
    hidden: int,
    num_classes: int,
    dropout_rate: float,
    seed: int,
) -> ModelParams:
    """Gaussian init: small embeddings, He-scaled head, zero biases."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    embedding = rng.normal(0.0, 0.1, size=(num_buckets, hidden))
    w1 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, hidden))
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, num_classes))
    return ModelParams(
        embedding=embedding,
        w1=w1,
        b1=np.zeros(hidden),
        w2=w2,
        b2=np.zeros(num_classes),
        dropout_rate=float(dropout_rate),
    )


def encode(params: ModelParams, features: FeatureVector) -> np.ndarray:
    """Weighted average of embedding rows; zero vector for empty input."""
    if features.indices.size == 0:
        return np.zeros(params.hidden)
    if int(features.indices[0]) < 0 or int(features.indices[-1]) >= params.num_buckets:
        raise ValueError("feature index out of range for the embedding table")
    return features.weights @ params.embedding[features.indices]


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted softmax; rejects non-finite logits."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NumericError("non-finite logits passed to softmax")
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


@dataclass(frozen=True)
class BatchItem:
    """One loss term: an input, a kind, an optional target, and a weight.

    ``input`` is either a :class:`FeatureVector` (full path, embedding rows
    receive gradient) or a precomputed embedding array entering at the head
    (head-only gradient). ``target`` is a class distribution for ``"ce"``
    and ignored otherwise. ``key`` names the item's dropout streams; it
    defaults to the item's position in the batch.
    """

    input: FeatureVector | np.ndarray
    kind: str = "ce"
    target: np.ndarray | None = None
    weight: float = 1.0
    key: int | None = None


@dataclass
class Gradients:
    """Sparse embedding gradient (touched rows only) plus dense head grads."""

    emb_rows: np.ndarray  # (R,) int64, sorted
    emb_vals: np.ndarray  # (R, hidden)
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def _dropout_mask(
    params: ModelParams, mask_seed: int | None, key: int, pass_index: int
) -> np.ndarray:
    rate = params.dropout_rate
    if mask_seed is None or rate == 0.0:
        return np.ones(params.hidden)
    rng = np.random.default_rng(subseed(mask_seed, "mask", key, pass_index))
    keep = rng.random(params.hidden) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


@dataclass
class _Pass:
    """Forward intermediates for one (input, mask) pass."""

    e: np.ndarray
    mask: np.ndarray
    a1: np.ndarray
    h_drop: np.ndarray
    z: np.ndarray
    p: np.ndarray
    log_p: np.ndarray


def _forward(params: ModelParams, e: np.ndarray, mask: np.ndarray) -> _Pass:
    a1 = e @ params.w1 + params.b1
    h = np.maximum(a1, 0.0)
    h_drop = h * mask
    z = h_drop @ params.w2 + params.b2
    log_p = log_softmax(z)
    return _Pass(e=e, mask=mask, a1=a1, h_drop=h_drop, z=z, p=np.exp(log_p), log_p=log_p)


def head_forward(
    params: ModelParams,
    e: np.ndarray,
    *,
    dropout_on: bool = False,
    mask_seed: int | None = None,
    key: int = 0,
    pass_index: int = 0,
) -> np.ndarray:
    """Logits of the MLP head for a pooled embedding.

    With ``dropout_on`` the hidden layer is perturbed by the inverted-dropout
    mask derived from (mask_seed, key, pass_index); with it off the pass is a
    pure function of (params, e).
    """
    mask = (
        _dropout_mask(params, mask_seed, key, pass_index)
        if dropout_on
        else np.ones(params.hidden)
    )
    return _forward(params, np.asarray(e, dtype=np.float64), mask).z


class _GradAccumulator:
    def __init__(self, params: ModelParams):
        self.params = params
        self.emb: dict[int, np.ndarray] = {}
        self.w1 = np.zeros_like(params.w1)
        self.b1 = np.zeros_like(params.b1)
        self.w2 = np.zeros_like(params.w2)
        self.b2 = np.zeros_like(params.b2)

    def backprop(self, fwd: _Pass, g_z: np.ndarray, features: FeatureVector | None) -> None:
        """Push a logit gradient back through one pass."""
        self.w2 += np.outer(fwd.h_drop, g_z)
        self.b2 += g_z
        d_hidden = (self.params.w2 @ g_z) * fwd.mask * (fwd.a1 > 0.0)
        self.w1 += np.outer(fwd.e, d_hidden)
        self.b1 += d_hidden
        if features is not None and features.indices.size:
            d_e = self.params.w1 @ d_hidden
            for row, weight in zip(features.indices, features.weights):
                row = int(row)
                if row in self.emb:
                    self.emb[row] += weight * d_e
                else:
                    self.emb[row] = weight * d_e

    def finish(self) -> Gradients:
        rows = np.array(sorted(self.emb), dtype=np.int64)
        vals = (
            np.stack([self.emb[int(r)] for r in rows])
            if rows.size
            else np.empty((0, self.params.hidden))
        )
        return Gradients(rows, vals, self.w1, self.b1, self.w2, self.b2)


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, _LOG_FLOOR))


def backward(
    params: ModelParams,
    items: list[BatchItem] | tuple[BatchItem, ...],
    *,
    mask_seed: int | None = None,
    compute_grads: bool = True,
) -> tuple[float, Gradients | None, dict[str, tuple[float, int]]]:
    """Evaluate (and optionally differentiate) a weighted sum of loss terms.

    This is the one place each loss formula is defined. Returns
    ``(total, grads, breakdown)`` where ``total`` is the weighted objective
    (the sum of ``item.weight * loss`` over items), ``grads`` accumulates
    exact parameter gradients of ``total`` (or None when ``compute_grads``
    is false), and ``breakdown`` maps each loss kind to ``(sum of
    unweighted item losses, item count)``.
    """
    acc = _GradAccumulator(params) if compute_grads else None
    total = 0.0
    breakdown: dict[str, list[float]] = {}

    for position, item in enumerate(items):
        key = item.key if item.key is not None else position
        if isinstance(item.input, FeatureVector):
            features: FeatureVector | None = item.input
            e = encode(params, item.input)
        else:
            features = None
            e = np.asarray(item.input, dtype=np.float64)

        if item.kind == "ce":
            fwd = _forward(params, e, _dropout_mask(params, mask_seed, key, 0))
            if item.target is None:
                raise ValueError("ce items require a target distribution")
            target = np.asarray(item.target, dtype=np.float64)
            loss = float(-(target @ fwd.log_p))
            if acc is not None:
                acc.backprop(fwd, item.weight * (fwd.p - target), features)
        elif item.kind == "pseudo":
            fwd = _forward(params, e, _dropout_mask(params, mask_seed, key, 0))
            top = int(np.argmax(fwd.p))
            loss = float(-fwd.log_p[top])
            if acc is not None:
                g_z = fwd.p.copy()
                g_z[top] -= 1.0
                acc.backprop(fwd, item.weight * g_z, features)
        elif item.kind == "rdrop":
            fwd1 = _forward(params, e, _dropout_mask(params, mask_seed, key, 0))
            fwd2 = _forward(params, e, _dropout_mask(params, mask_seed, key, 1))
            loss = rdrop_from_probs(fwd1.p, fwd2.p)
            if acc is not None:
                delta = _clamped_log(fwd1.p) - _clamped_log(fwd2.p)
                kl12 = float(fwd1.p @ delta)
                kl21 = float(fwd2.p @ -delta)
                g_z1 = 0.5 * (fwd1.p * (delta - kl12) + (fwd1.p - fwd2.p))
                g_z2 = 0.5 * (fwd2.p * (-delta - kl21) + (fwd2.p - fwd1.p))
                acc.backprop(fwd1, item.weight * g_z1, features)
                acc.backprop(fwd2, item.weight * g_z2, features)
        else:
            raise ValueError(f"unknown batch item kind {item.kind!r}")

        if not np.isfinite(loss):
            raise NumericError(
                f"non-finite {item.kind} loss at batch position {position}"
            )
        total += item.weight * loss
        entry = breakdown.setdefault(item.kind, [0.0, 0])
        entry[0] += loss
        entry[1] += 1

    grads = acc.finish() if acc is not None else None
    return total, grads, {k: (s, int(c)) for k, (s, c) in breakdown.items()}


def rdrop_from_probs(p1: np.ndarray, p2: np.ndarray) -> float:
    """Half the symmetric KL between two class distributions, logs floored."""
    delta = _clamped_log(p1) - _clamped_log(p2)
    return float(0.5 * ((p1 @ delta) + (p2 @ -delta)))


def predict_proba(params: ModelParams, features: FeatureVector) -> np.ndarray:
    """Class probabilities with dropout off."""
    fwd = _forward(params, encode(params, features), np.ones(params.hidden))
    return fwd.p


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam state: hyperparameters, step counter, and per-parameter moments.

    Embedding moments are full-size arrays but only rows that received
    gradient in a step are ever touched.
    """

    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    step: int = 0
    m_emb: np.ndarray = field(default=None)  # type: ignore[assignment]
    v_emb: np.ndarray = field(default=None)  # type: ignore[assignment]
    m_w1: np.ndarray = field(default=None)  # type: ignore[assignment]
    v_w1: np.ndarray = field(default=None)  # type: ignore[assignment]
    m_b1: np.ndarray = field(default=None)  # type: ignore[assignment]
    v_b1: np.ndarray = field(default=None)  # type: ignore[assignment]
    m_w2: np.ndarray = field(default=None)  # type: ignore[assignment]
    v_w2: np.ndarray = field(default=None)  # type: ignore[assignment]
    m_b2: np.ndarray = field(default=None)  # type: ignore[assignment]
    v_b2: np.ndarray = field(default=None)  # type: ignore[assignment]


def init_optimizer(
    params: ModelParams,
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> OptimizerState:
    return OptimizerState(
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        step=0,
        m_emb=np.zeros_like(params.embedding),
        v_emb=np.zeros_like(params.embedding),
        m_w1=np.zeros_like(params.w1),
        v_w1=np.zeros_like(params.w1),
        m_b1=np.zeros_like(params.b1),
        v_b1=np.zeros_like(params.b1),
        m_w2=np.zeros_like(params.w2),
        v_w2=np.zeros_like(params.w2),
        m_b2=np.zeros_like(params.b2),
        v_b2=np.zeros_like(params.b2),
    )


def adam_step(params: ModelParams, grads: Gradients, opt: OptimizerState) -> None:
    """One bias-corrected Adam update, in place.

    Head parameters get the textbook dense update. Embedding rows are
    updated lazily: only rows with gradient this step have their moments
    decayed and applied, with bias correction from the shared global step.
    """
    if grads.w1.shape != params.w1.shape or grads.w2.shape != params.w2.shape:
        raise ValueError("gradient shapes do not match the parameters")
    lr, beta1, beta2, eps = opt.learning_rate, opt.beta1, opt.beta2, opt.epsilon
    opt.step += 1
    bc1 = 1.0 - beta1 ** opt.step
    bc2 = 1.0 - beta2 ** opt.step

    dense = [
        (params.w1, opt.m_w1, opt.v_w1, grads.w1),
        (params.b1, opt.m_b1, opt.v_b1, grads.b1),
        (params.w2, opt.m_w2, opt.v_w2, grads.w2),
        (params.b2, opt.m_b2, opt.v_b2, grads.b2),
    ]
    for p, m, v, g in dense:
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    rows = grads.emb_rows
    if rows.size:
        g = grads.emb_vals
        m = beta1 * opt.m_emb[rows] + (1.0 - beta1) * g
        v = beta2 * opt.v_emb[rows] + (1.0 - beta2) * np.square(g)
        opt.m_emb[rows] = m
        opt.v_emb[rows] = v
        params.embedding[rows] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Binary checkpoint: magic, little-endian int64 dims, float64 arrays."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<qqq", params.num_buckets, params.hidden, params.num_classes
            )
        )
        for arr in (params.embedding, params.w1, params.b1, params.w2, params.b2):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        fh.write(np.array([params.dropout_rate], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        num_buckets, hidden, num_classes = struct.unpack("<qqq", fh.read(24))
        if num_buckets < 1 or hidden < 1 or num_classes < 2:
            raise ValueError(
                f"{path}: invalid checkpoint dimensions "
                f"({num_buckets}, {hidden}, {num_classes})"
            )

        def read_array(shape: tuple[int, ...]) -> np.ndarray:
            count = int(np.prod(shape))
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise ValueError(f"{path}: truncated checkpoint")
            return np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)

        embedding = read_array((num_buckets, hidden))
        w1 = read_array((hidden, hidden))
        b1 = read_array((hidden,))
        w2 = read_array((hidden, num_classes))
        b2 = read_array((num_classes,))
        dropout_rate = float(read_array((1,))[0])
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after checkpoint payload")
    for name, arr in (
        ("embedding", embedding),
        ("w1", w1),
        ("b1", b1),
        ("w2", w2),
        ("b2", b2),
    ):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: non-finite values in {name}")
    if not (np.isfinite(dropout_rate) and 0.0 <= dropout_rate < 1.0):
        raise ValueError(f"{path}: dropout_rate {dropout_rate!r} outside [0, 1)")
    return ModelParams(embedding, w1, b1, w2, b2, dropout_rate)
