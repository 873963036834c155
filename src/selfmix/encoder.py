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

A batch is evaluated as one matrix pass: the inputs are pooled with one
gather and one ``reduceat``, the head runs on a ``(rows, hidden)`` matrix
with one row per (item, dropout pass), and the embedding gradient is reduced
over the touched rows with one stable sort.

A text's features are the fastText bag of its lowercased alphanumeric tokens
and adjacent token pairs (Joulin et al., EACL 2017), hashed by 64-bit FNV-1a
into ``num_buckets`` buckets (Weinberger et al., ICML 2009).
:func:`featurize_corpus` runs the hash on ``uint64`` arrays once per
distinct word and once per distinct pair of a chunk of ``_FEATURIZE_CHUNK``
texts; a pair continues its left word's state over the separator byte.
Once one word is longer than every other word still being hashed, its
remaining bytes go through a plain integer loop.

The embedding state is sparse: only the buckets a training corpus hashes to
carry information. A model owns one row for each bucket its training
corpus names, and no other. ``ModelParams.embedding`` holds an all-zero
row 0, which nothing trains, then the owned rows in bucket order; ``slot``
maps each bucket to the row it reads, so a bucket the model does not own
reads row 0 and pools to zero. An owned row starts as N(0, 0.1^2) normals
from the counter hash below, keyed by (init seed, bucket, unit), so it does
not depend on which other buckets the model owns. Adam updates owned rows
in place, and a checkpoint stores them.

Dropout is inverted dropout with one site (the hidden layer). Masks come
from a counter-based hash (SplitMix64 mixing, in the spirit of Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11): unit ``j`` of
the mask for (``mask_seed``, key, pass) is kept when the hash of those four
numbers, read as a uniform in [0, 1), clears the dropout rate. A forward
pass is therefore a pure function of (params, items, mask_seed), which is
exactly what finite-difference checking and reproducible training need, and
no random generator is built per item. Items of different kinds that share a
key also share per-pass masks; this is how a confidence term can be
evaluated on the same perturbed pass as a consistency term.
"""
from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .common import NumericError, atomic_open

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_FNV_OFFSET = np.uint64(FNV_OFFSET)
_FNV_PRIME = np.uint64(FNV_PRIME)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_BIGRAM_SEP = np.uint64(0x1F)  # the byte between a bigram's two words
_TOKEN = re.compile(r"[^\W_]+")  # a run of str.isalnum() code points
_FEATURIZE_CHUNK = 512  # texts per featurization chunk; bounds peak memory
# Rows _fnv_fold finishes one at a time. A NumPy column step costs 1.2-1.9 us
# on a 2-vCPU host, the integer loop about 0.13 us per byte per row.
_FEW_ROWS = 8
_LOG_FLOOR = 1e-12
_MAGIC = b"SMX3"
_OLD_MAGICS = (b"SMX1", b"SMX2")  # earlier checkpoint formats, refused by name
# Buckets whose initial rows one array pass of init_params builds. A pass
# holds a few (chunk, 2 * hidden) uint64 temporaries, so this bounds the
# init's peak memory at a small multiple of the table itself.
_INIT_CHUNK = 1024


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric code points."""
    return _TOKEN.findall(text.lower())


def _fnv_fold(h: np.ndarray, buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Continue each FNV-1a state ``h[i]`` over the bytes ``buf[starts[i]:][:sizes[i]]``.

    Byte ``j`` of every row still folding is one array step. Once at most
    ``_FEW_ROWS`` rows are left, each of them finishes in a plain integer
    loop, which costs less than a NumPy call per byte for so few rows.
    """
    order = np.argsort(-sizes, kind="stable")  # longest first: byte j reads rows longer than j
    h, pos, ends = h[order], starts[order], (starts + sizes)[order]
    distinct, counts = np.unique(sizes, return_counts=True)
    done = 0
    for size, rows in zip(distinct.tolist(), np.cumsum(counts[::-1])[::-1].tolist()):
        if rows <= _FEW_ROWS:
            for k in range(rows):
                state = int(h[k])
                for byte in buf[pos[k] + done : ends[k]].tobytes():
                    state = ((state ^ byte) * FNV_PRIME) & _MASK64
                h[k] = state
            break
        state = h[:rows]
        for column in buf[pos[:rows, None] + np.arange(done, size)].T:
            state ^= column
            state *= _FNV_PRIME
        done = size
    return h[np.argsort(order)]


@dataclass(frozen=True)
class FeatureVector:
    """Sparse hashed-n-gram representation: sorted bucket ids + weights.

    Weights are occurrence counts normalized to sum to 1, so the embedding
    lookup is an average over the document's unigrams and adjacent bigrams.
    Empty text yields an empty vector (and a zero embedding downstream).
    """

    indices: np.ndarray
    weights: np.ndarray


def _featurize_chunk(texts: Sequence[str], num_buckets: int) -> list[FeatureVector]:
    docs = [tokenize(text) for text in texts]
    sizes = np.array([len(d) for d in docs], dtype=np.int64)
    vocab: dict[str, int] = {}
    ids = np.array([vocab.setdefault(t, len(vocab)) for d in docs for t in d], dtype=np.int64)
    words = [w.encode("utf-8") for w in vocab]
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    buf = np.frombuffer(b"".join(words), np.uint8)
    unigrams = _fnv_fold(np.full(len(words), _FNV_OFFSET), buf, starts, lengths)
    doc = np.repeat(np.arange(len(docs)), sizes)
    inner = doc[1:] == doc[:-1]
    distinct, which = np.unique(ids[:-1][inner] * len(words) + ids[1:][inner], return_inverse=True)
    left, right = np.divmod(distinct, max(len(words), 1))
    state = (unigrams[left] ^ _BIGRAM_SEP) * _FNV_PRIME
    bigrams = _fnv_fold(state, buf, starts[right], lengths[right])
    bucket = np.concatenate([unigrams[ids], bigrams[which]]) % np.uint64(num_buckets)
    doc = np.concatenate([doc, doc[1:][inner]])
    order = np.lexsort((bucket, doc))
    bucket, doc = bucket[order].astype(np.int64), doc[order]
    runs = np.flatnonzero(np.diff(bucket, prepend=-1) | np.diff(doc, prepend=-1))
    indices, doc = bucket[runs], doc[runs]
    grams = 2 * sizes - (sizes > 0)  # n unigrams and n - 1 bigrams in a text of n tokens
    weights = np.diff(runs, append=bucket.size) / grams[doc]
    bounds = np.searchsorted(doc, np.arange(len(docs) + 1)).tolist()
    spans = zip(bounds, bounds[1:])
    return [FeatureVector(indices[lo:hi].copy(), weights[lo:hi].copy()) for lo, hi in spans]


def featurize_corpus(texts: Sequence[str], num_buckets: int) -> list[FeatureVector]:
    """The features of each text: its unigrams and adjacent bigrams, hashed
    into ``num_buckets`` buckets, ``_FEATURIZE_CHUNK`` texts at a time."""
    if not 1 <= num_buckets < 2**63:
        raise ValueError("num_buckets must lie in [1, 2**63)")
    features: list[FeatureVector] = []
    for start in range(0, len(texts), _FEATURIZE_CHUNK):
        features += _featurize_chunk(texts[start : start + _FEATURIZE_CHUNK], num_buckets)
    return features


def featurize_text(text: str, num_buckets: int) -> FeatureVector:
    """The features of one text: ``featurize_corpus([text], num_buckets)[0]``."""
    return featurize_corpus([text], num_buckets)[0]


@dataclass
class ModelParams:
    """All learnable arrays, the bucket-to-row map, and the dropout rate.

    ``embedding`` holds row 0, all zeros and never trained, then one row per
    bucket the model owns, in bucket order. Bucket ``b`` reads row
    ``slot[b]``, which is 0 unless the model owns ``b``, so a bucket the
    model does not own pools to zero.
    """

    embedding: np.ndarray  # (1 + owned buckets, hidden)
    w1: np.ndarray  # (hidden, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, num_classes)
    b2: np.ndarray  # (num_classes,)
    dropout_rate: float
    slot: np.ndarray  # (num_buckets,) int32

    @property
    def num_buckets(self) -> int:
        return self.slot.size

    @property
    def hidden(self) -> int:
        return self.embedding.shape[1]

    @property
    def num_classes(self) -> int:
        return self.w2.shape[1]


def _slot_of(num_buckets: int, owned: np.ndarray) -> np.ndarray:
    """``slot`` of a model owning the sorted buckets ``owned``: bucket
    ``owned[k]`` reads row ``k + 1``, every other bucket row 0."""
    if num_buckets >= 2**31:
        raise ValueError("num_buckets must be below 2**31")
    slot = np.zeros(num_buckets, dtype=np.int32)
    slot[owned] = np.arange(1, owned.size + 1, dtype=np.int32)
    return slot


def init_params(
    num_buckets: int,
    hidden: int,
    num_classes: int,
    dropout_rate: float,
    seed: int,
    buckets: Sequence[int] | np.ndarray = (),
) -> ModelParams:
    """A row for each distinct bucket of ``buckets``, a He-scaled head, zero biases.

    Owned rows are N(0, 0.1^2), a pure function of (seed, bucket); they are
    built ``_INIT_CHUNK`` buckets at a time. Every other bucket pools to
    zero. The head is drawn from ``np.random.default_rng(seed)``.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must lie in [0, 1)")
    if num_buckets < 1:
        raise ValueError("num_buckets must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    owned = np.unique(np.asarray(buckets, dtype=np.int64))
    if owned.size and (owned[0] < 0 or owned[-1] >= num_buckets):
        raise ValueError(f"owned buckets must lie in [0, {num_buckets})")
    slot = _slot_of(num_buckets, owned)
    embedding = np.zeros((1 + owned.size, hidden))
    for start in range(0, owned.size, _INIT_CHUNK):
        chunk = owned[start : start + _INIT_CHUNK]
        embedding[1 + start : 1 + start + chunk.size] = _initial_rows(seed, chunk, hidden)
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, hidden))
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, num_classes))
    return ModelParams(
        embedding=embedding,
        w1=w1,
        b1=np.zeros(hidden),
        w2=w2,
        b2=np.zeros(num_classes),
        dropout_rate=float(dropout_rate),
        slot=slot,
    )


def corpus_buckets(features: Sequence[FeatureVector], num_buckets: int) -> np.ndarray:
    """The distinct buckets ``features`` name, sorted: the buckets a model
    trained on them must own (the ``buckets`` of :func:`init_params`)."""
    seen = np.zeros(num_buckets, dtype=bool)
    for fv in features:
        seen[fv.indices] = True
    return np.flatnonzero(seen)


def _concat(vectors: list[FeatureVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated ``(indices, weights, sizes)`` of a list of feature vectors."""
    if not vectors:
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.intp)
    sizes = np.array([fv.indices.size for fv in vectors], dtype=np.intp)
    indices = np.concatenate([fv.indices for fv in vectors])
    weights = np.concatenate([fv.weights for fv in vectors])
    return indices, weights, sizes


def _pool(
    params: ModelParams, indices: np.ndarray, weights: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Embedding-bag averages, one row per bag: one gather plus one reduceat.

    Bag ``b`` owns the next ``sizes[b]`` bucket ids of ``indices`` and their
    ``weights``; each bucket reads its row through ``params.slot``. An empty
    bag pools to the zero vector. A single bag is one weighted sum.
    """
    if not indices.size:
        lo = hi = 0
    elif len(sizes) == 1:  # one feature vector: its ids are sorted
        lo, hi = indices[0], indices[-1]
    else:
        lo, hi = indices.min(), indices.max()
    if lo < 0 or hi >= params.num_buckets:
        raise ValueError("feature index out of range for the embedding table")
    rows = params.slot[indices]
    if len(sizes) == 1:
        return (weights @ params.embedding[rows])[None]
    pooled = np.zeros((len(sizes), params.hidden))
    if indices.size:
        filled = sizes > 0
        starts = (np.cumsum(sizes) - sizes)[filled]
        weighted = params.embedding[rows]
        weighted *= weights[:, None]
        pooled[filled] = np.add.reduceat(weighted, starts, axis=0)
    return pooled


def encode(params: ModelParams, features: FeatureVector) -> np.ndarray:
    """Weighted average of embedding rows; zero vector for empty input."""
    return _pool(params, features.indices, features.weights, (features.indices.size,))[0]


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise (last axis) max-shifted softmax; rejects non-finite logits."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NumericError("non-finite logits passed to softmax")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise (last axis) max-shifted log-softmax."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass(frozen=True)
class BatchItem:
    """One loss term: an input, a kind, an optional target, and a weight.

    ``input`` is the :class:`FeatureVector` the item pools; every bucket it
    names receives gradient. ``target`` is a class distribution for ``"ce"``
    and ignored otherwise. ``key`` names the item's dropout streams; it
    defaults to the item's position in the batch.
    """

    input: FeatureVector
    kind: str = "ce"
    target: np.ndarray | None = None
    weight: float = 1.0
    key: int | None = None


@dataclass
class Gradients:
    """Sparse embedding gradient (touched rows only) plus dense head grads."""

    emb_rows: np.ndarray  # (R,) int64 bucket ids, sorted
    emb_vals: np.ndarray  # (R, hidden)
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche on uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _streams(seed: int, keys: np.ndarray) -> np.ndarray:
    """One SplitMix64 stream state per key: a hash of (seed, key)."""
    base = _mix64(np.array([seed & _MASK64], dtype=np.uint64) + _GOLDEN)
    return _mix64(base ^ np.asarray(keys, dtype=np.int64).astype(np.uint64))


def _uniforms(state: np.ndarray, count: int) -> np.ndarray:
    """Outputs ``1..count`` of each stream ``state[r]``, as uniforms in [0, 1)."""
    units = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    return (_mix64(state[:, None] + units) >> np.uint64(11)) * 2.0**-53


def _initial_rows(seed: int, buckets: np.ndarray, hidden: int) -> np.ndarray:
    """N(0, 0.1^2) embedding rows, one per bucket, by Box-Muller: unit ``j``
    of bucket ``b`` reads outputs ``2j + 1`` and ``2j + 2`` of the stream of
    (seed, b), so it is a pure function of (seed, b, j)."""
    u = _uniforms(_streams(seed, buckets), 2 * hidden)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    return 0.1 * radius * np.cos(2.0 * np.pi * u[:, 1::2])


def _masks(
    params: ModelParams, mask_seed: int | None, keys: np.ndarray, passes: np.ndarray
) -> np.ndarray:
    """Inverted-dropout masks, one row per (key, pass), from a counter hash.

    Row ``r`` is a SplitMix64 stream whose state is a hash of (mask_seed,
    keys[r], passes[r]); unit ``j`` reads the stream's ``j``-th output, so
    a mask is a pure function of (mask_seed, key, pass, unit). With no
    ``mask_seed`` or a zero rate every mask is all ones.
    """
    rate = params.dropout_rate
    if mask_seed is None or rate == 0.0:
        return np.ones((len(keys), params.hidden))
    state = _streams(mask_seed, keys)
    state = _mix64(state + (np.asarray(passes, dtype=np.uint64) + np.uint64(1)) * _GOLDEN)
    return (_uniforms(state, params.hidden) >= rate) / (1.0 - rate)


@dataclass
class _Pass:
    """Forward intermediates, one row per (input, mask) pass."""

    a1: np.ndarray
    h_drop: np.ndarray
    z: np.ndarray
    p: np.ndarray
    log_p: np.ndarray


def _forward(params: ModelParams, e: np.ndarray, mask: np.ndarray | None) -> _Pass:
    """The head on one ``(hidden,)`` row or a ``(rows, hidden)`` matrix of rows.

    ``mask=None`` is dropout off.
    """
    a1 = e @ params.w1 + params.b1
    h_drop = np.maximum(a1, 0.0)
    if mask is not None:
        h_drop *= mask
    z = h_drop @ params.w2 + params.b2
    log_p = log_softmax(z)
    return _Pass(a1=a1, h_drop=h_drop, z=z, p=np.exp(log_p), log_p=log_p)


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
    mask = _masks(params, mask_seed, [key], [pass_index])[0] if dropout_on else None
    return _forward(params, np.asarray(e, dtype=np.float64), mask).z


def predict_proba(params: ModelParams, features: FeatureVector) -> np.ndarray:
    """Class probabilities with dropout off."""
    return _forward(params, encode(params, features), None).p


def predict_logits(params: ModelParams, features: list[FeatureVector]) -> np.ndarray:
    """Dropout-off logits of many documents at once, one row each."""
    return _forward(params, _pool(params, *_concat(features)), None).z


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, _LOG_FLOOR))


def rdrop_from_probs(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Half the symmetric KL between class distributions (last axis), logs floored."""
    delta = _clamped_log(p1) - _clamped_log(p2)
    return 0.5 * ((p1 * delta).sum(axis=-1) + (p2 * -delta).sum(axis=-1))


_KINDS = ("ce", "pseudo", "rdrop")


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

    The whole batch is one matrix pass: every item gets a pass-0 row and
    every ``"rdrop"`` item also a pass-1 row, so the cost in array
    operations does not grow with the number of items.
    """
    n = len(items)
    positions: dict[str, list[int]] = {kind: [] for kind in _KINDS}
    keys: list[int] = []
    for pos, item in enumerate(items):
        if item.kind not in positions:
            raise ValueError(f"unknown batch item kind {item.kind!r}")
        if item.kind == "ce" and item.target is None:
            raise ValueError("ce items require a target distribution")
        if not isinstance(item.input, FeatureVector):
            raise ValueError(
                f"batch position {pos}: input has type "
                f"{type(item.input).__name__}, not FeatureVector"
            )
        positions[item.kind].append(pos)
        keys.append(pos if item.key is None else item.key)
    ce, pseudo, rdrop = (np.array(positions[kind], dtype=np.intp) for kind in _KINDS)
    weights = np.array([item.weight for item in items], dtype=np.float64)

    indices, bag_weights, sizes = _concat([item.input for item in items])
    e = _pool(params, indices, bag_weights, sizes)

    # rows 0..n-1 are every item's pass 0; rows n.. are the rdrop items' pass 1
    row_item = np.concatenate([np.arange(n), rdrop])
    passes = np.concatenate([np.zeros(n, dtype=np.intp), np.ones(rdrop.size, dtype=np.intp)])
    e_rows = e[row_item]
    mask = _masks(params, mask_seed, np.asarray(keys, dtype=np.int64)[row_item], passes)
    fwd = _forward(params, e_rows, mask)
    p, log_p = fwd.p, fwd.log_p
    second = n + np.arange(rdrop.size)

    losses = np.empty(n)
    targets = (
        np.array([items[i].target for i in ce], dtype=np.float64)
        if ce.size
        else np.empty((0, params.num_classes))
    )
    losses[ce] = -(targets * log_p[ce]).sum(axis=1)
    top = np.argmax(p[pseudo], axis=1)
    losses[pseudo] = -log_p[pseudo, top]
    losses[rdrop] = rdrop_from_probs(p[rdrop], p[second])

    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        position = int(bad[0])
        raise NumericError(
            f"non-finite {items[position].kind} loss at batch position {position}"
        )
    total = float(weights @ losses)
    breakdown = {
        kind: (float(losses[sel].sum()), int(sel.size))
        for kind, sel in zip(_KINDS, (ce, pseudo, rdrop))
        if sel.size
    }
    if not compute_grads:
        return total, None, breakdown

    g_z = np.empty_like(p)
    g_z[ce] = p[ce] - targets
    g_z[pseudo] = p[pseudo]
    g_z[pseudo, top] -= 1.0
    p1, p2 = p[rdrop], p[second]
    delta = _clamped_log(p1) - _clamped_log(p2)
    kl12 = (p1 * delta).sum(axis=1, keepdims=True)
    kl21 = (p2 * -delta).sum(axis=1, keepdims=True)
    g_z[rdrop] = 0.5 * (p1 * (delta - kl12) + (p1 - p2))
    g_z[second] = 0.5 * (p2 * (-delta - kl21) + (p2 - p1))
    g_z *= weights[row_item, None]

    d_hidden = (g_z @ params.w2.T) * mask * (fwd.a1 > 0.0)
    d_e = d_hidden @ params.w1.T
    d_item = d_e[:n]
    d_item[rdrop] += d_e[n:]
    order = np.argsort(indices, kind="stable")
    sorted_rows = indices[order]
    contrib = d_item[np.repeat(np.arange(n), sizes)[order]]
    contrib *= bag_weights[order, None]
    first = np.flatnonzero(np.diff(sorted_rows, prepend=-1))
    emb_vals = (
        np.add.reduceat(contrib, first, axis=0)
        if first.size
        else np.empty((0, params.hidden))
    )
    grads = Gradients(
        emb_rows=sorted_rows[first].astype(np.int64, copy=False),
        emb_vals=emb_vals,
        w1=e_rows.T @ d_hidden,
        b1=d_hidden.sum(axis=0),
        w2=fwd.h_drop.T @ g_z,
        b2=g_z.sum(axis=0),
    )
    return total, grads, breakdown


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam state: hyperparameters, step counter, and per-parameter moments.

    The embedding moments ``m_emb``/``v_emb`` have the embedding table's
    shape: row ``r`` holds the moments of table row ``r``. Only rows that
    received gradient in a step are ever touched, so row 0 stays zero.
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
    A gradient for a bucket the model owns no row for raises ``ValueError``
    before anything changes: it would otherwise train the shared zero row.
    """
    if grads.w1.shape != params.w1.shape or grads.w2.shape != params.w2.shape:
        raise ValueError("gradient shapes do not match the parameters")
    rows = params.slot[grads.emb_rows]
    if not rows.all():
        bucket = int(grads.emb_rows[np.argmin(rows)])
        raise ValueError(f"gradient for bucket {bucket}, which owns no embedding row")
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

# SMX3 header after the magic: num_buckets, hidden, num_classes, number of
# stored (owned) rows.
_HEADER = struct.Struct("<qqqq")


def _checkpoint_chunks(params: ModelParams):
    """The bytes of an ``SMX3`` checkpoint of ``params``, in order."""
    owned = params.slot > 0
    stored = np.flatnonzero(owned)
    yield _MAGIC
    yield _HEADER.pack(params.num_buckets, params.hidden, params.num_classes, stored.size)
    yield np.packbits(owned, bitorder="little").tobytes()
    rows = params.embedding[params.slot[stored]]
    for arr in (rows, params.w1, params.b1, params.w2, params.b2, [params.dropout_rate]):
        yield np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write an ``SMX3`` checkpoint: the owned rows and the head.

    Layout, little-endian: the magic, the ``_HEADER`` fields, a bitmap of
    the owned buckets (``np.packbits``, little bit order), their rows in
    bucket order, then ``w1``, ``b1``, ``w2``, ``b2`` and the dropout rate,
    all float64. The write is atomic (:func:`common.atomic_open`): a failed
    write leaves no partial checkpoint and an existing one untouched.
    """
    with atomic_open(path, "wb") as fh:
        for chunk in _checkpoint_chunks(params):
            fh.write(chunk)


def _read_header(fh, path: str | Path) -> tuple[int, int, int, int]:
    """Unpack and check ``_HEADER``: the model dimensions and the stored rows."""
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError(f"{path}: truncated checkpoint header")
    num_buckets, hidden, num_classes, stored = _HEADER.unpack(raw)
    if num_buckets < 1 or hidden < 1 or num_classes < 2:
        raise ValueError(
            f"{path}: invalid checkpoint dimensions ({num_buckets}, {hidden}, {num_classes})"
        )
    if not 0 <= stored <= num_buckets:
        raise ValueError(
            f"{path}: invalid checkpoint layout: {stored} stored rows for {num_buckets} buckets"
        )
    return num_buckets, hidden, num_classes, stored


def _shapes(rows: int, hidden: int, num_classes: int) -> dict[str, tuple]:
    """The float64 arrays after the bitmap, keyed as ``ModelParams`` fields."""
    return {"embedding": (rows, hidden), "w1": (hidden, hidden), "b1": (hidden,),
            "w2": (hidden, num_classes), "b2": (num_classes,), "dropout_rate": (1,)}


def _check_file_size(fh, path: str | Path, shapes: dict[str, tuple], offset: int) -> None:
    """The header fixes the file size; check it before reading anything else."""
    expected = offset + 8 * sum(math.prod(shape) for shape in shapes.values())
    actual = os.fstat(fh.fileno()).st_size
    if actual != expected:
        problem = "truncated" if actual < expected else "trailing bytes in"
        raise ValueError(
            f"{path}: {problem} checkpoint: its header implies {expected} bytes, "
            f"the file has {actual}"
        )


def _read_arrays(fh, path: str | Path, shapes: dict[str, tuple]) -> dict:
    """Read the arrays of ``shapes`` in order, refusing non-finite values."""
    arrays: dict = {}
    for name, shape in shapes.items():
        raw = fh.read(8 * math.prod(shape))
        arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"{path}: non-finite values in {name}")
    arrays["dropout_rate"] = float(arrays["dropout_rate"][0])
    if not 0.0 <= arrays["dropout_rate"] < 1.0:
        raise ValueError(f"{path}: dropout_rate {arrays['dropout_rate']!r} outside [0, 1)")
    return arrays


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read an ``SMX3`` checkpoint; ``slot`` is rebuilt from its bucket bitmap.

    ``SMX1`` and ``SMX2`` files, written by earlier versions, are refused
    with an error that names their format.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic in _OLD_MAGICS:
            raise ValueError(
                f"{path}: {magic.decode()} checkpoints no longer load; this version "
                f"reads {_MAGIC.decode()} only, so retrain the model to write one"
            )
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        num_buckets, hidden, num_classes, stored = _read_header(fh, path)
        bitmap_size = (num_buckets + 7) // 8
        shapes = _shapes(stored, hidden, num_classes)
        _check_file_size(fh, path, shapes, len(_MAGIC) + _HEADER.size + bitmap_size)
        bitmap = np.frombuffer(fh.read(bitmap_size), dtype=np.uint8)
        owned = np.flatnonzero(np.unpackbits(bitmap, count=num_buckets, bitorder="little"))
        if owned.size != stored:
            raise ValueError(
                f"{path}: the bucket bitmap marks {owned.size} buckets "
                f"but the checkpoint stores {stored} rows"
            )
        arrays = _read_arrays(fh, path, shapes)
    table = np.zeros((1 + stored, hidden))
    table[1:] = arrays.pop("embedding")
    return ModelParams(embedding=table, **arrays, slot=_slot_of(num_buckets, owned))
