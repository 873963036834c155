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

The embedding state is sparse: only the buckets a corpus hashes to carry
information. ``ModelParams.embedding`` is a row table, and ``slot`` maps
each bucket to the row it reads. The table starts as a codebook of at most
``_CODEBOOK_ROWS`` Gaussian rows drawn from the init seed; bucket ``b``
starts at codebook row ``b % codebook_rows``. When every bucket has its own
codebook row, ``slot`` is the identity and Adam updates rows in place.
Otherwise a bucket gets a row of its own (a copy of its codebook row,
appended to the table) the first time Adam updates it, and Adam's embedding
moments exist only for those owned rows. A trainer that knows its corpus
reserves room for all of them up front (:func:`reserve_rows`), so the table
and moments are allocated once rather than grown by copying. A checkpoint
stores the init seed plus the rows of the buckets Adam has updated.

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

import hashlib
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
_LOG_FLOOR = 1e-12
_MAGIC_DENSE = b"SMX1"
_MAGIC = b"SMX2"
# The most rows an init codebook has; models with more buckets share rows.
_CODEBOOK_ROWS = 2**16
# The fewest spare rows a grown row table or moment array gets.
_MIN_SPARE_ROWS = 1024


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric code points."""
    return _TOKEN.findall(text.lower())


def _fnv_fold(h: np.ndarray, buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Continue each FNV-1a state ``h[i]`` over the bytes ``buf[starts[i]:][:sizes[i]]``.

    Byte ``j`` of every row still folding is one array step. The longest
    row's bytes past the second-longest row are folded alone, and there a
    plain integer loop is much faster than a NumPy call per byte.
    """
    order = np.argsort(-sizes, kind="stable")  # longest first: byte j reads rows longer than j
    h, pos = h[order], starts[order]
    distinct, counts = np.unique(sizes, return_counts=True)
    done = 0
    for size, rows in zip(distinct.tolist(), np.cumsum(counts[::-1])[::-1].tolist()):
        if rows == 1:  # only the longest row is left, and this is its last stretch
            state = int(h[0])
            for byte in buf[pos[0] + done : pos[0] + size].tobytes():
                state = ((state ^ byte) * FNV_PRIME) & _MASK64
            h[0] = state
            break
        state = h[:rows]
        for column in buf[pos[:rows, None] + np.arange(done, size)].T:
            state ^= column
            state *= _FNV_PRIME
        done = size
    return h[np.argsort(order)]


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    buf = np.frombuffer(data, np.uint8)
    return int(_fnv_fold(np.full(1, _FNV_OFFSET), buf, np.zeros(1, int), np.array([buf.size]))[0])


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

    ``embedding`` holds the ``codebook_rows`` codebook rows, then the rows
    buckets own, then zeroed spare rows that no bucket reads. Bucket ``b``
    reads row ``slot[b]``; ``updated[b]`` marks the buckets whose row a
    checkpoint stores: those Adam has updated, or every bucket of a model
    read from a dense ``SMX1`` file. ``seed`` and ``fingerprint`` identify
    the codebook's draw, so a checkpoint can rebuild it instead of storing
    it; an ``SMX1`` model has no seed.
    """

    embedding: np.ndarray  # (rows, hidden)
    w1: np.ndarray  # (hidden, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, num_classes)
    b2: np.ndarray  # (num_classes,)
    dropout_rate: float
    slot: np.ndarray  # (num_buckets,) int32
    updated: np.ndarray  # (num_buckets,) bool
    codebook_rows: int
    seed: int | None
    fingerprint: bytes

    @property
    def num_buckets(self) -> int:
        return self.slot.size

    @property
    def hidden(self) -> int:
        return self.embedding.shape[1]

    @property
    def num_classes(self) -> int:
        return self.w2.shape[1]

    @property
    def first_owned(self) -> int:
        """The first row that belongs to one bucket alone: 0 when ``slot`` is
        the identity, else the first row past the shared codebook."""
        return self.codebook_rows if self.codebook_rows < self.num_buckets else 0


def _slots(num_buckets: int, codebook_rows: int) -> np.ndarray:
    """The initial ``slot``: bucket ``b`` reads codebook row ``b % codebook_rows``."""
    if num_buckets >= 2**31:
        raise ValueError("num_buckets must be below 2**31")
    return np.arange(num_buckets, dtype=np.int32) % np.int32(codebook_rows)


def _draw_codebook(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with N(0, 0.1^2) draws, the values ``rng.normal(0, 0.1)`` gives."""
    rng.standard_normal(out=out)
    out *= 0.1
    return out


def _fingerprint(codebook: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(codebook)).digest()[:8]


def init_params(
    num_buckets: int,
    hidden: int,
    num_classes: int,
    dropout_rate: float,
    seed: int,
) -> ModelParams:
    """Gaussian init: a small-valued codebook, He-scaled head, zero biases.

    The codebook has ``min(num_buckets, _CODEBOOK_ROWS)`` rows and is drawn
    first, so up to that many buckets the embedding is the draw of a dense
    ``(num_buckets, hidden)`` table from the same seed.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must lie in [0, 1)")
    if num_buckets < 1:
        raise ValueError("num_buckets must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    rng = np.random.default_rng(seed)
    codebook_rows = min(num_buckets, _CODEBOOK_ROWS)
    embedding = _draw_codebook(rng, np.empty((codebook_rows, hidden)))
    w1 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, hidden))
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, num_classes))
    return ModelParams(
        embedding=embedding,
        w1=w1,
        b1=np.zeros(hidden),
        w2=w2,
        b2=np.zeros(num_classes),
        dropout_rate=float(dropout_rate),
        slot=_slots(num_buckets, codebook_rows),
        updated=np.zeros(num_buckets, dtype=bool),
        codebook_rows=codebook_rows,
        seed=int(seed),
        fingerprint=_fingerprint(embedding),
    )


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
    """Max-shifted softmax; rejects non-finite logits."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NumericError("non-finite logits passed to softmax")
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


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
    seed = _mix64(np.array([mask_seed & _MASK64], dtype=np.uint64) + _GOLDEN)
    state = _mix64(seed ^ np.asarray(keys, dtype=np.int64).astype(np.uint64))
    state = _mix64(state + (np.asarray(passes, dtype=np.uint64) + np.uint64(1)) * _GOLDEN)
    units = np.arange(1, params.hidden + 1, dtype=np.uint64) * _GOLDEN
    uniform = (_mix64(state[:, None] + units) >> np.uint64(11)) * 2.0**-53
    return (uniform >= rate) / (1.0 - rate)


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

    The embedding moments ``m_emb``/``v_emb`` have one row per owned table
    row: row ``k`` belongs to table row ``params.first_owned + k``. With an
    identity ``slot`` that is every row; with a shared codebook the moments
    grow as buckets gain rows of their own. Only rows that received gradient
    in a step are ever touched.
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
    owned = (len(params.embedding) - params.first_owned, params.hidden)
    return OptimizerState(
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        step=0,
        m_emb=np.zeros(owned),
        v_emb=np.zeros(owned),
        m_w1=np.zeros_like(params.w1),
        v_w1=np.zeros_like(params.w1),
        m_b1=np.zeros_like(params.b1),
        v_b1=np.zeros_like(params.b1),
        m_w2=np.zeros_like(params.w2),
        v_w2=np.zeros_like(params.w2),
        m_b2=np.zeros_like(params.b2),
        v_b2=np.zeros_like(params.b2),
    )


def _reserve(arr: np.ndarray, rows: int) -> np.ndarray:
    """``arr`` if it has ``rows`` rows, else a copy padded with zero rows.

    The copy is at least half as long again, so appending rows one step at a
    time copies each row a bounded number of times. Spare rows that are never
    written take no resident memory: ``np.zeros`` leaves their pages unmapped.
    """
    if rows <= len(arr):
        return arr
    length = max(rows, len(arr) + max(len(arr) // 2, _MIN_SPARE_ROWS))
    grown = np.zeros((length, arr.shape[1]))
    grown[: len(arr)] = arr
    return grown


def _grow(params: ModelParams, opt: OptimizerState, end: int) -> None:
    """Room for table rows up to ``end`` in the row table and both moments."""
    params.embedding = _reserve(params.embedding, end)
    opt.m_emb = _reserve(opt.m_emb, end - params.codebook_rows)
    opt.v_emb = _reserve(opt.v_emb, end - params.codebook_rows)


def reserve_rows(
    params: ModelParams, opt: OptimizerState, features: list[FeatureVector]
) -> None:
    """Room for a row of its own for every shared bucket ``features`` name.

    Training on ``features`` then never grows the row table or the moments:
    they are allocated once, not copied every time they fill up. The rows
    are still assigned, in the same order, by :func:`adam_step`.
    """
    if not params.first_owned:
        return
    buckets = np.unique(_concat(features)[0])
    owned = int(np.count_nonzero(params.updated))
    shared = int(np.count_nonzero(~params.updated[buckets]))
    _grow(params, opt, params.codebook_rows + owned + shared)


def _own_rows(params: ModelParams, opt: OptimizerState, buckets: np.ndarray) -> None:
    """Give each of ``buckets`` (reading the shared codebook) a row of its own."""
    start = params.codebook_rows + int(np.count_nonzero(params.updated))
    end = start + buckets.size
    _grow(params, opt, end)
    params.embedding[start:end] = params.embedding[params.slot[buckets]]
    params.slot[buckets] = np.arange(start, end, dtype=np.int32)


def adam_step(params: ModelParams, grads: Gradients, opt: OptimizerState) -> None:
    """One bias-corrected Adam update, in place.

    Head parameters get the textbook dense update. Embedding rows are
    updated lazily: only rows with gradient this step have their moments
    decayed and applied, with bias correction from the shared global step.
    A bucket still reading the shared codebook first gets a row of its own.
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

    buckets = grads.emb_rows
    if buckets.size:
        fresh = buckets[~params.updated[buckets]]
        if fresh.size and params.first_owned:
            _own_rows(params, opt, fresh)
        params.updated[fresh] = True
        rows = params.slot[buckets]
        moment_rows = rows - params.first_owned
        g = grads.emb_vals
        m = beta1 * opt.m_emb[moment_rows] + (1.0 - beta1) * g
        v = beta2 * opt.v_emb[moment_rows] + (1.0 - beta2) * np.square(g)
        opt.m_emb[moment_rows] = m
        opt.v_emb[moment_rows] = v
        params.embedding[rows] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

# SMX2 header after the magic: num_buckets, hidden, num_classes, codebook
# rows, init seed, codebook fingerprint, number of stored rows.
_HEADER = struct.Struct("<qqqqQ8sq")
_DENSE_HEADER = struct.Struct("<qqq")


def _checkpoint_chunks(params: ModelParams):
    """The bytes of an ``SMX2`` checkpoint of ``params``, in order."""
    stored = np.flatnonzero(params.updated)
    yield _MAGIC
    yield _HEADER.pack(
        params.num_buckets,
        params.hidden,
        params.num_classes,
        params.codebook_rows,
        params.seed or 0,
        params.fingerprint,
        stored.size,
    )
    yield np.packbits(params.updated, bitorder="little").tobytes()
    rows = params.embedding[params.slot[stored]]
    for arr in (rows, params.w1, params.b1, params.w2, params.b2, [params.dropout_rate]):
        yield np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write an ``SMX2`` checkpoint: the init seed plus the updated rows.

    Layout, little-endian: the magic, the ``_HEADER`` fields, a bitmap of
    the ``updated`` buckets (``np.packbits``, little bit order), their rows
    in bucket order, then ``w1``, ``b1``, ``w2``, ``b2`` and the dropout
    rate, all float64. The write is atomic (:func:`common.atomic_open`): a
    failed write leaves no partial checkpoint and an existing one untouched.
    """
    with atomic_open(path, "wb") as fh:
        for chunk in _checkpoint_chunks(params):
            fh.write(chunk)


def _read_header(fh, path: str | Path, header: struct.Struct) -> tuple:
    """Unpack ``header``; its first three fields are the model dimensions."""
    raw = fh.read(header.size)
    if len(raw) != header.size:
        raise ValueError(f"{path}: truncated checkpoint header")
    fields = header.unpack(raw)
    num_buckets, hidden, num_classes = fields[:3]
    if num_buckets < 1 or hidden < 1 or num_classes < 2:
        raise ValueError(
            f"{path}: invalid checkpoint dimensions ({num_buckets}, {hidden}, {num_classes})"
        )
    return fields


def _shapes(rows: int, hidden: int, num_classes: int) -> dict[str, tuple]:
    """The float64 arrays after the header, keyed as ``ModelParams`` fields."""
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


def _load_dense(fh, path: str | Path) -> ModelParams:
    """An ``SMX1`` checkpoint: the whole table, which is its own codebook."""
    num_buckets, hidden, num_classes = _read_header(fh, path, _DENSE_HEADER)
    shapes = _shapes(num_buckets, hidden, num_classes)
    _check_file_size(fh, path, shapes, 4 + _DENSE_HEADER.size)
    return ModelParams(
        **_read_arrays(fh, path, shapes),
        slot=_slots(num_buckets, num_buckets),
        updated=np.ones(num_buckets, dtype=bool),
        codebook_rows=num_buckets,
        seed=None,
        fingerprint=bytes(8),
    )


def _load_sparse(fh, path: str | Path) -> ModelParams:
    """An ``SMX2`` checkpoint: the codebook is redrawn from the init seed."""
    header = _read_header(fh, path, _HEADER)
    num_buckets, hidden, num_classes, codebook_rows, seed, fingerprint, stored = header
    if not (1 <= codebook_rows <= num_buckets and 0 <= stored <= num_buckets):
        raise ValueError(
            f"{path}: invalid checkpoint layout: {codebook_rows} codebook rows and "
            f"{stored} stored rows for {num_buckets} buckets"
        )
    bitmap_size = (num_buckets + 7) // 8
    shapes = _shapes(stored, hidden, num_classes)
    _check_file_size(fh, path, shapes, 4 + _HEADER.size + bitmap_size)
    bitmap = np.frombuffer(fh.read(bitmap_size), dtype=np.uint8)
    updated = np.unpackbits(bitmap, count=num_buckets, bitorder="little").astype(bool)
    buckets = np.flatnonzero(updated)
    if buckets.size != stored:
        raise ValueError(
            f"{path}: the bucket bitmap marks {buckets.size} buckets "
            f"but the checkpoint stores {stored} rows"
        )
    arrays = _read_arrays(fh, path, shapes)
    if stored == num_buckets:  # every row is stored: no codebook to redraw
        codebook_rows = num_buckets
    slot = _slots(num_buckets, codebook_rows)
    if stored < num_buckets:
        rows = arrays["embedding"]
        shared = codebook_rows < num_buckets
        table = np.empty((codebook_rows + (stored if shared else 0), hidden))
        _draw_codebook(np.random.default_rng(seed), table[:codebook_rows])
        if _fingerprint(table[:codebook_rows]) != fingerprint:
            raise ValueError(
                f"{path}: the codebook NumPy draws from seed {seed} does not match "
                "the checkpoint's fingerprint; its random stream differs from the "
                "one that wrote the file"
            )
        if shared:
            table[codebook_rows:] = rows
            slot[buckets] = np.arange(codebook_rows, codebook_rows + stored, dtype=np.int32)
        else:
            table[buckets] = rows
        arrays["embedding"] = table
    return ModelParams(
        **arrays,
        slot=slot,
        updated=updated,
        codebook_rows=codebook_rows,
        seed=seed,
        fingerprint=fingerprint,
    )


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read an ``SMX2`` checkpoint, or a dense ``SMX1`` one of earlier versions."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == _MAGIC:
            return _load_sparse(fh, path)
        if magic == _MAGIC_DENSE:
            return _load_dense(fh, path)
    raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
