"""A from-scratch text classifier with exact, hand-derived gradients.

Pipeline: text -> hashed n-gram features -> embedding-bag average -> 2-layer
MLP head -> softmax. Everything is numpy; no autodiff framework is involved,
so every loss term exposes its logit gradient in closed form and the whole
backward pass is checkable against finite differences.

The trained arrays take the dtype :func:`init_params` is asked for: a
training run stores its embedding rows, head and Adam moments in float32
(mixed precision in the sense of Micikevicius et al., ICLR 2018), and
checkpoints store float32. The arithmetic on them stays float64: pooled
rows, activations, logits, losses and the head's gradients. The embedding
gradient, its lazy Adam update and the weighted sums of :func:`encode` run
in the table's dtype.

A batch is one record array (:func:`make_batch`), one record per loss
term, and each term is one of three kinds:

- ``"ce"``     cross-entropy against a (possibly soft) target distribution
- ``"pseudo"`` negative log of the model's own top probability (confidence)
- ``"rdrop"``  half the symmetric KL between two dropout-perturbed passes

:func:`backward` is the single batch evaluator and the only definition of
each formula (``rdrop_from_probs`` is its agreement helper): it reads the
batch column by column and returns the weighted total, a per-kind breakdown
and the exact gradients.

A batch names rows of one :class:`FeatureMatrix` and is evaluated as one
matrix pass. Each of its documents is pooled once, through one small dense
(documents x distinct buckets) weight matrix per ``_BAG_BLOCK`` documents;
the embedding gradient is its transpose times the documents' gradients. A
mixup term reads ``lam * e(row) + (1 - lam) * e(partner)`` of two pooled
rows. The head runs on one row per (term, dropout pass).

Everything about a batch but the parameters, the targets and the weights
is fixed by its records, its mask seed and ``params.slot``: its distinct
documents and buckets, the bag matrices, which head row reads which term
and the dropout masks. That is a :class:`BatchPlan`. :func:`plan_batches`
builds the plans of many batches in a few array passes (one ``np.unique``
each over all their documents, buckets and block columns, and one hash
pass for all their masks), and :func:`backward` evaluates one batch from
its plan, building a one-batch plan itself when given none. The training
loop plans a slice of consecutive batches at once, so no step repeats
that work.

A text's features are the fastText bag of its lowercased alphanumeric tokens
and adjacent token pairs (Joulin et al., EACL 2017), hashed by 64-bit FNV-1a
into ``num_buckets`` buckets (Weinberger et al., ICML 2009). A token is a
run of ``str.isalnum()`` code points: :func:`tokenize` lowercases the text,
maps every other code point to a space with one ``str.translate``, and
splits at whitespace.
:func:`featurize_corpus` tokenizes and hashes a chunk of ``_FEATURIZE_CHUNK``
texts as one array of UTF-8 bytes, with no Python step per token: the
lowercased texts are joined by spaces, translated and encoded once, and a
token is a run of bytes other than the space. The hash runs on ``uint64``
arrays once per token occurrence and once per adjacent pair within a text;
a pair continues its left token's state over the separator byte. Once at
most ``_FEW_ROWS`` tokens are still being hashed, their remaining bytes go
through a plain integer loop. A token longer than ``_LONG_ROW`` bytes is
hashed once per distinct (state, bytes) in a chunk, so a long token that
repeats costs one hash as a word and one per distinct word before it as
the right word of a pair. A chunk's entries are ordered by
(document, bucket) with a sort by bucket and then a stable sort by document
id as an ``int16`` key, which NumPy radix-sorts. A corpus is one CSR
:class:`FeatureMatrix`, the only bag type (a text alone is a one-row
matrix); each chunk is written straight into it, and :func:`predict_logits`
scores slices of it.

The embedding state is sparse: only the buckets a training corpus hashes to
carry information. A model owns one row for each bucket its training
corpus names, and no other. ``ModelParams.embedding`` holds an all-zero
row 0, which nothing trains, then the owned rows in bucket order; ``slot``
maps each bucket to the row it reads, so a bucket the model does not own
reads row 0 and pools to zero. :func:`encode` drops such entries before it
gathers rows, so a text of mostly unseen n-grams costs only the buckets
the model owns. An owned row starts as N(0, 0.1^2) normals
from the counter hash below, keyed by (init seed, bucket, unit), so it does
not depend on which other buckets the model owns. Adam updates owned rows
in place, and a checkpoint stores them.

The Adam state (:class:`OptimizerState`) holds the head's moments as one
flat vector each, ``w1``, ``b1``, ``w2`` and ``b2`` joined in
:data:`TRAINED` order, and the embedding's as tables of the table's shape.
``opt.m[name]`` and ``opt.v[name]`` are views into that state, made on
each read, so a pickled state (a shared warm-up spills one) holds no copy
that could go stale. :func:`adam_step` updates the head in one pass over
the flat vectors, and the embedding's touched rows with one gather, in
place arithmetic and one scatter per table.

Dropout is inverted dropout with one site (the hidden layer). Masks come
from a counter-based hash (SplitMix64 mixing, in the spirit of Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11): unit ``j`` of
the mask for (``mask_seed``, key, pass) is kept when the hash of those four
numbers, read as a uniform in [0, 1), clears the dropout rate. A forward
pass is therefore a pure function of (params, items, mask_seed), which is
exactly what finite-difference checking and reproducible training need, and
no random generator is built per term. Terms of different kinds that share
a key also share per-pass masks; this is how a confidence term can be
evaluated on the same perturbed pass as a consistency term.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .common import NumericError, atomic_open

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_FNV_OFFSET = np.uint64(FNV_OFFSET)
_FNV_PRIME = np.uint64(FNV_PRIME)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_BIGRAM_SEP = np.uint64(0x1F)  # the byte between a bigram's two words
_FEATURIZE_CHUNK = 512  # texts per featurization chunk; bounds peak memory
# Rows _fnv_fold finishes one at a time. A NumPy column step costs 1.2-1.9 us
# on a 2-vCPU host, the integer loop about 0.13 us per byte per row.
_FEW_ROWS = 8
# Bytes _fnv_fold gathers per step of its column loop. The gather's int64
# index takes 8 bytes per byte, so this bounds the memory that many copies
# of one long token fold in.
_FOLD_BLOCK = 2**16
# Rows longer than this many bytes _fnv_fold folds once per distinct (state,
# bytes), at one Python step each; a NumPy column step folds a byte of every
# row at once, so shorter rows fold as they come.
_LONG_ROW = 64
_LOG_FLOOR = 1e-12
_MAGIC = b"SMX4"
_OLD_MAGICS = (b"SMX1", b"SMX2", b"SMX3")  # earlier checkpoint formats, refused by name
# Buckets whose initial rows one array pass of init_params builds. A pass
# holds a few (chunk, 2 * hidden) uint64 temporaries, so this bounds the
# init's peak memory at a small multiple of the table itself.
_INIT_CHUNK = 1024
# Documents per dropout-off forward pass of predict_logits. The pass gathers
# one embedding row per owned feature of its documents; at 64-128 documents
# those rows stay in cache. On a 2-vCPU host the benchmark's 20,000-document
# pool of a 2^18-bucket model scores in 0.037 s at 128 (median of 9), 0.040 s
# at 64, 0.048 s at 32 and 0.057-0.066 s at 256-1024.
_EVAL_CHUNK = 128
# Documents per dense bag matrix in backward. A block's products stay below
# about 10^6 multiply-adds, which OpenBLAS runs on the calling thread; at 32
# rows and above it starts a second thread that spins (process CPU twice the
# wall time) for no gain in wall time. Measured with blocks of items on a
# 2-vCPU host, backward took 0.88 ms per README quick-start step at 16, 0.90
# at 12, 0.95 at 8 and 1.20 ms as a gather plus reduceat.
_BAG_BLOCK = 16


class _Separators(dict):
    """A ``str.translate`` table filled on first use: a code point maps to
    itself when ``str.isalnum()`` and to a space otherwise."""

    def __missing__(self, code: int) -> int:
        self[code] = mapped = code if chr(code).isalnum() else 0x20
        return mapped


_SEPARATORS = _Separators()


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric code points: one
    ``str.translate`` turns each of those into a space, and ``str.split``
    cuts at the spaces (no alphanumeric code point is whitespace)."""
    return text.lower().translate(_SEPARATORS).split()


def _fnv_fold(h: np.ndarray, buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Continue each FNV-1a state ``h[i]`` over the bytes ``buf[starts[i]:][:sizes[i]]``.

    The result is a function of (state, bytes), so rows longer than
    ``_LONG_ROW`` bytes are folded once per distinct (state, bytes) and the
    result is copied to their repeats: one long token repeated in a chunk,
    as a unigram or as the right word of a bigram, costs one fold.
    """
    source = np.arange(h.size)  # the row whose fold each row copies
    firsts: dict[tuple[int, bytes], int] = {}
    long_rows = np.flatnonzero(sizes > _LONG_ROW).tolist()
    for k in long_rows:
        key = (int(h[k]), buf[starts[k] : starts[k] + sizes[k]].tobytes())
        source[k] = firsts.setdefault(key, k)
    if len(firsts) == len(long_rows):
        return _fold_rows(h, buf, starts, sizes)
    rows, inverse = np.unique(source, return_inverse=True)
    return _fold_rows(h[rows], buf, starts[rows], sizes[rows])[inverse]


def _fold_rows(h: np.ndarray, buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """:func:`_fnv_fold` on every row.

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
        step = max(_FOLD_BLOCK // rows, 1)  # columns gathered at once
        for lo in range(done, size, step):
            for column in buf[pos[:rows, None] + np.arange(lo, min(lo + step, size))].T:
                state ^= column
                state *= _FNV_PRIME
        done = size
    return h[np.argsort(order)]


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """The feature bags of many documents as one CSR matrix.

    Document ``i`` names the buckets ``indices[indptr[i]:indptr[i + 1]]``
    with the weights at the same positions; a bucket named twice has its
    weights added. :func:`featurize_corpus` emits sorted, distinct ids
    weighted by occurrence counts that sum to 1 (an empty text gives an
    empty row), so a row pools to the average of its n-grams' embeddings.
    """

    indptr: np.ndarray  # (n + 1,) int64, indptr[0] == 0
    indices: np.ndarray  # (indptr[-1],) int64
    weights: np.ndarray  # (indptr[-1],) float64

    def __len__(self) -> int:
        return self.indptr.size - 1

    def sizes(self) -> np.ndarray:
        """The number of entries of each row."""
        return np.diff(self.indptr)

    def take(self, positions: Sequence[int] | np.ndarray) -> "FeatureMatrix":
        """Rows ``positions``, in that order (repeats allowed), by one gather.

        ``positions`` is one-dimensional, of integers in ``[0, len(self))``.
        """
        positions, count = np.asarray(positions), len(self)
        if positions.ndim != 1:
            raise ValueError(f"positions must be one-dimensional, not of shape {positions.shape}")
        if positions.size and positions.dtype.kind not in "iu":
            raise ValueError(
                f"position 0: {positions[0].item()!r} is not an integer ({positions.dtype})"
            )
        if positions.size and (positions.min() < 0 or positions.max() >= count):
            pos = int(np.flatnonzero((positions < 0) | (positions >= count))[0])
            raise ValueError(
                f"position {pos}: row {positions[pos]} is not a position in [0, {count})"
            )
        positions = positions.astype(np.int64, copy=False)
        starts = self.indptr[positions]
        sizes = self.indptr[positions + 1] - starts
        indptr = np.zeros(positions.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        # entry k of the result reads entry starts[row] + (k - indptr[row])
        gather = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], sizes)
        return FeatureMatrix(indptr, self.indices[gather], self.weights[gather])


def _featurize_chunk(
    texts: Sequence[str], num_buckets: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indices, weights, indptr)`` of the CSR rows of ``texts``.

    The chunk is tokenized as one byte array: the lowercased texts, joined
    by spaces, go through one ``translate`` and one UTF-8 encode, and a
    token is a maximal run of bytes other than the space, which is then the
    only whitespace left and in UTF-8 the only byte 0x20. ``translate`` keeps
    each code point's position, so text ``i`` starts at the code point after
    the lowercased lengths before it, and at the same byte when every code
    point is one byte.
    """
    lowered = [text.lower() for text in texts]
    spans = np.fromiter(map(len, lowered), np.int64, len(lowered)) + 1  # a text and its space
    joined = " ".join(lowered).translate(_SEPARATORS)
    del lowered
    buf = np.frombuffer(joined.encode("utf-8"), np.uint8)
    text_starts = np.cumsum(spans) - spans
    if buf.size != len(joined):  # a code point starts at each byte but a continuation byte
        text_starts = np.append(np.flatnonzero((buf & 0xC0) != 0x80), buf.size)[text_starts]
    del joined
    # padded[1:-1] marks token bytes; its int8 steps mark token starts (+1) and ends (-1)
    padded = np.zeros(buf.size + 2, dtype=np.int8)
    np.not_equal(buf, 0x20, out=padded[1:-1].view(bool))
    starts, ends = np.flatnonzero(np.diff(padded)).reshape(-1, 2).T
    del padded
    lengths = ends - starts
    doc = np.searchsorted(text_starts, starts, side="right") - 1
    unigrams = _fnv_fold(np.full(starts.size, _FNV_OFFSET), buf, starts, lengths)
    right = np.flatnonzero(doc[1:] == doc[:-1]) + 1  # the second token of each pair
    state = (unigrams[right - 1] ^ _BIGRAM_SEP) * _FNV_PRIME
    bigrams = _fnv_fold(state, buf, starts[right], lengths[right])
    bucket = np.concatenate([unigrams, bigrams]) % np.uint64(num_buckets)
    sizes = np.bincount(doc, minlength=len(texts))
    doc = np.concatenate([doc, doc[right]])
    # Sort by (doc, bucket): by bucket, then stably by doc. An int16 doc key
    # is radix-sorted, which holds while _FEATURIZE_CHUNK < 2**15.
    order = np.argsort(bucket)
    order = order[np.argsort(doc[order].astype(np.int16), kind="stable")]
    bucket, doc = bucket[order].astype(np.int64), doc[order]
    runs = np.flatnonzero(np.diff(bucket, prepend=-1) | np.diff(doc, prepend=-1))
    indices, doc = bucket[runs], doc[runs]
    grams = 2 * sizes - (sizes > 0)  # n unigrams and n - 1 bigrams in a text of n tokens
    weights = np.diff(runs, append=bucket.size) / grams[doc]
    return indices, weights, np.searchsorted(doc, np.arange(len(texts) + 1))


def featurize_corpus(texts: Sequence[str], num_buckets: int) -> FeatureMatrix:
    """The features of each text, one row each: its unigrams and adjacent
    bigrams, hashed into ``num_buckets`` buckets, ``_FEATURIZE_CHUNK`` texts
    at a time.

    Each chunk's entries are appended to arrays that grow by exactly that
    many, so the peak stays near the matrix the call returns.
    """
    if not 1 <= num_buckets < 2**63:
        raise ValueError("num_buckets must lie in [1, 2**63)")
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    indices, weights = np.empty(0, dtype=np.int64), np.empty(0)
    for start in range(0, len(texts), _FEATURIZE_CHUNK):
        *parts, bounds = _featurize_chunk(texts[start : start + _FEATURIZE_CHUNK], num_buckets)
        end = indices.size
        for grown, part in zip((indices, weights), parts):
            grown.resize(end + part.size, refcheck=False)
            grown[end:] = part
        indptr[start : start + bounds.size] = end + bounds
    return FeatureMatrix(indptr, indices, weights)


def featurize_text(text: str, num_buckets: int) -> FeatureMatrix:
    """The features of one text: ``featurize_corpus([text], num_buckets)``, a one-row matrix."""
    return featurize_corpus([text], num_buckets)


@dataclass
class ModelParams:
    """All learnable arrays, the bucket-to-row map, and the dropout rate.

    ``embedding`` holds row 0, all zeros and never trained, then one row per
    bucket the model owns, in bucket order. Bucket ``b`` reads row
    ``slot[b]``, which is 0 unless the model owns ``b``, so a bucket the
    model does not own pools to zero. The trained arrays share one dtype,
    the one :func:`init_params` was asked for (float32 in a training run).
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
    *,
    dtype: np.dtype | type = np.float64,
) -> ModelParams:
    """A row for each distinct bucket of ``buckets``, a He-scaled head, zero biases.

    Owned rows are N(0, 0.1^2), a pure function of (seed, bucket); they are
    built ``_INIT_CHUNK`` buckets at a time. Every other bucket pools to
    zero. The head is drawn from ``np.random.default_rng(seed)``. Rows and
    head are drawn in float64 and then rounded to ``dtype``, the dtype of
    every trained array (and so of the Adam moments :func:`init_optimizer`
    allocates); a training run asks for float32.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must lie in [0, 1)")
    if num_buckets < 1:
        raise ValueError("num_buckets must be at least 1")
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    owned = np.unique(np.asarray(buckets, dtype=np.int64))
    if owned.size and (owned[0] < 0 or owned[-1] >= num_buckets):
        raise ValueError(f"owned buckets must lie in [0, {num_buckets})")
    slot = _slot_of(num_buckets, owned)
    embedding = np.zeros((1 + owned.size, hidden), dtype=dtype)
    for start in range(0, owned.size, _INIT_CHUNK):
        chunk = owned[start : start + _INIT_CHUNK]
        embedding[1 + start : 1 + start + chunk.size] = _initial_rows(seed, chunk, hidden)
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, hidden))
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, num_classes))
    return ModelParams(
        embedding=embedding,
        w1=w1.astype(dtype, copy=False),
        b1=np.zeros(hidden, dtype=dtype),
        w2=w2.astype(dtype, copy=False),
        b2=np.zeros(num_classes, dtype=dtype),
        dropout_rate=float(dropout_rate),
        slot=slot,
    )


def corpus_buckets(features: FeatureMatrix, num_buckets: int) -> np.ndarray:
    """The distinct buckets ``features`` name, sorted: the buckets a model
    trained on them must own (the ``buckets`` of :func:`init_params`)."""
    seen = np.zeros(num_buckets, dtype=bool)
    seen[features.indices] = True
    return np.flatnonzero(seen)


def encode(params: ModelParams, features: FeatureMatrix) -> np.ndarray:
    """Embedding-bag averages, one per row of ``features``: one gather plus
    one reduceat. Each bucket reads its row through ``params.slot``; an
    entry whose bucket the model does not own would read the zero row 0, so
    it is dropped before the gather, and a row with no owned bucket (an
    empty row too) pools to the zero vector. Rows are weighted and summed
    in the table's dtype; the averages are returned as float64.
    """
    indices = features.indices
    if indices.size and (indices.min() < 0 or indices.max() >= params.num_buckets):
        raise ValueError("feature index out of range for the embedding table")
    rows = params.slot[indices]
    kept = np.flatnonzero(rows)
    # bounds[i]: the kept entries before entry indptr[i]
    bounds = np.searchsorted(kept, features.indptr)
    filled = bounds[1:] > bounds[:-1]
    weighted = np.take(params.embedding, rows[kept], axis=0)
    weighted *= features.weights[kept].astype(weighted.dtype, copy=False)[:, None]
    pooled = np.zeros((len(features), params.hidden))
    pooled[filled] = np.add.reduceat(weighted, bounds[:-1][filled], axis=0)
    return pooled


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


@dataclass
class Gradients:
    """Sparse embedding gradient (touched rows only) plus dense head grads."""

    emb_rows: np.ndarray  # (R,) int64 bucket ids, sorted
    emb_vals: np.ndarray  # (R, hidden), in the embedding table's dtype
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche on uint64 arrays, in
    place on its temporaries, so it holds two arrays of ``z``'s size."""
    t = z >> np.uint64(30)
    t ^= z
    t *= _MIX1
    z = t >> np.uint64(27)
    z ^= t
    z *= _MIX2
    t = z >> np.uint64(31)
    t ^= z
    return t


def _bases(seeds: Sequence[int]) -> np.ndarray:
    """The stream base of each seed: a SplitMix64 hash of it."""
    return _mix64(np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64) + _GOLDEN)


def _streams(base: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """One SplitMix64 stream state per key: a hash of (base, key), where
    ``base`` holds one seed's base for every key or one per key."""
    return _mix64(base ^ np.asarray(keys, dtype=np.int64).astype(np.uint64))


def _outputs(state: np.ndarray, count: int) -> np.ndarray:
    """Outputs ``1..count`` of each stream ``state[r]``, as their top 53 bits."""
    units = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    out = _mix64(state[:, None] + units)
    out >>= np.uint64(11)
    return out


def _uniforms(state: np.ndarray, count: int) -> np.ndarray:
    """Outputs ``1..count`` of each stream ``state[r]``, as uniforms in [0, 1)."""
    return _outputs(state, count) * 2.0**-53


def _initial_rows(seed: int, buckets: np.ndarray, hidden: int) -> np.ndarray:
    """N(0, 0.1^2) embedding rows, one per bucket, by Box-Muller: unit ``j``
    of bucket ``b`` reads outputs ``2j + 1`` and ``2j + 2`` of the stream of
    (seed, b), so it is a pure function of (seed, b, j)."""
    u = _uniforms(_streams(_bases([seed]), buckets), 2 * hidden)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    return 0.1 * radius * np.cos(2.0 * np.pi * u[:, 1::2])


def _kept(
    base: np.ndarray, keys: np.ndarray, passes: np.ndarray, hidden: int, rate: float
) -> np.ndarray:
    """Which hidden units dropout keeps, one bool row per (base, key, pass).

    Row ``r`` is a SplitMix64 stream whose state is a hash of (base[r],
    keys[r], passes[r]); unit ``j`` is kept when the stream's ``j``-th
    output, read as a uniform in [0, 1), clears ``rate``. The uniform of
    output ``k`` is ``k * 2**-53`` exactly, so it clears ``rate`` when ``k``
    reaches ``rate * 2**53`` rounded up, and no float array is made.
    """
    passes = np.asarray(passes, dtype=np.uint64) + np.uint64(1)
    state = _mix64(_streams(base, keys) + passes * _GOLDEN)
    return _outputs(state, hidden) >= np.uint64(math.ceil(rate * 2.0**53))


def _masks(
    params: ModelParams, mask_seed: int | None, keys: np.ndarray, passes: np.ndarray
) -> np.ndarray:
    """Inverted-dropout masks, one row per (key, pass), from a counter hash:
    the units :func:`_kept` keeps for ``mask_seed``'s base, divided by
    ``1 - rate``, so a mask is a pure function of (mask_seed, key, pass,
    unit). With no ``mask_seed`` or a zero rate every mask is all ones.
    """
    rate = params.dropout_rate
    if mask_seed is None or rate == 0.0:
        return np.ones((len(keys), params.hidden))
    return _kept(_bases([mask_seed]), keys, passes, params.hidden, rate) / (1.0 - rate)


def _forward(
    params: ModelParams, e: np.ndarray, mask: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The head on one ``(hidden,)`` row or a ``(rows, hidden)`` matrix of
    rows: the pre-activations, the (dropped) hidden units and the logits.

    ``mask=None`` is dropout off.
    """
    a1 = e @ params.w1 + params.b1
    h_drop = np.maximum(a1, 0.0)
    if mask is not None:
        h_drop *= mask
    return a1, h_drop, h_drop @ params.w2 + params.b2


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
    return _forward(params, np.asarray(e, dtype=np.float64), mask)[2]


def predict_logits(params: ModelParams, features: FeatureMatrix) -> np.ndarray:
    """Dropout-off logits of many documents, one row each, in forward passes
    over ``_EVAL_CHUNK`` consecutive rows of ``features``.

    Raises :class:`NumericError` when a row is not finite, as happens when
    a diverged model's forward pass overflows.
    """
    n = len(features)
    logits = np.empty((n, params.num_classes))
    bounds, indices, weights = features.indptr, features.indices, features.weights
    for start in range(0, n, _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, n)
        lo, hi = bounds[start], bounds[stop]
        rows = FeatureMatrix(bounds[start : stop + 1] - lo, indices[lo:hi], weights[lo:hi])
        logits[start:stop] = _forward(params, encode(params, rows), None)[2]
    bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
    if bad.size:
        raise NumericError(f"non-finite logits for document {int(bad[0])} of {n}")
    return logits


def predict_proba(params: ModelParams, features: FeatureMatrix) -> np.ndarray:
    """Dropout-off class probabilities of each row: ``exp(log_softmax(z))``
    of the logits ``z`` that :func:`predict_logits` gives."""
    log_p = log_softmax(predict_logits(params, features))  # frees the logits before exp
    return np.exp(log_p)


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, _LOG_FLOOR))


def rdrop_from_probs(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Half the symmetric KL between class distributions (last axis), logs floored."""
    delta = _clamped_log(p1) - _clamped_log(p2)
    return 0.5 * ((p1 * delta).sum(axis=-1) + (p2 * -delta).sum(axis=-1))


_KINDS = ("ce", "pseudo", "rdrop")


def _check_kinds(kinds: np.ndarray) -> None:
    unknown = np.flatnonzero(~np.isin(kinds, _KINDS))
    if unknown.size:
        raise ValueError(f"unknown batch item kind {str(kinds[unknown[0]])!r}")


def make_batch(
    rows: ArrayLike, kind: ArrayLike, *, key: ArrayLike, target: ArrayLike,
    weight: ArrayLike = 1.0, partner: ArrayLike | None = None, lam: ArrayLike = 1.0,
) -> np.recarray:
    """A batch of loss terms, one record per entry of ``rows``; every other
    argument is one value for all records or one per record.

    ``row`` is a position in the matrix given to :func:`backward`; a mixup
    term reads ``lam * e(row) + (1 - lam) * e(partner)`` (``partner``
    defaults to the row). ``kind`` is ``"ce"``, ``"pseudo"`` or ``"rdrop"``.
    ``target`` is a class distribution; a ``"ce"`` term trains toward it and
    the other kinds ignore it. ``key`` names the term's dropout streams. Rows, partners and
    keys must be integers. Parts join with
    ``np.concatenate(parts).view(np.recarray)``; iterating a batch yields
    records whose fields read as attributes.
    """
    rows = np.asarray(rows)
    kinds = np.broadcast_to(np.asarray(kind, dtype=str), rows.shape)
    _check_kinds(kinds)
    partner = rows if partner is None else partner
    for name, values in (("row", rows), ("partner", partner), ("key", key)):
        values = np.asarray(values)
        if values.size and values.dtype.kind not in "iu":
            raise ValueError(f"batch {name}s must be integers, not {values.dtype}")
    target = np.asarray(target, dtype=np.float64)
    batch = np.recarray(rows.size, dtype=[
        ("row", np.int64), ("partner", np.int64), ("lam", np.float64), ("kind", "U6"),
        ("weight", np.float64), ("key", np.int64), ("target", np.float64, target.shape[-1:]),
    ])
    for name, values in zip(batch.dtype.names, (rows, partner, lam, kinds, weight, key, target)):
        batch[name] = values
    return batch


@dataclass(frozen=True, eq=False)
class BatchPlan:
    """What :func:`backward` reads of a batch besides the parameters, the
    targets and the weights. The batch's records, its mask seed and
    ``params.slot`` fix all of it, so :func:`plan_batches` can build it
    before the step that evaluates the batch.

    The batch's distinct rows are its documents, in row order: record ``i``
    reads ``coef_a[i] * e(doc_a[i]) + coef_b[i] * e(doc_b[i])`` of their
    pooled rows. ``buckets`` are the documents' distinct buckets, sorted.
    Each block of ``_BAG_BLOCK`` documents is ``(start, stop, cols, rows,
    bags)``: documents ``start:stop``, the positions ``cols`` in
    ``buckets`` that they name, the table rows of those buckets, and the
    dense (documents x cols) matrix of their bag weights. Head row ``r`` is
    pass 0 of every record, in order, then pass 1 of each ``"rdrop"``
    record; ``row_item[r]`` is its record and ``kept[r]`` the hidden units
    its dropout keeps (None with dropout off). ``kinds`` holds the
    positions of each kind of ``_KINDS``.
    """

    size: int
    mask_seed: int | None
    kinds: tuple[np.ndarray, np.ndarray, np.ndarray]
    doc_a: np.ndarray
    doc_b: np.ndarray
    coef_a: np.ndarray
    coef_b: np.ndarray
    docs: int
    buckets: np.ndarray
    blocks: list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]
    row_item: np.ndarray
    kept: np.ndarray | None


def _distinct(group: np.ndarray, values: np.ndarray, groups: int) -> tuple[np.ndarray, ...]:
    """The distinct ``values`` of each of ``groups`` groups, by one
    ``np.unique`` over the keys ``group << 32 | value`` (values in [0,
    2**32)).

    Returns the distinct values, sorted within each group and grouped in
    group order; the index of each value among them; and the bounds of each
    group's run of distinct values.
    """
    keys, inverse = np.unique((group << 32) | values, return_inverse=True)
    return keys & 0xFFFFFFFF, inverse, np.searchsorted(keys >> 32, np.arange(groups + 1))


def plan_batches(
    params: ModelParams,
    items: np.recarray,
    features: FeatureMatrix,
    bounds: Sequence[int] | np.ndarray,
    mask_seeds: Sequence[int | None],
) -> list[BatchPlan]:
    """The plan of each batch ``items[bounds[k]:bounds[k + 1]]`` under the
    mask seed ``mask_seeds[k]``, built in array passes over all of them.

    The distinct documents of every batch come from one ``np.unique``, as
    do the distinct buckets of every batch and the columns of every block;
    every batch's documents are taken from ``features`` at once, their bag
    matrices come from one ``np.bincount``, and their dropout units from
    one hash pass over every head row. Refuses what :func:`backward`
    refuses, naming the position in its batch.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes = np.diff(bounds)
    nb, n, count = sizes.size, len(items), len(features)
    kinds, rows, partners = items["kind"], items["row"], items["partner"]
    _check_kinds(kinds)
    if items["target"].shape[1:] != (params.num_classes,):
        raise ValueError(f"batch targets are not distributions over {params.num_classes} classes")
    batch_of = np.repeat(np.arange(nb), sizes)
    outside = (rows < 0) | (rows >= count)
    bad = np.flatnonzero(outside | (partners < 0) | (partners >= count))
    if bad.size:
        pos = int(bad[0])
        row = int(rows[pos] if outside[pos] else partners[pos])
        pos -= int(bounds[batch_of[pos]])
        raise ValueError(f"batch position {pos}: row {row} is not a position in [0, {count})")

    # every record's pass 0, then the batch's rdrop records' pass 1; the
    # masks' hash temporaries are freed before the bag matrices are made
    is_kind = [kinds == kind for kind in _KINDS]
    rdrop = np.flatnonzero(is_kind[2])
    rdrop_batch = batch_of[rdrop]
    rdrop_counts = np.bincount(rdrop_batch, minlength=nb)
    head_bounds = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(sizes + rdrop_counts, out=head_bounds[1:])
    row_item = np.empty(int(head_bounds[-1]), dtype=np.int64)
    passes = np.zeros(row_item.size, dtype=np.int64)
    row_item[head_bounds[batch_of] + np.arange(n) - bounds[batch_of]] = np.arange(n)
    second = (
        head_bounds[rdrop_batch] + sizes[rdrop_batch]
        + np.arange(rdrop.size) - (np.cumsum(rdrop_counts) - rdrop_counts)[rdrop_batch]
    )
    row_item[second], passes[second] = rdrop, 1
    kept = None
    if params.dropout_rate > 0.0 and any(seed is not None for seed in mask_seeds):
        base = np.repeat(_bases([seed or 0 for seed in mask_seeds]), np.diff(head_bounds))
        kept = _kept(base, items["key"][row_item], passes, params.hidden, params.dropout_rate)

    both = np.concatenate([batch_of, batch_of])
    doc_rows, doc_of, doc_bounds = _distinct(both, np.concatenate([rows, partners]), nb)
    doc_of -= doc_bounds[both]  # a document's index in its batch
    doc_a, doc_b = doc_of[:n], doc_of[n:]
    # an item's two coefficients on one document add, as a bucket's weights in a bag do
    lam, same = items["lam"], doc_a == doc_b
    coef_a, coef_b = np.where(same, lam + (1.0 - lam), lam), np.where(same, 0.0, 1.0 - lam)

    docs = features.take(doc_rows)
    indices = docs.indices
    if indices.size and (indices.min() < 0 or indices.max() >= params.num_buckets):
        raise ValueError("feature index out of range for the embedding table")
    doc_batch = np.repeat(np.arange(nb), np.diff(doc_bounds))
    entry_doc = np.repeat(np.arange(doc_rows.size), docs.sizes())
    buckets, bucket_of, bucket_bounds = _distinct(doc_batch[entry_doc], indices, nb)
    # a block starts at every _BAG_BLOCK-th document of a batch and ends where the next starts
    starts = (np.arange(doc_rows.size) - doc_bounds[doc_batch]) % _BAG_BLOCK == 0
    entry_block = (np.cumsum(starts) - 1)[entry_doc]
    starts = np.flatnonzero(starts)
    block_docs = np.diff(starts, append=doc_rows.size)
    block_bounds = np.searchsorted(doc_batch[starts], np.arange(nb + 1))
    columns, local, col_bounds = _distinct(entry_block, bucket_of, starts.size)
    local -= col_bounds[entry_block]
    # bags[cell_bounds[j]:cell_bounds[j + 1]] is block j's matrix, row-major
    width = np.diff(col_bounds)
    cell_bounds = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(block_docs * width, out=cell_bounds[1:])
    cell = cell_bounds[entry_block] + (entry_doc - starts[entry_block]) * width[entry_block]
    bags = np.bincount(cell + local, docs.weights, int(cell_bounds[-1]))
    table_rows = params.slot[buckets[columns]]
    columns -= np.repeat(bucket_bounds[doc_batch[starts]], width)  # a column's index in its batch

    # the positions of each kind in each batch: a stable sort by (batch, kind)
    group = 3 * batch_of + is_kind[1] + 2 * is_kind[2]
    order = np.argsort(group, kind="stable")
    kind_bounds = np.searchsorted(group[order], np.arange(3 * nb + 1)).tolist()
    order -= bounds[batch_of[order]]

    plans = []
    doc_bounds, bucket_bounds, head_bounds, lo_hi = (
        doc_bounds.tolist(), bucket_bounds.tolist(), head_bounds.tolist(), bounds.tolist()
    )
    block_bounds, col_bounds, cell_bounds = (
        block_bounds.tolist(), col_bounds.tolist(), cell_bounds.tolist()
    )
    starts, block_docs = starts.tolist(), block_docs.tolist()
    for k, seed in enumerate(mask_seeds):
        lo, hi = lo_hi[k], lo_hi[k + 1]
        blocks = []
        for j in range(block_bounds[k], block_bounds[k + 1]):
            start, c0, c1 = starts[j] - doc_bounds[k], col_bounds[j], col_bounds[j + 1]
            cells = bags[cell_bounds[j] : cell_bounds[j + 1]].reshape(block_docs[j], c1 - c0)
            blocks.append((start, start + block_docs[j], columns[c0:c1], table_rows[c0:c1], cells))
        h0, h1, groups = head_bounds[k], head_bounds[k + 1], range(3 * k, 3 * k + 3)
        plans.append(BatchPlan(
            size=hi - lo,
            mask_seed=seed,
            kinds=tuple(order[kind_bounds[g] : kind_bounds[g + 1]] for g in groups),
            doc_a=doc_a[lo:hi],
            doc_b=doc_b[lo:hi],
            coef_a=coef_a[lo:hi],
            coef_b=coef_b[lo:hi],
            docs=doc_bounds[k + 1] - doc_bounds[k],
            buckets=buckets[bucket_bounds[k] : bucket_bounds[k + 1]],
            blocks=blocks,
            row_item=row_item[h0:h1] - lo,
            kept=None if kept is None or seed is None else kept[h0:h1],
        ))
    return plans


def backward(
    params: ModelParams,
    items: np.recarray,
    features: FeatureMatrix,
    *,
    mask_seed: int | None = None,
    plan: BatchPlan | None = None,
) -> tuple[float, Gradients, dict[str, tuple[float, int]]]:
    """Evaluate and differentiate a weighted sum of loss terms on rows of
    ``features``.

    This is the one place each loss formula is defined. ``items`` is a
    batch of :func:`make_batch`, read column by column. Returns ``(total,
    grads, breakdown)`` where ``total`` is the weighted objective (the sum
    of ``weight * loss`` over items), ``grads`` holds the exact parameter
    gradients of ``total``, and ``breakdown`` maps each loss kind to ``(sum
    of unweighted item losses, item count)``.

    ``plan`` is the batch's :class:`BatchPlan` under ``mask_seed``, as
    :func:`plan_batches` builds it; without one, ``backward`` builds it
    here. The evaluation reads the parameters, the targets and the weights.
    The whole batch is one matrix pass: every item gets a pass-0 row and
    every ``"rdrop"`` item also a pass-1 row. Each block of ``_BAG_BLOCK``
    documents pools through its dense bag matrix (a bucket named twice in
    a bag has its weights added); the transpose scatters the block's
    gradients. Items gather their inputs from the pooled rows and scatter
    their input gradients back. Unlike a dense (items x documents) mixing
    matrix, whose zeros would carry one document's NaN into every item, a
    gather keeps memory and work linear in the number of items.
    """
    n = len(items)
    if plan is None:
        plan = plan_batches(params, items, features, [0, n], [mask_seed])[0]
    elif plan.size != n or plan.mask_seed != mask_seed:
        raise ValueError("the plan was built for another batch or mask seed")
    ce, pseudo, rdrop = plan.kinds
    # a contiguous copy, so the total does not depend on the record layout
    weights = np.ascontiguousarray(items["weight"])
    pooled = np.empty((plan.docs, params.hidden))
    for start, stop, _, rows, bags in plan.blocks:
        pooled[start:stop] = bags @ np.take(params.embedding, rows, axis=0)
    doc_a, doc_b, coef_a, coef_b = plan.doc_a, plan.doc_b, plan.coef_a, plan.coef_b
    e = coef_a[:, None] * pooled[doc_a] + coef_b[:, None] * pooled[doc_b]

    row_item = plan.row_item
    e_rows = e[row_item]
    if plan.kept is None:
        mask = np.ones((row_item.size, params.hidden))
    else:
        mask = plan.kept / (1.0 - params.dropout_rate)
    a1, h_drop, z = _forward(params, e_rows, mask)
    log_p = log_softmax(z)
    p = np.exp(log_p)
    second = n + np.arange(rdrop.size)

    losses = np.empty(n)
    targets = items["target"][ce]
    losses[ce] = -(targets * log_p[ce]).sum(axis=1)
    top = np.argmax(p[pseudo], axis=1)
    losses[pseudo] = -log_p[pseudo, top]
    losses[rdrop] = rdrop_from_probs(p[rdrop], p[second])

    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        position = int(bad[0])
        raise NumericError(
            f"non-finite {items['kind'][position]} loss at batch position {position}"
        )
    total = float(weights @ losses)
    breakdown = {
        kind: (float(losses[sel].sum()), int(sel.size))
        for kind, sel in zip(_KINDS, (ce, pseudo, rdrop))
        if sel.size
    }

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

    d_hidden = (g_z @ params.w2.T) * mask * (a1 > 0.0)
    d_e = d_hidden @ params.w1.T
    d_item = d_e[:n]
    d_item[rdrop] += d_e[n:]
    d_docs = np.zeros_like(pooled)
    np.add.at(d_docs, doc_a, coef_a[:, None] * d_item)
    np.add.at(d_docs, doc_b, coef_b[:, None] * d_item)
    emb_vals = np.zeros((plan.buckets.size, params.hidden), dtype=params.embedding.dtype)
    for start, stop, cols, _, bags in plan.blocks:
        emb_vals[cols] += bags.T @ d_docs[start:stop]
    grads = Gradients(
        emb_rows=plan.buckets,
        emb_vals=emb_vals,
        w1=e_rows.T @ d_hidden,
        b1=d_hidden.sum(axis=0),
        w2=h_drop.T @ g_z,
        b2=g_z.sum(axis=0),
    )
    return total, grads, breakdown


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


# The ``ModelParams`` fields that Adam trains, in update order; ``slot`` and
# the dropout rate stay as initialized.
TRAINED = ("w1", "b1", "w2", "b2", "embedding")
_HEAD = TRAINED[:-1]  # the dense fields, whose moments one flat vector holds


def _head_views(flat: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> dict[str, np.ndarray]:
    """Each field of ``_HEAD`` as a view of its slice of ``flat``, where the
    fields of ``shapes`` lie raveled, one after another."""
    views, start = {}, 0
    for name, shape in zip(_HEAD, shapes):
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return views


@dataclass
class OptimizerState:
    """Adam state: hyperparameters, step counter, and per-parameter moments.

    The head's first and second moments are one flat vector each,
    ``head_m`` and ``head_v``: the moments of ``w1``, ``b1``, ``w2`` and
    ``b2``, raveled and joined in :data:`TRAINED` order, with the shapes
    ``head_shapes``. The embedding's are ``emb_m`` and ``emb_v``, in the
    table's shape: row ``r`` belongs to table row ``r``. All of them have
    the dtype of the trained arrays. Only rows that received gradient in a
    step are ever touched, so row 0 stays zero.

    ``m`` and ``v`` map each name of :data:`TRAINED` to that parameter's
    moments, in its shape: views into this state, made on each read, so a
    write through them changes the state and a pickled state keeps no stale
    copy. They cannot be rebound.
    """

    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    head_shapes: tuple[tuple[int, ...], ...]
    head_m: np.ndarray
    head_v: np.ndarray
    emb_m: np.ndarray
    emb_v: np.ndarray
    step: int = 0

    @property
    def m(self) -> dict[str, np.ndarray]:
        """The first moments of each trained parameter, as views into the state."""
        return {**_head_views(self.head_m, self.head_shapes), "embedding": self.emb_m}

    @property
    def v(self) -> dict[str, np.ndarray]:
        """The second moments of each trained parameter, as views into the state."""
        return {**_head_views(self.head_v, self.head_shapes), "embedding": self.emb_v}


def init_optimizer(
    params: ModelParams,
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> OptimizerState:
    """Zero moments in the dtype of ``params``'s trained arrays."""
    head = sum(getattr(params, name).size for name in _HEAD)
    return OptimizerState(
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        head_shapes=tuple(getattr(params, name).shape for name in _HEAD),
        head_m=np.zeros(head, dtype=params.w1.dtype),
        head_v=np.zeros(head, dtype=params.w1.dtype),
        emb_m=np.zeros_like(params.embedding),
        emb_v=np.zeros_like(params.embedding),
    )


def _check_gradients(params: ModelParams, grads: Gradients) -> np.ndarray:
    """The table rows ``grads`` trains; refuses, naming the field or the
    bucket, a gradient that does not fit ``params``."""
    for name in _HEAD:
        got, want = np.shape(getattr(grads, name)), getattr(params, name).shape
        if got != want:
            raise ValueError(f"gradient {name} has shape {got}, not the parameter's {want}")
    buckets = grads.emb_rows
    if buckets.ndim != 1:
        raise ValueError(f"gradient emb_rows has shape {buckets.shape}, not one dimension")
    got, want = np.shape(grads.emb_vals), (buckets.size, params.hidden)
    if got != want:
        raise ValueError(
            f"gradient emb_vals has shape {got}, not {want} for {buckets.size} emb_rows"
        )
    if buckets.size and (buckets.min() < 0 or buckets.max() >= params.num_buckets):
        bucket = int(buckets[(buckets < 0) | (buckets >= params.num_buckets)][0])
        raise ValueError(
            f"gradient for bucket {bucket}, which is not a bucket in [0, {params.num_buckets})"
        )
    rows = params.slot[buckets]
    if not rows.all():
        bucket = int(buckets[np.argmin(rows)])
        raise ValueError(f"gradient for bucket {bucket}, which owns no embedding row")
    return rows


def adam_step(params: ModelParams, grads: Gradients, opt: OptimizerState) -> None:
    """One bias-corrected Adam update, in place.

    The head gets the textbook dense update as one pass over its flat
    moments: its four float64 gradients are joined once, the new moments
    are computed in float64 from the stored ones (``beta1 * m`` in the
    state's dtype), stored in the state's dtype, and the step reads them
    unrounded; each parameter takes its slice of the step. Embedding rows
    are updated lazily, in the table's dtype: only rows with gradient this
    step have their moments decayed and applied, with bias correction from
    the shared global step. Each moment table's touched rows are gathered
    once, updated in place and scattered once, as are the table's own.

    A gradient whose shape does not fit the parameters, or one for a bucket
    outside ``[0, num_buckets)`` or for one the model owns no row for,
    raises ``ValueError`` before anything changes: it would otherwise shift
    the head's slices, train another bucket's row or train the shared zero
    row.
    """
    rows = _check_gradients(params, grads)
    lr, beta1, beta2, eps = opt.learning_rate, opt.beta1, opt.beta2, opt.epsilon
    opt.step += 1
    bc1 = 1.0 - beta1 ** opt.step
    bc2 = 1.0 - beta2 ** opt.step

    # The head: ``beta1 * m`` in the state's dtype plus ``(1 - beta1) * g``
    # in float64, and likewise for ``v``; the new moments are stored in the
    # state's dtype, and the step reads them unrounded.
    g = np.concatenate([getattr(grads, name) for name in _HEAD], axis=None)
    m = np.multiply(g, 1.0 - beta1)
    m += np.multiply(opt.head_m, beta1, out=opt.head_m)
    v = np.square(g, out=g)
    v *= 1.0 - beta2
    v += np.multiply(opt.head_v, beta2, out=opt.head_v)
    opt.head_m[...] = m
    opt.head_v[...] = v
    m /= bc1
    m *= lr
    v /= bc2
    np.sqrt(v, out=v)
    v += eps
    m /= v
    for name, step in _head_views(m, opt.head_shapes).items():
        param = getattr(params, name)
        param -= step

    # The touched rows, in the table's dtype; ``t`` is the one temporary.
    g = grads.emb_vals
    m = np.take(opt.emb_m, rows, axis=0)
    m *= beta1
    t = np.multiply(g, 1.0 - beta1)
    m += t
    v = np.take(opt.emb_v, rows, axis=0)
    v *= beta2
    np.square(g, out=t)
    t *= 1.0 - beta2
    v += t
    opt.emb_m[rows] = m
    opt.emb_v[rows] = v
    m /= bc1
    m *= lr
    v /= bc2
    np.sqrt(v, out=v)
    v += eps
    m /= v
    table = np.take(params.embedding, rows, axis=0)
    table -= m
    params.embedding[rows] = table


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

# SMX4 header after the magic: num_buckets, hidden, num_classes, number of
# stored (owned) rows, dropout rate. Every array after the bitmap is <f4.
_HEADER = struct.Struct("<qqqqd")
_STORED = np.dtype("<f4")


def _checkpoint_chunks(params: ModelParams) -> list:
    """The bytes of an ``SMX4`` checkpoint of ``params``, in order.

    Each array is cast to ``<f4`` once and written as that buffer, not
    copied into ``bytes``; the owned rows of a float32 table are held once,
    as their gather. Raises ``ValueError`` naming the first array that is
    not finite as float32, such as a finite 1e200 that rounds to inf.
    """
    owned = params.slot > 0
    stored = np.flatnonzero(owned)
    arrays = {"embedding": params.embedding[params.slot[stored]], "w1": params.w1,
              "b1": params.b1, "w2": params.w2, "b2": params.b2}
    with np.errstate(over="ignore", invalid="ignore"):
        arrays = {name: np.ascontiguousarray(arr, dtype=_STORED) for name, arr in arrays.items()}
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"cannot save {name}: it holds values that are not finite as float32")
    header = _HEADER.pack(
        params.num_buckets, params.hidden, params.num_classes, stored.size, params.dropout_rate
    )
    bitmap = np.packbits(owned, bitorder="little").tobytes()
    return [_MAGIC, header, bitmap, *arrays.values()]


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write an ``SMX4`` checkpoint: the owned rows and the head, as float32.

    Layout, little-endian: the magic, the ``_HEADER`` fields (the dropout
    rate as a float64), a bitmap of the owned buckets (``np.packbits``,
    little bit order), their rows in bucket order, then ``w1``, ``b1``,
    ``w2`` and ``b2``, all ``<f4``. An array that is not finite once cast to
    float32 raises ``ValueError`` before anything is written. The write is
    atomic (:func:`common.atomic_open`): a failed write leaves no partial
    checkpoint and an existing one untouched.
    """
    chunks = _checkpoint_chunks(params)
    with atomic_open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _read_header(fh, path: str | Path) -> tuple[int, int, int, int, float]:
    """Unpack and check ``_HEADER``: the model dimensions, the stored rows
    and the dropout rate."""
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError(f"{path}: truncated checkpoint header")
    num_buckets, hidden, num_classes, stored, dropout_rate = _HEADER.unpack(raw)
    if num_buckets < 1 or hidden < 1 or num_classes < 2:
        raise ValueError(
            f"{path}: invalid checkpoint dimensions ({num_buckets}, {hidden}, {num_classes})"
        )
    if not 0 <= stored <= num_buckets:
        raise ValueError(
            f"{path}: invalid checkpoint layout: {stored} stored rows for {num_buckets} buckets"
        )
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"{path}: dropout_rate {dropout_rate!r} outside [0, 1)")
    return num_buckets, hidden, num_classes, stored, dropout_rate


def _shapes(rows: int, hidden: int, num_classes: int) -> dict[str, tuple]:
    """The ``<f4`` arrays after the bitmap, keyed as ``ModelParams`` fields."""
    return {"embedding": (rows, hidden), "w1": (hidden, hidden), "b1": (hidden,),
            "w2": (hidden, num_classes), "b2": (num_classes,)}


def _check_file_size(fh, path: str | Path, shapes: dict[str, tuple], offset: int) -> None:
    """The header fixes the file size; check it before reading anything else."""
    expected = offset + _STORED.itemsize * sum(math.prod(shape) for shape in shapes.values())
    actual = os.fstat(fh.fileno()).st_size
    if actual != expected:
        problem = "truncated" if actual < expected else "trailing bytes in"
        raise ValueError(
            f"{path}: {problem} checkpoint: its header implies {expected} bytes, "
            f"the file has {actual}"
        )


def _read_arrays(fh, path: str | Path, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Read the float32 arrays of ``shapes`` in order, refusing non-finite
    values. Each is read straight into the array returned, so the stored
    rows are held once, as rows 1.. of the embedding table."""
    arrays = {}
    for name, shape in shapes.items():
        pad = int(name == "embedding")
        out = np.empty((shape[0] + pad, *shape[1:]), dtype=_STORED)
        out[:pad] = 0.0  # the embedding's row 0; readinto fills the rest
        stored = out[pad:]
        if fh.readinto(stored) != stored.nbytes:
            raise ValueError(f"{path}: truncated checkpoint")
        if not np.all(np.isfinite(stored)):
            raise ValueError(f"{path}: non-finite values in {name}")
        arrays[name] = out.astype(np.float32, copy=False)
    return arrays


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read an ``SMX4`` checkpoint; ``slot`` is rebuilt from its bucket bitmap.

    The trained arrays come back as the float32 they were stored as, so a
    loaded model scores exactly as the float32 model that was saved.
    ``SMX1``, ``SMX2`` and ``SMX3`` files, written by earlier versions, are
    refused with an error that names their format.
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
        num_buckets, hidden, num_classes, stored, dropout_rate = _read_header(fh, path)
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
    return ModelParams(**arrays, dropout_rate=dropout_rate, slot=_slot_of(num_buckets, owned))
