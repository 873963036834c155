"""Synthetic text corpora with controllable class separability.

Documents are bags of invented words. Each class owns a private vocabulary,
and every adjacent class pair (c, c+1 mod C) additionally shares a pool of
ambiguity words that occur in both classes. Ambiguity words make adjacent
classes genuinely confusable: a classifier must rely on the private words,
and systematic label corruption between neighbors has shared features to
poison. A configurable fraction of documents can be made fully ambiguous
(drawn only from shared pools); those are the natural targets of
difficulty-seeking corruption.

Generation is deterministic given the seed. Class assignment cycles
(example i has true class i mod C) so corpora are exactly balanced whenever
C divides the size. A pool smaller than C is refused, since it would lack
classes its class count promises.

A pool's draws are those of scalar calls on ``np.random.default_rng(seed)``
in document order: per document ``integers(lo, hi + 1)`` for its length;
per word ``random() < shared_fraction`` (skipped in an ambiguous document),
then for a shared word ``random() < 0.5`` to pick the left pool and
``integers(shared_vocab)``, else ``integers(class_vocab)``. They are decoded
in one pass over the generator's raw PCG64 outputs, drawn in blocks through
``bit_generator.random_raw``, the way NumPy consumes them: ``random()``
takes one whole output, as ``(raw >> 11) * 2**-53``; ``integers(k)`` takes
32-bit halves, the low half of a fresh output first and its high half at
the next ``integers`` call, and keeps ``(half * k) >> 32`` by Lemire's
rejection rule; ``integers(1)`` takes nothing. Corpora therefore depend on
NumPy's PCG64 stream and on how its ``random`` and ``integers`` consume it:
a NumPy release that changed either would change every corpus.
"""
from __future__ import annotations

import math
import operator
from itertools import chain

import numpy as np

from .common import round_half_up, subseed
from .data import Dataset, Example

_BLOCK = 4096  # raw outputs drawn per random_raw call
_LOW32 = 0xFFFFFFFF


class _Vocabulary(dict):
    """Word j of one pool, ``{prefix}w{j:03d}``, formatted on first use."""

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, j: int) -> str:
        word = self[j] = f"{self.prefix}w{j:03d}"
        return word


def _raw_cut(fraction: float) -> int:
    """The raw output below which ``random() < fraction``: ``random()`` is
    ``(raw >> 11) * 2**-53``, and scaling by a power of two is exact."""
    return math.ceil(fraction * 2**53) << 11


def make_labeled_pool(
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
    """Generate ``n`` labeled documents; returns (dataset, ambiguous ids).

    Ordinary documents of class c draw each word from c's private
    vocabulary, or (with probability ``shared_fraction``) from one of the
    two ambiguity pools c shares with its neighbors. The first
    ``round(ambiguous_fraction * n)`` documents are fully ambiguous: every
    word comes from the shared pools, so no private word reveals the class.
    The vocabulary sizes and ``doc_len`` bounds are integers; each
    vocabulary size, and the number of lengths ``doc_len`` allows, must lie
    in [1, 2**32).
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if n < num_classes:
        raise ValueError(
            f"{name}: {num_classes} classes need at least one document each; got {n}"
        )
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError("shared_fraction must lie in [0, 1]")
    if not 0.0 <= ambiguous_fraction <= 1.0:
        raise ValueError("ambiguous_fraction must lie in [0, 1]")
    # NumPy integers become Python ints: the decoder's products need 64 bits
    class_vocab, shared_vocab, lo, hi = map(operator.index, (class_vocab, shared_vocab, *doc_len))
    if lo < 1 or hi < lo:
        raise ValueError("doc_len must satisfy 1 <= lo <= hi")
    if hi - lo + 1 >= 2**32:
        raise ValueError(f"doc_len allows {hi - lo + 1} lengths; at most 2**32 - 1 are supported")
    for key, size in (("class_vocab", class_vocab), ("shared_vocab", shared_vocab)):
        if not 1 <= size < 2**32:
            raise ValueError(f"{key} must lie in [1, 2**32); got {size}")

    # every raw 64-bit output in order, drawn a block at a time, without end
    bitgen = np.random.default_rng(seed).bit_generator
    next_raw = chain.from_iterable(iter(lambda: bitgen.random_raw(_BLOCK).tolist(), None)).__next__
    pending = -1  # the high half an earlier integers() call left, or -1

    def integers(k: int) -> int:
        """``Generator.integers(k)`` for 1 <= k < 2**32: PCG64's next_uint32
        takes the low half of a fresh output and keeps the high half for
        the next call, and Lemire's rule rejects the biased products."""
        nonlocal pending
        if k == 1:
            return 0
        floor = (2**32 - k) % k
        while True:
            if pending < 0:
                raw = next_raw()
                pending = raw >> 32
                m = (raw & _LOW32) * k
            else:
                m = pending * k
                pending = -1
            if m & _LOW32 >= floor:
                return m >> 32

    # next_raw() < _raw_cut(f) is the draw random() < f
    shared_cut, left_cut = _raw_cut(shared_fraction), _raw_cut(0.5)
    private = [_Vocabulary(f"c{c}") for c in range(num_classes)]
    shared = [_Vocabulary(f"s{pair}") for pair in range(num_classes)]
    num_ambiguous = round_half_up(ambiguous_fraction * n)
    examples = []
    for i in range(n):
        c = i % num_classes
        # the two pools adjacent to class c: (c-1, c) and (c, c+1)
        own, left, right = private[c], shared[(c - 1) % num_classes], shared[c]
        ambiguous = i < num_ambiguous
        words = []
        for _ in range(lo + integers(hi - lo + 1)):
            if ambiguous or next_raw() < shared_cut:
                pool = left if next_raw() < left_cut else right
                words.append(pool[integers(shared_vocab)])
            else:
                words.append(own[integers(class_vocab)])
        examples.append(Example(i, " ".join(words), c))
    dataset = Dataset(tuple(examples), num_classes, name)
    return dataset, frozenset(range(num_ambiguous))


def make_corpus(
    train_size: int = 2000,
    test_size: int = 500,
    num_classes: int = 4,
    *,
    seed: int = 0,
    **pool_kwargs,
) -> tuple[Dataset, Dataset]:
    """A train/test pair drawn from the same word distribution."""
    train, _ = make_labeled_pool(
        train_size,
        num_classes,
        seed=subseed(seed, "train"),
        name="synthetic-train",
        **pool_kwargs,
    )
    test, _ = make_labeled_pool(
        test_size,
        num_classes,
        seed=subseed(seed, "test"),
        name="synthetic-test",
        **pool_kwargs,
    )
    return train, test
