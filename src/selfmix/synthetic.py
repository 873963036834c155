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
"""
from __future__ import annotations

import numpy as np

from .common import round_half_up, subseed
from .data import Dataset, Example


def _class_word(c: int, j: int) -> str:
    return f"c{c}w{j:03d}"


def _shared_word(pair: int, j: int) -> str:
    return f"s{pair}w{j:03d}"


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
    lo, hi = doc_len
    if lo < 1 or hi < lo:
        raise ValueError("doc_len must satisfy 1 <= lo <= hi")

    rng = np.random.default_rng(seed)
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
                # the two pools adjacent to class c: (c-1, c) and (c, c+1)
                pair = (c - 1) % num_classes if rng.random() < 0.5 else c
                words.append(_shared_word(pair, int(rng.integers(shared_vocab))))
            else:
                words.append(_class_word(c, int(rng.integers(class_vocab))))
        examples.append(Example(id=i, text=" ".join(words), observed_label=c))
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
