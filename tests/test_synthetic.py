"""Synthetic corpus generator: balance, determinism, ambiguity controls, and
agreement with the scalar-draw reference."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfmix import synthetic
from selfmix.data import save_csv, validate
from selfmix.synthetic import make_corpus, make_labeled_pool

from conftest import reference_labeled_pool

# Sizes at which Lemire's rule rejects often (2**31 + 1, 3 * 2**30) or where
# integers() takes no draw at all (1), besides the ordinary ones.
_VOCABS = st.sampled_from((1, 2, 3, 40, 400, 2**31 + 1, 3 * 2**30, 2**32 - 1))


def test_pool_is_balanced_and_valid():
    dataset, ambiguous = make_labeled_pool(40, 4, seed=2)
    assert len(dataset) == 40
    assert ambiguous == frozenset()
    counts = np.bincount(dataset.observed_labels(), minlength=4)
    assert list(counts) == [10, 10, 10, 10]
    assert [ex.observed_label for ex in dataset[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert validate(dataset).ok


def test_pool_is_deterministic_per_seed():
    a, _ = make_labeled_pool(25, 3, seed=9)
    b, _ = make_labeled_pool(25, 3, seed=9)
    c, _ = make_labeled_pool(25, 3, seed=10)
    assert [ex.text for ex in a] == [ex.text for ex in b]
    assert [ex.text for ex in a] != [ex.text for ex in c]


def test_document_lengths_respect_bounds():
    dataset, _ = make_labeled_pool(60, 2, doc_len=(3, 5), seed=4)
    lengths = [len(ex.text.split()) for ex in dataset]
    assert min(lengths) >= 3 and max(lengths) <= 5
    fixed, _ = make_labeled_pool(10, 2, doc_len=(4, 4), seed=4)
    assert all(len(ex.text.split()) == 4 for ex in fixed)


def test_private_words_name_their_class():
    dataset, _ = make_labeled_pool(80, 3, shared_fraction=0.0, seed=7)
    for ex in dataset:
        for word in ex.text.split():
            assert word.startswith(f"c{ex.observed_label}w")


def test_ambiguous_documents_use_only_shared_pools():
    dataset, ambiguous = make_labeled_pool(
        50, 4, ambiguous_fraction=0.2, shared_fraction=0.3, seed=5
    )
    assert ambiguous == frozenset(range(10))  # round(0.2 * 50) leading ids
    for ex in dataset:
        words = ex.text.split()
        if ex.id in ambiguous:
            assert all(w.startswith("s") for w in words)
        c = ex.observed_label
        allowed_pools = (f"s{(c - 1) % 4}w", f"s{c}w")
        for w in words:
            if w.startswith("s"):
                assert w.startswith(allowed_pools)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"num_classes": 1}, "at least two classes"),
        ({"shared_fraction": 1.5}, r"shared_fraction must lie in \[0, 1\]"),
        ({"ambiguous_fraction": -0.1}, r"ambiguous_fraction must lie in \[0, 1\]"),
        ({"doc_len": (0, 4)}, "doc_len"),
        ({"doc_len": (5, 4)}, "doc_len"),
        ({"doc_len": (1, 2**32)}, "doc_len allows 4294967296 lengths"),
        ({"doc_len": (3, 2**32 + 5)}, "doc_len allows"),
        ({"class_vocab": 0}, r"class_vocab must lie in \[1, 2\*\*32\); got 0"),
        ({"class_vocab": 2**32}, "class_vocab must lie"),
        ({"shared_vocab": 0, "shared_fraction": 0.0}, "shared_vocab must lie"),
        ({"shared_vocab": -3}, "shared_vocab must lie"),
        ({"shared_vocab": 2**40}, "shared_vocab must lie"),
    ],
)
def test_pool_parameter_validation(kwargs, message, monkeypatch):
    """Each bad parameter is refused, by name, before anything is drawn."""

    def no_draws(seed):
        raise AssertionError("a generator was made before the parameters were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    args = {"n": 10, "num_classes": 2}
    args.update(kwargs)
    n = args.pop("n")
    num_classes = args.pop("num_classes")
    with pytest.raises(ValueError, match=message):
        make_labeled_pool(n, num_classes, **args)


def test_corpus_pair_shares_settings_but_not_randomness():
    train, test = make_corpus(24, 12, 3, seed=8)
    assert len(train) == 24 and len(test) == 12
    assert train.num_classes == test.num_classes == 3
    assert train.name == "synthetic-train" and test.name == "synthetic-test"
    assert validate(train).ok and validate(test).ok
    assert [ex.text for ex in train[:12]] != [ex.text for ex in test]
    again_train, again_test = make_corpus(24, 12, 3, seed=8)
    assert [ex.text for ex in again_train] == [ex.text for ex in train]
    assert [ex.text for ex in again_test] == [ex.text for ex in test]


def test_corpus_forwards_pool_knobs():
    train, _ = make_corpus(10, 5, 2, seed=1, doc_len=(2, 2), shared_fraction=0.0)
    assert all(len(ex.text.split()) == 2 for ex in train)


@given(
    st.integers(2, 30),
    st.integers(2, 5),
    _VOCABS,
    _VOCABS,
    st.tuples(st.integers(1, 6), st.integers(0, 6)).map(lambda t: (t[0], t[0] + t[1])),
    st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
    st.sampled_from((0.0, 0.25, 1.0)),
    st.integers(0, 2**64 - 1),
    st.sampled_from((1, 3, synthetic._BLOCK)),
)
def test_pool_matches_the_scalar_reference(
    n, num_classes, class_vocab, shared_vocab, doc_len, shared_fraction, ambiguous_fraction,
    seed, block,
):
    """Every parameter value draws exactly the pool of the one-call-per-draw
    reference, also when a block of raw outputs ends inside a document."""
    num_classes = min(num_classes, n)
    kwargs = dict(
        class_vocab=class_vocab,
        shared_vocab=shared_vocab,
        doc_len=doc_len,
        shared_fraction=shared_fraction,
        ambiguous_fraction=ambiguous_fraction,
        seed=seed,
        name="pool",
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthetic, "_BLOCK", block)
        got, ambiguous = make_labeled_pool(n, num_classes, **kwargs)
    want, want_ambiguous = reference_labeled_pool(n, num_classes, **kwargs)
    assert got == want
    assert ambiguous == want_ambiguous


def test_numpy_integer_sizes_draw_the_python_int_pool():
    """NumPy integer sizes, whose 64-bit products would wrap, draw the same
    pool as Python ints; a float size is refused."""
    sizes = dict(class_vocab=2**32 - 1, shared_vocab=3 * 2**30, doc_len=(2, 5), seed=3)
    as_numpy = dict(
        sizes,
        class_vocab=np.uint32(2**32 - 1),
        shared_vocab=np.int64(3 * 2**30),
        doc_len=(np.int64(2), np.uint8(5)),
    )
    assert make_labeled_pool(30, 3, **as_numpy) == make_labeled_pool(30, 3, **sizes)
    with pytest.raises(TypeError):
        make_labeled_pool(30, 3, class_vocab=40.0)


def test_readme_corpus_bytes_are_pinned(tmp_path):
    """The README's ``make_corpus(2000, 500, 4, seed=0)``, as ``save_csv``
    writes it; the digests were recorded from the scalar generator."""
    train, test = make_corpus(2000, 500, 4, seed=0)
    save_csv(train, tmp_path / "train.csv")
    save_csv(test, tmp_path / "test.csv")
    digests = {
        split: hashlib.sha256((tmp_path / f"{split}.csv").read_bytes()).hexdigest()
        for split in ("train", "test")
    }
    assert digests == {
        "train": "a29553a3687313ff2899e70718064c2b17f6621e17055804dfd9259fe927bf0e",
        "test": "ac3ed16cb6eed4d51f69e78d409141d10b5edc938bf021bd1d77251f7a4812fe",
    }


@pytest.mark.parametrize("fraction", [0.0, 5e-324, 2**-60, 0.3, 0.5, 1 / 3, 1 - 2**-53, 1.0])
def test_raw_cut_agrees_with_random_at_the_boundary(fraction):
    """``raw < _raw_cut(f)`` is ``random() < f`` for the outputs on either
    side of the cut, where a rounding slip would show."""
    cut = synthetic._raw_cut(fraction)
    near = (-2049, -2048, -1, 0, 1, 2047, 2048)
    for raw in {0, 2**64 - 1, *(cut + d for d in near)}:
        if 0 <= raw < 2**64:
            assert (raw < cut) == ((raw >> 11) * 2**-53 < fraction), raw
