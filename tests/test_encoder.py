"""Tokenizer, feature hashing, forward pass, optimizer, and checkpoints."""
from __future__ import annotations

import copy
import hashlib
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    N_CASES,
    assert_same_adam_state,
    bag,
    joined,
    matrix_of,
    random_distribution,
    random_features,
    reference_adam_step,
    reference_featurize,
    reference_fnv1a64,
    reference_optimizer,
    reference_tokenize,
    rows_of,
    small_params,
)
from selfmix import encoder
from selfmix.common import NumericError
from selfmix.core import embmix
from selfmix.encoder import (
    FNV_OFFSET,
    TRAINED,
    FeatureMatrix,
    Gradients,
    ModelParams,
    adam_step,
    backward,
    corpus_buckets,
    encode,
    featurize_corpus,
    featurize_text,
    head_forward,
    init_optimizer,
    init_params,
    load_checkpoint,
    log_softmax,
    make_batch,
    predict_logits,
    predict_proba,
    rdrop_from_probs,
    save_checkpoint,
    softmax,
    tokenize,
)
from selfmix.encoder import _masks
from selfmix.synthetic import make_corpus, make_labeled_pool

# ---------------------------------------------------------------------------
# Tokenizer and feature hashing
# ---------------------------------------------------------------------------


def test_tokenize_examples():
    assert tokenize("The movie was great!") == ["the", "movie", "was", "great"]
    assert tokenize("") == []
    assert tokenize("A-B a b") == ["a", "b", "a", "b"]


def test_tokenize_splits_on_any_non_alphanumeric():
    assert tokenize("a\tb\nc--d..e") == ["a", "b", "c", "d", "e"]
    assert tokenize("¡hola! café 123x") == ["hola", "café", "123x"]


@given(st.text(max_size=60))
def test_tokenize_pure_and_lossless_under_rejoin(text):
    tokens = tokenize(text)
    assert tokens == tokenize(text)
    assert all(tok and tok == tok.lower() for tok in tokens)
    assert all(ch.isalnum() for tok in tokens for ch in tok)
    # splitting is stable: re-tokenizing the joined tokens is the identity
    assert tokenize(" ".join(tokens)) == tokens


# Any code point, lone surrogates included (``st.characters()`` leaves them out).
_ANY_CODE_POINT = st.one_of(st.characters(), st.characters(categories=["Cs"]))


@given(st.text(_ANY_CODE_POINT, max_size=80))
def test_tokenize_matches_the_reference(text):
    assert tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("ΑΣ Σ", ["ας", "σ"]),  # final sigma: lowercasing reads the whole text
        ("ΟΔΟΣ.ΣΑ", ["οδοσ", "σα"]),  # a cased letter after the full stop: no final sigma
        ("İSTANBUL", ["i", "stanbul"]),  # lowers to i + U+0307, a combining mark
        ("e\u0301te", ["e", "te"]),  # combining marks are not alphanumeric
        ("x\u20dd\u0308y", ["x", "y"]),
        ("\U0001d7d8\U0001d7d9 \U0001d7e0x", ["\U0001d7d8\U0001d7d9", "\U0001d7e0x"]),
        ("\U00010400\U00010401", ["\U00010428\U00010429"]),  # non-BMP letters lower too
        ("a\ud800b\udfffc", ["a", "b", "c"]),  # lone surrogates separate
        ("a\u00b2b \u216b \ufb01", ["a\u00b2b", "\u217b", "\ufb01"]),
        ("\U0001f600 x\x1fy\u3000z", ["x", "y", "z"]),
    ],
)
def test_tokenize_case_and_plane_edges(text, tokens):
    assert tokenize(text) == tokens == reference_tokenize(text)


def test_fnv1a64_known_vectors():
    # Published FNV-1a 64-bit reference values.
    assert reference_fnv1a64(b"") == FNV_OFFSET == 0xCBF29CE484222325
    assert reference_fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert reference_fnv1a64(b"foobar") == 0x85944171F73967E8
    # the corpus featurizer hashes a lone word to the same value
    fv = featurize_corpus(["foobar"], 2**63 - 1)
    assert fv.indices.tolist() == [0x85944171F73967E8 % (2**63 - 1)]


def test_featurize_empty():
    fv = featurize_text(" ".join([]), 16)
    assert fv.indices.size == 0 and fv.weights.size == 0
    assert featurize_text("", 16).indices.size == 0


def test_featurize_single_token():
    fv = featurize_text(" ".join(["a"]), 2)
    assert fv.indices.tolist() == [reference_fnv1a64(b"a") % 2]
    assert fv.weights.tolist() == [1.0]


def test_featurize_unigrams_plus_adjacent_bigram():
    big = 2**62  # collision-free at this size for three features
    fv = featurize_text(" ".join(["a", "b"]), big)
    expected = sorted(
        {reference_fnv1a64(gram) % big for gram in (b"a", b"b", b"a\x1fb")}
    )
    assert fv.indices.tolist() == expected
    assert np.allclose(fv.weights, 1.0 / 3.0)


def test_featurize_counts_repeats():
    fv = featurize_text(" ".join(["a", "a"]), 2**62)
    # features: a (twice), a\x1fa (once) -> weights 2/3 and 1/3
    assert sorted(fv.weights.tolist()) == pytest.approx([1.0 / 3.0, 2.0 / 3.0])


def test_featurize_rejects_zero_buckets():
    with pytest.raises(ValueError):
        featurize_text(" ".join(["a"]), 0)


def test_featurize_purity_property():
    """Indices strictly increase, weights are positive and sum to 1, and
    identical token lists produce bit-identical vectors."""
    rng = np.random.default_rng(21)
    for _ in range(N_CASES):
        num_tokens = int(rng.integers(0, 12))
        tokens = [f"w{int(rng.integers(0, 9))}" for _ in range(num_tokens)]
        num_buckets = int(rng.integers(1, 64))
        fv = featurize_text(" ".join(tokens), num_buckets)
        again = featurize_text(" ".join(list(tokens)), num_buckets)
        assert np.array_equal(fv.indices, again.indices)
        assert np.array_equal(fv.weights, again.weights)
        assert np.all(np.diff(fv.indices) > 0)
        if tokens:
            assert np.all(fv.weights > 0)
            assert abs(fv.weights.sum() - 1.0) <= 1e-12
            assert np.all(fv.indices >= 0) and np.all(fv.indices < num_buckets)


_BUCKET_COUNTS = (1, 2, 16, 2**15, 2**18, 2**62)
_WORDS = ("a", "b", "A", "ß", "İx", "café", "日本", "x_y", "42", "a1", "🙂", "", "--", " ")
_TEXTS = st.one_of(
    st.text(_ANY_CODE_POINT, max_size=40),
    st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join),
)


def _assert_bit_equal(got: FeatureMatrix, want: FeatureMatrix) -> None:
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert got.weights.dtype == want.weights.dtype == np.float64
    assert np.array_equal(got.indices, want.indices)
    assert got.weights.tobytes() == want.weights.tobytes()


@given(st.lists(_TEXTS, max_size=8), st.sampled_from(_BUCKET_COUNTS), st.sampled_from((1, 3, 512)))
# A chunk is one UTF-8 byte array, so a text starts at the byte after the
# texts before it, not at their code-point count:
@example(["日本 ab", "cd ef"], 2**18, 512)  # a multi-byte text before ASCII texts
@example(["İx", "ΑΣ", "Σα"], 7, 512)  # lowercasing lengthens a text; a final sigma ends one
@example(["ΑΣ", "İx", "Σα"], 2**18, 512)  # the same texts, a multi-byte text first
@example(["a\nb", "", "--", "x"], 7, 512)  # a newline, an empty text, only separators
def test_featurize_corpus_matches_the_reference_bit_for_bit(texts, num_buckets, chunk):
    """Random Unicode, lone surrogates included, and empty, one-token and
    repeated-token texts, in corpora of one or several chunks, featurize
    exactly as the per-n-gram reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "_FEATURIZE_CHUNK", chunk)
        features = featurize_corpus(texts, num_buckets)
    assert len(features) == len(texts)
    for text, got in zip(texts, rows_of(features)):
        _assert_bit_equal(got, reference_featurize(text, num_buckets))
        _assert_bit_equal(featurize_text(text, num_buckets), got)


@pytest.mark.parametrize("num_buckets", _BUCKET_COUNTS)
def test_featurize_corpus_matches_the_reference_over_several_chunks(num_buckets):
    pool, _ = make_labeled_pool(1100, 4, class_vocab=400, seed=5)
    texts = list(pool.texts)
    texts[3::250] = ["", "solo", "Echo echo ECHO echo", "x" * 3000, "a b a b a"]
    assert len(texts) > 2 * encoder._FEATURIZE_CHUNK
    for text, got in zip(texts, rows_of(featurize_corpus(texts, num_buckets)), strict=True):
        _assert_bit_equal(got, reference_featurize(text, num_buckets))


def test_the_documented_corpus_features_are_pinned():
    """The README quick-start corpus's training texts featurize to these
    exact bytes (indptr and indices as ``<i8``, then weights as ``<f8``)."""
    train, _ = make_corpus(2000, 500, 4, seed=0)
    m = featurize_corpus(train.texts, 2**18)
    assert m.indices.size == 40_726
    digest = hashlib.sha256()
    for part, dtype in ((m.indptr, "<i8"), (m.indices, "<i8"), (m.weights, "<f8")):
        digest.update(part.astype(dtype).tobytes())
    assert digest.hexdigest() == "42b4fae1d358cbf554e2fdc40351728cf088e277c599fe948520f91df8d92f71"


@pytest.mark.parametrize("size", [1, 2, 1000, 100_000])
def test_a_token_longer_than_the_rest_hashes_as_the_reference(size):
    """The longest word's last stretch is folded alone; with short words
    around it and as a whole byte string, it hashes as the byte-loop reference."""
    long = "k" * (size - 1) + "z"
    alone = featurize_corpus([long], 2**63 - 1)
    assert alone.indices.tolist() == [reference_fnv1a64(long.encode()) % (2**63 - 1)]
    texts = [f"a {long} b", "short words", "", f"{long} {long[:-1]} ab", "x y z"]
    for text, got in zip(texts, rows_of(featurize_corpus(texts, 2**18)), strict=True):
        _assert_bit_equal(got, reference_featurize(text, 2**18))


@pytest.mark.parametrize("count", [2, 3])
def test_several_long_tokens_hash_as_the_reference(count):
    """Two or three long words finish their folds side by side, each in the
    integer loop, and hash as the byte-loop reference."""
    longs = [chr(ord("k") + i) * (20_000 + 7 * i) for i in range(count)]
    texts = [" ".join(longs), f"a {' b '.join(longs)} c", "short words"]
    for text, got in zip(texts, rows_of(featurize_corpus(texts, 2**18)), strict=True):
        _assert_bit_equal(got, reference_featurize(text, 2**18))


def test_token_pattern_matches_exactly_the_alphanumeric_code_points():
    """The tokenizer's translate table maps every code point to itself when
    it is alphanumeric and to a space otherwise. The table fills on first
    use, so the entries this check adds are removed again afterwards."""
    table = encoder._SEPARATORS
    before = dict(table)
    try:
        mismatches = [
            c for c in range(0x110000) if table[c] != (c if chr(c).isalnum() else ord(" "))
        ]
    finally:
        table.clear()
        table.update(before)
    assert mismatches == []


@pytest.mark.parametrize("num_buckets", [0, -1, 2**63, 2**64])
def test_featurize_corpus_refuses_bucket_ids_outside_int64(num_buckets):
    with pytest.raises(ValueError, match="num_buckets"):
        featurize_corpus(["a b"], num_buckets)


def test_featurize_corpus_accepts_the_largest_int64_bucket_count():
    fv = featurize_corpus(["a"], 2**63 - 1)
    assert fv.indices.tolist() == [reference_fnv1a64(b"a") % (2**63 - 1)]
    empty = featurize_corpus([], 2**63 - 1)
    assert len(empty) == 0 and empty.indptr.tolist() == [0] and empty.indices.size == 0


def test_feature_matrix_rows_and_take_agree():
    """``take`` gathers rows, in order and with repeats, equal to
    ``m.take([i])`` and to each text featurized alone, empty documents
    included; the rows, stacked again, rebuild the matrix."""
    texts = ["a b c", "", "solo", "a b a b", "", "x y"]
    m = featurize_corpus(texts, 2**18)
    assert len(m) == len(texts) and m.indptr.dtype == np.int64
    for text, row in zip(texts, rows_of(m), strict=True):
        _assert_bit_equal(row, featurize_text(text, 2**18))
    with pytest.raises(ValueError, match="row 6 is not a position"):
        m.take([len(texts)])
    positions = [3, 1, 3, 0, 4, 4, 5]
    taken = m.take(positions)
    assert len(taken) == len(positions)
    _assert_bit_equal(m.take(np.array(positions, dtype=np.uint8)), taken)
    for got, i in zip(rows_of(taken), positions, strict=True):
        _assert_bit_equal(got, m.take([i]))
    assert len(m.take([])) == 0 and m.take([]).indptr.tolist() == [0]
    again = matrix_of(rows_of(m))
    for name in ("indptr", "indices", "weights"):
        assert getattr(again, name).tobytes() == getattr(m, name).tobytes()
    empty = matrix_of([])
    assert len(empty) == 0 and empty.indices.dtype == np.int64


@pytest.mark.parametrize(
    "positions, message",
    [
        ([-1], "position 0: row -1 is not a position in \\[0, 3\\)"),
        ([3], "position 0: row 3 is not a position in \\[0, 3\\)"),
        ([0, 2, 5, -1], "position 2: row 5 is not"),
        ([0.7], "position 0: 0.7 is not an integer"),
        (np.array([1.0]), "position 0: 1.0 is not an integer"),
        ([True], "position 0: True is not an integer"),
        ([[0, 1]], "one-dimensional, not of shape \\(1, 2\\)"),
    ],
    ids=["negative", "past-the-end", "third", "fraction", "float", "bool", "matrix"],
)
def test_feature_matrix_take_refuses_positions_it_cannot_serve(positions, message):
    m = featurize_corpus(["a b", "c", "d e f"], 16)
    with pytest.raises(ValueError, match=message):
        m.take(positions)


def test_the_chunk_doc_key_fits_int16():
    """_featurize_chunk radix-sorts each chunk's doc ids as int16."""
    assert encoder._FEATURIZE_CHUNK < 2**15


def _featurize_traced(texts: list[str]) -> tuple[int, int]:
    """(bytes still held after featurizing, peak bytes while featurizing)."""
    tracemalloc.start()
    try:
        features = featurize_corpus(texts, 2**18)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(features) == len(texts)
    return kept, peak


def test_featurize_corpus_peaks_near_the_features_it_returns():
    pool, _ = make_labeled_pool(20000, 4, class_vocab=400, seed=3)
    kept, peak = _featurize_traced(list(pool.texts))
    assert peak - kept < 4 * 2**20, f"peak {peak / 2**20:.1f} MB, kept {kept / 2**20:.1f} MB"


def test_one_long_token_does_not_pad_the_byte_fold():
    words = [f"w{i}" for i in range(100)]
    _, peak = _featurize_traced([" ".join(words + ["x" * 100_000] + words)])
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.1f} MB"
    # 16 copies of one long token, more than _FEW_ROWS: it folds once as a
    # unigram and once as the right word of each distinct left word's bigram
    text = " ".join(words + [w for _ in range(16) for w in ["x" * 100_000, *words[:10]]])
    _, peak = _featurize_traced([text])
    assert peak < 6 * len(text), f"peak {peak / len(text):.1f} times the text"
    _assert_bit_equal(featurize_corpus([text], 2**18), reference_featurize(text, 2**18))


def test_a_long_token_folds_once_per_distinct_start_state(monkeypatch):
    """FNV-1a is a function of (state, bytes), so a token longer than
    ``_LONG_ROW`` bytes folds once per distinct state it continues: 17
    copies fold once as a unigram, once as the right word of the 15
    (long, long) bigrams and once after each other left word. Every row
    still hashes as the byte-loop reference."""
    folded = []
    fold_rows = encoder._fold_rows

    def recording(h, buf, starts, sizes):
        folded.extend(sizes.tolist())
        return fold_rows(h, buf, starts, sizes)

    monkeypatch.setattr(encoder, "_fold_rows", recording)
    long = "k" * 999 + "z"
    texts = [" ".join([long] * 16 + ["a", long]), f"b {long}", long]
    got = featurize_corpus(texts, 2**18)
    assert sorted(size for size in folded if size > encoder._LONG_ROW) == [1000] * 4
    for text, row in zip(texts, rows_of(got), strict=True):
        _assert_bit_equal(row, reference_featurize(text, 2**18))


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_empty_is_zero_vector():
    params = init_params(8, 4, 2, 0.0, seed=0)
    fv = bag(np.empty(0, dtype=np.int64), np.empty(0))
    assert np.array_equal(encode(params, fv)[0], np.zeros(4))


def test_encode_single_feature_is_that_row():
    params = init_params(8, 4, 2, 0.0, seed=0, buckets=range(8))
    fv = bag(np.array([3], dtype=np.int64), np.array([1.0]))
    assert np.allclose(encode(params, fv)[0], params.embedding[params.slot[3]])


def test_encode_two_features_mean():
    params = init_params(8, 4, 2, 0.0, seed=0, buckets=range(8))
    fv = bag(np.array([1, 5], dtype=np.int64), np.array([0.5, 0.5]))
    expected = (params.embedding[params.slot[1]] + params.embedding[params.slot[5]]) / 2.0
    assert np.allclose(encode(params, fv)[0], expected)


def test_encode_index_out_of_range():
    params = init_params(8, 4, 2, 0.0, seed=0)
    fv = bag(np.array([8], dtype=np.int64), np.array([1.0]))
    with pytest.raises(ValueError):
        encode(params, fv)


def test_encode_checks_every_id_of_an_unsorted_bag():
    params = init_params(8, 4, 2, 0.0, seed=0, buckets=range(8))
    for ids in ([3, 8, 1], [3, -1, 5]):
        fv = bag(np.array(ids, dtype=np.int64), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="out of range"):
            encode(params, fv)


def test_a_repeated_bucket_pools_and_trains_as_its_merged_bag():
    """A bag may name a bucket twice, as a mixed bag does; it pools, scores
    and gets an embedding gradient as the bag with those weights added."""
    params = init_params(16, 6, 3, 0.3, seed=2, buckets=range(16))
    repeated = bag(np.array([5, 2, 9, 2, 5]), np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
    merged = bag(np.array([2, 5, 9]), np.array([0.35, 0.35, 0.3]))
    np.testing.assert_allclose(
        encode(params, repeated), encode(params, merged), rtol=1e-12, atol=1e-15
    )
    other = bag(np.array([1, 9]), np.array([0.5, 0.5]))
    target = np.array([0.2, 0.5, 0.3])
    items = make_batch(
        [0, 1, 0, 0], ["ce", "ce", "rdrop", "pseudo"], target=target, key=[0, 1, 0, 0]
    )
    results = [
        backward(params, items, matrix_of([doc, other]), mask_seed=11)
        for doc in (repeated, merged)
    ]
    (total_r, grads_r, _), (total_m, grads_m, _) = results
    assert total_r == pytest.approx(total_m, rel=1e-12)
    assert np.array_equal(grads_r.emb_rows, grads_m.emb_rows)
    np.testing.assert_allclose(grads_r.emb_vals, grads_m.emb_vals, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(
        predict_logits(params, matrix_of([repeated, other])),
        predict_logits(params, matrix_of([merged, other])),
        rtol=1e-12, atol=1e-15,
    )


def test_a_multi_row_call_scores_each_row_as_its_one_row_call():
    """``encode`` and ``predict_proba`` on a matrix give, row for row, what
    one-row calls give, over several forward passes, a partial last pass
    and empty rows, for a model that owns every bucket of the corpus and
    for one that owns about half of them. Pooled rows are bit-equal. A
    one-row head product runs as a BLAS matrix-vector product, whose sums
    may round differently from the matrix-matrix product of a multi-row
    pass, so probabilities agree to within a few ulp."""
    pool, _ = make_labeled_pool(2 * encoder._EVAL_CHUNK + 40, 4, class_vocab=60, seed=8)
    texts = list(pool.texts)
    texts[7::97] = ["", "solo", ""]
    features = featurize_corpus(texts, 2**12)
    assert len(features) % encoder._EVAL_CHUNK > 1
    buckets = corpus_buckets(features, 2**12)
    for owned in (buckets, buckets[::2]):
        params = init_params(2**12, 16, 4, 0.3, seed=5, buckets=owned)
        params.b1 += np.random.default_rng(5).normal(scale=0.05, size=params.b1.shape)
        pooled, proba = encode(params, features), predict_proba(params, features)
        assert pooled.shape == (len(texts), 16) and proba.shape == (len(texts), 4)
        for i, row in enumerate(rows_of(features)):
            assert encode(params, row).tobytes() == pooled[i : i + 1].tobytes()
            np.testing.assert_allclose(predict_proba(params, row)[0], proba[i], rtol=0, atol=1e-15)
        assert not pooled[7].any()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=1e-15)


def test_encode_skips_unowned_buckets_as_pooling_through_the_zero_row_would():
    """A float32 model that owns about half of a corpus's buckets pools each
    row as the float64 weighted sum of the rows its buckets read through
    ``slot``, row 0 for an unowned bucket, to within the rounding error of
    a float32 sum of its terms. A document
    whose buckets are all unowned pools to exact zeros (no ``-0.0``), and
    scores as the head on the zero vector."""
    pool, _ = make_labeled_pool(300, 4, class_vocab=60, seed=3)
    texts = [*pool.texts, "qqz0 qqz1 qqz2", ""]
    features = featurize_corpus(texts, 2**12)
    unowned = features.take([len(texts) - 2]).indices
    buckets = np.setdiff1d(corpus_buckets(features, 2**12)[::2], unowned)
    params = init_params(2**12, 16, 4, 0.0, seed=7, buckets=buckets, dtype=np.float32)
    assert (params.slot[features.indices] == 0).mean() == pytest.approx(0.5, abs=0.1)
    pooled = encode(params, features)
    table = params.embedding.astype(np.float64)[params.slot]
    for i, row in enumerate(rows_of(features)):
        terms = row.weights[:, None] * table[row.indices]
        # rounding the weight, the product and each of the sum's additions
        bound = (row.indices.size + 1) * np.finfo(np.float32).eps * np.abs(terms).sum(axis=0)
        assert np.all(np.abs(pooled[i] - terms.sum(axis=0)) <= bound)
    assert pooled[-2:].tobytes() == np.zeros((2, 16)).tobytes()
    zero = head_forward(params, np.zeros(16))
    np.testing.assert_allclose(predict_logits(params, features)[-2:], [zero, zero], rtol=1e-15)


# ---------------------------------------------------------------------------
# head_forward and softmax
# ---------------------------------------------------------------------------


def test_head_forward_dropout_off_deterministic():
    params = init_params(8, 4, 3, 0.5, seed=1)
    e = np.array([0.1, -0.2, 0.3, 0.4])
    assert np.array_equal(head_forward(params, e), head_forward(params, e))


def test_head_forward_same_mask_seed_same_logits():
    params = init_params(8, 4, 3, 0.5, seed=1)
    e = np.array([0.1, -0.2, 0.3, 0.4])
    a = head_forward(params, e, dropout_on=True, mask_seed=7, key=2, pass_index=1)
    b = head_forward(params, e, dropout_on=True, mask_seed=7, key=2, pass_index=1)
    assert np.array_equal(a, b)
    different = head_forward(params, e, dropout_on=True, mask_seed=8, key=2, pass_index=1)
    assert not np.array_equal(a, different)


def test_head_forward_zero_rate_matches_dropout_off():
    params = init_params(8, 4, 3, 0.0, seed=1)
    e = np.array([0.1, -0.2, 0.3, 0.4])
    on = head_forward(params, e, dropout_on=True, mask_seed=7)
    assert np.array_equal(on, head_forward(params, e))


def test_dropout_off_forward_is_pure():
    """Dropout-off logits depend only on (input, params)."""
    rng = np.random.default_rng(33)
    for _ in range(N_CASES):
        params = small_params(rng, dropout_rate=float(rng.random() * 0.9))
        e = rng.normal(size=params.hidden)
        first = head_forward(params, e)
        second = head_forward(params, e.copy())
        assert np.array_equal(first, second)
        fv = random_features(rng, params.num_buckets)
        assert np.array_equal(predict_proba(params, fv), predict_proba(params, fv))


def test_softmax_examples():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])
    assert np.allclose(softmax(np.full(4, 3.7)), [0.25, 0.25, 0.25, 0.25])
    huge = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(huge))
    assert huge[0] == pytest.approx(1.0)
    assert huge[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_rejects_non_finite():
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0]):
        with pytest.raises(NumericError):
            softmax(np.array(bad))


def test_softmax_rows_match_the_one_dimensional_call():
    rng = np.random.default_rng(6)
    for _ in range(N_CASES):
        z = rng.normal(scale=rng.uniform(0.1, 50.0), size=(int(rng.integers(1, 6)), 5))
        rows = softmax(z)
        for row, p in zip(z, rows):
            assert np.array_equal(p, softmax(row))


def test_softmax_shift_invariance_property():
    rng = np.random.default_rng(5)
    for _ in range(N_CASES):
        z = rng.normal(scale=rng.uniform(0.1, 50.0), size=int(rng.integers(2, 8)))
        shift = rng.uniform(-1e3, 1e3)
        assert np.all(np.abs(softmax(z + shift) - softmax(z)) <= 1e-12)
        p = softmax(z)
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12
        assert np.allclose(np.exp(log_softmax(z)), p)


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------


def test_backward_stationary_when_target_equals_prediction():
    params = init_params(8, 4, 3, 0.0, seed=3, buckets=range(8))
    fv = bag(np.array([1, 4, 6]), np.array([0.5, 0.2, 0.3]))
    target = softmax(head_forward(params, encode(params, fv)[0]))
    _, grads, _ = backward(params, make_batch([0], "ce", target=target, key=0), matrix_of([fv]))
    for arr in (grads.w1, grads.b1, grads.w2, grads.b2, grads.emb_vals):
        assert np.all(np.abs(arr) <= 1e-12)
    assert np.array_equal(grads.emb_rows, fv.indices)


def test_backward_mean_invariance_under_duplication():
    rng = np.random.default_rng(17)
    params = small_params(rng, dropout_rate=0.0)
    bags, targets = [], np.zeros((3, params.num_classes))
    for row in range(3):
        bags.append(random_features(rng, params.num_buckets))
        targets[row, int(rng.integers(params.num_classes))] = 1.0
    items = make_batch(np.arange(3), "ce", target=targets, weight=1.0 / 3.0, key=np.arange(3))
    doubled = make_batch(
        np.repeat(items.row, 2), "ce", target=np.repeat(items.target, 2, axis=0),
        weight=np.repeat(items.weight, 2) / 2.0, key=np.arange(6),
    )
    features = matrix_of(bags)
    loss_a, grads_a, _ = backward(params, items, features)
    loss_b, grads_b, _ = backward(params, doubled, features)
    assert loss_a == pytest.approx(loss_b, abs=1e-12)
    assert np.allclose(grads_a.w2, grads_b.w2, atol=1e-12)
    assert np.array_equal(grads_a.emb_rows, grads_b.emb_rows)
    assert np.allclose(grads_a.emb_vals, grads_b.emb_vals, atol=1e-12)


def test_evaluate_batch_breakdown_counts_kinds():
    rng = np.random.default_rng(2)
    params = small_params(rng, dropout_rate=0.3)
    fv = random_features(rng, params.num_buckets)
    target = np.zeros(params.num_classes)
    target[0] = 1.0
    items = make_batch(
        [0, 0, 0, 0], ["ce", "pseudo", "pseudo", "rdrop"], target=target, key=np.arange(4)
    )
    total, grads, breakdown = backward(params, items, matrix_of([fv]), mask_seed=4)
    assert breakdown["ce"][1] == 1
    assert breakdown["pseudo"][1] == 2
    assert breakdown["rdrop"][1] == 1
    assert total == pytest.approx(
        breakdown["ce"][0] + breakdown["pseudo"][0] + breakdown["rdrop"][0]
    )
    assert grads is not None


def test_evaluate_batch_weights_scale_total_not_breakdown():
    rng = np.random.default_rng(8)
    params = small_params(rng, dropout_rate=0.0)
    fv = random_features(rng, params.num_buckets)
    item = make_batch([0], "pseudo", weight=0.25, key=0, target=np.zeros(params.num_classes))
    total, _, breakdown = backward(params, item, matrix_of([fv]))
    raw, count = breakdown["pseudo"]
    assert count == 1
    assert total == pytest.approx(0.25 * raw)


def _empty() -> FeatureMatrix:
    """A bag with no features; it pools to the zero vector."""
    return bag(np.empty(0, dtype=np.int64), np.empty(0))


def _empty_row() -> FeatureMatrix:
    """A matrix whose one row is :func:`_empty`."""
    return matrix_of([_empty()])


def test_evaluate_batch_rejects_unknown_kind():
    """Refused when the batch is built (a kind is stored in six characters,
    so a longer one would otherwise be cut short) and by ``backward``."""
    params = init_params(8, 4, 2, 0.0, seed=0)
    for kind in ("nope", "pseudonym"):
        with pytest.raises(ValueError, match=f"unknown batch item kind '{kind}'"):
            make_batch([0], kind, key=0, target=np.zeros(2))
    items = make_batch([0, 0], "pseudo", key=[0, 1], target=np.zeros(2))
    items.kind[1] = "nope"
    with pytest.raises(ValueError, match="unknown batch item kind 'nope'"):
        backward(params, items, _empty_row())


def test_evaluate_batch_requires_ce_target():
    with pytest.raises(TypeError, match="target"):
        make_batch([0], "ce", key=0)


def test_backward_refuses_a_row_that_is_not_a_position():
    """A row or partner outside the matrix is refused, naming the item's
    batch position."""
    params = init_params(8, 4, 2, 0.0, seed=0)
    good = make_batch([0, 0, 0], "ce", target=np.array([1.0, 0.0]), key=[0, 1, 2])
    features = matrix_of([_empty(), _empty()])
    for bad in (2, -1):
        wrong = good.copy()
        wrong.row[1] = bad
        with pytest.raises(ValueError, match=r"position 1: row .* is not a position in \[0, 2\)"):
            backward(params, wrong, features)
    for bad in (2, -1):
        wrong = good.copy()
        wrong.partner[1], wrong.lam[1] = bad, 0.5
        with pytest.raises(ValueError, match=r"position 1: row .* is not a position in \[0, 2\)"):
            backward(params, wrong, features)


def test_make_batch_refuses_a_row_that_is_not_an_integer():
    """A float row would be cut to an integer by the int64 field, so a
    non-integer row, partner or key is refused, as are rows that are not
    one per record."""
    target = np.array([1.0, 0.0])
    for bad in ([0, 1.0, 0], [0, 1.5, 0], [0, None, 0]):
        with pytest.raises(ValueError, match="batch rows must be integers"):
            make_batch(bad, "ce", target=target, key=[0, 1, 2])
    with pytest.raises(ValueError, match="batch partners must be integers"):
        make_batch([0, 0, 0], "ce", target=target, key=[0, 1, 2], partner=[0, 0.5, 0], lam=0.5)
    with pytest.raises(ValueError, match="batch keys must be integers"):
        make_batch([0, 0, 0], "ce", target=target, key=[0, 1.0, 2])
    with pytest.raises(ValueError):
        make_batch(np.zeros((3, 4), dtype=np.int64), "ce", target=target, key=0)


def test_a_batch_iterates_as_records_whose_kind_matches_its_column():
    """``len`` counts the terms and each record reads its kind as an
    attribute, as a caller counting terms per kind reads them."""
    rng = np.random.default_rng(3)
    kinds = [str(k) for k in rng.choice(["ce", "pseudo", "rdrop"], size=40)]
    parts = [
        make_batch(np.arange(20), kinds[:20], target=np.array([0.5, 0.5]), key=np.arange(20)),
        embmix(np.arange(5), np.eye(2)[[0, 1, 0, 1, 0]], np.arange(5)[::-1],
               np.eye(2)[[1, 0, 1, 0, 1]], rng.random(5), key=100),
        make_batch(np.arange(20), kinds[20:], target=np.array([0.5, 0.5]), key=np.arange(20)),
    ]
    batch = joined(*parts)
    assert isinstance(batch, np.recarray)
    assert len(batch) == 45
    assert [record.kind for record in batch] == batch.kind.tolist()
    assert batch.kind.tolist() == kinds[:20] + ["ce"] * 5 + kinds[20:]
    assert sum(record.kind in ("pseudo", "rdrop") for record in batch) == sum(
        kind != "ce" for kind in kinds
    )


def test_backward_checks_the_buckets_of_its_last_block():
    """A bucket out of range in the last document block is refused before any work."""
    params = init_params(8, 4, 2, 0.0, seed=0, buckets=range(8))
    good = bag(np.array([1, 7]), np.array([0.5, 0.5]))
    items = make_batch(np.arange(40), "pseudo", key=np.arange(40), target=np.zeros(2))
    for bad in (8, -1):
        doc = bag(np.array([3, bad, 5]), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="out of range"):
            backward(params, items, matrix_of([good] * 39 + [doc]))


def _bag_mix(
    rng: np.random.Generator, num_buckets: int, n: int
) -> tuple[np.recarray, FeatureMatrix]:
    """``n`` items, each on its own row, in a training step's proportions:
    half cross-entropy on bags of about 50 entries, a quarter each
    confidence and agreement terms on bags of about 25."""
    bags, kinds = [], []
    for pos in range(n):
        kind = ("ce", "ce", "pseudo", "rdrop")[pos % 4]
        size = int(rng.integers(40, 61)) if kind == "ce" else int(rng.integers(20, 31))
        bags.append(bag(rng.integers(0, num_buckets, size), np.full(size, 1.0 / size)))
        kinds.append(kind)
    items = make_batch(np.arange(n), kinds, target=np.array([0.5, 0.5]), key=np.arange(n))
    return items, matrix_of(bags)


def test_backward_memory_grows_linearly_with_the_batch():
    """Ten times the items peak at about ten times the memory, not at the
    hundredfold of one dense (items x distinct buckets or documents) matrix.
    A narrow model keeps the per-row arrays small beside such a matrix."""
    num_buckets = 2**16
    params = init_params(num_buckets, 8, 2, 0.1, seed=0, buckets=range(num_buckets))
    peaks = []
    for n in (64, 640):
        items, features = _bag_mix(np.random.default_rng(7), num_buckets, n)
        tracemalloc.start()
        try:
            backward(params, items, features, mask_seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 20 * peaks[0], f"peaks {peaks[0]} and {peaks[1]} bytes"


def test_evaluate_batch_names_non_finite_term_and_position():
    params = init_params(8, 4, 2, 0.0, seed=0)
    good_then_poisoned = make_batch(
        [0, 0], "ce", target=np.array([[1.0, 0.0], [np.nan, 0.0]]), key=[0, 1]
    )
    with pytest.raises(NumericError, match="non-finite ce loss at batch position 1"):
        backward(params, good_then_poisoned, _empty_row())


def test_rdrop_from_probs_basics():
    p = np.array([0.3, 0.7])
    assert rdrop_from_probs(p, p) == 0.0
    q = np.array([0.6, 0.4])
    assert rdrop_from_probs(p, q) == pytest.approx(rdrop_from_probs(q, p))
    assert rdrop_from_probs(p, q) > 0.0


def test_shared_key_shares_dropout_masks_across_kinds():
    """A confidence term with the same key as a consistency term is evaluated
    on that item's first perturbed pass: drop(pass0) + drop(pass1) losses
    decompose the rdrop term's two passes."""
    rng = np.random.default_rng(12)
    params = small_params(rng, dropout_rate=0.5)
    fv = random_features(rng, params.num_buckets)
    mask_seed = 99
    (e,) = encode(params, fv)
    z0 = head_forward(params, e, dropout_on=True, mask_seed=mask_seed, key=5, pass_index=0)
    z1 = head_forward(params, e, dropout_on=True, mask_seed=mask_seed, key=5, pass_index=1)
    expected = rdrop_from_probs(softmax(z0), softmax(z1))
    total, _, _ = backward(
        params,
        make_batch([0], "rdrop", key=5, target=np.zeros(params.num_classes)),
        matrix_of([fv]),
        mask_seed=mask_seed,
    )
    assert total == pytest.approx(expected, abs=1e-12)
    # pseudo with the same key sees exactly the pass-0 mask
    p0 = softmax(z0)
    expected_pseudo = -np.log(p0[int(np.argmax(p0))])
    pseudo = make_batch([0], "pseudo", key=5, target=np.zeros(params.num_classes))
    got, _, _ = backward(params, pseudo, matrix_of([fv]), mask_seed=mask_seed)
    assert got == pytest.approx(expected_pseudo, abs=1e-12)


def _mixed_batch(
    rng: np.random.Generator, params
) -> tuple[np.recarray, FeatureMatrix]:
    """Every item shape the trainer produces, plus the awkward cases: a
    pseudo and an rdrop item sharing a key, bucket ids repeated across
    items, an empty feature vector, and a mixed item with a soft target
    whose partner row another item also reads. Returns the items and the
    matrix of their rows."""
    bags = [random_features(rng, params.num_buckets)]  # row 0, shared
    hard = np.zeros(params.num_classes)
    hard[int(rng.integers(params.num_classes))] = 1.0
    bags.append(random_features(rng, params.num_buckets))
    mixed = embmix(
        [1],
        random_distribution(rng, params.num_classes)[None],
        [0],
        hard[None],
        rng.beta(0.75, 0.75, size=1),
        key=1,
    )

    def weight() -> float:
        return float(rng.uniform(0.2, 1.5))

    def row(doc: FeatureMatrix) -> int:
        bags.append(doc)
        return len(bags) - 1

    first = make_batch([0], "ce", target=hard, weight=weight(), key=0)
    mixed.weight[0] = weight()
    # (row, kind, weight, key), drawn in this order
    rest = [
        (row(random_features(rng, params.num_buckets)), "pseudo", weight(), 7),
        (row(random_features(rng, params.num_buckets)), "rdrop", weight(), 7),
        (0, "rdrop", weight(), 3),
        (row(_empty()), "pseudo", weight(), 4),
        (row(random_features(rng, params.num_buckets)), "rdrop", weight(), 5),
        (row(_empty()), "ce", weight(), 6),
    ]
    rows, kinds, weights, keys = zip(*rest)
    items = joined(first, mixed, make_batch(rows, kinds, target=hard, weight=weights, key=keys))
    return items, matrix_of(bags)


def test_batch_equals_the_sum_of_its_items():
    rng = np.random.default_rng(61)
    for case in range(50):
        params = small_params(rng, dropout_rate=float(rng.choice([0.0, 0.3, 0.5])))
        items, features = _mixed_batch(rng, params)
        mask_seed = int(rng.integers(2**63))
        total, grads, breakdown = backward(params, items, features, mask_seed=mask_seed)

        sum_total = 0.0
        sum_breakdown: dict[str, list[float]] = {}
        head = {name: 0.0 for name in ("w1", "b1", "w2", "b2")}
        emb: dict[int, np.ndarray] = {}
        for k in range(len(items)):
            t, g, b = backward(params, items[k : k + 1], features, mask_seed=mask_seed)
            sum_total += t
            for kind, (raw, count) in b.items():
                entry = sum_breakdown.setdefault(kind, [0.0, 0])
                entry[0] += raw
                entry[1] += count
            for name in head:
                head[name] = head[name] + getattr(g, name)
            for row, vals in zip(g.emb_rows, g.emb_vals):
                emb[int(row)] = emb.get(int(row), 0.0) + vals

        assert total == pytest.approx(sum_total, rel=1e-10), case
        assert set(breakdown) == set(sum_breakdown)
        for kind, (raw, count) in breakdown.items():
            assert count == sum_breakdown[kind][1]
            assert raw == pytest.approx(sum_breakdown[kind][0], rel=1e-10, abs=1e-15)
        for name, expected in head.items():
            np.testing.assert_allclose(getattr(grads, name), expected, rtol=1e-10, atol=1e-14)
        assert np.array_equal(grads.emb_rows, np.array(sorted(emb), dtype=np.int64))
        np.testing.assert_allclose(
            grads.emb_vals, np.stack([emb[r] for r in sorted(emb)]), rtol=1e-10, atol=1e-14
        )


def test_empty_batch_is_zero_loss_with_zero_gradients():
    params = init_params(8, 4, 3, 0.3, seed=0)
    empty = make_batch([], "pseudo", key=[], target=np.zeros(3))
    total, grads, breakdown = backward(params, empty, matrix_of([]), mask_seed=1)
    assert total == 0.0 and breakdown == {}
    assert grads.emb_rows.dtype == np.int64 and grads.emb_rows.size == 0
    assert grads.emb_vals.shape == (0, 4)
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(grads, name).shape == getattr(params, name).shape
        assert not np.any(getattr(grads, name))


def test_backward_reports_the_first_non_finite_position():
    params = init_params(8, 4, 2, 0.0, seed=0)
    targets = np.array([[1.0, 0.0]] * 4 + [[np.nan, 0.0]])
    items = make_batch(
        [0, 0, 1, 0, 0], ["ce", "pseudo", "rdrop", "ce", "ce"], target=targets, key=np.arange(5)
    )
    features = matrix_of([_empty(), bag(np.array([3]), np.array([np.nan]))])
    with pytest.raises(NumericError, match="non-finite rdrop loss at batch position 2"):
        backward(params, items, features)


# ---------------------------------------------------------------------------
# Dropout masks
# ---------------------------------------------------------------------------


def test_mask_depends_only_on_seed_key_and_pass():
    params = init_params(8, 16, 2, 0.5, seed=0)
    keys = np.array([3, 11, 7, 3, 1_000_005])
    passes = np.array([0, 1, 0, 1, 0])
    masks = _masks(params, 42, keys, passes)
    order = np.array([4, 2, 0, 3, 1])
    assert np.array_equal(_masks(params, 42, keys[order], passes[order]), masks[order])
    for r in range(keys.size):
        alone = _masks(params, 42, keys[r : r + 1], passes[r : r + 1])
        assert np.array_equal(alone[0], masks[r])
    assert not np.array_equal(masks[0], masks[3])  # key 3: pass 0 vs pass 1
    assert not np.array_equal(_masks(params, 43, keys, passes), masks)


def test_mask_keeps_one_minus_rate_scaled_by_its_inverse():
    for rate in (0.1, 0.3, 0.5):
        params = init_params(8, 64, 2, rate, seed=0)
        masks = _masks(params, 9, np.arange(500), np.zeros(500, dtype=np.int64))
        kept = masks != 0.0
        assert abs(kept.mean() - (1.0 - rate)) <= 0.02
        assert np.all(masks[kept] == 1.0 / (1.0 - rate))
        assert not np.array_equal(
            masks, _masks(params, 9, np.arange(500), np.ones(500, dtype=np.int64))
        )


def test_masks_are_all_ones_without_a_seed_or_at_rate_zero():
    keys, passes = np.arange(6), np.array([0, 1] * 3)
    assert np.array_equal(_masks(init_params(8, 4, 2, 0.5, seed=0), None, keys, passes),
                          np.ones((6, 4)))
    assert np.array_equal(_masks(init_params(8, 4, 2, 0.0, seed=0), 5, keys, passes),
                          np.ones((6, 4)))


def test_an_item_sees_the_same_mask_at_any_batch_position():
    rng = np.random.default_rng(71)
    params = small_params(rng, dropout_rate=0.5)
    bags = [random_features(rng, params.num_buckets)]
    probe = make_batch([0], "rdrop", key=77, target=np.zeros(params.num_classes))
    _, _, alone = backward(params, probe, matrix_of(bags), mask_seed=3)
    hard = np.eye(params.num_classes)[0]
    bags += [random_features(rng, params.num_buckets) for _ in range(5)]
    others = make_batch(np.arange(1, 6), "ce", target=hard, key=np.arange(5))
    _, _, crowded = backward(
        params, joined(others[:3], probe, others[3:]), matrix_of(bags), mask_seed=3
    )
    assert crowded["rdrop"][0] == pytest.approx(alone["rdrop"][0], rel=1e-12)
    assert alone["rdrop"][0] > 0.0


def test_backward_builds_no_generator(monkeypatch):
    rng = np.random.default_rng(81)
    params = small_params(rng, dropout_rate=0.5)
    items, features = _mixed_batch(rng, params)

    def forbidden(*args, **kwargs):
        raise AssertionError("backward must not construct a Generator")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    backward(params, items, features, mask_seed=17)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    params = init_params(8, 4, 2, 0.0, seed=0)
    before = copy.deepcopy(params)
    opt = init_optimizer(params, learning_rate=0.1)
    zero = backward(params, make_batch([0], "ce", target=softmax(np.zeros(2)), key=0),
                    _empty_row())[1]
    # force exact zeros regardless of float dust
    for arr in (zero.w1, zero.b1, zero.w2, zero.b2):
        arr[:] = 0.0
    adam_step(params, zero, opt)
    assert opt.step == 1
    for name in ("embedding", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(params, name), getattr(before, name))


def test_adam_first_step_matches_hand_formula():
    """First update with constant gradient g: delta = -lr * g / (|g| + eps)."""
    params = init_params(4, 3, 2, 0.0, seed=5, buckets=range(4))
    before = copy.deepcopy(params)
    lr, eps = 1e-2, 1e-8
    opt = init_optimizer(params, learning_rate=lr, epsilon=eps)
    rng = np.random.default_rng(9)
    from selfmix.encoder import Gradients

    g_emb_rows = np.array([1, 3], dtype=np.int64)
    g_emb_vals = rng.normal(size=(2, 3))
    grads = Gradients(
        g_emb_rows,
        g_emb_vals,
        rng.normal(size=params.w1.shape),
        rng.normal(size=params.b1.shape),
        rng.normal(size=params.w2.shape),
        rng.normal(size=params.b2.shape),
    )
    adam_step(params, grads, opt)
    for name, g in (("w1", grads.w1), ("b1", grads.b1), ("w2", grads.w2), ("b2", grads.b2)):
        expected = getattr(before, name) - lr * g / (np.abs(g) + eps)
        assert np.allclose(getattr(params, name), expected, atol=1e-12)
    rows = params.slot[g_emb_rows]
    expected_rows = before.embedding[rows] - lr * g_emb_vals / (np.abs(g_emb_vals) + eps)
    assert np.allclose(params.embedding[rows], expected_rows, atol=1e-12)
    untouched = params.slot[np.array([0, 2], dtype=np.int64)]
    assert np.array_equal(params.embedding[untouched], before.embedding[untouched])


def test_adam_determinism():
    runs = []
    for _ in range(2):
        params = init_params(8, 4, 2, 0.3, seed=6, buckets=range(8))
        opt = init_optimizer(params, learning_rate=0.05)
        step_rng = np.random.default_rng(77)
        for _ in range(5):
            fv = random_features(step_rng, params.num_buckets)
            target = np.zeros(2)
            target[int(step_rng.integers(2))] = 1.0
            _, grads, _ = backward(
                params, make_batch([0], "ce", target=target, key=0), matrix_of([fv]), mask_seed=3
            )
            adam_step(params, grads, opt)
        runs.append(params)
    a, b = runs
    for name in ("embedding", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_adam_shape_mismatch_raises():
    params = init_params(8, 4, 2, 0.0, seed=0)
    other = init_params(8, 5, 2, 0.0, seed=0)
    opt = init_optimizer(params)
    items = make_batch([0], "ce", target=np.array([1.0, 0.0]), key=0)
    _, grads, _ = backward(other, items, _empty_row())
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, grads, opt)


def test_adam_refuses_a_gradient_for_a_bucket_without_a_row():
    """Bucket 9 reads the shared zero row; training it would move every
    unowned bucket, so the step is refused before anything changes."""
    params = init_params(16, 4, 2, 0.0, seed=0, buckets=[2, 5])
    opt = init_optimizer(params, learning_rate=0.1)
    before = copy.deepcopy(params)
    fv = bag(np.array([2, 9]), np.array([0.5, 0.5]))
    items = make_batch([0], "ce", target=np.array([1.0, 0.0]), key=0)
    grads = backward(params, items, matrix_of([fv]))[1]
    with pytest.raises(ValueError, match="bucket 9, which owns no embedding row"):
        adam_step(params, grads, opt)
    assert opt.step == 0
    for name in ("embedding", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(params, name), getattr(before, name))


@pytest.mark.parametrize("bucket", [-1, -64, 64, 70])
def test_adam_refuses_a_gradient_for_an_id_that_is_not_a_bucket(bucket):
    """Bucket -1 would index ``slot`` from its end and train bucket 63's row;
    bucket 70 lies past it. Both are refused, naming the id, before anything
    changes."""
    params = init_params(64, 8, 2, 0.0, seed=1, buckets=[63])
    opt = init_optimizer(params, learning_rate=0.1)
    before = copy.deepcopy(params)
    grads = Gradients(
        np.array([bucket], dtype=np.int64), np.ones((1, 8), dtype=params.embedding.dtype),
        np.zeros_like(params.w1), np.zeros_like(params.b1),
        np.zeros_like(params.w2), np.zeros_like(params.b2),
    )
    with pytest.raises(ValueError, match=rf"bucket {bucket}, which is not a bucket in \[0, 64\)"):
        adam_step(params, grads, opt)
    assert opt.step == 0
    for name in ("embedding", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(params, name), getattr(before, name))


def test_lazy_embedding_moments_use_global_step_bias_correction():
    """A row updated for the first time at step t is bias-corrected with t,
    matching a dense reference that saw zero gradients for that row."""
    params = init_params(4, 2, 2, 0.0, seed=1, buckets=range(4))
    reference = copy.deepcopy(params)
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    opt = init_optimizer(params, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    from selfmix.encoder import Gradients

    def sparse(rows_vals):
        rows = np.array(sorted(rows_vals), dtype=np.int64)
        vals = np.stack([rows_vals[int(r)] for r in rows])
        return Gradients(
            rows,
            vals,
            np.zeros_like(params.w1),
            np.zeros_like(params.b1),
            np.zeros_like(params.w2),
            np.zeros_like(params.b2),
        )

    g_row3 = np.array([0.5, -0.2])
    # step 1 touches row 0 only; step 2 touches row 3 for the first time
    adam_step(params, sparse({0: np.array([1.0, 1.0])}), opt)
    adam_step(params, sparse({3: g_row3}), opt)
    # dense reference for row 3: zero grad at step 1, g at step 2
    m = (1 - b1) * g_row3  # beta1 * 0 + ...
    v = (1 - b2) * np.square(g_row3)
    t = 2
    row = params.slot[3]
    expected = reference.embedding[row] - lr * (m / (1 - b1**t)) / (
        np.sqrt(v / (1 - b2**t)) + eps
    )
    assert np.allclose(params.embedding[row], expected, atol=1e-15)


def _random_gradients(rng, params, buckets):
    """Head gradients in float64, as ``backward`` gives them, and embedding
    gradients in the table's dtype for a sorted, distinct draw of
    ``buckets`` (possibly none)."""
    rows = np.sort(rng.choice(buckets, size=int(rng.integers(0, buckets.size + 1)), replace=False))
    return Gradients(
        rows.astype(np.int64),
        rng.normal(size=(rows.size, params.hidden)).astype(params.embedding.dtype),
        *(rng.normal(size=getattr(params, name).shape) for name in ("w1", "b1", "w2", "b2")),
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_matches_the_reference_step_bit_for_bit(dtype):
    """60 random steps over a few owned buckets, so rows recur across steps
    and some steps touch none, match the per-parameter reference on every
    parameter and moment, across a pickle round trip of (params, opt)
    halfway, as a shared warm-up makes."""
    rng = np.random.default_rng(31)
    buckets = np.array([2, 3, 7, 11, 12, 30])
    params = init_params(32, 5, 3, 0.0, seed=4, buckets=buckets, dtype=dtype)
    opt = init_optimizer(params, learning_rate=0.05, beta1=0.8, beta2=0.99, epsilon=1e-6)
    ref_params, ref_opt = copy.deepcopy(params), reference_optimizer(opt)
    for step in range(60):
        if step == 30:
            params, opt = pickle.loads(pickle.dumps((params, opt), protocol=5))
        grads = _random_gradients(rng, params, buckets)
        adam_step(params, grads, opt)
        reference_adam_step(ref_params, grads, ref_opt)
        assert_same_adam_state(params, opt, ref_params, ref_opt)
    assert not params.embedding[0].any() and not opt.m["embedding"][0].any()


def test_adam_moments_are_views_of_the_flat_head_state():
    """``m`` and ``v`` read the state, also after a pickle round trip: a
    write through them is a write to the state, and they cannot be rebound."""
    params = init_params(8, 4, 3, 0.0, seed=0, buckets=[1, 5], dtype=np.float32)
    opt = pickle.loads(pickle.dumps(init_optimizer(params), protocol=5))
    assert opt.head_m.shape == opt.head_v.shape == (4 * 4 + 4 + 4 * 3 + 3,)
    for moments, head, emb in ((opt.m, opt.head_m, opt.emb_m), (opt.v, opt.head_v, opt.emb_v)):
        assert list(moments) == list(TRAINED)
        for name in TRAINED:
            assert moments[name].shape == getattr(params, name).shape, name
            assert moments[name].dtype == np.float32, name
            assert np.shares_memory(moments[name], emb if name == "embedding" else head), name
    opt.m["b1"][2] = 1.5
    opt.v["w2"][3, 1] = 2.5
    assert opt.head_m[4 * 4 + 2] == 1.5
    assert opt.head_v[4 * 4 + 4 + 3 * 3 + 1] == 2.5
    with pytest.raises(AttributeError):
        opt.m = {}


@pytest.mark.parametrize(
    "field, shape, message",
    [
        ("emb_vals", (3, 8), r"emb_vals has shape \(3, 8\), not \(2, 8\) for 2 emb_rows"),
        ("emb_vals", (2, 7), r"emb_vals has shape \(2, 7\), not \(2, 8\)"),
        ("b1", (7,), r"gradient b1 has shape \(7,\), not the parameter's \(8,\)"),
        ("w2", (8, 2, 1), r"gradient w2 has shape \(8, 2, 1\)"),
        ("b2", (), r"gradient b2 has shape \(\)"),
        ("emb_rows", (2, 1), r"emb_rows has shape \(2, 1\), not one dimension"),
    ],
)
def test_adam_refuses_a_gradient_of_the_wrong_shape(field, shape, message):
    """A gradient that does not fit its parameter is refused, naming the
    field, before the step count, a parameter or a moment changes: a
    wrong-size b1 would otherwise shift the flat head's later slices."""
    params = init_params(16, 8, 2, 0.0, seed=3, buckets=[2, 5, 9], dtype=np.float32)
    opt = init_optimizer(params, learning_rate=0.1)
    grads = Gradients(
        np.array([2, 9], dtype=np.int64), np.ones((2, 8), dtype=np.float32),
        np.ones_like(params.w1, dtype=np.float64), np.ones(8),
        np.ones((8, 2)), np.ones(2),
    )
    before, state = copy.deepcopy(params), copy.deepcopy(opt)
    setattr(grads, field, np.ones(shape, dtype=getattr(grads, field).dtype))
    with pytest.raises(ValueError, match=message):
        adam_step(params, grads, opt)
    assert opt.step == 0
    assert_same_adam_state(params, opt, before, state)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = init_params(16, 6, 3, 0.25, seed=42, buckets=[1, 4, 9, 15], dtype=np.float32)
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for name in ("embedding", "w1", "b1", "w2", "b2", "slot"):
        assert np.array_equal(getattr(loaded, name), getattr(params, name))
        assert getattr(loaded, name).dtype == getattr(params, name).dtype
    assert loaded.dropout_rate == params.dropout_rate
    # byte determinism: saving again produces identical bytes
    second = tmp_path / "again.smx"
    save_checkpoint(params, second)
    assert path.read_bytes() == second.read_bytes()


def test_checkpoint_magic(tmp_path):
    path = tmp_path / "bad.smx"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    params = init_params(16, 6, 3, 0.25, seed=42)
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    for size in (len(blob) // 2, 20):
        path.write_bytes(blob[:size])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    params = init_params(4, 2, 2, 0.0, seed=0)
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_dimensions(tmp_path):
    import struct

    path = tmp_path / "bad.smx"
    path.write_bytes(b"SMX4" + struct.pack("<qqqqd", 0, 4, 2, 0, 0.0))
    with pytest.raises(ValueError, match="dimensions"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "dims", [(2**40, 2**30, 2), (2**31, 2**31, 2), (10**9, 64, 4)]
)
def test_checkpoint_header_is_checked_against_the_file_size(tmp_path, dims):
    import struct

    path = tmp_path / "huge.smx"
    b, h, c = dims
    path.write_bytes(b"SMX4" + struct.pack("<qqqqd", b, h, c, b, 0.0) + bytes(56))
    implied = 44 + (b + 7) // 8 + 4 * (b * h + h * h + h + h * c + c)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == (
        f"{path}: truncated checkpoint: its header implies {implied} bytes, "
        f"the file has 100"
    )


def test_checkpoint_rejects_non_finite(tmp_path):
    params = init_params(4, 2, 2, 0.0, seed=0)
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    w1_at = 44 + 1  # after the magic, the header and a one-byte bitmap; no stored rows
    blob[w1_at : w1_at + 4] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="non-finite values in w1"):
        load_checkpoint(path)


@pytest.mark.parametrize("rate", [1.0, -0.25, np.nan])
def test_checkpoint_refuses_a_header_dropout_rate_outside_0_1(tmp_path, rate):
    path = tmp_path / "model.smx"
    save_checkpoint(init_params(4, 2, 2, 0.0, seed=0), path)
    blob = bytearray(path.read_bytes())
    blob[36:44] = struct.pack("<d", rate)  # the header's last field
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=r"dropout_rate .* outside \[0, 1\)"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
@pytest.mark.parametrize("name", ["embedding", "w1", "b2"])
def test_save_checkpoint_refuses_what_float32_cannot_hold(tmp_path, name, value):
    """A value that is not finite once cast to float32, such as a finite
    1e200, is refused before anything is written; the error names the array."""
    params = init_params(4, 2, 2, 0.0, seed=0, buckets=[1, 3])
    getattr(params, name)[-1] = value
    with pytest.raises(ValueError, match=f"cannot save {name}:"):
        save_checkpoint(params, tmp_path / "model.smx")
    assert not any(tmp_path.iterdir())


def test_init_params_validates_dropout():
    with pytest.raises(ValueError):
        init_params(4, 2, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        init_params(4, 2, 2, -0.1, seed=0)


def test_init_params_refuses_fewer_than_two_classes():
    """The bound the checkpoint reader enforces, so no model it refuses is built."""
    for num_classes in (1, 0):
        with pytest.raises(ValueError, match="num_classes must be at least 2"):
            init_params(4, 2, num_classes, 0.0, seed=0)


def test_model_params_shape_properties():
    params = init_params(16, 6, 3, 0.25, seed=0)
    assert isinstance(params, ModelParams)
    assert params.num_buckets == 16
    assert params.hidden == 6
    assert params.num_classes == 3


# ---------------------------------------------------------------------------
# Sparse embedding state
# ---------------------------------------------------------------------------


def test_sparse_init_allocates_no_dense_table():
    """2^18 buckets x 64 and no owned bucket: no (2^18, 64) table or moments."""
    tracemalloc.start()
    try:
        params = init_params(2**18, 64, 4, 0.1, seed=0)
        init_optimizer(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_init_peak_memory_stays_near_the_table():
    """Initial rows are built in chunks: a 15,509-row init peaks within
    twice the bytes of the table it returns."""
    buckets = np.random.default_rng(3).choice(16384, 15509, replace=False)
    tracemalloc.start()
    try:
        params = init_params(16384, 64, 8, 0.3, seed=2, buckets=buckets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert params.embedding.shape == (15510, 64)
    assert peak <= 2 * params.embedding.nbytes, f"peak {peak / 2**20:.1f} MB"


def test_unowned_buckets_pool_to_zero():
    params = init_params(64, 4, 2, 0.0, seed=1, buckets=[10, 3, 10])
    assert np.array_equal(np.flatnonzero(params.slot), [3, 10])
    assert np.array_equal(params.slot[[3, 10]], [1, 2])
    assert params.embedding.shape == (3, 4) and not params.embedding[0].any()
    unowned = bag(np.array([0, 11, 63]), np.full(3, 1.0 / 3.0))
    assert np.array_equal(encode(params, unowned)[0], np.zeros(4))
    mixed = bag(np.array([3, 11]), np.array([0.25, 0.75]))
    np.testing.assert_allclose(encode(params, mixed)[0], 0.25 * params.embedding[1], rtol=1e-15)


def test_bucket_init_is_a_pure_function_of_seed_and_bucket():
    """A bucket's initial row does not depend on the other buckets the model
    owns, on the init's chunking, or on the table width beyond its units;
    the head depends on the seed alone."""
    alone = init_params(2**18, 8, 2, 0.0, seed=5, buckets=[77_777])
    crowd = np.append(np.arange(0, 2**18, 97), 77_777)  # 2,703 buckets: three chunks
    many = init_params(2**18, 8, 2, 0.0, seed=5, buckets=crowd)
    row = alone.embedding[alone.slot[77_777]]
    assert np.array_equal(many.embedding[many.slot[77_777]], row)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(many, name), getattr(alone, name))
    narrow = init_params(2**18, 4, 2, 0.0, seed=5, buckets=[77_777])
    assert np.array_equal(narrow.embedding[narrow.slot[77_777]], row[:4])
    other_seed = init_params(2**18, 8, 2, 0.0, seed=6, buckets=[77_777])
    assert not np.array_equal(other_seed.embedding[1], row)
    single = init_params(2**18, 8, 2, 0.0, seed=5, buckets=crowd, dtype=np.float32)
    for name in TRAINED:  # the same draw, rounded
        rounded = getattr(many, name).astype(np.float32)
        assert getattr(single, name).dtype == np.float32
        assert np.array_equal(getattr(single, name), rounded)
    values = many.embedding[1:]
    assert abs(values.mean()) < 0.005 and abs(values.std() - 0.1) < 0.005


def test_init_params_refuses_buckets_out_of_range():
    for bad in ([-1], [3, 16]):
        with pytest.raises(ValueError, match="owned buckets"):
            init_params(16, 4, 2, 0.0, seed=0, buckets=bad)


def _random_batches(
    rng: np.random.Generator, num_buckets: int, num_classes: int, *, batches: int, size: int
) -> tuple[FeatureMatrix, list[np.recarray]]:
    """``batches`` batches of ``size`` soft-target ce items, each on its own
    row of the returned matrix; item ``k`` of a batch has key ``k``."""
    bags, out = [], []
    for _ in range(batches):
        targets = []
        for _ in range(size):
            bags.append(random_features(rng, num_buckets))
            targets.append(random_distribution(rng, num_classes))
        rows = len(bags) - size + np.arange(size)
        out.append(make_batch(rows, "ce", target=np.stack(targets), key=np.arange(size)))
    return matrix_of(bags), out


def test_training_keeps_the_row_table_and_moments():
    """A model that owns its corpus's buckets trains on it in place: no new
    row table or moments, owned rows move (a row whose gradient is exactly
    zero, behind dead units, may not), and row 0 and its moments stay zero."""
    rng = np.random.default_rng(5)
    features, batches = _random_batches(rng, 3000, 2, batches=6, size=3)
    params = init_params(3000, 3, 2, 0.3, seed=7, buckets=corpus_buckets(features, 3000))
    opt = init_optimizer(params, learning_rate=0.05)
    tables = (params.embedding, opt.m["embedding"], opt.v["embedding"])
    initial = params.embedding.copy()
    for batch in batches:
        adam_step(params, backward(params, batch, features, mask_seed=4)[1], opt)
    after = (params.embedding, opt.m["embedding"], opt.v["embedding"])
    assert all(a is b for a, b in zip(tables, after))
    assert opt.m["embedding"].shape == params.embedding.shape
    assert (params.embedding != initial)[1:].any(axis=1).mean() > 0.5
    for table in tables:
        assert not table[0].any()


def _trained_sparse_model(rng):
    """A model trained as a run trains it, in float32."""
    features, batches = _random_batches(rng, 2**18, 3, batches=4, size=8)
    buckets = corpus_buckets(features, 2**18)
    params = init_params(2**18, 8, 3, 0.2, seed=11, buckets=buckets, dtype=np.float32)
    opt = init_optimizer(params, learning_rate=0.05)
    for items in batches:
        adam_step(params, backward(params, items, features, mask_seed=2)[1], opt)
    return params


def test_sparse_checkpoint_reproduces_logits(tmp_path):
    rng = np.random.default_rng(12)
    params = _trained_sparse_model(rng)
    trained = np.flatnonzero(params.slot)
    assert 0 < trained.size < 200
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    docs = [random_features(rng, 2**18) for _ in range(40)]  # untrained buckets
    docs.append(bag(trained[:5], np.full(5, 0.2)))
    docs.append(bag(np.sort([trained[0], 7]), np.array([0.5, 0.5])))
    docs = matrix_of(docs)
    assert np.array_equal(predict_logits(loaded, docs), predict_logits(params, docs))
    dense_size = 44 + 4 * (2**18 * 8 + 8 * 8 + 8 + 8 * 3 + 3)
    assert path.stat().st_size < dense_size / 10


def test_checkpoint_save_holds_the_owned_rows_once(tmp_path):
    """Saving gathers the owned rows and writes that gather as it is: the
    traced peak stays below 1.5 times the rows' bytes (a second copy, as
    ``bytes``, would make it twice)."""
    buckets = np.random.default_rng(4).choice(2**18, 13797, replace=False)
    params = init_params(2**18, 64, 4, 0.1, seed=0, buckets=buckets, dtype=np.float32)
    path = tmp_path / "model.smx"
    tracemalloc.start()
    try:
        save_checkpoint(params, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows_bytes = params.embedding[1:].nbytes
    assert peak < 1.5 * rows_bytes, f"peak {peak / 2**20:.2f} MB"
    assert np.array_equal(load_checkpoint(path).embedding, params.embedding)


def test_checkpoint_load_holds_the_stored_rows_once(tmp_path):
    """Loading reads the stored rows straight into the table it returns: the
    traced peak stays within 1 MB of what the loaded model holds (reading
    the rows as ``bytes`` and casting them first would add two copies)."""
    buckets = np.random.default_rng(4).choice(2**18, 13797, replace=False)
    params = init_params(2**18, 64, 4, 0.1, seed=0, buckets=buckets, dtype=np.float32)
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= held + 2**20, f"peak {peak / 2**20:.2f} MB, held {held / 2**20:.2f} MB"
    for name in ("embedding", "w1", "b1", "w2", "b2", "slot"):
        assert np.array_equal(getattr(loaded, name), getattr(params, name)), name
        assert getattr(loaded, name).dtype == getattr(params, name).dtype, name


def test_checkpoint_refuses_a_bitmap_that_disagrees_with_the_row_count(tmp_path):
    params = init_params(16, 4, 2, 0.0, seed=1, buckets=[3])
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[44] |= 0b1  # mark bucket 0 as well; the file still stores one row
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="bitmap") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_smx4_save_load_save_is_byte_identical_and_reproduces_logits(tmp_path):
    rng = np.random.default_rng(21)
    params = _trained_sparse_model(rng)
    first, second = tmp_path / "first.smx", tmp_path / "second.smx"
    save_checkpoint(params, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert first.read_bytes()[:4] == b"SMX4"
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(loaded.slot, params.slot)
    trained = np.flatnonzero(params.slot)
    docs = [bag(trained[k : k + 3], np.full(3, 1.0 / 3.0)) for k in range(0, 30, 3)]
    docs += [random_features(rng, 2**18) for _ in range(10)]
    docs = matrix_of(docs)
    assert np.array_equal(predict_logits(loaded, docs), predict_logits(params, docs))


def test_smx1_smx2_and_smx3_checkpoints_are_refused_by_name(tmp_path):
    path = tmp_path / "old.smx"
    for magic in ("SMX1", "SMX2", "SMX3"):
        path.write_bytes(magic.encode() + struct.pack("<qqq", 16, 4, 3) + bytes(64))
        with pytest.raises(ValueError, match=f"{magic} checkpoints no longer load") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and "reads SMX4 only" in str(err.value)


def test_failed_checkpoint_write_leaves_no_partial_file(tmp_path, monkeypatch):
    params = init_params(16, 4, 2, 0.0, seed=0)
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    before = path.read_bytes()

    def failing_chunks(params):
        yield b"SMX4"
        raise OSError("disk full")

    monkeypatch.setattr(encoder, "_checkpoint_chunks", failing_chunks)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(params, path)
    assert path.read_bytes() == before  # the existing checkpoint is untouched
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(params, tmp_path / "fresh.smx")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.smx"]
