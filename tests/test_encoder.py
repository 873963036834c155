"""Tokenizer, feature hashing, forward pass, optimizer, and checkpoints."""
from __future__ import annotations

import copy
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    N_CASES,
    random_distribution,
    random_features,
    reference_featurize,
    reference_fnv1a64,
    small_params,
)
from selfmix import encoder
from selfmix.common import NumericError
from selfmix.core import embmix
from selfmix.encoder import (
    FNV_OFFSET,
    BatchItem,
    FeatureVector,
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
    predict_logits,
    predict_proba,
    rdrop_from_probs,
    save_checkpoint,
    softmax,
    tokenize,
)
from selfmix.encoder import _masks
from selfmix.synthetic import make_labeled_pool

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


def test_fnv1a64_known_vectors():
    # Published FNV-1a 64-bit reference values.
    assert reference_fnv1a64(b"") == FNV_OFFSET == 0xCBF29CE484222325
    assert reference_fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert reference_fnv1a64(b"foobar") == 0x85944171F73967E8
    # the corpus featurizer hashes a lone word to the same value
    fv = featurize_corpus(["foobar"], 2**63 - 1)[0]
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
    st.text(max_size=40),
    st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join),
)


def _assert_bit_equal(got: FeatureVector, want: FeatureVector) -> None:
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert got.weights.dtype == want.weights.dtype == np.float64
    assert np.array_equal(got.indices, want.indices)
    assert got.weights.tobytes() == want.weights.tobytes()


@given(st.lists(_TEXTS, max_size=8), st.sampled_from(_BUCKET_COUNTS), st.sampled_from((1, 3, 512)))
def test_featurize_corpus_matches_the_reference_bit_for_bit(texts, num_buckets, chunk):
    """Random Unicode, empty, one-token and repeated-token texts, in corpora
    of one or several chunks, featurize exactly as the per-n-gram reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "_FEATURIZE_CHUNK", chunk)
        features = featurize_corpus(texts, num_buckets)
    assert len(features) == len(texts)
    for text, got in zip(texts, features):
        _assert_bit_equal(got, reference_featurize(text, num_buckets))
        _assert_bit_equal(featurize_text(text, num_buckets), got)


@pytest.mark.parametrize("num_buckets", _BUCKET_COUNTS)
def test_featurize_corpus_matches_the_reference_over_several_chunks(num_buckets):
    pool, _ = make_labeled_pool(1100, 4, class_vocab=400, seed=5)
    texts = [ex.text for ex in pool]
    texts[3::250] = ["", "solo", "Echo echo ECHO echo", "x" * 3000, "a b a b a"]
    assert len(texts) > 2 * encoder._FEATURIZE_CHUNK
    for text, got in zip(texts, featurize_corpus(texts, num_buckets), strict=True):
        _assert_bit_equal(got, reference_featurize(text, num_buckets))


@pytest.mark.parametrize("size", [1, 2, 1000, 100_000])
def test_a_token_longer_than_the_rest_hashes_as_the_reference(size):
    """The longest word's last stretch is folded alone; with short words
    around it and as a whole byte string, it hashes as the byte-loop reference."""
    long = "k" * (size - 1) + "z"
    alone = featurize_corpus([long], 2**63 - 1)[0]
    assert alone.indices.tolist() == [reference_fnv1a64(long.encode()) % (2**63 - 1)]
    texts = [f"a {long} b", "short words", "", f"{long} {long[:-1]} ab", "x y z"]
    for text, got in zip(texts, featurize_corpus(texts, 2**18), strict=True):
        _assert_bit_equal(got, reference_featurize(text, 2**18))


@pytest.mark.parametrize("count", [2, 3])
def test_several_long_tokens_hash_as_the_reference(count):
    """Two or three long words finish their folds side by side, each in the
    integer loop, and hash as the byte-loop reference."""
    longs = [chr(ord("k") + i) * (20_000 + 7 * i) for i in range(count)]
    texts = [" ".join(longs), f"a {' b '.join(longs)} c", "short words"]
    for text, got in zip(texts, featurize_corpus(texts, 2**18), strict=True):
        _assert_bit_equal(got, reference_featurize(text, 2**18))


def test_token_pattern_matches_exactly_the_alphanumeric_code_points():
    pattern = encoder._TOKEN
    mismatches = [
        c for c in range(0x110000) if chr(c).isalnum() != bool(pattern.fullmatch(chr(c)))
    ]
    assert mismatches == []


@pytest.mark.parametrize("num_buckets", [0, -1, 2**63, 2**64])
def test_featurize_corpus_refuses_bucket_ids_outside_int64(num_buckets):
    with pytest.raises(ValueError, match="num_buckets"):
        featurize_corpus(["a b"], num_buckets)


def test_featurize_corpus_accepts_the_largest_int64_bucket_count():
    fv = featurize_corpus(["a"], 2**63 - 1)[0]
    assert fv.indices.tolist() == [reference_fnv1a64(b"a") % (2**63 - 1)]
    assert featurize_corpus([], 2**63 - 1) == []


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
    kept, peak = _featurize_traced([ex.text for ex in pool])
    assert peak - kept < 4 * 2**20, f"peak {peak / 2**20:.1f} MB, kept {kept / 2**20:.1f} MB"


def test_one_long_token_does_not_pad_the_byte_fold():
    words = [f"w{i}" for i in range(100)]
    _, peak = _featurize_traced([" ".join(words + ["x" * 100_000] + words)])
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_empty_is_zero_vector():
    params = init_params(8, 4, 2, 0.0, seed=0)
    fv = FeatureVector(np.empty(0, dtype=np.int64), np.empty(0))
    assert np.array_equal(encode(params, fv), np.zeros(4))


def test_encode_single_feature_is_that_row():
    params = init_params(8, 4, 2, 0.0, seed=0, buckets=range(8))
    fv = FeatureVector(np.array([3], dtype=np.int64), np.array([1.0]))
    assert np.allclose(encode(params, fv), params.embedding[params.slot[3]])


def test_encode_two_features_mean():
    params = init_params(8, 4, 2, 0.0, seed=0, buckets=range(8))
    fv = FeatureVector(np.array([1, 5], dtype=np.int64), np.array([0.5, 0.5]))
    expected = (params.embedding[params.slot[1]] + params.embedding[params.slot[5]]) / 2.0
    assert np.allclose(encode(params, fv), expected)


def test_encode_index_out_of_range():
    params = init_params(8, 4, 2, 0.0, seed=0)
    fv = FeatureVector(np.array([8], dtype=np.int64), np.array([1.0]))
    with pytest.raises(ValueError):
        encode(params, fv)


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
    fv = FeatureVector(np.array([1, 4, 6]), np.array([0.5, 0.2, 0.3]))
    target = softmax(head_forward(params, encode(params, fv)))
    _, grads, _ = backward(params, [BatchItem(fv, "ce", target)])
    for arr in (grads.w1, grads.b1, grads.w2, grads.b2, grads.emb_vals):
        assert np.all(np.abs(arr) <= 1e-12)
    assert np.array_equal(grads.emb_rows, fv.indices)


def test_backward_mean_invariance_under_duplication():
    rng = np.random.default_rng(17)
    params = small_params(rng, dropout_rate=0.0)
    items = []
    for _ in range(3):
        fv = random_features(rng, params.num_buckets)
        target = np.zeros(params.num_classes)
        target[int(rng.integers(params.num_classes))] = 1.0
        items.append(BatchItem(fv, "ce", target, weight=1.0 / 3.0))
    doubled = [
        BatchItem(it.input, it.kind, it.target, weight=it.weight / 2.0)
        for it in items
        for _ in range(2)
    ]
    loss_a, grads_a, _ = backward(params, items)
    loss_b, grads_b, _ = backward(params, doubled)
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
    items = [
        BatchItem(fv, "ce", target),
        BatchItem(fv, "pseudo"),
        BatchItem(fv, "pseudo"),
        BatchItem(fv, "rdrop"),
    ]
    total, grads, breakdown = backward(params, items, mask_seed=4)
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
    item = BatchItem(fv, "pseudo", weight=0.25)
    total, _, breakdown = backward(params, [item])
    raw, count = breakdown["pseudo"]
    assert count == 1
    assert total == pytest.approx(0.25 * raw)


def _empty() -> FeatureVector:
    """A bag with no features; it pools to the zero vector."""
    return FeatureVector(np.empty(0, dtype=np.int64), np.empty(0))


def test_evaluate_batch_rejects_unknown_kind():
    params = init_params(8, 4, 2, 0.0, seed=0)
    with pytest.raises(ValueError, match="unknown batch item kind"):
        backward(params, [BatchItem(_empty(), "nope")])


def test_evaluate_batch_requires_ce_target():
    params = init_params(8, 4, 2, 0.0, seed=0)
    with pytest.raises(ValueError, match="target"):
        backward(params, [BatchItem(_empty(), "ce")])


def test_backward_refuses_an_input_that_is_not_a_feature_vector():
    params = init_params(8, 4, 2, 0.0, seed=0)
    good = BatchItem(_empty(), "ce", np.array([1.0, 0.0]))
    dense = BatchItem(np.zeros(4), "ce", np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="position 1: input has type ndarray, not Feature"):
        backward(params, [good, dense, good])


def test_evaluate_batch_names_non_finite_term_and_position():
    params = init_params(8, 4, 2, 0.0, seed=0)
    good = BatchItem(_empty(), "ce", np.array([1.0, 0.0]))
    poisoned = BatchItem(_empty(), "ce", np.array([np.nan, 0.0]))
    with pytest.raises(NumericError, match="non-finite ce loss at batch position 1"):
        backward(params, [good, poisoned])


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
    e = encode(params, fv)
    z0 = head_forward(params, e, dropout_on=True, mask_seed=mask_seed, key=5, pass_index=0)
    z1 = head_forward(params, e, dropout_on=True, mask_seed=mask_seed, key=5, pass_index=1)
    expected = rdrop_from_probs(softmax(z0), softmax(z1))
    total, grads, _ = backward(
        params, [BatchItem(fv, "rdrop", key=5)], mask_seed=mask_seed, compute_grads=False
    )
    assert grads is None
    assert total == pytest.approx(expected, abs=1e-12)
    # pseudo with the same key sees exactly the pass-0 mask
    p0 = softmax(z0)
    expected_pseudo = -np.log(p0[int(np.argmax(p0))])
    got, _, _ = backward(params, [BatchItem(fv, "pseudo", key=5)], mask_seed=mask_seed)
    assert got == pytest.approx(expected_pseudo, abs=1e-12)


def _mixed_batch(rng: np.random.Generator, params) -> list[BatchItem]:
    """Every item shape the trainer produces, plus the awkward cases: a
    pseudo and an rdrop item sharing a key, bucket ids repeated across
    items, an empty feature vector, and a mixed bag with a soft target."""
    shared = random_features(rng, params.num_buckets)
    hard = np.zeros(params.num_classes)
    hard[int(rng.integers(params.num_classes))] = 1.0
    mixed = embmix(
        [random_features(rng, params.num_buckets)],
        random_distribution(rng, params.num_classes)[None],
        [shared],
        hard[None],
        rng.beta(0.75, 0.75, size=1),
    )

    def weight() -> float:
        return float(rng.uniform(0.2, 1.5))

    return [
        BatchItem(shared, "ce", hard, weight(), key=0),
        BatchItem(mixed.bags[0], "ce", mixed.targets[0], weight(), key=1),
        BatchItem(random_features(rng, params.num_buckets), "pseudo", weight=weight(), key=7),
        BatchItem(random_features(rng, params.num_buckets), "rdrop", weight=weight(), key=7),
        BatchItem(shared, "rdrop", weight=weight(), key=3),
        BatchItem(_empty(), "pseudo", weight=weight(), key=4),
        BatchItem(random_features(rng, params.num_buckets), "rdrop", weight=weight(), key=5),
        BatchItem(_empty(), "ce", hard, weight(), key=6),
    ]


def test_batch_equals_the_sum_of_its_items():
    rng = np.random.default_rng(61)
    for case in range(50):
        params = small_params(rng, dropout_rate=float(rng.choice([0.0, 0.3, 0.5])))
        items = _mixed_batch(rng, params)
        mask_seed = int(rng.integers(2**63))
        total, grads, breakdown = backward(params, items, mask_seed=mask_seed)

        sum_total = 0.0
        sum_breakdown: dict[str, list[float]] = {}
        head = {name: 0.0 for name in ("w1", "b1", "w2", "b2")}
        emb: dict[int, np.ndarray] = {}
        for item in items:
            t, g, b = backward(params, [item], mask_seed=mask_seed)
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
    total, grads, breakdown = backward(params, [], mask_seed=1)
    assert total == 0.0 and breakdown == {}
    assert grads.emb_rows.dtype == np.int64 and grads.emb_rows.size == 0
    assert grads.emb_vals.shape == (0, 4)
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(grads, name).shape == getattr(params, name).shape
        assert not np.any(getattr(grads, name))


def test_backward_reports_the_first_non_finite_position():
    params = init_params(8, 4, 2, 0.0, seed=0)
    good = BatchItem(_empty(), "ce", np.array([1.0, 0.0]))
    items = [
        good,
        BatchItem(_empty(), "pseudo"),
        BatchItem(FeatureVector(np.array([3]), np.array([np.nan])), "rdrop"),
        good,
        BatchItem(_empty(), "ce", np.array([np.nan, 0.0])),
    ]
    with pytest.raises(NumericError, match="non-finite rdrop loss at batch position 2"):
        backward(params, items)


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
    fv = random_features(rng, params.num_buckets)
    probe = BatchItem(fv, "rdrop", key=77)
    _, _, alone = backward(params, [probe], mask_seed=3)
    hard = np.eye(params.num_classes)[0]
    others = [BatchItem(random_features(rng, params.num_buckets), "ce", hard, key=k)
              for k in range(5)]
    _, _, crowded = backward(params, others[:3] + [probe] + others[3:], mask_seed=3)
    assert crowded["rdrop"][0] == pytest.approx(alone["rdrop"][0], rel=1e-12)
    assert alone["rdrop"][0] > 0.0


def test_backward_builds_no_generator(monkeypatch):
    rng = np.random.default_rng(81)
    params = small_params(rng, dropout_rate=0.5)
    items = _mixed_batch(rng, params)

    def forbidden(*args, **kwargs):
        raise AssertionError("backward must not construct a Generator")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    backward(params, items, mask_seed=17)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    params = init_params(8, 4, 2, 0.0, seed=0)
    before = copy.deepcopy(params)
    opt = init_optimizer(params, learning_rate=0.1)
    zero = backward(params, [BatchItem(_empty(), "ce", softmax(np.zeros(2)))])[1]
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
            _, grads, _ = backward(params, [BatchItem(fv, "ce", target)], mask_seed=3)
            adam_step(params, grads, opt)
        runs.append(params)
    a, b = runs
    for name in ("embedding", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_adam_shape_mismatch_raises():
    params = init_params(8, 4, 2, 0.0, seed=0)
    other = init_params(8, 5, 2, 0.0, seed=0)
    opt = init_optimizer(params)
    _, grads, _ = backward(other, [BatchItem(_empty(), "ce", np.array([1.0, 0.0]))])
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, grads, opt)


def test_adam_refuses_a_gradient_for_a_bucket_without_a_row():
    """Bucket 9 reads the shared zero row; training it would move every
    unowned bucket, so the step is refused before anything changes."""
    params = init_params(16, 4, 2, 0.0, seed=0, buckets=[2, 5])
    opt = init_optimizer(params, learning_rate=0.1)
    before = copy.deepcopy(params)
    fv = FeatureVector(np.array([2, 9]), np.array([0.5, 0.5]))
    grads = backward(params, [BatchItem(fv, "ce", np.array([1.0, 0.0]))])[1]
    with pytest.raises(ValueError, match="bucket 9, which owns no embedding row"):
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


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = init_params(16, 6, 3, 0.25, seed=42, buckets=[1, 4, 9, 15])
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for name in ("embedding", "w1", "b1", "w2", "b2", "slot"):
        assert np.array_equal(getattr(loaded, name), getattr(params, name))
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
    path.write_bytes(b"SMX3" + struct.pack("<qqqq", 0, 4, 2, 0))
    with pytest.raises(ValueError, match="dimensions"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "dims", [(2**40, 2**30, 2), (2**31, 2**31, 2), (10**9, 64, 4)]
)
def test_checkpoint_header_is_checked_against_the_file_size(tmp_path, dims):
    import struct

    path = tmp_path / "huge.smx"
    b, h, c = dims
    path.write_bytes(b"SMX3" + struct.pack("<qqqq", b, h, c, b) + bytes(64))
    implied = 36 + (b + 7) // 8 + 8 * (b * h + h * h + h + h * c + c + 1)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == (
        f"{path}: truncated checkpoint: its header implies {implied} bytes, "
        f"the file has 100"
    )


def test_checkpoint_rejects_non_finite(tmp_path):
    params = init_params(4, 2, 2, 0.0, seed=0)
    params.w1[0, 0] = np.nan
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    with pytest.raises(ValueError, match="non-finite"):
        load_checkpoint(path)


def test_init_params_validates_dropout():
    with pytest.raises(ValueError):
        init_params(4, 2, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        init_params(4, 2, 2, -0.1, seed=0)


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
    unowned = FeatureVector(np.array([0, 11, 63]), np.full(3, 1.0 / 3.0))
    assert np.array_equal(encode(params, unowned), np.zeros(4))
    mixed = FeatureVector(np.array([3, 11]), np.array([0.25, 0.75]))
    np.testing.assert_allclose(encode(params, mixed), 0.25 * params.embedding[1], rtol=1e-15)


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
    values = many.embedding[1:]
    assert abs(values.mean()) < 0.005 and abs(values.std() - 0.1) < 0.005


def test_init_params_refuses_buckets_out_of_range():
    for bad in ([-1], [3, 16]):
        with pytest.raises(ValueError, match="owned buckets"):
            init_params(16, 4, 2, 0.0, seed=0, buckets=bad)


def test_training_keeps_the_row_table_and_moments():
    """A model that owns its corpus's buckets trains on it in place: no new
    row table or moments, owned rows move (a row whose gradient is exactly
    zero, behind dead units, may not), and row 0 and its moments stay zero."""
    rng = np.random.default_rng(5)
    batches = [
        [
            BatchItem(random_features(rng, 3000), "ce", random_distribution(rng, 2), key=k)
            for k in range(3)
        ]
        for _ in range(6)
    ]
    features = [item.input for batch in batches for item in batch]
    params = init_params(3000, 3, 2, 0.3, seed=7, buckets=corpus_buckets(features, 3000))
    opt = init_optimizer(params, learning_rate=0.05)
    tables = (params.embedding, opt.m_emb, opt.v_emb)
    initial = params.embedding.copy()
    for batch in batches:
        adam_step(params, backward(params, batch, mask_seed=4)[1], opt)
    assert all(a is b for a, b in zip(tables, (params.embedding, opt.m_emb, opt.v_emb)))
    assert opt.m_emb.shape == params.embedding.shape
    assert (params.embedding != initial)[1:].any(axis=1).mean() > 0.5
    for table in tables:
        assert not table[0].any()


def _trained_sparse_model(rng):
    batches = [
        [
            BatchItem(random_features(rng, 2**18), "ce", random_distribution(rng, 3), key=k)
            for k in range(8)
        ]
        for _ in range(4)
    ]
    features = [item.input for items in batches for item in items]
    params = init_params(2**18, 8, 3, 0.2, seed=11, buckets=corpus_buckets(features, 2**18))
    opt = init_optimizer(params, learning_rate=0.05)
    for items in batches:
        adam_step(params, backward(params, items, mask_seed=2)[1], opt)
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
    docs.append(FeatureVector(trained[:5], np.full(5, 0.2)))
    docs.append(FeatureVector(np.sort([trained[0], 7]), np.array([0.5, 0.5])))
    assert np.array_equal(predict_logits(loaded, docs), predict_logits(params, docs))
    dense_size = 36 + 8 * (2**18 * 8 + 8 * 8 + 8 + 8 * 3 + 3 + 1)
    assert path.stat().st_size < dense_size / 10


def test_checkpoint_refuses_a_bitmap_that_disagrees_with_the_row_count(tmp_path):
    params = init_params(16, 4, 2, 0.0, seed=1, buckets=[3])
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[36] |= 0b1  # mark bucket 0 as well; the file still stores one row
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="bitmap") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_smx3_save_load_save_is_byte_identical_and_reproduces_logits(tmp_path):
    rng = np.random.default_rng(21)
    params = _trained_sparse_model(rng)
    first, second = tmp_path / "first.smx", tmp_path / "second.smx"
    save_checkpoint(params, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert first.read_bytes()[:4] == b"SMX3"
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(loaded.slot, params.slot)
    trained = np.flatnonzero(params.slot)
    docs = [FeatureVector(trained[k : k + 3], np.full(3, 1.0 / 3.0)) for k in range(0, 30, 3)]
    docs += [random_features(rng, 2**18) for _ in range(10)]
    assert np.array_equal(predict_logits(loaded, docs), predict_logits(params, docs))


def test_smx1_and_smx2_checkpoints_are_refused_by_name(tmp_path):
    path = tmp_path / "old.smx"
    for magic in ("SMX1", "SMX2"):
        path.write_bytes(magic.encode() + struct.pack("<qqq", 16, 4, 3) + bytes(64))
        with pytest.raises(ValueError, match=f"{magic} checkpoints no longer load") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and "SMX3" in str(err.value)


def test_failed_checkpoint_write_leaves_no_partial_file(tmp_path, monkeypatch):
    params = init_params(16, 4, 2, 0.0, seed=0)
    path = tmp_path / "model.smx"
    save_checkpoint(params, path)
    before = path.read_bytes()

    def failing_chunks(params):
        yield b"SMX3"
        raise OSError("disk full")

    monkeypatch.setattr(encoder, "_checkpoint_chunks", failing_chunks)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(params, path)
    assert path.read_bytes() == before  # the existing checkpoint is untouched
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(params, tmp_path / "fresh.smx")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.smx"]
