"""Selection, sharpening, mixing, loss terms, and the two training arms."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    N_CASES,
    bag,
    mask_of,
    matrix_of,
    random_distribution,
    random_features,
    without_oracle,
)
from selfmix import core, encoder
from selfmix.common import NumericError, subseed
from selfmix.core import (
    REPORT_CSV_FIELDS,
    DataSplit,
    ModelConfig,
    SelfMixConfig,
    SharedWarmup,
    class_regularize,
    accuracy,
    embmix,
    per_sample_losses,
    select_split,
    selection_prf,
    sharpen,
    train_baseline,
    train_selfmix,
    warmup,
)
from selfmix.data import Dataset, Example, one_hot
from selfmix.encoder import (
    TRAINED,
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
    predict_proba,
    rdrop_from_probs,
    save_checkpoint,
)
from selfmix.gmm import fit_gmm_trace
from selfmix.noise import inject_uniform
from selfmix.synthetic import make_corpus

TINY_MODEL = ModelConfig(num_buckets=1024, hidden=8, learning_rate=1e-2)


def buckets_of(dataset: Dataset, num_buckets: int) -> np.ndarray:
    """The buckets a model trained on ``dataset`` must own."""
    features = featurize_corpus([ex.text for ex in dataset], num_buckets)
    return corpus_buckets(features, num_buckets)


def bimodal_losses(rng: np.random.Generator, n_low: int, n_high: int):
    low = np.abs(rng.normal(0.3, 0.1, n_low))
    high = np.abs(rng.normal(3.0, 0.5, n_high))
    return np.concatenate([low, high])


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


def test_model_config_defaults():
    cfg = ModelConfig()
    assert cfg.num_buckets == 2**18
    assert cfg.hidden == 64
    assert cfg.dropout_rate == 0.3
    assert cfg.learning_rate == 1e-3


def test_selfmix_config_defaults():
    cfg = SelfMixConfig()
    assert (cfg.tau, cfg.lambda_p, cfg.lambda_r) == (0.5, 0.2, 0.3)
    assert (cfg.alpha, cfg.temperature) == (0.75, 0.5)
    assert cfg.warmup_epochs == 2 and cfg.warmup_samples is None
    assert cfg.total_epochs == 6 and cfg.batch_size == 32


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_buckets": 0},
        {"hidden": 0},
        {"dropout_rate": 1.0},
        {"dropout_rate": -0.1},
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"learning_rate": float("inf")},
        {"beta1": 1.0},
        {"beta2": -0.5},
        {"epsilon": float("nan")},
        {"epsilon": -1e-8},
    ],
)
def test_model_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ModelConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"warmup_epochs": 1, "warmup_samples": 10},
        {"warmup_epochs": None, "warmup_samples": None},
        {"batch_size": 1},
        {"tau": 0.0},
        {"tau": 1.0},
        {"temperature": 0.0},
        {"alpha": 0.0},
        {"lambda_p": -0.1},
        {"lambda_r": -0.1},
        {"total_epochs": 0},
        {"warmup_epochs": 7},
        {"warmup_epochs": None, "warmup_samples": -1},
    ],
)
def test_selfmix_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SelfMixConfig(**kwargs)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def test_select_split_separates_bimodal_losses():
    rng = np.random.default_rng(3)
    losses = bimodal_losses(rng, 60, 40)
    split = select_split(losses, 0.5)
    assert np.array_equal(split.labeled, np.arange(100) < 60)
    assert np.all(split.posteriors[split.labeled] >= 0.5)
    assert np.all(split.posteriors[~split.labeled] < 0.5)


def test_select_split_keeps_every_id_labeled_on_constant_losses():
    """Fewer than two distinct losses: no mixture is fit, every position
    keeps its label with posterior 1.0; a direct fit still refuses such values."""
    losses = np.full(4, 0.7)
    split = select_split(losses, 0.5)
    assert split.labeled.dtype == bool and split.labeled.all()
    assert np.array_equal(split.posteriors, np.ones(4))
    with pytest.raises(ValueError, match="two distinct"):
        fit_gmm_trace(losses)


def test_select_split_records_the_fit_or_none():
    rng = np.random.default_rng(5)
    losses = bimodal_losses(rng, 30, 20)
    split = select_split(losses, 0.5)
    fit = core.fit_gmm(losses)
    for name in ("means", "variances", "weights"):
        assert np.array_equal(getattr(split.gmm, name), getattr(fit, name))
    assert np.array_equal(split.posteriors, core.posterior_clean(split.gmm, losses))
    assert select_split(np.full(5, 1.25), 0.5).gmm is None


def test_select_split_partition_property():
    """The mask thresholds every posterior at tau, at any threshold."""
    rng = np.random.default_rng(13)
    for _ in range(N_CASES):
        n_low = int(rng.integers(3, 40))
        n_high = int(rng.integers(3, 40))
        losses = bimodal_losses(rng, n_low, n_high)
        tau = float(rng.uniform(0.05, 0.95))
        split = select_split(losses, tau)
        assert split.labeled.dtype == bool
        assert split.labeled.shape == split.posteriors.shape == losses.shape
        assert np.all(split.posteriors[split.labeled] >= tau)
        assert np.all(split.posteriors[~split.labeled] < tau)


def test_select_split_tau_monotonicity_property():
    """Raising tau can only move samples out of the labeled set."""
    rng = np.random.default_rng(23)
    for _ in range(N_CASES):
        losses = bimodal_losses(rng, int(rng.integers(3, 40)), int(rng.integers(3, 40)))
        taus = np.sort(rng.uniform(0.02, 0.98, size=3))
        splits = [select_split(losses, float(t)) for t in taus]
        for lower, higher in zip(splits, splits[1:]):
            assert not np.any(higher.labeled & ~lower.labeled)


def test_selection_prf_hand_case():
    precision, recall, f1 = selection_prf(mask_of(5, {1, 2, 3}), mask_of(5, {2, 3, 4}))
    assert precision == pytest.approx(2 / 3)
    assert recall == pytest.approx(2 / 3)
    assert f1 == pytest.approx(2 / 3)


def test_selection_prf_empty_denominators():
    assert selection_prf(mask_of(2, set()), mask_of(2, {1})) == (0.0, 0.0, 0.0)
    assert selection_prf(mask_of(2, {1}), mask_of(2, set())) == (0.0, 0.0, 0.0)


def test_selection_prf_refuses_masks_of_different_shapes():
    with pytest.raises(ValueError, match="differ in shape"):
        selection_prf(np.zeros(4, dtype=bool), np.zeros(5, dtype=bool))
    with pytest.raises(ValueError, match="bool masks, not ids"):
        selection_prf({1, 2, 3}, {2, 3, 4})


# ---------------------------------------------------------------------------
# Loss-view transforms
# ---------------------------------------------------------------------------


def test_sharpen_micro_example():
    out = sharpen(np.array([0.8, 0.2]), 0.5)
    assert out == pytest.approx([0.9412, 0.0588], abs=1e-4)


def test_sharpen_temperature_one_is_identity():
    p = np.array([0.1, 0.6, 0.3])
    assert np.allclose(sharpen(p, 1.0), p)


def test_sharpen_validation():
    with pytest.raises(ValueError, match="temperature"):
        sharpen(np.array([0.5, 0.5]), 0.0)
    with pytest.raises(NumericError, match="sharpen"):
        sharpen(np.array([0.0, 0.0]), 0.5)


def test_sharpen_rows_match_the_one_dimensional_call():
    rng = np.random.default_rng(31)
    for _ in range(N_CASES):
        rows = np.stack([random_distribution(rng, 5) for _ in range(int(rng.integers(1, 6)))])
        temperature = float(rng.uniform(0.1, 3.0))
        out = sharpen(rows, temperature)
        for row, sharpened in zip(rows, out):
            assert np.array_equal(sharpened, sharpen(row, temperature))


def test_sharpen_names_the_one_bad_row_among_good_ones():
    rows = np.array([[0.8, 0.2], [0.5, 0.5], [0.0, 0.0], [0.3, 0.7]])
    with pytest.raises(NumericError, match="sharpen: distribution 2 "):
        sharpen(rows, 0.5)
    rows[2] = [np.nan, 0.5]
    with pytest.raises(NumericError, match="sharpen: distribution 2 "):
        sharpen(rows, 0.5)


def test_sharpen_simplex_property():
    rng = np.random.default_rng(29)
    for _ in range(N_CASES):
        p = random_distribution(rng, int(rng.integers(2, 8)))
        temperature = float(rng.uniform(0.1, 3.0))
        out = sharpen(p, temperature)
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) <= 1e-9
        if temperature < 1.0:  # sharpening concentrates mass on the argmax
            assert out.max() >= p.max() - 1e-12
        assert int(np.argmax(out)) == int(np.argmax(p))


def item_loss(params, item: np.recarray, features) -> float:
    """The dropout-off loss ``backward`` gives the one-item batch ``item``."""
    return backward(params, item, features)[0]


def ce_at(params, e: np.ndarray, target: np.ndarray) -> float:
    """Dropout-off cross-entropy of the head at the pooled input ``e``."""
    return float(-(target * log_softmax(head_forward(params, e))).sum())


def test_embmix_coefficients_and_dominance():
    rng = np.random.default_rng(37)
    for _ in range(N_CASES):
        m = int(rng.integers(1, 8))
        num_classes = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 10))
        params = init_params(
            32, hidden, num_classes, 0.0, seed=int(rng.integers(2**31)), buckets=range(32)
        )
        bags_a = [random_features(rng, 32) for _ in range(m)]
        bags_b = [random_features(rng, 32) for _ in range(m)]
        labels_a = rng.integers(0, num_classes, size=m)
        labels_b = rng.integers(0, num_classes, size=m)
        targets_a = one_hot(labels_a, num_classes)
        targets_b = one_hot(labels_b, num_classes)
        lam = rng.beta(0.75, 0.75, size=m)
        features = matrix_of(bags_a + bags_b)
        rows = np.arange(m)
        mixed = embmix(rows, targets_a, m + rows, targets_b, lam)
        mixed_lam, mixed_targets = mixed.lam, mixed.target
        assert np.all(mixed_lam >= 0.5) and np.all(mixed_lam <= 1.0)
        assert np.allclose(mixed_lam, np.maximum(lam, 1.0 - lam))
        assert np.all(mixed_targets >= 0.0)
        assert np.all(np.abs(mixed_targets.sum(axis=1) - 1.0) <= 1e-9)
        assert len(mixed) == m
        for k, item in enumerate(mixed):
            assert (item.kind, item.row, item.partner) == ("ce", k, m + k)
            expected = (
                item.lam * encode(params, bags_a[k])[0]
                + (1 - item.lam) * encode(params, bags_b[k])[0]
            )
            loss = item_loss(params, mixed[k : k + 1], features)
            assert np.isclose(loss, ce_at(params, expected, item.target))
            if labels_a[k] != labels_b[k] and item.lam > 0.5:
                assert int(np.argmax(item.target)) == int(labels_a[k])


def test_mixed_item_reads_and_trains_as_its_parents_concatenated_bag():
    """A mixed item pools to lam' * e(a) + (1 - lam') * e(b); its loss and
    every gradient equal those of a plain item on the parents' bags
    concatenated, their weights scaled by lam' and 1 - lam'."""
    params = init_params(64, 8, 2, 0.0, seed=3, buckets=range(64))
    a = featurize_text("red apple pie red", 64)
    b = featurize_text("apple tart blue sky", 64)
    merged = bag(
        np.concatenate([a.indices, b.indices]), np.concatenate([0.7 * a.weights, 0.3 * b.weights])
    )
    features = matrix_of([a, b, merged])
    targets = np.eye(2)
    mixed = embmix([0], targets[:1], [1], targets[1:], np.array([0.7]))
    expected = 0.7 * encode(params, a)[0] + 0.3 * encode(params, b)[0]
    assert item_loss(params, mixed, features) == pytest.approx(
        ce_at(params, expected, mixed.target[0]), rel=1e-12
    )
    plain = make_batch([2], "ce", target=mixed.target, key=mixed.key)
    got, want = (backward(params, items, features) for items in (mixed, plain))
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    assert np.array_equal(got[1].emb_rows, want[1].emb_rows)
    for name in ("emb_vals", "w1", "b1", "w2", "b2"):
        np.testing.assert_allclose(
            getattr(got[1], name), getattr(want[1], name), rtol=1e-12, atol=1e-15
        )


def test_mixup_loss_trains_the_embedding_table():
    """With the confidence and agreement terms off, only the mixup loss
    trains an adaptive epoch; it must still reach the embedding rows."""
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(
        total_epochs=1, warmup_epochs=0, batch_size=16, seed=5, lambda_p=0.0, lambda_r=0.0
    )
    report = train_selfmix(corrupted, test, TINY_MODEL, cfg)
    initial = init_params(
        TINY_MODEL.num_buckets, TINY_MODEL.hidden, corrupted.num_classes,
        TINY_MODEL.dropout_rate, subseed(cfg.seed, "init"),
        buckets=buckets_of(corrupted, TINY_MODEL.num_buckets),
    )
    assert not np.array_equal(report.final_params.embedding, initial.embedding)


def test_embmix_boundary_coefficients():
    # bucket 0 pools to [1, 0] and bucket 1 to [0, 1]
    params = init_params(2, 2, 2, 0.0, seed=0, buckets=[0, 1])
    params.embedding[params.slot] = np.eye(2)
    features = matrix_of([bag(np.array([b]), np.array([1.0])) for b in (0, 1)])
    ta = np.array([[1.0, 0.0]])
    tb = np.array([[0.0, 1.0]])
    # lam folds to max(lam, 1-lam): both 0 and 1 give the first parent
    for lam in (0.0, 1.0):
        mixed = embmix([0], ta, [1], tb, np.array([lam]))
        assert mixed.lam[0] == 1.0
        first = make_batch([0], "ce", target=ta[0], key=0)
        assert item_loss(params, mixed, features) == item_loss(params, first, features)
        assert np.array_equal(mixed.target[0], ta[0])
    halfway = embmix([0], ta, [1], tb, np.array([0.5]))
    assert np.isclose(
        item_loss(params, halfway, features),
        ce_at(params, np.array([0.5, 0.5]), halfway.target[0]),
    )


def test_embmix_refuses_unequal_lengths():
    rows = np.array([0, 1])
    targets = np.eye(2)
    lam = np.array([0.3, 0.8])
    with pytest.raises(ValueError, match="equal numbers of rows"):
        embmix(rows, targets, rows[:1], targets, lam)
    with pytest.raises(ValueError, match="equal numbers of rows"):
        embmix(rows, targets[:1], rows, targets, lam)
    with pytest.raises(ValueError, match="equal numbers of rows"):
        embmix(rows, targets, rows, targets, lam[:1])


def constant_model(p):
    """A dropout-free model that predicts the distribution ``p`` for every input."""
    p = np.asarray(p, dtype=np.float64)
    params = init_params(8, 4, p.size, 0.0, seed=0)
    params.w2[:] = 0.0
    params.b2[:] = np.log(np.maximum(p, 1e-300))
    return params


def mean_pseudo(p, copies: int = 1) -> float:
    """Mean confidence term of ``backward`` over ``copies`` items predicting ``p``."""
    empty = bag(np.empty(0, dtype=np.int64), np.empty(0))
    rows = np.zeros(copies, dtype=np.int64)
    items = make_batch(rows, "pseudo", key=np.arange(copies), target=np.zeros(np.size(p)))
    _, _, breakdown = backward(constant_model(p), items, empty, mask_seed=3)
    raw, count = breakdown["pseudo"]
    return raw / count


def test_pseudo_loss_values():
    empty_batch = make_batch([], "pseudo", key=[], target=np.zeros(2))
    total, _, breakdown = backward(constant_model([0.5, 0.5]), empty_batch, matrix_of([]))
    assert total == 0.0 and breakdown == {}
    assert mean_pseudo([1.0, 0.0]) == 0.0
    assert mean_pseudo([0.25, 0.75]) == pytest.approx(-np.log(0.75))
    assert mean_pseudo(np.full(4, 0.25), copies=2) == pytest.approx(np.log(4.0))


def test_rdrop_loss_micro_example():
    value = rdrop_from_probs(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
    assert value == pytest.approx(1.7578, abs=1e-4)


def test_loss_terms_non_negative_property():
    """Mix, confidence, and agreement terms are all non-negative; the
    agreement term vanishes exactly when dropout is off."""
    rng = np.random.default_rng(43)
    for _ in range(N_CASES):
        num_classes = int(rng.integers(2, 6))
        p1 = random_distribution(rng, num_classes)
        p2 = random_distribution(rng, num_classes)
        assert rdrop_from_probs(p1, p2) >= 0.0
        assert rdrop_from_probs(p1, p1) == 0.0
        assert mean_pseudo(p1) >= 0.0 and mean_pseudo(p2) >= 0.0

        params = init_params(64, 4, num_classes, 0.0, seed=int(rng.integers(2**31)))
        features = matrix_of([random_features(rng, 64) for _ in range(2)])
        targets = np.stack([p1, p2])
        rows = np.array([0, 1])
        mix_items = embmix(
            rows, targets, rows[::-1], targets[::-1], rng.beta(0.75, 0.75, 2), weight=0.5
        )
        mix, _, _ = backward(params, mix_items, features)
        assert mix >= 0.0

        fv = featurize_corpus(["alpha beta gamma"], 64)
        rdrop = make_batch([0], "rdrop", key=0, target=p1)
        loss, _, _ = backward(params, rdrop, fv, mask_seed=7)
        assert loss == 0.0  # dropout_rate 0: both passes identical


# ---------------------------------------------------------------------------
# Class-conditional standardization
# ---------------------------------------------------------------------------


def test_class_regularize_micro_example():
    out = class_regularize(np.array([1.0, 2.0, 3.0]), np.array([0, 0, 0]))
    assert out == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)


def test_class_regularize_constant_class_maps_to_zero():
    out = class_regularize(np.array([2.0, 2.0, 5.0]), np.array([0, 0, 1]))
    assert out[0] == 0.0 and out[1] == 0.0 and out[2] == 0.0


def test_class_regularize_validation():
    with pytest.raises(ValueError, match="matching shapes"):
        class_regularize(np.array([1.0]), np.array([0, 1]))
    with pytest.raises(ValueError, match="non-negative"):
        class_regularize(np.array([1.0]), np.array([-1]))
    with pytest.raises(ValueError, match="outside"):
        class_regularize(np.array([1.0, 2.0]), np.array([0, 3]), num_classes=2)


def test_class_regularize_moments_property():
    """Each non-degenerate class is standardized to zero mean and unit
    population variance; class membership alone decides the transform."""
    rng = np.random.default_rng(47)
    for _ in range(N_CASES):
        n = int(rng.integers(4, 80))
        num_classes = int(rng.integers(2, 5))
        labels = rng.integers(0, num_classes, size=n)
        losses = rng.normal(
            loc=rng.uniform(0, 5, size=num_classes)[labels],
            scale=rng.uniform(0.1, 2.0, size=num_classes)[labels],
        )
        out = class_regularize(losses, labels, num_classes)
        assert out.shape == losses.shape
        for c in range(num_classes):
            member = labels == c
            if member.sum() >= 2 and np.unique(losses[member]).size > 1:
                assert abs(out[member].mean()) <= 1e-9
                assert abs(out[member].std() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Losses over a dataset
# ---------------------------------------------------------------------------


def test_per_sample_losses_match_manual():
    train, _ = make_corpus(12, 4, 2, seed=6)
    params = init_params(256, 4, 2, 0.0, seed=1, buckets=range(256))
    losses = per_sample_losses(params, train)
    assert losses.shape == (12,)
    for i, ex in enumerate(train):
        p = predict_proba(params, featurize_text(ex.text, 256))[0]
        assert losses[i] == pytest.approx(-np.log(p[ex.observed_label]))
    assert np.all(losses >= 0.0)


def test_scoring_refuses_a_feature_matrix_of_another_row_count():
    """Losses and accuracy need one feature row per example: a longer matrix
    would score only its first rows, a shorter one fail mid-index."""
    train, _ = make_corpus(40, 4, 2, seed=6)
    params = init_params(256, 4, 2, 0.0, seed=1, buckets=range(256))
    texts = [ex.text for ex in train]
    labels = train.observed_labels()
    for rows in (52, 5):
        features = featurize_corpus((texts * 2)[:rows], 256)
        with pytest.raises(ValueError, match=f"has {rows} rows for 40 examples"):
            per_sample_losses(params, train, features)
        with pytest.raises(ValueError, match=f"has {rows} rows for 40 labels"):
            accuracy(params, features, labels)
    features = featurize_corpus(texts, 256)
    assert per_sample_losses(params, train, features).shape == (40,)
    assert 0.0 <= accuracy(params, features, labels) <= 1.0
    with pytest.raises(ValueError, match="has 0 rows for 40 labels"):
        accuracy(params, featurize_corpus([], 256), labels)


def test_batched_losses_match_the_per_document_path():
    """Scoring with features runs batched forward passes; it agrees with the
    per-document path, across a partial last chunk, an empty text and a
    one-token text."""
    train, _ = make_corpus(2 * encoder._EVAL_CHUNK + 35, 3, 3, seed=9)
    texts = [ex.text for ex in train] + ["", "lonely"]
    labels = [ex.observed_label for ex in train] + [0, 2]
    data = Dataset(tuple(Example(i, t, y) for i, (t, y) in enumerate(zip(texts, labels))), 3)
    assert len(data) % encoder._EVAL_CHUNK
    params = init_params(2**17, 16, 3, 0.3, seed=4, buckets=buckets_of(data, 2**17))
    features = featurize_corpus(texts, params.num_buckets)
    opt = init_optimizer(params, learning_rate=1e-2)
    warmup(params, opt, features, data.observed_labels(), epochs=1, seed=4)
    batched = per_sample_losses(params, data, features)
    single = per_sample_losses(params, data)
    np.testing.assert_allclose(batched, single, rtol=1e-12)
    assert np.all(batched > 0.0)


def test_per_document_losses_raise_for_a_diverged_model():
    """Without features, each document is scored on its own; an overflowing
    forward pass raises as the batched path does, instead of giving NaN."""
    train, _ = make_corpus(10, 4, 2, seed=6)
    params = init_params(256, 4, 2, 0.0, seed=1, buckets=buckets_of(train, 256))
    params.w1[:] = 1e200
    params.w2[:] = 1e200
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"^non-finite logits for document \d+ of 10$"):
            per_sample_losses(params, train)


# ---------------------------------------------------------------------------
# Warm-up
# ---------------------------------------------------------------------------


def test_warmup_reduces_training_loss():
    train, _ = make_corpus(800, 200, 4, seed=0)
    params = init_params(2**16, 48, 4, 0.3, seed=5, buckets=buckets_of(train, 2**16))
    features = featurize_corpus([ex.text for ex in train], params.num_buckets)
    before = per_sample_losses(params, train, features).mean()
    opt = init_optimizer(params, learning_rate=1e-3)
    warmup(params, opt, features, train.observed_labels(), epochs=2, seed=5)
    after = per_sample_losses(params, train, features).mean()
    assert after < before
    assert opt.step > 0


def test_warmup_matches_the_plain_arm_bit_for_bit():
    """The IDN auxiliary model's trainer and the plain arm run one epoch loop:
    the same init, seed and features give bit-identical parameters."""
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=2, warmup_epochs=2, batch_size=16, seed=5)
    report = train_baseline(corrupted, test, TINY_MODEL, cfg)
    params = init_params(
        TINY_MODEL.num_buckets,
        TINY_MODEL.hidden,
        corrupted.num_classes,
        TINY_MODEL.dropout_rate,
        subseed(cfg.seed, "init"),
        buckets=buckets_of(corrupted, TINY_MODEL.num_buckets),
        dtype=np.float32,  # as a run's model
    )
    opt = init_optimizer(params, learning_rate=TINY_MODEL.learning_rate)
    features = featurize_corpus([ex.text for ex in corrupted], TINY_MODEL.num_buckets)
    labels = corrupted.observed_labels()
    warmup(params, opt, features, labels, epochs=2, batch_size=16, seed=cfg.seed)
    for name in ("embedding", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(params, name), getattr(report.final_params, name))


def test_warmup_sample_budget_counts_examples():
    train, test = make_corpus(10, 4, 2, seed=1)
    cfg = SelfMixConfig(
        warmup_epochs=None, warmup_samples=7, total_epochs=1, batch_size=4, seed=0
    )
    report = train_selfmix(train, test, TINY_MODEL, cfg, eval_every=1)
    # 7 examples in batches of 4 -> 2 optimizer steps
    assert [step for step, _ in report.step_acc] == [1, 2]


# ---------------------------------------------------------------------------
# Training arms
# ---------------------------------------------------------------------------


def small_noisy_problem(seed=0):
    train, test = make_corpus(60, 20, 2, seed=seed)
    corrupted, _ = inject_uniform(train, 0.2, seed=seed + 1)
    return corrupted, test


def test_a_run_trains_float32_state_that_its_checkpoint_keeps_bit_for_bit(
    tmp_path, monkeypatch
):
    """The trained arrays and Adam moments of a run are float32. A saved and
    reloaded model has the same bytes in the same dtype, saves to the same
    file again, and scores every document exactly as the trained one."""
    states = []

    def recording_init_optimizer(*args, **kwargs):
        states.append(init_optimizer(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(core, "init_optimizer", recording_init_optimizer)
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=3, warmup_epochs=1, batch_size=16, seed=5)
    params = train_selfmix(corrupted, test, TINY_MODEL, cfg).final_params
    (opt,) = states
    assert opt.step > 0
    for name in TRAINED:
        assert getattr(params, name).dtype == np.float32, name
        assert opt.m[name].dtype == opt.v[name].dtype == np.float32, name
    first, second = tmp_path / "first.smx", tmp_path / "second.smx"
    save_checkpoint(params, first)
    loaded = load_checkpoint(first)
    for name in TRAINED:
        got, want = getattr(loaded, name), getattr(params, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    features = featurize_corpus([ex.text for ex in corrupted], TINY_MODEL.num_buckets)
    reloaded = per_sample_losses(loaded, corrupted, features)
    assert reloaded.tobytes() == per_sample_losses(params, corrupted, features).tobytes()


def test_each_arm_owns_its_training_buckets_and_never_trains_row_0():
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=3, warmup_epochs=1, batch_size=16, seed=5)
    owned = buckets_of(corrupted, TINY_MODEL.num_buckets)
    for train in (train_baseline, train_selfmix):
        params = train(corrupted, test, TINY_MODEL, cfg).final_params
        assert np.array_equal(np.flatnonzero(params.slot), owned)
        assert params.embedding.shape == (1 + owned.size, TINY_MODEL.hidden)
        assert not params.embedding[0].any()


def test_arms_coincide_while_warming_up():
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=2, warmup_epochs=2, batch_size=16, seed=5)
    base = train_baseline(corrupted, test, TINY_MODEL, cfg)
    mix = train_selfmix(corrupted, test, TINY_MODEL, cfg)
    assert base.per_epoch == mix.per_epoch
    assert base.step_acc == mix.step_acc
    for name in ("embedding", "w1", "b1", "w2", "b2"):
        assert np.array_equal(
            getattr(base.final_params, name), getattr(mix.final_params, name)
        )


def test_arms_continue_a_shared_warmup_as_if_each_ran_alone():
    """Each arm continues the shared warm-up on arrays of its own, and a
    trainer given other inputs is refused."""
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=4, warmup_epochs=2, batch_size=16, seed=5)
    with SharedWarmup() as shared:
        base = train_baseline(corrupted, test, TINY_MODEL, cfg, eval_every=3, shared=shared)
        with pytest.raises(ValueError, match="inputs it was built from"):
            train_selfmix(corrupted, test, TINY_MODEL, cfg, eval_every=4, shared=shared)
        mix = train_selfmix(corrupted, test, TINY_MODEL, cfg, eval_every=3, shared=shared)
    for shared_report, alone in (
        (base, train_baseline(corrupted, test, TINY_MODEL, cfg, eval_every=3)),
        (mix, train_selfmix(corrupted, test, TINY_MODEL, cfg, eval_every=3)),
    ):
        assert shared_report.per_epoch == alone.per_epoch
        assert shared_report.step_acc == alone.step_acc
        for a, b in zip(shared_report.per_epoch_losses, alone.per_epoch_losses):
            assert np.array_equal(a, b)
        for name in ("embedding", "w1", "b1", "w2", "b2"):
            assert np.array_equal(
                getattr(shared_report.final_params, name), getattr(alone.final_params, name)
            )
    assert base.final_params.embedding is not mix.final_params.embedding
    assert base.per_epoch[2] != mix.per_epoch[2]


def test_a_resumed_run_copies_the_branch_point_onto_arrays_of_its_own():
    """The second resume gets the first run's state at the end of the shared
    warm-up: equal trained arrays and Adam moments on fresh, writable
    memory, the same step count, and records that are equal but its own."""
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=4, warmup_epochs=2, batch_size=16, seed=5)
    inputs = (corrupted, test, TINY_MODEL, cfg, 3)
    with SharedWarmup() as shared:
        first = shared.resume(*inputs)
        second = shared.resume(*inputs)
        spill = shared._spill
        assert not spill.closed
    assert spill.closed

    def trained(run):
        return [getattr(run.params, name) for name in TRAINED] + [
            moments[name] for moments in (run.opt.m, run.opt.v) for name in TRAINED
        ]

    for a, b in zip(trained(first), trained(second), strict=True):
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b)
        assert b.flags.writeable
    assert first.opt.step == second.opt.step == first.global_step == second.global_step > 0
    assert first.step_acc and first.per_epoch and first.loss_snapshots
    for name in ("step_acc", "warnings", "per_epoch", "loss_snapshots"):
        assert getattr(first, name) is not getattr(second, name)
    assert first.step_acc == second.step_acc
    assert first.warnings == second.warnings
    assert first.per_epoch == second.per_epoch
    for a, b in zip(first.loss_snapshots, second.loss_snapshots, strict=True):
        assert np.array_equal(a, b) and not np.shares_memory(a, b)


def test_per_sample_losses_run_once_per_parameter_state(monkeypatch):
    """The losses snapshotted after an epoch are the ones the next adaptive
    epoch selects on, so each of the 6 epochs costs one full pass."""
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=6, warmup_epochs=2, batch_size=16, seed=5)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return per_sample_losses(*args, **kwargs)

    monkeypatch.setattr(core, "per_sample_losses", counting)
    recorded = train_selfmix(corrupted, test, TINY_MODEL, cfg)
    assert len(calls) == 6
    assert len(recorded.per_epoch_losses) == 6


def test_adaptive_epochs_encode_only_the_unlabeled_members(monkeypatch):
    """Only a pseudo-label guess needs a document's own forward pass: each
    adaptive epoch pools its N - labeled_count unlabeled members once."""
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=4, warmup_epochs=1, batch_size=16, seed=5)
    calls: list[int] = []
    real_guess, real_epoch = core._Run.guess, core._Run.selfmix_epoch

    def counting_guess(self, members):
        calls[-1] += len(members)
        return real_guess(self, members)

    def counting_epoch(self, epoch):
        calls.append(0)
        return real_epoch(self, epoch)

    monkeypatch.setattr(core._Run, "guess", counting_guess)
    monkeypatch.setattr(core._Run, "selfmix_epoch", counting_epoch)
    report = train_selfmix(corrupted, test, TINY_MODEL, cfg)
    expected = [len(corrupted) - row.labeled_count for row in report.per_epoch[1:]]
    assert calls == expected
    assert 0 < sum(calls) < 3 * len(corrupted)


def test_a_selfmix_batch_without_unlabeled_members_holds_only_ce_rows(monkeypatch):
    """Selection leaves one training position unlabeled. The adaptive batch
    holding it gets a pseudo and an rdrop row on it; every other adaptive
    batch is its mixup rows alone."""
    corrupted, test = small_noisy_problem()
    n = len(corrupted)
    unlabeled = mask_of(n, [3])
    monkeypatch.setattr(
        core, "select_split", lambda losses, tau: DataSplit(~unlabeled, np.ones(n), None)
    )
    batches = []

    def recording(params, items, features, **kwargs):
        batches.append(items.copy())
        return backward(params, items, features, **kwargs)

    monkeypatch.setattr(core, "backward", recording)
    cfg = SelfMixConfig(total_epochs=2, warmup_epochs=1, batch_size=16, seed=5)
    train_selfmix(corrupted, test, TINY_MODEL, cfg)
    adaptive = batches[-(-n // 16) :]
    assert len(batches) == 2 * len(adaptive)
    for items in adaptive:
        mixup = items.kind == "ce"
        assert np.all(items.key[mixup] >= core._MIX_KEY_BASE)
        if 3 in items.row[mixup]:
            assert items.kind[~mixup].tolist() == ["pseudo", "rdrop"]
            assert items.row[~mixup].tolist() == [3, 3]
        else:
            assert mixup.all()
    assert sum(not np.all(items.kind == "ce") for items in adaptive) == 1


def test_train_selfmix_report_shape():
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=4, warmup_epochs=2, batch_size=16, seed=5)
    report = train_selfmix(corrupted, test, TINY_MODEL, cfg, eval_every=2)
    assert report.epochs == 4 and len(report.per_epoch) == 4
    assert 0.0 <= report.last_acc <= 1.0
    assert report.best_acc == max(s.test_acc for s in report.per_epoch)
    assert report.last_acc == report.per_epoch[-1].test_acc
    # warm-up rows: no selection happened yet
    for row in report.per_epoch[:2]:
        assert row.sel_f1 == 0.0 and row.labeled_count == len(corrupted)
    for row in report.per_epoch[2:]:
        assert 0 <= row.labeled_count <= len(corrupted)
        assert row.l_mix >= 0.0 and row.l_p >= 0.0 and row.l_r >= 0.0
    assert report.step_acc and all(step % 2 == 0 for step, _ in report.step_acc)


def test_train_report_serialization_contract():
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=3, warmup_epochs=1, batch_size=16, seed=2)
    report = train_selfmix(corrupted, test, TINY_MODEL, cfg)
    payload = report.as_dict()
    assert set(payload) == {"epochs", "best_acc", "last_acc", "per_epoch"}
    assert len(payload["per_epoch"]) == 3
    row_keys = {
        "test_acc", "sel_precision", "sel_recall", "sel_f1",
        "l_mix", "l_p", "l_r", "labeled_count",
    }
    assert all(set(row) == row_keys for row in payload["per_epoch"])
    rows = report.csv_rows()
    assert rows[0] == list(REPORT_CSV_FIELDS)
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == [0, 1, 2]


def test_warmup_sample_mode_schedules_partial_passes():
    corrupted, test = small_noisy_problem()
    n = len(corrupted)
    cfg = SelfMixConfig(
        warmup_epochs=None, warmup_samples=n + n // 2,
        total_epochs=4, batch_size=16, seed=3,
    )
    report = train_selfmix(corrupted, test, TINY_MODEL, cfg)
    assert report.epochs == 4
    # two warm-up rows (one full + one partial pass), then adaptive epochs
    assert [row.labeled_count for row in report.per_epoch[:2]] == [n, n]
    assert report.per_epoch[2].l_mix > 0.0


def test_warmup_sample_mode_rejects_overlong_budget():
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(
        warmup_epochs=None, warmup_samples=10 * len(corrupted),
        total_epochs=3, batch_size=16, seed=3,
    )
    with pytest.raises(ValueError, match="spans more passes"):
        train_selfmix(corrupted, test, TINY_MODEL, cfg)


def test_warmup_schedule_spreads_a_sample_budget_over_passes():
    def schedule(samples, size):
        cfg = SelfMixConfig(warmup_epochs=None, warmup_samples=samples, total_epochs=3)
        return core.warmup_schedule(cfg, size)

    assert schedule(7, 10) == [7]
    assert schedule(20, 10) == [None, None]
    assert schedule(25, 10) == [None, None, 5]
    assert schedule(0, 10) == []
    assert schedule(5, 0) == []  # an empty training set has no pass to spend it on
    assert core.warmup_schedule(SelfMixConfig(warmup_epochs=2), 10) == [None, None]
    with pytest.raises(ValueError, match="spans more passes"):
        schedule(31, 10)


def test_numeric_failure_names_epoch_and_batch():
    corrupted, test = small_noisy_problem()
    diverging = ModelConfig(num_buckets=512, hidden=8, learning_rate=1e200)
    cfg = SelfMixConfig(total_epochs=2, warmup_epochs=1, batch_size=16, seed=1)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+:"):
            train_baseline(corrupted, test, diverging, cfg)


@pytest.mark.parametrize("trainer", [train_baseline, train_selfmix])
def test_trainers_refuse_eval_every_below_one(trainer):
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=1, warmup_epochs=1, batch_size=16, seed=5)
    with pytest.raises(ValueError, match="eval_every must be at least 1"):
        trainer(corrupted, test, TINY_MODEL, cfg, eval_every=0)


@pytest.mark.parametrize("label", [-1, 2])
def test_a_label_outside_the_classes_raises_instead_of_wrapping(label):
    train, test = make_corpus(20, 8, 2, seed=0)
    bad = Dataset(
        tuple(Example(ex.id, ex.text, label if ex.id == 3 else ex.observed_label) for ex in train), 2
    )
    cfg = SelfMixConfig(total_epochs=1, warmup_epochs=1, batch_size=16, seed=5)
    with pytest.raises(ValueError, match=f"label {label} out of range"):
        train_baseline(bad, test, TINY_MODEL, cfg)
    params = init_params(TINY_MODEL.num_buckets, TINY_MODEL.hidden, 2, 0.0, seed=0)
    features = featurize_corpus([ex.text for ex in bad], TINY_MODEL.num_buckets)
    with pytest.raises(ValueError, match=f"label {label} out of range"):
        warmup(params, init_optimizer(params), features, bad.observed_labels(), epochs=1)


def test_non_finite_guess_names_epoch_and_batch():
    """A NaN row among a batch's pseudo-label guesses raises NumericError
    naming the epoch and the batch that holds the document."""
    train, test = make_corpus(60, 20, 2, seed=0)
    # each text ends in a word of its own, so one document's features can be poisoned alone
    tagged = Dataset(
        tuple(Example(ex.id, f"{ex.text} solo{ex.id}", ex.observed_label) for ex in train), 2
    )
    corrupted, _ = inject_uniform(tagged, 0.2, seed=1)
    cfg = SelfMixConfig(total_epochs=2, warmup_epochs=1, batch_size=16, seed=5)
    run = core._Run(corrupted, test, TINY_MODEL, cfg, eval_every=50)
    run.ce_epoch(0)
    split = select_split(run.losses(), cfg.tau)  # the epoch reuses these cached losses
    target = int(np.flatnonzero(~split.labeled)[0])
    others = run.features.take(np.delete(np.arange(len(corrupted)), target)).indices
    own = np.setdiff1d(run.features.take([target]).indices, others)
    run.params.embedding[run.params.slot[own[0]]] = np.nan
    batches = core._shuffled_batches(len(corrupted), cfg.batch_size, cfg.seed, 1)
    b = next(b for b, members in enumerate(batches) if target in members)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=rf"^epoch 1, batch {b}: non-finite logits"):
            run.selfmix_epoch(1)


def test_oracle_channel_does_not_steer_training():
    corrupted, test = small_noisy_problem()
    cfg = SelfMixConfig(total_epochs=3, warmup_epochs=1, batch_size=16, seed=8)
    with_oracle = train_selfmix(corrupted, test, TINY_MODEL, cfg)
    without = train_selfmix(without_oracle(corrupted), test, TINY_MODEL, cfg)
    assert with_oracle.best_acc == without.best_acc
    assert with_oracle.last_acc == without.last_acc
    assert with_oracle.step_acc == without.step_acc
    for a, b in zip(with_oracle.per_epoch, without.per_epoch):
        assert (a.test_acc, a.l_mix, a.l_p, a.l_r, a.labeled_count) == (
            b.test_acc, b.l_mix, b.l_p, b.l_r, b.labeled_count
        )
    for name in ("embedding", "w1", "b1", "w2", "b2"):
        assert np.array_equal(
            getattr(with_oracle.final_params, name), getattr(without.final_params, name)
        )
    # the oracle shows up only in the selection metrics
    assert any(s.sel_f1 > 0.0 for s in with_oracle.per_epoch)
    assert all(s.sel_f1 == 0.0 for s in without.per_epoch)


def test_clean_data_parity_between_arms():
    """On clean labels the adaptive arm neither helps nor hurts much, and the
    plain arm does not collapse: best and last stay close."""
    train, test = make_corpus(800, 200, 4, seed=0)
    model = ModelConfig(num_buckets=2**16, hidden=48)
    cfg = SelfMixConfig(
        total_epochs=6, warmup_epochs=2, seed=3, lambda_p=0.0, lambda_r=0.0, tau=0.01
    )
    base = train_baseline(train, test, model, cfg)
    mix = train_selfmix(train, test, model, cfg)
    assert abs(mix.last_acc - base.last_acc) <= 0.02
    assert base.best_acc - base.last_acc <= 0.02


def test_class_regularized_selection_runs():
    corrupted, test = small_noisy_problem(seed=9)
    cfg = SelfMixConfig(
        total_epochs=3, warmup_epochs=1, batch_size=16, seed=6, class_regularize=True
    )
    report = train_selfmix(corrupted, test, TINY_MODEL, cfg)
    assert report.epochs == 3


def test_subseed_streams_are_stable_and_distinct():
    assert subseed(7, "shuffle", 0) == subseed(7, "shuffle", 0)
    assert subseed(7, "shuffle", 0) != subseed(7, "shuffle", 1)
    assert subseed(7, "shuffle", 0) != subseed(7, "dropout", 0)
    assert subseed(7, "shuffle", 0) != subseed(8, "shuffle", 0)
