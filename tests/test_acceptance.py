"""Acceptance gate: one test per release criterion.

Each test is self-contained and runs a complete protocol at its stated
tolerance, so ``pytest -v tests/test_acceptance.py`` prints one pass/fail
line per criterion.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import (
    N_CASES,
    bag,
    finite_difference,
    grad_lookup,
    joined,
    mask_of,
    matrix_of,
    param_arrays,
    random_distribution,
    random_features,
    relative_error,
    small_params,
    without_oracle,
)
from selfmix.common import round_half_up
from selfmix.core import (
    ModelConfig,
    SelfMixConfig,
    class_regularize,
    embmix,
    select_split,
    selection_prf,
    sharpen,
    train_baseline,
    train_selfmix,
)
from selfmix.data import one_hot
from selfmix.encoder import (
    backward,
    featurize_corpus,
    init_params,
    make_batch,
    rdrop_from_probs,
)
from selfmix.gmm import fit_gmm_trace
from selfmix.harness import emit_loss_histogram
from selfmix.noise import (
    TransitionMap,
    inject,
    inject_asymmetric,
    inject_instance_dependent,
    inject_uniform,
)
from selfmix.synthetic import make_corpus, make_labeled_pool

GRAD_STEP = 1e-6
GRAD_TOL = 1e-5


def _composite_instance(rng: np.random.Generator):
    """A small model plus one batch, on rows of one feature matrix, touching
    every loss term.

    The batch carries an observed-label item, two mixed-pair items (the
    items :func:`embmix` builds on two parent rows each, with interpolated
    soft targets), and confidence/agreement items, so one finite-difference
    sweep certifies each term and their weighted sum at once, the mixup
    gradient into the parents' embedding rows included.
    """
    params = small_params(rng, max_buckets=48, max_hidden=10, max_classes=4)
    num_classes = params.num_classes

    def features():
        n = int(rng.integers(1, 5))
        idx = np.sort(rng.choice(params.num_buckets, size=n, replace=False))
        w = rng.uniform(0.2, 1.0, size=n)
        return bag(idx.astype(np.int64), w / w.sum())

    bags = [features()]
    observed = make_batch(
        [0],
        "ce",
        target=one_hot(np.array([rng.integers(num_classes)]), num_classes)[0],
        weight=float(rng.uniform(0.3, 1.2)),
        key=0,
    )
    bags += [features() for _ in range(4)]  # rows 1 and 2 mix with rows 3 and 4
    targets_a = np.stack([random_distribution(rng, num_classes) for _ in range(2)])
    targets_b = np.stack([random_distribution(rng, num_classes) for _ in range(2)])
    mixed = embmix(
        np.array([1, 2]), targets_a, np.array([3, 4]), targets_b, rng.beta(0.75, 0.75, 2),
        weight=0.5, key=10,
    )
    lambda_p, lambda_r = float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.1, 0.5))
    bags += [features(), features()]
    unlabeled = make_batch(
        [5, 6], ["pseudo", "rdrop"], target=np.zeros(num_classes), weight=[lambda_p, lambda_r],
        key=20,
    )
    items = joined(observed, mixed, unlabeled)
    mask_seed = int(rng.integers(2**31)) if rng.random() < 0.5 else None
    return params, items, matrix_of(bags), mask_seed


def test_criterion_1_gradients_match_finite_differences():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        params, items, features, mask_seed = _composite_instance(rng)
        _, grads, _ = backward(params, items, features, mask_seed=mask_seed)
        for name, array in param_arrays(params):
            for _ in range(2):
                flat = int(rng.integers(array.size))
                analytic = grad_lookup(grads, params, name, flat)
                fd = finite_difference(
                    params, items, features, mask_seed, name, flat, step=GRAD_STEP
                )
                err = relative_error(analytic, fd)
                worst = max(worst, err)
                assert err <= GRAD_TOL, (name, flat, analytic, fd)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_2_mixture_recovery_on_bimodal_losses():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    losses = np.concatenate(
        [rng.normal(0.5, 0.1, 1000), rng.normal(3.0, 0.5, 1000)]
    )
    params, trace = fit_gmm_trace(losses)
    assert abs(params.means[0] - 0.5) <= 0.05
    assert abs(params.means[1] - 3.0) <= 0.05
    assert abs(params.weights[0] - 0.5) <= 0.03
    assert abs(params.weights[1] - 0.5) <= 0.03
    assert np.all(np.diff(trace) >= -1e-9)

    split = select_split(losses, 0.5)
    _, _, f1 = selection_prf(~split.labeled, np.arange(2000) >= 1000)
    assert f1 >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"mixture recovery took {elapsed:.2f}s"


def test_criterion_3_noise_injection_exactness():
    explicit = TransitionMap((2, 3, 1, 0))
    for ratio in (0.1, 0.2, 0.4):
        pool, _ = make_labeled_pool(2000, 4, seed=31)
        assert list(np.bincount(pool.observed_labels())) == [500] * 4

        _, uniform = inject_uniform(pool, ratio, seed=7)
        assert len(uniform.flips) == round_half_up(ratio * 2000)

        _, idn = inject_instance_dependent(pool, ratio, seed=7)
        assert len(idn.flips) == round_half_up(ratio * 2000)

        for transition in (None, explicit):
            _, asym = inject_asymmetric(pool, ratio, seed=7, transition=transition)
            tm = transition or TransitionMap.cyclic(4)
            per_class = round_half_up(ratio * 500)
            assert len(asym.flips) == 4 * per_class
            for c in range(4):
                assert asym.flip_counts[c].sum() == per_class
            for _, old, new in asym.flips:
                assert new == tm(old)

        # determinism: same seed reproduces the manifest, another seed does not
        for kind in ("uniform", "asymmetric", "instance_dependent"):
            _, first = inject(pool, kind, ratio, seed=7)
            _, again = inject(pool, kind, ratio, seed=7)
            assert again.flips == first.flips
            assert np.array_equal(again.flip_counts, first.flip_counts)
            _, other = inject(pool, kind, ratio, seed=8)
            assert {i for i, _, _ in other.flips} != {i for i, _, _ in first.flips}


def test_criterion_4_formula_micro_checks():
    assert sharpen(np.array([0.8, 0.2]), 0.5) == pytest.approx(
        [0.9412, 0.0588], abs=1e-4
    )
    assert class_regularize(
        np.array([1.0, 2.0, 3.0]), np.array([0, 0, 0])
    ) == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)
    assert rdrop_from_probs(
        np.array([0.9, 0.1]), np.array([0.1, 0.9])
    ) == pytest.approx(1.7578, abs=1e-4)
    # the weighted total: l_mix + 0.2 * l_p + 0.3 * l_r, each from the breakdown
    features = featurize_corpus(["alpha beta gamma"], 64)
    params = init_params(64, 8, 3, 0.3, seed=4, buckets=features.indices)
    items = make_batch(
        [0, 0, 0], ["ce", "pseudo", "rdrop"], target=np.array([0.2, 0.5, 0.3]),
        weight=[1.0, 0.2, 0.3], key=[0, 7, 7],
    )
    total, _, breakdown = backward(params, items, features, mask_seed=11)
    l_mix, l_p, l_r = (breakdown[k][0] for k in ("ce", "pseudo", "rdrop"))
    assert l_r > 0.0
    assert total == pytest.approx(l_mix + 0.2 * l_p + 0.3 * l_r, rel=1e-12)


def test_criterion_5_desk_scale_robustness_under_asymmetric_noise():
    start = time.perf_counter()
    train, test = make_corpus(2000, 500, 4, seed=0)
    noisy, manifest = inject(train, "asymmetric", 0.4, seed=100)
    assert len(manifest.flips) == 800

    base_last, mix_last, gap_wins, final_f1 = [], [], 0, []
    for seed in range(1, 6):
        model = ModelConfig()
        cfg = SelfMixConfig(total_epochs=6, warmup_epochs=2, seed=seed)
        base = train_baseline(noisy, test, model, cfg)
        mix = train_selfmix(noisy, test, model, cfg)
        base_last.append(base.last_acc)
        mix_last.append(mix.last_acc)
        if (base.best_acc - base.last_acc) > (mix.best_acc - mix.last_acc):
            gap_wins += 1
        final_f1.append(mix.per_epoch[-1].sel_f1)

    assert np.mean(mix_last) - np.mean(base_last) >= 0.05
    assert gap_wins >= 4
    assert np.mean(final_f1) >= 0.80
    elapsed = time.perf_counter() - start
    assert elapsed <= 600.0, f"desk-scale runs took {elapsed:.0f}s"


def test_criterion_6_per_class_standardization_rescues_selection():
    rng = np.random.default_rng(42)
    clean0 = rng.normal(0.1, 0.05, 700)
    noisy0 = rng.normal(0.6, 0.10, 300)
    clean1 = rng.normal(1.0, 0.15, 700)
    noisy1 = rng.normal(3.0, 0.30, 300)
    losses = np.concatenate([clean0, noisy0, clean1, noisy1])
    labels = np.array([0] * 1000 + [1] * 1000)
    noisy = mask_of(2000, set(range(700, 1000)) | set(range(1700, 2000)))

    raw = select_split(losses, 0.5)
    _, _, raw_f1 = selection_prf(~raw.labeled, noisy)
    reg = select_split(class_regularize(losses, labels, 2), 0.5)
    _, _, reg_f1 = selection_prf(~reg.labeled, noisy)
    assert reg_f1 >= raw_f1 + 0.10, (raw_f1, reg_f1)


def test_criterion_7_invariant_property_suite(tmp_path):
    rng = np.random.default_rng(7007)

    # 1. sharpening preserves the probability simplex
    for _ in range(N_CASES):
        p = random_distribution(rng, int(rng.integers(2, 8)))
        out = sharpen(p, float(rng.uniform(0.1, 3.0)))
        assert np.all(out >= 0.0) and abs(out.sum() - 1.0) <= 1e-9

    # 2. realized mixing coefficients lie in [0.5, 1]
    for _ in range(N_CASES):
        m = int(rng.integers(1, 6))
        b, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        bags_a = [random_features(rng, b) for _ in range(m)]
        targets_a = np.stack([random_distribution(rng, c) for _ in range(m)])
        bags_b = [random_features(rng, b) for _ in range(m)]
        targets_b = np.stack([random_distribution(rng, c) for _ in range(m)])
        features = matrix_of(bags_a + bags_b)  # row k mixes with row m + k
        rows = np.arange(m)
        items = embmix(rows, targets_a, m + rows, targets_b, rng.beta(0.75, 0.75, size=m))
        lam = np.array([item.lam for item in items])
        assert np.all(lam >= 0.5) and np.all(lam <= 1.0)
        assert all(item.partner < len(features) for item in items)

    # 3 & 4. thresholding marks every position, monotonically in tau
    for _ in range(N_CASES):
        n_low, n_high = int(rng.integers(3, 30)), int(rng.integers(3, 30))
        losses = np.concatenate(
            [
                np.abs(rng.normal(0.3, 0.1, n_low)),
                np.abs(rng.normal(3.0, 0.5, n_high)),
            ]
        )
        lo_tau, hi_tau = np.sort(rng.uniform(0.05, 0.95, size=2))
        lo = select_split(losses, float(lo_tau))
        hi = select_split(losses, float(hi_tau))
        for split in (lo, hi):
            assert split.labeled.dtype == bool and split.labeled.shape == losses.shape
        assert not np.any(hi.labeled & ~lo.labeled)

    # 5. histograms partition every loss into exactly one cell
    for case in range(N_CASES):
        n = int(rng.integers(1, 50))
        losses = rng.exponential(1.0, size=n)
        mask = rng.random(n) < 0.4
        bins = int(rng.integers(1, 10))
        _, clean, noisy = emit_loss_histogram(
            losses, mask, bins, tmp_path / "h.csv"
        )
        assert clean.sum() + noisy.sum() == n

    # 6. ground-truth flags change reports only through selection metrics
    corpora = [make_corpus(24, 8, 2, seed=s) for s in range(4)]
    model = ModelConfig(num_buckets=128, hidden=4, learning_rate=1e-2)
    for case in range(N_CASES):
        train, test = corpora[case % 4]
        kind = ("uniform", "asymmetric", "instance_dependent")[case % 3]
        noisy, _ = inject(
            train,
            kind,
            float(rng.uniform(0.1, 0.3)),
            seed=int(rng.integers(2**31)),
            aux_subset_fraction=1.0,
        )
        cfg = SelfMixConfig(
            total_epochs=2,
            warmup_epochs=1,
            batch_size=12,
            seed=int(rng.integers(2**31)),
        )
        with_oracle = train_selfmix(noisy, test, model, cfg, eval_every=2)
        blind = train_selfmix(without_oracle(noisy), test, model, cfg, eval_every=2)
        assert with_oracle.best_acc == blind.best_acc
        assert with_oracle.last_acc == blind.last_acc
        assert with_oracle.step_acc == blind.step_acc
        for a, b in zip(with_oracle.per_epoch, blind.per_epoch):
            assert (a.test_acc, a.l_mix, a.l_p, a.l_r, a.labeled_count) == (
                b.test_acc, b.l_mix, b.l_p, b.l_r, b.labeled_count
            )
        for name in ("embedding", "w1", "b1", "w2", "b2"):
            assert np.array_equal(
                getattr(with_oracle.final_params, name),
                getattr(blind.final_params, name),
            )
