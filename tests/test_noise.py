"""Label corruption: exact counts, manifests, and the sidecar format."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import N_CASES
from selfmix import noise
from selfmix.common import round_half_up
from selfmix.data import Dataset, Example, validate
from selfmix.encoder import featurize_text, predict_proba
from selfmix.noise import (
    AUX_NUM_BUCKETS,
    NOISE_TYPE_ALIASES,
    NOISE_TYPES,
    CorruptionManifest,
    TransitionMap,
    canonical_noise_type,
    inject,
    inject_asymmetric,
    inject_instance_dependent,
    inject_uniform,
    load_manifest,
    save_manifest,
)
from selfmix.synthetic import make_labeled_pool


def toy_dataset(labels, num_classes):
    examples = tuple(
        Example(i, f"token{i} word{label}", int(label)) for i, label in enumerate(labels)
    )
    return Dataset(examples, num_classes)


def manifests_equal(a: CorruptionManifest, b: CorruptionManifest) -> bool:
    return (
        a.noise_type == b.noise_type
        and a.ratio == b.ratio
        and a.seed == b.seed
        and np.array_equal(a.flip_counts, b.flip_counts)
        and a.flips == b.flips
    )


# ---------------------------------------------------------------------------
# TransitionMap
# ---------------------------------------------------------------------------


def test_transition_cyclic_default():
    t = TransitionMap.cyclic(4)
    assert t.targets == (1, 2, 3, 0)
    assert t(3) == 0


def test_transition_rejects_self_map():
    with pytest.raises(ValueError, match="may not map to itself"):
        TransitionMap((0, 2, 1))


def test_transition_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        TransitionMap((1, 3))


def test_transition_cyclic_needs_two_classes():
    with pytest.raises(ValueError):
        TransitionMap.cyclic(1)


# ---------------------------------------------------------------------------
# Injector contracts
# ---------------------------------------------------------------------------


def test_uniform_flips_exact_count_and_other_class():
    ds = toy_dataset([0, 1, 0, 1, 0, 1, 0, 1, 0, 1], 2)
    corrupted, manifest = inject_uniform(ds, 0.2, seed=5)
    assert len(manifest.flips) == 2
    assert manifest.noise_type == "uniform"
    flipped = {i for i, _, _ in manifest.flips}
    for ex, noisy in zip(corrupted, corrupted.noisy_mask()):
        assert ex.true_label is not None
        if ex.id in flipped:
            assert noisy and ex.observed_label != ex.true_label
        else:
            assert not noisy and ex.observed_label == ex.true_label


def test_noisy_mask_marks_the_manifest_flips():
    pool, _ = make_labeled_pool(200, 4, seed=2)
    for kind in ("uniform", "asymmetric", "instance_dependent"):
        corrupted, manifest = inject(pool, kind, 0.3, seed=9, aux_subset_fraction=0.5)
        flipped = [i for i, _, _ in manifest.flips]
        assert np.flatnonzero(corrupted.noisy_mask()).tolist() == flipped


def test_asymmetric_respects_transition_targets():
    ds = toy_dataset([0] * 10 + [1] * 10 + [2] * 10, 3)
    transition = TransitionMap((2, 0, 1))
    _, manifest = inject_asymmetric(ds, 0.3, seed=2, transition=transition)
    assert len(manifest.flips) == 9  # 3 per class
    for _, old, new in manifest.flips:
        assert new == transition(old)


def test_asymmetric_default_is_cyclic():
    ds = toy_dataset([0] * 10 + [1] * 10, 2)
    _, manifest = inject_asymmetric(ds, 0.2, seed=0)
    for _, old, new in manifest.flips:
        assert new == (old + 1) % 2


def test_asymmetric_transition_size_mismatch():
    ds = toy_dataset([0, 1], 2)
    with pytest.raises(ValueError, match="transition map size"):
        inject_asymmetric(ds, 0.1, seed=0, transition=TransitionMap((1, 2, 0)))


def test_zero_ratio_populates_oracle_without_flips():
    ds = toy_dataset([0, 1, 2], 3)
    for noise_type in NOISE_TYPES:
        corrupted, manifest = inject(ds, noise_type, 0.0, seed=1)
        assert manifest.flips == ()
        assert corrupted.has_oracle()
        assert not corrupted.noisy_mask().any()
        assert all(ex.observed_label == ex.true_label for ex in corrupted)


def test_injectors_require_clean_input():
    ds, manifest = inject_uniform(toy_dataset([0, 1, 0, 1], 2), 0.5, seed=0)
    assert manifest.flips
    with pytest.raises(ValueError, match="already carries label noise"):
        inject_uniform(ds, 0.25, seed=1)


@pytest.mark.parametrize("ratio", [-0.1, 1.0, 1.5])
def test_injectors_reject_bad_ratio(ratio):
    ds = toy_dataset([0, 1], 2)
    with pytest.raises(ValueError, match="ratio"):
        inject_uniform(ds, ratio, seed=0)


def test_idn_rejects_bad_aux_fraction():
    ds = toy_dataset([0, 1], 2)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="aux_subset_fraction"):
            inject_instance_dependent(ds, 0.5, seed=0, aux_subset_fraction=bad)


def test_require_two_classes():
    ds = toy_dataset([0, 0], 1)
    with pytest.raises(ValueError, match="two classes"):
        inject_uniform(ds, 0.5, seed=0)


def test_idn_targets_ambiguous_documents():
    """Low-margin flipping lands almost exclusively on documents built from
    shared vocabulary that carries no class signal."""
    pool, ambiguous = make_labeled_pool(
        500, 2, ambiguous_fraction=0.4, shared_fraction=0.0, seed=11
    )
    corrupted, manifest = inject_instance_dependent(
        pool, 0.4, seed=12, aux_subset_fraction=1.0
    )
    flipped = {i for i, _, _ in manifest.flips}
    assert len(flipped) == 200
    overlap = len(flipped & ambiguous) / len(flipped)
    assert overlap >= 0.9
    assert validate(corrupted).ok


def test_idn_flips_to_strongest_competitor():
    """With two classes every flip must go to the only other class."""
    pool, _ = make_labeled_pool(60, 2, seed=3)
    _, manifest = inject_instance_dependent(pool, 0.3, seed=4, aux_subset_fraction=0.5)
    assert len(manifest.flips) == 18
    for _, old, new in manifest.flips:
        assert new == 1 - old


def test_idn_batched_margins_choose_the_per_document_flips(monkeypatch):
    """Margins come from batched forward passes. Where the margins are well
    separated at the cut, the injector flips exactly the round_half_up(ratio
    * n) ids, to the same classes, that per-document scoring chooses."""
    pool, _ = make_labeled_pool(150, 3, seed=21)
    trained = []
    real_warmup = noise.warmup

    def capture(params, *args, **kwargs):
        trained.append(params)
        return real_warmup(params, *args, **kwargs)

    monkeypatch.setattr(noise, "warmup", capture)
    ratio = 0.3
    _, manifest = inject_instance_dependent(pool, ratio, seed=22, aux_subset_fraction=0.5)
    (params,) = trained  # trained in place, so it holds the model that scored the margins

    num_flips = round_half_up(ratio * len(pool))
    ids = np.array([ex.id for ex in pool])
    margins = np.empty(len(pool))
    runner_up = np.empty(len(pool), dtype=np.int64)
    for i, ex in enumerate(pool):
        p = predict_proba(params, featurize_text(ex.text, AUX_NUM_BUCKETS))
        others = p.copy()
        others[ex.observed_label] = -np.inf
        runner_up[i] = np.argmax(others)
        margins[i] = p[ex.observed_label] - others[runner_up[i]]
    order = np.lexsort((ids, margins))
    assert margins[order[num_flips]] - margins[order[num_flips - 1]] > 1e-9
    expected = sorted((int(ids[i]), pool[int(i)].observed_label, int(runner_up[i]))
                      for i in order[:num_flips])
    assert len(manifest.flips) == num_flips
    assert list(manifest.flips) == expected


def test_injector_count_validity_determinism_property():
    """For every injector on random datasets: exact flip counts, valid oracle
    bookkeeping, and identical manifests on identical inputs."""
    rng = np.random.default_rng(31)
    for case in range(N_CASES):
        num_classes = int(rng.integers(2, 5))
        n = int(rng.integers(num_classes * 2, 90))
        labels = [int(v) for v in rng.integers(0, num_classes, size=n)]
        ds = toy_dataset(labels, num_classes)
        ratio = float(rng.uniform(0.0, 0.9))
        seed = int(rng.integers(2**31))
        noise_type = NOISE_TYPES[case % len(NOISE_TYPES)]
        kwargs = {}
        if noise_type == "instance_dependent":
            # keep the auxiliary training cheap but varied
            kwargs["aux_subset_fraction"] = float(rng.choice([0.2, 0.5, 1.0]))
        corrupted, manifest = inject(ds, noise_type, ratio, seed, **kwargs)

        if noise_type == "asymmetric":
            per_class = np.bincount(labels, minlength=num_classes)
            expected = sum(round_half_up(ratio * int(c)) for c in per_class)
        else:
            expected = round_half_up(ratio * n)
        assert len({i for i, _, _ in manifest.flips}) == expected
        assert len(manifest.flips) == expected
        assert int(manifest.flip_counts.sum()) == expected
        assert np.all(np.diag(manifest.flip_counts) == 0)

        assert validate(corrupted).ok
        flipped = [i for i, _, _ in manifest.flips]
        assert np.flatnonzero(corrupted.noisy_mask()).tolist() == flipped
        for ex, orig in zip(corrupted, ds):
            assert ex.true_label == orig.observed_label

        _, again = inject(ds, noise_type, ratio, seed, **kwargs)
        assert manifests_equal(manifest, again)


def test_asymmetric_support_property():
    """Flips land only on the transition target; the count-matrix support is
    contained in the transition map's support."""
    rng = np.random.default_rng(41)
    for _ in range(N_CASES):
        num_classes = int(rng.integers(2, 6))
        n = int(rng.integers(num_classes, 80))
        labels = [int(v) for v in rng.integers(0, num_classes, size=n)]
        ds = toy_dataset(labels, num_classes)
        # random derangement-style map: shift by a random nonzero offset
        offset = int(rng.integers(1, num_classes))
        transition = TransitionMap(
            tuple((c + offset) % num_classes for c in range(num_classes))
        )
        ratio = float(rng.uniform(0.0, 0.9))
        _, manifest = inject_asymmetric(ds, ratio, int(rng.integers(2**31)), transition)
        for _, old, new in manifest.flips:
            assert new == transition(old)
        for old in range(num_classes):
            for new in range(num_classes):
                if manifest.flip_counts[old, new]:
                    assert new == transition(old)


# ---------------------------------------------------------------------------
# Dispatch and aliases
# ---------------------------------------------------------------------------


def test_canonical_noise_type():
    assert canonical_noise_type("uniform") == "uniform"
    assert canonical_noise_type("asym") == "asymmetric"
    assert canonical_noise_type("idn") == "instance_dependent"
    with pytest.raises(ValueError, match="unknown noise type"):
        canonical_noise_type("gaussian")


def test_inject_accepts_aliases():
    ds = toy_dataset([0] * 5 + [1] * 5, 2)
    _, via_alias = inject(ds, "asym", 0.2, seed=9)
    _, via_full = inject(ds, "asymmetric", 0.2, seed=9)
    assert via_alias.noise_type == "asymmetric"
    assert manifests_equal(via_alias, via_full)
    assert set(NOISE_TYPE_ALIASES.values()) <= set(NOISE_TYPES)


# ---------------------------------------------------------------------------
# Manifest sidecar
# ---------------------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    ds = toy_dataset([0] * 20 + [1] * 20 + [2] * 20, 3)
    _, manifest = inject_asymmetric(ds, 0.25, seed=14)
    path = tmp_path / "manifest.csv"
    save_manifest(manifest, path)
    loaded = load_manifest(path, num_classes=3)
    assert manifests_equal(manifest, loaded)
    # write determinism: re-saving yields identical bytes
    again = tmp_path / "again.csv"
    save_manifest(manifest, again)
    assert path.read_bytes() == again.read_bytes()


def test_manifest_sidecar_layout(tmp_path):
    ds = toy_dataset([0] * 4 + [1] * 4, 2)
    _, manifest = inject_asymmetric(ds, 0.5, seed=1)
    path = tmp_path / "manifest.csv"
    save_manifest(manifest, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"# asymmetric,{0.5!r},1"
    assert lines[1] == "id,old_label,new_label"
    flip_lines = [l for l in lines[2:] if not l.startswith("#")]
    assert len(flip_lines) == len(manifest.flips)
    ids = [int(l.split(",")[0]) for l in flip_lines]
    assert ids == sorted(ids)
    count_lines = [l for l in lines[2:] if l.startswith("# counts,")]
    assert count_lines  # one per nonzero matrix cell
    for line in count_lines:
        old, new, count = (int(v) for v in line[len("# counts,"):].split(","))
        assert manifest.flip_counts[old, new] == count


def test_manifest_round_trip_property(tmp_path):
    rng = np.random.default_rng(51)
    for case in range(N_CASES):
        num_classes = int(rng.integers(2, 5))
        n = int(rng.integers(num_classes, 40))
        ds = toy_dataset([int(v) for v in rng.integers(0, num_classes, size=n)], num_classes)
        noise_type = ("uniform", "asymmetric")[case % 2]
        _, manifest = inject(
            ds, noise_type, float(rng.uniform(0.0, 0.9)), int(rng.integers(2**31))
        )
        path = tmp_path / f"m{case}.csv"
        save_manifest(manifest, path)
        assert manifests_equal(manifest, load_manifest(path, num_classes=num_classes))


def test_load_manifest_errors(tmp_path):
    path = tmp_path / "m.csv"

    path.write_text("id,old_label,new_label\n", encoding="utf-8")
    with pytest.raises(ValueError, match="metadata"):
        load_manifest(path)

    path.write_text("# uniform,0.2\nid,old_label,new_label\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed metadata"):
        load_manifest(path)

    path.write_text("# gaussian,0.2,1\nid,old_label,new_label\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown noise type"):
        load_manifest(path)

    path.write_text("# uniform,0.2,1\nwrong,header,here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="flip table header"):
        load_manifest(path)

    path.write_text(
        "# uniform,0.2,1\nid,old_label,new_label\n0,0,1\n# counts,0,1,2\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="disagrees"):
        load_manifest(path)

    path.write_text(
        "# uniform,0.2,1\nid,old_label,new_label\n0,0,5\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="out of range"):
        load_manifest(path, num_classes=2)
