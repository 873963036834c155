"""Controlled label corruption with exact bookkeeping.

Three corruption styles:

- ``uniform``: a fixed fraction of examples, chosen uniformly, get a label
  drawn uniformly from the other classes.
- ``asymmetric``: a fixed fraction of each class flips to that class's
  designated target (by default the next class, cyclically), modeling
  systematic confusions between related categories.
- ``instance_dependent``: a small auxiliary classifier is trained on a
  stratified subset of the clean data; the examples it finds hardest
  (smallest true-class margin) flip to its most-confusable other class, so
  corruption concentrates on genuinely ambiguous inputs.

Every injector takes clean data (observed == true everywhere), flips an
exact number of labels (fraction rounded half-up), and returns both the
corrupted dataset, with ``true_label`` recording the ground truth, and a
manifest of what happened. Manifests round-trip through a small CSV sidecar
format.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .common import atomic_open, round_half_up, subseed
from .core import warmup
from .data import Dataset, Example, stratified_subsample
from .encoder import (
    corpus_buckets,
    featurize_corpus,
    init_optimizer,
    init_params,
    predict_proba,
)
from .encoder import featurize_text  # noqa: F401  (perfbench/spans.py wraps this binding)

NOISE_TYPES = ("uniform", "asymmetric", "instance_dependent")
NOISE_TYPE_ALIASES = {"asym": "asymmetric", "idn": "instance_dependent"}

AUX_NUM_BUCKETS = 2**15
AUX_HIDDEN = 32
AUX_EPOCHS = 2
AUX_BATCH_SIZE = 32
AUX_LEARNING_RATE = 1e-2


@dataclass(frozen=True)
class TransitionMap:
    """A total map from each class to a different target class."""

    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.targets)
        for c, t in enumerate(self.targets):
            if not 0 <= t < n:
                raise ValueError(f"transition target {t} out of range for {n} classes")
            if t == c:
                raise ValueError(f"class {c} may not map to itself")

    def __call__(self, c: int) -> int:
        return self.targets[c]

    @classmethod
    def cyclic(cls, num_classes: int) -> "TransitionMap":
        """The default map: each class flips to the next one, wrapping."""
        if num_classes < 2:
            raise ValueError("need at least two classes to build a transition map")
        return cls(tuple((c + 1) % num_classes for c in range(num_classes)))


@dataclass(frozen=True)
class CorruptionManifest:
    """Ground truth record of one injection run.

    ``flips`` lists (id, old_label, new_label) in ascending id order;
    ``flip_counts[old, new]`` aggregates them into a class-by-class matrix.
    """

    noise_type: str
    ratio: float
    seed: int
    flip_counts: np.ndarray  # (C, C) int64
    flips: tuple[tuple[int, int, int], ...]


def _check_inputs(dataset: Dataset, ratio: float, seed: int) -> None:
    if not 0.0 <= ratio < 1.0:
        raise ValueError("noise ratio must lie in [0, 1)")
    if seed < 0:
        raise ValueError(f"noise seed must be non-negative; got {seed}")
    if dataset.num_classes < 2:
        raise ValueError("label corruption needs at least two classes")
    for ex in dataset:
        if ex.true_label is not None and ex.true_label != ex.observed_label:
            raise ValueError(
                f"example {ex.id} already carries label noise; "
                "injectors require clean input"
            )


def _apply_flips(
    dataset: Dataset,
    new_labels: dict[int, int],
    noise_type: str,
    ratio: float,
    seed: int,
) -> tuple[Dataset, CorruptionManifest]:
    """Rewrite observed labels and build the manifest."""
    num_classes = dataset.num_classes
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    flips: list[tuple[int, int, int]] = []
    examples: list[Example] = []
    for ex in dataset:
        old = ex.observed_label
        new = new_labels.get(ex.id, old)
        if new != old:
            counts[old, new] += 1
            flips.append((ex.id, old, new))
        examples.append(replace(ex, observed_label=new, true_label=old))
    flips.sort()
    manifest = CorruptionManifest(
        noise_type=noise_type,
        ratio=float(ratio),
        seed=int(seed),
        flip_counts=counts,
        flips=tuple(flips),
    )
    return Dataset(tuple(examples), num_classes, dataset.name), manifest


def inject_uniform(
    dataset: Dataset, ratio: float, seed: int
) -> tuple[Dataset, CorruptionManifest]:
    """Flip round(ratio * N) labels, each to a uniformly random other class."""
    _check_inputs(dataset, ratio, seed)
    n = len(dataset)
    num_flips = round_half_up(ratio * n)
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.choice(n, size=num_flips, replace=False))
    new_labels: dict[int, int] = {}
    for pos in positions:
        ex = dataset[int(pos)]
        draw = int(rng.integers(0, dataset.num_classes - 1))
        new_labels[ex.id] = draw + 1 if draw >= ex.observed_label else draw
    return _apply_flips(dataset, new_labels, "uniform", ratio, seed)


def inject_asymmetric(
    dataset: Dataset,
    ratio: float,
    seed: int,
    transition: TransitionMap | None = None,
) -> tuple[Dataset, CorruptionManifest]:
    """Flip round(ratio * N_c) members of each class c to its target class."""
    _check_inputs(dataset, ratio, seed)
    if transition is None:
        transition = TransitionMap.cyclic(dataset.num_classes)
    if len(transition.targets) != dataset.num_classes:
        raise ValueError("transition map size does not match the class count")
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[int]] = {}
    for ex in dataset:
        by_class.setdefault(ex.observed_label, []).append(ex.id)
    new_labels: dict[int, int] = {}
    for c in sorted(by_class):
        members = by_class[c]
        k = round_half_up(ratio * len(members))
        picked = rng.choice(len(members), size=k, replace=False)
        for i in picked:
            new_labels[members[int(i)]] = transition(c)
    return _apply_flips(dataset, new_labels, "asymmetric", ratio, seed)


def inject_instance_dependent(
    dataset: Dataset,
    ratio: float,
    seed: int,
    aux_subset_fraction: float = 0.1,
) -> tuple[Dataset, CorruptionManifest]:
    """Flip the round(ratio * N) lowest-margin examples under an aux model.

    The dataset is featurized once. The auxiliary classifier is trained on
    the rows of a stratified ``aux_subset_fraction`` of the clean data and
    owns that subset's buckets, so a bucket only the rest of the data names
    pools to zero in it. Each example's margin is its true-class
    probability minus the best other-class probability. Margin ties break
    toward lower id. Each flipped example takes the aux model's strongest
    competing class.
    """
    _check_inputs(dataset, ratio, seed)
    if not 0.0 < aux_subset_fraction <= 1.0:
        raise ValueError("aux_subset_fraction must lie in (0, 1]")
    n = len(dataset)
    num_flips = round_half_up(ratio * n)

    features = featurize_corpus([ex.text for ex in dataset], AUX_NUM_BUCKETS)
    labels = dataset.observed_labels()
    aux_size = max(dataset.num_classes, round_half_up(aux_subset_fraction * n))
    aux = stratified_subsample(dataset, min(aux_size, n), subseed(seed, "subsample"))
    aux_features = features.take(aux)
    params = init_params(
        AUX_NUM_BUCKETS,
        AUX_HIDDEN,
        dataset.num_classes,
        dropout_rate=0.0,
        seed=subseed(seed, "aux-init"),
        buckets=corpus_buckets(aux_features, AUX_NUM_BUCKETS),
    )
    opt = init_optimizer(params, learning_rate=AUX_LEARNING_RATE)
    warmup(
        params,
        opt,
        aux_features,
        labels[aux],
        epochs=AUX_EPOCHS,
        batch_size=AUX_BATCH_SIZE,
        seed=subseed(seed, "aux-train"),
    )

    ids = np.array([ex.id for ex in dataset], dtype=np.int64)
    rows = np.arange(n)
    p = predict_proba(params, features)
    masked = p.copy()
    masked[rows, labels] = -np.inf
    runner_up = np.argmax(masked, axis=1)
    margins = p[rows, labels] - p[rows, runner_up]
    order = np.lexsort((ids, margins))
    chosen = order[:num_flips]
    new_labels = {int(ids[i]): int(runner_up[i]) for i in chosen}
    return _apply_flips(dataset, new_labels, "instance_dependent", ratio, seed)


def canonical_noise_type(noise_type: str) -> str:
    """Resolve short command-line spellings to the manifest vocabulary."""
    resolved = NOISE_TYPE_ALIASES.get(noise_type, noise_type)
    if resolved not in NOISE_TYPES:
        raise ValueError(
            f"unknown noise type {noise_type!r}; expected one of "
            f"{NOISE_TYPES + tuple(NOISE_TYPE_ALIASES)}"
        )
    return resolved


def inject(
    dataset: Dataset,
    noise_type: str,
    ratio: float,
    seed: int,
    transition: TransitionMap | None = None,
    aux_subset_fraction: float = 0.1,
) -> tuple[Dataset, CorruptionManifest]:
    """Dispatch to the named injector, accepting the short CLI spellings;
    only asymmetric noise takes a ``transition``."""
    resolved = canonical_noise_type(noise_type)
    if transition is not None and resolved != "asymmetric":
        raise ValueError(f"a transition map applies to asymmetric noise only, not to {resolved}")
    if resolved == "uniform":
        return inject_uniform(dataset, ratio, seed)
    if resolved == "asymmetric":
        return inject_asymmetric(dataset, ratio, seed, transition)
    return inject_instance_dependent(dataset, ratio, seed, aux_subset_fraction)


# ---------------------------------------------------------------------------
# Manifest sidecar format
# ---------------------------------------------------------------------------


def save_manifest(manifest: CorruptionManifest, path: str | Path) -> None:
    """Write the sidecar: a metadata comment, flip rows, count comments.

    Line 1 is ``# <noise_type>,<ratio>,<seed>``; then a ``id,old_label,
    new_label`` CSV of flips in ascending id order; then one
    ``# counts,<old>,<new>,<count>`` comment per nonzero matrix cell.
    """
    with atomic_open(path) as fh:
        fh.write(f"# {manifest.noise_type},{manifest.ratio!r},{manifest.seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "old_label", "new_label"])
        for flip in manifest.flips:
            writer.writerow(list(flip))
        c = manifest.flip_counts
        for old in range(c.shape[0]):
            for new in range(c.shape[1]):
                if c[old, new]:
                    fh.write(f"# counts,{old},{new},{int(c[old, new])}\n")


def load_manifest(path: str | Path, num_classes: int | None = None) -> CorruptionManifest:
    """Read a sidecar back; verifies the count comments against the rows."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path}: missing metadata line")
    meta = lines[0][2:].split(",")
    if len(meta) != 3:
        raise ValueError(f"{path}: malformed metadata line {lines[0]!r}")
    noise_type, ratio, seed = meta[0], float(meta[1]), int(meta[2])
    if noise_type not in NOISE_TYPES:
        raise ValueError(f"{path}: unknown noise type {noise_type!r}")

    flips: list[tuple[int, int, int]] = []
    recorded_counts: dict[tuple[int, int], int] = {}
    body = lines[1:]
    if not body or body[0] != "id,old_label,new_label":
        raise ValueError(f"{path}: missing flip table header")
    for line in body[1:]:
        if line.startswith("# counts,"):
            old, new, count = (int(v) for v in line[len("# counts,") :].split(","))
            recorded_counts[(old, new)] = count
        elif line:
            id_, old, new = (int(v) for v in line.split(","))
            flips.append((id_, old, new))

    max_label = max(
        [old for _, old, _ in flips]
        + [new for _, _, new in flips]
        + [c for pair in recorded_counts for c in pair]
        + [0]
    )
    size = num_classes if num_classes is not None else max_label + 1
    if max_label >= size:
        raise ValueError(f"{path}: label {max_label} out of range for {size} classes")
    counts = np.zeros((size, size), dtype=np.int64)
    for _, old, new in flips:
        counts[old, new] += 1
    for (old, new), count in recorded_counts.items():
        if counts[old, new] != count:
            raise ValueError(
                f"{path}: count comment for ({old},{new}) disagrees with flip rows"
            )
    return CorruptionManifest(
        noise_type=noise_type,
        ratio=ratio,
        seed=seed,
        flip_counts=counts,
        flips=tuple(sorted(flips)),
    )
