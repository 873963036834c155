"""Noise-aware training: loss-based sample selection plus feature-bag mixup.

The procedure alternates between two views of the (possibly mislabeled)
training set. At the start of each adaptive epoch, per-sample losses are fit
with a two-component Gaussian mixture; samples whose posterior under the
low-loss component clears a threshold keep their labels (the labeled set),
the rest have their labels replaced by the model's own sharpened predictions
(the unlabeled set). Training then minimizes

    cross-entropy on convex combinations of bag/target pairs
    + lambda_p * confidence loss on the unlabeled set
    + lambda_r * symmetric-KL agreement between two dropout passes

:func:`embmix` builds each mixed example as the merged feature bag of its two
parents. The bag pools to the same mix of the parents' embeddings, and the
mixup term trains the embedding rows of both, as mixing hidden
representations does in the paper. Only the unlabeled members of a batch
are encoded on their own, to guess their targets. Warm-up epochs of plain
cross-entropy precede selection so that early losses are informative. One
cross-entropy epoch routine serves the warm-up, the plain arm and the
standalone :func:`warmup`; every loss formula lives in
:func:`selfmix.encoder.backward`. A per-class loss standardization switch
makes selection robust when different classes have different loss scales.

Ground-truth corruption flags, when present on a dataset, are used only to
report selection quality; they never influence training decisions.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .common import NumericError, subseed
from .data import Dataset, one_hot
from .encoder import (
    BatchItem,
    FeatureVector,
    Gradients,
    ModelParams,
    OptimizerState,
    adam_step,
    backward,
    encode,
    featurize_corpus,
    featurize_text,
    head_forward,
    init_optimizer,
    init_params,
    predict_logits,
    predict_proba,
    softmax,
)
from .gmm import fit_gmm, posterior_clean

_MIX_KEY_BASE = 1_000_000
_EVAL_CHUNK = 32  # documents per batched forward in accuracy(); bounds peak memory


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and optimizer hyperparameters for the text encoder."""

    num_buckets: int = 2**18
    hidden: int = 64
    dropout_rate: float = 0.3
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be at least 1")
        if self.hidden < 1:
            raise ValueError("hidden must be at least 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be finite and positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("epsilon must be finite and non-negative")


@dataclass(frozen=True)
class SelfMixConfig:
    """Knobs of the adaptive procedure.

    Exactly one of ``warmup_epochs``/``warmup_samples`` must be set; the
    warm-up phase is measured either in full passes or in a number of
    training examples. ``total_epochs`` counts warm-up and adaptive epochs
    together. ``term_normalization`` selects whether the confidence and
    agreement terms are averaged over the unlabeled members of each batch
    (``"mean"``) or summed (``"sum"``).
    """

    tau: float = 0.5
    lambda_p: float = 0.2
    lambda_r: float = 0.3
    alpha: float = 0.75
    temperature: float = 0.5
    warmup_epochs: int | None = 2
    warmup_samples: int | None = None
    total_epochs: int = 6
    batch_size: int = 32
    class_regularize: bool = False
    term_normalization: str = "mean"
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.warmup_epochs is None) == (self.warmup_samples is None):
            raise ValueError("set exactly one of warmup_epochs and warmup_samples")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie strictly between 0 and 1")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.lambda_p < 0.0 or self.lambda_r < 0.0:
            raise ValueError("loss weights must be non-negative")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be at least 1")
        if self.warmup_epochs is not None and not (
            0 <= self.warmup_epochs <= self.total_epochs
        ):
            raise ValueError("warmup_epochs must lie in [0, total_epochs]")
        if self.warmup_samples is not None and self.warmup_samples < 0:
            raise ValueError("warmup_samples must be non-negative")
        if self.term_normalization not in ("mean", "sum"):
            raise ValueError("term_normalization must be 'mean' or 'sum'")


@dataclass(frozen=True)
class DataSplit:
    """Result of one selection round.

    ``labeled_ids`` hold every id whose clean posterior is at least ``tau``;
    ``unlabeled_ids`` hold the rest. ``posteriors`` maps every id to its
    clean probability.
    """

    labeled_ids: tuple[int, ...]
    unlabeled_ids: tuple[int, ...]
    posteriors: dict[int, float]
    tau: float
    epoch: int


@dataclass(frozen=True)
class MixedBatch:
    """Convex combinations of bag/target pairs, biased toward the first
    element of each pair (mixing coefficients lie in [0.5, 1])."""

    bags: list[FeatureVector]  # m mixed feature bags
    targets: np.ndarray  # (m, num_classes)
    lam: np.ndarray  # (m,) the realized coefficients, all >= 0.5


@dataclass
class EpochStats:
    """One row of the training report."""

    test_acc: float
    sel_precision: float
    sel_recall: float
    sel_f1: float
    l_mix: float
    l_p: float
    l_r: float
    labeled_count: int


REPORT_CSV_FIELDS = ("epoch",) + tuple(f.name for f in dataclasses.fields(EpochStats))


@dataclass
class TrainReport:
    """Outcome of a training run.

    ``as_dict`` exposes the serializable summary; ``config`` echoes every
    model/procedure knob so a report is self-describing. ``final_params``,
    ``step_acc`` (accuracy every K optimizer steps), ``warnings`` and the
    optional ``per_epoch_losses`` snapshots ride along for callers that
    want them but are not part of the JSON summary.
    """

    epochs: int
    best_acc: float
    last_acc: float
    per_epoch: list[EpochStats]
    config: dict = field(default_factory=dict)
    step_acc: list[tuple[int, float]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    final_params: ModelParams | None = None
    per_epoch_losses: list[np.ndarray] | None = None

    def as_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "best_acc": self.best_acc,
            "last_acc": self.last_acc,
            "per_epoch": [dataclasses.asdict(s) for s in self.per_epoch],
        }

    def csv_rows(self) -> list[list]:
        return [list(REPORT_CSV_FIELDS)] + [
            [e, *dataclasses.astuple(s)] for e, s in enumerate(self.per_epoch)
        ]


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def per_sample_losses(
    params: ModelParams,
    dataset: Dataset,
    features: list[FeatureVector] | None = None,
) -> np.ndarray:
    """Cross-entropy of each observed label with dropout off."""
    if features is None:
        features = [featurize_text(ex.text, params.num_buckets) for ex in dataset]
    losses = np.empty(len(dataset))
    for i, ex in enumerate(dataset):
        p = predict_proba(params, features[i])
        losses[i] = -math.log(max(float(p[ex.observed_label]), 1e-300))
    return losses


def class_regularize(
    losses: np.ndarray, labels: np.ndarray, num_classes: int | None = None
) -> np.ndarray:
    """Standardize losses within each observed class (population std).

    Removes per-class loss-scale differences so that a single mixture split
    remains meaningful when label noise difficulty varies by class. A class
    whose losses are all equal maps to zeros. ``num_classes``, when given,
    bounds the label range; classes with no members are simply absent.
    """
    losses = np.asarray(losses, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if losses.shape != labels.shape:
        raise ValueError("losses and labels must have matching shapes")
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be non-negative")
    if num_classes is not None and labels.size and labels.max() >= num_classes:
        raise ValueError(
            f"label {int(labels.max())} outside [0, {num_classes})"
        )
    out = np.empty_like(losses)
    for c in np.unique(labels):
        member = labels == c
        mu = losses[member].mean()
        sigma = max(float(losses[member].std()), 1e-12)
        out[member] = (losses[member] - mu) / sigma
    return out


def _degenerate(values: np.ndarray) -> bool:
    """True when no two-component mixture can be fit to ``values``."""
    return np.unique(values).size < 2


def select_split(
    losses: np.ndarray,
    tau: float,
    ids: Iterable[int] | None = None,
    *,
    epoch: int = 0,
) -> DataSplit:
    """Fit the loss mixture and threshold clean posteriors at ``tau``.

    ``ids`` names the sample behind each loss; it defaults to positions
    0..n-1. Fallback: when the losses hold fewer than two distinct values
    no mixture can be fit, so every id keeps its label with posterior 1.0,
    as :func:`~selfmix.gmm.posterior_clean` does for coincident means.
    """
    losses = np.asarray(losses, dtype=np.float64)
    ids = tuple(range(losses.size)) if ids is None else tuple(int(i) for i in ids)
    if losses.size != len(ids):
        raise ValueError("losses and ids must have the same length")
    if _degenerate(losses):
        w = np.ones(losses.size)
    else:
        w = posterior_clean(fit_gmm(losses), losses)
    labeled = tuple(i for i, wi in zip(ids, w) if wi >= tau)
    unlabeled = tuple(i for i, wi in zip(ids, w) if wi < tau)
    return DataSplit(
        labeled_ids=labeled,
        unlabeled_ids=unlabeled,
        posteriors={i: float(wi) for i, wi in zip(ids, w)},
        tau=float(tau),
        epoch=epoch,
    )


def sharpen(p: np.ndarray, temperature: float) -> np.ndarray:
    """Raise a distribution to 1/temperature and renormalize."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    p = np.asarray(p, dtype=np.float64)
    powered = p ** (1.0 / temperature)
    total = powered.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericError(
            "sharpen: distribution mass is zero or non-finite after tempering"
        )
    return powered / total


def embmix(
    bags_a: list[FeatureVector],
    targets_a: np.ndarray,
    bags_b: list[FeatureVector],
    targets_b: np.ndarray,
    lam: np.ndarray,
) -> MixedBatch:
    """Mix bag/target pairs with coefficients folded into [0.5, 1].

    Folding ``lam`` to ``max(lam, 1 - lam)`` keeps each mixed example
    dominated by its first parent, so the mixed pair inherits that parent's
    identity. Mixed bag ``k`` merges its parents' buckets, their weights
    scaled by ``lam'`` and ``1 - lam'``, so it pools to
    ``lam' * e(a) + (1 - lam') * e(b)``: the mixup loss then trains the
    embedding rows of both parents, as mixing hidden representations does.
    """
    lam = np.asarray(lam, dtype=np.float64)
    sizes = (len(bags_a), len(targets_a), len(bags_b), len(targets_b), lam.size)
    if len(set(sizes)) > 1:
        raise ValueError(f"embmix needs equal numbers of bags, targets and lam; got {sizes}")
    lam_prime = np.maximum(lam, 1.0 - lam)
    bags = []
    for a, b, mix in zip(bags_a, bags_b, lam_prime):
        rows, inverse = np.unique(np.concatenate([a.indices, b.indices]), return_inverse=True)
        mass = np.concatenate([mix * a.weights, (1.0 - mix) * b.weights])
        bags.append(FeatureVector(rows, np.bincount(inverse, mass, minlength=rows.size)))
    targets = lam_prime[:, None] * targets_a + (1.0 - lam_prime)[:, None] * targets_b
    return MixedBatch(bags=bags, targets=targets, lam=lam_prime)


def selection_prf(
    unlabeled_ids: Iterable[int], flipped_ids: Iterable[int]
) -> tuple[float, float, float]:
    """Precision/recall/F1 of the unlabeled set as a noisy-label detector.

    Precision is the fraction of unlabeled samples that are truly
    mislabeled; recall is the fraction of mislabeled samples that were sent
    to the unlabeled set. Empty denominators yield 0.
    """
    unlabeled = set(unlabeled_ids)
    flipped = set(flipped_ids)
    hit = len(unlabeled & flipped)
    precision = hit / len(unlabeled) if unlabeled else 0.0
    recall = hit / len(flipped) if flipped else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return precision, recall, f1


def accuracy(
    params: ModelParams, features: list[FeatureVector], labels: np.ndarray
) -> float:
    """Dropout-off classification accuracy, batched in chunks of ``_EVAL_CHUNK``."""
    if not features:
        return 0.0
    labels = np.asarray(labels)
    hits = 0
    for start in range(0, len(features), _EVAL_CHUNK):
        logits = predict_logits(params, features[start : start + _EVAL_CHUNK])
        hits += int(np.sum(np.argmax(logits, axis=1) == labels[start : start + _EVAL_CHUNK]))
    return hits / len(features)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


def _shuffled_batches(
    size: int, batch_size: int, seed: int, epoch: int, limit: int | None = None
) -> list[np.ndarray]:
    """Deterministic shuffled batches of positions; optionally truncated to a budget."""
    rng = np.random.default_rng(subseed(seed, "shuffle", epoch))
    order = rng.permutation(size)[:limit]
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def _warmup_schedule(
    epochs: int | None, samples: int | None, dataset_size: int
) -> list[int | None]:
    """Per-warm-up-epoch sample limits; None means a full pass.

    A ``samples`` budget is spread over ceil(budget / N) passes, the last of
    which may be partial; each pass still occupies one epoch row.
    """
    if epochs is not None:
        return [None] * epochs
    budget = samples or 0
    limits: list[int | None] = []
    while budget > 0:
        take = min(budget, dataset_size)
        limits.append(take if take < dataset_size else None)
        budget -= take
    return limits


def _ce_epoch(
    params: ModelParams,
    features: list[FeatureVector],
    labels: np.ndarray,
    num_classes: int,
    step: Callable[[Gradients], None],
    *,
    batch_size: int,
    seed: int,
    epoch: int,
    limit: int | None = None,
) -> float:
    """One pass of plain cross-entropy on observed labels; returns the mean loss.

    The warm-up phase, the non-adaptive arm and :func:`warmup` all run this
    loop, so equal seeds give identical shuffles, dropout masks and updates.
    ``step`` applies each batch's gradients.
    """
    loss_sum = 0.0
    count = 0
    batches = _shuffled_batches(len(labels), batch_size, seed, epoch, limit)
    for b, batch in enumerate(batches):
        try:
            items = [
                BatchItem(
                    features[i],
                    "ce",
                    one_hot(int(labels[i]), num_classes),
                    weight=1.0 / batch.size,
                    key=int(i),
                )
                for i in batch
            ]
            mask_seed = subseed(seed, "dropout", epoch, b)
            _, grads, breakdown = backward(params, items, mask_seed=mask_seed)
            step(grads)
        except NumericError as err:
            raise NumericError(f"epoch {epoch}, batch {b}: {err}") from err
        raw, n = breakdown["ce"]
        loss_sum += raw
        count += n
    return loss_sum / count if count else 0.0


class _Run:
    """Shared state for one training run (either arm)."""

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        model: ModelConfig,
        cfg: SelfMixConfig,
        eval_every: int,
        record_losses: bool,
    ):
        self.train = train
        self.test = test
        self.model = model
        self.cfg = cfg
        self.eval_every = max(1, eval_every)
        self.features = featurize_corpus([ex.text for ex in train], model.num_buckets)
        self.test_features = featurize_corpus([ex.text for ex in test], model.num_buckets)
        self.labels = train.observed_labels()
        self.test_labels = test.observed_labels()
        self.params = init_params(
            model.num_buckets,
            model.hidden,
            train.num_classes,
            model.dropout_rate,
            subseed(cfg.seed, "init"),
        )
        self.opt = init_optimizer(
            self.params,
            learning_rate=model.learning_rate,
            beta1=model.beta1,
            beta2=model.beta2,
            epsilon=model.epsilon,
        )
        self.flipped = train.flipped_ids() if train.has_oracle() else None
        self.global_step = 0
        self.step_acc: list[tuple[int, float]] = []
        self.warnings: list[str] = []
        self.loss_snapshots: list[np.ndarray] | None = [] if record_losses else None
        self._losses: tuple[int, np.ndarray] | None = None

    def losses(self) -> np.ndarray:
        """Per-sample losses at the current parameters, computed once per step."""
        if self._losses is None or self._losses[0] != self.global_step:
            losses = per_sample_losses(self.params, self.train, self.features)
            self._losses = (self.global_step, losses)
        return self._losses[1]

    def test_accuracy(self) -> float:
        return accuracy(self.params, self.test_features, self.test_labels)

    def _step(self, grads: Gradients) -> None:
        adam_step(self.params, grads, self.opt)
        self.global_step += 1
        if self.global_step % self.eval_every == 0:
            self.step_acc.append((self.global_step, self.test_accuracy()))

    def ce_epoch(self, epoch: int, limit: int | None = None) -> float:
        return _ce_epoch(
            self.params,
            self.features,
            self.labels,
            self.train.num_classes,
            self._step,
            batch_size=self.cfg.batch_size,
            seed=self.cfg.seed,
            epoch=epoch,
            limit=limit,
        )

    def selfmix_epoch(self, epoch: int) -> tuple[DataSplit, float, float, float]:
        """One adaptive epoch: select, then per batch pseudo-label, mix, step.

        Selection happens once at the top of the epoch; pseudo-labels are
        recomputed inside every mini-batch from the current model with
        dropout off, so label guesses track the parameters as they move.
        """
        cfg = self.cfg
        num_classes = self.train.num_classes
        losses = self.losses()
        values = (
            class_regularize(losses, self.labels, num_classes)
            if cfg.class_regularize
            else losses
        )
        split = select_split(
            values, cfg.tau, [ex.id for ex in self.train], epoch=epoch
        )
        if _degenerate(values):
            self.warnings.append(
                f"epoch {epoch}: selection losses hold fewer than two distinct "
                "values; no mixture was fit and every sample keeps its label"
            )
        if not split.labeled_ids:
            self.warnings.append(
                f"epoch {epoch}: selection kept no labeled samples; "
                "training continues on model-assigned targets only"
            )

        unlabeled = set(split.unlabeled_ids)
        sums = {"ce": [0.0, 0], "pseudo": [0.0, 0], "rdrop": [0.0, 0]}
        batches = _shuffled_batches(len(self.train), cfg.batch_size, cfg.seed, epoch)
        for b, batch in enumerate(batches):
            try:
                m = batch.size
                rng = np.random.default_rng(subseed(cfg.seed, "mixup", epoch, b))
                lam = rng.beta(cfg.alpha, cfg.alpha, size=m)
                partners = rng.integers(0, m, size=m)
                bags = [self.features[i] for i in batch]
                batch_targets = np.empty((m, num_classes))
                u_members: list[int] = []
                for k, i in enumerate(batch):
                    ex = self.train[int(i)]
                    if ex.id in unlabeled:
                        u_members.append(int(i))
                        emb = encode(self.params, bags[k])
                        guess = softmax(head_forward(self.params, emb))
                        batch_targets[k] = sharpen(guess, cfg.temperature)
                    else:
                        batch_targets[k] = one_hot(ex.observed_label, num_classes)
                partner_bags = [bags[j] for j in partners]
                mixed = embmix(bags, batch_targets, partner_bags, batch_targets[partners], lam)
                items = [
                    BatchItem(bag, "ce", target, weight=1.0 / m, key=_MIX_KEY_BASE + k)
                    for k, (bag, target) in enumerate(zip(mixed.bags, mixed.targets))
                ]
                if u_members:
                    norm = len(u_members) if cfg.term_normalization == "mean" else 1
                    if cfg.lambda_p > 0.0:
                        items.extend(
                            BatchItem(
                                self.features[i],
                                "pseudo",
                                weight=cfg.lambda_p / norm,
                                key=i,
                            )
                            for i in u_members
                        )
                    if cfg.lambda_r > 0.0:
                        items.extend(
                            BatchItem(
                                self.features[i],
                                "rdrop",
                                weight=cfg.lambda_r / norm,
                                key=i,
                            )
                            for i in u_members
                        )
                mask_seed = subseed(cfg.seed, "dropout", epoch, b)
                _, grads, breakdown = backward(
                    self.params, items, mask_seed=mask_seed
                )
                self._step(grads)
            except NumericError as err:
                raise NumericError(f"epoch {epoch}, batch {b}: {err}") from err
            for kind, (raw, n) in breakdown.items():
                sums[kind][0] += raw
                sums[kind][1] += n

        means = {
            kind: (s / n if n else 0.0) for kind, (s, n) in sums.items()
        }
        return split, means["ce"], means["pseudo"], means["rdrop"]

    def snapshot_losses(self) -> None:
        if self.loss_snapshots is not None:
            self.loss_snapshots.append(self.losses())

    def stats_for(
        self,
        l_mix: float,
        l_p: float,
        l_r: float,
        split: DataSplit | None,
    ) -> EpochStats:
        if split is not None and self.flipped is not None:
            precision, recall, f1 = selection_prf(split.unlabeled_ids, self.flipped)
        else:
            precision = recall = f1 = 0.0
        labeled = len(split.labeled_ids) if split is not None else len(self.train)
        return EpochStats(
            test_acc=self.test_accuracy(),
            sel_precision=precision,
            sel_recall=recall,
            sel_f1=f1,
            l_mix=l_mix,
            l_p=l_p,
            l_r=l_r,
            labeled_count=labeled,
        )

    def finish(self, per_epoch: list[EpochStats]) -> TrainReport:
        accs = [s.test_acc for s in per_epoch]
        return TrainReport(
            epochs=len(per_epoch),
            best_acc=max(accs),
            last_acc=accs[-1],
            per_epoch=per_epoch,
            config={
                "model": dataclasses.asdict(self.model),
                "selfmix": dataclasses.asdict(self.cfg),
            },
            step_acc=self.step_acc,
            warnings=self.warnings,
            final_params=self.params,
            per_epoch_losses=self.loss_snapshots,
        )


def warmup(
    params: ModelParams,
    opt: OptimizerState,
    dataset: Dataset,
    *,
    epochs: int | None = None,
    samples: int | None = None,
    batch_size: int = 32,
    seed: int = 0,
) -> tuple[ModelParams, OptimizerState]:
    """Plain cross-entropy training on observed labels, in place.

    Duration is either ``epochs`` full passes or ``samples`` examples
    (exactly one must be given); the optimizer state supplies the step-size
    hyperparameters. It runs the same epoch loop as the training arms, so
    ``epochs`` passes here match ``epochs`` plain-arm epochs bit for bit.
    The instance-dependent noise injector trains its auxiliary model with it.
    """
    if (epochs is None) == (samples is None):
        raise ValueError("set exactly one of epochs and samples")
    features = featurize_corpus([ex.text for ex in dataset], params.num_buckets)
    labels = dataset.observed_labels()
    for epoch, limit in enumerate(_warmup_schedule(epochs, samples, len(dataset))):
        _ce_epoch(
            params,
            features,
            labels,
            dataset.num_classes,
            lambda grads: adam_step(params, grads, opt),
            batch_size=batch_size,
            seed=seed,
            epoch=epoch,
            limit=limit,
        )
    return params, opt


def _train(
    train: Dataset,
    test: Dataset,
    model: ModelConfig | None,
    cfg: SelfMixConfig,
    warmup_limits: list[int | None],
    eval_every: int,
    record_losses: bool,
) -> TrainReport:
    """Cross-entropy epochs per ``warmup_limits``, then adaptive epochs."""
    run = _Run(train, test, model or ModelConfig(), cfg, eval_every, record_losses)
    per_epoch: list[EpochStats] = []
    for epoch in range(cfg.total_epochs):
        if epoch < len(warmup_limits):
            split = None
            l_mix, l_p, l_r = run.ce_epoch(epoch, warmup_limits[epoch]), 0.0, 0.0
        else:
            split, l_mix, l_p, l_r = run.selfmix_epoch(epoch)
        run.snapshot_losses()
        per_epoch.append(run.stats_for(l_mix, l_p, l_r, split))
    return run.finish(per_epoch)


def train_baseline(
    train: Dataset,
    test: Dataset,
    model: ModelConfig | None = None,
    cfg: SelfMixConfig | None = None,
    *,
    eval_every: int = 50,
    record_losses: bool = False,
) -> TrainReport:
    """Plain cross-entropy training for the full epoch budget."""
    cfg = cfg or SelfMixConfig()
    limits = [None] * cfg.total_epochs
    return _train(train, test, model, cfg, limits, eval_every, record_losses)


def train_selfmix(
    train: Dataset,
    test: Dataset,
    model: ModelConfig | None = None,
    cfg: SelfMixConfig | None = None,
    *,
    eval_every: int = 50,
    record_losses: bool = False,
) -> TrainReport:
    """Warm-up then adaptive selection/mixing for the remaining epochs."""
    cfg = cfg or SelfMixConfig()
    limits = _warmup_schedule(cfg.warmup_epochs, cfg.warmup_samples, len(train))
    if len(limits) > cfg.total_epochs:
        raise ValueError(
            "warmup_samples spans more passes than total_epochs allows"
        )
    return _train(train, test, model, cfg, limits, eval_every, record_losses)
