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
get a forward pass of their own, to guess their targets. Every dropout-off
inference over many documents (per-sample losses, test accuracy, those
guesses and the instance-dependent injector's margins) runs through
:func:`eval_logits`, in forward passes of ``_EVAL_CHUNK`` documents.
Warm-up epochs of plain cross-entropy precede selection so that early
losses are informative. One batch loop, :func:`_epoch`, runs every epoch of
the warm-up, the plain arm, the standalone :func:`warmup` and the adaptive
arm; they differ only in the loss terms each batch gets, and every loss
formula lives in :func:`selfmix.encoder.backward`. A selection is a bool
mask over training positions (:class:`DataSplit`), as is the ground-truth
noise it is scored against. A per-class loss standardization switch makes
selection robust when different classes have different loss scales.

Ground-truth labels, when present on a dataset, are used only to report
selection quality; they never influence training decisions.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

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
    corpus_buckets,
    featurize_corpus,
    featurize_text,
    init_optimizer,
    init_params,
    log_softmax,
    predict_logits,
    predict_proba,
    softmax,
)
from .encoder import encode  # noqa: F401  (perfbench/spans.py wraps this binding)
from .encoder import head_forward  # noqa: F401  (perfbench/spans.py wraps this binding)
from .gmm import GMMParams, fit_gmm, posterior_clean

_MIX_KEY_BASE = 1_000_000
# Documents per dropout-off forward pass (eval_logits). The pass gathers one
# embedding row per feature of its documents; at 32-128 documents those rows
# stay in cache. On a 2-vCPU host a 20,000-document pool of a 2^18-bucket
# model scores in 0.18 s at 128, 0.20 s at 32 and 0.26-0.30 s at 256-1024.
_EVAL_CHUNK = 128


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
        if not 1 <= self.num_buckets < 2**31:
            raise ValueError("num_buckets must lie in [1, 2**31)")
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
        for name in ("temperature", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive")
        for name in ("lambda_p", "lambda_r"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative")
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


@dataclass(frozen=True, eq=False)
class DataSplit:
    """Result of one selection round, indexed by training position.

    ``labeled[i]`` is true where position ``i``'s clean posterior
    ``posteriors[i]`` is at least ``tau``: that sample keeps its label, and
    the rest (``~labeled``) train on sharpened self-guesses. ``gmm`` is the
    fitted loss mixture, or None when the losses held fewer than two
    distinct values and every sample kept its label.
    """

    labeled: np.ndarray  # (n,) bool
    posteriors: np.ndarray  # (n,) float64
    gmm: GMMParams | None


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

    ``as_dict`` exposes the serializable summary. ``final_params``,
    ``step_acc`` (accuracy every K optimizer steps), ``warnings`` and
    ``per_epoch_losses`` (each epoch's per-sample losses after its last
    step) ride along for callers that want them but are not part of the
    JSON summary.
    """

    epochs: int
    best_acc: float
    last_acc: float
    per_epoch: list[EpochStats]
    step_acc: list[tuple[int, float]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    final_params: ModelParams | None = None
    per_epoch_losses: list[np.ndarray] = field(default_factory=list)

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
    """Cross-entropy ``-log(max(p[label], 1e-300))`` of each observed label
    with dropout off.

    Given ``features``, one per example, the documents are scored in batched
    forward passes (:func:`eval_logits`). Without them, each text is
    featurized and scored on its own: one :func:`featurize_text` and one
    :func:`predict_proba` call per document. Either way a non-finite
    forward pass raises :class:`NumericError`.
    """
    if features is None:
        features = [featurize_text(ex.text, params.num_buckets) for ex in dataset]
        losses = np.empty(len(dataset))
        for i, ex in enumerate(dataset):
            p = predict_proba(params, features[i])
            if not np.isfinite(p).all():
                raise NumericError(f"non-finite logits for document {i} of {len(dataset)}")
            losses[i] = -math.log(max(float(p[ex.observed_label]), 1e-300))
        return losses
    labels = dataset.observed_labels()
    p = np.exp(log_softmax(eval_logits(params, features)))
    return -np.log(np.maximum(p[np.arange(labels.size), labels], 1e-300))


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


def select_split(losses: np.ndarray, tau: float) -> DataSplit:
    """Fit the loss mixture and threshold clean posteriors at ``tau``.

    Fallback: when the losses hold fewer than two distinct values no
    mixture can be fit, so ``gmm`` is None and every position keeps its
    label with posterior 1.0, as :func:`~selfmix.gmm.posterior_clean` does
    for coincident means.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if np.unique(losses).size < 2:
        gmm, posteriors = None, np.ones(losses.size)
    else:
        gmm = fit_gmm(losses)
        posteriors = posterior_clean(gmm, losses)
    return DataSplit(posteriors >= tau, posteriors, gmm)


def sharpen(p: np.ndarray, temperature: float) -> np.ndarray:
    """Raise each distribution (last axis) to 1/temperature and renormalize."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    p = np.asarray(p, dtype=np.float64)
    powered = p ** (1.0 / temperature)
    total = powered.sum(axis=-1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(total) & (total > 0.0)))
    if bad.size:
        raise NumericError(
            f"sharpen: distribution {int(bad[0])} has zero or non-finite mass "
            "after tempering"
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


def selection_prf(unlabeled: np.ndarray, noisy: np.ndarray) -> tuple[float, float, float]:
    """Precision/recall/F1 of the unlabeled set as a noisy-label detector.

    Both arguments are bool masks over the same positions. Precision is the
    fraction of unlabeled samples that are truly mislabeled; recall is the
    fraction of mislabeled samples that were sent to the unlabeled set.
    Empty denominators yield 0.
    """
    unlabeled, noisy = np.asarray(unlabeled), np.asarray(noisy)
    if unlabeled.dtype != bool or noisy.dtype != bool:
        raise ValueError("selection_prf takes two bool masks, not ids")
    if unlabeled.shape != noisy.shape:
        raise ValueError(
            f"unlabeled and noisy masks differ in shape: {unlabeled.shape} vs {noisy.shape}"
        )
    hit = int(np.count_nonzero(unlabeled & noisy))
    sent, flipped = int(np.count_nonzero(unlabeled)), int(np.count_nonzero(noisy))
    precision = hit / sent if sent else 0.0
    recall = hit / flipped if flipped else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return precision, recall, f1


def eval_logits(params: ModelParams, features: list[FeatureVector]) -> np.ndarray:
    """Dropout-off logits of many documents, one row each, in forward passes
    of ``_EVAL_CHUNK`` documents (:func:`~selfmix.encoder.predict_logits`).

    Raises :class:`NumericError` when a row is not finite, as happens when
    a diverged model's forward pass overflows.
    """
    logits = np.empty((len(features), params.num_classes))
    for start in range(0, len(features), _EVAL_CHUNK):
        chunk = features[start : start + _EVAL_CHUNK]
        logits[start : start + len(chunk)] = predict_logits(params, chunk)
    bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
    if bad.size:
        raise NumericError(
            f"non-finite logits for document {int(bad[0])} of {len(features)}"
        )
    return logits


def accuracy(
    params: ModelParams, features: list[FeatureVector], labels: np.ndarray
) -> float:
    """Dropout-off classification accuracy."""
    if not features:
        return 0.0
    hits = np.argmax(eval_logits(params, features), axis=1) == np.asarray(labels)
    return int(np.sum(hits)) / len(features)


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


# builds batch b's loss terms from its training positions
_ItemBuilder = Callable[[int, np.ndarray], list[BatchItem]]


def _ce_items(features: list[FeatureVector], targets: np.ndarray) -> _ItemBuilder:
    """Batch builder for plain cross-entropy on the rows of ``targets``."""

    def items_for(b: int, batch: np.ndarray) -> list[BatchItem]:
        return [
            BatchItem(features[i], "ce", targets[i], weight=1.0 / batch.size, key=int(i))
            for i in batch
        ]

    return items_for


def _epoch(
    params: ModelParams,
    items_for: _ItemBuilder,
    step: Callable[[Gradients], None],
    *,
    size: int,
    batch_size: int,
    seed: int,
    epoch: int,
    limit: int | None = None,
) -> dict[str, float]:
    """One shuffled pass over ``size`` training positions; the mean loss of each kind.

    Every epoch of every trainer runs this loop. ``items_for(b, batch)``
    builds batch ``b``'s loss terms from its positions and ``step`` applies
    its gradients, so equal seeds give identical shuffles and dropout masks.
    A :class:`NumericError` is re-raised naming the epoch and the batch.
    """
    sums = {"ce": [0.0, 0], "pseudo": [0.0, 0], "rdrop": [0.0, 0]}
    for b, batch in enumerate(_shuffled_batches(size, batch_size, seed, epoch, limit)):
        try:
            items = items_for(b, batch)
            mask_seed = subseed(seed, "dropout", epoch, b)
            _, grads, breakdown = backward(params, items, mask_seed=mask_seed)
            step(grads)
        except NumericError as err:
            raise NumericError(f"epoch {epoch}, batch {b}: {err}") from err
        for kind, (raw, n) in breakdown.items():
            sums[kind][0] += raw
            sums[kind][1] += n
    return {kind: (s / n if n else 0.0) for kind, (s, n) in sums.items()}


class _Run:
    """Shared state for one training run (either arm)."""

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        model: ModelConfig,
        cfg: SelfMixConfig,
        eval_every: int,
    ):
        if eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        self.train = train
        self.cfg = cfg
        self.eval_every = eval_every
        # The model owns a row for each bucket of the training corpus, so the
        # corpus is featurized first; the table and the Adam moments are then
        # allocated once, at their final size, before the first forward pass.
        self.features = featurize_corpus([ex.text for ex in train], model.num_buckets)
        self.test_features = featurize_corpus([ex.text for ex in test], model.num_buckets)
        self.labels = train.observed_labels()
        self.targets = one_hot(self.labels, train.num_classes)
        self.test_labels = test.observed_labels()
        self.params = init_params(
            model.num_buckets,
            model.hidden,
            train.num_classes,
            model.dropout_rate,
            subseed(cfg.seed, "init"),
            buckets=corpus_buckets(self.features, model.num_buckets),
        )
        self.opt = init_optimizer(
            self.params,
            learning_rate=model.learning_rate,
            beta1=model.beta1,
            beta2=model.beta2,
            epsilon=model.epsilon,
        )
        self.global_step = 0
        self.step_acc: list[tuple[int, float]] = []
        self.warnings: list[str] = []
        self.loss_snapshots: list[np.ndarray] = []
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

    def _train_epoch(
        self, items_for: _ItemBuilder, epoch: int, limit: int | None = None
    ) -> dict[str, float]:
        return _epoch(
            self.params,
            items_for,
            self._step,
            size=len(self.train),
            batch_size=self.cfg.batch_size,
            seed=self.cfg.seed,
            epoch=epoch,
            limit=limit,
        )

    def ce_epoch(self, epoch: int, limit: int | None = None) -> dict[str, float]:
        return self._train_epoch(_ce_items(self.features, self.targets), epoch, limit)

    def guess(self, members: np.ndarray) -> np.ndarray:
        """Sharpened dropout-off predictions for the training positions
        ``members``, one row each, from batched forward passes."""
        logits = eval_logits(self.params, [self.features[i] for i in members])
        return sharpen(softmax(logits), self.cfg.temperature)

    def selfmix_epoch(self, epoch: int) -> tuple[DataSplit, dict[str, float]]:
        """One adaptive epoch: select, then per batch pseudo-label, mix, step.

        Selection happens once at the top of the epoch; pseudo-labels are
        recomputed inside every mini-batch from the current model with
        dropout off, so label guesses track the parameters as they move.
        """
        cfg = self.cfg
        losses = self.losses()
        if cfg.class_regularize:
            losses = class_regularize(losses, self.labels, self.train.num_classes)
        split = select_split(losses, cfg.tau)
        if split.gmm is None:
            self.warnings.append(
                f"epoch {epoch}: selection losses hold fewer than two distinct "
                "values; no mixture was fit and every sample keeps its label"
            )
        if not split.labeled.any():
            self.warnings.append(
                f"epoch {epoch}: selection kept no labeled samples; "
                "training continues on model-assigned targets only"
            )

        def items_for(b: int, batch: np.ndarray) -> list[BatchItem]:
            m = batch.size
            rng = np.random.default_rng(subseed(cfg.seed, "mixup", epoch, b))
            lam = rng.beta(cfg.alpha, cfg.alpha, size=m)
            partners = rng.integers(0, m, size=m)
            bags = [self.features[i] for i in batch]
            targets = self.targets[batch]
            u_rows = np.flatnonzero(~split.labeled[batch])
            u_members = batch[u_rows]
            if u_rows.size:
                targets[u_rows] = self.guess(u_members)
            partner_bags = [bags[j] for j in partners]
            mixed = embmix(bags, targets, partner_bags, targets[partners], lam)
            items = [
                BatchItem(bag, "ce", target, weight=1.0 / m, key=_MIX_KEY_BASE + k)
                for k, (bag, target) in enumerate(zip(mixed.bags, mixed.targets))
            ]
            norm = u_rows.size if cfg.term_normalization == "mean" else 1
            for kind, weight in (("pseudo", cfg.lambda_p), ("rdrop", cfg.lambda_r)):
                if weight > 0.0:
                    items.extend(
                        BatchItem(self.features[i], kind, weight=weight / norm, key=int(i))
                        for i in u_members
                    )
            return items

        return split, self._train_epoch(items_for, epoch)

    def stats_for(self, means: dict[str, float], split: DataSplit | None) -> EpochStats:
        if split is not None and self.train.has_oracle():
            precision, recall, f1 = selection_prf(~split.labeled, self.train.noisy_mask())
        else:
            precision = recall = f1 = 0.0
        labeled = int(np.count_nonzero(split.labeled)) if split is not None else len(self.train)
        return EpochStats(
            test_acc=self.test_accuracy(),
            sel_precision=precision,
            sel_recall=recall,
            sel_f1=f1,
            l_mix=means["ce"],
            l_p=means["pseudo"],
            l_r=means["rdrop"],
            labeled_count=labeled,
        )

    def finish(self, per_epoch: list[EpochStats]) -> TrainReport:
        accs = [s.test_acc for s in per_epoch]
        return TrainReport(
            epochs=len(per_epoch),
            best_acc=max(accs),
            last_acc=accs[-1],
            per_epoch=per_epoch,
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
    epochs: int,
    batch_size: int = 32,
    seed: int = 0,
) -> tuple[ModelParams, OptimizerState]:
    """``epochs`` full passes of plain cross-entropy on observed labels, in place.

    The optimizer state supplies the step-size hyperparameters. It runs the
    same epoch loop as the training arms, so ``epochs`` passes here match
    ``epochs`` plain-arm epochs bit for bit.
    ``params`` must own every bucket of ``dataset`` (build it with
    ``init_params(..., buckets=corpus_buckets(features, num_buckets))``);
    otherwise the first step raises ``ValueError``. The instance-dependent
    noise injector trains its auxiliary model with it.
    """
    features = featurize_corpus([ex.text for ex in dataset], params.num_buckets)
    items_for = _ce_items(features, one_hot(dataset.observed_labels(), dataset.num_classes))
    for epoch in range(epochs):
        _epoch(
            params,
            items_for,
            lambda grads: adam_step(params, grads, opt),
            size=len(dataset),
            batch_size=batch_size,
            seed=seed,
            epoch=epoch,
        )
    return params, opt


def _train(
    train: Dataset,
    test: Dataset,
    model: ModelConfig | None,
    cfg: SelfMixConfig,
    warmup_limits: list[int | None],
    eval_every: int,
) -> TrainReport:
    """Cross-entropy epochs per ``warmup_limits``, then adaptive epochs."""
    run = _Run(train, test, model or ModelConfig(), cfg, eval_every)
    per_epoch: list[EpochStats] = []
    for epoch in range(cfg.total_epochs):
        if epoch < len(warmup_limits):
            split, means = None, run.ce_epoch(epoch, warmup_limits[epoch])
        else:
            split, means = run.selfmix_epoch(epoch)
        run.loss_snapshots.append(run.losses())
        per_epoch.append(run.stats_for(means, split))
    return run.finish(per_epoch)


def train_baseline(
    train: Dataset,
    test: Dataset,
    model: ModelConfig | None = None,
    cfg: SelfMixConfig | None = None,
    *,
    eval_every: int = 50,
) -> TrainReport:
    """Plain cross-entropy training for the full epoch budget."""
    cfg = cfg or SelfMixConfig()
    return _train(train, test, model, cfg, [None] * cfg.total_epochs, eval_every)


def train_selfmix(
    train: Dataset,
    test: Dataset,
    model: ModelConfig | None = None,
    cfg: SelfMixConfig | None = None,
    *,
    eval_every: int = 50,
) -> TrainReport:
    """Warm-up then adaptive selection/mixing for the remaining epochs."""
    cfg = cfg or SelfMixConfig()
    limits = _warmup_schedule(cfg.warmup_epochs, cfg.warmup_samples, len(train))
    if len(limits) > cfg.total_epochs:
        raise ValueError(
            "warmup_samples spans more passes than total_epochs allows"
        )
    return _train(train, test, model, cfg, limits, eval_every)
