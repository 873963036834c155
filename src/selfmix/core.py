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

:func:`embmix` builds each mixed example as a batch record naming its two
parents' rows and its coefficient: it reads the same mix of the parents'
pooled embeddings, and the mixup term trains the embedding rows of both, as
mixing hidden representations does in the paper. Only the unlabeled members
of a batch get a forward pass of their own, to guess their targets. Every
dropout-off inference (per-sample losses, test accuracy, those guesses and
the instance-dependent injector's margins) runs through
:func:`~selfmix.encoder.predict_logits` on rows of a
:class:`~selfmix.encoder.FeatureMatrix`. A corpus is featurized once, by
:func:`~selfmix.encoder.featurize_corpus`, and a training batch names rows
of that one matrix by position.
Warm-up epochs of plain cross-entropy precede selection so that early
losses are informative. One batch loop, :func:`_epoch`, runs every epoch of
the warm-up, the plain arm, the standalone :func:`warmup` and the adaptive
arm; they differ only in the loss terms each batch gets, and every loss
formula lives in :func:`selfmix.encoder.backward`. A selection is a bool
mask over training positions (:class:`DataSplit`), as is the ground-truth
noise it is scored against. A per-class loss standardization switch makes
selection robust when different classes have different loss scales.

Both arms draw the same init seed, shuffles and dropout keys, so their
full-pass warm-up epochs are one computation. Given a :class:`SharedWarmup`,
the two trainers featurize, initialize and warm up once, and each arm ends
where it would alone. What the warm-up changed on the run (parameters, Adam
state, step count and records) is pickled to an anonymous temporary file,
about 12 MB at 2^18 buckets on the quick-start corpus, and the second arm
unpickles it onto fresh arrays over the first run's read-only corpus; the
file is removed when the ``with`` block of the shared warm-up ends. A
partial ``warmup_samples`` pass is not shared.

Ground-truth labels, when present on a dataset, are used only to report
selection quality; they never influence training decisions.
"""
from __future__ import annotations

import dataclasses
import math
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import IO, Callable

import numpy as np

from .common import NumericError, subseed
from .data import Dataset, one_hot
from .encoder import (
    FeatureMatrix,
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
    make_batch,
    predict_logits,
    predict_proba,
    softmax,
)
from .encoder import encode  # noqa: F401  (perfbench/spans.py wraps this binding)
from .encoder import head_forward  # noqa: F401  (perfbench/spans.py wraps this binding)
from .gmm import GMMParams, fit_gmm, posterior_clean

_MIX_KEY_BASE = 1_000_000


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
    together. The confidence and agreement terms are averaged over the
    unlabeled members of each batch.
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
    features: FeatureMatrix | None = None,
) -> np.ndarray:
    """Cross-entropy ``-log(max(p[label], 1e-300))`` of each observed label,
    ``p`` from :func:`predict_proba`.

    Given ``features``, one row per example, the documents are scored in
    batched forward passes. Without them, each text is featurized and
    scored alone: one :func:`featurize_text` and one :func:`predict_proba`
    call per document. A non-finite forward pass raises
    :class:`NumericError` naming the document; a row count other than the
    dataset's raises ``ValueError``.
    """
    labels = dataset.observed_labels()
    if features is None:
        p = np.empty((labels.size, params.num_classes))
        for i, ex in enumerate(dataset):
            try:
                p[i] = predict_proba(params, featurize_text(ex.text, params.num_buckets))[0]
            except NumericError:
                raise NumericError(f"non-finite logits for document {i} of {labels.size}") from None
    else:
        _check_rows(features, labels.size, "examples")
        p = predict_proba(params, features)
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
    rows_a: np.ndarray,
    targets_a: np.ndarray,
    rows_b: np.ndarray,
    targets_b: np.ndarray,
    lam: np.ndarray,
    *,
    weight: float = 1.0,
    key: int = 0,
) -> np.recarray:
    """Mixup terms, one per pair of feature rows, with coefficients folded
    into [0.5, 1].

    Folding ``lam`` to ``max(lam, 1 - lam)`` keeps each mixed example
    dominated by its first parent, so the mixed pair inherits that parent's
    identity. Record ``k`` of the batch is a ``"ce"`` term on row
    ``rows_a[k]`` with partner ``rows_b[k]`` and coefficient ``lam'``: it
    reads ``lam' * e(a) + (1 - lam') * e(b)`` of the parents' pooled rows
    and trains toward the same mix of their targets, so the mixup loss
    trains the embedding rows of both, as mixing hidden representations
    does. Every term has weight ``weight``; term ``k``'s dropout key is
    ``key + k``.
    """
    lam = np.asarray(lam, dtype=np.float64)
    sizes = (len(rows_a), len(targets_a), len(rows_b), len(targets_b), lam.size)
    if len(set(sizes)) > 1:
        raise ValueError(f"embmix needs equal numbers of rows, targets and lam; got {sizes}")
    lam_prime = np.maximum(lam, 1.0 - lam)
    targets = lam_prime[:, None] * targets_a + (1.0 - lam_prime)[:, None] * targets_b
    return make_batch(
        rows_a, "ce", target=targets, weight=weight, key=key + np.arange(lam.size),
        partner=rows_b, lam=lam_prime,
    )


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


def _check_rows(features: FeatureMatrix, expected: int, what: str) -> None:
    if len(features) != expected:
        raise ValueError(f"the feature matrix has {len(features)} rows for {expected} {what}")


def accuracy(params: ModelParams, features: FeatureMatrix, labels: np.ndarray) -> float:
    """Dropout-off classification accuracy of the rows of ``features``, one
    per label; a row count other than the labels' raises ``ValueError``."""
    labels = np.asarray(labels)
    _check_rows(features, labels.size, "labels")
    if not len(features):
        return 0.0
    hits = np.argmax(predict_logits(params, features), axis=1) == labels
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


def warmup_schedule(cfg: SelfMixConfig, size: int) -> list[int | None]:
    """Per-warm-up-epoch sample limits on ``size`` training examples; None
    means a full pass.

    A ``warmup_samples`` budget is spread over ceil(budget / size) passes,
    the last of which may be partial; each pass still occupies one epoch
    row. Raises ``ValueError`` when those passes outnumber ``total_epochs``.
    """
    if cfg.warmup_epochs is not None:
        return [None] * cfg.warmup_epochs
    full, rest = divmod(cfg.warmup_samples, size) if size else (0, 0)
    if full + (rest > 0) > cfg.total_epochs:
        raise ValueError(
            f"warmup_samples = {cfg.warmup_samples} spans more passes over "
            f"{size} training examples than total_epochs = {cfg.total_epochs} allows"
        )
    return [None] * full + ([rest] if rest else [])


# builds batch b's loss terms from its training positions
_ItemBuilder = Callable[[int, np.ndarray], np.recarray]


def _ce_items(targets: np.ndarray) -> _ItemBuilder:
    """Batch builder for plain cross-entropy on the rows of ``targets``."""
    return lambda b, batch: make_batch(
        batch, "ce", target=targets[batch], weight=1.0 / batch.size, key=batch
    )


def _epoch(
    params: ModelParams,
    features: FeatureMatrix,
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
    builds batch ``b``'s loss terms on rows of ``features`` from its
    positions and ``step`` applies its gradients, so equal seeds give
    identical shuffles and dropout masks.
    A :class:`NumericError` is re-raised naming the epoch and the batch.
    """
    sums = {"ce": [0.0, 0], "pseudo": [0.0, 0], "rdrop": [0.0, 0]}
    for b, batch in enumerate(_shuffled_batches(size, batch_size, seed, epoch, limit)):
        try:
            items = items_for(b, batch)
            mask_seed = subseed(seed, "dropout", epoch, b)
            _, grads, breakdown = backward(params, items, features, mask_seed=mask_seed)
            step(grads)
        except NumericError as err:
            raise NumericError(f"epoch {epoch}, batch {b}: {err}") from err
        for kind, (raw, n) in breakdown.items():
            sums[kind][0] += raw
            sums[kind][1] += n
    return {kind: (s / n if n else 0.0) for kind, (s, n) in sums.items()}


class _Run:
    """Shared state for one training run (either arm).

    ``PROGRESS`` names the attributes training changes: the parameters, the
    Adam state, the step count and the records. The rest is the read-only
    corpus the run trains on.
    """

    PROGRESS = (
        "params", "opt", "global_step", "step_acc", "warnings",
        "loss_snapshots", "per_epoch", "_losses",
    )

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
        # allocated once, at their final size and in float32, before the
        # first forward pass.
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
            dtype=np.float32,
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
        self.per_epoch: list[EpochStats] = []
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
            self.features,
            items_for,
            self._step,
            size=len(self.train),
            batch_size=self.cfg.batch_size,
            seed=self.cfg.seed,
            epoch=epoch,
            limit=limit,
        )

    def ce_epoch(self, epoch: int, limit: int | None = None) -> dict[str, float]:
        return self._train_epoch(_ce_items(self.targets), epoch, limit)

    def guess(self, members: np.ndarray) -> np.ndarray:
        """Sharpened dropout-off predictions for the training positions
        ``members``, one row each, from batched forward passes."""
        logits = predict_logits(self.params, self.features.take(members))
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

        def items_for(b: int, batch: np.ndarray) -> np.recarray:
            m = batch.size
            rng = np.random.default_rng(subseed(cfg.seed, "mixup", epoch, b))
            lam = rng.beta(cfg.alpha, cfg.alpha, size=m)
            partners = rng.integers(0, m, size=m)
            targets = self.targets[batch]
            u_rows = np.flatnonzero(~split.labeled[batch])
            u_members = batch[u_rows]
            if u_rows.size:
                targets[u_rows] = self.guess(u_members)
            parts = [embmix(
                batch, targets, batch[partners], targets[partners], lam,
                weight=1.0 / m, key=_MIX_KEY_BASE,
            )]
            for kind, weight in (("pseudo", cfg.lambda_p), ("rdrop", cfg.lambda_r)):
                if weight > 0.0 and u_rows.size:
                    parts.append(make_batch(
                        u_members, kind, target=targets[u_rows], weight=weight / u_rows.size,
                        key=u_members,
                    ))
            return np.concatenate(parts).view(np.recarray)

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

    def run_epochs(self, warmup_limits: list[int | None], stop: int) -> None:
        """Epochs ``len(self.per_epoch)`` up to ``stop``: cross-entropy per
        ``warmup_limits``, adaptive after them."""
        for epoch in range(len(self.per_epoch), stop):
            if epoch < len(warmup_limits):
                split, means = None, self.ce_epoch(epoch, warmup_limits[epoch])
            else:
                split, means = self.selfmix_epoch(epoch)
            self.loss_snapshots.append(self.losses())
            self.per_epoch.append(self.stats_for(means, split))

    def finish(self) -> TrainReport:
        accs = [s.test_acc for s in self.per_epoch]
        return TrainReport(
            epochs=len(self.per_epoch),
            best_acc=max(accs),
            last_acc=accs[-1],
            per_epoch=self.per_epoch,
            step_acc=self.step_acc,
            warnings=self.warnings,
            final_params=self.params,
            per_epoch_losses=self.loss_snapshots,
        )


def warmup(
    params: ModelParams,
    opt: OptimizerState,
    features: FeatureMatrix,
    labels: np.ndarray,
    *,
    epochs: int,
    batch_size: int = 32,
    seed: int = 0,
) -> tuple[ModelParams, OptimizerState]:
    """``epochs`` full passes of plain cross-entropy on feature rows and
    their int ``labels``, in place.

    The optimizer state supplies the step-size hyperparameters. It runs the
    same epoch loop as the training arms, so ``epochs`` passes here match
    ``epochs`` plain-arm epochs bit for bit.
    ``params`` must own every bucket of ``features`` (build it with
    ``init_params(..., buckets=corpus_buckets(features, num_buckets))``);
    otherwise the first step raises ``ValueError``. The instance-dependent
    noise injector trains its auxiliary model with it.
    """
    items_for = _ce_items(one_hot(labels, params.num_classes))
    for epoch in range(epochs):
        _epoch(
            params,
            features,
            items_for,
            lambda grads: adam_step(params, grads, opt),
            size=len(features),
            batch_size=batch_size,
            seed=seed,
            epoch=epoch,
        )
    return params, opt


class SharedWarmup:
    """The warm-up of a two-arm run, computed once and continued by each arm.

    Both arms draw the same init seed, shuffles and dropout keys, so their
    leading full-pass warm-up epochs (the leading ``None`` entries of
    :func:`warmup_schedule`) are one computation. The first trainer given
    this object featurizes, initializes and runs those epochs, pickles the
    run's progress (:attr:`_Run.PROGRESS`) to an anonymous temporary file
    outside any run directory, and continues from the in-memory state. Each
    later trainer unpickles its own copy of that progress over the first
    run's read-only corpus, so two arms' models never coexist. A partial
    ``warmup_samples`` pass is not shared. Every trainer must get the same
    inputs. Use it as a context manager: leaving it removes the spill.
    """

    def __init__(self) -> None:
        self._inputs: tuple | None = None
        self._spill: IO[bytes] | None = None
        self._corpus: dict[str, object] = {}  # the first run's read-only attributes

    def __enter__(self) -> "SharedWarmup":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._spill is not None:
            self._spill.close()
        self._inputs = self._spill = None
        self._corpus = {}

    def resume(
        self,
        train: Dataset,
        test: Dataset,
        model: ModelConfig,
        cfg: SelfMixConfig,
        eval_every: int,
    ) -> _Run:
        """A run whose shared warm-up epochs are done, on arrays no other
        run holds."""
        inputs = (train, test, model, cfg, eval_every)
        if self._spill is None:
            run = _Run(*inputs)
            limits = warmup_schedule(cfg, len(train))
            full = next((e for e, limit in enumerate(limits) if limit is not None), len(limits))
            run.run_epochs(limits, full)
            progress = {name: getattr(run, name) for name in _Run.PROGRESS}
            self._corpus = {k: v for k, v in vars(run).items() if k not in progress}
            self._spill = tempfile.TemporaryFile()
            pickle.dump(progress, self._spill, protocol=5)
            self._inputs = inputs
            return run
        if inputs != self._inputs:
            raise ValueError("a shared warm-up continues only the inputs it was built from")
        self._spill.seek(0)
        run = _Run.__new__(_Run)
        vars(run).update(self._corpus)
        # the spill holds only what this object wrote, so no outside input is unpickled
        vars(run).update(pickle.load(self._spill))
        return run


def _train(
    train: Dataset,
    test: Dataset,
    model: ModelConfig | None,
    cfg: SelfMixConfig,
    warmup_limits: list[int | None],
    eval_every: int,
    shared: SharedWarmup | None,
) -> TrainReport:
    """Cross-entropy epochs per ``warmup_limits``, then adaptive epochs."""
    inputs = (train, test, model or ModelConfig(), cfg, eval_every)
    run = _Run(*inputs) if shared is None else shared.resume(*inputs)
    run.run_epochs(warmup_limits, cfg.total_epochs)
    return run.finish()


def train_baseline(
    train: Dataset,
    test: Dataset,
    model: ModelConfig | None = None,
    cfg: SelfMixConfig | None = None,
    *,
    eval_every: int = 50,
    shared: SharedWarmup | None = None,
) -> TrainReport:
    """Plain cross-entropy training for the full epoch budget; from
    ``shared``'s warm-up when given."""
    cfg = cfg or SelfMixConfig()
    return _train(train, test, model, cfg, [None] * cfg.total_epochs, eval_every, shared)


def train_selfmix(
    train: Dataset,
    test: Dataset,
    model: ModelConfig | None = None,
    cfg: SelfMixConfig | None = None,
    *,
    eval_every: int = 50,
    shared: SharedWarmup | None = None,
) -> TrainReport:
    """Warm-up then adaptive selection/mixing for the remaining epochs; from
    ``shared``'s warm-up when given."""
    cfg = cfg or SelfMixConfig()
    limits = warmup_schedule(cfg, len(train))
    return _train(train, test, model, cfg, limits, eval_every, shared)
