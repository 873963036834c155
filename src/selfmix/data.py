"""Dataset columns, label helpers, and the CSV corpus format.

A :class:`Dataset` holds a corpus as read-only columns, and a row's position
is its id. Labels are integer class indices; one-hot vectors are
materialized only where a formula needs them. ``true_labels`` exists to
evaluate noise injection and sample selection and must never feed a
training decision: training reads only ``texts`` and ``labels``.

Datasets are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .common import write_csv


@dataclass(frozen=True)
class Example:
    """One row for the adapter ``Dataset(examples, num_classes, name)``.
    ``id`` must equal the row's position; ``true_label`` is evaluation-only."""

    id: int
    text: str
    observed_label: int
    true_label: int | None = None


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """A corpus as read-only columns, built by :meth:`from_columns`;
    ``true_labels`` is ``None`` for a corpus without an oracle.
    ``Dataset(examples, num_classes, name)`` adapts rows: it refuses an id
    other than the position, and fills a missing true label of an oracle
    corpus with the observed label."""

    texts: tuple[str, ...]
    labels: np.ndarray
    true_labels: np.ndarray | None
    num_classes: int
    name: str

    def __init__(self, examples: tuple[Example, ...], num_classes: int, name: str = "") -> None:
        examples = tuple(examples)
        for i, ex in enumerate(examples):
            if ex.id != i:
                raise ValueError(f"example at position {i} has id {ex.id}, not {i}")
        labels = [ex.observed_label for ex in examples]
        true = [y if ex.true_label is None else ex.true_label for ex, y in zip(examples, labels)]
        oracle = any(ex.true_label is not None for ex in examples)
        texts = [ex.text for ex in examples]
        columns = Dataset.from_columns(texts, labels, true if oracle else None, num_classes, name)
        vars(self).update(vars(columns))

    @classmethod
    def from_columns(cls, texts, labels, true_labels, num_classes: int, name: str = "") -> Dataset:
        """The dataset of ``texts`` with the observed ``labels`` and the
        ``true_labels`` (or ``None``); the label columns are copied."""
        texts, dataset = tuple(texts), cls.__new__(cls)
        columns = {"labels": labels, "true_labels": true_labels}
        for field, values in columns.items():
            if values is not None:
                columns[field] = column = np.array(values, dtype=np.int64)
                if column.shape != (len(texts),):
                    raise ValueError(f"{field} has shape {column.shape} for {len(texts)} texts")
                column.flags.writeable = False
        vars(dataset).update(texts=texts, num_classes=int(num_classes), name=name, **columns)
        return dataset

    def __reduce__(self):
        """Pickle and copy through :meth:`from_columns`, so a copy's label
        columns are read-only as the original's are."""
        return Dataset.from_columns, (
            self.texts, self.labels, self.true_labels, self.num_classes, self.name
        )

    def __len__(self) -> int:
        return len(self.texts)

    def has_oracle(self) -> bool:
        return self.true_labels is not None

    def noisy_mask(self) -> np.ndarray:
        """One bool per position, true where the true label differs from the observed one."""
        return self.labels != (self.labels if self.true_labels is None else self.true_labels)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot rows of the int array ``labels``; refuses a label outside
    [0, num_classes)."""
    labels = np.asarray(labels)
    if labels.size and not 0 <= labels.min() <= labels.max() < num_classes:
        bad = labels[(labels < 0) | (labels >= num_classes)].flat[0]
        raise ValueError(f"label {int(bad)} out of range for {num_classes} classes")
    return np.eye(num_classes)[labels]


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def validate(dataset: Dataset) -> ValidationReport:
    """Collect every invariant violation instead of raising on the first:
    each label in [0, num_classes) and each text non-empty."""
    n, c = len(dataset), dataset.num_classes
    true = dataset.true_labels
    checks = {
        "observed label out of range": (dataset.labels < 0) | (dataset.labels >= c),
        "true label out of range": np.zeros(n, bool) if true is None else (true < 0) | (true >= c),
        "empty text": np.array([not text for text in dataset.texts], dtype=bool),
    }
    names, masks = zip(*checks.items())
    failed = np.argwhere(np.column_stack(masks))  # (example, check) pairs in example order
    return ValidationReport(tuple(f"example {i}: {names[k]}" for i, k in failed.tolist()))


def stratified_subsample(dataset: Dataset, n: int, seed: int) -> np.ndarray:
    """Sorted int64 positions of ``n`` examples, with per-class counts within
    1 of proportionality.

    Quotas use largest-remainder rounding (ties broken by lower class index);
    members are drawn without replacement per class. Deterministic given
    ``seed``.
    """
    total = len(dataset)
    if not 0 <= n <= total:
        raise ValueError(f"requested n={n} examples from a dataset of {total}")
    labels = dataset.labels
    classes, sizes = np.unique(labels, return_counts=True)
    quotas = n * sizes / total
    counts = np.floor(quotas).astype(np.int64)
    counts[np.lexsort((classes, -(quotas - counts)))[: n - counts.sum()]] += 1

    rng = np.random.default_rng(seed)
    chosen = [np.zeros(0, dtype=np.int64)]
    for c, size, k in zip(classes.tolist(), sizes.tolist(), counts.tolist()):
        chosen.append(np.flatnonzero(labels == c)[rng.choice(size, size=k, replace=False)])
    return np.sort(np.concatenate(chosen))


_HEADER = ["label", "text", "true_label"]  # the last column is optional


def load_csv(path: str | Path, num_classes: int | None = None) -> Dataset:
    """Read a corpus CSV (``label,text[,true_label]``; RFC-4180 quoting,
    parsed strictly: a quote still open at the end of the file, or text
    after a closing quote, raises ``ValueError``). Every error names the
    1-based line its record starts on.

    When ``num_classes`` is given, labels are checked against it while
    parsing; otherwise the class count is inferred as max label + 1. The
    optional ``true_label`` column fills ``true_labels``.
    """
    path = Path(path)
    limit = float("inf") if num_classes is None else num_classes
    texts, labels, true_labels = [], [], []
    line = 1  # where the record being read starts
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            header = next(reader, None)
            if header not in (_HEADER[:2], _HEADER):
                raise ValueError(f"{path}: unknown header {header!r}")
            has_true = header == _HEADER
            line = reader.line_num + 1
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}: line {line}: expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    label = int(row[0])
                    true = int(row[2]) if has_true else label
                except ValueError as exc:
                    raise ValueError(f"{path}: line {line}: {exc}") from None
                for value in (label, true):
                    if not 0 <= value < limit:
                        raise ValueError(f"{path}: line {line}: label {value} out of range")
                texts.append(row[1])
                labels.append(label)
                true_labels.append(true)
                line = reader.line_num + 1
        except csv.Error as exc:
            raise ValueError(f"{path}: line {line}: malformed CSV: {exc}") from None
    if num_classes is None:
        if not labels:
            raise ValueError(f"{path}: cannot infer class count from an empty corpus")
        num_classes = max(labels + true_labels) + 1
    true_labels = true_labels if has_true else None
    return Dataset.from_columns(texts, labels, true_labels, num_classes, path.stem)


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write the corpus CSV: ``label,text``, then ``true_label`` iff the
    dataset has an oracle."""
    columns = [dataset.labels.tolist(), dataset.texts]
    if dataset.true_labels is not None:
        columns.append(dataset.true_labels.tolist())
    write_csv(path, [_HEADER[: len(columns)], *zip(*columns)])
