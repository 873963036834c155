"""Dataset containers, label helpers, and the CSV corpus format.

Labels are stored as integer class indices; one-hot vectors are materialized
only where a formula needs them. The oracle field ``true_label`` exists to
evaluate noise injection and sample selection and must never feed a
training decision: training reads only ``text`` and ``observed_label``.

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
    """One text/label pair. ``true_label`` is evaluation-only."""

    id: int
    text: str
    observed_label: int
    true_label: int | None = None


@dataclass(frozen=True)
class Dataset:
    examples: tuple[Example, ...]
    num_classes: int
    name: str = ""

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __getitem__(self, i: int) -> Example:
        return self.examples[i]

    def observed_labels(self) -> np.ndarray:
        return np.array([ex.observed_label for ex in self.examples], dtype=np.int64)

    def has_oracle(self) -> bool:
        return any(ex.true_label is not None for ex in self.examples)

    def noisy_mask(self) -> np.ndarray:
        """One bool per position, true where a known true label differs
        from the observed one."""
        return np.array(
            [ex.true_label is not None and ex.true_label != ex.observed_label for ex in self],
            dtype=bool,
        )


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
    """Collect every invariant violation instead of raising on the first."""
    findings: list[str] = []
    seen: set[int] = set()
    for ex in dataset.examples:
        if ex.id in seen:
            findings.append(f"duplicate id {ex.id}")
        seen.add(ex.id)
        if not 0 <= ex.observed_label < dataset.num_classes:
            findings.append(f"example {ex.id}: observed label out of range")
        if ex.true_label is not None and not 0 <= ex.true_label < dataset.num_classes:
            findings.append(f"example {ex.id}: true label out of range")
        if not ex.text:
            findings.append(f"example {ex.id}: empty text")
    if seen != set(range(len(dataset.examples))):
        findings.append("ids are not exactly 0..N-1")
    return ValidationReport(tuple(findings))


def stratified_subsample(dataset: Dataset, n: int, seed: int) -> np.ndarray:
    """Sorted int64 positions of ``n`` examples, with per-class counts within
    1 of proportionality.

    Quotas use largest-remainder rounding (ties broken by lower class index);
    members are drawn without replacement per class. Deterministic given
    ``seed``.
    """
    total = len(dataset)
    if n > total:
        raise ValueError(f"requested {n} examples from a dataset of {total}")
    labels = dataset.observed_labels()
    classes, sizes = np.unique(labels, return_counts=True)
    quotas = n * sizes / total
    counts = np.floor(quotas).astype(np.int64)
    counts[np.lexsort((classes, -(quotas - counts)))[: n - counts.sum()]] += 1

    rng = np.random.default_rng(seed)
    chosen = [np.zeros(0, dtype=np.int64)]
    for c, size, k in zip(classes.tolist(), sizes.tolist(), counts.tolist()):
        chosen.append(np.flatnonzero(labels == c)[rng.choice(size, size=k, replace=False)])
    return np.sort(np.concatenate(chosen))


def _strict_rows(reader, path: Path):
    """``(line, row)`` for each record of ``reader``, a
    ``csv.reader(..., strict=True)``, where ``line`` is the 1-based line the
    record starts on; malformed quoting raises ``ValueError`` naming the line
    its record starts on."""
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}: line {line}: malformed CSV: {exc}") from None


_HEADER_PLAIN = ["label", "text"]
_HEADER_ORACLE = ["label", "text", "true_label"]


def load_csv(path: str | Path, num_classes: int | None = None) -> Dataset:
    """Read a corpus CSV (``label,text[,true_label]``; RFC-4180 quoting,
    parsed strictly: a quote still open at the end of the file, or text
    after a closing quote, raises ``ValueError``).

    When ``num_classes`` is given, labels are checked against it while
    parsing; otherwise the class count is inferred as max label + 1. The
    optional ``true_label`` column populates the oracle channel.
    """
    path = Path(path)
    examples: list[Example] = []
    labels_seen: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, strict=True)
        rows = _strict_rows(reader, path)
        _, header = next(rows, (None, None))
        if header not in (_HEADER_PLAIN, _HEADER_ORACLE):
            raise ValueError(f"{path}: unknown header {header!r}")
        has_true = header == _HEADER_ORACLE
        for line, row in rows:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                label = int(row[0])
                true = int(row[2]) if has_true else None
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: {exc}") from None
            for value in (label,) + ((true,) if has_true else ()):
                if value < 0 or (num_classes is not None and value >= num_classes):
                    raise ValueError(
                        f"{path}: line {line}: label {value} out of range"
                    )
            examples.append(Example(len(examples), row[1], label, true))
            labels_seen.append(label)
            if has_true:
                labels_seen.append(true)
    if num_classes is None:
        if not labels_seen:
            raise ValueError(f"{path}: cannot infer class count from an empty corpus")
        num_classes = max(labels_seen) + 1
    return Dataset(tuple(examples), num_classes, path.stem)


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write the corpus CSV; the oracle column appears iff any example has one."""
    if not dataset.has_oracle():
        rows = [_HEADER_PLAIN] + [[ex.observed_label, ex.text] for ex in dataset]
    else:
        rows = [_HEADER_ORACLE] + [
            [ex.observed_label, ex.text,
             ex.observed_label if ex.true_label is None else ex.true_label]
            for ex in dataset
        ]
    write_csv(path, rows)
