"""Dataset containers, label helpers, and the CSV corpus format.

Labels are stored as integer class indices; one-hot vectors are materialized
only where a formula needs them. The oracle field ``true_label`` exists to
evaluate noise injection and sample selection and must never feed a
training decision: training reads only ``text`` and ``observed_label``.

Datasets are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .common import atomic_open


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

    def strip_oracle(self) -> "Dataset":
        """The dataset without its true labels."""
        stripped = tuple(replace(ex, true_label=None) for ex in self.examples)
        return Dataset(stripped, self.num_classes, self.name)


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


def stratified_subsample(dataset: Dataset, n: int, seed: int) -> Dataset:
    """Draw ``n`` examples with per-class counts within 1 of proportionality.

    Quotas use largest-remainder rounding (ties broken by lower class index);
    members are drawn without replacement per class, then reassembled in
    original id order with fresh ids 0..n-1. Deterministic given ``seed``.
    """
    total = len(dataset)
    if n > total:
        raise ValueError(f"requested {n} examples from a dataset of {total}")
    by_class: dict[int, list[Example]] = {}
    for ex in dataset.examples:
        by_class.setdefault(ex.observed_label, []).append(ex)
    classes = sorted(by_class)
    quotas = {c: n * len(by_class[c]) / total for c in classes}
    counts = {c: int(np.floor(quotas[c])) for c in classes}
    remainder = n - sum(counts.values())
    by_fraction = sorted(classes, key=lambda c: (-(quotas[c] - counts[c]), c))
    for c in by_fraction[:remainder]:
        counts[c] += 1

    rng = np.random.default_rng(seed)
    chosen: list[Example] = []
    for c in classes:
        members = by_class[c]
        picked = rng.choice(len(members), size=counts[c], replace=False)
        chosen.extend(members[int(i)] for i in picked)
    chosen.sort(key=lambda ex: ex.id)
    renumbered = tuple(replace(ex, id=i) for i, ex in enumerate(chosen))
    return Dataset(renumbered, dataset.num_classes, dataset.name)


_HEADER_PLAIN = ["label", "text"]
_HEADER_ORACLE = ["label", "text", "true_label"]


def load_csv(
    path: str | Path, num_classes: int | None = None, name: str | None = None
) -> Dataset:
    """Read a corpus CSV (``label,text[,true_label]``; RFC-4180 quoting).

    When ``num_classes`` is given, labels are checked against it while
    parsing; otherwise the class count is inferred as max label + 1. The
    optional ``true_label`` column populates the oracle channel.
    """
    path = Path(path)
    examples: list[Example] = []
    labels_seen: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in (_HEADER_PLAIN, _HEADER_ORACLE):
            raise ValueError(f"{path}: unknown header {header!r}")
        has_true = header == _HEADER_ORACLE
        for row in reader:
            line = reader.line_num
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
    return Dataset(tuple(examples), num_classes, name if name is not None else path.stem)


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write the corpus CSV; the oracle column appears iff any example has one."""
    with_oracle = dataset.has_oracle()
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER_ORACLE if with_oracle else _HEADER_PLAIN)
        for ex in dataset.examples:
            if with_oracle:
                true = ex.true_label if ex.true_label is not None else ex.observed_label
                writer.writerow([ex.observed_label, ex.text, true])
            else:
                writer.writerow([ex.observed_label, ex.text])
