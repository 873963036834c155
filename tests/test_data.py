"""Dataset containers, label helpers, and the CSV corpus format."""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import N_CASES, without_oracle
from selfmix.data import (
    Dataset,
    Example,
    ValidationReport,
    load_csv,
    one_hot,
    save_csv,
    stratified_subsample,
    validate,
)


def make_dataset(labels, num_classes, texts=None, true_labels=None):
    texts = texts or [f"doc {i}" for i in range(len(labels))]
    examples = []
    for i, label in enumerate(labels):
        true = true_labels[i] if true_labels else None
        examples.append(Example(i, texts[i], label, true))
    return Dataset(tuple(examples), num_classes)


# ---------------------------------------------------------------------------
# one_hot
# ---------------------------------------------------------------------------


def test_one_hot_examples():
    assert np.array_equal(one_hot(np.array([2]), 4), [[0.0, 0.0, 1.0, 0.0]])
    assert np.array_equal(one_hot(np.array([0]), 2), [[1.0, 0.0]])


@pytest.mark.parametrize("index,num_classes", [(5, 4), (-1, 3), (2, 2)])
def test_one_hot_out_of_range(index, num_classes):
    with pytest.raises(ValueError, match=f"label {index} out of range"):
        one_hot(np.array([0, index]), num_classes)


@given(st.integers(min_value=2, max_value=64).flatmap(
    lambda c: st.tuples(st.just(c), st.integers(min_value=0, max_value=c - 1))
))
def test_one_hot_is_distribution(case):
    num_classes, index = case
    rows = one_hot(np.array([index, 0]), num_classes)
    assert rows.shape == (2, num_classes)
    assert (rows >= 0.0).all() and rows.sum(axis=1).tolist() == [1.0, 1.0]
    assert rows[0, index] == 1.0 and rows[1, 0] == 1.0


# ---------------------------------------------------------------------------
# Dataset behavior
# ---------------------------------------------------------------------------


def test_dataset_accessors():
    ds = make_dataset([0, 1, 1], 2, true_labels=[0, 0, 1])
    assert len(ds) == 3
    assert ds[1].observed_label == 1
    assert [ex.id for ex in ds] == [0, 1, 2]
    assert np.array_equal(ds.observed_labels(), [0, 1, 1])
    assert ds.observed_labels().dtype == np.int64
    assert ds.has_oracle()
    assert np.flatnonzero(ds.noisy_mask()).tolist() == [1]


def test_noisy_mask_marks_exactly_the_corrupted_positions():
    ds = make_dataset([0, 1, 1, 0], 2, true_labels=[0, 0, 1, 1])
    mask = ds.noisy_mask()
    assert mask.dtype == bool
    assert mask.tolist() == [False, True, False, True]
    assert not without_oracle(ds).noisy_mask().any()
    assert make_dataset([0, 1], 2).noisy_mask().tolist() == [False, False]


def test_strip_oracle_removes_evaluation_channel():
    ds = make_dataset([0, 1], 2, true_labels=[1, 1])
    stripped = without_oracle(ds)
    assert not stripped.has_oracle()
    assert not stripped.noisy_mask().any()
    assert [ex.observed_label for ex in stripped] == [0, 1]
    assert all(ex.true_label is None for ex in stripped)
    # the original is untouched
    assert ds.has_oracle()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_clean_dataset():
    report = validate(make_dataset([0, 1, 2], 3))
    assert isinstance(report, ValidationReport)
    assert report.ok and report.findings == ()


def test_validate_label_out_of_range():
    report = validate(make_dataset([0, 2], 2))
    assert not report.ok
    assert any("out of range" in f for f in report.findings)


def test_validate_duplicate_and_gap_ids():
    examples = (Example(0, "a", 0), Example(0, "b", 1))
    report = validate(Dataset(examples, 2))
    assert any("duplicate id" in f for f in report.findings)
    assert any("0..N-1" in f for f in report.findings)


def test_validate_empty_text():
    report = validate(Dataset((Example(0, "", 0),), 2))
    assert any("empty text" in f for f in report.findings)


def _invariants_hold(ds: Dataset) -> bool:
    """Brute-force restatement of the typed invariants."""
    ids = [ex.id for ex in ds]
    if sorted(ids) != list(range(len(ds))):
        return False
    for ex in ds:
        if not 0 <= ex.observed_label < ds.num_classes:
            return False
        if ex.true_label is not None and not 0 <= ex.true_label < ds.num_classes:
            return False
        if not ex.text:
            return False
    return True


def test_validate_ok_iff_invariants_hold():
    """A clean report certifies the invariants; every planted defect is found."""
    rng = np.random.default_rng(7)
    for _ in range(N_CASES):
        n = int(rng.integers(1, 12))
        num_classes = int(rng.integers(2, 5))
        labels = rng.integers(0, num_classes, size=n)
        with_oracle = rng.random() < 0.5
        examples = []
        for i in range(n):
            true = int(rng.integers(0, num_classes)) if with_oracle else None
            examples.append(Example(i, f"w{i}", int(labels[i]), true))
        if rng.random() < 0.5:  # plant one defect of a random kind
            pos = int(rng.integers(0, n))
            kind = rng.integers(0, 3)
            ex = examples[pos]
            if kind == 0:
                examples[pos] = Example(ex.id, ex.text, num_classes, ex.true_label)
            elif kind == 1:
                examples[pos] = Example(ex.id + n, ex.text, ex.observed_label, ex.true_label)
            else:
                examples[pos] = Example(ex.id, "", ex.observed_label, ex.true_label)
        ds = Dataset(tuple(examples), num_classes)
        assert validate(ds).ok == _invariants_hold(ds)


# ---------------------------------------------------------------------------
# stratified_subsample
# ---------------------------------------------------------------------------


def test_subsample_balanced_quota():
    ds = make_dataset([i % 4 for i in range(4000)], 4)
    picked = stratified_subsample(ds, 400, seed=3)
    assert picked.shape == (400,) and picked.dtype == np.int64
    counts = Counter(ds[int(i)].observed_label for i in picked)
    assert counts == {0: 100, 1: 100, 2: 100, 3: 100}


def test_subsample_full_size_is_identity_up_to_ids():
    ds = make_dataset([0, 1, 0, 1, 1], 2)
    picked = stratified_subsample(ds, len(ds), seed=9)
    assert np.array_equal(picked, np.arange(len(ds)))


def test_subsample_too_large_raises():
    with pytest.raises(ValueError):
        stratified_subsample(make_dataset([0, 1], 2), 3, seed=0)


def test_subsample_determinism_and_quota_property():
    """Same (dataset, n, seed) twice gives the same picks; quotas are within
    one of exact proportionality and the positions are distinct and sorted."""
    rng = np.random.default_rng(11)
    for _ in range(N_CASES):
        num_classes = int(rng.integers(2, 5))
        total = int(rng.integers(num_classes, 60))
        labels = rng.integers(0, num_classes, size=total)
        ds = make_dataset([int(v) for v in labels], num_classes)
        n = int(rng.integers(0, total + 1))
        seed = int(rng.integers(2**31))
        first = stratified_subsample(ds, n, seed)
        second = stratified_subsample(ds, n, seed)
        assert np.array_equal(first, second)
        assert first.shape == (n,) and first.dtype == np.int64
        assert np.all(np.diff(first) > 0)
        assert n == 0 or 0 <= first[0] <= first[-1] < total
        class_total = Counter(int(v) for v in labels)
        picked = Counter(int(labels[i]) for i in first)
        for c, present in class_total.items():
            exact = n * present / total
            assert abs(picked.get(c, 0) - exact) <= 1.0


# ---------------------------------------------------------------------------
# CSV corpus format
# ---------------------------------------------------------------------------


def test_csv_round_trip_plain(tmp_path):
    ds = make_dataset([0, 1], 2, texts=["plain words", 'with, "quotes"\nand newline'])
    path = tmp_path / "corpus.csv"
    save_csv(ds, path)
    assert path.read_text(encoding="utf-8").startswith("label,text\n")
    loaded = load_csv(path, num_classes=2)
    assert [(ex.text, ex.observed_label) for ex in loaded] == [
        (ex.text, ex.observed_label) for ex in ds
    ]
    assert not loaded.has_oracle()


def test_csv_round_trip_oracle(tmp_path):
    ds = make_dataset([0, 1, 1], 2, true_labels=[0, 0, 1])
    path = tmp_path / "corpus.csv"
    save_csv(ds, path)
    assert path.read_text(encoding="utf-8").startswith("label,text,true_label\n")
    loaded = load_csv(path)
    assert loaded.num_classes == 2
    assert [ex.true_label for ex in loaded] == [0, 0, 1]
    assert loaded.noisy_mask().tolist() == [False, True, False]


def test_csv_bytes_of_a_mixed_oracle_corpus(tmp_path):
    """The exact bytes of a corpus in which only some examples carry a true
    label (the others repeat their observed one) and whose texts need
    quoting, or look like comments, or are not ASCII."""
    texts = ["plain", "a,comma", 'a "quote"', "new\nline", "tab\there", "non-ascii é漢字",
             "# leading hash", " spaced ", "\r\ncrlf"]
    ds = make_dataset([0, 1, 2, 0, 1, 2, 0, 1, 2], 3, texts=texts,
                      true_labels=[1, None, 0, None, 2, None, 1, None, 0])
    save_csv(ds, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == (
        "label,text,true_label\n"
        "0,plain,1\n"
        '1,"a,comma",1\n'
        '2,"a ""quote""",0\n'
        '0,"new\nline",0\n'
        "1,tab\there,2\n"
        "2,non-ascii é漢字,2\n"
        "0,# leading hash,1\n"
        "1, spaced ,1\n"
        '2,"\r\ncrlf",0\n'
    ).encode("utf-8")


def test_csv_infers_class_count(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("label,text\n0,a\n3,b\n", encoding="utf-8")
    assert load_csv(path).num_classes == 4


def test_csv_bad_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("text,label\na,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown header"):
        load_csv(path)


def test_csv_bad_label_reports_line(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("label,text\n0,fine\nx,bad\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)


def test_csv_label_out_of_bound(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("label,text\n5,doc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="out of range"):
        load_csv(path, num_classes=2)


def test_csv_field_count_mismatch(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("label,text\n0,a,extra\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 2 fields"):
        load_csv(path)


# An unterminated quote that would swallow the rest of the file, and text
# after a closing quote; a lenient parser reads them as "abc\n" and "abc".
# Each error names the line its record starts on, not where the parser stopped.
MALFORMED_CSV = [
    ("label,text\n0,\"abc\n", "line 2: malformed CSV: unexpected end of data"),
    ("label,text\n0,\"ab\"c\n", "line 2: malformed CSV: ',' expected after '\"'"),
    ("label,text\n0,a\n1,\"x\n2,y\n", "line 3: malformed CSV: unexpected end of data"),
]


@pytest.mark.parametrize("text, message", MALFORMED_CSV)
def test_csv_malformed_quoting_is_refused_naming_its_line(tmp_path, text, message):
    path = tmp_path / "c.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_csv_error_in_a_multi_line_record_names_its_first_line(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b'label,text\n0,"a\nb",extra\n')
    with pytest.raises(ValueError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: line 2: expected 2 fields, got 3"


def test_csv_empty_corpus_needs_explicit_classes(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("label,text\n", encoding="utf-8")
    with pytest.raises(ValueError, match="cannot infer"):
        load_csv(path)
    assert len(load_csv(path, num_classes=3)) == 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.text(
                alphabet=st.characters(codec="utf-8", exclude_characters="\r\x00"),
                min_size=1,
                max_size=30,
            ),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_csv_round_trip_survives_arbitrary_text(tmp_path_factory, rows):
    """RFC-4180 quoting: any UTF-8 text survives a save/load cycle."""
    path = tmp_path_factory.mktemp("csv") / "corpus.csv"
    ds = make_dataset([r[0] for r in rows], 4, texts=[r[1] for r in rows])
    save_csv(ds, path)
    loaded = load_csv(path, num_classes=4)
    assert [(ex.observed_label, ex.text) for ex in loaded] == rows
