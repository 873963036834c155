"""Experiment harness: config files, metrics, artifacts, CLI."""
from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import struct
import tempfile
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import N_CASES, mask_of
from selfmix.common import NumericError, atomic_open, round_half_up, subseed
from selfmix.core import REPORT_CSV_FIELDS, ModelConfig, SelfMixConfig, selection_prf
from selfmix.data import Dataset, Example, load_csv, save_csv
from selfmix.encoder import init_params, load_checkpoint
from selfmix.harness import (
    _CONFIG_KEYS,
    ARMS,
    ExperimentConfig,
    analyze_losses,
    emit_loss_histogram,
    format_report,
    load_transition,
    run_experiment,
)
from selfmix.noise import (
    NOISE_TYPE_ALIASES,
    NOISE_TYPES,
    CorruptionManifest,
    load_manifest,
)
from selfmix.synthetic import make_corpus
from selfmix import cli, core, encoder, harness


# ---------------------------------------------------------------------------
# Fixtures: a small corpus on disk and one finished experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    train, test = make_corpus(60, 20, 2, seed=11)
    save_csv(train, root / "train.csv")
    save_csv(test, root / "test.csv")
    return root


@pytest.fixture(scope="module")
def one_class_dir(tmp_path_factory):
    """A corpus that loads and validates, but whose labels all read class
    0: it names one class, and a classifier needs at least two."""
    root = tmp_path_factory.mktemp("one-class")
    train, test = make_corpus(60, 20, 2, seed=11)
    for ds, name in ((train, "train.csv"), (test, "test.csv")):
        kept = [ex for ex in ds if ex.observed_label == 0]
        examples = tuple(Example(i, ex.text, 0) for i, ex in enumerate(kept))
        save_csv(Dataset(examples, 1), root / name)
    return root


def config_text(corpus_dir: Path, out_dir: Path, **overrides) -> str:
    base = {
        "data.train": str(corpus_dir / "train.csv"),
        "data.test": str(corpus_dir / "test.csv"),
        "noise.type": "uniform",
        "noise.ratio": "0.2",
        "noise.seed": "7",
        "selfmix.total_epochs": "3",
        "selfmix.warmup_epochs": "1",
        "selfmix.batch_size": "16",
        "encoder.buckets": "1024",
        "encoder.hidden": "8",
        "optimizer.lr": "0.01",
        "run.seed": "5",
        "run.output_dir": str(out_dir),
        "run.eval_every": "4",
        "run.histogram_bins": "6",
    }
    base.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in base.items() if v is not None)


@pytest.fixture(scope="module")
def finished_run(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    cfg = ExperimentConfig.from_text(config_text(corpus_dir, out))
    summary = run_experiment(cfg)
    return cfg, out, summary


# ---------------------------------------------------------------------------
# Config parsing and echo
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.noise_type == "none" and cfg.noise_ratio == 0.0
    assert cfg.model.num_buckets == 2**18 and cfg.model.hidden == 64
    assert cfg.selfmix.tau == 0.5 and cfg.histogram_bins == 20
    assert cfg.train_path is None and cfg.output_dir is None


def test_config_parse_example_with_comments():
    cfg = ExperimentConfig.from_text(
        """
        # experiment: asymmetric corruption
        data.train = a/train.csv

        noise.type = asym
        noise.ratio = 0.4
        selfmix.class_regularize = true
        selfmix.warmup_samples = 4000
        optimizer.lr = 0.01
        """
    )
    assert cfg.train_path == "a/train.csv"
    assert cfg.noise_type == "asymmetric"  # alias canonicalized on parse
    assert cfg.noise_ratio == 0.4
    assert cfg.selfmix.class_regularize is True
    assert cfg.selfmix.warmup_samples == 4000 and cfg.selfmix.warmup_epochs is None
    assert cfg.model.learning_rate == 0.01


@pytest.mark.parametrize(
    "line, message",
    [
        ("bogus.key = 1", "line 2: unknown key 'bogus.key'"),
        ("selfmix.tau = 0.4\nselfmix.tau = 0.5", "line 3: duplicate key"),
        ("selfmix.tau 0.4", "line 2: expected 'key = value'"),
        ("selfmix.total_epochs = six", "line 2: selfmix.total_epochs:"),
        ("selfmix.class_regularize = yes", "expected true or false"),
        ("noise.type = gaussian", "noise.type must be one of"),
        ("selfmix.term_normalization = mean",
         "line 2: unknown key 'selfmix.term_normalization'"),
    ],
)
def test_config_parse_errors_carry_line_numbers(line, message):
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_text("# header comment\n" + line)
    assert message in str(err.value)


def test_config_from_file_names_the_source(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no.such.key = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.cfg: line 1"):
        ExperimentConfig.from_file(path)


def test_config_echo_is_sorted_and_complete():
    lines = ExperimentConfig().echo_lines()
    assert lines == sorted(lines)
    assert len(lines) == 29
    keys = [line.split(" = ")[0] for line in lines]
    assert len(set(keys)) == 29
    assert "run.output_dir = none" in lines
    assert "selfmix.class_regularize = false" in lines


def _random_config_value(rng: np.random.Generator, key: str) -> str:
    """A value for ``key`` from its valid range; the warm-up pair is drawn
    by ``_random_config_lines``."""
    def path() -> str:
        chars = list("abcdefghij0123456789_./-")
        s = "".join(rng.choice(chars, size=int(rng.integers(1, 12))))
        return s + "x" if s.lower() == "none" else s

    def opt(make):
        return "none" if rng.random() < 0.3 else make()

    def magnitude() -> str:  # positive, spread over eleven decades
        return repr(float(rng.uniform(0.01, 2.0) * 10.0 ** rng.integers(-8, 3)))

    if key in ("data.train", "data.test", "run.output_dir"):
        return path()
    if key == "noise.transition":
        return opt(path)
    if key in ("data.num_classes", "noise.seed"):
        return opt(lambda: str(int(rng.integers(0, 10_000))))
    if key == "noise.type":
        return str(rng.choice(["none", "uniform", "asym", "asymmetric",
                               "idn", "instance_dependent"]))
    if key == "selfmix.class_regularize":
        return str(rng.choice(["true", "false"]))
    if key == "selfmix.batch_size":
        return str(int(rng.integers(2, 100_000)))
    if key in ("selfmix.total_epochs", "encoder.buckets", "encoder.hidden",
               "run.seed", "run.eval_every", "run.histogram_bins"):
        return str(int(rng.integers(1, 100_000)))
    if key == "selfmix.tau":
        return repr(float(rng.uniform(0.001, 0.999)))
    if key in ("encoder.dropout", "optimizer.beta1", "optimizer.beta2"):
        return repr(float(rng.random()))
    if key in ("selfmix.lambda_p", "selfmix.lambda_r", "selfmix.alpha",
               "selfmix.temperature", "optimizer.lr", "optimizer.epsilon"):
        return magnitude()
    if key == "noise.ratio":
        return repr(float(rng.uniform(0.0, 1.0)))
    if key == "noise.aux_subset_fraction":
        return repr(float(1.0 - rng.uniform(0.0, 1.0)))  # in (0, 1]
    return "none"  # the warm-up pair, which _random_config_lines redraws


def _random_config_lines(rng: np.random.Generator, keys: list[str]) -> list[str]:
    """``key = value`` lines for ``keys``, every value in range. Exactly one
    warm-up setting is in effect, warm-up epochs fit in total_epochs, and
    every noise setting has an effect: a nonzero ratio only with a noise
    type, a transition map only with asymmetric noise."""
    values = {k: _random_config_value(rng, k) for k in keys}
    noise_type = values.get("noise.type", "none")
    if noise_type == "none" and "noise.ratio" in values:
        values["noise.ratio"] = "0.0"
    if noise_type not in ("asym", "asymmetric") and "noise.transition" in values:
        values["noise.transition"] = "none"
    by_samples = "selfmix.warmup_samples" in values and rng.random() < 0.5
    if "selfmix.warmup_samples" in values:
        values["selfmix.warmup_samples"] = (
            str(int(rng.integers(0, 10_000))) if by_samples else "none"
        )
    total = 6
    if "selfmix.total_epochs" in values:
        # with neither warm-up key in effect the default of 2 epochs applies
        default_warmup = not by_samples and "selfmix.warmup_epochs" not in values
        total = int(rng.integers(2 if default_warmup else 1, 100_000))
        values["selfmix.total_epochs"] = str(total)
    if "selfmix.warmup_epochs" in values:
        values["selfmix.warmup_epochs"] = (
            "none" if by_samples else str(int(rng.integers(0, total + 1)))
        )
    return [f"{k} = {v}" for k, v in values.items()]


def test_config_echo_round_trip_property():
    """parse -> echo -> parse is the identity, for any subset of keys in any
    order with comments sprinkled in."""
    all_keys = [line.split(" = ")[0] for line in ExperimentConfig().echo_lines()]
    required = ("data.train", "data.test", "run.output_dir")
    rng = np.random.default_rng(53)
    for _ in range(N_CASES):
        chosen = [k for k in all_keys if k in required or rng.random() < 0.4]
        lines = _random_config_lines(rng, chosen)
        rng.shuffle(lines)
        noisy_lines = []
        for line in lines:
            if rng.random() < 0.2:
                noisy_lines.append("# a comment")
            if rng.random() < 0.1:
                noisy_lines.append("")
            noisy_lines.append(line)
        cfg = ExperimentConfig.from_text("\n".join(noisy_lines))
        echoed = "\n".join(cfg.echo_lines())
        cfg2 = ExperimentConfig.from_text(echoed)
        assert cfg2 == cfg
        assert cfg2.echo_lines() == cfg.echo_lines()


def test_unset_paths_survive_the_echo():
    """The echo writes an unset path as ``none``, which parses back to unset."""
    default = ExperimentConfig()
    assert ExperimentConfig.from_text("\n".join(default.echo_lines())) == default


def test_selfmix_config_fills_default_warmup():
    cfg = ExperimentConfig()
    assert cfg.selfmix.warmup_epochs == 2
    with_samples = ExperimentConfig.from_text(
        "selfmix.warmup_samples = 100\nselfmix.total_epochs = 50"
    )
    sm = with_samples.selfmix
    assert sm.warmup_epochs is None and sm.warmup_samples == 100


def test_model_config_mapping():
    cfg = ExperimentConfig.from_text(
        "encoder.buckets = 512\nencoder.hidden = 16\n"
        "encoder.dropout = 0.1\noptimizer.lr = 0.05"
    )
    model = cfg.model
    assert model.num_buckets == 512 and model.hidden == 16
    assert model.dropout_rate == 0.1 and model.learning_rate == 0.05


def test_effective_noise_seed():
    assert ExperimentConfig(noise_seed=9).effective_noise_seed() == 9
    derived = ExperimentConfig(selfmix=SelfMixConfig(seed=4)).effective_noise_seed()
    assert derived == subseed(4, "noise")


@pytest.mark.parametrize(
    "text, message, where",
    [
        ("selfmix.tau = -3", "tau must lie strictly between 0 and 1", "line 1: selfmix.tau"),
        ("selfmix.batch_size = 1", "batch_size must be at least 2", "line 1: selfmix.batch_size"),
        ("encoder.dropout = 1.0", "dropout_rate must lie in [0, 1)", "line 1: encoder.dropout"),
        ("optimizer.beta2 = -0.5", "beta2 must lie in [0, 1)", "line 1: optimizer.beta2"),
        ("selfmix.warmup_epochs = 7\nselfmix.total_epochs = 6",
         "warmup_epochs must lie in [0, total_epochs]", "line 2: selfmix.total_epochs"),
        ("selfmix.warmup_epochs = 2\nselfmix.warmup_samples = 100",
         "set exactly one of warmup_epochs and warmup_samples",
         "line 2: selfmix.warmup_samples"),
        ("selfmix.warmup_epochs = none",
         "set exactly one of warmup_epochs and warmup_samples",
         "line 1: selfmix.warmup_epochs"),
        ("run.histogram_bins = 0", "run.histogram_bins must be at least 1",
         "line 1: run.histogram_bins"),
        ("run.eval_every = 0", "run.eval_every must be at least 1", "line 1: run.eval_every"),
        ("noise.ratio = 1.5", "noise.ratio must lie in [0, 1)", "line 1: noise.ratio"),
        ("noise.ratio = -0.1", "noise.ratio must lie in [0, 1)", "line 1: noise.ratio"),
        ("noise.ratio = nan", "noise.ratio must lie in [0, 1)", "line 1: noise.ratio"),
        ("noise.aux_subset_fraction = 0", "noise.aux_subset_fraction must lie in (0, 1]",
         "line 1: noise.aux_subset_fraction"),
        ("noise.aux_subset_fraction = 1.5", "noise.aux_subset_fraction must lie in (0, 1]",
         "line 1: noise.aux_subset_fraction"),
        # the key is the one the failing check reads, on the last line that set it
        ("run.seed = 4\nselfmix.tau = 0\nrun.eval_every = 3",
         "tau must lie strictly between 0 and 1", "line 2: selfmix.tau"),
        ("selfmix.total_epochs = 6\nselfmix.warmup_epochs = 7",
         "warmup_epochs must lie in [0, total_epochs]", "line 2: selfmix.warmup_epochs"),
        ("selfmix.total_epochs = 1",
         "warmup_epochs must lie in [0, total_epochs]", "line 1: selfmix.total_epochs"),
        ("encoder.buckets = 0", "num_buckets must lie in [1, 2**31)", "line 1: encoder.buckets"),
        ("encoder.buckets = 2147483648", "num_buckets must lie in [1, 2**31)",
         "line 1: encoder.buckets"),
        ("selfmix.alpha = nan", "alpha must be finite and positive", "line 1: selfmix.alpha"),
        ("selfmix.alpha = inf", "alpha must be finite and positive", "line 1: selfmix.alpha"),
        ("selfmix.alpha = 0", "alpha must be finite and positive", "line 1: selfmix.alpha"),
        ("selfmix.temperature = nan", "temperature must be finite and positive",
         "line 1: selfmix.temperature"),
        ("selfmix.temperature = inf", "temperature must be finite and positive",
         "line 1: selfmix.temperature"),
        ("selfmix.lambda_p = nan", "lambda_p must be finite and non-negative",
         "line 1: selfmix.lambda_p"),
        ("selfmix.lambda_p = -0.1", "lambda_p must be finite and non-negative",
         "line 1: selfmix.lambda_p"),
        ("selfmix.lambda_r = inf", "lambda_r must be finite and non-negative",
         "line 1: selfmix.lambda_r"),
        ("selfmix.lambda_r = nan", "lambda_r must be finite and non-negative",
         "line 1: selfmix.lambda_r"),
        ("data.num_classes = 1", "data.num_classes must be at least 2",
         "line 1: data.num_classes"),
        ("run.seed = 2\ndata.num_classes = 0", "data.num_classes must be at least 2",
         "line 2: data.num_classes"),
        # noise settings that would change nothing
        ("noise.ratio = 0.3", "noise.ratio = 0.3 at noise.type = none flips no label",
         "line 1: noise.ratio"),
        ("noise.ratio = 0.3\nnoise.type = none",
         "noise.ratio = 0.3 at noise.type = none flips no label", "line 2: noise.type"),
        ("noise.transition = t.txt", "noise.transition needs noise.type = asym, not none",
         "line 1: noise.transition"),
        ("noise.type = uniform\nnoise.ratio = 0.2\nnoise.transition = t.txt",
         "noise.transition needs noise.type = asym, not uniform", "line 3: noise.transition"),
        ("noise.transition = t.txt\nnoise.type = idn\nnoise.ratio = 0.2",
         "noise.transition needs noise.type = asym, not instance_dependent",
         "line 2: noise.type"),
    ],
)
def test_out_of_range_values_are_refused_at_parse_time(text, message, where):
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_text(text, source="exp.cfg")
    assert str(err.value) == f"exp.cfg: {where}: {message}"


def test_config_without_warmup_samples_echoes_the_default_warmup_epochs():
    for text in ("run.seed = 3", "selfmix.warmup_samples = none"):
        lines = ExperimentConfig.from_text(text).echo_lines()
        assert "selfmix.warmup_epochs = 2" in lines
        assert "selfmix.warmup_samples = none" in lines


def test_config_keys_cover_every_field_exactly_once():
    rows = [(section, name) for section, name, _ in _CONFIG_KEYS.values()]
    assert len(set(rows)) == len(rows) == 29
    for section, config in (("model", ModelConfig), ("selfmix", SelfMixConfig)):
        names = sorted(name for s, name in rows if s == section)
        assert names == sorted(f.name for f in fields(config))
    own = sorted(f.name for f in fields(ExperimentConfig) if f.name not in ("model", "selfmix"))
    assert sorted(name for s, name in rows if s is None) == own
    assert len(fields(ExperimentConfig)) == 13


# ---------------------------------------------------------------------------
# Transition map files
# ---------------------------------------------------------------------------


def test_load_transition_good_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# cyclic on three classes\n0,1\n2,0\n1,2\n", encoding="utf-8")
    tm = load_transition(path, 3)
    assert tm.targets == (1, 2, 0)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,1,2\n1,0\n", "expected 'class,target'"),
        ("0,1\n0,1\n", "duplicate class 0"),
        ("0,1\n", "must cover classes 0..1"),
        ("0,0\n1,0\n", "may not map to itself"),
        ("# header\nx,0\n1,0\n", "line 2: expected integer 'class,target'"),
    ],
)
def test_load_transition_errors(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_transition(path, 2)


# ---------------------------------------------------------------------------
# Selection metrics
# ---------------------------------------------------------------------------


def make_manifest(flipped, num_classes=2):
    return CorruptionManifest(
        noise_type="uniform",
        ratio=0.1,
        seed=0,
        flip_counts=np.zeros((num_classes, num_classes), dtype=np.int64),
        flips=tuple(sorted((i, 0, 1) for i in flipped)),
    )


def test_selection_metrics_perfect_split():
    flipped = mask_of(4, [i for i, _, _ in make_manifest({2, 3}).flips])
    assert selection_prf(mask_of(4, [2, 3]), flipped) == (1.0, 1.0, 1.0)


def test_selection_metrics_brute_force_property():
    rng = np.random.default_rng(59)
    for _ in range(N_CASES):
        n = int(rng.integers(2, 60))
        ids = rng.permutation(500)[:n]
        sent = rng.random(n) < rng.uniform(0.1, 0.9)
        unlabeled = {int(i) for i, s in zip(ids, sent) if s}
        flipped = {int(i) for i in ids if rng.random() < 0.4}
        precision, recall, f1 = selection_prf(
            mask_of(500, unlabeled),
            mask_of(500, [i for i, _, _ in make_manifest(flipped).flips]),
        )
        hits = len(unlabeled & flipped)
        expect_p = hits / len(unlabeled) if unlabeled else 0.0
        expect_r = hits / len(flipped) if flipped else 0.0
        assert precision == pytest.approx(expect_p)
        assert recall == pytest.approx(expect_r)
        if expect_p + expect_r > 0:
            assert f1 == pytest.approx(2 * expect_p * expect_r / (expect_p + expect_r))
        else:
            assert f1 == 0.0


# ---------------------------------------------------------------------------
# Loss histograms
# ---------------------------------------------------------------------------


def test_histogram_matches_numpy_and_partitions_everything(tmp_path):
    rng = np.random.default_rng(61)
    for case in range(N_CASES):
        n = int(rng.integers(1, 60))
        losses = rng.exponential(1.0, size=n)
        mask = rng.random(n) < 0.3
        bins = int(rng.integers(1, 12))
        path = tmp_path / f"h{case % 4}.csv"
        edges, clean, noisy = emit_loss_histogram(losses, mask, bins, path)
        assert edges.shape == (bins + 1,)
        assert edges[0] == losses.min() and edges[-1] == losses.max() or n == 1
        assert clean.sum() + noisy.sum() == n
        expect_clean, _ = np.histogram(losses[~mask], bins=edges)
        expect_noisy, _ = np.histogram(losses[mask], bins=edges)
        assert np.array_equal(clean, expect_clean)
        assert np.array_equal(noisy, expect_noisy)


def test_histogram_all_false_mask_is_all_clean(tmp_path):
    losses = np.array([0.5, 1.5])
    _, clean, noisy = emit_loss_histogram(losses, np.zeros(2, bool), 4, tmp_path / "h.csv")
    assert clean.sum() == 2 and noisy.sum() == 0


def test_histogram_constant_losses_widen_range(tmp_path):
    losses = np.full(3, 2.5)
    edges, clean, noisy = emit_loss_histogram(losses, np.zeros(3, bool), 2, tmp_path / "h.csv")
    assert edges[0] == 2.5 and edges[-1] == 3.5
    assert clean[0] == 3 and clean.sum() == 3


def test_histogram_csv_layout(tmp_path):
    path = tmp_path / "h.csv"
    losses = np.array([0.0, 0.5, 1.0, 1.0])
    mask = np.array([False, False, True, True])
    edges, clean, noisy = emit_loss_histogram(
        losses, mask, 2, path, header_lines=("alpha", "beta")
    )
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# alpha" and lines[1] == "# beta"
    assert lines[2] == "bin_left,bin_right,clean_count,noisy_count"
    assert len(lines) == 3 + 2
    for b, line in enumerate(lines[3:]):
        left, right, c, k = line.split(",")
        assert float(left) == edges[b] and float(right) == edges[b + 1]
        assert int(c) == clean[b] and int(k) == noisy[b]


def test_histogram_error_paths(tmp_path):
    path = tmp_path / "h.csv"
    with pytest.raises(ValueError, match="same shape"):
        emit_loss_histogram(np.array([1.0]), np.array([True, False]), 2, path)
    with pytest.raises(ValueError, match="bins"):
        emit_loss_histogram(np.array([1.0]), np.zeros(1, bool), 0, path)
    with pytest.raises(ValueError, match="empty"):
        emit_loss_histogram(np.array([]), np.zeros(0, bool), 2, path)


# ---------------------------------------------------------------------------
# Full experiment runs
# ---------------------------------------------------------------------------


def test_run_writes_complete_artifact_tree(finished_run):
    cfg, out, summary = finished_run
    expected = {
        "config_echo.txt",
        "corrupted_train.csv",
        "noise_manifest.csv",
        "summary.json",
    }
    for arm in ARMS:
        expected |= {f"{arm}/report.json", f"{arm}/epochs.csv",
                     f"{arm}/steps.csv", f"{arm}/model.smx"}
        expected |= {f"hist/{arm}_epoch{e}.csv" for e in range(3)}
    actual = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert actual == expected


def test_run_summary_contents(finished_run):
    cfg, out, summary = finished_run
    assert summary["arms"] == list(ARMS)
    assert summary["noise"] == {
        "type": "uniform",
        "ratio": 0.2,
        "seed": 7,
        "num_flipped": round_half_up(0.2 * 60),
    }
    for arm in ARMS:
        stats = summary[arm]
        assert 0.0 <= stats["last_acc"] <= stats["best_acc"] <= 1.0
        assert stats["warnings"] == []
    assert summary["acc_gap_last"] == pytest.approx(
        summary["selfmix"]["last_acc"] - summary["baseline"]["last_acc"]
    )
    assert 0.0 <= summary["final_sel_f1"] <= 1.0
    assert summary["config"]["noise.type"] == "uniform"
    # the file on disk holds exactly the returned summary
    assert json.loads((out / "summary.json").read_text(encoding="utf-8")) == summary


def test_run_artifact_details(finished_run):
    cfg, out, summary = finished_run
    echo = cfg.echo_lines()
    assert (out / "config_echo.txt").read_text(encoding="utf-8") == "\n".join(echo) + "\n"

    corrupted = load_csv(out / "corrupted_train.csv")
    manifest = load_manifest(out / "noise_manifest.csv")
    assert corrupted.has_oracle()
    flipped = [i for i, _, _ in manifest.flips]
    assert np.flatnonzero(corrupted.noisy_mask()).tolist() == flipped
    assert len(flipped) == 12

    for arm in ARMS:
        report = json.loads((out / arm / "report.json").read_text(encoding="utf-8"))
        assert report["config"] == cfg.echo_dict()
        assert report["epochs"] == 3 and len(report["per_epoch"]) == 3
        assert report["warnings"] == []

        lines = (out / arm / "epochs.csv").read_text(encoding="utf-8").splitlines()
        assert lines[: len(echo)] == [f"# {e}" for e in echo]
        assert lines[len(echo)] == ",".join(REPORT_CSV_FIELDS)
        assert len(lines) == len(echo) + 1 + 3

        steps = (out / arm / "steps.csv").read_text(encoding="utf-8").splitlines()
        assert steps[len(echo)] == "step,test_acc"
        recorded = [int(row.split(",")[0]) for row in steps[len(echo) + 1 :]]
        assert recorded == [4, 8, 12]  # 60 docs / batch 16 = 4 steps per epoch

        params = load_checkpoint(out / arm / "model.smx")
        assert params.num_buckets == 1024 and params.hidden == 8

        for e in range(3):
            hist = (out / "hist" / f"{arm}_epoch{e}.csv").read_text(encoding="utf-8")
            body = hist.splitlines()[len(echo) + 1 :]
            assert len(body) == 6  # run.histogram_bins
            total = sum(
                int(row.split(",")[2]) + int(row.split(",")[3]) for row in body
            )
            assert total == 60


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_rerun_reproduces_every_artifact_byte_for_byte(finished_run):
    cfg, out, _ = finished_run
    before = _tree_digest(out)
    run_experiment(cfg)
    assert _tree_digest(out) == before


def test_rerun_into_a_used_directory_leaves_no_stale_files(corpus_dir, tmp_path):
    """A run replaces every file an earlier run wrote there and keeps others."""
    out = tmp_path / "out"
    single = ExperimentConfig.from_text(
        config_text(corpus_dir, out, **{"selfmix.total_epochs": "2"})
    )
    run_experiment(single, arms=("selfmix",))
    fresh = _tree_digest(out)
    shutil.rmtree(out)
    run_experiment(ExperimentConfig.from_text(config_text(corpus_dir, out)))
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    run_experiment(single, arms=("selfmix",))
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"
    (out / "notes.txt").unlink()
    assert _tree_digest(out) == fresh
    clean = config_text(
        corpus_dir, out, **{"noise.type": "none", "noise.ratio": "0.0", "noise.seed": "none"}
    )
    run_experiment(ExperimentConfig.from_text(clean), arms=("baseline",))
    assert not (out / "corrupted_train.csv").exists()
    assert not (out / "noise_manifest.csv").exists()
    assert not (out / "selfmix").exists()


def test_each_arm_model_is_freed_once_its_checkpoint_is_written(
    corpus_dir, tmp_path, monkeypatch
):
    models: list[weakref.ref] = []

    def tracked(trainer):
        def train(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in models), "an earlier arm's model is held"
            report = trainer(*args, **kwargs)
            models.append(weakref.ref(report.final_params))
            return report

        return train

    monkeypatch.setattr(harness, "train_baseline", tracked(harness.train_baseline))
    monkeypatch.setattr(harness, "train_selfmix", tracked(harness.train_selfmix))
    run_experiment(ExperimentConfig.from_text(config_text(corpus_dir, tmp_path / "out")))
    gc.collect()
    assert len(models) == 2 and all(ref() is None for ref in models)


def _arm_outputs(root: Path) -> dict[str, str]:
    """Digests of everything one run wrote for its arms."""
    return {
        name: digest
        for name, digest in _tree_digest(root).items()
        if name.split("/")[0] in ("baseline", "selfmix", "hist")
    }


@pytest.mark.parametrize(
    "warmup",
    [
        {"selfmix.warmup_epochs": "2"},
        # 90 samples over 60 documents: one shared pass, then a partial one
        {"selfmix.warmup_epochs": None, "selfmix.warmup_samples": "90"},
        {"selfmix.warmup_epochs": "0"},
    ],
    ids=["two-epochs", "partial-pass", "none-shared"],
)
def test_a_two_arm_run_writes_what_two_single_arm_runs_write(
    corpus_dir, tmp_path, monkeypatch, warmup
):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_text(config_text(corpus_dir, out, **warmup))
    inits = []
    monkeypatch.setattr(
        core, "init_params", lambda *a, **k: inits.append(1) or init_params(*a, **k)
    )
    run_experiment(cfg)
    assert len(inits) == 1  # one featurization, init and warm-up for both arms
    both = _arm_outputs(out)
    single: dict[str, str] = {}
    for arm in ARMS:
        shutil.rmtree(out)
        run_experiment(cfg, arms=(arm,))
        single.update(_arm_outputs(out))
    assert len(inits) == 3
    assert both == single
    assert {name.split("/")[0] for name in both} == {"baseline", "selfmix", "hist"}


def _open_files_under(root: Path) -> list[str]:
    """What this process's descriptors point at under ``root`` (Linux only)."""
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        return []
    targets = []
    for fd in fds.iterdir():
        try:
            targets.append(os.readlink(fd))
        except OSError:
            pass
    return [t for t in targets if t.startswith(str(root))]


def test_the_shared_warmup_spill_leaves_nothing_behind(corpus_dir, tmp_path, monkeypatch):
    """The spill lives in the temporary directory while the second arm runs,
    never in the run directory, and is gone once the run ends, whether it
    succeeds or fails before or after the spill is written."""
    spill_dir = tmp_path / "tmp"
    spill_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
    seen_during_second_arm = []
    real_epoch = core._Run.selfmix_epoch

    def watching(run, epoch):
        seen_during_second_arm.append(_open_files_under(spill_dir))
        return real_epoch(run, epoch)

    monkeypatch.setattr(core._Run, "selfmix_epoch", watching)
    out = tmp_path / "ok"
    run_experiment(ExperimentConfig.from_text(config_text(corpus_dir, out)))
    if Path("/proc/self/fd").is_dir():
        assert seen_during_second_arm and all(seen_during_second_arm)
    assert {p.name for p in out.iterdir()} == set(harness._RUN_OUTPUTS)
    assert list(spill_dir.iterdir()) == [] and _open_files_under(spill_dir) == []

    diverging = config_text(corpus_dir, tmp_path / "diverge", **{"optimizer.lr": "1e200"})
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"epoch 0, batch \d+"):
            run_experiment(ExperimentConfig.from_text(diverging))
    partial = json.loads((tmp_path / "diverge" / "summary.json").read_text(encoding="utf-8"))
    assert partial["error"]["stage"] == "baseline"  # the shared warm-up failed

    def failing(run, epoch):
        raise NumericError("epoch 1, batch 0: non-finite ce loss")

    monkeypatch.setattr(core._Run, "selfmix_epoch", failing)
    with pytest.raises(NumericError) as failure:
        run_experiment(ExperimentConfig.from_text(config_text(corpus_dir, tmp_path / "late")))
    partial = json.loads((tmp_path / "late" / "summary.json").read_text(encoding="utf-8"))
    assert partial["error"]["stage"] == "selfmix"
    for run_dir in (tmp_path / "diverge", tmp_path / "late"):
        assert {p.name for p in run_dir.iterdir()} <= set(harness._RUN_OUTPUTS)
    # the traceback still holds the run's frames, so only closing frees the spill
    assert failure.traceback
    assert list(spill_dir.iterdir()) == [] and _open_files_under(spill_dir) == []


def test_run_without_noise_skips_noise_artifacts(corpus_dir, tmp_path):
    out = tmp_path / "clean"
    cfg = ExperimentConfig.from_text(
        config_text(
            corpus_dir, out,
            **{"noise.type": "none", "noise.ratio": "0.0", "noise.seed": "none",
               "selfmix.total_epochs": "1", "selfmix.warmup_epochs": "1"},
        )
    )
    summary = run_experiment(cfg, arms=("baseline",))
    assert summary["noise"] == {
        "type": "none", "ratio": 0.0, "seed": None, "num_flipped": 0
    }
    assert not (out / "corrupted_train.csv").exists()
    assert not (out / "noise_manifest.csv").exists()
    assert (out / "baseline" / "report.json").is_file()
    assert not (out / "selfmix").exists()
    assert "acc_gap_last" not in summary and "final_sel_f1" not in summary


def _refuse_to_inject(*args, **kwargs):
    raise ValueError("the injector refuses this corpus")


def test_failed_injection_records_stage(corpus_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "inject", _refuse_to_inject)
    out = tmp_path / "boom"
    cfg = ExperimentConfig.from_text(config_text(corpus_dir, out))
    with pytest.raises(ValueError, match="refuses this corpus"):
        run_experiment(cfg)
    partial = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert partial["error"]["stage"] == "inject"
    assert "refuses this corpus" in partial["error"]["message"]
    assert (out / "config_echo.txt").is_file()


def test_failed_arm_records_stage(corpus_dir, tmp_path):
    out = tmp_path / "diverge"
    cfg = ExperimentConfig.from_text(
        config_text(corpus_dir, out, **{"optimizer.lr": "1e200"})
    )
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
            run_experiment(cfg)
    partial = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert partial["error"]["stage"] == "baseline"


def test_run_rejects_unknown_arm(corpus_dir, tmp_path):
    out = tmp_path / "never"
    cfg = ExperimentConfig.from_text(config_text(corpus_dir, out))
    with pytest.raises(ValueError, match="unknown arm"):
        run_experiment(cfg, arms=("baseline", "bogus"))
    assert not out.exists()


@pytest.mark.parametrize("arms", [("baseline", "baseline"), ("selfmix", "baseline", "selfmix")])
def test_run_refuses_a_repeated_arm_before_writing(corpus_dir, tmp_path, arms):
    out = tmp_path / "never"
    cfg = ExperimentConfig.from_text(config_text(corpus_dir, out))
    with pytest.raises(ValueError, match="name an arm more than once"):
        run_experiment(cfg, arms=arms)
    assert not out.exists()


def test_run_requires_existing_inputs(corpus_dir, tmp_path):
    out = tmp_path / "missing"
    cfg = ExperimentConfig.from_text(
        config_text(corpus_dir, out, **{"data.train": str(tmp_path / "nope.csv")})
    )
    with pytest.raises(ValueError, match="no such file"):
        run_experiment(cfg)
    assert not out.exists()
    missing = {"noise.type": "asym", "noise.transition": str(tmp_path / "nope.txt")}
    cfg = ExperimentConfig.from_text(config_text(corpus_dir, out, **missing))
    with pytest.raises(ValueError, match="^noise.transition: no such file: "):
        run_experiment(cfg)
    assert not out.exists()


def test_run_requires_paths_in_config():
    with pytest.raises(ValueError, match="data.train is required"):
        run_experiment(ExperimentConfig())


def test_run_refuses_to_reinject_corrupted_data(finished_run, corpus_dir, tmp_path):
    _, out, _ = finished_run
    cfg = ExperimentConfig.from_text(
        config_text(
            corpus_dir, tmp_path / "again",
            **{"data.train": str(out / "corrupted_train.csv")},
        )
    )
    with pytest.raises(ValueError, match="refusing to re-inject"):
        run_experiment(cfg)


def test_failed_artifact_write_keeps_the_previous_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "epochs.csv"
    harness._write_csv_with_echo(path, ["run.seed = 1"], [["epoch", "test_acc"], [0, 0.5]])
    before = path.read_bytes()

    def rows_then_disk_full():
        yield ["epoch", "test_acc"]
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        harness._write_csv_with_echo(path, ["run.seed = 2"], rows_then_disk_full())
    assert path.read_bytes() == before
    with pytest.raises(OSError, match="disk full"):
        harness._write_csv_with_echo(tmp_path / "fresh.csv", [], rows_then_disk_full())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["epochs.csv"]


def test_analyze_losses_on_finished_run(finished_run, tmp_path):
    _, out, _ = finished_run
    hist_path = tmp_path / "losses.csv"
    edges, clean, noisy = analyze_losses(
        out / "selfmix" / "model.smx",
        out / "corrupted_train.csv",
        hist_path,
        bins=8,
    )
    assert clean.sum() + noisy.sum() == 60
    assert noisy.sum() == 12  # oracle column marks the flipped rows
    lines = hist_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# model = model.smx"
    assert lines[1] == "# data = corrupted_train.csv"
    assert lines[2] == "# bins = 8"


def test_format_report_renders_finished_run(finished_run):
    _, out, summary = finished_run
    text = format_report(out)
    assert "noise: type=uniform ratio=0.2 flipped=12" in text
    for arm in ARMS:
        assert f"{arm}: best_acc={summary[arm]['best_acc']:.4f}" in text
    assert "last-epoch accuracy gap (selfmix - baseline):" in text
    assert text.count("\n  ") >= 8  # two per-epoch tables with 3 rows each
    assert "RUN FAILED" not in text


def test_format_report_renders_failure(corpus_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "inject", _refuse_to_inject)
    out = tmp_path / "boom"
    cfg = ExperimentConfig.from_text(config_text(corpus_dir, out))
    with pytest.raises(ValueError):
        run_experiment(cfg)
    text = format_report(out)
    assert "RUN FAILED at stage inject" in text


def test_format_report_requires_summary(tmp_path):
    with pytest.raises(ValueError, match="no summary.json"):
        format_report(tmp_path)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_make_corpus_and_inject(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli.main([
        "make-corpus", "--out", str(corpus),
        "--train", "30", "--test", "10", "--classes", "2", "--seed", "1",
    ]) == 0
    assert "wrote" in capsys.readouterr().out
    train = load_csv(corpus / "train.csv")
    assert len(train) == 30 and train.num_classes == 2

    noised = tmp_path / "noised"
    assert cli.main([
        "inject-noise", "--in", str(corpus / "train.csv"), "--out", str(noised),
        "--type", "asym", "--ratio", "0.1", "--seed", "3",
    ]) == 0
    out_text = capsys.readouterr().out
    # 0.1 of each 15-document class, rounded half-up: 2 + 2 flips
    assert "flipped 4 of 30 labels" in out_text
    manifest = load_manifest(noised / "manifest.csv")
    assert manifest.noise_type == "asymmetric"  # alias resolved
    flipped = [i for i, _, _ in manifest.flips]
    assert len(flipped) == 4
    corrupted = load_csv(noised / "corrupted.csv")
    assert np.flatnonzero(corrupted.noisy_mask()).tolist() == flipped


@pytest.mark.parametrize(("train", "test"), [("0", "5"), ("-5", "5"), ("5", "0"), ("5", "-5")])
def test_cli_make_corpus_refuses_a_size_below_one(tmp_path, capsys, train, test):
    out = tmp_path / "c4"
    assert cli.main(["make-corpus", "--out", str(out), "--train", train, "--test", test]) == 1
    assert "at least one document" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("train", "test", "split"), [("3", "2", "synthetic-train"), ("10", "4", "synthetic-test")]
)
def test_cli_make_corpus_refuses_a_split_smaller_than_its_classes(
    tmp_path, capsys, train, test, split
):
    out = tmp_path / "c5"
    assert cli.main([
        "make-corpus", "--out", str(out), "--train", train, "--test", test, "--classes", "5",
    ]) == 1
    assert f"error: {split}: 5 classes need at least one document each" in capsys.readouterr().err
    assert not out.exists()


def test_cli_inject_refuses_a_transition_for_other_noise_types(tmp_path, capsys):
    train, _ = make_corpus(30, 10, 2, seed=1)
    save_csv(train, tmp_path / "train.csv")
    (tmp_path / "t.txt").write_text("0,1\n1,0\n", encoding="utf-8")
    out = tmp_path / "noised"
    for noise_type in ("uniform", "idn"):
        assert cli.main([
            "inject-noise", "--in", str(tmp_path / "train.csv"), "--out", str(out),
            "--type", noise_type, "--ratio", "0.1", "--seed", "3",
            "--transition", str(tmp_path / "t.txt"),
        ]) == 1
        assert "transition map applies to asymmetric noise only" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("noise_type", ["uniform", "asym", "idn"])
def test_a_negative_noise_seed_is_refused_naming_its_line_before_writing(
    corpus_dir, tmp_path, capsys, noise_type
):
    out = tmp_path / "never"
    cfg_path = tmp_path / "bad.cfg"
    text = config_text(corpus_dir, out, **{"noise.type": noise_type, "noise.seed": "-5"})
    cfg_path.write_text(text, encoding="utf-8")
    lineno = text.splitlines().index("noise.seed = -5") + 1
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: line {lineno}: noise.seed: ")
    assert "non-negative" in err
    assert not out.exists()


@pytest.mark.parametrize("noise_type", ["uniform", "asym", "idn"])
def test_cli_inject_refuses_a_negative_seed_for_every_noise_type(tmp_path, capsys, noise_type):
    train, _ = make_corpus(30, 10, 2, seed=1)
    save_csv(train, tmp_path / "train.csv")
    out = tmp_path / "noised"
    assert cli.main([
        "inject-noise", "--in", str(tmp_path / "train.csv"), "--out", str(out),
        "--type", noise_type, "--ratio", "0.1", "--seed", "-5",
    ]) == 1
    assert "error: noise seed must be non-negative; got -5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("flag", "name"),
    [("--in", "corrupted.csv"), ("--in", "manifest.csv"), ("--transition", "manifest.csv"),
     ("--transition", "corrupted.csv")],
)
def test_cli_inject_refuses_an_input_it_would_overwrite(tmp_path, capsys, flag, name):
    """An input that is one of the files inject-noise writes, however it is
    spelled, exits 1 before anything is read or written."""
    train, _ = make_corpus(40, 10, 2, seed=1)
    out = tmp_path / "d"
    out.mkdir()
    clean = out / "clean.csv"
    save_csv(train, clean)
    target = out / name
    if flag == "--in":
        shutil.copy(clean, target)
        in_path, extra = target, []
    else:
        target.write_text("0,1\n1,0\n", encoding="utf-8")
        in_path, extra = clean, ["--transition", str(target)]
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert cli.main([
        "inject-noise", "--in", str(in_path), "--out", str(out / ".." / "d"),
        "--type", "asym", "--ratio", "0.2", "--seed", "3", *extra,
    ]) == 1
    assert f"error: {flag}: {target} is a file inject-noise writes" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_cli_argument_errors_exit_1(tmp_path, capsys):
    assert cli.main(["inject-noise", "--in", "x.csv"]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main([
        "inject-noise", "--in", str(tmp_path / "absent.csv"), "--out",
        str(tmp_path / "o"), "--type", "uniform", "--ratio", "0.1", "--seed", "0",
    ]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_noise_types_are_the_injectors():
    parser = cli.build_parser()

    def parse(noise_type: str):
        return parser.parse_args([
            "inject-noise", "--in", "x.csv", "--out", "o", "--type", noise_type,
            "--ratio", "0.1", "--seed", "0",
        ])

    for name in NOISE_TYPES + tuple(NOISE_TYPE_ALIASES):
        assert parse(name).type == name
    with pytest.raises(ValueError, match="invalid choice"):
        parse("none")


def test_cli_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 1\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("encoder.hidden", "0"),
        ("optimizer.beta1", "1.0"),
        ("optimizer.lr", "-1"),
        ("encoder.dropout", "1.0"),
        ("encoder.buckets", "0"),
        ("selfmix.tau", "2"),
        ("run.histogram_bins", "0"),
        ("run.eval_every", "0"),
    ],
)
def test_cli_bad_model_selfmix_or_histogram_config_writes_nothing(
    corpus_dir, tmp_path, capsys, key, value
):
    out = tmp_path / "never"
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(config_text(corpus_dir, out, **{key: value}), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("selfmix.alpha", "nan"),
        ("selfmix.lambda_p", "nan"),
        ("selfmix.temperature", "nan"),
        ("selfmix.lambda_r", "inf"),
    ],
)
def test_cli_unusable_setting_exits_1_naming_its_line_before_writing(
    corpus_dir, tmp_path, capsys, key, value
):
    out = tmp_path / "never"
    cfg_path = tmp_path / "bad.cfg"
    text = config_text(corpus_dir, out, **{key: value})
    cfg_path.write_text(text, encoding="utf-8")
    lineno = text.splitlines().index(f"{key} = {value}") + 1
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: line {lineno}: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("key", ["data.train", "data.test"])
def test_cli_refuses_an_empty_corpus_before_writing(corpus_dir, tmp_path, capsys, key):
    empty = tmp_path / "empty.csv"
    empty.write_text("label,text\n", encoding="utf-8")
    out = tmp_path / "never"
    cfg_path = tmp_path / "empty.cfg"
    text = config_text(corpus_dir, out, **{key: str(empty), "data.num_classes": "2"})
    cfg_path.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert f"error: {key}: {empty} holds no examples" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_one_class_corpus_before_writing(one_class_dir, tmp_path, capsys):
    """Trained on, it would write checkpoints that no reader loads."""
    out = tmp_path / "never"
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text(config_text(one_class_dir, out), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: data.train: the labels of {one_class_dir / 'train.csv'} name one class; "
        "a classifier needs at least 2 (data.num_classes sets the count)\n"
    )
    assert not out.exists()


def test_cli_refuses_fewer_than_two_classes_naming_its_line(corpus_dir, tmp_path, capsys):
    out = tmp_path / "never"
    cfg_path = tmp_path / "one.cfg"
    text = config_text(corpus_dir, out, **{"data.num_classes": "1"})
    cfg_path.write_text(text, encoding="utf-8")
    lineno = text.splitlines().index("data.num_classes = 1") + 1
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg_path}: line {lineno}: data.num_classes: "
        "data.num_classes must be at least 2\n"
    )
    assert not out.exists()


def test_cli_refuses_a_warmup_budget_longer_than_the_run_before_writing(
    corpus_dir, tmp_path, capsys
):
    out = tmp_path / "never"
    cfg_path = tmp_path / "long.cfg"
    overrides = {"selfmix.warmup_epochs": None, "selfmix.warmup_samples": "100000",
                 "selfmix.total_epochs": "2"}
    cfg_path.write_text(config_text(corpus_dir, out, **overrides), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "spans more passes" in capsys.readouterr().err
    assert not out.exists()
    # the plain arm has no warm-up phase, so the same config trains it
    assert cli.main(["train-baseline", "--config", str(cfg_path)]) == 0
    assert (out / "baseline" / "report.json").is_file()


def test_cli_run_and_report(corpus_dir, tmp_path, capsys):
    out = tmp_path / "cli_run"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        config_text(corpus_dir, out, **{"selfmix.total_epochs": "2"}) + "\n",
        encoding="utf-8",
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    out_text = capsys.readouterr().out
    assert "baseline: best_acc=" in out_text
    assert "selfmix: best_acc=" in out_text
    assert "last-epoch gap (selfmix - baseline):" in out_text
    assert (out / "summary.json").is_file()

    assert cli.main(["report", "--dir", str(out)]) == 0
    assert "noise: type=uniform" in capsys.readouterr().out

    assert cli.main(["report", "--dir", str(tmp_path / "nowhere")]) == 1


def test_cli_single_arm_trains_only_that_arm(corpus_dir, tmp_path, capsys):
    out = tmp_path / "solo"
    cfg_path = tmp_path / "solo.cfg"
    cfg_path.write_text(
        config_text(
            corpus_dir, out,
            **{"selfmix.total_epochs": "1", "selfmix.warmup_epochs": "1"},
        ),
        encoding="utf-8",
    )
    assert cli.main(["train-baseline", "--config", str(cfg_path)]) == 0
    assert (out / "baseline" / "report.json").is_file()
    assert not (out / "selfmix").exists()
    assert "baseline: best_acc=" in capsys.readouterr().out


def test_cli_degenerate_selection_losses_fall_back_and_warn(tmp_path, capsys):
    """One fixed text per class makes every class-standardized loss 0; the
    run keeps all samples labeled and records why, instead of failing."""
    texts = ("alpha beta", "gamma delta")
    data = Dataset(tuple(Example(i, texts[i % 2], i % 2) for i in range(32)), 2, "twin")
    save_csv(data, tmp_path / "train.csv")
    save_csv(data, tmp_path / "test.csv")
    out = tmp_path / "out"
    cfg_path = tmp_path / "twin.cfg"
    cfg_path.write_text(
        config_text(
            tmp_path, out,
            **{
                "noise.type": "none", "noise.ratio": None, "noise.seed": None,
                "selfmix.class_regularize": "true",
            },
        ),
        encoding="utf-8",
    )
    assert cli.main(["train-selfmix", "--config", str(cfg_path)]) == 0
    report = json.loads((out / "selfmix" / "report.json").read_text(encoding="utf-8"))
    assert [row["labeled_count"] for row in report["per_epoch"]] == [32, 32, 32]
    assert report["warnings"]
    assert all("fewer than two distinct values" in w for w in report["warnings"])
    assert "selfmix: best_acc=" in capsys.readouterr().out


def test_cli_analyze_losses(finished_run, tmp_path, capsys):
    _, out, _ = finished_run
    hist = tmp_path / "h.csv"
    assert cli.main([
        "analyze-losses", "--model", str(out / "baseline" / "model.smx"),
        "--data", str(out / "corrupted_train.csv"), "--out", str(hist),
        "--bins", "5",
    ]) == 0
    assert "histogrammed 48 clean and 12 noisy" in capsys.readouterr().out
    assert hist.is_file()


@pytest.mark.parametrize(
    ("hist", "bins", "message"),
    [("h.csv", "0", "bins must be positive"), ("nodir/h.csv", "20", "nodir/h.csv")],
)
def test_cli_analyze_losses_checks_its_arguments_before_reading(
    finished_run, tmp_path, capsys, monkeypatch, hist, bins, message
):
    """A bad ``--bins`` or an ``--out`` in a missing directory exits 1,
    naming what the user typed, before the checkpoint is loaded."""
    _, out, _ = finished_run
    loads = []
    real_load = encoder.load_checkpoint

    def counting(path):
        loads.append(path)
        return real_load(path)

    monkeypatch.setattr(encoder, "load_checkpoint", counting)
    monkeypatch.chdir(tmp_path)
    assert cli.main([
        "analyze-losses", "--model", str(out / "baseline" / "model.smx"),
        "--data", str(out / "corrupted_train.csv"), "--out", hist, "--bins", bins,
    ]) == 1
    err = capsys.readouterr().err
    assert message in err and ".tmp" not in err
    assert loads == []
    assert list(tmp_path.iterdir()) == []


def test_cli_analyze_losses_refuses_a_corpus_without_examples(finished_run, tmp_path, capsys):
    _, out, _ = finished_run
    empty = tmp_path / "empty.csv"
    empty.write_text("label,text\n", encoding="utf-8")
    assert cli.main([
        "analyze-losses", "--model", str(out / "baseline" / "model.smx"),
        "--data", str(empty), "--out", str(tmp_path / "h.csv"),
    ]) == 1
    assert f"error: data: {empty} holds no examples" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize(
    ("key", "where", "overrides"),
    [
        ("data.train", "corrupted_train.csv", {"noise.type": "none", "noise.ratio": "0.0"}),
        ("data.test", "hist/test.csv", {}),
        ("noise.transition", "selfmix/t.txt", {"noise.type": "asym"}),
    ],
)
def test_cli_run_refuses_an_input_it_would_remove(
    corpus_dir, tmp_path, capsys, key, where, overrides
):
    """An input that is one of the run's outputs, or lies inside one of its
    directories, exits 1 naming the key before anything is read or written."""
    out = tmp_path / "out"
    path = out / where
    path.parent.mkdir(parents=True)
    if key == "noise.transition":
        path.write_text("0,1\n1,0\n", encoding="utf-8")
    else:
        shutil.copy(corpus_dir / ("train.csv" if key == "data.train" else "test.csv"), path)
    before = path.read_bytes()
    cfg_path = tmp_path / "exp.cfg"
    # a run directory reached through another spelling of its parent is still itself
    spelled = tmp_path / "sub" / ".." / "out"
    (tmp_path / "sub").mkdir()
    cfg_path.write_text(
        config_text(corpus_dir, spelled, **{key: str(path), **overrides}), encoding="utf-8"
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert f"error: {key}: {path} is a run output" in capsys.readouterr().err
    assert path.read_bytes() == before
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == sorted(
        {where, where.split("/")[0]}
    )


@pytest.mark.parametrize("target", ["--model", "--data"])
def test_cli_analyze_losses_refuses_to_overwrite_its_inputs(
    finished_run, tmp_path, capsys, target
):
    _, out, _ = finished_run
    inputs = {"--model": tmp_path / "model.smx", "--data": tmp_path / "data.csv"}
    shutil.copy(out / "baseline" / "model.smx", inputs["--model"])
    shutil.copy(out / "corrupted_train.csv", inputs["--data"])
    before = {flag: path.read_bytes() for flag, path in inputs.items()}
    (tmp_path / "sub").mkdir()
    spelled = tmp_path / "sub" / ".." / inputs[target].name  # the same file, spelled otherwise
    assert cli.main([
        "analyze-losses", "--model", str(inputs["--model"]), "--data", str(inputs["--data"]),
        "--out", str(spelled),
    ]) == 1
    err = capsys.readouterr().err
    assert f"{spelled}: the histogram would overwrite" in err
    assert str(inputs[target]) in err
    assert {flag: path.read_bytes() for flag, path in inputs.items()} == before


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "{dir}"],
        ["run", "--config", "{file}/exp.cfg"],
        ["analyze-losses", "--model", "{dir}", "--data", "{data}", "--out", "{out}"],
        ["analyze-losses", "--model", "{model}", "--data", "{dir}", "--out", "{out}"],
    ],
)
def test_cli_a_directory_where_a_file_is_expected_exits_1(finished_run, tmp_path, capsys, argv):
    _, out, _ = finished_run
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("not a directory", encoding="utf-8")
    paths = {
        "dir": tmp_path / "dir", "file": tmp_path / "file", "out": tmp_path / "h.csv",
        "model": out / "baseline" / "model.smx", "data": out / "corrupted_train.csv",
    }
    assert cli.main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "directory" in err
    assert not (tmp_path / "h.csv").exists()


def test_atomic_open_names_the_target_when_its_directory_is_missing(tmp_path):
    target = tmp_path / "nodir" / "h.csv"
    with pytest.raises(FileNotFoundError) as err:
        with atomic_open(target) as fh:
            fh.write("never written")
    assert err.value.filename == str(target)
    assert ".tmp" not in str(err.value)


def test_cli_analyze_losses_refuses_a_checkpoint_header_larger_than_the_file(
    finished_run, tmp_path, capsys
):
    _, out, _ = finished_run
    model = tmp_path / "huge.smx"
    model.write_bytes(b"SMX4" + struct.pack("<qqqqd", 10**9, 64, 4, 0, 0.0) + bytes(56))
    assert cli.main([
        "analyze-losses", "--model", str(model),
        "--data", str(out / "corrupted_train.csv"), "--out", str(tmp_path / "h.csv"),
    ]) == 1
    assert "truncated checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def test_cli_analyze_losses_refuses_an_smx2_checkpoint(finished_run, tmp_path, capsys):
    _, out, _ = finished_run
    model = tmp_path / "old.smx"
    model.write_bytes(b"SMX2" + struct.pack("<qqq", 1024, 8, 2) + bytes(128))
    assert cli.main([
        "analyze-losses", "--model", str(model),
        "--data", str(out / "corrupted_train.csv"), "--out", str(tmp_path / "h.csv"),
    ]) == 1
    assert "SMX2 checkpoints no longer load" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def test_cli_diverging_model_exits_2_at_its_stage(tmp_path, capsys):
    """A learning rate of 1e200 overflows the forward pass after one step;
    the run fails as numeric, and the summary names the arm."""
    train, test = make_corpus(30, 10, 2, seed=0)
    save_csv(train, tmp_path / "train.csv")
    save_csv(test, tmp_path / "test.csv")
    out = tmp_path / "out"
    cfg_path = tmp_path / "diverge.cfg"
    cfg_path.write_text(
        config_text(
            tmp_path, out,
            **{
                "optimizer.lr": "1e200", "selfmix.batch_size": "64",
                "selfmix.total_epochs": "1", "encoder.buckets": "512",
            },
        ),
        encoding="utf-8",
    )
    with np.errstate(all="ignore"):
        assert cli.main(["train-baseline", "--config", str(cfg_path)]) == 2
    assert "non-finite logits" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["error"]["stage"] == "baseline"
    assert not (out / "baseline").exists()


def test_cli_analyze_losses_exits_2_when_the_forward_pass_overflows(
    finished_run, tmp_path, capsys, monkeypatch
):
    """A forward pass that overflows exits 2 and writes nothing. A finite
    float32 checkpoint cannot overflow the float64 head, so the scoring
    call raises as a diverged model's would."""
    _, out, _ = finished_run

    def overflowing(params, dataset, features=None):
        raise NumericError(f"non-finite logits for document 0 of {len(dataset)}")

    monkeypatch.setattr(harness, "per_sample_losses", overflowing)
    assert cli.main([
        "analyze-losses", "--model", str(out / "baseline" / "model.smx"),
        "--data", str(out / "corrupted_train.csv"), "--out", str(tmp_path / "h.csv"),
    ]) == 2
    assert "non-finite logits" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def test_cli_numeric_failures_exit_2(corpus_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "x"
    cfg_path = tmp_path / "x.cfg"
    cfg_path.write_text(config_text(corpus_dir, out), encoding="utf-8")

    def explode(cfg, arms=ARMS):
        raise NumericError("epoch 0, batch 1: non-finite ce loss")

    monkeypatch.setattr(cli.harness, "run_experiment", explode)
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "numeric failure:" in capsys.readouterr().err
