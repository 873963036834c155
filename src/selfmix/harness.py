"""Experiment orchestration: config files, metrics, artifacts, reruns.

A run is described by a flat ``key = value`` config (``#`` starts a comment
line; keys are namespaced like ``noise.type`` or ``selfmix.tau``). The
harness injects label noise into a clean corpus, trains the plain
cross-entropy arm and/or the adaptive arm on identical seeds, and writes a
self-contained artifact directory:

    config_echo.txt            canonicalized config
    corrupted_train.csv        training data with the oracle column
    noise_manifest.csv         what was flipped (sidecar format)
    <arm>/report.json          headline metrics + per-epoch rows
    <arm>/epochs.csv           the same rows, flat
    <arm>/steps.csv            accuracy every K optimizer steps
    <arm>/model.smx            final model checkpoint
    hist/<arm>_epoch<e>.csv    loss histograms split clean/noisy
    summary.json               cross-arm roll-up

Outputs embed the config echo and contain no timestamps or absolute paths
derived from the environment, so rerunning the same config over the same
inputs reproduces every artifact byte for byte. Out-of-range settings and
noise settings that change nothing are refused when the config is parsed;
missing or empty inputs, inputs the run would remove, and a warm-up sample
budget spanning more passes than the run has epochs are refused before
anything is written. Failures mid-run leave a partial summary
recording the failed stage. A run first removes the files listed above that
an earlier run left in its directory, so a directory never mixes two runs.
The echo shows the value each setting takes in the run, so a config that
names no warm-up key echoes ``selfmix.warmup_epochs = 2``.

A two-arm run featurizes, initializes and runs the full-pass warm-up epochs
once (:class:`~selfmix.core.SharedWarmup`), and its artifacts are those of
two single-arm runs, byte for byte. Until the second arm starts, what the
warm-up changed (parameters, Adam state, step count and records) waits,
pickled, in an anonymous temporary file outside the run directory, about
12 MB at 2^18 buckets on the quick-start corpus, which is removed when the
run ends. A partial ``warmup_samples`` pass is not shared.
"""
from __future__ import annotations

import contextlib
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .common import atomic_open, located, subseed
from .core import (
    ModelConfig,
    SelfMixConfig,
    SharedWarmup,
    per_sample_losses,
    train_baseline,
    train_selfmix,
    warmup_schedule,
)
from .data import Dataset, load_csv, save_csv, validate
from .encoder import featurize_corpus, save_checkpoint
from .noise import (
    NOISE_TYPE_ALIASES,
    NOISE_TYPES,
    TransitionMap,
    canonical_noise_type,
    inject,
    save_manifest,
)


def _parse_bool(raw: str) -> bool:
    if raw.lower() == "true":
        return True
    if raw.lower() == "false":
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _parse_opt(parse: Callable[[str], object]) -> Callable[[str], object]:
    def inner(raw: str):
        return None if raw.lower() == "none" else parse(raw)

    return inner


def _parse_noise_type(raw: str) -> str:
    if raw == "none":
        return raw
    try:
        return canonical_noise_type(raw)
    except ValueError:
        choices = ("none",) + NOISE_TYPES + tuple(NOISE_TYPE_ALIASES)
        raise ValueError(
            f"noise.type must be one of {', '.join(choices)}; got {raw!r}"
        ) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of a flat config file.

    The model and SelfMix settings live on the configs the trainers take;
    the other fields belong to the harness. ``_CONFIG_KEYS`` maps each key
    to its field.
    """

    train_path: str | None = None
    test_path: str | None = None
    num_classes: int | None = None
    noise_type: str = "none"
    noise_ratio: float = 0.0
    noise_seed: int | None = None
    transition_path: str | None = None
    aux_subset_fraction: float = 0.1
    output_dir: str | None = None
    eval_every: int = 50
    histogram_bins: int = 20
    model: ModelConfig = ModelConfig()
    selfmix: SelfMixConfig = SelfMixConfig()

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_ratio < 1.0:
            raise ValueError("noise.ratio must lie in [0, 1)")
        if self.noise_seed is not None and self.noise_seed < 0:
            raise ValueError(f"noise.seed must be non-negative; got {self.noise_seed}")
        if not 0.0 < self.aux_subset_fraction <= 1.0:
            raise ValueError("noise.aux_subset_fraction must lie in (0, 1]")
        if self.eval_every < 1:
            raise ValueError("run.eval_every must be at least 1")
        if self.histogram_bins < 1:
            raise ValueError("run.histogram_bins must be at least 1")
        if self.num_classes is not None and self.num_classes < 2:
            raise ValueError("data.num_classes must be at least 2")
        if self.noise_type == "none" and self.noise_ratio != 0.0:
            raise ValueError(
                f"noise.ratio = {self.noise_ratio!r} at noise.type = none flips no label"
            )
        if self.transition_path is not None and self.noise_type != "asymmetric":
            raise ValueError(f"noise.transition needs noise.type = asym, not {self.noise_type}")

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "ExperimentConfig":
        """Parse a config; every error names its source, and its line and key
        where one line of the file is to blame."""
        sections: dict[str | None, dict[str, object]] = {None: {}, "model": {}, "selfmix": {}}
        lines: dict[str, int] = {}  # key -> the line that set it
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{source}: line {lineno}: expected 'key = value'")
            key, _, raw_value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{source}: line {lineno}: unknown key {key!r}")
            section, name, parse = _CONFIG_KEYS[key]
            if name in sections[section]:
                raise ValueError(f"{source}: line {lineno}: duplicate key {key!r}")
            try:
                sections[section][name] = parse(raw_value.strip())
            except ValueError as exc:
                raise ValueError(f"{source}: line {lineno}: {key}: {exc}") from None
            lines[key] = lineno
        if sections["selfmix"].get("warmup_samples") is not None:
            sections["selfmix"].setdefault("warmup_epochs", None)
        try:
            return cls(
                model=ModelConfig(**sections["model"]),
                selfmix=SelfMixConfig(**sections["selfmix"]),
                **sections[None],
            )
        except ValueError as exc:
            raise ValueError(f"{source}: {_blame(str(exc), lines)}{exc}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        return cls.from_text(path.read_text(encoding="utf-8"), source=str(path))

    def echo_dict(self) -> dict[str, object]:
        return {
            key: getattr(getattr(self, section) if section else self, name)
            for key, (section, name, _) in sorted(_CONFIG_KEYS.items())
        }

    def echo_lines(self) -> list[str]:
        """The canonical ``key = value`` rendering, sorted by key."""
        return [f"{key} = {_format_value(v)}" for key, v in self.echo_dict().items()]

    def effective_noise_seed(self) -> int:
        if self.noise_seed is not None:
            return self.noise_seed
        return subseed(self.selfmix.seed, "noise")


# key -> (section of ExperimentConfig, or None for its own fields; field; parser)
_CONFIG_KEYS: dict[str, tuple[str | None, str, Callable[[str], object]]] = {
    "data.train": (None, "train_path", _parse_opt(str)),
    "data.test": (None, "test_path", _parse_opt(str)),
    "data.num_classes": (None, "num_classes", _parse_opt(int)),
    "noise.type": (None, "noise_type", _parse_noise_type),
    "noise.ratio": (None, "noise_ratio", float),
    "noise.seed": (None, "noise_seed", _parse_opt(int)),
    "noise.transition": (None, "transition_path", _parse_opt(str)),
    "noise.aux_subset_fraction": (None, "aux_subset_fraction", float),
    "selfmix.tau": ("selfmix", "tau", float),
    "selfmix.lambda_p": ("selfmix", "lambda_p", float),
    "selfmix.lambda_r": ("selfmix", "lambda_r", float),
    "selfmix.alpha": ("selfmix", "alpha", float),
    "selfmix.temperature": ("selfmix", "temperature", float),
    "selfmix.warmup_epochs": ("selfmix", "warmup_epochs", _parse_opt(int)),
    "selfmix.warmup_samples": ("selfmix", "warmup_samples", _parse_opt(int)),
    "selfmix.total_epochs": ("selfmix", "total_epochs", int),
    "selfmix.batch_size": ("selfmix", "batch_size", int),
    "selfmix.class_regularize": ("selfmix", "class_regularize", _parse_bool),
    "encoder.buckets": ("model", "num_buckets", int),
    "encoder.hidden": ("model", "hidden", int),
    "encoder.dropout": ("model", "dropout_rate", float),
    "optimizer.lr": ("model", "learning_rate", float),
    "optimizer.beta1": ("model", "beta1", float),
    "optimizer.beta2": ("model", "beta2", float),
    "optimizer.epsilon": ("model", "epsilon", float),
    "run.seed": ("selfmix", "seed", int),
    "run.output_dir": (None, "output_dir", _parse_opt(str)),
    "run.eval_every": (None, "eval_every", int),
    "run.histogram_bins": (None, "histogram_bins", int),
}


def _blame(message: str, lines: dict[str, int]) -> str:
    """``line <n>: <key>: `` for the last line that set a setting ``message``
    names, or ``""`` when it names none the file sets.

    Each range check's message names the settings it reads: by field name
    on the model and SelfMix configs, by key on the harness's own fields; a
    field name after a dot, as ``seed`` in ``noise.seed``, is part of a key.
    """
    named = [
        (lineno, key)
        for key, lineno in lines.items()
        if any(
            re.search(rf"(?<![\w.]){re.escape(word)}\b", message)
            for word in (key, _CONFIG_KEYS[key][1])
        )
    ]
    if not named:
        return ""
    lineno, key = max(named)
    return f"line {lineno}: {key}: "


def _format_value(value: object) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_transition(path: str | Path, num_classes: int) -> TransitionMap:
    """Read a transition map: one ``class,target`` line per class."""
    targets: dict[int, int] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 'class,target'")
        try:
            c, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: expected integer 'class,target'") from None
        if c in targets:
            raise ValueError(f"{path}: line {lineno}: duplicate class {c}")
        targets[c] = t
    if sorted(targets) != list(range(num_classes)):
        raise ValueError(f"{path}: transition map must cover classes 0..{num_classes - 1}")
    return TransitionMap(tuple(targets[c] for c in range(num_classes)))


def emit_loss_histogram(
    losses: np.ndarray,
    noisy_mask: np.ndarray,
    bins: int,
    path: str | Path,
    header_lines: Iterable[str] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram losses into uniform bins, split clean/noisy.

    ``noisy_mask`` holds one bool per loss, true where the sample is noisy.
    Bins cover [min, max] of all losses (a unit-wide range when the losses
    are constant); every bin is left-closed and the last is closed on both
    sides. The CSV has columns bin_left,bin_right,clean_count,noisy_count,
    preceded by ``#``-prefixed header lines. Returns (edges, clean_counts,
    noisy_counts).
    """
    losses = np.asarray(losses, dtype=np.float64)
    noisy_mask = np.asarray(noisy_mask, dtype=bool)
    if losses.shape != noisy_mask.shape:
        raise ValueError("losses and the noisy mask must have the same shape")
    if bins < 1:
        raise ValueError("bins must be positive")
    if losses.size == 0:
        raise ValueError("cannot histogram an empty loss array")
    lo, hi = float(losses.min()), float(losses.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    clean_counts, _ = np.histogram(losses[~noisy_mask], bins=edges)
    noisy_counts, _ = np.histogram(losses[noisy_mask], bins=edges)
    with atomic_open(path) as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("bin_left,bin_right,clean_count,noisy_count\n")
        for b in range(bins):
            fh.write(
                f"{float(edges[b])!r},{float(edges[b + 1])!r},"
                f"{int(clean_counts[b])},{int(noisy_counts[b])}\n"
            )
    return edges, clean_counts, noisy_counts


# ---------------------------------------------------------------------------
# Full experiment
# ---------------------------------------------------------------------------

ARMS = ("baseline", "selfmix")
# Everything a run writes into run.output_dir; a new run removes these first.
_RUN_OUTPUTS = (
    "config_echo.txt",
    "corrupted_train.csv",
    "noise_manifest.csv",
    "summary.json",
    "hist",
    *ARMS,
)


def _write_json(path: Path, payload: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv_with_echo(path: Path, echo: list[str], rows: Iterable[list]) -> None:
    with atomic_open(path) as fh:
        for line in echo:
            fh.write(f"# {line}\n")
        for row in rows:
            fh.write(",".join(_format_value(v) for v in row) + "\n")


def _require_examples(dataset: Dataset, label: str, path: str | Path) -> None:
    if not len(dataset):
        raise ValueError(f"{label}: {path} holds no examples")


def _load_startup(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, TransitionMap | None]:
    """Everything that must succeed before any output is created, including
    that no input is one of ``_RUN_OUTPUTS`` or lies inside one of them."""
    if not cfg.train_path:
        raise ValueError("data.train is required")
    if not cfg.test_path:
        raise ValueError("data.test is required")
    if not cfg.output_dir:
        raise ValueError("run.output_dir is required")
    outputs = {Path(cfg.output_dir).resolve() / name for name in _RUN_OUTPUTS}
    paths = {"data.train": cfg.train_path, "data.test": cfg.test_path,
             "noise.transition": cfg.transition_path}
    for label, path in paths.items():
        if path is None:
            continue
        if outputs.intersection([located(path), *located(path).parents]):
            raise ValueError(
                f"{label}: {path} is a run output under run.output_dir = "
                f"{cfg.output_dir}, which a run removes first"
            )
        if not Path(path).is_file():
            raise ValueError(f"{label}: no such file: {path}")
    train = load_csv(cfg.train_path, num_classes=cfg.num_classes)
    if train.num_classes < 2:
        raise ValueError(
            f"data.train: the labels of {cfg.train_path} name one class; "
            "a classifier needs at least 2 (data.num_classes sets the count)"
        )
    test = load_csv(cfg.test_path, num_classes=train.num_classes)
    for name, path, ds in (("train", cfg.train_path, train), ("test", cfg.test_path, test)):
        _require_examples(ds, f"data.{name}", path)
        report = validate(ds)
        if not report.ok:
            raise ValueError(f"{name} data failed validation: {'; '.join(report.findings)}")
    transition = None
    if cfg.transition_path is not None:
        transition = load_transition(cfg.transition_path, train.num_classes)
    if cfg.noise_type != "none" and any(ex.true_label is not None for ex in train):
        raise ValueError("data.train already carries an oracle column; refusing to re-inject")
    return train, test, transition


def _clear_run_outputs(out: Path) -> None:
    """Remove what an earlier run left in ``out``; any other file stays."""
    for name in _RUN_OUTPUTS:
        path = out / name
        if path.is_dir() and not path.is_symlink():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)


def run_experiment(cfg: ExperimentConfig, arms: tuple[str, ...] = ARMS) -> dict:
    """Inject noise, train the requested arms, write all artifacts.

    Returns the summary dict (also written to summary.json). Raises on
    failure after recording the failed stage in a partial summary.
    """
    for arm in arms:
        if arm not in ARMS:
            raise ValueError(f"unknown arm {arm!r}")
    if len(set(arms)) != len(arms):
        raise ValueError(f"arms {tuple(arms)!r} name an arm more than once")
    train, test, transition = _load_startup(cfg)
    if "selfmix" in arms:
        warmup_schedule(cfg.selfmix, len(train))

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _clear_run_outputs(out)
    echo = cfg.echo_lines()
    with atomic_open(out / "config_echo.txt") as fh:
        fh.write("\n".join(echo) + "\n")

    summary: dict = {"config": cfg.echo_dict(), "arms": list(arms)}
    stage = "inject"
    try:
        if cfg.noise_type != "none":
            noise_seed = cfg.effective_noise_seed()
            corrupted, manifest = inject(
                train,
                cfg.noise_type,
                cfg.noise_ratio,
                noise_seed,
                transition=transition,
                aux_subset_fraction=cfg.aux_subset_fraction,
            )
            save_csv(corrupted, out / "corrupted_train.csv")
            save_manifest(manifest, out / "noise_manifest.csv")
            summary["noise"] = {
                "type": manifest.noise_type,
                "ratio": manifest.ratio,
                "seed": manifest.seed,
                "num_flipped": len(manifest.flips),
            }
        else:
            corrupted = train
            summary["noise"] = {
                "type": "none",
                "ratio": 0.0,
                "seed": None,
                "num_flipped": int(np.count_nonzero(train.noisy_mask())),
            }

        noisy_mask = corrupted.noisy_mask()
        (out / "hist").mkdir(exist_ok=True)

        sel_f1: dict[str, float] = {}
        trainers = {"baseline": train_baseline, "selfmix": train_selfmix}
        with SharedWarmup() if len(arms) > 1 else contextlib.nullcontext() as shared:
            for arm in arms:
                stage = arm
                report = trainers[arm](
                    corrupted,
                    test,
                    cfg.model,
                    cfg.selfmix,
                    eval_every=cfg.eval_every,
                    shared=shared,
                )
                arm_dir = out / arm
                arm_dir.mkdir(exist_ok=True)
                _write_json(
                    arm_dir / "report.json",
                    {"config": cfg.echo_dict(), **report.as_dict(), "warnings": report.warnings},
                )
                _write_csv_with_echo(arm_dir / "epochs.csv", echo, report.csv_rows())
                _write_csv_with_echo(
                    arm_dir / "steps.csv",
                    echo,
                    [["step", "test_acc"]] + [[s, a] for s, a in report.step_acc],
                )
                assert report.final_params is not None
                save_checkpoint(report.final_params, arm_dir / "model.smx")
                for e, losses in enumerate(report.per_epoch_losses):
                    emit_loss_histogram(
                        losses,
                        noisy_mask,
                        cfg.histogram_bins,
                        out / "hist" / f"{arm}_epoch{e}.csv",
                        header_lines=echo,
                    )
                summary[arm] = {
                    "best_acc": report.best_acc,
                    "last_acc": report.last_acc,
                    "warnings": report.warnings,
                }
                sel_f1[arm] = report.per_epoch[-1].sel_f1
                del report  # free this arm's model before the next arm trains

        stage = "summary"
        if "selfmix" in arms:
            summary["final_sel_f1"] = sel_f1["selfmix"]
        if len(arms) == 2:
            summary["acc_gap_last"] = (
                summary["selfmix"]["last_acc"] - summary["baseline"]["last_acc"]
            )
        _write_json(out / "summary.json", summary)
    except Exception as exc:
        summary["error"] = {"stage": stage, "message": str(exc)}
        _write_json(out / "summary.json", summary)
        raise
    return summary


def analyze_losses(
    model_path: str | Path,
    data_path: str | Path,
    out_path: str | Path,
    bins: int = 20,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram a trained model's per-sample losses over a corpus.

    ``bins``, the directory of ``out_path`` and an ``out_path`` naming the
    model or the corpus are checked before either is read, and a corpus
    without examples is refused before anything is written.
    """
    from .encoder import load_checkpoint

    if bins < 1:
        raise ValueError("bins must be positive")
    if not Path(out_path).parent.is_dir():
        raise ValueError(f"{out_path}: no such directory: {Path(out_path).parent}")
    for what, path in (("model", model_path), ("data", data_path)):
        if located(out_path) == located(path):
            raise ValueError(f"{out_path}: the histogram would overwrite the {what} file {path}")
    params = load_checkpoint(model_path)
    dataset = load_csv(data_path, num_classes=params.num_classes)
    _require_examples(dataset, "data", data_path)
    features = featurize_corpus([ex.text for ex in dataset], params.num_buckets)
    losses = per_sample_losses(params, dataset, features)
    header = [
        f"model = {Path(model_path).name}",
        f"data = {Path(data_path).name}",
        f"bins = {bins}",
    ]
    return emit_loss_histogram(
        losses, dataset.noisy_mask(), bins, out_path, header_lines=header
    )


def format_report(out_dir: str | Path) -> str:
    """Human-readable rendering of a finished run directory."""
    out = Path(out_dir)
    summary_path = out / "summary.json"
    if not summary_path.is_file():
        raise ValueError(f"{out}: no summary.json (is this a run directory?)")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    lines = [f"run directory: {out}"]
    noise = summary.get("noise", {})
    lines.append(
        "noise: type={type} ratio={ratio} flipped={num_flipped}".format(
            type=noise.get("type"), ratio=noise.get("ratio"), num_flipped=noise.get("num_flipped")
        )
    )
    for arm in summary.get("arms", []):
        info = summary.get(arm)
        if not info:
            continue
        lines.append(
            f"{arm}: best_acc={info['best_acc']:.4f} last_acc={info['last_acc']:.4f}"
        )
        report_path = out / arm / "report.json"
        if report_path.is_file():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            lines.append(
                "  epoch  test_acc  sel_f1   l_mix    l_p      l_r      labeled"
            )
            for e, row in enumerate(report["per_epoch"]):
                lines.append(
                    f"  {e:>5}  {row['test_acc']:.4f}    {row['sel_f1']:.4f}"
                    f"   {row['l_mix']:.4f}   {row['l_p']:.4f}   {row['l_r']:.4f}"
                    f"   {row['labeled_count']}"
                )
    if "acc_gap_last" in summary:
        lines.append(f"last-epoch accuracy gap (selfmix - baseline): {summary['acc_gap_last']:+.4f}")
    if "error" in summary:
        lines.append(
            f"RUN FAILED at stage {summary['error']['stage']}: {summary['error']['message']}"
        )
    return "\n".join(lines)
