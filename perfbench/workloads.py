"""The benchmark's workloads: how each builds its inputs, runs one operation,
and checks what the operation wrote.

Inputs come only from the workload seed. The program under test sees the
generated CSVs (and, for ``analyze-unseen``, a checkpoint made in set-up);
the set-up's own records (``setup.json``) are read only by the benchmark.
"""
from __future__ import annotations

import filecmp
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from selfmix import harness
from selfmix.core import ModelConfig, SelfMixConfig, train_baseline
from selfmix.data import save_csv
from selfmix.encoder import save_checkpoint
from selfmix.noise import inject
from selfmix.synthetic import make_corpus, make_labeled_pool


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def derive(seed: int, *tags: object) -> int:
    """A 31-bit seed for one input or operation, stable across platforms."""
    text = ":".join(str(t) for t in (seed, *tags))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "little") >> 1


def tree_files(root: Path) -> dict[str, int]:
    """Relative path -> size of every regular file under ``root``."""
    return {
        p.relative_to(root).as_posix(): p.stat().st_size
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def same_tree(a: Path, b: Path) -> bool:
    files = tree_files(a)
    return files == tree_files(b) and all(
        filecmp.cmp(a / rel, b / rel, shallow=False) for rel in files
    )


def read_histogram(path: Path) -> list[tuple[float, float, int, int]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    require(lines[:1] == ["bin_left,bin_right,clean_count,noisy_count"], f"{path.name}: bad header")
    rows = []
    for line in lines[1:]:
        left, right, clean, noisy = line.split(",")
        rows.append((float(left), float(right), int(clean), int(noisy)))
    require(all(math.isfinite(r[0]) and math.isfinite(r[1]) for r in rows),
            f"{path.name}: non-finite bin edge")
    return rows


def check_histogram(path: Path, n: int, flips: int) -> list[tuple[float, float, int, int]]:
    rows = read_histogram(path)
    clean = sum(r[2] for r in rows)
    noisy = sum(r[3] for r in rows)
    require(clean + noisy == n, f"{path.name}: clean + noisy = {clean + noisy}, expected {n}")
    require(noisy == flips, f"{path.name}: {noisy} noisy losses, expected {flips}")
    return rows


def noise_auc(rows: list[tuple[float, float, int, int]]) -> float:
    """P(a noisy sample's loss lies in a higher bin than a clean one's); ties count half."""
    clean_below = 0
    wins = 0.0
    for _, _, clean, noisy in rows:
        wins += noisy * (clean_below + 0.5 * clean)
        clean_below += clean
    total_noisy = sum(r[3] for r in rows)
    return wins / (total_noisy * clean_below)


def require_finite(value: object, where: str) -> None:
    """Every number in a JSON document is finite."""
    if isinstance(value, dict):
        for key, item in value.items():
            require_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            require_finite(item, f"{where}[{i}]")
    elif isinstance(value, float):
        require(math.isfinite(value), f"{where} is {value}")


@dataclass(frozen=True)
class TrainWorkload:
    """One README-style experiment per operation, through ``harness.run_experiment``.

    ``config`` holds the workload's config lines; the data paths, noise seed,
    run seed and output directory are added per operation.
    """

    name: str
    train: int
    test: int
    classes: int
    config: tuple[str, ...]
    arms: tuple[str, ...]
    flips: int
    epochs: int
    pool: dict = field(default_factory=dict)
    seeded: ClassVar[bool] = True

    def setup(self, inputs: Path, seed: int) -> None:
        train, test = make_corpus(
            self.train, self.test, self.classes, seed=derive(seed, "corpus"), **self.pool
        )
        save_csv(train, inputs / "train.csv")
        save_csv(test, inputs / "test.csv")
        setup = {"noise_seed": derive(seed, "noise")}
        (inputs / "setup.json").write_text(json.dumps(setup) + "\n", encoding="utf-8")

    def run(self, inputs: Path, out: Path, run_seed: int) -> None:
        setup = json.loads((inputs / "setup.json").read_text(encoding="utf-8"))
        text = "\n".join(
            [
                f"data.train = {inputs / 'train.csv'}",
                f"data.test = {inputs / 'test.csv'}",
                f"noise.seed = {setup['noise_seed']}",
                *self.config,
                f"run.seed = {run_seed}",
                f"run.output_dir = {out}",
            ]
        )
        harness.run_experiment(harness.ExperimentConfig.from_text(text), self.arms)

    def expected_files(self) -> set[str]:
        files = {"config_echo.txt", "corrupted_train.csv", "noise_manifest.csv", "summary.json"}
        for arm in self.arms:
            files |= {f"{arm}/{f}" for f in ("report.json", "epochs.csv", "steps.csv", "model.smx")}
            files |= {f"hist/{arm}_epoch{e}.csv" for e in range(self.epochs)}
        return files

    def check(self, inputs: Path, out: Path) -> dict[str, float]:
        """Raise CheckFailed on a bad run directory; return its quality figures."""
        files = set(tree_files(out))
        require(files == self.expected_files(),
                f"artifact set differs: {sorted(files ^ self.expected_files())}")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        require("error" not in summary, f"summary records an error: {summary.get('error')}")
        require_finite(summary, "summary")
        require(summary["noise"]["num_flipped"] == self.flips,
                f"{summary['noise']['num_flipped']} flips, expected {self.flips}")
        manifest = (out / "noise_manifest.csv").read_text(encoding="utf-8").splitlines()
        listed = sum(1 for line in manifest if not line.startswith("#")) - 1
        require(listed == self.flips, f"manifest lists {listed} flips, expected {self.flips}")
        for arm in self.arms:
            report = json.loads((out / arm / "report.json").read_text(encoding="utf-8"))
            require_finite(report, f"{arm}/report.json")
            require(len(report["per_epoch"]) == self.epochs, f"{arm}: wrong epoch count")
            for e in range(self.epochs):
                last = check_histogram(out / "hist" / f"{arm}_epoch{e}.csv", self.train, self.flips)
        quality = {
            "selfmix_last_acc": summary["selfmix"]["last_acc"],
            "sel_f1": summary["final_sel_f1"],
            "noise_auc": noise_auc(last),
        }
        if "baseline" in self.arms:
            quality["baseline_last_acc"] = summary["baseline"]["last_acc"]
        return quality


class AnalyzeWorkload:
    """The read path: histogram a saved baseline's losses over an unseen pool."""

    name = "analyze-unseen"
    seeded = False
    pool_size = 20000
    flips = 4000

    def setup(self, inputs: Path, seed: int) -> None:
        train, test = make_corpus(2000, 500, 4, seed=derive(seed, "corpus"))
        report = train_baseline(
            train,
            test,
            ModelConfig(),
            SelfMixConfig(total_epochs=1, warmup_epochs=1, seed=derive(seed, "train")),
        )
        save_checkpoint(report.final_params, inputs / "model.smx")
        pool, _ = make_labeled_pool(
            self.pool_size, 4, class_vocab=400, seed=derive(seed, "pool"), name="pool"
        )
        noisy, _ = inject(pool, "uniform", 0.2, derive(seed, "noise"))
        save_csv(noisy, inputs / "pool.csv")
        setup = {"baseline_last_acc": report.last_acc}
        (inputs / "setup.json").write_text(json.dumps(setup) + "\n", encoding="utf-8")

    def run(self, inputs: Path, out: Path, run_seed: int) -> None:
        out.mkdir()
        harness.analyze_losses(inputs / "model.smx", inputs / "pool.csv", out / "losses.csv")

    def check(self, inputs: Path, out: Path) -> dict[str, float]:
        files = set(tree_files(out))
        require(files == {"losses.csv"}, f"artifact set differs: {sorted(files)}")
        rows = check_histogram(out / "losses.csv", self.pool_size, self.flips)
        setup = json.loads((inputs / "setup.json").read_text(encoding="utf-8"))
        return {"baseline_last_acc": setup["baseline_last_acc"], "noise_auc": noise_auc(rows)}


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "quickstart", 2000, 500, 4,
            config=(
                "noise.type = asym",
                "noise.ratio = 0.4",
                "selfmix.total_epochs = 6",
                "selfmix.warmup_epochs = 2",
            ),
            arms=("baseline", "selfmix"), flips=800, epochs=6,
        ),
        TrainWorkload(
            "idn-selection", 8000, 2000, 8,
            config=(
                "noise.type = idn",
                "noise.ratio = 0.3",
                "selfmix.class_regularize = true",
                "encoder.buckets = 16384",
                "selfmix.total_epochs = 3",
                "selfmix.warmup_epochs = 1",
                "run.eval_every = 1000",
            ),
            arms=("selfmix",), flips=2400, epochs=3, pool={"ambiguous_fraction": 0.1},
        ),
        AnalyzeWorkload(),
    )
}
