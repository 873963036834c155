"""Command-line front end.

Subcommands cover the full workflow: corrupt a clean corpus (inject-noise),
train either arm from a config file (train-baseline / train-selfmix), run
both arms plus diagnostics in one shot (run), histogram a trained model's
losses (analyze-losses), pretty-print a finished run (report), and generate
a synthetic corpus to play with (make-corpus).

Exit codes: 0 on success, 1 for argument or configuration problems, 2 for
runtime numeric failures.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .common import refuse_overwrite
from .data import load_csv, save_csv
from .noise import NOISE_TYPE_ALIASES, NOISE_TYPES, inject, save_manifest
from .synthetic import make_corpus


class _Parser(argparse.ArgumentParser):
    """Argparse that raises instead of exiting, so errors map to exit 1."""

    def error(self, message: str):  # noqa: D401 - argparse hook
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="selfmix",
        description="Train text classifiers on noisily labeled data with "
        "mixture-based sample selection and feature-bag mixup.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("inject-noise", help="corrupt a clean corpus")
    p.add_argument("--in", dest="in_path", required=True, help="clean corpus CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--type",
        required=True,
        choices=NOISE_TYPES + tuple(NOISE_TYPE_ALIASES),
    )
    p.add_argument("--ratio", required=True, type=float)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--transition", help="transition map file (asym only)")
    p.add_argument("--aux-fraction", type=float, default=0.1)

    for name in ("train-baseline", "train-selfmix", "run"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} from a config file")
        p.add_argument("--config", required=True, help="flat key = value config file")

    p = sub.add_parser("analyze-losses", help="histogram per-sample losses")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--data", required=True, help="corpus CSV")
    p.add_argument("--out", required=True, help="output histogram CSV")
    p.add_argument("--bins", type=int, default=20)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("--dir", required=True, help="run output directory")

    p = sub.add_parser("make-corpus", help="write a synthetic train/test pair")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--train", type=int, default=2000)
    p.add_argument("--test", type=int, default=500)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_inject(args: argparse.Namespace) -> None:
    out = Path(args.out)
    corrupted_path, manifest_path = out / "corrupted.csv", out / "manifest.csv"
    refuse_overwrite(
        {"--in": args.in_path, "--transition": args.transition},
        (corrupted_path, manifest_path),
        f"{{label}}: {{path}} is a file inject-noise writes under --out {out}",
    )
    dataset = load_csv(args.in_path)
    transition = None
    if args.transition is not None:
        transition = harness.load_transition(args.transition, dataset.num_classes)
    corrupted, manifest = inject(
        dataset,
        args.type,
        args.ratio,
        args.seed,
        transition=transition,
        aux_subset_fraction=args.aux_fraction,
    )
    out.mkdir(parents=True, exist_ok=True)
    save_csv(corrupted, corrupted_path)
    save_manifest(manifest, manifest_path)
    print(f"flipped {len(manifest.flips)} of {len(dataset)} labels")
    print(f"wrote {corrupted_path}")
    print(f"wrote {manifest_path}")


def _cmd_train(args: argparse.Namespace, arms: tuple[str, ...]) -> None:
    cfg = harness.ExperimentConfig.from_file(args.config)
    summary = harness.run_experiment(cfg, arms=arms)
    for arm in arms:
        info = summary[arm]
        print(f"{arm}: best_acc={info['best_acc']:.4f} last_acc={info['last_acc']:.4f}")
    if "acc_gap_last" in summary:
        print(f"last-epoch gap (selfmix - baseline): {summary['acc_gap_last']:+.4f}")
    print(f"artifacts in {cfg.output_dir}")


def _cmd_analyze(args: argparse.Namespace) -> None:
    edges, clean, noisy = harness.analyze_losses(
        args.model, args.data, args.out, bins=args.bins
    )
    print(
        f"histogrammed {int(clean.sum())} clean and {int(noisy.sum())} noisy "
        f"losses over [{edges[0]:.4f}, {edges[-1]:.4f}] into {args.bins} bins"
    )
    print(f"wrote {args.out}")


def _cmd_make_corpus(args: argparse.Namespace) -> None:
    train, test = make_corpus(args.train, args.test, args.classes, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(train, out / "train.csv")
    save_csv(test, out / "test.csv")
    print(f"wrote {out / 'train.csv'} ({len(train)} examples, {train.num_classes} classes)")
    print(f"wrote {out / 'test.csv'} ({len(test)} examples)")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "inject-noise":
            _cmd_inject(args)
        elif args.command == "train-baseline":
            _cmd_train(args, ("baseline",))
        elif args.command == "train-selfmix":
            _cmd_train(args, ("selfmix",))
        elif args.command == "run":
            _cmd_train(args, harness.ARMS)
        elif args.command == "analyze-losses":
            _cmd_analyze(args)
        elif args.command == "report":
            print(harness.format_report(args.dir))
        elif args.command == "make-corpus":
            _cmd_make_corpus(args)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected runtime trouble
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
