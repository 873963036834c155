"""Outside-in tracing of selfmix: wrap the public functions callers look up.

``from .encoder import backward`` copies the name into the importing module,
so a wrapper has to be installed at every binding a caller actually reads,
not only where the function is defined. ``BINDINGS`` lists those bindings.
Each span is labelled ``<defining module>.<function>`` (the ``selfmix.``
prefix dropped), so a function reached through two bindings reports as one
layer.

Spans stay in memory while operations run; :func:`aggregate` turns them into
per-layer totals and :func:`write_spans` writes them out once the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from pathlib import Path
from time import perf_counter
from typing import Callable

# Maps a call's (args, kwargs, result) to the work counts recorded on its span.
Counter = Callable[[tuple, dict, object], dict]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _backward_counts(args, kwargs, result) -> dict:
    items = _arg(args, kwargs, 1, "items")
    counts = {"items": len(items), "ce_items": 0, "mixed_items": 0,
              "pseudo_items": 0, "rdrop_items": 0}
    for item in items:
        if item.kind in ("pseudo", "rdrop"):
            counts[f"{item.kind}_items"] += 1
    mixed = counts["pseudo_items"] + counts["rdrop_items"] > 0
    counts["mixed_items" if mixed else "ce_items"] = len(items)
    return counts


def _adam_counts(args, kwargs, result) -> dict:
    return {"rows": int(_arg(args, kwargs, 1, "grads").emb_rows.size)}


def _file_bytes(pos: int, name: str) -> Counter:
    def count(args, kwargs, result) -> dict:
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, name))}

    return count


def _len_of(pos: int, name: str) -> Counter:
    def count(args, kwargs, result) -> dict:
        return {"docs": len(_arg(args, kwargs, pos, name))}

    return count


def _len_result(args, kwargs, result) -> dict:
    return {"docs": len(result)}


def _gmm_counts(args, kwargs, result) -> dict:
    return {"values": len(_arg(args, kwargs, 0, "values"))}


# (module holding the binding, attribute, counter or None)
BINDINGS: tuple[tuple[str, str, Counter | None], ...] = (
    ("selfmix.core", "backward", _backward_counts),
    ("selfmix.core", "adam_step", _adam_counts),
    ("selfmix.core", "predict_proba", None),
    ("selfmix.core", "featurize_text", None),
    ("selfmix.core", "encode", None),
    ("selfmix.core", "head_forward", None),
    ("selfmix.core", "init_params", None),
    ("selfmix.core", "init_optimizer", None),
    ("selfmix.core", "per_sample_losses", _len_of(1, "dataset")),
    ("selfmix.core", "accuracy", _len_of(1, "features")),
    ("selfmix.core", "select_split", None),
    ("selfmix.core", "class_regularize", None),
    ("selfmix.core", "fit_gmm", _gmm_counts),
    ("selfmix.noise", "warmup", None),
    ("selfmix.noise", "predict_proba", None),
    ("selfmix.noise", "featurize_text", None),
    ("selfmix.harness", "inject", None),
    ("selfmix.harness", "train_baseline", None),
    ("selfmix.harness", "train_selfmix", None),
    ("selfmix.harness", "save_checkpoint", _file_bytes(1, "path")),
    ("selfmix.harness", "per_sample_losses", _len_of(1, "dataset")),
    ("selfmix.harness", "load_csv", _len_result),
    ("selfmix.harness", "save_csv", _len_of(0, "dataset")),
    ("selfmix.harness", "validate", None),
    ("selfmix.harness", "emit_loss_histogram", None),
    ("selfmix.encoder", "load_checkpoint", _file_bytes(0, "path")),
    # the benchmark's own entry points, so each operation has a root span
    ("selfmix.harness", "run_experiment", None),
    ("selfmix.harness", "analyze_losses", None),
)

# core.warmup is reached only through the IDN injector, where it trains the
# auxiliary classifier; the span is named for that role.
SPAN_NAMES = {"selfmix.core.warmup": "noise.warmup"}


def span_name(fn: Callable) -> str:
    qualified = f"{fn.__module__}.{fn.__name__}"
    return SPAN_NAMES.get(qualified, qualified.removeprefix("selfmix."))


class Tracer:
    """Collects spans as ``[op, name, parent, start, end, counts]`` lists.

    ``parent`` is the index of the enclosing span in ``spans`` (-1 at the
    root); ``op`` is the operation the span belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._open = -1

    def wrap(self, fn: Callable, count: Counter | None) -> Callable:
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open
            span = [self.op, name, parent, perf_counter(), 0.0, None]
            self._open = len(self.spans)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._open = parent
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every binding in ``BINDINGS``; returns the function that restores them.

    Bindings that share one function object share one wrapper, so a
    function re-exported under another module still yields one span.
    """
    saved: list[tuple[object, str, object]] = []
    wrappers: dict[int, Callable] = {}
    for module_name, attr, count in BINDINGS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        if id(original) not in wrappers:
            wrappers[id(original)] = tracer.wrap(original, count)
        saved.append((module, attr, original))
        setattr(module, attr, wrappers[id(original)])

    def restore() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[2] >= 0:
            children.setdefault(span[2], []).append((span[3], span[4]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[3], span[4]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


# rate -> (numerator, denominator), both per-operation figures from aggregate()
RATES = {
    "encoder.backward.items_per_s": ("encoder.backward.items", "encoder.backward.s"),
    "encoder.backward.ce_items_per_s": ("encoder.backward.ce_items", "encoder.backward.ce_s"),
    "encoder.backward.mixed_items_per_s": (
        "encoder.backward.mixed_items", "encoder.backward.mixed_s"),
    "encoder.adam_step.rows_per_step": ("encoder.adam_step.rows", "encoder.adam_step.calls"),
    "encoder.featurize_text.docs_per_s": (
        "encoder.featurize_text.calls", "encoder.featurize_text.s"),
    "encoder.predict_proba.docs_per_s": (
        "encoder.predict_proba.calls", "encoder.predict_proba.s"),
    "core.per_sample_losses.docs_per_s": (
        "core.per_sample_losses.docs", "core.per_sample_losses.s"),
}


def aggregate(spans: list[list], num_ops: int) -> dict[str, float]:
    """Per-operation layer figures keyed ``<layer>.<stat>``.

    For each layer: ``s`` (inclusive seconds), ``self_s``, ``calls`` and the
    sum of each counter, all divided by ``num_ops``; plus the rates that
    ``RATES`` defines, which are ratios of totals.
    """
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span[1], {"s": 0.0, "self_s": 0.0, "calls": 0})
        dur = span[4] - span[3]
        t["s"] += dur
        t["self_s"] += own
        t["calls"] += 1
        for key, value in (span[5] or {}).items():
            t[key] = t.get(key, 0) + value
        if span[1] == "encoder.backward" and span[5]:
            kind = "mixed" if span[5]["mixed_items"] else "ce"
            t[f"{kind}_s"] = t.get(f"{kind}_s", 0.0) + dur
    out: dict[str, float] = {}
    for layer, t in totals.items():
        for stat, value in t.items():
            out[f"{layer}.{stat}"] = value / num_ops
    for name, (num, den) in RATES.items():
        if out.get(den):
            out[name] = out.get(num, 0.0) / out[den]
    return out


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON array per line: op, index, name, parent, start, end, self, counts."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            op, name, parent, start, end, counts = span
            fh.write(json.dumps([op, i, name, parent, start, end, own, counts]) + "\n")
