"""Tests of the benchmark's own code: span arithmetic, wrapper install/restore, checks."""
from __future__ import annotations

import importlib
import signal
import time

import numpy as np
import pytest

import spans
from probe import SpeedProbe
from workloads import CheckFailed, check_histogram, derive, noise_auc

import selfmix.core
import selfmix.encoder
import selfmix.noise
from selfmix.data import Dataset, Example


def _span(name, parent, start, end, counts=None, op=0):
    return [op, name, parent, start, end, counts]


def test_self_time_subtracts_only_direct_children():
    spans_ = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a.child", 1, 2.0, 3.0),
        _span("b", 0, 5.0, 9.0),
        _span("other", -1, 11.0, 12.5),
    ]
    assert spans.self_times(spans_) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_self_time_clips_children_to_the_parent_and_counts_overlap_once():
    spans_ = [
        _span("root", -1, 0.0, 4.0),
        _span("x", 0, 1.0, 3.0),
        _span("y", 0, 2.0, 6.0),  # overlaps x and runs past the parent's end
    ]
    assert spans.self_times(spans_)[0] == pytest.approx(1.0)


def test_aggregate_divides_by_operations_and_derives_rates():
    items = {"items": 4, "ce_items": 0, "mixed_items": 4, "pseudo_items": 1, "rdrop_items": 1}
    spans_ = [
        _span("harness.run_experiment", -1, 0.0, 10.0, op=0),
        _span("encoder.backward", 0, 1.0, 3.0, items, op=0),
        _span("harness.run_experiment", -1, 20.0, 30.0, op=1),
        _span("encoder.backward", 2, 21.0, 23.0, items, op=1),
    ]
    layers = spans.aggregate(spans_, num_ops=2)
    assert layers["harness.run_experiment.s"] == pytest.approx(10.0)
    assert layers["harness.run_experiment.self_s"] == pytest.approx(8.0)
    assert layers["encoder.backward.calls"] == 1
    assert layers["encoder.backward.items_per_s"] == pytest.approx(2.0)
    assert layers["encoder.backward.mixed_items_per_s"] == pytest.approx(2.0)
    assert "encoder.backward.ce_items_per_s" not in layers


def _bound(module: str, attr: str):
    return getattr(importlib.import_module(module), attr)


def test_install_wraps_every_binding_and_restore_puts_the_originals_back():
    before = {(m, a): _bound(m, a) for m, a, _ in spans.BINDINGS}
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for (m, a), original in before.items():
            assert _bound(m, a) is not original, f"{m}.{a} was not wrapped"
        # one function reached through two bindings gets one wrapper
        assert selfmix.core.predict_proba is selfmix.noise.predict_proba
    finally:
        restore()
    for (m, a), original in before.items():
        assert _bound(m, a) is original, f"{m}.{a} was not restored"
    assert selfmix.core.backward is selfmix.encoder.backward
    assert selfmix.noise.warmup is selfmix.core.warmup


def _tiny_dataset() -> Dataset:
    texts = ["red apple pie", "blue sky day", "red berry jam", "blue sea wave"]
    return Dataset(tuple(Example(i, t, i % 2) for i, t in enumerate(texts)), 2, "tiny")


def test_traced_call_records_nested_spans_and_untraced_call_records_none():
    params = selfmix.encoder.init_params(64, 8, 2, 0.0, seed=1)
    data = _tiny_dataset()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = selfmix.core.per_sample_losses(params, data)
    finally:
        restore()
    assert len(tracer.spans) == 1 + 2 * len(data)
    untraced = selfmix.core.per_sample_losses(params, data)
    assert len(tracer.spans) == 1 + 2 * len(data)
    np.testing.assert_array_equal(traced, untraced)
    root = tracer.spans[0]
    assert root[1] == "core.per_sample_losses" and root[2] == -1
    assert root[5] == {"docs": len(data)}
    names = {s[1] for s in tracer.spans[1:]}
    assert names == {"encoder.featurize_text", "encoder.predict_proba"}
    assert all(s[2] == 0 for s in tracer.spans[1:])


def test_span_names_follow_the_defining_module():
    assert spans.span_name(selfmix.core.backward) == "encoder.backward"
    assert spans.span_name(selfmix.noise.warmup) == "noise.warmup"
    assert spans.span_name(selfmix.core.select_split) == "core.select_split"


def test_noise_auc_reads_separation_from_histogram_counts():
    separated = [(0.0, 1.0, 10, 0), (1.0, 2.0, 0, 5)]
    mixed = [(0.0, 1.0, 10, 5)]
    reversed_ = [(0.0, 1.0, 0, 5), (1.0, 2.0, 10, 0)]
    assert noise_auc(separated) == 1.0
    assert noise_auc(mixed) == 0.5
    assert noise_auc(reversed_) == 0.0


def test_histogram_check_rejects_wrong_totals(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("# echo\nbin_left,bin_right,clean_count,noisy_count\n0.0,1.0,7,3\n")
    assert check_histogram(path, 10, 3)
    with pytest.raises(CheckFailed):
        check_histogram(path, 11, 3)
    with pytest.raises(CheckFailed):
        check_histogram(path, 10, 4)


def test_derived_seeds_are_stable_and_distinct():
    assert derive(1, "run", 0) == derive(1, "run", 0)
    assert len({derive(s, "run", k) for s in range(5) for k in range(5)}) == 25
    assert all(0 <= derive(s, "x") < 2**31 for s in range(100))


def test_speed_probe_samples_during_the_interval_and_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        probe.start()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        probe.stop()
        elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.slices) >= 4  # one before, one after, ticks in between
    assert 0.0 < probe.wall_s < elapsed
    assert probe.scaled_seconds() > 0.0
