"""Kernel/layer throughput benchmark with the tracked BENCH schema.

Asserts the PR-5 performance contract — the clocked-kernel fast lane
at least doubles the bare scheduler's cycles/second — and emits the
same ``BENCH_PR10.json`` rows ``repro bench`` writes, validating their
schema on the way out.  Run with ``pytest benchmarks/``; the tier-1
suite (``testpaths = tests``) does not collect this directory, so the
wall-clock-sensitive assertions never flake a functional CI run.
"""

import json

import pytest

from repro.experiments.bench import (FASTLANE_FLOOR, bench_kernel,
                                     bench_layers, fastlane_speedup,
                                     layer1_e2e_speedup, write_bench)
from repro.power import BACKEND_NAMES

ROW_KEYS = {"metric", "value", "unit", "config"}


@pytest.fixture(scope="module")
def kernel_rows():
    return bench_kernel(cycles=20_000)


@pytest.fixture(scope="module")
def layer_rows():
    return bench_layers(transactions=300)


def test_fast_lane_doubles_kernel_throughput(kernel_rows):
    speedup = fastlane_speedup(kernel_rows)
    assert speedup >= FASTLANE_FLOOR, (
        f"fast lane {speedup:.2f}x is below the "
        f"{FASTLANE_FLOOR:.1f}x floor")


def test_layer_throughput_rows(char_table, kernel_rows, layer_rows,
                               tmp_path):
    rows = kernel_rows + layer_rows
    for row in rows:
        assert set(row) == ROW_KEYS
        assert isinstance(row["metric"], str)
        assert isinstance(row["value"], float) and row["value"] > 0
        assert isinstance(row["unit"], str)
        assert isinstance(row["config"], dict)
    # the compiled fast path must never lose to the uncompiled baseline
    by_metric = {row["metric"]: row["value"] for row in rows}
    for layer in (1, 2):
        assert by_metric[f"layer{layer}_e2e_speedup"] >= 1.0
    assert layer1_e2e_speedup(rows) == by_metric["layer1_e2e_speedup"]
    path = tmp_path / "BENCH_PR10.json"
    write_bench(rows, str(path))
    assert json.loads(path.read_text()) == rows


def test_backend_rows_cover_every_backend(layer_rows):
    """One equal-terms row per engine backend, per layer.

    ``bench_layers`` raises before emitting a backend row whose total
    energy differs from the packed fast run, so the rows' existence is
    the identical-totals assertion.
    """
    metrics = {row["metric"] for row in layer_rows}
    for layer in (1, 2):
        for backend in BACKEND_NAMES:
            assert (f"layer{layer}_cycles_per_s_backend_{backend}"
                    in metrics)
