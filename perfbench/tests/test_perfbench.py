"""Tests of the benchmark itself: determinism, seeding, the correctness
gate and the tracer's neutrality.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import attribution
import harness
import run as runner

#: small per-workload item counts that keep these tests quick
ITEMS = {"table3-l1": 1, "table3-l2": 1, "chaos": 3, "t1-link": 3}


def _items(run, count, tracer=None, profile=None):
    if tracer is not None:
        tracer.install(harness)
    try:
        return harness.run_for(run, 0.0, count, profile=profile)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _signatures(results):
    return [(result.key, result.ok, result.signature())
            for result in results]


def _addresses(script):
    """Addresses of a script's items (bare or ``(gap, item)`` pairs)."""
    return [(item[1] if isinstance(item, tuple) else item).address
            for item in script]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_same_seed_repeats_counts_and_energies(workload):
    first, second = attribution.Tracer(), attribution.Tracer()
    a = _items(harness.setup(workload, 3), ITEMS[workload], first)
    b = _items(harness.setup(workload, 3), ITEMS[workload], second)
    assert all(result.ok for result in a)
    assert _signatures(a) == _signatures(b)
    assert [result.energy_pj for result in a] == \
        [result.energy_pj for result in b]
    assert first.counts == second.counts
    assert first.counts["kernel.cycles"] > 0


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_different_seed_changes_stimulus(workload):
    one, two = harness.setup(workload, 1), harness.setup(workload, 2)
    assert one.stimulus != two.stimulus
    if workload.startswith("table3"):
        assert _addresses(harness.prepare(one, 0)[1]) != \
            _addresses(harness.prepare(two, 0)[1])
    else:
        a, b = _items(one, 1)[0], _items(two, 1)[0]
        assert a.signature() != b.signature()


def test_oracle_agrees_and_a_corrupted_expectation_fails(monkeypatch):
    monkeypatch.setattr(harness, "TABLE3_TRANSACTIONS", 300)
    monkeypatch.setattr(harness, "TABLE3_ORACLE_SAMPLE", 1)
    monkeypatch.setattr(harness, "TABLE3_POOL", 2)
    run = harness.setup("table3-l1", 5)
    expected = harness.oracle_expectations(run)
    results = _items(run, 2)
    assert harness.check(results, expected) == []
    key, (txns, cycles, retries, errors, energy) = next(
        iter(expected.items()))
    corrupted = {key: (txns, cycles, retries, errors, energy + 1e-9)}
    results = _items(run, 2)
    reasons = harness.check(results, corrupted)
    assert len(reasons) == 1 and "oracle" in reasons[0]
    assert sum(not result.ok for result in results) == 1


def test_failed_verdict_and_repeat_mismatch_count_as_failures():
    run = harness.setup("chaos", 1)
    results = _items(run, 2)
    results[1].ok = False
    repeat = _items(run, 1)[0]
    repeat.index, repeat.energy_pj = 2, repeat.energy_pj * 2
    reasons = harness.check(results + [repeat], {})
    assert len(reasons) == 2


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_and_untraced_runs_simulate_identically(workload):
    plain = _items(harness.setup(workload, 4), ITEMS[workload])
    traced = _items(harness.setup(workload, 4), ITEMS[workload],
                    attribution.Tracer(), attribution.new_profile())
    assert _signatures(plain) == _signatures(traced)


def test_tracer_restores_every_boundary():
    from repro.kernel import Simulator
    from repro.soc import SmartCardPlatform
    before = (Simulator.run, SmartCardPlatform.__init__, harness.run_item)
    tracer = attribution.Tracer()
    tracer.install(harness)
    assert Simulator.run is not before[0]
    tracer.uninstall()
    assert (Simulator.run, SmartCardPlatform.__init__,
            harness.run_item) == before


def test_buckets_follow_the_module_layout():
    repro = attribution.REPRO_DIR
    assert attribution.bucket(os.path.join(repro, "tlm", "layer1.py")) \
        == "tlm.layer1"
    assert attribution.bucket(os.path.join(repro, "power", "psm.py")) \
        == "power.dpm"
    assert attribution.bucket(os.path.join(repro, "kernel", "fastlane.py")) \
        == "kernel"
    assert attribution.bucket(harness.__file__) == attribution.HARNESS
    assert attribution.bucket(os.__file__) is None
    assert attribution.bucket("~") is None


def test_profile_charges_stdlib_time_to_the_calling_layer():
    run = harness.setup("t1-link", 1)
    profile = attribution.new_profile()
    results = _items(run, 1, profile=profile)
    buckets, unattributed = attribution.self_seconds(profile)
    covered = sum(seconds for name, seconds in buckets.items()
                  if name != attribution.HARNESS)
    assert unattributed < 0.05 * results[0].seconds
    assert covered > 0.5 * results[0].seconds
    assert buckets["link"] > 0 and buckets["soc"] > 0


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "harness.py", "attribution.py"):
        shutil.copy(os.path.join(os.path.dirname(harness.__file__), name),
                    bench / name)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chaos",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


@pytest.mark.parametrize("trace", (0, 1))
def test_one_command_reports_every_declared_metric(trace, capsys):
    assert runner.main(["--workload", "t1-link", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = runner._declared(trace)
    assert [(name, metric["unit"]) for name, metric
            in result["metrics"].items()] == \
        [(metric["name"], metric["unit"]) for metric in declared]
