"""Supervised campaigns give identical results on and off the fast lane.

Every campaign run under a :class:`~repro.kernel.ProgressWatchdog` — the
chaos oracle, its shrinker and wall-budgeted fault/tear cells — spends
its simulated time on the clocked fast lane.  Each test here runs the
same seeded work twice: once as shipped, once with the lane forced off
(``Simulator._run_fast_lane`` patched to report the activity
ineligible, so the generic loop runs every cycle), and requires
identical results.
"""

import pytest

from repro.chaos import generate_scenario, run_scenario, shrink_scenario
from repro.experiments import run_fault_campaign
from repro.experiments.chaos_campaign import (_SELFTEST_MAX_RUNS,
                                              _selftest_scenario)
from repro.experiments.tear_campaign import run_tear_campaign
from repro.kernel import Simulator, fastlane


@pytest.fixture
def lanes(monkeypatch):
    """Run a callable with the lane on, then off; return both results.

    The lane-on arm must actually use the lane under supervision, so a
    change that silently disqualifies supervised runs fails here too.
    """
    original = Simulator._run_fast_lane

    def run(work):
        entries = []

        def counting(simulator, deadline):
            status = original(simulator, deadline)
            if status != fastlane.INELIGIBLE and simulator._watchdogs:
                entries.append(status)
            return status

        monkeypatch.setattr(Simulator, "_run_fast_lane", counting)
        on = work()
        assert entries, "no supervised simulated time ran on the lane"
        monkeypatch.setattr(Simulator, "_run_fast_lane",
                            lambda simulator, deadline: fastlane.INELIGIBLE)
        off = work()
        monkeypatch.setattr(Simulator, "_run_fast_lane", original)
        return on, off

    return run


def test_chaos_scenarios_identical(lanes):
    def work():
        results = [run_scenario(generate_scenario(7, index))
                   for index in range(6)]
        return ([result.layers for result in results],
                [result.failure_signature for result in results])

    on, off = lanes(work)
    assert on == off


def test_selftest_hang_shrinks_to_identical_repro(lanes):
    def work():
        shrink = shrink_scenario(_selftest_scenario(7),
                                 max_runs=_SELFTEST_MAX_RUNS)
        return shrink.to_dict(), shrink.runs

    on, off = lanes(work)
    assert on == off
    assert on[0]["signature"] == "hang"
    assert on[0]["replayed"]


def test_wall_budgeted_fault_cell_journal_identical(lanes, tmp_path):
    def work():
        path = tmp_path / "faults.jsonl"
        path.unlink(missing_ok=True)
        run_fault_campaign(rates=[0.05], classes=["eeprom_contention"],
                           layers=["layer1"], cell_wall_seconds=60,
                           journal_path=str(path))
        return path.read_bytes()

    on, off = lanes(work)
    assert on == off


def test_wall_budgeted_tear_cell_journal_identical(lanes, tmp_path):
    def work():
        path = tmp_path / "tear.jsonl"
        path.unlink(missing_ok=True)
        run_tear_campaign(points=2, transactions=4, layers=["layer1"],
                          cell_wall_seconds=60, governor_study=False,
                          journal_path=str(path))
        return path.read_bytes()

    on, off = lanes(work)
    assert on == off
