"""Fast-lane vs generic-kernel equivalence (the PR-5 contract).

The clocked fast lane must be an *observably identical* execution of
the same simulation: identical simulated time, delta count, clock
cycles, journal ring, energies and transition counts — across all
twelve RTL scenario scripts and both issue disciplines on the layer-1
bus with full energy accounting.  A reference-accounting cross-check
recomputes transitions and per-cycle energy naively from the recorded
waveform and must agree with the model's dirty-index hot path exactly.
"""

import pytest

from repro.ec import hamming_distance
from repro.ec.signals import EC_SIGNALS
from repro.kernel import Clock, Simulator
from repro.power import Layer1PowerModel, SignalStateRecorder, default_table
from repro.tlm import BlockingMaster, EcBusLayer1, PipelinedMaster, run_script

from tests.rtl.test_bus_rtl import SCRIPTS, build_memory_map


def _run(script_name, pipelined, fast_lane):
    """One layer-1 run of a scenario; returns every observable."""
    simulator = Simulator("equiv", fast_lane=fast_lane)
    clock = Clock(simulator, "clk", period=100)
    memory_map, _ = build_memory_map()
    recorder = SignalStateRecorder()
    model = Layer1PowerModel(default_table(), recorder=recorder)
    bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    # scripts hold single-use Transaction objects: build fresh per run
    script = SCRIPTS[script_name]()
    cls = PipelinedMaster if pipelined else BlockingMaster
    master = cls(simulator, clock, bus, script)
    run_script(simulator, master, 10_000, clock)
    assert master.done
    queue = simulator._timed_queue
    return {
        "now": simulator.now,
        "delta_count": simulator.delta_count,
        "cycles": clock.cycles,
        "journal": tuple(simulator._journal),
        # the tick's heap entry, which the lane re-arms in place
        "timed_queue": tuple((when, seq, cancelled, event.name)
                             for when, seq, cancelled, event in queue),
        "timed_live": simulator._timed_live,
        "tick_handle_is_head": (bool(queue) and
                                clock._tick_event._timed_handle
                                is queue[0]),
        "total_energy_pj": model.total_energy_pj,
        "transition_counts": model.transition_counts,
        "group_energy_pj": dict(model.group_energy_pj),
        "energies": list(recorder.energies),
        "snapshots": list(recorder.snapshots),
        "names": recorder.names,
        # txn_id is a process-global counter, so it differs between
        # two runs in the same process; compare the timing shape
        "timings": [(t.issue_cycle, t.address_done_cycle,
                     t.data_done_cycle, t.state)
                    for t in master.completed],
        "model": model,
    }


@pytest.mark.parametrize("pipelined", [False, True],
                         ids=["blocking", "pipelined"])
@pytest.mark.parametrize("script_name", sorted(SCRIPTS))
class TestFastLaneEquivalence:
    def test_bit_identical(self, script_name, pipelined):
        fast = _run(script_name, pipelined, fast_lane=True)
        generic = _run(script_name, pipelined, fast_lane=False)
        for key in ("now", "delta_count", "cycles", "journal",
                    "timed_queue", "timed_live", "tick_handle_is_head",
                    "total_energy_pj", "transition_counts",
                    "group_energy_pj", "energies", "snapshots",
                    "names", "timings"):
            assert fast[key] == generic[key], key
        assert fast["tick_handle_is_head"]
        assert fast["timed_live"] == 1

    def test_reference_accounting(self, script_name, pipelined):
        """Naive recomputation from the recorded waveform must agree
        with the dirty-index hot path bit for bit."""
        run = _run(script_name, pipelined, fast_lane=True)
        model = run["model"]
        table = model.table
        names = run["names"]
        widths = {spec.name: spec.width for spec in EC_SIGNALS}
        # reset state: controls low, ARdy high (the bus idle level)
        previous = {name: 0 for name in names}
        previous["EB_ARdy"] = 1
        counts = {name: 0 for name in names}
        for cycle_index, snapshot in enumerate(run["snapshots"]):
            values = dict(zip(names, snapshot))
            energy = table.clock_energy_per_cycle_pj
            for spec in EC_SIGNALS:  # ascending index order
                transitions = hamming_distance(
                    previous[spec.name], values[spec.name],
                    widths[spec.name])
                counts[spec.name] += transitions
                energy += transitions * table.coefficient(spec.name)
            assert energy == run["energies"][cycle_index], cycle_index
            previous = values
        assert counts == run["transition_counts"]
        assert sum(run["energies"]) == pytest.approx(
            run["total_energy_pj"])
