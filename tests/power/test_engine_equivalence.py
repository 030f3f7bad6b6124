"""Batched transition engines vs the naive per-cycle reference (PR 10).

Every packed-word backend must replay the exact float operations of
the per-cycle reference walk — same products, same addition order — so
the equivalence demanded here is ``==`` on floats, not ``approx``:

* per cycle: energy stream and reconstructed signal values, recorded
  through :class:`SignalStateRecorder` on the layer-1 bus, across all
  twelve bench RTL scripts (the PR-5 layer-1-vs-RTL harness corpus);
* deferred: a batch-flushed run's totals, per-group energies and
  per-signal transition counts against the same eager reference;
* layer 2: compiled phase constants + LUT beat walk against the live
  coefficient lookups.
"""

import pytest

from repro.kernel import Clock, Simulator
from repro.power import (BACKEND_NAMES, Layer1PowerModel,
                         Layer2PowerModel, SignalStateRecorder,
                         default_table)
from repro.tlm import EcBusLayer1, EcBusLayer2, PipelinedMaster, run_script

from tests.rtl.test_bus_rtl import SCRIPTS, build_memory_map

TABLE = default_table()


def _run_layer1(script_name, backend, eager, with_recorder):
    simulator = Simulator(f"equiv_{script_name}_{backend}")
    clock = Clock(simulator, "clk", period=100)
    memory_map, _ram = build_memory_map()
    recorder = SignalStateRecorder() if with_recorder else None
    model = Layer1PowerModel(TABLE, recorder=recorder, backend=backend,
                             eager=eager)
    bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    master = PipelinedMaster(simulator, clock, bus,
                             SCRIPTS[script_name]())
    run_script(simulator, master, 10_000, clock)
    assert master.done
    return model, recorder


def _run_layer2(script_name, backend):
    simulator = Simulator(f"equiv2_{script_name}_{backend}")
    clock = Clock(simulator, "clk", period=100)
    memory_map, _ram = build_memory_map()
    model = Layer2PowerModel(TABLE, backend=backend)
    bus = EcBusLayer2(simulator, clock, memory_map, power_model=model)
    master = PipelinedMaster(simulator, clock, bus,
                             SCRIPTS[script_name]())
    run_script(simulator, master, 10_000, clock)
    assert master.done
    model.account_cycles(bus.cycle)
    return model


@pytest.mark.parametrize("backend",
                         [b for b in BACKEND_NAMES if b != "reference"])
@pytest.mark.parametrize("script_name", sorted(SCRIPTS))
class TestLayer1PerCycleEquality:
    """Eager batched backends vs the eager reference, cycle by cycle."""

    def test_per_cycle_energy_and_values_identical(self, script_name,
                                                   backend):
        _ref_model, reference = _run_layer1(
            script_name, "reference", eager=True, with_recorder=True)
        _model, candidate = _run_layer1(
            script_name, backend, eager=True, with_recorder=True)
        assert candidate.cycles == reference.cycles
        assert candidate.names == reference.names
        # exact float equality, not approx: same ops, same order
        assert candidate.energies == reference.energies
        assert candidate.snapshots == reference.snapshots


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("script_name", sorted(SCRIPTS))
class TestLayer1DeferredEquality:
    """Deferred batch flushes vs the eager reference on every total."""

    def test_deferred_totals_identical(self, script_name, backend):
        reference, _ = _run_layer1(
            script_name, "reference", eager=True, with_recorder=False)
        deferred, _ = _run_layer1(
            script_name, backend, eager=False, with_recorder=False)
        assert deferred.total_energy_pj == reference.total_energy_pj
        assert deferred.group_energy_pj == reference.group_energy_pj
        assert (deferred.transition_counts
                == reference.transition_counts)
        assert (deferred.energy_last_cycle_pj()
                == reference.energy_last_cycle_pj())


@pytest.mark.parametrize("backend",
                         [b for b in BACKEND_NAMES if b != "reference"])
@pytest.mark.parametrize("script_name", sorted(SCRIPTS))
class TestLayer2CompiledEquality:
    """Compiled layer-2 phase accounting vs the live-lookup reference."""

    def test_totals_identical(self, script_name, backend):
        reference = _run_layer2(script_name, "reference")
        compiled = _run_layer2(script_name, backend)
        assert compiled.total_energy_pj == reference.total_energy_pj
        assert compiled.group_energy_pj == reference.group_energy_pj
