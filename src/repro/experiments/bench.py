"""Tracked performance benchmarks: ``repro bench`` → ``BENCH_PR10.json``.

Measures, on this host, the throughput the fast-path engines are
supposed to buy and writes the numbers as a flat list of rows —
``{"metric", "value", "unit", "config"}`` — so successive runs can be
diffed and CI can gate on a floor:

* **kernel throughput** — cycles/second of the bare clocked kernel
  (one clock, trivial posedge/negedge ``SC_METHOD`` processes), fast
  lane vs generic delta loop.  This isolates the scheduler itself and
  carries the ``>= 2x`` CI gate.
* **bus-layer throughput** — cycles/second of the full Table-3
  workload on layer 1 and layer 2 with energy estimation, end to end:
  generic lane + per-cycle ``reference`` transition engine (the
  uncompiled energy path) vs fast lane + deferred ``packed`` engine.
  The layer-1 ratio carries the ``>= 3x`` CI gate; one extra row per
  available engine backend races the backends on equal terms.
* **link throughput** — T=1 sessions/second over the modelled UART on
  layer 1, clean wire vs a 1% noisy channel.  The gap prices what the
  retransmission machinery costs in simulation speed; reported, not
  gated.
* **fabric throughput** — transactions/second of an APDU+DMA workload
  on layer 1, flat single bus vs the bridged two-segment fabric; the
  overhead ratio prices the bridge's clone-and-forward machinery.
* **campaign throughput** — supervisor cells/second of a small fault
  campaign, serial vs process-parallel (``workers``).

Timings are wall clock and host-dependent; everything *derived* from
simulation (energies, cycle counts) is deterministic and asserted
identical between the fast and generic runs before a row is emitted.
"""

from __future__ import annotations

import json
import os
import time
import typing

from repro.kernel import Clock, Process, Simulator
from repro.power import Layer1PowerModel, Layer2PowerModel
from repro.tlm import EcBusLayer1, EcBusLayer2, PipelinedMaster, run_script

from .common import (CLOCK_PERIOD, _bind_dynamic_slaves, characterization,
                     fresh_memory_map)
from .table3 import make_script

#: CI floor for the fast-lane kernel speedup (see docs/PERFORMANCE.md).
FASTLANE_FLOOR = 2.0

#: CI floor for the end-to-end layer-1 speedup: fast lane + packed
#: transition engine vs generic lane + per-cycle reference engine.
E2E_FLOOR = 3.0

#: Interleaved repetitions per (lane, backend) configuration; the best
#: rep is reported.  Wall clock on a loaded host only ever adds noise,
#: so best-of-N is the stable estimator of what the code costs.
E2E_REPS = 3

#: Default output file, at the repository root by convention.
DEFAULT_OUTPUT = "BENCH_PR10.json"


def _row(metric: str, value: float, unit: str,
         config: typing.Dict[str, typing.Any]) -> dict:
    return {"metric": metric, "value": value, "unit": unit,
            "config": config}


# ----------------------------------------------------------------------
# kernel-shape workload: the scheduler alone
# ----------------------------------------------------------------------

def _kernel_throughput(cycles: int, fast_lane: bool) -> float:
    """Cycles/second of a bare clock + two trivial edge processes."""
    simulator = Simulator("bench_kernel", fast_lane=fast_lane)
    clock = Clock(simulator, "clk", period=CLOCK_PERIOD)
    counters = {"pos": 0, "neg": 0}

    def on_posedge() -> None:
        counters["pos"] += 1

    def on_negedge() -> None:
        counters["neg"] += 1

    Process(simulator, on_posedge, "pos",
            dont_initialize=True).sensitive(clock.posedge_event)
    Process(simulator, on_negedge, "neg",
            dont_initialize=True).sensitive(clock.negedge_event)
    simulator.run(100 * CLOCK_PERIOD)  # warm-up: settle + compile plans
    start_cycles = clock.cycles
    started = time.perf_counter()
    simulator.run(cycles * CLOCK_PERIOD)
    wall = time.perf_counter() - started
    ran = clock.cycles - start_cycles
    if ran < cycles:
        raise RuntimeError(f"kernel bench ran {ran} < {cycles} cycles")
    return ran / wall


def bench_kernel(cycles: int) -> typing.List[dict]:
    config = {"workload": "clock+2 edge methods", "cycles": cycles,
              "clock_period": CLOCK_PERIOD}
    generic = _kernel_throughput(cycles, fast_lane=False)
    fast = _kernel_throughput(cycles, fast_lane=True)
    return [
        _row("kernel_cycles_per_s_generic", generic, "cycles/s", config),
        _row("kernel_cycles_per_s_fast", fast, "cycles/s", config),
        _row("kernel_fastlane_speedup", fast / generic, "x", config),
    ]


# ----------------------------------------------------------------------
# full bus layers: Table-3 workload with energy estimation
# ----------------------------------------------------------------------

def _layer_throughput(layer: int, transactions: int, fast_lane: bool,
                      backend: str = "packed", eager: bool = False
                      ) -> typing.Tuple[float, float]:
    """(cycles/s, total energy pJ) of the Table-3 workload on *layer*.

    *backend* selects the transition engine; *eager* (layer 1 only)
    forces per-cycle accounting — the shape of the pre-packed-word
    energy path, which is what the end-to-end baseline must price.
    """
    table = characterization().table
    simulator = Simulator(f"bench_l{layer}", fast_lane=fast_lane)
    clock = Clock(simulator, "clk", period=CLOCK_PERIOD)
    memory_map = fresh_memory_map()
    if layer == 1:
        model: typing.Any = Layer1PowerModel(table, backend=backend,
                                             eager=eager)
        bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    else:
        model = Layer2PowerModel(table, backend=backend)
        bus = EcBusLayer2(simulator, clock, memory_map, power_model=model)
    _bind_dynamic_slaves(memory_map, bus)
    master = PipelinedMaster(simulator, clock, bus,
                             make_script(transactions))
    started = time.perf_counter()
    run_script(simulator, master, 5_000_000, clock)
    wall = time.perf_counter() - started
    if not master.done:
        raise RuntimeError(f"layer-{layer} bench workload incomplete")
    if layer == 2:
        model.account_cycles(bus.cycle)
    return clock.cycles / wall, model.total_energy_pj


def bench_layers(transactions: int) -> typing.List[dict]:
    """End-to-end bus-layer throughput plus per-backend rows.

    The end-to-end comparison is the whole PR-10 claim: *baseline* is
    the generic delta-cycle lane driving the per-cycle ``reference``
    engine (the uncompiled energy path), *fast* is the fast lane
    driving the deferred ``packed`` engine.  Configurations are
    interleaved across :data:`E2E_REPS` repetitions and the best rep
    of each is reported, which keeps the ratio stable on noisy hosts.
    Every run's total energy is asserted identical first.
    """
    from repro.power import BACKEND_NAMES
    rows = []
    for layer in (1, 2):
        config = {"workload": "table3", "transactions": transactions,
                  "layer": layer, "estimation": True, "reps": E2E_REPS}
        setups = {
            "generic": dict(fast_lane=False, backend="reference",
                            eager=(layer == 1)),
            "fast": dict(fast_lane=True, backend="packed"),
        }
        best: typing.Dict[str, float] = {}
        energies = {}
        for _rep in range(E2E_REPS):
            for name, setup in setups.items():
                rate, energy = _layer_throughput(layer, transactions,
                                                 **setup)
                best[name] = max(best.get(name, 0.0), rate)
                energies[name] = energy
        if energies["fast"] != energies["generic"]:
            raise RuntimeError(
                f"layer-{layer} energy diverged between engines: "
                f"{energies['fast']} != {energies['generic']}")
        rows.extend([
            _row(f"layer{layer}_cycles_per_s_e2e_generic",
                 best["generic"], "cycles/s",
                 dict(config, lane="generic", backend="reference",
                      accounting="per-cycle")),
            _row(f"layer{layer}_cycles_per_s_e2e_fast",
                 best["fast"], "cycles/s",
                 dict(config, lane="fast", backend="packed",
                      accounting="deferred")),
            _row(f"layer{layer}_e2e_speedup",
                 best["fast"] / best["generic"], "x", config),
        ])
        # one row per engine backend, all on the fast lane with
        # deferred accounting, so the backends race on equal terms
        for backend in BACKEND_NAMES:
            rate, energy = _layer_throughput(layer, transactions,
                                             fast_lane=True,
                                             backend=backend)
            if energy != energies["fast"]:
                raise RuntimeError(
                    f"layer-{layer} backend {backend!r} energy "
                    f"diverged: {energy} != {energies['fast']}")
            rows.append(_row(
                f"layer{layer}_cycles_per_s_backend_{backend}", rate,
                "cycles/s", dict(config, lane="fast",
                                 backend=backend)))
    return rows


# ----------------------------------------------------------------------
# T=1 link layer: sessions/second, clean wire vs noisy wire
# ----------------------------------------------------------------------

def _link_sessions_per_s(sessions: int, commands: int,
                         noise: float) -> typing.Tuple[float, int]:
    """(sessions/s, total retries) of T=1 sessions at *noise*."""
    from repro.link import NoisyChannel, run_link_session
    from repro.soc import SmartCardPlatform
    table = characterization().table
    retries = 0
    started = time.perf_counter()
    for index in range(sessions):
        seed = f"bench-link/{noise}/{index}"
        channel = (NoisyChannel(noise, seed=f"{seed}/chan")
                   if noise > 0.0 else None)
        platform = SmartCardPlatform(
            bus_layer=1, power_model=Layer1PowerModel(table))
        report = run_link_session(
            platform, ("select", "read_record", "internal_auth"),
            seed=seed, channel=channel)
        if not report.clean_close:
            raise RuntimeError(
                f"link bench session {index} at noise {noise} did not "
                f"close cleanly ({report.outcome})")
        retries += report.session_retries
    wall = time.perf_counter() - started
    return sessions / wall, retries


def bench_link(sessions: int) -> typing.List[dict]:
    rows = []
    for noise in (0.0, 0.01):
        config = {"workload": "t1_link", "sessions": sessions,
                  "commands": 3, "layer": 1, "noise": noise}
        rate, retries = _link_sessions_per_s(sessions, 3, noise)
        label = "clean" if noise == 0.0 else "noisy"
        rows.append(_row(f"link_sessions_per_s_{label}", rate,
                         "sessions/s", dict(config, retries=retries)))
    return rows


# ----------------------------------------------------------------------
# routable fabric: transactions/second, flat bus vs bridged topology
# ----------------------------------------------------------------------

def _fabric_txns_per_s(topology: str, commands: int
                       ) -> typing.Tuple[float, int]:
    """(transactions/s, transactions) of an APDU+DMA workload routed
    through *topology* on layer 1."""
    from .fabric_campaign import _run_fabric_cell
    table = characterization().table
    started = time.perf_counter()
    cell = _run_fabric_cell(topology, "layer1", "bench-fabric",
                            commands, table, 300_000,
                            check_identity=False)
    wall = time.perf_counter() - started
    if not cell["balanced"]:
        raise RuntimeError(
            f"fabric bench ({topology}): per-link books do not "
            f"telescope (imbalance {cell['imbalance_pj']} pJ)")
    return cell["transactions"] / wall, cell["transactions"]


def bench_fabric(commands: int) -> typing.List[dict]:
    """Prices what hierarchical routing costs in simulation speed: the
    same workload through the flat single bus and through the bridged
    two-segment fabric (bridge clones + posted-write drain)."""
    rows = []
    rates = {}
    for topology in ("flat", "bridged"):
        config = {"workload": "apdu+dma", "commands": commands,
                  "layer": 1, "topology": topology}
        rate, transactions = _fabric_txns_per_s(topology, commands)
        rates[topology] = rate
        rows.append(_row(f"fabric_txns_per_s_{topology}", rate,
                         "txns/s", dict(config,
                                        transactions=transactions)))
    rows.append(_row("fabric_bridge_overhead",
                     rates["flat"] / rates["bridged"], "x",
                     {"workload": "apdu+dma", "commands": commands,
                      "layer": 1}))
    return rows


# ----------------------------------------------------------------------
# chaos oracle: differential scenarios/second
# ----------------------------------------------------------------------

def bench_chaos(scenarios: int) -> typing.List[dict]:
    """Prices the chaos oracle: one generated scenario costs three
    full platform runs (layers 1, 2, 3) plus the invariant checks.
    The bench scenarios must all pass — a failing scenario would be a
    real finding, not a benchmark."""
    from repro.chaos import generate_scenario, run_scenario
    started = time.perf_counter()
    for index in range(scenarios):
        result = run_scenario(generate_scenario("bench-chaos", index))
        if not result.passed:
            raise RuntimeError(
                f"chaos bench scenario {index} failed "
                f"({result.failure_signature}): the bench only runs "
                f"on a passing oracle")
    wall = time.perf_counter() - started
    return [_row("chaos_scenarios_per_s", scenarios / wall,
                 "scenarios/s",
                 {"scenarios": scenarios, "layers": 3,
                  "seed": "bench-chaos"})]


# ----------------------------------------------------------------------
# campaign sharding: supervisor cells/second
# ----------------------------------------------------------------------

def _campaign_cells_per_s(workers: int, rates, classes
                          ) -> typing.Tuple[float, int, int]:
    from .fault_campaign import run_fault_campaign
    started = time.perf_counter()
    result = run_fault_campaign(
        rates=rates, classes=classes,
        layers=("layer1", "layer2"), workers=workers)
    wall = time.perf_counter() - started
    return (len(result.cells) / wall, len(result.cells),
            result.effective_workers or 1)


def bench_campaign(workers: int, quick: bool) -> typing.List[dict]:
    # enough cells that sharding amortises the pool start-up; the
    # quick grid is for smoke runs and may not show a speedup
    if quick:
        rates, classes = (0.0, 0.05), ("random_mix",)
    else:
        rates = (0.0, 0.02, 0.05, 0.1)
        classes = ("random_mix", "burst_heavy")
    serial, cells, _ = _campaign_cells_per_s(1, rates, classes)
    parallel, _, effective = _campaign_cells_per_s(
        workers, rates, classes)
    # sharding buys wall clock only when cores exist to shard onto;
    # the supervisor falls back to serial on 1-CPU hosts, and calling
    # the resulting ~1.0 a "speedup" would misread as a regression —
    # label the ratio honestly and record what actually ran
    serial_fallback = effective < max(1, workers)
    config = {"experiment": "fault_campaign", "cells": cells,
              "workers": workers, "effective_workers": effective,
              "serial_fallback": serial_fallback,
              "host_cpus": os.cpu_count()}
    ratio_metric = ("campaign_parallel_ratio" if serial_fallback
                    else "campaign_parallel_speedup")
    return [
        _row("campaign_cells_per_s_serial", serial, "cells/s",
             dict(config, workers=1, effective_workers=1)),
        _row("campaign_cells_per_s_parallel", parallel, "cells/s",
             config),
        _row(ratio_metric, parallel / serial, "x", config),
    ]


# ----------------------------------------------------------------------

def run_bench(quick: bool = False, workers: int = 2,
              campaign: bool = True) -> typing.List[dict]:
    """Run the benchmark suite; ``quick`` shrinks the workloads for CI
    smoke runs without changing the metrics reported."""
    kernel_cycles = 20_000 if quick else 100_000
    transactions = 300 if quick else 2_000
    link_sessions = 2 if quick else 6
    fabric_commands = 4 if quick else 8
    chaos_scenarios = 2 if quick else 6
    rows = bench_kernel(kernel_cycles)
    rows.extend(bench_layers(transactions))
    rows.extend(bench_link(link_sessions))
    rows.extend(bench_fabric(fabric_commands))
    rows.extend(bench_chaos(chaos_scenarios))
    if campaign:
        rows.extend(bench_campaign(workers, quick))
    return rows


def fastlane_speedup(rows: typing.Sequence[dict]) -> float:
    for row in rows:
        if row["metric"] == "kernel_fastlane_speedup":
            return row["value"]
    raise KeyError("kernel_fastlane_speedup")


def layer1_e2e_speedup(rows: typing.Sequence[dict]) -> float:
    for row in rows:
        if row["metric"] == "layer1_e2e_speedup":
            return row["value"]
    raise KeyError("layer1_e2e_speedup")


def write_bench(rows: typing.Sequence[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(list(rows), handle, indent=2)
        handle.write("\n")


def format_rows(rows: typing.Sequence[dict]) -> str:
    lines = [f"{'metric':<34}{'value':>14}  unit"]
    for row in rows:
        lines.append(f"{row['metric']:<34}{row['value']:>14,.1f}"
                     f"  {row['unit']}")
    return "\n".join(lines)
