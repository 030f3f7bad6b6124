"""Workloads and the closed item loop of the benchmark.

An *item* is one unit of work whose host time is measured.  Each
workload turns the benchmark seed into a stimulus during set-up, runs
items one at a time (single process, closed loop: the next item starts
when the previous one returns) and checks every item's output after
the timed loop has ended.

Host speed is calibrated between items and at both ends of every
set-up: a fixed pure-Python loop that allocates nothing and runs with
the garbage collector off.  Reference over its mean time on the two
sides of an item (:data:`REFERENCE_CALIBRATION_S` over measured) is the
item's *host factor*, and reported times are host time scaled by it —
the time the item would take on a host where the loop takes the
reference time.  On a shared host whose speed swings by a
quarter over minutes, this removes the swing, not the program's cost.

Workloads:

* ``table3-l1`` / ``table3-l2`` replay one seeded Table-3 script on a
  fresh layer-1 / layer-2 bus with its power model.  A seeded sample
  of the scripts is replayed again on the generic kernel lane with the
  ``reference`` transition engine; totals must match bit for bit, and
  every repeat of a script must match its first run.
* ``chaos`` runs one generated scenario through the chaos campaign
  (layers 1, 2 and 3 under the cross-layer oracle); it counts only
  when the oracle passes it.
* ``t1-link`` runs one T=1 session over a 1% noisy channel on a
  layer-1 card; it counts only when the session closes cleanly.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import importlib
import random
import statistics
import time
import traceback
import typing

WORKLOADS = ("table3-l1", "table3-l2", "chaos", "t1-link")

#: transactions per Table-3 script: more than three 4096-cycle flush
#: windows of the deferred energy engine
TABLE3_TRANSACTIONS = 2000
#: distinct Table-3 scripts per seed; items cycle over them, so every
#: script also runs several times per run
TABLE3_POOL = 24
#: scripts per run replayed again on the generic lane + reference engine
TABLE3_ORACLE_SAMPLE = 3
#: scripts per layer in the informational Table-3 shape probe
SHAPE_SCRIPTS = 4
#: the paper's Table-3 factor: layer-2 over layer-1 kT/s, with estimation
PAPER_L2_OVER_L1 = 1.52

LINK_COMMANDS = ("select", "read_record", "internal_auth")
LINK_NOISE = 0.01

#: iterations of the host-speed calibration loop
CALIBRATION_ROUNDS = 8000
#: calibration loop time on the 2-CPU development host (median over
#: four minutes); times are reported as if the loop took this long
REFERENCE_CALIBRATION_S = 0.0046

_CALIBRATION_DATA = [(index * 2654435761) & 0xFFFFFFFF
                     for index in range(1024)]
_CALIBRATION_TABLE = dict.fromkeys(range(256), 0)


def _mix(value: int, index: int) -> int:
    return (value ^ index).bit_count() + (value >> (index & 15) & 3)


def host_factor() -> float:
    """Reference over current calibration time: below 1 while the host
    runs slower than the reference."""
    data, table = _CALIBRATION_DATA, _CALIBRATION_TABLE
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for index in range(CALIBRATION_ROUNDS):
            slot = index & 255
            table[slot] = (table[slot]
                           + _mix(data[index & 1023], index)) & 0xFFFF
        elapsed = time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()
    return REFERENCE_CALIBRATION_S / elapsed


@dataclasses.dataclass
class ItemResult:
    """What one item produced.  Everything but ``seconds`` and
    ``host_factor`` is simulated, so a pure function of the input.  ``retries`` and
    ``errors`` are bus-master re-issues and errored transactions (not
    counted for T=1 sessions, whose recovery is link retransmission)."""

    index: int
    key: str
    seconds: float = 0.0
    host_factor: float = 1.0
    ok: bool = False
    error: typing.Optional[str] = None
    txns: int = 0
    cycles: int = 0
    retries: int = 0
    errors: int = 0
    energy_pj: float = 0.0
    counts: typing.Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def normalized_s(self) -> float:
        """Host time scaled to the reference host speed."""
        return self.seconds * self.host_factor

    def signature(self) -> tuple:
        """The simulated result, for bit-identity comparisons."""
        return (self.txns, self.cycles, self.retries, self.errors,
                self.energy_pj, tuple(sorted(self.counts.items())))


@dataclasses.dataclass
class Setup:
    """A workload's stimulus and what producing it cost.

    ``stimulus`` holds one (key, seed) pair per distinct item input;
    :func:`prepare` expands a pair into the input the program runs."""

    workload: str
    seed: int
    stimulus: typing.List[tuple]
    table: typing.Any
    host_factor: float
    import_s: float
    characterize_s: float
    stimulus_s: float

    @property
    def seconds(self) -> float:
        return self.import_s + self.characterize_s + self.stimulus_s

    @property
    def normalized_s(self) -> float:
        return self.seconds * self.host_factor


# ----------------------------------------------------------------------
# set-up: imports, characterization(), stimulus generation
# ----------------------------------------------------------------------

_MODULES = ("repro.experiments.common", "repro.experiments.table3",
            "repro.experiments.chaos_campaign", "repro.chaos",
            "repro.link", "repro.power", "repro.soc", "repro.tlm",
            "repro.kernel")


def import_program() -> None:
    for name in _MODULES:
        importlib.import_module(name)


def setup(workload: str, seed: int) -> Setup:
    """Import the program, characterise the bus and generate inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {WORKLOADS}")
    factor = host_factor()
    started = time.perf_counter()
    import_program()
    imported = time.perf_counter()
    from repro.experiments import common
    table = common.characterization().table
    characterized = time.perf_counter()
    if workload.startswith("table3"):
        rng = random.Random(f"perfbench/{workload}/{seed}")
        stimulus = [(f"script{index:02d}", rng.getrandbits(64))
                    for index in range(TABLE3_POOL)]
    else:
        # one seed string per item; the program expands it into a
        # scenario (chaos) or a session and its channel noise (t1-link)
        stimulus = [(f"{workload}/{seed}/{index}",) * 2
                    for index in range(4096)]
    run = Setup(workload, seed, stimulus, table, factor, imported - started,
                characterized - imported, 0.0)
    prepare(run, 0)  # the first item's input
    run.stimulus_s = time.perf_counter() - characterized
    # set-up takes a second or more: scale by the calibration time
    # averaged over both ends
    run.host_factor = _bracket(factor, host_factor())
    return run


def prepare(run: Setup, index: int) -> typing.Tuple[str, typing.Any]:
    """(key, input) of item *index*.  A Table-3 script is consumed by
    its replay, so each item gets a freshly generated one."""
    key, seed = run.stimulus[index % len(run.stimulus)]
    if run.workload.startswith("table3"):
        from repro.experiments.table3 import make_script
        return key, make_script(TABLE3_TRANSACTIONS, seed=seed)
    return key, seed


# ----------------------------------------------------------------------
# one item per workload
# ----------------------------------------------------------------------

def _table3_run(layer: int, script, table, fast_lane: bool = True,
                backend: str = "packed", eager: bool = False):
    """Replay *script* on a fresh bus of *layer* with energy estimation;
    returns (transactions, cycles, retries, errors, energy pJ)."""
    from repro.experiments import common
    from repro.kernel import Clock, Simulator
    from repro.power import Layer1PowerModel, Layer2PowerModel
    from repro.tlm import (EcBusLayer1, EcBusLayer2, PipelinedMaster,
                           run_script)
    simulator = Simulator(f"perfbench_l{layer}", fast_lane=fast_lane)
    clock = Clock(simulator, "clk", period=common.CLOCK_PERIOD)
    memory_map = common.fresh_memory_map()
    if layer == 1:
        model = Layer1PowerModel(table, backend=backend, eager=eager)
        bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    else:
        model = Layer2PowerModel(table, backend=backend)
        bus = EcBusLayer2(simulator, clock, memory_map, power_model=model)
    for region in memory_map.regions:
        if hasattr(region.slave, "bind_cycle_source"):
            region.slave.bind_cycle_source(lambda: bus.cycle)
    master = PipelinedMaster(simulator, clock, bus, script)
    run_script(simulator, master, 5_000_000, clock)
    if layer == 2:
        model.account_cycles(bus.cycle)
    return (len(master.completed), clock.cycles, master.retries,
            len(master.errors), model.total_energy_pj)


def _table3_item(layer: int):
    def run(result: ItemResult, script, table) -> None:
        txns, cycles, retries, errors, energy = _table3_run(layer, script,
                                                            table)
        result.txns, result.cycles = txns, cycles
        result.retries, result.errors = retries, errors
        result.energy_pj = energy
        result.ok = txns == len(script)
    return run


def _chaos_item(result: ItemResult, campaign_seed: str, _table) -> None:
    # the oracle characterises through its own (process-wide) cache
    from repro.experiments.chaos_campaign import run_chaos_campaign
    campaign = run_chaos_campaign(scenarios=1, seed=campaign_seed,
                                  workers=1, selftest=False)
    cell = campaign.cells[0]
    result.ok = cell.status == "ok" and cell.passed
    if cell.status != "ok":
        result.error = cell.error
        return
    arms = cell.layer_summary.values()
    result.txns = sum(arm["transactions"] for arm in arms)
    result.cycles = sum(arm["cycles"] for arm in arms)
    result.retries = sum(arm["retries"] for arm in arms)
    result.errors = sum(arm["errors"] for arm in arms)
    result.energy_pj = sum(arm["probe_total_pj"] for arm in arms)
    result.counts = {"faults.fired": sum(cell.fired.values())}


def _link_item(result: ItemResult, session_seed: str, table) -> None:
    import repro.link
    from repro.power import CardPowerModel, Layer1PowerModel
    from repro.soc import SmartCardPlatform
    model = Layer1PowerModel(table)
    platform = SmartCardPlatform(bus_layer=1, power_model=model)
    composite = CardPowerModel(model, ledgers=platform.energy_ledgers())
    channel = repro.link.NoisyChannel(LINK_NOISE,
                                      seed=f"{session_seed}/chan")
    report = repro.link.run_link_session(
        platform, LINK_COMMANDS, seed=session_seed, channel=channel,
        energy_probe=lambda: composite.total_energy_pj)
    result.ok = report.clean_close
    result.txns = platform.bus.transactions_completed
    result.cycles = report.cycles
    result.energy_pj = report.total_energy_pj
    result.counts = {"link.retransmissions":
                     report.host_retransmissions
                     + report.card_retransmissions}


_ITEMS = {"table3-l1": _table3_item(1), "table3-l2": _table3_item(2),
          "chaos": _chaos_item, "t1-link": _link_item}


def run_item(run: Setup, index: int, key: str, payload) -> ItemResult:
    """Run one item on its prepared input, timing it.  An exception is
    the item's failure, never the benchmark's."""
    result = ItemResult(index, key)
    started = time.perf_counter()
    try:
        _ITEMS[run.workload](result, payload, run.table)
    except Exception:
        result.ok = False
        result.error = traceback.format_exc(limit=4)
    result.seconds = time.perf_counter() - started
    return result


def run_for(run: Setup, seconds: float, min_items: int = 1,
            on_item: typing.Optional[
                typing.Callable[[ItemResult], None]] = None,
            profile: typing.Optional[cProfile.Profile] = None
            ) -> typing.List[ItemResult]:
    """Closed loop from item 0: run items until *seconds* have passed
    and at least *min_items* are done.  Inputs are prepared and the host
    calibrated between items, outside the item's timer and outside
    *profile*; each item is scaled by the calibrations on both sides
    of it."""
    results: typing.List[ItemResult] = []
    deadline = time.perf_counter() + seconds
    while True:
        index = len(results)
        key, payload = prepare(run, index)
        calibration = host_factor()
        if results:
            results[-1].host_factor = _bracket(previous, calibration)
        previous = calibration
        if profile is not None:
            profile.enable()
        try:
            result = run_item(run, index, key, payload)
        finally:
            if profile is not None:
                profile.disable()
        results.append(result)
        if on_item is not None:
            on_item(result)
        if (len(results) >= min_items
                and time.perf_counter() >= deadline):
            result.host_factor = _bracket(previous, host_factor())
            return results


def _bracket(before: float, after: float) -> float:
    """Host factor over an interval: reference over the mean of the
    calibration times at its two ends."""
    return 2 / (1 / before + 1 / after)


# ----------------------------------------------------------------------
# correctness: every item, outside the timed region
# ----------------------------------------------------------------------

def oracle_expectations(run: Setup) -> typing.Dict[str, tuple]:
    """Table-3 only: a seeded sample of scripts replayed on the generic
    kernel lane with the per-cycle ``reference`` engine, the uncompiled
    path every fast path must reproduce bit for bit.  Maps script key
    to (transactions, cycles, retries, errors, energy pJ)."""
    if not run.workload.startswith("table3"):
        return {}
    layer = 1 if run.workload == "table3-l1" else 2
    sample = random.Random(f"perfbench/oracle/{run.seed}").sample(
        range(len(run.stimulus)), TABLE3_ORACLE_SAMPLE)
    expected = {}
    for index in sorted(sample):
        key, script = prepare(run, index)
        expected[key] = _table3_run(layer, script, run.table,
                                    fast_lane=False, backend="reference",
                                    eager=(layer == 1))
    return expected


def check(results: typing.Sequence[ItemResult],
          expected: typing.Mapping[str, tuple]) -> typing.List[str]:
    """Mark each failed item (``ok`` false) and return one reason per
    failure.  An item fails when it raised, its own verdict failed, it
    differs from the oracle's expectation for its input, or it differs
    from an earlier run of the same input."""
    first: typing.Dict[str, tuple] = {}
    reasons = []
    for result in results:
        reason = None
        if result.error is not None:
            reason = result.error.strip().splitlines()[-1]
        elif not result.ok:
            reason = "item verdict failed"
        else:
            got = result.signature()
            want = expected.get(result.key)
            if want is not None and got[:5] != tuple(want):
                reason = f"differs from the oracle: {got[:5]} != {want}"
            elif first.setdefault(result.key, got) != got:
                reason = "differs from an earlier run of the same input"
        if reason is not None:
            result.ok = False
            reasons.append(f"item {result.index} ({result.key}): {reason}")
    return reasons


# ----------------------------------------------------------------------
# end-to-end figures
# ----------------------------------------------------------------------

def items_per_s(results: typing.Sequence[ItemResult]) -> float:
    return len(results) / sum(result.normalized_s for result in results)


def end_to_end(results: typing.Sequence[ItemResult]
               ) -> typing.Dict[str, float]:
    """Rates (per second of item time) and latency percentiles of one
    timed loop, in host time scaled to the reference host speed."""
    latencies = [result.normalized_s for result in results]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "items_per_s": items_per_s(results),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_p90_ms": 1e3 * deciles[8],
        "txns_per_s": (sum(result.txns for result in results)
                       / sum(latencies)),
    }


def table3_shape(run: Setup) -> float:
    """Informational: layer-2 over layer-1 transactions/s on the first
    few scripts of the pool, the layers interleaved."""
    seconds = {1: 0.0, 2: 0.0}
    txns = {1: 0, 2: 0}
    for index in range(SHAPE_SCRIPTS):
        for layer in (1, 2):
            script = prepare(run, index)[1]
            started = time.perf_counter()
            txns[layer] += _table3_run(layer, script, run.table)[0]
            seconds[layer] += time.perf_counter() - started
    return (txns[2] / seconds[2]) / (txns[1] / seconds[1])
