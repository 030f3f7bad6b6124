"""The fused layer-1 cycle commit vs the per-phase hook sequence.

``EcBusLayer1`` hands :class:`Layer1PowerModel` each cycle once, after
its write phase, through ``commit_cycle``.  The historical bus process
called seven hooks instead — ``address_phase_idle/active``,
``read_phase_idle/active``, ``write_phase_idle/active`` and
``end_of_cycle`` — and passed every WAIT beat through
``_apply_response``.  That bus process and those hooks are kept below
as a test-only reference; each scenario runs once on the reference and
once on the shipped code, both with the eager ``reference`` transition
engine, and must agree on every cycle's packed word and energy, the
transition counts, the group energies, the total and the transaction
timing.

The scenarios cover every path the fused commit takes: idle and busy
address tenures, OK/WAIT/ERROR read and write beats, unmapped
addresses (DECODE), torn EEPROM writes and failing reads, watchdog aborts that evict a
paced beat, beats forwarded across a bridge, and DPM wake-up wait
states.  The golden pins at the end were captured before the fusion.
"""

import contextlib
import random

import pytest

from repro.ec import (BusState, DecodeError, Direction, ErrorCause,
                      MemoryMap, RetryPolicy, SlaveResponse,
                      TransactionKind,
                      WaitStates, data_read, data_write)
from repro.experiments.common import (characterization,
                                      fresh_memory_map, run_on_layer)
from repro.experiments.table3 import make_script
from repro.kernel import Clock, Process, Simulator
from repro.power import Layer1PowerModel
from repro.power.layer1 import (_ADDR_ACTIVE_CLEAR,
                                _ADDR_IDLE_CLEAR, _ARDY, _AVALID,
                                _BE_SHIFT, _BFIRST, _BLAST, _BURST,
                                _INSTR, _RBERR, _RDATA_SHIFT, _RDVAL,
                                _READ_IDLE_CLEAR, _READ_OK_CLEAR,
                                _WBERR, _WDATA_SHIFT, _WDRDY, _WRITE,
                                _WRITE_ACTIVE_CLEAR, _WRITE_IDLE_CLEAR)
from repro.power.psm import PowerState, PowerStateMachine
from repro.soc import (EEPROM_BASE, RAM_BASE, ROM_BASE, UART_BASE,
                       Eeprom, ScratchpadRam, SmartCardPlatform)
from repro.tlm import EcBusLayer1, MemorySlave, PipelinedMaster, run_script

TABLE = characterization().table


# ----------------------------------------------------------------------
# the reference: per-phase hooks and the bus process that called them
# ----------------------------------------------------------------------

def _address_phase_idle(model):
    model._word = (model._word & _ADDR_IDLE_CLEAR) | _ARDY
    model._current_tenure_id = None


def _address_phase_active(model, transaction, completing):
    txn_id = transaction.txn_id
    first_cycle = model._current_tenure_id != txn_id
    model._current_tenure_id = None if completing else txn_id
    word = ((model._word & _ADDR_ACTIVE_CLEAR)
            | transaction.address          # lane shift 0
            | _AVALID
            | (transaction._enables << _BE_SHIFT))
    kind = transaction.kind
    if kind is TransactionKind.INSTRUCTION_READ:
        word |= _INSTR
    elif kind is TransactionKind.DATA_WRITE:
        word |= _WRITE
    if transaction.burst_length > 1:
        word |= _BURST
    if first_cycle:
        word |= _BFIRST
    if completing:
        word |= _BLAST | _ARDY
    model._word = word


def _read_phase_idle(model):
    model._word &= _READ_IDLE_CLEAR


def _read_phase_active(model, transaction, response):
    state = response.state
    if state is BusState.OK:
        model._word = ((model._word & _READ_OK_CLEAR)
                       | (response.data << _RDATA_SHIFT) | _RDVAL)
    elif state is BusState.ERROR:
        model._word = (model._word & _READ_IDLE_CLEAR) | _RBERR
    else:
        model._word &= _READ_IDLE_CLEAR


def _write_phase_idle(model):
    model._word &= _WRITE_IDLE_CLEAR


def _write_phase_active(model, transaction, data, response):
    word = ((model._word & _WRITE_ACTIVE_CLEAR)
            | (data << _WDATA_SHIFT))
    state = response.state
    if state is BusState.OK:
        word |= _WDRDY
    elif state is BusState.ERROR:
        word |= _WBERR
    model._word = word


def _end_of_cycle(model, cycle):
    if model._eager:
        model._engine.flush(model, (model._word,))
        energy = model._last_cycle_energy
        for sink in model._sinks:
            sink(cycle, model._view, energy)
    else:
        model._pending.append(model._word)


def _reference_bus_process(self):
    """The per-phase bus process: one hook per phase, every beat
    (WAIT included) through ``_apply_response``."""
    power_model = self.power_model
    cycle = self.cycle
    routes = self._routes
    fsm = self._address_fsm
    addr_busy = True
    if fsm.current is None:  # IDLE
        fifo = self.request_queue._fifo
        if not fifo:
            addr_busy = False
        else:
            head = fifo.popleft()
            try:
                route = self.memory_map.resolve_checked(
                    head.address, head.kind, head.num_bytes)
                region = route.regions[0]
            except DecodeError:
                head.fail(cycle, ErrorCause.DECODE)
                self.finish_pool.push(head)
                addr_busy = False
            else:
                fsm.start(head, region,
                          self.get_slave_state(region).address)
    if not addr_busy:
        if power_model is not None:
            _address_phase_idle(power_model)
    else:
        transaction = fsm.current
        completing = fsm.remaining_wait_states == 0
        if power_model is not None:
            _address_phase_active(power_model, transaction, completing)
        if completing:
            transaction.address_done_cycle = cycle
            slave = fsm.region.slave
            routes[transaction.txn_id] = (
                fsm.region, slave,
                getattr(slave, "forward_read_beat", None),
                getattr(slave, "forward_write_beat", None),
                slave.base_address)
            if transaction.direction is Direction.READ:
                self.read_queue.push(transaction)
            else:
                self.write_queue.push(transaction)
            fsm.finish()
        else:
            fsm.remaining_wait_states -= 1

    fifo = self.read_queue._fifo
    if not fifo:
        if power_model is not None:
            _read_phase_idle(power_model)
    else:
        transaction = fifo[0]
        _region, slave, forward, _fw, base = routes[transaction.txn_id]
        if forward is not None:
            response = forward(transaction)
        else:
            response = slave.read_beat(
                transaction.address - base
                + (transaction.beats_done << 2), transaction._enables)
        if power_model is not None:
            _read_phase_active(power_model, transaction, response)
        self._apply_response(transaction, response, self.read_queue,
                             value=response.data)

    fifo = self.write_queue._fifo
    if not fifo:
        if power_model is not None:
            _write_phase_idle(power_model)
    else:
        transaction = fifo[0]
        _region, slave, _fr, forward, base = routes[transaction.txn_id]
        beat = transaction.beats_done
        data = transaction.data[beat]
        if forward is not None:
            response = forward(transaction, data)
        else:
            response = slave.write_beat(
                transaction.address - base + (beat << 2),
                transaction._enables, data)
        if power_model is not None:
            _write_phase_active(power_model, transaction, data, response)
        self._apply_response(transaction, response, self.write_queue)

    if power_model is not None:
        _end_of_cycle(power_model, cycle)
    self.cycle = cycle + 1


@contextlib.contextmanager
def _bus_flavour(reference):
    """Build layer-1 buses with the reference bus process inside."""
    if not reference:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EcBusLayer1, "_bus_process", _reference_bus_process)
        yield


# ----------------------------------------------------------------------
# observation
# ----------------------------------------------------------------------

class _Probe:
    """Eager ``reference``-engine models that log every cycle."""

    def __init__(self):
        self.models = []

    def model(self, _segment=None):
        model = Layer1PowerModel(TABLE, backend="reference", eager=True)
        log = []

        def sink(cycle, _view, energy):
            log.append((cycle, model._word, energy))

        model.add_signal_sink(sink)
        self.models.append((model, log))
        return model

    def observables(self):
        return [{"cycles": log,
                 "total_energy_pj": model.total_energy_pj,
                 "transition_counts": model.transition_counts,
                 "group_energy_pj": model.group_energy_pj}
                for model, log in self.models]


def _timings(master):
    # txn_id is a process-global counter: compare the timing shape
    return [(t.kind, t.address, t.issue_cycle, t.address_done_cycle,
             t.data_done_cycle, t.state, t.error_cause, tuple(t.data))
            for t in master.completed]


def _flat_run(memory_map, script, retry_policy=None, extra=None,
              max_cycles=50_000):
    simulator = Simulator("fused")
    clock = Clock(simulator, "clk", period=100)
    probe = _Probe()
    bus = EcBusLayer1(simulator, clock, memory_map,
                      power_model=probe.model())
    for region in memory_map.regions:
        if hasattr(region.slave, "bind_cycle_source"):
            region.slave.bind_cycle_source(lambda: bus.cycle)
    if extra is not None:
        extra(simulator, clock, memory_map)
    master = PipelinedMaster(simulator, clock, bus, script,
                             retry_policy=retry_policy)
    run_script(simulator, master, max_cycles, clock)
    assert master.done
    return {"models": probe.observables(), "bus_cycle": bus.cycle,
            "timings": _timings(master),
            "errors": [(t.address, t.error_cause)
                       for t in master.errors],
            "retries": master.retries, "timeouts": master.timeouts}


def _table3(seed):
    return _flat_run(fresh_memory_map(), make_script(300, seed))


def _decode():
    script = [data_write(RAM_BASE, [1, 2, 3, 4]),
              data_read(0x0F00_0000),                   # unmapped
              data_read(RAM_BASE, burst_length=4),
              data_write(ROM_BASE, [0xDEAD]),           # rights
              data_write(0x0F00_0100, [5, 6]),          # unmapped
              data_read(EEPROM_BASE + 8)]
    return _flat_run(fresh_memory_map(), script)


class _FlakyReads(MemorySlave):
    """Answers every third read beat with ERROR (mid-burst too)."""

    def __init__(self):
        super().__init__(0x1000, 0x400, WaitStates(read=1), name="flaky")
        self.served = 0

    def do_read(self, offset, byte_enables):
        self.served += 1
        if self.served % 3 == 0:
            return SlaveResponse.error()
        return super().do_read(offset, byte_enables)


def _slave_errors():
    memory_map = MemoryMap()
    memory_map.add_slave(Eeprom(EEPROM_BASE, tear_rate=0.35,
                                tear_rng=random.Random(11)), "eeprom")
    memory_map.add_slave(ScratchpadRam(RAM_BASE), "ram")
    memory_map.add_slave(_FlakyReads(), "flaky")
    script = []
    for i in range(24):
        script.append(data_write(EEPROM_BASE + 16 * i,
                                 [0x1111 * (i + 1), 0xF0F0_0000 | i]))
        script.append(data_read(EEPROM_BASE + 16 * i, burst_length=2))
        script.append(data_read(0x1000 + 16 * i, burst_length=4))
        script.append(data_read(RAM_BASE + 4 * i))
    return _flat_run(memory_map, script,
                     RetryPolicy(max_attempts=3, backoff_cycles=1))


def _watchdog_abort():
    memory_map = MemoryMap()
    memory_map.add_slave(MemorySlave(0x1000, 0x400,
                                     WaitStates(address=1, read=30,
                                                write=30),
                                     name="slow"), "slow")
    memory_map.add_slave(ScratchpadRam(RAM_BASE), "ram")
    script = [data_read(0x1000), data_write(0x1010, [7]),
              data_read(RAM_BASE), data_read(0x1020, burst_length=2),
              data_write(RAM_BASE + 8, [9, 10])]
    return _flat_run(memory_map, script,
                     RetryPolicy(max_attempts=2, backoff_cycles=3,
                                 timeout_cycles=20))


def _bridged():
    probe = _Probe()
    platform = SmartCardPlatform(bus_layer=1, topology="two_segment",
                                 power_model=probe.model(),
                                 power_model_factory=probe.model)
    script = [data_write(RAM_BASE, [0x11, 0x22, 0x33, 0x44]),
              data_read(RAM_BASE, burst_length=4),
              data_write(UART_BASE, [0x41]),
              data_read(UART_BASE + 4),
              data_read(UART_BASE),
              data_write(UART_BASE + 0x1000, [3]),
              data_read(EEPROM_BASE, burst_length=2)]
    master = PipelinedMaster(platform.simulator, platform.clock,
                             platform.cpu_interface, script, name="cpu")
    run_script(platform.simulator, master, 5_000, platform.clock)
    platform.run_cycles(200)
    assert master.done
    return {"models": probe.observables(), "timings": _timings(master),
            "bridge_cycles": [segment.bus.cycle for segment in
                              platform.fabric.segments.values()]}


def _dpm_wake():
    psm = PowerStateMachine("eeprom")
    eeprom = Eeprom(EEPROM_BASE)
    eeprom.attach_power_state_machine(psm)
    memory_map = MemoryMap()
    memory_map.add_slave(eeprom, "eeprom")
    memory_map.add_slave(ScratchpadRam(RAM_BASE), "ram")

    def gate_now_and_then(simulator, clock, _memory_map):
        def governor():
            cycle = clock.cycles
            if cycle % 23 == 0:
                psm.request(PowerState.SLEEP)
            elif cycle % 11 == 0:
                psm.request(PowerState.CLOCK_GATED)
        Process(simulator, governor, "governor",
                dont_initialize=True).sensitive(clock.posedge_event)

    script = []
    for i in range(20):
        script.append(data_read(EEPROM_BASE + 8 * i))
        script.append(data_write(EEPROM_BASE + 8 * i + 4, [i]))
        script.append(data_read(RAM_BASE + 4 * i, burst_length=1))
    run = _flat_run(memory_map, script, extra=gate_now_and_then)
    run["wakes"] = psm.wakes
    return run


SCENARIOS = {
    "table3_seed1": lambda: _table3(1),
    "table3_seed2": lambda: _table3(2),
    "table3_seed42": lambda: _table3(42),
    "decode_errors": _decode,
    "slave_errors": _slave_errors,
    "watchdog_abort": _watchdog_abort,
    "bridged_fabric": _bridged,
    "dpm_wake": _dpm_wake,
}


def _run(name, reference):
    with _bus_flavour(reference):
        return SCENARIOS[name]()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fused_commit_matches_phase_hooks(name):
    fused = _run(name, reference=False)
    reference = _run(name, reference=True)
    assert fused == reference
    for observed in fused["models"]:
        assert observed["cycles"]  # every model saw cycles


class TestScenariosReachTheirPaths:
    """Each scenario must exercise the path it is named after."""

    def _beats(self, run, lane):
        return sum(1 for model in run["models"]
                   for _cycle, word, _energy in model["cycles"]
                   if word & lane)

    def test_decode_errors(self):
        run = _run("decode_errors", reference=False)
        causes = [cause for _address, cause in run["errors"]]
        assert causes.count(ErrorCause.DECODE) == 3

    def test_slave_errors_on_both_data_channels(self):
        run = _run("slave_errors", reference=False)
        assert run["retries"] > 0
        assert self._beats(run, _WBERR) > 0  # torn EEPROM writes
        assert self._beats(run, _RBERR) > 0

    def test_watchdog_abort_evicts_paced_beats(self):
        run = _run("watchdog_abort", reference=False)
        assert run["timeouts"] >= 2
        assert any(cause is ErrorCause.TIMEOUT
                   for _address, cause in run["errors"])

    def test_bridged_fabric_forwards(self):
        run = _run("bridged_fabric", reference=False)
        assert len(run["models"]) == 2
        downstream = run["models"][1]
        assert any(word & _AVALID
                   for _cycle, word, _energy in downstream["cycles"])

    def test_dpm_wake_stretches_eeprom_beats(self):
        run = _run("dpm_wake", reference=False)
        assert run["wakes"] > 0


# pinned before the commit was fused: (layer, seed) -> (total_energy_pj
# repr, busy cycles) for a 500-transaction Table-3 script
GOLDEN = {
    (1, 1): ("15337.593810883927", 3210),
    (2, 1): ("13184.324789404174", 2989),
    (1, 2): ("13717.582869565063", 2750),
    (2, 2): ("11913.163406713207", 2610),
    (1, 42): ("16141.736521321274", 3505),
    (2, 42): ("13647.115570270338", 3234),
}


@pytest.mark.parametrize("layer,seed", sorted(GOLDEN))
def test_table3_golden(layer, seed):
    result = run_on_layer(layer, make_script(500, seed), table=TABLE)
    assert result.transactions == 500
    assert (repr(result.energy_pj), result.cycles) == GOLDEN[(layer, seed)]
