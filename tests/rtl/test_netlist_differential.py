"""Differential tests: the compiled netlist engine against an oracle.

:class:`ReferenceEngine` is the straightforward event-queue algorithm
the compiled engine replaced — a time-indexed dict of pending changes,
a fresh input list per gate evaluation and a snapshot of every net at
the start of each cycle for glitch accounting.  Hypothesis builds random
circuits (every gate kind, variadic AND/OR/XOR, MUX2, flops with
sequential feedback, reconvergent glitchy paths, growth after the first
step) and two identical copies are stepped, one by each engine.  Every
net's value and activity counters, the outputs and the cycle count must
agree after every step, and so must the errors.
"""

import collections
import typing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.common import fresh_memory_map
from repro.rtl.decoder import build_address_decoder
from repro.rtl.gates import Gate, GateKind
from repro.rtl.netlist import Netlist, NetlistError

_EVALUATORS = {
    GateKind.BUF: lambda a: a,
    GateKind.NOT: lambda a: 1 - a,
    GateKind.AND: lambda *ins: int(all(ins)),
    GateKind.OR: lambda *ins: int(any(ins)),
    GateKind.NAND: lambda *ins: 1 - int(all(ins)),
    GateKind.NOR: lambda *ins: 1 - int(any(ins)),
    GateKind.XOR: lambda *ins: sum(ins) & 1,
    GateKind.XNOR: lambda *ins: 1 - (sum(ins) & 1),
    GateKind.MUX2: lambda sel, a, b: b if sel else a,
}


def _record_change(net, new_value: int) -> None:
    if new_value == net.value:
        return
    if new_value:
        net.rise_count += 1
    else:
        net.fall_count += 1
    net.transitions += 1
    net.value = new_value


class ReferenceEngine:
    """Test-only oracle: the original event-queue ``Netlist.step``.

    It drives the :class:`~repro.rtl.gates.Net` records of *netlist*
    directly, so that netlist must never be stepped by its own engine.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.initialized = False

    def _evaluate(self, gate: Gate) -> int:
        nets = self.netlist.nets
        return _EVALUATORS[gate.kind](*[nets[i].value for i in gate.inputs])

    def initialize(self) -> None:
        if self.initialized:
            return
        self.initialized = True
        netlist = self.netlist
        for _ in range(len(netlist.gates) + 2):
            changed = False
            for gate in netlist.gates:
                value = self._evaluate(gate)
                if value != netlist.nets[gate.output].value:
                    netlist.nets[gate.output].value = value
                    changed = True
            if not changed:
                return
        raise NetlistError(
            f"netlist {netlist.name!r} did not settle at initialisation")

    def step(self, inputs: typing.Dict[str, int]) -> typing.Dict[str, int]:
        if not self.initialized:
            self.initialize()
        netlist = self.netlist
        nets = netlist.nets
        fanout = collections.defaultdict(list)
        for gate_index, gate in enumerate(netlist.gates):
            for net in gate.inputs:
                fanout[net].append(gate_index)
        events = collections.defaultdict(dict)  # time -> {net: value}
        for flop in netlist.flops:
            new_q = nets[flop.data].value
            if new_q != nets[flop.output].value:
                events[0][flop.output] = new_q
        for name, value in inputs.items():
            try:
                net = netlist._inputs[name]
            except KeyError:
                raise NetlistError(f"unknown input {name!r}") from None
            if value not in (0, 1):
                raise NetlistError(
                    f"input {name!r} must be 0 or 1, got {value}")
            if value != nets[net].value:
                events[0][net] = value
        values_before = [net.value for net in nets]
        toggle_log = collections.defaultdict(int)
        time = 0
        guard = 4 * (len(netlist.gates) + 4)
        while events:
            if time > guard:
                raise NetlistError(
                    f"netlist {netlist.name!r} did not settle "
                    f"(combinational loop?)")
            changes = events.pop(time, None)
            if changes is None:
                time += 1
                continue
            touched_gates = set()
            for net, value in changes.items():
                if value != nets[net].value:
                    _record_change(nets[net], value)
                    toggle_log[net] += 1
                    touched_gates.update(fanout[net])
            for gate_index in touched_gates:
                gate = netlist.gates[gate_index]
                new_value = self._evaluate(gate)
                when = time + 1
                if new_value != nets[gate.output].value:
                    events[when][gate.output] = new_value
                else:
                    events.get(when, {}).pop(gate.output, None)
            time += 1
        for net_index, toggles in toggle_log.items():
            net = nets[net_index]
            net_difference = int(values_before[net_index] != net.value)
            if toggles > net_difference:
                net.glitches += toggles - net_difference
        netlist.cycles_run += 1
        return {name: nets[net].value
                for name, net in netlist._outputs.items()}


# -- circuit descriptions -------------------------------------------------

_SINGLE = [GateKind.BUF, GateKind.NOT]
_VARIADIC = [GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.NOR,
             GateKind.XOR, GateKind.XNOR]


def _draw_gates(draw, first_node: int, count: int) -> list:
    """*count* gates, each reading nodes created before it.  Sources
    lean towards recent nodes, so paths of different depth reconverge
    and glitch."""
    gates = []
    for node in range(first_node, first_node + count):
        kind = draw(st.sampled_from(_SINGLE + _VARIADIC + [GateKind.MUX2]))
        if kind in _SINGLE:
            arity = 1
        elif kind is GateKind.MUX2:
            arity = 3
        else:
            arity = draw(st.integers(2, 4))
        low = draw(st.sampled_from([0, max(0, node - 3)]))
        sources = tuple(draw(st.integers(low, node - 1))
                        for _ in range(arity))
        gates.append((kind, sources))
    return gates


@st.composite
def circuits(draw):
    """Inputs, flops, a gate DAG, an optional growth batch and stimulus.

    Node numbers equal net indices: inputs first, then the flop Q nets,
    then one net per gate — so a flop's D may name any node, including
    gates fed by that flop (sequential feedback)."""
    num_inputs = draw(st.integers(1, 5))
    num_flops = draw(st.integers(0, 3))
    num_gates = draw(st.integers(1, 20))
    first_gate = num_inputs + num_flops
    gates = _draw_gates(draw, first_gate, num_gates)
    total = first_gate + num_gates
    flops = [draw(st.integers(0, total - 1)) for _ in range(num_flops)]
    growth = []
    if draw(st.booleans()):
        growth = _draw_gates(draw, total, draw(st.integers(1, 8)))
    names = [f"i{i}" for i in range(num_inputs)]
    vector = st.dictionaries(st.sampled_from(names), st.integers(0, 1))
    before = draw(st.lists(vector, min_size=1, max_size=6))
    after = draw(st.lists(vector, min_size=1, max_size=4))
    return num_inputs, flops, gates, growth, before, after


def _build(num_inputs, flops, gates) -> Netlist:
    netlist = Netlist("random")
    for i in range(num_inputs):
        netlist.input(f"i{i}")
    for index, data in enumerate(flops):
        netlist.set_output(f"q{index}", netlist.flop(data))
    _grow(netlist, gates)
    return netlist


def _grow(netlist: Netlist, gates) -> None:
    for kind, sources in gates:
        output = netlist.gate(kind, sources)
        netlist.set_output(f"g{output}", output)


def _state(netlist: Netlist) -> list:
    return [(net.value, net.transitions, net.rise_count, net.fall_count,
             net.glitches) for net in netlist.nets]


def _assert_same(engine: Netlist, reference: Netlist) -> None:
    assert _state(engine) == _state(reference)
    assert engine.cycles_run == reference.cycles_run


def _step_both(engine: Netlist, oracle: ReferenceEngine, vector) -> None:
    assert engine.step(vector) == oracle.step(vector)
    _assert_same(engine, oracle.netlist)


class TestRandomCircuits:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(circuits())
    def test_engine_matches_reference(self, circuit):
        num_inputs, flops, gates, growth, before, after = circuit
        engine = _build(num_inputs, flops, gates)
        oracle = ReferenceEngine(_build(num_inputs, flops, gates))
        for vector in before:
            _step_both(engine, oracle, vector)
        _grow(engine, growth)
        _grow(oracle.netlist, growth)
        for vector in after:
            _step_both(engine, oracle, vector)


class TestDecoder:
    def test_address_decoder_matches_reference(self):
        """The real 1,303-gate decoder, glitches and all."""
        engine = build_address_decoder(fresh_memory_map())
        oracle = ReferenceEngine(
            build_address_decoder(fresh_memory_map()).netlist)
        addresses = [0, 0x8000_0000, 0x5, 0x1FFF, 0x2000, 0xFFFF_FFFF,
                     0x1234_5678, 0x0, 0x7F, 0x80, 0xFFF, 0x1000]
        for address in addresses:
            vector = {name: (address >> i) & 1
                      for i, name in enumerate(engine.input_names)}
            _step_both(engine.netlist, oracle, vector)
            _step_both(engine.netlist, oracle, {})  # idle cycle
        assert engine.netlist.total_glitches() > 0


def _pair(builder):
    engine = builder()
    return engine, ReferenceEngine(builder())


def _glitchy() -> Netlist:
    """a XOR (NOT a) through an extra buffer: glitches on every edge."""
    netlist = Netlist("glitchy")
    a = netlist.input("a")
    inverted = netlist.not_gate(a)
    delayed = netlist.gate(GateKind.BUF, [a])
    netlist.set_output("out", netlist.xor_gate(delayed, inverted))
    return netlist


class TestErrors:
    def _assert_same_error(self, engine, oracle, vector):
        with pytest.raises(NetlistError) as from_engine:
            engine.step(vector)
        with pytest.raises(NetlistError) as from_oracle:
            oracle.step(vector)
        assert str(from_engine.value) == str(from_oracle.value)
        _assert_same(engine, oracle.netlist)

    @pytest.mark.parametrize("vector", [
        {"nope": 1}, {"a": 1, "nope": 0}, {"a": 2}, {"a": 1, "a2": -1},
    ])
    def test_bad_inputs_rejected_without_side_effects(self, vector):
        def builder():
            netlist = _glitchy()
            netlist.input("a2")
            return netlist
        engine, oracle = _pair(builder)
        _step_both(engine, oracle, {"a": 0})
        self._assert_same_error(engine, oracle, vector)
        _step_both(engine, oracle, {"a": 1})

    def test_combinational_loop(self):
        def builder():
            netlist = Netlist("ring")
            enable = netlist.input("en")
            # a NAND fed back onto itself oscillates once enabled
            netlist.gate(GateKind.NAND, [enable, len(netlist.nets)])
            return netlist
        engine, oracle = _pair(builder)
        _step_both(engine, oracle, {"en": 0})
        self._assert_same_error(engine, oracle, {"en": 1})


class TestGrowth:
    def test_gates_added_after_first_step(self):
        engine, oracle = _pair(_glitchy)
        for value in (1, 0):
            _step_both(engine, oracle, {"a": value})
        for netlist in (engine, oracle.netlist):
            a = 0  # the first net created
            out = netlist.and_gate(a, netlist.nets[-1].index)
            netlist.set_output("late", out)
            netlist.flop(out)
        for value in (1, 1, 0, 1):
            _step_both(engine, oracle, {"a": value})
        assert engine.nets[-1].transitions > 0


class TestUnitDelayOnly:
    def test_gate_has_no_delay_field(self):
        with pytest.raises(TypeError):
            Gate(GateKind.BUF, (0,), 1, 2)
