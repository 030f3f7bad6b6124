"""Netlist container and glitch-aware cycle evaluation.

Each :meth:`Netlist.step` models one clock cycle:

1. flops latch their D inputs (outputs change at time 0),
2. external inputs take their new values (time 0),
3. combinational gates propagate event-driven, every gate with the
   same delay of one time unit — a gate whose inputs change at time *t*
   updates its output at *t + 1*; every output change is committed to
   the net's activity counters, so transient changes that are later
   reversed in the same cycle are counted too and reported as glitches.

The per-net activity (transitions, rises/falls, glitches) is exactly
what the Diesel-style estimator consumes.

The first evaluation compiles the netlist into a flat engine: one list
of net values, a closure per gate specialised by kind and arity
(:meth:`~repro.rtl.gates.Gate.evaluator`), a fanout tuple per net and
the flop (D, Q) pairs.  Growing the netlist afterwards (:meth:`net`,
:meth:`gate`, :meth:`flop`) drops the compiled form; the next step
recompiles it.  Because every delay is one unit, a cycle is a sequence
of waves: the changes due *now* and the ones they cause *next*.  The
:class:`~repro.rtl.gates.Net` objects stay the public record and are
updated as each change commits.
"""

from __future__ import annotations

import typing

from .gates import (DEFAULT_NET_CAP_FF, FANOUT_CAP_FF, Flop, Gate, GateKind,
                    Net)


class NetlistError(ValueError):
    """Structural problem in the netlist (cycles, double drive...)."""


class Netlist:
    """A flat gate-level netlist with activity accounting."""

    def __init__(self, name: str = "netlist",
                 default_net_cap_ff: float = DEFAULT_NET_CAP_FF,
                 fanout_cap_ff: float = FANOUT_CAP_FF) -> None:
        self.name = name
        self.default_net_cap_ff = default_net_cap_ff
        self.fanout_cap_ff = fanout_cap_ff
        self.nets: typing.List[Net] = []
        self.gates: typing.List[Gate] = []
        self.flops: typing.List[Flop] = []
        self._inputs: typing.Dict[str, int] = {}
        self._outputs: typing.Dict[str, int] = {}
        self._driven: typing.Set[int] = set()
        self.cycles_run = 0
        self._initialized = False
        # compiled engine (see the module docstring); None until the
        # first evaluation and again after the netlist grows
        self._values: typing.Optional[typing.List[int]] = None
        self._evaluators: typing.List[typing.Callable] = []
        self._gate_outputs: typing.List[int] = []
        self._fanout: typing.List[typing.Tuple[int, ...]] = []
        self._flop_pairs: typing.List[typing.Tuple[int, int]] = []

    # -- construction ---------------------------------------------------

    def net(self, name: str,
            cap_ff: typing.Optional[float] = None) -> int:
        """Create a new net; returns its index."""
        index = len(self.nets)
        if cap_ff is None:
            cap_ff = self.default_net_cap_ff
        self.nets.append(Net(index, name, cap_ff))
        self._values = None  # the compiled engine no longer fits
        return index

    def input(self, name: str,
              cap_ff: typing.Optional[float] = None) -> int:
        """Create an external input net."""
        if name in self._inputs:
            raise NetlistError(f"duplicate input {name!r}")
        index = self.net(name, cap_ff)
        self._inputs[name] = index
        self._driven.add(index)
        return index

    def set_output(self, name: str, net: int) -> None:
        """Expose *net* as a named output."""
        self._outputs[name] = net

    def gate(self, kind: GateKind, inputs: typing.Sequence[int],
             output_name: typing.Optional[str] = None) -> int:
        """Add a gate; returns its (new) output net index."""
        output = self.net(output_name or
                          f"{kind.value}_{len(self.gates)}")
        if output in self._driven:
            raise NetlistError(f"net {output} already driven")
        gate = Gate(kind, tuple(inputs), output)
        self.gates.append(gate)
        self._driven.add(output)
        for net in gate.inputs:
            self.nets[net].cap_ff += self.fanout_cap_ff
        return output

    def flop(self, data: int, output_name: typing.Optional[str] = None
             ) -> int:
        """Add a D flip-flop fed by net *data*; returns the Q net."""
        output = self.net(output_name or f"ff_{len(self.flops)}")
        if output in self._driven:
            raise NetlistError(f"net {output} already driven")
        self.flops.append(Flop(data, output))
        self._driven.add(output)
        return output

    # convenience wrappers ------------------------------------------------

    def not_gate(self, a: int) -> int:
        return self.gate(GateKind.NOT, [a])

    def and_gate(self, *ins: int) -> int:
        return self.gate(GateKind.AND, ins)

    def or_gate(self, *ins: int) -> int:
        return self.gate(GateKind.OR, ins)

    def xor_gate(self, a: int, b: int) -> int:
        return self.gate(GateKind.XOR, [a, b])

    def xnor_gate(self, a: int, b: int) -> int:
        return self.gate(GateKind.XNOR, [a, b])

    def mux2(self, select: int, a: int, b: int) -> int:
        return self.gate(GateKind.MUX2, [select, a, b])

    # -- evaluation -------------------------------------------------------

    def _compile(self) -> typing.List[int]:
        """Build the flat engine from the current structure; returns
        the net-value list it evaluates over."""
        fanout: typing.List[typing.List[int]] = [[] for _ in self.nets]
        for gate_index, gate in enumerate(self.gates):
            for net in gate.inputs:
                fanout[net].append(gate_index)
        self._evaluators = [gate.evaluator() for gate in self.gates]
        self._gate_outputs = [gate.output for gate in self.gates]
        self._fanout = [tuple(gates) for gates in fanout]
        self._flop_pairs = [(flop.data, flop.output)
                            for flop in self.flops]
        self._values = [net.value for net in self.nets]
        return self._values

    def initialize(self) -> None:
        """Settle the netlist from the all-zero reset state.

        Gates are evaluated without activity accounting until stable —
        the power-up settle a real simulator performs before time 0.
        """
        if self._initialized:
            return
        self._initialized = True
        values = self._values
        if values is None:
            values = self._compile()
        nets = self.nets
        compiled = list(zip(self._evaluators, self._gate_outputs))
        for _ in range(len(compiled) + 2):
            changed = False
            for evaluate, output in compiled:
                value = evaluate(values)
                if value != values[output]:
                    values[output] = nets[output].value = value
                    changed = True
            if not changed:
                return
        raise NetlistError(
            f"netlist {self.name!r} did not settle at initialisation")

    def step(self, inputs: typing.Dict[str, int]
             ) -> typing.Dict[str, int]:
        """Simulate one clock cycle; returns the named output values."""
        if not self._initialized:
            self.initialize()
        values = self._values
        if values is None:
            values = self._compile()
        # time 0: flops latch, then the external inputs change
        now: typing.Dict[int, int] = {}
        for data, output in self._flop_pairs:
            if values[data] != values[output]:
                now[output] = values[data]
        for name, value in inputs.items():
            try:
                net = self._inputs[name]
            except KeyError:
                raise NetlistError(f"unknown input {name!r}") from None
            if value not in (0, 1):
                raise NetlistError(
                    f"input {name!r} must be 0 or 1, got {value}")
            if value != values[net]:
                now[net] = 1 if value else 0  # the closures need ints
        # unit-delay waves: commit the changes due now, evaluate the
        # gates they feed, schedule output changes for the next wave.
        # Each net has a single source, evaluated at most once per
        # wave, so each scheduled change differs from the value it
        # replaces.
        nets = self.nets
        fanout = self._fanout
        evaluators = self._evaluators
        gate_outputs = self._gate_outputs
        guard = 4 * (len(self.gates) + 4)
        # net -> its transition count when it first toggled this cycle
        first_toggle: typing.Dict[int, int] = {}
        time = 0
        while now:
            if time > guard:
                raise NetlistError(
                    f"netlist {self.name!r} did not settle "
                    f"(combinational loop?)")
            touched: typing.Set[int] = set()
            for net, value in now.items():
                record = nets[net]
                if net not in first_toggle:
                    first_toggle[net] = record.transitions
                values[net] = record.value = value
                record.transitions += 1
                if value:
                    record.rise_count += 1
                else:
                    record.fall_count += 1
                touched.update(fanout[net])
            upcoming: typing.Dict[int, int] = {}
            for gate_index in touched:
                value = evaluators[gate_index](values)
                output = gate_outputs[gate_index]
                if value != values[output]:
                    upcoming[output] = value
            now = upcoming
            time += 1
        # a net that toggled k times this cycle ends where it started
        # iff k is even; every toggle beyond that net change glitched
        for net, before in first_toggle.items():
            record = nets[net]
            toggles = record.transitions - before
            if toggles > 1:
                record.glitches += toggles - (toggles & 1)
        self.cycles_run += 1
        return {name: values[net] for name, net in self._outputs.items()}

    # -- reporting ---------------------------------------------------------

    @property
    def input_names(self) -> typing.Tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def output_names(self) -> typing.Tuple[str, ...]:
        return tuple(self._outputs)

    def output_value(self, name: str) -> int:
        return self.nets[self._outputs[name]].value

    def total_transitions(self) -> int:
        return sum(net.transitions for net in self.nets)

    def total_glitches(self) -> int:
        return sum(net.glitches for net in self.nets)

    def internal_nets(self) -> typing.List[Net]:
        """Nets that are not external inputs (gate/flop outputs)."""
        input_indices = set(self._inputs.values())
        return [net for net in self.nets
                if net.index not in input_indices]

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, nets={len(self.nets)}, "
                f"gates={len(self.gates)}, flops={len(self.flops)})")
