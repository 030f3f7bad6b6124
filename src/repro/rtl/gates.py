"""Gate and net primitives for the gate-level ("layer 0") model.

The paper's reference is a real gate-level netlist with layout
parasitics, simulated by a gate-level simulator and measured by the
Diesel power estimator.  These primitives substitute for that: nets
carry a capacitance, every gate has the same fixed propagation delay of
one time unit, and the evaluation engine in :mod:`repro.rtl.netlist`
counts *every* output change — including transient ones — so glitch
energy exists, which is one of the contributions the transaction-level
models cannot see.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
import typing

#: Default net capacitance (fF): gate output + local wiring.
DEFAULT_NET_CAP_FF = 3.0
#: Extra capacitance per fanout connection (fF).
FANOUT_CAP_FF = 1.2


class GateKind(enum.Enum):
    """Supported combinational cell types."""

    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MUX2 = "mux2"  # inputs: (select, a, b) -> b if select else a


_ARITY: typing.Dict[GateKind, typing.Optional[int]] = {
    GateKind.BUF: 1,
    GateKind.NOT: 1,
    GateKind.AND: None,   # variadic (>= 2)
    GateKind.OR: None,
    GateKind.NAND: None,
    GateKind.NOR: None,
    GateKind.XOR: None,
    GateKind.XNOR: None,
    GateKind.MUX2: 3,
}

#: Compiled two-input cells (the decoder's whole vocabulary besides
#: NOT): ``(a, b) -> f(values)`` over the flat net-value list.
_BINARY: typing.Dict[GateKind, typing.Callable[..., typing.Callable]] = {
    GateKind.AND: lambda a, b: lambda v: v[a] & v[b],
    GateKind.OR: lambda a, b: lambda v: v[a] | v[b],
    GateKind.NAND: lambda a, b: lambda v: 1 - (v[a] & v[b]),
    GateKind.NOR: lambda a, b: lambda v: 1 - (v[a] | v[b]),
    GateKind.XOR: lambda a, b: lambda v: v[a] ^ v[b],
    GateKind.XNOR: lambda a, b: lambda v: 1 - (v[a] ^ v[b]),
}

#: Wider variadic cells reduce the tuple of their input values.
_VARIADIC: typing.Dict[GateKind, typing.Callable[[tuple], int]] = {
    GateKind.AND: lambda ins: 0 if 0 in ins else 1,
    GateKind.OR: lambda ins: 1 if 1 in ins else 0,
    GateKind.NAND: lambda ins: 1 if 0 in ins else 0,
    GateKind.NOR: lambda ins: 0 if 1 in ins else 1,
    GateKind.XOR: lambda ins: sum(ins) & 1,
    GateKind.XNOR: lambda ins: 1 - (sum(ins) & 1),
}


@dataclasses.dataclass
class Net:
    """One wire of the netlist."""

    index: int
    name: str
    cap_ff: float = DEFAULT_NET_CAP_FF
    value: int = 0
    #: transitions committed this simulation (includes glitches)
    transitions: int = 0
    rise_count: int = 0
    fall_count: int = 0
    #: transitions that were later reversed within the same cycle
    glitches: int = 0


@dataclasses.dataclass
class Gate:
    """One combinational cell: output = f(inputs), one time unit later.

    Every cell has the same unit delay; the engine relies on it to
    schedule a whole cycle as a sequence of one-unit waves.
    """

    kind: GateKind
    inputs: typing.Tuple[int, ...]
    output: int

    def __post_init__(self) -> None:
        arity = _ARITY[self.kind]
        if arity is not None and len(self.inputs) != arity:
            raise ValueError(
                f"{self.kind.value} gate needs {arity} inputs, "
                f"got {len(self.inputs)}")
        if arity is None and len(self.inputs) < 2:
            raise ValueError(
                f"{self.kind.value} gate needs at least 2 inputs")

    def evaluator(self) -> typing.Callable[[typing.Sequence[int]], int]:
        """Compile to ``f(values) -> output`` over the flat list of 0/1
        net values, specialised by kind and arity."""
        kind, ins = self.kind, self.inputs
        if kind is GateKind.BUF:
            a, = ins
            return lambda v: v[a]
        if kind is GateKind.NOT:
            a, = ins
            return lambda v: 1 - v[a]
        if kind is GateKind.MUX2:
            select, a, b = ins
            return lambda v: v[b] if v[select] else v[a]
        if len(ins) == 2:
            return _BINARY[kind](*ins)
        reduce = _VARIADIC[kind]
        gather = operator.itemgetter(*ins)
        return lambda v: reduce(gather(v))


@dataclasses.dataclass
class Flop:
    """A D flip-flop: output updates at the clock edge only."""

    data: int      # D input net
    output: int    # Q output net
    clock_pin_cap_ff: float = 1.5
