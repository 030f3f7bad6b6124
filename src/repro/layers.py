"""The bus layer table: what makes up each abstraction layer.

The method replays one workload on interchangeable abstraction layers,
each paired with its own energy model.  :data:`BUS_LAYERS`, keyed by
the layer names the campaigns journal, is the one place that says
which bus and which energy model make up a layer and how a finished
run's energy is read: ``layer1`` prices every cycle, ``layer2`` books
its lazily accrued clock baseline up to the bus cycle first, and
``gate-level`` prices its bus's activity log with Diesel.  A new bus
layer is one more entry.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.power import Layer1PowerModel, Layer2PowerModel
from repro.power.diesel import DieselEstimator, InterfaceActivityLog
from repro.rtl import RtlBus
from repro.soc.smartcard import SmartCardPlatform
from repro.tlm import EcBusLayer1, EcBusLayer2


def bind_dynamic_slaves(memory_map, bus) -> None:
    """Clock *memory_map*'s dynamic slaves (EEPROM busy windows, fault
    wrappers) by *bus*'s cycle counter."""
    for region in memory_map.regions:
        if hasattr(region.slave, "bind_cycle_source"):
            region.slave.bind_cycle_source(lambda: bus.cycle)


@dataclasses.dataclass(frozen=True)
class BusLayer:
    """One abstraction layer: its bus, energy model and energy read."""

    name: str
    #: ``bus_layer`` of platforms and fabrics on this layer; None at
    #: gate level, whose bus plugs into a platform as a bus factory
    number: typing.Optional[int]
    bus_class: type
    #: None: the bus keeps an activity log Diesel prices after the run
    model_class: typing.Optional[type] = None

    def power_model(self, table):
        """A fresh energy model of this layer (None at gate level)."""
        return None if self.model_class is None else self.model_class(table)

    def build(self, simulator, clock, memory_map, table=None,
              priced: bool = True) -> typing.Tuple[typing.Any, typing.Any]:
        """``(bus, power_model)`` over *memory_map*, its dynamic slaves
        clocked by the bus; ``priced=False`` builds the bus alone."""
        model = self.power_model(table) if priced else None
        if self.model_class is None:
            bus = self.bus_class(
                simulator, clock, memory_map,
                activity_log=InterfaceActivityLog() if priced else None)
        else:
            bus = self.bus_class(simulator, clock, memory_map,
                                 power_model=model)
        bind_dynamic_slaves(memory_map, bus)
        return bus, model

    def platform(self, table, **options) -> SmartCardPlatform:
        """A Figure-1 card on this layer, every segment priced;
        *options* go to :class:`~repro.soc.SmartCardPlatform`."""
        if self.model_class is None:
            # one activity log per card built, so a torn run and its
            # cold-booted recovery price apart
            def bus_factory(*bus_args, power_model=None):
                return self.build(*bus_args)[0]
            return SmartCardPlatform(bus_factory=bus_factory, **options)
        return SmartCardPlatform(
            bus_layer=self.number, power_model=self.power_model(table),
            power_model_factory=lambda segment: self.power_model(table),
            **options)

    def energy_pj(self, bus, power_model=None) -> typing.Optional[float]:
        """The energy of the run finished on *bus* (None: unpriced)."""
        if self.model_class is not None:
            if power_model is None:
                return None
            # layer 2 books its clock baseline only when told the cycle
            account = getattr(power_model, "account_cycles", None)
            if account is not None:
                account(bus.cycle)
            return power_model.total_energy_pj
        if bus.activity_log is None:
            return None
        return DieselEstimator().estimate(
            bus.activity_log, netlists=[bus.decoder.netlist],
            control_register_toggles=bus.control_register_toggles,
            control_flop_count=bus.control_flop_count,
            cycles=bus.cycle).total_energy_pj


#: the abstraction layers by journaled name
BUS_LAYERS: typing.Dict[str, BusLayer] = {layer.name: layer for layer in (
    BusLayer("layer1", 1, EcBusLayer1, Layer1PowerModel),
    BusLayer("layer2", 2, EcBusLayer2, Layer2PowerModel),
    BusLayer("gate-level", None, RtlBus),
)}
