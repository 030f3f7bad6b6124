"""Gate-level address decoder synthesised from a memory map.

The bus controller the paper models "contains the address decoder and
bus control logic" (§3).  This builder turns a behavioural
:class:`~repro.ec.MemoryMap` into a real gate netlist: one range
comparator per slave window plus a miss detector.  Because the
comparators are trees of real gates, each adding one unit of delay, an
address-bus change ripples through them and produces transient toggles —
the glitch energy that separates the gate-level estimate from the
layer-1 model.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ec import ADDRESS_BITS, MemoryMap, Region

from .library import or_tree, range_decoder
from .netlist import Netlist

#: Capacitance of a decoder-internal net (fF) — short local wires.
DECODER_NET_CAP_FF = 1.5
#: Fanout load within the decoder (fF per connection).
DECODER_FANOUT_CAP_FF = 0.6


@dataclasses.dataclass
class AddressDecoder:
    """A synthesised decoder plus the mapping back to regions."""

    netlist: Netlist
    width: int
    select_names: typing.Dict[str, Region]  # output name -> region
    miss_name: str
    #: netlist input name of each address bit, LSB first
    input_names: typing.Tuple[str, ...] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.input_names = tuple(f"a{i}" for i in range(self.width))

    def evaluate(self, address: int) -> typing.Optional[Region]:
        """Drive *address* for one cycle; return the selected region.

        Glitch/transition activity accumulates in :attr:`netlist`.
        Returns None on a miss.
        """
        inputs = {name: (address >> i) & 1
                  for i, name in enumerate(self.input_names)}
        outputs = self.netlist.step(inputs)
        if outputs[self.miss_name]:
            return None
        for name, region in self.select_names.items():
            if outputs[name]:
                return region
        # can only happen if the netlist disagrees with itself
        raise AssertionError("decoder selected no region and no miss")

    def idle_cycle(self) -> None:
        """One cycle with the address bus unchanged (held value)."""
        self.netlist.step({})


def required_width(memory_map: MemoryMap) -> int:
    """Number of low address bits the comparators must examine."""
    highest = max(region.end - 1 for region in memory_map.regions)
    return max(highest.bit_length(), 1)


def build_address_decoder(memory_map: MemoryMap,
                          address_bits: int = ADDRESS_BITS
                          ) -> AddressDecoder:
    """Synthesise the decoder for *memory_map*.

    Low bits feed per-region range comparators; any high bit outside
    the populated range forces a miss (real decoders AND a "high bits
    zero" term into every select).
    """
    if not memory_map.regions:
        raise ValueError("cannot build a decoder for an empty memory map")
    width = required_width(memory_map)
    if width > address_bits:
        raise ValueError("memory map exceeds the address width")
    netlist = Netlist("address_decoder",
                      default_net_cap_ff=DECODER_NET_CAP_FF,
                      fanout_cap_ff=DECODER_FANOUT_CAP_FF)
    low_bits = [netlist.input(f"a{i}", DECODER_NET_CAP_FF)
                for i in range(width)]
    high_bits = [netlist.input(f"a{i}", DECODER_NET_CAP_FF)
                 for i in range(width, address_bits)]
    if high_bits:
        high_nonzero = or_tree(netlist, high_bits)
        high_zero = netlist.not_gate(high_nonzero)
    else:
        high_zero = None
    select_names: typing.Dict[str, Region] = {}
    selects = []
    for region in memory_map.regions:
        in_window = range_decoder(netlist, low_bits, region.base,
                                  region.end)
        if high_zero is not None:
            in_window = netlist.and_gate(in_window, high_zero)
        output_name = f"sel_{region.name}"
        netlist.set_output(output_name, in_window)
        select_names[output_name] = region
        selects.append(in_window)
    miss = netlist.not_gate(or_tree(netlist, selects))
    netlist.set_output("miss", miss)
    return AddressDecoder(netlist, address_bits, select_names, "miss")
