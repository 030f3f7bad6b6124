"""Layer-2 energy model: analytic per-phase estimation (§3.3).

"The bus process passes the transaction to the corresponding energy
estimation method after the address phase is finished. ... The entire
address phase for a burst read or write is calculated at once.  The
same mechanism is used for the read and write phase."

For each finished phase the model computes the signal transitions the
phase *must* have produced according to the interface specification:

* within a transaction, everything is exact — beat-to-beat data-bus
  Hamming distances are computable from the payload the model holds by
  reference;
* between transactions, the model is blind (it "considers each
  transaction phase on its own but does not consider interactions
  between following transactions"), so it charges characterised
  *average* inter-transaction Hamming distances for the buses and the
  full handshake toggle pattern for every control signal — even when
  consecutive transactions would have kept those lines asserted.

The second point is the documented source of the layer-2
over-estimation the paper reports in Table 2.

Since PR 10 the per-phase arithmetic is compiled against the table
(same engine-selection knob as layer 1): the address-phase sum and the
error/strobe coefficients are folded into constants once, and the
beat-to-beat Hamming products come from the shared transition-energy
LUTs.  Every folded value is produced by the identical float operations
in the identical order as the live lookups, so totals stay
byte-identical; the ``reference`` backend keeps the uncompiled lookups
for the equivalence suite.  Compiled state is cached against
:attr:`~repro.power.CharacterizationTable.lut_version`, so an in-place
recalibration can never leave stale constants in play.
"""

from __future__ import annotations

import typing

from repro.ec import SignalGroup, Transaction, TransactionKind

from .engine import resolve_backend
from .interfaces import EnergyAccumulator, PowerInterface
from .table import CharacterizationTable

#: (data bus, valid strobe, error strobe, EC LUT index of the bus) per
#: data-phase direction
_READ_CHANNEL = ("EB_RData", "EB_RdVal", "EB_RBErr", 9)
_WRITE_CHANNEL = ("EB_WData", "EB_WDRdy", "EB_WBErr", 12)

#: the address-phase control lines, in the historical accounting order
_ADDR_CONTROLS = ("EB_AValid", "EB_BFirst", "EB_BLast", "EB_ARdy",
                  "EB_Instr", "EB_Write", "EB_Burst", "EB_BE")


class Layer2PowerModel(PowerInterface):
    """Per-phase analytic energy estimation for the layer-2 bus.

    *backend* follows the layer-1 engine selection (``packed``, the
    default when ``None``, or ``reference`` for the uncompiled oracle).
    """

    def __init__(self, table: CharacterizationTable,
                 backend: typing.Optional[str] = None) -> None:
        self.table = table
        self.backend = resolve_backend(backend)
        self._compiled = self.backend != "reference"
        self._lut_source: typing.Optional[CharacterizationTable] = None
        self._lut_version = -1  # force a compile on first phase
        self._acc = EnergyAccumulator()
        self.group_energy_pj = {group: 0.0 for group in SignalGroup}
        self.address_phases = 0
        self.data_phases = 0
        self.cycles_estimated = 0

    # ------------------------------------------------------------------
    # compiled per-phase constants
    # ------------------------------------------------------------------

    def _recompile(self, table: CharacterizationTable) -> None:
        """Fold the per-phase table lookups into constants.

        Every constant is computed by the same float operations in the
        same order the live path performs per phase — folding them once
        cannot change a bit of any total.
        """
        coeff = table.coefficient
        energy = table.inter_txn_address_hamming * coeff("EB_A")
        for name in _ADDR_CONTROLS:
            energy += table.phase_toggles(name) * coeff(name)
        self._addr_phase_energy = energy
        luts = table.transition_luts()
        self._channels = {}
        for channel in (_READ_CHANNEL, _WRITE_CHANNEL):
            bus_name, valid_name, err_name, lut_index = channel
            self._channels[bus_name] = (
                table.inter_txn_data_hamming * coeff(bus_name),
                luts[lut_index],
                table.beat_toggles(valid_name),
                coeff(valid_name),
                2.0 * coeff(err_name),
            )
        self._lut_source = table
        self._lut_version = table.lut_version

    def _stale(self, table: CharacterizationTable) -> bool:
        return (self._lut_source is not table
                or self._lut_version != table.lut_version)

    # ------------------------------------------------------------------
    # hooks invoked by EcBusLayer2 when a phase finishes
    # ------------------------------------------------------------------

    def address_phase_finished(self, transaction: Transaction) -> None:
        """Book the energy of one whole address phase at once."""
        table = self.table
        if self._compiled:
            if self._stale(table):
                self._recompile(table)
            energy = self._addr_phase_energy
        else:
            coeff = table.coefficient
            # address bus: inter-transaction Hamming is unknowable at
            # this layer -> charge the characterised average
            energy = table.inter_txn_address_hamming * coeff("EB_A")
            # control and qualifier lines: the model considers the
            # phase in isolation, so it can only charge the
            # characterised *average* transitions per phase —
            # over-counting on workloads whose phases run more
            # back-to-back than the characterisation stimulus (the
            # paper's documented layer-2 error source)
            for name in _ADDR_CONTROLS:
                energy += table.phase_toggles(name) * coeff(name)
        self.address_phases += 1
        self.group_energy_pj[SignalGroup.ADDRESS] += energy
        self._acc.add(energy)

    def data_phase_finished(self, transaction: Transaction) -> None:
        """Book the energy of one whole data phase at once."""
        table = self.table
        is_write = transaction.kind is TransactionKind.DATA_WRITE
        data = transaction.data or []
        if self._compiled:
            if self._stale(table):
                self._recompile(table)
            bus_name = "EB_WData" if is_write else "EB_RData"
            (energy, lut, beat_toggles, valid_coeff,
             error_energy) = self._channels[bus_name]
            # first beat vs whatever was on the bus is already folded
            # into the channel constant; remaining beats: exact Hamming
            # from the payload via the shared transition-energy LUT
            for beat in range(1, transaction.beats_done):
                energy += lut[(data[beat - 1] ^ data[beat]).bit_count()]
            energy += (beat_toggles * transaction.burst_length
                       * valid_coeff)
            if transaction.error:
                energy += error_energy
        else:
            coeff = table.coefficient
            channel = _WRITE_CHANNEL if is_write else _READ_CHANNEL
            bus_name, valid_name, err_name, _lut_index = channel
            # first beat vs whatever was on the bus: characterised avg
            energy = table.inter_txn_data_hamming * coeff(bus_name)
            # remaining beats: exact Hamming from the payload (pointer
            # passing makes the whole burst visible at once)
            for beat in range(1, transaction.beats_done):
                energy += (data[beat - 1] ^ data[beat]).bit_count() \
                    * coeff(bus_name)
            # valid strobe: characterised average transitions per beat
            energy += (table.beat_toggles(valid_name)
                       * transaction.burst_length * coeff(valid_name))
            if transaction.error:
                energy += 2.0 * coeff(err_name)
        self.data_phases += 1
        group = SignalGroup.WRITE if is_write else SignalGroup.READ
        self.group_energy_pj[group] += energy
        self._acc.add(energy)

    def account_cycles(self, cycles: int) -> None:
        """Charge the per-cycle clock baseline for *cycles* cycles.

        Layer 2 has no per-cycle hook, so the harness calls this once
        at the end of a run with the bus's cycle counter.
        """
        if cycles < self.cycles_estimated:
            raise ValueError("cycle counter went backwards")
        delta = cycles - self.cycles_estimated
        self.cycles_estimated = cycles
        energy = delta * self.table.clock_energy_per_cycle_pj
        self.group_energy_pj[SignalGroup.CLOCK] += energy
        self._acc.add(energy)

    # ------------------------------------------------------------------
    # PowerInterface (only the since-last-call method, §3.3)
    # ------------------------------------------------------------------

    @property
    def total_energy_pj(self) -> float:
        return self._acc.total

    def energy_since_last_call_pj(self) -> float:
        return self._acc.since_last_call()
