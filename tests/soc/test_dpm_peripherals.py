"""DPM wiring of the peripherals: wake latency, event scaling, frozen
ticks, and byte-identity when no power state machine is attached."""

import pytest

from repro.ec import WaitStates
from repro.power import (DEFAULT_STATE_PROFILES, PowerState,
                         PowerStateMachine, StateProfile)
from repro.soc.memory import Eeprom
from repro.soc.rng import TrueRandomNumberGenerator
from repro.soc.timer import TimerUnit
from repro.soc.uart import CTRL, CTRL_ENABLE, DATA, Uart

UART_BASE = 0x4000_0000


def enabled_uart(psm=None):
    uart = Uart(UART_BASE)
    uart.registers[CTRL] = CTRL_ENABLE
    if psm is not None:
        uart.attach_power_state_machine(psm)
    return uart


class TestFrozenTicks:
    def test_gated_uart_books_nothing_and_moves_no_bytes(self):
        psm = PowerStateMachine("uart")
        uart = enabled_uart(psm)
        uart.tx_fifo.append(0x41)
        psm.request(PowerState.CLOCK_GATED)
        before = uart.energy_pj
        for _ in range(100):
            uart.tick()
        assert uart.energy_pj == before
        assert uart.transmitted == []
        psm.wake()
        for _ in range(uart.registers[3] + 1):
            uart.tick()
        assert uart.transmitted == [0x41]

    def test_gated_trng_stops_harvesting(self):
        psm = PowerStateMachine("trng")
        trng = TrueRandomNumberGenerator(UART_BASE)
        trng.attach_power_state_machine(psm)
        psm.request(PowerState.SLEEP)
        state = trng._state
        for _ in range(100):
            trng.tick()
        assert trng._state == state
        assert trng.energy_pj == 0.0
        assert not trng.ready

    def test_gated_timer_keeps_its_count(self):
        psm = PowerStateMachine("timers")
        timers = TimerUnit(UART_BASE)
        timers.attach_power_state_machine(psm)
        timers.configure(0, reload=10)
        psm.request(PowerState.CLOCK_GATED)
        for _ in range(50):
            timers.tick()
        assert timers.count(0) == 10
        assert timers.overflows[0] == 0


class TestEventScaling:
    def test_idle_state_scales_dynamic_events(self):
        psm = PowerStateMachine("uart")
        uart = enabled_uart(psm)
        psm.request(PowerState.IDLE)
        uart.book("idle_cycle")
        scale = DEFAULT_STATE_PROFILES[PowerState.IDLE].event_scale
        assert uart.energy_pj == pytest.approx(0.02 * scale)

    def test_register_access_wakes_before_booking(self):
        psm = PowerStateMachine("uart")
        uart = enabled_uart(psm)
        psm.request(PowerState.CLOCK_GATED)
        uart.do_read(DATA, 0b1111)
        # the access woke the device: the read is booked at full price
        assert psm.state is PowerState.ACTIVE
        assert uart.energy_pj == pytest.approx(
            uart.ENERGY_COSTS_PJ["register_read"])


class TestWakeLatency:
    def test_peripheral_wait_states_pay_the_wake(self):
        psm = PowerStateMachine("uart")
        uart = enabled_uart(psm)
        base = uart.wait_states
        psm.request(PowerState.CLOCK_GATED)
        woken = uart.wait_states
        wake = DEFAULT_STATE_PROFILES[PowerState.CLOCK_GATED].wake_cycles
        assert woken.read == base.read + wake
        assert woken.write == base.write + wake
        assert psm.wakes == 1
        # awake again: back to the base timing
        assert uart.wait_states.read == base.read

    def test_eeprom_wake_stacks_on_programming_busy(self):
        psm = PowerStateMachine("eeprom")
        eeprom = Eeprom(0x0800_0000, 64)
        eeprom.attach_power_state_machine(psm)
        base_read = eeprom.wait_states.read
        eeprom.bind_cycle_source(lambda: 0)
        eeprom._busy_until = 10  # programming window still open
        psm.request(PowerState.SLEEP)
        wake = DEFAULT_STATE_PROFILES[PowerState.SLEEP].wake_cycles
        assert eeprom.wait_states.read == \
            base_read + wake + eeprom.busy_extra_waits
        # wake paid once; the busy window keeps stalling on its own
        assert eeprom.wait_states.read == \
            base_read + eeprom.busy_extra_waits

    def test_custom_profile_changes_the_latency(self):
        psm = PowerStateMachine("uart", profiles={
            PowerState.CLOCK_GATED: StateProfile(wake_cycles=7)})
        uart = enabled_uart(psm)
        base = uart.wait_states
        psm.request(PowerState.CLOCK_GATED)
        assert uart.wait_states.read == base.read + 7


class TestEepromWaitStates:
    """The stretched EEPROM timing is built once per extra count; every
    source of extra wait states must still answer the exact value."""

    def _eeprom(self):
        psm = PowerStateMachine("eeprom")
        eeprom = Eeprom(0x0800_0000, 64)
        eeprom.attach_power_state_machine(psm)
        eeprom.bind_cycle_source(lambda: 0)
        return eeprom, psm

    @staticmethod
    def _expected(extra):
        return WaitStates(address=1, read=2 + extra, write=3 + extra)

    def test_idle(self):
        eeprom, _psm = self._eeprom()
        assert eeprom.wait_states == self._expected(0)

    def test_programming_busy(self):
        eeprom, _psm = self._eeprom()
        eeprom._busy_until = 10
        for _ in range(3):
            assert eeprom.wait_states == self._expected(
                eeprom.busy_extra_waits)
        eeprom._busy_until = -1
        assert eeprom.wait_states == self._expected(0)

    @pytest.mark.parametrize("state", [PowerState.CLOCK_GATED,
                                       PowerState.SLEEP])
    def test_psm_wake(self, state):
        eeprom, psm = self._eeprom()
        wake = DEFAULT_STATE_PROFILES[state].wake_cycles
        for _ in range(2):
            psm.request(state)
            assert eeprom.wait_states == self._expected(wake)
            assert eeprom.wait_states == self._expected(0)

    def test_wake_and_busy_stack(self):
        eeprom, psm = self._eeprom()
        eeprom._busy_until = 10
        busy = eeprom.busy_extra_waits
        for state in (PowerState.SLEEP, PowerState.CLOCK_GATED,
                      PowerState.SLEEP):
            wake = DEFAULT_STATE_PROFILES[state].wake_cycles
            psm.request(state)
            assert eeprom.wait_states == self._expected(wake + busy)
            assert eeprom.wait_states == self._expected(busy)


class TestByteIdentity:
    """No PSM attached -> bit-identical to the unmanaged peripheral."""

    def run_traffic(self, uart):
        for _ in range(3):
            uart.do_write(DATA, 0b1111, 0x55)
        for _ in range(200):
            uart.tick()
        uart.do_read(DATA, 0b1111)
        return uart.energy_pj, list(uart.transmitted)

    def test_unattached_equals_active_psm(self):
        plain = self.run_traffic(enabled_uart())
        managed = self.run_traffic(
            enabled_uart(PowerStateMachine("uart")))
        # an attached PSM that never leaves ACTIVE books identically
        assert managed == plain

    def test_detach_restores_the_plain_path(self):
        psm = PowerStateMachine("uart")
        uart = enabled_uart(psm)
        psm.request(PowerState.SLEEP)
        uart.attach_power_state_machine(None)
        assert uart.wait_states.read == enabled_uart().wait_states.read
        before = uart.energy_pj
        uart.book("idle_cycle")
        assert uart.energy_pj == pytest.approx(before + 0.02)
