"""Direct unit tests for the transaction queues, the finish pool and
the behavioural-slave building blocks."""

import pytest

from repro.ec import (AccessRights, BusState, SlaveResponse, WaitStates,
                      data_read, data_write)
from repro.faults import ErrorSlave
from repro.tlm.queues import FinishPool, TransactionQueue
from repro.tlm.slave import (BehaviouralSlave, MemorySlave,
                             RegisterSlave, _lane_merge)


class TestTransactionQueue:
    def test_fifo_order(self):
        queue = TransactionQueue("q")
        first, second = data_read(0x0), data_read(0x4)
        queue.push(first)
        queue.push(second)
        assert queue.head() is first
        assert queue.pop() is first
        assert queue.pop() is second

    def test_empty_head_is_none(self):
        assert TransactionQueue("q").head() is None

    def test_bool_and_len(self):
        queue = TransactionQueue("q")
        assert not queue and len(queue) == 0
        queue.push(data_read(0x0))
        assert queue and len(queue) == 1

    def test_statistics(self):
        queue = TransactionQueue("q")
        for i in range(3):
            queue.push(data_read(4 * i))
        queue.pop()
        queue.push(data_read(0x100))
        assert queue.total_pushed == 4
        assert queue.peak_occupancy == 3

    def test_iteration(self):
        queue = TransactionQueue("q")
        txns = [data_read(4 * i) for i in range(3)]
        for txn in txns:
            queue.push(txn)
        assert list(queue) == txns


class TestFinishPool:
    def test_collect_by_identity(self):
        pool = FinishPool()
        txn = data_read(0x0)
        pool.push(txn)
        assert txn in pool
        assert pool.collect(txn)
        assert not pool.collect(txn)  # gone after pickup

    def test_collect_wrong_transaction(self):
        pool = FinishPool()
        pool.push(data_read(0x0))
        assert not pool.collect(data_read(0x4))
        assert len(pool) == 1

    def test_total_finished(self):
        pool = FinishPool()
        for i in range(5):
            pool.push(data_read(4 * i))
        assert pool.total_finished == 5


class TestLaneMerge:
    @pytest.mark.parametrize("old,new,enables,expected", [
        (0x11223344, 0xAABBCCDD, 0b1111, 0xAABBCCDD),
        (0x11223344, 0xAABBCCDD, 0b0001, 0x112233DD),
        (0x11223344, 0xAABBCCDD, 0b1000, 0xAA223344),
        (0x11223344, 0xAABBCCDD, 0b0110, 0x11BBCC44),
        (0x11223344, 0xAABBCCDD, 0b0000, 0x11223344),
    ])
    def test_merge(self, old, new, enables, expected):
        assert _lane_merge(old, new, enables) == expected

    @pytest.mark.parametrize("enables", range(16))
    def test_matches_per_lane_merge(self, enables):
        old, new = 0x11223344, 0x1_AABBCCDD  # new wider than the bus
        expected = old
        for lane in range(4):
            if enables & (1 << lane):
                mask = 0xFF << (8 * lane)
                expected = (expected & ~mask) | (new & mask)
        assert _lane_merge(old, new, enables) == expected & 0xFFFFFFFF


def _beats_until_ok(beat):
    """Call *beat* until it answers OK; the number of WAITs first."""
    waits = 0
    while beat().state is BusState.WAIT:
        waits += 1
    return waits


class TestWaitStatePacing:
    def _slave(self):
        return MemorySlave(0x0, 0x100, WaitStates(read=3, write=5))

    def test_beat_waits_its_wait_states(self):
        slave = self._slave()
        assert _beats_until_ok(lambda: slave.read_beat(0, 0b1111)) == 3
        assert _beats_until_ok(
            lambda: slave.write_beat(4, 0b1111, 1)) == 5
        assert (slave.reads, slave.writes) == (1, 1)

    def test_read_and_write_in_one_cycle_count_down_independently(self):
        slave = self._slave()
        answers = []
        for _cycle in range(6):
            answers.append((slave.read_beat(8, 0b1111).state,
                            slave.write_beat(12, 0b1111, 7).state))
        reads = [read for read, _write in answers]
        writes = [write for _read, write in answers]
        assert reads[:3] == [BusState.WAIT] * 3
        assert reads[3] is BusState.OK
        assert writes == [BusState.WAIT] * 5 + [BusState.OK]
        assert slave.peek(12) == 7

    def test_new_offset_resamples(self):
        slave = self._slave()
        assert slave.read_beat(0, 0b1111).state is BusState.WAIT
        # a different beat address starts a fresh countdown
        assert _beats_until_ok(lambda: slave.read_beat(4, 0b1111)) == 3

    @pytest.mark.parametrize("direction,read_waits,write_waits", [
        (None, 3, 5), ("r", 3, 3), ("w", 1, 5)])
    def test_cancel_pending_clears_exactly_its_slots(
            self, direction, read_waits, write_waits):
        slave = self._slave()
        for _ in range(2):  # two wait states into each countdown
            slave.read_beat(0, 0b1111)
            slave.write_beat(4, 0b1111, 1)
        slave.cancel_pending(direction)
        # a cleared slot re-samples the full count; a kept one resumes
        assert _beats_until_ok(
            lambda: slave.read_beat(0, 0b1111)) == read_waits
        assert _beats_until_ok(
            lambda: slave.write_beat(4, 0b1111, 1)) == write_waits

    def test_zero_wait_states_answer_at_once(self):
        slave = MemorySlave(0x0, 0x100)
        slave.poke(0, 42)
        assert slave.read_beat(0, 0b1111).data == 42
        assert slave.write_beat(0, 0b1111, 43).state is BusState.OK
        assert slave.peek(0) == 43


class TestBlockInterface:
    def test_read_block_returns_words(self):
        memory = MemorySlave(0x0, 0x100)
        memory.load(0, [1, 2, 3, 4])
        words, error = memory.read_block(0, 4, 0b1111)
        assert not error
        assert words == [1, 2, 3, 4]
        assert memory.reads == 4

    def test_write_block_stores_words(self):
        memory = MemorySlave(0x0, 0x100)
        beats_ok, error = memory.write_block(8, [7, 8], 0b1111)
        assert not error and beats_ok == 2
        assert memory.peek(8) == 7 and memory.peek(12) == 8
        assert memory.writes == 2

    def test_single_beat_block_respects_enables(self):
        memory = MemorySlave(0x0, 0x100)
        memory.poke(0, 0x11223344)
        memory.write_block(0, [0x000000FF], 0b0001)
        assert memory.peek(0) == 0x112233FF

    def test_error_slave_blocks_report_error(self):
        slave = ErrorSlave(0x0)
        words, error = slave.read_block(0, 2, 0b1111)
        assert error and words == []
        beats_ok, error = slave.write_block(0, [1], 0b1111)
        assert error and beats_ok == 0


class TestRegisterSlaveHooks:
    def test_read_hook_overrides_storage(self):
        regs = RegisterSlave(0x0, 4)
        regs.on_read(2, lambda: 0x1234)
        assert regs.do_read(8, 0b1111).data == 0x1234

    def test_write_hook_sees_merged_value(self):
        seen = []
        regs = RegisterSlave(0x0, 4)
        regs.registers[1] = 0xAABBCCDD
        regs.on_write(1, seen.append)
        regs.do_write(4, 0b0001, 0x000000EE)
        assert seen == [0xAABBCCEE]

    def test_unhooked_register_is_plain_storage(self):
        regs = RegisterSlave(0x0, 4)
        regs.do_write(12, 0b1111, 99)
        assert regs.do_read(12, 0b1111).data == 99


class TestSlaveConstruction:
    def test_memory_size_must_be_word_multiple(self):
        with pytest.raises(ValueError):
            MemorySlave(0x0, 0x101)

    def test_offset_of_validates_window(self):
        memory = MemorySlave(0x1000, 0x100)
        assert memory.offset_of(0x1004) == 4
        with pytest.raises(ValueError):
            memory.offset_of(0x2000)

    def test_contains(self):
        memory = MemorySlave(0x1000, 0x100)
        assert memory.contains(0x1000)
        assert memory.contains(0x10FF)
        assert not memory.contains(0x1100)

    def test_wait_states_setter(self):
        memory = MemorySlave(0x0, 0x100)
        memory.wait_states = WaitStates(read=3)
        assert memory.wait_states.read == 3


def _memory_subclasses(cls=MemorySlave):
    for sub in cls.__subclasses__():
        yield sub
        yield from _memory_subclasses(sub)


class TestWordMemoryBlockReads:
    """``MemorySlave.read_block`` slices the word array; the inherited
    per-beat loop is the oracle it must match word for word."""

    SIZE = 0x40  # 16 words

    @pytest.fixture(params=["rom", "scratchpad", "eeprom", "flash"])
    def twins(self, request):
        from repro.soc.memory import Eeprom, Flash, Rom, ScratchpadRam
        cls = {"rom": Rom, "scratchpad": ScratchpadRam,
               "eeprom": Eeprom, "flash": Flash}[request.param]
        pair = []
        for _ in range(2):
            memory = cls(0x1000, size=self.SIZE)
            memory.load(0, [0x1000 + 17 * i for i in range(16)])
            pair.append(memory)
        return pair

    def _both(self, twins, offset, num_words, enables=0b1111):
        fast, oracle = twins
        outcomes = []
        for memory, read in ((fast, fast.read_block),
                             (oracle, lambda *args: BehaviouralSlave
                              .read_block(oracle, *args))):
            try:
                outcome = read(offset, num_words, enables)
            except IndexError:
                outcome = IndexError
            outcomes.append((outcome, memory.reads))
        return outcomes

    @pytest.mark.parametrize("offset,num_words,enables", [
        (0, 16, 0b1111), (0, 1, 0b0001), (8, 4, 0b1111), (6, 3, 0b1111),
        (60, 1, 0b1000), (63, 1, 0b1111), (32, 0, 0b1111),
    ])
    def test_in_window_reads_identical(self, twins, offset, num_words,
                                       enables):
        fast, oracle = self._both(twins, offset, num_words, enables)
        assert fast == oracle
        (words, error), reads = fast
        assert not error and len(words) == num_words == reads

    @pytest.mark.parametrize("offset,num_words", [
        (56, 4), (60, 2), (64, 1), (0x100, 2), (-4, 1), (-1, 3), (-8, 4),
        (8, -2),
    ])
    def test_straddling_and_out_of_range_reads_identical(
            self, twins, offset, num_words):
        fast, oracle = self._both(twins, offset, num_words)
        assert fast == oracle

    def test_block_read_returns_a_copy(self, twins):
        memory = twins[0]
        words, _ = memory.read_block(0, 2, 0b1111)
        words[0] = 0xDEAD
        assert memory.peek(0) == 0x1000

    def test_no_library_memory_overrides_do_read(self):
        import repro.soc  # noqa: F401 - registers the memory subclasses
        library = [cls for cls in _memory_subclasses()
                   if cls.__module__.startswith("repro.")]
        assert library
        for cls in library:
            assert cls.do_read is MemorySlave.do_read, cls

    def test_do_read_override_keeps_per_beat_path(self):
        class FailsFromWordTwo(MemorySlave):
            def do_read(self, offset, byte_enables):
                if offset >= 8:
                    return SlaveResponse.error()
                return super().do_read(offset, byte_enables)

        memory = FailsFromWordTwo(0x0, 0x100)
        memory.load(0, [5, 6, 7])
        assert memory.read_block(0, 3, 0b1111) == ([5, 6], True)
        assert memory.reads == 2
