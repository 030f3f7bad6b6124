"""Unit tests for EC protocol vocabulary: bus states, merge patterns,
access rights."""

import pytest

from repro.ec import (AccessRights, BusState, Direction, MergePattern,
                      MisalignedAccessError, TransactionKind)


class TestBusState:
    def test_finished_states(self):
        assert BusState.OK.finished
        assert BusState.ERROR.finished

    def test_unfinished_states(self):
        assert not BusState.REQUEST.finished
        assert not BusState.WAIT.finished


class TestTransactionKind:
    def test_directions(self):
        assert TransactionKind.INSTRUCTION_READ.direction is Direction.READ
        assert TransactionKind.DATA_READ.direction is Direction.READ
        assert TransactionKind.DATA_WRITE.direction is Direction.WRITE

    def test_instruction_flag(self):
        assert TransactionKind.INSTRUCTION_READ.is_instruction
        assert not TransactionKind.DATA_READ.is_instruction


class TestMergePattern:
    def test_num_bytes(self):
        assert MergePattern.BYTE.num_bytes == 1
        assert MergePattern.HALFWORD.num_bytes == 2
        assert MergePattern.WORD.num_bytes == 4

    def test_word_alignment(self):
        assert MergePattern.WORD.alignment_ok(0x100)
        assert not MergePattern.WORD.alignment_ok(0x102)

    def test_halfword_alignment(self):
        assert MergePattern.HALFWORD.alignment_ok(0x102)
        assert not MergePattern.HALFWORD.alignment_ok(0x101)

    def test_byte_always_aligned(self):
        for address in range(8):
            assert MergePattern.BYTE.alignment_ok(address)

    @pytest.mark.parametrize("address,expected", [
        (0x0, 0b0001), (0x1, 0b0010), (0x2, 0b0100), (0x3, 0b1000),
    ])
    def test_byte_enables_byte(self, address, expected):
        assert MergePattern.BYTE.byte_enables(address) == expected

    @pytest.mark.parametrize("address,expected", [
        (0x0, 0b0011), (0x2, 0b1100),
    ])
    def test_byte_enables_halfword(self, address, expected):
        assert MergePattern.HALFWORD.byte_enables(address) == expected

    def test_byte_enables_word(self):
        assert MergePattern.WORD.byte_enables(0x4) == 0b1111

    def test_byte_enables_misaligned_raises(self):
        with pytest.raises(MisalignedAccessError):
            MergePattern.WORD.byte_enables(0x2)

    @pytest.mark.parametrize("pattern,address,mask", [
        (MergePattern.BYTE, 0x1, 0x0000FF00),
        (MergePattern.HALFWORD, 0x2, 0xFFFF0000),
        (MergePattern.WORD, 0x0, 0xFFFFFFFF),
    ])
    def test_data_mask(self, pattern, address, mask):
        assert pattern.data_mask(address) == mask


class TestAccessRights:
    def test_execute_permits_ifetch(self):
        assert AccessRights.EXECUTE.permits(TransactionKind.INSTRUCTION_READ)
        assert not AccessRights.READ.permits(
            TransactionKind.INSTRUCTION_READ)

    def test_read_permits_data_read(self):
        assert AccessRights.READ.permits(TransactionKind.DATA_READ)
        assert not AccessRights.WRITE.permits(TransactionKind.DATA_READ)

    def test_write_permits_data_write(self):
        assert AccessRights.WRITE.permits(TransactionKind.DATA_WRITE)
        assert not AccessRights.READ.permits(TransactionKind.DATA_WRITE)

    def test_all_permits_everything(self):
        for kind in TransactionKind:
            assert AccessRights.ALL.permits(kind)

    def test_none_permits_nothing(self):
        for kind in TransactionKind:
            assert not AccessRights.NONE.permits(kind)

    def test_combined_rights(self):
        rights = AccessRights.READ | AccessRights.EXECUTE
        assert rights.permits(TransactionKind.DATA_READ)
        assert rights.permits(TransactionKind.INSTRUCTION_READ)
        assert not rights.permits(TransactionKind.DATA_WRITE)

    @pytest.mark.parametrize("kind", list(TransactionKind))
    @pytest.mark.parametrize("bits", range(8))
    def test_every_rights_combination(self, bits, kind):
        """All 8 right sets x 3 kinds against Flag arithmetic."""
        rights = AccessRights(bits)
        needed = {TransactionKind.INSTRUCTION_READ: AccessRights.EXECUTE,
                  TransactionKind.DATA_READ: AccessRights.READ,
                  TransactionKind.DATA_WRITE: AccessRights.WRITE}[kind]
        assert rights.permits(kind) is bool(rights & needed)
