"""Core vocabulary of the EC-style bus interface.

The paper's bus interface (MIPS "EC interface") supports a 36-bit
address bus, separate unidirectional 32-bit read and write data buses,
slave-inserted wait states, pipelined address/data phases and 8/16/32
bit transfers via merge patterns (§1, §3.1).  The enums here are shared
by every abstraction layer so that gate-level, layer-1 and layer-2
models speak about the same protocol.
"""

from __future__ import annotations

import enum

ADDRESS_BITS = 36
DATA_BITS = 32
BYTES_PER_WORD = DATA_BITS // 8
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1
DATA_MASK = (1 << DATA_BITS) - 1

#: Hard limits from the MIPS 4KSc core: at most four outstanding burst
#: instruction reads, four burst data reads and four burst writes (§1).
MAX_OUTSTANDING_PER_KIND = 4

#: Burst lengths the interface supports.  The 4KSc fills 4-word cache
#: lines; sub-bursts of 2 and single transfers are also legal.
LEGAL_BURST_LENGTHS = (1, 2, 4)


class BusState(enum.Enum):
    """Return state of every non-blocking bus interface call (§3.1).

    * ``REQUEST`` — the bus request has been accepted this cycle,
    * ``WAIT``    — the request is in progress,
    * ``OK``      — the request finished successfully,
    * ``ERROR``   — a bus error terminated the request.
    """

    REQUEST = "request"
    WAIT = "wait"
    OK = "ok"
    ERROR = "error"

    #: True when the master must stop re-invoking the interface;
    #: precomputed per member below (this attribute is read on every
    #: bus call of every cycle, so it must not be a property)
    finished: bool


for _state in BusState:
    _state.finished = _state in (BusState.OK, BusState.ERROR)
del _state


class Direction(enum.Enum):
    """Transfer direction, as seen from the master."""

    READ = "read"
    WRITE = "write"


class TransactionKind(enum.Enum):
    """The three outstanding-transaction categories of the core."""

    INSTRUCTION_READ = "instruction_read"
    DATA_READ = "data_read"
    DATA_WRITE = "data_write"

    @property
    def direction(self) -> Direction:
        if self is TransactionKind.DATA_WRITE:
            return Direction.WRITE
        return Direction.READ

    @property
    def is_instruction(self) -> bool:
        return self is TransactionKind.INSTRUCTION_READ


class MergePattern(enum.Enum):
    """Transfer widths supported by the data/write interfaces (§3.1).

    The value is the transfer width in bits; :meth:`byte_enables`
    derives the EC byte-enable pattern for a given address.
    """

    BYTE = 8
    HALFWORD = 16
    WORD = 32

    @property
    def num_bytes(self) -> int:
        return self.value // 8

    def alignment_ok(self, address: int) -> bool:
        """EC transfers must be naturally aligned to their width."""
        return address % self.num_bytes == 0

    def byte_enables(self, address: int) -> int:
        """4-bit byte-enable mask (bit *i* = byte lane *i* active).

        Little-endian lane numbering: byte lane = ``address % 4``.
        """
        if not self.alignment_ok(address):
            raise MisalignedAccessError(address, self)
        lane = address % BYTES_PER_WORD
        base_mask = (1 << self.num_bytes) - 1
        return base_mask << lane

    def data_mask(self, address: int) -> int:
        """Bit mask of the active data-bus lanes for *address*."""
        enables = self.byte_enables(address)
        mask = 0
        for lane in range(BYTES_PER_WORD):
            if enables & (1 << lane):
                mask |= 0xFF << (8 * lane)
        return mask


class AccessRights(enum.Flag):
    """Per-slave access right bits (read / write / execute, §3.1)."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXECUTE = enum.auto()
    ALL = READ | WRITE | EXECUTE

    def permits(self, kind: TransactionKind) -> bool:
        """True if a transaction of *kind* is allowed by these rights."""
        # plain int test on the member value: Flag ``&`` builds a new
        # member, and every decode asks this
        return bool(self._value_ & _RIGHT_NEEDED[kind])


#: TransactionKind -> the AccessRights bit it needs
_RIGHT_NEEDED = {
    TransactionKind.INSTRUCTION_READ: AccessRights.EXECUTE.value,
    TransactionKind.DATA_READ: AccessRights.READ.value,
    TransactionKind.DATA_WRITE: AccessRights.WRITE.value,
}


class ProtocolError(ValueError):
    """A request violated the EC interface rules."""


class MisalignedAccessError(ProtocolError):
    """Raised for accesses not aligned to their merge pattern."""

    def __init__(self, address: int, pattern: MergePattern) -> None:
        super().__init__(
            f"address {address:#x} is not aligned for {pattern.name} access")
        self.address = address
        self.pattern = pattern
