"""Data memory interface used by the CPU simulators.

The simulators only require the small protocol defined by
:class:`DataMemory`; :class:`FlatMemory` is the simple dense implementation
used in tests and standalone runs, while :mod:`repro.mem` provides the banked
NCPU memory system that implements the same protocol.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from repro.errors import MemoryError_
from repro.isa.encoding import sign_extend, to_unsigned32


@runtime_checkable
class DataMemory(Protocol):
    """Byte-addressable little-endian memory."""

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        """Read ``size`` bytes (1, 2 or 4) at ``addr``."""

    def store(self, addr: int, value: int, size: int) -> None:
        """Write the low ``size`` bytes of ``value`` at ``addr``."""


def check_access(addr: int, size: int) -> None:
    if size not in (1, 2, 4):
        raise MemoryError_(f"unsupported access size {size}")
    if addr < 0:
        raise MemoryError_(f"negative address {addr:#x}")
    if addr % size:
        raise MemoryError_(f"misaligned {size}-byte access at {addr:#x}")


class FlatMemory:
    """A dense little-endian memory of ``size`` bytes starting at ``base``."""

    def __init__(self, size: int = 1 << 20, base: int = 0):
        self.base = base
        self.size = size
        self._bytes = bytearray(size)
        self.load_count = 0
        self.store_count = 0

    def _offset(self, addr: int, size: int) -> int:
        offset = addr - self.base
        if not 0 <= offset <= self.size - size:
            raise MemoryError_(
                f"address {addr:#x} outside memory [{self.base:#x}, {self.base + self.size:#x})"
            )
        return offset

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        offset = addr - self.base
        if size not in (1, 2, 4) or addr % size or addr < 0 or not 0 <= offset <= self.size - size:
            # the guard is exactly what these two reject; they run only
            # to raise that rejection's error, in their order
            check_access(addr, size)
            self._offset(addr, size)
        self.load_count += 1
        value = int.from_bytes(self._bytes[offset:offset + size], "little")
        if signed:
            value = sign_extend(value, 8 * size)
        return value

    def store(self, addr: int, value: int, size: int) -> None:
        offset = addr - self.base
        if size not in (1, 2, 4) or addr % size or addr < 0 or not 0 <= offset <= self.size - size:
            check_access(addr, size)
            self._offset(addr, size)
        self.store_count += 1
        self._bytes[offset:offset + size] = (to_unsigned32(value) & ((1 << (8 * size)) - 1)) \
            .to_bytes(size, "little")

    # convenience helpers -------------------------------------------------
    def load_word(self, addr: int) -> int:
        return self.load(addr, 4)

    def write_words(self, addr: int, values: Iterable[int]) -> None:
        for index, value in enumerate(values):
            self.store(addr + 4 * index, value, 4)

    def read_words(self, addr: int, count: int):
        return [self.load(addr + 4 * i, 4) for i in range(count)]

    def write_bytes(self, addr: int, data: bytes) -> None:
        offset = self._offset(addr, 1)
        if offset + len(data) > self.size:
            raise MemoryError_("byte write runs off the end of memory")
        self._bytes[offset:offset + len(data)] = data
