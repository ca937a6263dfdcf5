"""Data memory interface used by the CPU simulators.

The simulators only require the small protocol defined by
:class:`DataMemory`; :class:`FlatMemory` is the simple dense implementation
used in tests and standalone runs, while :mod:`repro.mem` provides the banked
NCPU memory system that implements the same protocol.
"""

from __future__ import annotations

from struct import Struct
from typing import Iterable, Protocol, runtime_checkable

from repro.errors import MemoryError_


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


#: little-endian codecs by access size (at index 1, 2 and 4), unsigned and
#: signed; module globals, not attributes, because a ``Struct`` does not pickle
_U8, _U16, _U32, _S8, _S16, _S32 = (Struct("<" + code) for code in "BHIbhi")
_UNPACK = (None, _U8.unpack_from, _U16.unpack_from, None, _U32.unpack_from)
_UNPACK_SIGNED = (None, _S8.unpack_from, _S16.unpack_from, None, _S32.unpack_from)
_PACK = (None, _U8.pack_into, _U16.pack_into, None, _U32.pack_into)
_WIDTH_MASK = (0, 0xFF, 0xFFFF, 0, 0xFFFFFFFF)


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
        return (_UNPACK_SIGNED if signed else _UNPACK)[size](self._bytes, offset)[0]

    def store(self, addr: int, value: int, size: int) -> None:
        offset = addr - self.base
        if size not in (1, 2, 4) or addr % size or addr < 0 or not 0 <= offset <= self.size - size:
            check_access(addr, size)
            self._offset(addr, size)
        self.store_count += 1
        _PACK[size](self._bytes, offset, value & _WIDTH_MASK[size])

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


#: log2 of the bytes per page a :class:`StoreJournal` copies out
JOURNAL_PAGE_BITS = 12


class StoreJournal:
    """A :class:`FlatMemory` whose stores can be undone.

    ``load`` is the memory's own.  ``store`` first copies out the page of
    addresses it writes into (``2**JOURNAL_PAGE_BITS`` bytes, aligned),
    once per page, and ``undo()`` writes those copies and both access
    counters back.  An aligned access never straddles a page, and the
    copies never hold more than the memory's bytes, however many stores
    run.
    """

    __slots__ = ("load", "store", "pages", "_memory", "_counts")

    def __init__(self, memory: FlatMemory):
        self.load = memory.load
        self._memory = memory
        self._counts = memory.load_count, memory.store_count
        #: page number -> (buffer offset, the page's bytes before its
        #: first store); empty for a page outside the buffer, where the
        #: store raises before it writes
        self.pages: dict = {}
        pages, buffer, base, store = self.pages, memory._bytes, memory.base, memory.store

        def journaled(addr: int, value: int, size: int) -> None:
            page = addr >> JOURNAL_PAGE_BITS
            if page not in pages:
                start = max((page << JOURNAL_PAGE_BITS) - base, 0)
                end = ((page + 1) << JOURNAL_PAGE_BITS) - base
                pages[page] = start, buffer[start:max(end, start)]
            store(addr, value, size)

        self.store = journaled

    def undo(self) -> None:
        buffer = self._memory._bytes
        for start, old in self.pages.values():
            buffer[start:start + len(old)] = old
        self._memory.load_count, self._memory.store_count = self._counts
