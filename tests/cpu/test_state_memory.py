"""Tests for the register file, flat memory and its store journal."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cpu import FlatMemory, RegisterFile
from repro.cpu.memory import JOURNAL_PAGE_BITS, StoreJournal
from repro.errors import MemoryError_, SimulationError
from repro.isa.encoding import sign_extend, to_unsigned32
from repro.mem import SRAMBank
from tests.mem.test_sram_arbiter import ACCESSES


class TestRegisterFile:
    def test_x0_hardwired(self):
        regs = RegisterFile()
        regs.write(0, 123)
        assert regs.read(0) == 0

    def test_write_read(self):
        regs = RegisterFile()
        regs.write(5, 99)
        assert regs.read(5) == 99

    def test_values_wrap_to_32_bits(self):
        regs = RegisterFile()
        regs.write(1, -1)
        assert regs.read(1) == 0xFFFFFFFF
        assert regs.read_signed(1) == -1

    def test_index_checked(self):
        regs = RegisterFile()
        with pytest.raises(SimulationError):
            regs.read(32)
        with pytest.raises(SimulationError):
            regs.write(-1, 0)

    def test_snapshot_roundtrip(self):
        regs = RegisterFile()
        regs.write(3, 42)
        other = RegisterFile()
        other.load_snapshot(regs.snapshot())
        assert other.read(3) == 42

    def test_getitem_setitem(self):
        regs = RegisterFile()
        regs[7] = 11
        assert regs[7] == 11


class TestFlatMemory:
    def test_word_roundtrip(self):
        mem = FlatMemory(size=64)
        mem.store(8, 0xDEADBEEF, 4)
        assert mem.load(8, 4) == 0xDEADBEEF

    def test_little_endian_bytes(self):
        mem = FlatMemory(size=64)
        mem.store(0, 0x11223344, 4)
        assert mem.load(0, 1) == 0x44
        assert mem.load(3, 1) == 0x11

    def test_signed_loads(self):
        mem = FlatMemory(size=64)
        mem.store(0, 0xFF, 1)
        assert mem.load(0, 1, signed=True) == -1
        assert mem.load(0, 1, signed=False) == 0xFF
        mem.store(2, 0x8000, 2)
        assert mem.load(2, 2, signed=True) == -0x8000

    def test_halfword(self):
        mem = FlatMemory(size=64)
        mem.store(2, 0xBEEF, 2)
        assert mem.load(2, 2) == 0xBEEF

    def test_misaligned_rejected(self):
        mem = FlatMemory(size=64)
        with pytest.raises(MemoryError_):
            mem.load(2, 4)
        with pytest.raises(MemoryError_):
            mem.store(1, 0, 2)

    def test_out_of_range_rejected(self):
        mem = FlatMemory(size=64)
        with pytest.raises(MemoryError_):
            mem.load(64, 4)
        with pytest.raises(MemoryError_):
            mem.load(-4, 4)

    def test_base_offset(self):
        mem = FlatMemory(size=64, base=0x1000)
        mem.store(0x1000, 7, 4)
        assert mem.load(0x1000, 4) == 7
        with pytest.raises(MemoryError_):
            mem.load(0, 4)

    def test_bad_size_rejected(self):
        mem = FlatMemory(size=64)
        with pytest.raises(MemoryError_):
            mem.load(0, 3)

    def test_access_counters(self):
        mem = FlatMemory(size=64)
        mem.store(0, 1, 4)
        mem.load(0, 4)
        mem.load(0, 4)
        assert (mem.load_count, mem.store_count) == (2, 1)

    def test_write_words_read_words(self):
        mem = FlatMemory(size=64)
        mem.write_words(0, [1, 2, 3])
        assert mem.read_words(0, 3) == [1, 2, 3]

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=0, max_value=15).map(lambda i: i * 4))
    def test_store_load_roundtrip(self, value, addr):
        mem = FlatMemory(size=64)
        mem.store(addr, value, 4)
        assert mem.load(addr, 4) == value

    def test_truncation_on_narrow_store(self):
        mem = FlatMemory(size=64)
        mem.store(0, 0x1FF, 1)
        assert mem.load(0, 1) == 0xFF


class TestFlatMemoryRejections:
    """The exact error of every rejected access, and which one wins when
    an access breaks several rules: size, then sign, then alignment,
    then range."""

    @pytest.mark.parametrize("op", ["load", "store"])
    @pytest.mark.parametrize("addr, size, message", [
        (0, 3, "unsupported access size 3"),
        (0, 0, "unsupported access size 0"),
        (-4, 4, "negative address -0x4"),
        (2, 4, "misaligned 4-byte access at 0x2"),
        (1, 2, "misaligned 2-byte access at 0x1"),
        (64, 4, "address 0x40 outside memory [0x0, 0x40)"),
        (64, 1, "address 0x40 outside memory [0x0, 0x40)"),
        # several rules broken at once: the first in that order reports
        (-3, 3, "unsupported access size 3"),
        (-2, 4, "negative address -0x2"),
        (66, 4, "misaligned 4-byte access at 0x42"),
    ])
    def test_message_and_precedence(self, op, addr, size, message):
        mem = FlatMemory(size=64)
        mem.store(0, 1, 4)
        mem.load(0, 4)
        with pytest.raises(MemoryError_) as excinfo:
            if op == "load":
                mem.load(addr, size)
            else:
                mem.store(addr, 0xFF, size)
        assert str(excinfo.value) == message
        assert (mem.load_count, mem.store_count) == (1, 1)
        assert mem.load(0, 4) == 1

    @pytest.mark.parametrize("op", ["load", "store"])
    def test_range_is_relative_to_base(self, op):
        mem = FlatMemory(size=64, base=0x1000)
        with pytest.raises(MemoryError_) as excinfo:
            if op == "load":
                mem.load(0x1040, 4)
            else:
                mem.store(0xFFC, 0, 4)
        assert str(excinfo.value).endswith("outside memory [0x1000, 0x1040)")
        assert (mem.load_count, mem.store_count) == (0, 0)

    @pytest.mark.parametrize("op", ["load", "store"])
    def test_negative_address_rejected_even_when_mapped(self, op):
        mem = FlatMemory(size=64, base=-32)
        with pytest.raises(MemoryError_, match=r"^negative address -0x4$"):
            if op == "load":
                mem.load(-4, 4)
            else:
                mem.store(-4, 0, 4)
        assert (mem.load_count, mem.store_count) == (0, 0)


class ReferenceMemory:
    """A dense little-endian memory written the plain way, to hold
    FlatMemory's codecs to: the guard's four checks one after another,
    and each access through a byte slice, ``int.from_bytes`` and
    ``sign_extend`` or ``to_bytes``.  Every CPU model loads and stores
    through FlatMemory, so comparing the models with each other cannot
    catch a fault in it."""

    def __init__(self, size, base=0):
        self.base, self.size = base, size
        self._bytes = bytearray(size)
        self.load_count = self.store_count = 0

    def _offset(self, addr, size):
        if size not in (1, 2, 4):
            raise MemoryError_(f"unsupported access size {size}")
        if addr < 0:
            raise MemoryError_(f"negative address {addr:#x}")
        if addr % size:
            raise MemoryError_(f"misaligned {size}-byte access at {addr:#x}")
        offset = addr - self.base
        if not 0 <= offset <= self.size - size:
            raise MemoryError_(f"address {addr:#x} outside memory "
                               f"[{self.base:#x}, {self.base + self.size:#x})")
        return offset

    def load(self, addr, size, signed=False):
        offset = self._offset(addr, size)
        self.load_count += 1
        value = int.from_bytes(self._bytes[offset:offset + size], "little")
        return sign_extend(value, 8 * size) if signed else value

    def store(self, addr, value, size):
        offset = self._offset(addr, size)
        self.store_count += 1
        self._bytes[offset:offset + size] = \
            (to_unsigned32(value) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")


def _outcome(access, memory):
    """``access(memory)``'s value, or the type and message it raised."""
    try:
        return access(memory)
    except MemoryError_ as exc:
        return MemoryError_, str(exc)


class TestFlatMemoryAgainstReference:
    @given(base=st.sampled_from([0, 0x40, -32]), accesses=ACCESSES)
    def test_same_values_errors_bytes_and_counts(self, base, accesses):
        flat, reference = FlatMemory(64, base=base), ReferenceMemory(64, base=base)
        for store, offset, size, value, _gated, signed in accesses:
            addr = base + offset
            if store:
                def access(memory):
                    return memory.store(addr, value, size)
            else:
                def access(memory):
                    return memory.load(addr, size, signed)
            assert _outcome(access, flat) == _outcome(access, reference)
            assert bytes(flat._bytes) == bytes(reference._bytes)
        assert (flat.load_count, flat.store_count) == (reference.load_count,
                                                       reference.store_count)

    @pytest.mark.parametrize("make", [lambda: FlatMemory(64, base=0x40),
                                      lambda: SRAMBank("b", 64, base=0x40)],
                             ids=["FlatMemory", "SRAMBank"])
    def test_pickle_round_trip(self, make):
        memory = make()
        memory.store(0x44, 0xCAFEBABE, 4)
        memory.load(0x44, 4)
        copy = pickle.loads(pickle.dumps(memory))
        assert type(copy) is type(memory)
        assert vars(copy) == vars(memory)
        assert copy.load(0x46, 2, True) == -0x3502  # 0xCAFE
        copy.store(0x48, -1, 1)
        assert copy.load(0x48, 4) == 0xFF


#: three pages and a bit, so a memory of it spans five pages at most
_JOURNALED = 3 * (1 << JOURNAL_PAGE_BITS) + 12


def _journaled_memory(base):
    """A memory of patterned bytes with both access counters moved."""
    memory = FlatMemory(_JOURNALED, base=base)
    memory._bytes[:] = bytes(range(251)) * (_JOURNALED // 251) + bytes(_JOURNALED % 251)
    memory.load_count, memory.store_count = 3, 5
    return memory


def _copied(journal):
    return sum(len(old) for _, old in journal.pages.values())


class TestStoreJournal:
    """Undoing a journal puts back every byte and both access counters,
    and its page copies never outgrow the memory."""

    @given(base=st.sampled_from([0, 0xFF4, 0x2002]),
           stores=st.lists(st.tuples(st.integers(-8, _JOURNALED + 8),
                                     st.sampled_from([1, 2, 3, 4]),
                                     st.integers(0, (1 << 32) - 1)), max_size=40))
    def test_undo_restores_bytes_and_counters(self, base, stores):
        memory = _journaled_memory(base)
        before = bytes(memory._bytes), memory.load_count, memory.store_count
        journal = StoreJournal(memory)
        for offset, size, value in stores:
            # a rejected store writes nothing, as the guard is first
            _outcome(lambda m: m.store(base + offset, value, size), journal)
            _outcome(lambda m: m.load(base + offset, size), journal)
        assert _copied(journal) <= memory.size
        journal.undo()
        assert (bytes(memory._bytes), memory.load_count, memory.store_count) == before

    def test_copies_each_page_once(self):
        """Twelve thousand stores over every word copy out each page the
        memory spans once: exactly its bytes, whatever the store count."""
        base = 0xFF8  # spans the tail of one page, three whole, one head
        memory = _journaled_memory(base)
        before = bytes(memory._bytes)
        journal = StoreJournal(memory)
        for sweep in range(4):
            for offset in range(0, _JOURNALED, 4):
                journal.store(base + offset, sweep + offset, 4)
        assert len(journal.pages) == 5
        assert _copied(journal) == memory.size
        journal.undo()
        assert bytes(memory._bytes) == before
