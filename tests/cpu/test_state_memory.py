"""Tests for the register file and flat memory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cpu import FlatMemory, RegisterFile
from repro.errors import MemoryError_, SimulationError


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
