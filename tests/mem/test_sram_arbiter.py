"""Tests for SRAM banks and the address arbiter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MemoryError_
from repro.mem import AddressArbiter, SRAMBank


class TestSRAMBank:
    def test_roundtrip(self):
        bank = SRAMBank("b", 64)
        bank.store(4, 0xCAFEBABE, 4)
        assert bank.load(4, 4) == 0xCAFEBABE

    def test_base_addressing(self):
        bank = SRAMBank("b", 64, base=0x1000)
        bank.store(0x1008, 7, 4)
        assert bank.load(0x1008, 4) == 7
        assert bank.contains(0x1000)
        assert bank.contains(0x103F)
        assert not bank.contains(0x1040)

    def test_out_of_range(self):
        bank = SRAMBank("b", 64)
        with pytest.raises(MemoryError_):
            bank.load(64, 4)

    def test_size_validation(self):
        with pytest.raises(ConfigurationError):
            SRAMBank("b", 0)
        with pytest.raises(ConfigurationError):
            SRAMBank("b", 6)

    def test_clock_gated_access_rejected(self):
        bank = SRAMBank("b", 64)
        bank.enabled = False
        with pytest.raises(MemoryError_):
            bank.load(0, 4)
        with pytest.raises(MemoryError_):
            bank.store(0, 1, 4)

    def test_counters(self):
        bank = SRAMBank("b", 64)
        bank.store(0, 1, 4)
        bank.load(0, 4)
        assert (bank.reads, bank.writes, bank.accesses) == (1, 1, 2)
        bank.reset_counters()
        assert bank.accesses == 0

    def test_word_helpers(self):
        bank = SRAMBank("b", 64, base=0x40)
        bank.write_words(0x40, [1, 2, 3])
        assert bank.read_words(0x40, 3) == [1, 2, 3]

    def test_signed_load(self):
        bank = SRAMBank("b", 64)
        bank.store(0, 0xFF, 1)
        assert bank.load(0, 1, signed=True) == -1


def _outcome(access, memory):
    """``access(memory)``'s value, or the type of what it raised."""
    try:
        return access(memory)
    except Exception as exc:  # the type is the outcome
        return type(exc)


#: one random access: (store?, offset from base, size, value, gated, signed)
ACCESSES = st.lists(st.tuples(
    st.booleans(), st.integers(-8, 72), st.sampled_from([1, 2, 3, 4]),
    st.integers(-(1 << 40), (1 << 40) - 1), st.booleans(), st.booleans()),
    max_size=40)


class TestBankIsFlatMemory:
    @given(base=st.sampled_from([0, 0x40]), accesses=ACCESSES)
    def test_same_outcomes_as_flat_memory(self, base, accesses):
        """A bank answers every access as a FlatMemory of the same base and
        size does; a clock-gated one refuses it and changes nothing."""
        from repro.cpu.memory import FlatMemory

        bank, flat = SRAMBank("b", 64, base=base), FlatMemory(64, base=base)
        for store, offset, size, value, gated, signed in accesses:
            addr = base + offset
            if store:
                def access(memory):
                    return memory.store(addr, value, size)
            else:
                def access(memory):
                    return memory.load(addr, size, signed)
            bank.enabled = not gated
            if gated:
                before = (bytes(bank._bytes), bank.reads, bank.writes)
                assert _outcome(access, bank) is MemoryError_
                assert (bytes(bank._bytes), bank.reads, bank.writes) == before
            else:
                assert _outcome(access, bank) == _outcome(access, flat)
        assert bytes(bank._bytes) == bytes(flat._bytes)
        assert (bank.reads, bank.writes) == (flat.load_count,
                                             flat.store_count)
        assert bank.accesses == flat.load_count + flat.store_count


class TestArbiter:
    def make(self):
        return AddressArbiter([
            SRAMBank("low", 64, base=0),
            SRAMBank("mid", 64, base=64),
            SRAMBank("high", 128, base=128),
        ])

    def test_routes_to_correct_bank(self):
        arb = self.make()
        assert arb.select(0).name == "low"
        assert arb.select(63).name == "low"
        assert arb.select(64).name == "mid"
        assert arb.select(200).name == "high"

    def test_unmapped_address(self):
        arb = self.make()
        with pytest.raises(MemoryError_):
            arb.select(256)

    def test_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressArbiter([SRAMBank("a", 64, base=0), SRAMBank("b", 64, base=32)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressArbiter([])

    def test_load_store_across_banks(self):
        arb = self.make()
        arb.store(60, 1, 4)
        arb.store(64, 2, 4)
        arb.store(252, 3, 4)
        assert [arb.load(a, 4) for a in (60, 64, 252)] == [1, 2, 3]
        assert arb.routed_accesses == 6

    def test_only_selected_bank_sees_access(self):
        arb = self.make()
        arb.store(0, 1, 4)
        counts = arb.access_counts()
        assert counts == {"low": 1, "mid": 0, "high": 0}

    def test_total_size_and_span(self):
        arb = self.make()
        assert arb.total_size == 256
        assert arb.span == (0, 256)

    def test_bank_named(self):
        arb = self.make()
        assert arb.bank_named("mid").base == 64
        with pytest.raises(KeyError):
            arb.bank_named("nope")

    @given(st.integers(0, 255))
    def test_select_is_consistent_with_contains(self, addr):
        arb = self.make()
        bank = arb.select(addr)
        assert bank.contains(addr)

    def test_arbiter_as_cpu_data_memory(self):
        """The CPU pipeline runs against a banked memory."""
        from repro.cpu import run_pipelined
        from repro.isa import assemble

        arb = self.make()
        program = assemble("""
            li a0, 0x42
            li a1, 128
            sw a0, 0(a1)     # lands in 'high'
            lw a2, 0(a1)
            ebreak
        """)
        cpu, result = run_pipelined(program, memory=arb)
        assert result.halted
        assert cpu.regs.read(12) == 0x42
        assert arb.bank_named("high").writes == 1
