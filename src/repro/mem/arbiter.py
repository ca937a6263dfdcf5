"""Address arbiter (paper Fig 4b).

In CPU mode all the BNN SRAM banks are stitched into one contiguous data
address space; the arbiter enables exactly one bank per access based on the
target address and leaves the rest clock-gated.  It implements the
:class:`repro.cpu.memory.DataMemory` protocol, so the CPU pipeline can use a
banked memory and a flat memory interchangeably.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence

from repro.errors import ConfigurationError, MemoryError_
from repro.mem.sram import SRAMBank


class AddressArbiter:
    """Routes accesses to exactly one of several non-overlapping banks."""

    def __init__(self, banks: Sequence[SRAMBank]):
        if not banks:
            raise ConfigurationError("arbiter needs at least one bank")
        ordered = sorted(banks, key=lambda bank: bank.base)
        for left, right in zip(ordered, ordered[1:]):
            if left.base + left.size > right.base:
                raise ConfigurationError(
                    f"banks {left.name!r} and {right.name!r} overlap"
                )
        self.banks: List[SRAMBank] = list(ordered)
        self._bases = [bank.base for bank in ordered]
        self.routed_accesses = 0

    # ------------------------------------------------------------------
    def select(self, addr: int) -> SRAMBank:
        """The single bank enabled for ``addr``: the last one based at or
        below it (index -1, the top bank, when none is), if it holds ``addr``."""
        bank = self.banks[bisect_right(self._bases, addr) - 1]
        if bank.base <= addr < bank.base + bank.size:
            return bank
        raise MemoryError_(
            f"address {addr:#x} hits no bank "
            f"(mapped: {[(b.name, hex(b.base), b.size) for b in self.banks]})"
        )

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        self.routed_accesses += 1
        return self.select(addr).load(addr, size, signed)

    def store(self, addr: int, value: int, size: int) -> None:
        self.routed_accesses += 1
        self.select(addr).store(addr, value, size)

    # convenience ------------------------------------------------------
    @property
    def total_size(self) -> int:
        return sum(bank.size for bank in self.banks)

    @property
    def span(self) -> tuple:
        return (self.banks[0].base, self.banks[-1].base + self.banks[-1].size)

    def bank_named(self, name: str) -> SRAMBank:
        for bank in self.banks:
            if bank.name == name:
                return bank
        raise KeyError(f"no bank named {name!r}")

    def access_counts(self) -> dict:
        return {bank.name: bank.accesses for bank in self.banks}
