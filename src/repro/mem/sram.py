"""SRAM bank model.

Each bank is a :class:`~repro.cpu.memory.FlatMemory` (little-endian,
byte-addressable, with access counters for the energy model) plus a
clock-gating flag: the address arbiter enables exactly one bank per
access and the rest are gated (paper Fig 4b), which is where the NCPU's
low-voltage energy advantage comes from.
"""

from __future__ import annotations

from repro.cpu.memory import FlatMemory
from repro.errors import ConfigurationError, MemoryError_


class SRAMBank(FlatMemory):
    """One physical SRAM macro of ``size`` bytes mapped at ``base``."""

    def __init__(self, name: str, size: int, base: int = 0):
        if size <= 0 or size % 4:
            raise ConfigurationError(f"bank size {size} must be a positive multiple of 4")
        super().__init__(size=size, base=base)
        self.name = name
        self.enabled = True

    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def _offset(self, addr: int, size: int) -> int:
        offset = addr - self.base
        if not 0 <= offset <= self.size - size:
            raise MemoryError_(
                f"address {addr:#x} outside bank {self.name!r} "
                f"[{self.base:#x}, {self.base + self.size:#x})"
            )
        return offset

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        if not self.enabled:
            raise MemoryError_(f"access to clock-gated bank {self.name!r}")
        return FlatMemory.load(self, addr, size, signed)

    def store(self, addr: int, value: int, size: int) -> None:
        if not self.enabled:
            raise MemoryError_(f"access to clock-gated bank {self.name!r}")
        FlatMemory.store(self, addr, value, size)

    def write_words(self, addr: int, values) -> None:
        # Bulk writes model DMA streaming (one access per word, like the
        # hardware's sequential streaming), which wakes the bank
        # regardless of the current mode's clock gating.
        for index, value in enumerate(values):
            FlatMemory.store(self, addr + 4 * index, value, 4)

    @property
    def reads(self) -> int:
        return self.load_count

    @property
    def writes(self) -> int:
        return self.store_count

    @property
    def accesses(self) -> int:
        return self.load_count + self.store_count

    def reset_counters(self) -> None:
        self.load_count = 0
        self.store_count = 0

    def __repr__(self) -> str:
        state = "on" if self.enabled else "gated"
        return (f"SRAMBank({self.name!r}, {self.size}B @ {self.base:#x}, "
                f"{state}, r={self.reads}, w={self.writes})")
