"""DMA engine: timed bulk transfers between memories (paper Fig 6).

The DMA moves data between the shared L2 and the per-core SRAM banks.  Its
job in the zero-latency switching scheme is to overlap weight streaming /
data-cache preloading with core execution, so every transfer is recorded with
its cycle cost for the discrete-event scheduler and the power model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigurationError
from repro.sim import get_session

#: default DMA bandwidth: one 32-bit word every other cycle (16-bit bus)
DEFAULT_WORDS_PER_CYCLE = 0.5

#: fixed per-transfer setup cost (descriptor fetch, handshake)
TRANSFER_SETUP_CYCLES = 8


@dataclass
class TransferRecord:
    """One completed DMA transfer."""

    description: str
    words: int
    cycles: int


@dataclass
class DMAEngine:
    """A simple timed DMA channel."""

    words_per_cycle: float = DEFAULT_WORDS_PER_CYCLE
    transfers: List[TransferRecord] = field(default_factory=list)

    def __post_init__(self):
        if self.words_per_cycle <= 0:
            raise ConfigurationError("DMA bandwidth must be positive")

    def transfer_cycles(self, n_words: int) -> int:
        """Cycles to move ``n_words`` 32-bit words (setup included)."""
        if n_words < 0:
            raise ConfigurationError("negative transfer size")
        if n_words == 0:
            return 0
        return TRANSFER_SETUP_CYCLES + int(-(-n_words // self.words_per_cycle))

    def copy(self, src, src_addr: int, dst, dst_addr: int, n_words: int,
             description: str = "copy") -> int:
        """Move words between two DataMemory-like objects; returns cycles."""
        for index in range(n_words):
            word = src.load(src_addr + 4 * index, 4)
            dst.store(dst_addr + 4 * index, word, 4)
        cycles = self.transfer_cycles(n_words)
        self.transfers.append(TransferRecord(description, n_words, cycles))
        session = get_session()
        counters = session.stats
        counters["dma.transfers"] += 1
        counters["dma.words"] += n_words
        counters["dma.cycles"] += cycles
        if session.tracer is not None:
            session.tracer.dma_transfer(
                description, n_words, cycles,
                TRANSFER_SETUP_CYCLES if n_words else 0)
        return cycles

    @property
    def total_words(self) -> int:
        return sum(t.words for t in self.transfers)

    @property
    def total_cycles(self) -> int:
        return sum(t.cycles for t in self.transfers)
