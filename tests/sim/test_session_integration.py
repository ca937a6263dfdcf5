"""All three simulator stacks publish into the session counters.

These tests assert ``session.stats`` mirrors the simulators' own
statistics exactly — the acceptance criterion that instrumentation must
not change any existing stat values, only re-expose them.
"""

import numpy as np
import pytest

from repro.bnn import BNNAccelerator, BNNModel
from repro.core.events import Timeline
from repro.cpu import FlatMemory, FunctionalCPU, PipelinedCPU
from repro.isa import assemble
from repro.mem.dma import DMAEngine
from repro.sim import SimSession, set_session
from repro.trace import tracing

LOOP = """
    li a0, 0
    li a1, 5
loop:
    addi a0, a0, 1
    blt a0, a1, loop
    ebreak
"""


@pytest.fixture()
def session():
    mine = SimSession()
    mine.cache.enabled = False
    previous = set_session(mine)
    yield mine
    set_session(previous)


class TestPipelineMirror:
    def test_counters_match_exec_stats(self, session):
        cpu = PipelinedCPU(assemble(LOOP))
        result = cpu.run()
        counters = session.stats
        assert counters["cpu.pipeline.runs"] == 1
        assert counters["cpu.pipeline.cycles"] == result.stats.cycles
        assert counters["cpu.pipeline.instructions"] == \
            result.stats.instructions
        for name in ("stalls", "flushes"):
            assert counters.get(f"cpu.pipeline.{name}", 0) == \
                getattr(result.stats, name)

    def test_two_runs_accumulate_without_double_count(self, session):
        first = PipelinedCPU(assemble(LOOP)).run()
        second = PipelinedCPU(assemble(LOOP)).run()
        counters = session.stats
        assert counters["cpu.pipeline.runs"] == 2
        assert counters["cpu.pipeline.cycles"] == \
            first.stats.cycles + second.stats.cycles

    def test_run_event_emitted(self, session):
        with tracing(session) as tracer:
            result = PipelinedCPU(assemble(LOOP)).run()
        events = [e for e in tracer.events if e.name == "cpu.run"]
        assert len(events) == 1
        assert events[0].track == "cpu.pipeline"
        assert events[0].ts == result.stats.cycles  # at the run's end
        assert events[0].args["simulator"] == "pipeline"
        assert events[0].args["stop_reason"] == result.stop_reason
        assert events[0].args["cycles"] == result.stats.cycles


class TestFunctionalMirror:
    def test_counters_match_exec_stats(self, session):
        result = FunctionalCPU(assemble(LOOP)).run()
        counters = session.stats
        assert counters["cpu.functional.runs"] == 1
        assert counters["cpu.functional.instructions"] == \
            result.stats.instructions


class TestAcceleratorMirror:
    def test_batch_timing_counters(self, session):
        model = BNNModel.paper_topology(input_size=256)
        acc = BNNAccelerator()
        timing = acc.batch_timing(model, 3)
        counters = session.stats
        assert counters["bnn.batches"] == 1
        assert counters["bnn.inferences"] == 3
        assert counters["bnn.cycles"] == timing.total_cycles
        assert counters["bnn.macs"] == timing.macs

    def test_infer_counters(self, session):
        model = BNNModel.paper_topology(input_size=256)
        x = np.where(np.arange(256) % 2 == 0, 1, -1)
        result = BNNAccelerator().infer(model, x)
        counters = session.stats
        assert counters["bnn.inferences"] == 1
        assert counters["bnn.cycles"] == result.cycles
        assert counters["bnn.macs"] == result.macs


class TestDMAMirror:
    def test_copy_counters_match_records(self, session):
        src = FlatMemory(size=1 << 12)
        dst = FlatMemory(size=1 << 12)
        for index in range(8):
            src.store(4 * index, index + 1, 4)
        dma = DMAEngine()
        dma.copy(src, 0, dst, 0, 8, description="weights")
        counters = session.stats
        assert counters["dma.transfers"] == 1
        assert counters["dma.words"] == dma.total_words == 8
        assert counters["dma.cycles"] == dma.total_cycles
        assert dst.load(28, 4) == 8


class TestTimelineMirror:
    def test_segment_counters_by_kind(self, session):
        timeline = Timeline()
        timeline.add("ncpu", "cpu", 0, 100)
        timeline.add("ncpu", "switch", 100, 101)
        timeline.add("ncpu", "bnn", 101, 151)
        counters = session.stats
        assert counters["timeline.segments"] == 3
        assert counters["timeline.cpu_cycles"] == 100
        assert counters["timeline.switch_cycles"] == 1
        assert counters["timeline.bnn_cycles"] == 50
