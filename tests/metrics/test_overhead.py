"""Metrics collection must cost nothing on the simulator hot path.

The metrics layer is built entirely from a copy of the session counters
taken before the run, subtracted from them after it — the pipeline never
sees a metrics object, so a run with a recorder attached does counter
work only at the boundaries. The bound is "<= 1 attribute check on the
hot path"; the design does zero, and this test pins the wall-clock
consequence with a generous CI-noise ceiling.
"""

import time
from collections import Counter

from repro.cpu import PipelinedCPU
from repro.isa import assemble
from repro.metrics import MetricsRecorder
from repro.sim import use_session
from repro.workloads.dhrystone import dhrystone_asm

REPEATS = 5
ITERATIONS = 30


def run_time(program, recorded: bool) -> float:
    """Wall time of one Dhrystone run in a fresh session, inside a
    ``MetricsRecorder`` when ``recorded``."""
    with use_session() as session:
        cpu = PipelinedCPU(program)
        start = time.perf_counter()
        if recorded:
            with MetricsRecorder(session):
                cpu.run()
        else:
            cpu.run()
        return time.perf_counter() - start


def test_recorder_overhead_is_small():
    program = assemble(dhrystone_asm(iterations=ITERATIONS))
    # interleaved, so a burst of host load slows both sides alike
    baseline = recorded = float("inf")
    for _ in range(REPEATS):
        baseline = min(baseline, run_time(program, recorded=False))
        recorded = min(recorded, run_time(program, recorded=True))
    assert recorded <= baseline * 1.5 + 1e-3, (
        f"metrics recording cost {recorded / baseline:.2f}x "
        f"({baseline:.4f}s -> {recorded:.4f}s)")


def test_hot_loop_has_no_metrics_reference():
    """The pipeline's step path must not know metrics exist at all."""
    import inspect

    import repro.cpu.pipeline as pipeline

    source = inspect.getsource(pipeline)
    assert "metrics" not in source.lower()


def test_recorder_touches_registry_only_at_boundaries():
    calls = Counter()

    class CountingCounter(Counter):
        def copy(self):
            calls["copy"] += 1
            return super().copy()

        def __sub__(self, other):
            calls["sub"] += 1
            return super().__sub__(other)

    program = assemble(dhrystone_asm(iterations=2))
    with use_session() as session:
        session.stats = CountingCounter()
        with MetricsRecorder(session):
            PipelinedCPU(program).run()
    assert calls["copy"] == 1  # on enter
    assert calls["sub"] == 1  # on exit
