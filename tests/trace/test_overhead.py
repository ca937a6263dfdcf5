"""Tracing-off must stay nearly free on the pipelined-CPU hot loop.

Tracing is off exactly when no tracer is installed, including after one
was installed and removed again.  The acceptance bound is < 5 % on
Dhrystone; timing in CI is noisy, so the assertion uses a generous 1.5x
ceiling on the min-of-N ratio — a regression that puts real per-cycle
work on the untraced path (dict lookups, event construction) blows well
past that.
"""

import time

from repro.cpu import PipelinedCPU
from repro.sim import use_session
from repro.trace import install_tracer, uninstall_tracer
from repro.workloads.dhrystone import dhrystone_asm
from repro.isa import assemble

REPEATS = 3
ITERATIONS = 30


def best_run_time(program) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        cpu = PipelinedCPU(program)
        start = time.perf_counter()
        cpu.run()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_tracer_overhead_is_small():
    program = assemble(dhrystone_asm(iterations=ITERATIONS))
    with use_session():
        baseline = best_run_time(program)
    with use_session() as session:
        install_tracer(session)
        uninstall_tracer(session)
        # an emptied subscriber list left behind would keep
        # StatsRegistry.emit off its "no probes" early return
        assert not session.stats._probes
        disabled = best_run_time(program)
    # generous bound: run() resolves the tracer once, and an untraced
    # cycle pays only two None checks, so even noisy CI should sit near 1.0
    assert disabled <= baseline * 1.5 + 1e-3, (
        f"disabled tracing cost {disabled / baseline:.2f}x "
        f"({baseline:.4f}s -> {disabled:.4f}s)")


def test_inactive_tracer_records_nothing_during_run():
    program = assemble(dhrystone_asm(iterations=2))
    with use_session() as session:
        tracer = install_tracer(session)
        uninstall_tracer(session)
        PipelinedCPU(program).run()
        assert len(tracer) == 0
