"""Tracing-off must stay nearly free on the pipelined-CPU hot loop and
on the serve path.

Tracing is off exactly when no tracer is installed, including after one
was installed and removed again.  The acceptance bound is < 5 % on
Dhrystone; timing in CI is noisy, so the assertion uses a generous 1.5x
ceiling on the min-of-N ratio — a regression that puts real per-cycle
work on the untraced path (dict lookups, event construction) blows well
past that.  The serve path's budget counts tracer calls instead of timing
them: one per batch and one per request turned away, none per completed
request, and none at all when no tracer is installed.
"""

import asyncio
import time

from repro.cpu import PipelinedCPU
from repro.isa import assemble
from repro.scenario import Scenario, ServeSpec, WorkloadSpec
from repro.serve import NCPUServer, ServePolicy
from repro.sim import use_session
from repro.trace import install_tracer, uninstall_tracer
from repro.workloads.dhrystone import dhrystone_asm

REPEATS = 5
ITERATIONS = 30


def run_time(program, after_tracer: bool) -> float:
    """Wall time of one Dhrystone run in a fresh session; with
    ``after_tracer``, a tracer was installed and removed first."""
    with use_session() as session:
        if after_tracer:
            install_tracer(session)
            uninstall_tracer(session)
        cpu = PipelinedCPU(program)
        start = time.perf_counter()
        cpu.run()
        return time.perf_counter() - start


def test_disabled_tracer_overhead_is_small():
    program = assemble(dhrystone_asm(iterations=ITERATIONS))
    # interleaved, so a burst of host load slows both sides alike
    baseline = disabled = float("inf")
    for _ in range(REPEATS):
        baseline = min(baseline, run_time(program, after_tracer=False))
        disabled = min(disabled, run_time(program, after_tracer=True))
    # generous bound: run() resolves the tracer once, and an untraced
    # cycle pays only one None check, so even noisy CI should sit near 1.0
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


class RecordingTracer:
    """Stands in for the session tracer and logs the name of every method
    called on it."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.calls.append(name)


def serve(policy, body, traced=True):
    """Serve ``body(server, row)``; returns ``(server, the recording
    tracer's calls)``.  Untraced, the recording tracer was installed and
    removed again before the server started."""
    scenario = Scenario(
        name="serve-budget",
        workload=WorkloadSpec(kind="bnn", name="random",
                              layer_sizes=(24, 16, 10)),
        serve=ServeSpec()).with_engine(name="fast")

    async def run(session):
        server = NCPUServer(scenario, policy=policy, session=session)
        async with server:
            await body(server, [1.0] * 24)
        return server

    with use_session(cache_enabled=False) as session:
        tracer = session.tracer = RecordingTracer()
        if not traced:
            uninstall_tracer(session)
        return asyncio.run(run(session)), tracer.calls


async def burst_with_sheds(server, row):
    # 12 submissions before the batcher runs: 4 queue, 8 are shed
    await asyncio.gather(*(server.submit(row) for _ in range(12)))
    for _ in range(3):
        await server.submit(row)


SHEDDING = ServePolicy(batch_window_s=0.001, max_batch=8,
                       max_queue_depth=4, timeout_s=60.0)


def test_serve_path_traces_per_batch_not_per_request():
    server, calls = serve(SHEDDING, burst_with_sheds)
    statuses = [request.status for request in server.requests]
    assert statuses.count("ok") == 7 and statuses.count("shed") == 8
    batches = server.recorder.batch_sizes
    assert len(batches) < statuses.count("ok")
    serve_calls = [name for name in calls if name.startswith("serve_")]
    assert sorted(serve_calls) == \
        ["serve_batch"] * len(batches) + ["serve_turned_away"] * 8


def test_serve_path_traces_once_per_timed_out_request():
    async def body(server, row):
        await asyncio.gather(*(server.submit(row) for _ in range(3)))

    # every request waits out the window, so all three outlive a zero
    # timeout at assembly and no batch dispatches
    server, calls = serve(
        ServePolicy(batch_window_s=0.001, timeout_s=0.0), body)
    assert [request.status for request in server.requests] == \
        ["timeout"] * 3
    assert calls == ["serve_turned_away"] * 3


def test_untraced_serve_run_makes_no_tracer_call():
    server, calls = serve(SHEDDING, burst_with_sheds, traced=False)
    statuses = [request.status for request in server.requests]
    assert statuses.count("ok") == 7 and statuses.count("shed") == 8
    assert calls == []
