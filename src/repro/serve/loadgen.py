"""Open-loop load generation: deterministic arrival processes + driver.

Open-loop means arrival times are fixed *before* the run — request ``k``
is submitted at its scheduled offset whether or not earlier requests
finished — which is the only way queueing delay shows up honestly (a
closed-loop driver self-throttles and hides it).  Three processes:

* ``poisson`` — i.i.d. exponential gaps at ``rate_rps`` (the memoryless
  default for independent users);
* ``uniform`` — constant ``1/rate_rps`` gaps (a pacing baseline);
* ``bursty`` — an ON/OFF modulated Poisson process: ON windows arrive at
  ``burst_factor * rate_rps``, OFF windows are silent, duty-cycled so
  the long-run mean rate stays ``rate_rps``.

Everything derives from ``random.Random(seed)``, so a (process, rate,
count, seed, burst_factor) tuple replays the identical schedule on any
host.  :func:`serve_scenario` is the one-stop entry the CLI, the bench
registry and the tests share: build the scenario's seeded inputs, start
a server, drive the schedule, and return the SLO report document.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.scenario.schema import ARRIVAL_PROCESSES, Scenario

#: ON/OFF window of the bursty process, in units of mean inter-arrivals
_BURST_WINDOW_ARRIVALS = 8.0


def arrival_offsets(process: str, rate_rps: float, count: int,
                    seed: int = 0, burst_factor: float = 4.0) -> List[float]:
    """Monotonic submission offsets (seconds from start) for ``count``
    requests."""
    if process not in ARRIVAL_PROCESSES:
        raise ConfigurationError(
            f"serve.arrival: unknown process {process!r}; known: "
            f"{', '.join(ARRIVAL_PROCESSES)}")
    if rate_rps <= 0:
        raise ConfigurationError(
            f"serve.rate_rps: must be positive, got {rate_rps}")
    if count < 1:
        raise ConfigurationError(
            f"serve.requests: must be >= 1, got {count}")
    rng = random.Random(seed)
    mean_gap = 1.0 / rate_rps
    offsets: List[float] = []
    t = 0.0
    if process == "uniform":
        for index in range(count):
            offsets.append(index * mean_gap)
        return offsets
    if process == "poisson":
        for _ in range(count):
            t += rng.expovariate(rate_rps)
            offsets.append(t)
        return offsets
    # bursty: alternate ON windows (rate * burst_factor) and OFF gaps of
    # (burst_factor - 1) ON-durations — each cycle is on_window *
    # burst_factor long and carries on_window * rate * burst_factor
    # expected arrivals, so the long-run mean rate stays rate_rps
    on_window = _BURST_WINDOW_ARRIVALS * mean_gap
    while len(offsets) < count:
        window_end = t + on_window
        while t < window_end and len(offsets) < count:
            t += rng.expovariate(rate_rps * burst_factor)
            if t < window_end:
                offsets.append(t)
        t = window_end + on_window * (burst_factor - 1.0)
    return offsets


def summarize_offsets(offsets: List[float]) -> Dict[str, float]:
    """Duration / achieved-rate / gap summary of a schedule."""
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    duration = offsets[-1] - offsets[0] if len(offsets) > 1 else 0.0
    return {
        "requests": len(offsets),
        "duration_s": duration,
        "mean_rate_rps": (len(offsets) - 1) / duration if duration else 0.0,
        "min_gap_s": min(gaps) if gaps else 0.0,
        "max_gap_s": max(gaps) if gaps else 0.0,
    }


async def drive(server, rows, offsets: List[float]) -> List[Any]:
    """Submit ``rows[k]`` at ``offsets[k]``; returns completed requests.

    The schedule is anchored to the loop clock at entry, so a slow batch
    delays nothing: every submission fires at its pre-computed offset
    (open loop), and the call returns once all futures resolved.  One
    dispatcher starts each ``submit`` when it is due, so submissions
    keep schedule order even when the loop runs late (request ``k``
    carries ``rows[k]``).
    """
    if len(rows) < len(offsets):
        raise ConfigurationError(
            f"loadgen: {len(offsets)} offsets but only {len(rows)} input "
            "rows")
    loop = asyncio.get_running_loop()
    start = loop.time()
    submits = []
    for index, offset in enumerate(offsets):
        delay = start + offset - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        submits.append(asyncio.ensure_future(server.submit(rows[index])))
    return list(await asyncio.gather(*submits))


def serve_scenario(scenario: Scenario, engine: Optional[str] = None,
                   session=None, with_server: bool = False):
    """Run one full serve session and return the SLO report document.

    The scenario's ``serve`` block supplies the arrival schedule and the
    batching policy; inputs are the scenario's seeded sign-domain rows
    (cycled if ``serve.requests`` exceeds the generated pool).  Must be
    called without a running event loop (it owns ``asyncio.run``).
    ``with_server=True`` returns ``(report, server)`` so callers can
    export the recorder's histograms (the CLI's ``--metrics-out``).
    """
    from repro.scenario.materialize import build_inputs
    from repro.serve.report import build_slo_report
    from repro.serve.server import NCPUServer

    spec = scenario.serve
    pool = build_inputs(scenario,
                        batch_size=min(spec.requests, scenario.batch_size))
    rows = [pool[index % len(pool)] for index in range(spec.requests)]
    offsets = arrival_offsets(spec.arrival, spec.rate_rps, spec.requests,
                              seed=scenario.seed,
                              burst_factor=spec.burst_factor)

    async def session_main():
        server = NCPUServer(scenario, engine=engine, session=session)
        async with server:
            await drive(server, rows, offsets)
        return server

    server = asyncio.run(session_main())
    report = build_slo_report(server, offsets)
    if with_server:
        return report, server
    return report
