"""Run one perfbench workload in this process and print its raw result.

``run.py`` starts this script once per workload with ``PYTHONPATH``
pointing at the checkout's ``src`` and the artifact cache disabled, so
peak RSS and every in-process cache belong to that one workload.  The
last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (bare numbers; ``run.py`` adds the units).

A workload repeats one *unit* — a serve round, a scenario call, a cold
sweep — until ``--seconds`` of wall time have run.  End-to-end metrics
come from the untraced units: serve latency and goodput on the wall
clock, every other time on the CPU clock of the process doing the work
(see ``Lap``), closed-loop calls scaled to a reference host speed
(``clock.py``).  With ``--trace 1`` every second unit runs under the
span wrappers of ``spans.py``: the per-layer metrics come from those
units, and ``trace.*_delta_pct`` compares their end-to-end figures with
the untraced units' (the tracing overhead).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import functools
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro
import repro.isa
from repro.bnn import BNNAccelerator, binarize_sign
from repro.cpu import FastCPU, PipelinedCPU
from repro.engine import get_engine
from repro.scenario import Scenario, materialize
from repro.serve import NCPUServer, ServePolicy
from repro.serve.server import OK, SHED, TIMEOUT
from repro.sim import SimConfig, SimSession, set_session
from repro.workloads import dhrystone

from clock import host_speed
from spans import SpanRecorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SCENARIOS = BENCH / "scenarios"
REFERENCE = BENCH / "reference.json"

#: the engine every prediction is checked against
ORACLE = "accurate"
#: set-up runs this many times per run; its median is reported
SETUP_REPEATS = 5
#: serve steps: (name, offered requests/s, seconds of arrivals); light is
#: about a quarter of the fast engine's knee, overload about 1.5x it
SERVE_STEPS = (("light", 2000.0, 1.5), ("overload", 12000.0, 1.0))
#: the step whose shed or timed-out requests count as failures
STRICT_STEP = "light"
#: distinct input rows the serve requests draw from
SERVE_POOL_ROWS = 4096
#: rows classified by every scenario-bnn call
BNN_ROWS = 16384
#: a cold sweep takes about 10 s; a hung one fails the run well inside
#: the benchmark's 180 s limit
SWEEP_TIMEOUT_S = 120.0


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Lap:
    """Wall and process-CPU seconds of a ``with`` body.

    Closed-loop calls and set-up report the CPU figure: their work is
    compute-bound on one thread, so on a dedicated core the two clocks
    agree, while on a shared host the wall clock also counts time spent
    waiting for a core or stolen by the hypervisor.  The wall figure
    paces the run."""

    def __enter__(self) -> "Lap":
        self.wall, self.cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu


def call_figures(setups, calls, work) -> dict:
    """End-to-end figures of a closed loop of calls doing ``work`` units
    (rows, instructions or cycles) each; times are CPU seconds at the
    reference host speed."""
    return {"setup_s": median(setups),
            "p50_ms": percentile(calls, 50) * 1e3,
            "p95_ms": percentile(calls, 95) * 1e3,
            "goodput_per_s": work / median(calls) if calls else 0.0}


def trace_overhead(untraced: dict, traced: dict) -> dict:
    """The traced units' figures against the untraced units', in %."""
    def delta(name):
        base = untraced[name]
        return (traced[name] - base) / base * 100.0 if base else 0.0
    return {"trace.p50_delta_pct": delta("p50_ms"),
            "trace.goodput_delta_pct": delta("goodput_per_s")}


def oracle_predict(model, rows, chunk: int = 2048):
    """The accurate engine's predictions, in chunks so that computing the
    reference never sets the workload's peak RSS."""
    oracle = get_engine(ORACLE)
    return np.concatenate([oracle.predict(model, rows[start:start + chunk])
                           for start in range(0, len(rows), chunk)])


class Tally:
    """Operations attempted.  ``failed`` counts every failure, ``wrong``
    only outputs that differ from their reference (they fail the run)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, correct: bool = True, ok: bool = True) -> None:
        self.attempted += 1
        self.wrong += not correct
        self.failed += not (correct and ok)


class Budget:
    """Time budget of the measured units.  With tracing on, every second
    unit is traced and at least one unit of each kind runs."""

    def __init__(self, seconds: float, trace: bool):
        self.seconds = seconds
        self.trace = trace
        self.spans = SpanRecorder()
        self.units = 0
        self.deadline = None

    def more(self, unit_s: float) -> bool:
        """Whether another unit of about ``unit_s`` seconds fits; the
        budget starts with the first unit, after set-up."""
        if self.deadline is None:
            self.deadline = time.perf_counter() + self.seconds
        return (self.units < (2 if self.trace else 1)
                or time.perf_counter() + unit_s <= self.deadline)

    def next_traced(self) -> bool:
        self.units += 1
        return self.trace and self.units % 2 == 0

    @contextmanager
    def tracing(self, traced: bool, install):
        """Run the body under ``install``'s wrappers when ``traced``."""
        if not traced:
            yield
            return
        install(self.spans)
        try:
            yield
        finally:
            self.spans.restore()

    def durations(self, name: str) -> list:
        return [span.duration for span in self.spans.named(name)]

    def self_times(self, name: str, rows=None) -> list:
        self_time = self.spans.self_times()
        return [self_time[span.id] for span in self.spans.named(name)
                if rows is None or span.attrs["rows"] == rows]

    def setups(self, install, build):
        """Run ``build`` SETUP_REPEATS times per tracing state; returns
        ``({traced: [CPU seconds at reference speed]}, the last value
        built)``."""
        times = {False: [], True: []}
        for _ in range(SETUP_REPEATS):
            for traced in ((False, True) if self.trace else (False,)):
                speed = host_speed()
                with self.tracing(traced, install), Lap() as lap:
                    value = build()
                times[traced].append(lap.cpu * speed)
        return times, value


def install_bnn(spans: SpanRecorder, engine) -> None:
    spans.wrap(materialize, "build_model", "materialize.build_model")
    spans.wrap(BNNAccelerator, "infer_batch", "accel.infer_batch",
               lambda accelerator, model, rows, *_: {"rows": len(rows)})
    spans.wrap(type(engine), "predict", "engine.predict",
               lambda self, model, rows: {"rows": len(rows)})


def install_serve(spans: SpanRecorder, engine) -> None:
    def make(submit):
        @functools.wraps(submit)
        async def traced_submit(server, row):
            start = time.perf_counter()
            request = await submit(server, row)
            spans.add("serve.submit", start, time.perf_counter(),
                      request=request.index, status=request.status)
            return request
        return traced_submit

    spans.patch(NCPUServer, "submit", make)
    install_bnn(spans, engine)


def install_cpu(spans: SpanRecorder, engine) -> None:
    spans.wrap(repro.isa, "assemble", "isa.assemble")
    spans.wrap(type(engine), "run_program", "engine.run_program")
    spans.wrap(FastCPU, "run", "cpu.fast.run")
    spans.wrap(PipelinedCPU, "run", "cpu.pipeline.run")


@dataclasses.dataclass
class ServeStep:
    setup_s: float      # CPU s of construction, start and the warm-up batch
    origin: float       # server clock (``wall_s``) the offsets count from
    wall_s: float       # origin until every request resolved
    perf_origin: float  # time.perf_counter() at the server clock's zero
    warm: list
    requests: list


async def serve_step(scenario, policy, pool, rows, offsets) -> ServeStep:
    """Start a server, warm it with one full batch, then offer
    ``pool[rows[k]]`` ``offsets[k]`` seconds after the warm-up.

    One dispatcher coroutine creates each ``submit`` task when it is
    due, on the server's own clock (``wall_s``, which its request stamps
    use), so late arrivals never wait as pre-created sleeping tasks.
    """
    start = time.process_time()
    server = NCPUServer(scenario, policy=policy)
    async with server:
        warm = await asyncio.gather(*(server.submit(pool[index])
                                      for index in range(policy.max_batch)))
        setup_s = time.process_time() - start
        origin = server.wall_s
        tasks = []
        for offset, row in zip(offsets, rows):
            wait = origin + offset - server.wall_s
            if wait > 0:
                await asyncio.sleep(wait)
            tasks.append(asyncio.create_task(server.submit(pool[row])))
        requests = await asyncio.gather(*tasks)
        wall_s = server.wall_s - origin
        perf_origin = time.perf_counter() - server.wall_s
    return ServeStep(setup_s, origin, wall_s, perf_origin, warm, requests)


class StepStats:
    """What one serve step (light or overload) measured over a run."""

    def __init__(self, name: str):
        self.name = name
        #: due -> respond; a shed or timed-out request counts as the timeout
        self.latency = []
        #: per step: requests ok within the budget per second of step wall
        self.goodput = []
        #: per step: p95 of the step's due -> respond latencies
        self.step_p95 = []
        self.counts = {"sent": 0, OK: 0, SHED: 0, TIMEOUT: 0, "batches": 0}
        self.late, self.admit, self.queue, self.respond = [], [], [], []
        self.assemble, self.hop, self.infer, self.bookkeeping = [], [], [], []
        self.shed_calls = []
        self.predict_s = 0.0
        self.predict_rows = 0

    def add(self, step, rows, offsets, expected, policy, tally,
            spans=None, mark=0) -> None:
        """Check one step and fold it in.  Shed and timed-out requests
        fail only on the strict step: at overload they are the admission
        policy at work, and show up as lost goodput instead."""
        batches = {}
        good = 0
        for request, row, offset in zip(step.requests, rows, offsets):
            due = step.origin + offset
            self.counts["sent"] += 1
            self.counts[request.status] += 1
            self.late.append(request.t_submit - due)
            if request.status != OK:
                self.latency.append(policy.timeout_s)
                tally.add(ok=self.name != STRICT_STEP)
                continue
            segments = (request.t_submit - due,
                        request.t_enqueue - request.t_submit,
                        request.t_assembled - request.t_enqueue,
                        request.t_dispatch - request.t_assembled,
                        request.t_infer_done - request.t_dispatch,
                        request.t_respond - request.t_infer_done)
            latency = request.t_respond - due
            tally.add(correct=bool(request.prediction == expected[row])
                      and min(segments) >= 0.0
                      and abs(sum(segments) - latency) <= 1e-6)
            self.latency.append(latency)
            good += latency <= policy.latency_budget_s
            self.admit.append(segments[1])
            self.queue.append(segments[2])
            self.respond.append(segments[5])
            batches[request.batch_index] = request
        self.goodput.append(good / step.wall_s)
        self.step_p95.append(percentile(self.latency[-len(step.requests):], 95))
        self.counts["batches"] += len(batches)
        self.assemble += [request.t_dispatch - request.t_assembled
                          for request in batches.values()]
        if spans is not None:
            self._add_spans(step, offsets, batches, spans, mark)

    def _add_spans(self, step, offsets, batches, spans, mark) -> None:
        # a server's k-th infer_batch call is its batch k (batch 0 is the
        # warm-up), so spans line up with request stamps by batch index
        infer = spans.named("accel.infer_batch", mark)
        predict = {span.parent: span
                   for span in spans.named("engine.predict", mark)}
        for index, request in batches.items():
            outer = infer[index]
            inner = predict[outer.id]
            self.infer.append(outer.duration)
            self.bookkeeping.append(outer.duration - inner.duration)
            self.hop.append(request.t_infer_done - request.t_dispatch
                            - outer.duration)
            self.predict_s += inner.duration
            self.predict_rows += outer.attrs["rows"]
        self.shed_calls += [span.duration
                            for span in spans.named("serve.submit", mark)
                            if span.attrs["status"] == SHED]
        for request, offset in zip(step.requests, offsets):
            spans.add("serve.request",
                      step.perf_origin + step.origin + offset,
                      step.perf_origin + request.t_respond, step=self.name,
                      request=request.index, status=request.status,
                      batch=request.batch_index)

    def layers(self) -> dict:
        step = self.name
        batches = self.counts["batches"]
        layers = {
            f"gen.late_p99_ms.{step}": percentile(self.late, 99) * 1e3,
            f"serve.admit_us.{step}": median(self.admit) * 1e6,
            f"serve.shed_call_us.{step}": median(self.shed_calls) * 1e6,
            f"serve.batch_rows.{step}":
                self.counts[OK] / batches if batches else 0.0,
            f"serve.assemble_us.{step}": median(self.assemble) * 1e6,
            f"serve.respond_us.{step}": median(self.respond) * 1e6,
            f"serve.queue_wait_p50_ms.{step}": percentile(self.queue, 50) * 1e3,
            f"serve.queue_wait_p95_ms.{step}": percentile(self.queue, 95) * 1e3,
            f"serve.executor_hop_us.{step}": median(self.hop) * 1e6,
            f"accel.infer_batch_us.{step}": median(self.infer) * 1e6,
            f"accel.bookkeeping_us.{step}": median(self.bookkeeping) * 1e6,
            f"engine.predict_us_per_row.{step}":
                self.predict_s / self.predict_rows * 1e6
                if self.predict_rows else 0.0,
        }
        layers.update({f"serve.{key}.{step}": value
                       for key, value in self.counts.items()})
        return layers


def serve_poisson(seed, budget, reference, tally):
    """Open-loop Poisson arrivals offered to NCPUServer in two steps."""
    scenario = Scenario.from_file(SCENARIOS / "serve.json")
    policy = ServePolicy.from_spec(scenario.serve)
    install = functools.partial(install_serve,
                                engine=get_engine(scenario.engine.name))
    width = scenario.workload.layer_sizes[0]
    pool = binarize_sign(np.random.default_rng(seed).standard_normal(
        (SERVE_POOL_ROWS, width)))
    expected = oracle_predict(materialize.build_model(scenario), pool)
    stats = {(traced, name): StepStats(name)
             for traced in (False, True) for name, _, _ in SERVE_STEPS}
    setups = {False: [], True: []}
    last = 0.0
    while budget.more(last):
        started = time.perf_counter()
        traced = budget.next_traced()
        for index, (name, rate, seconds) in enumerate(SERVE_STEPS):
            rng = np.random.default_rng([seed, budget.units, index])
            count = int(rate * seconds)
            offsets = np.cumsum(rng.exponential(1.0 / rate, count)).tolist()
            rows = rng.integers(0, SERVE_POOL_ROWS, count).tolist()
            mark = len(budget.spans.spans)
            speed = host_speed()
            with budget.tracing(traced, install):
                step = asyncio.run(serve_step(scenario, policy, pool, rows,
                                              offsets))
            setups[traced].append(step.setup_s * speed)
            for row, request in enumerate(step.warm):
                tally.add(correct=request.status != OK
                          or bool(request.prediction == expected[row]),
                          ok=request.status == OK)
            stats[traced, name].add(step, rows, offsets, expected, policy,
                                    tally, budget.spans if traced else None,
                                    mark)
        last = time.perf_counter() - started

    def figures(traced):
        light, overload = stats[traced, "light"], stats[traced, "overload"]
        return {"setup_s": median(setups[traced]),
                "p50_ms": percentile(light.latency, 50) * 1e3,
                # the lowest step p95: one host stall in a step moves a
                # pooled p95 by several times, the best step far less
                "p95_ms": min(light.step_p95, default=0.0) * 1e3,
                "goodput_per_s": median(overload.goodput)}

    untraced = figures(False)
    print(f"perfbench: serve-poisson light p99 "
          f"{percentile(stats[False, 'light'].latency, 99) * 1e3:.3f} ms "
          f"(printed, not gated)", file=sys.stderr)
    layers = {"materialize.build_model_s":
              median(budget.durations("materialize.build_model")),
              **trace_overhead(untraced, figures(True))}
    for name, _, _ in SERVE_STEPS:
        layers.update(stats[True, name].layers())
    return untraced, layers


def scenario_bnn(seed, budget, reference, tally):
    """Closed-loop wide batches through BNNAccelerator.infer_batch."""
    scenario = Scenario.from_file(SCENARIOS / "bnn.json")
    engine = get_engine(scenario.engine.name)
    install = functools.partial(install_bnn, engine=engine)
    stream = scenario.batch_policy == "stream"
    width = scenario.workload.layer_sizes[0]
    rows = binarize_sign(np.random.default_rng(seed).standard_normal(
        (BNN_ROWS, width)))
    first = rows[:scenario.batch_size]

    def build():
        """Model build plus the first call, which lowers the weights."""
        model = materialize.build_model(scenario)
        accelerator = BNNAccelerator()
        predictions, _ = accelerator.infer_batch(
            model, first, stream_weights=stream, engine=engine)
        return model, accelerator, predictions

    setups, (model, accelerator, predictions) = budget.setups(install, build)
    expected = oracle_predict(model, rows)
    tally.add(correct=np.array_equal(predictions, expected[:len(first)]))
    counts = reference["bnn"]
    calls = {False: [], True: []}
    last = 0.0
    while budget.more(last):
        traced = budget.next_traced()
        speed = host_speed()
        with budget.tracing(traced, install), Lap() as lap:
            predictions, timing = accelerator.infer_batch(
                model, rows, stream_weights=stream, engine=engine)
        last = lap.wall
        calls[traced].append(lap.cpu * speed)
        tally.add(correct=np.array_equal(predictions, expected)
                  and timing.macs == counts["macs"]
                  and timing.total_cycles == counts["sim_cycles"])

    untraced = call_figures(setups[False], calls[False], BNN_ROWS)
    predicts = budget.spans.named("engine.predict")
    layers = {
        "materialize.build_model_s":
            median(budget.durations("materialize.build_model")),
        "engine.first_predict_s": median([span.duration for span in predicts
                                          if span.attrs["rows"] == len(first)]),
        "engine.predict_s": median([span.duration for span in predicts
                                    if span.attrs["rows"] == BNN_ROWS]),
        "accel.bookkeeping_s":
            median(budget.self_times("accel.infer_batch", rows=BNN_ROWS)),
        "run.bnn.macs": timing.macs,
        "run.bnn.sim_cycles": timing.total_cycles,
        **trace_overhead(untraced, call_figures(setups[True], calls[True],
                                                BNN_ROWS)),
    }
    return untraced, layers


def cpu_state_digest(cpu, result) -> str:
    """Digest of a finished Dhrystone run's architectural state."""
    stats = result.stats
    words = (dhrystone.RESULT_SLOT + 4 - dhrystone.RECORD_A) // 4
    state = {"stop_reason": result.stop_reason, "pc": result.pc,
             "regs": cpu.regs.snapshot(),
             "data": cpu.memory.read_words(dhrystone.RECORD_A, words),
             "instructions": stats.instructions,
             "mem_reads": stats.mem_reads, "mem_writes": stats.mem_writes,
             "instr_counts": sorted(stats.instr_counts.items())}
    return hashlib.sha256(json.dumps(state).encode()).hexdigest()


def scenario_cpu(scenario_file, seed, budget, reference, tally):
    """Closed-loop Dhrystone runs through an engine's run_program.  The
    program is fixed: the seed changes nothing here."""
    scenario = Scenario.from_file(SCENARIOS / scenario_file)
    engine = get_engine(scenario.engine.name)
    install = functools.partial(install_cpu, engine=engine)
    setups, program = budget.setups(
        install, lambda: materialize.build_program(scenario))
    expected = reference["dhrystone"][str(scenario.workload.iterations)]
    pipeline = engine.capabilities.timing_accurate
    calls = {False: [], True: []}
    last = 0.0
    while budget.more(last):
        traced = budget.next_traced()
        speed = host_speed()
        with budget.tracing(traced, install), Lap() as lap:
            cpu, result = engine.run_program(
                program, prefer_functional=scenario.engine.prefer_functional)
        last = lap.wall
        calls[traced].append(lap.cpu * speed)
        tally.add(correct=cpu_state_digest(cpu, result)
                  == expected["state_sha256"]
                  and (not pipeline
                       or result.stats.cycles == expected["pipeline_cycles"]))

    # single-cycle engines retire one instruction per cycle, so goodput
    # reads instructions/s on fast and pipeline cycles/s on accurate
    cycles = result.stats.cycles
    untraced = call_figures(setups[False], calls[False], cycles)
    layers = {
        "isa.assemble_s": median(budget.durations("isa.assemble")),
        "cpu.fast.run_s": median(budget.durations("cpu.fast.run")),
        "cpu.pipeline.run_s": median(budget.durations("cpu.pipeline.run")),
        "engine.run_program_self_s":
            median(budget.self_times("engine.run_program")),
        "run.cpu.instructions": result.stats.instructions,
        "run.cpu.pipeline_cycles": cycles if pipeline else 0,
        **trace_overhead(untraced, call_figures(setups[True], calls[True],
                                                cycles)),
    }
    return untraced, layers


def run_sweep_child(*args: str) -> dict:
    """Run ``sweep_child.py`` with ``args`` in a fresh process against an
    empty artifact cache; returns the JSON object it printed."""
    cache = tempfile.mkdtemp(prefix="sweep-cache-", dir=OUT)
    env = dict(os.environ, REPRO_CACHE_DIR=cache)
    env.pop("REPRO_NO_CACHE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "sweep_child.py"), *args], env=env,
            stdout=subprocess.PIPE, text=True, timeout=SWEEP_TIMEOUT_S,
            check=True)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return json.loads(proc.stdout.splitlines()[-1])


def same_metrics(got, expected) -> bool:
    """Equal ``[name, value]`` lists; floats to 1e-9 relative."""
    def same(a, b):
        return (a == b or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                or (math.isnan(a) and math.isnan(b)))
    return len(got) == len(expected) and all(
        got_name == name and same(got_value, value)
        for (got_name, got_value), (name, value) in zip(got, expected))


def paper_sweep(seed, budget, reference, tally):
    """Cold sweeps of every experiment but fig18.  The experiments fix
    their own seeds: the seed changes nothing here."""
    runs = {False: [], True: []}
    trace_args = ("--spans", str(OUT / "spans-paper-sweep.jsonl"))
    last = 0.0
    while budget.more(last):
        traced = budget.next_traced()
        started = time.perf_counter()
        sweep = run_sweep_child(*(trace_args if traced else ()))
        last = time.perf_counter() - started
        runs[traced].append(sweep)
        experiments = sweep["experiments"]
        for name, metrics in reference["sweep"].items():
            got = experiments.get(name, {})
            tally.add(correct="metrics" in got
                      and same_metrics(got["metrics"], metrics))
        for name in set(experiments) - set(reference["sweep"]):
            tally.add(correct=False)
        tally.add(correct=sweep["pipeline_cycles"]
                  == reference["sweep_pipeline_cycles"])

    # a sweep sets up once; processes that stop after the imports make up
    # the run's SETUP_REPEATS set-up samples
    setups = [sweep["setup_s"] for sweep in runs[False]]
    setups += [run_sweep_child("--import-only")["setup_s"]
               for _ in range(SETUP_REPEATS - len(setups))]

    def figures(sweeps, setup_times):
        times = [sweep["cpu_s"] for sweep in sweeps]
        return {"setup_s": median(setup_times),
                "p50_ms": percentile(times, 50) * 1e3,
                "p95_ms": percentile(times, 95) * 1e3,
                "goodput_per_s": median([len(sweep["experiments"])
                                         / sweep["cpu_s"]
                                         for sweep in sweeps])}

    untraced = figures(runs[False], setups)
    traced = figures(runs[True], [sweep["setup_s"] for sweep in runs[True]])
    layers = {"sweep.import_s": traced["setup_s"],
              **trace_overhead(untraced, traced)}
    for name in reference["sweep"]:
        layers[f"sweep.exp.{name}.wall_s"] = median(
            [sweep["experiments"][name]["wall_s"] for sweep in runs[True]
             if "wall_s" in sweep["experiments"].get(name, {})])
    for key in ("training.bnn_s", "training.nalu_s", "cpu.pipeline.sweep_s",
                "cache.fetch_self_s"):
        layers[key] = median([sweep["layers"][key] for sweep in runs[True]])
    if runs[True]:
        layers["sweep.pipeline_cycles"] = runs[True][-1]["pipeline_cycles"]
    return untraced, layers


def write_reference() -> None:
    """Regenerate ``reference.json``: Dhrystone state digests and cycle
    counts from the accurate engine, the BNN timing model's counts, and
    the metric values of one cold sweep."""
    oracle = get_engine(ORACLE)
    reference = {"dhrystone": {}}
    for path in sorted(SCENARIOS.glob("dhrystone-*.json")):
        scenario = Scenario.from_file(path)
        iterations = scenario.workload.iterations
        cpu, result = oracle.run_program(materialize.build_program(scenario))
        checksum = cpu.memory.load_word(dhrystone.RESULT_SLOT)
        if result.stop_reason != "halt" \
                or checksum != dhrystone.reference_checksum(iterations):
            raise SystemExit(f"{path.name}: Dhrystone did not halt with "
                             "its reference checksum")
        reference["dhrystone"][str(iterations)] = {
            "state_sha256": cpu_state_digest(cpu, result),
            "pipeline_cycles": result.stats.cycles}
    scenario = Scenario.from_file(SCENARIOS / "bnn.json")
    timing = BNNAccelerator().batch_timing(
        materialize.build_model(scenario), BNN_ROWS,
        stream_weights=scenario.batch_policy == "stream")
    reference["bnn"] = {"macs": timing.macs, "sim_cycles": timing.total_cycles}
    sweep = run_sweep_child()
    if any("metrics" not in entry for entry in sweep["experiments"].values()):
        raise SystemExit("an experiment failed; see the traceback above")
    reference["sweep"] = {name: entry["metrics"]
                          for name, entry in sweep["experiments"].items()}
    reference["sweep_pipeline_cycles"] = sweep["pipeline_cycles"]
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


WORKLOADS = {
    "serve-poisson": serve_poisson,
    "scenario-bnn": scenario_bnn,
    "scenario-cpu-fast": functools.partial(scenario_cpu, "dhrystone-fast.json"),
    "scenario-cpu-pipeline": functools.partial(scenario_cpu,
                                               "dhrystone-pipeline.json"),
    "paper-sweep": paper_sweep,
}


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for
    (``ru_maxrss`` is in KiB on Linux)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run one perfbench workload in this process")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json instead")
    args = parser.parse_args(argv)
    source = Path(repro.__file__).resolve().parent
    if source != (ROOT / "src" / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {source}, not "
                         "from this checkout's src/")
    OUT.mkdir(exist_ok=True)
    set_session(SimSession(SimConfig(cache_dir=str(OUT / "cache"),
                                     cache_enabled=False)))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    budget = Budget(args.seconds, bool(args.trace))
    tally = Tally()
    e2e, layers = WORKLOADS[args.workload](
        args.seed, budget, json.loads(REFERENCE.read_text()), tally)
    if args.trace:
        metrics = layers
        if budget.spans.spans:
            budget.spans.write(OUT / f"spans-{args.workload}.jsonl")
    else:
        metrics = dict(e2e, peak_rss_mb=peak_rss_mb())
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
