"""Registered micro-benchmarks + the BENCH trajectory file writer.

Each benchmark measures one simulator hot path (pipeline cycles/sec on
Dhrystone and the hotspot kernel, BNN inferences/sec, DMA words/sec,
experiment-runner wall time with a warm vs cold :class:`ArtifactCache`)
with warmup + N repeats and reports median/min/IQR wall time plus a
derived throughput.  ``repro bench`` writes the results — together with
the run manifest and the deterministic paper-anchor experiment metrics —
as a root-level ``BENCH_<timestamp>.json`` that
``tools/check_regression.py`` gates against ``benchmarks/baseline.json``.

Benchmarks run inside their own :func:`~repro.sim.use_session`, so they
never pollute the caller's stats registry or artifact cache.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.logutil import get_logger
from repro.metrics.model import RunManifest, summarize
from repro.scenario.schema import EngineSpec, Scenario, WorkloadSpec

#: schema tag written into every BENCH file
BENCH_SCHEMA = "repro-bench/1"

#: file-name prefix of trajectory files (``BENCH_<UTC timestamp>.json``)
BENCH_PREFIX = "BENCH_"

#: default measurement plan (``--quick`` drops to 1 repeat / 0 warmup)
DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 1

#: deterministic paper-anchor experiments folded into every BENCH file
#: (device_zoo is closed-form model math, cheap enough for --quick)
ANCHOR_EXPERIMENTS = ("fig09", "table4", "device_zoo")
#: heavier anchors only measured on full (non-quick) runs
FULL_ANCHOR_EXPERIMENTS = ("fig17",)

logger = get_logger("bench")

#: the hotspot kernel (examples/hotspot.s) with a parametric outer loop so
#: one measured call simulates enough cycles to time reliably
def hotspot_asm(passes: int = 20) -> str:
    return f"""
    addi a6, x0, {passes}       # outer-loop passes
outer:
    addi a0, x0, 0          # sum
    addi a1, x0, 256        # data pointer
    addi a5, x0, 16         # store 16 words first
fill:
    sw   a5, 0(a1)
    addi a1, a1, 4
    addi a5, a5, -1
    bne  a5, x0, fill
    addi a1, x0, 256        # rewind
    addi a5, x0, 16
sum:
    lw   a2, 0(a1)          # load-use hazard: a2 consumed next cycle
    add  a0, a0, a2
    addi a1, a1, 4
    addi a5, a5, -1
    bne  a5, x0, sum        # taken 15 times -> control flushes
    addi a6, a6, -1
    bne  a6, x0, outer
    halt
"""


@dataclass(frozen=True)
class BenchSpec:
    """One registered micro-benchmark.

    ``func(quick)`` performs a single measured repetition and returns the
    work counters it completed (simulated cycles, inferences, words, ...);
    the harness times the call and derives ``work[work_key] / wall`` as
    the benchmark's throughput.  ``scenario`` is the declarative
    full-size configuration the benchmark realizes (workload shape,
    engine, batch size); workload-shaped benches build their kernels /
    models from it, and its canonical dict rides along in the BENCH
    document so trajectory files say exactly what was measured.
    Harness-shaped benches (DMA copy, runner cache timing) have no
    scenario.

    ``slo`` is the serve-layer hook: called once after the timed repeats,
    it returns the benchmark's SLO summary block (p50/p99 latency,
    throughput, attainment) which rides in the result entry and feeds
    the ``serve:*`` regression-gate metrics.
    """

    name: str
    func: Callable[[bool], Mapping[str, float]]
    work_key: str
    unit: str
    help: str = ""
    scenario: Optional[Scenario] = None
    slo: Optional[Callable[[], Optional[Dict[str, Any]]]] = None


_REGISTRY: Dict[str, BenchSpec] = {}


def bench(name: str, *, work_key: str, unit: str, help: str = "",
          scenario: Optional[Scenario] = None,
          slo: Optional[Callable[[], Optional[Dict[str, Any]]]] = None):
    """Register the decorated function as the benchmark ``name``."""

    def decorator(func: Callable[[bool], Mapping[str, float]]):
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} registered twice")
        _REGISTRY[name] = BenchSpec(name=name, func=func, work_key=work_key,
                                    unit=unit, help=help, scenario=scenario,
                                    slo=slo)
        return func

    return decorator


def all_benchmarks() -> Dict[str, BenchSpec]:
    return dict(_REGISTRY)


def select(patterns: Optional[List[str]] = None) -> List[str]:
    """Benchmark names containing any of the given substrings."""
    return [name for name in sorted(_REGISTRY)
            if not patterns or any(p in name for p in patterns)]


# -- the registered benchmarks ------------------------------------------
def _sized_workload(scenario: Scenario, quick: bool,
                    quick_iterations: int) -> Scenario:
    """The scenario, with its iteration count dropped in quick mode."""
    if not quick:
        return scenario
    return scenario.with_overrides(workload=dataclasses.replace(
        scenario.workload, iterations=quick_iterations))


def _register_cpu_bench(name: str, scenario: Scenario, *,
                        quick_iterations: int, work_key: str,
                        unit: str, help: str) -> None:
    """Register one CPU-kernel bench declared by a :class:`Scenario`.

    The CPU benches are parametrized over the engine registry through
    the scenario's engine spec: each one assembles the scenario's kernel
    (:func:`repro.scenario.materialize.build_program`) and runs it
    through ``run_program``, so a new backend gets benchmarked by
    registering one more scenario here.
    """

    @bench(name, work_key=work_key, unit=unit, help=help,
           scenario=scenario)
    def _bench(quick: bool) -> Dict[str, float]:
        from repro.engine import get_engine
        from repro.scenario.materialize import build_program

        sized = _sized_workload(scenario, quick, quick_iterations)
        _, result = get_engine(scenario.engine.name).run_program(
            build_program(sized),
            prefer_functional=scenario.engine.prefer_functional)
        return {"cycles": result.stats.cycles,
                "instructions": result.stats.instructions}


def _cpu_scenario(name: str, program: str, iterations: int, engine: str,
                  prefer_functional: bool = False) -> Scenario:
    return Scenario(
        name=name,
        workload=WorkloadSpec(kind="cpu", name=program, layer_sizes=(),
                              iterations=iterations),
        engine=EngineSpec(name=engine,
                          prefer_functional=prefer_functional),
        batch_size=1)


_register_cpu_bench(
    "cpu.pipeline.dhrystone",
    _cpu_scenario("cpu.pipeline.dhrystone", "dhrystone", 40, "accurate"),
    quick_iterations=5, work_key="cycles", unit="cycles/s",
    help="pipelined-CPU simulation speed on the Dhrystone kernel")
_register_cpu_bench(
    "cpu.functional.dhrystone",
    _cpu_scenario("cpu.functional.dhrystone", "dhrystone", 40, "accurate",
                  prefer_functional=True),
    quick_iterations=5, work_key="instructions", unit="instr/s",
    help="functional-ISS simulation speed on the Dhrystone kernel "
         "(scalar baseline for the fast-path engine)")
_register_cpu_bench(
    "cpu.fastpath.dhrystone",
    _cpu_scenario("cpu.fastpath.dhrystone", "dhrystone", 40, "fast"),
    quick_iterations=5, work_key="instructions", unit="instr/s",
    help="fast-path (basic-block) interpreter speed on the Dhrystone "
         "kernel, block compilation included (--engine fast)")
_register_cpu_bench(
    "cpu.superblock",
    _cpu_scenario("cpu.superblock", "dhrystone", 60, "fast"),
    quick_iterations=5, work_key="instructions", unit="instr/s",
    help="superblock (jal-folded trace) interpreter speed on the "
         "call-heavy Dhrystone kernel, where jump folding actually "
         "forms superblocks (--engine fast)")
_register_cpu_bench(
    "cpu.pipeline.hotspot",
    _cpu_scenario("cpu.pipeline.hotspot", "hotspot", 50, "accurate"),
    quick_iterations=5, work_key="cycles", unit="cycles/s",
    help="pipelined-CPU simulation speed on the hazard-heavy hotspot "
         "kernel (examples/hotspot.s)")


#: the paper-shaped classifier every BNN bench infers (4 layers, 100
#: neurons, 10 classes — the fabricated chip's array)
def _bnn_scenario(name: str, engine: str, batch_size: int) -> Scenario:
    return Scenario(
        name=name,
        workload=WorkloadSpec(kind="bnn", name="random",
                              layer_sizes=(100, 100, 100, 10)),
        engine=EngineSpec(name=engine),
        seed=0, batch_size=batch_size)


@bench("bnn.accelerator.infer", work_key="inferences", unit="inferences/s",
       help="BNN accelerator functional+timing inference throughput",
       scenario=_bnn_scenario("bnn.accelerator.infer", "accurate", 200))
def _bench_bnn_infer(quick: bool) -> Dict[str, float]:
    from repro.bnn import BNNAccelerator
    from repro.scenario.materialize import build_inputs, build_model

    scenario = _REGISTRY["bnn.accelerator.infer"].scenario
    model = build_model(scenario)
    accelerator = BNNAccelerator()
    n = 20 if quick else scenario.batch_size
    inputs = build_inputs(scenario, batch_size=n)
    cycles = 0
    for row in inputs:
        cycles += accelerator.infer(model, row).cycles
    return {"inferences": n, "simulated_cycles": cycles}


#: model reused across repeats so the batched benches measure steady-state
#: throughput (weights bit-packed once, like a deployed classifier)
_BATCHED_MODEL = None


def _register_batch_infer_bench(name: str, engine: str, *, n_quick: int,
                                n_full: int, help: str) -> None:
    """Register a whole-batch inference bench for one registered engine.

    All batch benches share the scenario's model and input recipe, so
    their numbers are directly comparable across engines (fast vs
    parallel).
    """
    scenario = _bnn_scenario(name, engine, n_full)

    @bench(name, work_key="inferences", unit="inferences/s", help=help,
           scenario=scenario)
    def _bench(quick: bool) -> Dict[str, float]:
        from repro.bnn import BNNAccelerator
        from repro.scenario.materialize import build_inputs, build_model

        global _BATCHED_MODEL
        if _BATCHED_MODEL is None:
            _BATCHED_MODEL = build_model(scenario)
        accelerator = BNNAccelerator()
        n = n_quick if quick else scenario.batch_size
        inputs = build_inputs(scenario, batch_size=n)
        _, timing = accelerator.infer_batch(_BATCHED_MODEL, inputs,
                                            engine=scenario.engine.name)
        return {"inferences": n, "simulated_cycles": timing.total_cycles}


_register_batch_infer_bench(
    "bnn.batched.infer", "fast", n_quick=200, n_full=2000,
    help="whole-batch inference throughput (--engine fast), timing "
         "accounting included")
_register_batch_infer_bench(
    "bnn.parallel.infer", "parallel", n_quick=200, n_full=4000,
    help="process-sharded whole-batch inference throughput (--engine "
         "parallel; serial fallback below the sharding threshold)")


#: prebuilt (engine, model, inputs) per kernel bench + batch size, so the
#: kernel benches time *only* the scoring kernels on identical data
_KERNEL_BENCH_STATE: Dict[Any, Any] = {}


def _register_kernel_scores_bench(name: str, engine: str, *, n_quick: int,
                                  n_full: int, help: str) -> None:
    """Register a scoring-kernel bench for one registered engine.

    Unlike :func:`_register_batch_infer_bench`, the model and inputs are
    built (and the engine's packed/lowered caches warmed) *outside* the
    timed region, and no accelerator timing model runs — the measured
    call is exactly one ``engine.scores`` over the scenario's batch, so
    kernel benches are directly comparable across engines.
    """
    scenario = _bnn_scenario(name, engine, n_full)

    @bench(name, work_key="inferences", unit="inferences/s", help=help,
           scenario=scenario)
    def _bench(quick: bool) -> Dict[str, float]:
        from repro.engine import get_engine
        from repro.scenario.materialize import build_inputs, build_model

        n = n_quick if quick else scenario.batch_size
        state = _KERNEL_BENCH_STATE.get((name, n))
        if state is None:
            global _BATCHED_MODEL
            if _BATCHED_MODEL is None:
                _BATCHED_MODEL = build_model(scenario)
            engine_obj = get_engine(scenario.engine.name)
            inputs = build_inputs(scenario, batch_size=n)
            engine_obj.scores(_BATCHED_MODEL, inputs)  # warm lowering caches
            state = (engine_obj, _BATCHED_MODEL, inputs)
            _KERNEL_BENCH_STATE[(name, n)] = state
        engine_obj, model, inputs = state
        engine_obj.scores(model, inputs)
        return {"inferences": n}


_register_kernel_scores_bench(
    "bnn.fast.infer", "fast", n_quick=200, n_full=2000,
    help="whole-batch GEMM scoring kernel alone (--engine fast): "
         "prebuilt model + inputs, no accelerator timing model")


#: the serve bench's scenario: the paper-shaped classifier offered at a
#: Poisson 2 krps with a 2 ms coalescing window on the fast engine
def _serve_scenario() -> Scenario:
    from repro.scenario.schema import ServeSpec

    return Scenario(
        name="serve.e2e.latency",
        workload=WorkloadSpec(kind="bnn", name="random",
                              layer_sizes=(100, 100, 100, 10)),
        engine=EngineSpec(name="fast"),
        seed=0, batch_size=64,
        serve=ServeSpec(arrival="poisson", rate_rps=2000.0, requests=256,
                        batch_window_ms=2.0, max_batch=32,
                        timeout_ms=250.0, latency_budget_ms=50.0,
                        slo_target=0.99))


_SERVE_LAST_REPORT: Optional[Dict[str, Any]] = None


def _serve_slo_block() -> Optional[Dict[str, Any]]:
    """The gateable SLO summary of the serve bench's last repeat."""
    if _SERVE_LAST_REPORT is None:
        return None
    doc = _SERVE_LAST_REPORT
    latency = doc.get("latency_ms") or {}
    return {
        "p50_ms": latency.get("p50"),
        "p99_ms": latency.get("p99"),
        "throughput_rps": doc.get("throughput_rps", 0.0),
        "attainment": doc["slo"]["attainment"],
        "shed": doc["requests"]["shed"],
        "timeout": doc["requests"]["timeout"],
    }


@bench("serve.e2e.latency", work_key="requests", unit="requests/s",
       help="end-to-end served-request latency under open-loop Poisson "
            "load (dynamic batching, --engine fast)",
       scenario=_serve_scenario(), slo=_serve_slo_block)
def _bench_serve(quick: bool) -> Dict[str, float]:
    import dataclasses as _dc

    from repro.serve import serve_scenario

    global _SERVE_LAST_REPORT
    scenario = _REGISTRY["serve.e2e.latency"].scenario
    if quick:
        scenario = scenario.with_overrides(serve=_dc.replace(
            scenario.serve, requests=64))
    doc = serve_scenario(scenario)
    _SERVE_LAST_REPORT = doc
    return {"requests": doc["requests"]["submitted"],
            "completed": doc["requests"]["completed"],
            "simulated_cycles": doc["batches"]["sim_cycles"]}


@bench("dma.transfer", work_key="words", unit="words/s",
       help="DMA engine functional copy throughput (L2 <-> SRAM model)")
def _bench_dma(quick: bool) -> Dict[str, float]:
    from repro.cpu import FlatMemory
    from repro.mem import DMAEngine

    words = 2_000 if quick else 20_000
    src = FlatMemory(size=words * 4 + 64)
    dst = FlatMemory(size=words * 4 + 64)
    for index in range(0, words * 4, 4):
        src.store(index, index & 0xFFFF, 4)
    engine = DMAEngine()
    cycles = engine.copy(src, 0, dst, 0, words, description="bench")
    return {"words": words, "simulated_cycles": cycles}


def _run_cheap_experiment(cache_dir: str, use_cache: bool) -> None:
    from repro.experiments.runner import run_experiment
    from repro.sim import use_session

    with use_session(cache_dir=cache_dir):
        run_experiment("fig07", use_cache=use_cache)


@bench("runner.experiment.cold", work_key="experiments", unit="experiments/s",
       help="experiment-runner wall time with a cold (empty) ArtifactCache")
def _bench_runner_cold(quick: bool) -> Dict[str, float]:
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cold-")
    try:
        _run_cheap_experiment(cache_dir, use_cache=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"experiments": 1}


_WARM_CACHE_DIR: Optional[str] = None


@bench("runner.experiment.warm", work_key="experiments", unit="experiments/s",
       help="experiment-runner wall time with a warm (hit) ArtifactCache")
def _bench_runner_warm(quick: bool) -> Dict[str, float]:
    global _WARM_CACHE_DIR
    if _WARM_CACHE_DIR is None:
        _WARM_CACHE_DIR = tempfile.mkdtemp(prefix="repro-bench-warm-")
        _run_cheap_experiment(_WARM_CACHE_DIR, use_cache=True)  # prime
    _run_cheap_experiment(_WARM_CACHE_DIR, use_cache=True)
    return {"experiments": 1}


# -- harness -------------------------------------------------------------
def run_benchmark(spec: BenchSpec, repeats: int = DEFAULT_REPEATS,
                  warmup: int = DEFAULT_WARMUP,
                  quick: bool = False,
                  session_scenario: Optional[Scenario] = None,
                  profile: Optional[str] = None
                  ) -> Dict[str, Any]:
    """Measure one benchmark: warmup + N timed repeats, median/min/IQR.

    ``session_scenario`` (``repro bench --scenario``) configures the
    throwaway measurement session — engine default and seed — without
    touching the caller's session; caching stays off either way.
    ``profile`` (``repro bench --profile``) selects the device profile
    the measurement session prices power models with; it overrides the
    scenario's own ``device.profile`` when both are given.

    The returned entry keeps the raw per-repeat wall samples next to the
    summary (``wall_s["samples"]``) so attribution variance and warmup
    effects stay debuggable after the fact, and — for benches declared
    by a scenario — a ``repro.obs`` phase ``attribution`` block of one
    *full-size* scenario run.  Attribution cycles are simulation
    outputs, identical on every machine and independent of ``quick``,
    so the regression gate holds their ratios to tight tolerances.
    """
    from repro.sim import SimConfig, SimSession, use_session

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if session_scenario is not None:
        if profile is not None:
            session_scenario = session_scenario.with_profile(profile)
        session = SimSession(SimConfig.from_scenario(
            session_scenario, cache_enabled=False))
    elif profile is not None:
        session = SimSession(SimConfig(cache_enabled=False, profile=profile))
    else:
        session = SimSession(SimConfig(cache_enabled=False))
    times: List[float] = []
    work: Mapping[str, float] = {}
    attribution: Optional[Dict[str, Any]] = None
    slo: Optional[Dict[str, Any]] = None
    with use_session(session):
        for _ in range(warmup):
            spec.func(quick)
        for _ in range(repeats):
            start = time.perf_counter()
            work = spec.func(quick)
            times.append(time.perf_counter() - start)
        if spec.scenario is not None:
            from repro.obs import attribute_scenario

            attribution = attribute_scenario(spec.scenario).as_dict()
        if spec.slo is not None:
            slo = spec.slo()
    wall = summarize(times)
    wall["samples"] = [float(value) for value in times]
    work_units = float(work.get(spec.work_key, 0))
    throughput = {
        "unit": spec.unit,
        "median": work_units / wall["median"] if wall["median"] else 0.0,
        "best": work_units / wall["min"] if wall["min"] else 0.0,
    }
    return {
        "name": spec.name,
        "help": spec.help,
        "repeats": repeats,
        "warmup": warmup,
        "quick": quick,
        "scenario": spec.scenario.to_dict() if spec.scenario else None,
        "work": {key: float(value) for key, value in sorted(work.items())},
        "work_key": spec.work_key,
        "wall_s": wall,
        "throughput": throughput,
        "attribution": attribution,
        "slo": slo,
    }


def anchor_experiment_metrics(quick: bool = False,
                              profile: Optional[str] = None
                              ) -> Dict[str, float]:
    """Deterministic paper-anchor metrics (Fig 9, Table 4, Fig 17 ...).

    These are simulation outputs, not wall times — identical on every
    machine — so the regression gate can hold them to tight tolerances.
    ``profile`` prices the anchors under a non-default device profile;
    ``benchmarks/baseline.json`` expectations only hold for the default.
    """
    import contextlib

    from repro.experiments.runner import run_experiment
    from repro.sim import SimConfig, SimSession, use_session

    names = list(ANCHOR_EXPERIMENTS)
    if not quick:
        names += list(FULL_ANCHOR_EXPERIMENTS)
    metrics: Dict[str, float] = {}
    if profile is not None:
        scope = use_session(SimSession(
            SimConfig(cache_enabled=False, profile=profile)))
    else:  # keep the caller's session (and its warm artifact cache)
        scope = contextlib.nullcontext()
    with scope:
        for name in names:
            result = run_experiment(name, use_cache=True)
            for metric in result.metrics:
                metrics[f"{name}:{metric.name}"] = float(metric.measured)
    return metrics


def run_benchmarks(patterns: Optional[List[str]] = None, *,
                   repeats: int = DEFAULT_REPEATS,
                   warmup: int = DEFAULT_WARMUP,
                   quick: bool = False,
                   with_experiments: bool = True,
                   scenario: Optional[Scenario] = None,
                   profile: Optional[str] = None) -> Dict[str, Any]:
    """Run the selected benchmarks and build the BENCH document.

    Every registered benchmark's own declarative scenario lands in its
    result entry; ``scenario`` (``repro bench --scenario FILE``)
    additionally configures the measurement sessions and is recorded at
    the document's top level.  ``profile`` (``repro bench --profile``)
    prices every measurement session — and the anchor experiments —
    under the named device profile; the document records the effective
    profile either way.  Baseline expectations in
    ``benchmarks/baseline.json`` only hold for the default profile.
    """
    from repro.power import ensure_known_profile
    from repro.sim import DEFAULT_DEVICE_PROFILE

    if profile is not None:
        ensure_known_profile(profile)
    if quick:
        repeats, warmup = min(repeats, 2), 0
    effective_profile = profile or (
        scenario.device.profile if scenario else DEFAULT_DEVICE_PROFILE)
    names = select(patterns)
    results: Dict[str, Any] = {}
    for index, name in enumerate(names):
        logger.info("bench %d/%d %s ...", index + 1, len(names), name)
        results[name] = run_benchmark(_REGISTRY[name], repeats=repeats,
                                      warmup=warmup, quick=quick,
                                      session_scenario=scenario,
                                      profile=profile)
        logger.info("bench %s: median %.4fs (%s %.0f %s)", name,
                    results[name]["wall_s"]["median"], "median",
                    results[name]["throughput"]["median"],
                    results[name]["throughput"]["unit"])
    experiments: Dict[str, float] = {}
    if with_experiments:
        logger.info("measuring paper-anchor experiment metrics ...")
        experiments = anchor_experiment_metrics(quick=quick, profile=profile)
    return {
        "schema": BENCH_SCHEMA,
        "manifest": RunManifest.collect().as_dict(),
        "quick": quick,
        "repeats": repeats,
        "warmup": warmup,
        "scenario": scenario.to_dict() if scenario else None,
        "profile": effective_profile,
        "benchmarks": results,
        "experiments": experiments,
    }


def bench_filename(created_unix: float) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(created_unix))
    return f"{BENCH_PREFIX}{stamp}.json"


def write_bench_file(doc: Mapping[str, Any], out_dir=".") -> Path:
    """Write the BENCH trajectory file (named from the manifest time)."""
    import json

    created = doc.get("manifest", {}).get("created_unix") or time.time()
    target = Path(out_dir) / bench_filename(created)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return target


def latest_bench_file(directory=".") -> Optional[Path]:
    """Newest ``BENCH_*.json`` in ``directory`` (lexical == chronological)."""
    candidates = sorted(Path(directory).glob(f"{BENCH_PREFIX}*.json"))
    return candidates[-1] if candidates else None
