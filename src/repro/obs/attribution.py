"""Exact phase attribution of runs: simulated cycles + host wall time.

One :class:`RunAttribution` answers "where did this run's time go?" on
both planes at once.  The cycle side is derived from the timing models'
own identities, so it is *exact* (the sum-to-total check mirrors the
profiler's exact-attribution discipline):

* **CPU run** — ``cycles = fill + instructions + stalls + flushes`` for
  the pipeline (``cycles = instructions`` for the functional engines):
  pipeline fill -> ``init``, memory instructions -> ``memory_io``,
  non-memory instructions -> ``inference``, stalls + flushes ->
  ``overhead``.
* **BNN batch** — ``total = max(compute, weight streaming)`` with
  ``compute = latency + (n-1)*interval``: first-result fill beyond the
  steady-state interval -> ``init``, ``n * interval`` steady-state
  classification -> ``inference``, the *unhidden* weight-streaming
  excess -> ``memory_io``.
* **Chained two-core inference** — pipeline fills of both halves ->
  ``init``, the activation DMA hop -> ``memory_io``, the steady-state
  three-stage pipeline -> ``inference``.
* **Scheduler timeline** — segment kinds map to phases (cpu ->
  ``preprocess``, bnn -> ``inference``, dma -> ``memory_io``, switch ->
  ``init``, idle -> ``overhead``) and the total is the summed segment
  cycles across cores.

The wall side comes from a :class:`~repro.obs.phases.PhaseRecorder`
around the real harness regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from repro.engine import get_engine
from repro.errors import ObservabilityError
from repro.obs.phases import (
    INFERENCE,
    INIT,
    MEMORY_IO,
    OVERHEAD,
    PHASES,
    POSTPROCESS,
    PREPROCESS,
    PhaseRecorder,
    check_cycle_attribution,
    check_wall_attribution,
    empty_phases,
)

#: schema tag of the ``repro attribute`` JSON document
ATTRIBUTION_SCHEMA = "repro-attribution/2"

#: timeline segment kind -> phase (unknown kinds land in overhead)
TIMELINE_KIND_PHASES = {
    "cpu": PREPROCESS,
    "bnn": INFERENCE,
    "dma": MEMORY_IO,
    "switch": INIT,
    "idle": OVERHEAD,
}


# -- cycle attributors ---------------------------------------------------
def cpu_phase_cycles(stats) -> Dict[str, int]:
    """Exact phase split of an :class:`~repro.cpu.env.ExecStats`."""
    phases = empty_phases()
    mem_ops = int(stats.mem_reads) + int(stats.mem_writes)
    phases[INIT] = (int(stats.cycles) - int(stats.instructions)
                    - int(stats.stalls) - int(stats.flushes))
    phases[MEMORY_IO] = mem_ops
    phases[INFERENCE] = int(stats.instructions) - mem_ops
    phases[OVERHEAD] = int(stats.stalls) + int(stats.flushes)
    check_cycle_attribution(phases, int(stats.cycles), "cpu run")
    return phases


def bnn_phase_cycles(timing) -> Dict[str, int]:
    """Exact phase split of a :class:`~repro.bnn.accelerator.BatchTiming`."""
    phases = empty_phases()
    latency = int(timing.latency_cycles)
    interval = int(timing.interval_cycles)
    n = int(timing.n_inputs)
    compute = latency + (n - 1) * interval
    phases[INIT] = latency - interval
    phases[INFERENCE] = n * interval
    phases[MEMORY_IO] = int(timing.total_cycles) - compute
    check_cycle_attribution(phases, int(timing.total_cycles), "bnn batch")
    return phases


def chained_phase_cycles(n_inputs: int, front_latency: int,
                         front_interval: int, back_latency: int,
                         back_interval: int,
                         dma_cycles: int) -> Dict[str, int]:
    """Exact phase split of a two-core chained-inference makespan."""
    phases = empty_phases()
    bottleneck = max(front_interval, back_interval, dma_cycles)
    phases[INIT] = ((front_latency - front_interval)
                    + (back_latency - back_interval))
    phases[MEMORY_IO] = dma_cycles
    phases[INFERENCE] = (front_interval + back_interval
                         + (n_inputs - 1) * bottleneck)
    makespan = (front_latency + dma_cycles + back_latency
                + (n_inputs - 1) * bottleneck)
    check_cycle_attribution(phases, makespan, "chained inference")
    return phases


def timeline_phase_cycles(timeline) -> Dict[str, int]:
    """Phase split of a scheduler :class:`~repro.core.events.Timeline`.

    The total is the summed segment cycles across every core (busy and
    idle), so the six buckets cover the timeline exactly.
    """
    phases = empty_phases()
    total = 0
    for segment in timeline.segments:
        phase = TIMELINE_KIND_PHASES.get(segment.kind, OVERHEAD)
        phases[phase] += int(segment.cycles)
        total += int(segment.cycles)
    check_cycle_attribution(phases, total, "timeline")
    return phases


def phase_fractions(buckets: Mapping[str, float]) -> Dict[str, float]:
    """``{phase: share of the total}`` (all zero when the total is)."""
    total = float(sum(buckets[phase] for phase in PHASES))
    if not total:
        return empty_phases(0.0)
    return {phase: float(buckets[phase]) / total for phase in PHASES}


# -- the attribution record ----------------------------------------------
@dataclass
class RunAttribution:
    """One run's exact six-phase split on both planes."""

    scenario: str
    kind: str  # 'cpu' | 'bnn' | 'chained'
    engine: str
    total_cycles: int
    total_wall_s: float
    cycles: Dict[str, int]
    wall_s: Dict[str, float]
    #: device profile the run was attributed under (ncpu-65nm by default)
    profile: str = "ncpu-65nm"
    detail: Dict[str, Any] = field(default_factory=dict)

    def check(self) -> None:
        """Enforce both sum-to-total invariants."""
        context = f"{self.scenario} [{self.engine}/{self.kind}]"
        check_cycle_attribution(self.cycles, self.total_cycles, context)
        check_wall_attribution(self.wall_s, self.total_wall_s, context)

    def cycle_fractions(self) -> Dict[str, float]:
        return phase_fractions(self.cycles)

    def wall_fractions(self) -> Dict[str, float]:
        return phase_fractions(self.wall_s)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (what ``repro attribute --json`` carries)."""
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "engine": self.engine,
            "profile": self.profile,
            "total_cycles": int(self.total_cycles),
            "total_wall_s": float(self.total_wall_s),
            "cycles": {phase: int(self.cycles[phase]) for phase in PHASES},
            "wall_s": {phase: float(self.wall_s[phase])
                       for phase in PHASES},
            "cycle_fractions": self.cycle_fractions(),
            "wall_fractions": self.wall_fractions(),
            "detail": dict(self.detail),
        }


# -- runners --------------------------------------------------------------
def _publish(session, attribution: RunAttribution) -> RunAttribution:
    """Invariant-check, count the run, and trace its phases."""
    attribution.check()
    session.stats["obs.runs"] += 1
    if session.tracer is not None:
        session.tracer.obs_phases(attribution, PHASES)
    return attribution


def attribute_scenario(scenario) -> RunAttribution:
    """Run ``scenario`` once and attribute it into the six phases.

    The run is :func:`repro.scenario.materialize.run_scenario`'s, on the
    engine the scenario names, with the runner's steps wall-timed into
    ``init``/``preprocess``/``inference``; the timing model's cycles are
    then split exactly (``postprocess``).
    """
    from repro.scenario.materialize import run_scenario
    from repro.sim import get_session

    session = get_session()
    recorder = PhaseRecorder()
    with recorder.run():
        run = run_scenario(scenario, recorder=recorder)
        with recorder.measure(POSTPROCESS):
            if scenario.workload.kind == "cpu":
                stats = run.result.stats
                cycles = cpu_phase_cycles(stats)
                total_cycles = int(stats.cycles)
                detail = {"stop_reason": run.result.stop_reason,
                          "instructions": int(stats.instructions)}
            else:
                timing = run.timing
                cycles = bnn_phase_cycles(timing)
                total_cycles = int(timing.total_cycles)
                detail = {"batch_size": int(len(run.inputs)),
                          "macs": int(timing.macs),
                          "predictions_head": [int(p) for p in
                                               run.predictions[:8]]}
    attribution = RunAttribution(
        scenario=scenario.name, kind=scenario.workload.kind,
        engine=run.engine.name, profile=scenario.profile,
        total_cycles=total_cycles,
        total_wall_s=recorder.total_wall_s, cycles=cycles,
        wall_s=recorder.wall_phases(), detail=detail)
    return _publish(session, attribution)


def attribute_chained(scenario) -> RunAttribution:
    """Attribute a chained two-core end-to-end inference of ``scenario``.

    The scenario's model is split across two NCPU cores (paper section
    VI.A) on the engine the scenario names; the makespan decomposes into
    pipeline fills (``init``), the activation DMA hop (``memory_io``)
    and the steady-state three-stage pipeline (``inference``).  Requires
    a ``bnn`` scenario with at least two layers.
    """
    from repro.core.soc import NCPUSoC
    from repro.scenario.materialize import build_inputs, build_model
    from repro.sim import get_session

    if scenario.workload.kind != "bnn":
        raise ObservabilityError(
            f"scenario {scenario.name!r} is kind="
            f"{scenario.workload.kind!r}; chained attribution needs a bnn "
            "scenario")
    session = get_session()
    recorder = PhaseRecorder()
    with recorder.run():
        with recorder.measure(INIT):
            engine = get_engine(scenario.engine.name)
            model = build_model(scenario)
            if model.n_layers < 2:
                raise ObservabilityError(
                    "chained attribution needs a model with >= 2 layers")
            soc = NCPUSoC(n_cores=2, engine=engine)
            split = (model.n_layers + 1) // 2
        with recorder.measure(PREPROCESS):
            inputs = build_inputs(scenario)
        with recorder.measure(INFERENCE):
            predictions, makespan = soc.run_chained_inference(
                model, inputs, split_at=split)
        with recorder.measure(POSTPROCESS):
            front, back = model.split(split)
            core0, core1 = soc.cores[0], soc.cores[1]
            words_per_act = (front.n_classes + 31) // 32
            cycles = chained_phase_cycles(
                n_inputs=len(inputs),
                front_latency=core0.accelerator.latency_cycles(front),
                front_interval=core0.accelerator.interval_cycles(front),
                back_latency=core1.accelerator.latency_cycles(back),
                back_interval=core1.accelerator.interval_cycles(back),
                dma_cycles=soc.dma.transfer_cycles(words_per_act))
            check_cycle_attribution(cycles, int(makespan),
                                    "chained vs soc makespan")
            detail = {"batch_size": int(len(inputs)),
                      "split_at": int(split),
                      "predictions_head": [int(p) for p in
                                           predictions[:8]]}
    attribution = RunAttribution(
        scenario=scenario.name, kind="chained", engine=engine.name,
        profile=scenario.profile,
        total_cycles=int(makespan), total_wall_s=recorder.total_wall_s,
        cycles=cycles, wall_s=recorder.wall_phases(), detail=detail)
    return _publish(session, attribution)


# -- rendering ------------------------------------------------------------
def attribution_document(attributions: Sequence[RunAttribution],
                         scenario=None) -> Dict[str, Any]:
    """The ``repro attribute --json`` document."""
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "scenario": scenario.to_dict() if scenario is not None else None,
        "runs": [attribution.as_dict() for attribution in attributions],
    }


def _format_seconds(value: float) -> str:
    return f"{value:.6f}"


def render_attribution(attributions: Sequence[RunAttribution]) -> str:
    """Markdown breakdown: one phase table per run, plus an A/B summary."""
    lines: List[str] = []
    for attribution in attributions:
        fractions = attribution.cycle_fractions()
        wall_fractions = attribution.wall_fractions()
        lines.append(f"### {attribution.scenario} — engine "
                     f"`{attribution.engine}` on `{attribution.profile}` "
                     f"({attribution.kind})")
        lines.append("")
        lines.append("| phase | cycles | cycles % | wall s | wall % |")
        lines.append("|---|---|---|---|---|")
        for phase in PHASES:
            lines.append(
                f"| {phase} | {attribution.cycles[phase]} "
                f"| {fractions[phase] * 100:.1f}% "
                f"| {_format_seconds(attribution.wall_s[phase])} "
                f"| {wall_fractions[phase] * 100:.1f}% |")
        lines.append(
            f"| **total** | {attribution.total_cycles} | 100.0% "
            f"| {_format_seconds(attribution.total_wall_s)} | 100.0% |")
        lines.append("")
    if len(attributions) > 1:
        lines.append("### A/B summary")
        lines.append("")
        lines.append("| engine | total cycles | total wall s "
                     "| inference cycles % | inference wall % |")
        lines.append("|---|---|---|---|---|")
        for attribution in attributions:
            lines.append(
                f"| `{attribution.engine}` | {attribution.total_cycles} "
                f"| {_format_seconds(attribution.total_wall_s)} "
                f"| {attribution.cycle_fractions()[INFERENCE] * 100:.1f}% "
                f"| {attribution.wall_fractions()[INFERENCE] * 100:.1f}% |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def validate_attribution_dict(data: Mapping[str, Any]) -> None:
    """Schema + invariant check of one serialized attribution entry."""
    for key in ("scenario", "kind", "engine", "total_cycles",
                "total_wall_s", "cycles", "wall_s", "cycle_fractions"):
        if key not in data:
            raise ObservabilityError(f"attribution entry missing {key!r}")
    check_cycle_attribution(data["cycles"], data["total_cycles"],
                            str(data.get("scenario")))
    check_wall_attribution(data["wall_s"], data["total_wall_s"],
                           str(data.get("scenario")))
