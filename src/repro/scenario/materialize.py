"""Turn a validated :class:`~repro.scenario.schema.Scenario` into work.

The schema deliberately stays declarative — pure data, importable
everywhere.  This module is the one place that knows how to *realize* a
scenario: assemble its CPU kernel, build its (seeded) random BNN model
and input batch, and execute the whole thing on the engine it names.
The CLI (``repro run --scenario``), phase attribution, the serve layer
and the differential fuzzer all share these builders, so a scenario
means the same concrete workload everywhere it is consumed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.scenario.schema import Scenario

#: offset added to ``Scenario.seed`` for the input-batch RNG, so model
#: weights and inputs come from distinct, reproducible streams
INPUT_SEED_OFFSET = 1


def hotspot_asm(passes: int) -> str:
    """The schema's ``hotspot`` CPU program: the hazard-heavy kernel of
    ``examples/hotspot.s`` (load-use stalls, taken-branch flushes) inside
    an outer loop of ``passes`` iterations."""
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


def build_source(scenario: Scenario) -> str:
    """The assembly source of a ``cpu``-kind scenario's kernel."""
    workload = scenario.workload
    if workload.kind != "cpu":
        raise ConfigurationError(
            f"scenario {scenario.name!r} is kind={workload.kind!r}; only "
            "cpu scenarios assemble to a program")
    if workload.name == "dhrystone":
        from repro.workloads.dhrystone import dhrystone_asm

        return dhrystone_asm(iterations=workload.iterations)
    if workload.name == "hotspot":
        return hotspot_asm(passes=workload.iterations)
    raise ConfigurationError(  # pragma: no cover - schema validates names
        f"scenario.workload.name: unknown CPU program {workload.name!r}")


def build_program(scenario: Scenario):
    """Assemble the scenario's CPU kernel into a loadable program."""
    from repro.isa import assemble

    return assemble(build_source(scenario))


def build_model(scenario: Scenario):
    """The scenario's seeded random binary network (``bnn`` kind only)."""
    import numpy as np

    from repro.bnn import BNNModel

    workload = scenario.workload
    if workload.kind != "bnn":
        raise ConfigurationError(
            f"scenario {scenario.name!r} is kind={workload.kind!r}; only "
            "bnn scenarios build a model")
    return BNNModel.random(list(workload.layer_sizes),
                           np.random.default_rng(scenario.seed))


def build_inputs(scenario: Scenario,
                 batch_size: Optional[int] = None):
    """A seeded sign-domain input batch ``(batch, input_width)``."""
    import numpy as np

    from repro.bnn import binarize_sign

    n = scenario.batch_size if batch_size is None else batch_size
    rng = np.random.default_rng(scenario.seed + INPUT_SEED_OFFSET)
    width = scenario.workload.layer_sizes[0]
    return binarize_sign(rng.standard_normal((n, width)))


def run_scenario(scenario: Scenario,
                 engine: Optional[str] = None) -> Dict[str, Any]:
    """Execute one scenario end-to-end; returns a JSON-ready summary.

    ``engine`` overrides the scenario's engine spec (the CLI threads
    ``--engine`` through here).  CPU scenarios run their kernel through
    the engine's ``run_program``; BNN scenarios classify the input batch
    through the accelerator's engine-dispatched batch path, so cycle/MAC
    accounting comes from the engine-independent timing model.
    """
    from repro.engine import resolve_engine

    resolved = resolve_engine(engine or scenario.engine.name)
    summary: Dict[str, Any] = {
        "scenario": scenario.to_dict(),
        "engine": resolved.name,
    }
    if scenario.workload.kind == "cpu":
        _, result = resolved.run_program(
            build_program(scenario),
            prefer_functional=scenario.engine.prefer_functional)
        summary["kind"] = "cpu"
        summary["stop_reason"] = result.stop_reason
        summary["cycles"] = result.stats.cycles
        summary["instructions"] = result.stats.instructions
        return summary
    from repro.bnn import BNNAccelerator

    model = build_model(scenario)
    inputs = build_inputs(scenario)
    stream = scenario.batch_policy == "stream"
    predictions, timing = BNNAccelerator().infer_batch(
        model, inputs, stream_weights=stream, engine=resolved)
    summary["kind"] = "bnn"
    summary["batch_size"] = int(len(inputs))
    summary["predictions"] = [int(p) for p in predictions]
    summary["total_cycles"] = int(timing.total_cycles)
    summary["macs"] = int(timing.macs)
    return summary


def scenario_signature(scenario: Scenario) -> Tuple[str, str]:
    """``(kind, short description)`` used by CLI/report one-liners."""
    workload = scenario.workload
    if workload.kind == "cpu":
        detail = f"{workload.name} x{workload.iterations}"
    else:
        sizes = "-".join(str(size) for size in workload.layer_sizes)
        detail = f"{workload.name} [{sizes}] batch={scenario.batch_size}"
    return workload.kind, detail
