"""Turn a validated :class:`~repro.scenario.schema.Scenario` into work.

The schema deliberately stays declarative — pure data, importable
everywhere.  This module is the one place that knows how to *realize* a
scenario: assemble its CPU kernel, build its (seeded) random BNN model
and input batch, and execute the whole thing on the engine it names.
:func:`run_scenario` is the one runner: ``repro run --scenario``, phase
attribution and the differential fuzzer all execute a scenario through
it, and the serve layer shares the builders, so a scenario means the
same concrete run everywhere it is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.engine import get_engine
from repro.errors import ConfigurationError
from repro.obs.phases import INFERENCE, INIT, PREPROCESS, PhaseRecorder
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


@dataclass
class ScenarioRun:
    """One run of a scenario, as :func:`run_scenario` returns it.

    ``engine`` is the engine object that ran it.  A ``cpu`` run fills
    ``cpu`` and ``result`` (its :class:`~repro.cpu.env.RunResult`); a
    ``bnn`` run fills ``model``, ``inputs``, ``predictions`` and
    ``timing`` (its :class:`~repro.bnn.accelerator.BatchTiming`).
    """

    engine: Any
    cpu: Any = None
    result: Any = None
    model: Any = None
    inputs: Any = None
    predictions: Any = None
    timing: Any = None


def run_scenario(scenario: Scenario, limit: Optional[int] = None,
                 recorder: Optional[PhaseRecorder] = None) -> ScenarioRun:
    """Run ``scenario`` once, on the engine it names.

    CPU scenarios run their kernel through the engine's ``run_program``;
    ``limit`` caps it (cycles on the pipeline, steps on the functional
    engines).  BNN scenarios classify the input batch through the
    accelerator's engine-dispatched batch path, so cycle/MAC accounting
    comes from the engine-independent timing model.  ``recorder`` times
    the steps: engine lookup and model build as ``init``, assembly and
    the input batch as ``preprocess``, the run as ``inference``.
    """
    if recorder is None:
        recorder = PhaseRecorder()
    with recorder.measure(INIT):
        engine = get_engine(scenario.engine.name)
    if scenario.workload.kind == "cpu":
        with recorder.measure(PREPROCESS):
            program = build_program(scenario)
        with recorder.measure(INFERENCE):
            cpu, result = engine.run_program(
                program, limit=limit,
                prefer_functional=scenario.engine.prefer_functional)
        return ScenarioRun(engine, cpu=cpu, result=result)
    from repro.bnn import BNNAccelerator

    with recorder.measure(INIT):
        accelerator = BNNAccelerator()
        model = build_model(scenario)
    with recorder.measure(PREPROCESS):
        inputs = build_inputs(scenario)
    with recorder.measure(INFERENCE):
        predictions, timing = accelerator.infer_batch(
            model, inputs, stream_weights=scenario.batch_policy == "stream",
            engine=engine)
    return ScenarioRun(engine, model=model, inputs=inputs,
                       predictions=predictions, timing=timing)


def scenario_signature(scenario: Scenario) -> Tuple[str, str]:
    """``(kind, short description)`` used by CLI/report one-liners."""
    workload = scenario.workload
    if workload.kind == "cpu":
        detail = f"{workload.name} x{workload.iterations}"
    else:
        sizes = "-".join(str(size) for size in workload.layer_sizes)
        detail = f"{workload.name} [{sizes}] batch={scenario.batch_size}"
    return workload.kind, detail
