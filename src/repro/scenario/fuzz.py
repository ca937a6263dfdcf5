"""Differential scenario fuzzing: random scenarios, every engine agrees.

The engines' contract is *bit-identical architectural results*.  The
hand-written differential suites pin that on a few fixed workloads;
this module turns the contract into a property-based harness: a seeded
:class:`ScenarioFuzzer` draws bounded random scenarios (shapes, batch
sizes, seeds — engines come from :mod:`repro.engine`), and
:func:`run_differential` executes each one on every engine and compares
the outputs bit for bit:

* **BNN scenarios** — class scores, argmax predictions and per-layer
  hidden sign activations must be array-equal across engines, and the
  accelerator's cycle/MAC accounting (which is engine-independent by
  contract) must be exactly equal.
* **CPU scenarios** — stop reason, final PC, all 32 architectural
  registers, retired-instruction counts, memory traffic and the
  per-mnemonic histogram must match.  Cycle counts are deliberately
  *not* compared: engines without ``timing_accurate`` report functional
  single-cycle timing (the pipeline stays the timing oracle).  Every
  engine is also compared with the ``accurate`` engine's functional
  ISS, which executes :func:`~repro.cpu.semantics.compile_ex`: a
  block-timed pipeline run executes ``FastCPU``'s op table, so without
  the ISS ``accurate`` against ``fast`` would compare that table with
  itself.

``repro fuzz --count N --seed S`` drives this from the CLI; a fresh
engine becomes trustworthy by surviving a fuzz run, not by hand-writing
a fourth differential suite.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine import engine_names
from repro.scenario.schema import (
    BATCH_POLICIES,
    CPU_PROGRAMS,
    EngineSpec,
    Scenario,
    WorkloadSpec,
)

#: engines every fuzz run compares by default: all of them
#: (``--engines`` / the ``engines`` argument can restrict the set)
def default_engines() -> Tuple[str, ...]:
    return engine_names()


#: fuzzer draw bounds — small enough that a 25-scenario run stays in
#: seconds, wide enough to hit odd shapes (widths like 1, 17 and 65
#: stress the kernels' edge cases).  Hidden/output widths
#: respect the accelerator array's 100-neuron fan-out limit; the input
#: width (fan-in of layer 1) is architecturally unbounded.  A batch of
#: 1,031 rows is one full ``fast`` kernel row block
#: (``repro.bnn.vectorized.GEMM_ROW_BLOCK``) plus 7 rows, so it crosses
#: a block boundary; it sits where ``repro fuzz --count 10 --seed 0``
#: draws it once (``tests/scenario/test_fuzz.py`` pins both facts).
INPUT_WIDTH_CHOICES = (1, 3, 17, 33, 64, 65, 100, 127, 200)
HIDDEN_WIDTH_CHOICES = (1, 3, 10, 17, 33, 64, 65, 100)
CLASS_COUNT_CHOICES = (2, 4, 10)
BATCH_SIZE_CHOICES = (1, 2, 7, 1031, 16, 33, 64)
CPU_ITERATION_CHOICES = (1, 2, 5, 10)
MAX_HIDDEN_LAYERS = 3


class ScenarioFuzzer:
    """Deterministic random-scenario generator.

    The same ``seed`` always yields the same scenario sequence
    (``random.Random`` is stable across platforms and Python builds),
    so a failing fuzz run is reproducible from its seed + index alone.
    """

    def __init__(self, seed: int = 0,
                 engines: Optional[Sequence[str]] = None,
                 kinds: Sequence[str] = ("bnn", "cpu")):
        self.seed = seed
        self.engines = tuple(engines) if engines else default_engines()
        self.kinds = tuple(kinds)
        self._rng = random.Random(seed)
        self._drawn = 0

    def draw(self) -> Scenario:
        """The next random scenario in this fuzzer's sequence."""
        rng = self._rng
        index = self._drawn
        self._drawn += 1
        kind = rng.choice(self.kinds)
        seed = rng.randrange(0, 2**31)
        engine = EngineSpec(name=rng.choice(self.engines))
        if kind == "cpu":
            workload = WorkloadSpec(
                kind="cpu", name=rng.choice(CPU_PROGRAMS),
                layer_sizes=(),
                iterations=rng.choice(CPU_ITERATION_CHOICES))
            batch_size = 1
        else:
            hidden = [rng.choice(HIDDEN_WIDTH_CHOICES)
                      for _ in range(rng.randint(1, MAX_HIDDEN_LAYERS))]
            sizes = ([rng.choice(INPUT_WIDTH_CHOICES)] + hidden
                     + [rng.choice(CLASS_COUNT_CHOICES)])
            workload = WorkloadSpec(kind="bnn", name="random",
                                    layer_sizes=tuple(sizes), iterations=1)
            batch_size = rng.choice(BATCH_SIZE_CHOICES)
        return Scenario(name=f"fuzz-{self.seed}-{index}",
                        workload=workload, engine=engine, seed=seed,
                        batch_size=batch_size,
                        batch_policy=rng.choice(BATCH_POLICIES))

    def scenarios(self, count: int) -> Iterator[Scenario]:
        for _ in range(count):
            yield self.draw()


@dataclasses.dataclass
class Mismatch:
    """One field two engines disagreed on."""

    field: str
    engine: str
    reference_engine: str
    detail: str

    def __str__(self) -> str:
        return (f"{self.field}: {self.engine} != {self.reference_engine} "
                f"({self.detail})")


@dataclasses.dataclass
class DifferentialResult:
    """Outcome of running one scenario across every compared engine."""

    scenario: Scenario
    engines: Tuple[str, ...]
    mismatches: List[Mismatch] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "engines": list(self.engines),
            "ok": self.ok,
            "mismatches": [str(m) for m in self.mismatches],
        }


def _compare_arrays(field: str, reference: Any, candidate: Any,
                    engine: str, reference_engine: str,
                    mismatches: List[Mismatch]) -> None:
    import numpy as np

    ref = np.asarray(reference)
    got = np.asarray(candidate)
    if ref.shape != got.shape:
        mismatches.append(Mismatch(field, engine, reference_engine,
                                   f"shape {got.shape} vs {ref.shape}"))
        return
    if not np.array_equal(ref, got):
        bad = int(np.count_nonzero(ref != got))
        mismatches.append(Mismatch(field, engine, reference_engine,
                                   f"{bad}/{ref.size} elements differ"))


def _compare_scalar(field: str, reference: Any, candidate: Any,
                    engine: str, reference_engine: str,
                    mismatches: List[Mismatch]) -> None:
    if reference != candidate:
        mismatches.append(Mismatch(field, engine, reference_engine,
                                   f"{candidate!r} vs {reference!r}"))


def _observe(scenario: Scenario) -> Dict[str, Any]:
    """The fields one engine's run of ``scenario`` is compared on."""
    from repro.scenario.materialize import run_scenario

    run = run_scenario(scenario)
    if scenario.workload.kind == "cpu":
        result = run.result
        return {
            "stop_reason": result.stop_reason,
            "pc": result.pc,
            "registers": [run.cpu.regs.read(index) for index in range(32)],
            "instructions": result.stats.instructions,
            "mem_reads": result.stats.mem_reads,
            "mem_writes": result.stats.mem_writes,
            "instr_counts": dict(result.stats.instr_counts),
        }
    return {
        "scores": run.engine.scores(run.model, run.inputs),
        "predictions": run.predictions,
        "hidden": run.engine.hidden_forward(run.model, run.inputs),
        "total_cycles": int(run.timing.total_cycles),
        "macs": int(run.timing.macs),
    }


#: observation fields compared exactly as arrays (everything else is
#: compared as plain scalars/mappings)
_ARRAY_FIELDS = ("scores", "predictions", "hidden", "registers")


#: how a mismatch names the ``accurate`` engine's functional ISS, which
#: every CPU scenario is also run on
ISS_LABEL = "accurate/functional"


def run_differential(scenario: Scenario,
                     engines: Optional[Sequence[str]] = None
                     ) -> DifferentialResult:
    """Run ``scenario`` on every engine, and a CPU scenario on the
    functional ISS too; the first engine is the oracle."""
    names = tuple(engines) if engines else default_engines()
    result = DifferentialResult(scenario=scenario, engines=names)
    reference_engine = names[0]
    reference = _observe(scenario.with_engine(name=reference_engine))
    candidates = [(name, scenario.with_engine(name=name))
                  for name in names[1:]]
    if scenario.workload.kind == "cpu":
        candidates.append((ISS_LABEL, scenario.with_engine(
            name="accurate", prefer_functional=True)))
    for label, candidate in candidates:
        observed = _observe(candidate)
        for field, expected in reference.items():
            compare = (_compare_arrays if field in _ARRAY_FIELDS
                       else _compare_scalar)
            compare(field, expected, observed[field], label,
                    reference_engine, result.mismatches)
    return result


def fuzz(count: int = 25, seed: int = 0,
         engines: Optional[Sequence[str]] = None,
         kinds: Sequence[str] = ("bnn", "cpu"),
         on_result=None) -> List[DifferentialResult]:
    """Generate ``count`` scenarios and differentially run each one.

    ``on_result`` (when given) is called with each
    :class:`DifferentialResult` as it completes — the CLI uses it for
    per-scenario progress lines.  Runs inside a throwaway session so
    fuzzing never pollutes the caller's stats or artifact cache.
    """
    from repro.sim import use_session

    fuzzer = ScenarioFuzzer(seed=seed, engines=engines, kinds=kinds)
    results: List[DifferentialResult] = []
    with use_session(cache_enabled=False):
        for scenario in fuzzer.scenarios(count):
            result = run_differential(scenario, engines=fuzzer.engines)
            results.append(result)
            if on_result is not None:
                on_result(result)
    return results
