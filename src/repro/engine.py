"""The two execution engines and the name lookup every dispatch site uses.

An *execution engine* runs RV32I programs (:meth:`run_program`) and
whole-batch BNN inference (:meth:`scores` / :meth:`predict` /
:meth:`hidden_forward`):

* ``accurate`` — :class:`AccurateEngine`: the cycle-accurate 5-stage
  pipeline (or the functional ISS) and the scalar int32-matmul BNN
  path; the timing oracle.
* ``fast`` — :class:`FastEngine`: the superblock interpreter
  (:mod:`repro.cpu.fastpath`) and the row-blocked float32 GEMM kernels
  (:mod:`repro.bnn.vectorized`).

Both engines are bit-identical on architectural results — registers,
memory, predictions, logits and hidden activations equal the golden
models exactly (the differential suites and ``repro fuzz`` pin this).
``run_program`` returns a :class:`~repro.cpu.env.RunResult` whose
:class:`~repro.cpu.env.ExecStats` matches the functional golden model;
only the meaning of cycle counts differs, and
:attr:`EngineCapabilities.timing_accurate` says which.  The BNN entry
points are pure functions of the model and inputs: cycle/MAC accounting
lives in the engine-independent accelerator timing model.

Select an engine with the scenario's ``engine.name``, ``--engine`` or
``REPRO_ENGINE``; resolve it with :func:`resolve_engine`, and never
branch on its name (a guard test greps for that).  A name lookup imports
no simulator: each engine imports its simulator on first call, so
neither simulator module imports this one.  Adding an engine is one
class here plus one entry in ``_ENGINES``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class EngineCapabilities:
    """What one engine's numbers mean.

    ``timing_accurate``: CPU runs report cycle-accurate 5-stage pipeline
    timing (stalls, flushes, hazards).  Engines without it report
    functional single-cycle timing; the pipeline stays the timing oracle.
    """

    timing_accurate: bool

    def as_dict(self) -> Dict[str, bool]:
        """JSON-ready flag mapping (declaration order)."""
        return dataclasses.asdict(self)


class AccurateEngine:
    """Scalar/cycle-accurate execution (the timing oracle)."""

    name = "accurate"
    description = ("cycle-accurate 5-stage pipeline (or functional ISS) "
                   "and scalar int32-matmul BNN inference")
    capabilities = EngineCapabilities(timing_accurate=True)

    def run_program(self, program, *, limit: Optional[int] = None,
                    prefer_functional: bool = False) -> Tuple[Any, Any]:
        """Run ``program`` to completion; ``(cpu, RunResult)``.  ``limit``
        caps steps on the ISS and cycles on the pipeline."""
        from repro.cpu import FunctionalCPU, PipelinedCPU

        if prefer_functional:
            cpu = FunctionalCPU(program)
            result = cpu.run() if limit is None else cpu.run(max_steps=limit)
        else:
            cpu = PipelinedCPU(program)
            result = cpu.run() if limit is None else cpu.run(max_cycles=limit)
        return cpu, result

    def scores(self, model, x_signs):
        """Integer class scores ``(batch, n_classes)``, one row at a time."""
        import numpy as np

        x = np.atleast_2d(np.asarray(x_signs))
        return np.stack([model.scores(row) for row in x])

    def predict(self, model, x_signs):
        """Argmax class predictions ``(batch,)``."""
        return model.predict_batch(x_signs)

    def hidden_forward(self, model, x_signs):
        """Sign activations after every layer (two-core chaining)."""
        return model.hidden_forward_batch(x_signs)


class FastEngine:
    """:class:`~repro.cpu.fastpath.FastCPU` + row-blocked GEMM BNN kernels.

    Instruction-accurate with single-cycle timing — the pipeline stays
    the timing oracle.
    """

    name = "fast"
    description = ("superblock interpreter (single-cycle timing) and "
                   "row-blocked float32 GEMM BNN kernels (exact int32 "
                   "matmul beyond the exactness bound)")
    capabilities = EngineCapabilities(timing_accurate=False)

    def run_program(self, program, *, limit: Optional[int] = None,
                    prefer_functional: bool = False) -> Tuple[Any, Any]:
        """Run ``program`` to completion; ``(cpu, RunResult)``.
        ``prefer_functional`` is moot: FastCPU *is* functional."""
        from repro.cpu.fastpath import FastCPU

        cpu = FastCPU(program)
        result = cpu.run() if limit is None else cpu.run(max_steps=limit)
        return cpu, result

    def scores(self, model, x_signs):
        from repro.bnn.vectorized import vectorized_scores

        return vectorized_scores(model, x_signs)

    def predict(self, model, x_signs):
        from repro.bnn.vectorized import vectorized_predict

        return vectorized_predict(model, x_signs)

    def hidden_forward(self, model, x_signs):
        from repro.bnn.vectorized import vectorized_hidden_forward

        return vectorized_hidden_forward(model, x_signs)


#: every engine, one singleton per name
_ENGINES = {engine.name: engine
            for engine in (AccurateEngine(), FastEngine())}

#: retired engine names -> the engine that absorbed them; a lookup of
#: one fails like any unknown name but names its replacement
RETIRED_ENGINES = {"numpy": "fast", "parallel": "fast"}


def engine_names() -> Tuple[str, ...]:
    """All engine names, sorted."""
    return tuple(sorted(_ENGINES))


def get_engine(name: str) -> Any:
    """The engine called ``name`` (the same object on every call).

    Raises :class:`~repro.errors.ConfigurationError` naming the engines,
    sorted, when ``name`` is unknown — and the replacement first when
    ``name`` is in :data:`RETIRED_ENGINES`.
    """
    try:
        return _ENGINES[name]
    except KeyError:
        replacement = RETIRED_ENGINES.get(name)
        retired = (f"; it was folded into {replacement!r}, use that"
                   if replacement else "")
        raise ConfigurationError(
            f"unknown engine {name!r}{retired}; registered engines: "
            f"{', '.join(engine_names())}") from None


def resolve_engine(engine: Any = None) -> Any:
    """Resolve ``engine`` to an engine object.

    An engine object passes through; a name is looked up; ``None``
    follows the current session scenario's engine.
    """
    if engine is None:
        from repro.sim.session import get_session

        engine = get_session().config.engine
    return get_engine(engine) if isinstance(engine, str) else engine


def ensure_known(name: str) -> str:
    """Validate ``name`` against the engine table; returns it unchanged."""
    get_engine(name)
    return name


def engine_table() -> List[Dict[str, Any]]:
    """One identity block per engine, sorted by name.

    One serializer for ``repro info --json``, the docs engine table and
    the docs lint (``tools/check_docs.py``), so they cannot drift apart.
    """
    return [{"name": name, "description": engine.description,
             "capabilities": engine.capabilities.as_dict()}
            for name, engine in sorted(_ENGINES.items())]
