"""Formal execution-engine protocols: the contract every backend signs.

An *execution engine* is one named backend that can run RV32I programs
(the :class:`CPUEngine` half) and whole-batch BNN inference (the
:class:`BNNEngine` half).  Engines are interchangeable by contract:

* **Architectural results are bit-identical.**  Registers, memory,
  predictions, logits and hidden activations must equal the golden
  models exactly — the differential equivalence suites pin this for
  every registered engine, not approximately but bit for bit.
* **ExecStats-compatible accounting.**  :meth:`CPUEngine.run_program`
  returns a :class:`~repro.cpu.env.RunResult` whose ``stats`` is a
  real :class:`~repro.cpu.env.ExecStats`: instruction counts, memory
  traffic, per-mnemonic histograms and stop reasons match the
  functional golden model.  Only the *meaning of cycle counts* may
  differ, and :attr:`EngineCapabilities.timing_accurate` says which.
* **BNN entry points never touch the session counters.**  Cycle/MAC
  accounting lives in the accelerator timing model
  (:meth:`~repro.bnn.accelerator.BNNAccelerator.batch_timing`) and is
  engine-independent; an engine's ``scores``/``predict``/
  ``hidden_forward`` compute pure functions of the model and inputs.
  Engines *may* record trace events describing their own host-side
  execution — events are observability, not accounting.

Concrete engines subclass :class:`ExecutionEngine` and register with
:func:`~repro.engine.registry.register_engine`; callers resolve them
through :func:`~repro.engine.registry.resolve_engine` and must never
branch on engine *names* (a guard test greps for exactly that).
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # heavy imports stay runtime-lazy
    import numpy as np

    from repro.bnn.model import BNNModel
    from repro.cpu.env import CoreEnv, RunResult
    from repro.cpu.memory import DataMemory
    from repro.isa.program import Program


@dataclasses.dataclass(frozen=True)
class EngineCapabilities:
    """What one engine's numbers mean.

    * ``timing_accurate`` — CPU runs report cycle-accurate 5-stage
      pipeline timing (stalls, flushes, hazards).  Engines without it
      report functional single-cycle timing; the pipeline remains the
      sole timing oracle.
    * ``functional`` — architectural results are exact.  Every
      registered engine must set this: it is the registry's admission
      contract, and the differential suites enforce it.
    * ``batched`` — BNN inference flows through whole-batch kernels
      (one GEMM per layer) instead of the per-row scalar int32 matmul.
    * ``phase_attribution`` — the engine's runs can be split into the
      six-phase ``repro.obs`` vocabulary with exact sum-to-total cycle
      accounting (``repro attribute`` refuses engines without it).
    """

    timing_accurate: bool
    functional: bool
    batched: bool
    phase_attribution: bool = False

    def as_dict(self) -> Dict[str, bool]:
        """JSON-ready flag mapping (declaration order)."""
        return {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)}


@runtime_checkable
class CPUEngine(Protocol):
    """The program-execution half of an engine."""

    def create_cpu(self, program: "Program",
                   memory: Optional["DataMemory"] = None,
                   env: Optional["CoreEnv"] = None, *,
                   prefer_functional: bool = False) -> Any:
        """Build this engine's CPU simulator for ``program``."""

    def run_program(self, program: "Program", *,
                    limit: Optional[int] = None,
                    memory: Optional["DataMemory"] = None,
                    env: Optional["CoreEnv"] = None,
                    prefer_functional: bool = False
                    ) -> Tuple[Any, "RunResult"]:
        """Execute ``program`` to completion; ``(cpu, RunResult)``."""


@runtime_checkable
class BNNEngine(Protocol):
    """The whole-batch BNN inference half of an engine."""

    def scores(self, model: "BNNModel", x_signs: "np.ndarray") -> "np.ndarray":
        """Integer class scores ``(batch, n_classes)``."""

    def predict(self, model: "BNNModel", x_signs: "np.ndarray") -> "np.ndarray":
        """Argmax class predictions ``(batch,)``."""

    def hidden_forward(self, model: "BNNModel",
                       x_signs: "np.ndarray") -> "np.ndarray":
        """Sign activations after every layer (two-core chaining)."""


class ExecutionEngine:
    """Base class for registered engines; implements both protocols.

    Subclasses set :attr:`name`, :attr:`description` and
    :attr:`capabilities` as class attributes and override the halves
    they provide.  Unprovided entry points raise
    :class:`~repro.errors.SimulationError` naming the engine, so a
    partial backend fails loudly instead of silently falling back.
    """

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    capabilities: ClassVar[EngineCapabilities]

    # -- CPU half ---------------------------------------------------------
    def create_cpu(self, program: "Program",
                   memory: Optional["DataMemory"] = None,
                   env: Optional["CoreEnv"] = None, *,
                   prefer_functional: bool = False) -> Any:
        from repro.errors import SimulationError

        raise SimulationError(
            f"engine {self.name!r} has no CPU execution half")

    def run_program(self, program: "Program", *,
                    limit: Optional[int] = None,
                    memory: Optional["DataMemory"] = None,
                    env: Optional["CoreEnv"] = None,
                    prefer_functional: bool = False
                    ) -> Tuple[Any, "RunResult"]:
        from repro.errors import SimulationError

        raise SimulationError(
            f"engine {self.name!r} has no CPU execution half")

    # -- BNN half ---------------------------------------------------------
    def scores(self, model: "BNNModel", x_signs: "np.ndarray") -> "np.ndarray":
        from repro.errors import SimulationError

        raise SimulationError(
            f"engine {self.name!r} has no BNN inference half")

    def predict(self, model: "BNNModel", x_signs: "np.ndarray") -> "np.ndarray":
        import numpy as np

        return np.argmax(self.scores(model, x_signs), axis=1)

    def hidden_forward(self, model: "BNNModel",
                       x_signs: "np.ndarray") -> "np.ndarray":
        from repro.errors import SimulationError

        raise SimulationError(
            f"engine {self.name!r} has no BNN inference half")

    # -- introspection ----------------------------------------------------
    def info(self) -> Dict[str, Any]:
        """JSON-ready identity block (shared by ``repro info`` and docs)."""
        return {
            "name": self.name,
            "description": self.description,
            "capabilities": self.capabilities.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ",".join(key for key, value in
                         self.capabilities.as_dict().items() if value)
        return f"<{type(self).__name__} {self.name!r} [{flags}]>"
