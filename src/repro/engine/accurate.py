"""The ``accurate`` engine: scalar golden-model and cycle-accurate paths.

This is the reference backend every other engine is differentially
pinned against.  Its CPU half runs the cycle-accurate 5-stage pipeline
(or the functional ISS when ``prefer_functional`` is set), so cycle
counts carry real stall/flush/hazard timing; its BNN half is the scalar
int32-matmul path on :class:`~repro.bnn.model.BNNModel`.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.engine.protocol import EngineCapabilities, ExecutionEngine
from repro.engine.registry import register_engine


@register_engine
class AccurateEngine(ExecutionEngine):
    """Scalar/cycle-accurate execution (the timing oracle)."""

    name = "accurate"
    description = ("cycle-accurate 5-stage pipeline (or functional ISS) "
                   "and scalar int32-matmul BNN inference")
    capabilities = EngineCapabilities(
        timing_accurate=True, functional=True, batched=False,
        phase_attribution=True)

    # -- CPU half ---------------------------------------------------------
    def create_cpu(self, program, memory=None, env=None, *,
                   prefer_functional: bool = False) -> Any:
        from repro.cpu import FunctionalCPU, PipelinedCPU

        cpu_class = FunctionalCPU if prefer_functional else PipelinedCPU
        return cpu_class(program, memory=memory, env=env)

    def run_program(self, program, *, limit: Optional[int] = None,
                    memory=None, env=None,
                    prefer_functional: bool = False) -> Tuple[Any, Any]:
        cpu = self.create_cpu(program, memory=memory, env=env,
                              prefer_functional=prefer_functional)
        if prefer_functional:
            result = cpu.run() if limit is None else cpu.run(max_steps=limit)
        else:
            result = cpu.run() if limit is None else cpu.run(max_cycles=limit)
        return cpu, result

    # -- BNN half ---------------------------------------------------------
    def scores(self, model, x_signs: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x_signs))
        return np.stack([model.scores(row) for row in x])

    def predict(self, model, x_signs: np.ndarray) -> np.ndarray:
        return model.predict_batch(np.asarray(x_signs))

    def hidden_forward(self, model, x_signs: np.ndarray) -> np.ndarray:
        return model.hidden_forward_batch(np.asarray(x_signs))
