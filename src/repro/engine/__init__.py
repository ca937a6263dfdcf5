"""Execution-engine protocol layer: one seam for every backend.

``repro.engine`` defines the formal contract an execution backend signs
(:class:`CPUEngine` / :class:`BNNEngine` protocols with an
ExecStats-compatible accounting contract and explicit capability flags)
and the name-keyed registry everything dispatches through.  The built-in
engines:

* ``accurate`` — scalar golden-model BNN path + cycle-accurate pipeline
  (:mod:`repro.engine.accurate`); the timing oracle.
* ``fast`` — basic-block interpreter (:mod:`repro.cpu.fastpath`) +
  bit-packed whole-batch XNOR-popcount kernels
  (:mod:`repro.bnn.batched`).
* ``parallel`` — the fast engine with whole-batch inference sharded
  across host processes (:mod:`repro.bnn.parallel`).

All engines are bit-identical on architectural results; only how fast
the *simulation* runs on the host (and whether cycle counts are
pipeline-accurate) differs.  Select one with ``SimConfig.engine``,
``--engine`` or ``REPRO_ENGINE``; resolve with :func:`resolve_engine`.
"""

from repro.engine.protocol import (
    BNNEngine,
    CPUEngine,
    EngineCapabilities,
    ExecutionEngine,
)
from repro.engine.registry import (
    PROVIDER_MODULES,
    RETIRED_ENGINES,
    engine_names,
    engine_table,
    ensure_known,
    get_engine,
    register_engine,
    resolve_engine,
)

__all__ = [
    "BNNEngine",
    "CPUEngine",
    "EngineCapabilities",
    "ExecutionEngine",
    "PROVIDER_MODULES",
    "RETIRED_ENGINES",
    "engine_names",
    "engine_table",
    "ensure_known",
    "get_engine",
    "register_engine",
    "resolve_engine",
]
