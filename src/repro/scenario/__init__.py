"""Declarative scenario schema + differential scenario fuzzing.

* :mod:`repro.scenario.schema` — the frozen dataclass tree
  (:class:`Scenario` = :class:`WorkloadSpec` + :class:`EngineSpec` +
  :class:`ServeSpec` + seed/batch/profile scalars) with field-exact
  validation and canonical JSON round-tripping,
* :mod:`repro.scenario.materialize` — builders turning a scenario into
  an assembled program / seeded model + inputs / an executed run,
* :mod:`repro.scenario.fuzz` — the seeded random-scenario generator and
  the three-way engine differential harness behind ``repro fuzz``.

The fuzz module is imported lazily (``import repro.scenario.fuzz``) so
the schema stays cheap to import from :mod:`repro.sim.config`.
"""

from repro.scenario.schema import (
    ARRIVAL_PROCESSES,
    BATCH_POLICIES,
    CPU_PROGRAMS,
    WORKLOAD_KINDS,
    EngineSpec,
    Scenario,
    ServeSpec,
    WorkloadSpec,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "BATCH_POLICIES",
    "CPU_PROGRAMS",
    "EngineSpec",
    "Scenario",
    "ServeSpec",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
]
