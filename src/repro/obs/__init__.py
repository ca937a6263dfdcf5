"""``repro.obs`` — exact phase attribution of runs (cycles + wall time).

The observability layer answers "where did this run's time go?" with one
shared six-phase vocabulary (:data:`PHASES`) on two planes: simulated
cycles (exact, from the timing models' identities) and host wall time
(measured disjoint regions, remainder in ``overhead``).  Entry points:

* :func:`attribute_scenario` / :func:`attribute_chained` — run a
  declarative Scenario once and return a checked :class:`RunAttribution`.
* ``repro attribute`` — the CLI front-end (markdown / JSON, A/B across
  engines).
* :func:`timeline_phase_cycles` — phase split of a scheduler timeline
  (used by the fig17 end-to-end experiment).
"""

from repro.obs.attribution import (
    ATTRIBUTION_SCHEMA,
    RunAttribution,
    attribute_chained,
    attribute_scenario,
    attribution_document,
    bnn_phase_cycles,
    chained_phase_cycles,
    cpu_phase_cycles,
    phase_fractions,
    render_attribution,
    timeline_phase_cycles,
    validate_attribution_dict,
)
from repro.obs.phases import (
    INFERENCE,
    INIT,
    MEMORY_IO,
    OVERHEAD,
    PHASE_DESCRIPTIONS,
    PHASES,
    POSTPROCESS,
    PREPROCESS,
    WALL_TICK_S,
    PhaseRecorder,
    check_cycle_attribution,
    check_wall_attribution,
    empty_phases,
)

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "PHASES",
    "PHASE_DESCRIPTIONS",
    "WALL_TICK_S",
    "INIT",
    "MEMORY_IO",
    "PREPROCESS",
    "INFERENCE",
    "POSTPROCESS",
    "OVERHEAD",
    "PhaseRecorder",
    "RunAttribution",
    "attribute_chained",
    "attribute_scenario",
    "attribution_document",
    "bnn_phase_cycles",
    "chained_phase_cycles",
    "check_cycle_attribution",
    "check_wall_attribution",
    "cpu_phase_cycles",
    "empty_phases",
    "phase_fractions",
    "render_attribution",
    "timeline_phase_cycles",
    "validate_attribution_dict",
]
