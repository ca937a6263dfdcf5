"""Shared instrumentation: named counters, gauges, and probe events.

All three simulator stacks emit into one :class:`StatsRegistry`:

* the pipeline publishes its :class:`~repro.cpu.env.ExecStats` deltas under
  ``cpu.pipeline.*`` (the functional ISS under ``cpu.functional.*``),
* the BNN accelerator publishes batch/inference/cycle/MAC counts under
  ``bnn.*``,
* the DMA engine publishes transfer counts under ``dma.*``,
* every :class:`~repro.core.events.Timeline` segment lands in
  ``timeline.*`` counters, and utilization queries set per-core gauges.

Counters are monotonically increasing sums; gauges hold the last written
value.  Probes subscribe to named events (``"*"`` for all) and receive
``(event, payload)`` — the structured side channel for tracing tools.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any, Callable, Dict, List, Mapping, Optional

ProbeFn = Callable[[str, Mapping[str, Any]], None]

#: subscription key receiving every event
ALL_EVENTS = "*"

#: counter tracking probe callbacks that raised during :meth:`emit`
PROBE_ERROR_COUNTER = "stats.probe_errors"

#: set to ``1`` to re-raise probe exceptions instead of counting them
STRICT_PROBES_ENV_VAR = "REPRO_STRICT_PROBES"


class StatsRegistry:
    """Process-wide named counters, gauges, and probe/event hooks."""

    def __init__(self):
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, Any] = {}
        self._probes: Dict[str, List[ProbeFn]] = defaultdict(list)

    # -- counters -------------------------------------------------------
    def incr(self, name: str, amount: float = 1) -> float:
        """Add ``amount`` to a counter; returns the new total."""
        total = self._counters.get(name, 0) + amount
        self._counters[name] = total
        return total

    def get(self, name: str, default: float = 0) -> float:
        """Current value of a counter (or gauge, if no counter matches)."""
        if name in self._counters:
            return self._counters[name]
        return self._gauges.get(name, default)

    def counters(self, prefix: str = "") -> Dict[str, float]:
        return {name: value for name, value in sorted(self._counters.items())
                if name.startswith(prefix)}

    # -- gauges ---------------------------------------------------------
    def set_gauge(self, name: str, value: Any) -> None:
        self._gauges[name] = value

    def gauges(self, prefix: str = "") -> Dict[str, Any]:
        return {name: value for name, value in sorted(self._gauges.items())
                if name.startswith(prefix)}

    # -- probes / events ------------------------------------------------
    def subscribe(self, event: str, probe: ProbeFn) -> ProbeFn:
        """Register ``probe`` for ``event`` (``"*"`` matches everything)."""
        self._probes[event].append(probe)
        return probe

    def unsubscribe(self, event: str, probe: ProbeFn) -> None:
        probes = self._probes.get(event, [])
        if probe in probes:
            probes.remove(probe)
        if not probes:
            # an empty list would defeat emit's "no probes" early return
            self._probes.pop(event, None)

    def emit(self, event: str, payload: Optional[Mapping[str, Any]] = None,
             **fields: Any) -> None:
        """Deliver a structured event to its subscribers (cheap when none).

        A raising probe must never abort the simulation: exceptions are
        swallowed and counted under ``stats.probe_errors``, unless
        ``REPRO_STRICT_PROBES=1`` is set (debugging), in which case they
        propagate.
        """
        if not self._probes:
            return
        merged = dict(payload or {})
        merged.update(fields)
        for probe in self._probes.get(event, []):
            self._dispatch(probe, event, merged)
        for probe in self._probes.get(ALL_EVENTS, []):
            self._dispatch(probe, event, merged)

    def _dispatch(self, probe: ProbeFn, event: str,
                  payload: Mapping[str, Any]) -> None:
        try:
            probe(event, payload)
        except Exception:
            if os.environ.get(STRICT_PROBES_ENV_VAR) == "1":
                raise
            self.incr(PROBE_ERROR_COUNTER)

    # -- snapshots (delta-based assertions) ------------------------------
    def snapshot(self, prefix: str = "") -> Dict[str, float]:
        """Freeze the current counter values under ``prefix``.

        Pair with :meth:`diff` so tests and the profiler can assert on
        *growth* instead of absolute process-wide totals (which bleed
        across tests sharing one session).
        """
        return self.counters(prefix)

    def diff(self, before: Mapping[str, float],
             prefix: str = "") -> Dict[str, float]:
        """Counter growth since a :meth:`snapshot` (zero deltas omitted)."""
        current = self.counters(prefix)
        deltas: Dict[str, float] = {}
        for name in sorted(set(current) | set(before)):
            delta = current.get(name, 0) - before.get(name, 0)
            if delta:
                deltas[name] = delta
        return deltas

    # -- export ---------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": self.counters(), "gauges": self.gauges()}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True,
                          default=str)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()

    def scope(self, prefix: str) -> "StatsScope":
        """A view that prepends ``prefix.`` to every name."""
        return StatsScope(self, prefix)


class StatsScope:
    """A prefixed view onto a :class:`StatsRegistry`."""

    def __init__(self, registry: StatsRegistry, prefix: str):
        self.registry = registry
        self.prefix = prefix.rstrip(".")

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def incr(self, name: str, amount: float = 1) -> float:
        return self.registry.incr(self._name(name), amount)

    def get(self, name: str, default: float = 0) -> float:
        return self.registry.get(self._name(name), default)

    def set_gauge(self, name: str, value: Any) -> None:
        self.registry.set_gauge(self._name(name), value)

    def emit(self, event: str, payload: Optional[Mapping[str, Any]] = None,
             **fields: Any) -> None:
        self.registry.emit(self._name(event), payload, **fields)

    def incr_many(self, amounts: Mapping[str, float]) -> None:
        for name, amount in amounts.items():
            if amount:
                self.incr(name, amount)
