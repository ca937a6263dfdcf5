"""Shared instrumentation: named counters and gauges.

All three simulator stacks count into one :class:`StatsRegistry`:

* the pipeline publishes its :class:`~repro.cpu.env.ExecStats` deltas under
  ``cpu.pipeline.*`` (the functional ISS under ``cpu.functional.*``),
* the BNN accelerator publishes batch/inference/cycle/MAC counts under
  ``bnn.*``,
* the DMA engine publishes transfer counts under ``dma.*``,
* every :class:`~repro.core.events.Timeline` segment lands in
  ``timeline.*`` counters, and utilization queries set per-core gauges.

Counters are monotonically increasing sums; gauges hold the last written
value.  Per-event records go to the session tracer
(:mod:`repro.trace`), which the simulators call directly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional


class StatsRegistry:
    """Process-wide named counters and gauges."""

    def __init__(self):
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, Any] = {}

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

    def incr_many(self, amounts: Mapping[str, float]) -> None:
        for name, amount in amounts.items():
            if amount:
                self.incr(name, amount)
