"""The simulation session: config + counters + artifact cache.

A process has one *current* session (:func:`get_session`); simulators look
it up lazily at publish time, so constructing CPUs/accelerators/timelines
stays decoupled from session management.  Tests and sweep drivers install
their own session with :func:`set_session` or the :func:`use_session`
context manager.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Any, Optional

from repro.sim.cache import ArtifactCache
from repro.sim.config import SimConfig


class SimSession:
    """One simulation context: shared counters, shared artifact cache."""

    def __init__(self, config: Optional[SimConfig] = None):
        self.config = config if config is not None else SimConfig.from_env()
        #: counts the simulators publish, keyed by dotted name
        #: (``cpu.pipeline.cycles``, ``bnn.macs``, ...); they only grow
        self.stats: Counter = Counter()
        self.cache = ArtifactCache(root=self.config.resolved_cache_dir,
                                   enabled=self.config.cache_enabled)
        #: the session's active :class:`repro.trace.Tracer` (None when
        #: tracing is off; installed by :func:`repro.trace.install_tracer`)
        self.tracer = None

    @classmethod
    def from_scenario(cls, scenario, **config_overrides) -> "SimSession":
        """A session configured from a declarative scenario.

        ``scenario`` is a :class:`repro.scenario.schema.Scenario` (or a
        path to a scenario JSON file); it becomes the session config's
        one scenario, so its engine, profile and seed apply and its hash
        labels the run's manifest.
        """
        from repro.scenario.schema import Scenario

        if not isinstance(scenario, Scenario):
            scenario = Scenario.from_file(scenario)
        return cls(SimConfig.from_scenario(scenario, **config_overrides))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SimSession(hash={self.config.scenario.hash}, "
                f"cache={self.cache.root}, enabled={self.cache.enabled})")


_current: Optional[SimSession] = None


def get_session() -> SimSession:
    """The process-wide current session (created on first use)."""
    global _current
    if _current is None:
        _current = SimSession()
    return _current


def set_session(session: Optional[SimSession]) -> Optional[SimSession]:
    """Install ``session`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = session
    return previous


def reset_session() -> None:
    """Drop the current session (a fresh default is created on next use)."""
    set_session(None)


@contextmanager
def use_session(session: Optional[SimSession] = None, **config_kwargs: Any):
    """Temporarily install a session (built from ``config_kwargs`` if not
    given); restores the previous session on exit."""
    if session is None:
        session = SimSession(SimConfig(**config_kwargs))
    previous = set_session(session)
    try:
        yield session
    finally:
        set_session(previous)
