"""The simulation session: config + stats registry + artifact cache.

A process has one *current* session (:func:`get_session`); simulators look
it up lazily at publish time, so constructing CPUs/accelerators/timelines
stays decoupled from session management.  Tests and sweep drivers install
their own session with :func:`set_session` or the :func:`use_session`
context manager.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Optional

from repro.engine import resolve_engine
from repro.sim.cache import ArtifactCache
from repro.sim.config import SimConfig
from repro.sim.instrument import StatsRegistry


class SimSession:
    """One simulation context: shared stats, shared artifact cache."""

    def __init__(self, config: Optional[SimConfig] = None,
                 stats: Optional[StatsRegistry] = None,
                 cache: Optional[ArtifactCache] = None):
        self.config = config if config is not None else SimConfig.from_env()
        self.stats = stats if stats is not None else StatsRegistry()
        self.cache = cache if cache is not None else ArtifactCache(
            root=self.config.resolved_cache_dir,
            enabled=self.config.cache_enabled,
        )
        #: the session's active :class:`repro.trace.Tracer` (None when
        #: tracing is off; installed by :func:`repro.trace.install_tracer`)
        self.tracer = None

    @classmethod
    def from_scenario(cls, scenario, **config_overrides) -> "SimSession":
        """A session configured from a declarative scenario.

        ``scenario`` is a :class:`repro.scenario.schema.Scenario` (or a
        path to a scenario JSON file); its seed/engine/identity flow
        into the session's :class:`SimConfig`, so the config hash that
        labels the run's manifest covers the scenario.
        """
        from repro.scenario.schema import Scenario

        if not isinstance(scenario, Scenario):
            scenario = Scenario.from_file(scenario)
        return cls(SimConfig.from_scenario(scenario, **config_overrides))

    @property
    def config_hash(self) -> str:
        return self.config.hash

    def stats_json(self, indent: Optional[int] = 2) -> str:
        return self.stats.to_json(indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SimSession(hash={self.config_hash}, "
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


def current_engine(override: Optional[str] = None) -> str:
    """Resolve the active execution engine's name.

    ``override`` wins when given; otherwise the current session's
    ``SimConfig.engine`` applies.  An unknown name raises a
    :class:`~repro.errors.ConfigurationError` naming the engines.
    """
    return resolve_engine(override).name


def current_profile(override: Optional[str] = None) -> str:
    """Resolve the active device profile's name.

    ``override`` wins when given; otherwise the current session's
    ``SimConfig.profile`` applies.  Resolution goes through the
    :mod:`repro.power.profiles` registry, so a
    :class:`~repro.errors.ConfigurationError` naming the registered
    profiles is raised on unknown names.
    """
    from repro.power.profiles import resolve_profile

    if override is not None:
        return resolve_profile(override).name
    return resolve_profile(get_session().config.profile).name


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
