"""Unified simulation session layer.

Every simulator stack in the reproduction — the cycle-accurate pipeline
(:mod:`repro.cpu.pipeline`), the BNN accelerator (:mod:`repro.bnn.accelerator`)
and the SoC discrete-event timeline (:mod:`repro.core.events`) — adds its
counts to one :class:`collections.Counter` keyed by dotted name
(``session.stats``), and every expensive artifact (trained BNN models,
completed experiment results) is memoized through one on-disk
:class:`ArtifactCache`.  A :class:`SimSession` bundles the two together with a
deterministic :class:`SimConfig`; :func:`get_session` returns the process-wide
current session.
"""

from repro.sim.cache import ArtifactCache
from repro.sim.config import (
    CACHE_ENV_VAR,
    DEFAULT_CACHE_DIR,
    ENGINE_ENV_VAR,
    NO_CACHE_ENV_VAR,
    PROFILE_ENV_VAR,
    SimConfig,
    config_hash,
    source_digest,
)
from repro.sim.session import (
    SimSession,
    get_session,
    reset_session,
    set_session,
    use_session,
)

__all__ = [
    "ArtifactCache",
    "CACHE_ENV_VAR",
    "ENGINE_ENV_VAR",
    "PROFILE_ENV_VAR",
    "DEFAULT_CACHE_DIR",
    "NO_CACHE_ENV_VAR",
    "SimConfig",
    "SimSession",
    "config_hash",
    "get_session",
    "reset_session",
    "set_session",
    "source_digest",
    "use_session",
]
