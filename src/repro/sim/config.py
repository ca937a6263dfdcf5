"""Deterministic simulation configuration and content hashing.

:func:`config_hash` is the canonical digest the cache layer builds its
keys from: dict ordering, tuple-vs-list and numpy scalar types do not
change it, so the same logical inputs map to the same on-disk artifact
across processes and platforms.  Each cached artifact names its own
inputs (an experiment result its name and device profile; a trained
model its training parameters) plus :func:`source_digest`, one SHA-256
of the package source, so any source edit re-keys every artifact.  A
run's manifest carries its scenario's
:attr:`~repro.scenario.schema.Scenario.hash`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping

from repro.engine import get_engine
from repro.errors import ConfigurationError
from repro.scenario.schema import EngineSpec, Scenario

#: environment variable overriding the artifact-cache root directory
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: environment variable disabling the on-disk cache entirely (set to "1")
NO_CACHE_ENV_VAR = "REPRO_NO_CACHE"

#: environment variable selecting the session-default scenario's engine
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: environment variable selecting the session-default scenario's profile
PROFILE_ENV_VAR = "REPRO_PROFILE"

#: default artifact-cache root (expanded lazily)
DEFAULT_CACHE_DIR = "~/.cache/repro"

#: name of the scenario a session runs when it is given none
SESSION_DEFAULT = "session-default"


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-encodable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _canonical(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, Mapping):
        return {str(key): _canonical(value[key])
                for key in sorted(value, key=str)}
    if isinstance(value, (set, frozenset)):
        return [_canonical(item) for item in sorted(value, key=repr)]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _canonical(value.item())
    return repr(value)


def config_hash(*parts: Any) -> str:
    """A stable hex digest of any JSON-canonicalizable configuration."""
    payload = json.dumps([_canonical(part) for part in parts],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def tree_digest(root: Path) -> str:
    """SHA-256 over every ``*.py`` file under ``root``: each file's
    relative path and bytes, in path order."""
    names = []
    for folder, _, files in os.walk(root):
        names += [os.path.relpath(os.path.join(folder, name), root)
                  for name in files if name.endswith(".py")]
    digest = hashlib.sha256()
    for name in sorted(names):
        data = (root / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """:func:`tree_digest` of the ``repro`` package, once per process.

    Every cached artifact's key includes it, so an edit anywhere in the
    package — not only in the module that defines an experiment —
    invalidates every cached result and model.
    """
    return tree_digest(Path(__file__).resolve().parents[1])


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation session.

    ``cache_dir``/``cache_enabled`` say where artifacts are stored;
    ``scenario`` is the one run configuration.  Its engine, device
    profile and seed are what :attr:`engine`, :attr:`profile` and
    :attr:`seed` read, and its :attr:`~repro.scenario.schema.Scenario.hash`
    labels the run's manifest.  A config built without a scenario runs
    the ``session-default`` one.
    """

    cache_dir: str = DEFAULT_CACHE_DIR
    cache_enabled: bool = True
    scenario: Scenario = dataclasses.field(
        default_factory=lambda: Scenario(name=SESSION_DEFAULT))

    def __post_init__(self):
        if not isinstance(self.scenario, Scenario):
            raise ConfigurationError(
                f"SimConfig.scenario: expected a Scenario, "
                f"got {self.scenario!r}")

    @property
    def engine(self) -> str:
        """The scenario's engine name (see :mod:`repro.engine`)."""
        return self.scenario.engine.name

    @property
    def profile(self) -> str:
        """The scenario's device profile: what
        :func:`repro.power.resolve_profile` falls back to when a
        power-layer call names no profile."""
        return self.scenario.profile

    @property
    def seed(self) -> int:
        return self.scenario.seed

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "SimConfig":
        """Build a config from the ``REPRO_*`` environment variables.

        ``REPRO_CACHE_DIR``/``REPRO_NO_CACHE`` place the cache; the
        session runs the ``session-default`` scenario on the engine and
        device profile that ``REPRO_ENGINE``/``REPRO_PROFILE`` name.  Both
        names are checked here, before anything else is constructed — so
        ``repro run``/``experiments`` with a bad one fail fast with the
        registered list instead of deep inside program assembly.
        """
        from repro.power.profiles import get_profile

        env = os.environ if environ is None else environ
        disabled = env.get(NO_CACHE_ENV_VAR, "").lower() not in ("", "0", "false")
        engine = env.get(ENGINE_ENV_VAR, EngineSpec.name)
        profile = env.get(PROFILE_ENV_VAR, Scenario.profile)
        for variable, lookup, name in ((ENGINE_ENV_VAR, get_engine, engine),
                                       (PROFILE_ENV_VAR, get_profile,
                                        profile)):
            try:
                lookup(name)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{variable}: {exc}") from exc
        return cls(cache_dir=env.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR),
                   cache_enabled=not disabled,
                   scenario=Scenario(name=SESSION_DEFAULT,
                                     engine=EngineSpec(name=engine),
                                     profile=profile))

    @classmethod
    def from_scenario(cls, scenario: Scenario,
                      environ: Mapping[str, str] | None = None,
                      **overrides: Any) -> "SimConfig":
        """A config running ``scenario``; the cache settings still come
        from the environment (or explicit ``overrides``)."""
        return dataclasses.replace(cls.from_env(environ), scenario=scenario,
                                   **overrides)

    @property
    def resolved_cache_dir(self) -> Path:
        return Path(self.cache_dir).expanduser()
