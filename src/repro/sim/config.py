"""Deterministic simulation configuration and content hashing.

The cache layer keys every artifact on a :func:`config_hash` of the inputs
that produced it.  The hash is canonical: dict ordering, tuple-vs-list and
numpy scalar types do not change it, so the same logical configuration maps
to the same on-disk artifact across processes and platforms.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.scenario.schema import Scenario

#: environment variable overriding the artifact-cache root directory
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: environment variable disabling the on-disk cache entirely (set to "1")
NO_CACHE_ENV_VAR = "REPRO_NO_CACHE"

#: environment variable selecting the default execution engine
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: environment variable selecting the default device profile
PROFILE_ENV_VAR = "REPRO_PROFILE"

#: default artifact-cache root (expanded lazily)
DEFAULT_CACHE_DIR = "~/.cache/repro"

#: execution engine selected when no ``--engine``/``REPRO_ENGINE`` is given;
#: the full set of valid names lives in the :mod:`repro.engine` registry
DEFAULT_ENGINE = "accurate"

#: device profile selected when no ``--device-profile``/``REPRO_PROFILE``
#: is given; the registry lives in :mod:`repro.power.profiles`
DEFAULT_DEVICE_PROFILE = "ncpu-65nm"


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


def source_fingerprint(obj: Any) -> str:
    """Hash of an object's (module/function/class) source code.

    Used to invalidate cached artifacts when the code that produced them
    changes; falls back to the qualified name when source is unavailable
    (frozen/compiled distributions).
    """
    try:
        source = inspect.getsource(obj)
    except (OSError, TypeError):
        source = getattr(obj, "__qualname__", None) or getattr(
            obj, "__name__", repr(obj))
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:20]


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation session.

    ``seed``, ``params`` and ``scenario`` identify the simulated
    configuration and feed the deterministic :attr:`hash`;
    ``cache_dir``/``cache_enabled`` only say where artifacts are stored
    and are deliberately excluded from it.  ``engine`` names a backend
    registered in :mod:`repro.engine` (``accurate``, ``fast``, ...);
    every engine produces identical architectural results (the
    equivalence suites pin this), so the engine — and the scenario's
    engine spec — are excluded from the hash too.  ``profile``
    names a device profile registered in :mod:`repro.power.profiles`; it
    is what :func:`repro.power.resolve_profile` falls back to when a
    power-layer call names no profile.  Unlike the engine it *does*
    change results, but it enters the hash through the scenario's
    ``device.profile`` field rather than separately here.
    """

    cache_dir: str = DEFAULT_CACHE_DIR
    cache_enabled: bool = True
    seed: int = 0
    params: Tuple[Tuple[str, Any], ...] = ()
    engine: str = DEFAULT_ENGINE
    profile: str = DEFAULT_DEVICE_PROFILE
    scenario: Optional[Scenario] = None

    def __post_init__(self):
        # imported lazily: repro.engine loads provider modules that import
        # repro.sim, so validation must not run at repro.sim import time
        from repro.engine import ensure_known
        from repro.power.profiles import ensure_known_profile

        ensure_known(self.engine)
        ensure_known_profile(self.profile)
        if self.scenario is not None and \
                not isinstance(self.scenario, Scenario):
            raise ConfigurationError(
                f"SimConfig.scenario: expected a Scenario, "
                f"got {self.scenario!r}")

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "SimConfig":
        """Build a config from ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` /
        ``REPRO_ENGINE``.

        The engine name is validated here, against the live registry,
        before anything else is constructed — so ``repro run``/``experiments``
        with a bad ``REPRO_ENGINE`` fail fast with the registered-engine
        list instead of deep inside program assembly.
        """
        env = os.environ if environ is None else environ
        disabled = env.get(NO_CACHE_ENV_VAR, "").lower() not in ("", "0", "false")
        engine = env.get(ENGINE_ENV_VAR, DEFAULT_ENGINE)
        try:
            from repro.engine import ensure_known

            ensure_known(engine)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{ENGINE_ENV_VAR}: {exc}") from exc
        profile = env.get(PROFILE_ENV_VAR, DEFAULT_DEVICE_PROFILE)
        try:
            from repro.power.profiles import ensure_known_profile

            ensure_known_profile(profile)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{PROFILE_ENV_VAR}: {exc}") from exc
        return cls(cache_dir=env.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR),
                   cache_enabled=not disabled, engine=engine,
                   profile=profile)

    @classmethod
    def from_scenario(cls, scenario: Scenario,
                      environ: Mapping[str, str] | None = None,
                      **overrides: Any) -> "SimConfig":
        """Build a config whose seed/engine/identity come from a scenario.

        Cache location settings still come from the environment (or
        explicit ``overrides``); the scenario provides the seed, the
        engine and the canonical identity folded into :attr:`hash`.
        """
        base = cls.from_env(environ)
        fields = dict(cache_dir=base.cache_dir,
                      cache_enabled=base.cache_enabled,
                      seed=scenario.seed, engine=scenario.engine.name,
                      profile=scenario.device.profile,
                      scenario=scenario)
        fields.update(overrides)
        return cls(**fields)

    def with_params(self, **params: Any) -> "SimConfig":
        """A copy with extra named parameters folded into the hash."""
        merged = dict(self.params)
        merged.update(params)
        return dataclasses.replace(
            self, params=tuple(sorted(merged.items())))

    def param(self, name: str, default: Any = None) -> Any:
        return dict(self.params).get(name, default)

    @property
    def resolved_cache_dir(self) -> Path:
        return Path(self.cache_dir).expanduser()

    @property
    def effective_scenario(self) -> Scenario:
        """The attached scenario, or a minimal one mirroring this config.

        Always returns a :class:`~repro.scenario.schema.Scenario`, so
        run metadata and reports can record the canonical scenario dict
        whether or not the run was scenario-driven.
        """
        if self.scenario is not None:
            return self.scenario
        from repro.power.profiles import get_profile
        from repro.scenario.schema import DevicePoint, EngineSpec

        return Scenario(name="session-default", seed=self.seed,
                        engine=EngineSpec(name=self.engine),
                        device=DevicePoint(
                            vdd=get_profile(self.profile).vdd_nominal,
                            profile=self.profile))

    @property
    def hash(self) -> str:
        """Deterministic identity of the simulated configuration.

        The scenario joins the payload through its engine-free
        :meth:`~repro.scenario.schema.Scenario.identity_dict` — the hash
        changes whenever any scenario field changes, but stays stable
        across engine swaps so cached artifacts are reusable (the PR-6
        contract).  Configs without a scenario hash exactly as before,
        keeping existing cached artifacts valid.
        """
        payload = {"seed": self.seed, "params": self.params}
        if self.scenario is not None:
            payload["scenario"] = self.scenario.identity_dict()
        return config_hash(payload)
