"""The declarative scenario schema: one object that names a whole run.

A :class:`Scenario` describes everything the simulator needs to reproduce
a run — the workload (a CPU kernel or a BNN classification task), the
execution engine, the RNG seed, the batch size/policy, the device
profile and the serve policy — as one frozen dataclass tree that
round-trips canonically through JSON.  Every layer that runs the
simulator (``repro run``/``experiments``/``serve``, the fuzzer, the
session config) consumes the same object, so adding a scenario dimension
means adding one field here instead of touching every call site.

Validation is field-exact: a bad value raises
:class:`~repro.errors.ConfigurationError` whose message starts with the
offending field path (``scenario.workload.layer_sizes[1]: ...``), both
when constructing the dataclasses directly and when loading from a dict
or a JSON file.  :meth:`Scenario.identity_dict` is the canonical form
folded into :func:`repro.sim.config.config_hash`; it deliberately
excludes the engine spec, because both engines produce identical
architectural results.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.engine import ensure_known
from repro.errors import ConfigurationError

#: workload kinds the schema accepts
WORKLOAD_KINDS = ("bnn", "cpu")

#: assembly kernels a ``cpu`` workload may name (materialized by
#: :mod:`repro.scenario.materialize`)
CPU_PROGRAMS = ("dhrystone", "hotspot")

#: how a batch is presented to the accelerator: all rows at once
#: (``fixed``) or streamed row-by-row (``stream``)
BATCH_POLICIES = ("fixed", "stream")

#: arrival processes the serve-layer load generator can synthesize
ARRIVAL_PROCESSES = ("poisson", "uniform", "bursty")

#: schema bounds — generous, but finite so fuzzed scenarios stay cheap
MAX_LAYERS = 8
MAX_LAYER_WIDTH = 4096
MAX_BATCH_SIZE = 65536
MAX_ITERATIONS = 100_000


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"{path}: {message}")


def _check_int(value: Any, path: str, minimum: int, maximum: int) -> None:
    _require(isinstance(value, int) and not isinstance(value, bool), path,
             f"expected an integer, got {value!r}")
    _require(minimum <= value <= maximum, path,
             f"must be in [{minimum}, {maximum}], got {value}")


def _reject_unknown(cls, data: Mapping, path: str) -> None:
    known = {field.name for field in dataclasses.fields(cls)}
    for key in sorted(set(data) - known):
        raise ConfigurationError(
            f"{path}.{key}: unknown field (known fields: "
            f"{', '.join(sorted(known))})")


def _as_mapping(data: Any, path: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _construct(factory, path: str, default_prefix: str):
    """Run ``factory`` and re-root its validation errors at ``path``.

    Dataclass constructors validate with their local default prefix
    (``workload.kind``); when built through ``from_dict`` the error must
    name the full path from the document root (``scenario.workload.kind``).
    """
    try:
        return factory()
    except ConfigurationError as exc:
        message = str(exc)
        if message.startswith(default_prefix + "."):
            message = path + message[len(default_prefix):]
        raise ConfigurationError(message) from None


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """What the scenario executes.

    ``kind="bnn"`` is a synthetic classification task: a random binary
    network of ``layer_sizes`` (first entry = input width, last =
    classes) inferring ``Scenario.batch_size`` sign-domain inputs.
    ``kind="cpu"`` assembles and runs one of the named kernels
    (:data:`CPU_PROGRAMS`) for ``iterations`` outer iterations.
    """

    kind: str = "bnn"
    name: str = "random"
    layer_sizes: Tuple[int, ...] = (100, 100, 100, 10)
    iterations: int = 10

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(self.layer_sizes))
        self.validate("workload")

    def validate(self, path: str = "workload") -> None:
        _require(self.kind in WORKLOAD_KINDS, f"{path}.kind",
                 f"must be one of {', '.join(WORKLOAD_KINDS)}, "
                 f"got {self.kind!r}")
        _require(isinstance(self.name, str) and bool(self.name),
                 f"{path}.name", f"expected a non-empty string, "
                 f"got {self.name!r}")
        _check_int(self.iterations, f"{path}.iterations", 1, MAX_ITERATIONS)
        if self.kind == "cpu":
            _require(self.name in CPU_PROGRAMS, f"{path}.name",
                     f"unknown CPU program; known programs: "
                     f"{', '.join(CPU_PROGRAMS)}")
            _require(not self.layer_sizes, f"{path}.layer_sizes",
                     "only meaningful for kind='bnn' (set it to [])")
            return
        _require(2 <= len(self.layer_sizes) <= MAX_LAYERS,
                 f"{path}.layer_sizes",
                 f"need 2..{MAX_LAYERS} layers (input width first, "
                 f"classes last), got {len(self.layer_sizes)}")
        for index, width in enumerate(self.layer_sizes):
            _check_int(width, f"{path}.layer_sizes[{index}]", 1,
                       MAX_LAYER_WIDTH)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "layer_sizes": list(self.layer_sizes),
                "iterations": self.iterations}

    @classmethod
    def from_dict(cls, data: Any, path: str = "workload") -> "WorkloadSpec":
        data = _as_mapping(data, path)
        _reject_unknown(cls, data, path)
        sizes = data.get("layer_sizes", cls.layer_sizes)
        _require(isinstance(sizes, (list, tuple)), f"{path}.layer_sizes",
                 f"expected a list of integers, got {sizes!r}")
        kind = data.get("kind", cls.kind)
        if kind == "cpu" and "layer_sizes" not in data:
            sizes = ()
        return _construct(
            lambda: cls(kind=kind, name=data.get("name", cls.name),
                        layer_sizes=tuple(sizes),
                        iterations=data.get("iterations", cls.iterations)),
            path, "workload")


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """Which execution backend runs the scenario.

    ``name`` must name an engine in :mod:`repro.engine`;
    ``prefer_functional`` selects the functional ISS over the pipeline
    for engines that distinguish the two (the ``accurate`` engine).
    """

    name: str = "accurate"
    prefer_functional: bool = False

    def __post_init__(self):
        self.validate("engine")

    def validate(self, path: str = "engine") -> None:
        _require(isinstance(self.name, str) and bool(self.name),
                 f"{path}.name", f"expected a non-empty engine name, "
                 f"got {self.name!r}")
        _require(isinstance(self.prefer_functional, bool),
                 f"{path}.prefer_functional",
                 f"expected a boolean, got {self.prefer_functional!r}")
        try:
            ensure_known(self.name)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}.name: {exc}") from None

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "prefer_functional": self.prefer_functional}

    @classmethod
    def from_dict(cls, data: Any, path: str = "engine") -> "EngineSpec":
        data = _as_mapping(data, path)
        _reject_unknown(cls, data, path)
        return _construct(
            lambda: cls(name=data.get("name", cls.name),
                        prefer_functional=data.get("prefer_functional",
                                                   cls.prefer_functional)),
            path, "engine")


@dataclasses.dataclass(frozen=True)
class ServeSpec:
    """How the serve layer offers this scenario's workload under load.

    ``arrival``/``rate_rps``/``requests``/``burst_factor`` parameterize
    the open-loop load generator (:mod:`repro.serve.loadgen`); the rest
    are the batching/admission policy knobs of
    :class:`repro.serve.NCPUServer`.  The block only matters to
    ``repro serve`` / ``repro loadgen`` — architectural results do not
    depend on it, so it is excluded from :meth:`Scenario.identity_dict`
    exactly like the engine spec.
    """

    arrival: str = "poisson"
    rate_rps: float = 500.0
    requests: int = 64
    burst_factor: float = 4.0
    batch_window_ms: float = 2.0
    max_batch: int = 16
    max_queue_depth: int = 256
    timeout_ms: float = 250.0
    latency_budget_ms: float = 50.0
    slo_target: float = 0.99

    def __post_init__(self):
        for name in ("rate_rps", "burst_factor", "batch_window_ms",
                     "timeout_ms", "latency_budget_ms", "slo_target"):
            value = getattr(self, name)
            if isinstance(value, int) and not isinstance(value, bool):
                object.__setattr__(self, name, float(value))
        self.validate("serve")

    def validate(self, path: str = "serve") -> None:
        _require(self.arrival in ARRIVAL_PROCESSES, f"{path}.arrival",
                 f"must be one of {', '.join(ARRIVAL_PROCESSES)}, "
                 f"got {self.arrival!r}")
        for name, low, high in (("rate_rps", 1e-3, 1e6),
                                ("burst_factor", 1.0, 1000.0),
                                ("timeout_ms", 1e-3, 600_000.0),
                                ("latency_budget_ms", 1e-3, 600_000.0)):
            value = getattr(self, name)
            _require(isinstance(value, float), f"{path}.{name}",
                     f"expected a number, got {value!r}")
            _require(low <= value <= high, f"{path}.{name}",
                     f"must be in [{low:g}, {high:g}], got {value}")
        _require(isinstance(self.batch_window_ms, float),
                 f"{path}.batch_window_ms",
                 f"expected a number, got {self.batch_window_ms!r}")
        _require(0.0 <= self.batch_window_ms <= 60_000.0,
                 f"{path}.batch_window_ms",
                 f"must be in [0, 60000] ms, got {self.batch_window_ms}")
        _check_int(self.requests, f"{path}.requests", 1, MAX_BATCH_SIZE)
        _check_int(self.max_batch, f"{path}.max_batch", 1, MAX_BATCH_SIZE)
        _check_int(self.max_queue_depth, f"{path}.max_queue_depth", 1,
                   MAX_BATCH_SIZE)
        _require(isinstance(self.slo_target, float), f"{path}.slo_target",
                 f"expected a number, got {self.slo_target!r}")
        _require(0.0 < self.slo_target <= 1.0, f"{path}.slo_target",
                 f"must be in (0, 1], got {self.slo_target}")

    def to_dict(self) -> Dict[str, Any]:
        return {"arrival": self.arrival, "rate_rps": self.rate_rps,
                "requests": self.requests,
                "burst_factor": self.burst_factor,
                "batch_window_ms": self.batch_window_ms,
                "max_batch": self.max_batch,
                "max_queue_depth": self.max_queue_depth,
                "timeout_ms": self.timeout_ms,
                "latency_budget_ms": self.latency_budget_ms,
                "slo_target": self.slo_target}

    @classmethod
    def from_dict(cls, data: Any, path: str = "serve") -> "ServeSpec":
        data = _as_mapping(data, path)
        _reject_unknown(cls, data, path)
        fields = {field.name: data.get(field.name, getattr(cls, field.name))
                  for field in dataclasses.fields(cls)}
        return _construct(lambda: cls(**fields), path, "serve")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One fully-specified simulator run.

    The dataclass tree is frozen and hashable; :meth:`to_dict` /
    :meth:`from_dict` round-trip exactly (``from_dict(to_dict(s)) == s``)
    and :meth:`identity_dict` is the canonical, engine-free form the
    run-manifest config hash is built from.
    """

    name: str = "default"
    workload: WorkloadSpec = dataclasses.field(default_factory=WorkloadSpec)
    engine: EngineSpec = dataclasses.field(default_factory=EngineSpec)
    seed: int = 0
    batch_size: int = 16
    batch_policy: str = "fixed"
    #: the device profile (:mod:`repro.power.profiles`) pricing the run
    profile: str = "ncpu-65nm"
    serve: ServeSpec = dataclasses.field(default_factory=ServeSpec)

    def __post_init__(self):
        self.validate("scenario")

    def validate(self, path: str = "scenario") -> None:
        _require(isinstance(self.name, str) and bool(self.name),
                 f"{path}.name",
                 f"expected a non-empty string, got {self.name!r}")
        _require(isinstance(self.workload, WorkloadSpec), f"{path}.workload",
                 f"expected a WorkloadSpec, got {self.workload!r}")
        _require(isinstance(self.engine, EngineSpec), f"{path}.engine",
                 f"expected an EngineSpec, got {self.engine!r}")
        _require(isinstance(self.serve, ServeSpec), f"{path}.serve",
                 f"expected a ServeSpec, got {self.serve!r}")
        _check_int(self.seed, f"{path}.seed", 0, 2**63 - 1)
        _check_int(self.batch_size, f"{path}.batch_size", 1, MAX_BATCH_SIZE)
        _require(self.batch_policy in BATCH_POLICIES, f"{path}.batch_policy",
                 f"must be one of {', '.join(BATCH_POLICIES)}, "
                 f"got {self.batch_policy!r}")
        self.workload.validate(f"{path}.workload")
        self.engine.validate(f"{path}.engine")
        _require(isinstance(self.profile, str) and bool(self.profile),
                 f"{path}.profile",
                 f"expected a non-empty profile name, got {self.profile!r}")
        # imported lazily: importing repro.power loads numpy
        from repro.power.profiles import get_profile

        try:
            get_profile(self.profile)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}.profile: {exc}") from None
        self.serve.validate(f"{path}.serve")

    # -- canonical forms --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The canonical, JSON-ready dict (stable key set and order)."""
        return {
            "name": self.name,
            "workload": self.workload.to_dict(),
            "engine": self.engine.to_dict(),
            "seed": self.seed,
            "batch_size": self.batch_size,
            "batch_policy": self.batch_policy,
            "profile": self.profile,
            "serve": self.serve.to_dict(),
        }

    def identity_dict(self) -> Dict[str, Any]:
        """The canonical dict *minus the engine and serve specs*.

        This is what :attr:`hash` folds in: both engines produce
        bit-identical architectural results, and the serve block only
        shapes *when* work arrives, never what it computes, so neither
        changes a run's identity.

        ``profile`` deliberately *stays* in the identity: unlike the
        engine, the device profile changes the physics (frequency,
        power, per-phase overheads).
        """
        identity = self.to_dict()
        del identity["engine"]
        del identity["serve"]
        return identity

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @property
    def hash(self) -> str:
        """Deterministic identity digest (engine-free, like the dict);
        ``repro scenario validate`` prints it and a run's manifest
        carries it as ``config_hash``."""
        from repro.sim.config import config_hash

        return config_hash(self.identity_dict())

    @classmethod
    def from_dict(cls, data: Any, path: str = "scenario") -> "Scenario":
        data = _as_mapping(data, path)
        _reject_unknown(cls, data, path)
        workload = WorkloadSpec.from_dict(data["workload"],
                                          f"{path}.workload") \
            if "workload" in data else WorkloadSpec()
        engine = EngineSpec.from_dict(data["engine"], f"{path}.engine") \
            if "engine" in data else EngineSpec()
        serve = ServeSpec.from_dict(data["serve"], f"{path}.serve") \
            if "serve" in data else ServeSpec()
        return _construct(
            lambda: cls(name=data.get("name", cls.name),
                        workload=workload, engine=engine,
                        seed=data.get("seed", cls.seed),
                        batch_size=data.get("batch_size", cls.batch_size),
                        batch_policy=data.get("batch_policy",
                                              cls.batch_policy),
                        profile=data.get("profile", cls.profile),
                        serve=serve),
            path, "scenario")

    @classmethod
    def from_file(cls, path) -> "Scenario":
        """Load and validate a scenario JSON file.

        File-shaped problems (missing file, malformed JSON, non-object
        top level) raise :class:`~repro.errors.ConfigurationError`, so
        CLI callers uniformly exit 2 instead of tracebacking.
        """
        target = Path(path)
        try:
            text = target.read_text()
        except FileNotFoundError:
            raise ConfigurationError(
                f"scenario file not found: {target}") from None
        except OSError as exc:
            raise ConfigurationError(
                f"scenario file {target}: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"scenario file {target}: not valid JSON ({exc})") from None
        return cls.from_dict(data, path="scenario")

    # -- derived views ----------------------------------------------------
    def with_engine(self, name: Optional[str] = None,
                    prefer_functional: Optional[bool] = None) -> "Scenario":
        """A copy with engine fields replaced (CLI flags override files)."""
        engine = dataclasses.replace(
            self.engine,
            name=self.engine.name if name is None else name,
            prefer_functional=self.engine.prefer_functional
            if prefer_functional is None else prefer_functional)
        return dataclasses.replace(self, engine=engine)

    def with_serve(self, **fields: Any) -> "Scenario":
        """A copy with serve-spec fields replaced (CLI flags override
        files); ``None`` values mean "keep the scenario's own value"."""
        updates = {name: value for name, value in fields.items()
                   if value is not None}
        return dataclasses.replace(
            self, serve=dataclasses.replace(self.serve, **updates))
