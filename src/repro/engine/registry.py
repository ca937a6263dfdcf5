"""Name-keyed engine registry: the single seam every dispatch site uses.

Backends register themselves with the :func:`register_engine` class
decorator; everything else — ``SimConfig`` validation, ``--engine``
choices, core construction, the fuzzer — resolves engines through
:func:`get_engine` / :func:`resolve_engine` and never mentions a backend
by name in a branch.  Adding a backend therefore means writing one
decorated :class:`~repro.engine.protocol.ExecutionEngine` subclass in a
provider module; no core code changes.

Provider modules load lazily on first lookup (importing them at module
import time would cycle through ``repro.sim``), so importing
:mod:`repro.engine` stays cheap.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Tuple, Type, Union

from repro.engine.protocol import EngineCapabilities, ExecutionEngine
from repro.errors import ConfigurationError

#: modules that define and register the built-in engines; imported on
#: first registry lookup.  Third-party providers can call
#: :func:`register_engine` directly at import time instead.
PROVIDER_MODULES = (
    "repro.engine.accurate",
    "repro.cpu.fastpath",
)

#: retired engine names -> the registered engine that absorbed them; a
#: lookup of one fails like any unknown name but names its replacement
RETIRED_ENGINES = {"numpy": "fast", "parallel": "fast"}

_REGISTRY: Dict[str, ExecutionEngine] = {}
_providers_loaded = False


def _load_providers() -> None:
    global _providers_loaded
    if _providers_loaded:
        return
    _providers_loaded = True
    for module in PROVIDER_MODULES:
        importlib.import_module(module)


def register_engine(cls: Type[ExecutionEngine]) -> Type[ExecutionEngine]:
    """Class decorator: register ``cls()`` under ``cls.name``.

    The class must subclass :class:`ExecutionEngine`, carry a non-empty
    ``name`` and an :class:`EngineCapabilities` with ``functional=True``
    (the registry's admission contract: every engine produces exact
    architectural results).  Registering a second, different class under
    an existing name is an error; re-registering the same class (module
    reloads) is a no-op.
    """
    if not (isinstance(cls, type) and issubclass(cls, ExecutionEngine)):
        raise ConfigurationError(
            "register_engine expects an ExecutionEngine subclass, got "
            f"{cls!r}")
    name = getattr(cls, "name", "")
    if not name or not isinstance(name, str):
        raise ConfigurationError(
            f"engine class {cls.__name__} must set a non-empty 'name'")
    capabilities = getattr(cls, "capabilities", None)
    if not isinstance(capabilities, EngineCapabilities):
        raise ConfigurationError(
            f"engine {name!r} must declare EngineCapabilities")
    if not capabilities.functional:
        raise ConfigurationError(
            f"engine {name!r} is not functional — every registered engine "
            "must produce exact architectural results")
    existing = _REGISTRY.get(name)
    if existing is not None and type(existing) is not cls:
        raise ConfigurationError(
            f"engine {name!r} registered twice "
            f"({type(existing).__name__} vs {cls.__name__})")
    _REGISTRY[name] = cls()
    return cls


def engine_names() -> Tuple[str, ...]:
    """All registered engine names, sorted."""
    _load_providers()
    return tuple(sorted(_REGISTRY))


def get_engine(name: str) -> ExecutionEngine:
    """The registered engine called ``name``.

    Raises :class:`~repro.errors.ConfigurationError` naming the
    registered engines, sorted, when ``name`` is unknown — and the
    replacement first when ``name`` is in :data:`RETIRED_ENGINES`.
    """
    _load_providers()
    try:
        return _REGISTRY[name]
    except KeyError:
        replacement = RETIRED_ENGINES.get(name)
        retired = (f"; it was folded into {replacement!r}, use that"
                   if replacement else "")
        raise ConfigurationError(
            f"unknown engine {name!r}{retired}; registered engines: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def resolve_engine(engine: Union[ExecutionEngine, str, None] = None
                   ) -> ExecutionEngine:
    """Resolve ``engine`` to a registered engine object.

    An :class:`ExecutionEngine` instance passes through; a name looks up
    the registry; ``None`` follows the current session's
    ``SimConfig.engine``.
    """
    if isinstance(engine, ExecutionEngine):
        return engine
    if engine is None:
        from repro.sim.session import get_session

        engine = get_session().config.engine
    return get_engine(engine)


def ensure_known(name: str) -> str:
    """Validate ``name`` against the registry; returns it unchanged."""
    get_engine(name)
    return name


def engine_table() -> List[Dict[str, Any]]:
    """Sorted ``info()`` blocks of every registered engine.

    One serializer for ``repro info --json``, the docs engine table and
    the docs lint (``tools/check_docs.py``), so they cannot drift apart.
    """
    _load_providers()
    return [_REGISTRY[name].info() for name in sorted(_REGISTRY)]
