"""Self-registering experiment registry.

Experiment modules declare themselves with the :func:`experiment` decorator::

    @experiment("fig18")
    def run(widths=WIDTHS) -> ExperimentResult: ...

and :func:`all_experiments` discovers every module in this package (so the
runner no longer maintains a parallel import list + name->function dict).
A spec's :meth:`~ExperimentSpec.cache_key` keys the on-disk result cache.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass
from typing import Callable, Dict

from repro.experiments.common import ExperimentResult
from repro.sim import config_hash, get_session, source_digest

#: package modules that are infrastructure, not experiments
_NON_EXPERIMENT_MODULES = {"common", "models", "registry", "runner"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: its runner plus cache identity."""

    name: str
    func: Callable[..., ExperimentResult]

    def cache_key(self) -> str:
        """Result-cache key: the experiment's name, the session's device
        profile and the package :func:`~repro.sim.source_digest`, so an
        edit to any code the experiment calls invalidates it.  The engine
        is deliberately absent (engines produce identical architectural
        results); the device profile is not (profiles change the
        physics)."""
        return config_hash("experiment-result", self.name,
                           get_session().config.profile, source_digest())


_REGISTRY: Dict[str, ExperimentSpec] = {}
_discovered = False


def experiment(name: str):
    """Class the decorated ``run()`` function as the experiment ``name``."""

    def decorator(func: Callable[..., ExperimentResult]):
        existing = _REGISTRY.get(name)
        if existing is not None and existing.func is not func:
            raise ValueError(f"experiment {name!r} registered twice "
                             f"({existing.func.__module__} and "
                             f"{func.__module__})")
        _REGISTRY[name] = ExperimentSpec(name=name, func=func)
        return func

    return decorator


def discover() -> None:
    """Import every experiment module so its decorator self-registers."""
    global _discovered
    if _discovered:
        return
    import repro.experiments as package

    for info in pkgutil.iter_modules(package.__path__):
        if info.name in _NON_EXPERIMENT_MODULES or info.name.startswith("_"):
            continue
        importlib.import_module(f"repro.experiments.{info.name}")
    _discovered = True


def _display_order(name: str) -> tuple:
    rank = 0 if name.startswith("table") else 1 if name.startswith("fig") else 2
    return (rank, name)


def all_experiments() -> Dict[str, ExperimentSpec]:
    """Every registered experiment, tables first, stable order."""
    discover()
    return {name: _REGISTRY[name]
            for name in sorted(_REGISTRY, key=_display_order)}


def get_spec(name: str) -> ExperimentSpec:
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"no experiment named {name!r}; known: "
                       f"{', '.join(sorted(_REGISTRY))}") from None


def unregister(name: str) -> None:
    """Remove an experiment (test helper for synthetic registrations)."""
    _REGISTRY.pop(name, None)
