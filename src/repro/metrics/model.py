"""Typed metric series + the run manifest attached to every collection.

A :class:`MetricsCollection` holds counter/gauge/histogram series keyed by
(name, labels).  Collections are built *after* the simulation from the
growth of the session counters (``session.stats``) plus wall-clock timing —
the simulator hot path is never touched, so disabled metrics cost nothing.

Every collection carries a :class:`RunManifest` identifying what produced
the numbers: config hash, seed, package version, git SHA, python/platform
and artifact-cache traffic.  Exporters stamp the manifest onto every
series as labels, which is what makes metric files and OpenMetrics
scrapes comparable across runs and commits.
"""

from __future__ import annotations

import dataclasses
import functools
import platform as platform_module
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: metric kinds (OpenMetrics family types; histograms export as summaries)
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: prefix stamped onto every sanitized counter-derived metric name
METRIC_PREFIX = "repro_"

_NAME_OK_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, prefix: str = METRIC_PREFIX) -> str:
    """Turn a dotted session counter name into a valid metric name.

    ``cpu.pipeline.cycles`` -> ``repro_cpu_pipeline_cycles``.
    """
    cleaned = _NAME_BAD_CHARS.sub("_", name.strip())
    if not cleaned or not _NAME_OK_RE.match(cleaned):
        cleaned = f"_{cleaned}"
    if prefix and not cleaned.startswith(prefix):
        cleaned = prefix + cleaned
    return cleaned


@functools.lru_cache(maxsize=None)
def _git_sha(root: Optional[Path] = None) -> str:
    """Current git commit (short), or ``"unknown"`` outside a checkout.

    Looked up once per process: the ``git`` subprocess costs milliseconds,
    which every recorded block would otherwise pay on exit.
    """
    if root is None:
        root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=str(root),
            capture_output=True, text=True, timeout=5, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@dataclass(frozen=True)
class RunManifest:
    """Identity of one metrics collection: what code ran on what machine."""

    config_hash: str
    seed: int
    version: str
    git_sha: str
    python: str
    platform: str
    engine: str = "accurate"
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    created_unix: float = 0.0

    @classmethod
    def collect(cls, session: Optional[Any] = None,
                clock=time.time) -> "RunManifest":
        """Snapshot the current session + environment into a manifest."""
        import repro
        from repro.sim import get_session

        if session is None:
            session = get_session()
        cache = session.cache
        return cls(
            config_hash=session.config.scenario.hash,
            seed=session.config.seed,
            version=repro.__version__,
            git_sha=_git_sha(),
            python=platform_module.python_version(),
            platform=sys.platform,
            engine=session.config.engine,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_stores=cache.stores,
            created_unix=clock(),
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order)."""
        data = dataclasses.asdict(self)
        return {key: data[key] for key in sorted(data)}

    def labels(self) -> Dict[str, str]:
        """The identity subset stamped onto every exported series."""
        return {
            "config_hash": self.config_hash,
            "engine": self.engine,
            "git_sha": self.git_sha,
            "platform": self.platform,
            "python": self.python,
            "seed": str(self.seed),
            "version": self.version,
        }


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an unsorted sample (0 <= q <= 1)."""
    if not values:
        raise ValueError("quantile of empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return float(ordered[low] * (1 - frac) + ordered[high] * frac)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """min/median/IQR summary of a sample (a histogram series' summary)."""
    return {
        "count": len(values),
        "sum": float(sum(values)),
        "min": float(min(values)),
        "max": float(max(values)),
        "median": quantile(values, 0.5),
        "p25": quantile(values, 0.25),
        "p75": quantile(values, 0.75),
        "iqr": quantile(values, 0.75) - quantile(values, 0.25),
    }


@dataclass
class MetricSeries:
    """One named series: a scalar (counter/gauge) or a sample (histogram)."""

    name: str
    kind: str
    labels: Tuple[Tuple[str, str], ...] = ()
    value: Optional[float] = None
    observations: List[float] = field(default_factory=list)
    help: str = ""
    unit: str = ""

    def __post_init__(self):
        if self.kind not in (COUNTER, GAUGE, HISTOGRAM):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if not _NAME_OK_RE.match(self.name):
            raise ValueError(f"invalid metric name {self.name!r}")
        if self.kind == COUNTER and (self.value or 0) < 0:
            raise ValueError(f"counter {self.name} cannot be negative")

    @property
    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def summary(self) -> Dict[str, float]:
        return summarize(self.observations)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "labels": self.label_dict,
        }
        if self.unit:
            doc["unit"] = self.unit
        if self.help:
            doc["help"] = self.help
        if self.kind == HISTOGRAM:
            doc["summary"] = self.summary()
            doc["observations"] = [float(v) for v in self.observations]
        else:
            doc["value"] = self.value
        return doc


def _label_key(labels: Optional[Mapping[str, str]]):
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


class MetricsCollection:
    """Counter/gauge/histogram series plus the manifest that produced them."""

    def __init__(self, manifest: Optional[RunManifest] = None):
        self.manifest = manifest if manifest is not None \
            else RunManifest.collect()
        self._series: Dict[Tuple[str, tuple], MetricSeries] = {}

    def __len__(self) -> int:
        return len(self._series)

    def _put(self, series: MetricSeries) -> MetricSeries:
        key = (series.name, series.labels)
        existing = self._series.get(key)
        if existing is not None and existing.kind != series.kind:
            raise ValueError(f"metric {series.name} re-registered as "
                             f"{series.kind} (was {existing.kind})")
        self._series[key] = series
        return series

    def counter(self, name: str, value: float,
                labels: Optional[Mapping[str, str]] = None,
                help: str = "", unit: str = "") -> MetricSeries:
        return self._put(MetricSeries(name=name, kind=COUNTER,
                                      labels=_label_key(labels),
                                      value=float(value), help=help,
                                      unit=unit))

    def gauge(self, name: str, value: float,
              labels: Optional[Mapping[str, str]] = None,
              help: str = "", unit: str = "") -> MetricSeries:
        return self._put(MetricSeries(name=name, kind=GAUGE,
                                      labels=_label_key(labels),
                                      value=float(value), help=help,
                                      unit=unit))

    def histogram(self, name: str, observations: Sequence[float],
                  labels: Optional[Mapping[str, str]] = None,
                  help: str = "", unit: str = "") -> MetricSeries:
        return self._put(MetricSeries(name=name, kind=HISTOGRAM,
                                      labels=_label_key(labels),
                                      observations=[float(v)
                                                    for v in observations],
                                      help=help, unit=unit))

    def series(self) -> List[MetricSeries]:
        """All series in stable (name, labels) order."""
        return [self._series[key] for key in sorted(self._series)]

    def get(self, name: str,
            labels: Optional[Mapping[str, str]] = None
            ) -> Optional[MetricSeries]:
        return self._series.get((name, _label_key(labels)))

    def add_registry_diff(self, diff: Mapping[str, float],
                          labels: Optional[Mapping[str, str]] = None) -> None:
        """Fold counter growth (name -> amount) into counters
        (sanitized)."""
        for name in sorted(diff):
            self.counter(sanitize_metric_name(name), diff[name],
                         labels=labels,
                         help=f"session counter {name}")

    def add_phase_attribution(self, attribution) -> None:
        """Fold one :class:`repro.obs.RunAttribution` into the collection.

        Per phase: cycle and wall-second gauges plus a cycle-fraction
        gauge, all labelled by scenario/engine/kind/phase.
        """
        from repro.obs import PHASES

        labels = {"scenario": attribution.scenario,
                  "engine": attribution.engine,
                  "kind": attribution.kind}
        self.gauge("repro_obs_total_cycles", attribution.total_cycles,
                   labels=labels, unit="cycles",
                   help="total simulated cycles of the attributed run")
        self.gauge("repro_obs_total_wall_seconds", attribution.total_wall_s,
                   labels=labels, unit="seconds",
                   help="total host wall time of the attributed run")
        cycle_fractions = attribution.cycle_fractions()
        for phase in PHASES:
            phase_labels = dict(labels, phase=phase)
            self.gauge("repro_obs_phase_cycles",
                       attribution.cycles[phase], labels=phase_labels,
                       unit="cycles",
                       help="simulated cycles attributed to this phase")
            self.gauge("repro_obs_phase_wall_seconds",
                       attribution.wall_s[phase], labels=phase_labels,
                       unit="seconds",
                       help="host wall time attributed to this phase")
            self.gauge("repro_obs_phase_cycle_fraction",
                       cycle_fractions[phase], labels=phase_labels,
                       help="this phase's share of total simulated cycles")


class MetricsRecorder:
    """Copy-on-enter / subtract-on-exit collection around a simulation.

    The recorded collection is built entirely from the session counters'
    growth after the workload finishes — nothing is attached to the
    simulators, so the hot path runs exactly as without metrics.
    """

    def __init__(self, session: Optional[Any] = None,
                 manifest: Optional[RunManifest] = None):
        from repro.sim import get_session

        self.session = session if session is not None else get_session()
        self.manifest = manifest
        self.collection: Optional[MetricsCollection] = None
        self._before: Counter = Counter()
        self._start = 0.0

    def __enter__(self) -> "MetricsRecorder":
        self._before = self.session.stats.copy()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._start
        manifest = self.manifest if self.manifest is not None \
            else RunManifest.collect(self.session)
        collection = MetricsCollection(manifest)
        # counters only grow, so the positive part of the difference is
        # exactly the block's growth, with untouched names left out
        collection.add_registry_diff(self.session.stats - self._before)
        collection.gauge("repro_run_wall_seconds", wall, unit="seconds",
                         help="wall-clock time of the recorded block")
        self.collection = collection
