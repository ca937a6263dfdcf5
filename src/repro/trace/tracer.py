"""The session tracer: spans, instants, counters on two clocks, and the
probe bridge.

A :class:`Tracer` collects structured :class:`TraceEvent` records into a
bounded ring buffer.  Each event is stamped on one of two clocks:

* :data:`CYCLES` — simulated cycles.  Engines without a global clock lay
  their work end to end at a per-track cursor (:meth:`Tracer.lay`), so
  successive runs on one track never overlap;
* :data:`WALL` — host wall time in microseconds since the tracer was
  created (:meth:`Tracer.span`, the serve lanes).

Simulators emit into it two ways:

* **direct call sites** for high-rate data — the pipelined CPU records one
  occupancy event per cycle plus stall/flush instants with their hazard
  cause, at the :data:`CPU_TRACK` cursor (it looks the tracer up once per
  run, so an untraced run costs one ``None`` check per cycle);
* the **probe bridge** — a ``"*"`` subscriber on the session
  :class:`~repro.sim.StatsRegistry` that converts the registry's existing
  probe events (``timeline.segment``, ``dma.transfer``, ``bnn.batch``,
  ``soc.mode_switch``, ``serve.batch``, ...) into spans and instants, so
  every simulator that already publishes probe events is traced without
  new code.

Install with :func:`install_tracer` / :func:`uninstall_tracer` or the
:func:`tracing` context manager; the active tracer lives on the current
:class:`~repro.sim.SimSession` as ``session.tracer``.  Tracing is off
exactly when no tracer is installed: nothing subscribes to the registry
until then, and uninstalling unsubscribes again, so the untraced fast path
(``StatsRegistry.emit`` returning on "no probes") is preserved.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.logutil import get_logger
from repro.sim import get_session

logger = get_logger("trace")

#: the clock of simulated cycles
CYCLES = "cycles"
#: the clock of host wall time, in microseconds since the tracer started
WALL = "wall"

#: event name of the pipeline's per-cycle occupancy record
CYCLE_EVENT = "cpu.cycle"
#: instant event emitted once per stall bubble, with its hazard cause
STALL_EVENT = "cpu.stall"
#: instant event emitted once per control-flow squash (two bubbles)
FLUSH_EVENT = "cpu.flush"
#: the pipeline's stages in order; a ``cpu.cycle`` event maps each to the
#: PC it holds (None = bubble)
STAGES = ("IF", "ID", "EX", "MEM", "WB")

#: track (Perfetto lane) of the pipelined CPU; the ISS and the fast
#: interpreter draw their runs on ``cpu.functional`` / ``cpu.fastpath``
CPU_TRACK = "cpu.pipeline"
#: default track of the BNN accelerator
BNN_TRACK = "bnn"
#: default track of the DMA engine
DMA_TRACK = "dma"
#: track prefix of the serve layer's lanes (batcher, admission, queue)
SERVE_TRACK = "serve"
#: per-request serve lanes rotate over this many tracks, so a long load
#: run stays readable in Perfetto (args carry the exact request id)
SERVE_REQUEST_LANES = 16

#: stats-registry counter that mirrors ring-buffer evictions
DROPPED_RECORDS_STAT = "trace.dropped_records"

#: default ring-buffer capacity (events); None = unbounded
DEFAULT_CAPACITY = 1 << 20


@dataclass
class TraceEvent:
    """One trace record (Chrome trace-event flavoured).

    ``ph`` follows the Chrome trace-event phase codes: ``"X"`` complete
    (span with duration), ``"i"`` instant, ``"C"`` counter.  ``ts`` and
    ``dur`` count on ``clock``: simulated cycles (:data:`CYCLES`) or wall
    microseconds (:data:`WALL`).  ``track`` names the Perfetto lane.
    """

    name: str
    ph: str
    ts: float
    track: str
    dur: float = 0.0
    cat: str = ""
    args: Dict[str, Any] = field(default_factory=dict)
    clock: str = CYCLES

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-ready flat representation; a wall event names its clock."""
        out: Dict[str, Any] = {"name": self.name, "ph": self.ph,
                               "ts": self.ts, "track": self.track}
        if self.ph == "X":
            out["dur"] = self.dur
        if self.cat:
            out["cat"] = self.cat
        if self.args:
            out["args"] = self.args
        if self.clock != CYCLES:
            out["clock"] = self.clock
        return out


class _Span:
    """Handle yielded by :meth:`Tracer.span`; lets the body attach args."""

    __slots__ = ("args",)

    def __init__(self, args: Dict[str, Any]):
        self.args = args

    def set(self, **fields: Any) -> None:
        self.args.update(fields)


class Tracer:
    """Bounded collector of :class:`TraceEvent`\\ s."""

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.dropped = 0  # events evicted from the ring buffer
        #: stats registry mirroring drops as ``trace.dropped_records``
        #: (attached by :func:`install_tracer`; optional for bare tracers)
        self.stats = None
        #: ``time.perf_counter()`` at the zero of the wall clock
        self.origin_s = time.perf_counter()
        self._events: deque = deque(maxlen=capacity)
        self._cursors: Dict[str, float] = {}
        self._warned_dropped = False

    # -- state ----------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self._cursors.clear()
        self.dropped = 0
        self._warned_dropped = False

    def _append(self, event: TraceEvent) -> None:
        if self.capacity is not None and len(self._events) == self.capacity:
            self.dropped += 1
            if self.stats is not None:
                self.stats.incr(DROPPED_RECORDS_STAT)
            if not self._warned_dropped:
                self._warned_dropped = True
                logger.warning(
                    "trace ring buffer full (capacity %d): evicting oldest "
                    "records; raise capacity (capacity=None for unbounded) "
                    "to keep the whole run", self.capacity)
        self._events.append(event)

    # -- emission -------------------------------------------------------
    def complete(self, name: str, track: str, start: float, dur: float,
                 cat: str = "", clock: str = CYCLES, **args: Any) -> None:
        """A span: ``name`` occupied ``track`` for [start, start+dur)."""
        self._append(TraceEvent(name=name, ph="X", ts=start, dur=dur,
                                track=track, cat=cat, args=args,
                                clock=clock))

    def instant(self, name: str, track: str, ts: Optional[float] = None,
                cat: str = "", clock: str = CYCLES, **args: Any) -> None:
        """A zero-duration marker at ``ts`` (track cursor if None)."""
        if ts is None:
            ts = self.cursor(track)
        self._append(TraceEvent(name=name, ph="i", ts=ts, track=track,
                                cat=cat, args=args, clock=clock))

    def counter(self, name: str, track: str, ts: float, value: float,
                cat: str = "", clock: str = CYCLES) -> None:
        """A counter sample (renders as a value track in Perfetto)."""
        self._append(TraceEvent(name=name, ph="C", ts=ts, track=track,
                                cat=cat, args={"value": value}, clock=clock))

    # -- the wall clock ---------------------------------------------------
    def wall_us(self, perf_s: Optional[float] = None) -> float:
        """A ``time.perf_counter()`` reading (now if None) on the wall
        clock: microseconds since the tracer was created."""
        if perf_s is None:
            perf_s = time.perf_counter()
        return (perf_s - self.origin_s) * 1e6

    @contextmanager
    def span(self, name: str, track: str = "main", cat: str = "",
             **args: Any):
        """Context manager recording a wall-clock span around the body."""
        handle = _Span(dict(args))
        start = self.wall_us()
        try:
            yield handle
        finally:
            self.complete(name, track=track, start=start,
                          dur=max(self.wall_us() - start, 0.0), cat=cat,
                          clock=WALL, **handle.args)

    # -- per-track cursors (engines without a global clock) --------------
    def cursor(self, track: str) -> float:
        """Monotonic per-track position for engines with no global clock."""
        return self._cursors.get(track, 0.0)

    def advance(self, track: str, dur: float) -> float:
        """Move the track cursor ``dur`` cycles on; returns the new cursor."""
        end = self._cursors[track] = self.cursor(track) + dur
        return end

    def lay(self, name: str, track: str, dur: float, cat: str = "",
            **args: Any) -> float:
        """Lay a span at the track cursor and advance it; returns the start."""
        start = self.cursor(track)
        self.complete(name, track=track, start=start, dur=dur, cat=cat,
                      **args)
        self._cursors[track] = start + dur
        return start

    # -- pipeline fast path ----------------------------------------------
    def cpu_cycle(self, cycle: float, **stages: Optional[int]) -> None:
        """One per-cycle stage-occupancy record on :data:`CPU_TRACK`, for
        [cycle-1, cycle).

        ``stages`` maps stage names (:data:`STAGES`) to the occupying PC
        (None = bubble) plus optional extras such as ``wb_name``.
        """
        self._append(TraceEvent(name=CYCLE_EVENT, ph="X", ts=cycle - 1,
                                dur=1, track=CPU_TRACK, cat="cpu", args=stages))


class ProbeBridge:
    """Converts :class:`~repro.sim.StatsRegistry` probe events to traces."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __call__(self, event: str, payload: Mapping[str, Any]) -> None:
        tracer = self.tracer
        if event == "timeline.segment":
            start = payload["start"]
            tracer.complete(payload.get("label") or payload["kind"],
                            track=payload["core"], start=start,
                            dur=payload["end"] - start, cat=payload["kind"],
                            src="timeline")
        elif event == "dma.transfer":
            tracer.lay(payload.get("description", "transfer"),
                       track=DMA_TRACK, dur=payload["cycles"], cat="dma",
                       words=payload.get("words", 0),
                       setup_cycles=payload.get("setup_cycles", 0))
        elif event in ("bnn.batch", "bnn.infer"):
            self._bnn_spans(event, payload)
        elif event == "soc.mode_switch":
            tracer.instant(event, track=payload.get("core", "soc"),
                           ts=payload.get("cycle"), cat="switch",
                           to=payload.get("to"), cost=payload.get("cost", 0))
        elif event == "cpu.run":
            # at the run's end on its simulator's track; the pipeline has
            # already moved its cursor past the cycles it recorded
            track = f"cpu.{payload.get('simulator')}"
            if track != CPU_TRACK:
                tracer.advance(track, payload.get("cycles", 0))
            tracer.instant(event, track=track, cat="cpu", **dict(payload))
        elif event == "obs.phase":
            track = f"obs.{payload.get('engine', 'run')}"
            tracer.lay(payload.get("phase", "phase"), track=track,
                       dur=float(payload.get("cycles", 0)), cat="obs",
                       wall_s=payload.get("wall_s", 0.0),
                       kind=payload.get("kind", ""),
                       scenario=payload.get("scenario", ""))
        elif event == "serve.batch":
            self._serve_batch(payload)
        elif event in ("serve.shed", "serve.timeout"):
            args = dict(payload)
            ts = tracer.wall_us(args.pop("origin_s") + args["t_s"])
            tracer.instant(event, track=f"{SERVE_TRACK}.admission", ts=ts,
                           cat="serve", clock=WALL, **args)

    def _serve_batch(self, payload: Mapping[str, Any]) -> None:
        """One batch on the wall clock: its span on ``serve.batcher``, the
        queue depth it left, and each request's lifecycle chain.

        A request's segments (enqueue → batch-assemble → dispatch →
        engine-infer → respond) come from :meth:`Request.lifecycle`, in
        seconds since the server's ``origin_s``.  Request lanes rotate over
        :data:`SERVE_REQUEST_LANES` tracks so long load runs stay readable
        (the exact request id rides in the span args).
        """
        tracer = self.tracer
        origin = payload["origin_s"]
        requests = payload["requests"]
        batch = payload["batch"]

        def span(name: str, track: str, start_s: float, end_s: float,
                 **args: Any) -> float:
            start = tracer.wall_us(origin + start_s)
            end = tracer.wall_us(origin + end_s)
            tracer.complete(name, track=track, start=start,
                            dur=max(end - start, 0.0), cat="serve",
                            clock=WALL, **args)
            return end

        first = requests[0]
        end = span(f"batch x{len(requests)}", f"{SERVE_TRACK}.batcher",
                   first.t_assembled, first.t_infer_done, batch=batch,
                   size=len(requests), cycles=payload["cycles"])
        tracer.counter("queue_depth", track=f"{SERVE_TRACK}.queue", ts=end,
                       value=float(payload["queue_depth"]), cat="serve",
                       clock=WALL)
        for request in requests:
            track = f"{SERVE_TRACK}.req{request.index % SERVE_REQUEST_LANES:02d}"
            for name, start_s, end_s, _ in request.lifecycle():
                span(name, track, start_s, end_s, request=request.index,
                     batch=batch, status=request.status)

    def _bnn_spans(self, event: str, payload: Mapping[str, Any]) -> None:
        """Per-layer spans for one accelerator batch/inference."""
        tracer = self.tracer
        layer_cycles = payload.get("layer_cycles") or []
        layer_macs = payload.get("layer_macs") or [0] * len(layer_cycles)
        n_inputs = payload.get("n_inputs", 1)
        for index, cycles in enumerate(layer_cycles):
            macs = layer_macs[index] if index < len(layer_macs) else 0
            tracer.lay(f"layer{index}", track=BNN_TRACK, dur=cycles,
                       cat="bnn", layer=index, macs=macs * n_inputs)
        total = payload.get("total_cycles", payload.get("cycles", 0))
        pipelined = total - sum(layer_cycles)
        if pipelined > 0:
            tracer.lay(f"steady-state x{n_inputs}", track=BNN_TRACK,
                       dur=pipelined, cat="bnn")
        tracer.instant(event, track=BNN_TRACK,
                       ts=tracer.cursor(BNN_TRACK), cat="bnn",
                       **{k: v for k, v in payload.items()
                          if not isinstance(v, (list, tuple))})


# -- session wiring -----------------------------------------------------
def install_tracer(session=None,
                   capacity: Optional[int] = DEFAULT_CAPACITY) -> Tracer:
    """Create a tracer, attach it to the session, subscribe the bridge."""
    session = session if session is not None else get_session()
    uninstall_tracer(session)
    tracer = Tracer(capacity)
    # mirror ring-buffer evictions into the session stats, so dropped
    # records are as visible as any other counter (metrics diffs pick up
    # ``trace.dropped_records`` with no extra wiring)
    tracer.stats = session.stats
    bridge = ProbeBridge(tracer)
    session.stats.subscribe("*", bridge)
    tracer._bridge = bridge
    session.tracer = tracer
    return tracer


def uninstall_tracer(session=None) -> Optional[Tracer]:
    """Detach the session's tracer (and its bridge); returns it."""
    session = session if session is not None else get_session()
    tracer = getattr(session, "tracer", None)
    if tracer is None:
        return None
    bridge = getattr(tracer, "_bridge", None)
    if bridge is not None:
        session.stats.unsubscribe("*", bridge)
    session.tracer = None
    return tracer


@contextmanager
def tracing(session=None, capacity: Optional[int] = DEFAULT_CAPACITY):
    """``with tracing() as tracer:`` — install for the block, then detach."""
    session = session if session is not None else get_session()
    tracer = install_tracer(session, capacity)
    try:
        yield tracer
    finally:
        uninstall_tracer(session)


def events_of(source) -> Iterable[TraceEvent]:
    """Accept a Tracer or a plain event iterable (exporter/profiler input)."""
    if isinstance(source, Tracer):
        return source.events
    return source
