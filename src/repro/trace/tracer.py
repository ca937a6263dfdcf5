"""The session tracer: spans, instants and counters on two clocks.

A :class:`Tracer` collects structured :class:`TraceEvent` records into a
bounded ring buffer.  Each event is stamped on one of two clocks:

* :data:`CYCLES` — simulated cycles.  Engines without a global clock lay
  their work end to end at a per-track cursor (:meth:`Tracer.lay`), so
  successive runs on one track never overlap;
* :data:`WALL` — host wall time in microseconds since the tracer was
  created (:meth:`Tracer.span`, the serve lanes).

Simulators call it directly, through one typed recording method per kind
of record (:meth:`Tracer.cpu_cycle`, :meth:`Tracer.cpu_run`,
:meth:`Tracer.bnn_batch`, :meth:`Tracer.dma_transfer`,
:meth:`Tracer.serve_batch`, ...).  Each call site looks up
``session.tracer`` and skips the call, and the arguments it would build,
when it is None; the pipelined CPU looks the tracer up once per run, so an
untraced run costs one ``None`` check per cycle.

Install with :func:`install_tracer` / :func:`uninstall_tracer` or the
:func:`tracing` context manager; the active tracer lives on the current
:class:`~repro.sim.SimSession` as ``session.tracer``, and tracing is off
exactly when none is installed.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

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

    # -- simulator call sites ---------------------------------------------
    def cpu_cycle(self, cycle: float, **stages: Optional[int]) -> None:
        """One per-cycle stage-occupancy record on :data:`CPU_TRACK`, for
        [cycle-1, cycle).

        ``stages`` maps stage names (:data:`STAGES`) to the occupying PC
        (None = bubble) plus optional extras such as ``wb_name``.
        """
        self._append(TraceEvent(name=CYCLE_EVENT, ph="X", ts=cycle - 1,
                                dur=1, track=CPU_TRACK, cat="cpu", args=stages))

    def cpu_run(self, simulator: str, stop_reason: str,
                delta: Mapping[str, int]) -> None:
        """A ``cpu.run`` instant at the end of one run on its simulator's
        track, ``cpu.<simulator>``, carrying the run's stat deltas.

        The pipeline has already moved the :data:`CPU_TRACK` cursor past
        the cycles it recorded; the ISS and the fast interpreter record
        none, so their track cursor advances by the run's cycles here.
        """
        track = f"cpu.{simulator}"
        if track != CPU_TRACK:
            self.advance(track, delta["cycles"])
        self.instant("cpu.run", track=track, cat="cpu", simulator=simulator,
                     stop_reason=stop_reason, **delta)

    def bnn_batch(self, timing, layer_cycles: Sequence[int],
                  layer_macs: Sequence[int]) -> None:
        """One accelerator batch (a :class:`~repro.bnn.BatchTiming`) at the
        :data:`BNN_TRACK` cursor: a span per layer, the pipelined steady
        state, and a ``bnn.batch`` instant at its end."""
        self._bnn_layers(layer_cycles, layer_macs, timing.n_inputs,
                         timing.total_cycles)
        self.instant("bnn.batch", track=BNN_TRACK, cat="bnn",
                     n_inputs=timing.n_inputs,
                     latency_cycles=timing.latency_cycles,
                     total_cycles=timing.total_cycles,
                     interval_cycles=timing.interval_cycles,
                     weight_stream_cycles=timing.weight_stream_cycles)

    def bnn_infer(self, result, layer_macs: Sequence[int]) -> None:
        """One single-input inference (an
        :class:`~repro.bnn.InferenceResult`): a span per layer and a
        ``bnn.infer`` instant, at the :data:`BNN_TRACK` cursor."""
        self._bnn_layers(result.layer_cycles, layer_macs, 1, result.cycles)
        self.instant("bnn.infer", track=BNN_TRACK, cat="bnn",
                     prediction=result.prediction, cycles=result.cycles,
                     macs=result.macs)

    def _bnn_layers(self, layer_cycles: Sequence[int],
                    layer_macs: Sequence[int], n_inputs: int,
                    total_cycles: int) -> None:
        for index, (cycles, macs) in enumerate(zip(layer_cycles,
                                                   layer_macs)):
            self.lay(f"layer{index}", track=BNN_TRACK, dur=cycles, cat="bnn",
                     layer=index, macs=macs * n_inputs)
        pipelined = total_cycles - sum(layer_cycles)
        if pipelined > 0:
            self.lay(f"steady-state x{n_inputs}", track=BNN_TRACK,
                     dur=pipelined, cat="bnn")

    def dma_transfer(self, description: str, words: int, cycles: int,
                     setup_cycles: int) -> None:
        """One DMA copy, laid at the :data:`DMA_TRACK` cursor."""
        self.lay(description, track=DMA_TRACK, dur=cycles, cat="dma",
                 words=words, setup_cycles=setup_cycles)

    def timeline_segment(self, core: str, kind: str, start: int, end: int,
                         label: str = "") -> None:
        """A :class:`~repro.core.events.Timeline` segment, on its core's
        track at the cycles it names."""
        self.complete(label or kind, track=core, start=start,
                      dur=end - start, cat=kind, src="timeline")

    def mode_switch(self, core: str, to: str, cycle: int, cost: int) -> None:
        """A ``soc.mode_switch`` instant: ``core`` entered mode ``to`` at
        ``cycle`` of its own clock, after ``cost`` switch cycles."""
        self.instant("soc.mode_switch", track=core, ts=cycle, cat="switch",
                     to=to, cost=cost)

    def obs_phases(self, attribution, phases: Iterable[str]) -> None:
        """An attributed run (a :class:`~repro.obs.RunAttribution`): its
        ``phases`` laid end to end at the ``obs.<engine>`` cursor, each
        span as long as the phase's cycles."""
        track = f"obs.{attribution.engine}"
        for phase in phases:
            self.lay(phase, track=track,
                     dur=float(attribution.cycles[phase]), cat="obs",
                     wall_s=attribution.wall_s[phase],
                     kind=attribution.kind, scenario=attribution.scenario)

    def serve_batch(self, origin_s: float, batch: int, requests: Sequence,
                    queue_depth: int, cycles: int) -> None:
        """One served batch on the wall clock: its span on
        ``serve.batcher``, the queue depth it left, and each request's
        lifecycle chain.

        A request's segments (enqueue → batch-assemble → dispatch →
        engine-infer → respond) come from :meth:`Request.lifecycle`, in
        seconds since the server's ``origin_s`` (a ``perf_counter``
        reading).  Request lanes rotate over :data:`SERVE_REQUEST_LANES`
        tracks so long load runs stay readable (the exact request id
        rides in the span args).
        """
        def span(name: str, track: str, start_s: float, end_s: float,
                 **args: Any) -> float:
            start = self.wall_us(origin_s + start_s)
            end = self.wall_us(origin_s + end_s)
            self.complete(name, track=track, start=start,
                          dur=max(end - start, 0.0), cat="serve", clock=WALL,
                          **args)
            return end

        first = requests[0]
        end = span(f"batch x{len(requests)}", f"{SERVE_TRACK}.batcher",
                   first.t_assembled, first.t_infer_done, batch=batch,
                   size=len(requests), cycles=cycles)
        self.counter("queue_depth", track=f"{SERVE_TRACK}.queue", ts=end,
                     value=float(queue_depth), cat="serve", clock=WALL)
        for request in requests:
            track = f"{SERVE_TRACK}.req{request.index % SERVE_REQUEST_LANES:02d}"
            for name, start_s, end_s, _ in request.lifecycle():
                span(name, track, start_s, end_s, request=request.index,
                     batch=batch, status=request.status)

    def serve_turned_away(self, origin_s: float, request,
                          **args: Any) -> None:
        """A request the server shed or timed out: a ``serve.<status>``
        instant on ``serve.admission`` at its respond stamp, carrying the
        request index, that stamp (``t_s``) and ``args``."""
        self.instant(f"serve.{request.status}",
                     track=f"{SERVE_TRACK}.admission",
                     ts=self.wall_us(origin_s + request.t_respond),
                     cat="serve", clock=WALL, request=request.index,
                     t_s=request.t_respond, **args)


# -- session wiring -----------------------------------------------------
def install_tracer(session=None,
                   capacity: Optional[int] = DEFAULT_CAPACITY) -> Tracer:
    """Create a tracer and make it the session's (replacing any other)."""
    session = session if session is not None else get_session()
    tracer = Tracer(capacity)
    session.tracer = tracer
    return tracer


def uninstall_tracer(session=None) -> Optional[Tracer]:
    """Detach the session's tracer; returns it (None if there was none)."""
    session = session if session is not None else get_session()
    tracer = session.tracer
    session.tracer = None
    return tracer


@contextmanager
def tracing(session=None, capacity: Optional[int] = DEFAULT_CAPACITY):
    """``with tracing() as tracer:`` — install for the block, then put
    back the tracer it displaced (None if there was none)."""
    session = session if session is not None else get_session()
    outer = session.tracer
    tracer = install_tracer(session, capacity)
    try:
        yield tracer
    finally:
        session.tracer = outer


def events_of(source) -> Iterable[TraceEvent]:
    """Accept a Tracer or a plain event iterable (exporter/profiler input)."""
    if isinstance(source, Tracer):
        return source.events
    return source
