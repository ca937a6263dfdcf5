"""The asyncio serving front-end: dynamic batching over a scenario model.

:class:`NCPUServer` accepts classification requests (one sign-domain
input row each), coalesces them into dynamic batches — the first arrival
opens a ``batch_window_s`` window, rows already queued join at once, and
the batch closes when the window expires or ``max_batch`` rows arrived —
and dispatches each batch to the configured execution engine through the
accelerator's engine-dispatched batch path.  The batch runs inline on
the event loop: a 32-row batch scores in about 0.1 ms, far less than a
thread-pool hop costs, so arrivals wait out the compute instead of a
hand-off.  An engine fault resolves its batch's requests with the
``error`` status (logged once per fault) and the batcher keeps serving.
If the batcher itself stops — cancelled or crashed — every request it
left queued or half-assembled resolves with ``error`` too, and later
submits raise instead of queueing behind a batcher that is gone.

Observability is the point: every request carries the full lifecycle
timestamp chain (submit → enqueue → batch-assemble → dispatch →
engine-infer → respond, :attr:`Request.SEGMENTS`), folded into the
:class:`~repro.serve.slo.SLORecorder` as six-phase wall buckets that sum
to the request latency (the ``repro.obs`` vocabulary, applied to a
request instead of a run).  An installed session tracer gets one
:meth:`~repro.trace.Tracer.serve_batch` call per batch, carrying its
requests, which it draws as per-request Perfetto lanes, plus one
:meth:`~repro.trace.Tracer.serve_turned_away` call per request shed or
timed out; a completed request costs no call of its own, and an untraced
server makes none.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.engine import resolve_engine
from repro.errors import ConfigurationError
from repro.obs import (
    INFERENCE,
    INIT,
    MEMORY_IO,
    OVERHEAD,
    PHASES,
    POSTPROCESS,
    PREPROCESS,
)
from repro.scenario.schema import Scenario, ServeSpec
from repro.serve.slo import SLORecorder

logger = logging.getLogger(__name__)

#: request outcomes
OK = "ok"
SHED = "shed"
TIMEOUT = "timeout"
ERROR = "error"

#: queue sentinel that tells the batcher to drain and exit
_CLOSE = object()


@dataclass(frozen=True)
class ServePolicy:
    """Batching/admission knobs in seconds (derived from a ServeSpec)."""

    batch_window_s: float = 0.002
    max_batch: int = 16
    max_queue_depth: int = 256
    timeout_s: float = 0.25
    latency_budget_s: float = 0.05
    slo_target: float = 0.99

    @classmethod
    def from_spec(cls, spec: ServeSpec) -> "ServePolicy":
        return cls(batch_window_s=spec.batch_window_ms / 1e3,
                   max_batch=spec.max_batch,
                   max_queue_depth=spec.max_queue_depth,
                   timeout_s=spec.timeout_ms / 1e3,
                   latency_budget_s=spec.latency_budget_ms / 1e3,
                   slo_target=spec.slo_target)

    def as_dict(self) -> Dict[str, Any]:
        return {"batch_window_ms": self.batch_window_s * 1e3,
                "max_batch": self.max_batch,
                "max_queue_depth": self.max_queue_depth,
                "timeout_ms": self.timeout_s * 1e3,
                "latency_budget_ms": self.latency_budget_s * 1e3,
                "slo_target": self.slo_target}


@dataclass
class Request:
    """One served classification request and its lifecycle timestamps.

    All ``t_*`` fields are seconds relative to the server start;
    unreached stages stay at 0.0 (a shed request never assembles).
    """

    #: the lifecycle in order: (segment, start stamp, end stamp, obs phase);
    #: the segments partition ``[t_submit, t_respond]``
    SEGMENTS: ClassVar[Tuple[Tuple[str, str, str, str], ...]] = (
        ("enqueue", "t_submit", "t_enqueue", INIT),
        ("batch_assemble", "t_enqueue", "t_assembled", PREPROCESS),
        ("dispatch", "t_assembled", "t_dispatch", MEMORY_IO),
        ("engine_infer", "t_dispatch", "t_infer_done", INFERENCE),
        ("respond", "t_infer_done", "t_respond", POSTPROCESS),
    )

    index: int
    status: str = OK
    prediction: Optional[int] = None
    batch_index: Optional[int] = None
    batch_size: int = 0
    t_submit: float = 0.0
    t_enqueue: float = 0.0
    t_assembled: float = 0.0
    t_dispatch: float = 0.0
    t_infer_done: float = 0.0
    t_respond: float = 0.0
    phases_s: Dict[str, float] = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        return self.t_respond - self.t_submit

    def lifecycle(self) -> List[Tuple[str, float, float, str]]:
        """Each of :attr:`SEGMENTS` as ``(segment, start_s, end_s, phase)``."""
        return [(name, getattr(self, start), getattr(self, end), phase)
                for name, start, end, phase in self.SEGMENTS]

    def finalize_phases(self) -> Dict[str, float]:
        """Split the request's latency into the six obs phases.

        The lifecycle segments are walked in order and attribution stops
        at the first unreached stage (its stamp still 0.0), so a truncated
        lifecycle — shed at admission, timed out at assembly — puts its
        unattributable tail in ``overhead`` and the buckets always sum
        to the latency (clamped >= 0 against clock jitter).
        """
        buckets = {phase: 0.0 for phase in PHASES}
        previous = self.t_submit
        for _, _, end, phase in self.SEGMENTS:
            stamp = getattr(self, end)
            if stamp < previous:  # lifecycle truncated at this stage
                break
            buckets[phase] = stamp - previous
            previous = stamp
        attributed = previous - self.t_submit
        buckets[OVERHEAD] = max(0.0, self.latency_s - attributed)
        self.phases_s = buckets
        return buckets


class _Pending:
    """Queue entry: the request record, its input row, and its future."""

    __slots__ = ("request", "row", "future")

    def __init__(self, request: Request, row, future: asyncio.Future):
        self.request = request
        self.row = row
        self.future = future


class NCPUServer:
    """Dynamic-batching inference server over one bnn scenario.

    Use as an async context manager (or :meth:`start` / :meth:`stop`);
    :meth:`submit` returns the completed :class:`Request`.  One server
    instance belongs to one event loop.
    """

    def __init__(self, scenario: Scenario, engine: Optional[str] = None,
                 policy: Optional[ServePolicy] = None, session=None):
        from repro.bnn import BNNAccelerator
        from repro.scenario.materialize import build_model
        from repro.sim import get_session

        if scenario.workload.kind != "bnn":
            raise ConfigurationError(
                f"scenario {scenario.name!r} is "
                f"kind={scenario.workload.kind!r}; the serve layer batches "
                "bnn classification scenarios only")
        self.scenario = scenario
        self.policy = policy if policy is not None \
            else ServePolicy.from_spec(scenario.serve)
        self.engine = resolve_engine(engine or scenario.engine.name)
        self.session = session if session is not None else get_session()
        self.model = build_model(scenario)
        self.accelerator = BNNAccelerator()
        self.stream_weights = scenario.batch_policy == "stream"
        self.recorder = SLORecorder(self.policy.latency_budget_s)
        self.requests: List[Request] = []
        self.sim_cycles = 0
        self.sim_macs = 0
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        #: the batch the batcher is assembling (requests already dequeued)
        self._assembling: List[_Pending] = []
        self._t0 = 0.0
        self._t_stop: Optional[float] = None
        self._n_submitted = 0
        self._n_resolved = 0
        self._n_batches = 0

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "NCPUServer":
        if self._batcher is not None:
            raise RuntimeError("server already started")
        self._queue = asyncio.Queue()
        self._t0 = time.perf_counter()
        self._t_stop = None
        self._batcher = asyncio.ensure_future(self._batch_loop())
        self._batcher.add_done_callback(self._batcher_done)
        return self

    async def stop(self) -> None:
        """Drain queued work, dispatch the final batch, stop the batcher.

        Returns once the batcher is done, however it ended.
        """
        if self._batcher is None:
            return
        if not self._batcher.done():
            self._queue.put_nowait(_CLOSE)
        await asyncio.wait((self._batcher,))
        self._batcher = None
        self._t_stop = time.perf_counter()

    async def __aenter__(self) -> "NCPUServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def wall_s(self) -> float:
        """Serving wall time: start .. stop (or now while running)."""
        end = self._t_stop if self._t_stop is not None else time.perf_counter()
        return end - self._t0

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    @property
    def inflight(self) -> int:
        return self._n_submitted - self._n_resolved

    # -- request path ----------------------------------------------------
    async def submit(self, row) -> Request:
        """Serve one input row; returns the completed request record.

        Admission control is synchronous: over ``max_queue_depth`` the
        request is shed immediately (no queue slot, no batch work).
        """
        if self._batcher is None:
            raise RuntimeError("server is not running (use 'async with')")
        if self._batcher.done():
            raise RuntimeError("server batcher has stopped; no request "
                               "can be served")
        request = Request(index=self._n_submitted, t_submit=self._now())
        self._n_submitted += 1
        self.requests.append(request)
        depth = self._queue.qsize()
        self.recorder.record_submit(depth, self.inflight)
        if depth >= self.policy.max_queue_depth:
            request.status = SHED
            request.t_respond = self._now()
            request.finalize_phases()
            self._n_resolved += 1
            self.recorder.record_shed()
            if self.session.tracer is not None:
                self.session.tracer.serve_turned_away(self._t0, request,
                                                      queue_depth=depth)
            return request
        future = asyncio.get_running_loop().create_future()
        request.t_enqueue = self._now()
        self._queue.put_nowait(_Pending(request, row, future))
        await future
        return request

    # -- batcher ---------------------------------------------------------
    async def _batch_loop(self) -> None:
        closing = False
        while not closing:
            first = await self._queue.get()
            if first is _CLOSE:
                break
            batch = self._assembling = [first]
            if self.policy.batch_window_s > 0:
                closing = self._take_queued(batch)
                # the window opened when the first row arrived, which may
                # be before the batcher got to it
                window_s = self.policy.batch_window_s \
                    - (self._now() - first.request.t_enqueue)
                if not closing and window_s > 0 \
                        and len(batch) < self.policy.max_batch:
                    try:
                        closing = await asyncio.wait_for(self._fill(batch),
                                                         window_s)
                    except asyncio.TimeoutError:
                        pass
            self._dispatch(batch)
        # drain anything still queued after the close sentinel
        while not self._queue.empty():
            tail: List[_Pending] = []
            self._take_queued(tail)
            if tail:
                self._dispatch(tail)

    def _batcher_done(self, task: asyncio.Task) -> None:
        """Resolve what the batcher left behind with ``error``.

        A batcher that drained its queue and closed leaves nothing; one
        that was cancelled or crashed leaves its half-assembled batch and
        the queue, whose submitters would otherwise wait forever.
        """
        stranded = [pending for pending in self._assembling
                    if not pending.future.done()]
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not _CLOSE:
                stranded.append(item)
        crash = None if task.cancelled() else task.exception()
        if stranded or crash is not None:
            logger.error("batcher %s with %d requests unserved; they "
                         "resolve with status %r",
                         "cancelled" if crash is None else "crashed",
                         len(stranded), ERROR, exc_info=crash)
            self._resolve_error(stranded)

    def _take_queued(self, batch: List[_Pending]) -> bool:
        """Move already-queued rows into ``batch``, up to ``max_batch``,
        without suspending.  Returns True when the close sentinel came
        out of the queue (the batch then dispatches as it is)."""
        while len(batch) < self.policy.max_batch and not self._queue.empty():
            item = self._queue.get_nowait()
            if item is _CLOSE:
                return True
            batch.append(item)
        return False

    async def _fill(self, batch: List[_Pending]) -> bool:
        """Add arriving rows to ``batch`` until it holds ``max_batch``.

        Runs under the batch's one window deadline.  Returns True when
        the close sentinel arrived, like :meth:`_take_queued`.
        """
        while len(batch) < self.policy.max_batch:
            item = await self._queue.get()
            if item is _CLOSE:
                return True
            batch.append(item)
        return False

    def _dispatch(self, batch: List[_Pending]) -> None:
        import numpy as np

        t_assembled = self._now()
        live: List[_Pending] = []
        for pending in batch:
            pending.request.t_assembled = t_assembled
            age = t_assembled - pending.request.t_submit
            if age > self.policy.timeout_s:
                self._resolve_timeout(pending, age)
            else:
                live.append(pending)
        if not live:
            return
        batch_index = self._n_batches
        self._n_batches += 1
        try:
            matrix = np.stack([pending.row for pending in live])
            t_dispatch = self._now()
            predictions, timing = self.accelerator.infer_batch(
                self.model, matrix, stream_weights=self.stream_weights,
                engine=self.engine)
        except Exception:
            logger.exception("engine %r failed on batch %d (%d rows); "
                             "its requests resolve with status %r",
                             self.engine.name, batch_index, len(live),
                             ERROR)
            self._resolve_error(live, batch_index)
            return
        t_infer_done = self._now()
        self.sim_cycles += int(timing.total_cycles)
        self.sim_macs += int(timing.macs)
        self.recorder.record_batch(len(live))
        for position, pending in enumerate(live):
            request = pending.request
            request.t_dispatch = t_dispatch
            request.t_infer_done = t_infer_done
            request.prediction = int(predictions[position])
            request.batch_index = batch_index
            request.batch_size = len(live)
            request.t_respond = self._now()
            request.finalize_phases()
            self._n_resolved += 1
            self.recorder.record_completion(request.latency_s,
                                            request.phases_s)
            if not pending.future.done():
                pending.future.set_result(request)
        if self.session.tracer is not None:
            self.session.tracer.serve_batch(
                self._t0, batch_index,
                [pending.request for pending in live], self._queue.qsize(),
                int(timing.total_cycles))

    def _resolve_error(self, live: List[_Pending],
                       batch_index: Optional[int] = None) -> None:
        """Resolve requests with the ``error`` status — a faulted batch's,
        or (no ``batch_index``) those a stopped batcher never dispatched.
        Their lifecycle stops at assembly or before; the rest is
        ``overhead``."""
        for pending in live:
            request = pending.request
            request.status = ERROR
            if batch_index is not None:
                request.batch_index = batch_index
                request.batch_size = len(live)
            request.t_respond = self._now()
            request.finalize_phases()
            self._n_resolved += 1
            self.recorder.record_error()
            if not pending.future.done():
                pending.future.set_result(request)

    def _resolve_timeout(self, pending: _Pending, age_s: float) -> None:
        request = pending.request
        request.status = TIMEOUT
        request.t_respond = self._now()
        request.finalize_phases()
        self._n_resolved += 1
        self.recorder.record_timeout()
        if self.session.tracer is not None:
            self.session.tracer.serve_turned_away(self._t0, request,
                                                  age_s=age_s)
        if not pending.future.done():
            pending.future.set_result(request)
