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

Observability is the point: every request carries the full lifecycle
timestamp chain (submit → enqueue → batch-assemble → dispatch →
engine-infer → respond), published as ``serve.request`` /
``serve.batch`` / ``serve.shed`` / ``serve.timeout`` probe events on the
session :class:`~repro.sim.StatsRegistry` — so an installed tracer shows
per-request Perfetto lanes with zero extra code here — and folded into
the :class:`~repro.serve.slo.SLORecorder` as six-phase wall buckets that
sum to the request latency (the ``repro.obs`` vocabulary, applied to a
request instead of a run).
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

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

    def finalize_phases(self) -> Dict[str, float]:
        """Split the request's latency into the six obs phases.

        The lifecycle segments partition ``[t_submit, t_respond]``:
        the stamp chain is walked in order and attribution stops at the
        first unreached stage (its stamp still 0.0), so a truncated
        lifecycle — shed at admission, timed out at assembly — puts its
        unattributable tail in ``overhead`` and the buckets always sum
        to the latency (clamped >= 0 against clock jitter).
        """
        chain = (
            (INIT, self.t_enqueue),
            (PREPROCESS, self.t_assembled),
            (MEMORY_IO, self.t_dispatch),
            (INFERENCE, self.t_infer_done),
            (POSTPROCESS, self.t_respond),
        )
        buckets = {phase: 0.0 for phase in PHASES}
        previous = self.t_submit
        for phase, stamp in chain:
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
        from repro.engine import resolve_engine
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
        self.recorder = SLORecorder()
        self.requests: List[Request] = []
        self.sim_cycles = 0
        self.sim_macs = 0
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
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
        return self

    async def stop(self) -> None:
        """Drain queued work, dispatch the final batch, stop the batcher."""
        if self._batcher is None:
            return
        await self._queue.put(_CLOSE)
        await self._batcher
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
            self.session.stats.incr("serve.requests.shed")
            self.session.stats.emit("serve.shed", {
                "request": request.index, "t_s": request.t_respond,
                "queue_depth": depth})
            return request
        future = asyncio.get_running_loop().create_future()
        request.t_enqueue = self._now()
        self._queue.put_nowait(_Pending(request, row, future))
        self.session.stats.incr("serve.requests.submitted")
        await future
        return request

    # -- batcher ---------------------------------------------------------
    async def _batch_loop(self) -> None:
        closing = False
        while not closing:
            first = await self._queue.get()
            if first is _CLOSE:
                break
            batch = [first]
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
        self.session.stats.incr("serve.batches")
        self.session.stats.incr("serve.batch_rows", len(live))
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
            self.session.stats.incr("serve.requests.completed")
            self.session.stats.emit("serve.request", {
                "request": request.index, "status": request.status,
                "batch": batch_index, "batch_size": len(live),
                "submit_s": request.t_submit,
                "enqueue_s": request.t_enqueue,
                "assembled_s": request.t_assembled,
                "dispatch_s": request.t_dispatch,
                "infer_done_s": request.t_infer_done,
                "respond_s": request.t_respond})
            if not pending.future.done():
                pending.future.set_result(request)
        self.session.stats.emit("serve.batch", {
            "batch": batch_index, "size": len(live),
            "assembled_s": t_assembled, "dispatch_s": t_dispatch,
            "infer_done_s": t_infer_done,
            "queue_depth": self._queue.qsize(),
            "cycles": int(timing.total_cycles)})

    def _resolve_error(self, live: List[_Pending], batch_index: int) -> None:
        """Resolve a faulted batch's requests with the ``error`` status;
        their lifecycle stops at assembly, the rest is ``overhead``."""
        for pending in live:
            request = pending.request
            request.status = ERROR
            request.batch_index = batch_index
            request.batch_size = len(live)
            request.t_respond = self._now()
            request.finalize_phases()
            self._n_resolved += 1
            self.recorder.record_error()
            self.session.stats.incr("serve.requests.error")
            if not pending.future.done():
                pending.future.set_result(request)

    def _resolve_timeout(self, pending: _Pending, age_s: float) -> None:
        request = pending.request
        request.status = TIMEOUT
        request.t_respond = self._now()
        request.finalize_phases()
        self._n_resolved += 1
        self.recorder.record_timeout()
        self.session.stats.incr("serve.requests.timeout")
        self.session.stats.emit("serve.timeout", {
            "request": request.index, "t_s": request.t_respond,
            "age_s": age_s})
        if not pending.future.done():
            pending.future.set_result(request)
