"""End-to-end serving: batching, admission control, report, tracing."""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import PHASES
from repro.scenario import Scenario, ServeSpec, WorkloadSpec
from repro.serve import (
    NCPUServer,
    ServePolicy,
    arrival_offsets,
    build_slo_report,
    drive,
    render_slo_report,
    serve_scenario,
    validate_slo_report,
)
from repro.sim import use_session


def small_scenario(engine: str = "fast", **serve_fields) -> Scenario:
    serve = {"arrival": "poisson", "rate_rps": 4000.0, "requests": 24,
             "batch_window_ms": 1.0, "max_batch": 8, **serve_fields}
    return Scenario(
        name="serve-test",
        workload=WorkloadSpec(kind="bnn", name="random",
                              layer_sizes=(24, 16, 10)),
        batch_size=8,
        serve=ServeSpec(**serve)).with_engine(name=engine)


def run_serve(scenario, session=None):
    return serve_scenario(scenario, session=session)


class TestServeEndToEnd:
    @pytest.mark.parametrize("engine", ["accurate", "fast"])
    def test_full_session_meets_report_schema(self, engine):
        scenario = small_scenario(engine)
        with use_session(cache_enabled=False) as session:
            report, server = run_serve(scenario, session=session)
        summary = validate_slo_report(report)
        assert summary["requests"] == 24
        assert report["engine"] == engine
        assert report["requests"]["completed"] == 24
        assert report["batches"]["count"] >= 24 / 8
        assert report["batches"]["sim_cycles"] > 0
        # every request partitioned its latency into the six phases
        for request in server.requests:
            assert set(request.phases_s) == set(PHASES)
            assert sum(request.phases_s.values()) == \
                pytest.approx(request.latency_s, abs=1e-6)

    def test_predictions_match_direct_engine_batch(self):
        """Dynamic batching must not change any prediction: each request's
        answer equals the engine's whole-pool batched answer for its row."""
        import numpy as np

        from repro.bnn import BNNAccelerator
        from repro.engine import resolve_engine
        from repro.scenario.materialize import build_inputs, build_model

        scenario = small_scenario("fast")
        with use_session(cache_enabled=False) as session:
            _, server = run_serve(scenario, session=session)
            model = build_model(scenario)
            pool = build_inputs(scenario, batch_size=scenario.batch_size)
            rows = np.stack([pool[index % len(pool)]
                             for index in range(scenario.serve.requests)])
            reference, _ = BNNAccelerator().infer_batch(
                model, rows, engine=resolve_engine("fast"))
        for request in server.requests:
            assert request.status == "ok"
            assert request.prediction == int(reference[request.index])

    def test_engines_agree_under_identical_schedules(self):
        predictions = {}
        for engine in ("accurate", "fast"):
            scenario = small_scenario(engine)
            with use_session(cache_enabled=False) as session:
                _, server = run_serve(scenario, session=session)
            predictions[engine] = [request.prediction
                                   for request in server.requests]
        assert predictions["fast"] == predictions["accurate"]

    def test_rejects_cpu_scenarios(self):
        scenario = Scenario(
            name="cpu", workload=WorkloadSpec(kind="cpu", name="dhrystone",
                                              layer_sizes=()))
        with use_session(cache_enabled=False):
            with pytest.raises(ConfigurationError, match="bnn"):
                NCPUServer(scenario)

    def test_submit_requires_running_server(self):
        scenario = small_scenario()
        with use_session(cache_enabled=False):
            server = NCPUServer(scenario)
            with pytest.raises(RuntimeError, match="not running"):
                asyncio.run(server.submit([1.0] * 24))

    def test_max_batch_bounds_every_batch(self):
        scenario = small_scenario("fast", rate_rps=50000.0, requests=40,
                                  max_batch=4)
        with use_session(cache_enabled=False) as session:
            _, server = run_serve(scenario, session=session)
        assert server.recorder.batch_sizes
        assert max(server.recorder.batch_sizes) <= 4
        assert sum(server.recorder.batch_sizes) == 40


class TestAdmissionControl:
    def test_zero_depth_policy_sheds_everything(self):
        scenario = small_scenario("fast")
        policy = ServePolicy(max_queue_depth=0)

        async def main(session):
            server = NCPUServer(scenario, policy=policy, session=session)
            async with server:
                rows = [[1.0] * 24] * 5
                results = await asyncio.gather(
                    *(server.submit(row) for row in rows))
            return server, results

        with use_session(cache_enabled=False) as session:
            server, results = asyncio.run(main(session))
        assert all(request.status == "shed" for request in results)
        assert server.recorder.shed == 5
        assert server.recorder.completed == 0

    def test_expired_requests_time_out_at_assembly(self):
        scenario = small_scenario("fast")
        policy = ServePolicy(timeout_s=0.0, batch_window_s=0.001)

        async def main(session):
            server = NCPUServer(scenario, policy=policy, session=session)
            async with server:
                result = await server.submit([1.0] * 24)
            return server, result

        with use_session(cache_enabled=False) as session:
            server, result = asyncio.run(main(session))
        assert result.status == "timeout"
        assert result.prediction is None
        assert server.recorder.timeouts == 1
        # a timed-out request still closes its phase partition
        assert sum(result.phases_s.values()) == \
            pytest.approx(result.latency_s, abs=1e-6)

    def test_shed_and_timeouts_conserve_request_count(self):
        scenario = small_scenario("fast", requests=16, rate_rps=8000.0)
        policy = ServePolicy(max_queue_depth=2, batch_window_s=0.001,
                             max_batch=4)

        async def main(session):
            server = NCPUServer(scenario, policy=policy, session=session)
            rows = [[1.0] * 24] * 16
            offsets = arrival_offsets("uniform", 8000.0, 16)
            async with server:
                await drive(server, rows, offsets)
            return server

        with use_session(cache_enabled=False) as session:
            server = asyncio.run(main(session))
        recorder = server.recorder
        assert recorder.completed + recorder.shed + recorder.timeouts \
            == recorder.requests == 16
        report = build_slo_report(server, list(range(16)))
        validate_slo_report(report)


class TestSLOReport:
    def report(self):
        scenario = small_scenario("fast")
        with use_session(cache_enabled=False) as session:
            report, _ = run_serve(scenario, session=session)
        return report

    def test_render_and_write_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sim import reset_session

        target = tmp_path / "slo.json"
        try:
            assert main(["serve", "--engine", "fast", "--requests", "24",
                         "--out", str(target)]) == 0
        finally:
            reset_session()
        text = capsys.readouterr().out
        assert "SLO" in text and "| p50 |" in text
        loaded = json.loads(target.read_text())
        assert validate_slo_report(loaded)["requests"] == 24
        assert render_slo_report(loaded) == text

    def test_validate_rejects_lost_requests(self):
        report = self.report()
        report["requests"]["completed"] -= 1
        with pytest.raises(ValueError, match="loses requests"):
            validate_slo_report(report)

    def test_validate_rejects_non_monotone_quantiles(self):
        report = self.report()
        report["latency_ms"]["p50"] = report["latency_ms"]["p99"] * 2
        with pytest.raises(ValueError, match="not monotone"):
            validate_slo_report(report)

    def test_validate_rejects_inconsistent_met_flag(self):
        report = self.report()
        report["slo"]["met"] = not report["slo"]["met"]
        with pytest.raises(ValueError, match="contradicts"):
            validate_slo_report(report)

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate_slo_report({"schema": "nope/9"})

    def test_manifest_stamps_identity(self):
        report = self.report()
        for key in ("config_hash", "git_sha", "seed", "engine"):
            assert key in report["manifest"]


class TestServeTracing:
    def test_request_lifecycle_lanes_in_chrome_trace(self):
        from repro.trace import install_tracer, uninstall_tracer
        from repro.trace.export import chrome_trace, iter_chrome_events, \
            validate_chrome_trace

        scenario = small_scenario("fast")
        with use_session(cache_enabled=False) as session:
            tracer = install_tracer(session, capacity=None)
            try:
                run_serve(scenario, session=session)
            finally:
                uninstall_tracer(session)
            payload = chrome_trace(tracer)
        summary = validate_chrome_trace(payload)
        assert any(track.startswith("serve.req")
                   for track in summary["tracks"])
        assert "serve.batcher" in summary["tracks"]
        assert "serve.queue" in summary["tracks"]
        spans = [event for event in iter_chrome_events(payload)
                 if event.get("cat") == "serve" and event["ph"] == "X"]
        names = {span["name"] for span in spans}
        assert {"enqueue", "batch_assemble", "dispatch", "engine_infer",
                "respond"} <= names

    def test_serve_lanes_and_bnn_layers_sit_on_separate_clocks(self):
        from repro.trace import install_tracer, uninstall_tracer
        from repro.trace.export import chrome_trace, validate_chrome_trace

        scenario = small_scenario("fast")
        with use_session(cache_enabled=False) as session:
            tracer = install_tracer(session, capacity=None)
            try:
                _, server = run_serve(scenario, session=session)
            finally:
                uninstall_tracer(session)
        processes = validate_chrome_trace(chrome_trace(tracer))["processes"]
        assert len(processes) == 2
        cycles, wall = (tracks for name, tracks in sorted(
            processes.items(), key=lambda item: "wall" in item[0]))
        assert "bnn" in cycles
        assert all(track.startswith("serve.") for track in wall)
        assert not any(track.startswith("serve.") for track in cycles)
        # one lifecycle chain per completed request, each segment on the
        # wall clock between the tracer's start and now
        lanes = [event for event in tracer.events
                 if event.track.startswith("serve.req")]
        assert len(lanes) == 5 * len(server.requests)
        now_us = tracer.wall_us()
        assert all(0 <= event.ts <= event.ts + event.dur <= now_us
                   for event in lanes)

    def test_shed_events_render_as_admission_instants(self):
        from repro.trace import WALL, install_tracer, uninstall_tracer
        from repro.trace.export import chrome_trace, validate_chrome_trace

        scenario = small_scenario("fast")
        policy = ServePolicy(max_queue_depth=0)

        async def main(session):
            server = NCPUServer(scenario, policy=policy, session=session)
            async with server:
                return await server.submit([1.0] * 24)

        with use_session(cache_enabled=False) as session:
            tracer = install_tracer(session, capacity=None)
            try:
                request = asyncio.run(main(session))
            finally:
                uninstall_tracer(session)
        summary = validate_chrome_trace(chrome_trace(tracer))
        assert "serve.admission" in summary["tracks"]
        (shed,) = [event for event in tracer.events
                   if event.track == "serve.admission"]
        assert (shed.name, shed.ph, shed.clock) == ("serve.shed", "i", WALL)
        assert shed.args == {"request": 0, "t_s": request.t_respond,
                             "queue_depth": 0}

    def test_timeout_events_render_as_admission_instants(self):
        from repro.trace import WALL, tracing

        # the request waits out the window, so it outlives a zero timeout
        # at assembly
        policy = ServePolicy(batch_window_s=0.001, timeout_s=0.0)

        async def main(session):
            server = NCPUServer(small_scenario("fast"), policy=policy,
                                session=session)
            async with server:
                return await server.submit([1.0] * 24)

        with use_session(cache_enabled=False) as session:
            with tracing(session) as tracer:
                request = asyncio.run(main(session))
        (timeout,) = tracer.events
        assert (timeout.name, timeout.track, timeout.clock) == \
            ("serve.timeout", "serve.admission", WALL)
        assert list(timeout.args) == ["request", "t_s", "age_s"]
        assert timeout.args["t_s"] == request.t_respond


def _run_server(scenario, policy, body):
    """Run ``body(server)`` against a started server on a fresh loop;
    returns ``(server, body's result)``."""

    async def main(session):
        server = NCPUServer(scenario, policy=policy, session=session)
        async with server:
            result = await body(server)
        return server, result

    with use_session(cache_enabled=False) as session:
        return asyncio.run(main(session))


def _submit_all(server, count):
    return asyncio.gather(*(server.submit([1.0] * 24)
                            for _ in range(count)))


class TestBatchWindow:
    def test_engine_predict_runs_on_event_loop_thread(self, monkeypatch):
        import threading

        threads = []

        async def body(server):
            engine_type = type(server.engine)
            original = engine_type.predict

            def recording_predict(engine, model, rows):
                threads.append(threading.get_ident())
                return original(engine, model, rows)

            monkeypatch.setattr(engine_type, "predict", recording_predict)
            await _submit_all(server, 3)
            return threading.get_ident()

        _, loop_thread = _run_server(small_scenario("fast"),
                                     ServePolicy(batch_window_s=0.001), body)
        assert threads and set(threads) == {loop_thread}

    def test_full_batch_dispatches_without_waiting_out_the_window(self):
        server, results = _run_server(
            small_scenario("fast"),
            ServePolicy(batch_window_s=60.0, max_batch=8),
            lambda server: asyncio.wait_for(_submit_all(server, 8), 5.0))
        assert server.recorder.batch_sizes == [8]
        assert {request.batch_index for request in results} == {0}

    def test_partial_batch_dispatches_after_one_window(self):
        window_s = 0.05

        server, results = _run_server(
            small_scenario("fast"),
            ServePolicy(batch_window_s=window_s, max_batch=8),
            lambda server: _submit_all(server, 3))
        assert server.recorder.batch_sizes == [3]
        for request in results:
            assert request.status == "ok"
            assert request.t_assembled - request.t_enqueue \
                >= window_s - 1e-3
            assert request.t_assembled - request.t_enqueue < 1.0

    def test_window_counts_from_the_first_rows_arrival(self, monkeypatch):
        """A row that queued while the batcher was busy has used up its
        window by the time the batcher reaches it, so it dispatches at
        once instead of waiting a second full window."""
        import time

        from repro.bnn import BNNAccelerator

        original = BNNAccelerator.infer_batch
        calls = []

        def slow_first_batch(accelerator, *args, **kwargs):
            if not calls:
                time.sleep(0.3)  # blocks the loop, like a long batch
            calls.append(1)
            return original(accelerator, *args, **kwargs)

        monkeypatch.setattr(BNNAccelerator, "infer_batch", slow_first_batch)
        server, results = _run_server(
            small_scenario("fast"),
            ServePolicy(batch_window_s=0.2, max_batch=2, timeout_s=5.0),
            lambda server: _submit_all(server, 3))
        assert server.recorder.batch_sizes == [2, 1]
        last = results[2]
        assert last.t_assembled - last.t_enqueue >= 0.3
        assert last.t_assembled - last.t_enqueue < 0.45

    def test_no_window_closes_before_its_deadline(self):
        """Every batch that closed on its window assembled no earlier
        than its first row's enqueue plus the window, exactly."""
        scenario = small_scenario("fast", rate_rps=1000.0, requests=200,
                                  batch_window_ms=2.0, max_batch=32)
        with use_session(cache_enabled=False) as session:
            _, server = run_serve(scenario, session=session)
        window_s = server.policy.batch_window_s
        batches = {}
        for request in server.requests:
            assert request.status == "ok"
            batches.setdefault(request.batch_index, []).append(request)
        on_window = [rows for rows in batches.values()
                     if len(rows) < server.policy.max_batch]
        assert len(on_window) >= 10
        for rows in on_window:
            first = min(request.t_enqueue for request in rows)
            assert rows[0].t_assembled >= first + window_s

    def test_stop_ends_a_long_window_promptly(self):
        """A row inside a 60 s window: ``stop()`` closes the batch at
        once, and the window's executor wait ends with it, so
        ``asyncio.run`` does not wait on it when it shuts the executor
        down."""
        import threading
        import time

        async def body(server):
            pending = asyncio.ensure_future(server.submit([1.0] * 24))
            await asyncio.sleep(0.05)  # the batcher is inside the window
            stopping = time.perf_counter()
            await server.stop()
            return await pending, time.perf_counter() - stopping

        threads = threading.active_count()
        started = time.perf_counter()
        _, (request, stop_s) = _run_server(
            small_scenario("fast"),
            ServePolicy(batch_window_s=60.0, max_batch=8), body)
        assert time.perf_counter() - started < 0.5
        assert stop_s < 0.1
        assert request.status == "ok"
        assert threading.active_count() == threads

    def test_a_stalled_executor_wait_falls_back_to_the_loop_timer(
            self, monkeypatch):
        """If the executor's wait never returns by itself, the loop's
        timer closes the window just past its deadline: no hang."""
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "_block_until",
                            lambda stop, clock, deadline: stop.wait())
        window_s = 0.01
        server, results = _run_server(
            small_scenario("fast"),
            ServePolicy(batch_window_s=window_s, max_batch=8),
            lambda server: _submit_all(server, 3))
        assert server.recorder.batch_sizes == [3]
        first = min(request.t_enqueue for request in results)
        waited = results[0].t_assembled - first
        assert window_s + server_module._BACKSTOP_S - 1e-6 <= waited < 0.5

    def test_sleep_until_never_returns_before_its_deadline(self):
        async def body(server):
            never = asyncio.get_running_loop().create_future()
            early = []
            for step in range(40):
                deadline = server._now() + 0.0001 * step
                await server._sleep_until(deadline, never)
                early.append(server._now() < deadline)
            return early

        _, early = _run_server(small_scenario("fast"), ServePolicy(), body)
        assert early == [False] * 40

    def test_sleep_until_returns_promptly_once_woken_or_cancelled(self):
        import threading
        import time

        async def body(server):
            loop = asyncio.get_running_loop()
            wake = loop.create_future()
            loop.call_later(0.01, wake.set_result, None)
            started = time.perf_counter()
            await server._sleep_until(server._now() + 60.0, wake)
            woken_s = time.perf_counter() - started
            sleeper = asyncio.ensure_future(server._sleep_until(
                server._now() + 60.0, loop.create_future()))
            await asyncio.sleep(0.01)
            started = time.perf_counter()
            sleeper.cancel()
            with pytest.raises(asyncio.CancelledError):
                await sleeper
            return woken_s, time.perf_counter() - started

        threads = threading.active_count()
        started = time.perf_counter()
        _, (woken_s, cancelled_s) = _run_server(small_scenario("fast"),
                                                ServePolicy(), body)
        assert woken_s < 0.5 and cancelled_s < 0.1
        # neither 60 s wait held up the executor's shutdown
        assert time.perf_counter() - started < 1.0
        assert threading.active_count() == threads

    def test_zero_window_gives_one_row_batches(self):
        server, results = _run_server(
            small_scenario("fast"),
            ServePolicy(batch_window_s=0.0, max_batch=8),
            lambda server: _submit_all(server, 5))
        assert server.recorder.batch_sizes == [1] * 5
        assert all(request.status == "ok" for request in results)


class TestEngineFault:
    def test_fault_resolves_batch_with_error_and_keeps_serving(
            self, monkeypatch, caplog):
        import logging

        from repro.bnn import BNNAccelerator

        original = BNNAccelerator.infer_batch
        faults = []

        def faulty_infer_batch(accelerator, *args, **kwargs):
            if not faults:
                faults.append(1)
                raise RuntimeError("injected engine fault")
            return original(accelerator, *args, **kwargs)

        monkeypatch.setattr(BNNAccelerator, "infer_batch",
                            faulty_infer_batch)
        # a prior CLI invocation may have claimed the "repro" logger with
        # propagate=False; caplog needs propagation
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        scenario = small_scenario("fast")

        async def main(session):
            server = NCPUServer(scenario, policy=ServePolicy(
                batch_window_s=0.005, max_batch=8), session=session)
            await server.start()
            failed = await asyncio.wait_for(_submit_all(server, 4), 1.0)
            after = await asyncio.wait_for(server.submit([1.0] * 24), 1.0)
            await asyncio.wait_for(server.stop(), 1.0)
            return server, failed, after

        with caplog.at_level(logging.ERROR, logger="repro.serve"):
            with use_session(cache_enabled=False) as session:
                server, failed, after = asyncio.run(main(session))
        assert [request.status for request in failed] == ["error"] * 4
        assert all(request.prediction is None for request in failed)
        for request in failed:
            assert sum(request.phases_s.values()) == \
                pytest.approx(request.latency_s, abs=1e-6)
        assert after.status == "ok"
        faults_logged = [record for record in caplog.records
                         if record.exc_info is not None]
        assert len(faults_logged) == 1
        assert "injected engine fault" in caplog.text
        recorder = server.recorder
        assert recorder.errors == 4
        assert recorder.completed == 1
        report = build_slo_report(server, [0.0] * 5)
        assert report["requests"]["error"] == 4
        assert validate_slo_report(report)["requests"] == 5
        assert "| error | 4 |" in render_slo_report(report)

    def test_cancelled_batcher_fails_queued_requests_and_stops(
            self, monkeypatch, caplog):
        """Cancelling the batcher mid-window must not strand anything:
        the half-assembled and queued requests resolve with ``error``,
        a later submit raises, and ``stop()`` returns."""
        import logging

        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        scenario = small_scenario("fast")

        async def main(session):
            server = NCPUServer(scenario, policy=ServePolicy(
                batch_window_s=5.0, max_batch=8), session=session)
            await server.start()
            pending = asyncio.ensure_future(_submit_all(server, 3))
            await asyncio.sleep(0.05)  # the batcher is inside the window
            server._batcher.cancel()
            stranded = await asyncio.wait_for(pending, 1.0)
            with pytest.raises(RuntimeError, match="batcher has stopped"):
                await asyncio.wait_for(server.submit([1.0] * 24), 1.0)
            await asyncio.wait_for(server.stop(), 1.0)
            return server, stranded

        with caplog.at_level(logging.ERROR, logger="repro.serve"):
            with use_session(cache_enabled=False) as session:
                server, stranded = asyncio.run(main(session))
        assert [request.status for request in stranded] == ["error"] * 3
        for request in stranded:
            assert request.prediction is None
            assert sum(request.phases_s.values()) == \
                pytest.approx(request.latency_s, abs=1e-6)
        assert "batcher cancelled with 3 requests unserved" in caplog.text
        assert server.recorder.errors == 3
        assert server.recorder.completed == 0
        report = build_slo_report(server, [0.0] * 3)
        assert report["requests"]["error"] == 3
        assert validate_slo_report(report)["requests"] == 3
