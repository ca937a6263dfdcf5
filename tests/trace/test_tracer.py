"""Tracer core: ring buffer, spans, cursors, session wiring, and the
typed recording methods the simulators call."""

import pytest

from repro.core.events import Timeline
from repro.sim import use_session
from repro.trace import (
    BNN_TRACK,
    CYCLES,
    DMA_TRACK,
    WALL,
    Tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)


class TestRingBuffer:
    def test_capacity_bounds_and_counts_drops(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.instant(f"e{index}", track="t", ts=index)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [e.name for e in tracer.events] == ["e2", "e3", "e4"]

    def test_unbounded_capacity(self):
        tracer = Tracer(capacity=None)
        for index in range(100):
            tracer.instant("e", track="t", ts=index)
        assert len(tracer) == 100
        assert tracer.dropped == 0

    def test_clear_resets_everything(self):
        tracer = Tracer(capacity=2)
        tracer.instant("a", track="t", ts=0)
        tracer.lay("b", track="t", dur=5)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.cursor("t") == 0


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        """Tracing is off once the tracer is uninstalled: the simulators no
        longer reach it."""
        with use_session() as session:
            tracer = install_tracer(session)
            uninstall_tracer(session)
            Timeline().add("core0", "cpu", 0, 10)
            assert len(tracer) == 0
            assert session.tracer is None


class TestSpans:
    def test_span_uses_clock_and_set(self, monkeypatch):
        """A span is stamped on the wall clock: microseconds since the
        tracer was created."""
        from types import SimpleNamespace

        import repro.trace.tracer as tracer_module

        ticks = iter([100.0, 100.000010, 100.000025])
        monkeypatch.setattr(tracer_module, "time", SimpleNamespace(
            perf_counter=lambda: next(ticks)))
        tracer = Tracer()
        with tracer.span("runner.step", track="runner", core=0) as span:
            span.set(batch=4)
        (event,) = tracer.events
        assert event.name == "runner.step"
        assert event.ph == "X"
        assert event.clock == WALL
        assert event.ts == pytest.approx(10.0)
        assert event.dur == pytest.approx(15.0)
        assert event.args == {"core": 0, "batch": 4}

    def test_span_records_even_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("s", track="t"):
                raise RuntimeError("boom")
        (event,) = tracer.events
        assert event.clock == WALL and event.dur >= 0

    def test_events_default_to_the_cycle_clock(self):
        tracer = Tracer()
        tracer.lay("a", track="dma", dur=10)
        tracer.instant("b", track="t", ts=3)
        tracer.counter("c", track="t", ts=4, value=1.0)
        assert [event.clock for event in tracer.events] == [CYCLES] * 3
        assert "clock" not in tracer.events[0].to_dict()
        tracer.complete("w", track="t", start=1.0, dur=2.0, clock=WALL)
        assert tracer.events[-1].to_dict()["clock"] == WALL

    def test_advance_moves_the_cursor(self):
        tracer = Tracer()
        assert tracer.advance("cpu.fastpath", 7) == 7
        assert tracer.lay("a", track="cpu.fastpath", dur=3) == 7
        assert tracer.cursor("cpu.fastpath") == 10

    def test_lay_advances_cursor(self):
        tracer = Tracer()
        assert tracer.lay("a", track="dma", dur=10) == 0
        assert tracer.lay("b", track="dma", dur=5) == 10
        assert tracer.cursor("dma") == 15
        assert tracer.cursor("other") == 0


class TestSessionWiring:
    def test_install_and_uninstall(self):
        with use_session() as session:
            tracer = install_tracer(session)
            assert session.tracer is tracer
            assert uninstall_tracer(session) is tracer
            assert session.tracer is None
            assert uninstall_tracer(session) is None

    def test_tracing_context_manager_detaches(self):
        with use_session() as session:
            with tracing(session) as tracer:
                assert session.tracer is tracer
            assert session.tracer is None

    def test_reinstall_replaces_previous_tracer(self):
        with use_session() as session:
            first = install_tracer(session)
            second = install_tracer(session)
            Timeline().add("core0", "cpu", 0, 10)
            assert len(first) == 0
            spans = [e for e in second.events if e.track == "core0"]
            assert len(spans) == 1

    def test_nested_tracing_restores_the_outer_tracer(self):
        with use_session() as session:
            with tracing(session) as outer:
                with tracing(session) as inner:
                    Timeline().add("core0", "cpu", 0, 10)
                assert session.tracer is outer
                Timeline().add("core1", "cpu", 0, 10)
            assert session.tracer is None
            assert [e.track for e in inner.events] == ["core0"]
            assert [e.track for e in outer.events] == ["core1"]


class TestSimulatorCallSites:
    def test_timeline_segment_becomes_span(self):
        with use_session() as session:
            with tracing(session) as tracer:
                Timeline().add("ncpu0", "bnn", 100, 250, "infer x4")
            (event,) = [e for e in tracer.events if e.track == "ncpu0"]
            assert event.name == "infer x4"
            assert event.ts == 100
            assert event.dur == 150
            assert event.cat == "bnn"
            assert event.args["src"] == "timeline"

    def test_dma_transfer_laid_on_dma_track(self):
        from repro.cpu.memory import FlatMemory
        from repro.mem.dma import DMAEngine

        with use_session() as session:
            with tracing(session) as tracer:
                src, dst = FlatMemory(1024), FlatMemory(1024)
                dma = DMAEngine()
                dma.copy(src, 0, dst, 0, 16, description="weights")
                dma.copy(src, 0, dst, 0, 8)
            spans = [e for e in tracer.events
                     if e.track == DMA_TRACK and e.ph == "X"]
            assert [e.name for e in spans] == ["weights", "copy"]
            assert spans[1].ts == spans[0].ts + spans[0].dur

    def test_bnn_batch_expands_per_layer_spans(self):
        import numpy as np

        from repro.bnn.accelerator import BNNAccelerator
        from repro.bnn.model import BNNModel

        rng = np.random.default_rng(7)
        model = BNNModel.random([16, 8, 4], rng=rng)
        with use_session() as session:
            with tracing(session) as tracer:
                BNNAccelerator().batch_timing(model, 4)
            layers = [e for e in tracer.events
                      if e.track == BNN_TRACK and "layer" in e.args]
            assert [e.args["layer"] for e in layers] == [0, 1]
            assert layers[0].args["macs"] == 16 * 8 * 4  # fan_in*fan_out*n
            assert layers[1].ts == layers[0].ts + layers[0].dur

    def test_mode_switch_instant(self):
        from repro.core.ncpu import NCPUCore

        with use_session() as session:
            with tracing(session) as tracer:
                core = NCPUCore(name="ncpu0")
                core.switch_to_bnn()
                core.switch_to_cpu()
            instants = [e for e in tracer.events
                        if e.name == "soc.mode_switch"]
            assert [e.args["to"] for e in instants] == ["bnn", "cpu"]
            assert all(e.track == "ncpu0" for e in instants)

    def test_bnn_infer_lays_layers_then_an_instant(self):
        import numpy as np

        from repro.bnn.accelerator import BNNAccelerator
        from repro.bnn.model import BNNModel

        model = BNNModel.random([16, 8, 4], rng=np.random.default_rng(7))
        with use_session() as session:
            with tracing(session) as tracer:
                result = BNNAccelerator().infer(model, np.ones(16))
            *layers, instant = tracer.events
            assert [e.name for e in layers] == ["layer0", "layer1"]
            assert [e.args["macs"] for e in layers] == [16 * 8, 8 * 4]
            assert instant.name == "bnn.infer" and instant.ph == "i"
            assert instant.ts == layers[-1].ts + layers[-1].dur
            assert instant.args == {"prediction": result.prediction,
                                    "cycles": result.cycles,
                                    "macs": result.macs}


class TestDroppedRecordsStat:
    def test_bare_tracer_counts_drops_without_a_registry(self):
        tracer = Tracer(capacity=1)
        tracer.instant("a", track="t", ts=0)
        tracer.instant("b", track="t", ts=1)  # evicts "a"
        assert tracer.dropped == 1

    def test_eviction_warns_exactly_once(self, caplog, monkeypatch):
        import logging

        # a prior CLI invocation may have claimed the "repro" logger with
        # propagate=False; caplog needs propagation
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        tracer = Tracer(capacity=1)
        with caplog.at_level(logging.WARNING, logger="repro.trace"):
            for index in range(4):
                tracer.instant(f"e{index}", track="t", ts=index)
        warnings = [r for r in caplog.records
                    if "ring buffer full" in r.message]
        assert len(warnings) == 1

    def test_clear_rearms_the_warning_and_zeroes_the_counter(
            self, caplog, monkeypatch):
        import logging

        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        tracer = Tracer(capacity=1)
        tracer.instant("a", track="t", ts=0)
        tracer.instant("b", track="t", ts=1)
        tracer.clear()
        assert tracer.dropped == 0
        with caplog.at_level(logging.WARNING, logger="repro.trace"):
            tracer.instant("c", track="t", ts=2)
            tracer.instant("d", track="t", ts=3)
        assert tracer.dropped == 1
        assert any("ring buffer full" in r.message for r in caplog.records)

    def test_chrome_trace_metadata_carries_completeness_counters(self):
        from repro.trace.export import chrome_trace

        tracer = Tracer(capacity=2)
        for index in range(5):
            tracer.instant(f"e{index}", track="t", ts=index)
        payload = chrome_trace(tracer)
        assert payload["otherData"]["dropped_records"] == 3
