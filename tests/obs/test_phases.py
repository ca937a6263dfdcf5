"""The phase vocabulary, invariant checks, and the wall-clock recorder."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    INFERENCE,
    INIT,
    OVERHEAD,
    PHASES,
    PREPROCESS,
    PHASE_DESCRIPTIONS,
    PhaseRecorder,
    WALL_TICK_S,
    check_cycle_attribution,
    check_wall_attribution,
    empty_phases,
)


class FakeClock:
    """A manually-advanced clock so recorder tests are deterministic."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestVocabulary:
    def test_six_phases_in_report_order(self):
        assert PHASES == ("init", "memory_io", "preprocess", "inference",
                          "postprocess", "overhead")

    def test_every_phase_is_described(self):
        assert set(PHASE_DESCRIPTIONS) == set(PHASES)
        assert all(PHASE_DESCRIPTIONS[phase] for phase in PHASES)

    def test_empty_phases_covers_all(self):
        assert set(empty_phases()) == set(PHASES)
        assert set(empty_phases(0.0).values()) == {0.0}


class TestCycleCheck:
    def test_exact_sum_passes(self):
        buckets = empty_phases()
        buckets[INIT], buckets[INFERENCE] = 3, 7
        check_cycle_attribution(buckets, 10)

    def test_off_by_one_fails(self):
        buckets = empty_phases()
        buckets[INFERENCE] = 10
        with pytest.raises(ObservabilityError, match="sum to 10"):
            check_cycle_attribution(buckets, 11, "ctx")

    def test_missing_phase_fails(self):
        buckets = empty_phases()
        del buckets[OVERHEAD]
        with pytest.raises(ObservabilityError, match="missing"):
            check_cycle_attribution(buckets, 0)

    def test_unknown_phase_fails(self):
        buckets = empty_phases()
        buckets["warp"] = 0
        with pytest.raises(ObservabilityError, match="unknown"):
            check_cycle_attribution(buckets, 0)


class TestWallCheck:
    def test_within_one_tick_passes(self):
        buckets = empty_phases(0.0)
        buckets[INFERENCE] = 1.0
        check_wall_attribution(buckets, 1.0 + WALL_TICK_S / 2)

    def test_beyond_one_tick_fails(self):
        buckets = empty_phases(0.0)
        buckets[INFERENCE] = 1.0
        with pytest.raises(ObservabilityError, match="wall time"):
            check_wall_attribution(buckets, 1.0 + 3 * WALL_TICK_S)

    def test_five_microseconds_off_fails(self):
        # an absolute bound, so the tick itself cannot grow unnoticed
        buckets = empty_phases(0.0)
        buckets[INFERENCE] = 1.0
        with pytest.raises(ObservabilityError, match="wall time"):
            check_wall_attribution(buckets, 1.0 + 5e-6)


class TestPhaseRecorder:
    def test_overhead_absorbs_unmeasured_remainder(self):
        clock = FakeClock()
        recorder = PhaseRecorder(clock=clock)
        with recorder.run():
            with recorder.measure(PREPROCESS):
                clock.advance(0.25)
            clock.advance(0.5)  # harness glue, attributed to overhead
            with recorder.measure(INFERENCE):
                clock.advance(1.0)
        assert recorder.total_wall_s == pytest.approx(1.75)
        buckets = recorder.wall_phases()
        assert buckets[PREPROCESS] == pytest.approx(0.25)
        assert buckets[INFERENCE] == pytest.approx(1.0)
        assert buckets[OVERHEAD] == pytest.approx(0.5)
        check_wall_attribution(buckets, recorder.total_wall_s)

    def test_repeated_regions_accumulate(self):
        clock = FakeClock()
        recorder = PhaseRecorder(clock=clock)
        with recorder.run():
            for _ in range(3):
                with recorder.measure(INFERENCE):
                    clock.advance(0.1)
        assert recorder.wall_phases()[INFERENCE] == pytest.approx(0.3)

    def test_nesting_rejected(self):
        recorder = PhaseRecorder(clock=FakeClock())
        with recorder.run():
            with recorder.measure(INIT):
                with pytest.raises(ObservabilityError, match="nest"):
                    with recorder.measure(INFERENCE):
                        pass

    def test_unknown_phase_rejected(self):
        recorder = PhaseRecorder(clock=FakeClock())
        with pytest.raises(ObservabilityError, match="vocabulary"):
            with recorder.measure("warp"):
                pass

    def test_total_requires_completed_run(self):
        recorder = PhaseRecorder(clock=FakeClock())
        with pytest.raises(ObservabilityError, match="not completed"):
            recorder.total_wall_s


class TestPhaseRecorderExceptionPaths:
    def test_raising_run_still_closes_the_total(self):
        clock = FakeClock()
        recorder = PhaseRecorder(clock=clock)
        with pytest.raises(RuntimeError, match="boom"):
            with recorder.run():
                with recorder.measure(PREPROCESS):
                    clock.advance(0.2)
                clock.advance(0.3)
                raise RuntimeError("boom")
        assert recorder.total_wall_s == pytest.approx(0.5)
        buckets = recorder.wall_phases()
        assert buckets[PREPROCESS] == pytest.approx(0.2)
        assert buckets[OVERHEAD] == pytest.approx(0.3)
        check_wall_attribution(buckets, recorder.total_wall_s)

    def test_raising_region_accumulates_and_restores_depth(self):
        clock = FakeClock()
        recorder = PhaseRecorder(clock=clock)
        with recorder.run():
            with pytest.raises(ValueError, match="mid-region"):
                with recorder.measure(INFERENCE):
                    clock.advance(0.4)
                    raise ValueError("mid-region")
            # a recovered caller can keep measuring afterwards
            with recorder.measure(PREPROCESS):
                clock.advance(0.1)
        buckets = recorder.wall_phases()
        assert buckets[INFERENCE] == pytest.approx(0.4)
        assert buckets[PREPROCESS] == pytest.approx(0.1)
        check_wall_attribution(buckets, recorder.total_wall_s)

    def test_backwards_clock_clamps_to_zero(self):
        clock = FakeClock()
        recorder = PhaseRecorder(clock=clock)
        with recorder.run():
            with recorder.measure(INFERENCE):
                clock.advance(-0.5)  # non-monotonic clock step
            clock.advance(1.0)
        assert recorder.wall_phases()[INFERENCE] == 0.0
        # overhead remainder stays non-negative despite the step
        assert recorder.wall_phases()[OVERHEAD] >= 0.0

    def test_raising_run_with_backwards_clock_clamps_total(self):
        clock = FakeClock()
        recorder = PhaseRecorder(clock=clock)
        with pytest.raises(RuntimeError):
            with recorder.run():
                clock.advance(-1.0)
                raise RuntimeError("boom")
        assert recorder.total_wall_s == 0.0
