"""Tests for the training-heavy experiments (models are process-cached)."""

import pytest

from repro.experiments import (
    fig15_breakdown,
    fig17_end_to_end,
    fig18_accelerator_size,
    fig19_nalu,
    table1_motion,
    table3_accel,
)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1_motion.run()

    def test_standalone_misses_deadline(self, result):
        assert result.metric("standalone misses 5 ms deadline").measured == 1.0

    def test_accelerated_meets_deadline(self, result):
        assert result.metric("accelerated meets 5 ms deadline").measured == 1.0

    def test_speedup_order_of_magnitude(self, result):
        assert result.metric("latency speedup").measured > 10

    def test_energy_saving_order_of_magnitude(self, result):
        cpu_energy = result.metric("standalone CPU energy").measured
        acc_energy = result.metric("CPU + BNN acc energy").measured
        assert cpu_energy / acc_energy > 10


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3_accel.run()

    def test_accuracy_band(self, result):
        assert abs(result.metric("MNIST accuracy").deviation) < 0.06

    def test_efficiency_anchors(self, result):
        assert abs(result.metric("TOPS/W at 1 V").deviation) < 0.01
        assert abs(result.metric("TOPS/W at 0.4 V (peak)").deviation) < 0.01


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self):
        return fig15_breakdown.run()

    def test_cpu_dominates_both_use_cases(self, result):
        assert result.metric("image CPU fraction").measured > 70
        assert result.metric("motion CPU fraction").measured > 60

    def test_image_stage_ordering(self, result):
        resize = result.metric("image resize share").measured
        gray = result.metric("image grayscale share").measured
        norm = result.metric("image normalize share").measured
        assert min(resize, gray) > norm  # normalization is the small stage

    def test_motion_histogram_dominates_mean(self, result):
        hist = result.metric("motion histogram share").measured
        mean = result.metric("motion mean share").measured
        assert hist > 1.5 * mean  # paper: 46 % vs 22 %

    def test_motion_accuracy_band(self, result):
        assert abs(result.metric("motion accuracy").deviation) < 0.10


class TestFig17:
    @pytest.fixture(scope="class")
    def result(self):
        return fig17_end_to_end.run()

    def test_image_improvement_43(self, result):
        assert abs(result.metric("image improvement (paper fraction)")
                   .deviation) < 0.02

    def test_single_ncpu_degradations(self, result):
        image = result.metric(
            "image single-NCPU degradation (paper fraction)").measured
        motion = result.metric(
            "motion single-NCPU degradation (paper fraction)").measured
        assert 10 < image < 17  # paper: 13.8 %
        assert motion < 3  # paper: 1.8 %

    def test_energy_saving_band(self, result):
        saving = result.metric("image equivalent energy saving").measured
        assert 55 < saving < 85  # paper: 74 %

    def test_measured_workloads_also_win(self, result):
        assert result.metric("image improvement (measured workload)").measured > 40
        assert result.metric("motion improvement (measured workload)").measured > 40


class TestFig18:
    def test_small_width_subset(self):
        # widths 50/100 keep the test fast; EXPERIMENTS.md pins the full sweep
        result = fig18_accelerator_size.run(widths=(50, 100))
        saving_50 = result.metric("area saving at 50 neurons")
        saving_100 = result.metric("area saving at 100 neurons")
        assert abs(saving_50.deviation) < 0.01
        assert abs(saving_100.deviation) < 0.01
        acc_50 = result.metric("accuracy at 50 neurons").measured
        acc_100 = result.metric("accuracy at 100 neurons").measured
        assert acc_100 > acc_50 - 1.0
        assert abs(result.metric("accuracy at 100 neurons").deviation) < 0.06


class TestFig19:
    @pytest.fixture(scope="class")
    def result(self):
        return fig19_nalu.run(steps=800)

    def test_structural_claims(self, result):
        assert result.metric("add learns (error < 5 %)").measured == 1.0
        assert result.metric("xor fails (error > 30 %)").measured == 1.0
        assert result.metric("add+sub near random (error > 50 %)").measured == 1.0

    def test_cost_ratios_anchored(self, result):
        for op in ("add", "sub", "and", "xor"):
            assert abs(result.metric(f"{op} NALU/digital area").deviation) < 0.01


class TestFig17PhaseFractions:
    """The dual-NCPU phase split is engine-independent scheduler output."""

    #: the dual-NCPU phase split, % of end-to-end cycles
    PINNED = {
        "image": {"init": 0.07993605115907274, "memory_io": 0.0,
                  "preprocess": 75.9392486011191,
                  "inference": 23.980815347721823, "postprocess": 0.0,
                  "overhead": 0.0},
        "motion": {"init": 0.07993605115907274, "memory_io": 0.0,
                   "preprocess": 67.94564348521183,
                   "inference": 31.974420463629095, "postprocess": 0.0,
                   "overhead": 0.0},
    }

    @pytest.fixture(scope="class")
    def fast_result(self):
        import os

        from repro.sim import reset_session

        old = os.environ.get("REPRO_ENGINE")
        os.environ["REPRO_ENGINE"] = "fast"
        reset_session()
        try:
            yield fig17_end_to_end.run()
        finally:
            if old is None:
                os.environ.pop("REPRO_ENGINE", None)
            else:
                os.environ["REPRO_ENGINE"] = old
            reset_session()

    def test_fractions_cover_each_timeline(self, fast_result):
        from repro.obs import PHASES

        for case in ("image", "motion"):
            total = sum(
                fast_result.metric(
                    f"{case} ncpu2 phase fraction {phase}").measured
                for phase in PHASES)
            assert total == pytest.approx(100.0)

    def test_fractions_stable_against_gated_baseline(self, fast_result):
        """REPRO_ENGINE=fast must reproduce the pinned phase split."""
        from repro.obs import PHASES

        for case, pinned in self.PINNED.items():
            for phase in PHASES:
                name = f"{case} ncpu2 phase fraction {phase}"
                measured = fast_result.metric(name).measured
                assert measured == pytest.approx(pinned[phase], rel=1e-3,
                                                 abs=1e-9), name
