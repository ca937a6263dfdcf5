"""Fig 17: end-to-end improvement for the two real-time use cases.

Paper: the two-core NCPU beats the heterogeneous baseline by 43 % (image)
and 35 % (motion); a single NCPU is only 13.8 % / 1.8 % slower than the
two-core baseline while being 35 % smaller.  The 43 % speedup converts to a
74 % energy saving by scaling the supply down until the latency matches.

We evaluate both at the paper's CPU-work fractions and at our measured
workloads' fractions (the latter are CPU-heavier; Fig 15).
"""

from __future__ import annotations

from repro.core import SchedulerConfig, compare_end_to_end, items_for_fraction
from repro.experiments.common import ExperimentResult
from repro.obs import PHASES, phase_fractions, timeline_phase_cycles
from repro.experiments.models import (
    PAPER_IMAGE_CPU_FRACTION,
    PAPER_MOTION_CPU_FRACTION,
    image_use_case,
    motion_use_case,
)
from repro.experiments.registry import experiment
from repro.power import bnn_profile, cpu_profile, frequency_model

BATCH = 2
PAPER = {
    "image improvement": 0.43,
    "motion improvement": 0.35,
    "image single-NCPU degradation": 0.138,
    "motion single-NCPU degradation": 0.018,
    "image energy saving": 0.74,
}

ZERO_COST = SchedulerConfig(offload_cycles=0, switch_cycles=4)


def _voltage_for_frequency(target_hz: float) -> float:
    """Invert the frequency model by bisection."""
    freq = frequency_model()
    lo, hi = 0.4, 1.0
    if target_hz >= freq.f_hz(hi):
        return hi
    if target_hz <= freq.f_hz(lo):
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if freq.f_hz(mid) < target_hz:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def energy_saving_from_speedup(improvement: float, cpu_fraction: float) -> float:
    """Convert a latency improvement into an iso-latency energy saving.

    The 2xNCPU system finishes in (1 - improvement) of the baseline's time
    at 1 V, so its supply can be scaled down until the latencies match; the
    energy ratio then compares the scaled NCPU run against the 1 V baseline
    (both doing the same work mix of CPU and BNN phases).
    """
    slowdown = 1.0 - improvement  # allowed frequency scale
    freq = frequency_model()
    f_scaled_hz = freq.f_hz(1.0) * slowdown
    v_scaled = _voltage_for_frequency(f_scaled_hz)

    def mix_power(voltage: float, f_hz: float) -> float:
        cpu_power = cpu_profile().total_power_w(voltage, f_hz=f_hz)
        bnn_power = bnn_profile().total_power_w(voltage, f_hz=f_hz)
        return cpu_fraction * cpu_power + (1 - cpu_fraction) * bnn_power

    # same wall-clock time by construction, so energy ratio == power ratio;
    # the baseline runs 2 cores' worth of work on CPU+accelerator at 1 V
    baseline_power = mix_power(1.0, freq.f_hz(1.0))
    ncpu_power = mix_power(v_scaled, freq.f_hz(v_scaled))
    return 1.0 - ncpu_power / baseline_power


@experiment("fig17")
def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Fig 17",
        title="End-to-end improvement for the image and motion use cases",
    )

    # the motion use case detects one gesture at a time ("only a single
    # human gesture is detected ... due to the slow human motion time
    # scale"), so its single-core comparison uses batch 1; the streaming
    # dual-core comparison still interleaves two gestures
    cases = {
        "image": (PAPER_IMAGE_CPU_FRACTION, BATCH,
                  PAPER["image improvement"],
                  PAPER["image single-NCPU degradation"]),
        "motion": (PAPER_MOTION_CPU_FRACTION, 1,
                   PAPER["motion improvement"],
                   PAPER["motion single-NCPU degradation"]),
    }
    improvements = {}
    for name, (fraction, single_batch, paper_improvement,
               paper_degradation) in cases.items():
        comparison = compare_end_to_end(items_for_fraction(fraction, BATCH),
                                        ZERO_COST)
        improvements[name] = comparison.improvement
        result.add(f"{name} improvement (paper fraction)",
                   comparison.improvement * 100,
                   paper=paper_improvement * 100, unit="%")
        single = compare_end_to_end(items_for_fraction(fraction, single_batch),
                                    ZERO_COST)
        result.add(f"{name} single-NCPU degradation (paper fraction)",
                   single.single_core_degradation * 100,
                   paper=paper_degradation * 100, unit="%")
        # where the dual-NCPU end-to-end cycles go, in the shared obs
        # phase vocabulary (engine-independent scheduler output, so these
        # fractions are pinned like any other deterministic anchor)
        fractions = phase_fractions(
            timeline_phase_cycles(comparison.ncpu_dual))
        for phase in PHASES:
            result.add(f"{name} ncpu2 phase fraction {phase}",
                       fractions[phase] * 100, unit="%")

    saving = energy_saving_from_speedup(improvements["image"],
                                        PAPER_IMAGE_CPU_FRACTION)
    result.add("image equivalent energy saving", saving * 100,
               paper=PAPER["image energy saving"] * 100, unit="%")

    # measured-workload variants
    for use_case in (image_use_case(), motion_use_case()):
        comparison = compare_end_to_end(use_case.items(BATCH), ZERO_COST)
        result.add(f"{use_case.name} improvement (measured workload)",
                   comparison.improvement * 100, unit="%")
    result.notes = (
        "Paper-fraction rows reproduce Fig 17's bars; measured-workload "
        "rows use our kernels' CPU-heavier fractions (Fig 15 note), which "
        "push the improvement toward the 50 % two-core ceiling.  The "
        "motion case's paper value (35 %) sits below the scheduler's "
        "zero-overhead prediction (~40 %), consistent with measurement "
        "overheads the paper does not break out."
    )
    return result
