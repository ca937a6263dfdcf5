"""Device zoo: cross-platform energy/inference and end-to-end latency.

Runs one fixed reference workload — a person-detection-class network of
~7.5 M MACs on a 9 KB input frame, the common denominator of the μNPU
benchmarking literature — through every registered device profile's
fitted models and ranks the platforms on energy per inference and
cold-start end-to-end latency.

Unlike the vendor TOPS numbers the μNPU survey papers criticize, the
end-to-end figure charges every phase the profile declares: runtime
init, weight/input movement, input preprocessing, the accelerated MACs
and the host-side postprocess (e.g. softmax on NPUs without native
support).  Host phases are priced at the profile's CPU-mode power,
the MAC phase at its accelerator-mode power, everything at the
profile's nominal operating point.

All numbers are closed-form model evaluations — deterministic and
cheap — so every metric is pinned in EXPERIMENTS.md (checked by
``tools/generate_experiments_md.py --check``) and the default
profile's row to exact floats in the tests.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment
from repro.power import get_profile, models_for, profile_names

#: the reference workload (MobileNet-v1 0.25x person detection class):
#: multiply-accumulates per inference and input frame size
WORKLOAD_MACS = 7_490_000
INPUT_KB = 9.0


def profile_breakdown(name: str) -> Dict[str, Any]:
    """Per-phase cycles/seconds/energy of the reference workload on one
    registered profile, at its nominal operating point."""
    device = get_profile(name)
    models = models_for(device)
    vdd = device.vdd_nominal
    f_hz = models.frequency.f_hz(vdd)
    over = device.overheads

    host_cycles = {
        "init": over.init_cycles,
        "memory_io": over.memory_io_cycles_per_kb
        * (device.model_size_kb + INPUT_KB),
        "preprocess": over.preprocess_cycles_per_kb * INPUT_KB,
        "postprocess": over.postprocess_cycles,
    }
    accel_cycles = WORKLOAD_MACS / device.accel_ops_per_cycle

    cpu_power_w = models.cpu.total_power_w(vdd, f_hz)
    accel_power_w = models.accel.total_power_w(vdd)

    phases_s = {phase: cycles / f_hz
                for phase, cycles in host_cycles.items()}
    phases_s["inference"] = accel_cycles / f_hz
    phases_j = {phase: cpu_power_w * seconds
                for phase, seconds in phases_s.items()}
    phases_j["inference"] = accel_power_w * phases_s["inference"]

    total_s = sum(phases_s.values())
    total_j = sum(phases_j.values())
    return {
        "profile": name,
        "vdd_v": vdd,
        "f_mhz": f_hz / 1e6,
        "accel_cycles": accel_cycles,
        "host_cycles": host_cycles,
        "phases_s": phases_s,
        "phases_j": phases_j,
        "latency_ms": total_s * 1e3,
        "energy_uj": total_j * 1e6,
        "overhead_share": 1.0 - phases_s["inference"] / total_s,
    }


@experiment("device_zoo",
            title="Cross-device energy/inference and end-to-end latency")
def run() -> ExperimentResult:
    names = profile_names()
    breakdowns = {name: profile_breakdown(name) for name in names}

    result = ExperimentResult(
        experiment_id="Device zoo",
        title="Cross-device energy/inference and end-to-end latency "
              f"({WORKLOAD_MACS / 1e6:.2f} M MACs reference workload)",
    )
    result.series["profiles"] = list(names)
    result.series["breakdowns"] = [breakdowns[name] for name in names]
    result.series["ranking_energy"] = sorted(
        names, key=lambda n: breakdowns[n]["energy_uj"])
    result.series["ranking_latency"] = sorted(
        names, key=lambda n: breakdowns[n]["latency_ms"])

    for name in names:
        entry = breakdowns[name]
        result.add(f"{name} energy/inference", entry["energy_uj"], unit="uJ")
        result.add(f"{name} end-to-end latency", entry["latency_ms"],
                   unit="ms")
        result.add(f"{name} overhead share", entry["overhead_share"])
    best_energy = result.series["ranking_energy"][0]
    best_latency = result.series["ranking_latency"][0]
    result.add("profiles compared", float(len(names)), paper=None)
    result.add("energy rank of ncpu-65nm",
               float(result.series["ranking_energy"].index("ncpu-65nm") + 1))
    result.add("latency rank of ncpu-65nm",
               float(result.series["ranking_latency"].index("ncpu-65nm") + 1))
    result.notes = (
        f"best energy: {best_energy}; best latency: {best_latency}. "
        "Host phases (init, memory I/O, pre/post-processing) are priced "
        "at CPU-mode power, the MAC phase at accelerator-mode power, all "
        "at each profile's nominal point — the end-to-end accounting "
        "vendor TOPS figures omit."
    )
    return result


def validate_report(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a serialized device-zoo result (``to_dict`` form).

    Checks that every registered profile is compared on both axes with
    finite positive values; returns a small summary dict.  Raises
    :class:`~repro.errors.ConfigurationError` on structural problems —
    the CI smoke job runs this against the ``--json`` artifact.
    """
    metrics = {entry.get("name"): entry
               for entry in data.get("metrics", ())}
    compared = []
    for name in profile_names():
        for axis, unit in (("energy/inference", "uJ"),
                           ("end-to-end latency", "ms")):
            key = f"{name} {axis}"
            entry = metrics.get(key)
            if entry is None:
                raise ConfigurationError(
                    f"device_zoo report: missing metric {key!r}")
            value = entry.get("measured")
            if not isinstance(value, (int, float)) or not value > 0:
                raise ConfigurationError(
                    f"device_zoo report: {key!r} must be a positive "
                    f"number, got {value!r}")
            if entry.get("unit") != unit:
                raise ConfigurationError(
                    f"device_zoo report: {key!r} must be in {unit}, "
                    f"got {entry.get('unit')!r}")
        compared.append(name)
    if "profiles compared" not in metrics:
        raise ConfigurationError(
            "device_zoo report: missing metric 'profiles compared'")
    declared = metrics["profiles compared"]["measured"]
    if declared != len(compared):
        raise ConfigurationError(
            f"device_zoo report: declares {declared} profiles, "
            f"registry has {len(compared)}")
    return {"profiles": compared,
            "energy_uj": {name: metrics[f"{name} energy/inference"]
                          ["measured"] for name in compared},
            "latency_ms": {name: metrics[f"{name} end-to-end latency"]
                           ["measured"] for name in compared}}
