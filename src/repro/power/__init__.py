"""Calibrated power/area/energy models and derived metrics.

Fitted per device profile (see :mod:`repro.power.profiles`); the default
``ncpu-65nm`` profile reproduces the paper's 65 nm silicon bit-for-bit.
"""

from repro.power.area import (
    AREA_SAVING_AT_100,
    AreaBreakdown,
    BNN_TOTAL_MM2,
    CORE_AREA_OVERHEAD,
    FIG18_SAVINGS,
    FMAX_DEGRADATION,
    TOTAL_AREA_OVERHEAD,
    area_saving,
    bnn_area,
    cpu_area,
    fmax_mhz,
    heterogeneous_area,
    ncpu_area,
    sram_area_mm2,
    stage_overhead_fractions,
)
from repro.power.energy import (
    BNN_MODE_POWER_OVERHEAD,
    BNN_MODE_TASK_OVERHEAD,
    CPU_MODE_POWER_OVERHEAD_AVG,
    TaskEnergy,
    bnn_task_energy,
    core_power_w,
    design_leakage_w,
    instruction_power_overhead,
    instruction_relative_power,
    leakage_density_w_per_mm2,
    memory_access_energy_j,
    ncpu_energy_saving,
    program_power_overhead,
    sram_access_energy_j,
    timeline_energy_j,
)
from repro.power.metrics import (
    DhrystoneResult,
    bnn_mep_voltage,
    bnn_tops_per_watt,
    cpu_mep_voltage,
    score_dhrystone,
)
from repro.power.profiles import (
    DEFAULT_PROFILE,
    DeviceProfile,
    PhaseOverheads,
    get_profile,
    profile_names,
    profile_table,
    resolve_profile,
)
from repro.power.technology import (
    DeviceModels,
    FrequencyModel,
    PowerProfile,
    TwoDomainProfile,
    bnn_profile,
    cpu_profile,
    frequency_model,
    models_for,
)

__all__ = [
    "AreaBreakdown", "area_saving", "bnn_area", "cpu_area", "ncpu_area",
    "heterogeneous_area", "sram_area_mm2", "stage_overhead_fractions",
    "fmax_mhz", "AREA_SAVING_AT_100", "BNN_TOTAL_MM2", "CORE_AREA_OVERHEAD",
    "TOTAL_AREA_OVERHEAD", "FIG18_SAVINGS", "FMAX_DEGRADATION",
    "TaskEnergy", "bnn_task_energy", "core_power_w", "design_leakage_w",
    "instruction_power_overhead", "instruction_relative_power",
    "leakage_density_w_per_mm2", "ncpu_energy_saving",
    "program_power_overhead", "timeline_energy_j",
    "sram_access_energy_j", "memory_access_energy_j",
    "BNN_MODE_POWER_OVERHEAD",
    "BNN_MODE_TASK_OVERHEAD", "CPU_MODE_POWER_OVERHEAD_AVG",
    "DhrystoneResult", "bnn_mep_voltage", "bnn_tops_per_watt",
    "cpu_mep_voltage", "score_dhrystone",
    "DEFAULT_PROFILE", "DeviceProfile", "PhaseOverheads", "DeviceModels",
    "profile_names", "get_profile", "resolve_profile", "profile_table",
    "models_for",
    "FrequencyModel", "PowerProfile", "TwoDomainProfile",
    "bnn_profile", "cpu_profile", "frequency_model",
]
