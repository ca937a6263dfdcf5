"""Energy accounting: leakage-area coupling, per-instruction power, and the
NCPU-vs-heterogeneous energy comparison (paper Figs 11 and 12b).

Model structure:

* Leakage scales with silicon area.  The leakage *density* is calibrated
  from the BNN-mode power fit divided by the NCPU area, and the SRAM share
  of each design sits in its own voltage domain with a 0.55 V Vmin.
* The NCPU pays a dynamic-power overhead versus the standalone cores for the
  extra (imperfectly gated) reconfiguration logic: 5.8 % in BNN mode and a
  per-instruction average of 14.7 % in CPU mode (Fig 11).  The full-task BNN
  inference energy overhead at 1 V, including SRAM effects, is 7.5 %
  (calibrated to Fig 12b's measured −7.2 % at 1 V).
* The heterogeneous baseline leaks over the *combined* CPU+BNN area even
  while one of the cores idles — exactly the under-utilization cost the
  paper attacks — whereas the NCPU leaks over its single reconfigurable
  core.  At low voltage the leakage term dominates and the NCPU's 35.7 %
  area saving turns the 1 V energy overhead into a saving (Fig 12b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

from repro.power import area as area_model
from repro.power.profiles import DEFAULT_PROFILE, get_profile
from repro.power.technology import (
    ProfileLike,
    bnn_profile,
    cpu_profile,
    frequency_model,
)

#: Fig 11a: NCPU power overhead vs. standalone BNN during inference
BNN_MODE_POWER_OVERHEAD = 0.058
#: Fig 12b calibration: full-task BNN inference *energy* overhead at 1 V
#: (larger than the 5.8 % core-power overhead because the task-level
#: measurement also sees SRAM and clocking overheads)
BNN_MODE_TASK_OVERHEAD = 0.105
#: Fig 11b: average per-instruction power overhead in CPU mode
CPU_MODE_POWER_OVERHEAD_AVG = 0.147


def leakage_density_w_per_mm2(voltage: float) -> float:
    """Leakage power density calibrated from the NCPU's BNN-mode fit.

    Deliberately pinned to the ``ncpu-65nm`` profile (not the session's):
    the area model below is the paper chip's floorplan, so coupling it to
    another device's leakage fit would be meaningless.
    """
    ncpu_mm2 = area_model.ncpu_area(100).total_mm2
    return bnn_profile(DEFAULT_PROFILE).leakage_power_w(voltage) / ncpu_mm2


def design_leakage_w(breakdown: area_model.AreaBreakdown, voltage: float) -> float:
    """Leakage of a design; its SRAM domain respects the paper chip's
    0.55 V Vmin."""
    sram_voltage = max(voltage, get_profile(DEFAULT_PROFILE).sram_vmin)
    return (breakdown.compute_mm2 * leakage_density_w_per_mm2(voltage)
            + breakdown.sram_mm2 * leakage_density_w_per_mm2(sram_voltage))


@dataclass(frozen=True)
class TaskEnergy:
    """Energy of one task phase."""

    dynamic_j: float
    leakage_j: float

    @property
    def total_j(self) -> float:
        return self.dynamic_j + self.leakage_j


def bnn_task_energy(design: str, cycles: float, voltage: float) -> TaskEnergy:
    """Energy of a BNN inference task of ``cycles`` on either design.

    ``design`` is ``"ncpu"`` or ``"heterogeneous"``.  Both run the task at
    their maximum frequency for the voltage; the NCPU's Fmax is 4.1 % lower
    in BNN mode, lengthening its leakage window.

    Pinned to the ``ncpu-65nm`` profile like the leakage-density model —
    this is the paper's own NCPU-vs-heterogeneous comparison.
    """
    freq = frequency_model(DEFAULT_PROFILE).f_hz(voltage)
    bnn_dynamic_w = bnn_profile(DEFAULT_PROFILE).dynamic_power_w(voltage)
    if design == "ncpu":
        f_eff = freq * (1.0 - area_model.FMAX_DEGRADATION["bnn"])
        seconds = cycles / f_eff
        # the chip measurement (241 mW fit) *is* the NCPU; the baseline
        # accelerator's dynamic power is lower by the task overhead factor
        dynamic = bnn_dynamic_w * (f_eff / freq) * seconds
        leakage = design_leakage_w(area_model.ncpu_area(100), voltage) * seconds
        return TaskEnergy(dynamic_j=dynamic, leakage_j=leakage)
    if design == "heterogeneous":
        seconds = cycles / freq
        dynamic = bnn_dynamic_w / (1.0 + BNN_MODE_TASK_OVERHEAD) * seconds
        leakage = design_leakage_w(area_model.heterogeneous_area(100),
                                   voltage) * seconds
        return TaskEnergy(dynamic_j=dynamic, leakage_j=leakage)
    raise ValueError(f"unknown design {design!r}")


def ncpu_energy_saving(voltage: float, cycles: float = 100_000) -> float:
    """Fractional energy saving of NCPU vs. heterogeneous (Fig 12b).

    Negative values are an overhead (the paper reports −7.2 % at 1 V and
    +12.6 % at 0.4 V, crossing over near 0.6 V).
    """
    ncpu = bnn_task_energy("ncpu", cycles, voltage).total_j
    base = bnn_task_energy("heterogeneous", cycles, voltage).total_j
    return 1.0 - ncpu / base


# ---------------------------------------------------------------------------
# Per-instruction power model (Fig 11b)
# ---------------------------------------------------------------------------

#: relative energy of each pipeline resource per activation
_STAGE_ENERGY = {
    "base": 4.0,  # clock tree, control
    "IF": 6.0,    # I$ access
    "ID": 3.0,    # decode + regfile read
    "EX": 8.0,    # ALU
    "MEM": 10.0,  # D$ access
    "WB": 2.0,    # regfile write
}

#: NCPU overhead shape per resource (ungated neuron-cell logic; EX-heavy,
#: mirroring the Fig 10 area-overhead split).  Scaled so that the uniform
#: average over the 37 base instructions equals CPU_MODE_POWER_OVERHEAD_AVG.
_OVERHEAD_SHAPE = {
    "base": 0.12,
    "IF": 0.08,
    "ID": 0.14,
    "EX": 0.22,
    "MEM": 0.06,
    "WB": 0.05,
}


def _activity(name: str) -> Dict[str, float]:
    """Stage-activity vector of one instruction."""
    act = {"base": 1.0, "IF": 1.0, "ID": 1.0, "EX": 1.0, "MEM": 0.0, "WB": 1.0}
    if name in ("lb", "lh", "lw", "lbu", "lhu"):
        act["MEM"] = 1.0
    elif name in ("sb", "sh", "sw"):
        act["MEM"] = 1.0
        act["WB"] = 0.0
    elif name in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
        act["WB"] = 0.0
        act["EX"] = 1.1  # comparator + target adder
    elif name in ("jal", "jalr"):
        act["EX"] = 1.1
    elif name in ("lui", "auipc"):
        act["EX"] = 0.4  # immediate pass-through / single add
    elif name in ("sll", "srl", "sra", "slli", "srli", "srai"):
        act["EX"] = 1.3  # barrel shifter
    elif name == "mul":
        act["EX"] = 2.5
    return act


@lru_cache(maxsize=None)
def _overhead_scale() -> float:
    from repro.isa import RV32I_BASE_NAMES

    raw = [instruction_power_overhead(name, _scale=1.0)
           for name in RV32I_BASE_NAMES]
    return CPU_MODE_POWER_OVERHEAD_AVG / (sum(raw) / len(raw))


def instruction_relative_power(name: str) -> float:
    """Per-instruction power on the standalone CPU (arbitrary units)."""
    act = _activity(name)
    return sum(_STAGE_ENERGY[s] * act[s] for s in _STAGE_ENERGY)


def instruction_power_overhead(name: str, _scale: float | None = None) -> float:
    """Fractional NCPU-vs-CPU power overhead for one instruction (Fig 11b)."""
    scale = _overhead_scale() if _scale is None else _scale
    act = _activity(name)
    base = sum(_STAGE_ENERGY[s] * act[s] for s in _STAGE_ENERGY)
    extra = sum(_STAGE_ENERGY[s] * act[s] * _OVERHEAD_SHAPE[s] * scale
                for s in _STAGE_ENERGY)
    return extra / base


def program_power_overhead(instr_counts: Dict[str, int]) -> float:
    """Power overhead of a whole program from its retired-instruction mix."""
    total_base = 0.0
    total_extra = 0.0
    for name, count in instr_counts.items():
        if name in ("ebreak", "trans_bnn", "trigger_bnn", "mv_neu",
                    "sw_l2", "lw_l2"):
            name_for_model = "sw" if name.startswith("sw") else "addi"
        else:
            name_for_model = name
        base = instruction_relative_power(name_for_model)
        total_base += count * base
        total_extra += count * base * instruction_power_overhead(name_for_model)
    if total_base == 0:
        return 0.0
    return total_extra / total_base


#: SRAM access energy at 1 V for a 1 kB macro (pJ); larger macros cost more
#: per access (longer lines), scaling ~sqrt(capacity)
SRAM_ACCESS_PJ_1KB_1V = 1.8


def sram_access_energy_j(bank_size_bytes: int, accesses: int,
                         voltage: float) -> float:
    """Energy of ``accesses`` reads/writes to one SRAM bank.

    Per-access energy scales with the square root of capacity (bit-line
    length) and quadratically with the array voltage, floored at the
    paper chip's SRAM Vmin.
    """
    v = max(voltage, get_profile(DEFAULT_PROFILE).sram_vmin)
    per_access = (SRAM_ACCESS_PJ_1KB_1V * 1e-12
                  * (bank_size_bytes / 1024.0) ** 0.5
                  * v ** 2)
    return per_access * accesses


def memory_access_energy_j(memory, voltage: float) -> float:
    """Total access energy of an :class:`repro.mem.NCPUMemory`'s banks."""
    total = 0.0
    for bank in memory.banks.values():
        total += sram_access_energy_j(bank.size, bank.accesses, voltage)
    return total


def timeline_energy_j(timeline, voltage: float, f_hz: float,
                      reconfigurable: bool = True,
                      profile: ProfileLike = None) -> float:
    """Integrate a :class:`repro.core.events.Timeline` into Joules.

    Each segment contributes its mode's power (CPU/BNN active, idle =
    leakage only, DMA ~ idle core + bus activity folded into leakage) for
    its duration at the given clock.  This is how the Fig 17 'equivalent
    energy saving' and the Fig 16 trace areas are computed for arbitrary
    schedules.  ``profile`` selects the device profile (session default
    when ``None``).
    """
    total = 0.0
    for segment in timeline.segments:
        seconds = segment.cycles / f_hz
        if segment.kind in ("cpu", "switch", "dma"):
            mode, active = "cpu", segment.kind != "dma"
        elif segment.kind == "bnn":
            mode, active = "bnn", True
        else:
            mode, active = "cpu", False
        total += core_power_w(mode, voltage, f_hz, reconfigurable,
                              active=active, profile=profile) * seconds
    return total


def core_power_w(mode: str, voltage: float, f_hz: float,
                 reconfigurable: bool = True, active: bool = True,
                 profile: ProfileLike = None) -> float:
    """Instantaneous power of one core for the timeline/power-trace model.

    Args:
        mode: ``"cpu"`` or ``"bnn"`` — selects the fitted mode model.
        voltage: supply voltage.
        f_hz: actual clock (the use cases run at 50 MHz, not Fmax).
        reconfigurable: True for an NCPU core; False models the standalone
            baseline cores (which lack the reconfiguration overhead).
        active: False for an idle core (clock-gated: leakage only).
        profile: device profile (name or instance; session default when
            ``None``) whose fitted models supply the power numbers.
    """
    mode_model = cpu_profile(profile) if mode == "cpu" else bnn_profile(profile)
    leakage = mode_model.leakage_power_w(voltage)
    if not active:
        return leakage
    dynamic = mode_model.dynamic_power_w(voltage, f_hz)
    if not reconfigurable:
        overhead = (CPU_MODE_POWER_OVERHEAD_AVG if mode == "cpu"
                    else BNN_MODE_POWER_OVERHEAD)
        dynamic /= 1.0 + overhead
    return dynamic + leakage
