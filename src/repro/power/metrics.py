"""Derived performance/efficiency metrics: TOPS/W, DMIPS, MEP."""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.technology import (
    ProfileLike,
    cpu_profile,
    frequency_model,
    models_for,
    resolve_profile,
)

#: VAX 11/780 reference: 1757 Dhrystones/second == 1 MIPS
DHRYSTONES_PER_SECOND_PER_MIPS = 1757.0


def bnn_tops_per_watt(voltage: float, ops_per_cycle: int | None = None,
                      device: ProfileLike = None) -> float:
    """NN-mode compute efficiency (the paper counts one MAC as one op).

    ``ops_per_cycle`` defaults to the device profile's parallelism (400
    for the NCPU's 20x20 neuron-cell array).
    """
    models = models_for(resolve_profile(device))
    if ops_per_cycle is None:
        ops_per_cycle = models.profile.accel_ops_per_cycle
    f_hz = models.frequency.f_hz(voltage)
    power_w = models.accel.total_power_w(voltage)
    return ops_per_cycle * f_hz / power_w / 1e12


@dataclass(frozen=True)
class DhrystoneResult:
    """Dhrystone scoring from a cycle count per iteration."""

    cycles_per_iteration: float
    frequency_mhz: float
    power_mw: float

    @property
    def iterations_per_second(self) -> float:
        return self.frequency_mhz * 1e6 / self.cycles_per_iteration

    @property
    def dmips(self) -> float:
        return self.iterations_per_second / DHRYSTONES_PER_SECOND_PER_MIPS

    @property
    def dmips_per_mhz(self) -> float:
        return self.dmips / self.frequency_mhz

    @property
    def dmips_per_mw(self) -> float:
        return self.dmips / self.power_mw


def score_dhrystone(cycles_per_iteration: float,
                    voltage: float = 1.0) -> DhrystoneResult:
    """Score a measured Dhrystone iteration cost at a supply voltage, on
    the session's device profile."""
    f_mhz = frequency_model().f_mhz(voltage)
    power_mw = cpu_profile().total_power_w(voltage) * 1e3
    return DhrystoneResult(cycles_per_iteration=cycles_per_iteration,
                           frequency_mhz=f_mhz, power_mw=power_mw)


def cpu_mep_voltage(device: ProfileLike = None) -> float:
    """The CPU-mode minimum-energy-point voltage from the fitted model."""
    return models_for(resolve_profile(device)).cpu_mep_voltage()


def bnn_mep_voltage(device: ProfileLike = None) -> float:
    return models_for(resolve_profile(device)).accel_mep_voltage()
