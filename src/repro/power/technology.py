"""Technology model solvers, fitted per :class:`~repro.power.profiles.DeviceProfile`.

The default fit reproduces the paper's 65 nm test chip, whose measured
anchors (Fig 7, Fig 9, Table 2/3) live in the ``ncpu-65nm`` profile:

* frequency: 960 MHz at 1.0 V, 18 MHz at 0.4 V,
* BNN-mode power: 241 mW at 1.0 V, 1.2 mW at 0.4 V,
* CPU-mode power: 112 mW at 1.0 V, 0.8 mW at 0.4 V,
* CPU-mode minimum-energy point (MEP) at 0.5 V,
* SRAM Vmin 0.55 V (below it, SRAM stays at 0.55 V).

The model forms (shared by every registered device profile):

* frequency: alpha-power law ``f(V) = K (V - Vth)^alpha / V``,
* dynamic power: ``P_dyn = C_eff V^2 f(V)``,
* leakage: ``P_leak = P0 · V · exp(eta V)`` (subthreshold + DIBL shape).

The three power parameters per operating mode are solved from the two power
anchors plus either a fixed nominal-voltage leakage share (accelerator mode,
whose MEP lies below the voltage floor) or the MEP-position constraint
(CPU mode).

:func:`models_for` is the one entry point that turns a profile into fitted
models; it is memoized on the frozen profile so repeated power traces and
experiment sweeps reuse the same solver outputs.  The historical zero-arg
accessors (:func:`frequency_model`, :func:`bnn_profile`, :func:`cpu_profile`)
now accept an optional profile and resolve ``None`` through the current
session, defaulting to ``ncpu-65nm``; no anchor lives outside a profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

from repro.errors import ConfigurationError
from repro.power.profiles import DeviceProfile, resolve_profile


class FrequencyModel:
    """Alpha-power-law Fmax vs. supply voltage."""

    def __init__(self, vth: float, v_lo: float, f_lo_mhz: float,
                 v_hi: float, f_hi_mhz: float):
        if not vth < v_lo < v_hi:
            raise ConfigurationError("need vth < v_lo < v_hi")
        ratio = (f_hi_mhz * v_hi) / (f_lo_mhz * v_lo)
        self.vth = vth
        self.alpha = math.log(ratio) / math.log((v_hi - vth) / (v_lo - vth))
        self.k_mhz = f_hi_mhz * v_hi / (v_hi - vth) ** self.alpha

    def f_mhz(self, voltage: float) -> float:
        """Maximum operating frequency in MHz at ``voltage``."""
        if voltage <= self.vth:
            raise ConfigurationError(
                f"voltage {voltage} V at or below threshold {self.vth} V"
            )
        return self.k_mhz * (voltage - self.vth) ** self.alpha / voltage

    def f_hz(self, voltage: float) -> float:
        return self.f_mhz(voltage) * 1e6


@dataclass(frozen=True)
class PowerProfile:
    """Fitted power model of one operating mode.

    ``dynamic = c_eff * V^2 * f``; ``leakage = leak_p0 * V * exp(leak_eta V)``.
    """

    name: str
    c_eff: float  # F (effective switched capacitance)
    leak_p0: float  # W
    leak_eta: float
    frequency: FrequencyModel
    v_nominal: float

    def dynamic_power_w(self, voltage: float, f_hz: float | None = None) -> float:
        f = self.frequency.f_hz(voltage) if f_hz is None else f_hz
        return self.c_eff * voltage ** 2 * f

    def leakage_power_w(self, voltage: float) -> float:
        return self.leak_p0 * voltage * math.exp(self.leak_eta * voltage)

    def total_power_w(self, voltage: float, f_hz: float | None = None) -> float:
        return self.dynamic_power_w(voltage, f_hz) + self.leakage_power_w(voltage)

    def energy_per_cycle_j(self, voltage: float) -> float:
        """Energy per clock cycle when running at Fmax(V)."""
        return self.total_power_w(voltage) / self.frequency.f_hz(voltage)

    def energy_j(self, cycles: float, voltage: float,
                 f_hz: float | None = None) -> float:
        """Energy to run ``cycles`` at ``voltage`` (at Fmax unless given)."""
        f = self.frequency.f_hz(voltage) if f_hz is None else f_hz
        seconds = cycles / f
        return self.dynamic_power_w(voltage, f) * seconds \
            + self.leakage_power_w(voltage) * seconds


def _solve_profile(name: str, frequency: FrequencyModel, p_hi: float,
                   p_lo: float, leak_hi: float, v_hi: float,
                   v_lo: float) -> PowerProfile:
    """Solve (c_eff, leak_p0, leak_eta) from the two anchors + nominal leakage."""
    c_eff = (p_hi - leak_hi) / (v_hi ** 2 * frequency.f_hz(v_hi))
    dyn_lo = c_eff * v_lo ** 2 * frequency.f_hz(v_lo)
    leak_lo = p_lo - dyn_lo
    if leak_lo <= 0:
        raise ConfigurationError(
            f"{name}: leakage share {leak_hi:.3g} W at {v_hi} V leaves no "
            f"leakage budget at {v_lo} V (dynamic alone is {dyn_lo:.3g} W)"
        )
    # leak(V) = p0 V e^{eta V}:  leak_hi / leak_lo = (v_hi/v_lo) e^{eta (v_hi-v_lo)}
    eta = math.log(leak_hi / leak_lo * v_lo / v_hi) / (v_hi - v_lo)
    p0 = leak_hi / (v_hi * math.exp(eta * v_hi))
    return PowerProfile(name=name, c_eff=c_eff, leak_p0=p0, leak_eta=eta,
                        frequency=frequency, v_nominal=v_hi)


def _mep_voltage(profile: PowerProfile, lo: float = 0.36, hi: float = 1.0) -> float:
    """Voltage minimizing energy/cycle (golden-section search)."""
    phi = (math.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    for _ in range(80):
        if profile.energy_per_cycle_j(c) < profile.energy_per_cycle_j(d):
            b = d
        else:
            a = c
        c = b - phi * (b - a)
        d = a + phi * (b - a)
    return (a + b) / 2


class TwoDomainProfile:
    """CPU-mode power model with separate core and SRAM voltage domains.

    The paper scales core and SRAM together from nominal voltage down to
    the SRAM's Vmin; below that only the core voltage drops (section
    VI.C).  The stranded SRAM domain is what produces the measured 0.5 V
    minimum-energy point on the 65 nm chip: below it, the SRAM's
    (voltage-pinned) dynamic and leakage power divide by an ever-slower
    clock.

    Duck-type compatible with :class:`PowerProfile`.
    """

    name = "cpu"

    def __init__(self, frequency: FrequencyModel, p_1v: float, p_04v: float,
                 leak_share_1v_target: float, v_nominal: float,
                 v_min: float, sram_vmin: float,
                 sram_dynamic_share: float = 0.25,
                 sram_leak_share: float = 0.77):
        self.frequency = frequency
        self.v_nominal = v_nominal
        self.v_min = v_min
        self.sram_vmin = sram_vmin
        leak_1v = leak_share_1v_target * p_1v
        self.c_total = (p_1v - leak_1v) / frequency.f_hz(v_nominal)
        self.c_sram = self.c_total * sram_dynamic_share
        self.c_core = self.c_total - self.c_sram
        self._leak_core_1v = leak_1v * (1.0 - sram_leak_share)
        self._leak_sram_1v = leak_1v * sram_leak_share
        # solve the leakage exponent from the low-voltage power anchor
        f_lo = frequency.f_hz(v_min)
        vs_lo = max(v_min, sram_vmin)
        dyn_lo = (self.c_core * v_min ** 2 + self.c_sram * vs_lo ** 2) * f_lo
        leak_lo_target = p_04v - dyn_lo
        if leak_lo_target <= 0:
            raise ConfigurationError(
                f"{self.name}: no leakage budget at {v_min} V; bad shares")

        def leak_total(eta: float) -> float:
            core = self._leak_core_1v * v_min \
                * math.exp(eta * (v_min - v_nominal))
            sram = self._leak_sram_1v * vs_lo \
                * math.exp(eta * (vs_lo - v_nominal))
            return core + sram

        lo, hi = 0.1, 12.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if leak_total(mid) > leak_lo_target:
                lo = mid  # larger eta shrinks low-voltage leakage
            else:
                hi = mid
        self.leak_eta = 0.5 * (lo + hi)

    def _sram_voltage(self, voltage: float) -> float:
        return max(voltage, self.sram_vmin)

    def dynamic_power_w(self, voltage: float, f_hz: float | None = None) -> float:
        f = self.frequency.f_hz(voltage) if f_hz is None else f_hz
        vs = self._sram_voltage(voltage)
        return (self.c_core * voltage ** 2 + self.c_sram * vs ** 2) * f

    def leakage_power_w(self, voltage: float) -> float:
        vs = self._sram_voltage(voltage)
        core = self._leak_core_1v * voltage \
            * math.exp(self.leak_eta * (voltage - self.v_nominal))
        sram = self._leak_sram_1v * vs \
            * math.exp(self.leak_eta * (vs - self.v_nominal))
        return core + sram

    def total_power_w(self, voltage: float, f_hz: float | None = None) -> float:
        return self.dynamic_power_w(voltage, f_hz) + self.leakage_power_w(voltage)

    def energy_per_cycle_j(self, voltage: float) -> float:
        return self.total_power_w(voltage) / self.frequency.f_hz(voltage)

    def energy_j(self, cycles: float, voltage: float,
                 f_hz: float | None = None) -> float:
        f = self.frequency.f_hz(voltage) if f_hz is None else f_hz
        seconds = cycles / f
        return self.dynamic_power_w(voltage, f) * seconds \
            + self.leakage_power_w(voltage) * seconds


@dataclass(frozen=True)
class DeviceModels:
    """Fitted solver bundle for one device profile.

    Built (and memoized) by :func:`models_for`; every consuming layer —
    Timeline power traces, experiments, metrics, the CLI — pulls its
    frequency/power models from here rather than from module globals.
    """

    profile: DeviceProfile = field(compare=False)
    frequency: FrequencyModel = field(compare=False)
    accel: PowerProfile = field(compare=False)
    cpu: TwoDomainProfile = field(compare=False)

    def cpu_mep_voltage(self) -> float:
        """Model MEP of the CPU mode, searched in the profile's window."""
        return _mep_voltage(self.cpu, lo=self.profile.mep_search_lo,
                            hi=self.profile.mep_search_hi)

    def accel_mep_voltage(self) -> float:
        """Model MEP of the accelerator mode (often pinned at the floor)."""
        return _mep_voltage(self.accel, lo=self.profile.mep_search_lo,
                            hi=self.profile.mep_search_hi)


@lru_cache(maxsize=None)
def models_for(profile: DeviceProfile) -> DeviceModels:
    """Fit frequency/power models for ``profile`` (memoized per profile).

    The frozen profile is the cache key, so every consumer asking for the
    same device shares one solver run; a test pins that repeated Timeline
    power traces reuse these objects.
    """
    frequency = FrequencyModel(
        vth=profile.vth,
        v_lo=profile.vdd_min, f_lo_mhz=profile.f_min_mhz,
        v_hi=profile.vdd_nominal, f_hi_mhz=profile.f_nominal_mhz)
    accel = _solve_profile(
        "bnn", frequency,
        profile.accel_power_nominal_w, profile.accel_power_min_w,
        profile.accel_leak_share_nominal * profile.accel_power_nominal_w,
        v_hi=profile.vdd_nominal, v_lo=profile.vdd_min)
    cpu = TwoDomainProfile(
        frequency, profile.cpu_power_nominal_w, profile.cpu_power_min_w,
        leak_share_1v_target=profile.cpu_leak_share_nominal,
        v_nominal=profile.vdd_nominal, v_min=profile.vdd_min,
        sram_vmin=profile.sram_vmin)
    return DeviceModels(profile=profile, frequency=frequency,
                        accel=accel, cpu=cpu)


ProfileLike = Union[DeviceProfile, str, None]


def frequency_model(profile: ProfileLike = None) -> FrequencyModel:
    """Fmax model for ``profile`` (session default when ``None``)."""
    return models_for(resolve_profile(profile)).frequency


def bnn_profile(profile: ProfileLike = None) -> PowerProfile:
    """Accelerator (BNN/NN) mode power fit — nominal leakage share fixed."""
    return models_for(resolve_profile(profile)).accel


def cpu_profile(profile: ProfileLike = None) -> TwoDomainProfile:
    """CPU-mode power model (two voltage domains; MEP emerges near 0.5 V
    on the default 65 nm profile)."""
    return models_for(resolve_profile(profile)).cpu
