"""Name-keyed device-profile registry: pluggable power/technology anchors.

A :class:`DeviceProfile` bundles everything the power layer used to read
from module globals — frequency/power/leakage anchor points, voltage
limits, the SRAM Vmin, area/technology parameters and per-phase overhead
coefficients (init, memory I/O, pre/post-processing: the end-to-end
costs vendor TOPS numbers hide) — as one frozen, hashable value.  The
solver layer (:func:`repro.power.technology.models_for`) turns a profile
into fitted frequency/power models, memoized per profile.

Profiles register under their ``name`` with :func:`register_profile`,
every consumer resolves them through :func:`get_profile` /
:func:`resolve_profile`, and :func:`profile_table` is the single
serializer behind ``repro info``, ``docs/DEVICES.md`` and the docs lint,
so they cannot drift apart.

``ncpu-65nm`` carries the paper test chip's measured silicon anchors and
is the default everywhere — its fitted models are bit-identical to the
pre-registry module-global fit.  The μNPU profiles (``max78000``,
``ethos-u55``, ``mcxn947-neutron``) are calibrated from the datasheet /
benchmark tables surveyed in SNIPPETS.md ("Benchmarking Ultra-Low-Power
μNPUs"; eIQ Neutron measurements); they are engineering estimates, not
silicon fits, and say so via ``silicon_measured=False``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple, Union

from repro.errors import ConfigurationError

#: the profile every layer assumes when none is named — the paper's chip
DEFAULT_PROFILE = "ncpu-65nm"


@dataclasses.dataclass(frozen=True)
class PhaseOverheads:
    """Per-phase end-to-end overheads, in host-CPU cycles.

    These model the work *around* the accelerator that vendor
    TOPS/latency figures hide (μNPU-Bench's central observation): runtime
    and weight-load setup (``init``), data movement per kilobyte
    (``memory_io``), input preparation per kilobyte (``preprocess``) and
    host-side epilogue such as softmax/argmax on NPUs without native
    support (``postprocess``).  The device-zoo comparison charges each
    phase at the profile's CPU-mode power.
    """

    init_cycles: float = 0.0
    memory_io_cycles_per_kb: float = 0.0
    preprocess_cycles_per_kb: float = 0.0
    postprocess_cycles: float = 0.0

    def validate(self, path: str) -> None:
        for name in ("init_cycles", "memory_io_cycles_per_kb",
                     "preprocess_cycles_per_kb", "postprocess_cycles"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise ConfigurationError(
                    f"{path}.{name}: expected a non-negative number, "
                    f"got {value!r}")


@dataclasses.dataclass(frozen=True)
class DeviceProfile:
    """One device's calibrated operating envelope.

    The anchor fields parameterize the same model forms the paper's chip
    uses — alpha-power-law frequency, ``C_eff V^2 f`` dynamic power,
    ``P0 V e^(eta V)`` leakage, a two-domain (core + Vmin-pinned SRAM)
    CPU mode — so one solver serves every device.
    """

    name: str
    title: str
    technology_nm: int
    # -- voltage limits ---------------------------------------------------
    vth: float
    vdd_min: float
    vdd_nominal: float
    sram_vmin: float
    # -- frequency anchors (Fmax at vdd_min / vdd_nominal) ----------------
    f_min_mhz: float
    f_nominal_mhz: float
    # -- accelerator (NN) mode power anchors ------------------------------
    accel_power_nominal_w: float
    accel_power_min_w: float
    accel_leak_share_nominal: float
    # -- host/CPU mode power anchors --------------------------------------
    cpu_power_nominal_w: float
    cpu_power_min_w: float
    #: CPU-mode leakage share at vdd_nominal (the two-domain fit's third
    #: constraint; 0.05 reproduces the 65 nm chip's fit)
    cpu_leak_share_nominal: float
    #: documented minimum-energy-point anchor (None when unobserved)
    cpu_mep_voltage: float | None
    #: golden-section search window for the model's own MEP
    mep_search_lo: float
    mep_search_hi: float
    # -- compute geometry (the paper counts 1 MAC as 1 op) ----------------
    accel_ops_per_cycle: int
    #: model/weight storage the memory_io overhead moves, in KB
    model_size_kb: float
    # -- capability / validity flags --------------------------------------
    #: True for a single core that morphs CPU<->NN (the NCPU); False for a
    #: separate host CPU + NPU pair
    reconfigurable: bool
    #: True when the full vdd_min..vdd_nominal range is a valid DVFS sweep
    dvfs: bool
    #: True when anchors come from silicon measurements of this chip
    silicon_measured: bool
    overheads: PhaseOverheads
    #: provenance note shown in docs/DEVICES.md
    calibration: str = ""

    def validate(self, path: str = "profile") -> None:
        """Structural sanity; solver feasibility is checked lazily by
        :func:`repro.power.technology.models_for`."""
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"{path}.name: expected a non-empty "
                                     f"string, got {self.name!r}")
        if not self.vth < self.vdd_min < self.vdd_nominal:
            raise ConfigurationError(
                f"{path}: need vth < vdd_min < vdd_nominal, got "
                f"{self.vth} / {self.vdd_min} / {self.vdd_nominal}")
        if not self.vdd_min <= self.sram_vmin <= self.vdd_nominal:
            raise ConfigurationError(
                f"{path}.sram_vmin: must sit in [{self.vdd_min}, "
                f"{self.vdd_nominal}], got {self.sram_vmin}")
        if not 0 < self.f_min_mhz < self.f_nominal_mhz:
            raise ConfigurationError(
                f"{path}: need 0 < f_min_mhz < f_nominal_mhz, got "
                f"{self.f_min_mhz} / {self.f_nominal_mhz}")
        for field_name in ("accel_power_nominal_w", "accel_power_min_w",
                          "cpu_power_nominal_w", "cpu_power_min_w",
                          "model_size_kb"):
            value = getattr(self, field_name)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ConfigurationError(
                    f"{path}.{field_name}: expected a positive number, "
                    f"got {value!r}")
        for field_name in ("accel_leak_share_nominal",
                           "cpu_leak_share_nominal"):
            value = getattr(self, field_name)
            if not 0.0 < value < 1.0:
                raise ConfigurationError(
                    f"{path}.{field_name}: must be in (0, 1), got {value}")
        if self.accel_ops_per_cycle < 1:
            raise ConfigurationError(
                f"{path}.accel_ops_per_cycle: must be >= 1, "
                f"got {self.accel_ops_per_cycle}")
        if not isinstance(self.overheads, PhaseOverheads):
            raise ConfigurationError(
                f"{path}.overheads: expected a PhaseOverheads, "
                f"got {self.overheads!r}")
        self.overheads.validate(f"{path}.overheads")

    def info(self) -> Dict[str, Any]:
        """JSON-ready block for ``repro info`` / the docs profile table."""
        return {
            "name": self.name,
            "title": self.title,
            "technology_nm": self.technology_nm,
            "vdd_range_v": [self.vdd_min, self.vdd_nominal],
            "sram_vmin_v": self.sram_vmin,
            "f_nominal_mhz": self.f_nominal_mhz,
            "accel_ops_per_cycle": self.accel_ops_per_cycle,
            "flags": {
                "reconfigurable": self.reconfigurable,
                "dvfs": self.dvfs,
                "silicon_measured": self.silicon_measured,
            },
            "calibration": self.calibration,
        }


_REGISTRY: Dict[str, DeviceProfile] = {}


def register_profile(profile: DeviceProfile) -> DeviceProfile:
    """Register ``profile`` under ``profile.name``; returns it unchanged.

    Usable inline (``P = register_profile(DeviceProfile(...))``).  The
    profile is structurally validated on admission; registering a
    different profile under an existing name is an error, re-registering
    an equal profile (module reloads) is a no-op.
    """
    if not isinstance(profile, DeviceProfile):
        raise ConfigurationError(
            f"register_profile expects a DeviceProfile, got {profile!r}")
    profile.validate(f"profile {profile.name!r}")
    existing = _REGISTRY.get(profile.name)
    if existing is not None and existing != profile:
        raise ConfigurationError(
            f"device profile {profile.name!r} registered twice with "
            "different parameters")
    _REGISTRY[profile.name] = profile
    return profile


def profile_names() -> Tuple[str, ...]:
    """All registered profile names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_profile(name: str) -> DeviceProfile:
    """The registered profile called ``name``.

    Raises :class:`~repro.errors.ConfigurationError` naming the
    registered profiles, sorted, when ``name`` is unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown device profile {name!r}; registered profiles: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def resolve_profile(profile: Union[DeviceProfile, str, None] = None
                    ) -> DeviceProfile:
    """Resolve ``profile`` to a registered :class:`DeviceProfile`.

    A :class:`DeviceProfile` instance passes through; a name looks up
    the registry; ``None`` follows the current session's
    ``SimConfig.profile`` (falling back to :data:`DEFAULT_PROFILE` so
    the power layer stays importable without a session).
    """
    if isinstance(profile, DeviceProfile):
        return profile
    if profile is None:
        # imported lazily: repro.sim imports the scenario schema, which
        # validates device profiles through this module
        try:
            from repro.sim.session import get_session

            profile = get_session().config.profile
        except ImportError:  # pragma: no cover - bootstrap ordering
            profile = DEFAULT_PROFILE
    return get_profile(profile)


def ensure_known_profile(name: str) -> str:
    """Validate ``name`` against the registry; returns it unchanged."""
    get_profile(name)
    return name


def profile_table() -> List[Dict[str, Any]]:
    """Sorted ``info()`` blocks of every registered profile.

    One serializer for ``repro info --json``, the docs profile table and
    the docs lint (``tools/check_docs.py`` check 9), so they cannot
    drift apart.
    """
    return [_REGISTRY[name].info() for name in sorted(_REGISTRY)]


# -- built-in profiles ----------------------------------------------------

#: the paper's 65 nm test chip (Fig 7, Fig 9, Table 2/3) — every anchor
#: here must equal the historical module globals in
#: :mod:`repro.power.technology` bit-for-bit: the default profile's fit
#: is pinned bit-identical to the pre-registry model by golden tests
NCPU_65NM = register_profile(DeviceProfile(
    name=DEFAULT_PROFILE,
    title="NCPU reconfigurable neural CPU (65 nm test chip)",
    technology_nm=65,
    vth=0.35, vdd_min=0.4, vdd_nominal=1.0, sram_vmin=0.55,
    f_min_mhz=18.0, f_nominal_mhz=960.0,
    accel_power_nominal_w=0.241, accel_power_min_w=1.2e-3,
    accel_leak_share_nominal=0.05,
    cpu_power_nominal_w=0.112, cpu_power_min_w=0.8e-3,
    cpu_leak_share_nominal=0.05,
    cpu_mep_voltage=0.5,
    mep_search_lo=0.36, mep_search_hi=1.0,
    accel_ops_per_cycle=400,
    model_size_kb=48.5,
    reconfigurable=True, dvfs=True, silicon_measured=True,
    overheads=PhaseOverheads(
        init_cycles=2_000.0,            # trans_bnn mode switch + trigger
        memory_io_cycles_per_kb=500.0,  # L2 -> neuron-cell SRAM DMA
        preprocess_cycles_per_kb=800.0,
        postprocess_cycles=400.0,       # argmax on the same core
    ),
    calibration="silicon anchors: 960 MHz@1.0V / 18 MHz@0.4V, "
                "241 mW BNN / 112 mW CPU at 1 V, MEP@0.5V",
))

#: Analog Devices MAX78000: Cortex-M4 host + 64-processor CNN
#: accelerator with dedicated weight SRAM (fixed-voltage part)
MAX78000 = register_profile(DeviceProfile(
    name="max78000",
    title="MAX78000 (Cortex-M4 + 64-unit CNN accelerator)",
    technology_nm=40,
    vth=0.5, vdd_min=0.9, vdd_nominal=1.1, sram_vmin=0.9,
    f_min_mhz=30.0, f_nominal_mhz=100.0,
    accel_power_nominal_w=30e-3, accel_power_min_w=14e-3,
    accel_leak_share_nominal=0.15,
    cpu_power_nominal_w=12e-3, cpu_power_min_w=5e-3,
    cpu_leak_share_nominal=0.30,
    cpu_mep_voltage=None,
    mep_search_lo=0.91, mep_search_hi=1.1,
    accel_ops_per_cycle=64,
    model_size_kb=300.0,
    reconfigurable=False, dvfs=False, silicon_measured=False,
    overheads=PhaseOverheads(
        init_cycles=400_000.0,            # CNN config + weight load
        memory_io_cycles_per_kb=2_000.0,
        preprocess_cycles_per_kb=1_500.0,
        postprocess_cycles=3_000.0,       # softmax on the M4
    ),
    calibration="μNPU-Bench survey: 100 MHz M4 + 50 MHz CNN array, "
                "per-inference energies in the tens of μJ",
))

#: Arm Ethos-U55 microNPU as deployed on the Himax WE2 vision SoC
ETHOS_U55 = register_profile(DeviceProfile(
    name="ethos-u55",
    title="Ethos-U55 microNPU (Himax WE2 deployment)",
    technology_nm=16,
    vth=0.35, vdd_min=0.6, vdd_nominal=0.8, sram_vmin=0.6,
    f_min_mhz=120.0, f_nominal_mhz=400.0,
    accel_power_nominal_w=48e-3, accel_power_min_w=12e-3,
    accel_leak_share_nominal=0.08,
    cpu_power_nominal_w=15e-3, cpu_power_min_w=4e-3,
    cpu_leak_share_nominal=0.36,
    cpu_mep_voltage=None,
    mep_search_lo=0.61, mep_search_hi=0.8,
    accel_ops_per_cycle=64,
    model_size_kb=300.0,
    reconfigurable=False, dvfs=True, silicon_measured=False,
    overheads=PhaseOverheads(
        init_cycles=250_000.0,            # Vela runtime + command stream
        memory_io_cycles_per_kb=4_000.0,  # weights streamed over AXI
        preprocess_cycles_per_kb=1_200.0,
        postprocess_cycles=6_000.0,       # no native softmax on the NPU
    ),
    calibration="μNPU-Bench survey: 400 MHz U55-64 configuration; "
                "softmax falls back to the Cortex-M55 host",
))

#: NXP MCX N947: Cortex-M33 host + eIQ Neutron N1-16 NPU
MCXN947_NEUTRON = register_profile(DeviceProfile(
    name="mcxn947-neutron",
    title="MCX N947 eIQ Neutron N1-16 (Cortex-M33 host)",
    technology_nm=28,
    vth=0.45, vdd_min=0.8, vdd_nominal=1.1, sram_vmin=0.8,
    f_min_mhz=50.0, f_nominal_mhz=150.0,
    accel_power_nominal_w=20e-3, accel_power_min_w=7e-3,
    accel_leak_share_nominal=0.1,
    cpu_power_nominal_w=10e-3, cpu_power_min_w=3.5e-3,
    cpu_leak_share_nominal=0.32,
    cpu_mep_voltage=None,
    mep_search_lo=0.81, mep_search_hi=1.1,
    accel_ops_per_cycle=32,
    model_size_kb=300.0,
    reconfigurable=False, dvfs=False, silicon_measured=False,
    overheads=PhaseOverheads(
        init_cycles=150_000.0,            # eIQ runtime graph setup
        memory_io_cycles_per_kb=2_500.0,
        preprocess_cycles_per_kb=1_500.0,
        postprocess_cycles=4_000.0,       # unsupported ops on the M33
    ),
    calibration="eIQ Neutron measurements: 4.8 GOPS at 150 MHz "
                "(32 MACs/cycle), person_detect 26.3 Mcyc / 175 ms",
))
