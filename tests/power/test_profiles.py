"""Tests for the device-profile name table and its golden NCPU anchors.

Two contracts live here:

- name-table behavior: unknown-name errors naming the registered list,
  the table serializer;
- bit-identity: the default ``ncpu-65nm`` profile must reproduce the
  pre-registry module-global fit to the exact float, so the paper-anchor
  gate metrics cannot move.  These literals are pinned with ``==`` on
  purpose — a drift of one ULP is a real regression.
"""

import pytest

from repro.errors import ConfigurationError
from repro.power import (
    DEFAULT_PROFILE,
    bnn_profile,
    cpu_profile,
    frequency_model,
    get_profile,
    models_for,
    profile_names,
    profile_table,
    resolve_profile,
)


class TestRegistry:
    def test_expected_profiles_registered(self):
        names = profile_names()
        assert names == tuple(sorted(names))
        for name in ("ncpu-65nm", "max78000", "ethos-u55", "mcxn947-neutron"):
            assert name in names
        assert len(names) >= 4

    def test_default_is_ncpu(self):
        assert DEFAULT_PROFILE == "ncpu-65nm"
        assert get_profile(DEFAULT_PROFILE).name == DEFAULT_PROFILE

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ConfigurationError) as exc:
            get_profile("tpu-v9")
        message = str(exc.value)
        assert "unknown device profile 'tpu-v9'" in message
        for name in profile_names():
            assert name in message

    def test_resolve_profile_forms(self):
        ncpu = get_profile("ncpu-65nm")
        assert resolve_profile(ncpu) is ncpu
        assert resolve_profile("ncpu-65nm") is ncpu
        # None resolves through the session config (default session).
        assert resolve_profile(None).name == DEFAULT_PROFILE

    def test_profile_table_shape(self):
        table = profile_table()
        assert [entry["name"] for entry in table] == list(profile_names())
        for entry in table:
            profile = get_profile(entry["name"])
            assert entry["technology_nm"] == profile.technology_nm
            assert entry["vdd_range_v"] == [profile.vdd_min,
                                            profile.vdd_nominal]
            assert entry["accel_ops_per_cycle"] == profile.accel_ops_per_cycle
            assert entry["calibration"] == profile.calibration


class TestGoldenNcpuAnchors:
    """Exact-float pins of the default profile's fitted models."""

    def test_frequency_bit_identical(self):
        fm = frequency_model(get_profile("ncpu-65nm"))
        assert fm.f_mhz(1.0) == 959.9999999999999
        assert fm.f_mhz(0.4) == 17.99999999999999

    def test_bnn_power_bit_identical(self):
        bnn = bnn_profile(get_profile("ncpu-65nm"))
        assert bnn.total_power_w(1.0) == 0.241
        assert bnn.total_power_w(0.4) == 0.0011999999999999997

    def test_cpu_power_bit_identical(self):
        models = models_for(get_profile("ncpu-65nm"))
        cpu = models.cpu
        f_1v = models.frequency.f_hz(1.0)
        f_04v = models.frequency.f_hz(0.4)
        assert cpu.total_power_w(1.0, f_1v) == 0.11199999999999999
        assert cpu.total_power_w(0.4, f_04v) == 0.0008000000000000001

    def test_bnn_energy_per_cycle_bit_identical(self):
        models = models_for(get_profile("ncpu-65nm"))
        energy = models.accel.total_power_w(1.0) / models.frequency.f_hz(1.0)
        assert energy == 2.510416666666667e-10

    def test_cpu_mep_bit_identical(self):
        models = models_for(get_profile("ncpu-65nm"))
        assert models.cpu_mep_voltage() == 0.4647706506444528

    def test_default_session_matches_explicit_profile(self):
        """``profile=None`` (session default) and the explicit profile
        must hand back the very same fitted models."""
        explicit = models_for(get_profile("ncpu-65nm"))
        assert frequency_model() is explicit.frequency
        assert bnn_profile() is explicit.accel
        assert cpu_profile() is explicit.cpu


class TestZooProfilesSolve:
    def test_every_profile_fits_its_anchors(self):
        for name in profile_names():
            profile = get_profile(name)
            models = models_for(profile)
            fm = models.frequency
            assert fm.f_mhz(profile.vdd_nominal) == pytest.approx(
                profile.f_nominal_mhz, rel=1e-6)
            assert fm.f_mhz(profile.vdd_min) == pytest.approx(
                profile.f_min_mhz, rel=1e-6)
            assert models.accel.total_power_w(profile.vdd_nominal) \
                == pytest.approx(profile.accel_power_nominal_w, rel=1e-6)
            assert models.accel.total_power_w(profile.vdd_min) \
                == pytest.approx(profile.accel_power_min_w, rel=1e-6)
            # The two-domain CPU fit pins the low-voltage anchor exactly;
            # the nominal point is approximate on the estimate-derived
            # zoo profiles (the leak-share constraint wins the tie).
            f_nom = fm.f_hz(profile.vdd_nominal)
            f_min = fm.f_hz(profile.vdd_min)
            assert models.cpu.total_power_w(profile.vdd_min, f_min) \
                == pytest.approx(profile.cpu_power_min_w, rel=1e-6)
            cpu_nom = models.cpu.total_power_w(profile.vdd_nominal, f_nom)
            assert cpu_nom == pytest.approx(profile.cpu_power_nominal_w,
                                            rel=0.5)

    def test_mep_within_search_window(self):
        for name in profile_names():
            profile = get_profile(name)
            mep = models_for(profile).cpu_mep_voltage()
            assert profile.mep_search_lo <= mep <= profile.mep_search_hi


class TestMemoization:
    def test_models_for_is_memoized(self):
        ncpu = get_profile("ncpu-65nm")
        assert models_for(ncpu) is models_for(ncpu)
        # resolving by name hits the same cache entry
        assert models_for(resolve_profile("ncpu-65nm")) is models_for(ncpu)

    def test_distinct_profiles_distinct_models(self):
        assert models_for(get_profile("ncpu-65nm")) is not \
            models_for(get_profile("max78000"))

    def test_timeline_power_trace_reuses_models(self):
        """Repeated power traces must not re-run the solver: every call
        prices segments through the one memoized DeviceModels."""
        from repro.core.events import BNN, CPU, IDLE, Timeline

        timeline = Timeline()
        timeline.add("core0", CPU, 0, 100)
        timeline.add("core0", BNN, 100, 300)
        timeline.add("core0", IDLE, 300, 400)

        profile = get_profile("ethos-u55")
        models_for.cache_clear()
        try:
            first = timeline.power_trace(0.7, 200e6, reconfigurable=False,
                                         profile=profile)
            after_first = models_for.cache_info()
            second = timeline.power_trace(0.7, 200e6, reconfigurable=False,
                                          profile=profile)
            after_second = models_for.cache_info()
            assert first == second
            # the second trace added cache hits but no new solver runs
            assert after_second.misses == after_first.misses
            assert after_second.hits > after_first.hits
        finally:
            models_for.cache_clear()

    def test_voltage_sweep_single_solve(self):
        from repro.core.events import CPU, Timeline

        timeline = Timeline()
        timeline.add("core0", CPU, 0, 50)
        profile = get_profile("mcxn947-neutron")
        models_for.cache_clear()
        try:
            for vdd in (0.8, 0.9, 1.0, 1.1):
                timeline.power_trace(vdd, 100e6, reconfigurable=False,
                                     profile=profile)
            assert models_for.cache_info().misses == 1
        finally:
            models_for.cache_clear()
