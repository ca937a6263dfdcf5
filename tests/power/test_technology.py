"""Tests for the fitted 65 nm technology model."""

import pytest

from repro.errors import ConfigurationError
from repro.power import (
    FrequencyModel,
    bnn_mep_voltage,
    bnn_profile,
    bnn_tops_per_watt,
    cpu_mep_voltage,
    cpu_profile,
    frequency_model,
    sram_access_energy_j,
)


class TestFrequencyModel:
    def test_anchor_points(self):
        fm = frequency_model()
        assert fm.f_mhz(1.0) == pytest.approx(960.0, rel=1e-6)
        assert fm.f_mhz(0.4) == pytest.approx(18.0, rel=1e-6)

    def test_monotone_in_voltage(self):
        fm = frequency_model()
        voltages = [0.4 + 0.05 * i for i in range(13)]
        freqs = [fm.f_mhz(v) for v in voltages]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))

    def test_below_threshold_rejected(self):
        fm = frequency_model()
        with pytest.raises(ConfigurationError):
            fm.f_mhz(0.3)

    def test_bad_anchor_order_rejected(self):
        with pytest.raises(ConfigurationError):
            FrequencyModel(vth=0.5, v_lo=0.4, f_lo_mhz=18.0, v_hi=1.0,
                           f_hi_mhz=960.0)

    def test_f_hz_consistent(self):
        fm = frequency_model()
        assert fm.f_hz(0.7) == pytest.approx(fm.f_mhz(0.7) * 1e6)


class TestPowerProfiles:
    def test_bnn_power_anchors(self):
        # paper: 241 mW at 1 V, 1.2 mW at 0.4 V in BNN mode
        profile = bnn_profile()
        assert profile.total_power_w(1.0) == pytest.approx(0.241, rel=1e-6)
        assert profile.total_power_w(0.4) == pytest.approx(1.2e-3, rel=1e-6)

    def test_cpu_power_anchors(self):
        # paper: 112 mW at 1 V, 0.8 mW at 0.4 V in CPU mode
        profile = cpu_profile()
        assert profile.total_power_w(1.0) == pytest.approx(0.112, rel=1e-6)
        assert profile.total_power_w(0.4) == pytest.approx(0.8e-3, rel=1e-6)

    def test_power_monotone(self):
        for profile in (bnn_profile(), cpu_profile()):
            voltages = [0.4 + 0.05 * i for i in range(13)]
            powers = [profile.total_power_w(v) for v in voltages]
            assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_leakage_positive_and_growing(self):
        profile = bnn_profile()
        assert 0 < profile.leakage_power_w(0.4) < profile.leakage_power_w(1.0)

    def test_dynamic_scales_with_frequency(self):
        profile = cpu_profile()
        full = profile.dynamic_power_w(1.0)
        half = profile.dynamic_power_w(1.0, f_hz=frequency_model().f_hz(1.0) / 2)
        assert half == pytest.approx(full / 2)

    def test_energy_accounting(self):
        profile = cpu_profile()
        # energy at Fmax for f cycles equals P/f * cycles
        cycles = 1e6
        expected = profile.total_power_w(0.6) / frequency_model().f_hz(0.6) * cycles
        assert profile.energy_j(cycles, 0.6) == pytest.approx(expected)


class TestMEP:
    def test_cpu_mep_near_half_volt(self):
        # paper: 0.5 V measured; the two-anchor fit lands within 50 mV
        assert 0.45 <= cpu_mep_voltage() <= 0.52

    def test_bnn_mep_below_cpu_mep(self):
        # paper: BNN MEP not observed above 0.4 V
        assert bnn_mep_voltage() < cpu_mep_voltage()

    def test_energy_decreasing_above_mep(self):
        profile = cpu_profile()
        mep = cpu_mep_voltage()
        assert profile.energy_per_cycle_j(mep) < profile.energy_per_cycle_j(1.0)
        assert profile.energy_per_cycle_j(mep) < profile.energy_per_cycle_j(0.4)


class TestEfficiency:
    def test_tops_per_watt_anchors(self):
        # paper Table 3: 1.6 TOPS/W at 1 V and the 6.0 TOPS/W peak at 0.4 V
        assert bnn_tops_per_watt(1.0) == pytest.approx(1.6, abs=0.05)
        assert bnn_tops_per_watt(0.4) == pytest.approx(6.0, abs=0.05)

    def test_efficiency_improves_at_low_voltage(self):
        assert bnn_tops_per_watt(0.4) > bnn_tops_per_watt(0.7) > bnn_tops_per_watt(1.0)


class TestSramDomain:
    def test_vmin_floor(self):
        """SRAM access energy goes with the square of the array voltage,
        floored at the chip's 0.55 V SRAM Vmin."""
        def effective_voltage(voltage):
            return (sram_access_energy_j(1024, 1, voltage)
                    / sram_access_energy_j(1024, 1, 1.0)) ** 0.5

        assert effective_voltage(0.4) == pytest.approx(0.55)
        assert effective_voltage(0.55) == pytest.approx(0.55)
        assert effective_voltage(0.8) == pytest.approx(0.8)
