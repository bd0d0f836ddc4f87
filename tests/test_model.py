import math

import pytest

import cascade_at as ca
from cascade_at.errors import ConfigError


class TestPresets:
    def test_case_a_wavenumber_ratio(self, case_a):
        scheme, drive, _ = case_a
        x = ca.wavenumber_ratio(scheme, drive)
        assert x == pytest.approx(-0.9219, abs=5e-5)

    def test_case_b_wavenumber_ratio(self, case_b):
        scheme, drive, _ = case_b
        x = ca.wavenumber_ratio(scheme, drive)
        assert x == pytest.approx(-1.1162, abs=5e-5)

    def test_case_a_fields(self, case_a):
        scheme, drive, dopp = case_a
        assert drive.rabi_1 == 6.0
        assert drive.rabi_2 == 400.0
        assert drive.detuning_2 == 0.0
        assert dopp.temperature == 625.0
        assert scheme.lifetime_2 == 12.2
        assert scheme.lifetime_3 == 21.0
        assert (scheme.j1, scheme.j2, scheme.j3) == (19, 20, 19)

    def test_case_b_fields(self, case_b):
        scheme, drive, dopp = case_b
        assert drive.rabi_1 == 36.0
        assert drive.rabi_2 == 530.0
        assert drive.detuning_2 == 60.0
        assert scheme.lifetime_3 == 12.7
        assert (scheme.j1, scheme.j2, scheme.j3) == (19, 18, 17)

    def test_counter_propagating(self, case_a, case_b):
        for scheme, drive, _ in (case_a, case_b):
            assert drive.dir_1 * drive.dir_2 == -1
            assert ca.wavenumber_ratio(scheme, drive) < 0

    def test_unknown_case(self):
        # one spelling per case: the CLI maps its case-a to case_a itself
        for case_id in ("case_c", "case-a", "a", "case-b", "b"):
            with pytest.raises(ConfigError):
                ca.preset(case_id)


class TestDopplerFwhm:
    def test_na2_625K_near_1100(self, case_a):
        scheme, _, _ = case_a
        fw = ca.doppler_fwhm(scheme, 625.0)
        assert fw == pytest.approx(1159.6, abs=0.5)
        assert abs(fw - 1100.0) / 1100.0 < 0.10

    def test_zero_temperature(self, case_a):
        assert ca.doppler_fwhm(case_a[0], 0.0) == 0.0

    def test_sqrt_temperature_scaling(self, case_a):
        scheme = case_a[0]
        assert ca.doppler_fwhm(scheme, 4 * 300.0) == pytest.approx(
            2 * ca.doppler_fwhm(scheme, 300.0), rel=1e-12)

    def test_linear_in_wavenumber(self, case_a):
        from dataclasses import replace
        scheme = case_a[0]
        doubled = replace(scheme, wavenumber_21=2 * scheme.wavenumber_21)
        assert ca.doppler_fwhm(doubled, 625.0) == pytest.approx(
            2 * ca.doppler_fwhm(scheme, 625.0), rel=1e-12)


class TestRates:
    def test_lifetime_12p2_ns(self):
        scheme = ca.LevelScheme(wavenumber_21=14647.547, wavenumber_32=15888.065,
                                lifetime_2=12.2, lifetime_3=21.0, transit_rate=0.0,
                                branch_2_to_1=1.0, branch_3_to_2=1.0)
        rp = ca.rates(scheme)
        assert rp.Gamma_2 == pytest.approx(13.05, abs=0.005)
        assert rp.gamma_12 == pytest.approx(6.52, abs=0.005)
        assert rp.Gamma_3 == pytest.approx(7.58, abs=0.005)
        assert rp.gamma_13 == pytest.approx(3.79, abs=0.005)

    def test_transit_on_every_coherence(self):
        # w_t enters each gamma_ij in full: the completely positive choice
        base = ca.LevelScheme(wavenumber_21=14647.547, wavenumber_32=15888.065,
                              lifetime_2=12.2, lifetime_3=21.0, transit_rate=0.0,
                              branch_2_to_1=1.0, branch_3_to_2=1.0)
        with_wt = ca.LevelScheme(wavenumber_21=14647.547, wavenumber_32=15888.065,
                                 lifetime_2=12.2, lifetime_3=21.0, transit_rate=2.0)
        r0, r2 = ca.rates(base), ca.rates(with_wt)
        assert r2.gamma_12 - r0.gamma_12 == pytest.approx(2.0, rel=1e-12)
        assert r2.gamma_13 - r0.gamma_13 == pytest.approx(2.0, rel=1e-12)
        assert r2.gamma_23 - r0.gamma_23 == pytest.approx(2.0, rel=1e-12)

    def test_monotone_in_lifetimes(self, case_a):
        from dataclasses import replace
        scheme = case_a[0]
        longer = replace(scheme, lifetime_2=scheme.lifetime_2 * 1.5)
        assert ca.rates(longer).Gamma_2 < ca.rates(scheme).Gamma_2
        assert ca.rates(longer).gamma_12 < ca.rates(scheme).gamma_12


class TestValidation:
    def test_negative_lifetime(self):
        with pytest.raises(ConfigError):
            ca.LevelScheme(wavenumber_21=1e4, wavenumber_32=1e4,
                           lifetime_2=-1.0, lifetime_3=10.0)

    def test_branching_out_of_range(self):
        with pytest.raises(ConfigError):
            ca.LevelScheme(wavenumber_21=1e4, wavenumber_32=1e4,
                           lifetime_2=10.0, lifetime_3=10.0, branch_2_to_1=1.5)

    def test_open_system_needs_transit(self):
        with pytest.raises(ConfigError):
            ca.LevelScheme(wavenumber_21=1e4, wavenumber_32=1e4,
                           lifetime_2=10.0, lifetime_3=10.0,
                           branch_2_to_1=0.5, transit_rate=0.0)

    def test_selection_rule(self):
        with pytest.raises(ConfigError):
            ca.LevelScheme(wavenumber_21=1e4, wavenumber_32=1e4,
                           lifetime_2=10.0, lifetime_3=10.0, j1=0, j2=2, j3=2)

    def test_doppler_params_exclusive(self):
        with pytest.raises(ConfigError):
            ca.DopplerParams(temperature=600.0, fwhm=1100.0)
        with pytest.raises(ConfigError):
            ca.DopplerParams()

    def test_negative_rabi(self):
        with pytest.raises(ConfigError):
            ca.DriveParams(rabi_1=-1.0, rabi_2=100.0)

    VALID = {
        ca.LevelScheme: dict(wavenumber_21=1e4, wavenumber_32=1e4, lifetime_2=10.0,
                             lifetime_3=10.0),
        ca.DriveParams: dict(rabi_1=1.0, rabi_2=100.0),
        ca.DopplerParams: {},        # the field under test is its one width
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("cls, field", [
        (ca.LevelScheme, name) for name in (
            "wavenumber_21", "wavenumber_32", "lifetime_2", "lifetime_3",
            "branch_2_to_1", "branch_3_to_2", "transit_rate", "mass")
    ] + [(ca.DriveParams, name) for name in (
        "rabi_1", "rabi_2", "detuning_1", "detuning_2")
    ] + [(ca.DopplerParams, "temperature"), (ca.DopplerParams, "fwhm")])
    def test_non_finite_field(self, cls, field, value):
        cls(**{**self.VALID[cls], field: 1.0})
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            cls(**{**self.VALID[cls], field: value})


def test_most_probable_speed_consistency(case_a):
    scheme, _, dopp = case_a
    v_p = ca.most_probable_speed(scheme, dopp)
    # invert: fwhm reconstructed from v_p
    fw = 2 * math.sqrt(math.log(2)) * scheme.nu_21 * v_p / ca.model.C_M_PER_S
    assert fw == pytest.approx(dopp.fwhm_mhz(scheme), rel=1e-12)
    # Na2 at 625 K: most probable speed is a few hundred m/s
    assert 400 < v_p < 900
