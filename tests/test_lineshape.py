from dataclasses import replace

import numpy as np
import pytest

import cascade_at as ca
from cascade_at.errors import DegenerateRootError
from cascade_at.lineshape import K_RHO22, K_RHO33, doppler_slopes, rho_weak_batch
from cascade_at.liouville import populations_batch


def rho22(scheme, drive, d1, d2):
    return rho_weak_batch(scheme, drive, np.asarray(d1, float), np.asarray(d2, float))[0]


def rho33(scheme, drive, d1, d2):
    return rho_weak_batch(scheme, drive, np.asarray(d1, float), np.asarray(d2, float))[1]


class TestRho33:
    def test_zero_probe(self, case_a):
        scheme, drive, _ = case_a
        off = replace(drive, rabi_1=0.0)
        assert rho33(scheme, off, 0.0, 0.0) == 0.0

    def test_large_coupling_asymptote(self, case_a):
        # at resonance the value falls as 1/Om2^2 once (Om2/2)^2 dominates D
        scheme, drive, _ = case_a
        v1 = rho33(scheme, replace(drive, rabi_2=2e4), 0.0, 0.0)
        v2 = rho33(scheme, replace(drive, rabi_2=4e4), 0.0, 0.0)
        assert v1 / v2 == pytest.approx(4.0, rel=0.01)

    def test_doublet_peaks_near_half_rabi(self, case_a):
        scheme, drive, _ = case_a
        grid = np.linspace(0.0, 400.0, 4001)
        vals = rho33(scheme, drive, grid, np.zeros_like(grid))
        peak = grid[int(np.argmax(vals))]
        assert peak == pytest.approx(drive.rabi_2 / 2, abs=5.0)


class TestRho22:
    def test_zero_probe(self, case_a):
        scheme, drive, _ = case_a
        off = replace(drive, rabi_1=0.0)
        assert rho22(scheme, off, 0.0, 0.0) == 0.0

    def test_two_photon_interference_null(self):
        # closed system, no transit, long-lived |3>: gamma_13 -> 0 makes the
        # two-photon-resonant value vanish
        scheme = ca.LevelScheme(wavenumber_21=14647.547, wavenumber_32=15888.065,
                                lifetime_2=12.2, lifetime_3=1e9,
                                branch_2_to_1=1.0, branch_3_to_2=1.0,
                                transit_rate=0.0)
        drive = ca.DriveParams(rabi_1=1.0, rabi_2=200.0)
        on_res = rho22(scheme, drive, 50.0, -50.0)
        off_res = rho22(scheme, drive, 50.0, 0.0)
        assert on_res < 1e-15 * off_res

    def test_eit_dip_fixed_velocity(self, case_a):
        scheme, drive, _ = case_a
        grid = np.linspace(-600.0, 600.0, 601)
        vals = rho22(scheme, drive, grid, np.zeros_like(grid))
        center = len(grid) // 2
        assert vals[center] < vals[center - 1] and vals[center] < vals[center + 1]
        assert np.argmax(vals) != center


class TestDenominator:
    def test_factorized_limit(self, case_a):
        scheme, drive, dopp = case_a
        rp = ca.rates(scheme)
        off = replace(drive, rabi_2=0.0, detuning_1=37.0)
        den = ca.denominator_coefficients(scheme, 37.0, 0.0, 0.0,
                                          *doppler_slopes(scheme, off, dopp))
        expected = (rp.gamma_12 + 37.0j) * (rp.gamma_13 + 37.0j)
        assert den.c == pytest.approx(expected, rel=1e-12)

    def test_roots_self_consistent(self, case_a):
        scheme, drive, dopp = case_a
        den = ca.denominator_coefficients(scheme, 250.0, 0.0, drive.rabi_2,
                                          *doppler_slopes(scheme, drive, dopp))
        for z in den.roots():
            scale = max(abs(den.a * z * z), abs(den.b * z), abs(den.c))
            assert abs((den.a * z + den.b) * z + den.c) <= 1e-10 * scale

    def test_case_a_roots_off_axis(self, case_a):
        scheme, drive, dopp = case_a
        den = ca.denominator_coefficients(scheme, 0.0, 0.0, drive.rabi_2,
                                          *doppler_slopes(scheme, drive, dopp))
        z1, z2 = den.roots()
        assert abs(z1.imag) > 0.1 and abs(z2.imag) > 0.1

    def test_degenerate_zero_width(self, case_a):
        scheme, drive, _ = case_a
        # a zero width makes D constant in u: it has no quadratic roots
        den = ca.denominator_coefficients(
            scheme, 0.0, 0.0, drive.rabi_2,
            *doppler_slopes(scheme, drive, ca.DopplerParams(fwhm=0.0)))
        assert den.a == 0 and den.b == 0
        with pytest.raises(DegenerateRootError):
            den.roots()


class TestProperties:
    def test_denominator_never_vanishes(self, case_a):
        scheme, drive, _ = case_a
        rp = ca.rates(scheme)
        rng = np.random.default_rng(7)
        for _ in range(500):
            d1 = rng.uniform(-5000, 5000)
            d2 = rng.uniform(-5000, 5000)
            om2 = rng.uniform(0, 3000)
            d = ((rp.gamma_12 + 1j * d1) * (rp.gamma_13 + 1j * (d1 + d2))
                 + (om2 / 2) ** 2)
            assert abs(d) >= rp.gamma_12 * rp.gamma_13

    def test_detuning_sign_flip_invariance(self, case_a):
        scheme, drive, _ = case_a
        d1 = np.array([120.0, -75.0, 0.0])
        d2 = np.array([-30.0, 200.0, 55.0])
        plus22, plus33 = rho_weak_batch(scheme, drive, d1, d2)
        minus22, minus33 = rho_weak_batch(scheme, drive, -d1, -d2)
        assert plus33 == pytest.approx(minus33, rel=1e-12)
        assert plus22 == pytest.approx(minus22, rel=1e-12)


class TestWeakProbeAgreement:
    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_peak_normalized_agreement(self, case):
        # perturbative forms vs full solver at v_z = 0, probe at Gamma_2/20:
        # peak-normalized spectra agree within 5% of peak, pointwise
        scheme, drive, _ = ca.preset(case)
        rp = ca.rates(scheme)
        weak = replace(drive, rabi_1=rp.Gamma_2 / 20)
        grid = np.linspace(-3 * drive.rabi_2, 3 * drive.rabi_2, 481)
        d2 = np.full_like(grid, drive.detuning_2)
        f22, f33 = populations_batch(scheme, weak, grid, d2)
        w22, w33 = rho_weak_batch(scheme, weak, grid, d2)
        for full, pert in ((f33, w33), (f22, w22)):
            a = full / full.max()
            b = pert / pert.max()
            assert np.max(np.abs(a - b)) < 0.05

    def test_frozen_scale_factors(self, case_a):
        # re-derive the frozen prefactors by the documented fit recipe
        scheme, drive, _ = case_a
        rp = ca.rates(scheme)
        weak = replace(drive, rabi_1=rp.Gamma_2 / 20)
        grid = np.linspace(-3 * drive.rabi_2, 3 * drive.rabi_2, 481)
        d2 = np.zeros_like(grid)
        f22, f33 = populations_batch(scheme, weak, grid, d2)
        w22, w33 = rho_weak_batch(scheme, weak, grid, d2)
        shape33, shape22 = w33 / K_RHO33, w22 / K_RHO22
        k33 = float(np.dot(shape33, f33) / np.dot(shape33, shape33))
        k22 = float(np.dot(shape22, f22) / np.dot(shape22, shape22))
        assert k33 == pytest.approx(K_RHO33, rel=1e-6)
        assert k22 == pytest.approx(K_RHO22, rel=1e-6)
