import math
from dataclasses import replace

import numpy as np
import pytest

import cascade_at as ca
from cascade_at import threshold
from cascade_at.errors import ConfigError, NumericalError
from cascade_at.msublevel import weights
from cascade_at.threshold import (_geometry_for_x, curvature_at_zero,
                                  region_two_estimate, threshold_curve,
                                  threshold_rabi, threshold_surface)

DOP = ca.DopplerParams(fwhm=1100.0)


class TestCurvature:
    def test_case_a_split(self, case_a):
        scheme, drive, _ = case_a
        assert curvature_at_zero("analytic", scheme, drive, DOP) > 0

    def test_case_b_unsplit_msummed_strong_probe(self, case_b):
        scheme, drive, _ = case_b
        sch, drv = _geometry_for_x(scheme, -1.1162, drive.rabi_1)
        wts = weights(scheme.j2, scheme.j3)
        c = curvature_at_zero("full", sch, replace(drv, rabi_2=drive.rabi_2),
                              DOP, msum=wts)
        assert c < 0

    def test_no_coupling_single_peak(self, case_a):
        # Omega_2 = 0 carries no upper-level signal at all; the unsplit
        # Doppler peak (negative curvature) appears at any small coupling
        scheme, drive, _ = case_a
        dark = replace(drive, rabi_2=0.0)
        assert curvature_at_zero("analytic", scheme, dark, DOP) == 0.0
        faint = replace(drive, rabi_2=1.0)
        assert curvature_at_zero("analytic", scheme, faint, DOP) < 0

    def test_requires_resonant_coupling(self, case_b):
        scheme, drive, _ = case_b
        with pytest.raises(ConfigError):
            curvature_at_zero("analytic", scheme, drive, DOP)

    def test_scale_invariant_sign(self, case_a):
        # curvature is linear in the intensity, so any positive rescaling
        # (e.g. the weak-probe prefactor) leaves the sign unchanged
        scheme, drive, _ = case_a
        weak = replace(drive, rabi_1=drive.rabi_1 / 7)
        c1 = curvature_at_zero("analytic", scheme, drive, DOP)
        c2 = curvature_at_zero("analytic", scheme, weak, DOP)
        assert np.sign(c1) == np.sign(c2)
        assert c1 / c2 == pytest.approx(49.0, rel=1e-6)


class TestThresholdRabi:
    def test_case_a_near_seed(self, case_a):
        scheme, _, _ = case_a
        x = -0.9219
        res = threshold_rabi("analytic", scheme, x, DOP)
        assert res.converged
        seed = region_two_estimate(_geometry_for_x(scheme, x, 1.0)[0], x)
        assert seed == pytest.approx(18.6, abs=0.5)
        assert seed / 3 < res.omega_t < seed * 3

    def test_case_b_order_of_ghz(self, case_b):
        scheme, drive, _ = case_b
        wts = weights(scheme.j2, scheme.j3)
        res = threshold_rabi("full", scheme, -1.1162, DOP, msum=wts,
                             rabi_1=drive.rabi_1)
        assert res.converged
        assert 500.0 <= res.omega_t <= 3000.0

    def test_region_ii_doppler_independence(self, case_a):
        scheme, _, _ = case_a
        vals = [threshold_rabi("analytic", scheme, -0.5,
                               ca.DopplerParams(fwhm=d)).omega_t
                for d in (500.0, 1100.0, 3000.0)]
        assert max(vals) / min(vals) - 1 < 0.02

    def test_outside_region_ii_growth(self, case_a):
        scheme, _, _ = case_a
        for x in (0.5, -1.5):
            vals = [threshold_rabi("analytic", scheme, x,
                                   ca.DopplerParams(fwhm=d)).omega_t
                    for d in (500.0, 1100.0, 3000.0)]
            assert vals[0] < vals[1] < vals[2]

    def test_cross_engine_consistency(self, case_a):
        scheme, _, _ = case_a
        x = -0.9219
        full = threshold_rabi("full", scheme, x, DOP).omega_t
        pert = threshold_rabi("perturbative", scheme, x, DOP).omega_t
        an = threshold_rabi("analytic", scheme, x, DOP).omega_t
        assert abs(full - pert) / pert < 0.10
        assert abs(an - pert) / pert < 0.005

    def test_singular_band_rejected(self, case_a):
        scheme, _, _ = case_a
        with pytest.raises(ConfigError):
            threshold_rabi("analytic", scheme, -0.995, DOP)
        with pytest.raises(ConfigError):
            threshold_rabi("analytic", scheme, 0.01, DOP)


class TestThresholdCurve:
    def test_region_ii_much_cheaper_than_co_propagating(self, case_a):
        scheme, _, _ = case_a
        tmap = threshold_curve("analytic", scheme,
                               np.array([-0.9, -0.5, -0.1, 0.5]), DOP)
        assert tmap.converged.all()
        region_ii = tmap.omega_t[:3, 0]
        assert np.all(tmap.region_two[:3]) and not tmap.region_two[3]
        assert np.all(tmap.omega_t[3, 0] >= 10 * region_ii)

    def test_co_propagating_mirror_expensive(self, case_a):
        scheme, _, _ = case_a
        counter = threshold_rabi("analytic", scheme, -0.9219, DOP).omega_t
        co = threshold_rabi("analytic", scheme, 0.9219, DOP).omega_t
        assert co >= 10 * counter

    def test_empty_grid(self, case_a):
        scheme, _, _ = case_a
        tmap = threshold_curve("analytic", scheme, np.array([]), DOP)
        assert tmap.omega_t.shape == (0, 1)

    def test_grid_validation(self, case_a):
        scheme, _, _ = case_a
        with pytest.raises(ConfigError):
            threshold_curve("analytic", scheme, np.array([-0.5, 0.0]), DOP)


class TestThresholdSurface:
    def test_1x1_reduces_to_threshold_rabi(self, case_a):
        scheme, _, _ = case_a
        tmap = threshold_surface("analytic", scheme, np.array([-0.5]),
                                 np.array([1100.0]))
        single = threshold_rabi("analytic", scheme, -0.5, DOP)
        assert tmap.omega_t[0, 0] == pytest.approx(single.omega_t, rel=1e-12)

    def test_region_ii_columns_flat_others_grow(self, case_a):
        scheme, _, _ = case_a
        tmap = threshold_surface("analytic", scheme,
                                 np.array([-0.5, 0.5]),
                                 np.array([500.0, 1100.0, 3000.0]))
        assert tmap.converged.all()
        # per x row: relative spread max/min - 1, slope of ln(omega_t) vs ln(dnu)
        spread = tmap.omega_t.max(axis=1) / tmap.omega_t.min(axis=1) - 1.0
        slope = [np.polyfit(np.log(tmap.dnu_grid), np.log(row), 1)[0]
                 for row in tmap.omega_t]
        assert spread[0] < 0.02
        assert spread[1] > 0.5
        assert slope[1] > 0.5
        assert abs(slope[0]) < 0.02

    def test_dnu_validation(self, case_a):
        scheme, _, _ = case_a
        with pytest.raises(ConfigError):
            threshold_surface("analytic", scheme, np.array([-0.5]),
                              np.array([-100.0]))


class TestSweepErrors:
    GRID = np.array([-0.5, 0.5])

    def test_bug_propagates(self, case_a, monkeypatch):
        for exc in (ZeroDivisionError, ConfigError):
            def broken(*args, **kwargs):
                raise exc("bug in the search")

            monkeypatch.setattr(threshold, "threshold_rabi", broken)
            with pytest.raises(exc):
                threshold_curve("analytic", case_a[0], self.GRID, DOP)

    def test_numerical_failure_marks_cell_unconverged(self, case_a, monkeypatch):
        def failing(*args, **kwargs):
            raise NumericalError("solver failed")

        monkeypatch.setattr(threshold, "threshold_rabi", failing)
        tmap = threshold_curve("analytic", case_a[0], self.GRID, DOP)
        assert np.all(np.isnan(tmap.omega_t))
        assert not tmap.converged.any()
