import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

import cascade_at as ca
from cascade_at import doppler, threshold
from cascade_at.doppler import _STENCIL, _curvature_rows, _second_derivative
from cascade_at.errors import ConfigError, NumericalError
from cascade_at.lineshape import doppler_slopes
from cascade_at.model import MAX_RATE
from cascade_at.msublevel import m_summed, weights
from cascade_at.threshold import (ThresholdResult, _geometry_for_x, curvature_at_zero,
                                  threshold_curve, threshold_rabi, threshold_surface)
from conftest import coincident_roots_drive

DOP = ca.DopplerParams(fwhm=1100.0)

Cell = namedtuple("Cell", "scheme drive dopp alpha beta")


def make_cell(scheme, x, dopp, rabi_1):
    """One (x, Doppler width) cell of the search: the geometry realizing x
    (coupling off) and its Doppler slopes."""
    scheme_x, drive_x = _geometry_for_x(scheme, x, rabi_1)
    return Cell(scheme_x, drive_x, dopp, *doppler_slopes(scheme_x, drive_x, dopp))


def newton_step(value, slope, limit):
    """value / slope where the slope is positive and the step at most
    ``limit`` long, else nan."""
    return value / slope if slope > 0 and abs(value) <= limit * slope else math.nan


def scalar_search(engine, scheme, x, dopp, msum=None, rabi_1=None):
    """Slow oracle for the lockstep search: one cell, one curvature_at_zero
    call per evaluation, pre-scan and Newton pairs on log Omega_2 in plain
    Python, each operation in the lockstep's order."""
    if rabi_1 is None:
        rabi_1 = ca.rates(scheme).Gamma_2 / 20.0
    scheme_x, drive0 = _geometry_for_x(scheme, x, rabi_1)

    def curv(om2):
        return curvature_at_zero(engine, scheme_x, replace(drive0, rabi_2=float(om2)),
                                 dopp, msum=msum)

    scan = np.geomspace(1.0, 50000.0, 20)
    vals = [curv(om) for om in scan]
    signs = np.array(vals) > 0
    crossings = np.nonzero(~signs[:-1] & signs[1:])[0]
    if len(crossings) == 0:
        return ThresholdResult(omega_t=float("nan"), converged=False)
    non_monotonic = len(crossings) > 1 or bool(signs[0])
    k = crossings[0]
    a, b, fa, fb = float(scan[k]), float(scan[k + 1]), vals[k], vals[k + 1]
    # np.log and np.exp, as in the lockstep search: math.log can differ in
    # the last bit
    la, lb = np.log(a), np.log(b)
    # first estimate: two Newton steps from the secant point on the
    # quadratic through the ends and the scan point beside the end of
    # smaller |curvature| (the other neighbour at the end of the scan)
    j = k - 1 if (abs(fa) < abs(fb) and k > 0) or k + 2 == len(scan) else k + 2
    ln, fn = np.log(scan[j]), vals[j]
    width = lb - la
    secant = lb - fb * (lb - la) / (fb - fa)
    d1 = (fb - fa) / width
    d2 = ((fn - fb) / (ln - lb) - d1) / (ln - la)
    est = secant
    for _ in range(2):
        est = est - newton_step(fa + (d1 + d2 * (est - lb)) * (est - la),
                                d1 + d2 * (2 * est - la - lb), width)
    if not la < est < lb:
        est = secant
    h = 0.4999 * math.log1p(1e-3)
    stalls = 0
    while b / a > 1.0 + 1e-3:
        e = min(max(est, la + h), lb - h)
        lm, lp = e - h, e + h
        om_m, om_p = np.exp(lm), np.exp(lp)
        fm, fp = curv(om_m), curv(om_p)
        width = lb - la
        if fm > 0:
            b, lb, fb = om_m, lm, fm
        else:
            a, la, fa = om_m, lm, fm
            if fp > 0:
                b, lb, fb = om_p, lp, fp
            else:
                a, la, fa = om_p, lp, fp
        stalls = 0 if lb - la <= 0.5 * width else stalls + 1
        step = newton_step(h * (fp + fm), fp - fm, lb - la)
        if stalls >= 3:
            est = 0.5 * (la + lb)
        elif math.isnan(step):
            est = lb - fb * (lb - la) / (fb - fa)
        else:
            est = e - step
    return ThresholdResult(math.sqrt(a * b), True, non_monotonic)


def assert_surface_matches_oracle(engine, scheme, x_grid, dnu_grid, msum=None,
                                  rabi_1=None):
    """Every cell of one lockstep surface equals the scalar oracle exactly;
    returns the oracle's result per cell."""
    tmap = threshold_surface(engine, scheme, np.array(x_grid), np.array(dnu_grid),
                             msum=msum, rabi_1=rabi_1)
    seen = []
    for i, x in enumerate(x_grid):
        for j, dnu in enumerate(dnu_grid):
            ref = scalar_search(engine, scheme, x, ca.DopplerParams(fwhm=dnu),
                                msum=msum, rabi_1=rabi_1)
            got = tmap.omega_t[i, j]
            assert got == ref.omega_t or (math.isnan(got) and math.isnan(ref.omega_t))
            assert tmap.converged[i, j] == ref.converged
            assert tmap.non_monotonic[i, j] == ref.non_monotonic
            seen.append(ref)
    return seen


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

    @pytest.mark.parametrize("engine", doppler.ENGINES)
    def test_requires_resonant_coupling(self, case_b, engine):
        scheme, drive, _ = case_b
        with pytest.raises(ConfigError):
            curvature_at_zero(engine, scheme, drive, DOP)

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
        # region II: the threshold lies near Gam / sqrt(-x (1+x)), the zero
        # curvature of the width-free pole separation (docs/model.md)
        scheme, _, _ = case_a
        x = -0.9219
        res = threshold_rabi("analytic", scheme, x, DOP)
        assert res.converged
        rp = ca.rates(scheme)
        gam = rp.gamma_12 * (1 + x) - rp.gamma_13 * x
        estimate = gam / math.sqrt(-x * (1 + x))
        assert estimate == pytest.approx(18.6, abs=0.5)
        assert estimate / 3 < res.omega_t < estimate * 3

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
            threshold_rabi("analytic", scheme, 0.01, DOP)

    @pytest.mark.parametrize("rabi_1", [0.0, -1.0])
    def test_no_probe_rejected(self, case_a, rabi_1):
        # without a probe I3 vanishes and every curvature is 0: no threshold
        # to find
        with pytest.raises(ConfigError, match="rabi_1 > 0"):
            threshold_curve("analytic", case_a[0], [-0.5], DOP, rabi_1=rabi_1)

    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_doppler_free_geometry(self, case):
        # x = -1 and its neighbours are ordinary cells: the analytic
        # threshold agrees with the perturbative one within the search's
        # 1e-3 stop
        scheme = ca.preset(case)[0]
        x_grid = [-1.01, -1.0, -0.999]
        an = threshold_curve("analytic", scheme, x_grid, DOP)
        pert = threshold_curve("perturbative", scheme, x_grid, DOP)
        assert an.converged.all() and pert.converged.all()
        assert np.all(np.abs(an.omega_t / pert.omega_t - 1) < 1e-3)


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

    def test_unknown_engine(self, case_a):
        with pytest.raises(ConfigError, match="engine must be one of"):
            threshold_curve("exact", case_a[0], np.array([-0.5]), DOP)


class TestThresholdSurface:
    def test_1x1_reduces_to_threshold_rabi(self, case_a):
        scheme, _, _ = case_a
        tmap = threshold_surface("analytic", scheme, np.array([-0.5]),
                                 np.array([1100.0]))
        single = threshold_rabi("analytic", scheme, -0.5, DOP)
        assert tmap.omega_t[0, 0] == single.omega_t

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

    def test_zero_width_matches_curve(self, case_a):
        # a zero-width cell enters the search through alpha = 0, as in
        # threshold_curve; only negative widths are refused
        scheme = case_a[0]
        x_grid = np.array([-0.5, 0.5, 1.5])
        tmap = threshold_surface("analytic", scheme, x_grid, np.array([0.0, 1100.0]))
        for j, dnu in enumerate(tmap.dnu_grid):
            curve = threshold_curve("analytic", scheme, x_grid, ca.DopplerParams(fwhm=dnu))
            assert np.array_equal(tmap.omega_t[:, j], curve.omega_t[:, 0])
            assert np.array_equal(tmap.converged[:, j], curve.converged[:, 0])
            assert np.array_equal(tmap.non_monotonic[:, j], curve.non_monotonic[:, 0])
        assert tmap.converged.all()

    def test_dnu_validation(self, case_a):
        scheme, _, _ = case_a
        with pytest.raises(ConfigError):
            threshold_surface("analytic", scheme, np.array([-0.5]),
                              np.array([-100.0]))

    @pytest.mark.parametrize("x_grid, dnu_grid", [
        ([math.nan, -0.5], [1100.0]), ([math.inf], [1100.0]), ([-math.inf], [1100.0]),
        ([-0.5], [math.nan, 1100.0]), ([-0.5], [math.inf]),
        ([[-0.5, 0.5]], [1100.0]), ([-0.5], [[1100.0]]), (-0.5, [1100.0]),
        ([-0.5], [1e9]), ([-0.5], [1e300])],
        ids=["nan-x", "inf-x", "minus-inf-x", "nan-width", "inf-width", "2d-x",
             "2d-width", "scalar-x", "1e9-width", "1e300-width"])
    def test_bad_grids_rejected(self, case_a, x_grid, dnu_grid):
        # widths beyond MAX_RATE, which DopplerParams refuses: 1e300 MHz
        # overflowed in the cell slopes, and 1e9 MHz ran
        scheme = case_a[0]
        with pytest.raises(ConfigError):
            threshold_surface("analytic", scheme, x_grid, dnu_grid)
        # a good width grid leaves the bad x grid, which the curve refuses too
        if np.ndim(dnu_grid) == 1 and np.all(np.abs(dnu_grid) <= MAX_RATE):
            with pytest.raises(ConfigError):
                threshold_curve("analytic", scheme, x_grid, DOP)

    def test_geometry_built_once_per_x(self, case_a, monkeypatch):
        # at most once per x: the search takes every cell's slopes from
        # _cell_slopes and builds no per-x geometry at all
        calls = []
        geometry = threshold._geometry_for_x

        def counting(scheme, x, rabi_1):
            calls.append(x)
            return geometry(scheme, x, rabi_1)

        monkeypatch.setattr(threshold, "_geometry_for_x", counting)
        tmap = threshold_surface("analytic", case_a[0], np.array([-1.9, -0.5, 0.5]),
                                 np.array([200.0, 1100.0, 3000.0, 5000.0]))
        assert tmap.omega_t.shape == (3, 4)
        assert tmap.converged.any()
        assert calls == []

    def test_cell_slopes_equal_doppler_slopes(self):
        # array arithmetic with the bits of doppler_slopes on each cell's
        # geometry, x = -1 and a zero width included
        x_grid = np.array([-1.95, -1.116, -1.0, -0.5, 0.3, 1.95])
        dnu_grid = np.concatenate(([0.0, 1.0], 200.0 + 400.0 * np.arange(13)))
        for case in ("case_a", "case_b"):
            scheme = ca.preset(case)[0]
            alpha, beta = threshold._cell_slopes(scheme, x_grid, dnu_grid)
            ref = [doppler_slopes(*_geometry_for_x(scheme, float(x), 0.65),
                                  ca.DopplerParams(fwhm=float(w)))
                   for x in x_grid for w in dnu_grid]
            assert alpha.tolist() == [a for a, _ in ref]
            assert beta.tolist() == [b for _, b in ref]


class TestLockstepSearch:
    @pytest.mark.parametrize("msum", [False, True])
    def test_analytic_surface(self, case_a, msum):
        scheme = case_a[0]
        wts = weights(scheme.j2, scheme.j3) if msum else None
        seen = assert_surface_matches_oracle("analytic", scheme, [-1.9, -0.5, 0.05],
                                             [200.0, 20000.0], msum=wts)
        assert any(not r.converged for r in seen)          # no crossing
        assert sum(r.converged for r in seen) >= 4

    def test_analytic_narrow_widths(self, case_a):
        # at Doppler widths of 1 and 2 MHz the pre-scan's top, 50 GHz, is a
        # point where the pole sum of I2 cancels to rounding: the stencil's
        # average takes the numeric sum there, and both cells converge
        seen = assert_surface_matches_oracle("analytic", case_a[0], [-0.611], [1.0, 2.0])
        assert all(r.converged for r in seen)

    def test_full_strong_probe(self, case_a):
        # a 300 MHz probe dresses the line: at x = -0.975 the curvature is
        # already positive at 1 MHz and changes sign more than once
        seen = assert_surface_matches_oracle("full", case_a[0], [-0.975, -0.5], [200.0],
                                             rabi_1=300.0)
        assert seen[0].non_monotonic and seen[0].converged

    def test_full_both_pole_forms(self, case_a):
        # x = -1.001 and -1 take the Schur form of the velocity poles, -0.5
        # the slope form, in one lockstep call
        seen = assert_surface_matches_oracle("full", case_a[0], [-1.001, -1.0, -0.5],
                                             [200.0])
        assert all(r.converged for r in seen)

    def test_full_cell_bits_do_not_depend_on_its_batch(self, case_a):
        # x = 1500 (|beta|/|alpha| = 6.7e-4) takes the Schur form, 0.5 the
        # slope form
        tmap = threshold_curve("full", case_a[0], [1500.0, 0.5], DOP)
        for i, x in enumerate(tmap.x_grid):
            assert tmap.omega_t[i, 0] == threshold_rabi("full", case_a[0], x, DOP).omega_t

    def test_full_msum_case_b(self, case_b):
        scheme, drive, _ = case_b
        seen = assert_surface_matches_oracle(
            "full", scheme, [-1.1162, -0.5, 0.5], [1100.0],
            msum=weights(scheme.j2, scheme.j3), rabi_1=drive.rabi_1)
        assert all(r.converged for r in seen)

    def test_perturbative(self, case_a):
        seen = assert_surface_matches_oracle("perturbative", case_a[0], [-0.5, 0.5],
                                             [1100.0])
        assert all(r.converged for r in seen)


class TestPhaseCalls:
    """What each lockstep phase asks of the curvature layers."""

    @staticmethod
    def record(monkeypatch):
        """Rows per ``_curvature_rows`` call, points per exact-curvature
        kernel call and grid points per fallback call, in call order.  The
        fallback is the analytic pole builder ``_weak_probe_poles``, which
        the row average calls for the stencils of the points the kernel
        refuses."""
        calls = {"rows": [], "kernel": [], "fallback": []}
        rows, kernel = threshold._curvature_rows, doppler._weak_probe_curvature
        fallback = doppler._weak_probe_poles

        def counting_rows(engine, scheme, drive, alpha, beta, rabi_2, msum):
            calls["rows"].append(len(rabi_2))
            return rows(engine, scheme, drive, alpha, beta, rabi_2, msum)

        def counting_kernel(scheme, drive, alpha, beta, rabi_2):
            calls["kernel"].append(len(rabi_2))
            return kernel(scheme, drive, alpha, beta, rabi_2)

        def counting_fallback(scheme, drive, grid, alpha, beta, rabi_2):
            calls["fallback"].append(len(grid))
            return fallback(scheme, drive, grid, alpha, beta, rabi_2)

        monkeypatch.setattr(threshold, "_curvature_rows", counting_rows)
        monkeypatch.setattr(doppler, "_weak_probe_curvature", counting_kernel)
        monkeypatch.setattr(doppler, "_weak_probe_poles", counting_fallback)
        return calls

    def test_no_call_without_rows(self, case_a, monkeypatch):
        # one pre-scan call; a Newton pass evaluates a pair of rows per cell
        calls = self.record(monkeypatch)
        tmap = threshold_curve("analytic", case_a[0], [-1.5, 0.5, 1.5], DOP)
        assert tmap.converged.all()
        assert calls["rows"][0] == 3 * 20 and min(calls["rows"]) > 0
        assert max(calls["rows"][1:]) <= 2 * 3
        assert len(calls["rows"]) <= 3

    def test_one_kernel_call_per_phase(self, case_a, monkeypatch):
        # a 5 x 13 region-II surface as one CLI block computes it: the
        # pre-scan (5 x 13 cells x 20 couplings) and every Newton pass (a
        # pair of couplings per cell) take one kernel call each
        calls = self.record(monkeypatch)
        x_grid = np.array([-0.95, -0.85, -0.75, -0.65, -0.55])
        tmap = threshold_surface("analytic", case_a[0], x_grid,
                                 200.0 + 400.0 * np.arange(13))
        assert tmap.converged.all()
        assert calls["kernel"] == calls["rows"]
        assert calls["rows"][0] == 65 * 20 and max(calls["rows"][1:]) <= 2 * 65
        assert len(calls["rows"]) <= 4

    def test_strong_probe_scans_once(self, case_a, monkeypatch):
        # the 300 MHz probe of test_full_strong_probe: region II and x = 0.5
        # share the one pre-scan call, and three Newton passes follow
        calls = self.record(monkeypatch)
        threshold_curve("full", case_a[0], [-0.975, -0.5, 0.5], ca.DopplerParams(fwhm=200.0),
                        rabi_1=300.0)
        assert calls["rows"] == [3 * 20, 2 * 3, 2 * 3, 2 * 3]


    # the default 40 x 13 case-a surface, and the same cells in the 5 x 13
    # blocks of the benchmark's CLI calls
    X_GRID = np.round(np.arange(-1.95, 2.0, 0.1), 2)
    DNU_GRID = 200.0 + 400.0 * np.arange(13)

    def test_surface_blocks_take_four_calls(self, case_a, monkeypatch):
        # the benchmark's eight blocks, with the x grids its CLI calls build
        # at x offsets 0, 0.0123 and 0.0299: at most 4 lockstep and 4 kernel
        # calls each, and at most one fallback call, which 2 or 3 blocks of
        # each offset make
        calls = self.record(monkeypatch)
        for offset in (0.0, 0.0123, 0.0299):
            fallbacks = 0
            for block in range(8):
                for made in calls.values():
                    made.clear()
                x_grid = -1.95 + offset + 0.5 * block + 0.1 * np.arange(5)
                tmap = threshold_surface("analytic", case_a[0], x_grid, self.DNU_GRID)
                assert tmap.converged.all()
                assert len(calls["rows"]) <= 4 and len(calls["kernel"]) <= 4
                assert len(calls["fallback"]) <= 1
                fallbacks += len(calls["fallback"])
            assert 2 <= fallbacks <= 3

    @pytest.mark.parametrize("engine, rows", [("analytic", 12627), ("full", 12592)])
    def test_default_surface_calls_and_rows(self, case_a, monkeypatch, engine, rows):
        # at most the pre-scan and three Newton passes, and no more rows than
        # the Illinois steps took (7 calls and 12,627 rows analytic, 8 and
        # 12,592 full)
        calls = self.record(monkeypatch)
        tmap = threshold_surface(engine, case_a[0], self.X_GRID, self.DNU_GRID)
        assert tmap.converged.all()
        assert len(calls["rows"]) <= 4 and sum(calls["rows"]) <= rows

    def test_failed_prescan_row_costs_no_call(self, case_a, monkeypatch):
        # one failed pre-scan row (an inf from the exact kernel at x = 1.05,
        # 3000 MHz) in a 5 x 13 surface block: the search takes the clean
        # run's calls, only that cell is nan and unconverged, and every other
        # cell keeps its bits
        x_grid = self.X_GRID[30:35]
        calls = self.record(monkeypatch)
        clean = threshold_surface("analytic", case_a[0], x_grid, self.DNU_GRID)
        clean_calls, clean_rows = len(calls["rows"]), sum(calls["rows"])
        alpha, beta = threshold._cell_slopes(case_a[0], x_grid[:1], self.DNU_GRID[7:8])
        scan = np.geomspace(1.0, 50000.0, 20)[5]
        counting, hits = doppler._weak_probe_curvature, []

        def failing(scheme, drive, a, b, rabi_2):
            ok, vals = counting(scheme, drive, a, b, rabi_2)
            hit = ((a == alpha[0]) & (b == beta[0]) & (rabi_2 == scan))[ok]
            hits.append(hit.sum())
            return ok, np.where(hit, np.inf, vals)

        monkeypatch.setattr(doppler, "_weak_probe_curvature", failing)
        calls["rows"].clear()
        tmap = threshold_surface("analytic", case_a[0], x_grid, self.DNU_GRID)
        assert sum(hits) == 1
        assert len(calls["rows"]) == clean_calls and sum(calls["rows"]) < clean_rows
        failed = np.zeros(clean.omega_t.shape, dtype=bool)
        failed[0, 7] = True
        assert np.isnan(tmap.omega_t[failed]).all() and not tmap.converged[failed].any()
        assert clean.converged.all() and tmap.converged[~failed].all()
        assert np.array_equal(tmap.omega_t[~failed], clean.omega_t[~failed])
        assert np.array_equal(tmap.non_monotonic, clean.non_monotonic & ~failed)


class TestNewtonPairs:
    """The refinement on synthetic curvature profiles f(ln Omega_2 - ln r)
    of one cell pre-scanned over 1 MHz to 50 GHz (x = 0.5)."""

    SCAN = np.geomspace(1.0, 50000.0, 20)
    # the root mid-interval, just above and just below a scan point, and in
    # the first and last scan intervals
    ROOTS = {"mid": math.sqrt(SCAN[7] * SCAN[8]), "above": SCAN[7] * (1 + 1e-4),
             "below": SCAN[8] * (1 - 1e-4), "bottom": SCAN[0] * 1.01,
             "top": SCAN[18] * 1.01}
    # (profile, bound on lockstep calls): a steep tanh has zero central
    # differences away from its root; d^3 zero slope at its root, where
    # Newton converges linearly and the stall rule takes midpoints; sign(d)
    # zero central differences everywhere but at its root, so the secant
    # point of its +-1 ends bisects the bracket
    PROFILES = {"tanh": (lambda d: np.tanh(100.0 * d), 7),
                "cube": (lambda d: d ** 3, 16),
                "sign": (np.sign, 10),
                "expm1": (np.expm1, 3)}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("root", list(ROOTS))
    @pytest.mark.parametrize("profile", list(PROFILES))
    def test_converges_to_root(self, case_a, monkeypatch, profile, root):
        f, bound = self.PROFILES[profile]
        r = self.ROOTS[root]
        calls = []

        def synthetic(engine, scheme, drive, alpha, beta, rabi_2, msum):
            calls.append(len(rabi_2))
            return f(np.log(rabi_2) - np.log(r))

        monkeypatch.setattr(threshold, "_curvature_rows", synthetic)
        res = threshold_rabi("analytic", case_a[0], 0.5, DOP)
        assert res.converged and not res.non_monotonic
        assert abs(res.omega_t / r - 1) <= 5e-4
        assert len(calls) <= bound
        # the oracle's curvature_at_zero goes through the same profile
        assert scalar_search("analytic", case_a[0], 0.5, DOP) == res

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failure_in_a_pass_fails_its_cell_only(self, case_a, monkeypatch):
        # the 200 MHz cell fails within 1% of its root, where no scan point
        # lies: a Newton pass, not the pre-scan, meets the failure
        r = self.ROOTS["mid"]
        cut = threshold._cell_slopes(case_a[0], np.array([0.5]),
                                     np.array([200.0, 1100.0]))[0].mean()

        def synthetic(engine, scheme, drive, alpha, beta, rabi_2, msum):
            d = np.log(rabi_2) - np.log(r)
            return np.where((alpha < cut) & (np.abs(d) < 0.01), np.nan, np.expm1(d))

        monkeypatch.setattr(threshold, "_curvature_rows", synthetic)
        tmap = threshold_surface("analytic", case_a[0], np.array([0.5]),
                                 np.array([200.0, 1100.0]))
        assert tmap.converged.tolist() == [[False, True]]
        assert np.isnan(tmap.omega_t[0, 0])
        assert tmap.omega_t[0, 1] == threshold_rabi("analytic", case_a[0], 0.5, DOP).omega_t


class TestCurvatureRows:
    OMEGAS = np.geomspace(0.7, 40000.0, 9)

    def check(self, engine, scheme, cells, omegas, msum=None, rabi_1=1.0):
        drive = ca.DriveParams(rabi_1=rabi_1, rabi_2=0.0)
        row_cells = [cell for cell in cells for _ in omegas]
        rabi_2 = np.tile(omegas, len(cells))
        got = _curvature_rows(engine, scheme, drive, *slopes(row_cells), rabi_2, msum)
        for cell, om, val in zip(row_cells, rabi_2, got):
            ref = curvature_at_zero(engine, cell.scheme,
                                    replace(cell.drive, rabi_2=float(om)), cell.dopp,
                                    msum=msum)
            assert val == ref

    @pytest.mark.parametrize("msum", [False, True])
    def test_analytic(self, case_a, msum):
        scheme = case_a[0]
        cells = [make_cell(scheme, x, ca.DopplerParams(fwhm=dnu), 1.0)
                 for x, dnu in ((-1.9, 200.0), (-0.5, 1100.0), (0.05, 20000.0),
                                (0.5, 0.0))]          # zero width: u = 0
        wts = weights(scheme.j2, scheme.j3) if msum else None
        self.check("analytic", scheme, cells, self.OMEGAS, msum=wts)

    @pytest.mark.parametrize("msum", [False, True])
    def test_full(self, case_b, msum):
        scheme = case_b[0]
        cells = [make_cell(scheme, x, DOP, 36.0) for x in (-1.1162, -0.5, 0.5)]
        wts = weights(scheme.j2, scheme.j3) if msum else None
        self.check("full", scheme, cells, self.OMEGAS[::2], msum=wts, rabi_1=36.0)

    def test_bits_do_not_depend_on_block_size(self, case_a, monkeypatch):
        # 8 rows times 4 folded weights: one block of every point, which the
        # kernel gets as the arrays themselves; the same rows among a
        # zero-width row and a refused row (x = -1, where D is linear), whose
        # pending points are gathered; and blocks of 7 that straddle the rows
        scheme = case_a[0]
        drive, wts = ca.DriveParams(rabi_1=1.0, rabi_2=0.0), weights(3, 3)
        pairs = random_cells(scheme, np.random.default_rng(14), 8, 1.0)
        alpha, beta = slopes([c for c, _ in pairs])
        rabi_2 = np.array([om for _, om in pairs])
        calls = []
        kernel = doppler._weak_probe_curvature

        def counting(sch, drv, a, b, om):
            calls.append(len(om))
            return kernel(sch, drv, a, b, om)

        monkeypatch.setattr(doppler, "_weak_probe_curvature", counting)
        ref = _curvature_rows("analytic", scheme, drive, alpha, beta, rabi_2, wts)
        assert calls == [8 * 4]

        linear = make_cell(scheme, -1.0, DOP, 1.0)
        before = [2, 6]                  # the extra rows go before rows 2 and 6
        mixed = (np.insert(alpha, before, [0.0, linear.alpha]),
                 np.insert(beta, before, [0.0, linear.beta]), np.insert(rabi_2, before, 300.0))
        calls.clear()
        got = _curvature_rows("analytic", scheme, drive, *mixed, wts)
        assert calls == [9 * 4]                   # the zero-width row skips the kernel
        assert np.array_equal(np.delete(got, [2, 7]), ref)
        assert np.isfinite(got).all()

        calls.clear()
        monkeypatch.setattr(doppler, "_RESONANT_BLOCK", 7)
        assert np.array_equal(_curvature_rows("analytic", scheme, drive, alpha, beta,
                                              rabi_2, wts), ref)
        assert sum(calls) == 8 * 4 and max(calls) <= 7

    @pytest.mark.parametrize("msum", [False, True])
    @pytest.mark.parametrize("engine", doppler.ENGINES)
    def test_zero_rows_call_no_kernel(self, case_a, engine, msum, monkeypatch):
        # the pre-scan of an empty grid: an empty array, no kernel or
        # stencil call
        def unreachable(*args):
            raise AssertionError("curvature route called without rows")

        monkeypatch.setattr(doppler, "_row_average", unreachable)
        monkeypatch.setattr(doppler, "_weak_probe_curvature", unreachable)
        empty = np.empty(0)
        got = _curvature_rows(engine, case_a[0], ca.DriveParams(rabi_1=1.0, rabi_2=0.0),
                              empty, empty, empty, weights(3, 3) if msum else None)
        assert got.shape == (0,)

    @pytest.mark.parametrize("engine", doppler.ENGINES)
    def test_off_resonance_refused(self, case_a, engine, monkeypatch):
        # both routes rest on Delta_2 = 0: off it the mirrored half stencil
        # gives 25 times the 5-point curvature.  The check comes before any
        # kernel or stencil call
        scheme, _, dopp = case_a
        drive = ca.DriveParams(rabi_1=0.65, rabi_2=400.0, detuning_2=60.0)
        alpha, beta = doppler_slopes(scheme, drive, dopp)

        def unreachable(*args):
            raise AssertionError("curvature route called off resonance")

        monkeypatch.setattr(doppler, "_row_average", unreachable)
        monkeypatch.setattr(doppler, "_weak_probe_curvature", unreachable)
        with pytest.raises(ConfigError, match="resonant coupling"):
            _curvature_rows(engine, scheme, drive, np.array([alpha]), np.array([beta]),
                            np.array([drive.rabi_2]), None)

    def test_refused_row(self, case_b, monkeypatch):
        # at this Omega_2 the roots of D coincide at Delta_1 = 0: the exact
        # curvature refuses the row, which takes the half stencil, and of
        # that only the middle point takes the per-point numeric sum; the
        # row keeps the oracle's bits
        scheme = case_b[0]
        cell = make_cell(scheme, -1.1162, ca.DopplerParams(fwhm=500.0), 1.0)
        om = coincident_roots_drive(cell.scheme, cell.drive, cell.dopp).rabi_2
        omegas = np.array([om / 2, om, 2 * om])
        numeric = []
        point = doppler._numeric_point

        def recording(model, sch, drv, delta1, *args):
            numeric.append((drv.rabi_2, delta1))
            return point(model, sch, drv, delta1, *args)

        with monkeypatch.context() as patch:
            patch.setattr(doppler, "_numeric_point", recording)
            _curvature_rows("analytic", scheme, ca.DriveParams(rabi_1=1.0, rabi_2=0.0),
                            *slopes([cell] * 3), omegas, None)
        assert numeric == [(om, 0.0)]
        self.check("analytic", scheme, [cell], omegas)


def slopes(cells):
    """Per-row Doppler slopes (alpha, beta) of ``_curvature_rows``."""
    return np.array([c.alpha for c in cells]), np.array([c.beta for c in cells])


def random_cells(scheme, rng, n, rabi_1):
    """n random (cell, Omega_2) pairs over both signs of x, Doppler widths
    100-5000 MHz and Omega_2 0.7-40000 MHz, outside the singular bands."""
    pairs = []
    while len(pairs) < n:
        x = rng.choice([-1.0, 1.0]) * rng.uniform(0.03, 2.0)
        if abs(x + 1.0) < 0.03:
            continue
        dopp = ca.DopplerParams(fwhm=rng.uniform(100.0, 5000.0))
        om = float(np.exp(rng.uniform(np.log(0.7), np.log(40000.0))))
        pairs.append((make_cell(scheme, x, dopp, rabi_1), om))
    return pairs


class TestEvenStencil:
    """At resonant coupling I3 is even in Delta_1 for every engine, so the
    curvature stencil (engines perturbative and full, and the analytic rows
    the exact curvature refuses) is evaluated at 0, h and 2h only and
    mirrored."""

    @staticmethod
    def i3(engine, cell, rabi_2, grid, msum):
        def op(drv):
            return doppler.intensities(engine, cell.scheme, drv, cell.dopp, grid)[1]

        drive = replace(cell.drive, rabi_2=rabi_2)
        return op(drive) if msum is None else m_summed(op, msum, drive)

    @staticmethod
    def rows(scheme, rabi_1, engine):
        """Rows that take the half stencil: zero-width rows, plus random cells
        for the engines without an exact curvature, or for ``analytic`` the
        row whose roots of D coincide at Delta_1 = 0."""
        pairs = [(make_cell(scheme, x, ca.DopplerParams(fwhm=0.0), rabi_1), om)
                 for x, om in ((-0.5, 30.0), (0.5, 2000.0))]
        if engine == "analytic":
            cell = make_cell(scheme, -1.1162, ca.DopplerParams(fwhm=500.0), rabi_1)
            pairs.append((cell, coincident_roots_drive(cell.scheme, cell.drive,
                                                       cell.dopp).rabi_2))
        else:
            pairs += random_cells(scheme, np.random.default_rng(10), 4, rabi_1)
        return pairs

    @pytest.mark.parametrize("msum", [False, True])
    @pytest.mark.parametrize("engine", doppler.ENGINES)
    def test_i3_even_in_probe_detuning(self, case_b, engine, msum):
        scheme, drive, _ = case_b
        wts = weights(scheme.j2, scheme.j3) if msum else None
        rng = np.random.default_rng(11)
        # weak probe and case b's strong probe
        pairs = (random_cells(scheme, rng, 3, 1.0)
                 + random_cells(scheme, rng, 2, drive.rabi_1))
        delta1 = np.exp(rng.uniform(np.log(0.5), np.log(400.0), 4))
        for cell, om in pairs:
            f = self.i3(engine, cell, om, np.concatenate((delta1, -delta1)), wts)
            plus, minus = f[:4], f[4:]
            if engine == "analytic":
                assert np.array_equal(plus, minus)
            else:
                np.testing.assert_allclose(minus, plus, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("msum", [False, True])
    @pytest.mark.parametrize("engine", doppler.ENGINES)
    def test_half_stencil_matches_full_stencil(self, case_b, engine, msum):
        # the curvature of an M sum is the multiplicity-weighted sum of the
        # components' curvatures, in folded_sum's order
        scheme = case_b[0]
        wts = weights(scheme.j2, scheme.j3) if msum else None
        pairs = self.rows(scheme, 1.0, engine)
        if engine == "analytic" and msum:
            # the M components of the refused row other than the refused one
            # take the exact curvature (TestExactCurvature)
            pairs = pairs[:-1]
        cells, omegas = [c for c, _ in pairs], np.array([om for _, om in pairs])
        got = _curvature_rows(engine, scheme, ca.DriveParams(rabi_1=1.0, rabi_2=0.0),
                              *slopes(cells), omegas, wts)
        coef = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
        for (cell, om), val in zip(pairs, got):
            h = max(0.5, om / 200.0)

            def stencil(drv):
                f = doppler.intensities(engine, cell.scheme, drv, cell.dopp,
                                        h * _STENCIL)[1]
                return np.array([_second_derivative(f, h),
                                 np.sum(np.abs(coef * f)) / (12 * h * h)])

            drive = replace(cell.drive, rabi_2=om)
            ref, scale = stencil(drive) if wts is None else m_summed(stencil, wts, drive)
            if engine == "analytic":
                assert val == ref
            else:
                assert abs(val - ref) <= 1e-9 * scale

    @pytest.mark.parametrize("msum", [False, True])
    def test_three_detunings_per_row_and_weight(self, case_b, monkeypatch, msum):
        scheme = case_b[0]
        wts = weights(scheme.j2, scheme.j3) if msum else None
        n_weights = len(wts.folded()) if msum else 1
        pairs = random_cells(scheme, np.random.default_rng(12), 3, 1.0)
        rows = (ca.DriveParams(rabi_1=1.0, rabi_2=0.0), *slopes([c for c, _ in pairs]),
                np.array([om for _, om in pairs]), wts)
        grids = []
        average = doppler._row_average

        def recording(engine, sch, drv, grid, *args, **kwargs):
            grids.append(np.broadcast_shapes(np.shape(grid), *map(np.shape, args[:3])))
            return average(engine, sch, drv, grid, *args, **kwargs)

        monkeypatch.setattr(doppler, "_row_average", recording)
        _curvature_rows("perturbative", scheme, *rows)
        assert grids == [(len(pairs) * n_weights, 3)]
        grids.clear()
        cell, om = pairs[0]
        curvature_at_zero("perturbative", cell.scheme, replace(cell.drive, rabi_2=om),
                          cell.dopp, msum=wts)
        assert grids == [(n_weights, 3)]
        grids.clear()
        # analytic rows the exact curvature accepts take no stencil point
        _curvature_rows("analytic", scheme, *rows)
        assert grids == []


class TestExactCurvature:
    """The exact analytic curvature against 5-point stencils over two
    averages: the analytic engine's partial fractions, and the numeric sum
    of ``average("perturbative")``, which uses neither partial fractions nor
    the Faddeeva function.  The tolerance, fixed before measuring, is 1e-4
    of f(0)/h^2, the stencil's own scale."""

    TOL = 1e-4
    # (x, Doppler FWHM, Omega_2): region II, |x| > 1, co-propagating cells,
    # both sides of the singular bands, Omega_2 at the 0.5 MHz step floor
    # (Omega_2 <= 100 MHz) and above it
    CASES = [(-0.5, 1100.0, 15.0), (-0.9219, 1100.0, 60.0), (-0.05, 200.0, 30000.0),
             (-1.5, 500.0, 300.0), (-1.9, 3000.0, 2000.0), (0.5, 1100.0, 2500.0),
             (1.9, 200.0, 1.0), (0.05, 20000.0, 40.0)]

    @staticmethod
    def analytic(cell, drive, grid):
        return doppler.intensities("analytic", cell.scheme, drive, cell.dopp, grid)[1]

    @staticmethod
    def numeric(cell, drive, grid):
        return doppler.average("perturbative", cell.scheme, drive, cell.dopp,
                               ca.QuadratureRule.gauss_hermite(200), grid)[1]

    def check(self, scheme, pairs, msum, average):
        got = _curvature_rows("analytic", scheme, ca.DriveParams(rabi_1=1.0, rabi_2=0.0),
                              *slopes([c for c, _ in pairs]),
                              np.array([om for _, om in pairs]), msum)
        for (cell, om), val in zip(pairs, got):
            h = max(0.5, om / 200.0)
            drive = replace(cell.drive, rabi_2=om)

            def op(drv):
                return average(cell, drv, h * _STENCIL)

            f = op(drive) if msum is None else m_summed(op, msum, drive)
            assert abs(val - _second_derivative(f, h)) <= self.TOL * f[2] / h ** 2

    def pairs(self, scheme):
        return [(make_cell(scheme, x, ca.DopplerParams(fwhm=dnu), 1.0), om)
                for x, dnu, om in self.CASES]

    # "q-line": J = 3 -> 3, whose M = 0 component has zero weight
    @pytest.mark.parametrize("msum", ["off", "q-line"])
    def test_against_analytic_stencil(self, case_a, msum):
        scheme = case_a[0]
        wts = weights(3, 3) if msum == "q-line" else None
        pairs = self.pairs(scheme) + random_cells(scheme, np.random.default_rng(13), 40, 1.0)
        # the row whose roots of D coincide at Delta_1 = 0 for the strongest
        # M component: that component takes the stencil, the others are exact
        cell = make_cell(scheme, -1.5, ca.DopplerParams(fwhm=500.0), 1.0)
        pairs.append((cell, coincident_roots_drive(cell.scheme, cell.drive,
                                                   cell.dopp).rabi_2))
        self.check(scheme, pairs, wts, self.analytic)

    @pytest.mark.parametrize("msum", ["off", "q-line"])
    def test_against_numeric_stencil(self, case_a, msum):
        scheme = case_a[0]
        wts = weights(3, 3) if msum == "q-line" else None
        self.check(scheme, self.pairs(scheme), wts, self.numeric)

    # the top of the search's bracket, where the partial fractions cancel
    # most: Omega_2 of 20 and 50 GHz at both ends of the Doppler widths
    BRACKET_TOP = [(x, dnu, om) for x in (-1.95, -0.5, 0.5, 1.95) for dnu in (200.0, 5000.0)
                   for om in (2e4, 5e4)]

    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_bracket_top_against_numeric_stencil(self, case):
        scheme = ca.preset(case)[0]
        pairs = [(make_cell(scheme, x, ca.DopplerParams(fwhm=dnu), 1.0), om)
                 for x, dnu, om in self.BRACKET_TOP]
        self.check(scheme, pairs, None, self.numeric)


class TestSweepErrors:
    GRID = np.array([-0.5, 0.5])

    def test_bug_propagates(self, case_a, monkeypatch):
        # a failed row comes back as a nan curvature, so every exception of
        # the curvature layer, a NumericalError too, propagates
        for exc in (ZeroDivisionError, ConfigError, NumericalError):
            def broken(*args, **kwargs):
                raise exc("bug in the curvature")

            monkeypatch.setattr(threshold, "_curvature_rows", broken)
            with pytest.raises(exc):
                threshold_curve("analytic", case_a[0], self.GRID, DOP)

    def test_numerical_failure_marks_cell_unconverged(self, case_a, monkeypatch):
        plain = threshold_curve("analytic", case_a[0], self.GRID, DOP)
        rows = threshold._curvature_rows

        def failing(engine, scheme, drive, alpha, beta, rabi_2, msum):
            # nan rows at the co-propagating cell x = 0.5
            return np.where(beta > 0, np.nan, rows(engine, scheme, drive, alpha, beta,
                                                    rabi_2, msum))

        monkeypatch.setattr(threshold, "_curvature_rows", failing)
        tmap = threshold_curve("analytic", case_a[0], self.GRID, DOP)
        assert np.isnan(tmap.omega_t[1, 0]) and not tmap.converged[1, 0]
        assert tmap.omega_t[0, 0] == plain.omega_t[0, 0]
        assert tmap.converged[0, 0] and plain.converged.all()
        assert not threshold_rabi("analytic", case_a[0], 0.5, DOP).converged

    def test_non_finite_exact_curvature_marks_cell_unconverged(self, case_a, monkeypatch):
        plain = threshold_curve("analytic", case_a[0], self.GRID, DOP)
        exact = doppler._weak_probe_curvature

        def overflowing(scheme, drive, alpha, beta, rabi_2):
            ok, vals = exact(scheme, drive, alpha, beta, rabi_2)
            # inf at the co-propagating cell x = 0.5
            return ok, np.where(beta[ok] > 0, np.inf, vals)

        monkeypatch.setattr(doppler, "_weak_probe_curvature", overflowing)
        cell = make_cell(case_a[0], 0.5, DOP, 1.0)
        assert np.isnan(_curvature_rows("analytic", case_a[0], cell.drive, *slopes([cell]),
                                        np.array([100.0]), None)).all()
        tmap = threshold_curve("analytic", case_a[0], self.GRID, DOP)
        assert np.isnan(tmap.omega_t[1, 0]) and not tmap.converged[1, 0]
        assert tmap.omega_t[0, 0] == plain.omega_t[0, 0] and tmap.converged[0, 0]
