import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import cascade_at as ca
from cascade_at import doppler
from cascade_at.errors import ConfigError, NumericalError
from cascade_at.lineshape import K_RHO22, K_RHO33, doppler_slopes
from cascade_at.liouville import (_D1, _D2, _pencil_parts, populations_batch,
                                  velocity_poles)
from cascade_at.model import rates
from cascade_at.msublevel import m_summed, weights
from conftest import coincident_roots_drive, seven_pole_sum

SQRTPI = math.sqrt(math.pi)


def quad_oracle(engine, observable, scheme, drive, dopp, delta1):
    """Independent adaptive-quadrature velocity average for spot checks."""
    alpha, beta = doppler_slopes(scheme, drive, dopp)
    den = ca.denominator_coefficients(scheme, delta1, drive.detuning_2, drive.rabi_2,
                                      alpha, beta)
    pts = [p.real for p in den.roots() if abs(p.real) < 11]
    if engine == "full":
        lam = velocity_poles(scheme, drive.rabi_1, delta1, drive.detuning_2,
                             drive.rabi_2, alpha, beta)[0]
        pts += [p.real for p in -1.0 / lam[np.abs(lam) > 1e-8] if abs(p.real) < 11]
    rp = rates(scheme)
    idx = 0 if observable == "I2" else 1
    gam = rp.Gamma_2 if observable == "I2" else rp.Gamma_3

    def f(u):
        if engine == "full":
            r = populations_batch(scheme, drive, np.array([delta1 + alpha * u]),
                                  np.array([drive.detuning_2 + beta * u]))
            val = r[idx][0]
        else:
            from cascade_at.lineshape import rho_weak_batch
            r = rho_weak_batch(scheme, drive, np.array([delta1 + alpha * u]),
                               np.array([drive.detuning_2 + beta * u]))
            val = r[idx][0]
        return math.exp(-u * u) * gam * val

    val, _ = quad(f, -11, 11, points=sorted(set(pts)) or None,
                  limit=600, epsabs=1e-300, epsrel=1e-10)
    return val / SQRTPI


class TestQuadratureRule:
    @pytest.mark.parametrize("n", [16, 63, 200, 400])
    def test_weights_sum_and_symmetry(self, n):
        rule = ca.QuadratureRule.gauss_hermite(n)
        assert abs(rule.weights.sum() - SQRTPI) < 1e-12
        assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=0)
        assert np.all(np.isfinite(rule.weights))

    def test_integrates_gaussian_moments(self):
        rule = ca.QuadratureRule.gauss_hermite(40)
        # int e^{-u^2} u^2 du = sqrt(pi)/2
        assert np.dot(rule.weights, rule.nodes ** 2) == pytest.approx(SQRTPI / 2, rel=1e-13)


class TestAverage:
    def test_zero_width_matches_fixed_velocity(self, case_a, gh200):
        scheme, drive, _ = case_a
        grid = np.linspace(-500, 500, 41)
        spec = ca.average("full", scheme, drive,
                          ca.DopplerParams(fwhm=0.0), gh200, grid)
        rp = rates(scheme)
        for k, d1 in enumerate(grid):
            r22, r33 = populations_batch(scheme, drive, [d1], [0.0])
            assert spec[1][k] == pytest.approx(rp.Gamma_3 * r33[0], rel=1e-12)
            assert spec[0][k] == pytest.approx(rp.Gamma_2 * r22[0], rel=1e-12)

    @pytest.mark.parametrize("engine", ["full", "perturbative"])
    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_against_adaptive_quadrature(self, engine, case, gh200):
        scheme, drive, dopp = ca.preset(case)
        for d1 in (0.0, 250.0, 900.0):
            spec = ca.average(engine, scheme, drive, dopp, gh200,
                              np.array([d1]))
            for row, obs in enumerate(("I2", "I3")):
                truth = quad_oracle(engine, obs, scheme, drive, dopp, d1)
                got = spec[row, 0]
                assert got == pytest.approx(truth, rel=1e-7)

    def test_order_convergence(self, case_a):
        # doubling the base order changes nothing beyond 1e-6 relative
        scheme, drive, dopp = case_a
        grid = np.linspace(-1200, 1200, 25)
        r200 = ca.QuadratureRule.gauss_hermite(200)
        r400 = ca.QuadratureRule.gauss_hermite(400)
        for engine in ("full", "perturbative"):
            a = ca.average(engine, scheme, drive, dopp, r200, grid)[1]
            b = ca.average(engine, scheme, drive, dopp, r400, grid)[1]
            assert np.max(np.abs(a - b) / b) < 1e-6

    def test_rule_order_minimum(self, case_a):
        scheme, drive, dopp = case_a
        rule = ca.QuadratureRule.gauss_hermite(8)
        with pytest.raises(ConfigError):
            ca.average("full", scheme, drive, dopp, rule, np.array([0.0]))

    def test_unknown_engine(self, case_a, gh200):
        scheme, drive, dopp = case_a
        with pytest.raises(ConfigError):
            ca.average("exact", scheme, drive, dopp, gh200, np.array([0.0]))


class TestAnalytic:
    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_matches_numeric_average(self, case, gh200):
        scheme, drive, dopp = ca.preset(case)
        grid = np.linspace(-1400, 1400, 29)
        an = ca.intensities("analytic", scheme, drive, dopp, grid)[1]
        num = ca.average("perturbative", scheme, drive, dopp, gh200, grid)[1]
        assert np.max(np.abs(an - num) / num) < 1e-6

    def test_analytic_i2_matches_numeric(self, case_b, gh200):
        scheme, drive, dopp = case_b
        grid = np.linspace(-900, 900, 19)
        an = ca.intensities("analytic", scheme, drive, dopp, grid)[0]
        num = ca.average("perturbative", scheme, drive, dopp, gh200, grid)[0]
        assert np.max(np.abs(an - num) / num) < 1e-6

    def test_small_width_recovers_fixed_velocity(self, case_a):
        scheme, drive, _ = case_a
        tiny = ca.DopplerParams(fwhm=1e-3)
        grid = np.array([0.0, 120.0, 360.0])
        an = ca.intensities("analytic", scheme, drive, tiny, grid)[1]
        fixed = ca.intensities("analytic", scheme, drive, ca.DopplerParams(fwhm=0.0), grid)[1]
        assert np.max(np.abs(an - fixed) / fixed) < 1e-3

    def test_symmetry_resonant_coupling(self, case_a):
        scheme, drive, dopp = case_a
        grid = np.linspace(5.0, 1205.0, 25)
        plus = ca.intensities("analytic", scheme, drive, dopp, grid)[1]
        minus = ca.intensities("analytic", scheme, drive, dopp, -grid)[1]
        assert np.max(np.abs(plus - minus) / plus) < 1e-8

    def test_positive_and_finite(self, case_b):
        scheme, drive, dopp = case_b
        grid = np.linspace(-2000, 2000, 81)
        spec = ca.intensities("analytic", scheme, drive, dopp, grid)
        assert np.all(np.isfinite(spec[1])) and np.all(spec[1] >= 0)

    def test_equivalence_across_ratios_and_widths(self, case_a):
        # analytic route vs numeric average over geometry and width variants
        from cascade_at.threshold import _geometry_for_x
        scheme = case_a[0]
        rule = ca.QuadratureRule.gauss_hermite(200)
        grid = np.linspace(-1200, 1200, 31)
        for x in (-0.5, -0.9219, -1.1162, 0.9):
            sch, drv = _geometry_for_x(scheme, x, 6.0)
            drv = replace(drv, rabi_2=400.0)
            for dnu in (300.0, 1100.0, 3000.0):
                dopp = ca.DopplerParams(fwhm=dnu)
                an = ca.intensities("analytic", sch, drv, dopp, grid)[1]
                num = ca.average("perturbative", sch, drv, dopp,
                                 rule, grid)[1]
                assert np.max(np.abs(an - num) / num) < 1e-4


class TestDegeneratePoles:
    @pytest.mark.parametrize("observable", ["I2", "I3"])
    def test_fallback_beside_partial_fractions(self, case_b, gh200, observable,
                                               monkeypatch):
        # the middle point has a double root and takes the refined numeric
        # rule; the outer two take the partial fractions, in the same call
        scheme, drive, dopp = case_b
        drv = coincident_roots_drive(scheme, drive, dopp)
        grid = np.array([-5.0, 0.0, 5.0])
        row = ("I2", "I3").index(observable)
        num = ca.average("perturbative", scheme, drv, dopp, gh200, grid)[row]

        fallbacks, w_shapes = [], []
        rule, w = doppler._refined_rule, doppler.faddeeva_w
        monkeypatch.setattr(doppler, "_refined_rule",
                            lambda roots, *a: fallbacks.append(roots) or rule(roots, *a))
        monkeypatch.setattr(doppler, "faddeeva_w",
                            lambda z: w_shapes.append(np.shape(z)) or w(z))
        analytic = getattr(doppler, f"average_analytic_{observable}")
        an = analytic(scheme, drv, dopp, grid)[row]

        assert len(fallbacks) == 1
        assert w_shapes == [(2, 2)]         # the two roots of D at the two outer points
        assert np.max(np.abs(an - num) / num) < 1e-6
        # the fallback is that same GH200 average, so check the middle point
        # against adaptive quadrature as well
        truth = quad_oracle("perturbative", observable, scheme, drv, dopp, 0.0)
        assert an[1] == pytest.approx(truth, rel=1e-7)


class TestFullExact:
    """The exact pole expansion of the full engine against the pole-refined
    numeric average, its independent oracle."""

    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_msum_spectra_match_numeric_average(self, case, gh200):
        scheme, drive, dopp = ca.preset(case)
        wts = weights(scheme.j2, scheme.j3)
        grid = np.linspace(-1500.0, 1500.0, 61)

        def exact(drv):
            return doppler.intensities("full", scheme, drv, dopp, grid)

        def numeric(drv):
            return ca.average("full", scheme, drv, dopp, gh200, grid)

        got, ref = m_summed(exact, wts, drive), m_summed(numeric, wts, drive)
        for row, ref_row in zip(got, ref):
            assert np.max(np.abs(row - ref_row)) < 1e-6 * ref_row.max()

    @staticmethod
    def dense_average(scheme, drive, dopp, delta1):
        """(I2, I3) at one probe detuning on 16 000 uniform 12-point
        Gauss-Legendre panels over [-6.5, 6.5] (192k nodes)."""
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        nodes, wts = np.polynomial.legendre.leggauss(12)
        edges = np.linspace(-6.5, 6.5, 16001)
        sums = np.zeros(2)
        for lo in range(0, 16000, 4000):
            e = edges[lo:lo + 4001]
            mid, half = (e[:-1] + e[1:]) / 2, (e[1:] - e[:-1]) / 2
            t = (mid[:, None] + half[:, None] * nodes).ravel()
            wt = (half[:, None] * wts).ravel() * np.exp(-t * t)
            pops = populations_batch(scheme, drive, delta1 + alpha * t,
                                     drive.detuning_2 + beta * t)
            sums += [wt @ pops[0], wt @ pops[1]]
        rp = rates(scheme)
        return np.array([rp.Gamma_2, rp.Gamma_3]) * sums / SQRTPI

    def test_dense_quadrature_stress_point(self):
        from cascade_at.threshold import _geometry_for_x
        points = [
            # x = 0.05 with a saturating probe and a weak coupling: the strong
            # probe splits the two-photon class into poles 6e-4 from the real
            # axis, near u = -0.0104 and +0.0118
            (0.05, 300.0, 1.0, 1100.0, -20.0, 1e-8),
            # x = -0.05 with a weak probe, a very strong coupling and a wide
            # Doppler profile, far out on the probe wing
            (-0.05, 0.65, 5e4, 5000.0, 1000.0, 1e-9),
        ]
        for x, rabi_1, rabi_2, fwhm, delta1, tol in points:
            scheme, drive = _geometry_for_x(ca.preset("case_a")[0], x, rabi_1)
            drive = replace(drive, rabi_2=rabi_2)
            dopp = ca.DopplerParams(fwhm=fwhm)
            dense = self.dense_average(scheme, drive, dopp, delta1)
            got = doppler.intensities("full", scheme, drive, dopp,
                                      np.array([delta1]))[:, 0]
            assert np.all(np.abs(got - dense) < tol * dense), (x, got, dense)

    def test_numeric_oracle_at_stress_point(self, gh200):
        # the oracle itself at the first stress point: its refinement
        # windows must land on the split two-photon poles, which no root of D
        # marks
        from cascade_at.threshold import _geometry_for_x
        scheme, drive = _geometry_for_x(ca.preset("case_a")[0], 0.05, 300.0)
        drive = replace(drive, rabi_2=1.0)
        dopp = ca.DopplerParams(fwhm=1100.0)
        grid = np.array([-31.0, -20.0, 0.0, 20.0, 31.0])
        spec = ca.average("full", scheme, drive, dopp, gh200, grid)
        for k, delta1 in enumerate(grid):
            dense = self.dense_average(scheme, drive, dopp, delta1)
            got = spec[:, k]
            assert np.all(np.abs(got - dense) < 1e-6 * dense), (delta1, got, dense)

    @pytest.mark.parametrize("x,rabi_2", [(-1.02, 400.0), (-0.9219, 0.0)])
    def test_near_singular_geometry_and_no_coupling(self, case_a, gh200, x, rabi_2):
        # x -> -1 drives the two-photon eigenvalues of M towards zero;
        # Omega_2 = 0 decouples level 3 altogether
        from cascade_at.threshold import _geometry_for_x
        scheme, drive = _geometry_for_x(case_a[0], x, 6.0)
        drive = replace(drive, rabi_2=rabi_2)
        dopp = case_a[2]
        grid = np.array([-400.0, -35.0, 0.0, 120.0])
        got = doppler.intensities("full", scheme, drive, dopp, grid)
        ref = ca.average("full", scheme, drive, dopp, gh200, grid)
        for row, ref_row in zip(got, ref):
            assert np.all(np.isfinite(row))
            assert np.max(np.abs(row - ref_row)) <= 1e-6 * ref_row.max()

    @staticmethod
    def refuse_worst(case_a, gh200, monkeypatch, name, choose):
        """Set the refusal limit ``name`` to the value ``choose(lam, res)``
        gives with the index of the worst point of a small grid, and check
        that this point, and no other, takes the numeric sum and gets its
        bits, while every other point keeps its exact bits."""
        scheme, drive, dopp = case_a
        grid = np.array([-300.0, -10.0, 0.0, 250.0])
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        lam, res = velocity_poles(scheme, drive.rabi_1, grid, drive.detuning_2,
                                  drive.rabi_2, alpha, beta)
        worst, limit = choose(lam, res)
        monkeypatch.setattr(doppler, name, limit)
        calls = []
        numeric = doppler._numeric_point
        monkeypatch.setattr(doppler, "_numeric_point",
                            lambda model, sch, drv, delta1, *a:
                            calls.append(delta1) or numeric(model, sch, drv, delta1, *a))
        got = doppler.intensities("full", scheme, drive, dopp, grid)
        monkeypatch.undo()

        assert calls == [grid[worst]]
        point = ca.average("full", scheme, drive, dopp, gh200, grid[worst:worst + 1])
        assert np.array_equal(got[:, worst], point[:, 0])
        exact = doppler.intensities("full", scheme, drive, dopp, grid)
        rest = np.arange(len(grid)) != worst
        assert np.array_equal(got[:, rest], exact[:, rest])
        assert np.all(np.abs(got[:, worst] - exact[:, worst]) < 1e-6 * exact.max(axis=1))

    def test_separation_fallback(self, case_a, gh200, monkeypatch):
        # raise the separation limit to between the closest and the next
        # closest pole pair of the grid: the point with the closest pair is
        # refused
        def limit(lam, res):
            sep = doppler._pole_separation(lam)
            low, next_low = np.sort(sep)[:2]
            return int(np.argmin(sep)), math.sqrt(low * next_low)

        self.refuse_worst(case_a, gh200, monkeypatch, "_DEGENERATE_SEP", limit)

    def test_rounding_fallback(self, case_a, gh200, monkeypatch):
        # lower the rounding limit to between the worst and the next worst
        # estimate eps sum |t_k| / |sum t_k| of the grid: the point with the
        # worst is refused
        def limit(lam, res):
            terms = doppler._full_engine_terms(lam, res)
            loss = (doppler._EPS * np.abs(terms).sum(axis=-1)
                    / np.abs(terms.sum(axis=-1))).max(axis=-1)
            next_high, high = np.sort(loss)[-2:]
            return int(np.argmax(loss)), math.sqrt(high * next_high)

        self.refuse_worst(case_a, gh200, monkeypatch, "_MAX_ROUNDING_ERROR", limit)


class TestIntensities:
    GRID = np.linspace(-600.0, 600.0, 7)

    @pytest.mark.parametrize("engine", ["full", "perturbative", "analytic"])
    @pytest.mark.parametrize("observable", ["I2", "I3", "both"])
    def test_rows_match_direct_calls(self, case_a, gh200, engine, observable):
        # the rows come I2 first; an observable picks its rows by that order,
        # as the spectrum command picks its columns
        scheme, drive, dopp = case_a
        rows = doppler.intensities(engine, scheme, drive, dopp, self.GRID)
        if engine == "full":
            expected = doppler._row_average("full", scheme, drive, self.GRID,
                                            *doppler_slopes(scheme, drive, dopp),
                                            drive.rabi_2)
        else:
            spec = (ca.intensities("analytic", scheme, drive, dopp, self.GRID)
                    if engine == "analytic"
                    else ca.average(engine, scheme, drive, dopp, gh200, self.GRID))
            expected = spec
        assert rows.shape == (2, len(self.GRID))
        picked = [i for i, n in enumerate(("I2", "I3")) if observable in (n, "both")]
        for i in picked:
            assert np.array_equal(rows[i], expected[i])

    def test_analytic_both_in_one_pass(self, case_a, monkeypatch):
        # an analytic spectrum makes one Faddeeva call of shape (n, 2), on
        # the two roots of D at every point: I2 and I3 share the roots, the
        # pole products and that call
        shapes, w = [], doppler.faddeeva_w
        monkeypatch.setattr(doppler, "faddeeva_w",
                            lambda z: shapes.append(np.shape(z)) or w(z))
        for name in ("I2", "I3"):
            getattr(doppler, f"average_analytic_{name}")(*case_a, self.GRID)
        ca.intensities("analytic", *case_a, self.GRID)
        assert shapes == [(len(self.GRID), 2)] * 3

    def test_unknown_engine(self, case_a):
        with pytest.raises(ConfigError, match="engine must be one of"):
            doppler.intensities("exact", *case_a, self.GRID)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("call", ["analytic", "full", "perturbative", "average-full",
                                      "average-perturbative"])
    def test_non_finite_grid_is_bad_input(self, case_a, gh200, call, bad):
        grid = np.array([bad, 0.0])
        with pytest.raises(ConfigError, match="probe-detuning grid must be finite"):
            if call.startswith("average-"):
                doppler.average(call.split("-")[1], *case_a, gh200, grid)
            else:
                doppler.intensities(call, *case_a, grid)


class TestValidatedIntensity:
    # (observable, row, point): two rows of two points, I2 first
    CLEAN = np.array([[[1.0, -5e-10], [2.0, 0.5]], [[3.0, 0.25], [4.0, 1.0]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-8])
    @pytest.mark.parametrize("observable", [0, 1])
    def test_failed_row_is_nan_in_both_observables(self, bad, observable):
        # a non-finite value, or a negative one beyond 1e-9 of its row's
        # peak, in either observable fails the row; the other row keeps its
        # clipped bits
        vals = self.CLEAN.copy()
        vals[observable, 1, 1] = bad
        got = doppler._validated_intensity(vals)
        assert np.isnan(got[:, 1]).all()
        assert np.array_equal(got[:, 0], [[1.0, 0.0], [3.0, 0.25]])

    def test_rounding_negative_clipped(self):
        assert np.array_equal(doppler._validated_intensity(self.CLEAN),
                              np.maximum(self.CLEAN, 0.0))

    def test_each_row_against_its_own_peak(self):
        # -5e-10 is rounding in a row of peak 1, but 5e-4 of a row of peak 1e-6
        rows = np.array([[[1.0, -5e-10], [1e-6, -5e-10]]] * 2)
        got = doppler._validated_intensity(rows)
        assert np.array_equal(got[:, 0], [[1.0, 0.0]] * 2)
        assert np.isnan(got[:, 1]).all()

    @staticmethod
    def check_spectra_raise(case_a, gh200, monkeypatch, bad):
        """A spectrum is asked for by a user: ``bad`` as I2 at one point
        makes both ``intensities`` and ``average`` raise."""
        point = doppler._numeric_point

        def failing(*args):
            i2, i3 = point(*args)
            return (bad, i3) if args[3] == 0.0 else (i2, i3)

        monkeypatch.setattr(doppler, "_numeric_point", failing)
        grid = np.array([-100.0, 0.0, 100.0])
        with pytest.raises(NumericalError, match="non-finite or significantly negative"):
            doppler.intensities("perturbative", *case_a, grid)
        with pytest.raises(NumericalError, match="non-finite or significantly negative"):
            doppler.average("perturbative", *case_a, gh200, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, case_a, gh200, monkeypatch, bad):
        self.check_spectra_raise(case_a, gh200, monkeypatch, bad)

    def test_negative_beyond_1e9_of_peak_raises(self, case_a, gh200, monkeypatch):
        self.check_spectra_raise(case_a, gh200, monkeypatch, -1.0)


class TestClosedForm:
    def test_matches_quadratic_roots(self, case_a):
        # roots measured in units of half the coupling Doppler shift
        scheme, drive, dopp = case_a
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        for d1 in (0.0, 100.0, -100.0, 400.0, -400.0):
            z1, z2 = ca.denominator_coefficients(scheme, d1, drive.detuning_2, drive.rabi_2,
                                                 alpha, beta).roots()
            quad_mod = 1.0 / abs((z1 - z2) * beta / 2)
            closed = abs(ca.root_difference_closed_form(scheme, drive, d1))
            assert closed == pytest.approx(quad_mod, rel=1e-6)

    def test_zero_detuning_reduction(self, case_a):
        scheme, drive, _ = case_a
        rp = rates(scheme)
        x = ca.wavenumber_ratio(scheme, drive)
        gam = rp.gamma_12 * (1 + x) - rp.gamma_13 * x
        expected = 2 * abs(x * (1 + x)) / math.sqrt(
            gam ** 2 + abs(x * (1 + x)) * drive.rabi_2 ** 2)
        assert abs(ca.root_difference_closed_form(scheme, drive, 0.0)) == \
            pytest.approx(expected, rel=1e-12)

    def test_no_coupling_collapse(self, case_a):
        scheme, drive, _ = case_a
        off = replace(drive, rabi_2=0.0)
        rp = rates(scheme)
        x = ca.wavenumber_ratio(scheme, drive)
        gam = rp.gamma_12 * (1 + x) - rp.gamma_13 * x
        val = abs(ca.root_difference_closed_form(scheme, off, 70.0))
        assert val == pytest.approx(2 * abs(x * (1 + x)) / abs(70.0 - 1j * gam),
                                    rel=1e-12)

    def test_requires_resonant_coupling(self, case_b):
        scheme, drive, _ = case_b    # detuning_2 = 60
        with pytest.raises(ConfigError):
            ca.root_difference_closed_form(scheme, drive, 0.0)


class TestDopplerScaling:
    def test_exponential_regime_co_propagating(self, case_a):
        # at x = +0.9 the line-center intensity (corrected for the 1/width
        # dilution) falls as exp(-f / width^2)
        from cascade_at.threshold import _geometry_for_x
        scheme = case_a[0]
        sch, drv = _geometry_for_x(scheme, 0.9, 1.0)
        drv = replace(drv, rabi_2=2000.0)
        dnus = np.geomspace(500.0, 3000.0, 8)
        vals = np.array([
            ca.intensities("analytic", sch, drv, ca.DopplerParams(fwhm=d),
                           np.array([0.0]))[1][0]
            for d in dnus])
        t = 1.0 / dnus ** 2
        y = np.log(vals * dnus)
        design = np.vstack([t, np.ones_like(t)]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        r2 = 1.0 - np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 > 0.99
        assert coef[0] < 0      # larger width, weaker exponential suppression


class TestEitDipAveraged:
    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_i2_dip_survives_averaging(self, case, gh200):
        scheme, drive, dopp = ca.preset(case)
        grid = np.linspace(-400, 400, 161) - drive.detuning_2
        spec = ca.average("full", scheme, drive, dopp, gh200, grid)
        center = int(np.argmin(np.abs(grid + drive.detuning_2)))
        i2 = spec[0]
        assert i2[center] < i2[center - 4] and i2[center] < i2[center + 4]
        assert i2.max() > i2[center] * 1.02

    def test_case_a_i3_split_single_component(self, case_a, gh200):
        # the strongest-component case-a spectrum already shows the doublet
        scheme, drive, dopp = case_a
        grid = np.linspace(-1500, 1500, 301)
        i3 = ca.average("full", scheme, drive, dopp, gh200, grid)[1]
        center = len(grid) // 2
        assert i3[center] < i3[center - 1] and i3[center] < i3[center + 1]
        maxima = (i3[1:-1] > i3[:-2]) & (i3[1:-1] > i3[2:])
        peaks = grid[1:-1][maxima]
        assert (peaks < 0).any() and (peaks > 0).any()


class TestConjugatePairs:
    """The full engine sums each conjugate pair of velocity poles as twice
    the real part of its upper member's term."""

    GRID = np.linspace(-1500.0, 1500.0, 61)

    @staticmethod
    def setting(case, x, changes):
        scheme, drive, dopp = ca.preset(case)
        if x is not None:
            from cascade_at.threshold import _geometry_for_x
            scheme, geometry = _geometry_for_x(scheme, x, drive.rabi_1)
            drive = replace(geometry, rabi_2=drive.rabi_2)
        drive = replace(drive, **changes)
        return scheme, drive, doppler_slopes(scheme, drive, dopp)

    CASES = [("case_a", None, {}), ("case_b", None, {}), ("case_a", -1.03, {}),
             ("case_a", None, {"rabi_1": 300.0}), ("case_a", None, {"rabi_2": 5e4})]

    @pytest.mark.parametrize("case,x,changes", CASES)
    def test_pair_sum_matches_seven_pole_sum(self, case, x, changes):
        scheme, drive, (alpha, beta) = self.setting(case, x, changes)
        ones = np.ones_like(self.GRID)
        ok, got = doppler._full_engine_poles(scheme, drive, self.GRID, alpha * ones,
                                             beta * ones, drive.rabi_2 * ones)
        assert ok.all()
        ref, scale = seven_pole_sum(scheme, drive, self.GRID, alpha, beta, drive.rabi_2)
        # relative to the terms' moduli: at Omega_2 = 50 GHz the pole terms
        # cancel ~2000-fold, and I3 itself carries ~3e-13 relative rounding
        diff = np.abs(np.array(got) - ref)
        assert np.all(diff <= 1e-13 * scale)

    @pytest.mark.parametrize("case,x,changes", CASES)
    def test_every_lower_pole_has_its_exact_conjugate(self, case, x, changes):
        scheme, drive, (alpha, beta) = self.setting(case, x, changes)
        lam = velocity_poles(scheme, drive.rabi_1, self.GRID, drive.detuning_2,
                             drive.rabi_2, alpha, beta)[0]
        assert np.all(lam.imag[..., 6] == 0) and np.any(lam.imag < 0)
        for row in lam:
            for value in row[row.imag < 0]:
                assert np.sum(row == np.conj(value)) == np.sum(row == value)

    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_bits_do_not_depend_on_block_size(self, case, monkeypatch):
        # M-summed rows as the CLI builds them: blocks of 7 straddle the rows
        scheme, drive, dopp = ca.preset(case)
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        folded = np.array([w for w, _ in weights(scheme.j2, scheme.j3).folded()])
        args = ("full", scheme, drive, self.GRID, alpha, beta,
                drive.rabi_2 * folded[:, None])
        ref = doppler._row_average(*args)
        monkeypatch.setattr(doppler, "_FULL_ENGINE_BLOCK", 7)
        assert np.array_equal(doppler._row_average(*args), ref)


def mp_pole_sum(mp, scheme, drive, alpha, beta, delta1):
    """(I2, I3) of the full engine at one probe detuning by the velocity pole
    sum in 40-digit arithmetic: M = S^{-1} B_c = (R + D)^{-1} Sigma and
    y = S^{-1} q built from the float pencil parts, then mp.eig, the
    residues and w(z) = exp(-z^2) erfc(-iz) at every pole."""
    pp = _pencil_parts(scheme, drive.rabi_1)
    mat = lambda a: mp.matrix(a.tolist())
    with mp.workdps(40):
        w2 = mp.mpf(math.pi * drive.rabi_2)
        shifted = mat(pp.r0) + w2 * mat(pp.r1) + w2 ** 2 * mat(pp.r2)
        for k in range(6):
            shifted[k, k] += mp.mpf(delta1) * _D1[k] + mp.mpf(drive.detuning_2) * _D2[k]
        sigma = mp.diag([mp.mpf(alpha) * _D1[k] + mp.mpf(beta) * _D2[k] for k in range(6)])
        inverse = mp.inverse(shifted)
        lam, vecs = mp.eig(inverse * sigma)
        coef = mp.inverse(vecs) * inverse * (mat(pp.jq0[:, None]) + w2 * mat(pp.jq1[:, None]))
        rows = (mat(pp.p0) + w2 * mat(pp.p1)) * vecs
        pops = []
        for i in range(2):
            total = mp.mpf(pp.rho_p0[1 + i])
            for k in range(6):
                # <1/(u - p)> = i sqrt(pi) w(p) above the real axis
                p = -1 / lam[k]
                sign = 1 if mp.im(p) > 0 else -1
                avg = sign * 1j * mp.sqrt(mp.pi) * mp.exp(-p ** 2) * mp.erfc(-1j * sign * p)
                total += rows[i, k] * coef[k] / lam[k] * avg
            pops.append(float(mp.re(total)))
    rp = rates(scheme)
    return rp.Gamma_2 * pops[0], rp.Gamma_3 * pops[1]


class TestHighPrecisionOracle:
    """The full-engine pole sum against the same pole sum in 40-digit
    arithmetic, from the same float pencil parts."""

    GRID = np.array([-1500.0, -1450.0, -600.0, -100.0, 0.0, 100.0, 600.0, 1450.0, 1500.0])

    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_pole_sum_to_1e12(self, case):
        mp = pytest.importorskip("mpmath")
        scheme, drive, dopp = ca.preset(case)
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        ones = np.ones_like(self.GRID)
        ok, got = doppler._full_engine_poles(scheme, drive, self.GRID, alpha * ones,
                                             beta * ones, drive.rabi_2 * ones)
        assert ok.all()
        ref = np.array([mp_pole_sum(mp, scheme, drive, alpha, beta, d) for d in self.GRID]).T
        assert np.all(np.abs(np.array(got) - ref) <= 1e-12 * np.abs(ref))


def four_pole_sum(scheme, drive, grid, alpha, beta, rabi_2):
    """(I2, I3) of the analytic engine by the term of each of the four poles
    of 1/|D|^2, the roots of D and their conjugates, each with its own
    product over the other three poles and its own Faddeeva value.  The
    oracle of the sum over the two roots.  Also returns the sum of the
    terms' moduli, the scale at which rounding enters a sum whose terms
    cancel."""
    rp = rates(scheme)
    den = ca.denominator_coefficients(scheme, grid, drive.detuning_2, rabi_2, alpha, beta)
    z1, z2 = den.roots()
    poles = np.stack((z1, z2, np.conj(z1), np.conj(z2)), axis=-1)
    prod = np.ones_like(poles)
    for k in range(4):
        for j in range(4):
            if j != k:
                prod[:, k] *= poles[:, k] - poles[:, j]
    sign = np.where(poles.imag > 0, 1.0, -1.0)
    integrals = sign * 1j * math.pi * ca.w(sign * poles)
    base = integrals / (np.abs(den.a[:, None]) ** 2 * prod) / SQRTPI
    d2ph = (grid + drive.detuning_2)[:, None] + (alpha + beta)[:, None] * poles
    i2 = rp.Gamma_2 * K_RHO22 * (drive.rabi_1 / 2) ** 2 * (rp.gamma_13 ** 2 + d2ph ** 2) * base
    i3 = rp.Gamma_3 * K_RHO33 * ((drive.rabi_1 * rabi_2 / 4) ** 2)[:, None] * base
    return (np.array([i2.sum(axis=-1).real, i3.sum(axis=-1).real]),
            np.array([np.abs(i2).sum(axis=-1), np.abs(i3).sum(axis=-1)]))


class TestRootPairs:
    """The analytic engine sums the four poles of 1/|D|^2 as twice the real
    part of the two roots' terms."""

    @staticmethod
    def compare(scheme, drive, alpha, beta, grid):
        ones = np.ones_like(grid)
        alpha, beta, rabi_2 = alpha * ones, beta * ones, drive.rabi_2 * ones
        ok, got = doppler._weak_probe_poles(scheme, drive, grid, alpha, beta, rabi_2)
        ref, scale = four_pole_sum(scheme, drive, grid, alpha, beta, rabi_2)
        diff = np.abs(np.array(got) - ref[:, ok])
        assert np.all(diff <= 1e-13 * scale[:, ok])
        return ok

    @pytest.mark.parametrize("case,x,changes", TestConjugatePairs.CASES)
    def test_pair_sum_matches_four_pole_sum(self, case, x, changes):
        scheme, drive, (alpha, beta) = TestConjugatePairs.setting(case, x, changes)
        assert self.compare(scheme, drive, alpha, beta, TestConjugatePairs.GRID).all()

    def test_next_to_coincident_roots(self, case_b):
        # the terms of the two roots cancel ever more closely as they merge;
        # the point on the double root itself is refused
        scheme, drive, dopp = case_b
        drv = coincident_roots_drive(scheme, drive, dopp)
        grid = np.array([-5.0, -0.01, 0.0, 1e-4, 5.0])
        ok = self.compare(scheme, drv, *doppler_slopes(scheme, drv, dopp), grid)
        assert list(ok) == [True, True, False, True, True]

    @pytest.mark.parametrize("fwhm", [1.0, 2.0])
    def test_cancelling_terms_take_the_numeric_sum(self, case_a, gh200, fwhm):
        # at Delta_1 = 0 the I2 terms of the two roots cancel to rounding
        # (the pole sum gave -2.06e-16 where the numeric sum gives 9.7e-17,
        # a "significantly negative intensity"): the kernel refuses the
        # point, which takes the numeric sum on the same GH200 rule
        from cascade_at.threshold import _geometry_for_x
        scheme = case_a[0]
        scheme_x, drive_x = _geometry_for_x(scheme, -0.611, ca.rates(scheme).Gamma_2 / 20)
        drive = replace(drive_x, rabi_2=5e4)
        dopp = ca.DopplerParams(fwhm=fwhm)
        grid = np.array([0.0])
        alpha, beta = doppler_slopes(scheme_x, drive, dopp)
        ok, _ = doppler._weak_probe_poles(scheme_x, drive, grid, np.array([alpha]),
                                          np.array([beta]), np.array([drive.rabi_2]))
        assert not ok.any()
        assert np.array_equal(ca.intensities("analytic", scheme_x, drive, dopp, grid),
                              ca.average("perturbative", scheme_x, drive, dopp, gh200, grid))


def pole_difference_curvature(scheme, drive, alpha, beta, rabi_2):
    """The analytic I3's curvature at Delta_1 = 0 by the general pole
    derivatives: D's roots from the complex quadratic formula, implicit
    differentiation of D = a u^2 + b(Delta_1) u + c(Delta_1) for their
    derivatives, and log-derivatives of each residue over its differences
    to the other root and to both conjugates.  The oracle of the
    resonant-point kernel.  Returns the mask of points with poles at least
    1e-9 relative apart, their curvatures, the sum of the moduli of every
    product term, w' and w'' split into their w and constant parts (the
    scale at which rounding enters a sum whose terms cancel), and the mask
    of those points over the kernel's rounding bound
    eps (1 + max |zeta|^4) (|t0| + |t1|) > 1e-3 |t0 + t1|, from the two
    roots' terms t0, t1."""
    rp = rates(scheme)
    den = ca.denominator_coefficients(scheme, 0.0, drive.detuning_2, rabi_2, alpha, beta)
    z = np.stack(den.roots(), axis=-1)                   # (point, root)

    def differences(v):
        return v - v[:, ::-1], v - np.conj(v[:, :1]), v - np.conj(v[:, 1:])

    q = differences(z)
    sep = np.minimum.reduce([np.abs(d) for d in q]).min(axis=-1)
    ok = ~(sep < 1e-9 * np.abs(z).max(axis=-1))
    z, q = z[ok], [d[ok] for d in q]
    a, b = den.a[ok, None], den.b[ok, None]
    residue = 1.0 / (np.abs(a) ** 2 * q[0] * q[1] * q[2])
    db = -(2 * alpha[ok] + beta[ok])[:, None]
    dc = 1j * (rp.gamma_12 + rp.gamma_13) - drive.detuning_2
    slope = 2 * a * z + b
    dz = -(db * z + dc) / slope
    d2z = -(2 * a * dz * dz + 2 * db * dz - 2) / slope
    t1 = [d / p for d, p in zip(differences(dz), q)]
    t2 = [d / p for d, p in zip(differences(d2z), q)]
    dlog = -(t1[0] + t1[1] + t1[2])
    d2log = -sum(b2 - b1 * b1 for b1, b2 in zip(t1, t2))
    sign = np.where(z.imag > 0, 1.0, -1.0)
    zeta = sign * z
    w = ca.w(zeta)
    ipi = 1j * math.pi
    parts = [residue * (d2log + dlog * dlog) * sign * ipi * w]
    for j1 in (ipi * -2 * zeta * w, ipi * 2j / SQRTPI):          # i pi w'
        parts += [residue * 2 * dlog * j1 * dz, residue * j1 * d2z]
    for j2 in (ipi * (4 * zeta * zeta - 2) * w, ipi * -4j * zeta / SQRTPI):
        parts.append(residue * sign * j2 * dz * dz)              # s i pi w''
    prefactor = 2 * rp.Gamma_3 * K_RHO33 * np.square(drive.rabi_1 * rabi_2[ok] / 4) / SQRTPI
    roots = sum(parts).real
    loss = np.finfo(float).eps * (1 + np.abs(zeta).max(axis=-1) ** 4)
    over = loss * np.abs(roots).sum(axis=-1) > 1e-3 * np.abs(roots.sum(axis=-1))
    return (ok, prefactor * roots.sum(axis=-1),
            prefactor * sum(np.abs(p) for p in parts).sum(axis=-1), over)


class TestResonantCurvature:
    """The threshold search's exact curvature: the resonant-point kernel
    against the general pole-derivative sum it replaced."""

    @staticmethod
    def rows(scheme, cells, omegas):
        """(alpha, beta, Omega_2) of every (cell, Omega_2) pair; a cell is an
        (x, Doppler FWHM) pair realized with the probe kept fixed."""
        from cascade_at.threshold import _geometry_for_x
        slopes = [doppler_slopes(*_geometry_for_x(scheme, x, 1.0), ca.DopplerParams(fwhm=f))
                  for x, f in cells]
        alpha, beta = np.repeat(np.array(slopes).T, len(omegas), axis=1)
        return alpha, beta, np.tile(np.asarray(omegas, dtype=float), len(cells))

    @staticmethod
    def compare(scheme, alpha, beta, rabi_2):
        """The kernel refuses what the oracle refuses and, beyond that,
        exactly the points over its rounding bound; on the rest both agree
        to 1e-13 of the oracle's scale."""
        drive = ca.DriveParams(rabi_1=1.0, rabi_2=0.0)
        ok, got = doppler._weak_probe_curvature(scheme, drive, alpha, beta, rabi_2)
        ref_ok, ref, scale, over = pole_difference_curvature(scheme, drive, alpha, beta,
                                                             rabi_2)
        assert not (ok & ~ref_ok).any()
        assert np.array_equal(ok[ref_ok], ~over)
        assert np.all(np.abs(got - ref[~over]) <= 1e-13 * scale[~over])
        return ok

    # both signs of x, either side of x = -1 and of x = 0, Doppler widths
    # 200-5000 MHz and Omega_2 from the bracket's bottom to its top
    CELLS = [(x, f) for x in (-1.95, -1.5, -1.1162, -0.9219, -0.5, -0.05, 0.05, 0.5, 1.95)
             for f in (200.0, 1100.0, 5000.0)]
    OMEGAS = np.geomspace(1.0, 5e4, 13)

    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_matches_pole_difference_sum(self, case):
        # the refused points are over the rounding bound: region II near
        # the top of the bracket at 200-1100 MHz
        scheme = ca.preset(case)[0]
        ok = self.compare(scheme, *self.rows(scheme, self.CELLS, self.OMEGAS))
        assert (~ok).sum() == {"case_a": 3, "case_b": 6}[case]

    def test_q_line_weights_and_coincident_row(self, case_b):
        # the Q-line's folded weights 0, 1/3, 2/3, 1 (J = 3 -> 3) times the
        # coupling where D's roots coincide at Delta_1 = 0: both refuse
        # exactly the weight-1 point
        scheme = case_b[0]
        cell = (-1.1162, 500.0)
        from cascade_at.threshold import _geometry_for_x
        scheme_x, drive_x = _geometry_for_x(scheme, cell[0], 1.0)
        om = coincident_roots_drive(scheme_x, drive_x, ca.DopplerParams(fwhm=cell[1])).rabi_2
        folded = [w for w, _ in weights(3, 3).folded()]
        assert folded[0] == 0.0 and folded[-1] == 1.0
        ok = self.compare(scheme, *self.rows(scheme, [cell], om * np.array(folded)))
        assert list(ok) == [True, True, True, False]

    def test_resonant_coupling_and_quadratic_denominator_required(self, case_a):
        scheme = case_a[0]
        alpha, beta, rabi_2 = self.rows(scheme, [(-0.5, 1100.0)], [100.0])
        # x = -1: a = -alpha (alpha + beta) = 0, a D linear in u, is refused
        ok, vals = doppler._weak_probe_curvature(
            scheme, ca.DriveParams(rabi_1=1.0, rabi_2=0.0), alpha, -alpha, rabi_2)
        assert not ok.any() and vals.size == 0

    def test_narrow_widths_take_the_stencil(self, case_a, monkeypatch):
        # w' and w'' from their recurrences lose about |zeta|^4 eps, so the
        # kernel refuses roots beyond _RESONANT_MAX_ZETA and the threshold's
        # stencil takes those points.  Beyond it the kernel's value had the
        # wrong sign at x = -1.95, 0.1 MHz, Omega_2 = 1000 MHz.  Widths from
        # 0.01 to 30 MHz put |zeta| on both sides of the bound.  Region II,
        # where the root terms cancel and magnify the loss below the bound
        # too, is the next test's
        scheme = case_a[0]
        cells = [(x, f) for x in (-1.95, 0.5, 1.95) for f in np.geomspace(0.01, 30.0, 9)]
        alpha, beta, rabi_2 = self.rows(scheme, cells, [100.0, 1000.0, 1e4])
        drive = ca.DriveParams(rabi_1=1.0, rabi_2=0.0)
        zetas, w = [], doppler.faddeeva_w
        monkeypatch.setattr(doppler, "faddeeva_w", lambda z: zetas.append(z) or w(z))
        ok, _ = doppler._weak_probe_curvature(scheme, drive, alpha, beta, rabi_2)
        assert 0 < ok.sum() < ok.size
        assert np.abs(np.concatenate(zetas, axis=None)).max() <= doppler._RESONANT_MAX_ZETA
        monkeypatch.undo()
        exact = doppler._curvature_rows("analytic", scheme, drive, alpha, beta, rabi_2, None)
        numeric = doppler._curvature_rows("perturbative", scheme, drive, alpha, beta, rabi_2,
                                          None)
        np.testing.assert_allclose(exact, numeric, rtol=1e-3)

    @pytest.mark.parametrize("x, fwhm, rabi_2", [(-0.9219, 200.0, 5e4),
                                                 (-0.65, 10.0, 1e4),
                                                 (-0.65, 1.0, 1e3)])
    def test_cancelling_root_terms_take_the_stencil(self, case_a, x, fwhm, rabi_2):
        # the two roots' terms cancel so far that the kernel's rounding
        # estimate exceeds 1e-3 (it was 18%, 14% and 0.66% off there); the
        # kernel refuses the point and the analytic stencil matches the
        # perturbative one
        from cascade_at.threshold import _geometry_for_x
        scheme = case_a[0]
        rabi_1 = ca.rates(scheme).Gamma_2 / 20
        scheme_x, drive_x = _geometry_for_x(scheme, x, rabi_1)
        drive = replace(drive_x, rabi_2=rabi_2)
        dopp = ca.DopplerParams(fwhm=fwhm)
        alpha, beta = doppler_slopes(scheme_x, drive, dopp)
        ok, _ = doppler._weak_probe_curvature(scheme_x, drive, np.array([alpha]),
                                              np.array([beta]), np.array([rabi_2]))
        assert not ok.any()
        exact = ca.curvature_at_zero("analytic", scheme_x, drive, dopp)
        numeric = ca.curvature_at_zero("perturbative", scheme_x, drive, dopp)
        assert abs(exact - numeric) <= 1e-6 * abs(numeric)


class TestNarrowWidth:
    @pytest.mark.parametrize("fwhm", [1e-3, 1e-4, 1e-6])
    def test_spectra_tend_to_zero_width(self, case_a, fwhm):
        # below ~1e-4 MHz the roots of D leave the Faddeeva function's domain
        # |z| <= 1e8; those points take the numeric sum instead of raising
        scheme, drive, _ = case_a
        grid = np.linspace(-600.0, 600.0, 61)
        zero = doppler.intensities("analytic", scheme, drive,
                                   ca.DopplerParams(fwhm=0.0), grid)
        narrow = doppler.intensities("analytic", scheme, drive,
                                     ca.DopplerParams(fwhm=fwhm), grid)
        np.testing.assert_allclose(narrow, zero, rtol=1e-8)


class TestDopplerFreeGeometry:
    """x = -1, counter-propagating beams of equal wavenumbers: alpha + beta
    = 0 makes a = -alpha (alpha + beta) = 0, so D = b u + c is linear in u
    with the one root z = -c/b, and 1/|D|^2 has the poles z and conj z."""

    DELTA1 = np.array([-300.0, -50.0, 0.0, 50.0, 300.0])

    @staticmethod
    def setting(case_a):
        from cascade_at.threshold import _geometry_for_x
        scheme, drive = _geometry_for_x(case_a[0], -1.0, case_a[1].rabi_1)
        return scheme, replace(drive, rabi_2=400.0), case_a[2]

    def test_analytic_i3_matches_linear_closed_form(self, case_a):
        # Integral e^{-u^2} / |u - z|^2 du = pi Re w(x0 + i |y|) / |y| for
        # z = x0 + i y
        scheme, drive, dopp = self.setting(case_a)
        assert ca.wavenumber_ratio(scheme, drive) == -1.0
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        den = ca.denominator_coefficients(scheme, self.DELTA1, drive.detuning_2,
                                          drive.rabi_2, alpha, beta)
        assert np.all(den.a == 0)
        z = -den.c / den.b
        closed = (rates(scheme).Gamma_3 * K_RHO33 * (drive.rabi_1 * drive.rabi_2 / 4) ** 2
                  * SQRTPI * ca.w(z.real + 1j * np.abs(z.imag)).real
                  / (np.abs(den.b) ** 2 * np.abs(z.imag)))
        got = ca.intensities("analytic", scheme, drive, dopp, self.DELTA1)[1]
        np.testing.assert_allclose(got, closed, rtol=1e-9)

    def test_analytic_curvature_is_finite(self, case_a):
        # the exact kernel refuses a = 0, so the analytic curvature takes
        # the perturbative engine's stencil, with the same bits
        scheme, drive, dopp = self.setting(case_a)
        curv = ca.curvature_at_zero("analytic", scheme, drive, dopp)
        assert math.isfinite(curv)
        assert curv == ca.curvature_at_zero("perturbative", scheme, drive, dopp)
