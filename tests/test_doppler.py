import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import cascade_at as ca
from cascade_at import doppler
from cascade_at.doppler import _refined_rule, _full_engine_windows
from cascade_at.errors import ConfigError, DegenerateRootError
from cascade_at.lineshape import doppler_slopes
from cascade_at.liouville import populations_batch
from cascade_at.model import rates

SQRTPI = math.sqrt(math.pi)


def quad_oracle(engine, observable, scheme, drive, dopp, delta1):
    """Independent adaptive-quadrature velocity average for spot checks."""
    alpha, beta = doppler_slopes(scheme, drive, dopp)
    den = ca.denominator_coefficients(scheme, drive, dopp, delta1=delta1)
    pts = [p.real for p in den.roots() if abs(p.real) < 11]
    pts += [c for c, _ in _full_engine_windows(scheme, drive, delta1, alpha, beta)
            if abs(c) < 11]
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
        spec = ca.average("full", "both", scheme, drive,
                          ca.DopplerParams(fwhm=0.0), gh200, grid)
        rp = rates(scheme)
        for k, d1 in enumerate(grid):
            rho = ca.steady_state(scheme, drive, ca.EffectiveDetunings(d1, 0.0))
            assert spec.I3[k] == pytest.approx(rp.Gamma_3 * rho.rho33, rel=1e-12)
            assert spec.I2[k] == pytest.approx(rp.Gamma_2 * rho.rho22, rel=1e-12)

    @pytest.mark.parametrize("engine", ["full", "perturbative"])
    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_against_adaptive_quadrature(self, engine, case, gh200):
        scheme, drive, dopp = ca.preset(case)
        for d1 in (0.0, 250.0, 900.0):
            spec = ca.average(engine, "both", scheme, drive, dopp, gh200,
                              np.array([d1]))
            for obs in ("I2", "I3"):
                truth = quad_oracle(engine, obs, scheme, drive, dopp, d1)
                got = getattr(spec, obs)[0]
                assert got == pytest.approx(truth, rel=1e-7)

    def test_order_convergence(self, case_a):
        # doubling the base order changes nothing beyond 1e-6 relative
        scheme, drive, dopp = case_a
        grid = np.linspace(-1200, 1200, 25)
        r200 = ca.QuadratureRule.gauss_hermite(200)
        r400 = ca.QuadratureRule.gauss_hermite(400)
        for engine in ("full", "perturbative"):
            a = ca.average(engine, "I3", scheme, drive, dopp, r200, grid).I3
            b = ca.average(engine, "I3", scheme, drive, dopp, r400, grid).I3
            assert np.max(np.abs(a - b) / b) < 1e-6

    def test_rule_order_minimum(self, case_a):
        scheme, drive, dopp = case_a
        rule = ca.QuadratureRule.gauss_hermite(8)
        with pytest.raises(ConfigError):
            ca.average("full", "I3", scheme, drive, dopp, rule, np.array([0.0]))

    def test_unknown_engine(self, case_a, gh200):
        scheme, drive, dopp = case_a
        with pytest.raises(ConfigError):
            ca.average("exact", "I3", scheme, drive, dopp, gh200, np.array([0.0]))


class TestAnalytic:
    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_matches_numeric_average(self, case, gh200):
        scheme, drive, dopp = ca.preset(case)
        grid = np.linspace(-1400, 1400, 29)
        an = ca.average_analytic_I3(scheme, drive, dopp, grid).I3
        num = ca.average("perturbative", "I3", scheme, drive, dopp, gh200, grid).I3
        assert np.max(np.abs(an - num) / num) < 1e-6

    def test_analytic_i2_matches_numeric(self, case_b, gh200):
        scheme, drive, dopp = case_b
        grid = np.linspace(-900, 900, 19)
        an = ca.average_analytic_I2(scheme, drive, dopp, grid).I2
        num = ca.average("perturbative", "I2", scheme, drive, dopp, gh200, grid).I2
        assert np.max(np.abs(an - num) / num) < 1e-6

    def test_small_width_recovers_fixed_velocity(self, case_a):
        scheme, drive, _ = case_a
        tiny = ca.DopplerParams(fwhm=1e-3)
        grid = np.array([0.0, 120.0, 360.0])
        an = ca.average_analytic_I3(scheme, drive, tiny, grid).I3
        fixed = ca.average_analytic_I3(scheme, drive, ca.DopplerParams(fwhm=0.0), grid).I3
        assert np.max(np.abs(an - fixed) / fixed) < 1e-3

    def test_symmetry_resonant_coupling(self, case_a):
        scheme, drive, dopp = case_a
        grid = np.linspace(5.0, 1205.0, 25)
        plus = ca.average_analytic_I3(scheme, drive, dopp, grid).I3
        minus = ca.average_analytic_I3(scheme, drive, dopp, -grid).I3
        assert np.max(np.abs(plus - minus) / plus) < 1e-8

    def test_positive_and_finite(self, case_b):
        scheme, drive, dopp = case_b
        grid = np.linspace(-2000, 2000, 81)
        spec = ca.average_analytic_I3(scheme, drive, dopp, grid)
        assert np.all(np.isfinite(spec.I3)) and np.all(spec.I3 >= 0)

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
                an = ca.average_analytic_I3(sch, drv, dopp, grid).I3
                num = ca.average("perturbative", "I3", sch, drv, dopp,
                                 rule, grid).I3
                assert np.max(np.abs(an - num) / num) < 1e-4


def coincident_roots_drive(scheme, drive, dopp):
    """Resonant coupling at the Omega_2 where the two roots of D coincide at
    Delta_1 = 0: Omega_2^2 = (alpha g13 - (alpha+beta) g12)^2 / (alpha (alpha+beta)).
    Of the doubles next to that value, the one whose computed roots lie
    closest together is taken."""
    alpha, beta = doppler_slopes(scheme, drive, dopp)
    rp = rates(scheme)
    om = abs(alpha * rp.gamma_13 - (alpha + beta) * rp.gamma_12) / math.sqrt(
        alpha * (alpha + beta))

    def separation(drv):
        z1, z2 = ca.denominator_coefficients(scheme, drv, dopp, delta1=0.0).roots()
        return abs(z1 - z2) / max(abs(z1), abs(z2))

    candidates = [replace(drive, detuning_2=0.0, rabi_2=om + k * np.spacing(om))
                  for k in range(-4, 5)]
    best = min(candidates, key=separation)
    assert separation(best) < 1e-12
    return best


class TestDegeneratePoles:
    @pytest.mark.parametrize("observable", ["I2", "I3"])
    def test_fallback_beside_partial_fractions(self, case_b, gh200, observable,
                                               monkeypatch):
        # the middle point has a double root and takes the refined numeric
        # rule; the outer two take the partial fractions, in the same call
        scheme, drive, dopp = case_b
        drv = coincident_roots_drive(scheme, drive, dopp)
        grid = np.array([-5.0, 0.0, 5.0])
        num = getattr(ca.average("perturbative", observable, scheme, drv, dopp,
                                 gh200, grid), observable)

        fallbacks, w_shapes = [], []
        rule, w = doppler._refined_rule, doppler.faddeeva_w
        monkeypatch.setattr(doppler, "_refined_rule",
                            lambda roots, *a: fallbacks.append(roots) or rule(roots, *a))
        monkeypatch.setattr(doppler, "faddeeva_w",
                            lambda z: w_shapes.append(np.shape(z)) or w(z))
        analytic = getattr(doppler, f"average_analytic_{observable}")
        an = getattr(analytic(scheme, drv, dopp, grid), observable)

        assert len(fallbacks) == 1
        assert w_shapes == [(2, 4)]
        assert np.max(np.abs(an - num) / num) < 1e-6


class TestIntensities:
    GRID = np.linspace(-600.0, 600.0, 7)

    @pytest.mark.parametrize("engine", ["full", "perturbative", "analytic"])
    @pytest.mark.parametrize("observable", ["I2", "I3", "both"])
    def test_rows_match_direct_calls(self, case_a, gh200, engine, observable):
        scheme, drive, dopp = case_a
        rows = doppler.intensities(engine, observable, scheme, drive, dopp,
                                   self.GRID)
        names = [n for n in ("I2", "I3") if observable in (n, "both")]
        if engine == "analytic":
            direct = {"I2": ca.average_analytic_I2, "I3": ca.average_analytic_I3}
            expected = [getattr(direct[n](scheme, drive, dopp, self.GRID), n)
                        for n in names]
        else:
            spec = ca.average(engine, observable, scheme, drive, dopp, gh200,
                              self.GRID)
            expected = [getattr(spec, n) for n in names]
        assert rows.shape == (len(names), len(self.GRID))
        for row, exp in zip(rows, expected):
            assert np.array_equal(row, exp)

    def test_bad_observable(self, case_a):
        with pytest.raises(ConfigError):
            doppler.intensities("analytic", "I4", *case_a, self.GRID)


class TestPoleDecomposition:
    def test_reconstruction(self, case_a):
        scheme, drive, dopp = case_a
        dec = ca.pole_decomposition(scheme, drive, dopp, delta1=140.0)
        den = ca.denominator_coefficients(scheme, drive, dopp, delta1=140.0)
        for u in (-2.0, -0.3, 0.0, 0.7, 3.1):
            rebuilt = den.a * (u - dec.z1) * (u - dec.z2)
            assert abs(rebuilt - den.value(u)) <= 1e-9 * abs(den.value(u))

    def test_region_two_flag(self, case_a, case_b):
        scheme_a, drive_a, dopp = case_a
        assert ca.pole_decomposition(scheme_a, drive_a, dopp).region_two
        scheme_b, drive_b, dopp_b = case_b
        assert not ca.pole_decomposition(scheme_b, drive_b, dopp_b).region_two


class TestClosedForm:
    def test_matches_quadratic_roots(self, case_a):
        # roots measured in units of half the coupling Doppler shift
        scheme, drive, dopp = case_a
        _, beta = doppler_slopes(scheme, drive, dopp)
        for d1 in (0.0, 100.0, -100.0, 400.0, -400.0):
            dec = ca.pole_decomposition(scheme, drive, dopp, delta1=d1)
            quad_mod = 1.0 / abs((dec.z1 - dec.z2) * beta / 2)
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
            ca.average_analytic_I3(sch, drv, ca.DopplerParams(fwhm=d),
                                   np.array([0.0])).I3[0]
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
        spec = ca.average("full", "I2", scheme, drive, dopp, gh200, grid)
        center = int(np.argmin(np.abs(grid + drive.detuning_2)))
        i2 = spec.I2
        assert i2[center] < i2[center - 4] and i2[center] < i2[center + 4]
        assert i2.max() > i2[center] * 1.02

    def test_case_a_i3_split_single_component(self, case_a, gh200):
        # the strongest-component case-a spectrum already shows the doublet
        scheme, drive, dopp = case_a
        grid = np.linspace(-1500, 1500, 301)
        i3 = ca.average("full", "I3", scheme, drive, dopp, gh200, grid).I3
        center = len(grid) // 2
        assert i3[center] < i3[center - 1] and i3[center] < i3[center + 1]
        maxima = (i3[1:-1] > i3[:-2]) & (i3[1:-1] > i3[2:])
        peaks = grid[1:-1][maxima]
        assert (peaks < 0).any() and (peaks > 0).any()
