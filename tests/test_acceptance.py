"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py`` to see the
report.  Tolerances are fixed here, not calibrated elsewhere.
"""
import cmath
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import cascade_at as ca
from cascade_at.doppler import intensities
from cascade_at.msublevel import m_summed, weights
from cascade_at.threshold import _geometry_for_x, threshold_rabi
from conftest import subprocess_env

GH200 = ca.QuadratureRule.gauss_hermite(200)
GRID_601 = np.linspace(-1500.0, 1500.0, 601)


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {num:2d}: {desc}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def strict_local_minima(vals):
    vals = np.asarray(vals)
    mask = (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
    return np.nonzero(mask)[0] + 1


def msummed_full_i3(scheme, drive, dopp, grid):
    wts = weights(scheme.j2, scheme.j3)
    return m_summed(
        lambda d: intensities("full", scheme, d, dopp, grid)[1], wts, drive)


def test_criterion_1_doppler_width_anchor():
    scheme, _, _ = ca.preset("case_a")
    fw = ca.doppler_fwhm(scheme, 625.0)
    ok = abs(fw - 1100.0) / 1100.0 < 0.10
    report(1, "Doppler width anchor: 625 K within 10% of 1.1 GHz",
           ok, f"computed {fw:.1f} MHz, deviation {abs(fw-1100)/1100:.1%}")


def test_criterion_2_case_a_split_case_b_unsplit():
    scheme_a, drive_a, dopp_a = ca.preset("case_a")
    i3a = msummed_full_i3(scheme_a, drive_a, dopp_a, GRID_601)
    mins_a = strict_local_minima(i3a)
    center = len(GRID_601) // 2
    split_ok = center in mins_a

    scheme_b, drive_b, dopp_b = ca.preset("case_b")
    i3b = msummed_full_i3(scheme_b, drive_b, dopp_b, GRID_601)
    mins_b = strict_local_minima(i3b)
    unsplit_ok = len(mins_b) == 0

    report(2, "full-engine I3: case a dips at zero detuning, case b does not",
           split_ok and unsplit_ok,
           f"case-a dip depth {i3a[center]/i3a.max():.3f} of peak; "
           f"case-b minima count {len(mins_b)}")


def test_criterion_3_eit_dip_persistence():
    details = []
    ok = True
    for case in ("case_a", "case_b"):
        scheme, drive, dopp = ca.preset(case)
        i2 = intensities("full", scheme, drive, dopp, GRID_601)[0]
        mins = strict_local_minima(i2)
        two_photon = -drive.detuning_2
        near = [GRID_601[k] for k in mins if abs(GRID_601[k] - two_photon) <= 100.0]
        ok = ok and len(near) >= 1
        details.append(f"{case}: dip at {near[0] if near else 'none'} MHz "
                       f"(two-photon resonance {two_photon:.0f})")
    report(3, "EIT dip in I2 near two-photon resonance for both presets",
           ok, "; ".join(details))


def test_criterion_4_threshold_order_of_magnitude():
    scheme, drive, _ = ca.preset("case_b")
    wts = weights(scheme.j2, scheme.j3)
    res = threshold_rabi("full", scheme, -1.1162, ca.DopplerParams(fwhm=1100.0),
                         msum=wts, rabi_1=drive.rabi_1)
    ok = res.converged and 500.0 <= res.omega_t <= 3000.0
    report(4, "case-b threshold Rabi frequency of GHz order ([0.5, 3] GHz)",
           ok, f"threshold {res.omega_t:.0f} MHz")


def test_criterion_5_region_ii_doppler_independence():
    scheme, _, _ = ca.preset("case_a")
    details = []
    ok = True
    for x in (-0.8, -0.5, -0.2):
        vals = [threshold_rabi("analytic", scheme, x,
                               ca.DopplerParams(fwhm=d)).omega_t
                for d in (200.0, 1100.0, 5000.0)]
        spread = max(vals) / min(vals) - 1.0
        ok = ok and spread < 0.02
        details.append(f"x={x}: spread {spread:.2%}")
    report(5, "region-II thresholds independent of Doppler width (< 2%)",
           ok, "; ".join(details))


def test_criterion_6_outside_region_ii_growth():
    scheme, _, _ = ca.preset("case_a")
    ok = True
    details = []
    for x in (0.5, -1.5):
        vals = [threshold_rabi("analytic", scheme, x,
                               ca.DopplerParams(fwhm=d)).omega_t
                for d in (500.0, 1100.0, 3000.0)]
        grow = vals[0] < vals[1] < vals[2]
        ok = ok and grow
        details.append(f"x={x}: {vals[0]:.0f} -> {vals[1]:.0f} -> {vals[2]:.0f} MHz")

    # exponential mechanism: line-center intensity, corrected for the 1/width
    # Doppler dilution, is log-affine in 1/width^2
    for x, om2 in ((0.5, 2000.0), (-1.5, 600.0)):
        sch, drv = _geometry_for_x(scheme, x, 1.0)
        drv = replace(drv, rabi_2=om2)
        dnus = np.array([500.0, 1100.0, 3000.0])
        vals = np.array([
            ca.intensities("analytic", sch, drv, ca.DopplerParams(fwhm=d),
                           np.array([0.0]))[1][0]
            for d in dnus])
        t = 1.0 / dnus ** 2
        y = np.log(vals * dnus)
        design = np.vstack([t, np.ones_like(t)]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        r2 = 1.0 - (np.sum((y - design @ coef) ** 2)
                    / np.sum((y - y.mean()) ** 2))
        ok = ok and r2 > 0.99
        details.append(f"x={x}: R^2 {r2:.4f}")
    report(6, "thresholds grow with Doppler width outside region II; "
              "log-affine center intensity", ok, "; ".join(details))


def test_criterion_7_analytic_numeric_equivalence():
    rule400 = ca.QuadratureRule.gauss_hermite(400)
    grid = np.linspace(-1500.0, 1500.0, 101)
    configs = []
    for case in ("case_a", "case_b"):
        scheme, drive, dopp = ca.preset(case)
        configs.append((case, scheme, drive, dopp))
    base_scheme, _, _ = ca.preset("case_a")
    for x in (-0.5, 0.9):
        sch, drv = _geometry_for_x(base_scheme, x, 6.0)
        drv = replace(drv, rabi_2=400.0)
        configs.append((f"x={x}", sch, drv, ca.DopplerParams(fwhm=1100.0)))
    worst = 0.0
    for name, scheme, drive, dopp in configs:
        an = ca.intensities("analytic", scheme, drive, dopp, grid)[1]
        num = ca.average("perturbative", scheme, drive, dopp,
                         rule400, grid)[1]
        worst = max(worst, float(np.max(np.abs(an - num) / num)))
    report(7, "analytic Doppler integral matches order-400 quadrature (1e-4)",
           worst < 1e-4, f"worst relative deviation {worst:.2e}")


def test_criterion_8_closed_form_cross_validation():
    scheme, drive, dopp = ca.preset("case_a")
    from cascade_at.lineshape import doppler_slopes
    alpha, beta = doppler_slopes(scheme, drive, dopp)
    worst = 0.0
    for d1 in (0.0, 100.0, -100.0, 400.0, -400.0):
        z1, z2 = ca.denominator_coefficients(scheme, d1, drive.detuning_2, drive.rabi_2,
                                             alpha, beta).roots()
        from_roots = 1.0 / abs((z1 - z2) * beta / 2)
        closed = abs(ca.root_difference_closed_form(scheme, drive, d1))
        worst = max(worst, abs(closed - from_roots) / from_roots)
    report(8, "closed-form 1/(z1-z2) modulus matches quadratic roots (1e-6)",
           worst < 1e-6, f"worst relative deviation {worst:.2e}")


def test_criterion_9_faddeeva_conformance():
    radii = np.geomspace(1e-3, 20.0, 50)
    angles = [th for th in np.linspace(-math.pi, math.pi, 42)[1:-1]
              if abs(th) > 0.03 and abs(abs(th) - math.pi) > 0.03]
    angles = angles[:40]
    points = [r * cmath.exp(1j * th) for r in radii for th in angles]
    assert len(points) == 2000
    worst = 0.0
    for z in points:
        ref = ca.w_reference(z)
        worst = max(worst, abs(ca.w(z) - ref) / abs(ref))
    ident_ok = abs(ca.w(0) - 1.0) < 1e-8
    # the reflection identity is verifiable in double precision only where
    # 2 exp(-z^2) is not buried under the rounding noise of w itself
    worst_refl = 0.0
    n_refl = 0
    for z in points:
        if (z.real ** 2 - z.imag ** 2) > 16.0:
            continue
        n_refl += 1
        lhs = ca.w(z) + ca.w(-z)
        rhs = 2 * cmath.exp(-z * z)
        worst_refl = max(worst_refl, abs(lhs - rhs) / abs(rhs))
    assert n_refl > 1000
    ok = worst <= 1e-6 and ident_ok and worst_refl <= 1e-8
    report(9, "Faddeeva: 2000-point conformance (1e-6) and identities (1e-8)",
           ok, f"max rel err {worst:.2e}; reflection {worst_refl:.2e}")


def test_criterion_10_engine_consistency():
    scheme, drive, dopp = ca.preset("case_a")
    rp = ca.rates(scheme)
    weak = replace(drive, rabi_1=rp.Gamma_2 / 20)
    grid = np.linspace(-1200.0, 1200.0, 201)
    full = intensities("full", scheme, weak, dopp, grid)[1]
    pert = ca.average("perturbative", scheme, weak, dopp, GH200, grid)[1]
    shape_dev = float(np.max(np.abs(full / full.max() - pert / pert.max())))

    thr_full = threshold_rabi("full", scheme, -0.9219,
                              ca.DopplerParams(fwhm=1100.0)).omega_t
    thr_pert = threshold_rabi("perturbative", scheme, -0.9219,
                              ca.DopplerParams(fwhm=1100.0)).omega_t
    thr_dev = abs(thr_full - thr_pert) / thr_pert
    ok = shape_dev < 0.05 and thr_dev < 0.10
    report(10, "weak-probe full vs perturbative: spectra 5%, thresholds 10%",
           ok, f"shape dev {shape_dev:.3f}; threshold dev {thr_dev:.1%}")


def test_criterion_11_determinism(tmp_path):
    scen = tmp_path / "scan.ini"
    base = subprocess.run([sys.executable, "-m", "cascade_at", "preset", "case-a"],
                          capture_output=True, text=True, env=subprocess_env())
    text = base.stdout.replace("delta1_start = -1500.0", "delta1_start = -400.0")
    text = text.replace("delta1_stop = 1500.0", "delta1_stop = 400.0")
    text = text.replace("delta1_step = 5.0", "delta1_step = 25.0")
    scen.write_text(text)
    blobs = []
    for run in range(3):
        out = tmp_path / f"out_{run}.csv"
        res = subprocess.run(
            [sys.executable, "-m", "cascade_at", "spectrum", "--scenario",
             str(scen), "--engine", "full", "--observable", "both",
             "--out", str(out)], capture_output=True, text=True, env=subprocess_env())
        assert res.returncode == 0, res.stderr
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(11, "CLI output byte-identical across runs",
           ok, f"{len(blobs[0])} bytes")
