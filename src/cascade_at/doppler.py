"""Gaussian velocity averaging of the fixed-velocity lineshapes.

Two routes are provided:

* :func:`average` - deterministic numeric quadrature of either engine
  (``full`` steady-state solver or ``perturbative`` weak-probe forms) over
  the velocity distribution.  The nominal rule is Gauss-Hermite of the
  requested order; whenever the integrand has velocity-space poles too
  close to the real axis for that rule to resolve (which happens as soon as
  the natural widths gamma/(k v_p) fall below the node spacing), the sum
  for that grid point is evaluated on a pole-refined composite
  Gauss-Legendre rule with the same Gaussian weight and equivalent base
  resolution.

* :func:`average_analytic_I3` / :func:`average_analytic_I2` - exact
  partial-fraction evaluation of the perturbative averages: 1/|D(u)|^2 has
  four simple complex poles, and each Gaussian pole integral is a
  Faddeeva-function value via ``Integral e^{-t^2}/(t - z) dt = i pi w(z)``
  for Im z > 0 (the lower half-plane reached by conjugation symmetry).  One
  routine evaluates the whole detuning grid at once.

Both routes agree to ~1e-9 relative; the numeric route never touches the
Faddeeva function or partial fractions, so the pair forms an independent
cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError, DegenerateRootError, NumericalError
from .faddeeva import w as faddeeva_w
from .lineshape import (K_RHO22, K_RHO33, denominator_coefficients, doppler_slopes,
                        rho_weak_batch)
from .liouville import populations_batch
from .model import DopplerParams, DriveParams, LevelScheme, rates, wavenumber_ratio

_SQRTPI = math.sqrt(math.pi)
_U_MAX = 6.5               # Gaussian support cutoff: exp(-6.5^2) ~ 5e-19
_PANEL_DEGREE = 12
_DEGENERATE_SEP = 1e-9     # relative pole separation refused by partial fractions
_PANEL_NODES, _PANEL_WEIGHTS = leggauss(_PANEL_DEGREE)

ENGINES = ("full", "perturbative")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights for Integral e^{-u^2} f(u) du."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_hermite(cls, order: int) -> "QuadratureRule":
        if order < 1:
            raise ConfigError("quadrature order must be >= 1")
        # Golub-Welsch on the Jacobi matrix; numpy's recurrence-based
        # hermgauss overflows for order >~ 385.
        k = np.arange(1, order)
        nodes, vecs = eigh_tridiagonal(np.zeros(order), np.sqrt(k / 2))
        weights = _SQRTPI * vecs[0] ** 2
        nodes = (nodes - nodes[::-1]) / 2          # enforce exact symmetry
        weights = (weights + weights[::-1]) / 2
        return cls(order=order, nodes=nodes, weights=weights)

    @property
    def spacing(self) -> float:
        """Bulk node spacing near u = 0."""
        return math.pi / math.sqrt(2.0 * self.order)


@dataclass(frozen=True)
class PoleDecomposition:
    """Roots of D(u); the other two poles of 1/|D|^2 are their complex
    conjugates.  ``region_two`` marks -1 < x < 0, the counter-propagating
    geometry whose splitting is Doppler-insensitive.
    """

    z1: complex
    z2: complex
    region_two: bool


@dataclass
class Spectrum:
    """Doppler-averaged intensity arrays over a probe-detuning grid."""

    delta1: np.ndarray
    I2: np.ndarray | None
    I3: np.ndarray | None
    engine: str
    quad_order: int | None


def _validated_intensity(vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite intensity in Doppler average")
    peak = float(np.max(np.abs(vals))) if vals.size else 0.0
    if np.any(vals < -1e-9 * max(peak, 1e-300)):
        raise NumericalError("significantly negative intensity in Doppler average")
    return np.maximum(vals, 0.0)


def pole_decomposition(scheme: LevelScheme, drive: DriveParams, dopp: DopplerParams,
                       delta1: float | None = None) -> PoleDecomposition:
    """Roots of D at one probe detuning."""
    den = denominator_coefficients(scheme, drive, dopp, delta1=delta1)
    z1, z2 = den.roots()
    if abs(z1 - z2) < _DEGENERATE_SEP * max(abs(z1), abs(z2)):
        raise DegenerateRootError("denominator roots are degenerate")
    x = wavenumber_ratio(scheme, drive)
    return PoleDecomposition(z1=z1, z2=z2, region_two=(-1.0 < x < 0.0))


def _refined_rule(roots, base_order: int,
                  extra_windows=()) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with geometric refinement around every
    velocity-space structure narrower than the base panels.

    ``roots`` are the roots of D at the grid point; ``extra_windows`` are
    (center, halfwidth_scale) pairs for structures they do not capture
    (used by the full engine).  Deterministic pure function of its
    arguments.
    """
    n_panels = max(4, base_order // _PANEL_DEGREE)
    width0 = 2 * _U_MAX / n_panels
    edges = set(np.linspace(-_U_MAX, _U_MAX, n_panels + 1).tolist())

    windows = [(p.real, abs(p.imag)) for p in roots]
    windows.extend(extra_windows)

    for center, scale in windows:
        if abs(center) > _U_MAX + 1.0 or scale >= width0:
            continue
        scale = max(scale, 1e-7)
        half = max(16 * scale, 0.02)
        step = scale / 3
        lo, hi = center - step, center + step
        pts = [center - half, center + half, lo, hi]
        while hi - center < half:
            step *= 2
            lo -= step
            hi += step
            pts.extend((lo, hi))
        for e in pts:
            if -_U_MAX < e < _U_MAX:
                edges.add(float(e))

    edges = np.array(sorted(edges))
    keep = np.concatenate(([True], np.diff(edges) > 1e-12))
    edges = edges[keep]
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    nodes = (mid[:, None] + half[:, None] * _PANEL_NODES[None, :]).ravel()
    wts = (half[:, None] * _PANEL_WEIGHTS[None, :]).ravel()
    return nodes, wts * np.exp(-nodes * nodes)


def _full_engine_windows(scheme: LevelScheme, drive: DriveParams, delta1: float,
                         alpha: float, beta: float):
    """Velocity classes with structure the weak-probe denominator roots do
    not flag: the coupling-resonant class feeding the stepwise channel at
    small Omega_2, and the saturation-dressed one-photon class when the
    probe is strong.  The bare one- and two-photon classes are always roots
    of D, so they need no extra windows."""
    rp = rates(scheme)
    out = []
    if drive.rabi_1 > rp.gamma_12:
        # probe dressing spreads the one-photon class over ~Om1
        out.append((-delta1 / alpha, drive.rabi_1 / abs(alpha)))
    if beta != 0 and drive.rabi_2 < 10 * rp.gamma_23:
        out.append((-drive.detuning_2 / beta, rp.gamma_23 / abs(beta)))
    return out


def _engine_batch(engine: str, scheme: LevelScheme, drive: DriveParams,
                  d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I2, I3) raw intensities at arrays of effective detunings."""
    rp = rates(scheme)
    if engine == "full":
        r22, r33 = populations_batch(scheme, drive, d1, d2)
    elif engine == "perturbative":
        r22, r33 = rho_weak_batch(scheme, drive, d1, d2)
    else:
        raise ConfigError(f"unknown engine {engine!r}")
    return rp.Gamma_2 * r22, rp.Gamma_3 * r33


def average(engine: str, observable: str, scheme: LevelScheme, drive: DriveParams,
            dopp: DopplerParams, rule: QuadratureRule,
            delta1_grid: np.ndarray) -> Spectrum:
    """Velocity average of the chosen engine over a probe-detuning grid.

    ``observable`` selects which intensity columns are populated: "I2",
    "I3" or "both".  ``fwhm = 0`` short-circuits to the v_z = 0 evaluation.
    Summation order is fixed (ascending node index) so results are
    bit-reproducible.
    """
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    if observable not in ("I2", "I3", "both"):
        raise ConfigError(f"observable must be I2, I3 or both, got {observable!r}")
    if rule.order < 16:
        raise ConfigError("quadrature order must be >= 16")
    grid = np.asarray(delta1_grid, dtype=float)
    fwhm = dopp.fwhm_mhz(scheme)
    if fwhm < 0:
        raise ConfigError("Doppler width must be >= 0")

    i2 = np.empty_like(grid)
    i3 = np.empty_like(grid)
    if fwhm == 0.0:
        v2, v3 = _engine_batch(engine, scheme, drive,
                               grid + 0.0, np.full_like(grid, drive.detuning_2))
        i2[:], i3[:] = v2, v3
    else:
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        narrow_cut = 4.0 * rule.spacing
        for k, delta1 in enumerate(grid):
            den = denominator_coefficients(scheme, drive, dopp, delta1=delta1)
            roots = den.roots()
            narrow = any(abs(p.imag) < narrow_cut and abs(p.real) < _U_MAX + 1.0
                         for p in roots)
            if engine == "full":
                extra = _full_engine_windows(scheme, drive, delta1, alpha, beta)
                narrow = narrow or any(s < narrow_cut and abs(c) < _U_MAX + 1.0
                                       for c, s in extra)
            else:
                extra = ()
            if narrow:
                t, wts = _refined_rule(roots, rule.order, extra)
            else:
                t, wts = rule.nodes, rule.weights
            v2, v3 = _engine_batch(engine, scheme, drive,
                                   delta1 + alpha * t, drive.detuning_2 + beta * t)
            i2[k] = float(np.dot(wts, v2)) / _SQRTPI
            i3[k] = float(np.dot(wts, v3)) / _SQRTPI

    i2 = _validated_intensity(i2) if observable in ("I2", "both") else None
    i3 = _validated_intensity(i3) if observable in ("I3", "both") else None
    return Spectrum(delta1=grid.copy(), I2=i2, I3=i3, engine=engine,
                    quad_order=rule.order)


def _partial_fraction_average(observable: str, scheme: LevelScheme,
                              drive: DriveParams, dopp: DopplerParams,
                              delta1_grid, prefactor: float, numerator) -> Spectrum:
    """(prefactor/sqrt(pi)) Integral e^{-u^2} N(u)/(D(u) conj(D)(u)) du over a
    probe-detuning grid, by partial fractions at every grid point at once.

    ``numerator(delta1, p)`` continues N off the real axis to the poles ``p``
    (shape grid x 4).  Grid points whose four poles come closer than 1e-9
    relative fall back to the pole-refined numeric rule.
    """
    grid = np.asarray(delta1_grid, dtype=float)
    col = ("I2", "I3").index(observable)
    if dopp.fwhm_mhz(scheme) == 0.0:
        vals = _engine_batch("perturbative", scheme, drive,
                             grid + 0.0, np.full_like(grid, drive.detuning_2))[col]
    else:
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        den = denominator_coefficients(scheme, drive, dopp, delta1=grid)
        z1, z2 = den.roots()
        poles = np.stack((z1, z2, np.conj(z1), np.conj(z2)), axis=-1)
        diff = poles[:, :, None] - poles[:, None, :]
        off = ~np.eye(4, dtype=bool)
        scale = np.maximum(np.maximum(np.abs(z1), np.abs(z2)), 1e-30)
        degenerate = np.abs(diff[:, off]).min(axis=-1) < _DEGENERATE_SEP * scale
        ok = ~degenerate
        p = poles[ok]
        prod = np.prod(np.where(off, diff[ok], 1.0), axis=-1)
        # Integral e^{-u^2}/(u - p) du = +-i pi w(+-p), signed so that the
        # Faddeeva argument lies in the upper half-plane
        sign = np.where(p.imag > 0, 1.0, -1.0)
        pole_integral = sign * 1j * math.pi * faddeeva_w(sign * p)
        terms = numerator(grid[ok, None], p) / (abs(den.a) ** 2 * prod) * pole_integral
        vals = np.empty_like(grid)
        vals[ok] = prefactor * terms.sum(axis=-1).real / _SQRTPI
        for k in np.nonzero(degenerate)[0]:
            t, wts = _refined_rule((z1[k], z2[k]), 400)
            v = _engine_batch("perturbative", scheme, drive,
                              grid[k] + alpha * t, drive.detuning_2 + beta * t)[col]
            vals[k] = float(np.dot(wts, v)) / _SQRTPI
    vals = _validated_intensity(vals)
    return Spectrum(delta1=grid.copy(), I2=vals if col == 0 else None,
                    I3=vals if col == 1 else None, engine="analytic", quad_order=None)


def average_analytic_I3(scheme: LevelScheme, drive: DriveParams, dopp: DopplerParams,
                        delta1_grid: np.ndarray) -> Spectrum:
    """Exact Doppler average of the perturbative upper-level intensity."""
    prefactor = rates(scheme).Gamma_3 * K_RHO33 * (drive.rabi_1 * drive.rabi_2 / 4) ** 2
    return _partial_fraction_average("I3", scheme, drive, dopp, delta1_grid,
                                     prefactor, lambda delta1, p: 1.0)


def average_analytic_I2(scheme: LevelScheme, drive: DriveParams, dopp: DopplerParams,
                        delta1_grid: np.ndarray) -> Spectrum:
    """Exact Doppler average of the perturbative intermediate-level
    intensity; the quadratic numerator |gamma_13 + i(d1+d2)|^2 is continued
    off the real axis."""
    rp = rates(scheme)
    prefactor = rp.Gamma_2 * K_RHO22 * (drive.rabi_1 / 2) ** 2
    alpha, beta = doppler_slopes(scheme, drive, dopp)

    def numerator(delta1, p):
        d2ph = delta1 + drive.detuning_2 + (alpha + beta) * p
        return rp.gamma_13 ** 2 + d2ph * d2ph

    return _partial_fraction_average("I2", scheme, drive, dopp, delta1_grid,
                                     prefactor, numerator)


def intensities(engine: str, observable: str, scheme: LevelScheme,
                drive: DriveParams, dopp: DopplerParams, delta1_grid: np.ndarray,
                quad_order: int = 200) -> np.ndarray:
    """Doppler-averaged I2 and/or I3 over a probe-detuning grid, one row per
    observable (I2 first): the exact average for engine "analytic", else
    :func:`average` on the Gauss-Hermite rule of order ``quad_order``."""
    if observable not in ("I2", "I3", "both"):
        raise ConfigError(f"observable must be I2, I3 or both, got {observable!r}")
    if engine == "analytic":
        rows = []
        if observable in ("I2", "both"):
            rows.append(average_analytic_I2(scheme, drive, dopp, delta1_grid).I2)
        if observable in ("I3", "both"):
            rows.append(average_analytic_I3(scheme, drive, dopp, delta1_grid).I3)
        return np.array(rows)
    rule = QuadratureRule.gauss_hermite(quad_order)
    spec = average(engine, observable, scheme, drive, dopp, rule, delta1_grid)
    return np.array([row for row in (spec.I2, spec.I3) if row is not None])


def root_difference_closed_form(scheme: LevelScheme, drive: DriveParams,
                                delta1: float) -> complex:
    """Closed form for 1/(z1 - z2) at resonant coupling:

        2 x (1+x) sqrt((Delta1 - i Gam)^2 + x(1+x) Om2^2) / |...|

    with ``Gam = gamma_12 (1+x) - gamma_13 x`` and the principal square
    root.  The roots here are measured in units of half the coupling-field
    Doppler shift (k2 v_z / 2), which makes the expression independent of
    the Doppler width.  Documented regime: -1 < x < 0.
    """
    if drive.detuning_2 != 0.0:
        raise ConfigError("closed form requires resonant coupling (detuning_2 = 0)")
    x = wavenumber_ratio(scheme, drive)
    if x == 0.0 or x == -1.0:
        raise DegenerateRootError("closed form undefined at x = 0 or x = -1")
    rp = rates(scheme)
    gam = rp.gamma_12 * (1 + x) - rp.gamma_13 * x
    s2 = (delta1 - 1j * gam) ** 2 + x * (1 + x) * drive.rabi_2 ** 2
    return 2 * x * (1 + x) * np.sqrt(s2) / abs(s2)
