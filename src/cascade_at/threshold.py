"""Threshold coupling Rabi frequency for resolvable Autler-Townes splitting.

The splitting counts as resolved when the Doppler-averaged upper-level
intensity develops a local minimum at zero probe detuning, i.e. when its
curvature there changes sign.  The threshold is the smallest coupling Rabi
frequency with positive curvature.  One lockstep search finds it for every
cell of a curve or surface at once.  The cells are the product of a 1-D
grid of wavenumber ratios x and a 1-D grid of Doppler widths; the geometry
realizing x is built once per x, and a cell enters the search only through
its two Doppler slopes and, in region II, the seed of its x.  The search
runs in two phases:

1. pre-scan: 20 log-spaced Omega_2 over each cell's bracket find the first
   negative-to-positive crossing and flag multiple sign changes.  In the
   counter-propagating region -1 < x < 0 the bracket is [seed/30, seed*30]
   around the analytic estimate ``Gam / sqrt(-x (1+x))``, elsewhere 1 MHz to
   50 GHz; a seeded cell whose scan is not negative at its bottom and
   positive at its top scans 1 MHz to 50 GHz again, in one more call;
2. Illinois steps: every cell with a crossing moves one end of its bracket
   [a, b] to the secant point of the two end curvatures on log Omega_2,
   halving the value of an end kept twice in a row and taking the
   geometric midpoint when the secant point is not strictly inside, until
   b/a <= 1 + 1e-3; the threshold is sqrt(ab).

Each pre-scan pass and each Illinois step evaluates the curvature of all
its (cell, Omega_2) rows in one row-batched call of
:func:`cascade_at.doppler._curvature_rows`, which owns the curvature, its M
axis and its stencil fallback, so the cells share their numpy calls; a
cell's arithmetic is the same as that of a search run on it alone.  A pass
without rows makes no call.  ``threshold_rabi`` is the 1 x 1 case and
``threshold_curve`` the one-width case.

The search runs at the probe ``rabi_1`` it is given (default the weak probe
Gamma_2/20) and at resonant coupling; the CLI commands pass neither the
scenario's probe nor its coupling detuning.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .doppler import ENGINES, _curvature_rows
from .errors import ConfigError, NumericalError
from .lineshape import doppler_slopes
from .model import (C_M_PER_S, DopplerParams, DriveParams, LevelScheme,
                    most_probable_speed, rates)
from .msublevel import MSublevelWeights

SINGULAR_BAND = 0.02          # excluded neighbourhood of x = 0
_BRACKET = (1.0, 50000.0)     # MHz
_PRESCAN_POINTS = 20
_REL_TOL = 1e-3


@dataclass(frozen=True)
class ThresholdResult:
    omega_t: float            # MHz; nan when not found
    converged: bool
    non_monotonic: bool = False


@dataclass
class ThresholdMap:
    """Threshold surface over (x, Doppler width) grids.

    ``omega_t[i, j]`` is the threshold at ``x_grid[i]``, ``dnu_grid[j]``
    (nan where the search found no crossing).
    """

    x_grid: np.ndarray
    dnu_grid: np.ndarray
    omega_t: np.ndarray
    converged: np.ndarray
    non_monotonic: np.ndarray
    region_two: np.ndarray


def _geometry_for_x(scheme: LevelScheme, x: float, rabi_1: float) -> tuple[LevelScheme, DriveParams]:
    """Scheme/drive pair realizing a signed wavenumber ratio x with the
    probe transition kept fixed."""
    if x == 0.0:
        raise ConfigError("wavenumber ratio x must be nonzero")
    scheme_x = replace(scheme, wavenumber_32=scheme.wavenumber_21 / abs(x))
    drive = DriveParams(rabi_1=rabi_1, rabi_2=0.0, detuning_1=0.0, detuning_2=0.0,
                        dir_1=1, dir_2=(1 if x > 0 else -1))
    return scheme_x, drive


def curvature_at_zero(engine: str, scheme: LevelScheme, drive: DriveParams,
                      dopp: DopplerParams,
                      msum: MSublevelWeights | None = None) -> float:
    """Second derivative of the Doppler-averaged I3 at zero probe detuning.
    Positive means a local minimum, i.e. resolved splitting.  The one-row
    case of :func:`cascade_at.doppler._curvature_rows`, with the same bits
    and its one check of resonant coupling (ConfigError if Delta_2 != 0).
    """
    alpha, beta = doppler_slopes(scheme, drive, dopp)
    return float(_curvature_rows(engine, scheme, drive, np.array([alpha]),
                                 np.array([beta]), np.array([drive.rabi_2]), msum)[0])


def region_two_estimate(scheme: LevelScheme, x: float) -> float | None:
    """Closed-form threshold seed Gam/sqrt(-x(1+x)) for -1 < x < 0."""
    if not -1.0 < x < 0.0:
        return None
    rp = rates(scheme)
    gam = rp.gamma_12 * (1 + x) - rp.gamma_13 * x
    return gam / math.sqrt(-x * (1 + x))


def _cell_slopes(scheme: LevelScheme, x_grid: np.ndarray, dnu_grid: np.ndarray,
                 rabi_1: float) -> tuple[np.ndarray, np.ndarray]:
    """Doppler slopes (alpha, beta) of the x-major cells of the product of
    ``x_grid`` and ``dnu_grid``, with the bits of :func:`doppler_slopes` per
    cell.  The probe transition is the same for every x, so v_p and alpha
    depend on the width only; beta is sign(x) nu_32(x) times v_p(width),
    over c.  The geometry is built once per x, v_p once per width."""
    v_p = np.array([most_probable_speed(scheme, DopplerParams(fwhm=float(w)))
                    for w in dnu_grid])
    geometries = [_geometry_for_x(scheme, float(x), rabi_1) for x in x_grid]
    sign_nu32 = np.array([drive.dir_2 * scheme_x.nu_32 for scheme_x, drive in geometries])
    # every geometry has dir_1 = 1
    alpha = np.tile(scheme.nu_21 * v_p / C_M_PER_S, len(x_grid))
    return alpha, (sign_nu32[:, None] * v_p / C_M_PER_S).ravel()


def _search(engine: str, scheme: LevelScheme, x_grid, dnu_grid,
            msum: MSublevelWeights | None, rabi_1: float | None) -> ThresholdMap:
    """Threshold map over the product of the 1-D grids ``x_grid`` and
    ``dnu_grid`` (Doppler FWHM, MHz) by one lockstep search (module
    docstring).  A numerical failure in any curvature a cell needs leaves
    that cell nan and unconverged."""
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    x_grid, dnu_grid = np.asarray(x_grid, dtype=float), np.asarray(dnu_grid, dtype=float)
    if x_grid.ndim != 1 or dnu_grid.ndim != 1:
        raise ConfigError("threshold x and Doppler width grids must be 1-D")
    if not (np.all(np.isfinite(x_grid)) and np.all(np.isfinite(dnu_grid))):
        raise ConfigError("threshold x and Doppler width grids must be finite")
    bad = np.abs(x_grid) < SINGULAR_BAND
    if np.any(bad):
        raise ConfigError(f"x grid enters the singular band |x| < {SINGULAR_BAND}: {x_grid[bad]}")
    if rabi_1 is None:
        rabi_1 = rates(scheme).Gamma_2 / 20.0
    if not rabi_1 > 0:
        # I3 vanishes identically without a probe: every curvature is 0
        raise ConfigError(f"threshold search needs a probe rabi_1 > 0, got {rabi_1}")
    alpha, beta = _cell_slopes(scheme, x_grid, dnu_grid, rabi_1)
    # region-II seeds depend on x only (nan outside region II)
    seed = np.repeat(np.array([region_two_estimate(scheme, float(x)) for x in x_grid],
                              dtype=float), len(dnu_grid))
    drive = DriveParams(rabi_1=rabi_1, rabi_2=0.0)

    def curvatures(idx, rabi_2):
        """Curvatures of the rows (cell idx[r], rabi_2[r]), nan where a row
        raises NumericalError; every other curvature is finite.  A failed
        batch is retried row by row, each row being one call of a search run
        on its cell alone: a batched failure cannot be localized otherwise.
        A pass with no rows makes no call."""
        if not len(idx):
            return np.empty(0)
        try:
            return _curvature_rows(engine, scheme, drive, alpha[idx], beta[idx], rabi_2, msum)
        except NumericalError:
            pass
        curv = np.full(len(idx), np.nan)
        for r, i in enumerate(idx):
            with contextlib.suppress(NumericalError):
                curv[r] = _curvature_rows(engine, scheme, drive, alpha[i:i + 1],
                                          beta[i:i + 1], rabi_2[r:r + 1], msum)[0]
        return curv

    n = len(seed)
    # 1. pre-scan: region-II cells over [seed/30, seed*30], the rest (nan
    # seed, which fmax and fmin ignore) over _BRACKET
    lo, hi = np.fmax(_BRACKET[0], seed / 30), np.fmin(_BRACKET[1], seed * 30)

    def prescan(cells):
        scans = np.geomspace(lo[cells], hi[cells], _PRESCAN_POINTS, axis=1)
        rows = curvatures(np.repeat(cells, _PRESCAN_POINTS), scans.ravel())
        return scans, rows.reshape(scans.shape)

    scans, curv = prescan(np.arange(n))
    # a seed bracket holds where the curvature is negative at its bottom and
    # positive at its top; a nan bottom, or a nan top above a negative
    # bottom, fails the cell, and every other seeded cell scans _BRACKET
    bottom, top = curv[:, 0], curv[:, -1]
    rescan = np.flatnonzero(~np.isnan(seed) & ((bottom >= 0) | ((bottom < 0) & (top <= 0))))
    lo[rescan], hi[rescan] = _BRACKET
    scans[rescan], curv[rescan] = prescan(rescan)
    signs = curv > 0
    rising = ~signs[:, :-1] & signs[:, 1:]
    found = rising.any(axis=1) & ~np.isnan(curv).any(axis=1)
    # a positive sign before the first crossing (strong-probe dressing can
    # curve the line upward at negligible coupling) also counts as
    # non-monotonic: the reported value is still the smallest Omega_2 where
    # the curvature crosses from negative to positive.
    non_monotonic = found & ((rising.sum(axis=1) > 1) | signs[:, 0])
    first = rising.argmax(axis=1)[found]
    stepped = np.flatnonzero(found)
    a, b = scans[found, first], scans[found, first + 1]
    fa, fb = curv[found, first], curv[found, first + 1]

    # 2. Illinois steps on log Omega_2, each cell on its own bracket
    la, lb = np.log(a), np.log(b)
    kept = np.zeros(len(stepped), dtype=int)      # end kept last round: -1 a, 1 b
    active = np.ones(len(stepped), dtype=bool)
    while True:
        step = np.flatnonzero(active & (b / a > 1.0 + _REL_TOL))
        if not len(step):
            break
        new = lb[step] - fb[step] * (lb[step] - la[step]) / (fb[step] - fa[step])
        inside = (la[step] < new) & (new < lb[step])
        new = np.where(inside, new, 0.5 * (la[step] + lb[step]))
        om = np.exp(new)
        curv = curvatures(stepped[step], om)
        pos, neg = curv > 0, curv <= 0
        up, down = step[pos], step[neg]
        # an end kept a second time in a row has its value halved
        fa[up[kept[up] == -1]] /= 2
        fb[down[kept[down] == 1]] /= 2
        b[up], lb[up], fb[up], kept[up] = om[pos], new[pos], curv[pos], -1
        a[down], la[down], fa[down], kept[down] = om[neg], new[neg], curv[neg], 1
        active[step[np.isnan(curv)]] = False

    omega = np.full(n, np.nan)
    omega[stepped[active]] = np.sqrt(a[active] * b[active])
    converged = np.zeros(n, dtype=bool)
    converged[stepped[active]] = True
    shape = (len(x_grid), len(dnu_grid))
    return ThresholdMap(
        x_grid=x_grid, dnu_grid=dnu_grid, omega_t=omega.reshape(shape),
        converged=converged.reshape(shape),
        non_monotonic=(non_monotonic & converged).reshape(shape),
        region_two=(x_grid > -1.0) & (x_grid < 0.0))


def threshold_rabi(engine: str, scheme: LevelScheme, x: float, dopp: DopplerParams,
                   msum: MSublevelWeights | None = None,
                   rabi_1: float | None = None) -> ThresholdResult:
    """Smallest coupling Rabi frequency with resolved splitting at ratio x:
    the one-cell case of the lockstep search (module docstring).  The
    pre-scan reports multiple sign changes via ``non_monotonic``; the
    Illinois steps stop at 1e-3 relative.  A numerical failure gives an
    unconverged nan result.
    """
    tmap = _search(engine, scheme, [x], [dopp.fwhm_mhz(scheme)], msum, rabi_1)
    return ThresholdResult(omega_t=float(tmap.omega_t[0, 0]),
                           converged=bool(tmap.converged[0, 0]),
                           non_monotonic=bool(tmap.non_monotonic[0, 0]))


def threshold_curve(engine: str, scheme: LevelScheme, x_grid, dopp: DopplerParams,
                    msum: MSublevelWeights | None = None,
                    rabi_1: float | None = None) -> ThresholdMap:
    """Threshold vs wavenumber ratio at a fixed Doppler width."""
    return _search(engine, scheme, x_grid, [dopp.fwhm_mhz(scheme)], msum, rabi_1)


def threshold_surface(engine: str, scheme: LevelScheme, x_grid, dnu_grid,
                      msum: MSublevelWeights | None = None,
                      rabi_1: float | None = None) -> ThresholdMap:
    """Threshold over the (x, Doppler width) plane."""
    return _search(engine, scheme, x_grid, dnu_grid, msum, rabi_1)
