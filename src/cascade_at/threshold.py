"""Threshold coupling Rabi frequency for resolvable Autler-Townes splitting.

The splitting counts as resolved when the Doppler-averaged upper-level
intensity develops a local minimum at zero probe detuning, i.e. when its
curvature there changes sign.  The threshold is the smallest coupling Rabi
frequency with positive curvature.  One lockstep search finds it for every
cell of a curve or surface at once.  The cells are the product of a 1-D
grid of wavenumber ratios x and a 1-D grid of Doppler widths; the geometry
realizing x is built once per x, and a cell enters the search only through
its two Doppler slopes and, in region II, the seed of its x.  The search
runs in three phases:

1. seed check: in the counter-propagating region -1 < x < 0 the analytic
   estimate ``Gam / sqrt(-x (1+x))`` proposes the bracket [seed/30, seed*30],
   kept where the curvature is negative at its bottom and positive at its top;
2. pre-scan: 20 log-spaced Omega_2 over each cell's bracket find the first
   negative-to-positive crossing and flag multiple sign changes;
3. Illinois steps: every cell with a crossing moves one end of its bracket
   [a, b] to the secant point of the two end curvatures on log Omega_2,
   halving the value of an end kept twice in a row and taking the
   geometric midpoint when the secant point is not strictly inside, until
   b/a <= 1 + 1e-3; the threshold is sqrt(ab).

Each phase evaluates the curvature of all its (cell, Omega_2) rows in one
row-batched call, so the cells share their numpy calls; a cell's arithmetic
is the same as that of a search run on it alone.  A phase without rows
makes no call, and the analytic rows of a phase take one kernel call up to
4096 (row, M weight) points.  ``threshold_rabi`` is the 1 x 1 case and
``threshold_curve`` the one-width case.

The analytic engine's curvature is exact: the second derivative of the
partial-fraction average at Delta_1 = 0, from the four poles of 1/|D|^2 and
their derivatives (:func:`cascade_at.doppler._weak_probe_curvature`).  At
resonant coupling these poles are +-z_0, +-z_1 for the roots z = iv of the
real quadratic D(iv), which also makes I3 even in Delta_1.  The other
engines, and the analytic points the exact form refuses (poles closer
than 1e-9 relative, rounding over its guard, zero Doppler width), take a
5-point central stencil of step h = max(0.5 MHz, Omega_2/200), evaluated
at Delta_1 = 0, h, 2h only: at resonant coupling I3 is even in Delta_1
for every engine.  In the analytic and perturbative engines
D(-u, -Delta_1) = conj D(u, Delta_1) and the Gaussian weight is even; in
the full engine P = diag(1, -1, 1) gives
P H(d1, d2) P = -H(-d1, -d2) with real diagonal relaxation, so P rho* P is
the steady state at the negated detunings, with the same populations.  An
M sum adds the curvatures of its components.

The search runs at the probe ``rabi_1`` it is given (default the weak probe
Gamma_2/20) and at resonant coupling; the CLI commands pass neither the
scenario's probe nor its coupling detuning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .doppler import ENGINES, _RESONANT_BLOCK, _row_average, _weak_probe_curvature
from .errors import ConfigError, NumericalError
from .lineshape import doppler_slopes
from .model import (C_M_PER_S, DopplerParams, DriveParams, LevelScheme,
                    most_probable_speed, rates)
# m_summed stays bound here: perfbench/tracer.py patches it in every module
# that binds it, and perfbench/selftests.py checks the patch on this module
from .msublevel import MSublevelWeights, folded_sum, folded_weights, m_summed  # noqa: F401

SINGULAR_BAND = 0.02          # excluded neighbourhoods of x = 0 and x = -1
_BRACKET = (1.0, 50000.0)     # MHz
_PRESCAN_POINTS = 20
_REL_TOL = 1e-3
_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])   # in units of the step h
# I3 is even in Delta_1 at resonant coupling (module docstring): the stencil
# is evaluated at its points 0, h, 2h, and _MIRROR picks [f2, f1, f0, f1, f2]
_HALF_STENCIL = _STENCIL[2:]
_MIRROR = np.array([2, 1, 0, 1, 2])


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


def _validate_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")


def _geometry_for_x(scheme: LevelScheme, x: float, rabi_1: float) -> tuple[LevelScheme, DriveParams]:
    """Scheme/drive pair realizing a signed wavenumber ratio x with the
    probe transition kept fixed."""
    if x == 0.0:
        raise ConfigError("wavenumber ratio x must be nonzero")
    scheme_x = replace(scheme, wavenumber_32=scheme.wavenumber_21 / abs(x))
    drive = DriveParams(rabi_1=rabi_1, rabi_2=0.0, detuning_1=0.0, detuning_2=0.0,
                        dir_1=1, dir_2=(1 if x > 0 else -1))
    return scheme_x, drive


def _second_derivative(f, h):
    """5-point central stencil over the last axis of ``f``, step ``h``."""
    return (-f[..., 0] + 16 * f[..., 1] - 30 * f[..., 2] + 16 * f[..., 3]
            - f[..., 4]) / (12 * h * h)


def curvature_at_zero(engine: str, scheme: LevelScheme, drive: DriveParams,
                      dopp: DopplerParams,
                      msum: MSublevelWeights | None = None) -> float:
    """Second derivative of the Doppler-averaged I3 at zero probe detuning.
    Positive means a local minimum, i.e. resolved splitting.  Requires
    resonant coupling.  The one-row case of the threshold search's
    curvatures (module docstring), with the same bits.
    """
    _validate_engine(engine)
    if drive.detuning_2 != 0.0:
        raise ConfigError("curvature condition is defined at resonant coupling")
    alpha, beta = doppler_slopes(scheme, drive, dopp)
    return float(_curvature_rows(engine, scheme, drive, np.array([alpha]),
                                 np.array([beta]), np.array([drive.rabi_2]), msum)[0])


def _curvature_rows(engine: str, scheme: LevelScheme, drive: DriveParams,
                    alpha: np.ndarray, beta: np.ndarray, rabi_2: np.ndarray,
                    msum: MSublevelWeights | None) -> np.ndarray:
    """I3 curvature at Delta_1 = 0 of every row: Doppler slopes ``alpha[r]``,
    ``beta[r]`` at coupling ``rabi_2[r]``.  ``scheme`` and ``drive`` carry
    what all rows share (decay rates, the probe, resonant coupling).

    Every (row, folded M weight) pair is one point.  Analytic points take
    the exact curvature (:func:`cascade_at.doppler._weak_probe_curvature`),
    in blocks of ``_RESONANT_BLOCK``; the points it refuses, zero-width
    points (alpha = 0) and every point of the other engines take the even
    half stencil, all in one :func:`cascade_at.doppler._row_average` call.
    ``folded_sum`` then sums the M axis.  Raises NumericalError if any row
    fails or gives a non-finite curvature.
    """
    rabi_2 = np.asarray(rabi_2, dtype=float)
    weights = folded_weights(msum)
    om = (rabi_2[:, None] * weights).ravel()              # (row, M weight), flat
    alpha, beta = (np.repeat(np.asarray(s, dtype=float), len(weights)) for s in (alpha, beta))
    curv = np.full(om.size, np.nan)
    stencil = np.ones(om.size, dtype=bool)
    if engine == "analytic":
        exact = np.flatnonzero(alpha != 0.0)
        for part in (exact[i:i + _RESONANT_BLOCK]
                     for i in range(0, len(exact), _RESONANT_BLOCK)):
            ok, vals = _weak_probe_curvature(scheme, drive, alpha[part], beta[part], om[part])
            curv[part[ok]] = vals
            stencil[part[ok]] = False
        if not np.all(np.isfinite(curv[~stencil])):
            raise NumericalError("non-finite exact curvature")
    if stencil.any():
        # each row's step, from its own coupling, shared by its M weights
        h = np.repeat(np.maximum(0.5, rabi_2 / 200.0), len(weights))[stencil]
        i3 = _row_average(engine, scheme, drive, h[:, None] * _HALF_STENCIL,
                          alpha[stencil, None], beta[stencil, None], om[stencil, None])[1]
        curv[stencil] = _second_derivative(i3[:, _MIRROR], h)
    curv = curv.reshape(len(rabi_2), len(weights))
    return folded_sum(curv.T, msum)


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
    _validate_engine(engine)
    x_grid, dnu_grid = np.asarray(x_grid, dtype=float), np.asarray(dnu_grid, dtype=float)
    if x_grid.ndim != 1 or dnu_grid.ndim != 1:
        raise ConfigError("threshold x and Doppler width grids must be 1-D")
    if not (np.all(np.isfinite(x_grid)) and np.all(np.isfinite(dnu_grid))):
        raise ConfigError("threshold x and Doppler width grids must be finite")
    bad = (np.abs(x_grid) < SINGULAR_BAND) | (np.abs(x_grid + 1.0) < SINGULAR_BAND)
    if np.any(bad):
        raise ConfigError(
            f"x grid enters the singular bands |x| < {SINGULAR_BAND} or "
            f"|x+1| < {SINGULAR_BAND}: {x_grid[bad]}")
    if rabi_1 is None:
        rabi_1 = rates(scheme).Gamma_2 / 20.0
    alpha, beta = _cell_slopes(scheme, x_grid, dnu_grid, rabi_1)
    # region-II seeds depend on x only (nan outside region II)
    seed = np.repeat(np.array([region_two_estimate(scheme, float(x)) for x in x_grid],
                              dtype=float), len(dnu_grid))
    drive = DriveParams(rabi_1=rabi_1, rabi_2=0.0)

    def curvatures(idx, rabi_2):
        """Curvatures of the rows (cell idx[r], rabi_2[r]) and the mask of
        rows that raise NumericalError (nan).  A failed batch is retried row
        by row, each row being one call of a search run on its cell alone.
        A phase with no rows makes no call."""
        if not len(idx):
            return np.empty(0), np.zeros(0, dtype=bool)
        try:
            return (_curvature_rows(engine, scheme, drive, alpha[idx], beta[idx], rabi_2,
                                    msum),
                    np.zeros(len(idx), dtype=bool))
        except NumericalError:
            pass
        curv, bad = np.full(len(idx), np.nan), np.zeros(len(idx), dtype=bool)
        for r, i in enumerate(idx):
            try:
                curv[r] = _curvature_rows(engine, scheme, drive, alpha[i:i + 1],
                                          beta[i:i + 1], rabi_2[r:r + 1], msum)[0]
            except NumericalError:
                bad[r] = True
        return curv, bad

    n = len(seed)
    lo, hi = np.full(n, _BRACKET[0]), np.full(n, _BRACKET[1])
    failed = np.zeros(n, dtype=bool)

    # 1. seed check, as `curv(lo_s) < 0 < curv(hi_s)`: the top counts only
    # where the bottom is negative
    seeded = np.flatnonzero(~np.isnan(seed))
    seeds = seed[seeded]
    lo_s = np.maximum(_BRACKET[0], seeds / 30)
    hi_s = np.minimum(_BRACKET[1], seeds * 30)
    curv, bad = curvatures(np.concatenate((seeded, seeded)), np.concatenate((lo_s, hi_s)))
    k = len(seeded)
    below, above = curv[:k] < 0, curv[k:] > 0
    failed[seeded] = bad[:k] | (below & bad[k:])
    take = below & above & ~failed[seeded]
    lo[seeded[take]], hi[seeded[take]] = lo_s[take], hi_s[take]

    # 2. pre-scan
    live = np.flatnonzero(~failed)
    scans = np.geomspace(lo[live], hi[live], _PRESCAN_POINTS, axis=1)
    curv, bad = curvatures(np.repeat(live, _PRESCAN_POINTS), scans.ravel())
    bad = bad.reshape(scans.shape).any(axis=1)
    curv = curv.reshape(scans.shape)
    signs = curv > 0
    rising = ~signs[:, :-1] & signs[:, 1:]
    found = rising.any(axis=1) & ~bad
    # a positive sign before the first crossing (strong-probe dressing can
    # curve the line upward at negligible coupling) also counts as
    # non-monotonic: the reported value is still the smallest Omega_2 where
    # the curvature crosses from negative to positive.
    non_monotonic = np.zeros(n, dtype=bool)
    non_monotonic[live[found]] = ((rising.sum(axis=1) > 1) | signs[:, 0])[found]
    first = rising.argmax(axis=1)[found]
    stepped = live[found]
    a, b = scans[found, first], scans[found, first + 1]
    fa, fb = curv[found, first], curv[found, first + 1]

    # 3. Illinois steps on log Omega_2, each cell on its own bracket
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
        curv, bad = curvatures(stepped[step], om)
        pos, neg = curv > 0, ~(curv > 0) & ~bad
        up, down = step[pos], step[neg]
        # an end kept a second time in a row has its value halved
        fa[up[kept[up] == -1]] /= 2
        fb[down[kept[down] == 1]] /= 2
        b[up], lb[up], fb[up], kept[up] = om[pos], new[pos], curv[pos], -1
        a[down], la[down], fa[down], kept[down] = om[neg], new[neg], curv[neg], 1
        active[step[bad]] = False

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
    if np.any(np.asarray(dnu_grid, dtype=float) <= 0):
        raise ConfigError("Doppler widths in the surface grid must be > 0")
    return _search(engine, scheme, x_grid, dnu_grid, msum, rabi_1)
