"""Threshold coupling Rabi frequency for resolvable Autler-Townes splitting.

The splitting counts as resolved when the Doppler-averaged upper-level
intensity develops a local minimum at zero probe detuning, i.e. when its
curvature there changes sign.  The threshold is the smallest coupling Rabi
frequency with positive curvature.  One lockstep search finds it for every
cell of a curve or surface at once.  The cells are the product of a 1-D
grid of wavenumber ratios x and a 1-D grid of Doppler widths; a cell enters
the search only through its two Doppler slopes.  The search runs in two
phases:

1. pre-scan: the same 20 log-spaced Omega_2 from 1 MHz to 50 GHz, for
   every cell, find the first negative-to-positive crossing and flag
   multiple sign changes;
2. Newton pairs: every cell with a crossing [a, b] evaluates two rows,
   at log Omega_2 = e +- h around its estimate e, with
   h = 0.4999 ln(1 + 1e-3).  A pair that straddles the crossing becomes
   the bracket; otherwise it replaces the end on its side.  The pair's
   central difference gives the next Newton estimate.  Where its slope is
   not positive or its step longer than the bracket, the secant point of
   the ends is taken instead, and after 3 passes in a row that do not halve
   the bracket the log-midpoint; every estimate is clipped into
   [ln a + h, ln b - h].  The first estimate takes two Newton steps from
   the secant point of the scan's bracket on the quadratic through its ends
   and the scan point beside the end of smaller |curvature|.  The passes
   stop at b/a <= 1 + 1e-3; the threshold is sqrt(ab).

The pre-scan and each Newton pass evaluate the curvature of all their
(cell, Omega_2) rows in one row-batched call of
:func:`cascade_at.doppler._curvature_rows`, which owns the curvature, its M
axis and its stencil fallback, so the cells share their numpy calls; a
cell's arithmetic is the same as that of a search run on it alone.  An
empty grid calls no kernel.  A failed row is a nan curvature, which leaves
only its cell nan and unconverged; a NumericalError that no row can be
blamed for (a LAPACK failure of a whole pole block, a singular pencil)
propagates.  ``threshold_rabi`` is the 1 x 1 case and ``threshold_curve``
the one-width case.

The search runs at the probe ``rabi_1`` it is given (default the weak probe
Gamma_2/20) and at resonant coupling; the CLI commands pass neither the
scenario's probe nor its coupling detuning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .doppler import ENGINES, _curvature_rows
from .errors import ConfigError
from .lineshape import doppler_slopes
from .model import C_CM_PER_S, C_M_PER_S, DopplerParams, DriveParams, LevelScheme, rates
from .msublevel import MSublevelWeights

SINGULAR_BAND = 0.02          # excluded neighbourhood of x = 0
_BRACKET = (1.0, 50000.0)     # MHz
_PRESCAN_POINTS = 20
_REL_TOL = 1e-3
# half the log spacing of a Newton pair: a pair that straddles the crossing
# is a bracket with b/a = exp(2 _PAIR) < 1 + _REL_TOL
_PAIR = 0.4999 * math.log1p(_REL_TOL)
_STALLS = 3                   # passes that do not halve a bracket before its midpoint


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


def _cell_slopes(scheme: LevelScheme, x_grid: np.ndarray,
                 dnu_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doppler slopes (alpha, beta) of the x-major cells of the product of
    ``x_grid`` and ``dnu_grid``, with the bits of :func:`doppler_slopes` on
    each cell's :func:`_geometry_for_x`.  The probe transition is the same
    for every x, so v_p (in the order of operations of
    :func:`most_probable_speed`) and alpha depend on the width only; beta
    is sign(x) nu_32(x) v_p / c, with nu_32(x) the frequency of the
    wavenumber k_21/|x| (as ``LevelScheme.nu_32`` computes it)."""
    v_p = dnu_grid * C_M_PER_S / (2 * math.sqrt(math.log(2.0)) * scheme.nu_21)
    nu_32 = C_CM_PER_S * (scheme.wavenumber_21 / np.abs(x_grid)) / 1e6
    sign_nu32 = np.where(x_grid > 0, 1.0, -1.0) * nu_32
    # every geometry has dir_1 = 1
    alpha = np.tile(scheme.nu_21 * v_p / C_M_PER_S, len(x_grid))
    return alpha, (sign_nu32[:, None] * v_p / C_M_PER_S).ravel()


def _newton_step(value, slope, limit):
    """value / slope where the slope is positive and the step at most
    ``limit`` long, nan elsewhere; no division by zero and no overflow."""
    ok = (slope > 0) & (np.abs(value) <= limit * slope)
    return np.divide(value, slope, out=np.full(np.shape(value), np.nan), where=ok)


def _secant(la, lb, fa, fb):
    """Secant point of the bracket [la, lb] with fa <= 0 < fb."""
    return lb - fb * (lb - la) / (fb - fa)


def _first_estimate(la, lb, fa, fb, ln, fn):
    """Start of the Newton pairs in the pre-scan bracket [la, lb]: two
    Newton steps from its secant point on the quadratic through its ends and
    the scan point (ln, fn), kept where they end strictly inside the bracket;
    the secant point elsewhere."""
    width = lb - la
    secant = _secant(la, lb, fa, fb)
    d1 = (fb - fa) / width
    d2 = ((fn - fb) / (ln - lb) - d1) / (ln - la)
    est = secant
    for _ in range(2):
        est = est - _newton_step(fa + (d1 + d2 * (est - lb)) * (est - la),
                                 d1 + d2 * (2 * est - la - lb), width)
    return np.where((la < est) & (est < lb), est, secant)


def _search(engine: str, scheme: LevelScheme, x_grid, dnu_grid,
            msum: MSublevelWeights | None, rabi_1: float | None) -> ThresholdMap:
    """Threshold map over the product of the 1-D grids ``x_grid`` and
    ``dnu_grid`` (Doppler FWHM, MHz) by one lockstep search (module
    docstring).  A nan in any curvature a cell needs, a row that failed,
    leaves that cell nan and unconverged; a NumericalError of a whole batch
    propagates."""
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    x_grid, dnu_grid = np.asarray(x_grid, dtype=float), np.asarray(dnu_grid, dtype=float)
    if x_grid.ndim != 1 or dnu_grid.ndim != 1:
        raise ConfigError("threshold x and Doppler width grids must be 1-D")
    if not (np.all(np.isfinite(x_grid)) and np.all(np.isfinite(dnu_grid))):
        raise ConfigError("threshold x and Doppler width grids must be finite")
    if np.any(dnu_grid < 0):
        raise ConfigError("Doppler widths must be >= 0")
    bad = np.abs(x_grid) < SINGULAR_BAND
    if np.any(bad):
        raise ConfigError(f"x grid enters the singular band |x| < {SINGULAR_BAND}: {x_grid[bad]}")
    if rabi_1 is None:
        rabi_1 = rates(scheme).Gamma_2 / 20.0
    if not rabi_1 > 0:
        # I3 vanishes identically without a probe: every curvature is 0
        raise ConfigError(f"threshold search needs a probe rabi_1 > 0, got {rabi_1}")
    alpha, beta = _cell_slopes(scheme, x_grid, dnu_grid)
    drive = DriveParams(rabi_1=rabi_1, rabi_2=0.0)

    n = len(alpha)
    # 1. pre-scan: every cell over the same couplings
    scans = np.geomspace(*_BRACKET, _PRESCAN_POINTS)
    curv = _curvature_rows(engine, scheme, drive, np.repeat(alpha, _PRESCAN_POINTS),
                           np.repeat(beta, _PRESCAN_POINTS), np.tile(scans, n),
                           msum).reshape(n, _PRESCAN_POINTS)
    signs = curv > 0
    rising = ~signs[:, :-1] & signs[:, 1:]
    found = rising.any(axis=1) & ~np.isnan(curv).any(axis=1)
    # a positive sign before the first crossing (strong-probe dressing can
    # curve the line upward at negligible coupling) also counts as
    # non-monotonic: the reported value is still the smallest Omega_2 where
    # the curvature crosses from negative to positive.
    non_monotonic = found & ((rising.sum(axis=1) > 1) | signs[:, 0])
    first = rising.argmax(axis=1)[found]
    a, b = scans[first], scans[first + 1]
    fa, fb = curv[found, first], curv[found, first + 1]

    # 2. Newton pairs on log Omega_2, each cell on its own bracket; the
    # arrays hold the cells still refining
    cells = np.flatnonzero(found)
    la, lb = np.log(a), np.log(b)
    # the scan point beside the end of smaller |curvature|, or beside the
    # other end at the end of the scan
    side = np.where(((np.abs(fa) < np.abs(fb)) & (first > 0))
                    | (first + 2 == _PRESCAN_POINTS), first - 1, first + 2)
    est = _first_estimate(la, lb, fa, fb, np.log(scans[side]), curv[found, side])
    stalls = np.zeros(len(cells), dtype=int)
    omega = np.full(n, np.nan)
    while len(cells):
        e = np.minimum(np.maximum(est, la + _PAIR), lb - _PAIR)
        lm, lp = e - _PAIR, e + _PAIR
        om = np.exp(np.concatenate((lm, lp)))
        pair = np.concatenate((cells, cells))
        fm, fp = _curvature_rows(engine, scheme, drive, alpha[pair], beta[pair], om,
                                 msum).reshape(2, -1)
        om_m, om_p = om.reshape(2, -1)
        # the new bracket is the first negative-to-positive crossing of
        # (a, lower, upper, b): [a, lower] where f(lower) > 0, else the pair
        # where it straddles, else [upper, b]
        low, up = fm <= 0, fp > 0
        width = lb - la
        a, la, fa = (np.where(low, np.where(up, m, p), end)
                     for m, p, end in ((om_m, om_p, a), (lm, lp, la), (fm, fp, fa)))
        b, lb, fb = (np.where(low, np.where(up, p, end), m)
                     for m, p, end in ((om_m, om_p, b), (lm, lp, lb), (fm, fp, fb)))
        stalls = np.where(lb - la <= 0.5 * width, 0, stalls + 1)
        newton = e - _newton_step(_PAIR * (fp + fm), fp - fm, lb - la)
        est = np.where(stalls >= _STALLS, 0.5 * (la + lb),
                       np.where(np.isnan(newton), _secant(la, lb, fa, fb), newton))
        # a nan in either row fails the cell
        failed = np.isnan(fm) | np.isnan(fp)
        done = ~failed & (b / a <= 1.0 + _REL_TOL)
        omega[cells[done]] = np.sqrt(a[done] * b[done])
        keep = ~failed & ~done
        cells, a, b, la, lb, fa, fb, est, stalls = (
            v[keep] for v in (cells, a, b, la, lb, fa, fb, est, stalls))

    converged = ~np.isnan(omega)
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
    Newton pairs stop at 1e-3 relative.  A failed curvature row gives an
    unconverged nan result; a NumericalError of a whole batch propagates.
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
