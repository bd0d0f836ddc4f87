"""Threshold coupling Rabi frequency for resolvable Autler-Townes splitting.

The splitting counts as resolved when the Doppler-averaged upper-level
intensity develops a local minimum at zero probe detuning, i.e. when its
curvature there changes sign.  ``threshold_rabi`` locates the smallest
coupling Rabi frequency with positive curvature by a log-space pre-scan and
bisection; in the counter-propagating region -1 < x < 0 the analytic
estimate ``Gam / sqrt(-x (1+x))`` seeds the bracket.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .doppler import ENGINES, intensities
from .errors import ConfigError, NumericalError
from .model import DopplerParams, DriveParams, LevelScheme, rates
from .msublevel import MSublevelWeights, m_summed

SINGULAR_BAND = 0.02          # excluded neighbourhoods of x = 0 and x = -1
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
    engine: str
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


def curvature_at_zero(engine: str, scheme: LevelScheme, drive: DriveParams,
                      dopp: DopplerParams,
                      msum: MSublevelWeights | None = None) -> float:
    """Second derivative of the Doppler-averaged I3 at zero probe detuning
    (5-point central stencil, step max(0.5 MHz, Om2/200)).  Positive means
    a local minimum, i.e. resolved splitting.  Requires resonant coupling.
    """
    _validate_engine(engine)
    if drive.detuning_2 != 0.0:
        raise ConfigError("curvature condition is defined at resonant coupling")
    h = max(0.5, drive.rabi_2 / 200.0)
    grid = np.array([-2 * h, -h, 0.0, h, 2 * h])

    def i3(drv):
        return intensities(engine, "I3", scheme, drv, dopp, grid)[0]

    f = (i3(drive) if msum is None else m_summed(i3, msum, drive)).tolist()
    return (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)


def region_two_estimate(scheme: LevelScheme, x: float) -> float | None:
    """Closed-form threshold seed Gam/sqrt(-x(1+x)) for -1 < x < 0."""
    if not -1.0 < x < 0.0:
        return None
    rp = rates(scheme)
    gam = rp.gamma_12 * (1 + x) - rp.gamma_13 * x
    return gam / math.sqrt(-x * (1 + x))


def threshold_rabi(engine: str, scheme: LevelScheme, x: float, dopp: DopplerParams,
                   msum: MSublevelWeights | None = None,
                   rabi_1: float | None = None) -> ThresholdResult:
    """Smallest coupling Rabi frequency with resolved splitting at ratio x.

    Pre-scans the bracket at log-spaced points to detect multiple sign
    changes (reported via ``non_monotonic``), then bisects the first
    crossing to 1e-3 relative.
    """
    if abs(x) < SINGULAR_BAND or abs(x + 1.0) < SINGULAR_BAND:
        raise ConfigError(f"x = {x} inside a singular band of the threshold map")
    if rabi_1 is None:
        rabi_1 = rates(scheme).Gamma_2 / 20.0
    scheme_x, drive0 = _geometry_for_x(scheme, x, rabi_1)

    def curv(om2: float) -> float:
        return curvature_at_zero(engine, scheme_x, replace(drive0, rabi_2=om2),
                                 dopp, msum=msum)

    lo, hi = _BRACKET
    seed = region_two_estimate(scheme_x, x)
    if seed is not None:
        # bracket hint only: widen around the estimate, fall back if wrong
        lo_s, hi_s = max(lo, seed / 30), min(hi, seed * 30)
        if curv(lo_s) < 0 < curv(hi_s):
            lo, hi = lo_s, hi_s

    scan = np.geomspace(lo, hi, _PRESCAN_POINTS)
    signs = np.array([curv(om) > 0 for om in scan])
    crossings = np.nonzero(~signs[:-1] & signs[1:])[0]
    if len(crossings) == 0:
        return ThresholdResult(omega_t=float("nan"), converged=False)
    # a positive sign before the first crossing (strong-probe dressing can
    # curve the line upward at negligible coupling) also counts as
    # non-monotonic: the reported value is still the smallest Omega_2 where
    # the curvature crosses from negative to positive.
    non_monotonic = len(crossings) > 1 or bool(signs[0])
    a, b = float(scan[crossings[0]]), float(scan[crossings[0] + 1])
    while b / a > 1.0 + _REL_TOL:
        mid = math.sqrt(a * b)
        if curv(mid) > 0:
            b = mid
        else:
            a = mid
    return ThresholdResult(omega_t=math.sqrt(a * b), converged=True,
                           non_monotonic=non_monotonic)


def _validate_x_grid(x_grid: np.ndarray) -> np.ndarray:
    x_grid = np.asarray(x_grid, dtype=float)
    bad = (np.abs(x_grid) < SINGULAR_BAND) | (np.abs(x_grid + 1.0) < SINGULAR_BAND)
    if np.any(bad):
        raise ConfigError(
            f"x grid enters the singular bands |x| < {SINGULAR_BAND} or "
            f"|x+1| < {SINGULAR_BAND}: {x_grid[bad]}")
    return x_grid


def _sweep(engine, scheme, tasks, msum, rabi_1):
    """Threshold of every (x, dopp) task in order; a numerical failure
    leaves its cell nan and unconverged."""
    results = []
    for x, dopp in tasks:
        try:
            results.append(threshold_rabi(engine, scheme, x, dopp,
                                          msum=msum, rabi_1=rabi_1))
        except NumericalError:
            results.append(ThresholdResult(omega_t=float("nan"), converged=False))
    return results


def threshold_curve(engine: str, scheme: LevelScheme, x_grid, dopp: DopplerParams,
                    msum: MSublevelWeights | None = None,
                    rabi_1: float | None = None) -> ThresholdMap:
    """Threshold vs wavenumber ratio at a fixed Doppler width."""
    _validate_engine(engine)
    x_grid = _validate_x_grid(x_grid)
    tasks = [(float(x), dopp) for x in x_grid]
    res = _sweep(engine, scheme, tasks, msum, rabi_1)
    n = len(x_grid)
    omega = np.array([r.omega_t for r in res]).reshape(n, 1)
    conv = np.array([r.converged for r in res]).reshape(n, 1)
    nonmono = np.array([r.non_monotonic for r in res]).reshape(n, 1)
    sch = scheme  # Doppler width resolved against the probe transition
    return ThresholdMap(
        x_grid=x_grid, dnu_grid=np.array([dopp.fwhm_mhz(sch)]),
        omega_t=omega, converged=conv, non_monotonic=nonmono, engine=engine,
        region_two=(x_grid > -1.0) & (x_grid < 0.0))


def threshold_surface(engine: str, scheme: LevelScheme, x_grid, dnu_grid,
                      msum: MSublevelWeights | None = None,
                      rabi_1: float | None = None) -> ThresholdMap:
    """Threshold over the (x, Doppler width) plane."""
    _validate_engine(engine)
    x_grid = _validate_x_grid(x_grid)
    dnu_grid = np.asarray(dnu_grid, dtype=float)
    if np.any(dnu_grid <= 0):
        raise ConfigError("Doppler widths in the surface grid must be > 0")
    tasks = [(float(x), DopplerParams(fwhm=float(dnu)))
             for x in x_grid for dnu in dnu_grid]
    res = _sweep(engine, scheme, tasks, msum, rabi_1)
    nx, nd = len(x_grid), len(dnu_grid)
    omega = np.array([r.omega_t for r in res]).reshape(nx, nd)
    conv = np.array([r.converged for r in res]).reshape(nx, nd)
    nonmono = np.array([r.non_monotonic for r in res]).reshape(nx, nd)
    return ThresholdMap(
        x_grid=x_grid, dnu_grid=dnu_grid, omega_t=omega, converged=conv,
        non_monotonic=nonmono, engine=engine,
        region_two=(x_grid > -1.0) & (x_grid < 0.0))
