"""Gaussian velocity averaging of the fixed-velocity lineshapes.

This module owns every Doppler average of the package and its M axis.
Apart from the analytic engine's exact threshold curvature, each comes
from one row average, :func:`_row_average`: rows of probe detunings with
per-row Doppler slopes alpha, beta and coupling Rabi frequency Omega_2.
A spectrum is one row (:func:`intensities`); an M-summed spectrum makes
the folded M weights one more row axis; the threshold search's curvatures
(:func:`_curvature_rows`) make every (cell, Omega_2, M weight) stencil
they need a row.  Each grid point takes one of three routes:

* zero-width rows (alpha = 0) evaluate the model at u = 0;

* engines ``analytic`` and ``full`` sum velocity poles exactly via
  ``Integral e^{-t^2}/(t - z) dt = i pi w(z)`` for Im z > 0 (the lower
  half-plane reached by conjugation symmetry), in one pole sum
  (:func:`_pole_sum`) for both.  For ``full``, the Liouvillian is affine in
  velocity with a diagonal slope, so each population is rational in u with
  at most six finite poles (:func:`cascade_at.liouville.velocity_poles`).
  For ``analytic``, the weak-probe 1/|D(u)|^2 has four simple poles, the
  roots of D and their conjugates: :func:`_weak_probe_poles` solves D and
  hands them to the sum in the same layout.  The poles come in conjugate
  pairs with conjugate terms, so each pair takes one Faddeeva value, at
  its upper member, and each real pole one; the sum refuses points whose
  poles nearly coincide or whose terms cancel to rounding.  The analytic
  I3's curvature at the resonant point Delta_1 = Delta_2 = 0 has an exact
  kernel of its own (:func:`_weak_probe_curvature`): there D(iv) is a real
  quadratic in v, whose roots give the poles, their derivatives and
  residues in closed form.  All three kernels run through one block loop
  (:func:`_exact_blocks`) of a fixed number of grid points (1024 analytic,
  256 full-engine, 4096 resonant-curvature), which bounds their
  temporaries at any grid size and leaves the points a kernel refuses
  flagged for the fallback;

* every point of the ``perturbative`` engine, and every point an exact
  route refuses (a D linear in u at x = -1, coincident poles, pole terms
  that cancel to rounding) takes the numeric sum of :func:`average`: the
  nominal Gauss-Hermite rule, or, where velocity-space poles lie too close
  to the real axis for its
  nodes (the natural widths gamma/(k v_p) fall below the node spacing), a
  pole-refined composite Gauss-Legendre rule with the same Gaussian weight
  and equivalent base resolution.  The refinement sits on the model's own
  poles at that point: the roots of D (its one root -c/b where D is
  linear) for ``perturbative``, p = -1/lam of the velocity pencil for
  ``full``.

:func:`average` is that numeric sum over a whole grid, for either model,
and shares its stage (:func:`_numeric_stage`) with the row average.  Its
values come from the model evaluated on the nodes, never from the Faddeeva
function or partial fractions, so it is an independent cross-check of both
exact routes; on the bundled presets they agree to ~1e-9 relative.
:func:`intensities`, the package's entry point to a spectrum, is the row
average of one grid, with the folded M weights as rows when an M sum is
asked for.  Every average returns one array: I2 and I3 as a leading axis
of two, I2 first, before the grid's shape.

:func:`_curvature_rows` gives the threshold search the I3 curvature at
Delta_1 = 0 of rows of (Doppler slopes, Omega_2), each folded M weight one
more point, summed by :func:`folded_sum`.  Analytic points take the exact
kernel; the other engines, and the points it refuses or of zero width,
take a 5-point central stencil of step h = max(0.5 MHz, Omega_2/200) on
the row average, evaluated at Delta_1 = 0, h, 2h only: at resonant
coupling I3 is even in Delta_1 for every engine (``docs/model.md``,
"Stencil fallback").
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, DegenerateRootError, NumericalError
from .faddeeva import w as faddeeva_w
from .lineshape import (K_RHO22, K_RHO33, denominator_coefficients, doppler_slopes,
                        rho_weak_batch)
from .liouville import _ZERO_EIGENVALUE, populations_batch, velocity_poles
from .model import (MAX_RATE, DopplerParams, DriveParams, LevelScheme, rates,
                    wavenumber_ratio)
from .msublevel import MSublevelWeights, folded_sum, folded_weights

_SQRTPI = math.sqrt(math.pi)
_U_MAX = 6.5               # Gaussian support cutoff: exp(-6.5^2) ~ 5e-19
_PANEL_DEGREE = 12
_DEGENERATE_SEP = 1e-9     # relative pole separation refused by partial fractions
# largest estimated relative rounding error of an exact pole sum: its terms
# t_k magnify a relative loss of each by sum |t_k| / |sum t_k|, and in the
# resonant curvature w' and w'' from their recurrences lose about
# |zeta|^4 eps relative
_MAX_ROUNDING_ERROR = 1e-3
_EPS = np.finfo(float).eps
# largest |zeta| the resonant curvature takes to the Faddeeva function (~1.46e3)
_RESONANT_MAX_ZETA = (_MAX_ROUNDING_ERROR / _EPS) ** 0.25
# grid points per exact-kernel call (_exact_blocks): bounds the temporaries
# at any grid size (a full-engine point peaks at ~2 kB of real 6x6 and 6x7
# and complex 6x6 stacks, about 0.5 MB at 256 points; a resonant-curvature
# point at ~0.6 kB, 2.5 MB at 4096 points, which holds a 5 x 13 threshold
# pre-scan in one call)
_WEAK_PROBE_BLOCK = 1024
_FULL_ENGINE_BLOCK = 256
_RESONANT_BLOCK = 4096
_PANEL_NODES, _PANEL_WEIGHTS = leggauss(_PANEL_DEGREE)
_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])   # in units of the step h
# I3 is even in Delta_1 at resonant coupling (module docstring): the stencil
# is evaluated at its points 0, h, 2h, and _MIRROR picks [f2, f1, f0, f1, f2]
_HALF_STENCIL = _STENCIL[2:]
_MIRROR = np.array([2, 1, 0, 1, 2])
# the signs of the resonant curvature's t = -(2 a v + b) at its two roots
_ROOT_SIGNS = np.array([[1.0], [-1.0]])

ENGINES = ("full", "perturbative", "analytic")
MIN_QUAD_ORDER = 16
# Gauss-Hermite order of the row average's numeric sum; the CLI's spectrum
# fingerprint records it
FALLBACK_QUAD_ORDER = 200


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights for Integral e^{-u^2} f(u) du."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_hermite(cls, order: int) -> "QuadratureRule":
        """The rule of ``scipy.special.roots_hermite``: exactly symmetric
        nodes and weights at every order (numpy's recurrence-based
        ``hermgauss`` overflows above order ~385)."""
        if order < 1:
            raise ConfigError("quadrature order must be >= 1")
        # imported here so that commands which build no rule do not pay for
        # loading scipy
        from scipy.special import roots_hermite
        nodes, weights = roots_hermite(order)
        return cls(order=order, nodes=nodes, weights=weights)

    @property
    def spacing(self) -> float:
        """Bulk node spacing near u = 0."""
        return math.pi / math.sqrt(2.0 * self.order)


def _validated_intensity(vals: np.ndarray) -> np.ndarray:
    """``vals`` (I2 and I3 as a leading axis of two) clipped at zero, with
    nan in both observables across every row (the last axis) where either
    has a non-finite value or a negative one beyond 1e-9 of its row's peak.
    Raises nothing; :func:`_spectrum` raises for a spectrum."""
    peak = np.max(np.abs(vals), axis=-1, keepdims=True, initial=0.0)
    bad = ~np.isfinite(vals) | (vals < -1e-9 * np.maximum(peak, 1e-300))
    return np.where(bad.any(axis=-1, keepdims=True).any(axis=0), np.nan,
                    np.maximum(vals, 0.0))


def _spectrum(vals: np.ndarray) -> np.ndarray:
    """``vals``, or NumericalError if any row failed (nan): a user asked for it."""
    if np.isnan(vals).any():
        raise NumericalError("non-finite or significantly negative intensity "
                             "in Doppler average")
    return vals


def _probe_grid(delta1_grid) -> np.ndarray:
    """``delta1_grid`` as a float array: a probe detuning that is not finite
    or beyond ``MAX_RATE`` in magnitude, the bound of
    :class:`~cascade_at.model.DriveParams`, is bad input, refused before any
    route can turn it into a numerical failure or an overflow."""
    grid = np.asarray(delta1_grid, dtype=float)
    # nan fails the comparison too
    if not np.all(np.abs(grid) <= MAX_RATE):
        raise ConfigError(f"probe-detuning grid must be finite and at most {MAX_RATE:.0e} "
                          f"MHz in magnitude")
    return grid


def _refined_rule(poles, base_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with geometric refinement around every
    velocity-space pole narrower than the base panels.

    ``poles`` are the integrand's poles at the grid point.  Deterministic
    pure function of its arguments.
    """
    n_panels = max(4, base_order // _PANEL_DEGREE)
    width0 = 2 * _U_MAX / n_panels
    edges = set(np.linspace(-_U_MAX, _U_MAX, n_panels + 1).tolist())

    for p in poles:
        center, scale = p.real, abs(p.imag)
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


def _engine_batch(model: str, scheme: LevelScheme, drive: DriveParams,
                  d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I2, I3) raw intensities of the ``full`` or ``perturbative`` model at
    arrays of effective detunings."""
    rp = rates(scheme)
    if model == "full":
        r22, r33 = populations_batch(scheme, drive, d1, d2)
    else:
        r22, r33 = rho_weak_batch(scheme, drive, d1, d2)
    return rp.Gamma_2 * r22, rp.Gamma_3 * r33


def _numeric_point(model: str, scheme: LevelScheme, drive: DriveParams, delta1,
                   alpha: float, beta: float, rule: QuadratureRule) -> tuple[float, float]:
    """(I2, I3) of the ``full`` or ``perturbative`` model at one probe
    detuning by the numeric velocity sum: ``rule``, or a pole-refined rule
    of the same base order where a pole of the integrand is narrower than
    its nodes can resolve.  The poles are the model's own: the roots of D
    for the perturbative model, p = -1/lam of the velocity pencil
    (:func:`cascade_at.liouville.velocity_poles`) for the full one.  They
    only place the nodes; the values are the model's, summed on them."""
    if model == "full":
        lam = velocity_poles(scheme, drive.rabi_1, delta1, drive.detuning_2,
                             drive.rabi_2, alpha, beta)[0]
        poles = -1.0 / lam[np.abs(lam) > _ZERO_EIGENVALUE]
    else:
        den = denominator_coefficients(scheme, delta1, drive.detuning_2, drive.rabi_2,
                                       alpha, beta)
        # a linear D (a = 0, at x = -1) has the one root -c/b
        poles = (-den.c / den.b,) if den.a == 0 else den.roots()
    narrow_cut = 4.0 * rule.spacing
    if any(abs(p.imag) < narrow_cut and abs(p.real) < _U_MAX + 1.0 for p in poles):
        t, wts = _refined_rule(poles, rule.order)
    else:
        t, wts = rule.nodes, rule.weights
    v2, v3 = _engine_batch(model, scheme, drive, delta1 + alpha * t,
                           drive.detuning_2 + beta * t)
    return float(np.dot(wts, v2)) / _SQRTPI, float(np.dot(wts, v3)) / _SQRTPI


def _numeric_stage(model: str, scheme: LevelScheme, drive: DriveParams, grid, alpha,
                   beta, rabi_2, numeric, rule: QuadratureRule | None, vals) -> None:
    """Fill the columns (I2, I3) of ``vals`` at every zero-width point
    (alpha = 0) with the model at u = 0, one batch per distinct Omega_2, and
    at every other point flagged in ``numeric`` with :func:`_numeric_point`
    on ``rule``.  ``grid``, ``alpha``, ``beta``, ``rabi_2`` and ``numeric``
    are flat per-point arrays."""
    zero = alpha == 0.0
    for om in np.unique(rabi_2[zero]):
        at = np.flatnonzero(zero & (rabi_2 == om))
        vals[:, at] = _engine_batch(model, scheme, replace(drive, rabi_2=float(om)),
                                    grid[at] + 0.0, np.full(len(at), drive.detuning_2, float))
    for k in np.flatnonzero(numeric & ~zero):
        drv = replace(drive, rabi_2=float(rabi_2[k]))
        vals[:, k] = _numeric_point(model, scheme, drv, grid[k], float(alpha[k]),
                                    float(beta[k]), rule)


def average(engine: str, scheme: LevelScheme, drive: DriveParams, dopp: DopplerParams,
            rule: QuadratureRule, delta1_grid: np.ndarray) -> np.ndarray:
    """Velocity average of the chosen engine over a probe-detuning grid by
    the numeric sum on ``rule``: I2 and I3 as a leading axis of two (I2
    first) before the grid's shape, as :func:`intensities` returns them.
    ``fwhm = 0`` short-circuits to the v_z = 0 evaluation.
    Summation order is fixed (ascending node index) so results are
    bit-reproducible.  Raises NumericalError if any row fails.
    """
    if engine not in ("full", "perturbative"):
        raise ConfigError(f"average integrates the full or perturbative model, "
                          f"got {engine!r}")
    if rule.order < MIN_QUAD_ORDER:
        raise ConfigError(f"quadrature order must be >= {MIN_QUAD_ORDER}")
    grid = _probe_grid(delta1_grid)
    flat = grid.ravel()
    alpha, beta = doppler_slopes(scheme, drive, dopp)
    vals = np.full((2, flat.size), np.nan)
    _numeric_stage(engine, scheme, drive, flat, np.full(flat.size, alpha),
                   np.full(flat.size, beta), np.full(flat.size, drive.rabi_2),
                   np.ones(flat.size, bool), rule, vals)
    return _spectrum(_validated_intensity(vals.reshape((2,) + grid.shape)))


def _pole_integral(poles):
    """Integral e^{-u^2} / (u - p) du = s i pi w(s p) for every pole p, with
    s = sign Im p putting the Faddeeva argument in the upper half-plane; one
    Faddeeva call for all of them."""
    sign = np.where(poles.imag > 0, 1.0, -1.0)
    return sign * 1j * math.pi * faddeeva_w(sign * poles)


def _weak_probe_poles(scheme, drive, grid, alpha, beta, rabi_2):
    """Perturbative I2 and I3 by partial fractions over the four simple
    poles P of N(u)/|D(u)|^2, the roots z of D and their conjugates, summed
    by :func:`_pole_sum` in the layout of
    :func:`cascade_at.liouville.velocity_poles`: lam = -1/P and each residue
    times lam.  Solves D at the probe detunings ``grid`` (``alpha``,
    ``beta`` and ``rabi_2`` per point) and refuses points where D is linear
    (a = 0, at x = -1).  The residue of 1/|D|^2 at a root is
    1/(|a|^2 q0 q1 q2) over its differences to the other three poles, nan
    at a double pole; N is I2's gamma_13^2 + (d1 + d2)^2, continued off the
    real axis, and 1 for I3.  Both have real coefficients, so each
    conjugate pole's residue is the conjugate of its root's.  Returns the
    mask of accepted points and their (I2, I3)."""
    rp = rates(scheme)
    ok = alpha * (alpha + beta) != 0
    grid, alpha, beta, rabi_2 = grid[ok], alpha[ok], beta[ok], rabi_2[ok]
    den = denominator_coefficients(scheme, grid, drive.detuning_2, rabi_2, alpha, beta)
    z = np.stack(den.roots(), axis=-1)                   # (point, root)
    # to the other root, then to the conjugates of roots 0 and 1
    zc = np.conj(z)
    product = np.square(np.abs(den.a[:, None])) * ((z - z[:, ::-1]) * (z - zc[:, :1])
                                                   * (z - zc[:, 1:]))
    # nan at a double pole, which _pole_sum refuses
    residue = np.full(z.shape, np.nan, dtype=complex)
    np.divide(1.0, product, out=residue, where=product != 0)
    lam = -1.0 / z
    d2ph = grid[:, None] + drive.detuning_2 + (alpha + beta)[:, None] * z
    res = np.empty((len(z), 2, 4), dtype=complex)
    res[:, 1, :2] = residue * lam
    res[:, 0, :2] = (rp.gamma_13 ** 2 + d2ph * d2ph) * res[:, 1, :2]
    res[..., 2:] = np.conj(res[..., :2])
    kept, sums = _pole_sum(np.concatenate((lam, np.conj(lam)), axis=-1), res)
    ok[ok] = kept
    prefactor = rp.Gamma_3 * K_RHO33 * np.square(drive.rabi_1 * rabi_2[kept] / 4)
    return ok, (rp.Gamma_2 * K_RHO22 * (drive.rabi_1 / 2) ** 2 * sums[:, 0],
                prefactor * sums[:, 1])


def _weak_probe_curvature(scheme, drive, alpha, beta, rabi_2):
    """Exact second derivative of the analytic I3 in Delta_1 at the resonant
    point Delta_1 = Delta_2 = 0 (``docs/model.md``, "Splitting threshold").
    ``alpha`` (nonzero), ``beta`` and ``rabi_2`` are given per point.
    Returns the mask of accepted points and their curvatures.

    There D = a u^2 + i b u + c with real a = -alpha sigma (sigma =
    alpha + beta), b = alpha gamma_13 + sigma gamma_12 and
    c = gamma_12 gamma_13 + Omega_2^2/4, so D(iv) = -(a v^2 + b v - c) is
    a real quadratic: the roots z = iv of D lie on the imaginary axis or
    form a mirror pair z_1 = -conj z_0, and the poles of 1/|D|^2 are
    +-z_0, +-z_1.  The roots' derivatives in Delta_1, and those of the log
    of their residues i/(2 b v t), t = -(2 a v + b) = +-sqrt(b^2 + 4ac),
    are linear in v, 1/v or t with real coefficients per point.  One
    Faddeeva call takes both roots of every point.  Refuses points whose
    four poles come closer than 1e-9 relative, points with a root beyond
    |zeta| = ``_RESONANT_MAX_ZETA`` (narrow Doppler widths), where w'' from
    its recurrence has lost all but 1e-3, and points whose rounding
    estimate eps (1 + max |zeta|^4) (|t0| + |t1|) exceeds
    ``_MAX_ROUNDING_ERROR`` |t0 + t1|, with t0, t1 the imaginary parts of
    the two roots' terms: there the terms cancel and magnify the loss of
    w' and w'' (x near -1 at strong coupling, region II at narrow widths).
    Refuses points where D is linear too (a = 0, at x = -1)."""
    rp = rates(scheme)
    sigma = alpha + beta
    a = -(alpha * sigma)
    abs_a = np.abs(a)
    four_a = 4 * a
    quarter = np.square(rabi_2 / 2)                      # Omega_2^2 / 4
    # b and g share their two products
    alpha_13, sigma_12 = alpha * rp.gamma_13, sigma * rp.gamma_12
    b = alpha_13 + sigma_12
    c = rp.gamma_12 * rp.gamma_13 + quarter
    g = alpha_13 - sigma_12
    # D's discriminant rounds as in the spectra's kernel, so the guard below
    # refuses the same points
    b2 = b * b
    disc = b2 + four_a * c
    sq = np.copysign(1.0, b) * np.sqrt(disc + 0j)
    q = -(b + sq) / 2                                   # a v0 = q, v0 v1 = -c/a
    # the poles' distances times |a|: |v0 - v1| = |sq|, |v0 + v1| = |b|,
    # 2|v0| and 2|v1|, against the larger of |v0| and |v1|
    r0 = np.abs(q)
    r1 = c * abs_a / r0
    sep = np.minimum(np.minimum(np.abs(sq), np.abs(b)), 2 * np.minimum(r0, r1))
    r_max = np.maximum(r0, r1)                           # |a| max |zeta|
    ok = (a != 0) & ~((sep < _DEGENERATE_SEP * r_max)
                      | (r_max > _RESONANT_MAX_ZETA * abs_a))
    # the point masks are counted, which costs less per call than ndarray.all
    if np.count_nonzero(ok) < ok.size:
        alpha, beta, rabi_2, a, abs_a, four_a, b, b2, c, g, quarter, disc, sq, q, r_max = (
            x[ok] for x in (alpha, beta, rabi_2, a, abs_a, four_a, b, b2, c, g, quarter,
                            disc, sq, q, r_max))
    # z' = e1 + f1 v, z'' = i eps t, L' = i lam v and L'' = kappa + eps b / v,
    # with L the log of the root's residue
    f1 = beta * g / disc
    e1 = (quarter * (4 * alpha + 2 * beta) + (rp.gamma_12 - rp.gamma_13) * g) / disc
    lam = -2 * a * f1 / b
    eps = 2 * quarter * np.square(beta / disc)
    kappa = four_a * eps - f1 * f1 * (1 + disc / b2)
    v = np.array((q / a, -c / q))                        # (root, point)
    t = _ROOT_SIGNS * sq                                 # -(2 a v + b)
    dz = e1 + f1 * v
    dlog = (1j * lam) * v
    d2z = (1j * eps) * t
    d2log = kappa + (eps * b) / v
    residue = 0.5j / (b * t * v)
    # Im z = Re v; with s = sign Im z and zeta = s z, the Gaussian integral
    # of 1/(u - z) is s i pi w(zeta), and its z-derivatives are i pi w'(zeta)
    # and s i pi w''(zeta)
    sign = np.sign(v.real)
    zeta = (1j * sign) * v
    w = faddeeva_w(zeta)
    w1 = -2 * zeta * w + 2j / _SQRTPI
    w2 = (4 * zeta * zeta - 2) * w - 4j * zeta / _SQRTPI
    terms = residue * (sign * ((d2log + dlog * dlog) * w + w2 * dz * dz)
                       + w1 * (2 * dlog * dz + d2z))
    # the four poles' sum is 2 Re of i pi times the two roots' terms
    t0, t1 = terms.imag
    total = t0 + t1
    prefactor = rp.Gamma_3 * K_RHO33 * np.square(drive.rabi_1 * rabi_2 / 4)
    # the rounding guard, with max |zeta| = r_max / |a| (a != 0), compares
    # products, so a zero sum of the terms cannot make it warn
    loss = _EPS * (1 + np.square(np.square(r_max / abs_a)))
    kept = ~(loss * (np.abs(t0) + np.abs(t1)) > _MAX_ROUNDING_ERROR * np.abs(total))
    curvature = (-2 * _SQRTPI) * prefactor * total
    if np.count_nonzero(kept) < kept.size:
        ok[ok] = kept
        curvature = curvature[kept]
    return ok, curvature


def _pole_sum(lam, res):
    """The Gaussian average of rational functions in the layout of
    :func:`cascade_at.liouville.velocity_poles`, sum_k r_k / (1 + u lam_k)
    per point: eigenvalues ``lam`` (point, mode) and residues ``res``
    (point, function, mode), with exact conjugate pairs of eigenvalues
    carrying exactly conjugate residues.  Returns the mask of accepted
    points and their averages (point, function).

    A finite pole p = -1/lam has the term (r/lam) i pi w(p) / sqrt(pi)
    (:func:`_pole_integral`); a pole with |lam| <= 1e-8 stands for the
    constant r, with an error below lam^2, and takes no Faddeeva value.  A
    conjugate pair counts as twice the real part of its upper member's term
    (Im lam > 0, and so Im p > 0) and the lower member as 0: one Faddeeva
    value per pair and one per real lam.  Refuses points where two of the
    first six eigenvalues, not both at most 1e-8, come closer than
    ``_DEGENERATE_SEP`` times the larger modulus (the residues divide by
    such differences, and the poles have the same relative separations;
    a seventh column is velocity_poles's constant, at lam = 0), and points
    whose terms t_k of any function cancel,
    eps sum |t_k| > ``_MAX_ROUNDING_ERROR`` |sum t_k|, or are nan.  Both
    rules compare products, so no zero or nan can make them warn."""
    mod = np.abs(lam)
    modes = np.arange(min(lam.shape[-1], 6))
    a, b = np.nonzero(modes[:, None] < modes)            # every pair of modes
    larger = np.maximum(mod[:, a], mod[:, b])
    gap = np.abs(lam[:, a] - lam[:, b])
    ok = np.all((gap >= _DEGENERATE_SEP * larger) | (larger <= _ZERO_EIGENVALUE), axis=-1)
    if not ok.all():
        lam, res, mod = lam[ok], res[ok], mod[ok]
    finite = mod > _ZERO_EIGENVALUE
    upper = finite & (lam.imag >= 0)
    pole_lam = lam[upper]
    kernel = np.where(finite, 0.0, 1.0).astype(complex)
    kernel[upper] = (np.where(pole_lam.imag > 0, 2.0, 1.0) / pole_lam
                     * _pole_integral(-1.0 / pole_lam) / _SQRTPI)
    terms = (res * kernel[:, None, :]).real
    sums = terms.sum(axis=-1)
    exact = np.all(_EPS * np.abs(terms).sum(axis=-1) <= _MAX_ROUNDING_ERROR * np.abs(sums),
                   axis=-1)
    ok[ok] = exact
    return ok, sums[exact]


def _full_engine_poles(scheme, drive, grid, alpha, beta, rabi_2):
    """Full steady state by its velocity poles
    (:func:`cascade_at.liouville.velocity_poles`), summed by
    :func:`_pole_sum`.  ``alpha``, ``beta`` and ``rabi_2`` are given per
    grid point.  Returns the mask of accepted points and their (I2, I3)."""
    lam, res = velocity_poles(scheme, drive.rabi_1, grid, drive.detuning_2,
                              rabi_2, alpha, beta)
    ok, pops = _pole_sum(lam, res)
    rp = rates(scheme)
    return ok, (rp.Gamma_2 * pops[:, 0], rp.Gamma_3 * pops[:, 1])


def _exact_blocks(kernel, block: int, pending: np.ndarray, out: np.ndarray,
                  scheme: LevelScheme, drive: DriveParams, *arrays) -> None:
    """Run ``kernel(scheme, drive, *(a[part] for a in arrays))`` on the
    points flagged in ``pending``, ``block`` per call; when every point is
    pending and they fit one block, on the arrays themselves, without a
    gather and a scatter (the kernels write to no argument).  Writes the
    values of the points it accepts into the last axis of ``out`` and
    clears their flags; the points it refuses stay flagged for the
    fallback."""
    if 0 < np.count_nonzero(pending) == pending.size <= block:
        ok, accepted = kernel(scheme, drive, *arrays)
        out[..., ok] = accepted
        pending[ok] = False
        return
    points = np.flatnonzero(pending)
    for part in (points[i:i + block] for i in range(0, len(points), block)):
        ok, accepted = kernel(scheme, drive, *(a[part] for a in arrays))
        out[..., part[ok]] = accepted
        pending[part[ok]] = False


def _row_average(engine: str, scheme: LevelScheme, drive: DriveParams,
                 grid, alpha, beta, rabi_2) -> np.ndarray:
    """Doppler-averaged I2 and I3 of ``engine`` over rows of probe
    detunings, the last axis of ``grid``: a leading axis of two (I2 first)
    before the broadcast shape of the arguments.

    ``alpha``, ``beta`` and ``rabi_2`` are per-row Doppler slopes and
    coupling Rabi frequencies that broadcast against ``grid``; ``drive``
    gives the probe Rabi frequency and the coupling detuning.  Zero-width
    rows (alpha = 0) evaluate the model at u = 0.  Engines "analytic" and
    "full" sum velocity poles, ``_WEAK_PROBE_BLOCK`` or
    ``_FULL_ENGINE_BLOCK`` grid points per pole-builder call.  Every point
    a pole builder refuses, and every point of engine "perturbative", takes
    the numeric sum of :func:`average`, with its row's alpha, beta and
    Omega_2, on the Gauss-Hermite rule of order ``FALLBACK_QUAD_ORDER``.
    A failed row (:func:`_validated_intensity`) is nan, the others keep
    their bits; a NumericalError of a whole pole block propagates.
    """
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    pole_routes = {"analytic": (_weak_probe_poles, _WEAK_PROBE_BLOCK),
                   "full": (_full_engine_poles, _FULL_ENGINE_BLOCK)}
    model = "full" if engine == "full" else "perturbative"
    arrays = np.broadcast_arrays(np.asarray(grid, dtype=float), alpha, beta, rabi_2)
    shape = arrays[0].shape
    grid, alpha, beta, rabi_2 = (np.asarray(a, dtype=float).ravel() for a in arrays)

    vals = np.full((2, grid.size), np.nan)
    numeric = alpha != 0.0
    if engine in pole_routes:
        _exact_blocks(*pole_routes[engine], numeric, vals, scheme, drive,
                      grid, alpha, beta, rabi_2)
    rule = QuadratureRule.gauss_hermite(FALLBACK_QUAD_ORDER) if numeric.any() else None
    _numeric_stage(model, scheme, drive, grid, alpha, beta, rabi_2, numeric, rule, vals)
    return _validated_intensity(vals.reshape((2,) + shape))


def average_analytic_I3(scheme: LevelScheme, drive: DriveParams, dopp: DopplerParams,
                        delta1_grid: np.ndarray) -> np.ndarray:
    """``intensities("analytic", ...)``, I2 and I3; kept under this name and
    :func:`average_analytic_I2` because ``perfbench/tracer.py`` wraps both."""
    return intensities("analytic", scheme, drive, dopp, delta1_grid)


def average_analytic_I2(scheme: LevelScheme, drive: DriveParams, dopp: DopplerParams,
                        delta1_grid: np.ndarray) -> np.ndarray:
    """``intensities("analytic", ...)``, I2 and I3; see :func:`average_analytic_I3`."""
    return intensities("analytic", scheme, drive, dopp, delta1_grid)


def intensities(engine: str, scheme: LevelScheme, drive: DriveParams, dopp: DopplerParams,
                delta1_grid: np.ndarray, msum: MSublevelWeights | None = None) -> np.ndarray:
    """Doppler-averaged I2 and I3 over a probe-detuning grid, two rows (I2
    first), summed over the M sublevels of ``msum``.

    The one owner of a spectrum's M axis: the drive's coupling Rabi
    frequency times each folded weight (:func:`folded_weights`; the single
    weight 1.0 when ``msum`` is None) is one row of a single
    :func:`_row_average` call, and :func:`folded_sum` sums those rows.
    Raises NumericalError if any row fails."""
    grid = _probe_grid(delta1_grid)
    rabi_2 = drive.rabi_2 * folded_weights(msum).reshape((-1,) + (1,) * grid.ndim)
    alpha, beta = doppler_slopes(scheme, drive, dopp)
    rows = _spectrum(_row_average(engine, scheme, drive, grid, alpha, beta, rabi_2))
    return folded_sum(rows.swapaxes(0, 1), msum)


def _second_derivative(f, h):
    """5-point central stencil over the last axis of ``f``, step ``h``."""
    return (-f[..., 0] + 16 * f[..., 1] - 30 * f[..., 2] + 16 * f[..., 3]
            - f[..., 4]) / (12 * h * h)


def _curvature_rows(engine: str, scheme: LevelScheme, drive: DriveParams,
                    alpha: np.ndarray, beta: np.ndarray, rabi_2: np.ndarray,
                    msum: MSublevelWeights | None) -> np.ndarray:
    """I3 curvature at Delta_1 = 0 of every row: Doppler slopes ``alpha[r]``,
    ``beta[r]`` at coupling ``rabi_2[r]``.  ``scheme`` and ``drive`` carry
    what all rows share (decay rates, the probe).  Both routes below need
    resonant coupling; Delta_2 != 0 raises ConfigError here, its one check.

    Every (row, folded M weight) pair is one point.  Analytic points take
    the exact curvature (:func:`_weak_probe_curvature`), ``_RESONANT_BLOCK``
    points per call; the points it refuses, zero-width points (alpha = 0)
    and every point of the other engines take the even half stencil, all in
    one :func:`_row_average` call.  :func:`folded_sum` then sums the M axis.
    A non-finite curvature, exact or of a failed stencil row, is nan, and
    so is its row's M sum.  Zero rows make no kernel call.
    """
    if drive.detuning_2 != 0.0:
        raise ConfigError("the threshold curvature is defined at resonant coupling")
    rabi_2 = np.asarray(rabi_2, dtype=float)
    weights = folded_weights(msum)
    om = (rabi_2[:, None] * weights).ravel()              # (row, M weight), flat
    alpha = np.asarray(alpha, dtype=float).repeat(len(weights))
    beta = np.asarray(beta, dtype=float).repeat(len(weights))
    curv = np.full(om.size, np.nan)
    if engine == "analytic":
        # zero-width points skip the kernel; its refused points stay flagged
        zero = alpha == 0.0
        stencil = ~zero
        _exact_blocks(_weak_probe_curvature, _RESONANT_BLOCK, stencil, curv, scheme, drive,
                      alpha, beta, om)
        stencil |= zero
    else:
        stencil = np.ones(om.size, dtype=bool)
    if np.count_nonzero(stencil):
        # each row's step, from its own coupling, shared by its M weights
        h = np.repeat(np.maximum(0.5, rabi_2 / 200.0), len(weights))[stencil]
        i3 = _row_average(engine, scheme, drive, h[:, None] * _HALF_STENCIL,
                          alpha[stencil, None], beta[stencil, None], om[stencil, None])[1]
        curv[stencil] = _second_derivative(i3[:, _MIRROR], h)
    curv[~np.isfinite(curv)] = np.nan
    curv = curv.reshape(len(rabi_2), len(weights))
    return folded_sum(curv.T, msum)


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
