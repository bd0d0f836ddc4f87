"""Weak-probe perturbative lineshapes at fixed velocity.

For a weak probe the cascade populations reduce to rational functions of
the effective detunings through the complex denominator

    D = (gamma_12 + i d1)(gamma_13 + i (d1 + d2)) + (Omega_2 / 2)^2

whose roots control both the Autler-Townes doublet and the analytic
velocity average in :mod:`cascade_at.doppler`.  The overall prefactors
``K_RHO33`` / ``K_RHO22`` only set the absolute scale; they were fixed once
by least-squares matching the full steady-state solver on the case-a
parameter set at v_z = 0 with a probe at Gamma_2/20, then frozen (see
tests).  Everything quantitative downstream uses peak-normalized spectra.

The perturbative rho22 omits the cascade repopulation feeding |2> from |3>
decay; the weak-probe agreement tests bound that omission.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRootError
from .model import (C_M_PER_S, DopplerParams, DriveParams, LevelScheme,
                    most_probable_speed, rates)

# frozen scale factors (dimensionless); see module docstring
K_RHO33 = 1.1957333777107713
K_RHO22 = 1.195583630615565


@dataclass(frozen=True)
class CascadeDenominator:
    """Quadratic coefficients of D in the dimensionless velocity u = v_z/v_p;
    arrays when D is built over a detuning grid or over rows of parameters."""

    a: complex | np.ndarray
    b: complex | np.ndarray
    c: complex | np.ndarray

    def value(self, u):
        return (self.a * u + self.b) * u + self.c

    def roots(self):
        """Roots by the numerically stable quadratic formula, elementwise
        when ``b`` and ``c`` are arrays over a detuning grid."""
        a, b, c = self.a, self.b, self.c
        sq = np.sqrt(b * b - 4 * a * c)
        # pick the sign that avoids cancellation in b + sq
        q = -(b + np.where((np.conj(b) * sq).real >= 0, sq, -sq)) / 2
        # q == 0 only when b == c == 0: a double root at the origin
        z1 = q / a
        z2 = np.where(q == 0, z1, c / np.where(q == 0, 1.0, q))
        return z1[()], z2[()]


def doppler_slopes(scheme: LevelScheme, drive: DriveParams,
                   dopp: DopplerParams) -> tuple[float, float]:
    """(alpha, beta): Doppler shifts of d1 and d2 in MHz per unit u = v_z/v_p."""
    v_p = most_probable_speed(scheme, dopp)
    alpha = drive.dir_1 * scheme.nu_21 * v_p / C_M_PER_S
    beta = drive.dir_2 * scheme.nu_32 * v_p / C_M_PER_S
    return alpha, beta


def denominator_coefficients(scheme: LevelScheme, delta1, detuning_2, rabi_2,
                             alpha, beta) -> CascadeDenominator:
    """Quadratic coefficients (a, b, c) of D in u = v_z/v_p at probe
    detunings ``delta1``, coupling detuning ``detuning_2``, coupling Rabi
    frequency ``rabi_2`` and Doppler slopes ``alpha``, ``beta``
    (:func:`doppler_slopes`).  Every argument after ``scheme`` may be an
    array; they broadcast elementwise, so per-row parameters of shape
    (rows, 1) go with a (rows, points) detuning grid.

    Degenerate if a = 0, which happens only for a zero wavenumber or zero
    Doppler width.
    """
    rp = rates(scheme)
    d12 = delta1 + detuning_2
    a = -(alpha * (alpha + beta)) + 0j
    if np.any(a == 0):
        raise DegenerateRootError(
            "denominator is not quadratic in u (zero wavenumber or zero Doppler width)")
    b = 1j * alpha * (rp.gamma_13 + 1j * d12) + 1j * (alpha + beta) * (rp.gamma_12 + 1j * delta1)
    # np.square rounds x*x the same for a scalar and an array; Python's
    # float ** 2 goes through pow() and can differ in the last bit
    c = (rp.gamma_12 + 1j * delta1) * (rp.gamma_13 + 1j * d12) + np.square(rabi_2 / 2)
    return CascadeDenominator(a=a, b=b, c=c)


# vectorized forms used by the Doppler averaging engines

def rho_weak_batch(scheme: LevelScheme, drive: DriveParams,
                   d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho22, rho33) weak-probe values over arrays of effective detunings."""
    rp = rates(scheme)
    d2ph = d1 + d2
    den = np.abs((rp.gamma_12 + 1j * d1) * (rp.gamma_13 + 1j * d2ph)
                 + (drive.rabi_2 / 2) ** 2) ** 2
    r33 = K_RHO33 * (drive.rabi_1 * drive.rabi_2 / 4) ** 2 / den
    r22 = K_RHO22 * (drive.rabi_1 / 2) ** 2 * (rp.gamma_13 ** 2 + d2ph ** 2) / den
    return r22, r33
