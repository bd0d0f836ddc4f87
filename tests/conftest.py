import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cascade_at as ca
from cascade_at import doppler
from cascade_at.lineshape import doppler_slopes
from cascade_at.liouville import velocity_poles
from cascade_at.model import rates


@pytest.fixture(scope="session")
def case_a():
    return ca.preset("case_a")


@pytest.fixture(scope="session")
def case_b():
    return ca.preset("case_b")


@pytest.fixture(scope="session")
def gh200():
    return ca.QuadratureRule.gauss_hermite(200)


def subprocess_env(extra=None):
    """Environment in which `python -m cascade_at` imports the package that
    this test session imported, whatever the subprocess's working directory,
    updated by ``extra``."""
    src = str(Path(ca.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    env.update(extra or {})
    return env


def local_minima(grid, vals):
    """Indices of strict interior local minima."""
    vals = np.asarray(vals)
    mask = (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
    return np.nonzero(mask)[0] + 1


def local_maxima(grid, vals):
    vals = np.asarray(vals)
    mask = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
    return np.nonzero(mask)[0] + 1


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
        z1, z2 = ca.denominator_coefficients(scheme, 0.0, 0.0, drv.rabi_2,
                                             alpha, beta).roots()
        return abs(z1 - z2) / max(abs(z1), abs(z2))

    candidates = [replace(drive, detuning_2=0.0, rabi_2=om + k * np.spacing(om))
                  for k in range(-4, 5)]
    best = min(candidates, key=separation)
    assert separation(best) < 1e-12
    return best


def seven_pole_sum(scheme, drive, grid, alpha, beta, rabi_2):
    """(I2, I3) by the term of every column of ``velocity_poles``: both
    members of each conjugate pair, and the lam = 0 column as a zero-weight
    placeholder pole at 1j.  The oracle of the pair sum.  Also returns the
    sum of the terms' moduli, the scale at which rounding enters a sum whose
    terms cancel."""
    lam, res = velocity_poles(scheme, drive.rabi_1, grid, drive.detuning_2,
                              rabi_2, alpha, beta)
    lam = lam[:, None, :]
    finite = np.abs(lam) > doppler._ZERO_EIGENVALUE
    safe = np.where(finite, lam, 1.0)
    poles = np.where(finite, -1.0 / safe, 1j)
    terms = np.where(finite, res / safe, 0.0) * doppler._pole_integral(poles) / math.sqrt(math.pi)
    pops = np.where(finite, 0.0, res).sum(axis=-1) + terms.sum(axis=-1)
    scale = np.abs(np.where(finite, terms, res)).sum(axis=-1)
    gamma = np.array([[rates(scheme).Gamma_2], [rates(scheme).Gamma_3]])
    return gamma * pops.real.T, gamma * scale.T
