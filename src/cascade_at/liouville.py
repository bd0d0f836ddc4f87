"""Steady state of the rotating-frame density-matrix equations of motion
for the open cascade at a fixed molecular velocity.

The rotating-wave Hamiltonian (angular units; ordinary-frequency inputs are
multiplied by 2*pi internally) is::

    H = [[0,       Om1/2,   0     ],
         [Om1/2,  -d1,      Om2/2 ],
         [0,       Om2/2,  -(d1+d2)]]

Relaxation: |3> decays at Gamma_3 (fraction b32 into |2>), |2> at Gamma_2
(fraction b21 into |1>); the transit rate w_t removes population from every
level and re-injects into |1> at unit equilibrium.  Coherences decay at the
gamma_ij of :func:`cascade_at.model.rates`, which carry the transit
contribution through the level-|1> removal rate.  Both fields are treated
nonperturbatively.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import SingularSystemError, SolverFailure
from .model import DriveParams, LevelScheme, rates

_TWO_PI = 2 * math.pi

# vec(rho) ordering is row-major: [r11, r12, r13, r21, r22, r23, r31, r32, r33]
_I22, _I33 = 4, 8


def _comm_superoperator(h: np.ndarray) -> np.ndarray:
    """-i[H, .] acting on row-major vec(rho)."""
    eye = np.eye(3)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


@lru_cache(maxsize=256)
def _liouvillian_parts(scheme: LevelScheme, rabi_1: float):
    """Parts of the generator A = A0 + w2 C + d1 Ad1 + d2 Ad2 (angular
    units, w2 = 2 pi Omega_2 / 2): A0 at Omega_2 = 0, the coupling pattern C,
    Ad1, Ad2, and the transit source vector.  C holds only 0 and +-i on
    entries where A0 is zero, so A0 + w2 C is exactly the generator built
    at w2.  Cached: the scheme is a frozen dataclass."""
    rp = rates(scheme)
    w1 = _TWO_PI * rabi_1 / 2
    h0 = np.array([[0, w1, 0], [w1, 0, 0], [0, 0, 0]], dtype=complex)
    h2 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    hd1 = _TWO_PI * np.diag([0.0, -1.0, -1.0]).astype(complex)
    hd2 = _TWO_PI * np.diag([0.0, 0.0, -1.0]).astype(complex)

    relax = np.zeros((9, 9), dtype=complex)
    g2, g3, wt = _TWO_PI * rp.Gamma_2, _TWO_PI * rp.Gamma_3, _TWO_PI * scheme.transit_rate
    idx = lambda i, j: 3 * i + j
    relax[idx(0, 0), idx(1, 1)] += scheme.branch_2_to_1 * g2
    relax[idx(1, 1), idx(1, 1)] += -g2 - wt
    relax[idx(1, 1), idx(2, 2)] += scheme.branch_3_to_2 * g3
    relax[idx(2, 2), idx(2, 2)] += -g3 - wt
    relax[idx(0, 0), idx(0, 0)] += -wt
    for i, j, g in ((0, 1, rp.gamma_12), (1, 0, rp.gamma_12),
                    (0, 2, rp.gamma_13), (2, 0, rp.gamma_13),
                    (1, 2, rp.gamma_23), (2, 1, rp.gamma_23)):
        relax[idx(i, j), idx(i, j)] += -_TWO_PI * g

    source = np.zeros(9, dtype=complex)
    source[idx(0, 0)] = wt
    a0 = _comm_superoperator(h0) + relax
    return (a0, _comm_superoperator(h2), _comm_superoperator(hd1),
            _comm_superoperator(hd2), source)


def _real_basis():
    """T and T^{-1} for vec(rho) = T r, r = [r11, r22, r33, Re r12, Im r12,
    Re r13, Im r13, Re r23, Im r23]: the populations, then the coherences.
    The columns of T are orthogonal, so T^{-1} = diag(1/|t_k|^2) T^H."""
    t = np.zeros((9, 9), dtype=complex)
    t[(0, 4, 8), (0, 1, 2)] = 1
    for k, (ij, ji) in enumerate(((1, 3), (2, 6), (5, 7))):
        t[(ij, ji), 3 + 2 * k] = 1
        t[(ij, ji), 4 + 2 * k] = (1j, -1j)
    return t, np.diag([1.0] * 3 + [0.5] * 6) @ t.conj().T


_T, _T_INV = _real_basis()


class _PencilParts(NamedTuple):
    """The real 6x6 coherence pencil as polynomials in w2 = pi Omega_2
    (:func:`velocity_poles`): S(w2) = s0 + w2 s1 + w2^2 s2, q(w2) = q0 + w2 q1
    and the rho22, rho33 rows of pop(w2) = p0 + w2 p1, with the coherence
    blocks ad1, ad2 of the detuning parts and the population constant
    rho_p0 = -A_pp^{-1} s_p."""

    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    ad1: np.ndarray
    ad2: np.ndarray
    rho_p0: np.ndarray


@lru_cache(maxsize=256)
def _pencil_parts(scheme: LevelScheme, rabi_1: float) -> _PencilParts:
    """The generator in the real basis, where the equations of motion of a
    Hermitian rho are real, with the populations eliminated.  There
    A = A0 + w2 C, the coupling pattern C and the detuning parts are zero on
    the population block A_pp, and A_pp holds only decay and transit, so
    pop = -A_pp^{-1} A_pc is linear in w2, q = -A_cp rho_p0 linear and the
    Schur complement S = A_cc + A_cp pop quadratic."""
    a0, coupling, ad1, ad2, source = _liouvillian_parts(scheme, rabi_1)
    real = lambda m: (_T_INV @ m @ _T).real
    a0, c = real(a0), real(coupling)
    app_inv = np.linalg.inv(a0[:3, :3])
    p0, p1 = -app_inv @ a0[:3, 3:], -app_inv @ c[:3, 3:]
    rho_p0 = -app_inv @ (_T_INV @ source).real[:3]
    return _PencilParts(
        s0=a0[3:, 3:] + a0[3:, :3] @ p0,
        s1=c[3:, 3:] + a0[3:, :3] @ p1 + c[3:, :3] @ p0,
        s2=c[3:, :3] @ p1,
        q0=-a0[3:, :3] @ rho_p0, q1=-c[3:, :3] @ rho_p0,
        p0=p0[1:], p1=p1[1:], ad1=real(ad1)[3:, 3:], ad2=real(ad2)[3:, 3:],
        rho_p0=rho_p0)


def steady_state_batch(scheme: LevelScheme, drive: DriveParams,
                       d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Vectorized steady state over arrays of effective detunings (MHz).

    Returns an (N, 9) complex array of vec(rho); the data-parallel path used
    by the Doppler averaging engines.
    """
    if scheme.transit_rate <= 0:
        raise SingularSystemError("steady state needs transit_rate > 0")
    d1 = np.atleast_1d(np.asarray(d1, dtype=float))
    d2 = np.atleast_1d(np.asarray(d2, dtype=float))
    a0, coupling, ad1, ad2, source = _liouvillian_parts(scheme, drive.rabi_1)
    a = ((a0 + math.pi * drive.rabi_2 * coupling)[None, :, :]
         + d1[:, None, None] * ad1[None, :, :]
         + d2[:, None, None] * ad2[None, :, :])
    rhs = np.broadcast_to(-source, (len(d1), 9))[..., None]
    try:
        v = np.linalg.solve(a, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        conds = [float(np.linalg.cond(a[k])) for k in range(min(len(d1), 4))]
        raise SolverFailure(f"steady-state solve failed: {exc}",
                            condition_number=max(conds)) from exc
    if not np.all(np.isfinite(v)):
        raise SolverFailure("steady-state solve produced non-finite entries")
    return v


def velocity_poles(scheme: LevelScheme, rabi_1: float, delta1, detuning_2,
                   rabi_2, alpha, beta):
    """Populations as rational functions of the dimensionless velocity u over
    a probe-detuning grid.

    With d1 = delta1 + alpha u and d2 = detuning_2 + beta u the generator is
    affine in u, A(u) = A0 + u B.  In the real basis (:data:`_T`) both are
    real and B = alpha ad1 + beta ad2 acts on the six coherences alone.  The
    population block A_pp holds only decay and transit, so it is constant and
    invertible (w_t > 0), and eliminating the populations leaves the real 6x6
    pencil on the coherences

        (S + u B_c) rho_c = q,   S = A_cc - A_cp A_pp^{-1} A_pc,
        q = A_cp A_pp^{-1} s_p,

    with rho_p(u) = -A_pp^{-1} s_p - A_pp^{-1} A_pc rho_c(u).  One real solve
    gives S^{-1} [q | B_c], and diagonalizing M = S^{-1} B_c =
    V diag(lam) V^{-1} gives

        rho_ii(u) = c_i + sum_k r_ik / (1 + u lam_k),

    r_ik = (-A_pp^{-1} A_pc V)[i, k] (V^{-1} S^{-1} q)_k, where the constant
    c_i = (-A_pp^{-1} s_p)_i is carried as one more residue at lam = 0.  S, q
    and the population rows come from the polynomials in w2 = pi Omega_2 of
    :func:`_pencil_parts`, elementwise at every point.

    ``rabi_2``, ``alpha`` and ``beta`` may be per-row arrays that broadcast
    against ``delta1``, e.g. (rows, 1) against a (rows, points) grid.
    Returns ``(lam, res, cond)``: the (..., 7) complex eigenvalues, the
    (..., 2, 7) residues of rho22 and rho33, and ||V||_1 ||V^{-1}||_1, over
    the broadcast grid shape.  The eigenvalues of the real M come as exact
    conjugate pairs, each with exactly conjugate eigenvectors.  For a 6x6 V
    the 1-norm product lies within a factor of 6 of the 2-norm condition
    number.
    """
    if scheme.transit_rate <= 0:
        raise SingularSystemError("steady state needs transit_rate > 0")
    d1 = np.asarray(delta1, dtype=float)
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    w2 = math.pi * np.asarray(rabi_2, dtype=float)
    shape = np.broadcast_shapes(d1.shape, alpha.shape, beta.shape, w2.shape)
    pp = _pencil_parts(scheme, rabi_1)
    try:
        sol = np.linalg.solve(*_pencil(pp, d1, detuning_2, w2, alpha, beta, shape))
        lam, vecs = np.linalg.eig(sol[..., 1:])
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"velocity pole expansion failed: {exc}") from exc
    coef = (inv @ sol[..., :1])[..., 0]
    cond = _norm_1(vecs) * _norm_1(inv)
    lam7 = np.zeros(shape + (7,), dtype=complex)
    lam7[..., :6] = lam
    res = np.empty(shape + (2, 7), dtype=complex)
    np.multiply((pp.p0 + w2[..., None, None] * pp.p1) @ vecs, coef[..., None, :],
                out=res[..., :6])
    res[..., 6] = pp.rho_p0[1:]
    return lam7, res, cond


def _pencil(pp: _PencilParts, d1, detuning_2, w2, alpha, beta, shape):
    """S and [q | B_c] over the grid ``shape``, elementwise from the
    polynomial parts ``pp`` at w2 = pi Omega_2 (:func:`velocity_poles`)."""
    w2m = w2[..., None, None]
    schur = ((pp.s0 + detuning_2 * pp.ad2) + w2m * (pp.s1 + w2m * pp.s2)
             + d1[..., None, None] * pp.ad1)
    rhs = np.empty(shape + (6, 7))
    rhs[..., 0] = pp.q0 + w2[..., None] * pp.q1
    rhs[..., 1:] = alpha[..., None, None] * pp.ad1 + beta[..., None, None] * pp.ad2
    return np.broadcast_to(schur, shape + (6, 6)), rhs


def _norm_1(m):
    """Largest column sum of |m| over a stack of matrices."""
    return np.abs(m).sum(axis=-2).max(axis=-1)


def populations_batch(scheme: LevelScheme, drive: DriveParams,
                      d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho22, rho33) arrays for the Doppler engines."""
    v = steady_state_batch(scheme, drive, d1, d2)
    return v[:, _I22].real, v[:, _I33].real

