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

# On the coherences [Re r12, Im r12, Re r13, Im r13, Re r23, Im r23] the
# detuning parts are ad1 = J_hat diag(_D1) and ad2 = J_hat diag(_D2), with
# J_hat = 2 pi blockdiag(J, J, J) and J = [[0, 1], [-1, 0]]: a detuning
# rotates the coherences it enters.  J^{-1} = -J.
_J_HAT_INV = np.kron(np.eye(3), [[0.0, -1.0], [1.0, 0.0]]) / _TWO_PI
_D1 = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
_D2 = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])

# velocity_poles diagonalizes B_c^{-1} S only while the smallest slope
# |alpha|, |alpha + beta|, |beta| exceeds this fraction of the largest
_SLOPE_RATIO = 1e-3


class _PencilParts(NamedTuple):
    """The real 6x6 coherence pencil as polynomials in w2 = pi Omega_2
    (:func:`velocity_poles`), rotated by J_hat^{-1} (:data:`_J_HAT_INV`):
    R(w2) = J_hat^{-1} S(w2) = r0 + w2 r1 + w2^2 r2 and
    J_hat^{-1} q(w2) = jq0 + w2 jq1, with the rho22, rho33 rows of
    pop(w2) = p0 + w2 p1 and the population constant rho_p0 = -A_pp^{-1} s_p."""

    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    jq0: np.ndarray
    jq1: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    rho_p0: np.ndarray


@lru_cache(maxsize=256)
def _pencil_parts(scheme: LevelScheme, rabi_1: float) -> _PencilParts:
    """The generator in the real basis, where the equations of motion of a
    Hermitian rho are real, with the populations eliminated.  There
    A = A0 + w2 C, the coupling pattern C and the detuning parts are zero on
    the population block A_pp, and A_pp holds only decay and transit, so
    pop = -A_pp^{-1} A_pc is linear in w2, q = -A_cp rho_p0 linear and the
    Schur complement S = A_cc + A_cp pop quadratic.  S and q are stored
    rotated by J_hat^{-1}, where the detunings and the Doppler slopes enter
    on the diagonal alone (:func:`velocity_poles`)."""
    a0, coupling, _, _, source = _liouvillian_parts(scheme, rabi_1)
    real = lambda m: (_T_INV @ m @ _T).real
    a0, c = real(a0), real(coupling)
    app_inv = np.linalg.inv(a0[:3, :3])
    p0, p1 = -app_inv @ a0[:3, 3:], -app_inv @ c[:3, 3:]
    rho_p0 = -app_inv @ (_T_INV @ source).real[:3]
    rot = lambda m: _J_HAT_INV @ m
    return _PencilParts(
        r0=rot(a0[3:, 3:] + a0[3:, :3] @ p0),
        r1=rot(c[3:, 3:] + a0[3:, :3] @ p1 + c[3:, :3] @ p0),
        r2=rot(c[3:, :3] @ p1),
        jq0=rot(-a0[3:, :3] @ rho_p0), jq1=rot(-c[3:, :3] @ rho_p0),
        p0=p0[1:], p1=p1[1:], rho_p0=rho_p0)


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

    with rho_p(u) = -A_pp^{-1} s_p - A_pp^{-1} A_pc rho_c(u).  A detuning
    rotates the coherences it enters, so B_c = J_hat Sigma with the constant
    J_hat of :data:`_J_HAT_INV` and the slopes
    Sigma = diag(alpha, alpha, alpha + beta, alpha + beta, beta, beta), and
    S = J_hat (R + D) with R = J_hat^{-1} S(w2) from :func:`_pencil_parts`
    and D = diag(d1, d1, d1 + d2, d1 + d2, d2, d2) at u = 0.  Then

        N = B_c^{-1} S = Sigma^{-1} (R + D)

    is a row scaling, and diagonalizing N = V diag(mu) V^{-1} gives

        rho_ii(u) = c_i + sum_k r_ik / (1 + u lam_k),   lam_k = 1 / mu_k,

    r_ik = (-A_pp^{-1} A_pc V)[i, k] (V^{-1} Sigma^{-1} J_hat^{-1} q)_k / mu_k,
    where the constant c_i = (-A_pp^{-1} s_p)_i is carried as one more
    residue at lam = 0.  Where the smallest slope is at most
    ``_SLOPE_RATIO`` of the largest at any point of the call (x near -1,
    where alpha + beta -> 0, or nu_32 << nu_21), Sigma^{-1} would amplify
    rounding or divide by zero, and the call diagonalizes
    M = S^{-1} B_c = (R + D)^{-1} Sigma instead, with coefficients
    V^{-1} S^{-1} q: the same eigenvectors, the same lam.

    ``rabi_2``, ``alpha`` and ``beta`` may be per-row arrays that broadcast
    against ``delta1``, e.g. (rows, 1) against a (rows, points) grid.
    Returns ``(lam, res, cond)``: the (..., 7) complex eigenvalues, the
    (..., 2, 7) residues of rho22 and rho33, and ||V||_1 ||V^{-1}||_1, over
    the broadcast grid shape.  The eigenvalues of the real N or M come as
    exact conjugate pairs, each with exactly conjugate eigenvectors.  For a
    6x6 V the 1-norm product lies within a factor of 6 of the 2-norm
    condition number.
    """
    if scheme.transit_rate <= 0:
        raise SingularSystemError("steady state needs transit_rate > 0")
    d1 = np.asarray(delta1, dtype=float)
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    w2 = math.pi * np.asarray(rabi_2, dtype=float)
    shape = np.broadcast_shapes(d1.shape, alpha.shape, beta.shape, w2.shape)
    pp = _pencil_parts(scheme, rabi_1)
    w2m = w2[..., None, None]
    shifted = np.empty(shape + (6, 6))
    shifted[...] = pp.r0 + w2m * (pp.r1 + w2m * pp.r2)
    shifted.reshape(shape + (36,))[..., ::7] += d1[..., None] * _D1 + detuning_2 * _D2
    jq = pp.jq0 + w2[..., None] * pp.jq1
    sigma = alpha[..., None] * _D1 + beta[..., None] * _D2
    slopes = np.abs(sigma[..., ::2])        # |alpha|, |alpha + beta|, |beta|
    solve_free = np.all(slopes.min(axis=-1) > _SLOPE_RATIO * slopes.max(axis=-1))
    eigenbasis = _slope_eigenbasis if solve_free else _schur_eigenbasis
    try:
        lam, vecs, inv, coef = eigenbasis(shifted, jq, sigma)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"velocity pole expansion failed: {exc}") from exc
    cond = np.linalg.norm(vecs, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
    lam7 = np.zeros(shape + (7,), dtype=complex)
    lam7[..., :6] = lam
    res = np.empty(shape + (2, 7), dtype=complex)
    np.multiply((pp.p0 + w2m * pp.p1) @ vecs, coef[..., None, :], out=res[..., :6])
    res[..., 6] = pp.rho_p0[1:]
    return lam7, res, cond


def _slope_eigenbasis(shifted, jq, sigma):
    """(lam, V, V^{-1}, coefficients) from N = Sigma^{-1} (R + D) =
    V diag(mu) V^{-1}: lam = 1/mu, coefficients V^{-1} Sigma^{-1} jq / mu
    (:func:`velocity_poles`).  Overwrites ``shifted``.  A zero mu is a
    singular S."""
    mu, vecs = np.linalg.eig(np.divide(shifted, sigma[..., None], out=shifted))
    if np.any(mu == 0):
        raise SolverFailure("velocity pole expansion failed: singular pencil")
    inv = np.linalg.inv(vecs)
    coef = (inv @ (jq / sigma)[..., None])[..., 0] / mu
    return 1.0 / mu, vecs, inv, coef


def _schur_eigenbasis(shifted, jq, sigma):
    """(lam, V, V^{-1}, coefficients) from M = S^{-1} B_c =
    (R + D)^{-1} Sigma = V diag(lam) V^{-1}, coefficients V^{-1} S^{-1} q =
    V^{-1} (R + D)^{-1} jq, by one solve for (R + D)^{-1} [jq | Sigma]
    (:func:`velocity_poles`): the form for slopes of very different size,
    and for a zero one."""
    rhs = np.empty(shifted.shape[:-1] + (7,))
    rhs[..., 0] = jq
    rhs[..., 1:] = sigma[..., None, :] * np.eye(6)
    sol = np.linalg.solve(shifted, rhs)
    lam, vecs = np.linalg.eig(sol[..., 1:])
    inv = np.linalg.inv(vecs)
    return lam, vecs, inv, (inv @ sol[..., :1])[..., 0]


def populations_batch(scheme: LevelScheme, drive: DriveParams,
                      d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho22, rho33) arrays for the Doppler engines."""
    v = steady_state_batch(scheme, drive, d1, d2)
    return v[:, _I22].real, v[:, _I33].real

