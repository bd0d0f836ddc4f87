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

# a velocity_poles point takes the slope form N = Sigma^{-1} (R + D) while
# the smallest slope |alpha|, |alpha + beta|, |beta| there exceeds this
# fraction of the largest, and the Schur form M = (R + D)^{-1} Sigma otherwise
_SLOPE_RATIO = 1e-3
# |lam| counted as zero; keeps |p| = 1/|lam| within w's domain
_ZERO_EIGENVALUE = 1e-8
# _mode_residues filters the residue of mode k by every mode j with
# |x_j| > _FILTER_RATIO |x_k|
_FILTER_RATIO = 15.0
# the mode before each of the six: a conjugate pair's upper member comes
# right before its lower one
_PRECEDING = np.array([0, 0, 1, 2, 3, 4])


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
    # -A_pp^{-1} [A0_pc | C_pc | s_p] by one solve
    sol = -np.linalg.solve(a0[:3, :3], np.column_stack(
        (a0[:3, 3:], c[:3, 3:], (_T_INV @ source).real[:3])))
    p0, p1, rho_p0 = sol[:, :6], sol[:, 6:12], sol[:, 12]
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
        # the worst of the whole batch; cond gives a singular matrix inf, silently
        raise SolverFailure(f"steady-state solve failed: {exc}",
                            condition_number=float(np.linalg.cond(a).max())) from exc
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

    is a row scaling.  With its eigenvalues mu_k, the spectral projectors
    E_k and v = Sigma^{-1} J_hat^{-1} q,

        rho_ii(u) = c_i + sum_k r_ik / (1 + u lam_k),   lam_k = 1 / mu_k,

    r_ik = (P E_k v)_i / mu_k with P the rho22, rho33 rows of
    -A_pp^{-1} A_pc, where the constant c_i = (-A_pp^{-1} s_p)_i is carried
    as one more residue at lam = 0.  At a point where the smallest slope is
    at most ``_SLOPE_RATIO`` of the largest (x near -1, where
    alpha + beta -> 0, or nu_32 << nu_21), Sigma^{-1} would amplify
    rounding or divide by zero, and the point takes M = S^{-1} B_c =
    (R + D)^{-1} Sigma and v = (R + D)^{-1} J_hat^{-1} q instead, with
    lam_k its eigenvalues and r_ik = (P E_k v)_i.  There the modes with
    |lam| <= ``_ZERO_EIGENVALUE`` (the two-photon coherences at x = -1) are
    never divided by: their residues, summed, join the constant, as
    P v - sum of the other residues, since the rational function is P v at
    u = 0.  The form is chosen per point: each point brings its own matrix
    and vector (the solve for M runs on the Schur points alone), one
    batched eigvals serves the whole call, and :func:`_mode_residues`
    forms the residues from the eigenvalues alone, with no eigenvector, so
    a point has the bits of its call alone whatever else the call holds.

    ``rabi_2``, ``alpha`` and ``beta`` may be per-row arrays that broadcast
    against ``delta1``, e.g. (rows, 1) against a (rows, points) grid.
    Returns ``(lam, res)``: the (..., 7) complex eigenvalues and the
    (..., 2, 7) residues of rho22 and rho33 over the broadcast grid shape.
    The eigenvalues of the real N or M come as exact conjugate pairs with
    exactly conjugate residues.  Exactly coincident eigenvalues give nan
    residues.
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
    sigma = np.broadcast_to(alpha[..., None] * _D1 + beta[..., None] * _D2, shape + (6,))
    slopes = np.abs(sigma[..., ::2])        # |alpha|, |alpha + beta|, |beta|
    schur = slopes.min(axis=-1) <= _SLOPE_RATIO * slopes.max(axis=-1)
    # per point the matrix to diagonalize and its coefficient vector: N and
    # Sigma^{-1} jq, or M and (R + D)^{-1} jq; a Schur point divides by one
    div = np.where(schur[..., None], 1.0, sigma)
    mat = np.divide(shifted, div[..., None], out=shifted)
    vec = jq / div
    try:
        if schur.any():
            rhs = np.empty((np.count_nonzero(schur), 6, 7))
            rhs[..., 0] = vec[schur]
            rhs[..., 1:] = sigma[schur][..., None, :] * np.eye(6)
            sol = np.linalg.solve(mat[schur], rhs)
            mat[schur], vec[schur] = sol[..., 1:], sol[..., 0]
        x = np.linalg.eigvals(mat).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"velocity pole expansion failed: {exc}") from exc
    # a slope point's eigenvalues are mu = 1/lam, and a zero mu is a singular S
    mu = np.where(schur[..., None], 1.0, x)
    if np.any(mu == 0):
        raise SolverFailure("velocity pole expansion failed: singular pencil")
    zero = schur[..., None] & (np.abs(x) <= _ZERO_EIGENVALUE)
    pop = np.broadcast_to(pp.p0 + w2m * pp.p1, shape + (2, 6))
    res = np.empty(shape + (2, 7), dtype=complex)
    res[..., :6] = _mode_residues(*(a.reshape((-1,) + a.shape[len(shape):])
                                    for a in (mat, vec, pop, x, mu, zero))).reshape(shape + (2, 6))
    res[..., 6] = pp.rho_p0[1:]
    if schur.any():
        # a Schur point's lam = 0 modes, summed: P v less the other residues
        res[..., 6] += np.where(schur[..., None],
                                (pop @ vec[..., None])[..., 0] - res[..., :6].sum(axis=-1), 0.0)
    lam7 = np.zeros(shape + (7,), dtype=complex)
    lam7[..., :6] = np.where(schur[..., None], x, 1.0 / mu)
    return lam7, res


def _mode_residues(mat, vec, pop, x, mu, skip):
    """The residues (P E_k v)_i / mu_k, at [point, i, k], of the rational
    functions P (zI + X)^{-1} v at their poles z = -x_k, from the
    eigenvalues x alone, over a flat batch of points: matrices X (``mat``),
    vectors v, 2x6 rows P (``pop``), eigenvalues, divisors mu and the modes
    to ``skip`` (residue 0, never divided by).

    E_k v = adj(x_k I - X) v / prod_{j != k} (x_j - x_k) is the spectral
    projector of mode k applied to v.  From the characteristic polynomial
    det(zI + X) = sum_m e_m z^(6-m), whose real e_m come from the x_j, the
    adjugate is adj(zI + X) v = sum_m z^(5-m) k_m with k_0 = v and
    k_m = e_m v - X k_(m-1), five real mat-vecs per point, and
    P E_k v = sum_m (-x_k)^(5-m) P k_m / prod_{j != k} (x_j - x_k) by
    Horner.  That sum leaves E_k v a rounding part along each mode j far
    larger than k, amplified by about (|x_j| / |x_k|)^5 (the slope form as
    x -> -1, or weak residues beside strong ones); every upper or real mode
    k with a mode j of |x_j| > ``_FILTER_RATIO`` |x_k| takes E_k v as a
    vector instead and applies the factors (X - x_j) / (x_k - x_j) of E_k
    once more, which remove those parts.  A lower member's residue is the
    conjugate of its upper member's (``_PRECEDING``).  Coincident
    eigenvalues give nan."""
    # E_k does not change when X and x scale together: divided by the power
    # of two just above max |x|, exactly, no product of six x can overflow
    # (the scaling changes no digit, so it is skipped where none would)
    top = np.abs(x).max(axis=-1)
    if not np.all((top < 1e30) & (top > 1e-30)):
        unit = np.ldexp(1.0, -np.frexp(top)[1])
        mat, x = mat * unit[:, None, None], x * unit[:, None]
    roots = x.T.copy()                                   # [k, point]
    e = np.zeros((7, len(x)), dtype=complex)
    e[0] = 1.0
    for j in range(6):
        e[1:j + 2] += roots[j] * e[:j + 1]
    e = e.real
    krylov = [vec]
    for m in range(1, 6):
        krylov.append(e[m, :, None] * vec - np.einsum("nij,nj->ni", mat, krylov[-1]))
    krylov = np.stack(krylov, axis=1)                    # k_m in row m
    den = np.ones_like(roots)                 # prod_{j != k} (x_j - x_k) mu_k, at [k, point]
    for j in range(6):
        diff = roots[j] - roots
        diff[j] = 1.0
        den *= diff
    den *= mu.T
    weight = np.full(den.shape, np.nan, dtype=complex)  # 1 / den, nan where den = 0
    np.divide(1.0, den, out=weight, where=den != 0)
    weight[skip.T] = 0.0
    num = np.moveaxis(pop @ krylov.transpose(0, 2, 1), 0, -1).copy()  # P k_m at [:, m]
    neg = -roots
    res = num[:, 0, None] * neg + num[:, 1, None]        # [i, k, point]
    for m in range(2, 6):
        res *= neg
        res += num[:, m, None]
    res *= weight
    mod = np.abs(roots)
    mode, point = np.nonzero((mod.max(axis=0) > _FILTER_RATIO * mod)
                             & (roots.imag >= 0) & ~skip.T)
    if point.size:
        xk, nodes = roots[mode, point, None], x[point]
        far = np.abs(nodes) > _FILTER_RATIO * np.abs(xk)
        # (X - x_j) / (x_k - x_j) where mode j is far, the identity elsewhere
        scale = far / np.where(far, xk - nodes, 1.0)
        shift = ~far - nodes * scale
        vecs = krylov[point]
        proj = vecs[:, 0] * -xk + vecs[:, 1]
        for m in range(2, 6):
            proj *= -xk
            proj += vecs[:, m]
        proj *= weight[mode, point, None]
        mats = mat[point]
        real = lambda a: a.view(float).reshape(-1, 6, 2)   # a complex 6-vector as 6x2
        for j in np.flatnonzero(far.any(axis=0)):
            xv = (mats @ real(proj)).reshape(-1, 12).view(complex)
            proj = scale[:, j, None] * xv + shift[:, j, None] * proj
        res[:, mode, point] = (pop[point] @ real(proj)).reshape(-1, 4).view(complex).T
    np.conjugate(res[:, _PRECEDING], out=res, where=roots.imag < 0)
    return np.moveaxis(res, -1, 0)


def populations_batch(scheme: LevelScheme, drive: DriveParams,
                      d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho22, rho33) arrays for the Doppler engines."""
    v = steady_state_batch(scheme, drive, d1, d2)
    return v[:, _I22].real, v[:, _I33].real

