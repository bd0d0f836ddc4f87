import math
from dataclasses import replace

import numpy as np
import pytest

import cascade_at as ca
from cascade_at import doppler, liouville
from cascade_at.doppler import _engine_batch
from cascade_at.errors import SingularSystemError, SolverFailure
from cascade_at.lineshape import doppler_slopes
from cascade_at.liouville import (_D1, _D2, _T, _T_INV, _liouvillian_parts, _pencil_parts,
                                  populations_batch, steady_state_batch, velocity_poles)
from cascade_at.threshold import _geometry_for_x
from conftest import seven_pole_sum


# 2 pi blockdiag(J, J, J), J = [[0, 1], [-1, 0]]
_J_HAT = 2 * math.pi * np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])


def failing_lapack(*args, **kwargs):
    raise np.linalg.LinAlgError("mocked LAPACK failure")


def density_matrix(scheme, drive, d1, d2):
    """Steady-state 3x3 density matrix at one pair of effective detunings."""
    return steady_state_batch(scheme, drive, [d1], [d2])[0].reshape(3, 3)


class TestEffectiveDetunings:
    """The Doppler shifts d_i - Delta_i^0 = s_i nu_i v_z / c, as the slopes
    (alpha, beta) per unit u = v_z / v_p."""

    def test_zero_velocity(self, case_a):
        # no velocity spread, no shift
        scheme, drive, _ = case_a
        assert doppler_slopes(scheme, drive, ca.DopplerParams(fwhm=0.0)) == (0.0, 0.0)

    def test_counter_propagating_signs(self, case_a):
        scheme, drive, dopp = case_a       # dir_1 = +1, dir_2 = -1
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        assert alpha > 0
        assert beta < 0

    def test_doppler_shift_magnitude(self, case_a):
        # nu_1 * v/c for 100 m/s on the case-a probe transition: 146.48 MHz
        scheme, drive, dopp = case_a
        alpha, _ = doppler_slopes(scheme, drive, dopp)
        d1_shift = alpha * 100.0 / ca.most_probable_speed(scheme, dopp)
        shift = scheme.nu_21 * 100.0 / ca.model.C_M_PER_S
        assert d1_shift == pytest.approx(shift, rel=1e-12)
        assert shift == pytest.approx(146.48, abs=0.02)

    def test_linear_in_velocity(self, case_b):
        # twice the Doppler width is twice the velocity scale v_p
        scheme, drive, _ = case_b
        a1, b1 = doppler_slopes(scheme, drive, ca.DopplerParams(fwhm=1100.0))
        a2, b2 = doppler_slopes(scheme, drive, ca.DopplerParams(fwhm=2200.0))
        assert a2 == pytest.approx(2 * a1, rel=1e-12)
        assert b2 == pytest.approx(2 * b1, rel=1e-12)


class TestSteadyState:
    def test_lapack_failure_is_a_solver_failure(self, case_a, monkeypatch):
        scheme, drive, _ = case_a
        monkeypatch.setattr(np.linalg, "solve", failing_lapack)
        with pytest.raises(SolverFailure, match="steady-state solve failed") as err:
            steady_state_batch(scheme, drive, [30.0, 40.0], [-12.0, 0.0])
        assert err.value.condition_number > 1.0

    def test_no_probe_all_ground(self, case_a):
        scheme, drive, _ = case_a
        dark = replace(drive, rabi_1=0.0)
        rho = density_matrix(scheme, dark, 30.0, -12.0)
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)
        assert rho[1, 1].real == pytest.approx(0.0, abs=1e-12)
        assert rho[2, 2].real == pytest.approx(0.0, abs=1e-12)
        assert abs(rho[1, 0]) < 1e-12 and abs(rho[2, 0]) < 1e-12

    def test_two_level_closed_form(self):
        # Om2 = 0, closed system, resonance: rho22 = R/(G2 + wt + 2R),
        # R = (Om1/2)^2 * 2 / (2 gamma12) = Om1^2/(2 gamma12)... hand-solved
        scheme = ca.LevelScheme(wavenumber_21=14647.547, wavenumber_32=15888.065,
                                lifetime_2=12.2, lifetime_3=21.0,
                                branch_2_to_1=1.0, branch_3_to_2=1.0,
                                transit_rate=1.0)
        rp = ca.rates(scheme)
        om1 = 0.5
        drive = ca.DriveParams(rabi_1=om1, rabi_2=0.0)
        rho22 = populations_batch(scheme, drive, [0.0], [0.0])[0][0]
        pump = (om1 ** 2 / 2) / rp.gamma_12
        expected = pump / (rp.Gamma_2 + scheme.transit_rate + 2 * pump)
        assert rho22 == pytest.approx(expected, rel=1e-8)

    def test_fixed_velocity_at_dip(self, case_a):
        # before Doppler averaging, rho33(Delta1) already shows the doublet
        scheme, drive, _ = case_a
        grid = np.linspace(-400.0, 400.0, 201)
        r33 = populations_batch(scheme, drive, grid, np.zeros_like(grid))[1]
        center = len(grid) // 2
        assert r33[center] < r33[center - 1] and r33[center] < r33[center + 1]
        assert r33.max() > 5 * r33[center]

    def test_singular_without_transit(self):
        scheme = ca.LevelScheme(wavenumber_21=1e4, wavenumber_32=1e4,
                                lifetime_2=10.0, lifetime_3=10.0,
                                branch_2_to_1=1.0, branch_3_to_2=1.0,
                                transit_rate=0.0)
        drive = ca.DriveParams(rabi_1=1.0, rabi_2=10.0)
        with pytest.raises(SingularSystemError):
            steady_state_batch(scheme, drive, [0.0], [0.0])


class TestPhysicality:
    def test_randomized_draws(self, case_a):
        # Hermiticity, near-positivity, trace <= 1, population balance
        rng = np.random.default_rng(20240811)
        for _ in range(1000):
            scheme = ca.LevelScheme(
                wavenumber_21=float(rng.uniform(5e3, 2e4)),
                wavenumber_32=float(rng.uniform(5e3, 2e4)),
                lifetime_2=float(rng.uniform(2.0, 80.0)),
                lifetime_3=float(rng.uniform(2.0, 80.0)),
                branch_2_to_1=float(rng.uniform(0.05, 0.95)),
                branch_3_to_2=float(rng.uniform(0.05, 0.95)),
                transit_rate=float(rng.uniform(0.05, 5.0)))
            drive = ca.DriveParams(
                rabi_1=float(rng.uniform(0.0, 200.0)),
                rabi_2=float(rng.uniform(0.0, 2000.0)),
                dir_1=1, dir_2=int(rng.choice([-1, 1])))
            rho = density_matrix(scheme, drive, float(rng.uniform(-3000, 3000)),
                                 float(rng.uniform(-3000, 3000)))
            defect = np.max(np.abs(rho - rho.conj().T)) / max(np.max(np.abs(rho)), 1e-300)
            assert defect < 1e-10
            pops = np.diag(rho).real
            for p in pops:
                assert p >= -1e-9
            trace = pops.sum()
            assert trace <= 1.0 + 1e-9
            # inflow w_t balances leaks plus transit outflow
            rp = ca.rates(scheme)
            outflow = (rp.Gamma_2 * (1 - scheme.branch_2_to_1) * pops[1]
                       + rp.Gamma_3 * (1 - scheme.branch_3_to_2) * pops[2]
                       + scheme.transit_rate * trace)
            assert outflow == pytest.approx(scheme.transit_rate, rel=1e-8)

    def test_weak_probe_quadratic_scaling(self, case_a):
        scheme, drive, _ = case_a
        rp = ca.rates(scheme)
        w_small = replace(drive, rabi_1=rp.Gamma_2 / 10)
        w_half = replace(drive, rabi_1=rp.Gamma_2 / 20)
        r1 = populations_batch(scheme, w_small, [40.0], [0.0])[1][0]
        r2 = populations_batch(scheme, w_half, [40.0], [0.0])[1][0]
        assert r1 == pytest.approx(4 * r2, rel=0.01)

    def test_branching_insensitive_extrema(self, case_a):
        # dressed-state peak positions are set by the coherent dynamics
        scheme, drive, _ = case_a
        grid = np.linspace(150.0, 250.0, 401)   # upper AT peak region
        locs = []
        for b in (0.1, 0.5, 0.9):
            sch = replace(scheme, branch_2_to_1=b, branch_3_to_2=1.0 - b)
            r33 = populations_batch(sch, drive, grid, np.zeros_like(grid))[1]
            k = int(np.argmax(r33))
            # parabolic refinement
            if 0 < k < len(grid) - 1:
                y0, y1, y2 = r33[k - 1], r33[k], r33[k + 1]
                locs.append(grid[k] + 0.25 * (y0 - y2) / (y0 - 2 * y1 + y2))
            else:
                locs.append(grid[k])
        assert max(locs) - min(locs) < 1.0


class TestFluorescence:
    """Side-fluorescence rates (I2_raw, I3_raw) = (Gamma_2 rho22, Gamma_3 rho33)."""

    GRID = np.linspace(-300.0, 300.0, 7)

    def test_zero_populations(self, case_a):
        scheme, drive, _ = case_a
        dark = replace(drive, rabi_1=0.0)
        i2, i3 = _engine_batch("full", scheme, dark, self.GRID, np.zeros_like(self.GRID))
        assert np.all(np.abs(i2) < 1e-12) and np.all(np.abs(i3) < 1e-12)

    def test_linearity(self, case_a):
        # the rates are the populations times the decay rates
        scheme, drive, _ = case_a
        rp = ca.rates(scheme)
        d2 = np.zeros_like(self.GRID)
        i2, i3 = _engine_batch("full", scheme, drive, self.GRID, d2)
        r22, r33 = populations_batch(scheme, drive, self.GRID, d2)
        assert np.allclose(i2, rp.Gamma_2 * r22, rtol=1e-12, atol=0)
        assert np.allclose(i3, rp.Gamma_3 * r33, rtol=1e-12, atol=0)

    def test_positive_on_resonance(self, case_a):
        scheme, drive, _ = case_a
        i2, i3 = _engine_batch("full", scheme, drive, [0.0], [0.0])
        assert i2[0] > 0 and i3[0] > 0


class TestVelocityPoles:
    """The pole sum of velocity_poles against the steady-state solve at the
    shifted detunings, which shares no eigensolver with it."""

    U = np.arange(-3.0, 4.0)
    GRID = np.linspace(-1500.0, 1500.0, 13)

    @staticmethod
    def setting(case, x, changes):
        scheme, drive, dopp = ca.preset(case)
        if x is not None:
            scheme, geometry = _geometry_for_x(scheme, x, drive.rabi_1)
            drive = replace(geometry, rabi_2=drive.rabi_2)
        return scheme, replace(drive, **changes), dopp

    def check_against_steady_state(self, scheme, drive, dopp):
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        lam, res, _ = velocity_poles(scheme, drive.rabi_1, self.GRID, drive.detuning_2,
                                     drive.rabi_2, alpha, beta)
        u = self.U[:, None]
        got = (res / (1 + u[..., None, None] * lam[:, None, :])).sum(axis=-1).real
        d1 = self.GRID + alpha * u
        d2 = np.broadcast_to(drive.detuning_2 + beta * u, d1.shape)
        ref = populations_batch(scheme, drive, d1.ravel(), d2.ravel())
        for k, row in enumerate(ref):
            row = row.reshape(d1.shape)
            assert np.all(np.abs(got[..., k] - row) <= 1e-10 * np.abs(row).max())

    @pytest.fixture
    def forms(self, monkeypatch):
        """The eigenbasis form each velocity_poles call takes, in order."""
        ran = []
        for form in ("slope", "schur"):
            name = f"_{form}_eigenbasis"
            original = getattr(liouville, name)

            def spy(*args, _form=form, _original=original):
                ran.append(_form)
                return _original(*args)

            monkeypatch.setattr(liouville, name, spy)
        return ran

    @pytest.mark.parametrize("case,x,changes", [
        ("case_a", None, {}),
        ("case_b", None, {}),
        ("case_a", None, {"rabi_1": 300.0}),
        ("case_a", None, {"rabi_2": 0.0}),
        ("case_a", None, {"rabi_2": 5e4}),
        # alpha + beta -> 0: the two-photon eigenvalues approach zero
        ("case_a", -1.03, {}),
    ])
    def test_pole_sum_reconstructs_populations(self, case, x, changes):
        self.check_against_steady_state(*self.setting(case, x, changes))

    @pytest.mark.parametrize("x,form", [
        # |alpha + beta| = 1e-4 |alpha|, and exactly 0 (nu_32 = nu_21)
        (-1.0001, "schur"), (-1.0, "schur"),
        # |beta| = 1e-4 |alpha|: nu_32 = 1e-4 nu_21
        (-1e4, "schur"),
        (-1.01, "slope"),
    ])
    def test_slope_rule_picks_the_form(self, x, form, forms):
        self.check_against_steady_state(*self.setting("case_a", x, {}))
        assert forms == [form]

    @pytest.mark.parametrize("case,x", [("case_a", None), ("case_b", None),
                                        ("case_a", -1.01), ("case_a", -1.03)])
    def test_both_forms_agree(self, case, x, forms, monkeypatch):
        # the Doppler-averaged pole sums, to 1e-12 of the sum of the moduli of
        # their terms
        scheme, drive, dopp = self.setting(case, x, {})
        args = (scheme, drive, self.GRID, *doppler_slopes(scheme, drive, dopp), drive.rabi_2)
        monkeypatch.setattr(liouville, "_SLOPE_RATIO", 0.0)
        slope, scale = seven_pole_sum(*args)
        monkeypatch.setattr(liouville, "_SLOPE_RATIO", math.inf)
        schur = seven_pole_sum(*args)[0]
        assert forms == ["slope", "schur"]
        assert np.all(np.abs(slope - schur) <= 1e-12 * scale)

    @pytest.mark.parametrize("slope_ratio, routine", [(0.0, "eig"), (math.inf, "eig"),
                                                      (math.inf, "solve")])
    def test_lapack_failure_is_a_solver_failure(self, case_a, monkeypatch, slope_ratio,
                                                routine):
        # either eigenbasis form (_SLOPE_RATIO 0 takes the slope form, inf
        # the Schur form's solve)
        scheme, drive, dopp = case_a
        alpha, beta = doppler_slopes(scheme, drive, dopp)
        monkeypatch.setattr(liouville, "_SLOPE_RATIO", slope_ratio)
        monkeypatch.setattr(np.linalg, routine, failing_lapack)
        with pytest.raises(SolverFailure, match="velocity pole expansion failed"):
            velocity_poles(scheme, drive.rabi_1, self.GRID, drive.detuning_2, drive.rabi_2,
                           alpha, beta)

    def test_zero_mu_is_a_singular_pencil(self):
        # N = Sigma^{-1} (R + D) with a zero eigenvalue: S is singular, and
        # the slope form refuses it as a singular solve would
        shifted = np.diag([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(SolverFailure):
            liouville._slope_eigenbasis(shifted, np.ones(6), np.ones(6))

    def test_doppler_free_geometry(self, gh200):
        # x = -1: alpha + beta = 0 exactly, the two-photon coherences have
        # lam = 0, and the Schur form carries them as constants
        scheme, drive, dopp = self.setting("case_a", -1.0, {})
        exact = doppler.intensities("full", scheme, drive, dopp, self.GRID)
        numeric = ca.average("full", scheme, drive, dopp, gh200, self.GRID)
        assert np.all(np.isfinite(exact))
        for got, ref in zip(exact, numeric):
            assert np.all(np.abs(got - ref) <= 1e-6 * ref.max())


class TestPencilParts:
    """The polynomials in w2 = pi Omega_2 of _pencil_parts against the Schur
    complement of the real-basis generator built at each Omega_2 from
    _liouvillian_parts."""

    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    @pytest.mark.parametrize("rabi_2", [0.0, 1.0, 400.0, 5e4])
    def test_polynomials_match_schur_complement(self, case, rabi_2):
        scheme, drive, _ = ca.preset(case)
        a0, coupling, _, _, source = _liouvillian_parts(scheme, drive.rabi_1)
        w2 = math.pi * rabi_2
        a = (_T_INV @ (a0 + w2 * coupling) @ _T).real
        s_p = (_T_INV @ source).real[:3]
        app, apc, acp, acc = a[:3, :3], a[:3, 3:], a[3:, :3], a[3:, 3:]
        pop = -np.linalg.solve(app, apc)
        ref = {"S": acc + acp @ pop, "q": acp @ np.linalg.solve(app, s_p), "pop": pop[1:]}
        pp = _pencil_parts(scheme, drive.rabi_1)
        got = {"S": _J_HAT @ (pp.r0 + w2 * pp.r1 + w2 ** 2 * pp.r2),
               "q": _J_HAT @ (pp.jq0 + w2 * pp.jq1), "pop": pp.p0 + w2 * pp.p1}
        for name, val in ref.items():
            assert np.max(np.abs(got[name] - val)) <= 1e-12 * np.max(np.abs(val)), name

    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_detunings_rotate_their_coherences(self, case):
        # ad1 = J_hat diag(_D1), ad2 = J_hat diag(_D2) on the coherences, and
        # neither touches the populations: B_c = J_hat Sigma
        scheme, drive, _ = ca.preset(case)
        _, _, ad1, ad2, _ = _liouvillian_parts(scheme, drive.rabi_1)
        for part, pattern in ((ad1, _D1), (ad2, _D2)):
            real = (_T_INV @ part @ _T).real
            assert np.allclose(real[3:, 3:], _J_HAT * pattern, rtol=1e-15, atol=0)
            assert not real[:3].any() and not real[:, :3].any()
