import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cascade_at as ca
from cascade_at.errors import SelectionRuleError
from cascade_at.msublevel import m_summed, weights


class TestWeights:
    def test_p_branch_j1_to_0(self):
        w = weights(1, 0)
        assert len(w) == 1
        assert w.entries == ((0, 1.0),)

    def test_q_branch_j1(self):
        w = weights(1, 1)
        got = dict(w.entries)
        assert got == {-1: 1.0, 0: 0.0, 1: 1.0}

    def test_case_a_p_branch(self):
        w = weights(20, 19)
        assert len(w) == 39
        vals = dict(w.entries)
        assert all(vals[m] == vals[-m] for m in range(20))
        assert all(v > 0 for v in vals.values())
        assert max(vals.values()) == 1.0
        # sqrt(J_max^2 - M^2) pattern
        assert vals[19] == pytest.approx(np.sqrt(400 - 361) / 20, rel=1e-12)

    def test_r_branch_matches_mirror(self):
        # 19 -> 20 and 20 -> 19 share the same direction-cosine pattern
        up = dict(weights(19, 20).entries)
        down = dict(weights(20, 19).entries)
        assert up == down

    def test_selection_rule_violation(self):
        with pytest.raises(SelectionRuleError):
            weights(5, 3)

    def test_q_zero_forbidden(self):
        with pytest.raises(SelectionRuleError):
            weights(0, 0)

    @given(st.integers(1, 40), st.integers(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_mirror_symmetry_property(self, j2, dj):
        j3 = j2 + dj
        if j3 < 0 or (j2 == 0 and j3 == 0):
            return
        try:
            vals = dict(weights(j2, j3).entries)
        except SelectionRuleError:
            return
        assert all(vals[m] == pytest.approx(vals[-m], rel=1e-13) for m in vals)


class TestMSum:
    def test_single_unit_weight_is_identity(self, case_a):
        scheme, drive, dopp = case_a
        wts = ca.MSublevelWeights(entries=((0, 1.0),))
        grid = np.linspace(-300, 300, 7)
        plain = ca.intensities("analytic", scheme, drive, dopp, grid)[1]
        summed = m_summed(
            lambda d: ca.intensities("analytic", scheme, d, dopp, grid)[1],
            wts, drive)
        assert np.array_equal(plain, summed)

    def test_equal_weights_scale(self, case_a):
        scheme, drive, dopp = case_a
        wts = ca.MSublevelWeights(entries=((-1, 1.0), (0, 1.0), (1, 1.0)))
        grid = np.array([0.0, 150.0])
        plain = ca.intensities("analytic", scheme, drive, dopp, grid)[1]
        summed = m_summed(
            lambda d: ca.intensities("analytic", scheme, d, dopp, grid)[1],
            wts, drive)
        assert np.allclose(summed, 3 * plain, rtol=1e-14)

    def test_zero_weight_contributes_no_coupling_value(self, case_a):
        scheme, drive, dopp = case_a
        from dataclasses import replace
        wts = ca.MSublevelWeights(entries=((0, 0.0),))
        grid = np.array([25.0])
        summed = m_summed(
            lambda d: ca.intensities("analytic", scheme, d, dopp, grid)[0],
            wts, drive)
        direct = ca.intensities("analytic", scheme, replace(drive, rabi_2=0.0),
                                dopp, grid)[0]
        assert summed == pytest.approx(direct, rel=1e-14)

    def test_commutes_with_velocity_average(self, case_a, gh200):
        # summing then averaging equals averaging then summing
        scheme, drive, dopp = case_a
        wts = weights(scheme.j2, scheme.j3)
        grid = np.array([0.0, 90.0, 333.0])

        def spectrum_op(d):
            return ca.average("perturbative", scheme, d, dopp, gh200, grid)[1]

        sum_of_avgs = m_summed(spectrum_op, wts, drive)
        # same thing assembled from scalar evaluations per grid point
        pointwise = np.array([
            m_summed(lambda d, dd1=d1: ca.average(
                "perturbative", scheme, d, dopp, gh200,
                np.array([dd1]))[1][0], wts, drive)
            for d1 in grid])
        assert np.max(np.abs(sum_of_avgs - pointwise) / pointwise) < 1e-10

    def test_msum_shallows_case_a_dip(self, case_a, gh200):
        # weaker M components partially fill the central minimum
        scheme, drive, dopp = case_a
        grid = np.linspace(-300, 300, 121)
        wts = weights(scheme.j2, scheme.j3)
        plain = ca.intensities("analytic", scheme, drive, dopp, grid)[1]
        summed = m_summed(
            lambda d: ca.intensities("analytic", scheme, d, dopp, grid)[1],
            wts, drive)
        center = len(grid) // 2
        # both spectra keep the central minimum, but the M-summed dip is
        # shallower relative to its own peak
        assert summed[center] < summed[center - 1]
        assert plain[center] < plain[center - 1]
        assert summed[center] / summed.max() > plain[center] / plain.max()
