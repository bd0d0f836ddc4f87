import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cascade_at as ca
from cascade_at.errors import DomainError

SQRTPI = math.sqrt(math.pi)


class TestValues:
    def test_w_at_zero(self):
        assert ca.w(0) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_w_at_2i(self):
        # e^4 erfc(2), purely real on the imaginary axis
        val = ca.w(2j)
        ref = ca.w_reference(2j)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val == pytest.approx(ref, rel=1e-9)
        assert val.real == pytest.approx(0.255396, abs=1e-6)

    def test_w_at_2(self):
        val = ca.w(2.0 + 0.0j)
        assert val.real == pytest.approx(math.exp(-4.0), rel=1e-12)
        assert val.imag == pytest.approx(0.340026, abs=1e-6)
        ref = ca.w_reference(2.0 + 0.0j)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ca.w(2e8 + 1j)
        with pytest.raises(DomainError):
            ca.w(complex(math.nan, 0.0))


class TestReference:
    def test_reference_at_zero(self):
        assert ca.w_reference(0) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    @pytest.mark.parametrize("y", [0.3, 1.0, 2.0, 7.5, 20.0])
    def test_reference_imag_axis_real(self, y):
        val = ca.w_reference(1j * y)
        assert abs(val.imag) < 1e-10 * abs(val)

    def test_reference_asymptotic(self):
        z = 10.0 + 10.0j
        lead = 1j / (SQRTPI * z)
        assert abs(ca.w_reference(z) - lead) / abs(lead) < 0.01


class TestIdentities:
    @given(st.floats(-8, 8), st.floats(-8, 8))
    @settings(max_examples=200, deadline=None)
    def test_mirror_symmetry(self, x, y):
        z = complex(x, y)
        a = ca.w(-z.conjugate())
        b = ca.w(z).conjugate()
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    def test_mirror_symmetry_bulk(self):
        # 10^4 random points over both half-planes
        rng = np.random.default_rng(424242)
        zs = rng.uniform(-12, 12, 10000) + 1j * rng.uniform(-10, 10, 10000)
        for z in zs:
            a = ca.w(-z.conjugate())
            b = ca.w(complex(z)).conjugate()
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    @given(st.floats(-6, 6), st.floats(-6, 6))
    @settings(max_examples=200, deadline=None)
    def test_reflection_sum(self, x, y):
        z = complex(x, y)
        lhs = ca.w(z) + ca.w(-z)
        rhs = 2 * cmath.exp(-z * z)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-30) + 1e-14

    @pytest.mark.parametrize("x", [0.1, 0.9, 2.3, 3.8, 5.1, 6.6, 9.0])
    def test_real_axis_real_part(self, x):
        val = ca.w(complex(x, 0.0))
        assert val.real == pytest.approx(math.exp(-x * x), rel=1e-8)
        assert ca.w(complex(-x, 0.0)).real == pytest.approx(math.exp(-x * x), rel=1e-8)

    def test_asymptotic_large_z(self):
        for z in (1e4 + 0j, 1e4 * cmath.exp(0.4j), 1e4j):
            assert abs(z * ca.w(z) * SQRTPI - 1j) < 1e-3


def conformance_grid():
    radii = np.geomspace(1e-2, 15, 12)
    angles = np.linspace(-math.pi + 0.05, math.pi - 0.05, 17)
    return [r * cmath.exp(1j * th) for r in radii for th in angles]


class TestConformance:
    def test_against_reference_grid(self):
        # small version of the acceptance sweep: both half-planes
        worst = 0.0
        for z in conformance_grid():
            ref = ca.w_reference(z)
            worst = max(worst, abs(ca.w(z) - ref) / abs(ref))
        assert worst <= 1e-6

    def test_array_matches_scalar(self):
        zs = np.array(conformance_grid()).reshape(12, 17)
        vals = ca.w(zs)
        assert vals.shape == zs.shape
        for z, val in zip(zs.ravel(), vals.ravel()):
            scalar = ca.w(complex(z))
            assert type(scalar) is complex
            assert scalar == val

    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, math.nan),
                                     2e8 + 0j, -1e8 - 1e3j])
    def test_array_domain_error(self, bad):
        with pytest.raises(DomainError):
            ca.w(np.array([0.5 + 0.5j, bad, 1.0]))

    def test_region_boundaries_consistent(self):
        # w must be continuous across the circles |z| = 3.5 and |z| = 6
        for r in (3.5, 6.0):
            for th in (0.2, 1.0, 2.5):
                z_in = (r - 1e-9) * cmath.exp(1j * th)
                z_out = (r + 1e-9) * cmath.exp(1j * th)
                assert ca.w(z_in) == pytest.approx(ca.w(z_out), rel=1e-7)
