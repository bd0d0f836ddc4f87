"""The public names of cascade_at and the one result of every Doppler
average: I2 and I3 as a leading axis of two, I2 first."""
import numpy as np
import pytest

import cascade_at as ca
from cascade_at import doppler

GRID = np.linspace(-600.0, 600.0, 6).reshape(2, 3)


def test_every_exported_name_resolves():
    missing = [name for name in ca.__all__ if not hasattr(ca, name)]
    assert ca.__all__ and not missing
    # the engine names resolve on first access, and dir() lists them before it
    assert set(ca.__all__) <= set(dir(ca))


def test_intensities_is_the_entry_point():
    assert ca.intensities is doppler.intensities
    assert "intensities" in ca.__all__
    # one call under two names stays in doppler only, for the benchmark tracer
    for name in ("average_analytic_I2", "average_analytic_I3", "Spectrum"):
        assert name not in ca.__all__ and not hasattr(ca, name)
    assert callable(doppler.average_analytic_I2) and callable(doppler.average_analytic_I3)


@pytest.mark.parametrize("call", ["average", "intensities", "average_analytic_I3"])
def test_two_rows_before_the_grid_shape(case_a, gh200, call):
    scheme, drive, dopp = case_a
    if call == "average":
        got = ca.average("perturbative", scheme, drive, dopp, gh200, GRID)
    elif call == "intensities":
        got = ca.intensities("analytic", scheme, drive, dopp, GRID)
    else:
        got = doppler.average_analytic_I3(scheme, drive, dopp, GRID)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == (2,) + GRID.shape


def test_analytic_names_are_intensities(case_a):
    expected = ca.intensities("analytic", *case_a, GRID).tobytes()
    for name in ("average_analytic_I2", "average_analytic_I3"):
        assert getattr(doppler, name)(*case_a, GRID).tobytes() == expected
