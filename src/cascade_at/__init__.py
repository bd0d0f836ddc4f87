"""Doppler-averaged fluorescence lineshapes and Autler-Townes splitting
thresholds for an open three-level molecular cascade.

The names of the engine modules (:mod:`~cascade_at.doppler`,
:mod:`~cascade_at.faddeeva`, :mod:`~cascade_at.lineshape`,
:mod:`~cascade_at.msublevel` and :mod:`~cascade_at.threshold`) resolve on
first access, which imports numpy and that module: importing the package
loads only the numpy-free :mod:`~cascade_at.errors` and
:mod:`~cascade_at.model`.
"""

import importlib

from .errors import (CascadeError, ConfigError, DegenerateRootError, DomainError,
                     NumericalError, SelectionRuleError, SingularSystemError,
                     SolverFailure)
from .model import (DopplerParams, DriveParams, LevelScheme, RateParams,
                    doppler_fwhm, most_probable_speed, preset, rates,
                    wavenumber_ratio)

__version__ = "0.1.0"

__all__ = [
    "CascadeDenominator", "CascadeError", "ConfigError", "DegenerateRootError",
    "DomainError", "DopplerParams", "DriveParams", "LevelScheme",
    "MSublevelWeights", "NumericalError", "QuadratureRule", "RateParams",
    "SelectionRuleError", "SingularSystemError", "SolverFailure", "ThresholdMap",
    "ThresholdResult", "average", "curvature_at_zero", "denominator_coefficients",
    "doppler_fwhm", "intensities", "m_summed", "most_probable_speed", "preset", "rates",
    "root_difference_closed_form", "threshold_curve", "threshold_rabi",
    "threshold_surface", "w", "w_reference", "wavenumber_ratio", "weights",
]

# exported name -> the engine module that defines it
_ENGINE_NAMES = {
    **dict.fromkeys(("QuadratureRule", "average", "intensities",
                     "root_difference_closed_form"), "doppler"),
    **dict.fromkeys(("w", "w_reference"), "faddeeva"),
    **dict.fromkeys(("CascadeDenominator", "denominator_coefficients"), "lineshape"),
    **dict.fromkeys(("MSublevelWeights", "m_summed", "weights"), "msublevel"),
    **dict.fromkeys(("ThresholdMap", "ThresholdResult", "curvature_at_zero",
                     "threshold_curve", "threshold_rabi", "threshold_surface"),
                    "threshold"),
}


def __getattr__(name):
    # not cached in the package namespace: each access reads the module's
    # current binding, so a name that is rebound there (as the benchmark's
    # span tracer does while it runs) is never held here after it is restored
    if name not in _ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_ENGINE_NAMES[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_ENGINE_NAMES})
