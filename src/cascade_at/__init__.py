"""Doppler-averaged fluorescence lineshapes and Autler-Townes splitting
thresholds for an open three-level molecular cascade."""

from .doppler import QuadratureRule, average, intensities, root_difference_closed_form
from .errors import (CascadeError, ConfigError, DegenerateRootError, DomainError,
                     NumericalError, SelectionRuleError, SingularSystemError,
                     SolverFailure)
from .faddeeva import w, w_reference
from .lineshape import CascadeDenominator, denominator_coefficients
from .model import (DopplerParams, DriveParams, LevelScheme, RateParams,
                    doppler_fwhm, most_probable_speed, preset, rates,
                    wavenumber_ratio)
from .msublevel import MSublevelWeights, m_summed, weights
from .threshold import (ThresholdMap, ThresholdResult, curvature_at_zero,
                        threshold_curve, threshold_rabi, threshold_surface)

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
