"""Domain types, unit conventions and physical presets.

Unit conventions used throughout the package:

* transition wavenumbers   cm^-1
* radiative lifetimes      ns
* every rate, Rabi frequency, detuning and linewidth  ordinary-frequency MHz
* temperature              K
* molecular mass           amu

Angular factors of 2*pi appear only inside the Bloch-equation assembly
(:mod:`cascade_at.liouville`).  Lifetimes map to population decay rates via
``Gamma_i = 1/(2*pi*tau_i)`` expressed in MHz.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

C_CM_PER_S = 2.99792458e10      # speed of light, cm/s
C_M_PER_S = 2.99792458e8        # speed of light, m/s
KB = 1.380649e-23               # Boltzmann constant, J/K
AMU = 1.66053906892e-27         # atomic mass unit, kg

_LN2 = math.log(2.0)

# Bounds on the parameters, beyond which the engines' arithmetic overflows,
# underflows or loses its digits; the dataclasses below refuse values past
# them with a ConfigError:
# * every rate, Rabi frequency, detuning and Doppler width is at most
#   MAX_RATE MHz in magnitude (100 THz, below the optical frequencies
#   themselves), the radiative rates 1/(2 pi tau) of the lifetimes and a
#   Doppler width derived from the temperature included;
# * a nonzero transit rate is at least MIN_TRANSIT_RATE MHz: it is the only
#   decay of level |1>, and as it goes to zero the full engine's velocity
#   pencil grows entries of order 1/w_t whose pole residues lose digits
#   (5 of 16 at 1e-12 MHz);
# * the mass is at least MIN_MASS amu, below the electron's 5.5e-4 amu, so
#   that m c^2 is a normal double.
MAX_RATE = 1e8
MIN_TRANSIT_RATE = 1e-3
MIN_MASS = 1e-4


def _require_finite(params) -> None:
    """Reject nan and inf in the numeric fields of a parameter dataclass."""
    for f in fields(params):
        value = getattr(params, f.name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def _require_rate(name: str, value: float) -> None:
    """Reject a rate, Rabi frequency, detuning or width beyond MAX_RATE."""
    if abs(value) > MAX_RATE:
        raise ConfigError(f"{name} must be at most {MAX_RATE:.0e} MHz in magnitude, "
                          f"got {value!r}")


@dataclass(frozen=True)
class LevelScheme:
    """The open three-level cascade |1> -> |2> -> |3>.

    ``branch_2_to_1`` / ``branch_3_to_2`` are the fractions of spontaneous
    decay that stay inside the three-level manifold; the remainder leaks to
    external levels, which is what makes the system open.  ``transit_rate``
    is the rate at which molecules leave the interaction region and are
    replaced by fresh ground-state molecules.
    """

    wavenumber_21: float        # |1>-|2> transition, cm^-1
    wavenumber_32: float        # |2>-|3> transition, cm^-1
    lifetime_2: float           # ns
    lifetime_3: float           # ns
    branch_2_to_1: float = 0.3
    branch_3_to_2: float = 0.3
    transit_rate: float = 1.0   # w_t, MHz
    j1: int = 0
    j2: int = 0
    j3: int = 0
    mass: float = 45.98         # amu

    def __post_init__(self):
        _require_finite(self)
        if self.wavenumber_21 <= 0 or self.wavenumber_32 <= 0:
            raise ConfigError("transition wavenumbers must be positive")
        if self.lifetime_2 <= 0 or self.lifetime_3 <= 0:
            raise ConfigError("lifetimes must be positive")
        for name in ("lifetime_2", "lifetime_3"):
            _require_rate(f"the radiative rate of {name}",
                          1e3 / (2 * math.pi * getattr(self, name)))
        if self.mass < MIN_MASS:
            raise ConfigError(f"mass must be at least {MIN_MASS:g} amu, got {self.mass!r}")
        for b in (self.branch_2_to_1, self.branch_3_to_2):
            if not 0.0 <= b <= 1.0:
                raise ConfigError("branching fractions must lie in [0, 1]")
        if self.transit_rate < 0:
            raise ConfigError("transit_rate must be >= 0")
        if 0 < self.transit_rate < MIN_TRANSIT_RATE:
            raise ConfigError(f"a nonzero transit_rate must be at least {MIN_TRANSIT_RATE:g} MHz, "
                              f"got {self.transit_rate!r}")
        _require_rate("transit_rate", self.transit_rate)
        open_system = self.branch_2_to_1 < 1.0 or self.branch_3_to_2 < 1.0
        if open_system and self.transit_rate == 0.0:
            raise ConfigError(
                "open system (branching < 1) needs transit_rate > 0 for a steady state")
        if any(j < 0 for j in (self.j1, self.j2, self.j3)):
            raise ConfigError("rotational quantum numbers must be >= 0")
        if abs(self.j2 - self.j1) > 1 or abs(self.j3 - self.j2) > 1:
            raise ConfigError("dipole selection rule |dJ| <= 1 violated")

    @property
    def nu_21(self) -> float:
        """Probe transition frequency, MHz."""
        return C_CM_PER_S * self.wavenumber_21 / 1e6

    @property
    def nu_32(self) -> float:
        """Coupling transition frequency, MHz."""
        return C_CM_PER_S * self.wavenumber_32 / 1e6


@dataclass(frozen=True)
class DriveParams:
    """Probe/coupling field parameters.

    Detunings follow the convention ``Delta = transition - laser`` evaluated
    in the molecular rest frame; the Doppler term ``k*v_z`` is added at
    evaluation time, with the slopes of
    :func:`cascade_at.lineshape.doppler_slopes`.
    ``dir_1``/``dir_2`` are the signed propagation directions along z.
    """

    rabi_1: float               # Omega_1, MHz
    rabi_2: float               # Omega_2, MHz
    detuning_1: float = 0.0     # Delta_1^0, MHz
    detuning_2: float = 0.0     # Delta_2^0, MHz
    dir_1: int = 1
    dir_2: int = -1

    def __post_init__(self):
        _require_finite(self)
        if self.rabi_1 < 0 or self.rabi_2 < 0:
            raise ConfigError("Rabi frequencies must be >= 0")
        for name in ("rabi_1", "rabi_2", "detuning_1", "detuning_2"):
            _require_rate(name, getattr(self, name))
        if self.dir_1 not in (-1, 1) or self.dir_2 not in (-1, 1):
            raise ConfigError("propagation directions must be +1 or -1")


@dataclass(frozen=True)
class DopplerParams:
    """Inhomogeneous broadening, given either as a temperature or directly
    as the probe-transition Gaussian FWHM (MHz).  ``fwhm = 0`` selects the
    homogeneous single-velocity limit."""

    temperature: float | None = None
    fwhm: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if (self.temperature is None) == (self.fwhm is None):
            raise ConfigError("give exactly one of temperature or fwhm")
        if self.temperature is not None and self.temperature <= 0:
            raise ConfigError("temperature must be > 0")
        if self.fwhm is not None and self.fwhm < 0:
            raise ConfigError("fwhm must be >= 0")
        if self.fwhm is not None:
            _require_rate("fwhm", self.fwhm)

    def fwhm_mhz(self, scheme: LevelScheme) -> float:
        """Doppler FWHM of the probe transition, MHz."""
        if self.fwhm is not None:
            return self.fwhm
        return doppler_fwhm(scheme, self.temperature)


@dataclass(frozen=True)
class RateParams:
    """Population and coherence decay rates derived from a LevelScheme.

    Coherence rates are the half-sums of the radiative widths plus the
    transit rate on every off-diagonal element: transit removes molecules
    from all levels alike, so each coherence loses w_t on top of the
    radiative average.  This is the completely positive (Lindblad)
    assignment; anything smaller can drive populations negative under
    strong fields.
    """

    Gamma_2: float
    Gamma_3: float
    gamma_12: float
    gamma_13: float
    gamma_23: float


def rates(scheme: LevelScheme) -> RateParams:
    """Map lifetimes and the transit rate to decay rates, all MHz."""
    G2 = 1e3 / (2 * math.pi * scheme.lifetime_2)
    G3 = 1e3 / (2 * math.pi * scheme.lifetime_3)
    wt = scheme.transit_rate
    return RateParams(
        Gamma_2=G2,
        Gamma_3=G3,
        gamma_12=G2 / 2 + wt,
        gamma_13=G3 / 2 + wt,
        gamma_23=(G2 + G3) / 2 + wt,
    )


def doppler_fwhm(scheme: LevelScheme, temperature: float) -> float:
    """Gaussian Doppler FWHM of the probe transition at the given
    temperature, MHz: ``nu_1 * sqrt(8 ln2 kT / (m c^2))``."""
    if temperature < 0:
        raise ConfigError("temperature must be >= 0")
    if temperature == 0:
        return 0.0
    mc2 = scheme.mass * AMU * C_M_PER_S**2
    fwhm = scheme.nu_21 * math.sqrt(8 * _LN2 * KB * temperature / mc2)
    _require_rate(f"the Doppler width at {temperature!r} K", fwhm)
    return fwhm


def most_probable_speed(scheme: LevelScheme, dopp: DopplerParams) -> float:
    """Velocity scale v_p (m/s) of the Gaussian distribution, referenced to
    the probe-transition FWHM: ``v_p = fwhm * c / (2 sqrt(ln2) nu_1)``."""
    fw = dopp.fwhm_mhz(scheme)
    return fw * C_M_PER_S / (2 * math.sqrt(_LN2) * scheme.nu_21)


def wavenumber_ratio(scheme: LevelScheme, drive: DriveParams) -> float:
    """Signed probe/coupling wavenumber ratio x = (s1 k1)/(s2 k2);
    positive for co-propagating beams, negative for counter-propagating."""
    return (drive.dir_1 * scheme.wavenumber_21) / (drive.dir_2 * scheme.wavenumber_32)


def preset(case_id: str) -> tuple[LevelScheme, DriveParams, DopplerParams]:
    """Parameter sets for the two bundled Na2 cascade experiments.

    ``case_a``: |k1/k2| < 1, counter-propagating, resonant coupling; the
    upper-level fluorescence shows resolved AT splitting.
    ``case_b``: |k1/k2| > 1, counter-propagating, coupling 60 MHz off
    resonance; the splitting is not resolved at the same field strength.
    """
    if case_id == "case_a":
        scheme = LevelScheme(
            wavenumber_21=14647.547, wavenumber_32=15888.065,
            lifetime_2=12.2, lifetime_3=21.0,
            j1=19, j2=20, j3=19, mass=45.98)
        drive = DriveParams(rabi_1=6.0, rabi_2=400.0,
                            detuning_1=0.0, detuning_2=0.0, dir_1=1, dir_2=-1)
        dopp = DopplerParams(temperature=625.0)
        return scheme, drive, dopp
    if case_id == "case_b":
        scheme = LevelScheme(
            wavenumber_21=14828.639, wavenumber_32=13284.554,
            lifetime_2=12.2, lifetime_3=12.7,
            j1=19, j2=18, j3=17, mass=45.98)
        drive = DriveParams(rabi_1=36.0, rabi_2=530.0,
                            detuning_1=0.0, detuning_2=60.0, dir_1=1, dir_2=-1)
        dopp = DopplerParams(temperature=625.0)
        return scheme, drive, dopp
    raise ConfigError(f"unknown preset case {case_id!r}")

