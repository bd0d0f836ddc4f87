"""The Faddeeva function w(z) = exp(-z^2) erfc(-iz).

``w`` is the production evaluator: ``scipy.special.wofz`` (the Faddeeva
package, after Poppe & Wijers and Weideman) behind a domain check, over a
scalar or a whole array of arguments.

``w_reference`` is the slow, test-only oracle: adaptive numerical
quadrature of the defining integral, with the reflection identity
``w(z) = 2 exp(-z^2) - w(-z)`` below the real axis.  It shares no code
with ``w``.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, NumericalError

_SQRTPI = math.sqrt(math.pi)

_MAX_ABS = 1e8
# relative tolerance of w_reference's quadratures
_REFERENCE_RTOL = 1e-11


def w(z):
    """Evaluate the Faddeeva function for ``|z| <= 1e8``, either half-plane.

    Takes a scalar or an array; a scalar gives a Python ``complex``.  Raises
    :class:`DomainError` if any element is non-finite or beyond the domain.
    """
    # imported here so that commands which never evaluate w do not pay for
    # loading scipy.special
    from scipy.special import wofz

    arr = np.asarray(z, dtype=complex)
    modulus = np.abs(arr)
    # one comparison in the common case: nan and inf fail it too (counted,
    # which costs less per call than ndarray.all)
    if np.count_nonzero(modulus <= _MAX_ABS) < modulus.size:
        if not np.isfinite(arr).all():
            raise DomainError("w(z) requires finite z")
        raise DomainError(
            f"|z| = {modulus.max():.3g} outside supported domain (<= {_MAX_ABS:.0e})")
    val = wofz(arr)
    return complex(val) if val.ndim == 0 else val


def w_reference(z: complex) -> complex:
    """Brute-force oracle: adaptive quadrature of
    ``w(z) = (i/pi) * Integral e^{-t^2}/(z - t) dt`` for Im z > 0, to
    ``_REFERENCE_RTOL`` relative, the reflection identity below the axis,
    and a direct Dawson-integral construction on the real axis.  Slow; test
    use only."""
    import warnings

    from scipy.integrate import IntegrationWarning, quad

    z = complex(z)
    if abs(z) > 50:
        raise DomainError("w_reference supports |z| <= 50")
    if z.imag < 0.0:
        return 2.0 * cmath.exp(-z * z) - w_reference(-z)
    if z.imag == 0.0:
        x = z.real
        # w(x) = exp(-x^2) + (2i/sqrt(pi)) * exp(-x^2) * int_0^x exp(t^2) dt
        if x == 0.0:
            return 1.0 + 0.0j
        dawson, err = quad(lambda t: math.exp(t * t - x * x), 0.0, abs(x),
                           epsabs=1e-300, epsrel=1e-13, limit=400)
        if err > max(1e-13 * abs(dawson), 1e-250):
            raise NumericalError("Dawson-integral quadrature did not converge")
        dawson = math.copysign(dawson, x)
        return complex(math.exp(-x * x), 2.0 / _SQRTPI * dawson)

    # w = (i/pi) Int e^{-t^2}/(z - t) dt
    #   = (1/pi) Int e^{-t^2} [y + i (x0 - t)] / ((t - x0)^2 + y^2) dt.
    # The window |t - x0| < 50 y is integrated in the stretched variable
    # t = x0 + y s, which removes the near-axis spike exactly; the smooth
    # Lorentzian tails outside are integrated over the Gaussian support.
    x0, y = z.real, z.imag
    acc = dict(epsabs=1e-300, epsrel=_REFERENCE_RTOL, limit=500)

    def gauss(t):
        return math.exp(-min(t * t, 745.0))

    def outer_re(t):
        return y * gauss(t) / ((t - x0) ** 2 + y * y)

    def outer_im(t):
        return (x0 - t) * gauss(t) / ((t - x0) ** 2 + y * y)

    def mid_re(s):
        return gauss(x0 + y * s) / (1.0 + s * s)

    def mid_im(s):
        return -s * gauss(x0 + y * s) / (1.0 + s * s)

    half_window = 50.0
    lo, hi = x0 - half_window * y, x0 + half_window * y
    # the Gaussian bump sits at s = -x0/y in the stretched variable
    bump = sorted({max(-49.0, min(49.0, -x0 / y)), 0.0})
    with warnings.catch_warnings():
        # accuracy is enforced by the explicit error-sum check below
        warnings.simplefilter("ignore", IntegrationWarning)
        re_val, re_err = quad(mid_re, -half_window, half_window, points=bump, **acc)
        im_val, im_err = quad(mid_im, -half_window, half_window, points=bump, **acc)
        support = 9.0
        if lo > -support:
            v, e = quad(outer_re, -support, lo, **acc)
            re_val += v
            re_err += e
            v, e = quad(outer_im, -support, lo, **acc)
            im_val += v
            im_err += e
        if hi < support:
            v, e = quad(outer_re, hi, support, **acc)
            re_val += v
            re_err += e
            v, e = quad(outer_im, hi, support, **acc)
            im_val += v
            im_err += e
    val = complex(re_val / math.pi, im_val / math.pi)
    tol = max(_REFERENCE_RTOL * abs(val) * 100, 1e-200)
    if re_err + im_err > tol:
        raise NumericalError("Faddeeva reference quadrature did not converge")
    return val
