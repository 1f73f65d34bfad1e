"""The Faddeeva function w(z) = exp(-z^2) erfc(-iz), vectorized over numpy arrays.

`faddeeva` is scipy.special.wofz (S. G. Johnson's Faddeeva package) behind
two range checks:

* non-finite input raises NonFiniteInput;
* in the lower half-plane w(z) = 2 exp(-z^2) - w(-z) grows like exp(-z^2);
  where that factor overflows the double range (Im^2 z - Re^2 z > 705)
  OverflowRange is raised, because wofz would silently return an infinity.

The algorithms behind the library kernel: G. P. M. Poppe and C. M. J.
Wijers, ACM Trans. Math. Softw. 16, 38 (1990); J. A. C. Weideman, SIAM J.
Numer. Anal. 31, 1497 (1994).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import wofz

from .errors import NonFiniteInput, OverflowRange

_EXP_ARG_MAX = 705.0  # just under log(DBL_MAX)

_TWO_ISQRTPI = 2j / math.sqrt(math.pi)


def faddeeva(z):
    """Evaluate w(z) = exp(-z^2) erfc(-iz) for finite complex z.

    Accepts a scalar or any numpy array; returns the same shape.  Relative
    accuracy is ~1e-14 over the plane (away from the isolated zeros of w in
    the lower half-plane, where relative error is meaningless).
    """
    z_arr = np.asarray(z, dtype=complex)
    if not np.isfinite(z_arr).all():
        raise NonFiniteInput("faddeeva requires finite input")
    re, im = z_arr.real, z_arr.imag
    if np.any((im < 0.0) & (im * im - re * re > _EXP_ARG_MAX)):
        raise OverflowRange("exp(-z^2) exceeds double range in lower half-plane")
    w = wofz(z_arr)
    return complex(w) if z_arr.ndim == 0 else w


def faddeeva_dz(z, w=None):
    """dw/dz = -2 z w(z) + 2i/sqrt(pi); pass w to reuse an evaluation."""
    if w is None:
        w = faddeeva(z)
    return -2.0 * np.asarray(z, dtype=complex) * w + _TWO_ISQRTPI
