"""The Moshinsky function: diffraction-in-time kernel of the free shutter.

For a wavenumber q (possibly complex) released at x = 0 at t = 0,

    M(x, q, t) = (1/2) exp(i hbar x^2 / (4 c2 t)) w(i y),
    y(x, q, t) = e^{-i pi/4} sqrt(hbar / (4 c2 t)) (x - (2 c2 / hbar) q t),

with w the Faddeeva function and c2 = hbar^2/2m.  M solves the free
Schroedinger equation in (x, t) and tends to exp(i q x - i (c2/hbar) q^2 t)
(for q in the propagating region) or to 0 as its argument runs off to the
complementary sector.

The time derivative is taken analytically through w'(z) = -2 z w + 2i/sqrt(pi),
reusing the single Faddeeva evaluation, so M and dM/dt together cost one w.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NonPositiveTime
from .faddeeva import faddeeva, faddeeva_dz
from .systems import HBAR_EV_FS as HBAR

_E4 = cmath.exp(-1j * math.pi / 4)


def moshinsky_m(x, q, t, c2):
    """M(x, q, t); scalar in, scalar out, or broadcast numpy arrays."""
    m, _ = moshinsky_m_dt(x, q, t, c2)
    return m


def moshinsky_m_dt(x, q, t, c2):
    """(M, dM/dt) with the derivative evaluated analytically.

    dM/dt = (1/2) e^{i a^2/t} [ -i (a^2/t^2) w(iy) + w'(iy) i dy/dt ],
    a = x sqrt(hbar/4 c2),  dy/dt = -e^{-i pi/4} (a t^{-3/2} + b t^{-1/2}) / 2.

    A scalar x = 0, where the phase is 1 and every a-term is 0, skips them
    and gives bitwise what the general form gives.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0):
        raise NonPositiveTime("Moshinsky function needs t > 0")
    scalar = (np.ndim(x) == 0 and np.ndim(q) == 0 and t_arr.ndim == 0)
    b = np.asarray(q, dtype=complex) * math.sqrt(c2 / HBAR)
    sqrt_t = np.sqrt(t_arr)
    if np.ndim(x) == 0 and x == 0.0:
        # the signed zeros are those the a-terms leave
        y = _E4 * (0.0 - b * sqrt_t)
        w = faddeeva(1j * y)
        dy_dt = _E4 * (-0.0 - 0.5 * b / sqrt_t)
        dw = faddeeva_dz(1j * y, np.asarray(w))
        m, dm = 0.5 * w, 0.5 * (dw * 1j * dy_dt)
    else:
        a = np.asarray(x, dtype=float) * math.sqrt(HBAR / (4.0 * c2))
        y = _E4 * (a / sqrt_t - b * sqrt_t)
        w = faddeeva(1j * y)
        phase = np.exp(1j * a * a / t_arr)
        m = 0.5 * phase * w
        dy_dt = _E4 * (-0.5 * a / (sqrt_t * t_arr) - 0.5 * b / sqrt_t)
        dw = faddeeva_dz(1j * y, np.asarray(w))
        dm = 0.5 * phase * ((-1j * a * a / (t_arr * t_arr)) * np.asarray(w)
                            + dw * 1j * dy_dt)
    if scalar:
        return complex(m), complex(dm)
    return m, dm
