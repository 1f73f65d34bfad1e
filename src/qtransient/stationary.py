"""Continuous-wave scattering off the rectangular barrier.

Conventions: unit-amplitude incidence exp(ikx) from the left, transmitted
wave T exp(ikx) for x > L, reflected wave R exp(-ikx) for x < 0.  Inside the
barrier the solution is A exp(iqx) + B exp(-iqx) with q = sqrt(k^2 - 2mV/hbar^2);
for E < V this is evaluated with decaying real exponentials (q = i kappa), so
large opacities stay well conditioned.

All amplitude formulas are even functions of the sqrt branch of q, so they
extend directly to complex k (needed for T(-k) and for the resonance poles of
the transmission denominator).
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import XOutOfRange, ZeroWavenumber
from .systems import HBAR_EV_FS, BarrierSystem, make_system

DELAY_REL_STEP = 1e-6   # energy step of phase_time_delay, relative to E


def _q_of_k(k, v):
    """Internal wavenumber sqrt(k^2 - v); branch is immaterial downstream."""
    return np.sqrt(np.asarray(k, dtype=complex) ** 2 - v)


def pole_function(k, sys: BarrierSystem):
    """G(k) = D(k)/q(k): entire in k, zero exactly at the resonance poles.

    D(k) = (k+q)^2 e^{-iqL} - (k-q)^2 e^{iqL} is the transmission
    denominator.  D is odd under q -> -q, so D itself is branch dependent;
    G is even in q and single valued in k.
    """
    k = np.asarray(k, dtype=complex)
    q = _q_of_k(k, sys.v_strength)
    t_minus = (k + q) ** 2 * np.exp(-1j * q * sys.L)
    t_plus = (k - q) ** 2 * np.exp(1j * q * sys.L)
    small = np.abs(q) < 1e-8
    if np.any(small):
        # removable point q ~ 0: G = 4k - 2i(L k^2 + ...) + O(q^2); expand
        g = np.empty(q.shape, dtype=complex)
        g[~small] = (t_minus[~small] - t_plus[~small]) / q[~small]
        ks = k[small]
        L = sys.L
        # series of D/q in q^2 around q=0
        qs = q[small] ** 2
        g[small] = (4 * ks - 2j * L * ks**2
                    + qs * (-2j * L - 2 * L**2 * ks + 1j * L**3 * ks**2 / 3))
    else:
        g = (t_minus - t_plus) / q
    return g


def transmission(k, sys: BarrierSystem):
    """Transmission amplitude T(k); accepts complex k (and arrays)."""
    k_arr = np.asarray(k, dtype=complex)
    if np.any(k_arr == 0):
        raise ZeroWavenumber("transmission undefined at k = 0")
    t = 4 * k_arr * np.exp(-1j * k_arr * sys.L) / pole_function(k_arr, sys)
    return t if t.shape else complex(t)


def reflection(k, sys: BarrierSystem):
    """Reflection amplitude R(k) = -2i v sin(qL) / D(k)."""
    k_arr = np.asarray(k, dtype=complex)
    if np.any(k_arr == 0):
        raise ZeroWavenumber("reflection undefined at k = 0")
    v = sys.v_strength
    q = _q_of_k(k_arr, sys.v_strength)
    # sin(qL)/q is even in q; pair it with G = D/q
    r = -2j * v * np.sinc(q * sys.L / np.pi) * sys.L / pole_function(k_arr, sys)
    return r if r.shape else complex(r)


def phi_stationary(x, k, sys: BarrierSystem):
    """Internal stationary wavefunction Phi_k(x) on 0 <= x <= L.

    Matched so that Phi_k(0) = 1 + R_k and Phi_k(L) = T_k exp(ikL).  Accepts
    complex k; x and k may be arrays, which broadcast.  Exponentials are
    organized around x - L so that for E < V every magnitude is bounded by
    the dominant barrier scale.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any((x_arr < 0) | (x_arr > sys.L * (1 + 1e-12))):
        raise XOutOfRange("phi_stationary requires 0 <= x <= L")
    k_c = np.asarray(k, dtype=complex)
    q = _q_of_k(k_c, sys.v_strength)
    t = transmission(k_c, sys)
    pref = t * np.exp(1j * k_c * sys.L) / (2 * q)
    val = pref * ((q + k_c) * np.exp(1j * q * (x_arr - sys.L))
                  + (q - k_c) * np.exp(-1j * q * (x_arr - sys.L)))
    return val if val.shape else complex(val)


def phase_time_delay(sys: BarrierSystem):
    """Transmission phase delay hbar d(arg T)/dE in fs, by central difference.

    The difference is taken on the angle of the ratio T(E+dE)/T(E-dE), which
    is immune to 2 pi wraps of the individual phases.  Negative values mark
    the opacity regime in which a transient density maximum can form at the
    barrier edge before the monotone filling sets in.
    """
    dE = DELAY_REL_STEP * sys.E
    lo = make_system(sys.V, sys.E - dE, sys.L, sys.mass_ratio)
    hi = make_system(sys.V, sys.E + dE, sys.L, sys.mass_ratio)
    ratio = transmission(hi.k, hi) / transmission(lo.k, lo)
    return HBAR_EV_FS * cmath.phase(ratio) / (2.0 * dE)
