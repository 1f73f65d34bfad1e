"""Time-frequency diagnostics of the transient wave.

For a wave Psi(t) at fixed position, the logarithmic derivative splits into

    d/dt log Psi = d/dt log|Psi| + i d/dt arg Psi,

so the instantaneous frequency carried by the signal is

    omega_av(t) = -Im[ (dPsi/dt) / Psi ]        (1/fs)

and the magnitude of the real part,

    sigma(t) = | Re[ (dPsi/dt) / Psi ] |,

measures how fast the envelope is changing -- it vanishes exactly where
|Psi| peaks.  The signed real part is analytic in t, so a Chebyshev
interpolant of it through a few times around a coarse maximum puts its
zero, the transient maximum ("time-domain resonance"), at the pole-sum
tolerance.  The coarse scan that brackets it stops at the first maximum it
closes.  A forerunner is classified as under the barrier when
omega_av < omega_V = V/hbar at its peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebpts2

from .errors import AmplitudeUnderflow, NotConverged, WindowTooNarrow
from .propagator import DEFAULT_TOL, check_tol, check_x, pole_cache, trace
from .stationary import phi_stationary, transmission
from .systems import BarrierSystem, HBAR_EV_FS as HBAR

_AMP_FLOOR = 1e-150
PEAK_SCAN = 1200      # coarse time points of a peak search
SCAN_TOL = 1e-6       # the scan only brackets the peak; polish keeps tol
HEIGHT_FLOOR = 1e-6   # least peak density, relative to the long-time plateau
POLISH_NODES = 16     # Chebyshev-Lobatto times of the polish trace


def local_frequency(psi, dpsi_dt):
    """(omega_av, sigma) from a wave value and its time derivative.

    Accepts scalars or arrays.  Raises AmplitudeUnderflow where |psi| is so
    small that the quotient is meaningless.
    """
    psi_arr = np.asarray(psi, dtype=complex)
    if np.any(np.abs(psi_arr) < _AMP_FLOOR):
        raise AmplitudeUnderflow(f"|psi| below {_AMP_FLOOR:g}")
    quot = np.asarray(dpsi_dt, dtype=complex) / psi_arr
    omega_av = -np.imag(quot)
    sigma = np.abs(np.real(quot))
    if np.ndim(psi) == 0 and np.ndim(dpsi_dt) == 0:
        return float(omega_av), float(sigma)
    return omega_av, sigma


@dataclass(frozen=True)
class Spectrogram:
    """omega_av(t) and sigma(t) along a fixed-x trace."""

    x: float
    times: np.ndarray
    omega_av: np.ndarray
    sigma: np.ndarray
    abs2: np.ndarray
    system: BarrierSystem


def spectrogram(sys: BarrierSystem, x, t_grid, tol=DEFAULT_TOL,
                poles=None) -> Spectrogram:
    """Local-frequency diagnostics of the transient wave on a time grid."""
    tr = trace(x, np.asarray(t_grid, dtype=float), sys, poles=poles, tol=tol)
    omega_av, sigma = local_frequency(tr.psi, tr.dpsi_dt)
    return Spectrogram(x=tr.x, times=tr.times, omega_av=omega_av,
                       sigma=sigma, abs2=tr.abs2, system=sys)


@dataclass(frozen=True)
class TimeDomainResonance:
    """The transient peak of |Psi|^2 at fixed x, if one exists."""

    x: float
    exists: bool
    t_max: float
    height: float          # |Psi(t_max)|^2
    height_ratio: float    # height / long-time plateau density
    omega_av: float        # instantaneous frequency at t_max (1/fs)
    sigma: float           # envelope rate at t_max; ~0 at a true peak
    omega_ratio: float     # omega_av / omega_V; < 1 means under the barrier


def _plateau_density(sys, x):
    """Long-time density the transient settles to at position x."""
    if x >= sys.L:
        return abs(transmission(sys.k, sys)) ** 2
    return abs(phi_stationary(x, sys.k, sys)) ** 2


def default_window(sys: BarrierSystem, x=None):
    """Scan window bracketing the expected forerunner arrival at position x.

    The forerunner peaks on the scale of max(hbar/V, the under-barrier
    traversal time hbar L / (2 c2 kappa0)); the window spans two decades
    around it.  Probes beyond the barrier shift both ends by the
    barrier-top flight time (x - L)/v_top: the peak propagates outward at
    roughly v_top, and times much earlier than that carry exponentially
    small density while making the resonance sum numerically intractable.
    """
    kappa = abs(sys.kappa0)
    t_ref = max(1.0 / sys.omegaV, HBAR * sys.L / (2.0 * sys.c2 * max(kappa, 1e-30)))
    lo, hi = 0.02 * t_ref, 25.0 * t_ref
    if x is not None and x > sys.L:
        v_top = 2.0 * sys.c2 * math.sqrt(sys.v_strength) / HBAR
        t_flight = (x - sys.L) / v_top
        lo = 0.3 * t_ref + 0.25 * t_flight
        hi = hi + 3.0 * t_flight
    return lo, hi


def find_time_domain_resonance(sys: BarrierSystem, x=None, t_window=None,
                               tol=DEFAULT_TOL, poles=None):
    """Locate the transient peak of |Psi(x, t)|^2.

    Scans a grid of PEAK_SCAN times for the first interior local maximum
    whose density exceeds HEIGHT_FLOOR times the long-time plateau, summing
    poles only to max(tol, SCAN_TOL) since the scan just brackets.  The grid
    is traced in time order in chunks that double from PEAK_SCAN // 8, and
    the scan stops at the chunk that closes the first such maximum; a search
    with no peak traces every grid time once.  The polish traces the signed
    envelope rate Re[(dPsi/dt)/Psi] at tol on POLISH_NODES Chebyshev-Lobatto
    times two scan steps either side of it; t_max is the first falling zero
    of their interpolant.  Returns exists=False when the density rises
    monotonically (no forerunner), as happens below the critical opacity.
    """
    if x is None:
        x = sys.L
    check_x(x)
    check_tol(tol)
    if t_window is None:
        t_window = default_window(sys, x)
    t_lo, t_hi = float(t_window[0]), float(t_window[1])
    if not 0 < t_lo < t_hi < math.inf:
        raise WindowTooNarrow(f"t_window must be finite with 0 < lo < hi, "
                              f"got ({t_lo}, {t_hi})")
    cache = pole_cache(sys, poles)
    grid = np.linspace(t_lo, t_hi, PEAK_SCAN)
    plateau = _plateau_density(sys, x)
    floor = HEIGHT_FLOOR * plateau
    absent = TimeDomainResonance(x=float(x), exists=False, t_max=math.nan,
                                 height=math.nan, height_ratio=math.nan,
                                 omega_av=math.nan, sigma=math.nan,
                                 omega_ratio=math.nan)
    # trace the grid in doubling chunks, in time order, until a maximum is
    # closed on both sides: the peak lies early in the window
    rho, start, size, idx = np.empty(0), 0, PEAK_SCAN // 8, ()
    while len(idx) == 0:
        if start == PEAK_SCAN:
            return absent
        stop = min(start + size, PEAK_SCAN)
        try:
            tr = trace(x, grid[start:stop], sys, poles=cache,
                       tol=max(tol, SCAN_TOL))
        except NotConverged as exc:
            raise NotConverged(f"bracketing scan of the peak search: {exc}") from exc
        rho = np.concatenate([rho, tr.abs2])
        start, size = stop, 2 * size
        idx = np.flatnonzero((rho[1:-1] > rho[:-2]) & (rho[1:-1] >= rho[2:])
                             & (rho[1:-1] > floor))
    i = int(idx[0]) + 1

    lo, hi = grid[max(i - 2, 0)], grid[min(i + 2, len(grid) - 1)]
    nodes = lo + (hi - lo) * 0.5 * (1.0 + chebpts2(POLISH_NODES))
    w = trace(x, nodes, sys, poles=cache, tol=tol)
    rate = np.real(w.dpsi_dt / w.psi)
    if not rate[0] > 0.0 > rate[-1]:
        # the envelope rate does not fall through zero across the bracket:
        # no genuine peak at this resolution
        return absent
    # the interpolant takes the end signs, so it has a falling zero in [lo, hi]
    fit = Chebyshev.fit(nodes, rate, POLISH_NODES - 1, domain=(lo, hi))
    slope = fit.deriv()
    t_max = min(r.real for r in fit.roots()
                if r.imag == 0 and lo <= r.real <= hi and slope(r.real) < 0)
    w = trace(x, np.array([t_max]), sys, poles=cache, tol=tol)
    omega_av, sigma = local_frequency(complex(w.psi[0]), complex(w.dpsi_dt[0]))
    height = abs(w.psi[0]) ** 2
    return TimeDomainResonance(x=float(x), exists=True, t_max=float(t_max),
                               height=float(height),
                               height_ratio=float(height / plateau),
                               omega_av=float(omega_av), sigma=float(sigma),
                               omega_ratio=float(omega_av / sys.omegaV))
