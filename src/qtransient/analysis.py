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
tolerance, and interpolants of Psi and dPsi/dt through the same times give
every value reported there.  The coarse scan that brackets it stops at the
first maximum it closes.  Where its first chunk closes none, a Chebyshev
interpolant of the same rate over the rest of the window decides whether
any maximum can follow: a rate that stays positive, by more than the
interpolant's own tail, means the density only rises.  A forerunner is
classified as under the barrier when omega_av < omega_V = V/hbar at its peak.

Many searches run in lockstep (find_time_domain_resonances): each search
is a generator that yields the traces it needs, and each round traces the
next request of every search still open as one batch (traces), so the
pole sums of a stage serve every probe at once while each probe gets
bitwise what it gets searched alone.

Every interpolant runs through Chebyshev-Lobatto times, so its coefficients
are one real FFT of the values there (a DCT-I) and it is evaluated by
Clenshaw's recurrence; the zero is the first fall of the rate interpolant
from > 0 to <= 0 on a Lobatto grid four times finer than the nodes,
bisected to a few ulps.  Nothing here calls LAPACK or numpy.polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeUnderflow, NotConverged, QTransientError, single
from .propagator import (DEFAULT_TOL, _cheb_coef, _clenshaw, _lobatto,
                         batches, check_tol, check_x, pole_caches, trace,
                         traces)
from .stationary import phi_stationary, transmission
from .systems import BarrierSystem, HBAR_EV_FS as HBAR

_AMP_FLOOR = 1e-150
PEAK_SCAN = 1200      # coarse time points of a peak search
SCAN_TOL = 1e-3       # the scan only orders grid times; polish keeps tol
HEIGHT_FLOOR = 1e-6   # least peak density, relative to the long-time plateau
POLISH_NODES = 16     # Chebyshev-Lobatto times of the polish trace
RISE_NODES = 65       # Chebyshev-Lobatto times of the no-peak check
RISE_MARGIN = 10.0    # least rate, in units of the check's interpolant tail


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
    """omega_av(t) and sigma(t) along a fixed-x trace, with Psi there and
    each time's error estimate of Psi relative to |Psi| (trunc_error_est)."""

    x: float
    times: np.ndarray
    psi: np.ndarray
    omega_av: np.ndarray
    sigma: np.ndarray
    trunc_error_est: np.ndarray
    system: BarrierSystem

    @property
    def abs2(self):
        return np.abs(self.psi) ** 2


def spectrogram(sys: BarrierSystem, x, t_grid, tol=DEFAULT_TOL,
                poles=None) -> Spectrogram:
    """Local-frequency diagnostics of the transient wave on a time grid.

    Psi and dPsi/dt come from trace, so the density is bitwise what trace
    gives with the same arguments: the direct pole sum on a grid of fewer
    than PANEL_MIN times, Chebyshev panels on a longer one.  Raises
    AmplitudeUnderflow, naming x and the first such time, where |Psi| is
    too small to divide by.
    """
    tr = trace(x, t_grid, sys, poles=poles, tol=tol)
    low = np.flatnonzero(np.abs(tr.psi) < _AMP_FLOOR)
    if low.size:
        raise AmplitudeUnderflow(
            f"|psi| below {_AMP_FLOOR:g} at x={tr.x:g}, "
            f"t={float(tr.times[low[0]]):.6g} fs "
            f"(first of {low.size} such grid times)")
    omega_av, sigma = local_frequency(tr.psi, tr.dpsi_dt)
    return Spectrogram(x=tr.x, times=tr.times, psi=tr.psi, omega_av=omega_av,
                       sigma=sigma, trunc_error_est=tr.trunc_error_est,
                       system=sys)


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
    # np.abs, as abs() of a NaN complex can raise OverflowError from the
    # errno that a numpy overflow left behind
    if x >= sys.L:
        return float(np.abs(transmission(sys.k, sys))) ** 2
    return float(np.abs(phi_stationary(x, sys.k, sys))) ** 2


def default_window(sys: BarrierSystem, x):
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
    if x > sys.L:
        v_top = 2.0 * sys.c2 * math.sqrt(sys.v_strength) / HBAR
        t_flight = (x - sys.L) / v_top
        lo = 0.3 * t_ref + 0.25 * t_flight
        hi = hi + 3.0 * t_flight
    return lo, hi


def _falling_zero(coef, values):
    """The least u in [-1, 1] where the interpolant coef through values at
    the Lobatto points falls from > 0 to <= 0, to a few ulps; some value
    > 0 must come before one < 0.

    The interpolant is sampled on the Lobatto grid four times finer, which
    holds the points, where it takes the values themselves.  Its first
    sample > 0 followed, past any samples = 0, by one < 0 brackets the
    zero: the first sample = 0 between them, if any, else the bisected
    sign change."""
    u = _lobatto(4 * (len(values) - 1) + 1)
    v = _clenshaw(coef, u)
    v[::4] = values
    nz = np.flatnonzero(v)
    k = int(np.flatnonzero((v[nz[:-1]] > 0.0) & (v[nz[1:]] < 0.0))[0])
    if nz[k + 1] > nz[k] + 1:
        return float(u[nz[k] + 1])
    a, b = float(u[nz[k]]), float(u[nz[k + 1]])
    c, width = coef.tolist(), 4.0 * np.finfo(float).eps
    while b - a > width:                # Python floats: microseconds a step
        mid = 0.5 * (a + b)
        f = _clenshaw(c, mid)
        if f > 0.0:
            a = mid
        elif f < 0.0:
            b = mid
        else:
            return mid
    return 0.5 * (a + b)


def _rate_fit(x, lo, hi, n, sys, cache, tol, step):
    """Yields the trace at tol on n Chebyshev-Lobatto times over [lo, hi]
    as a request of a search (_search), and returns it with the envelope
    rate Re[(dPsi/dt)/Psi] there and the Chebyshev coefficients of its
    interpolant; a miss names `step`."""
    nodes = lo + (hi - lo) * 0.5 * (1.0 + _lobatto(n))
    try:
        w = yield x, nodes, sys, cache, tol
    except NotConverged as exc:
        raise type(exc)(f"{step} of the peak search: {exc}") from exc
    rate = np.real(w.dpsi_dt / w.psi)
    return w, rate, _cheb_coef(rate)


def _rises_throughout(times, rate, coef, tol):
    """True if the envelope rate is certified positive at every one of times:
    its interpolant through RISE_NODES times spanning them (rate there,
    coef its Chebyshev coefficients) stays above RISE_MARGIN times the
    larger of its last two coefficients plus tol times the largest |rate|
    traced, so |Psi| rises strictly from each of `times` to the next."""
    lo, hi = times[0], times[-1]
    margin = (RISE_MARGIN * np.max(np.abs(coef[-2:]))
              + tol * np.max(np.abs(rate)))
    u = (2.0 * times - (lo + hi)) / (hi - lo)
    return bool(np.min(_clenshaw(coef, u)) > margin)


def find_time_domain_resonance(sys: BarrierSystem, x=None, tol=DEFAULT_TOL,
                               poles=None):
    """Locate the transient peak of |Psi(x, t)|^2.

    Scans PEAK_SCAN times spread evenly over default_window(sys, x) for the
    first interior local maximum whose density exceeds HEIGHT_FLOOR times
    the long-time plateau, summing poles only to max(tol, SCAN_TOL) since
    the scan just orders neighbouring grid times.  The grid is traced in
    time order in chunks that double from PEAK_SCAN // 8, and the scan
    stops at the chunk that closes the first such maximum.  If the first
    chunk closes none, one trace at tol on RISE_NODES Chebyshev-Lobatto
    times from its last time to the end of the grid checks the envelope
    rate: where its interpolant stays positive at every later grid time, by
    the margin of _rises_throughout, no maximum can follow and the search
    returns exists=False without tracing the rest of the grid; otherwise
    the scan goes on.  The polish traces the signed envelope rate
    Re[(dPsi/dt)/Psi] at tol on POLISH_NODES Chebyshev-Lobatto times two
    scan steps either side of it; t_max is the first falling zero of their
    interpolant, bracketed on a finer Lobatto grid and bisected
    (_falling_zero).  A miss of any of these traces keeps its class and
    names the scan, the no-peak check or the polish.  Psi and dPsi/dt at t_max,
    and with them every reported value, come from their own interpolants
    through the same nodes, so nothing is traced at t_max; NotConverged is
    raised if the rate does not fall from > 0 to < 0 across the bracket,
    where the scan and the polish disagree, or if the last two Chebyshev
    coefficients of Psi or of dPsi/dt exceed tol times its size at t_max.
    Returns exists=False when the density rises monotonically (no
    forerunner), as happens below the critical opacity.  This is
    find_time_domain_resonances of one probe.
    """
    return single(find_time_domain_resonances([(sys, x, poles)], tol))


def find_time_domain_resonances(probes, tol=DEFAULT_TOL) -> list:
    """find_time_domain_resonance for many probes in lockstep, each a tuple
    (sys, x, poles), x None for the barrier edge: a list with each probe's
    TimeDomainResonance, or the error its search raises.

    The probes run in lockstep batches of at most BATCH (batches).  In a
    batch, the systems without a table are searched first, in one Newton
    (pole_caches).  Then every search still open asks for its next trace
    -- its first scan chunk, no-peak check, later chunk or polish -- and
    all of them are traced as one batch (traces), so each stage's pole
    sums serve every probe at once.  A search's numbers do not depend on
    the others in its batch.
    """
    probes = list(probes)
    return [r for part in batches(len(probes))
            for r in _lockstep(probes[part], tol)]


def _lockstep(probes, tol):
    """find_time_domain_resonances of one batch."""
    out, live = [None] * len(probes), []
    for i, (sys, x, poles) in enumerate(probes):
        x = sys.L if x is None else x
        try:
            check_x(x)
            check_tol(tol)
        except QTransientError as exc:
            out[i] = exc
        else:
            live.append((i, sys, x, poles))
    searches = {}
    caches = pole_caches([p[1] for p in live], [p[3] for p in live]) \
        if live else []
    for (i, sys, x, _), cache in zip(live, caches):
        if isinstance(cache, Exception):
            out[i] = cache
        else:
            searches[i] = _search(sys, x, tol, cache)
    given = dict.fromkeys(searches)
    while searches:
        asked = {}
        for i, search in list(searches.items()):
            try:
                if isinstance(given[i], Exception):
                    asked[i] = search.throw(given[i])
                else:
                    asked[i] = search.send(given[i])
            except StopIteration as stop:
                out[i] = stop.value
                del searches[i]
            except QTransientError as exc:
                out[i] = exc
                del searches[i]
        if asked:
            given = dict(zip(asked, traces(list(asked.values()))))
    return out


def _search(sys, x, tol, cache):
    """One probe's peak search (find_time_domain_resonance) as a generator:
    it yields each trace it needs as (x, times, sys, poles, tol), is sent
    the WaveTrace or thrown its error, and returns the result."""
    grid = np.linspace(*default_window(sys, x), PEAK_SCAN)
    scan_tol = max(tol, SCAN_TOL)
    # a plateau that overflows comes with a stationary amplitude that every
    # trace at x refuses as not finite: numpy need not warn
    with np.errstate(all="ignore"):
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
        # the first chunk closed no maximum: none follows where the density
        # rises from its last time to the end of the grid
        if start == PEAK_SCAN // 8:
            times = grid[start - 1:]
            _, rate, coef = yield from _rate_fit(
                x, times[0], times[-1], RISE_NODES, sys, cache, tol,
                "no-peak check")
            if _rises_throughout(times, rate, coef, tol):
                return absent
        stop = min(start + size, PEAK_SCAN)
        try:
            tr = yield x, grid[start:stop], sys, cache, scan_tol
        except NotConverged as exc:
            raise type(exc)(f"bracketing scan of the peak search, summed at "
                            f"tol={scan_tol:.1e} for tol={tol:.1e}: {exc}") from exc
        rho = np.concatenate([rho, tr.abs2])
        start, size = stop, 2 * size
        idx = np.flatnonzero((rho[1:-1] > rho[:-2]) & (rho[1:-1] >= rho[2:])
                             & (rho[1:-1] > floor))
    i = int(idx[0]) + 1

    lo, hi = grid[max(i - 2, 0)], grid[min(i + 2, len(grid) - 1)]
    w, rate, coef = yield from _rate_fit(x, lo, hi, POLISH_NODES, sys, cache,
                                         tol, "peak polish")
    if not rate[0] > 0.0 > rate[-1]:
        # the scan closed a maximum that the polish, at tol, does not see
        raise NotConverged(
            f"peak polish at x={x:g}: the envelope rate on [{lo:.6g}, "
            f"{hi:.6g}] fs goes from {rate[0]:.3g} to {rate[-1]:.3g} 1/fs, "
            "not from > 0 to < 0 across the maximum the scan bracketed")
    # the interpolant takes the end signs, so it has a falling zero in [lo, hi]
    u_max = _falling_zero(coef, rate)
    t_max = 0.5 * (lo + hi) + 0.5 * (hi - lo) * u_max
    # Psi and dPsi/dt at t_max from their interpolants through the same
    # nodes, a real column per real and imaginary part
    coef = _cheb_coef(np.column_stack([w.psi.real, w.psi.imag,
                                       w.dpsi_dt.real, w.dpsi_dt.imag]))
    re_psi, im_psi, re_dpsi, im_dpsi = _clenshaw(coef, u_max)
    psi, dpsi_dt = complex(re_psi, im_psi), complex(re_dpsi, im_dpsi)
    for name, j, size in (("Psi", 0, abs(psi)), ("dPsi/dt", 2, abs(dpsi_dt))):
        tail = float(np.max(np.hypot(coef[-2:, j], coef[-2:, j + 1])))
        if not tail <= tol * size:
            raise NotConverged(
                f"peak polish at x={x:g}: the {name} interpolant on "
                f"[{lo:.6g}, {hi:.6g}] fs ends in coefficients {tail:.3g}, "
                f"above tol={tol:.1e} times |{name}(t_max)| = {size:.3g}")
    omega_av, sigma = local_frequency(psi, dpsi_dt)
    height = abs(psi) ** 2
    return TimeDomainResonance(x=float(x), exists=True, t_max=float(t_max),
                               height=float(height),
                               height_ratio=float(height / plateau),
                               omega_av=float(omega_av), sigma=float(sigma),
                               omega_ratio=float(omega_av / sys.omegaV))
