"""Parameter scans of the transient peak: width, position, and opacity sweeps.

Three one-dimensional scans cover the phenomenology of the under-the-barrier
forerunner:

* t_max as a function of barrier width L (fixed V, E) -- shows a basin
  (non-monotonic dip) at small widths followed by linear growth;
* omega_av/omega_V at the local peak as a function of position x -- below 1
  throughout the barrier and out to about 2L, above 1 far outside;
* omega_av/omega_V at x = L as a function of opacity alpha at fixed u = V/E
  -- the curve only depends on (alpha, u), and its unit crossing together
  with the sign change of the transmission phase delay bounds the opacity
  window [alpha_c, alpha_u] in which the forerunner is a genuine tunneling
  signal.

Opacity is realized by varying L at fixed V (and E = V/u): the (alpha, u)
scaling invariance makes the choice immaterial, and it keeps the pole solver
in a well-conditioned regime.

Every sweep checks its whole grid before any work starts and maps it in
ascending order, optionally over `threads` worker threads; rows come out
sorted whatever the thread count or the order of the grid.  The CLI scan
commands call these same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import find_time_domain_resonance
from .errors import NoCrossing, NonPositiveParameter
from .propagator import DEFAULT_TOL, check_tol, pole_cache
from .stationary import phase_time_delay
from .systems import BarrierSystem, length_for_alpha, make_system

ALPHA_TOL = 1e-3   # absolute tolerance of the opacity window edges
# ITP refinement of both edges (Oliveira & Takahashi, ACM TOMS 47, 5 (2020)):
# truncation kappa1 (b - a)^kappa2 with kappa1 = ITP_K1 / the bracket's
# width, and ITP_N0 probes of slack over bisection's count
ITP_K1, ITP_K2, ITP_N0 = 0.01, 2.0, 1


@dataclass(frozen=True)
class SweepRow:
    independent: float
    t_max: float
    omega_ratio: float
    exists: bool


@dataclass(frozen=True)
class SweepTable:
    rows: tuple

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows])


def _checked_grid(grid, name, threads, tol):
    """The grid as ascending floats: a sweep's one check before any work, of
    threads >= 1, tol and every grid value finite and > 0."""
    if not threads >= 1:
        raise NonPositiveParameter(f"threads must be >= 1, got {threads}")
    check_tol(tol)
    values = sorted(float(v) for v in np.asarray(grid, dtype=float))
    for v in values:
        if not 0 < v < math.inf:
            raise NonPositiveParameter(f"{name} must be > 0 and finite, got {v}")
    return values


def _scan_map(values, worker, threads):
    """Deterministic parallel map: output order follows input order."""
    if threads <= 1 or len(values) <= 1:
        return [worker(v) for v in values]
    # imported here: it loads logging, which a one-thread run never needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, values))


def _sweep(values, peak, threads):
    """SweepTable of peak(v) at each grid value, one row per value."""
    def row(v):
        tdr = peak(v)
        return SweepRow(independent=v, t_max=tdr.t_max,
                        omega_ratio=tdr.omega_ratio, exists=tdr.exists)

    return SweepTable(rows=tuple(_scan_map(values, row, threads)))


def sweep_tmax_vs_L(L_grid, V, E, mass_ratio=1.0, tol=DEFAULT_TOL,
                    threads=1) -> SweepTable:
    """t_max at x = L for each barrier width; rows sorted by L."""
    values = _checked_grid(L_grid, "L", threads, tol)

    def peak(L):
        sys = make_system(V, E, L, mass_ratio)
        return find_time_domain_resonance(sys, tol=tol)

    return _sweep(values, peak, threads)


def sweep_freq_vs_x(x_grid, sys: BarrierSystem, tol=DEFAULT_TOL,
                    threads=1) -> SweepTable:
    """Peak frequency ratio at each position, inside and beyond the barrier.

    Every probe shares one immutable pole table, found once, so sharing it
    across threads leaves every row unchanged.
    """
    values = _checked_grid(x_grid, "x", threads, tol)
    cache = pole_cache(sys)

    def peak(x):
        return find_time_domain_resonance(sys, x=x, tol=tol, poles=cache)

    return _sweep(values, peak, threads)


def _check_u(u):
    if not 1 < u < math.inf:
        raise NonPositiveParameter(
            f"u must be finite and > 1 (tunneling), got {u}")


def _system_at(alpha, u, V_ref, mass_ratio):
    """The barrier of opacity alpha at height V_ref and E = V_ref / u."""
    L = length_for_alpha(alpha, V_ref, mass_ratio)
    return make_system(V_ref, V_ref / u, L, mass_ratio)


def sweep_freq_vs_alpha(alpha_grid, u, V_ref, mass_ratio=1.0, tol=DEFAULT_TOL,
                        threads=1) -> SweepTable:
    """Frequency ratio at the barrier edge versus opacity, at fixed u = V/E."""
    _check_u(u)
    values = _checked_grid(alpha_grid, "alpha", threads, tol)

    def peak(alpha):
        return find_time_domain_resonance(
            _system_at(alpha, u, V_ref, mass_ratio), tol=tol)

    return _sweep(values, peak, threads)


def detect_basin(table: SweepTable):
    """Indices (i, j, k) with t(i) > t(j) < t(k): the non-monotonic basin.

    Returns (i, j, k) using the global interior minimum as j, or None when
    the scan is monotone (no basin in range).
    """
    t = table.column("t_max")
    ok = np.isfinite(t)
    if ok.sum() < 3:
        return None
    j = int(np.nanargmin(t))
    before = np.flatnonzero(ok[:j] & (t[:j] > t[j]))
    after = j + 1 + np.flatnonzero(ok[j + 1:] & (t[j + 1:] > t[j]))
    if len(before) == 0 or len(after) == 0:
        return None
    return int(before[0]), j, int(after[-1])


def linear_suffix(table: SweepTable, r2_min=0.999):
    """Least-squares line over the largest suffix of rows with R^2 > r2_min.

    Returns (start_index, slope, intercept, r2) or None if no suffix of at
    least 3 points is that straight.
    """
    x = table.column("independent")
    t = table.column("t_max")
    ok = np.isfinite(t)
    for start in range(len(x) - 2):
        sel = ok.copy()
        sel[:start] = False
        if sel.sum() < 3:
            break
        xs, ts = x[sel], t[sel]
        slope, intercept = np.polyfit(xs, ts, 1)
        resid = ts - (slope * xs + intercept)
        ss_tot = np.sum((ts - ts.mean()) ** 2)
        r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 1.0
        if r2 > r2_min:
            return start, float(slope), float(intercept), float(r2)
    return None


def _itp(f, a, b, fa, fb):
    """ITP search of [a, b] to ALPHA_TOL for the point where f turns past 0.

    f(a) = fa < 0; f(b) = fb is >= 0 or NaN, and any value that is not
    below 0 counts as past.  Each probe interpolates between the ends,
    truncates the step toward the midpoint and projects it into the
    interval that keeps ceil(log2((b - a) / ALPHA_TOL)) + ITP_N0 probes the
    worst case; a NaN end takes the midpoint.  Returns the midpoint of the
    final bracket.
    """
    k1 = ITP_K1 / (b - a)
    n_max = math.ceil(math.log2((b - a) / ALPHA_TOL)) + ITP_N0
    j = 0
    while b - a > ALPHA_TOL:
        mid = 0.5 * (a + b)
        probe = mid
        if math.isfinite(fb):
            regula = (fb * a - fa * b) / (fb - fa)
            side = math.copysign(1.0, mid - regula)
            delta = k1 * (b - a) ** ITP_K2
            t = regula + side * delta if delta <= abs(mid - regula) else mid
            radius = 0.5 * ALPHA_TOL * 2.0 ** (n_max - j) - 0.5 * (b - a)
            probe = t if abs(t - mid) <= radius else mid - side * radius
        fp = f(probe)
        if fp < 0.0:
            a, fa = probe, fp
        else:
            b, fb = probe, fp
        j += 1
    return 0.5 * (a + b)


def opacity_window(u, V_ref, mass_ratio=1.0, alpha_span=(1.2, 6.0),
                   tol=DEFAULT_TOL):
    """(alpha_c, alpha_u): the opacity interval of genuine tunneling forerunners.

    alpha_c is the critical opacity at which the transmission phase delay
    hbar d(arg T)/dE changes sign; below it the delay is positive and no
    transient peak forms at the barrier edge, above it the delay is
    negative and time-domain resonances become possible.  The delays at 13
    coarse opacities bracket the first sign change, and ITP on the delay,
    started from the two coarse delays, refines it.  alpha_u is the last
    opacity in the span where omega_av/omega_V at the peak crosses 1: the
    coarse opacities are probed from the top of the span down, and stop at
    the first pair that brackets the crossing; ITP on the ratio, started
    from the two coarse ratios, refines it.  A missing peak (NaN ratio)
    counts as past the crossing.  Both edges to absolute tolerance
    ALPHA_TOL in alpha.  The delays are cheap and checked first:
    a span without a delay sign change raises NoCrossing before any peak is
    searched.
    """
    _check_u(u)
    lo, hi = map(float, alpha_span)
    if not 0 < lo < hi < math.inf:
        raise NonPositiveParameter(
            "alpha_span (--alpha-min, --alpha-max) must be finite with "
            f"0 < lo < hi, got ({lo}, {hi})")
    check_tol(tol)

    def excess(alpha):
        # omega_av/omega_V - 1, NaN where no peak forms: past the crossing
        return find_time_domain_resonance(
            _system_at(alpha, u, V_ref, mass_ratio), tol=tol).omega_ratio - 1.0

    def delay(alpha):
        return phase_time_delay(_system_at(alpha, u, V_ref, mass_ratio))

    coarse = np.linspace(lo, hi, 13)

    # sign change of the phase delay for alpha_c
    delays = [delay(a) for a in coarse]
    flips = [i for i in range(len(coarse) - 1)
             if delays[i] > 0.0 >= delays[i + 1]]
    if not flips:
        raise NoCrossing(f"no delay sign change for alpha in {alpha_span} at u={u}")
    i = flips[0]
    alpha_c = _itp(lambda a: -delay(a), coarse[i], coarse[i + 1],
                   -delays[i], -delays[i + 1])

    # the last unit crossing of the ratio, from the top of the span down,
    # for alpha_u; a ratio that is not below 1 (NaN included) is past it
    upper = excess(coarse[-1])
    for i in range(len(coarse) - 2, -1, -1):
        lower = excess(coarse[i])
        if lower < 0.0 and not upper < 0.0:
            return alpha_c, _itp(excess, coarse[i], coarse[i + 1],
                                 lower, upper)
        upper = lower
    raise NoCrossing(f"no ratio=1 crossing for alpha in {alpha_span} at u={u}")
