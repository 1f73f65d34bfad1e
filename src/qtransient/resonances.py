"""Complex resonance poles of the barrier and their Gamow-state data.

The poles k_n are the zeros of the transmission denominator, located with
one array Newton pass from first-order seeds.  The branch index of the
log-form pole equation numbers the poles, so it certifies every table: no pole
below the last one can be missing; axis poles are counted in closed form.
audit_pole_count checks a table independently, by an argument-principle zero
count over a rectangle of the complex k-plane; the `poles` command runs it on
every table it prints.  For each pole the resonant eigenfunction u_n
is known in closed form up to normalization; the normalization integral

    int_0^L u_n^2 dx + i (u_n(0)^2 + u_n(L)^2) / (2 k_n) = 1

reduces on the pole equation to the closed form -2v (L + 2i/k_n).  The
overall sign of sqrt leaves u_n defined up to a global sign, which cancels
in every product the expansion coefficients use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import (CountMismatch, NonPositiveParameter,
                     NormalizationSingular, PoleNotConverged)
from .stationary import _q_of_k, pole_function
from .systems import BarrierSystem

RESIDUAL_TOL = 1e-12
_NEWTON_MAX_ITER = 60
_WINDING_DEPTH = 14     # bisections of a contour segment before CountMismatch


def _log_pole_eq(k, sys):
    """H(k) = 2iqL - 2 Log((k+q)/(k-q)), reduced mod 2 pi i, elementwise.

    Equivalent zero set to the transmission denominator, but free of the
    exponential cancellation that limits D(k) near machine precision; the
    derivative is exactly (2iLk - 4)/q.  Returns (H, q, m), where the
    unreduced H is H + 2 pi i m: at a pole, m is its branch index.
    """
    v = sys.v_strength
    q = _q_of_k(k, v)
    kp, km = k + q, k - q
    # avoid the cancelling difference: (k+q)(k-q) = v exactly
    # |k - q| and |k + q| cannot both fall below 0.1 |k|: they sum to >= 2|k|
    tenth = 0.1 * np.abs(k)
    near_m = np.abs(km) < tenth
    near_p = np.abs(kp) < tenth
    ratio = kp**2 / v
    np.divide(v, km**2, out=ratio, where=near_p)
    np.divide(kp, km, out=ratio, where=~(near_m | near_p))
    h = 2j * q * sys.L - 2.0 * np.log(ratio)
    m = np.rint(h.imag / (2 * math.pi))
    h -= 2j * math.pi * m
    return h, q, m


def _pole_residual(k, sys):
    """Backward error of the pole equation: |H/H'| relative to max(1, |k|).

    This is the dimensionless distance from k to the true zero, which is the
    quantity a double-precision root can actually drive to ~eps (the raw
    |H(k)| has an unavoidable floor ~eps * |k| L at large |k|).  Elementwise;
    returned with the branch index m of _log_pole_eq.
    """
    h, q, m = _log_pole_eq(k, sys)
    res = np.abs(h * q / (2j * sys.L * k - 4.0)) / np.maximum(1.0, np.abs(k))
    return res, m


def _newton_refine(k0, sys):
    """Newton iteration on the log-form pole equation, analytic derivative.

    Runs elementwise over a 1-D array of starting points; each one stops on
    its own step test, so its root does not depend on the others.  A point
    whose final |H| is worse than its best iterate returns that iterate.
    """
    k = np.array(k0, dtype=complex, ndmin=1)
    best_k, best_h = k.copy(), np.full(k.shape, np.inf)
    # the points still iterating: their indices, iterates and best iterates
    live, kl, bkl, bhl = np.arange(k.size), k.copy(), k.copy(), best_h.copy()
    for _ in range(_NEWTON_MAX_ITER):
        if not live.size:
            break
        h, q, _ = _log_pole_eq(kl, sys)
        ah = np.abs(h)
        better = ah < bhl
        np.copyto(bkl, kl, where=better)
        np.copyto(bhl, ah, where=better)
        step = h / ((2j * sys.L * kl - 4.0) / q)
        kl -= step
        stop = np.abs(step) < 1e-15 * np.maximum(1.0, np.abs(kl))
        if np.count_nonzero(stop):
            done = live[stop]
            k[done], best_k[done], best_h[done] = kl[stop], bkl[stop], bhl[stop]
            go = ~stop
            live, kl, bkl, bhl = live[go], kl[go], bkl[go], bhl[go]
    k[live], best_k[live], best_h[live] = kl, bkl, bhl
    h, _, _ = _log_pole_eq(k, sys)
    return np.where(np.abs(h) <= best_h, k, best_k)


def _seed(n, sys):
    """First-order pole location on rung n, elementwise.

    On the pole equation qL = n pi - i Log((k+q)^2/v).  At q = n pi/L,
    k = a = sqrt(q^2 + v), the log term moves q by -i ln((a+q)^2/v)/L and so
    k by q/a times that; at large n this is the logarithmic growth law
    Im k ~ -ln(16 a^4/v^2)/(2L).
    """
    v = sys.v_strength
    q = np.asarray(n, dtype=float) * math.pi / sys.L
    a = np.sqrt(q * q + v)
    return a - 1j * (q / a) * np.log((a + q) ** 2 / v) / sys.L


def _gamow_u(x, k, q):
    """Unnormalized Gamow eigenfunction (q - k) e^{iqx} + (q + k) e^{-iqx}."""
    return (q - k) * np.exp(1j * q * x) + (q + k) * np.exp(-1j * q * x)


@dataclass(frozen=True)
class ResonancePole:
    """One pole k_n = a_n - i b_n with its Gamow boundary data."""

    n: int
    k: complex
    E: complex
    u0: complex
    uL: complex
    residual: float
    q: complex = field(repr=False)
    inv_sqrt_norm: complex = field(repr=False)

    def u_at(self, x):
        """Normalized Gamow eigenfunction on 0 <= x <= L (vectorized)."""
        val = _gamow_u(np.asarray(x, dtype=float), self.k,
                       self.q) * self.inv_sqrt_norm
        return val if val.shape else complex(val)


def gamow_boundary_data(k_n, sys: BarrierSystem):
    """Normalized (u_n(0), u_n(L)) for converged poles k_n, elementwise.

    Also returns the raw ingredients (q, 1/sqrt(norm)) so u_n(x) can be
    rebuilt with a consistent sqrt branch.  On the pole equation
    (q+k)^2 = (q-k)^2 e^{2iqL}, u_n(L) = +-u_n(0) = +-2q and the norm is
    4iq^2/k - 4ik - 2vL = -2v (L + 2i/k), zero only at the double root
    k = -2i/L; summing the integral term by term instead cancels terms of
    size e^{2|Im q| L} (~1e13 at n ~ 1000 on GaAs).  The sign of u_n(L) is
    read off its direct evaluation, whose two terms do not cancel.
    """
    k = np.asarray(k_n, dtype=complex)
    v = sys.v_strength
    q = _q_of_k(k, v)
    L = sys.L
    u0 = 2.0 * q
    uL = np.where((_gamow_u(L, k, q) * u0.conj()).real < 0.0, -u0, u0)
    norm = -2.0 * v * (L + 2j / k)
    bad = np.flatnonzero(np.abs(norm) < 1e-12 * 2.0 * v * (L + 2.0 / np.abs(k)))
    if bad.size:
        raise NormalizationSingular(f"vanishing Gamow norm at k = {k.flat[bad[0]]}")
    inv_sqrt = 1.0 / np.sqrt(norm)
    return u0 * inv_sqrt, uL * inv_sqrt, q, inv_sqrt


_COLUMNS = ("n", "k", "q", "u0", "uL", "inv_sqrt_norm", "residual")


@dataclass(frozen=True, eq=False)
class PoleSet:
    """Poles of one system as columns, one row per pole: the first N
    positive-Re poles sorted by ascending Re k_n and numbered n = 1..N, or
    the antibound poles on the imaginary axis, numbered 0.  A ladder table
    carries its system's antibound poles as a table in `axis_poles`.
    """

    system: BarrierSystem
    n: np.ndarray
    k: np.ndarray
    q: np.ndarray
    u0: np.ndarray
    uL: np.ndarray
    inv_sqrt_norm: np.ndarray
    residual: np.ndarray
    axis_poles: PoleSet | None = None

    def __len__(self):
        return len(self.k)

    def __getitem__(self, rows):
        """The table of the poles at `rows`, with the same antibound poles."""
        return replace(self, **{c: getattr(self, c)[rows] for c in _COLUMNS})

    @cached_property
    def poles(self):
        """The rows as ResonancePole records, built on first use; sums over
        the poles read the columns."""
        cols = (self.n, self.k, self.system.c2 * self.k * self.k, self.u0,
                self.uL, self.residual, self.q, self.inv_sqrt_norm)
        return tuple(map(ResonancePole, *(c.tolist() for c in cols)))


def _pole_set(sys, n, k, residual=None, axis_poles=None):
    """PoleSet of the converged roots k, numbered n, with their Gamow data;
    the residuals are evaluated unless given."""
    u0, uL, q, inv_sqrt = gamow_boundary_data(k, sys)
    if residual is None:
        residual = _pole_residual(k, sys)[0]
    return PoleSet(system=sys, n=n, k=k, q=q, u0=u0, uL=uL,
                   inv_sqrt_norm=inv_sqrt, residual=residual,
                   axis_poles=axis_poles)


def _axis_function(eta, alpha):
    """(F, S) of find_axis_poles, elementwise, with F's log as a log1p."""
    s = np.hypot(eta, alpha)
    return s - 2.0 * np.log1p((eta + eta * eta / (s + alpha)) / alpha), s


def find_axis_poles(sys: BarrierSystem):
    """Antibound poles on the negative imaginary axis, k = -i eta / L.

    They are self-conjugate under k -> -conj(k), so the expansion includes
    each exactly once.  With S = sqrt(eta^2 + alpha^2) and the growing
    exponential scaled out, Im G = 0 on the axis reads F(eta) = S -
    2 ln((eta + S)/alpha) = 0.  F(0) = alpha, F' = (eta - 2)/S and F'' > 0,
    so there are two poles when F(2) < 0, which is alpha < alpha_m =
    1.3254868..., and none otherwise.  Newton runs monotonically onto them
    from eta = 0 and from eta = 6 + 4 ln(2.5/alpha), where F > 0.  A root
    that misses RESIDUAL_TOL, as one may within about 1e-7 of alpha_m,
    raises PoleNotConverged naming pole 0.
    """
    starts = [0.0, 6.0 + 4.0 * math.log(2.5 / sys.alpha)]
    eta = np.array(starts if _axis_function(2.0, sys.alpha)[0] < 0.0 else [])
    for _ in range(_NEWTON_MAX_ITER):
        # an iterate stops once F is not positive or no longer moves
        f, s = _axis_function(eta, sys.alpha)
        step = np.where(f > 0.0, f * s / (eta - 2.0), 0.0)
        if np.all(eta - step == eta):
            break
        eta -= step
    axis = _pole_set(sys, np.zeros(len(eta), dtype=int), -1j * eta / sys.L)
    for k, r in zip(axis.k.tolist(), axis.residual.tolist()):
        if not r <= RESIDUAL_TOL:
            raise PoleNotConverged(0, f"(k = {k:.17g}, residual {r:.3g})")
    return axis


def _winding_number(sys, corners, samples_per_edge):
    """Winding of arg G(k) around a rectangular contour, adaptively refined."""
    x0, x1, y0, y1 = corners
    cs = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    pts = np.concatenate([_edge_points(a, b, samples_per_edge, sys.v_strength)
                          for a, b in zip(cs, cs[1:] + cs[:1])])
    vals = pole_function(pts, sys)
    total = 0.0
    npts = len(pts)
    for i in range(npts):
        a, b = pts[i], pts[(i + 1) % npts]
        va, vb = vals[i], vals[(i + 1) % npts]
        d = _phase_increment(sys, a, b, va, vb, _WINDING_DEPTH)
        if d is None:
            raise CountMismatch(
                f"argument-principle contour Re k in [{x0:.6g}, {x1:.6g}], "
                f"Im k in [{y0:.6g}, {y1:.6g}] 1/nm could not be resolved "
                f"at alpha={sys.alpha:.6g}")
        total += d
    return round(total / (2 * math.pi))


def _edge_points(a, b, n, v):
    """n points from corner a toward corner b, b left out.

    A horizontal edge k = x + iy is spaced evenly in s = Re q, q =
    sqrt(k^2 - v), where x^2 = s^2 (s^2 + y^2 + v)/(s^2 + y^2): near
    k ~ sqrt v the phase of G turns faster than even steps in Re k resolve.
    """
    t = np.linspace(0.0, 1.0, n, endpoint=False)
    if a.imag != b.imag:
        return a + (b - a) * t
    sa, sb = _q_of_k(np.array([a, b]), v).real
    s2 = (sa + (sb - sa) * t) ** 2
    y2 = a.imag ** 2
    return np.sqrt(s2 * (s2 + y2 + v) / (s2 + y2)) + 1j * a.imag


def _phase_increment(sys, a, b, va, vb, depth):
    """The turn of arg G from a to b, bisected until each step is below
    pi/2; None if depth bisections do not get there."""
    d = cmath.phase(vb / va)
    if abs(d) < 0.5 * math.pi:
        return d
    if depth == 0:
        return None
    mid = 0.5 * (a + b)
    vm = complex(pole_function(mid, sys))
    first = _phase_increment(sys, a, mid, va, vm, depth - 1)
    if first is None:
        return None
    second = _phase_increment(sys, mid, b, vm, vb, depth - 1)
    return None if second is None else first + second


def audit_pole_count(poleset: PoleSet):
    """Argument-principle check: zeros of G in the scan window == len(poleset).

    Axis poles sit exactly on Im axis; when present the left contour edge is
    moved to Re k = 1/L so the phase stays resolvable, which excludes them
    from the count (find_axis_poles counts them in closed form and checks
    each one's residual).
    """
    sys = poleset.system
    n = len(poleset)
    a_max = float(np.max(poleset.k.real))
    b_max = float(np.max(-poleset.k.imag))
    x0 = 1e-6 if not poleset.axis_poles else 1.0 / sys.L
    # right edge halfway to the next expected pole: consecutive Re spacings
    # compress below pi/L at strong barrier shift, so a fixed margin can
    # swallow pole N+1; beside antibound poles, pole n has branch index n + 1
    a_next = _seed(n + 1 + bool(poleset.axis_poles), sys).real
    corners = (x0, 0.5 * (a_max + a_next), -(1.5 * b_max + 1.0 / sys.L), -1e-9)
    # phase advances ~2 pi per enclosed zero along the contour; sample densely
    # enough that no segment can alias a full turn into a small increment.
    # G that overflows or vanishes leaves a phase unresolved, which is named
    with np.errstate(all="ignore"):
        count = _winding_number(sys, corners, samples_per_edge=max(64, 4 * n))
    if count != n:
        raise CountMismatch(
            f"argument principle counts {count} zeros, found {n} poles")
    return count


def find_poles(sys: BarrierSystem, N: int) -> PoleSet:
    """Locate the N poles of smallest positive Re k_n.

    Deterministic: one array Newton refines N + 2 seeds, the first-order
    seed of each rung 1..N+1 and a fixed seed (1 - 2i)/L next to the double
    root k = -2i/L, where the antibound pair leaves the imaginary axis as
    pole 1.  Roots with residual <= RESIDUAL_TOL, Re k > 1e-6/L and Im k < 0
    are sorted by Re once, and roots within 1e-8 max(1, |k|) of the one
    before are dropped as duplicates.  The branch index m of the pole
    equation numbers the poles: the N kept roots must carry m = 1..N, or
    2..N+1 beside the antibound pair, and a gap raises PoleNotConverged
    naming the missing pole, with the k and residual of a root on its
    branch that missed RESIDUAL_TOL if there is one.  Every root depends
    only on its own seed, so the first n poles do not depend on N.  An N
    that is not an integer >= 1 raises NonPositiveParameter.
    """
    if not (isinstance(N, Integral) and N >= 1):
        raise NonPositiveParameter(f"N must be an integer >= 1, got {N!r}")
    axis = find_axis_poles(sys)
    L = sys.L
    seeds = np.append(_seed(np.arange(1, N + 2), sys), (1 - 2j) / L)
    k = _newton_refine(seeds, sys)
    # the pole equation once: its residual and branch index m ride along
    # with each root through the filter, the sort and the dedupe
    res, m = _pole_residual(k, sys)
    keep = np.flatnonzero((res <= RESIDUAL_TOL) & (k.real > 1e-6 / L)
                          & (k.imag < 0))
    keep = keep[np.argsort(k.real[keep], kind="stable")]
    near = 1e-8 * np.maximum(1.0, np.abs(k[keep]))
    keep = keep[np.abs(np.diff(k[keep], prepend=np.inf)) > near][:N]
    first = 2 if axis else 1
    want = np.arange(first, first + N)
    gap = np.flatnonzero(m[keep] != want[:len(keep)])
    if gap.size or len(keep) < N:
        n = int(gap[0]) + 1 if gap.size else len(keep) + 1
        # a root on the missing branch that missed RESIDUAL_TOL, as pole 1
        # may within about 1e-7 above alpha_m, is named with its residual
        missed = np.flatnonzero((m == want[n - 1]) & ~(res <= RESIDUAL_TOL))
        if missed.size:
            i = missed[0]
            raise PoleNotConverged(n, f"(k = {k[i]:.17g}, residual "
                                      f"{res[i]:.3g} on branch m = "
                                      f"{want[n - 1]})")
        raise PoleNotConverged(n, f"(no root on branch m = {want[n - 1]} at "
                                  f"L={L:.6g} nm, alpha={sys.alpha:.6g})")
    return _pole_set(sys, np.arange(1, N + 1), k[keep], res[keep],
                     axis_poles=axis)


def expansion_coeffs(x, poles: PoleSet, internal: bool):
    """One region's expansion coefficients over the rows of a pole table.

    internal: Phi_n(x) = 2ik u_n(0) u_n(x) / (k^2 - k_n^2)
    external: T_n      = 2ik u_n(0) u_n(L) exp(-i k_n L) / (k^2 - k_n^2)

    k is the incident wavenumber of the table's own system.  Returns
    (coefs, kn), complex arrays with one entry per pole, u_n(x) evaluated
    as in ResonancePole.u_at.  For real k the mirror pole k_{-n} =
    -conj k_n has coefficient -conj of its partner's, so the mirrors need
    no entries of their own.  k^2 - k_n^2 does not vanish (Im k_n^2 < 0 on
    the ladder, k_n^2 < 0 on the axis); if it underflows, the sum refuses.
    """
    k = poles.system.k
    kn = poles.k
    pref = 2j * k * poles.u0 / (k * k - kn * kn)
    if internal:
        return pref * (_gamow_u(x, kn, poles.q) * poles.inv_sqrt_norm), kn
    return pref * poles.uL * np.exp(-1j * kn * poles.system.L), kn
