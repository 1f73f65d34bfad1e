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
                     NormalizationSingular, PoleNotConverged, single)
from .stationary import _q_of_k, pole_function
from .systems import BarrierSystem

RESIDUAL_TOL = 1e-12
_NEWTON_MAX_ITER = 60
_WINDING_DEPTH = 14     # bisections of a contour segment before CountMismatch
_SEEDS = 1 << 15        # most seeds of many systems refined in one Newton


def _log_pole_eq(k, v, L):
    """H(k) = 2iqL - 2 Log((k+q)/(k-q)), reduced mod 2 pi i, elementwise.

    Equivalent zero set to the transmission denominator, but free of the
    exponential cancellation that limits D(k) near machine precision; the
    derivative is exactly (2iLk - 4)/q.  v = V/c2 and L are the barrier's,
    scalars or one per k.  Returns (H, q, m), where the unreduced H is
    H + 2 pi i m: at a pole, m is its branch index.
    """
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
    h = 2j * q * L - 2.0 * np.log(ratio)
    m = np.rint(h.imag / (2 * math.pi))
    h -= 2j * math.pi * m
    return h, q, m


def _pole_residual(k, v, L):
    """Backward error of the pole equation: |H/H'| relative to max(1, |k|).

    This is the dimensionless distance from k to the true zero, which is the
    quantity a double-precision root can actually drive to ~eps (the raw
    |H(k)| has an unavoidable floor ~eps * |k| L at large |k|).  Elementwise;
    returned with the branch index m of _log_pole_eq.
    """
    h, q, m = _log_pole_eq(k, v, L)
    res = np.abs(h * q / (2j * L * k - 4.0)) / np.maximum(1.0, np.abs(k))
    return res, m


def _newton_refine(k0, v, L):
    """Newton iteration on the log-form pole equation, analytic derivative.

    Runs elementwise over a 1-D array of starting points, each with the v
    and L of its barrier (scalars or one per point); each one stops on its
    own step test, so its root does not depend on the others.  A point
    whose final |H| is worse than its best iterate returns that iterate.
    """
    k = np.array(k0, dtype=complex, ndmin=1)
    best_k, best_h = k.copy(), np.full(k.shape, np.inf)
    # the points still iterating: their indices, iterates, best iterates and
    # barriers
    live, kl, bkl, bhl = np.arange(k.size), k.copy(), k.copy(), best_h.copy()
    vl, Ll = v, L
    for _ in range(_NEWTON_MAX_ITER):
        if not live.size:
            break
        h, q, _ = _log_pole_eq(kl, vl, Ll)
        ah = np.abs(h)
        better = ah < bhl
        np.copyto(bkl, kl, where=better)
        np.copyto(bhl, ah, where=better)
        step = h / ((2j * Ll * kl - 4.0) / q)
        kl -= step
        stop = np.abs(step) < 1e-15 * np.maximum(1.0, np.abs(kl))
        if np.count_nonzero(stop):
            done = live[stop]
            k[done], best_k[done], best_h[done] = kl[stop], bkl[stop], bhl[stop]
            go = ~stop
            live, kl, bkl, bhl = live[go], kl[go], bkl[go], bhl[go]
            if np.ndim(vl):
                vl = vl[go]
            if np.ndim(Ll):
                Ll = Ll[go]
    k[live], best_k[live], best_h[live] = kl, bkl, bhl
    h, _, _ = _log_pole_eq(k, v, L)
    return np.where(np.abs(h) <= best_h, k, best_k)


def _seed(n, v, L):
    """First-order pole location on rung n, elementwise, for the barrier of
    strength v = V/c2 and width L (scalars or arrays that broadcast with n).

    On the pole equation qL = n pi - i Log((k+q)^2/v).  At q = n pi/L,
    k = a = sqrt(q^2 + v), the log term moves q by -i ln((a+q)^2/v)/L and so
    k by q/a times that; at large n this is the logarithmic growth law
    Im k ~ -ln(16 a^4/v^2)/(2L).
    """
    q = np.asarray(n, dtype=float) * math.pi / L
    a = np.sqrt(q * q + v)
    return a - 1j * (q / a) * np.log((a + q) ** 2 / v) / L


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
    *data, bad = _gamow(k, sys.v_strength, sys.L)
    if bad.any():
        raise _singular(k, bad)
    return tuple(data)


def _gamow(k, v, L):
    """gamow_boundary_data's (u0, uL, q, 1/sqrt(norm)) for poles k of the
    barriers v, L (scalars or one per pole), and where the norm vanishes."""
    q = _q_of_k(k, v)
    u0 = 2.0 * q
    uL = np.where((_gamow_u(L, k, q) * u0.conj()).real < 0.0, -u0, u0)
    norm = -2.0 * v * (L + 2j / k)
    bad = np.abs(norm) < 1e-12 * 2.0 * v * (L + 2.0 / np.abs(k))
    # a vanishing norm is refused by the caller, not warned about here
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sqrt = 1.0 / np.sqrt(norm)
        return u0 * inv_sqrt, uL * inv_sqrt, q, inv_sqrt, bad


def _singular(k, bad):
    return NormalizationSingular(
        f"vanishing Gamow norm at k = {k.flat[np.flatnonzero(bad)[0]]}")


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
    k = np.asarray(k, dtype=complex)
    return single(_pole_sets([sys], [n], k, np.zeros(len(k), dtype=int),
                             residual, [axis_poles]))


def _shared(values, per):
    """A parameter of several systems at their roots: the one value where
    they share it, else one per root, per being each system's root count
    or the system of each root."""
    if all(v == values[0] for v in values):
        return values[0]
    values = np.array(values)
    return np.repeat(values, per) if np.ndim(per) == 0 else values[per]


def _pole_sets(systems, n, k, owner, residual=None, axis=None):
    """_pole_set for many systems at once: k holds every system's roots in
    system order, owner[i] the index in systems of root i and n[j] the
    numbers of system j's roots.  A list with each system's PoleSet, or
    the NormalizationSingular its roots raise."""
    v, L = (_shared([getattr(s, a) for s in systems], owner)
            for a in ("v_strength", "L"))
    *data, bad = _gamow(k, v, L)
    if residual is None:
        residual = _pole_residual(k, v, L)[0]
    u0, uL, q, inv_sqrt = data
    ends = np.searchsorted(owner, np.arange(len(systems) + 1)).tolist()
    out = []
    for j, sys in enumerate(systems):
        a, b = ends[j], ends[j + 1]
        if bad[a:b].any():
            out.append(_singular(k[a:b], bad[a:b]))
            continue
        out.append(PoleSet(system=sys, n=n[j], k=k[a:b], q=q[a:b],
                           u0=u0[a:b], uL=uL[a:b], inv_sqrt_norm=inv_sqrt[a:b],
                           residual=residual[a:b],
                           axis_poles=None if axis is None else axis[j]))
    return out


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
    return single(_axis_tables([sys]))


def _axis_tables(systems):
    """find_axis_poles for many systems in one Newton pass: a list with
    each system's table, or the error find_axis_poles raises for it.  An
    iterate that has stopped stays where it is while others move, so every
    root is bitwise the one its system gives alone."""
    alpha = np.array([s.alpha for s in systems])
    pair = np.flatnonzero(_axis_function(2.0, alpha)[0] < 0.0).tolist()
    # an iterate stops once F is not positive or no longer moves
    eta = np.array([[0.0, 6.0 + 4.0 * math.log(2.5 / systems[j].alpha)]
                    for j in pair]).ravel()
    a = np.repeat(alpha[pair], 2)
    for _ in range(_NEWTON_MAX_ITER):
        f, s = _axis_function(eta, a)
        step = np.where(f > 0.0, f * s / (eta - 2.0), 0.0)
        if np.all(eta - step == eta):
            break
        eta -= step
    # above alpha_m a system has no antibound poles: an empty table
    none = np.zeros(0, dtype=complex)
    out = [PoleSet(system=sys, n=np.zeros(0, dtype=int), k=none, q=none,
                   u0=none, uL=none, inv_sqrt_norm=none,
                   residual=np.zeros(0)) for sys in systems]
    if not pair:
        return out
    L = np.repeat([systems[j].L for j in pair], 2)
    found = _pole_sets([systems[j] for j in pair],
                       [np.zeros(2, dtype=int)] * len(pair), -1j * eta / L,
                       np.repeat(np.arange(len(pair)), 2))
    for j, axis in zip(pair, found):
        out[j] = axis
        if isinstance(axis, PoleSet):
            for k, r in zip(axis.k.tolist(), axis.residual.tolist()):
                if not r <= RESIDUAL_TOL:
                    out[j] = PoleNotConverged(
                        0, f"(k = {k:.17g}, residual {r:.3g})")
                    break
    return out


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
    a_next = _seed(n + 1 + bool(poleset.axis_poles), sys.v_strength,
                   sys.L).real
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
    that is not an integer >= 1 raises NonPositiveParameter.  This is
    find_pole_tables of one system.
    """
    return single(find_pole_tables([sys], N))


def find_pole_tables(systems, N: int) -> list:
    """find_poles(sys, N) for every system of a sequence, in one Newton.

    The systems may differ in any parameter, as a width scan's differ in
    L: each seed carries its own barrier through one array Newton pass,
    and every root depends only on its own seed, so each system's table
    is bitwise the one find_poles gives it alone.  The systems are refined
    in groups of at most _SEEDS seeds, one system at least.  Returns a
    list with each system's PoleSet, or the error find_poles raises for it.
    """
    if not (isinstance(N, Integral) and N >= 1):
        raise NonPositiveParameter(f"N must be an integer >= 1, got {N!r}")
    systems, per = list(systems), max(1, _SEEDS // (N + 2))
    if len(systems) > per:
        return [table for a in range(0, len(systems), per)
                for table in find_pole_tables(systems[a:a + per], N)]
    out = _axis_tables(systems)
    live = [j for j, axis in enumerate(out) if isinstance(axis, PoleSet)]
    if not live:
        return out
    sub = [systems[j] for j in live]
    v, L = (_shared([getattr(s, a) for s in sub], N + 2)
            for a in ("v_strength", "L"))
    # a row of N + 2 seeds per system: rungs 1..N+1, then (1 - 2i)/L
    seeds = np.empty((len(sub), N + 2), dtype=complex)
    seeds[:, :-1] = _seed(np.arange(1, N + 2), *(
        a if np.ndim(a) == 0 else a.reshape(len(sub), -1)[:, :-1]
        for a in (v, L)))
    seeds[:, -1] = [(1 - 2j) / s.L for s in sub]
    vv, LL = v, L
    k = _newton_refine(seeds.ravel(), vv, LL)
    # the pole equation once: its residual and branch index m ride along
    # with each root through the filter, the sort and the dedupe
    res, m = _pole_residual(k, vv, LL)
    owner = np.repeat(np.arange(len(sub)), N + 2)
    keep = np.flatnonzero((res <= RESIDUAL_TOL) & (k.real > 1e-6 / LL)
                          & (k.imag < 0))
    keep = keep[np.lexsort((k.real[keep], owner[keep]))]
    near = 1e-8 * np.maximum(1.0, np.abs(k[keep]))
    step = np.abs(np.diff(k[keep], prepend=np.inf))
    step[np.flatnonzero(np.diff(owner[keep], prepend=-1))] = np.inf
    keep = keep[step > near]
    # the first N kept roots of each system, numbered from first
    rank = np.arange(len(keep)) - np.searchsorted(owner[keep], owner[keep])
    keep = keep[rank < N]
    rank, who = rank[rank < N], owner[keep]
    first = np.array([2 if out[j] else 1 for j in live])[who]
    found = np.bincount(who, minlength=len(sub))
    gap = np.bincount(who[m[keep] != first + rank], minlength=len(sub))
    tables = _pole_sets(sub, [np.arange(1, N + 1)] * len(sub), k[keep], who,
                        res[keep], [out[j] for j in live])
    for i, j in enumerate(live):
        if gap[i] or found[i] < N:
            rows = slice(i * (N + 2), (i + 1) * (N + 2))
            tables[i] = _gap(sub[i], N, bool(out[j]), k[rows], res[rows],
                             m[rows], m[keep[who == i]])
        out[j] = tables[i]
    return out


def _gap(sys, N, beside, k, res, m, kept_m):
    """The PoleNotConverged of a table whose kept roots, with branch
    indices kept_m, skip a branch or fall short of N; k, res and m are
    every root of its search."""
    first = 2 if beside else 1
    want = np.arange(first, first + N)
    gap = np.flatnonzero(kept_m != want[:len(kept_m)])
    n = int(gap[0]) + 1 if gap.size else len(kept_m) + 1
    # a root on the missing branch that missed RESIDUAL_TOL, as pole 1
    # may within about 1e-7 above alpha_m, is named with its residual
    missed = np.flatnonzero((m == want[n - 1]) & ~(res <= RESIDUAL_TOL))
    if missed.size:
        i = missed[0]
        return PoleNotConverged(n, f"(k = {k[i]:.17g}, residual "
                                   f"{res[i]:.3g} on branch m = "
                                   f"{want[n - 1]})")
    return PoleNotConverged(n, f"(no root on branch m = {want[n - 1]} at "
                               f"L={sys.L:.6g} nm, alpha={sys.alpha:.6g})")


def expansion_coeffs(x, poles, internal: bool):
    """One region's expansion coefficients over the rows of a pole table.

    internal: Phi_n(x) = 2ik u_n(0) u_n(x) / (k^2 - k_n^2)
    external: T_n      = 2ik u_n(0) u_n(L) exp(-i k_n L) / (k^2 - k_n^2)

    k is the incident wavenumber of the table's own system.  Returns
    (coefs, kn), complex arrays with one entry per pole, u_n(x) evaluated
    as in ResonancePole.u_at.  For real k the mirror pole k_{-n} =
    -conj k_n has coefficient -conj of its partner's, so the mirrors need
    no entries of their own.  k^2 - k_n^2 does not vanish (Im k_n^2 < 0 on
    the ladder, k_n^2 < 0 on the axis); if it underflows, the sum refuses.
    `poles` may also be a sequence of tables, with x a sequence of one
    position per table: then the arrays run over every table's rows, one
    table after another, each entry as its table alone gives it.
    """
    if not isinstance(poles, PoleSet) and len(poles) == 1:
        x, (poles,) = x[0], poles
    if isinstance(poles, PoleSet):
        sys = poles.system
        return _coeffs(x, sys.k, sys.L, poles.k, poles.q, poles.u0,
                       poles.uL, poles.inv_sqrt_norm, internal), poles.k
    count = [len(p) for p in poles]
    x, k, L = (np.repeat(np.array(a, dtype=float), count) for a in (
        x, [p.system.k for p in poles], [p.system.L for p in poles]))
    kn, q, u0, uL, inv_sqrt = (np.concatenate([getattr(p, c) for p in poles])
                               for c in ("k", "q", "u0", "uL",
                                         "inv_sqrt_norm"))
    return _coeffs(x, k, L, kn, q, u0, uL, inv_sqrt, internal), kn


def _coeffs(x, k, L, kn, q, u0, uL, inv_sqrt, internal):
    """expansion_coeffs' coefficients from pole columns kn, q, u0, uL and
    inv_sqrt_norm, with x, k and L scalars or one per pole."""
    pref = 2j * k * u0 / (k * k - kn * kn)
    if internal:
        return pref * (_gamow_u(x, kn, q) * inv_sqrt)
    return pref * uL * np.exp(-1j * kn * L)
