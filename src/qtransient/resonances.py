"""Complex resonance poles of the barrier and their Gamow-state data.

The poles k_n are the zeros of the transmission denominator, located with
Newton's method from asymptotic seeds and certified by an argument-principle
zero count over the scanned rectangle of the complex k-plane.  For each pole
the resonant eigenfunction u_n is known in closed form up to normalization;
the normalization integral

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

import numpy as np

from .errors import (CountMismatch, DuplicatePole, NormalizationSingular,
                     PoleCollision, PoleNotConverged)
from .stationary import _q_of_k, pole_function, relative_pole_function
from .systems import BarrierSystem

RESIDUAL_TOL = 1e-12
_NEWTON_MAX_ITER = 60


def _log_pole_eq(k, sys):
    """H(k) = 2iqL - 2 Log((k+q)/(k-q)), reduced mod 2 pi i, elementwise.

    Equivalent zero set to the transmission denominator, but free of the
    exponential cancellation that limits D(k) near machine precision; the
    derivative is exactly (2iLk - 4)/q.
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
    h -= 2j * math.pi * np.rint(h.imag / (2 * math.pi))
    return h, q


def _pole_residual(k, sys):
    """Backward error of the pole equation: |H/H'| relative to max(1, |k|).

    This is the dimensionless distance from k to the true zero, which is the
    quantity a double-precision root can actually drive to ~eps (the raw
    |H(k)| has an unavoidable floor ~eps * |k| L at large |k|).  Elementwise.
    """
    h, q = _log_pole_eq(k, sys)
    return np.abs(h * q / (2j * sys.L * k - 4.0)) / np.maximum(1.0, np.abs(k))


def _newton_refine(k0, sys, avoid=()):
    """Newton iteration on the log-form pole equation, analytic derivative.

    Runs elementwise over a 1-D array of starting points; each one stops on
    its own step test, so its root does not depend on the others.  `avoid`
    lists already-found zeros; Maehly deflation steers the iteration away
    from them (needed at small opacity where neighboring seeds share a
    basin of attraction).  Without deflation a point whose final |H| is
    worse than its best iterate returns that iterate.
    """
    k = np.array(k0, dtype=complex, ndmin=1)
    avoid = np.asarray(avoid, dtype=complex)
    best_k, best_h = k.copy(), np.full(k.shape, np.inf)
    # the points still iterating: their indices, iterates and best iterates
    live, kl, bkl, bhl = np.arange(k.size), k.copy(), k.copy(), best_h.copy()
    for _ in range(_NEWTON_MAX_ITER):
        if not live.size:
            break
        h, q = _log_pole_eq(kl, sys)
        ah = np.abs(h)
        better = ah < bhl
        np.copyto(bkl, kl, where=better)
        np.copyto(bhl, ah, where=better)
        hp = (2j * sys.L * kl - 4.0) / q
        if avoid.size:
            hp -= np.sum(h[:, None] / (kl[:, None] - avoid), axis=1)
        step = h / hp
        kl -= step
        stop = np.abs(step) < 1e-15 * np.maximum(1.0, np.abs(kl))
        if np.count_nonzero(stop):
            done = live[stop]
            k[done], best_k[done], best_h[done] = kl[stop], bkl[stop], bhl[stop]
            go = ~stop
            live, kl, bkl, bhl = live[go], kl[go], bkl[go], bhl[go]
    k[live], best_k[live], best_h[live] = kl, bkl, bhl
    h, _ = _log_pole_eq(k, sys)
    return k if avoid.size else np.where(np.abs(h) <= best_h, k, best_k)


def _seed(n, sys):
    """Asymptotic pole location, elementwise in the rung index n.

    Resonances sit near q L = n pi, so Re k ~ sqrt((n pi / L)^2 + v) -- the
    barrier shift matters for the lowest n at large opacity.  The imaginary
    part follows the slow logarithmic growth law.
    """
    L = sys.L
    v = sys.v_strength
    a = np.sqrt((np.asarray(n, dtype=float) * math.pi / L) ** 2 + v)
    b = np.maximum(np.log(16.0 * a**4 / v**2) / (2 * L), 0.05 / L)
    return a - 1j * b


def _grid_rescue(n, sys, avoid=()):
    """Fallback: scan a grid around the seed for the best restart point.

    With `avoid` nonempty the landscape is deflated by the distance to the
    already-found zeros, and the window is widened: at small opacity the
    low-n poles sit well off their asymptotic strips.
    """
    s = _seed(n, sys)
    da = math.pi / sys.L
    width = 0.85 * da if not avoid else 1.5 * da
    re = np.linspace(max(s.real - width, 1e-3 / sys.L), s.real + width, 61)
    im = np.linspace(min(3 * s.imag, -4 / sys.L), -1e-3 / sys.L, 61)
    kk = re[:, None] + 1j * im[None, :]
    g = relative_pole_function(kk, sys)
    for kj in avoid:
        g = g / np.minimum(np.abs(kk - kj), 1.0)
    i, j = np.unravel_index(np.argmin(g), g.shape)
    return kk[i, j]


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
        x_arr = np.asarray(x, dtype=float)
        k, q = self.k, self.q
        val = ((q - k) * np.exp(1j * q * x_arr)
               + (q + k) * np.exp(-1j * q * x_arr)) * self.inv_sqrt_norm
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
    u_l = (q - k) * np.exp(1j * q * L) + (q + k) * np.exp(-1j * q * L)
    uL = np.where((u_l * u0.conj()).real < 0.0, -u0, u0)
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

    N_max = property(__len__, doc="The number of poles in the table.")

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


def _pole_set(sys, n, k, axis_poles=None):
    """PoleSet of the converged roots k, numbered n, with their Gamow data."""
    u0, uL, q, inv_sqrt = gamow_boundary_data(k, sys)
    return PoleSet(system=sys, n=n, k=k, q=q, u0=u0, uL=uL,
                   inv_sqrt_norm=inv_sqrt, residual=_pole_residual(k, sys),
                   axis_poles=axis_poles)


def find_axis_poles(sys: BarrierSystem):
    """Antibound poles on the negative imaginary axis, k = -i kappa.

    Below an opacity threshold (alpha ~ 1.33 for this barrier family) the
    lowest resonance pair sits on the axis as two purely-damped poles; they
    are self-conjugate under k -> -conj(k), so the expansion includes each
    exactly once.  G(-i y) is purely imaginary, so sign changes of Im G
    locate them; each candidate is polished and residual-checked.
    """
    L = sys.L
    y = np.geomspace(1e-6 / L, (3.0 * sys.alpha + 12.0) / L, 6000)
    g_im = pole_function(-1j * y, sys).imag
    flips = np.flatnonzero(np.diff(np.sign(g_im)) != 0)
    # polish can drift off-axis at roundoff level
    kappa = _newton_refine(-1j * 0.5 * (y[flips] + y[flips + 1]), sys).imag
    k = np.zeros(kappa.shape, dtype=complex)
    k.imag = kappa
    ok = (_pole_residual(k, sys) <= RESIDUAL_TOL) & (kappa < 0)
    out = []
    for kk in k[ok].tolist():
        if not any(abs(kk - p) < 1e-10 for p in out):
            out.append(kk)
    out.sort(key=lambda z: -z.imag)
    return _pole_set(sys, np.zeros(len(out), dtype=int),
                     np.array(out, dtype=complex))


def _winding_number(sys, corners, samples_per_edge=64, max_depth=14):
    """Winding of arg G(k) around a rectangular contour, adaptively refined."""
    x0, x1, y0, y1 = corners
    pts = []
    cs = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    for a, b in zip(cs, cs[1:] + cs[:1]):
        s = np.linspace(0.0, 1.0, samples_per_edge, endpoint=False)
        pts.append(a + (b - a) * s)
    pts = np.concatenate(pts)
    vals = pole_function(pts, sys)
    total = 0.0
    npts = len(pts)
    for i in range(npts):
        a, b = pts[i], pts[(i + 1) % npts]
        va, vb = vals[i], vals[(i + 1) % npts]
        total += _phase_increment(sys, a, b, va, vb, max_depth)
    return round(total / (2 * math.pi))


def _phase_increment(sys, a, b, va, vb, depth):
    d = cmath.phase(vb / va)
    if abs(d) < 0.5 * math.pi:
        return d
    if depth == 0:
        raise CountMismatch("argument-principle contour could not be resolved")
    mid = 0.5 * (a + b)
    vm = complex(pole_function(mid, sys))
    return (_phase_increment(sys, a, mid, va, vm, depth - 1)
            + _phase_increment(sys, mid, b, vm, vb, depth - 1))


def audit_pole_count(poleset: PoleSet):
    """Argument-principle check: zeros of G in the scan window == len(poleset).

    Axis poles sit exactly on Im axis; when present the left contour edge is
    moved to Re k = 1/L so the phase stays resolvable, which excludes them
    from the count (they are certified separately by the 1-D sign-change
    scan in find_axis_poles).
    """
    sys = poleset.system
    n = len(poleset)
    a_max = float(np.max(poleset.k.real))
    b_max = float(np.max(-poleset.k.imag))
    x0 = 1e-6 if not poleset.axis_poles else 1.0 / sys.L
    # right edge halfway to the next expected pole: consecutive Re spacings
    # compress below pi/L at strong barrier shift, so a fixed margin can
    # swallow pole N+1
    shift = len(poleset.axis_poles) // 2
    a_next = _seed(n + shift + 1, sys).real
    corners = (x0, 0.5 * (a_max + a_next), -(1.5 * b_max + 1.0 / sys.L), -1e-9)
    # phase advances ~2 pi per enclosed zero along the contour; sample densely
    # enough that no segment can alias a full turn into a small increment
    count = _winding_number(sys, corners, samples_per_edge=max(64, 4 * n))
    if count != n:
        raise CountMismatch(
            f"argument principle counts {count} zeros, found {n} poles")
    return count


def _scan_low_zone(sys):
    """Dense scan of the irregular low-|k| region for off-ladder zeros.

    Near the merge opacity the lowest pole pair sits far off the asymptotic
    strips (Re well below sqrt((pi/L)^2 + v)); a grid search over the first
    strip-and-a-half catches it.  Returns refined zeros with Re > 0.
    """
    L = sys.L
    s1 = _seed(1, sys)
    re = np.linspace(1e-3 / L, s1.real + 0.75 * math.pi / L, 181)
    im = np.linspace(-(2.0 * abs(s1.imag) + 6.0 / L), -1e-4 / L, 121)
    kk = re[:, None] + 1j * im[None, :]
    g = relative_pole_function(kk, sys)
    from scipy.ndimage import minimum_filter
    # the prune threshold only rejects obvious non-basins: very narrow poles
    # (opaque barriers) leave a shallow dip on this grid, so keep anything
    # below 0.5 and let Newton + the residual test decide.  g also dips to
    # 0 at k = sqrt v (q = 0), where its scale diverges but G = 2k(2 - iLk)
    # does not vanish: the cells within one step of that point are no basin.
    q0 = (np.abs(kk.real - math.sqrt(sys.v_strength)) <= re[1] - re[0]) \
        & (np.abs(kk.imag) <= im[1] - im[0])
    mins = (g == minimum_filter(g, size=5)) & (g < 0.5) & ~q0
    k = _newton_refine(kk[mins], sys)
    ok = ((_pole_residual(k, sys) <= RESIDUAL_TOL) & (k.imag < 0)
          & (1e-6 / L < k.real) & (k.real <= re[-1]))
    out = []
    for kj in k[ok].tolist():
        if not any(abs(kj - ki) < 1e-8 * max(1.0, abs(kj)) for ki in out):
            out.append(kj)
    return sorted(out, key=lambda z: z.real)


def _next_rung(re_max, sys):
    """Ladder index of the next pole above the largest found Re (elementwise)."""
    q2 = np.asarray(re_max, dtype=float) ** 2 - sys.v_strength
    rung = np.floor(np.sqrt(np.maximum(q2, 0.0)) * sys.L / math.pi + 0.5) + 1
    return np.where(q2 <= (0.5 * math.pi / sys.L) ** 2, 1, rung).astype(int)


def _on_rung(k, seed, sys):
    """Roots that pass the per-rung checks: residual, quadrant, strip."""
    return ((_pole_residual(k, sys) <= RESIDUAL_TOL) & (k.real > 0)
            & (k.imag < 0)
            & (np.abs(k.real - seed.real) <= 0.75 * math.pi / sys.L))


def find_poles(sys: BarrierSystem, N: int, audit: bool = True) -> PoleSet:
    """Locate the N poles of smallest positive Re k_n.

    Deterministic: a dense scan of the irregular low-|k| zone, then Newton
    down the asymptotic seed ladder, each rung chosen from the largest Re
    found so far.  The ladder runs in batches: one array Newton refines
    every rung still needed, and the longest prefix of roots that pass the
    per-rung checks (residual <= RESIDUAL_TOL, Re > 0, Im < 0, within
    0.75 pi/L of the seed's strip), rise strictly in Re clear of every
    root so far, and each lead to the next rung of the batch is taken at
    once.  The first rung past that prefix goes through the grid rescue
    and Maehly deflation alone; then batching resumes.  Every root depends
    only on its own seed, so the first n poles do not depend on N.  The
    roots are sorted once and their Gamow data filled in as columns.
    """
    if N < 1:
        raise PoleNotConverged(N, "(need N >= 1)")
    axis = find_axis_poles(sys)
    axis_k = axis.k.tolist()
    ks = []         # ladder roots in the order found
    re_max = 0.0    # strips only, no axis

    def claimed(k):
        return any(abs(kj - k) <= 1e-8 * max(1.0, abs(k)) for kj in ks + axis_k)

    def add(new):
        nonlocal re_max
        ks.extend(new)
        re_max = max([re_max] + [k.real for k in new])

    for k in _scan_low_zone(sys):
        if not claimed(k):
            add([k])
    attempts = 0
    while len(ks) < N:
        rungs = int(_next_rung(re_max, sys)) + np.arange(N - len(ks))
        seeds = _seed(rungs, sys)
        k = _newton_refine(seeds, sys)
        # a root clear of the previous Re by more than the claim distance
        # is clear of every root so far: all of them lie at or left of it
        prev_re = np.concatenate(([re_max], k.real[:-1]))
        ok = _on_rung(k, seeds, sys) & (
            k.real - prev_re > 1e-8 * np.maximum(1.0, np.abs(k)))
        take = len(ok) if ok.all() else int(np.argmin(ok))
        # each root taken must lead the ladder on to the batch's next rung
        chain = _next_rung(k.real[:max(take - 1, 0)], sys) == rungs[1:take]
        if not chain.all():
            take = int(np.argmin(chain)) + 1
        attempts += take
        if take:
            add(k[:take].tolist())
        if len(ks) >= N:
            break
        attempts += 1
        if attempts > 2 * N + 16:
            raise PoleNotConverged(len(ks) + 1, "(ladder stalled)")
        m = int(_next_rung(re_max, sys))
        seed = _seed([m], sys)
        k = _newton_refine(seed, sys)
        if not _on_rung(k, seed, sys)[0]:
            k = _newton_refine(_grid_rescue(m, sys), sys)
        if claimed(k[0]):
            # seed fell into an already-claimed basin; deflate and retry
            avoid = tuple(ks + axis_k)
            k = _newton_refine(_grid_rescue(m, sys, avoid=avoid), sys,
                               avoid=avoid)
            if (claimed(k[0])
                    or _pole_residual(k, sys)[0] > RESIDUAL_TOL
                    or k[0].real <= 0 or k[0].imag >= 0):
                raise DuplicatePole(
                    f"could not separate pole {len(ks) + 1} near {k[0]}")
        res = _pole_residual(k, sys)[0]
        if res > RESIDUAL_TOL:
            raise PoleNotConverged(len(ks) + 1, f"(residual {res:.2e})")
        add(k.tolist())
    k = np.array(sorted(ks, key=lambda z: z.real)[:N])
    for i in np.flatnonzero(np.abs(np.diff(k)) <= 1e-8)[:1]:
        raise DuplicatePole(f"poles {i + 1} and {i + 2} coincide at {k[i]}")
    ps = _pole_set(sys, np.arange(1, len(k) + 1), k, axis_poles=axis)
    if audit:
        audit_pole_count(ps)
    return ps


def expansion_coeffs(x, k: float, poles: PoleSet, sys: BarrierSystem,
                     internal: bool):
    """One region's expansion coefficients over the rows of a pole table.

    internal: Phi_n(x) = 2ik u_n(0) u_n(x) / (k^2 - k_n^2)
    external: T_n      = 2ik u_n(0) u_n(L) exp(-i k_n L) / (k^2 - k_n^2)

    Returns (coefs, kn), complex arrays with one entry per pole, u_n(x)
    evaluated as in ResonancePole.u_at.  For real k the mirror pole
    k_{-n} = -conj k_n has coefficient -conj of its partner's, so the
    mirrors need no entries of their own.
    """
    kn, q, inv_sqrt = poles.k, poles.q, poles.inv_sqrt_norm
    denom = k * k - kn * kn
    hit = np.flatnonzero(np.abs(denom) < 1e-14)
    if len(hit):
        raise PoleCollision(f"k^2 - k_n^2 ~ 0 at n = {poles.n[hit[0]]}")
    pref = 2j * k * poles.u0 / denom
    if internal:
        u_x = ((q - kn) * np.exp(1j * q * x)
               + (q + kn) * np.exp(-1j * q * x)) * inv_sqrt
        return pref * u_x, kn
    return pref * poles.uL * np.exp(-1j * kn * sys.L), kn
