"""Complex resonance poles of the barrier and their Gamow-state data.

The poles k_n are the zeros of the transmission denominator, located with
Newton's method from asymptotic seeds and certified by an argument-principle
zero count over the scanned rectangle of the complex k-plane.  For each pole
the resonant eigenfunction u_n is known in closed form up to normalization;
the normalization integral

    int_0^L u_n^2 dx + i (u_n(0)^2 + u_n(L)^2) / (2 k_n) = 1

is evaluated analytically (no quadrature).  The overall sign of sqrt leaves
u_n defined up to a global sign, which cancels in every product the
expansion coefficients use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (CountMismatch, DuplicatePole, NormalizationSingular,
                     PoleCollision, PoleNotConverged)
from .stationary import _q_of_k, pole_function, pole_function_scale
from .systems import BarrierSystem

RESIDUAL_TOL = 1e-12
_NEWTON_MAX_ITER = 60


def _log_pole_eq(k, sys):
    """H(k) = 2iqL - 2 Log((k+q)/(k-q)), reduced mod 2 pi i.

    Equivalent zero set to the transmission denominator, but free of the
    exponential cancellation that limits D(k) near machine precision; the
    derivative is exactly (2iLk - 4)/q.
    """
    v = sys.v_strength
    q = complex(_q_of_k(k, v))
    # avoid the cancelling difference: (k+q)(k-q) = v exactly
    if abs(k - q) < 0.1 * abs(k):
        ratio = (k + q) ** 2 / v
    elif abs(k + q) < 0.1 * abs(k):
        ratio = v / (k - q) ** 2
    else:
        ratio = (k + q) / (k - q)
    h = 2j * q * sys.L - 2.0 * cmath.log(ratio)
    h -= 2j * math.pi * round(h.imag / (2 * math.pi))
    return h, q


def _pole_residual(k, sys):
    """Backward error of the pole equation: |H/H'| relative to max(1, |k|).

    This is the dimensionless distance from k to the true zero, which is the
    quantity a double-precision root can actually drive to ~eps (the raw
    |H(k)| has an unavoidable floor ~eps * |k| L at large |k|).
    """
    k = complex(k)
    h, q = _log_pole_eq(k, sys)
    return abs(h * q / (2j * sys.L * k - 4.0)) / max(1.0, abs(k))


def _newton_refine(k0, sys, avoid=()):
    """Newton iteration on the log-form pole equation, analytic derivative.

    `avoid` lists already-found zeros; Maehly deflation steers the iteration
    away from them (needed at small opacity where neighboring seeds share a
    basin of attraction).
    """
    k = complex(k0)
    best_k, best_h = k, math.inf
    for _ in range(_NEWTON_MAX_ITER):
        h, q = _log_pole_eq(k, sys)
        if abs(h) < best_h:
            best_k, best_h = k, abs(h)
        hp = (2j * sys.L * k - 4.0) / q
        for kj in avoid:
            hp -= h / (k - kj)
        step = h / hp
        k -= step
        if abs(step) < 1e-15 * max(1.0, abs(k)):
            break
    h, _ = _log_pole_eq(k, sys)
    return k if abs(h) <= best_h or avoid else best_k


def _seed(n, sys):
    """Asymptotic pole location.

    Resonances sit near q L = n pi, so Re k ~ sqrt((n pi / L)^2 + v) -- the
    barrier shift matters for the lowest n at large opacity.  The imaginary
    part follows the slow logarithmic growth law.
    """
    L = sys.L
    v = sys.v_strength
    a = math.sqrt((n * math.pi / L) ** 2 + v)
    arg = 16.0 * a**4 / v**2
    b = max(math.log(arg) / (2 * L), 0.05 / L)
    return complex(a, -b)


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
    g = np.abs(pole_function(kk, sys)) / pole_function_scale(kk, sys)
    for kj in avoid:
        g = g / np.minimum(np.abs(kk - kj), 1.0)
    i, j = np.unravel_index(np.argmin(g), g.shape)
    return complex(kk[i, j])


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


def gamow_boundary_data(k_n: complex, sys: BarrierSystem):
    """Normalized (u_n(0), u_n(L)) for a converged pole k_n.

    Also returns the raw ingredients (q, 1/sqrt(norm)) so u_n(x) can be
    rebuilt with a consistent sqrt branch.
    """
    k = complex(k_n)
    q = complex(_q_of_k(k, sys.v_strength))
    L = sys.L
    p_c = q - k     # coefficient of exp(+iqx)
    q_c = q + k     # coefficient of exp(-iqx)
    u0 = p_c + q_c  # = 2q
    uL = p_c * cmath.exp(1j * q * L) + q_c * cmath.exp(-1j * q * L)
    integral = (p_c**2 * (cmath.exp(2j * q * L) - 1.0) / (2j * q)
                + q_c**2 * (1.0 - cmath.exp(-2j * q * L)) / (2j * q)
                + 2.0 * p_c * q_c * L)
    norm = integral + 1j * (u0**2 + uL**2) / (2 * k)
    scale = abs(integral) + abs(u0**2 + uL**2) / (2 * abs(k))
    if abs(norm) < 1e-12 * scale:
        raise NormalizationSingular(f"vanishing Gamow norm at k = {k}")
    inv_sqrt = 1.0 / cmath.sqrt(norm)
    return u0 * inv_sqrt, uL * inv_sqrt, q, inv_sqrt


def _build_pole(n, k, sys) -> ResonancePole:
    res = _pole_residual(k, sys)
    if res > RESIDUAL_TOL:
        raise PoleNotConverged(n, f"(residual {res:.2e})")
    u0, uL, q, inv_sqrt = gamow_boundary_data(k, sys)
    return ResonancePole(n=n, k=k, E=sys.c2 * k * k, u0=u0, uL=uL,
                         residual=res, q=q, inv_sqrt_norm=inv_sqrt)


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
    out = []
    for f in flips:
        k = _newton_refine(-1j * 0.5 * (y[f] + y[f + 1]), sys)
        k = complex(0.0, k.imag)  # polish can drift off-axis at roundoff level
        if _pole_residual(k, sys) > RESIDUAL_TOL or k.imag >= 0:
            continue
        if any(abs(k - p) < 1e-10 for p in out):
            continue
        out.append(k)
    return tuple(_build_pole(0, k, sys) for k in sorted(out, key=lambda z: -z.imag))


@dataclass(frozen=True)
class PoleSet:
    """The first N positive-Re poles (plus any imaginary-axis antibound
    poles), sorted by ascending Re k_n."""

    system: BarrierSystem
    poles: tuple
    N_max: int
    axis_poles: tuple = ()

    def __len__(self):
        return len(self.poles)


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
    n = len(poleset.poles)
    a_max = max(p.k.real for p in poleset.poles)
    b_max = max(-p.k.imag for p in poleset.poles)
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
    g = np.abs(pole_function(kk, sys)) / pole_function_scale(kk, sys)
    from scipy.ndimage import minimum_filter
    # the prune threshold only rejects obvious non-basins: very narrow poles
    # (opaque barriers) leave a shallow dip on this grid, so keep anything
    # below 0.5 and let Newton + the residual test decide
    mins = (g == minimum_filter(g, size=5)) & (g < 0.5)
    out = []
    for i, j in zip(*np.where(mins)):
        k = _newton_refine(complex(kk[i, j]), sys)
        if (_pole_residual(k, sys) > RESIDUAL_TOL or k.imag >= 0
                or not 1e-6 / L < k.real <= re[-1]):
            continue
        if not any(abs(k - kj) < 1e-8 * max(1.0, abs(k)) for kj in out):
            out.append(k)
    return sorted(out, key=lambda z: z.real)


def _next_rung(re_max, sys):
    """Ladder index of the next pole above the largest found Re."""
    q2 = re_max * re_max - sys.v_strength
    if q2 <= (0.5 * math.pi / sys.L) ** 2:
        return 1
    return int(math.floor(math.sqrt(q2) * sys.L / math.pi + 0.5)) + 1


def find_poles(sys: BarrierSystem, N: int, audit: bool = True,
               previous: PoleSet | None = None) -> PoleSet:
    """Locate the N poles of smallest positive Re k_n.

    Deterministic: a dense scan of the irregular low-|k| zone, then Newton
    down the asymptotic seed ladder, each rung chosen from the largest Re
    found so far.  Pass a previous PoleSet for the same system to extend it
    without recomputation.
    """
    if N < 1:
        raise PoleNotConverged(N, "(need N >= 1)")
    if previous is not None and previous.system == sys:
        known = list(previous.poles[:N])
        axis = previous.axis_poles
    else:
        known = []
        axis = find_axis_poles(sys)
    poles = list(known)
    found = [p.k for p in poles] + [p.k for p in axis]
    found_arr = np.array(found, dtype=complex)
    re_max = max((p.k.real for p in poles), default=0.0)  # strips only, no axis

    def claimed(k):
        return bool(np.any(np.abs(found_arr - k) <= 1e-8 * max(1.0, abs(k))))

    def add(k):
        nonlocal found_arr, re_max
        found.append(k)
        found_arr = np.append(found_arr, k)
        re_max = max(re_max, k.real)
        poles.append(_build_pole(len(poles) + 1, k, sys))

    if not known:
        for k in _scan_low_zone(sys):
            if not claimed(k):
                add(k)
    attempts = 0
    while len(poles) < N:
        attempts += 1
        if attempts > 2 * N + 16:
            raise PoleNotConverged(len(poles) + 1, "(ladder stalled)")
        m = _next_rung(re_max, sys)
        k = _newton_refine(_seed(m, sys), sys)
        if (_pole_residual(k, sys) > RESIDUAL_TOL
                or k.real <= 0 or k.imag >= 0
                or abs(k.real - _seed(m, sys).real) > 0.75 * math.pi / sys.L):
            k = _newton_refine(_grid_rescue(m, sys), sys)
        if claimed(k):
            # seed fell into an already-claimed basin; deflate and retry
            k = _newton_refine(_grid_rescue(m, sys, avoid=tuple(found)),
                               sys, avoid=tuple(found))
            if (claimed(k)
                    or _pole_residual(k, sys) > RESIDUAL_TOL
                    or k.real <= 0 or k.imag >= 0):
                raise DuplicatePole(f"could not separate pole {len(poles) + 1} near {k}")
        add(k)
    poles.sort(key=lambda p: p.k.real)
    poles = poles[:N]
    for i in range(len(poles) - 1):
        if abs(poles[i].k - poles[i + 1].k) <= 1e-8:
            raise DuplicatePole(f"poles {i + 1} and {i + 2} coincide at {poles[i].k}")
    poles = tuple(p if p.n == i + 1 else replace(p, n=i + 1)
                  for i, p in enumerate(poles))
    ps = PoleSet(system=sys, poles=poles, N_max=N, axis_poles=axis)
    if audit:
        audit_pole_count(ps)
    return ps


def expansion_coeffs(x, k: float, poles, sys: BarrierSystem, internal: bool):
    """One region's expansion coefficients over a sequence of poles.

    internal: Phi_n(x) = 2ik u_n(0) u_n(x) / (k^2 - k_n^2)
    external: T_n      = 2ik u_n(0) u_n(L) exp(-i k_n L) / (k^2 - k_n^2)

    Returns (coefs, kn), complex arrays with one entry per pole, u_n(x)
    evaluated as in ResonancePole.u_at.  For real k the mirror pole
    k_{-n} = -conj k_n has coefficient -conj of its partner's, so the
    mirrors need no entries of their own.
    """
    kn, q, inv_sqrt, u0, uL = np.array(
        [(p.k, p.q, p.inv_sqrt_norm, p.u0, p.uL) for p in poles],
        dtype=complex).reshape(-1, 5).T
    denom = k * k - kn * kn
    hit = np.flatnonzero(np.abs(denom) < 1e-14)
    if len(hit):
        raise PoleCollision(f"k^2 - k_n^2 ~ 0 at n = {poles[hit[0]].n}")
    pref = 2j * k * u0 / denom
    if internal:
        u_x = ((q - kn) * np.exp(1j * q * x)
               + (q + kn) * np.exp(-1j * q * x)) * inv_sqrt
        return pref * u_x, kn
    return pref * uL * np.exp(-1j * kn * sys.L), kn
