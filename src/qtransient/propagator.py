"""Transient shutter wavefunction for the rectangular barrier.

The wave released at t = 0 from the cutoff initial state
Theta(-x)(e^{ikx} - e^{-ikx}) is assembled from stationary amplitudes plus a
sum over the resonance poles:

    internal (0 <= x <= L):
        Psi = Phi_k(x) M0(k) - Phi_{-k}(x) M0(-k) - sum_n Phi_n(x) M0(k_n)
    external (x >= L):
        Psi = T_k M(x,k) - T_{-k} M(x,-k) - sum_n T_n M(x,k_n)

where M(x,q) is the Moshinsky function at time t and M0(q) = M(0,q) -- in
the internal region all position dependence lives in the coefficients, so
the Moshinsky arguments are evaluated at the shutter position x = 0.  Both
sums run over the full pole set, each k_n with its mirror k_{-n} = -conj k_n.
For real k the mirror's coefficient is minus the conjugate of its partner's,
so only the k_n have coefficients evaluated; the mirror terms follow from them.

Convention note: transcriptions of these solutions disagree about an extra
-i on the external pole sum and about the external Moshinsky argument
(x versus x - L).  The forms above were fixed empirically, exactly once, by
requiring interface continuity at x = L and agreement with the grid oracle;
they are also the unique pair consistent with the transmission-pole residue
identity res T(k_n) = i u_n(0) u_n(L) e^{-i k_n L}, which this package
verifies numerically in its test suite.

Closing the pole sums.  Write M(x,q) = (1/2) e^{i a^2/t} w(z) with
z = e^{i pi/4} s (k_c - q), s = sqrt(c2 t/hbar), k_c = hbar x/(2 c2 t) and
a = x sqrt(hbar/4 c2) (internally x = 0, so k_c = 0 and the phase is 1).
The first N poles, their mirrors and any antibound poles are summed term by
term.  Every later pole has a large |z|, where (Abramowitz & Stegun 7.1.23)

    w(z) ~ 2 e^{-z^2} [Im z < 0] + i/(sqrt(pi) z) sum_{j<=J} (2j-1)!!/(2z^2)^j,

so their share of the sum is sum_j alpha_j(t) mu_{2j+1} with the moments
mu_m = sum_q c_q/(k_c - q)^m of the omitted poles, plus the damped resonance
exponentials c_q e^{iqx - i c2 q^2 t/hbar} of those with Im z < 0.  Over
every pole the first moment is a closed form, the Mittag-Leffler expansion
of the stationary amplitude f (T outside, Phi(x, .) inside):

    sum_q c_q/(c - q) = f(k)/(c - k) - f(-k)/(c + k) + 2k f(c)/(k^2 - c^2),

and the higher moments are its Taylor coefficients.  Inside, k_c = 0 for
every t: a Cauchy integral of this form minus the exact poles, on a ring
inside the first omitted pole, gives every moment once per call.  Outside,
a small Cauchy circle around each k_c gives mu_1 .. mu_{2J+1} of all poles,
from which the exact poles' share is subtracted; mu_{2J+2}, which only
dPsi/dt needs, converges fast and is summed directly over a pool of the
next poles, which also carries the exponentials.

Both counts are set before any sum, for an absolute target of tol * _AIM
times the stationary amplitude |f(k)|; times whose |Psi| turns out far
below |f(k)| are summed once more, sized from |Psi|.  The pool is sized at
the earliest time, where |z| of every omitted pole is smallest: it doubles
until what lies beyond it is within half the target and it holds twice the
exact poles that time needs.  Each time then takes the least N whose first
omitted series term, bounded pole by pole, is within the other half,
rounded up to a power of two.  The two halves, relative to |Psi|, are each
point's trunc_error_est.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NonPositiveParameter, NonPositiveTime, NotConverged,
                     PoleSetMismatch, XOutOfRange)
from .moshinsky import moshinsky_m_dt
from .resonances import PoleSet, expansion_coeffs, find_poles
from .stationary import phi_stationary, transmission
from .systems import HBAR_EV_FS as HBAR
from .systems import BarrierSystem

DEFAULT_TOL = 1e-8
HARD_CAP = 2048
_POOL = 32          # first pool size; it doubles from here as needed
_ORDER = {True: 3, False: 1}   # J, the last series term kept: inside, outside
_Z_MIN = 3.0        # least s (Re q - k_c) of an omitted pole
# Sums are sized for tol * _AIM where the cap allows.  The tail error falls
# steeply with N, so the margin costs few poles (97 -> 111 at the earliest
# time of a GaAs edge scan), and it keeps dPsi/dt, and with it omega_av and
# t_max, inside tol.
_AIM = 1e-3
_RING = 64          # Cauchy nodes of the internal moments
_ARC = 16           # Cauchy nodes around each external k_c
_ROWS = 128         # times per block of the external pool moment
# Most radius x L of the internal ring: a wider ring passes near more exact
# poles, whose cancelling terms cost digits (3e-12 at 300 / L, alpha = 1).
_RING_MAX = 20.0
_DFACT = (1, 1, 3, 15, 105)    # (2j - 1)!!
_C0 = 0.5j * cmath.exp(-0.25j * math.pi) / math.sqrt(math.pi)
SMALL_T_GUARD = 1e-4  # fs; below this the released wave has not reached x > 0


@dataclass(frozen=True)
class WaveSample:
    x: float
    t: float
    psi: complex
    dpsi_dt: complex
    n_terms_used: int
    trunc_error_est: float


@dataclass(frozen=True)
class WaveTrace:
    """Psi(x, t) on a fixed-x time grid, with analytic time derivatives.

    n_terms_used counts the Moshinsky terms summed exactly at the time
    that needs the most, as a rule the earliest: the two incident ones, the
    N exact poles with their mirrors, and any antibound poles.
    trunc_error_est is each point's estimated error of the closed-form
    tail, relative to |Psi|.
    """

    x: float
    times: np.ndarray
    psi: np.ndarray
    dpsi_dt: np.ndarray
    n_terms_used: int
    trunc_error_est: np.ndarray
    system: BarrierSystem

    @property
    def abs2(self):
        return np.abs(self.psi) ** 2


def _moshinsky_block(x_arg, q, t, c2):
    """M and dM/dt for every (t_i, q_j): t (T,), q (Q,) -> (T, Q).

    x_arg is the position entering the Moshinsky argument (0 for the
    internal solution).
    """
    return moshinsky_m_dt(x_arg, np.asarray(q, dtype=complex)[None, :],
                          np.asarray(t, dtype=float)[:, None], c2)


def _scales(x_arg, t, c2):
    """(s, k_c, a^2/t) of the Moshinsky argument at times t."""
    return (np.sqrt(c2 * t / HBAR), HBAR * x_arg / (2.0 * c2 * t),
            HBAR * x_arg * x_arg / (4.0 * c2 * t))


def _alpha(j, s, phase):
    """Weight alpha_j(t) of mu_{2j+1} in the large-|z| form of a pole sum."""
    return _C0 * _DFACT[j] * (-0.5j) ** j * phase / s ** (2 * j + 1)


def _resolvent(c, f_c, f_k, k):
    """sum_q c_q/(c - q) over every pole, mirrors and antibound included."""
    return (f_k[0] / (c - k) - f_k[1] / (c + k)
            + 2.0 * k * f_c / (k * k - c * c))


def _bound(kc, q, c, m):
    """sum_n |c_n| (|kc - q_n|^-m + |kc + conj q_n|^-m) per pole n, (T, n)."""
    return np.abs(c) * (np.abs(kc[:, None] - q) ** -m
                        + np.abs(kc[:, None] + q.conj()) ** -m)


def _beyond(coefs, kn, s, kc):
    """Estimated sum of the damped exponentials past the pool, per time.

    |c| e^{-2 s^2 (Re q - k_c) |Im q|} falls off faster than geometrically
    once Re q > k_c; the remainder is taken geometric from the last two
    pool poles, and infinite while they do not yet fall.
    """
    ahead = kn[-2:].real - kc[:, None]
    damp = np.abs(coefs[-2:]) * np.exp(
        2.0 * s[:, None] ** 2 * np.maximum(ahead, 0.0) * kn[-2:].imag)
    ratio = damp[:, 1] / np.maximum(damp[:, 0], 1e-300)
    return np.divide(damp[:, 1] * ratio, 1.0 - ratio,
                     out=np.full(len(s), np.inf),
                     where=(ratio < 1.0) & (ahead[:, 0] > 0.0))


def _omitted(s, kc, kn, coefs, J):
    """(weight, later): the first omitted series term, bounded pole by pole
    over the pool, is weight[i] * later[i, n] at time i when the poles from
    n on are left to the series; later has P + 1 columns.

    Inside, k_c = 0 at every time, so later has one row for all times.
    """
    rows = kc[:1] if not np.any(kc) else kc
    bound = _bound(rows, kn, coefs, 2 * J + 3)
    later = np.zeros((len(rows), len(kn) + 1))
    later[:, :-1] = np.cumsum(bound[:, ::-1], axis=1)[:, ::-1]
    return np.abs(_alpha(J + 1, s, 1.0)), later


def _exact_count(weight, later, s, kc, kn, target):
    """Least exact-pole count per time whose omitted term is within target,
    and never short of a pole with Re q below k_c + _Z_MIN / s."""
    return np.maximum(np.sum(later > (target / weight)[:, None], axis=1),
                      np.searchsorted(kn.real, kc + _Z_MIN / s))


def _size(x, s0, kc0, sys, table, internal, tol, scale):
    """(coefs, kn): the pole pool and its coefficients for times from the
    one with scale s0 and centre kc0 (1-element arrays) on.

    The pool starts at _POOL poles and doubles until it holds twice the
    exact poles that time needs and its remainder is within half the
    absolute target tol * _AIM * scale; the omitted series term takes the
    other half.  At the cap the target relaxes to tol * scale before
    NotConverged is raised.
    """
    J = _ORDER[internal]
    coefs = kn = np.zeros(0, dtype=complex)
    p = _POOL
    while True:
        c_new, k_new = expansion_coeffs(x, sys.k, table[len(kn):p], sys,
                                        internal)
        coefs, kn = np.concatenate((coefs, c_new)), np.concatenate((kn, k_new))
        weight, later = _omitted(s0, kc0, kn, coefs, J)
        rem = _beyond(coefs, kn, s0, kc0)[0]
        for target in ((tol * _AIM * scale, tol * scale) if p >= HARD_CAP
                       else (tol * _AIM * scale,)):
            n = int(_exact_count(weight, later, s0, kc0, kn, 0.5 * target)[0])
            if 2 * n <= p and rem <= 0.5 * target:
                return coefs, kn
        if p >= HARD_CAP:
            n = min(n, p // 2)
            est = (weight[0] * later[0, n] + rem) / scale
            t0 = HBAR * s0[0] ** 2 / sys.c2
            raise NotConverged(
                f"pole sum at x={float(x)} cannot reach tol={tol:.1e} within "
                f"{HARD_CAP} poles (cap {HARD_CAP}): worst t={t0:.6g} fs, "
                f"error estimate {est:.1e} with N={n} exact poles")
        p = min(2 * p, HARD_CAP)


def _moments(kc, head, tail, f, f_k, sys, J, internal):
    """mu_1 .. mu_{2J+2} of the omitted poles at each k_c, shape (2J+2, T).

    head and tail are (q, c) arrays of the exact and omitted pool poles,
    mirrors included.  Inside, one ring of radius half the least omitted
    |q| carries the closed form minus the exact poles, which leaves a
    function analytic inside the ring whose Taylor coefficients are the
    omitted moments.  Outside, a circle of radius one eighth of the
    distance to the nearest pole, kept clear of the removable points
    c = +-k, gives mu_1 .. mu_{2J+1} of all poles, and the exact poles'
    share is subtracted; mu_{2J+2}, which only dPsi/dt uses, is summed
    directly over the pool.
    """
    (hq, hc), (tq, tc) = head, tail
    k = sys.k
    if internal:
        r = min(0.5 * np.min(np.abs(tq)), _RING_MAX / sys.L)
        theta = 2.0 * math.pi * (np.arange(_RING) + 0.5) / _RING
        c = r * np.exp(1j * theta)
        g = _resolvent(c, f(c), f_k, k) - (1.0 / (c[:, None] - hq)) @ hc
        # Taylor coefficient a_m = mean g c^-m; mu_{m+1} = (-1)^m a_m
        m = np.arange(2 * J + 2)
        mu = np.exp(-1j * np.outer(m, theta)) @ g / (_RING * (-r) ** m)
        return np.repeat(mu[:, None], len(kc), axis=1)
    d_head = kc[:, None] - hq
    near = np.min(np.abs(d_head), axis=1, initial=np.inf)
    mu_last = np.empty(len(kc), dtype=complex)
    # the pool runs to thousands of poles: take its (time, pole) terms in
    # blocks of rows of equal size, since a lone row would take numpy's dot
    # path, which rounds differently from the matrix product of the rest
    for rows in np.array_split(np.arange(len(kc)), -(-len(kc) // _ROWS) or 1):
        d_tail = kc[rows, None] - tq
        near[rows] = np.minimum(near[rows], np.min(np.abs(d_tail), axis=1))
        mu_last[rows] = (1.0 / d_tail) ** (2 * J + 2) @ tc
    r = near / 8.0
    # the closed form cancels near c = +-k: keep every node r from them
    dk = np.minimum(np.abs(kc - k), kc + k)
    r = np.where((dk >= 0.5 * r) & (dk <= 2.0 * r), 0.5 * dk, r)
    theta = 2.0 * math.pi * (np.arange(_ARC) + 0.5) / _ARC
    c = kc[:, None] + r[:, None] * np.exp(1j * theta)
    circle = _resolvent(c, f(c), f_k, k)
    inv_h = 1.0 / d_head
    mu, power = [], np.ones_like(inv_h)
    for m in range(2 * J + 1):
        power = power * inv_h
        mu.append(np.mean(circle * np.exp(-1j * m * theta), axis=1)
                  / (-r) ** m - power @ hc)
    mu.append(mu_last)
    return np.array(mu)


def _sum_at(n, x, t, coefs, kn, axis, f, f_k, sys, internal):
    """sum_q c_q M(q) and its time derivative with n exact poles."""
    J = _ORDER[internal]
    c2 = sys.c2
    x_arg = 0.0 if internal else x
    mirror_c, mirror_k = -coefs.conj(), -kn.conj()
    # antibound poles are their own mirrors: each enters once, always exact
    head = (np.concatenate((kn[:n], mirror_k[:n], axis[1])),
            np.concatenate((coefs[:n], mirror_c[:n], axis[0])))
    tail = (np.concatenate((kn[n:], mirror_k[n:])),
            np.concatenate((coefs[n:], mirror_c[n:])))
    m, dm = _moshinsky_block(x_arg, head[0], t, c2)
    total, dtotal = m @ head[1], dm @ head[1]
    del m, dm

    s, kc, a2t = _scales(x_arg, t, c2)
    phase = np.exp(1j * a2t)
    mu = _moments(kc, head, tail, f, f_k, sys, J, internal)
    for j in range(J + 1):
        al = _alpha(j, s, phase)
        total += al * mu[2 * j]
        # d alpha_j/dt = alpha_j (-i a^2/t - j - 1/2)/t and
        # d mu_m/dt = m mu_{m+1} k_c/t
        dtotal += al / t * ((-1j * a2t - j - 0.5) * mu[2 * j]
                            + (2 * j + 1) * kc * mu[2 * j + 1])

    # damped exponentials of the pool's omitted poles with Im z < 0, up to
    # the last one that does not underflow (exp < -745) at the earliest time
    kt, ct = kn[n:], coefs[n:]
    i0 = int(np.argmin(t))
    live = np.flatnonzero(2.0 * s[i0] ** 2 * (kt.real - kc[i0]) * kt.imag
                          > -745.0)
    last = live[-1] + 1 if live.size else 0
    kt, ct = kt[:last], ct[:last]
    rate = -1j * (c2 / HBAR) * kt * kt
    e = np.multiply.outer(t, rate)
    e += 1j * kt * x_arg
    e[kt.real + kt.imag <= kc[:, None]] = -1e3    # Im z >= 0: no term
    np.exp(e, out=e)
    total += e @ ct
    dtotal += e @ (rate * ct)
    return total, dtotal


def _pole_sum(x, t, sys, table, internal, f, f_k, tol, scale):
    """sum_q c_q M(q) and its time derivative over every pole, at times t.

    Each time gets the least exact-pole count that meets the absolute
    target tol * _AIM * scale, rounded up to a power of two so that few
    distinct sums run; the pool is sized at the earliest time, which needs
    the most.  Returns (sum, dsum, est, n): est is the absolute error
    estimate per time and n the largest count.
    """
    J = _ORDER[internal]
    s, kc, _ = _scales(0.0 if internal else x, t, sys.c2)
    i0 = [int(np.argmin(t))]
    coefs, kn = _size(x, s[i0], kc[i0], sys, table, internal, tol, scale)
    weight, later = _omitted(s, kc, kn, coefs, J)
    need = _exact_count(weight, later, s, kc, kn, 0.5 * tol * _AIM * scale)
    level = np.minimum(2 ** np.ceil(np.log2(np.maximum(need, 1))).astype(int),
                       min(need.max(), len(kn) // 2))
    axis = expansion_coeffs(x, sys.k, table.axis_poles, sys, internal)
    total = np.empty(len(t), dtype=complex)
    dtotal = np.empty(len(t), dtype=complex)
    for n in np.unique(level):
        rows = np.flatnonzero(level == n)
        total[rows], dtotal[rows] = _sum_at(int(n), x, t[rows], coefs, kn,
                                            axis, f, f_k, sys, internal)
    est = (weight * later[np.arange(len(t)) % len(later), level]
           + _beyond(coefs, kn, s, kc))
    return total, dtotal, est, int(level.max())


def _assemble(x, t_grid, sys, poles, tol, internal):
    """Shared evaluator for both regions; returns psi, dpsi, n_used, err."""
    check_x(x)
    check_tol(tol)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0):
        raise NonPositiveTime("times must be > 0")
    table = pole_cache(sys, poles)
    k = sys.k
    x_arg = 0.0 if internal else x

    def f(c):
        return phi_stationary(x, c, sys) if internal else transmission(c, sys)

    f_k = f(np.array([k, -k]))
    m_inc, dm_inc = _moshinsky_block(x_arg, np.array([k, -k]), t_grid, sys.c2)
    head = m_inc @ (f_k * [1.0, -1.0])
    dhead = dm_inc @ (f_k * [1.0, -1.0])

    psi = np.zeros(t_grid.shape, dtype=complex)
    dpsi = np.zeros(t_grid.shape, dtype=complex)
    err = np.zeros(t_grid.shape)
    n_poles = 0
    live = np.flatnonzero(t_grid >= SMALL_T_GUARD)
    if live.size:
        t = t_grid[live]
        # size the sums against the stationary amplitude; points whose |psi|
        # lies so far below it that they miss tol are summed once more,
        # sized from |psi|
        total, dtotal, est, n_poles = _pole_sum(
            x, t, sys, table, internal, f, f_k, tol, abs(f_k[0]))
        p = head[live] - total
        redo = np.flatnonzero(est > tol * np.abs(p))
        if redo.size:
            floor = max(float(np.min(np.abs(p[redo]))), 1e-300)
            total[redo], dtotal[redo], est[redo], n_redo = _pole_sum(
                x, t[redo], sys, table, internal, f, f_k, tol, 0.5 * floor)
            p[redo] = head[live][redo] - total[redo]
            n_poles = max(n_poles, n_redo)
        rel = est / np.maximum(np.abs(p), 1e-300)
        if np.any(rel > tol):
            worst = int(np.argmax(rel))
            raise NotConverged(
                f"pole sum at x={float(x)} above tol={tol:.1e} at "
                f"{int(np.sum(rel > tol))} of {len(t)} time points; worst "
                f"t={t[worst]:.6g} fs, error estimate {rel[worst]:.1e} "
                f"with N={n_poles} exact poles")
        psi[live], dpsi[live], err[live] = p, dhead[live] - dtotal, rel
    return psi, dpsi, 2 + 2 * n_poles + len(table.axis_poles), err


def check_x(x):
    """Reject a probe position the expansions cannot evaluate."""
    if not 0 <= x < np.inf:
        raise XOutOfRange(
            f"x must be finite and >= 0 (reflection region not modeled), got x={x}")


def check_tol(tol):
    """Reject a pole-sum tolerance no sum can meet or that means nothing."""
    if not 0 < tol < np.inf:
        raise NonPositiveParameter(f"tol must be finite and > 0, got tol={tol}")


def trace(x, t_grid, sys: BarrierSystem, poles=None,
          tol=DEFAULT_TOL) -> WaveTrace:
    """Transient wavefunction at fixed x over a time grid.

    Uses the internal expansion for x <= L, the external one for x >= L
    (identical at x = L up to truncation).  `poles` may be a PoleSet of
    this system, as pole_cache returns it, to share between traces; a
    shorter one is replaced by a full table.  Only the poles are shared:
    each trace computes the expansion coefficients of its pole pool.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or not np.isfinite(t_grid).all() \
            or np.any(np.diff(t_grid) <= 0):
        raise NonPositiveTime(
            "time grid must be nonempty, finite and strictly increasing")
    psi, dpsi, n_used, err = _assemble(x, t_grid, sys, poles, tol, x <= sys.L)
    return WaveTrace(x=float(x), times=t_grid, psi=psi, dpsi_dt=dpsi,
                     n_terms_used=n_used, trunc_error_est=err, system=sys)


def _sample(x, t, sys, poles, tol, internal) -> WaveSample:
    if not 0 < t < np.inf:
        raise NonPositiveTime(f"t must be finite and > 0, got t={t}")
    psi, dpsi, n_used, err = _assemble(x, np.array([t]), sys, poles, tol,
                                       internal)
    return WaveSample(float(x), float(t), complex(psi[0]), complex(dpsi[0]),
                      n_used, float(err[0]))


def psi_internal(x, t, sys: BarrierSystem, poles=None,
                 tol=DEFAULT_TOL) -> WaveSample:
    """Barrier-region evaluation at one (x, t), 0 <= x <= L."""
    if not 0.0 <= x <= sys.L * (1 + 1e-12):
        raise XOutOfRange("psi_internal requires 0 <= x <= L")
    return _sample(x, t, sys, poles, tol, True)


def psi_external(x, t, sys: BarrierSystem, poles=None,
                 tol=DEFAULT_TOL) -> WaveSample:
    """Transmitted-region evaluation at one (x, t), x >= L."""
    if x < sys.L * (1 - 1e-12):
        raise XOutOfRange("psi_external requires x >= L")
    return _sample(x, t, sys, poles, tol, False)


def pole_cache(sys: BarrierSystem, base: PoleSet | None = None) -> PoleSet:
    """The pole table of sys that traces share: HARD_CAP poles, found once.

    A `base` of this system that holds HARD_CAP poles is returned as it is;
    a shorter one is replaced by a fresh search, whose first rows are the
    same.  Poles found for another system raise PoleSetMismatch.
    """
    if base is not None and base.system != sys:
        raise PoleSetMismatch(
            f"poles found for {base.system} cannot serve {sys}")
    if base is not None and len(base) >= HARD_CAP:
        return base
    return find_poles(sys, HARD_CAP, audit=False)
