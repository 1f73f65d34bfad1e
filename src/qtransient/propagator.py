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
inside the first pole any time omits, gives every moment once per pass.
Outside, a small Cauchy circle around each k_c gives mu_1 .. mu_{2J+1} of
all poles, from which the exact poles' share is subtracted; mu_{2J+2},
which only dPsi/dt needs, converges fast and is summed directly over a
pool of the next poles, which also carries the exponentials.

Both counts are set before any sum, for an absolute target of tol * _AIM
times the stationary amplitude |f(k)|; times whose |Psi| turns out far
below |f(k)| are summed once more, sized from |Psi|.  The pool is sized at
the earliest time, where |z| of every omitted pole is smallest: it doubles
until what lies beyond it is within half the target and it holds twice the
exact poles that time needs, and each doubling evaluates only the poles it
adds.  Its rows come from the shared table of HARD_CAP // 4 poles while
they fit, and from one search of HARD_CAP poles when they do not; the
first n poles of a search do not depend on its depth, so the sums do not
either.  Each time then takes the least N whose first
omitted series term, bounded pole by pole, is within the other half, and
sums exactly those N in one pass: one Moshinsky call (per _PAIRS terms)
over each time's exact poles, the incident pair included; one set of
Cauchy nodes, less each time's own exact-pole share, read off a prefix sum
along the pool at its N; and only the damped exponentials before a cut
past which a bound on the rest, never evaluated, is within _CUT times the
target.  The two halves and that bound, relative to |Psi|, are each
point's trunc_error_est.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (MergingPolePair, NonPositiveParameter, NonPositiveTime,
                     NotConverged, PoleSetMismatch, XOutOfRange)
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
_ROWS = 128         # times per block of the external pool moments
_PAIRS = 1 << 13    # (time, pole) pairs per Moshinsky call
_CUT = 1e-3         # the dropped exponentials' share of the target
# Most radius x L of the internal ring: a wider ring passes near more exact
# poles, whose cancelling terms cost digits (3e-12 at 300 / L, alpha = 1).
_RING_MAX = 20.0
_DFACT = np.array([1, 1, 3, 15, 105])    # (2j - 1)!!
_C0 = 0.5j * cmath.exp(-0.25j * math.pi) / math.sqrt(math.pi)
SMALL_T_GUARD = 1e-4  # fs; below this the released wave has not reached x > 0
# Relative error of a pole sum near alpha_m, from the two poles that merge
# there: _MERGE_C (sep L)^-_MERGE_P.  The power is a least-squares fit in
# log-log to 38 errors over sep L = 1.9e-4 .. 5.9e-2 at u = 3, 30 and 300,
# each the worst over x = L/2, L, 3L/2 and t = 0.5-30 fs of a tol-1e-10 sum
# against the same sum with 40-digit roots and, at u = 30 and 300, against
# a pole-free quadrature; C is raised 0.61 decades, to the worst point.
_MERGE_C, _MERGE_P = 2.8e-13, 3.1


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
    """(coefs, kn, table): the pole pool and its coefficients for times from
    the one with scale s0 and centre kc0 (1-element arrays) on, and the
    table that holds the pool.

    The pool starts at _POOL poles and doubles until it holds twice the
    exact poles that time needs and its remainder is within half the
    absolute target tol * _AIM * scale; the omitted series term takes the
    other half.  At the cap the target relaxes to tol * scale before
    NotConverged is raised.  A pool that outgrows the table takes a fresh
    search of HARD_CAP poles, whose first rows are the table's.

    The omitted term's bound is a suffix sum along the pool, so a pool of
    p poles asks for at most p/2 exact poles exactly when that sum over
    its last p/2 poles is within the target and pole p/2 lies past
    k_c + _Z_MIN / s.  Each round therefore evaluates coefficients only
    for the poles it adds and bounds only for the last p/2, summed in
    _omitted's order, so it picks bitwise the pool that the exact count
    over the whole pool picks.
    """
    J = _ORDER[internal]
    weight = np.abs(_alpha(J + 1, s0, 1.0))[0]
    edge = (kc0 + _Z_MIN / s0)[0]
    coefs = kn = np.zeros(0, dtype=complex)
    p = _POOL
    while True:
        if len(table) < p:
            table = find_poles(sys, HARD_CAP)
        c_new, k_new = expansion_coeffs(x, table[len(kn):p], internal)
        coefs, kn = np.concatenate((coefs, c_new)), np.concatenate((kn, k_new))
        half = p // 2
        later = np.cumsum(_bound(kc0, kn[half:], coefs[half:],
                                 2 * J + 3)[0, ::-1])[-1]
        for target in ((tol * _AIM * scale, tol * scale) if p >= HARD_CAP
                       else (tol * _AIM * scale,)):
            # the remainder past the pool last: it is the dearest check
            if (not later > 0.5 * target / weight and kn[half].real >= edge
                    and _beyond(coefs, kn, s0, kc0)[0] <= 0.5 * target):
                return coefs, kn, table
        if p >= HARD_CAP:
            rem = _beyond(coefs, kn, s0, kc0)[0]
            weight, later = _omitted(s0, kc0, kn, coefs, J)
            n = min(int(_exact_count(weight, later, s0, kc0, kn,
                                     0.5 * target)[0]), half)
            est = (weight[0] * later[0, n] + rem) / scale
            t0 = HBAR * s0[0] ** 2 / sys.c2
            raise NotConverged(
                f"pole sum at x={float(x)} cannot reach tol={tol:.1e} within "
                f"{HARD_CAP} poles (cap {HARD_CAP}): worst t={t0:.6g} fs, "
                f"error estimate {est:.1e} with N={n} exact poles")
        p = min(2 * p, HARD_CAP)


def _offsets(n):
    """Each entry's place within its run, for consecutive runs of n[i]."""
    return np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)


def _segment_sums(values, n):
    """Sums of consecutive runs of values, n[i] entries in run i; an empty
    run sums to 0."""
    out = np.zeros(len(n), dtype=complex)
    full = n > 0
    if np.any(full):
        out[full] = np.add.reduceat(values, (np.cumsum(n) - n)[full])
    return out


def _heads(x_arg, t, level, pool, axis, f_k, sys):
    """The incident pair less the exact poles' Moshinsky terms, and its
    time derivative, per time.

    Time i sums a prefix of one list of (q, c) pairs: +-k, the antibound
    poles, then the first 2 level[i] entries of the pool.  The (time, pair)
    terms of consecutive times go to one Moshinsky call, at most _PAIRS of
    them (a lone time may hold more), and are summed per time.
    """
    n = 2 * int(level.max())
    q = np.concatenate(([sys.k, -sys.k], axis[1], pool[0][:n]))
    c = np.concatenate(([f_k[0], -f_k[1]], -axis[0], -pool[1][:n]))
    width = 2 + len(axis[1]) + 2 * level
    ends = np.cumsum(width)
    psi = np.empty(len(t), dtype=complex)
    dpsi = np.empty(len(t), dtype=complex)
    lo = 0
    while lo < len(t):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - width[lo]
                                             + _PAIRS, side="right")))
        w = width[lo:hi]
        pos = _offsets(w)
        m, dm = moshinsky_m_dt(x_arg, q[pos], np.repeat(t[lo:hi], w), sys.c2)
        c_pos = c[pos]
        psi[lo:hi] = _segment_sums(m * c_pos, w)
        dpsi[lo:hi] = _segment_sums(dm * c_pos, w)
        lo = hi
    return psi, dpsi


def _moments(kc, level, pool, axis, f, f_k, sys, J, internal):
    """mu_1 .. mu_{2J+2} of each time's omitted poles, shape (2J+2, T).

    Time i sums the first 2 level[i] entries of the pool and the antibound
    poles exactly; the rest are omitted.  Inside, one ring of radius half
    the least |q| any time omits carries the closed form minus each time's
    exact poles, which leaves a function analytic inside the ring whose
    Taylor coefficients are the omitted moments.  Outside, a circle around
    each k_c of radius one eighth of the distance to the nearest pole, kept
    clear of the removable points c = +-k, gives mu_1 .. mu_{2J+1} of all
    poles, and the exact poles' share is subtracted; mu_{2J+2}, which only
    dPsi/dt uses, is summed directly over the rest of the pool.  Each
    time's exact share is a prefix sum along the pool read at its count,
    and its rest a sum from the pool's far end back to that count, so that
    no exact pole's term cancels into the rest.
    """
    k = sys.k
    pool_q, pool_c = pool
    top, low = 2 * int(level.max()), 2 * int(level.min())
    if internal:
        r = min(0.5 * np.min(np.abs(pool_q[low:])), _RING_MAX / sys.L)
        theta = 2.0 * math.pi * (np.arange(_RING) + 0.5) / _RING
        c = r * np.exp(1j * theta)
        exact = np.zeros((_RING, top + 1), dtype=complex)
        np.cumsum(pool_c[:top] / (c[:, None] - pool_q[:top]), axis=1,
                  out=exact[:, 1:])
        g = (_resolvent(c, f(c), f_k, k)
             - (1.0 / (c[:, None] - axis[1])) @ axis[0])[:, None] \
            - exact[:, 2 * level]
        # Taylor coefficient a_m = mean g c^-m; mu_{m+1} = (-1)^m a_m
        m = np.arange(2 * J + 2)
        return (np.exp(-1j * np.outer(m, theta)) @ g
                / (_RING * (-r) ** m)[:, None])
    inv_axis = 1.0 / (kc[:, None] - axis[1])
    near = np.min(np.abs(kc[:, None] - axis[1]), axis=1, initial=np.inf)
    head = np.empty((2 * J + 1, len(kc)), dtype=complex)
    mu_last = np.empty(len(kc), dtype=complex)
    # the pool runs to thousands of poles: take _ROWS times per block
    for lo in range(0, len(kc), _ROWS):
        rows = slice(lo, lo + _ROWS)
        inv = kc[rows, None] - pool_q
        near[rows] = np.minimum(near[rows], np.min(np.abs(inv), axis=1))
        np.reciprocal(inv, out=inv)
        i, n = np.arange(len(inv)), 2 * level[rows]
        power, exact = 1.0, np.zeros((len(inv), top + 1), dtype=complex)
        for m in range(2 * J + 1):
            power = power * inv
            np.cumsum(power[:, :top] * pool_c[:top], axis=1, out=exact[:, 1:])
            head[m, rows] = exact[i, n]
        power = power * inv
        rest = np.cumsum((power[:, low:] * pool_c[low:])[:, ::-1], axis=1)
        mu_last[rows] = rest[i, len(pool_q) - 1 - n]
    r = near / 8.0
    # the closed form cancels near c = +-k: keep every node r from them
    dk = np.minimum(np.abs(kc - k), kc + k)
    r = np.where((dk >= 0.5 * r) & (dk <= 2.0 * r), 0.5 * dk, r)
    theta = 2.0 * math.pi * (np.arange(_ARC) + 0.5) / _ARC
    c = kc[:, None] + r[:, None] * np.exp(1j * theta)
    circle = _resolvent(c, f(c), f_k, k)
    mu, power = [], np.ones_like(inv_axis)
    for m in range(2 * J + 1):
        power = power * inv_axis
        mu.append(np.mean(circle * np.exp(-1j * m * theta), axis=1)
                  / (-r) ** m - head[m] - np.sum(power * axis[0], axis=1))
    mu.append(mu_last)
    return np.array(mu)


def _exponentials(x_arg, t, s, kc, level, coefs, kn, c2, thr):
    """The damped resonance exponentials c_q e^{iqx - i c2 q^2 t/hbar} of
    each time's omitted pool poles with Im z < 0, their time derivative,
    and a bound on those the cut drops, per time.

    At time i the term of q has modulus |c_q| e^{-2 s^2 |Im q| (Re q - k_c)}.
    From pole j of the pool on, |c| <= big[j], |Im q| >= low[j] and
    Re q >= left[j], so no later term exceeds
    big[j] e^{-2 s^2 low[j] max(left[j] - k_c, 0)}.  Time i evaluates its
    omitted poles up to the first j at which that bound times the poles
    left is within thr; the search holds |Im q| at low[level[i]], which
    can only move the cut later.  The bound at the cut is what is dropped.
    """
    P = len(kn)
    big = np.maximum.accumulate(np.abs(coefs)[::-1])[::-1]
    low = np.minimum.accumulate(-kn.imag[::-1])[::-1]
    left = np.minimum.accumulate(kn.real[::-1])[::-1]
    two_s2 = 2.0 * s * s
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = (np.log((P - level) * big[level] / thr)
                 / (two_s2 * low[level]))
    cut = np.maximum(level, np.searchsorted(left, kc + reach))
    j = np.minimum(cut, P - 1)
    dropped = (P - cut) * big[j] * np.exp(
        -two_s2 * low[j] * np.maximum(left[j] - kc, 0.0))
    n = cut - level
    row = np.repeat(np.arange(len(t)), n)
    pole = _offsets(n) + np.repeat(level, n)
    kt = kn[pole]
    rate = -1j * (c2 / HBAR) * kt * kt
    e = rate * t[row] + 1j * kt * x_arg
    e[kt.real + kt.imag <= kc[row]] = -1e3    # Im z >= 0: no term
    np.exp(e, out=e)
    e *= coefs[pole]
    return _segment_sums(e, n), _segment_sums(e * rate, n), dropped


def _pole_sum(x, t, sys, table, internal, f, f_k, tol, scale):
    """Psi and dPsi/dt at times t in one pass: the incident pair less the
    sum over every pole.

    Each time gets the least exact-pole count that meets the absolute
    target tol * _AIM * scale, at most half the pool; the pool is sized
    at the earliest time, which needs the most.  Every time then sums
    its own exact poles (_heads), takes the omitted poles' series from one
    set of Cauchy nodes (_moments) and evaluates only the damped
    exponentials that stay above _CUT times the target (_exponentials).
    Returns (psi, dpsi, est, n, table): est is the absolute error
    estimate per time, n the largest count and table the one that held
    the pool, which a later pass may reuse.
    """
    J = _ORDER[internal]
    x_arg = 0.0 if internal else x
    s, kc, a2t = _scales(x_arg, t, sys.c2)
    i0 = [int(np.argmin(t))]
    coefs, kn, table = _size(x, s[i0], kc[i0], sys, table, internal, tol,
                             scale)
    weight, later = _omitted(s, kc, kn, coefs, J)
    target = tol * _AIM * scale
    need = _exact_count(weight, later, s, kc, kn, 0.5 * target)
    level = np.minimum(need, len(kn) // 2)
    axis = expansion_coeffs(x, table.axis_poles, internal)
    # each pool pole followed by its mirror -conj q, whose coefficient is
    # -conj c: a time's exact poles are the first 2 level entries
    pool = (np.column_stack((kn, -kn.conj())).ravel(),
            np.column_stack((coefs, -coefs.conj())).ravel())
    psi, dpsi = _heads(x_arg, t, level, pool, axis, f_k, sys)
    mu = _moments(kc, level, pool, axis, f, f_k, sys, J, internal)
    j = np.arange(J + 1)[:, None]
    al = _alpha(j, s, np.exp(1j * a2t))
    psi -= np.sum(al * mu[0::2], axis=0)
    # d alpha_j/dt = alpha_j (-i a^2/t - j - 1/2)/t and
    # d mu_m/dt = m mu_{m+1} k_c/t
    dpsi -= np.sum(al / t * ((-1j * a2t - j - 0.5) * mu[0::2]
                             + (2 * j + 1) * kc * mu[1::2]), axis=0)
    e, de, dropped = _exponentials(x_arg, t, s, kc, level, coefs, kn, sys.c2,
                                   _CUT * target)
    psi -= e
    dpsi -= de
    est = (weight * later[np.arange(len(t)) % len(later), level]
           + _beyond(coefs, kn, s, kc) + dropped)
    return psi, dpsi, est, int(level.max()), table


def _check_merging_pair(table, tol):
    """Raise MergingPolePair where the two poles that merge at alpha_m lie
    so close that their roundoff alone costs more than tol.

    Below alpha_m they are the antibound poles; above it, pole 1 and its
    mirror -conj k_1, 2 |Re k_1| apart.  Their Gamow norms vanish with
    their separation sep, so their terms grow and cancel, and a sum loses
    about _MERGE_C (sep L)^-_MERGE_P of |Psi|.
    """
    axis = table.axis_poles.k
    below = len(axis) == 2
    sep = abs(axis[0] - axis[1]) if below else 2.0 * abs(table.k[0].real)
    sep_l = sep * table.system.L
    loss = _MERGE_C * sep_l ** -_MERGE_P if sep_l > 0.0 else math.inf
    if loss > tol:
        raise MergingPolePair(
            f"the poles that merge at alpha_m lie {sep_l:.3g}/L apart, with "
            f"alpha - alpha_m {'<' if below else '>'} 0: expected loss "
            f"{loss:.1e} of |Psi| exceeds tol={tol:.1e}")


def _assemble(x, t_grid, sys, poles, tol, internal):
    """Shared evaluator for both regions; returns psi, dpsi, n_used, err."""
    check_x(x)
    check_tol(tol)
    table = pole_cache(sys, poles)
    _check_merging_pair(table, tol)

    def f(c):
        return phi_stationary(x, c, sys) if internal else transmission(c, sys)

    f_k = f(np.array([sys.k, -sys.k]))
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
        p, dp, est, n_poles, table = _pole_sum(
            x, t, sys, table, internal, f, f_k, tol, abs(f_k[0]))
        redo = np.flatnonzero(est > tol * np.abs(p))
        if redo.size:
            floor = max(float(np.min(np.abs(p[redo]))), 1e-300)
            p[redo], dp[redo], est[redo], n_redo, _ = _pole_sum(
                x, t[redo], sys, table, internal, f, f_k, tol, 0.5 * floor)
            n_poles = max(n_poles, n_redo)
        rel = est / np.maximum(np.abs(p), 1e-300)
        if np.any(rel > tol):
            worst = int(np.argmax(rel))
            raise NotConverged(
                f"pole sum at x={float(x)} above tol={tol:.1e} at "
                f"{int(np.sum(rel > tol))} of {len(t)} time points; worst "
                f"t={t[worst]:.6g} fs, error estimate {rel[worst]:.1e} "
                f"with N={n_poles} exact poles")
        psi[live], dpsi[live], err[live] = p, dp, rel
    return psi, dpsi, 2 + 2 * n_poles + len(table.axis_poles), err


def check_x(x):
    """Reject a probe position the expansions cannot evaluate."""
    if not 0 <= x < np.inf:
        raise XOutOfRange(
            f"x must be finite and >= 0 (reflection region not modeled), got x={x}")


def check_times(t):
    """The time grid t as a float array; NonPositiveTime unless it is 1-D,
    nonempty, finite, > 0 and strictly increasing."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or len(t) == 0 or not np.isfinite(t).all() \
            or np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise NonPositiveTime("times must be > 0, finite and strictly "
                              "increasing in a nonempty 1-D grid")
    return t


def check_tol(tol):
    """Reject a pole-sum tolerance no sum can meet or that means nothing."""
    if not 0 < tol < np.inf:
        raise NonPositiveParameter(f"tol must be finite and > 0, got tol={tol}")


def trace(x, t_grid, sys: BarrierSystem, poles=None,
          tol=DEFAULT_TOL) -> WaveTrace:
    """Transient wavefunction at fixed x over a time grid.

    Uses the internal expansion for x <= L, the external one for x >= L
    (identical at x = L up to truncation).  `poles` may be a PoleSet of
    this system, as pole_cache returns it, to share between traces; one
    shorter than pole_cache's is replaced by a fresh table.  Only the poles
    are shared: each trace computes the expansion coefficients of its pole
    pool.
    """
    t_grid = check_times(t_grid)
    psi, dpsi, n_used, err = _assemble(x, t_grid, sys, poles, tol, x <= sys.L)
    return WaveTrace(x=float(x), times=t_grid, psi=psi, dpsi_dt=dpsi,
                     n_terms_used=n_used, trunc_error_est=err, system=sys)


def _sample(x, t, sys, poles, tol, internal) -> WaveSample:
    psi, dpsi, n_used, err = _assemble(x, check_times([t]), sys, poles, tol,
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
    """The pole table of sys that traces share: its first HARD_CAP // 4
    poles, found once.

    Most pools fit in that depth; a trace whose pool outgrows it searches
    HARD_CAP poles for itself, and the shared table stays as it is.  A
    `base` of this system that holds at least HARD_CAP // 4 poles is
    returned as it is; a shorter one is replaced by a fresh search, whose
    first rows are the same.  Poles found for another system raise
    PoleSetMismatch.
    """
    if base is not None and base.system != sys:
        raise PoleSetMismatch(
            f"poles found for {base.system} cannot serve {sys}")
    depth = HARD_CAP // 4
    if base is not None and len(base) >= depth:
        return base
    return find_poles(sys, depth)
