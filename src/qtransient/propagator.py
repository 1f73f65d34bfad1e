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

and the higher moments are its Taylor coefficients.  Both regions take
them one way: this form less the antibound poles' terms, on the midpoint
nodes of a Cauchy circle, gives by one FFT the trapezoid sums of the
Cauchy integrals for its Taylor coefficients (Bornemann, Found. Comput.
Math. 11, 1 (2011); Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
Inside, k_c = 0 for every t: on a ring inside the first pole any time of
a run omits, the form less each time's exact poles gives every moment
once per run.  Outside, a small circle around each k_c gives
mu_1 .. mu_{2J+1} of all poles, from which the exact poles' share is
subtracted; mu_{2J+2}, which only dPsi/dt needs, converges fast and is
summed directly over a pool of the next poles, which also carries the
exponentials.

A trace is summed in runs of times, each with its own pool and ring: a
run ends where t has doubled from its first time but holds at least _RUN
times, and a last run shorter than _RUN joins the one before, so a trace
of fewer than 2 _RUN times is one run.  Both counts are set before any
sum, for an absolute target of tol * _AIM times the stationary amplitude
|f(k)|; times whose |Psi| turns out far below |f(k)| are summed once
more, in runs of their own, sized from |Psi|.  A run's pool is sized at
its earliest time, where |z| of every omitted pole is smallest: it doubles
until what lies beyond it is within half the target and it holds twice the
exact poles that time needs, and each doubling evaluates only the poles it
adds.  Its rows come from the shared table of HARD_CAP // 4 poles while
they fit, and from one search of HARD_CAP poles, made at most once per
trace, when they do not; the first n poles of a search do not depend on
its depth, so the sums do not either.  Each time then takes the least N
whose first omitted series term, bounded pole by pole, is within the
other half, and each run sums exactly those N in one pass: one
Moshinsky call (per _PAIRS terms) over each time's exact poles, the
incident pair included; one set of Cauchy nodes, less each time's own
exact-pole share, read off a prefix sum along the pool at its N; and
only the damped exponentials before a cut past which a bound on the
rest, never evaluated, is within _CUT times the target.  The two halves
and that bound, relative to |Psi|, are each point's trunc_error_est.
Every time t > 0 takes this one path: one the cap cannot serve, or whose
sum overflows and so is not finite, raises NotConverged naming x and t.
Every table with a row per time (the omitted-term bounds, the Cauchy
nodes less each time's share) is formed in blocks of times under one
element budget, and every ragged (time, term) table (the exact poles'
Moshinsky terms, the exponentials) in chunks of times under another, so
a run's working memory does not grow with its times, and each time's
numbers do not depend on the cuts.  One splitter (_slices) cuts the runs,
blocks and chunks, and one loop (_ragged_sums) sums every ragged table.
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
_ROWS = 1 << 15     # elements of a per-time table formed at once
_RUN = 256          # fewest times of a trace summed with one pool and ring
_PAIRS = 1 << 13    # (time, pole) pairs per Moshinsky call
_CUT = 1e-3         # the dropped exponentials' share of the target
# Most radius x L of the internal ring: a wider ring passes near more exact
# poles, whose cancelling terms cost digits (3e-12 at 300 / L, alpha = 1).
_RING_MAX = 20.0
_DFACT = np.array([1, 1, 3, 15, 105])    # (2j - 1)!!
_C0 = 0.5j * cmath.exp(-0.25j * math.pi) / math.sqrt(math.pi)
# Relative error of a pole sum near alpha_m, from the two poles that merge
# there: _MERGE_C (sep L)^-_MERGE_P.  The power is a least-squares fit in
# log-log to 38 errors over sep L = 1.9e-4 .. 5.9e-2 at u = 3, 30 and 300,
# each the worst over x = L/2, L, 3L/2 and t = 0.5-30 fs of a tol-1e-10 sum
# against the same sum with 40-digit roots and, at u = 30 and 300, against
# a pole-free quadrature; C is raised 0.61 decades, to the worst point.
_MERGE_C, _MERGE_P = 2.8e-13, 3.1
# A loss below this is at the rounding of any sum in double precision, so
# it does not limit the sum, whatever tol asks.
_MERGE_FLOOR = 1e-15


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


def _nodes(centre, r, n, f, f_k, k, axis):
    """(c, g): n midpoint nodes c = centre + r e^{i pi (2j + 1)/n} along
    axis 0, a column per centre and r, and g there: the Mittag-Leffler
    closed form less the antibound poles' terms."""
    theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    c = centre + r * np.exp(1j * theta)[:, None]
    g = f_k[0] / (c - k) - f_k[1] / (c + k) + 2.0 * k * f(c) / (k * k - c * c)
    for coef, q in zip(*axis):      # at most two antibound poles
        g -= coef / (c - q)
    return c, g


def _taylor(g, r, count):
    """mu_1 .. mu_count, (count, columns), of the poles outside the circle
    on whose _nodes g holds sum_q c_q/(c - q): the trapezoid sums of the
    Cauchy integrals for g's Taylor coefficients a_m about the centre, one
    FFT along the nodes turned by the half-node phase e^{-i pi m/n}, with
    mu_{m+1} = (-1)^m a_m and r^m, r one or one per column, taken off."""
    n = len(g)
    # (e^{-i pi/n} / -r)^m by products; pow per element outcosts the FFT
    turn = np.vander(np.exp(-1j * math.pi / n) / -np.atleast_1d(r), count,
                     increasing=True)
    return np.fft.fft(g, axis=0)[:count] * turn.T / n


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


def _omitted(kc, kn, coefs, J):
    """later: the first omitted series term, bounded pole by pole over the
    pool, is |alpha_{J+1}(t_i)| later[i, n] at time i when the poles from n
    on are left to the series; later has P + 1 columns.  Pole q and its
    mirror add |c_q| (|k_c - q|^-m + |k_c + conj q|^-m), m = 2J + 3.

    Inside, k_c = 0 at every time, so later has one row for all times.
    """
    rows = (kc[:1] if not np.any(kc) else kc)[:, None]
    m = 2 * J + 3
    bound = np.abs(coefs) * (np.abs(rows - kn) ** -m
                             + np.abs(rows + kn.conj()) ** -m)
    later = np.zeros((len(rows), len(kn) + 1))
    later[:, :-1] = np.cumsum(bound[:, ::-1], axis=1)[:, ::-1]
    return later


def _exact_count(weight, later, edge, kn, target):
    """Least exact-pole count per time whose omitted term is within target,
    and never short of a pole with Re q below edge = k_c + _Z_MIN / s."""
    return np.maximum(np.sum(later > (target / weight)[:, None], axis=1),
                      np.searchsorted(kn.real, edge))


def _size(x, s0, kc0, sys, table, internal, tol, scale):
    """(coefs, kn, table): the pole pool and its coefficients for times from
    the one with scale s0 and centre kc0 (1-element arrays) on, and the
    table that holds the pool.

    The pool starts at _POOL poles and doubles until it holds twice the
    exact poles that time needs and its remainder is within half the
    absolute target tol * _AIM * scale; the omitted series term takes the
    other half.  At the cap the target relaxes to tol * scale before
    NotConverged is raised.  A pool that outgrows the table takes a fresh
    search of HARD_CAP poles, whose first rows are the table's.  Each
    round evaluates coefficients only for the poles it adds, and takes the
    exact count over the whole pool as _pole_sum does.
    """
    J = _ORDER[internal]
    weight, edge = np.abs(_alpha(J + 1, s0, 1.0)), kc0 + _Z_MIN / s0
    coefs = kn = np.zeros(0, dtype=complex)
    p = _POOL
    while True:
        if len(table) < p:
            table = find_poles(sys, HARD_CAP)
        c_new, k_new = expansion_coeffs(x, table[len(kn):p], internal)
        coefs, kn = np.concatenate((coefs, c_new)), np.concatenate((kn, k_new))
        later = _omitted(kc0, kn, coefs, J)
        for target in ((tol * _AIM * scale, tol * scale) if p >= HARD_CAP
                       else (tol * _AIM * scale,)):
            n = int(_exact_count(weight, later, edge, kn, 0.5 * target)[0])
            # the remainder past the pool last: it is the dearest check
            if 2 * n <= p and _beyond(coefs, kn, s0, kc0)[0] <= 0.5 * target:
                return coefs, kn, table
        if p >= HARD_CAP:
            n = min(n, p // 2)
            rem = _beyond(coefs, kn, s0, kc0)[0]
            est = (weight[0] * later[0, n] + rem) / scale
            t0 = HBAR * s0[0] ** 2 / sys.c2
            raise NotConverged(
                f"pole sum at x={float(x)} cannot reach tol={tol:.1e} within "
                f"{HARD_CAP} poles (cap {HARD_CAP}): worst t={t0:.6g} fs, "
                f"error estimate {est:.1e} with N={n} exact poles")
        p = min(2 * p, HARD_CAP)


def _slices(n, least, end):
    """Consecutive slices of n times: each runs from lo to end(lo), but
    over no fewer than least times, and a tail shorter than least joins the
    slice before.  Runs, blocks and ragged chunks are all cut by this rule."""
    out, lo = [], 0
    while lo < n:
        hi = max(lo + least, int(end(lo)))
        if n - hi < least:
            hi = n
        out.append(slice(lo, hi))
        lo = hi
    return out


def _ragged_sums(count, limit, terms):
    """Per-time sums of a ragged table, count[i] entries at time i, formed
    in chunks of consecutive times of at most limit entries (a lone time
    may hold more): terms(rows, n, pos) gives two arrays over the entries
    of the times rows, n = count[rows] per time and pos each one's place in
    its time.  An empty time sums to 0; a table with no entries forms none.
    """
    out = np.zeros((2, len(count)), dtype=complex)
    if not count.any():
        return out
    ends = np.cumsum(count)
    for rows in _slices(len(count), 1, lambda lo: np.searchsorted(
            ends, ends[lo] - count[lo] + limit, side="right")):
        n = count[rows]
        lo = np.cumsum(n) - n
        full = n > 0
        values = terms(rows, n, np.arange(n.sum()) - np.repeat(lo, n))
        for sums, v in zip(out, values):
            sums[rows][full] = np.add.reduceat(v, lo[full])
    return out


def _heads(x_arg, t, level, pool, axis, f_k, sys):
    """The incident pair less the exact poles' Moshinsky terms, and its
    time derivative, per time.

    Time i sums a prefix of one list of (q, c) pairs: +-k, the antibound
    poles, then the first 2 level[i] entries of the pool.  Each chunk of
    _ragged_sums, at most _PAIRS (time, pair) terms, is one Moshinsky call.
    """
    top = 2 * int(level.max())
    q = np.concatenate(([sys.k, -sys.k], axis[1], pool[0][:top]))
    c = np.concatenate(([f_k[0], -f_k[1]], -axis[0], -pool[1][:top]))

    def terms(rows, n, pos):
        m, dm = moshinsky_m_dt(x_arg, q[pos], np.repeat(t[rows], n), sys.c2)
        c_pos = c[pos]
        m *= c_pos
        dm *= c_pos
        return m, dm

    return _ragged_sums(2 + len(axis[1]) + 2 * level, _PAIRS, terms)


def _ring(level, pool, axis, f, f_k, sys):
    """(r, g, exact): the internal run's Cauchy ring about 0 of radius half
    the least |q| any time omits, at most _RING_MAX / L, the closed form
    less the antibound terms on its nodes, and exact[:, n], the first n
    pool entries' terms there, for every n a time of the run sums."""
    pool_q, pool_c = pool
    top, low = 2 * int(level.max()), 2 * int(level.min())
    r = min(0.5 * np.min(np.abs(pool_q[low:])), _RING_MAX / sys.L)
    c, g = _nodes(0.0, r, _RING, f, f_k, sys.k, axis)
    exact = np.zeros((_RING, top + 1), dtype=complex)
    np.cumsum(pool_c[:top] / (c - pool_q[:top]), axis=1, out=exact[:, 1:])
    return r, g, exact


def _moments(kc, level, pool, axis, f, f_k, sys, ring):
    """mu_1 .. mu_{2J+2} of each time's omitted poles, shape (2J+2, T).

    Time i sums the first 2 level[i] entries of the pool and the antibound
    poles exactly; the rest are omitted.  The times are one block of a
    run.  Both regions take the Taylor coefficients (_taylor) of the closed
    form less the antibound terms on midpoint nodes (_nodes).  Inside, the
    nodes are the run's ring (_ring), and each time's exact poles are taken
    off there too, which leaves a function analytic inside the ring whose
    coefficients are the omitted moments.  Outside, ring is None, and a
    circle around each k_c of radius one eighth of the distance to the
    nearest pole, kept clear of the removable points c = +-k, gives
    mu_1 .. mu_{2J+1} of every pool pole, less each time's exact share;
    mu_{2J+2}, which only dPsi/dt uses, is summed directly over the rest of
    the pool.  Each time's exact share is a prefix sum along the pool read
    at its count, and its rest a sum from the pool's far end back to that
    count, so that no exact pole's term cancels into the rest.
    """
    if ring is not None:
        r, g, exact = ring
        return _taylor(g - exact[:, 2 * level], r, 2 * _ORDER[True] + 2)
    J = _ORDER[False]
    k = sys.k
    pool_q, pool_c = pool
    top, low = 2 * int(level.max()), 2 * int(level.min())
    near = np.min(np.abs(kc[:, None] - axis[1]), axis=1, initial=np.inf)
    inv = kc[:, None] - pool_q
    near = np.minimum(near, np.min(np.abs(inv), axis=1))
    np.reciprocal(inv, out=inv)
    i, n = np.arange(len(inv)), 2 * level
    head = np.empty((2 * J + 1, len(kc)), dtype=complex)
    power, exact = 1.0, np.zeros((len(inv), top + 1), dtype=complex)
    for m in range(2 * J + 1):
        power = power * inv
        np.cumsum(power[:, :top] * pool_c[:top], axis=1, out=exact[:, 1:])
        head[m] = exact[i, n]
    power = power * inv
    rest = np.cumsum((power[:, low:] * pool_c[low:])[:, ::-1], axis=1)
    mu_last = rest[i, len(pool_q) - 1 - n]
    r = near / 8.0
    # the closed form cancels near c = +-k: keep every node r from them
    dk = np.minimum(np.abs(kc - k), kc + k)
    r = np.where((dk >= 0.5 * r) & (dk <= 2.0 * r), 0.5 * dk, r)
    _, g = _nodes(kc, r, _ARC, f, f_k, k, axis)
    return np.vstack((_taylor(g, r, 2 * J + 1) - head, mu_last))


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
    # the bounds hold for the run; the terms are taken in chunks of at
    # most _ROWS (time, pole) pairs
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

    def terms(rows, n, pos):
        pole = pos + np.repeat(level[rows], n)
        kt = kn[pole]
        rate = -1j * (c2 / HBAR) * kt * kt
        e = rate * np.repeat(t[rows], n) + 1j * kt * x_arg
        e[kt.real + kt.imag <= np.repeat(kc[rows], n)] = -1e3  # Im z >= 0
        np.exp(e, out=e)
        e *= coefs[pole]
        return e, e * rate

    return (*_ragged_sums(cut - level, _ROWS, terms), dropped)


def _pole_sum(x, t, sys, table, internal, f, f_k, tol, scale):
    """Psi and dPsi/dt at times t in one pass: the incident pair less the
    sum over every pole.

    t is one run of a trace (_runs).  Each time gets the least exact-pole
    count that meets the absolute target tol * _AIM * scale, at most half
    the pool; the pool is sized at the run's earliest time, which needs
    the most.  Every time then sums its own exact poles (_heads), takes
    the omitted poles' series from one set of Cauchy nodes (_moments) and
    evaluates only the damped exponentials that stay above _CUT times the
    target (_exponentials).  Returns (psi, dpsi, est, n, table): est is
    the absolute error estimate per time, n the largest count and table
    the one that held the pool, which later runs and passes reuse.

    The pool, its bounds and the internal ring belong to the run; each
    table with a row per time is formed in blocks of times (_slices), and
    each ragged table in chunks (_ragged_sums), bit for bit as in one, so
    memory does not grow with the run's times.  A block holds at least two
    times: numpy sums the series terms of two or more times as it sums
    them over the whole run, but not of one.
    """
    J = _ORDER[internal]
    x_arg = 0.0 if internal else x
    s, kc, a2t = _scales(x_arg, t, sys.c2)
    coefs, kn, table = _size(x, s[:1], kc[:1], sys, table, internal, tol,
                             scale)
    target = tol * _AIM * scale
    weight, edge = np.abs(_alpha(J + 1, s, 1.0)), kc + _Z_MIN / s
    level = np.empty(len(t), dtype=int)
    est = np.empty(len(t))
    for rows in _slices(len(t), 2, lambda lo: lo + _ROWS // (len(kn) + 1)):
        later = _omitted(kc[rows], kn, coefs, J)
        need = _exact_count(weight[rows], later, edge[rows], kn, 0.5 * target)
        level[rows] = n = np.minimum(need, len(kn) // 2)
        est[rows] = weight[rows] * later[np.arange(len(n)) % len(later), n]
    axis = expansion_coeffs(x, table.axis_poles, internal)
    # each pool pole followed by its mirror -conj q, whose coefficient is
    # -conj c: a time's exact poles are the first 2 level entries
    pool = (np.column_stack((kn, -kn.conj())).ravel(),
            np.column_stack((coefs, -coefs.conj())).ravel())
    psi, dpsi = _heads(x_arg, t, level, pool, axis, f_k, sys)
    ring = _ring(level, pool, axis, f, f_k, sys) if internal else None
    j = np.arange(J + 1)[:, None]
    width = _RING if internal else len(pool[0])
    for rows in _slices(len(t), 2, lambda lo: lo + _ROWS // width):
        mu = _moments(kc[rows], level[rows], pool, axis, f, f_k, sys, ring)
        a2tr = a2t[rows]
        al = _alpha(j, s[rows], np.exp(1j * a2tr))
        psi[rows] -= np.sum(al * mu[0::2], axis=0)
        # d alpha_j/dt = alpha_j (-i a^2/t - j - 1/2)/t and
        # d mu_m/dt = m mu_{m+1} k_c/t
        dpsi[rows] -= np.sum(al / t[rows] * (
            (-1j * a2tr - j - 0.5) * mu[0::2]
            + (2 * j + 1) * kc[rows] * mu[1::2]), axis=0)
    e, de, dropped = _exponentials(x_arg, t, s, kc, level, coefs, kn, sys.c2,
                                   _CUT * target)
    psi -= e
    dpsi -= de
    est += _beyond(coefs, kn, s, kc)
    est += dropped
    return psi, dpsi, est, int(level.max()), table


def _runs(t):
    """Slices of the increasing times t that are summed apart: a run ends
    where t has doubled from its first time but holds at least _RUN times."""
    return _slices(len(t), _RUN, lambda lo: np.searchsorted(t, 2.0 * t[lo]))


def _check_merging_pair(table, tol):
    """Raise MergingPolePair where the two poles that merge at alpha_m lie
    so close that their roundoff alone costs more than tol and more than
    _MERGE_FLOOR.

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
    if loss > max(tol, _MERGE_FLOOR):
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
    n_poles = 0

    def summed(t, scale):
        # one pole sum per run, each sized at its own earliest time; the
        # table a run returns serves the next, so the cap is searched once
        nonlocal table, n_poles
        parts = []
        for run in _runs(t):
            # a sum that overflows (s^(2j+1) as t -> 0, a^2/t at a huge x)
            # is not finite, which the check below refuses: numpy need not warn
            with np.errstate(all="ignore"):
                *part, n, table = _pole_sum(x, t[run], sys, table, internal,
                                            f, f_k, tol, scale)
            parts.append(part)
            n_poles = max(n_poles, n)
        return [np.concatenate(runs) for runs in zip(*parts)]

    # size the sums against the stationary amplitude; points whose |psi|
    # lies so far below it that they miss tol are summed once more, sized
    # from |psi|
    psi, dpsi, est = summed(t_grid, abs(f_k[0]))
    redo = np.flatnonzero(est > tol * np.abs(psi))
    if redo.size:
        floor = max(float(np.min(np.abs(psi[redo]))), 1e-300)
        psi[redo], dpsi[redo], est[redo] = summed(t_grid[redo], 0.5 * floor)
    rel = est / np.maximum(np.abs(psi), 1e-300)
    # a sum or estimate that is not finite misses, though no comparison with
    # NaN says so
    rel[~(np.isfinite(psi) & np.isfinite(dpsi) & np.isfinite(rel))] = np.inf
    if np.any(rel > tol):
        worst = int(np.argmax(rel))
        raise NotConverged(
            f"pole sum at x={float(x)} above tol={tol:.1e} at "
            f"{int(np.sum(rel > tol))} of {len(t_grid)} time points; worst "
            f"t={t_grid[worst]:.6g} fs, error estimate {rel[worst]:.1e} "
            f"with N={n_poles} exact poles")
    return psi, dpsi, 2 + 2 * n_poles + len(table.axis_poles), rel


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
    if not 0 < tol < 1:
        raise NonPositiveParameter(
            f"tol must be finite, > 0 and < 1, got tol={tol}")


def trace(x, t_grid, sys: BarrierSystem, poles=None,
          tol=DEFAULT_TOL) -> WaveTrace:
    """Transient wavefunction at fixed x over a time grid.

    Uses the internal expansion for x <= L, the external one for x >= L
    (identical at x = L up to truncation).  `poles` may be a PoleSet of
    this system, as pole_cache returns it, to share between traces; one
    shorter than pole_cache's is replaced by a fresh table.  Only the poles
    are shared: each trace computes the expansion coefficients of the pole
    pool of each of its runs.
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
