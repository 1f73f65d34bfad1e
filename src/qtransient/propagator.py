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

A trace is summed in runs of times: a run ends where t has doubled from
its first time but holds at least _RUN times, and a last run shorter than
_RUN joins the one before, so a trace of fewer than 2 _RUN times is one
run.  Every decision of a run is made before any sum and held in one
frozen plan (_Plan) that every summing helper reads.  One planner (_plan)
makes them, for an absolute target of tol * _AIM times the stationary
amplitude |f(k)|: it sizes the pool at the run's earliest time, where |z|
of every omitted pole is smallest, until what lies beyond the pool is
within half the target, and gives each time the least N whose first
omitted series term, bounded pole by pole, is within the other half, at
most half the pool.  One count function (_count) gives N to both.  Times
whose |Psi| turns out far below |f(k)| are planned and summed once more,
in runs of their own, sized from |Psi|, and _assemble reads N off the
plans of both passes.  Each run sums its plan in one pass (_pole_sum):
one Moshinsky call (per _PAIRS terms) over each time's exact poles, the
incident pair included; one set of Cauchy nodes, less each time's own
exact-pole share, read off a prefix sum along the pool at its N; and
only the damped exponentials before a cut past which a bound on the
rest, never evaluated, is within _CUT times the target.  The two halves
and that bound, relative to |Psi|, are each point's trunc_error_est.
Every time t > 0 takes this one path, and one check refuses every miss:
times whose estimate exceeds tol, as where the cap leaves the sum short
or the sum overflows and so is not finite, raise one NotConverged naming
x, the first and the last of them and the worst estimate.  So numpy need
not warn on the way: one np.errstate in _assemble covers the amplitudes
f(+-k), the antibound coefficients, every plan, every sum and the check.
Every table with a row per time (the omitted-term bounds, the Cauchy
nodes less each time's share) is formed in blocks of times under one
element budget, and every ragged (time, term) table (the exact poles'
Moshinsky terms, the exponentials) in chunks of times under another, so
a run's working memory does not grow with its times, and each time's
numbers do not depend on the cuts.  One splitter (_slices) cuts the runs,
blocks and chunks, and one loop (_ragged_sums) sums every ragged table.

Many probes are summed as one batch (traces): probes of one region, each
with its own x, times, system, table and tol, whose r-th runs share one
plan and one pole sum.  A batch holds at most BATCH probes (batches), so
that each per-run table of a plan, a pool of up to HARD_CAP poles and
their mirrors, stays within _ROWS elements, and a block of several runs'
times (_blocks) takes a third of the block budget, since it copies each
time's pool row.  A plan holds a row per run, its pools padded to
the longest with terms that add nothing, and its times one after another;
the planner grows every pool still short at once, and each step of the
sum -- the Moshinsky call, the Cauchy nodes and their FFT, the series,
the exponentials -- runs once over every (run, time) row.  Each row's
numbers are those of its probe summed alone, bit for bit: numpy gives an
element the same bits in any array of two or more, and a block of times
(_blocks) holds runs of one pool size, a run of one time alone.  The
functions that evaluate one probe (trace, psi_internal, psi_external)
are batches of one.

trace is the one fixed-x evaluator: a grid of fewer than PANEL_MIN times
is summed as above (_direct), and a longer one is read off Chebyshev
interpolants of Psi and dPsi/dt on octave panels of t (_panels), whose
few hundred nodes are summed as above.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (MergingPolePair, NonPositiveParameter, NonPositiveTime,
                     NotConverged, PoleSetMismatch, QTransientError,
                     XOutOfRange, single)
from .moshinsky import moshinsky_m_dt
from .resonances import (PoleSet, expansion_coeffs, find_pole_tables,
                         find_poles)
from .stationary import _phi, _transmission
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
# most probes summed in lockstep: a batch's per-run tables (a pool and its
# mirrors) hold up to 2 HARD_CAP columns, so BATCH rows stay within _ROWS
BATCH = _ROWS // (2 * HARD_CAP)
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
PANEL_MIN = 1000      # fewest times a trace reads off panels
PANEL_NODES = (17, 33, 65, 129, 257)   # nested Lobatto sizes of a panel
PANEL_TAIL = 0.1      # a panel's largest tail, in units of tol


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
    trunc_error_est is each point's estimated error relative to |Psi|, the
    interpolant's included on a grid read off panels.
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


@dataclass(frozen=True)
class _Plan:
    """The decisions of a batch of runs, made by _plan before any sum and
    read by every summing helper.

    A run is one probe's times summed with one pool (_runs); every run of
    a batch lies in one region.  Per-run fields have a row per run; pools
    are padded to the longest, kn with inf - inf i and coefs with 0, so
    that a pad adds nothing to a bound and stops no accumulation.
    Per-time fields have an entry per time, the runs' times one after
    another, and run[i] is the run of time i.
    """

    internal: bool              # the region: inside the barrier or beyond
    x: np.ndarray               # per run: the probe position,
    x_arg: np.ndarray           # x of the Moshinsky arguments (0 inside),
    k: np.ndarray               # the system's incident wavenumber, c2,
    c2: np.ndarray              # strength V/c2 and width,
    v: np.ndarray
    L: np.ndarray
    f_k: np.ndarray             # the stationary amplitude at +-k,
    axis_c: np.ndarray          # the antibound poles' coefs and kn, padded
    axis_k: np.ndarray          # to two, the first n_axis of each row,
    n_axis: np.ndarray
    target: np.ndarray          # the absolute error the run is sized for,
    tables: list                # the table that holds its pool,
    size: np.ndarray            # the pool size P,
    coefs: np.ndarray           # the pool,
    kn: np.ndarray
    pool_q: np.ndarray          # each pool pole followed by its mirror
    pool_c: np.ndarray          # -conj q, whose coefficient is -conj c,
    top: np.ndarray             # and twice the most and the fewest exact
    low: np.ndarray             # poles a time of the run sums
    first: np.ndarray           # the run's first time and its count of
    lens: np.ndarray            # times
    run: np.ndarray             # per time: the run, the time and the
    t: np.ndarray               # scales s, k_c and a^2/t of the Moshinsky
    s: np.ndarray               # argument,
    kc: np.ndarray
    a2t: np.ndarray
    level: np.ndarray           # the exact-pole count N: time i sums the
                                # first 2 level[i] entries of its pool,
    est: np.ndarray             # and the bound on its first omitted term


_PAD = complex(math.inf, -math.inf)     # kn of a pool's padding


def _alpha(j, s, phase):
    """Weight alpha_j(t) of mu_{2j+1} in the large-|z| form of a pole sum."""
    return _C0 * _DFACT[j] * (-0.5j) ** j * phase / s ** (2 * j + 1)


def _nodes(plan, runs, centre, r, n):
    """(c, g): n midpoint nodes c = centre + r e^{i pi (2j + 1)/n} along
    axis 0, a column per entry of runs, centre and r, and g there: the
    Mittag-Leffler closed form of the column's run less the antibound
    poles' terms."""
    theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    c = centre + r * np.exp(1j * theta)[:, None]
    k, f_k, v, L = plan.k[runs], plan.f_k[runs], plan.v[runs], plan.L[runs]
    f = (_phi(plan.x[runs], c, v, L) if plan.internal
         else _transmission(c, v, L))
    g = f_k[:, 0] / (c - k) - f_k[:, 1] / (c + k) + 2.0 * k * f / (k * k - c * c)
    axis_c, axis_k, n_axis = (a[runs] for a in (plan.axis_c, plan.axis_k,
                                                plan.n_axis))
    for j in range(axis_k.shape[1]):     # at most two antibound poles
        on = j < n_axis
        if on.any():
            g[:, on] -= axis_c[on, j] / (c[:, on] - axis_k[on, j])
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
    """Estimated sum of the damped exponentials past the pool, per time,
    from coefs and kn of the last two poles of each time's pool.

    |c| e^{-2 s^2 (Re q - k_c) |Im q|} falls off faster than geometrically
    once Re q > k_c; the remainder is taken geometric from the last two
    pool poles, and infinite while they do not yet fall.
    """
    ahead = kn.real - kc[:, None]
    damp = np.abs(coefs) * np.exp(
        2.0 * s[:, None] ** 2 * np.maximum(ahead, 0.0) * kn.imag)
    ratio = damp[:, 1] / np.maximum(damp[:, 0], 1e-300)
    return np.divide(damp[:, 1] * ratio, 1.0 - ratio,
                     out=np.full(len(s), np.inf),
                     where=(ratio < 1.0) & (ahead[:, 0] > 0.0))


def _later(coefs, kn, J, kc):
    """later[i, n]: the first omitted series term of row i's pool (coefs,
    kn), bounded pole by pole, over |alpha_{J+1}|, when its poles from n
    on are left to the series; P + 1 columns.

    Pole q and its mirror add |c_q| (|k_c - q|^-m + |k_c + conj q|^-m),
    m = 2J + 3; a pad adds 0, and the reverse sums run from the pads, so
    every row's sums are those of its own pool.
    """
    m = 2 * J + 3
    kc = kc[:, None]
    bound = np.abs(coefs) * (np.abs(kc - kn) ** -m
                             + np.abs(kc + kn.conj()) ** -m)
    later = np.zeros((len(bound), bound.shape[1] + 1))
    later[:, :-1] = np.cumsum(bound[:, ::-1], axis=1)[:, ::-1]
    return later


def _count(later, real, bar, edge):
    """Per time, the least exact-pole count whose first omitted term,
    later[i] (_later), is within the target, where bar holds the target
    over |alpha_{J+1}(t_i)|, and never short of a pole with Re q below
    edge = k_c + _Z_MIN / s; real holds Re q of each time's pool, sorted,
    pads at inf."""
    return np.maximum(np.sum(later > bar[:, None], axis=1),
                      np.sum(real < edge[:, None], axis=1))


def _plan(internal, x, t, sys, f_k, axis, target, tables):
    """The plan of a batch of runs of times t (_runs) for their absolute
    targets; x, t, sys, f_k (f(+-k)), axis (the antibound poles' (coefs,
    kn)), target and the pole table hold an entry per run.

    A run's pool starts at _POOL poles and doubles until, at its earliest
    time, it holds twice the exact poles that time needs and its remainder
    is within half the target, or until it holds HARD_CAP poles, met or
    not; a target that is not finite stops it at once, and _assemble's
    check refuses either sum.  The runs still growing grow together: each
    doubling evaluates coefficients only for the poles it adds, and sizes
    every such run at once.  Its rows come from the table while they fit,
    and from a fresh search of HARD_CAP poles when they do not, one per
    system; the first n poles of a search do not depend on its depth, so
    the sums do not either.  Each time's count is then taken in blocks of
    at least two times under _ROWS elements.
    """
    G, J = len(t), _ORDER[internal]
    lens = np.array([len(tt) for tt in t])
    first = np.cumsum(lens) - lens
    run = np.repeat(np.arange(G), lens)
    t = np.concatenate(t)
    x = np.array(x, dtype=float)
    x_arg = np.zeros(G) if internal else x
    k, c2, v, L = np.array([(s.k, s.c2, s.v_strength, s.L) for s in sys]).T
    target = np.array(target, dtype=float)
    c2t = c2[run]
    s = np.sqrt(c2t * t / HBAR)
    kc = HBAR * x_arg[run] / (2.0 * c2t * t)
    weight, edge = np.abs(_alpha(J + 1, s, 1.0)), kc + _Z_MIN / s
    bar = 0.5 * target[run] / weight
    tables, deep, pools = list(tables), {}, [None] * G
    # the runs still growing, their pools so far, and the scales of their
    # earliest times
    grow, lo, p = np.arange(G), 0, _POOL
    coefs = kn = np.zeros((G, 0), dtype=complex)
    scales = [kc[first], bar[first], edge[first], s[first], target,
              np.isfinite(target)]
    while True:
        for g in grow:
            if len(tables[g]) < p:
                if sys[g] not in deep:
                    deep[sys[g]] = find_poles(sys[g], HARD_CAP)
                tables[g] = deep[sys[g]]
        c_new, k_new = expansion_coeffs(
            x[grow], [tables[g][lo:p] for g in grow], internal)
        coefs = np.concatenate((coefs, c_new.reshape(len(grow), -1)), 1)
        kn = np.concatenate((kn, k_new.reshape(len(grow), -1)), 1)
        kc0, bar0, edge0, s0, aim, finite = scales
        # a target that is not finite stops at once, whatever its count
        done = ~finite
        if p >= HARD_CAP:
            done[:] = True
        else:
            fits = finite & (2 * _count(_later(coefs, kn, J, kc0), kn.real,
                                        bar0, edge0) <= p)
            # the remainder past the pool last: it is the dearest check
            some = fits.tolist()
            if all(some):
                done = _beyond(coefs[:, -2:], kn[:, -2:], s0,
                               kc0) <= 0.5 * aim
            elif any(some):
                done[fits] = _beyond(coefs[fits, -2:], kn[fits, -2:], s0[fits],
                                     kc0[fits]) <= 0.5 * aim[fits]
        some = done.tolist()
        if any(some):
            for i in np.flatnonzero(done).tolist():
                pools[grow[i]] = coefs[i], kn[i]
            if all(some):
                break
            keep = ~done
            grow, coefs, kn = grow[keep], coefs[keep], kn[keep]
            scales = [a[keep] for a in scales]
        lo, p = p, min(2 * p, HARD_CAP)
    sizes = [len(c) for c, _ in pools]
    size = np.array(sizes)
    if len(set(sizes)) == 1:
        coefs = np.array([c for c, _ in pools])
        kn = np.array([q for _, q in pools])
    else:
        coefs = np.zeros((G, max(sizes)), dtype=complex)
        kn = np.full((G, max(sizes)), _PAD)
        for g, (c, q) in enumerate(pools):
            coefs[g, :len(c)], kn[g, :len(q)] = c, q
    level, est = np.empty(len(t), dtype=int), np.empty(len(t))
    # inside, k_c = 0 at every time, so later has one row per run
    later = _later(coefs, kn, J, np.zeros(G)) if internal else None
    for rows in _blocks(first, lens, size, lambda P: P + 1):
        on = run[rows]
        P = size[on[0]]
        real = _rows_of(kn[:, :P].real, on)
        here = (_rows_of(later[:, :P + 1], on) if internal else _later(
            _rows_of(coefs[:, :P], on), _rows_of(kn[:, :P], on), J, kc[rows]))
        n = np.minimum(_count(here, real, bar[rows], edge[rows]), P // 2)
        level[rows] = n
        est[rows] = weight[rows] * here[np.arange(len(n)) % len(here), n]
    n_axis = np.array([len(q) for _, q in axis])
    axis_c = np.zeros((G, 2), dtype=complex)
    axis_k = np.full((G, 2), _PAD)
    for j, (c, q) in enumerate(axis):
        axis_c[j, :len(q)], axis_k[j, :len(q)] = c, q
    return _Plan(
        internal, x, x_arg, k, c2, v, L, np.asarray(f_k), axis_c, axis_k,
        n_axis, target, tables, size, coefs, kn, _mirrored(kn),
        _mirrored(coefs),
        2 * np.maximum.reduceat(level, first),
        2 * np.minimum.reduceat(level, first), first, lens, run, t, s, kc,
        HBAR * x_arg[run] * x_arg[run] / (4.0 * c2t * t), level, est)


def _mirrored(a):
    """Each row of a with every entry followed by minus its conjugate."""
    out = np.empty((len(a), 2 * a.shape[1]), dtype=complex)
    out[:, 0::2] = a
    out[:, 1::2] = -a.conj()
    return out


def _rows_of(a, on):
    """The rows of a of the runs on, one per time: a single row, which
    broadcasts, where the times are of one run."""
    return a[on[:1]] if on[0] == on[-1] else a[on]


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


def _blocks(first, lens, size, width):
    """Blocks of a batch's times, index arrays in time order: the times of
    runs whose pools hold the same number P of poles, at most
    _ROWS // width(P) of them, a third of that in a batch of several runs,
    and at least two.  A block of several runs' times takes a copy of each
    time's pool row (pool_q and pool_c, or coefs and kn) beside the tables
    a lone run forms, so the third keeps its memory at a lone run's.
    numpy sums the series terms of two or more times as it sums them over
    a whole run, but not of one, so a run of one time is a block of its
    own, as it is when summed alone.  first, lens and size give each run's
    first time, count of times and pool size; size None puts all runs in
    one group."""
    budget = _ROWS if len(lens) == 1 else _ROWS // 3
    key = [0] * len(lens) if size is None else size.tolist()
    if len(set(key)) == 1 and min(lens.tolist()) > 1:
        return _slices(int(lens.sum()), 2, lambda a: a + budget // width(key[0]))
    key = np.array(key)
    runs = np.repeat(np.arange(len(first)), lens)
    out = []
    for P in sorted(set(key.tolist())):
        many = (key == P) & (lens > 1)
        rows = np.flatnonzero(many[runs])
        out += [rows[b] for b in _slices(len(rows), 2,
                                         lambda a: a + budget // width(P))]
        out += [np.array([first[r]]) for r in np.flatnonzero(
            (key == P) & (lens == 1))]
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


def _per_term(values):
    """A per-run value (c2, x_arg) for the terms of a batch: terms(rows, n)
    gives it for times rows of n terms each, the batch's one value where
    every run has it, else one per term."""
    if len(set(values.tolist())) == 1:
        one = float(values[0])
        return lambda run, n: one
    return lambda run, n: np.repeat(values[run], n)


def _heads(plan):
    """The incident pair less the exact poles' Moshinsky terms, and its
    time derivative, per time.

    Time i sums a prefix of its run's list of (q, c) pairs: +-k, the
    antibound poles, then the first 2 level[i] entries of the pool.  Each
    chunk of _ragged_sums, at most _PAIRS (time, pair) terms, is one
    Moshinsky call.
    """
    qs, cs = [], []
    for j, top in enumerate(plan.top):
        n = plan.n_axis[j]
        qs += [(plan.k[j], -plan.k[j]), plan.axis_k[j, :n], plan.pool_q[j, :top]]
        cs += [(-plan.f_k[j, 0], plan.f_k[j, 1]), plan.axis_c[j, :n],
               plan.pool_c[j, :top]]
    # each run's list, one after another; the signs flip exactly
    q, c = np.concatenate(qs), -np.concatenate(cs)
    lead = np.cumsum(2 + plan.n_axis + plan.top) - (2 + plan.n_axis + plan.top)

    x, c2 = _per_term(plan.x_arg), _per_term(plan.c2)

    def terms(rows, n, pos):
        run = plan.run[rows]
        at = np.repeat(lead[run], n) + pos
        m, dm = moshinsky_m_dt(x(run, n), q[at], np.repeat(plan.t[rows], n),
                               c2(run, n))
        c_at = c[at]
        m *= c_at
        dm *= c_at
        return m, dm

    return _ragged_sums(2 + plan.n_axis[plan.run] + 2 * plan.level, _PAIRS,
                        terms)


def _ring(plan):
    """(r, c, g, kept): each run's Cauchy ring about 0 of radius half the
    least |q| any time of the run omits, at most _RING_MAX / L, a column
    per run of its nodes c and of g there, the closed form less the
    antibound terms, and room for the exact terms there of the run that a
    block of times (_moments) leaves to the next."""
    col = np.arange(plan.pool_q.shape[1])
    least = np.min(np.where(col >= plan.low[:, None], np.abs(plan.pool_q),
                            np.inf), axis=1)
    r = np.minimum(0.5 * least, _RING_MAX / plan.L)
    return (r, *_nodes(plan, slice(None), 0.0, r, _RING), {})


def _moments(plan, rows, ring):
    """mu_1 .. mu_{2J+2} of each time's omitted poles, shape (2J+2, T).

    Time i sums the first 2 level[i] entries of its pool and the antibound
    poles exactly; the rest are omitted.  The times are one block
    (_blocks).  Both regions take the Taylor coefficients (_taylor) of the
    closed form less the antibound terms on midpoint nodes (_nodes).
    Inside, the nodes are the run's ring (_ring), and each time's exact
    poles are taken off there too, which leaves a function analytic inside
    the ring whose coefficients are the omitted moments.  Outside, ring is
    None, and a circle around each k_c of radius one eighth of the
    distance to the nearest pole, kept clear of the removable points
    c = +-k, gives mu_1 .. mu_{2J+1} of every pool pole, less each time's
    exact share; mu_{2J+2}, which only dPsi/dt uses, is summed directly
    over the rest of the pool.  Each time's exact share is a prefix sum
    along its pool read at its count, and its rest a sum from the pool's
    far end back to that count, so that no exact pole's term cancels into
    the rest.
    """
    level, on = plan.level[rows], plan.run[rows]
    if ring is not None:
        r, c, g, kept = ring
        # each run's exact terms on its ring, at every count, formed once:
        # the block's last run may go on into the next block, so its table
        # is kept for it
        ends = [len(on)] if on[0] == on[-1] else [
            *np.flatnonzero(on[1:] != on[:-1]) + 1, len(on)]
        shares = []
        for a, b in zip([0, *ends], ends):
            j = on[a]
            exact = kept.pop(j, None)
            if exact is None:
                top = plan.top[j]
                exact = np.zeros((_RING, top + 1), dtype=complex)
                np.cumsum(plan.pool_c[j, :top] / (c[:, j:j + 1]
                                                  - plan.pool_q[j, :top]),
                          axis=1, out=exact[:, 1:])
            shares.append(exact[:, 2 * level[a:b]])
        kept.clear()
        kept[j] = exact
        one = on[:1] if len(ends) == 1 else on
        share = shares[0] if len(ends) == 1 else np.hstack(shares)
        return _taylor(g[:, one] - share, r[one], 2 * _ORDER[True] + 2)
    J, k, kc = _ORDER[False], plan.k[on], plan.kc[rows]
    # the block's pools are of one size: no padding
    width = 2 * plan.size[on[0]]
    pool_q = _rows_of(plan.pool_q[:, :width], on)
    pool_c = _rows_of(plan.pool_c[:, :width], on)
    top, low = int(plan.top[on].max()), int(plan.low[on].min())
    near = np.min(np.abs(kc[:, None] - _rows_of(plan.axis_k, on)), axis=1,
                  initial=np.inf)
    inv = kc[:, None] - pool_q
    near = np.minimum(near, np.min(np.abs(inv), axis=1))
    np.reciprocal(inv, out=inv)
    i, n = np.arange(len(inv)), 2 * level
    head = np.empty((2 * J + 1, len(kc)), dtype=complex)
    power, exact = 1.0, np.zeros((len(inv), top + 1), dtype=complex)
    for m in range(2 * J + 1):
        power = power * inv
        np.cumsum(power[:, :top] * pool_c[:, :top], axis=1, out=exact[:, 1:])
        head[m] = exact[i, n]
    power = power * inv
    rest = np.cumsum((power[:, low:] * pool_c[:, low:])[:, ::-1], axis=1)
    mu_last = rest[i, width - 1 - n]
    r = near / 8.0
    # the closed form cancels near c = +-k: keep every node r from them
    dk = np.minimum(np.abs(kc - k), kc + k)
    r = np.where((dk >= 0.5 * r) & (dk <= 2.0 * r), 0.5 * dk, r)
    _, g = _nodes(plan, on, kc, r, _ARC)
    return np.vstack((_taylor(g, r, 2 * J + 1) - head, mu_last))


def _exponentials(plan):
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
    t, s, kc, level, on = plan.t, plan.s, plan.kc, plan.level, plan.run
    coefs, kn, P = plan.coefs, plan.kn, plan.size[plan.run]
    thr = _CUT * plan.target[on]
    # the bounds hold for each run, padding included; the terms are taken
    # in chunks of at most _ROWS (time, pole) pairs
    big = np.maximum.accumulate(np.abs(coefs)[:, ::-1], axis=1)[:, ::-1]
    low = np.minimum.accumulate(-kn.imag[:, ::-1], axis=1)[:, ::-1]
    left = np.minimum.accumulate(kn.real[:, ::-1], axis=1)[:, ::-1]
    two_s2 = 2.0 * s * s
    reach = np.log((P - level) * big[on, level] / thr) / (
        two_s2 * low[on, level])
    cut, ahead = np.empty_like(level), kc + reach
    for j, (a, n, size) in enumerate(zip(plan.first.tolist(),
                                         plan.lens.tolist(),
                                         plan.size.tolist())):
        cut[a:a + n] = np.searchsorted(left[j, :size], ahead[a:a + n])
    cut = np.maximum(level, cut)
    j = np.minimum(cut, P - 1)
    dropped = (P - cut) * big[on, j] * np.exp(
        -two_s2 * low[on, j] * np.maximum(left[on, j] - kc, 0.0))

    x, c2 = _per_term(plan.x_arg), _per_term(plan.c2)

    def terms(rows, n, pos):
        run = np.repeat(on[rows], n)
        pole = pos + np.repeat(level[rows], n)
        kt = kn[run, pole]
        rate = -1j * (c2(on[rows], n) / HBAR) * kt * kt
        e = rate * np.repeat(t[rows], n) + 1j * kt * x(on[rows], n)
        e[kt.real + kt.imag <= np.repeat(kc[rows], n)] = -1e3  # Im z >= 0
        np.exp(e, out=e)
        e *= coefs[run, pole]
        return e, e * rate

    return (*_ragged_sums(cut - level, _ROWS, terms), dropped)


def _pole_sum(plan):
    """(psi, dpsi, est): Psi and dPsi/dt at the plan's times in one pass,
    the incident pair less the sum over every pole, and the absolute error
    estimate per time.

    Every time sums its own exact poles (_heads), takes the omitted poles'
    series from one set of Cauchy nodes (_moments), inside on its run's
    ring (_ring), and evaluates only the damped exponentials that stay
    above _CUT times the target (_exponentials).  Each step is taken once
    for every time of every run of the batch, in blocks of times
    (_blocks) whose numbers do not depend on the cuts.
    """
    t, s, kc, a2t = plan.t, plan.s, plan.kc, plan.a2t
    psi, dpsi = _heads(plan)
    ring = _ring(plan) if plan.internal else None
    j = np.arange(_ORDER[plan.internal] + 1)[:, None]
    for rows in _blocks(plan.first, plan.lens,
                        None if plan.internal else plan.size,
                        lambda P: _RING if plan.internal else 2 * P):
        mu = _moments(plan, rows, ring)
        a2tr = a2t[rows]
        al = _alpha(j, s[rows], np.exp(1j * a2tr))
        psi[rows] -= np.sum(al * mu[0::2], axis=0)
        # d alpha_j/dt = alpha_j (-i a^2/t - j - 1/2)/t and
        # d mu_m/dt = m mu_{m+1} k_c/t
        dpsi[rows] -= np.sum(al / t[rows] * (
            (-1j * a2tr - j - 0.5) * mu[0::2]
            + (2 * j + 1) * kc[rows] * mu[1::2]), axis=0)
    e, de, dropped = _exponentials(plan)
    psi -= e
    dpsi -= de
    # each time's last two pool poles
    runs = np.arange(len(plan.size))[:, None]
    tail = plan.size[:, None] - 2 + np.arange(2)
    last_c, last_k = (_rows_of(a[runs, tail], plan.run)
                      for a in (plan.coefs, plan.kn))
    return psi, dpsi, plan.est + _beyond(last_c, last_k, s, kc) + dropped


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


def _assemble(probes, internal):
    """Shared evaluator of a batch of probes in one region, each a tuple
    (x, t, sys, table, tol); returns for each (psi, dpsi, n_used, err), or
    the NotConverged its check raises.

    Each pass sums the r-th runs of every probe (_runs) as one plan and one
    pole sum, each run sized at its own earliest time, so the working
    memory grows with the probes of a batch, not with the runs of one; a
    run's table serves its probe's later runs, so the cap is searched once
    per system.
    """
    x, t, sys, tables, tol = map(list, zip(*probes))
    k, v, L = np.array([(s.k, s.v_strength, s.L) for s in sys]).T[:, :, None]
    count = [len(tb.axis_poles) for tb in tables]

    def summed(items):
        # items: (probe, times, scale); the r-th runs of all of them are
        # one plan and one pole sum
        runs = [_runs(tt) for _, tt, _ in items]
        parts = [[] for _ in items]
        for r in range(max(map(len, runs))):
            on = [j for j, rr in enumerate(runs) if r < len(rr)]
            ts = [items[j][1][runs[j][r]] for j in on]
            i = [items[j][0] for j in on]
            plan = _plan(internal, [x[n] for n in i], ts, [sys[n] for n in i],
                         f_k[i], [axis[n] for n in i],
                         [tol[n] * _AIM * items[j][2] for j, n in zip(on, i)],
                         [tables[n] for n in i])
            for n, table in zip(i, plan.tables):
                if len(table) > len(tables[n]):
                    tables[n] = table
            sums = (*_pole_sum(plan), plan.level)
            for j, a, b in zip(on, plan.first, plan.first + plan.lens):
                parts[j].append([c[a:b] for c in sums])
        return [[np.concatenate(c) if len(c) > 1 else c[0] for c in zip(*part)]
                for part in parts]

    # an amplitude that overflows (a huge opacity) or a sum that does
    # (s^(2j+1) as t -> 0, a^2/t at a huge x) is not finite, and a sum or
    # estimate that is not finite misses, though no comparison with NaN
    # says so: the check below refuses it, and numpy need not warn
    with np.errstate(all="ignore"):
        kk = np.hstack((k, -k))
        f_k = (_phi(np.array(x, dtype=float)[:, None], kk, v, L) if internal
               else _transmission(kk, v, L))
        coefs, kn = expansion_coeffs(x, [tb.axis_poles for tb in tables],
                                     internal)
        ends = np.cumsum(count)
        axis = [(coefs[b - n:b], kn[b - n:b]) for n, b in zip(count, ends)]
        # size the sums against the stationary amplitude; points whose
        # |psi| lies so far below it that they miss tol are summed once
        # more, sized from |psi|, but not those that took all the cap's
        # exact poles: a second pass sums them at the same N
        out = summed([(i, t[i], abs(f_k[i, 0])) for i in range(len(probes))])
        again = []
        for i, (psi, dpsi, est, level) in enumerate(out):
            redo = np.flatnonzero((est > tol[i] * np.abs(psi))
                                  & (level < HARD_CAP // 2))
            out[i].append(int(level.max()))
            if redo.size:
                floor = max(float(np.min(np.abs(psi[redo]))), 1e-300)
                again.append((i, redo, 0.5 * floor))
        if again:
            for (i, redo, _), (psi, dpsi, est, level) in zip(again, summed(
                    [(i, t[i][redo], scale) for i, redo, scale in again])):
                mine = out[i]
                mine[0][redo], mine[1][redo], mine[2][redo] = psi, dpsi, est
                mine[4] = max(mine[4], int(level.max()))
        for mine in out:
            mine[2] = mine[2] / np.maximum(np.abs(mine[0]), 1e-300)
    return [_checked(x[i], t[i], tol[i], *out[i], count[i])
            for i in range(len(probes))]


def _checked(x, t, tol, psi, dpsi, rel, level, n_poles, n_axis):
    """One probe's sums, or the NotConverged that refuses them: the one
    check of _assemble, of every time whose estimate exceeds tol."""
    rel[~(np.isfinite(psi) & np.isfinite(dpsi) & np.isfinite(rel))] = np.inf
    miss = np.flatnonzero(rel > tol)
    if miss.size:
        cap = f" (cap {HARD_CAP})" if n_poles == HARD_CAP // 2 else ""
        last = f" to t={t[miss[-1]]:.6g} fs" if miss.size > 1 else ""
        return NotConverged(
            f"pole sum at x={float(x)} above tol={tol:.1e} at "
            f"{miss.size} of {len(t)} time points from "
            f"t={t[miss[0]]:.6g} fs{last}; worst error estimate "
            f"{rel.max():.1e} with N={n_poles} exact poles{cap}")
    return psi, dpsi, 2 + 2 * n_poles + n_axis, rel


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


def _lobatto(n):
    """The n Chebyshev-Lobatto points cos(pi j/(n - 1)) of [-1, 1], in
    ascending order."""
    return np.cos(np.linspace(-np.pi, 0.0, n))


def _cheb_coef(values):
    """Chebyshev coefficients of the interpolant through values at
    _lobatto(len(values)), a column per series: one real FFT of the values'
    even extension (a DCT-I)."""
    n = len(values) - 1
    f = values[::-1]                    # at cos(pi j/n), j = 0..n
    coef = np.fft.rfft(np.concatenate((f, f[-2:0:-1])), axis=0).real / n
    coef[0] /= 2.0
    coef[n] /= 2.0
    return coef


def _clenshaw(coef, u):
    """The Chebyshev series coef (a column per series) at u in [-1, 1], by
    Clenshaw's recurrence."""
    u2 = 2.0 * u
    c0, c1 = coef[-2], coef[-1]
    for c in coef[-3::-1]:
        c0, c1 = c - c1, c0 + c1 * u2
    return c0 + c1 * u


def _octaves(t):
    """The (a, b) ends and row indices of the octave panels of the
    increasing times t: [t0, 2 t0], [2 t0, 4 t0], ... from t0 = t[0] to
    t[-1], a last piece under half an octave joined to the one before.  A
    row on an inner end belongs to the later panel; a panel with no rows
    is left out."""
    ends = [t[0]]
    while 2.0 * ends[-1] < t[-1]:
        ends.append(2.0 * ends[-1])
    if len(ends) > 1 and t[-1] < math.sqrt(2.0) * ends[-1]:
        ends.pop()
    ends.append(t[-1])
    rows = np.split(np.arange(len(t)), np.searchsorted(t, ends[1:-1]))
    return [(a, b, r) for a, b, r in zip(ends, ends[1:], rows) if len(r)]


def _panels(x, t, sys, cache, tol) -> WaveTrace:
    """Psi(x, t) and dPsi/dt on PANEL_MIN or more checked times t, read off
    Chebyshev interpolants on octave panels of t (_octaves).

    Psi(x, .) is analytic for t > 0, so on an octave its Chebyshev
    interpolant converges like (3 + sqrt 8)^-n.  Each panel starts at the
    PANEL_NODES[0] Chebyshev-Lobatto times and doubles through the nested
    sizes of PANEL_NODES; each round is one direct sum (_direct) at tol
    over the new nodes of every panel still refining.  Inside the barrier
    Psi and dPsi/dt are interpolated; beyond it both times e^{-i a^2/t},
    a^2 = hbar x^2/(4 c2), the Moshinsky phase every external term shares.
    A panel is accepted when the last three coefficients of both
    interpolants are within PANEL_TAIL tol times their least modulus at
    its nodes and every row's estimate is within tol.  That estimate,
    relative to |Psi(t)|, is the Lebesgue constant of the nodes times the
    largest node estimate plus the Psi interpolant's tail read as noise:
    node values off by d at random end in coefficients of about
    d sqrt(2/(n - 1)).  A panel refused at the last size, or whose next
    size would sum more nodes than it has rows, takes its rows from a
    direct sum of its own times, one per stretch of such neighbours.
    n_terms_used is the most any sum took; a miss of any raises
    NotConverged.
    """
    a2 = 0.0 if x <= sys.L else HBAR * x * x / (4.0 * sys.c2)
    psi, dpsi = (np.empty(len(t), dtype=complex) for _ in range(2))
    err = np.empty(len(t))
    n_used, direct = 0, []
    # a refining panel: its ends, its rows and, a row per node, the columns
    # Re g, Im g, Re h, Im h of the interpolated g, h and the node's
    # absolute error estimate
    todo = [(a, b, rows, None) for a, b, rows in _octaves(t)]
    for size in PANEL_NODES:
        first = size == PANEL_NODES[0]
        fresh = size if first else size // 2   # the nodes a panel adds
        direct += [pan[2] for pan in todo if fresh > len(pan[2])]
        todo = [pan for pan in todo if fresh <= len(pan[2])]
        if not todo:
            break
        new = []
        for a, b, _, _ in todo:
            tn = a + (b - a) * 0.5 * (1.0 + _lobatto(size))
            tn[0], tn[-1] = a, b
            new.append(tn if first else tn[1::2])
        # neighbouring panels share an end in the first round
        every = np.concatenate(new)
        tr = _direct(x, every[np.concatenate(([True], np.diff(every) > 0.0))],
                     sys, cache, tol)
        n_used = max(n_used, tr.n_terms_used)
        at = np.searchsorted(tr.times, every)
        phase = np.exp(-1j * a2 / tr.times[at])
        g, h = tr.psi[at] * phase, tr.dpsi_dt[at] * phase
        cols = np.column_stack([g.real, g.imag, h.real, h.imag,
                                tr.trunc_error_est[at] * np.abs(g)])
        parts = np.split(cols, np.cumsum([len(tn) for tn in new])[:-1])
        # the Lebesgue constant of the Lobatto points (Trefethen, ATAP,
        # Thm 15.2), and the noise a tail stands for, over the tail
        spread = 2.0 / math.pi * math.log(size) + 1.0
        noise = math.sqrt(0.5 * (size - 1))
        still = []
        for (a, b, rows, old), part in zip(todo, parts):
            vals = part
            if not first:           # the new nodes fall between the old
                vals = np.empty((size, 5))
                vals[0::2], vals[1::2] = old, part
            coef = _cheb_coef(vals[:, :4])
            tail = np.max(np.hypot(coef[-3:, 0:4:2], coef[-3:, 1:4:2]), axis=0)
            least = np.min(np.hypot(vals[:, 0:4:2], vals[:, 1:4:2]), axis=0)
            if np.all(tail <= PANEL_TAIL * tol * least):
                u = np.clip((2.0 * t[rows] - (a + b)) / (b - a), -1.0, 1.0)
                v = _clenshaw(coef, u[:, None])
                back = np.exp(1j * a2 / t[rows])
                p_rows = (v[:, 0] + 1j * v[:, 1]) * back
                e_rows = spread * (np.max(vals[:, 4]) + noise * tail[0]) \
                    / np.abs(p_rows)
                if np.all(e_rows <= tol):
                    psi[rows], err[rows] = p_rows, e_rows
                    dpsi[rows] = (v[:, 2] + 1j * v[:, 3]) * back
                    continue
            still.append((a, b, rows, vals))
        todo = still
    # the rest in one sum per stretch of neighbouring panels: the runs of
    # a sum of a stretch are those of a sum of the grid from its start
    rest = sorted(direct + [pan[2] for pan in todo], key=lambda r: r[0])
    if rest:
        rest = np.concatenate(rest)
        for rows in np.split(rest, np.flatnonzero(np.diff(rest) > 1) + 1):
            tr = _direct(x, t[rows], sys, cache, tol)
            psi[rows], dpsi[rows], err[rows] = tr.psi, tr.dpsi_dt, \
                tr.trunc_error_est
            n_used = max(n_used, tr.n_terms_used)
    return WaveTrace(x=float(x), times=t, psi=psi, dpsi_dt=dpsi,
                     n_terms_used=n_used, trunc_error_est=err, system=sys)


def _sums(batch, internal):
    """_assemble over a batch; where one of its shared steps raises, each
    probe is summed alone, so each gets its own error."""
    try:
        return _assemble(batch, internal)
    except QTransientError as exc:
        if len(batch) == 1:
            return [exc]
        return [r for probe in batch for r in _sums([probe], internal)]


def _directs(probes, internal=None):
    """The direct pole sum of each probe (x, t, sys, poles, tol) at every
    one of its checked times t: a list of WaveTraces, or of the error each
    probe's sum raises.  The probes of each region are summed as one
    batch, inside the barrier (x <= L) unless internal says which."""
    out, ready = [None] * len(probes), []
    for i, (x, _, _, _, tol) in enumerate(probes):
        try:
            check_x(x)
            check_tol(tol)
        except QTransientError as exc:
            out[i] = exc
        else:
            ready.append(i)
    tables = pole_caches([probes[i][2] for i in ready],
                         [probes[i][3] for i in ready])
    groups = {True: [], False: []}
    for i, table in zip(ready, tables):
        x, t, sys, _, tol = probes[i]
        try:
            if isinstance(table, Exception):
                raise table
            _check_merging_pair(table, tol)
        except QTransientError as exc:
            out[i] = exc
        else:
            region = x <= sys.L if internal is None else internal
            groups[region].append((i, (x, t, sys, table, tol)))
    for region, group in groups.items():
        if group:
            sums = _sums([probe for _, probe in group], region)
            for (i, (x, t, sys, _, _)), r in zip(group, sums):
                out[i] = r if isinstance(r, Exception) else WaveTrace(
                    x=float(x), times=t, psi=r[0], dpsi_dt=r[1],
                    n_terms_used=r[2], trunc_error_est=r[3], system=sys)
    return out


def _direct(x, t, sys, poles=None, tol=DEFAULT_TOL) -> WaveTrace:
    """trace's pole sum at every one of the checked times t."""
    return single(_directs([(x, t, sys, poles, tol)]))


def batches(n, parts=1):
    """Contiguous slices of n probes of near-equal size: as few as hold at
    most BATCH each, and at least `parts` of them while there are probes
    to fill them.  These are the lockstep batches of traces, of
    find_time_domain_resonances and of the sweeps (parts one per pool
    thread), so their working memory does not grow with the probes."""
    count = max(-(-n // BATCH), min(parts, n))
    return [slice(n * b // count, n * (b + 1) // count) for b in range(count)]


def traces(probes) -> list:
    """trace for many probes at once, each a tuple (x, t_grid, sys, poles,
    tol): a list with each probe's WaveTrace, or the error trace raises
    for it.

    The grids of fewer than PANEL_MIN times are summed in lockstep
    batches (batches), each one batch per region: one pole search for the
    systems without a table (pole_caches), then every pass of the pole
    sum, plan and sum, once for all of them.  Longer grids are read off
    panels one at a time.  Each probe's numbers do not depend on the
    others: every probe gets bitwise what trace gives it alone.
    """
    out, short = [None] * len(probes), []
    for i, (x, t_grid, sys, poles, tol) in enumerate(probes):
        try:
            t = check_times(t_grid)
            if len(t) < PANEL_MIN:
                short.append((i, (x, t, sys, poles, tol)))
                continue
            # refused before the pole search, as in the direct sum
            check_x(x)
            check_tol(tol)
            cache = pole_cache(sys, poles)
            try:
                out[i] = _panels(x, t, sys, cache, tol)
            except NotConverged:
                out[i] = _direct(x, t, sys, cache, tol)
        except QTransientError as exc:
            out[i] = exc
    for part in batches(len(short)):
        for (i, _), r in zip(short[part],
                             _directs([probe for _, probe in short[part]])):
            out[i] = r
    return out


def trace(x, t_grid, sys: BarrierSystem, poles=None,
          tol=DEFAULT_TOL) -> WaveTrace:
    """Transient wavefunction at fixed x over a time grid.

    Uses the internal expansion for x <= L, the external one for x >= L
    (identical at x = L up to truncation).  `poles` may be a PoleSet of
    this system, as pole_cache returns it, to share between traces; one
    shorter than pole_cache's is replaced by a fresh table.  Only the poles
    are shared: each trace computes the expansion coefficients of the pole
    pool of each of its runs.  A grid of fewer than PANEL_MIN times is
    summed at every time (_direct), a longer one read off Chebyshev panels
    (_panels); where any panel sum misses tol, the whole grid is summed
    directly, so the panels refuse nothing that the direct sum serves.
    This is traces of one probe.
    """
    return single(traces([(x, t_grid, sys, poles, tol)]))


def _sample(x, t, sys, poles, tol, internal) -> WaveSample:
    tr = single(_directs([(x, check_times([t]), sys, poles, tol)], internal))
    return WaveSample(float(x), float(t), complex(tr.psi[0]),
                      complex(tr.dpsi_dt[0]), tr.n_terms_used,
                      float(tr.trunc_error_est[0]))


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
    return single(pole_caches([sys], [base]))


def pole_caches(systems, bases) -> list:
    """pole_cache of each system with its base (or None): a list of
    tables, or of the error each raises.  The systems that need a search
    are searched once each, together in one Newton (find_pole_tables)."""
    depth, out, need = HARD_CAP // 4, [None] * len(systems), {}
    for i, (sys, base) in enumerate(zip(systems, bases)):
        if base is not None and base.system != sys:
            out[i] = PoleSetMismatch(
                f"poles found for {base.system} cannot serve {sys}")
        elif base is not None and len(base) >= depth:
            out[i] = base
        else:
            need.setdefault(sys, []).append(i)
    found = find_pole_tables(list(need), depth) if need else []
    for rows, table in zip(need.values(), found):
        for i in rows:
            out[i] = table
    return out
