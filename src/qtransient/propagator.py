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

The pole sums converge slowly (oscillatory O(1/n) tails) in the internal
region; partial sums over (+n, -n) pairs are extrapolated with the Wynn
epsilon algorithm, and pole blocks are doubled until the extrapolated value
is stable to the requested tolerance.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveTime, NotConverged, XOutOfRange
from .moshinsky import moshinsky_m_dt
from .resonances import PoleSet, expansion_coeffs, find_poles
from .stationary import phi_stationary, transmission
from .systems import BarrierSystem

DEFAULT_TOL = 1e-8
HARD_CAP = 2048
_BLOCK = 8
_WYNN_WIDTH = 25
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
    """Psi(x, t) on a fixed-x time grid, with analytic time derivatives."""

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


class _PoleCache:
    """The pole list shared by every trace on one system.

    `poles(n)` hands out the first n poles, extending the list through
    find_poles(previous=...) on demand.  The pole sequence is prefix-stable:
    the first n poles do not depend on how far the list has been extended,
    so one cache serves any number of positions and threads.  The cache
    keeps no per-position state and no mirror poles: each trace computes
    the expansion coefficients of the poles it sums, cheap closed forms,
    and takes the mirror terms from symmetry.  A lock guards every
    extension.
    """

    def __init__(self, sys: BarrierSystem, base: PoleSet | None = None):
        self.sys = sys
        self.poleset = base if base is not None else find_poles(sys, _BLOCK, audit=False)
        self._lock = threading.Lock()

    def poles(self, n: int):
        """The first n poles."""
        with self._lock:
            if self.poleset.N_max < n:
                self.poleset = find_poles(self.sys, n, audit=False,
                                          previous=self.poleset)
            return self.poleset.poles[:n]


def _wynn_tail(partials, width=_WYNN_WIDTH):
    """Wynn epsilon extrapolation of the trailing partial sums.

    The pole-sum tail is a superposition of a few slowly decaying oscillatory
    modes exp(i n pi x / L)/n; the epsilon algorithm annihilates such modes
    exactly, reaching the limit from a few dozen terms where direct summation
    would need tens of thousands.  Vanishing denominators flag columns that
    have already converged; those entries are masked out and the estimate is
    frozen at the last valid even column.  Returns (value, error_estimate)
    per leading axis.
    """
    w = min(width, partials.shape[-1])
    e_curr = np.array(partials[..., -w:], dtype=complex)
    e_prev = np.zeros(partials.shape[:-1] + (w + 1,), dtype=complex)
    valid_curr = np.ones(e_curr.shape, dtype=bool)
    valid_prev = np.ones(e_prev.shape, dtype=bool)
    best = e_curr[..., -1].copy()
    prev_best = e_curr[..., -2].copy() if w >= 2 else best.copy()
    col = 0
    while e_curr.shape[-1] >= 2:
        d = e_curr[..., 1:] - e_curr[..., :-1]
        ok = valid_curr[..., 1:] & valid_curr[..., :-1] & (np.abs(d) > 1e-305)
        e_next = e_prev[..., 1:-1] + np.where(ok, 1.0 / np.where(ok, d, 1.0), 0.0)
        valid_next = ok & valid_prev[..., 1:-1]
        e_prev, valid_prev = e_curr, valid_curr
        e_curr, valid_curr = e_next, valid_next
        col += 1
        if col % 2 == 0:
            upd = valid_curr[..., -1]
            prev_best = np.where(upd, best, prev_best)
            best = np.where(upd, e_curr[..., -1], best)
    return best, np.abs(best - prev_best)


def _assemble(x, t_grid, sys, poles, tol, internal, cap=HARD_CAP):
    """Shared evaluator for both regions; returns psi, dpsi, n_used, err."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0):
        raise NonPositiveTime("times must be > 0")
    cache = pole_cache(sys, poles)
    k = sys.k
    x_arg = 0.0 if internal else x

    if internal:
        c_plus = complex(phi_stationary(x, k, sys))
        c_minus = complex(phi_stationary(x, -k, sys))
    else:
        c_plus = transmission(k, sys)
        c_minus = transmission(-k, sys)
    m_inc, dm_inc = _moshinsky_block(x_arg, np.array([k, -k]), t_grid, sys.c2)
    head = c_plus * m_inc[:, 0] - c_minus * m_inc[:, 1]
    dhead = c_plus * dm_inc[:, 0] - c_minus * dm_inc[:, 1]

    # antibound (imaginary-axis) poles are self-conjugate under the mirror
    # map and enter the sum exactly once; being few and slowly damped they
    # are folded into the head rather than the accelerated tail
    axis = cache.poleset.axis_poles
    if axis:
        a_coefs, a_ks = expansion_coeffs(x, k, axis, sys, internal)
        m_ax, dm_ax = _moshinsky_block(x_arg, a_ks, t_grid, sys.c2)
        head = head - m_ax @ a_coefs
        dhead = dhead - dm_ax @ a_coefs

    live = t_grid >= SMALL_T_GUARD
    t_live = t_grid[live]
    n_live = len(t_live)
    s_out = np.zeros(n_live, dtype=complex)
    d_out = np.zeros(n_live, dtype=complex)
    err_out = np.zeros(n_live)
    active = np.ones(n_live, dtype=bool)

    n_pos = min(2 * _BLOCK, cap)
    n_top = n_pos if n_live else 0
    rounds = 0
    s_hist = np.zeros(n_live, dtype=complex)
    diff_hist = np.zeros(n_live)
    # pair-summed pole terms already evaluated, one row per active point;
    # each doubling round evaluates only the poles it adds
    terms = np.zeros((n_live, 0), dtype=complex)
    dterms = np.zeros((n_live, 0), dtype=complex)
    while n_live and active.any():
        coefs, kn = expansion_coeffs(x, k, cache.poles(n_pos)[terms.shape[1]:],
                                     sys, internal)
        n_new = len(kn)
        m, dm = _moshinsky_block(x_arg, np.concatenate((kn, -kn.conj())),
                                 t_live[active], sys.c2)
        # pair column n: c_n M(k_n) + c_{-n} M(k_{-n}), c_{-n} = -conj c_n
        cc = coefs.conj()
        terms = np.hstack((terms, coefs * m[:, :n_new] - cc * m[:, n_new:]))
        dterms = np.hstack((dterms, coefs * dm[:, :n_new] - cc * dm[:, n_new:]))
        # at symmetry points (e.g. x = L/2) alternate Gamow terms vanish,
        # leaving near-repeated partial sums that destabilize the epsilon
        # table; drop negligible pair columns before accumulating
        col = np.max(np.abs(terms), axis=0)
        dcol = np.max(np.abs(dterms), axis=0)
        keep = (col > 1e-14 * col.max()) | (dcol > 1e-14 * dcol.max())
        kept, dkept = ((terms, dterms) if keep.all()
                       else (terms[:, keep], dterms[:, keep]))
        s_val, s_err = _wynn_tail(np.cumsum(kept, axis=1))
        d_val, _ = _wynn_tail(np.cumsum(dkept, axis=1))
        scale = np.maximum(np.abs(head[live][active] - s_val), 1e-300)
        # The extrapolation's internal estimate s_err can be optimistic, so
        # the error is judged by the change across block doublings: if
        # successive changes shrink by a factor r, the remaining error is
        # ~ diff/(r - 1).  Every point still active has been through every
        # doubling, so per-point history stays aligned as converged points
        # retire.
        if rounds >= 1:
            diff = np.abs(s_val - s_hist[active])
            if rounds >= 2:
                r = np.clip(diff_hist[active] / np.maximum(diff, 1e-300), 2.0, 64.0)
                rel_err = diff / (r - 1.0) / scale
            else:
                rel_err = diff / scale
            diff_hist[active] = diff
        else:
            rel_err = (np.full(scale.shape, np.inf) if n_pos < cap
                       else s_err / scale)
        s_hist[active] = s_val
        s_out[active] = s_val
        d_out[active] = d_val
        err_out[active] = rel_err
        done = rel_err <= tol
        if done.all() or n_pos >= cap:
            break
        idx = np.flatnonzero(active)
        active[idx[done]] = False
        if done.any():
            terms, dterms = terms[~done], dterms[~done]
        n_top = n_pos = min(2 * n_pos, cap)
        rounds += 1
    if np.any(err_out > tol):
        worst = int(np.argmax(err_out))
        raise NotConverged(
            f"pole sum at x={float(x)} above tol={tol:.1e} at "
            f"{int(np.sum(err_out > tol))} of {n_live} time points with "
            f"{n_top} positive poles (cap {cap}); worst "
            f"t={t_live[worst]:.6g} fs, error estimate {err_out[worst]:.1e}")

    psi = np.zeros(t_grid.shape, dtype=complex)
    dpsi = np.zeros(t_grid.shape, dtype=complex)
    err = np.zeros(t_grid.shape)
    psi[live] = head[live] - s_out
    dpsi[live] = dhead[live] - d_out
    err[live] = err_out
    return psi, dpsi, 2 * n_top + 2, err


def check_x(x):
    """Reject a probe position the expansions cannot evaluate."""
    if not 0 <= x < np.inf:
        raise XOutOfRange(
            f"x must be finite and >= 0 (reflection region not modeled), got x={x}")


def trace(x, t_grid, sys: BarrierSystem, poles=None, tol=DEFAULT_TOL,
          cap=HARD_CAP) -> WaveTrace:
    """Transient wavefunction at fixed x over a time grid.

    Uses the internal expansion for x <= L, the external one for x >= L
    (identical at x = L up to truncation).  `poles` may be a pole cache to
    share between traces on this system, or a PoleSet to start one from;
    either is extended on demand.  Only the poles are shared: each trace
    computes the expansion coefficients of the poles it sums.
    """
    check_x(x)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or not np.isfinite(t_grid).all() \
            or np.any(np.diff(t_grid) <= 0):
        raise NonPositiveTime(
            "time grid must be nonempty, finite and strictly increasing")
    psi, dpsi, n_used, err = _assemble(x, t_grid, sys, poles, tol, x <= sys.L,
                                       cap)
    return WaveTrace(x=float(x), times=t_grid, psi=psi, dpsi_dt=dpsi,
                     n_terms_used=n_used, trunc_error_est=err, system=sys)


def _sample(x, t, sys, poles, tol, internal, cap) -> WaveSample:
    check_x(x)
    if not 0 < t < np.inf:
        raise NonPositiveTime(f"t must be finite and > 0, got t={t}")
    psi, dpsi, n_used, err = _assemble(x, np.array([t]), sys, poles, tol,
                                       internal, cap)
    return WaveSample(float(x), float(t), complex(psi[0]), complex(dpsi[0]),
                      n_used, float(err[0]))


def psi_internal(x, t, sys: BarrierSystem, poles=None, tol=DEFAULT_TOL,
                 cap=HARD_CAP) -> WaveSample:
    """Barrier-region evaluation at one (x, t), 0 <= x <= L."""
    if not 0.0 <= x <= sys.L * (1 + 1e-12):
        raise XOutOfRange("psi_internal requires 0 <= x <= L")
    return _sample(x, t, sys, poles, tol, True, cap)


def psi_external(x, t, sys: BarrierSystem, poles=None, tol=DEFAULT_TOL,
                 cap=HARD_CAP) -> WaveSample:
    """Transmitted-region evaluation at one (x, t), x >= L."""
    if x < sys.L * (1 - 1e-12):
        raise XOutOfRange("psi_external requires x >= L")
    return _sample(x, t, sys, poles, tol, False, cap)


def pole_cache(sys: BarrierSystem,
               base: PoleSet | _PoleCache | None = None) -> _PoleCache:
    """Reusable pole cache for many traces on the same system.

    `base` may be a PoleSet to start from; a pole cache is returned as it is.
    """
    return base if isinstance(base, _PoleCache) else _PoleCache(sys, base)
