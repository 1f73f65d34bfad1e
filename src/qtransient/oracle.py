"""Brute-force grid oracle: the theta scheme on the unbounded lattice, in closed form.

An independent verifier for the analytic propagator.  The cutoff initial
wave Theta(-x)(e^{ikx} - e^{-ikx}) is discretized on a uniform lattice, the
barrier potential is cell-averaged onto the nodes (point sampling would
snap the edges and change the effective width by O(dx), which the
transmission amplifies exponentially), and the field follows the
unconditionally stable implicit theta scheme

    (1 + i theta H dt / hbar) psi_next = (1 - i (1 - theta) H dt / hbar) psi

with tridiagonal H; theta = 0.5 is the norm-preserving Crank-Nicolson
scheme.  The default is slightly over-implicit, theta = 1/2 + 1/36, paired
with dt = 0.45 dx^2 hbar / c2: a mode of energy E is damped by about
(2 theta - 1) (E / hbar)^2 dt / 2 per fs, and (2 theta - 1) dt is kept at
0.025 dx^2 hbar / c2, so physical frequencies are barely touched while the
zero-group-velocity band-edge lattice modes radiated by the initial kink at
the shutter (E ~ 4 c2 / dx^2) decay like e^{-20} per fs on the GaAs grid.
That junk would otherwise contaminate the exponentially small transmitted
signal and does not vanish under grid refinement.

The untapered sea S_j = 2i sin(k x_j) for x_j <= 0 (0 beyond) is an
eigenvector of the discrete H with eigenvalue lam_s = 2 (c2/dx^2)(1 - cos k
dx) at every node but x = 0, so the scheme advances it in closed form,
g^n S with g = (1 - i (1 - theta) lam_s dt/hbar) / (1 + i theta lam_s
dt/hbar).  The disturbance chi = psi - g^n S starts at zero and is driven
by a source at x = 0 alone, A chi^{n+1} = B chi^n + s0 g^n e_0, on the
whole unbounded lattice: no window, no walls and no time loop.  Its Z
transform X(z) = sum_n chi^n z^-n is, with lambda = i theta dt/hbar and
mu = i (1 - theta) dt/hbar,

    X_j(z) = s0 / ((1 - g/z)(z lambda + mu)) G(j, 0; E(z)),
    E(z) = (1 - z) / (z lambda + mu),

G = (H - E)^-1 the lattice resolvent (Antoine, Arnold, Besse, Ehrhardt &
Schaedle, Commun. Comput. Phys. 4, 729 (2008), give the same transform as
the exact discrete transparent boundary condition).  X is analytic for
|z| > 1, so chi^n = R^n ifft(X(R e^{2 pi i j/N}))[n] up to the alias
chi^{n+N} / R^N: N is a power of two of at least 4 (steps + 1) and
R^N = 1e13.  The sum is taken as four interleaved quarter circles, each
one inverse FFT of values formed 1024 points at a time, and only the steps
that bracket a requested time are kept.

G is needed only on the key nodes: x = 0, the nodes floor(L/dx) and
floor(L/dx) + 1 that hold any partial edge cell (so dx need not put the
edges on nodes), and each probe's two bracketing nodes.  Between two keys
lies a run of m nodes at one potential v, 0 or V, eliminated in closed
form with its decaying root beta, beta + 1/beta = 2 - E/hop + v/hop
(hop = c2/dx^2): in units of hop, each end's diagonal loses
beta (1 - beta^2m) / (1 - beta^(2m+2)), the two ends couple through
-beta^m (1 - beta^2) / (1 - beta^(2m+2)), and the semi-infinite runs
beyond the outer keys take rho, the root at v = 0, off their diagonal.
The key-node systems of 1024 z at a time are one batched tridiagonal
solve (solve_banded), so the cost grows with the steps, like N log N, and
not with the distance of the probes.

The sum's error at step n is estimated as 10 (|chi^{N-1}| / 1e13 +
eps R^n max|X|): the alias, with the sum's own value at N - 1 standing in
for chi^{n+N}, and the rounding, which follows the largest |X| on the
circle.  A (probe, step) whose value is not 1e9 times above its estimate,
as before the signal arrives or far beyond the barrier, is retaken on
circles of radius 1.25^k, k = 1, 2, ..., with N a power of two of at least
max(256, 4 (n + 1)), until two successive circles agree within 1e-9, or
R^n would pass 1e250.  Of the two successive circles that agree best, the
value with the smaller rounding estimate eps r^n max|X| is kept.  At
alpha = 20, from 0.05 to 3 fs, every value down to 1e-200 then lies within
1.5e-10 of a plain stepper; below that the values are not resolved (0.14
off between 1e-250 and 1e-200).

This module is test / CLI infrastructure only; nothing in the analytic
evaluation path imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GridTooCoarse, NonFiniteInput, NonPositiveParameter,
                     ValidationError)
from .propagator import check_times
from .systems import BarrierSystem, HBAR_EV_FS as HBAR

_DX_LIMIT = 0.1          # max _scale*dx: ~60 points per wavelength
_CHUNK = 1024            # z points per batched lattice solve
_ALIAS = 1e13            # R^N of the main circle: the alias is chi^{n+N}/1e13
_AGREE = 1e-9            # a value's relative trust, and retakes' agreement
_RETAKE = 1.25           # retake circles have radii _RETAKE^k
_RETAKE_MAX = 1e250      # the largest R^n of a retake
_EPS = np.finfo(float).eps
# the longest run: its circle has 2^20 points, and at the default GaAs grid
# (dt = 2.48 as) it reaches 620 fs
_MAX_STEPS = 250_000


@dataclass(frozen=True)
class CnConfig:
    """Grid and stepping parameters for the Crank-Nicolson oracle.

    There is no window: cn_evolve solves on the unbounded lattice.
    """

    dx: float               # nm
    dt: float               # fs
    theta: float = 0.5 + 1.0 / 36.0
                            # implicitness; 0.5 is unitary Crank-Nicolson.
                            # With default_cn_config's dt = 0.45 dx^2 hbar/c2
                            # damping (2 theta - 1) dt is 0.025 dx^2 hbar/c2


def _scale(sys):
    """The largest wavenumber a grid resolves; |kappa0| never exceeds it."""
    return max(sys.k, math.sqrt(sys.v_strength))


def default_cn_config(sys: BarrierSystem, t_end: float, dx=None) -> CnConfig:
    """A config that satisfies every validity guard for a window [0, t_end].

    dx resolves both the incident wavelength and the barrier scale (snapped
    so the barrier edges land on grid nodes); dt = 0.45 dx^2 hbar / c2 sits
    below the accuracy heuristic dt < dx^2 hbar / (2 c2) that _validate
    enforces, and with the default theta its damping (2 theta - 1) dt is
    0.025 dx^2 hbar / c2.  Neither depends on t_end: the lattice is
    unbounded, so nothing grows with the time window.  t_end only sets the
    step count, which must stay within the oracle's bound (ValidationError
    otherwise).
    """
    if dx is None:
        dx = 0.5 * _DX_LIMIT / _scale(sys)
    # snap dx so the barrier edges (and half-width multiples, the usual
    # probe positions) fall exactly on grid nodes; a sub-cell edge offset
    # shifts the effective width, which the transmission amplifies
    dx = 0.5 * sys.L / max(1, round(0.5 * sys.L / dx))
    dt = 0.45 * dx * dx * HBAR / sys.c2
    _step_count(t_end, dt)
    return CnConfig(dx=dx, dt=dt)


def _step_count(t_end, dt):
    """The most steps a run to t_end can take; raises ValidationError above
    _MAX_STEPS."""
    if not t_end / dt < _MAX_STEPS:
        raise ValidationError(
            f"oracle run to t_end={t_end:.6g} fs at dt={dt:.6g} fs needs "
            f"{t_end / dt:.6g} steps; the bound is {_MAX_STEPS}")
    return math.ceil(t_end / dt) + 1


@dataclass(frozen=True)
class CnTrace:
    """Probe traces from one Crank-Nicolson evolution.

    There is no norm: the incident sea is infinite, and the lattice is open.
    """

    times: np.ndarray       # (T,)
    probes: np.ndarray      # (P,)
    psi: np.ndarray         # (P, T) complex
    steps: int              # theta-steps to the last time

    @property
    def abs2(self):
        return np.abs(self.psi) ** 2


def _validate(sys, cfg, probes):
    # a non-positive dt never reaches t_end, and a non-finite grid would
    # only fail later inside numpy
    for name in ("dx", "dt"):
        if not math.isfinite(getattr(cfg, name)):
            raise NonFiniteInput(f"{name}={getattr(cfg, name)} must be finite")
        if getattr(cfg, name) <= 0.0:
            raise NonPositiveParameter(
                f"{name}={getattr(cfg, name)} must be positive")
    # the key nodes come from the probes: an empty list has no probe, and a
    # non-finite one no node
    if probes.ndim != 1 or len(probes) == 0:
        raise ValidationError(
            f"probes must be a non-empty list of positions, got {probes!r}")
    if not np.isfinite(probes).all():
        raise NonFiniteInput(f"probes={probes.tolist()} must be finite")
    scale = _scale(sys)
    if scale * cfg.dx >= _DX_LIMIT:
        raise GridTooCoarse(
            f"dx={cfg.dx} resolves neither wave: need dx < {_DX_LIMIT / scale:.4g}")
    dt_max = 0.5 * cfg.dx * cfg.dx * HBAR / sys.c2
    if cfg.dt >= dt_max:
        raise GridTooCoarse(f"dt={cfg.dt} above accuracy heuristic {dt_max:.4g}")
    if not 0.5 <= cfg.theta <= 1.0:
        raise GridTooCoarse(f"theta={cfg.theta} outside the stable range [0.5, 1]")
    # the roots square kappa(z), and on |z| = R, R least on the longest run,
    # |kappa| <= 1 + (R + 1) / (2 w (theta (R + 1) - 1))
    w = cfg.dt * (sys.c2 / (cfg.dx * cfg.dx)) / HBAR
    r = _circle(_MAX_STEPS)[1] + 1.0
    if not 2.0 * w * (cfg.theta * r - 1.0) * math.sqrt(np.finfo(float).max) > r:
        raise ValidationError(f"dt={cfg.dt} fs gives w = dt c2/(hbar dx^2) = "
                              f"{w:.3g}, so small the lattice roots overflow")


def check_run(sys: BarrierSystem, cfg: CnConfig, probes, t_end):
    """The most steps a cn_evolve run to t_end takes.

    Checks every guard on the grid and the probes and the step bound
    before anything is computed, raising ValidationError (or a subclass)
    on the first that fails.
    """
    _validate(sys, cfg, np.asarray(probes, dtype=float))
    return _step_count(t_end, cfg.dt)


def _points(n):
    """The points of a circle whose sum resolves coefficients up to n (an
    int or an int array): the least power of two of at least 4 (n + 1)."""
    return 2 ** np.ceil(np.log2(4.0 * (np.asarray(n) + 1))).astype(int)


def _circle(n):
    """(size, radius): the points and circle of the sum for steps up to n."""
    size = int(_points(n))
    return size, _ALIAS ** (1.0 / size)


def _coefficients(f, size, radius, wanted):
    """(c, top): the Laurent coefficients c_p, p in wanted (each below
    size), of f(z) = sum_p c_p z^-p, by the trapezoid sum on size points of
    |z| = radius, and the largest |f| there.  f maps z of shape (m,) to
    values of shape (..., m); c has shape (..., len(wanted)).

    The sum is taken as four interleaved quarter circles, the points
    j = b mod 4: the inverse FFT F_b of quarter b, size / 4 points long,
    read at p mod size / 4, is its share of the sum but for the factor
    e^{2 pi i b p / size}, so c_p = (F_0 + e (F_1 + e (F_2 + e F_3))) R^p / 4
    with e = e^{2 pi i p / size}, and no array of size points is built.
    Each quarter is evaluated _CHUNK points at a time and freed before its
    FFT is read.
    """
    # read at p mod size / 4; a second index array only when it differs
    index = wanted if wanted.max() < size // 4 else wanted % (size // 4)
    out, top = None, 0.0
    for b in (3, 2, 1, 0):
        quarter = None
        for start in range(0, size // 4, _CHUNK):
            j = 4 * np.arange(start, min(start + _CHUNK, size // 4)) + b
            values = f(radius * np.exp(2j * np.pi * j / size))
            if quarter is None:
                quarter = np.empty(values.shape[:-1] + (size // 4,), complex)
            quarter[..., start:start + _CHUNK] = values
            top = np.maximum(top, abs(values).max(axis=-1))
        spectrum = np.fft.ifft(quarter)
        del quarter
        if out is None:
            out = np.zeros(spectrum.shape[:-1] + wanted.shape, complex)
        out *= np.exp(2j * np.pi / size * wanted)
        out += spectrum[..., index]
        del spectrum
    out *= 0.25 * radius ** wanted
    return out, top


def _decaying_root(d):
    """The root r, |r| < 1, of r + 1/r = d: the reciprocal of the growing
    root, taken without cancellation."""
    half = 0.5 * d
    root = np.sqrt(half * half - 1.0)
    return 1.0 / np.where((half.conjugate() * root).real >= 0.0,
                          half + root, half - root)


def solve_banded(l_and_u, ab, rhs):
    """x with A x = rhs for the tridiagonal A in scipy.linalg.solve_banded's
    (1, 1) layout: ab[0, 1:] the super-diagonal, ab[1] the diagonal,
    ab[2, :-1] the sub-diagonal.  Trailing axes of ab and rhs hold
    independent systems, solved together by one unpivoted elimination.

    Raises ValueError on a non-finite entry and LinAlgError on a zero
    pivot.  cn_evolve's key-node systems need no pivots: eliminating from
    the left, each pivot is the reciprocal of a diagonal entry of a
    half-lattice resolvent at a non-real E, which is not zero.
    """
    if tuple(l_and_u) != (1, 1):
        raise ValueError(f"only (l, u) = (1, 1) is solved, got {l_and_u}")
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    sup, diag, sub = ab
    x = np.array(rhs, dtype=complex)
    pivots = [diag[0]]
    for i in range(1, len(diag)):
        if not np.all(pivots[-1]):
            raise np.linalg.LinAlgError(f"zero pivot in row {i - 1}")
        f = sub[i - 1] / pivots[-1]
        pivots.append(diag[i] - f * sup[i])
        x[i] -= f * x[i - 1]
    if not np.all(pivots[-1]):
        raise np.linalg.LinAlgError(f"zero pivot in row {len(diag) - 1}")
    x[-1] /= pivots[-1]
    for i in range(len(diag) - 2, -1, -1):
        x[i] = (x[i] - sup[i + 1] * x[i + 1]) / pivots[i]
    return x


def _retake(f, wanted, chi, error):
    """Retake in place each chi[:, i], the coefficient wanted[i] of f, that
    is not 1e9 times above its error estimate, on circles of radius
    _RETAKE^k, k = 1, 2, ..., of 2^8 points or the least power of two of at
    least 4 (n + 1), until two successive circles agree within _AGREE or
    R^n passes _RETAKE_MAX.  Of the two successive circles that agree best
    (the first circle and its estimate, error, included), the value whose
    rounding estimate is smaller is kept."""
    pending = (error > _AGREE * abs(chi)) & (wanted > 0)
    prev, gap = chi.copy(), np.full(chi.shape, np.inf)
    sizes = np.maximum(256, _points(wanted))
    k = 0
    while pending.any():
        k += 1
        pending &= k * math.log(_RETAKE) * wanted <= math.log(_RETAKE_MAX)
        live = pending.any(axis=0)
        for size in sorted(set(sizes[live].tolist())):
            cols = np.flatnonzero(live & (sizes == size))
            again, top = _coefficients(f, size, _RETAKE ** k, wanted[cols])
            rounding = 10.0 * _EPS * top[:, None] * _RETAKE ** (k * wanted[cols])
            miss = abs(again - prev[:, cols])
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = miss / abs(again)
            take = pending[:, cols]
            best = take & (rel < gap[:, cols])
            pick = np.where(rounding < error[:, cols], again, prev[:, cols])
            chi[:, cols] = np.where(best, pick, chi[:, cols])
            gap[:, cols] = np.where(best, rel, gap[:, cols])
            prev[:, cols] = np.where(take, again, prev[:, cols])
            error[:, cols] = np.where(take, rounding, error[:, cols])
            pending[:, cols] = take & ~(miss <= _AGREE * abs(again))


def cn_evolve(sys: BarrierSystem, cfg: CnConfig, probes, t_grid) -> CnTrace:
    """Evolve the shutter initial state and sample psi at probe positions.

    The scheme is solved on the unbounded lattice in closed form (see the
    module docstring).  Probe values are linearly interpolated between the
    two bracketing nodes, and between the two steps bracketing each
    requested time (consistent with the O(dt^2) accuracy of the scheme).
    """
    t_grid = check_times(t_grid)
    probes = np.asarray(probes, dtype=float)
    check_run(sys, cfg, probes, t_grid[-1])
    dx, theta = cfg.dx, cfg.theta
    # a time is reached by the first step s with t <= s dt + slack, a slack
    # relative to dt so a time on a step is not pushed to the next
    after = np.ceil((t_grid - 1e-9 * cfg.dt) / cfg.dt).clip(min=1.0)
    frac = t_grid / cfg.dt - (after - 1.0)
    steps = int(after[-1])
    wanted = np.array(sorted(set(after.tolist()) | set((after - 1).tolist())),
                      dtype=int)
    slot = np.searchsorted(wanted, after)

    # the key nodes, and the runs of nodes between them: the barrier's
    # inside (0, floor(L/dx)) is at V, the rest at 0
    edge = math.floor(sys.L / dx)
    below = [math.floor(p / dx) for p in probes.tolist()]
    keys = sorted({0, edge, edge + 1}.union(below, [j + 1 for j in below]))
    place = {j: i for i, j in enumerate(keys)}
    x = dx * np.array(keys, dtype=float)
    overlap = (np.minimum(x + 0.5 * dx, sys.L)
               - np.maximum(x - 0.5 * dx, 0.0)).clip(min=0.0)
    hop = sys.c2 / (dx * dx)
    w = cfg.dt * hop / HBAR
    on_key = (sys.V / (dx * hop)) * overlap
    runs = [(i, b - a - 1, 0 <= a and b <= edge)
            for i, (a, b) in enumerate(zip(keys, keys[1:])) if b - a > 1]
    k0 = place[0]
    lo = [place[j] for j in below]
    hi = [place[j + 1] for j in below]
    weight = (probes / dx - np.array(below, dtype=float))[:, None]

    # the sea g^n S at the probes and the source s0 g^n at x = 0 it drives
    sea = np.where(x <= 0.0, 2j * np.sin(sys.k * x), 0.0)
    sea = (1.0 - weight[:, 0]) * sea[lo] + weight[:, 0] * sea[hi]
    lam_s = 2.0 * hop * (1.0 - math.cos(sys.k * dx))
    g = ((1.0 - 1j * (1.0 - theta) * cfg.dt * lam_s / HBAR)
         / (1.0 + 1j * theta * cfg.dt * lam_s / HBAR))
    r0 = 2j * hop * math.sin(sys.k * dx)
    s0 = -1j * cfg.dt / HBAR * r0 * ((1.0 - theta) + g * theta)

    def transform(z):
        """X(z) at the probes: G(j, 0) hop from the key-node solve."""
        scaled = 1j * w * (theta * z + 1.0 - theta)
        two_kappa = 2.0 + (z - 1.0) / scaled
        rho = _decaying_root(two_kappa)
        beta = _decaying_root(two_kappa + sys.V / hop)
        ab = np.zeros((3, len(keys), len(z)), dtype=complex)
        ab[0, 1:] = ab[2, :-1] = -1.0
        ab[1] = two_kappa + on_key[:, None]
        ab[1, [0, -1]] -= rho
        for i, m, inside in runs:
            r = beta if inside else rho
            power = r ** m
            share = 1.0 / (1.0 - power * power * r * r)
            ab[1, i:i + 2] -= r * (1.0 - power * power) * share
            ab[0, i + 1] = ab[2, i] = -power * (1.0 - r * r) * share
        rhs = np.zeros((len(keys), len(z)), dtype=complex)
        rhs[k0] = 1.0
        y = solve_banded((1, 1), ab, rhs)
        at = (1.0 - weight) * y[lo] + weight * y[hi]
        return at * (s0 / ((1.0 - g / z) * scaled))

    size, radius = _circle(steps)
    chi, top = _coefficients(transform, size, radius,
                             np.append(wanted, size - 1))
    # chi^{size-1} sizes the alias chi^{n+size} / _ALIAS of every step
    chi, late = chi[:, :-1], abs(chi[:, -1:])
    chi[:, wanted == 0] = 0.0        # chi^0 = 0: the sum there is alias
    error = 10.0 * (late / _ALIAS + _EPS * top[:, None] * radius ** wanted)
    _retake(transform, wanted, chi, error)

    psi = g ** wanted * sea[:, None] + chi
    out = (1.0 - frac) * psi[:, slot - 1] + frac * psi[:, slot]
    return CnTrace(times=t_grid, probes=probes, psi=out, steps=steps)
