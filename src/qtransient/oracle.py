"""Brute-force grid oracle: Crank-Nicolson integration of the shutter problem.

An independent verifier for the analytic propagator.  The cutoff initial
wave Theta(-x)(e^{ikx} - e^{-ikx}) is discretized on a uniform grid, the
barrier potential is cell-averaged onto the lattice (point sampling would
snap the edges and change the effective width by O(dx), which the
transmission amplifies exponentially), and the field is stepped with the
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

There are no walls.  The untapered sea S_j = 2i sin(k x_j) for x_j <= 0
(0 beyond) is an eigenvector of the discrete H with eigenvalue
lam_s = 2 (c2/dx^2)(1 - cos k dx) at every node but x = 0, so the scheme
advances it in closed form, g^n S with
g = (1 - i (1 - theta) lam_s dt/hbar) / (1 + i theta lam_s dt/hbar).  Only
the disturbance chi = psi - g^n S is stepped: it starts at zero and is
driven by a source at x = 0 alone, A chi^{n+1} = B chi^n + s g^n e_0.  On
either side of a window that just covers the barrier and the probes, chi
obeys the free homogeneous scheme with zero initial data, which the exact
discrete transparent boundary condition closes (Antoine, Arnold, Besse,
Ehrhardt & Schaedle, Commun. Comput. Phys. 4, 729 (2008)):
the first node outside each end is the convolution of the edge node's
history with the Laurent coefficients of the decaying root rho(z) of
rho + 1/rho = 2 + (z - 1) / (i (dt/hbar)(c2/dx^2)(theta z + 1 - theta)).
The result is the solution on the unbounded lattice: it does not depend on
where the window ends, and no signal returns from a wall.

The instantaneous term of the convolution joins A's corner diagonals, so
the left-hand operator never changes during a run and is factored once.
A is strictly diagonally dominant by rows, so its LU factors need no
pivots, and each triangular sweep is a prefix scan: with pivots c_i the
forward one is y_i = P_i sum_{j<=i} b_j / P_j, P the running product of
-l_{i-1} / c_{i-1}, and the backward one the same with suffix products of
-u_i / c_i.  The products restart on segments cut to keep them within
1e+-280 (about 400 nodes on the GaAs grid), one carry crossing each cut.
The right-hand operator is B = (1 + r) - r A with r = (1 - theta) /
theta, so a step is chi <- A^{-1} ((1 + r) chi + b) - r chi, with b the
boundary history and the source.  The history is summed in blocks of K
steps.  Within a block each step dots the block's own edge values with at
most K kernel terms; when a block closes, the FFT of its edge values times
the FFT of each later block's kernel segment is added to that block's
spectrum, and one inverse FFT at a block's start gives its earlier-block
history for all K steps.  That is O(steps K + steps^2 / K) in all, and
exact up to rounding.

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
_MARGIN = 2              # window nodes beyond x = 0 or the barrier and probes
_BLOCK = 128             # steps per block of the boundary history
_DECADES = 280.0         # the range of a scan's running products, in decades
_CHUNK = 4096            # points of the circle per pass of the kernel formula
# the longest run: its kernel FFT has 2^20 points, and at the default GaAs
# grid (dt = 2.48 as, 620 fs) it took 8.0 s at 92 nodes and 10.4 s at 875
# on a 2-core x86 host
_MAX_STEPS = 250_000
# the most nodes times steps: the longest run on 875 nodes, the widest
# window the tests use, about 2.2e8.  The window grows with the probes
# (14,505 nodes at x = 1000 nm on the GaAs grid), and so does a step's cost
_MAX_NODE_STEPS = _MAX_STEPS * 875


@dataclass(frozen=True)
class CnConfig:
    """Grid and stepping parameters for the Crank-Nicolson oracle.

    The window is not configured: cn_evolve derives it from the barrier and
    the probes, and its transparent ends make the result independent of it.
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
    0.025 dx^2 hbar / c2.  Neither depends on t_end: the boundaries are
    transparent, so the spatial window no longer grows with the time
    window.  t_end only sets the step count, which must stay within the
    oracle's bound (ValidationError otherwise).
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
    """The most steps a run to t_end can take (t_now accumulates
    rounding); raises ValidationError above _MAX_STEPS."""
    if not t_end / dt < _MAX_STEPS:
        raise ValidationError(
            f"oracle run to t_end={t_end:.6g} fs at dt={dt:.6g} fs needs "
            f"{t_end / dt:.6g} steps; the bound is {_MAX_STEPS}")
    return math.ceil(t_end / dt) + 1


@dataclass(frozen=True)
class CnTrace:
    """Probe traces from one Crank-Nicolson evolution.

    There is no norm: the incident sea is infinite, and the window is open.
    """

    times: np.ndarray       # (T,)
    probes: np.ndarray      # (P,)
    psi: np.ndarray         # (P, T) complex
    steps: int              # theta-steps taken
    nodes: int              # window size

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
    # the window is built from the probes: an empty list has no extent, and
    # a non-finite probe would make it infinite
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
    # the boundary kernel squares kappa(z), and on |z| = R, R least on the
    # longest run, |kappa| <= 1 + (R + 1) / (2 w (theta (R + 1) - 1))
    w = cfg.dt * (sys.c2 / (cfg.dx * cfg.dx)) / HBAR
    r = _circle(_MAX_STEPS)[1] + 1.0
    if not 2.0 * w * (cfg.theta * r - 1.0) * math.sqrt(np.finfo(float).max) > r:
        raise ValidationError(f"dt={cfg.dt} fs gives w = dt c2/(hbar dx^2) = "
                              f"{w:.3g}, so small the boundary kernel overflows")


def check_run(sys: BarrierSystem, cfg: CnConfig, probes, t_end):
    """(steps, lo, hi) of a cn_evolve run to t_end: its step count and the
    first and last node of its window, in units of dx.

    Checks every guard on the grid and the probes, the step bound and the
    bound on nodes times steps before anything is allocated, raising
    ValidationError (or a subclass) on the first that fails.
    """
    probes = np.asarray(probes, dtype=float)
    _validate(sys, cfg, probes)
    steps = _step_count(t_end, cfg.dt)
    lo = math.floor(min(0.0, probes.min()) / cfg.dx) - _MARGIN
    hi = math.ceil(max(sys.L, probes.max()) / cfg.dx) + _MARGIN
    nodes = hi - lo + 1
    if not t_end / cfg.dt * nodes < _MAX_NODE_STEPS:
        raise ValidationError(
            f"oracle run to t_end={t_end:.6g} fs at dt={cfg.dt:.6g} fs needs "
            f"{steps} steps on {nodes} nodes, {steps * nodes:.3g} "
            f"node-steps; the bound is {_MAX_NODE_STEPS:.3g} node-steps")
    return steps, lo, hi


def _circle(n):
    """(size, radius): the FFT points and circle of transparent_kernel's l_n."""
    size = 1 << math.ceil(math.log2(4 * (n + 1)))
    return size, 1e12 ** (1.0 / size)


def transparent_kernel(w, theta, n):
    """Laurent coefficients l_0 .. l_n of the exterior root rho(z).

    rho is the root with |rho| < 1 of rho + 1/rho = 2 kappa(z),
    kappa = 1 + (z - 1) / (2 i w (theta z + 1 - theta)), w = dt c2 /
    (hbar dx^2): the Z transform of the free theta scheme with zero initial
    data.  Outside the window the disturbance then obeys
    chi_out^m = sum_p l_p chi_edge^{m-p}.  rho is analytic for |z| > 1, so
    one FFT on |z| = R with R^N = 1e12 gives l_p to about 1e-12, aliasing
    included, for p up to N / 4.

    The N points are taken _CHUNK at a time, so that the working arrays of
    the formula stay small beside the one array of N values the FFT reads.
    """
    size, radius = _circle(n)
    inverse = np.empty(size, dtype=complex)
    for start in range(0, size, _CHUNK):
        j = np.arange(start, min(start + _CHUNK, size))
        z = radius * np.exp(2j * np.pi * j / size)
        kappa = 1.0 + (z - 1.0) / (2j * w * (theta * z + 1.0 - theta))
        root = np.sqrt(kappa * kappa - 1.0)
        # the growing root without cancellation, then its reciprocal
        grow = np.where((kappa.conjugate() * root).real >= 0.0,
                        kappa + root, kappa - root)
        inverse[start:start + _CHUNK] = 1.0 / grow
    return np.fft.ifft(inverse)[:n + 1] * radius ** np.arange(n + 1)


def factor_tridiagonal(sub, diag, sup):
    """Prefix-scan LU factors, unpivoted (see the module docstring), of the
    tridiagonal matrix (sub, diag, sup); sub and sup have length n - 1.

    Returns (segments, lu) for solve_banded: each segment's (start, stop,
    forward carry, backward carry) and one (4, n) array of the rows 1/P,
    P / (c Q), Q and the pivots c.  Raises ValueError on a non-finite entry
    and LinAlgError on a zero pivot."""
    if not (np.isfinite(sub).all() and np.isfinite(diag).all()
            and np.isfinite(sup).all()):
        raise ValueError("tridiagonal operator must not contain infs or NaNs")
    pivots = [complex(diag[0])]
    for lo, d, up in zip(sub.tolist(), diag[1:].tolist(), sup.tolist()):
        pivots.append(d - lo * up / pivots[-1] if pivots[-1] else 0j)
    if 0 in pivots:
        raise np.linalg.LinAlgError("zero pivot: singular or needs pivoting")
    n, c = len(diag), np.array(pivots)
    fwd, bwd = -sub / c[:-1], -sup / c[:-1]     # link k joins nodes k, k + 1
    decades = np.abs(np.log10(np.abs([fwd, bwd]).clip(1e-300, 1e300)))
    cuts = np.cumsum(decades.max(axis=0).clip(max=_DECADES)) // _DECADES
    cuts = (np.flatnonzero(np.diff(cuts, prepend=0.0)) + 1).tolist()
    p, q = np.ones((2, n), dtype=complex)
    segments = []
    for s, e in zip([0] + cuts, cuts + [n]):
        np.multiply.accumulate(fwd[s:e - 1], out=p[s + 1:e])
        np.multiply.accumulate(bwd[s:e - 1][::-1], out=q[s:e - 1][::-1])
        segments.append((s, e, complex(fwd[e - 1] * p[e - 1]) if e < n else 0,
                         complex(bwd[s - 1] * q[s]) if s else 0))
    return segments, np.array([1.0 / p, p / (c * q), q, c])


def _views(segments, y):
    """Each segment's (view of y, carry, head) for either scan, in order."""
    return ([(y[s:e], fc, e) for s, e, fc, _ in segments],
            [(y[s:e][::-1], bc, s - 1) for s, e, _, bc in segments[::-1]])


def _scan(views, y):
    """Each view's running sum; its last, times its carry, joins y[head]."""
    for view, carry, head in views:
        np.add.accumulate(view, out=view)
        if carry:
            y[head] += carry * view[-1]


def solve_banded(segments, lu, rhs):
    """Solve with the factors from factor_tridiagonal; rhs is overwritten.

    cn_evolve calls this on the first step of each block of the boundary
    history and runs its scans inline on the others: perfbench's tracer
    counts oracle steps and nodes (lu.shape[1]) by one call per block."""
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    forward, backward = _views(segments, rhs)
    rhs *= lu[0]
    _scan(forward, rhs)
    rhs *= lu[1]
    _scan(backward, rhs)
    rhs *= lu[2]
    return rhs


def cn_evolve(sys: BarrierSystem, cfg: CnConfig, probes, t_grid) -> CnTrace:
    """Evolve the shutter initial state and sample psi at probe positions.

    The window runs from min(0, probes) to max(L, probes), two nodes of
    margin beyond each, with transparent ends (see the module docstring).
    Probe values are linearly interpolated between the two Crank-Nicolson
    steps bracketing each requested time (consistent with the O(dt^2)
    accuracy of the stepping itself).
    """
    t_grid = check_times(t_grid)
    probes = np.asarray(probes, dtype=float)
    steps, lo, hi = check_run(sys, cfg, probes, t_grid[-1])
    n_blocks = -(-steps // _BLOCK)

    # the first node outside either end sits at x < 0 or beyond L + 2 dx, so
    # it carries no potential and the exterior is free
    x = cfg.dx * np.arange(lo, hi + 1)
    n = len(x)
    j0 = -lo                     # the node at x = 0
    # probes rarely fall on grid points; sample by linear interpolation
    # between the bracketing cells (the density gradient inside the barrier
    # is ~2 kappa, so nearest-cell snapping would cost several percent)
    frac = probes / cfg.dx - lo
    j_probe = np.clip(np.floor(frac).astype(int), 0, n - 2)
    w_probe = frac - j_probe

    # cell-averaged potential: the barrier edges rarely fall on grid points,
    # and point-sampling would change the effective width by O(dx), which
    # the transmission amplifies by e^{2 kappa dx}
    overlap = (np.minimum(x + 0.5 * cfg.dx, sys.L)
               - np.maximum(x - 0.5 * cfg.dx, 0.0)).clip(min=0.0)
    pot = (sys.V / cfg.dx) * overlap.astype(complex)

    hop = sys.c2 / (cfg.dx * cfg.dx)
    w = cfg.dt * hop / HBAR
    ell = transparent_kernel(w, cfg.theta, steps)

    # tridiagonal H: diag 2 c2/dx^2 + V_j, off-diagonal -c2/dx^2.  Only the
    # left-hand operator A = 1 + i theta H dt / hbar is built, its corners
    # closed by the instantaneous boundary term chi_out = l_0 chi_edge; the
    # right-hand one is B = (1 + r) - r A
    lam = 1j * cfg.dt * cfg.theta / HBAR
    off = np.full(n - 1, lam * (-hop), dtype=complex)
    diag = 1.0 + lam * (2.0 * hop + pot)
    diag[[0, -1]] -= lam * hop * ell[0]
    spans, lu = factor_tridiagonal(off, diag, off)
    r = (1.0 - cfg.theta) / cfg.theta

    # the boundary history chi_out^{n+1} (A side) and chi_out^n (B side)
    # less the l_0 terms that A's corners and B = (1 + r) - r A carry:
    # at step m each edge row of the load is sum_q memory_q chi_edge^{m-q}.
    # Zero-padded to whole blocks; entries past steps are never reached
    memory = np.zeros(n_blocks * _BLOCK, dtype=complex)
    memory[:steps] = cfg.theta * ell[1:] + (1.0 - cfg.theta) * ell[:-1]
    memory[0] = cfg.theta * ell[1]
    memory *= 1j * w
    # the near part, step m = b K + j: edge values chi^{bK+1} .. chi^m of
    # block b times memory[j-1] .. memory[0]
    near = memory[_BLOCK - 1::-1].copy()
    # the far part: block c's edge values enter block c + d through the
    # lags dK - 1 + l, l in (-K, K), kernel segment d - 1 (d = 1 ..);
    # a circular length 2K holds every lag without wrap
    blocks = memory.reshape(n_blocks, _BLOCK)
    segments = np.zeros((n_blocks - 1, 2 * _BLOCK), dtype=complex)
    segments[:, :_BLOCK] = blocks[:-1]
    segments[:, _BLOCK:-1] = blocks[1:, :-1]
    segments = np.fft.fft(segments)
    far_spectra = np.zeros((2, n_blocks, 2 * _BLOCK), dtype=complex)
    edge = np.zeros((2, _BLOCK), dtype=complex)

    # the sea g^n S and the source its residual at x = 0 drives
    sea = np.where(x <= 0.0, 2j * np.sin(sys.k * x), 0.0)
    lam_s = 2.0 * hop * (1.0 - math.cos(sys.k * cfg.dx))
    g = ((1.0 - 1j * (1.0 - cfg.theta) * cfg.dt * lam_s / HBAR)
         / (1.0 + 1j * cfg.theta * cfg.dt * lam_s / HBAR))
    r0 = 2j * hop * math.sin(sys.k * cfg.dx)
    source = (-1j * cfg.dt / HBAR * r0 * ((1.0 - cfg.theta) + g * cfg.theta)
              * g ** np.arange(steps)) * lu[0, j0]
    sea_probe = (1.0 - w_probe) * sea[j_probe] + w_probe * sea[j_probe + 1]

    # two buffers take turns to hold u = chi / Q, the scans' output before
    # their last multiply, and the load is built divided by P: edge values
    # are kept as chi / P, and the source and (1 + r) Q / P are so scaled.
    # A block's first step solves through solve_banded, which checks the
    # load, with lu's scales of the load and of u set to one
    w_lo, w_hi = (1.0 - w_probe) * lu[2, j_probe], w_probe * lu[2, j_probe + 1]

    def at_probes(u, m):
        return g ** m * sea_probe + w_lo * u[j_probe] + w_hi * u[j_probe + 1]

    buffers = [(u, u[::n - 1], _views(spans, u))
               for u in np.zeros((2, n), dtype=complex)]
    u = buffers[1][0]
    into = lu[0] * lu[2]
    scale, into, mid = (1.0 + r) * into, into[::n - 1], lu[1]
    lu[[0, 2]] = 1.0
    out = np.zeros((len(probes), len(t_grid)), dtype=complex)
    t_now = 0.0
    i_t = 0
    step = 0
    while i_t < len(t_grid):
        block, j = divmod(step, _BLOCK)
        if j == 0:
            far = np.fft.ifft(far_spectra[:, block])[:, _BLOCK - 1:-1]
        prev, t_prev = u, t_now
        u, ends, (forward, backward) = buffers[step & 1]
        np.multiply(prev, scale, out=u)
        ends += far[:, j] + edge[:, :j] @ near[_BLOCK - j:]
        u[j0] += source[step]
        if j == 0:
            solve_banded(spans, lu, u)
        else:
            _scan(forward, u)
            u *= mid
            _scan(backward, u)
        u -= r * prev
        step += 1
        t_now += cfg.dt
        np.multiply(ends, into, out=edge[:, j])
        if j == _BLOCK - 1:
            far_spectra[:, block + 1:] += (np.fft.fft(edge, 2 * _BLOCK)[:, None]
                                           * segments[:n_blocks - block - 1])
        if t_grid[i_t] > t_now + 1e-12:
            continue     # no requested time in this step
        at_probe, prev_probe = at_probes(u, step), at_probes(prev, step - 1)
        while i_t < len(t_grid) and t_grid[i_t] <= t_now + 1e-12:
            f = (t_grid[i_t] - t_prev) / cfg.dt
            out[:, i_t] = (1.0 - f) * prev_probe + f * at_probe
            i_t += 1
    return CnTrace(times=t_grid, probes=probes, psi=out, steps=step, nodes=n)
