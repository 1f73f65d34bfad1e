"""Brute-force grid oracle: Crank-Nicolson integration of the shutter problem.

An independent verifier for the analytic propagator.  The cutoff initial
wave Theta(-x)(e^{ikx} - e^{-ikx}) is discretized on a finite grid, the
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
signal and does not vanish under grid refinement.  The left-hand operator A
never changes during a run, so it is LU-factored once (LAPACK zgttrf)
before the first step.  The right-hand operator is B = (1 + r) - r A with
r = (1 - theta) / theta, so a step is psi <- (1 + r) A^{-1} psi - r psi:
one solve with the stored factors (zgttrs) and one axpy.

Both walls are hard and protected by causality alone: the default domain
is so large that no signal can complete a round trip to a wall and back to
a probe inside the simulated window (factor-3 margin on the fastest
over-barrier velocity).  The initial sea is tapered to zero across a layer
at the left wall, since a hard jump there would radiate fast components
that defeat the causal margin; probes must stay that layer's width away
from either wall.

This module is test / CLI infrastructure only; nothing in the analytic
evaluation path imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import (GridTooCoarse, NonFiniteInput, NonPositiveParameter,
                     NonPositiveTime, XOutOfRange)
from .systems import BarrierSystem, HBAR_EV_FS as HBAR

_DX_LIMIT = 0.1          # max k*dx and kappa0*dx: ~60 points per wavelength
_CAUSALITY_MARGIN = 3.0


@dataclass(frozen=True)
class CnConfig:
    """Grid and stepping parameters for the Crank-Nicolson oracle."""

    x_min: float            # nm, left of the shutter (negative)
    x_max: float            # nm, beyond the barrier
    dx: float               # nm
    dt: float               # fs
    absorber_width: float   # nm, taper of the initial sea at the left wall;
                            # probes keep this margin from either wall
    theta: float = 0.5 + 1.0 / 36.0
                            # implicitness; 0.5 is unitary Crank-Nicolson.
                            # With default_cn_config's dt = 0.45 dx^2 hbar/c2
                            # damping (2 theta - 1) dt is 0.025 dx^2 hbar/c2


def default_cn_config(sys: BarrierSystem, t_end: float, dx=None) -> CnConfig:
    """A config that satisfies every validity guard for a window [0, t_end].

    dx resolves both the incident wavelength and the barrier scale (snapped
    so the barrier edges land on grid nodes); dt = 0.45 dx^2 hbar / c2 sits
    below the accuracy heuristic dt < dx^2 hbar / (2 c2) that _validate
    enforces, and with the default theta its damping (2 theta - 1) dt is
    0.025 dx^2 hbar / c2; both walls are pushed out to twice the causal
    reach of the probes.
    """
    scale = max(sys.k, math.sqrt(sys.v_strength), abs(sys.kappa0))
    if dx is None:
        dx = 0.5 * _DX_LIMIT / scale
    # snap dx so the barrier edges (and half-width multiples, the usual
    # probe positions) fall exactly on grid nodes; a sub-cell edge offset
    # shifts the effective width, which the transmission amplifies
    dx = 0.5 * sys.L / max(1, round(0.5 * sys.L / dx))
    v_max = 2.0 * sys.c2 * scale / HBAR
    width = max(25.0 * dx, 24.0 / scale)
    # both walls sit at twice the causal reach (plus the taper layer), so a
    # disturbance must travel at more than double the protected velocity to
    # complete a wall round trip inside the window -- and anything that fast
    # is annihilated by the theta damping long before it returns.  No
    # absorbing layer is needed at all; hard walls plus the tapered initial
    # sea are exactly unitary and leave the probes clean.
    reach = 2.0 * 1.02 * _CAUSALITY_MARGIN * v_max * t_end
    x_min = -dx * math.ceil((reach + width) / dx)
    x_max = dx * math.ceil((max(3.0 * sys.L, sys.L + reach) + width) / dx)
    dt = 0.45 * dx * dx * HBAR / sys.c2
    return CnConfig(x_min=x_min, x_max=x_max, dx=dx, dt=dt,
                    absorber_width=width)


@dataclass(frozen=True)
class CnTrace:
    """Probe traces from one Crank-Nicolson evolution."""

    times: np.ndarray       # (T,)
    probes: np.ndarray      # (P,)
    psi: np.ndarray         # (P, T) complex
    norm_start: float
    norm_end: float
    config: CnConfig

    @property
    def abs2(self):
        return np.abs(self.psi) ** 2


def _validate(sys, cfg, probes, t_end):
    # a non-positive dt never reaches t_end, and a non-finite grid or a
    # negative taper would only fail later inside numpy or LAPACK
    for name in ("x_min", "x_max", "dx", "dt"):
        if not math.isfinite(getattr(cfg, name)):
            raise NonFiniteInput(f"{name}={getattr(cfg, name)} must be finite")
    for name in ("dx", "dt"):
        if getattr(cfg, name) <= 0.0:
            raise NonPositiveParameter(
                f"{name}={getattr(cfg, name)} must be positive")
    if not cfg.absorber_width >= 0.0:
        raise NonPositiveParameter(
            f"absorber_width={cfg.absorber_width} must be >= 0")
    scale = max(sys.k, math.sqrt(sys.v_strength), abs(sys.kappa0))
    if scale * cfg.dx >= _DX_LIMIT:
        raise GridTooCoarse(
            f"dx={cfg.dx} resolves neither wave: need dx < {_DX_LIMIT / scale:.4g}")
    dt_max = 0.5 * cfg.dx * cfg.dx * HBAR / sys.c2
    if cfg.dt >= dt_max:
        raise GridTooCoarse(f"dt={cfg.dt} above accuracy heuristic {dt_max:.4g}")
    if not 0.5 <= cfg.theta <= 1.0:
        raise GridTooCoarse(f"theta={cfg.theta} outside the stable range [0.5, 1]")
    if cfg.x_min >= 0 or cfg.x_max < 3.0 * sys.L:
        raise GridTooCoarse(
            f"domain [{cfg.x_min}, {cfg.x_max}] must span [<0, >=3L]")
    v_max = 2.0 * sys.c2 * scale / HBAR
    if abs(cfg.x_min) - cfg.absorber_width < _CAUSALITY_MARGIN * v_max * t_end:
        raise GridTooCoarse(
            f"|x_min|={abs(cfg.x_min)} inside causal reach "
            f"{_CAUSALITY_MARGIN * v_max * t_end:.4g} of the probes")
    for x in probes:
        if not cfg.x_min + cfg.absorber_width < x < cfg.x_max - cfg.absorber_width:
            raise XOutOfRange(f"probe x={x} closer than absorber_width="
                              f"{cfg.absorber_width:.4g} nm to a wall")


def factor_tridiagonal(sub, diag, sup):
    """LU factors of the complex tridiagonal matrix (sub, diag, sup).

    sub and sup have length n - 1.  Returns (ipiv, lu) for solve_banded:
    lu stacks the zgttrf factor rows dl, d, du, du2 into one (4, n) array,
    each row zero-padded at its end.  Raises ValueError on a non-finite
    entry and LinAlgError on a singular matrix.
    """
    if not (np.isfinite(sub).all() and np.isfinite(diag).all()
            and np.isfinite(sup).all()):
        raise ValueError("tridiagonal operator must not contain infs or NaNs")
    dl, d, du, du2, ipiv, info = zgttrf(sub, diag, sup)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgttrf")
    n = len(d)
    lu = np.zeros((4, n), dtype=complex)
    lu[0, :n - 1], lu[1], lu[2, :n - 1], lu[3, :n - 2] = dl, d, du, du2
    return ipiv, lu


def solve_banded(ipiv, lu, rhs):
    """Solve with the factors from factor_tridiagonal; rhs is overwritten.

    cn_evolve calls this once per step, and perfbench's tracer counts
    oracle steps and nodes (lu.shape[1]) by these calls.
    """
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    n = lu.shape[1]
    x, info = zgttrs(lu[0, :n - 1], lu[1], lu[2, :n - 1], lu[3, :n - 2],
                     ipiv, rhs, overwrite_b=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of zgttrs")
    return x


def cn_step(ipiv, lu, r, psi):
    """One theta-scheme step A^{-1} B psi as (1 + r) A^{-1} psi - r psi.

    ipiv, lu are the factors of A = 1 + i theta H dt / hbar and
    r = (1 - theta) / theta; then B = 1 - i (1 - theta) H dt / hbar equals
    (1 + r) - r A, so the step is one solve and one axpy.  psi is not
    modified.
    """
    nxt = solve_banded(ipiv, lu, (1.0 + r) * psi)
    nxt -= r * psi
    return nxt


def cn_evolve(sys: BarrierSystem, cfg: CnConfig, probes, t_grid) -> CnTrace:
    """Evolve the shutter initial state and sample psi at probe positions.

    Probe values are linearly interpolated between the two Crank-Nicolson
    steps bracketing each requested time (consistent with the O(dt^2)
    accuracy of the stepping itself).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or not np.isfinite(t_grid).all() \
            or np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise NonPositiveTime(
            "time grid must be positive, finite and strictly increasing")
    probes = np.asarray(probes, dtype=float)
    t_end = float(t_grid[-1])
    _validate(sys, cfg, probes, t_end)

    x = np.arange(cfg.x_min, cfg.x_max + 0.5 * cfg.dx, cfg.dx)
    n = len(x)
    # probes rarely fall on grid points; sample by linear interpolation
    # between the bracketing cells (the density gradient inside the barrier
    # is ~2 kappa, so nearest-cell snapping would cost several percent)
    frac = (probes - cfg.x_min) / cfg.dx
    j_probe = np.clip(np.floor(frac).astype(int), 0, n - 2)
    w_probe = frac - j_probe

    # cell-averaged potential: the barrier edges rarely fall on grid points,
    # and point-sampling would change the effective width by O(dx), which
    # the transmission amplifies by e^{2 kappa dx}
    overlap = (np.minimum(x + 0.5 * cfg.dx, sys.L)
               - np.maximum(x - 0.5 * cfg.dx, 0.0)).clip(min=0.0)
    pot = (sys.V / cfg.dx) * overlap.astype(complex)

    # tridiagonal H: diag 2 c2/dx^2 + V_j, off-diagonal -c2/dx^2.  Only the
    # left-hand operator A = 1 + i theta H dt / hbar is built; the
    # right-hand one is B = (1 + r) - r A (see cn_step)
    hop = sys.c2 / (cfg.dx * cfg.dx)
    lam = 1j * cfg.dt * cfg.theta / HBAR
    off = np.full(n - 1, lam * (-hop), dtype=complex)
    ipiv, lu = factor_tridiagonal(off, 1.0 + lam * (2.0 * hop + pot), off)
    r = (1.0 - cfg.theta) / cfg.theta

    psi = np.where(x < 0.0, np.exp(1j * sys.k * x) - np.exp(-1j * sys.k * x), 0.0)
    psi = psi.astype(complex)
    if cfg.absorber_width > 0.0:
        # taper the truncated sea to zero across the left layer: a hard jump
        # at the wall would radiate fast dispersive components that outrun
        # the causality margin and contaminate the probes
        u = np.clip((x - cfg.x_min) / cfg.absorber_width, 0.0, 1.0)
        psi *= u * u * (3.0 - 2.0 * u)
    norm_start = float(np.sum(np.abs(psi) ** 2) * cfg.dx)

    out = np.zeros((len(probes), len(t_grid)), dtype=complex)
    t_now = 0.0
    i_t = 0
    while i_t < len(t_grid):
        # psi is rebound below, never written in place
        prev, t_prev = psi, t_now
        psi = cn_step(ipiv, lu, r, psi)
        t_now += cfg.dt
        if t_grid[i_t] > t_now + 1e-12:
            continue     # no requested time in this step
        at_probe = (1.0 - w_probe) * psi[j_probe] + w_probe * psi[j_probe + 1]
        prev_probe = (1.0 - w_probe) * prev[j_probe] + w_probe * prev[j_probe + 1]
        while i_t < len(t_grid) and t_grid[i_t] <= t_now + 1e-12:
            f = (t_grid[i_t] - t_prev) / cfg.dt
            out[:, i_t] = (1.0 - f) * prev_probe + f * at_probe
            i_t += 1
    norm_end = float(np.sum(np.abs(psi) ** 2) * cfg.dx)
    return CnTrace(times=t_grid, probes=probes, psi=out,
                   norm_start=norm_start, norm_end=norm_end, config=cfg)
