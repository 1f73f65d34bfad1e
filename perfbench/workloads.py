"""Seeded workloads: the CLI argv lists of one pass, and the per-op checks.

An op is one peak row of a scan or window command, or one trace or oracle
command.  Each command carries the number of ops it yields and a check that
turns its parsed CSV into one verdict per op (None when the op passed, else
the reason it failed).  A command that exits non-zero fails all its ops.

Every workload uses the GaAs barrier of the acceptance tests: V = 0.3 eV,
L = 4 nm, m/m_e = 0.067, and E = 1 meV unless stated.  Tolerances are the
ones tests/test_acceptance.py pins.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

V, L, MASS = 0.3, 4.0, 0.067
GAAS = ("--V", "0.3", "--L", "4", "--mass-ratio", "0.067")
KAPPA0 = math.sqrt(MASS * V / 0.0380998212)   # 1/nm; hbar^2/2m_e in eV nm^2
ALPHA_C, ALPHA_U = 2.0653, 3.3
EDGE_PEAK_FS = 5.17
T_SPLIT_FS = 2.5   # earlier oracle times need a finer lattice than the CLI's
# Scans get one thread: on two cores, two threads were no steadier in time
# and made far-field peak RSS spread by 7 % between seeds.
THREADS = 1
# The seed moves each probe by up to JITTER of its nominal position.  Wider
# draws across a band change which probes need 2048 poles or hit the cap,
# and with that a seed's cost by 15 % and more.
JITTER = 0.01
# Near the shutter the internal pole sum runs into the 2048-pole cap
# (x = 0.15 nm: a peak find fails after 7 s, x = 0.05 nm after 19 s); the
# fixed probe NEAR_SHUTTER counts that failure in every validate pass.
NEAR_SHUTTER = "0.05"
BULK_STEPS = 2000


@dataclass(frozen=True)
class Command:
    argv: tuple
    ops: int
    check: Callable  # (columns, rows, seen) -> list of per-op verdicts


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # random.Random -> list[Command]
    pass_s: float    # one pass on a quiet 2-core x86 host, in seconds


def _num(v):
    return f"{v:.10g}"


def _rows(columns, rows):
    return [dict(zip(columns, r)) for r in rows]


def _edge_peak(t_max):
    return abs(t_max - EDGE_PEAK_FS) <= 0.05


def _check_freq_x(energy):
    def check(columns, rows, seen):
        # seen[energy]: (x, t_max) of the outermost peak so far this pass,
        # from x = L on; commands run in ascending x
        out = []
        for r in _rows(columns, rows):
            x, t, ratio = r["x_nm"], r["t_max_fs"], r["omega_ratio"]
            prev = seen.get(energy)
            if r["exists"] is not True:
                out.append(f"no peak at x={x:g}")
            elif x <= 2 * L and not ratio < 1.0:
                out.append(f"omega ratio {ratio:.4g} >= 1 at x={x:g} <= 2L")
            elif x >= 4 * L and not ratio > 1.0:
                out.append(f"omega ratio {ratio:.4g} <= 1 at x={x:g} >= 4L")
            elif energy == 0.001 and x == L and not _edge_peak(t):
                out.append(f"edge peak {t:.4f} fs, want {EDGE_PEAK_FS} +- 0.05")
            elif prev is not None and not t > prev[1]:
                out.append(f"t_max {t:.4f} fs at x={x:g} not above "
                           f"{prev[1]:.4f} fs at x={prev[0]:g}")
            else:
                out.append(None)
            if x >= L and r["exists"] is True:
                seen[energy] = (x, t)
        return out
    return check


def _jitter(rng, v):
    return _num(v * rng.uniform(1.0 - JITTER, 1.0 + JITTER))


def far_field(rng):
    # per energy, x = 2 nm with the anchor x = L as an exact grid end point,
    # then x = 6 and 20 nm: one probe in (L, 2L], where the omega ratio is
    # below 1, and one in (4L, 10L], where it is above.  Each probe beyond
    # the barrier costs 1.5-2.5 s.  Leaving (2L, 4L] without a probe of its
    # own keeps a pass near 10 s, so a 30 s run makes three passes.
    cmds = []
    for energy in (0.001, 0.01):
        for g, ops in ((f"{_jitter(rng, 2.0)}:{_num(L)}:2", 2),
                       (f"{_jitter(rng, 6.0)}:{_jitter(rng, 20.0)}:2", 2)):
            cmds.append(Command(
                GAAS + ("--E", str(energy), "--threads", str(THREADS),
                        "scan-freq-x", "--grid", g),
                ops, _check_freq_x(energy)))
    return cmds


def _check_tmax_L(columns, rows, seen):
    out, prev_t = [], None
    for r in _rows(columns, rows):
        w, t, alpha = r["L_nm"], r["t_max_fs"], KAPPA0 * r["L_nm"]
        if alpha < ALPHA_C - 0.01 and r["exists"] is not False:
            out.append(f"peak below the critical opacity at L={w:g}")
        elif alpha >= 2.3 and r["exists"] is not True:
            out.append(f"no peak at L={w:g} (alpha {alpha:.3f})")
        elif abs(w - L) < 1e-6 and not _edge_peak(t):
            out.append(f"edge peak {t:.4f} fs, want {EDGE_PEAK_FS} +- 0.05")
        elif w >= 5.0 and prev_t is not None and not t > prev_t:
            out.append(f"t_max {t:.4f} fs not growing with L={w:g}")
        else:
            out.append(None)
        prev_t = t if r["exists"] is True else None
    return out


def _check_freq_alpha(columns, rows, seen):
    out = []
    for r in _rows(columns, rows):
        a, ratio = r["alpha"], r["omega_ratio"]
        if a >= 2.3 and r["exists"] is not True:
            out.append(f"no peak at alpha={a:g}")
        elif r["exists"] is True and a <= ALPHA_U - 0.1 and not ratio < 1.0:
            out.append(f"omega ratio {ratio:.4g} >= 1 at alpha={a:g}")
        elif a >= ALPHA_U + 0.1 and not ratio > 1.0:
            out.append(f"omega ratio {ratio:.4g} <= 1 at alpha={a:g}")
        else:
            out.append(None)
    return out


def _check_window(columns, rows, seen):
    (r,) = _rows(columns, rows)
    if abs(r["alpha_c"] - ALPHA_C) > 0.01 or abs(r["alpha_u"] - ALPHA_U) > 0.1:
        return [f"window [{r['alpha_c']:.4f}, {r['alpha_u']:.4f}], want "
                f"[{ALPHA_C} +- 0.01, {ALPHA_U} +- 0.1]"]
    return [None]


def opacity(rng):
    # widths on a lin grid through the anchor L = 4 nm inside [1, 12] nm
    h = float(_jitter(rng, 0.95))
    widths = f"{_num(L - 3 * h)}:{_num(L + 8 * h)}:12"
    alphas = f"{_jitter(rng, 2.15)}:{_jitter(rng, 3.55)}:8"
    t = ("--threads", str(THREADS))
    u300 = ("--V", "0.3", "--mass-ratio", "0.067") + t
    return [
        Command(GAAS + ("--E", "0.001") + t + ("scan-tmax-L", "--grid", widths),
                12, _check_tmax_L),
        Command(u300 + ("scan-freq-alpha", "--u", "300", "--grid", alphas),
                8, _check_freq_alpha),
        Command(u300 + ("window", "--u", "300"), 1, _check_window),
    ]


def oracle_rel_err(columns, rows):
    """Largest relative |psi|^2 gap to the CN oracle from T_SPLIT_FS on."""
    return max(r["rel_err"] for r in _rows(columns, rows)
               if r["t_fs"] >= T_SPLIT_FS)


def _check_oracle(columns, rows, seen):
    err = oracle_rel_err(columns, rows)
    return [None if err <= 0.01 else f"oracle rel err {err:.3g} > 1%"]


def _check_trace(x, steps):
    def check(columns, rows, seen):
        rs = _rows(columns, rows)
        if len(rs) != steps:
            return [f"{len(rs)} rows, want {steps}"]
        for r in rs:
            if not all(isinstance(v, float) and math.isfinite(v)
                       for v in r.values()):
                return [f"non-finite value at t={r['t_fs']}"]
            if "re_psi" in r and not math.isclose(
                    r["abs2"], r["re_psi"] ** 2 + r["im_psi"] ** 2,
                    rel_tol=1e-12):
                return [f"abs2 != |psi|^2 at t={r['t_fs']}"]
            if "sigma" in r and r["sigma"] < 0.0:
                return [f"negative sigma at t={r['t_fs']}"]
        # evolve and spectrogram at one x must carry the same density
        density = [r["abs2_over_T2"] for r in rs]
        other = seen.setdefault(("density", x, steps), density)
        if not all(math.isclose(a, b, rel_tol=1e-12)
                   for a, b in zip(density, other)):
            return [f"evolve and spectrogram densities differ at x={x}"]
        return [None]
    return check


def validate(rng):
    probe = _jitter(rng, 6.0)
    x = _jitter(rng, 2.0)
    g = GAAS + ("--E", "0.001", "--threads", str(THREADS))

    def bulk(cmd, x, steps=BULK_STEPS):
        return Command(g + (cmd, "--x", x, "--tmin", "0.5", "--tmax", "30",
                            "--steps", str(steps)),
                       1, _check_trace(x, steps))

    return [
        Command(g + ("oracle-compare", "--x", probe, "--tmin", "1",
                     "--tmax", "30", "--steps", "59"), 1, _check_oracle),
        bulk("evolve", x),
        bulk("spectrogram", x),
        # both fail today at the 2048-pole cap; kept as counted failures
        bulk("evolve", "8"),
        bulk("evolve", NEAR_SHUTTER, steps=20),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("far-field",
             "scan-freq-x from 2 nm out to 5L at E = 1 and 10 meV: one system "
             "per command, deep warm pole sums, so the Faddeeva kernel dominates",
             far_field, pass_s=10.0),
    Workload("opacity",
             "width and opacity scans plus the u = 300 window: tens of fresh "
             "systems, each a cold pole search and a short sum at x = L",
             opacity, pass_s=9.0),
    Workload("validate",
             "Crank-Nicolson oracle comparison plus 2000-step bulk traces: "
             "the only workload that runs the oracle stepping",
             validate, pass_s=15.0),
)}


def build(name, seed):
    """The commands of one pass of workload `name`, drawn from `seed`."""
    return WORKLOADS[name].build(random.Random(seed))
