"""Command-line interface.

Subcommands: poles, evolve, spectrogram, tmax, scan-tmax-L, scan-freq-x,
scan-freq-alpha, window, oracle-compare.  Global flags --config / --out /
--threads / --tol plus per-parameter overrides (--V, --E, --L,
--mass-ratio); flags win over config-file values.  Every command emits CSV
(stdout or --out) whose first line is a provenance comment sufficient to
reproduce the run.

The three scan commands are the library sweeps of qtransient.sweeps, run
with the config's tol and --threads workers; their rows come out in
ascending grid order.

Exit codes: 0 success, 2 validation error or an array too large to
allocate, 3 numerical non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .analysis import find_time_domain_resonance, spectrogram
from .config import CsvTable, RunConfig, emit_csv, parse_config, parse_grid
from .errors import (ConfigError, MissingRequired, NumericalError,
                     ValidationError)
from .oracle import check_run, cn_evolve, default_cn_config
from .propagator import HARD_CAP, check_x, trace
from .resonances import audit_pole_count, find_poles
from .stationary import transmission
from .sweeps import (check_u, opacity_window, sweep_freq_vs_alpha,
                     sweep_freq_vs_x, sweep_tmax_vs_L)
from .systems import make_system

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@functools.cache
def _build_parser():
    """The parser of every command, built on the first main() call and
    reused by later calls in the process; each parse returns a fresh
    Namespace."""
    p = argparse.ArgumentParser(
        prog="qtransient",
        description="Transient quantum-shutter dynamics of a rectangular barrier")
    p.add_argument("--config", help="INI config file ([system]/[numerics])")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker threads for parameter scans")
    p.add_argument("--tol", type=float, help="pole-sum relative tolerance")
    p.add_argument("--V", type=float, help="barrier height in eV")
    p.add_argument("--E", type=float, help="incident energy in eV")
    p.add_argument("--L", type=float, help="barrier width in nm")
    p.add_argument("--mass-ratio", type=float, help="effective mass m/m_e")

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("poles", help="resonance pole table")
    sp.add_argument("--n", type=int, default=32, help="number of ladder poles")
    sp.set_defaults(run=cmd_poles)

    for name, doc, steps, run in (
            ("evolve", "|Psi(x,t)|^2 trace at fixed x", 400, cmd_evolve),
            ("spectrogram", "omega_av(t), sigma(t) at fixed x", 400,
             cmd_spectrogram),
            ("oracle-compare", "analytic trace versus Crank-Nicolson oracle",
             60, cmd_oracle_compare)):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--x", type=float, help="probe position in nm (default L)")
        sp.add_argument("--tmin", type=float, required=True)
        sp.add_argument("--tmax", type=float, required=True)
        sp.add_argument("--steps", type=int, default=steps)
        sp.set_defaults(run=run)

    sp = sub.add_parser("tmax", help="time-domain-resonance peak at fixed x")
    sp.add_argument("--x", type=float, help="probe position in nm (default L)")
    sp.set_defaults(run=cmd_tmax)

    sp = sub.add_parser("scan-tmax-L", help="t_max versus barrier width")
    sp.add_argument("--grid", required=True,
                    help="L grid start:stop:count[:lin|log]")
    sp.set_defaults(run=cmd_scan_tmax_L)

    sp = sub.add_parser("scan-freq-x", help="peak frequency ratio versus x")
    sp.add_argument("--grid", required=True,
                    help="x grid start:stop:count[:lin|log]")
    sp.set_defaults(run=cmd_scan_freq_x)

    sp = sub.add_parser("scan-freq-alpha",
                        help="peak frequency ratio versus opacity at fixed u")
    sp.add_argument("--grid", required=True,
                    help="alpha grid start:stop:count[:lin|log]")
    sp.add_argument("--u", type=float, required=True,
                    help="V/E ratio (finite, > 1)")
    sp.set_defaults(run=cmd_scan_freq_alpha)

    sp = sub.add_parser("window", help="opacity window [alpha_c, alpha_u]")
    sp.add_argument("--u", type=float, required=True,
                    help="V/E ratio (finite, > 1)")
    sp.add_argument("--alpha-min", type=float, default=1.2)
    sp.add_argument("--alpha-max", type=float, default=6.0)
    sp.set_defaults(run=cmd_window)
    return p


def _load_config(args, u=None, width=True) -> RunConfig:
    """File config (if given) with CLI flags layered on top; only the
    merged values must hold V_eV, E_eV and L_nm.

    A command that takes its widths from a grid (width False) needs no
    L_nm and holds none, whatever the file or the flags say.  One at fixed
    u = V/E (u given) also runs at E = V/u, so it needs only V_eV.
    """
    values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                # a leading byte-order mark is dropped, as utf-8-sig would,
                # but a bad byte's offset still counts it
                text = fh.read().removeprefix("\ufeff")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config}: not UTF-8 at byte "
                                  f"{exc.start}") from None
        values = parse_config(text)
    flags = dict(V_eV=args.V, E_eV=args.E, L_nm=args.L,
                 mass_ratio=args.mass_ratio, tol=args.tol)
    values.update((k, v) for k, v in flags.items() if v is not None)
    if u is not None and "V_eV" in values:
        values["E_eV"] = values["V_eV"] / u
    if not width:
        values["L_nm"] = None
    for key in ("V_eV", "E_eV", "L_nm"):
        if key not in values:
            raise MissingRequired(
                f"missing required key {key!r}: pass --config or the flag")
    return RunConfig(**values)


def _system(cfg: RunConfig):
    return make_system(cfg.V_eV, cfg.E_eV, cfg.L_nm, cfg.mass_ratio)


def _provenance(cfg: RunConfig, args, extra=()):
    items = [("command", args.command)] + cfg.provenance_items()
    items += [("threads", args.threads)] + list(extra)
    return tuple(items)


def _time_grid(args):
    if not (0 < args.tmin < args.tmax < np.inf) or args.steps < 2:
        raise ValidationError(
            "need finite 0 < tmin < tmax and steps >= 2, got "
            f"tmin={args.tmin}, tmax={args.tmax}, steps={args.steps}")
    return np.linspace(args.tmin, args.tmax, args.steps)


def _probe(args):
    """Config, system, probe x (default L), time grid if the command takes
    one, and the provenance naming them."""
    cfg = _load_config(args)
    sys_ = _system(cfg)
    x = args.x if args.x is not None else sys_.L
    t, extra = None, [("x", x)]
    if "tmin" in args:
        t = _time_grid(args)
        extra += [("tmin", args.tmin), ("tmax", args.tmax), ("steps", args.steps)]
    return cfg, sys_, x, t, _provenance(cfg, args, extra)


def cmd_poles(args):
    if not 1 <= args.n <= HARD_CAP:
        raise ValidationError(
            f"--n must be between 1 and the pole cap {HARD_CAP}, got {args.n}")
    cfg = _load_config(args)
    sys_ = _system(cfg)
    ps = find_poles(sys_, args.n)
    audit_pole_count(ps)
    rows = [(p.n, p.k.real, p.k.imag, p.E.real, p.E.imag, p.residual)
            for p in ps.poles]
    return CsvTable(columns=("n", "Re_k", "Im_k", "Re_E", "Im_E", "residual"),
                    rows=tuple(rows),
                    provenance=_provenance(cfg, args, [("n", args.n)]))


def cmd_evolve(args):
    cfg, sys_, x, t, provenance = _probe(args)
    tr = trace(x, t, sys_, tol=cfg.tol)
    T2 = abs(transmission(sys_.k, sys_)) ** 2
    rows = [(float(tt), p.real, p.imag, abs(p) ** 2, abs(p) ** 2 / T2,
             tr.n_terms_used, float(e))
            for tt, p, e in zip(t, tr.psi, tr.trunc_error_est)]
    return CsvTable(
        columns=("t_fs", "re_psi", "im_psi", "abs2", "abs2_over_T2", "n_terms",
                 "err"),
        rows=tuple(rows), provenance=provenance)


def cmd_spectrogram(args):
    cfg, sys_, x, t, provenance = _probe(args)
    sg = spectrogram(sys_, x, t, tol=cfg.tol)
    T2 = abs(transmission(sys_.k, sys_)) ** 2
    # the density by evolve's expression, so the two print the same bits
    rows = [(float(tt), abs(p) ** 2 / T2, om, om / sys_.omegaV, sg_, float(e))
            for tt, p, om, sg_, e in zip(t, sg.psi, sg.omega_av, sg.sigma,
                                         sg.trunc_error_est)]
    return CsvTable(
        columns=("t_fs", "abs2_over_T2", "omega_av", "omega_ratio", "sigma",
                 "err"),
        rows=tuple(rows), provenance=provenance)


def cmd_tmax(args):
    cfg, sys_, x, _, provenance = _probe(args)
    tdr = find_time_domain_resonance(sys_, x=x, tol=cfg.tol)
    rows = [(tdr.x, tdr.exists, tdr.t_max, tdr.height, tdr.height_ratio,
             tdr.omega_av, tdr.sigma, tdr.omega_ratio)]
    return CsvTable(
        columns=("x_nm", "exists", "t_max_fs", "abs2_peak", "height_ratio",
                 "omega_av", "sigma", "omega_ratio"),
        rows=tuple(rows), provenance=provenance)


def _sweep_csv(table, independent, cfg, args, extra=()):
    rows = tuple((r.independent, r.t_max, r.omega_ratio, r.exists)
                 for r in table.rows)
    return CsvTable(columns=(independent, "t_max_fs", "omega_ratio", "exists"),
                    rows=rows, provenance=_provenance(cfg, args, extra))


def cmd_scan_tmax_L(args):
    cfg = _load_config(args, width=False)
    grid = parse_grid(args.grid, "--grid")
    table = sweep_tmax_vs_L(grid.values(), cfg.V_eV, cfg.E_eV, cfg.mass_ratio,
                            tol=cfg.tol, threads=args.threads)
    return _sweep_csv(table, "L_nm", cfg, args, [("grid", grid)])


def cmd_scan_freq_x(args):
    cfg = _load_config(args)
    grid = parse_grid(args.grid, "--grid")
    table = sweep_freq_vs_x(grid.values(), _system(cfg), tol=cfg.tol,
                            threads=args.threads)
    return _sweep_csv(table, "x_nm", cfg, args, [("grid", grid)])


def cmd_scan_freq_alpha(args):
    check_u(args.u, "--u")
    cfg = _load_config(args, u=args.u, width=False)
    grid = parse_grid(args.grid, "--grid")
    table = sweep_freq_vs_alpha(grid.values(), args.u, cfg.V_eV,
                                cfg.mass_ratio, tol=cfg.tol,
                                threads=args.threads)
    return _sweep_csv(table, "alpha", cfg, args,
                      [("grid", grid), ("u", args.u)])


def cmd_window(args):
    check_u(args.u, "--u")
    cfg = _load_config(args, u=args.u, width=False)
    alpha_c, alpha_u = opacity_window(
        args.u, cfg.V_eV, cfg.mass_ratio, tol=cfg.tol,
        alpha_span=(args.alpha_min, args.alpha_max))
    return CsvTable(columns=("u", "alpha_c", "alpha_u"),
                    rows=((args.u, alpha_c, alpha_u),),
                    provenance=_provenance(
                        cfg, args, [("u", args.u),
                                    ("alpha_min", args.alpha_min),
                                    ("alpha_max", args.alpha_max)]))


def cmd_oracle_compare(args):
    cfg, sys_, x, t, provenance = _probe(args)
    # the probe and the oracle's bounds are checked before the analytic
    # trace runs
    cn_cfg = default_cn_config(sys_, float(t[-1]))
    check_x(x)
    check_run(sys_, cn_cfg, [x], float(t[-1]))
    an = trace(x, t, sys_, tol=cfg.tol)
    cn = cn_evolve(sys_, cn_cfg, [x], t)
    rows = []
    for tt, a2, c2 in zip(t, an.abs2, cn.abs2[0]):
        rel = abs(a2 - c2) / a2 if a2 > 0 else float("nan")
        rows.append((float(tt), float(a2), float(c2), rel))
    return CsvTable(columns=("t_fs", "abs2_analytic", "abs2_cn", "rel_err"),
                    rows=tuple(rows), provenance=provenance)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValidationError(f"--threads must be >= 1, got {args.threads}")
        table = args.run(args)
        emit_csv(table, args.out)
    except (ValidationError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":          # pragma: no cover
    raise SystemExit(main())
