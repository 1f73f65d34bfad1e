"""End-to-end CLI: output contract, precedence, exit codes and start-up."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtransient import (make_system, propagator, resonances,
                        sweep_freq_vs_x, sweep_tmax_vs_L)
from qtransient.cli import main
from qtransient.config import parse_csv
from qtransient.systems import length_for_alpha

GAAS_FLAGS = ["--V", "0.3", "--E", "0.001", "--L", "4.0",
              "--mass-ratio", "0.067"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tmax_happy_path(capsys):
    code, out, err = run(capsys, GAAS_FLAGS + ["tmax"])
    assert code == 0 and err == ""
    prov, cols, rows = parse_csv(out)
    assert cols == ("x_nm", "exists", "t_max_fs", "abs2_peak", "height_ratio",
                    "omega_av", "sigma", "omega_ratio")
    assert len(rows) == 1
    row = dict(zip(cols, rows[0]))
    assert row["exists"] is True
    assert abs(row["t_max_fs"] - 5.17) < 0.05
    # provenance echoes every effective parameter
    for key in ("command=tmax", "V_eV=", "E_eV=", "L_nm=", "mass_ratio=",
                "tol=", "threads="):
        assert key in prov
    assert "max_poles" not in prov


def test_poles_table(capsys):
    code, out, _ = run(capsys, GAAS_FLAGS + ["poles", "--n", "8"])
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ("n", "Re_k", "Im_k", "Re_E", "Im_E", "residual")
    assert len(rows) == 8
    assert all(r[5] <= 1e-12 for r in rows)
    assert [r[0] for r in rows] == [float(i) for i in range(1, 9)]


def test_evolve_csv(capsys):
    code, out, _ = run(capsys, GAAS_FLAGS + [
        "evolve", "--x", "2", "--tmin", "1", "--tmax", "5", "--steps", "5"])
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ("t_fs", "re_psi", "im_psi", "abs2", "abs2_over_T2",
                    "n_terms", "err")
    assert [r[0] for r in rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
    for r in rows:
        assert r[3] == pytest.approx(r[1] ** 2 + r[2] ** 2, rel=1e-12)
        assert 0.0 < r[6] <= 1e-8


def test_spectrogram_rows(capsys):
    probe = ["--x", "2", "--tmin", "1", "--tmax", "5", "--steps", "5"]
    code, out, err = run(capsys, GAAS_FLAGS + ["spectrogram"] + probe)
    assert code == 0 and err == ""
    _, cols, rows = parse_csv(out)
    assert cols == ("t_fs", "abs2_over_T2", "omega_av", "omega_ratio", "sigma",
                    "err")
    assert [r[0] for r in rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
    _, _, evolved = parse_csv(run(capsys, GAAS_FLAGS + ["evolve"] + probe)[1])
    omega_v = make_system(0.3, 0.001, 4.0, 0.067).omegaV
    for r, e in zip(rows, evolved):
        assert r[1] == e[4]
        assert r[3] == pytest.approx(r[2] / omega_v, rel=1e-15)
        assert r[4] >= 0.0
        assert r[5] == e[6]


def test_long_evolve_and_spectrogram_print_the_same_panels(capsys):
    # 2000 times read off Chebyshev panels: both commands print the same
    # density and the same per-row estimate, each within tol
    probe = ["--x", "8", "--tmin", "0.5", "--tmax", "30", "--steps", "2000"]
    _, cols, evolved = parse_csv(run(capsys, GAAS_FLAGS + ["evolve"]
                                     + probe)[1])
    _, scols, spectral = parse_csv(run(capsys, GAAS_FLAGS + ["spectrogram"]
                                       + probe)[1])
    assert len(evolved) == len(spectral) == 2000
    e = [dict(zip(cols, r)) for r in evolved]
    s = [dict(zip(scols, r)) for r in spectral]
    assert [r["abs2_over_T2"] for r in e] == [r["abs2_over_T2"] for r in s]
    assert [r["err"] for r in e] == [r["err"] for r in s]
    assert all(0.0 < r["err"] <= 1e-8 for r in e)


@pytest.mark.parametrize("x", [2.0, 8.0])
def test_library_trace_is_what_evolve_prints(capsys, monkeypatch, x):
    # one fixed-x evaluator: the library's trace of a long grid is, bit for
    # bit, what evolve prints for it, and it reads the grid off panels
    # whose node sums cover a fraction of the rows
    t = np.linspace(0.5, 30.0, 2000)
    code, out, err = run(capsys, GAAS_FLAGS + [
        "evolve", "--x", repr(x), "--tmin", "0.5", "--tmax", "30",
        "--steps", "2000"])
    assert code == 0 and err == ""
    _, cols, rows = parse_csv(out)
    printed = {c: [r[cols.index(c)] for r in rows]
               for c in ("t_fs", "re_psi", "im_psi", "err")}
    summed, direct_sum = [], propagator._direct

    def counted(x_, t_grid, *a, **kw):
        summed.append(len(t_grid))
        return direct_sum(x_, t_grid, *a, **kw)

    monkeypatch.setattr(propagator, "_direct", counted)
    tr = propagator.trace(x, t, make_system(0.3, 0.001, 4.0, 0.067))
    assert printed["t_fs"] == t.tolist()
    assert printed["re_psi"] == tr.psi.real.tolist()
    assert printed["im_psi"] == tr.psi.imag.tolist()
    assert printed["err"] == tr.trunc_error_est.tolist()
    assert summed and sum(summed) < len(t) / 4


# ROADMAP item 8's two reproducers at 2000 steps: each round of panel
# nodes is under 512 times, so one run with one Cauchy ring
WIDE_WINDOWS = [
    (0.19957178310361054, 1.6767299556191608, 0.8583241720991515,
     0.04618246056507653, 57.72807570634566),
    (0.01, 4.130328309020786, 3.923811893569747, 0.05, 60.0),
]


@pytest.mark.parametrize("E,L,x,tmin,tmax", WIDE_WINDOWS)
def test_long_evolve_over_a_wide_window_meets_tol(capsys, monkeypatch, E, L,
                                                  x, tmin, tmax):
    traced, direct_sum = [], propagator._direct

    def counted(x_, t_grid, *a, **kw):
        traced.append(len(t_grid))
        return direct_sum(x_, t_grid, *a, **kw)

    monkeypatch.setattr(propagator, "_direct", counted)
    code, out, err = run(capsys, [
        "--V", "0.3", "--E", repr(E), "--L", repr(L), "--mass-ratio", "0.067",
        "--tol", "1e-10", "evolve", "--x", repr(x), "--tmin", repr(tmin),
        "--tmax", repr(tmax), "--steps", "2000"])
    assert code == 0 and err == ""
    assert traced and sum(traced) < 2000 / 4
    _, cols, rows = parse_csv(out)
    rows = [dict(zip(cols, r)) for r in rows]
    psi = np.array([r["re_psi"] + 1j * r["im_psi"] for r in rows])
    ref = direct_sum(x, np.linspace(tmin, tmax, 2000),
                     make_system(0.3, E, L, 0.067), tol=1e-13)
    assert np.all(np.abs(psi - ref.psi) <= 1e-10 * np.abs(ref.psi))
    assert all(r["err"] <= 1e-10 for r in rows)


def test_times_next_to_release_exit_3_naming_x_and_t(capsys):
    # psi is analytic for every t > 0, so no time reads zero: the pole sum
    # refuses the times it cannot serve, 1e-4 fs and below included
    for command, x, tmin, tmax in (("spectrogram", "4", "1e-6", "1e-5"),
                                   ("evolve", "0.001", "1e-5", "9e-5")):
        code, out, err = run(capsys, GAAS_FLAGS + [
            command, "--x", x, "--tmin", tmin, "--tmax", tmax,
            "--steps", "3"])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"x={float(x)}" in err and f"t={float(tmin):g} fs" in err


def test_window_table(capsys):
    code, out, err = run(capsys, ["--threads", "1", "--V", "0.3",
                                  "--mass-ratio", "0.067", "window", "--u",
                                  "300"])
    assert code == 0 and err == ""
    prov, cols, rows = parse_csv(out)
    assert "command=window" in prov and "u=300" in prov
    assert cols == ("u", "alpha_c", "alpha_u")
    (u, alpha_c, alpha_u), = rows
    assert u == 300.0
    assert abs(alpha_c - 2.0653) <= 0.01 and abs(alpha_u - 3.3) <= 0.1


def test_tmax_just_below_the_merge_opacity(capsys):
    # the antibound pair sits 2.6e-3 / L apart on the imaginary axis, where
    # its roundoff costs about 8e-6 of |Psi|: within the scan's 1e-3, but
    # above the tol 1e-8 of the check that no peak follows the first chunk
    L = length_for_alpha(1.325486838698363 - 2e-7, 0.3, 0.067)
    code, out, err = run(capsys, ["--V", "0.3", "--E", "0.001", "--L",
                                  repr(L), "--mass-ratio", "0.067", "tmax"])
    assert code == 3 and out == ""
    assert err == ("error: no-peak check of the peak search: the poles "
                   "that merge at alpha_m lie 0.00264/L apart, with alpha - "
                   "alpha_m < 0: expected loss 2.8e-05 of |Psi| exceeds "
                   "tol=1.0e-08\n")


def test_evolve_at_the_merge_opacity_exits_3(capsys):
    # the antibound poles coincide at -2i/L to 1.1e-7 / L; the sum gave
    # |Psi|^2 ~ 1e11 with exit 0 before the guard
    code, out, err = run(capsys, ["--V", "0.3", "--E", "0.001",
                                  "--mass-ratio", "0.067",
                                  "--L", "1.8248986043701056", "--tol", "1e-10",
                                  "evolve", "--x", "1", "--tmin", "1",
                                  "--tmax", "3", "--steps", "3"])
    assert code == 3 and out == ""
    assert "lie 1.1e-07/L apart, with alpha - alpha_m < 0" in err


def test_sum_above_tol_after_its_second_pass_exits_3(capsys, monkeypatch):
    # both passes report an estimate of 1e-7 / t of |Psi|, above tol 1e-8
    # at every time, so the last check of _assemble raises
    pole_sum, counts = propagator._pole_sum, []

    def inflated(plan):
        psi, dpsi, _ = pole_sum(plan)
        counts.append(int(plan.level.max()))   # the counts the plan holds
        return psi, dpsi, 1e-7 * np.abs(psi) / plan.t

    monkeypatch.setattr(propagator, "_pole_sum", inflated)
    code, out, err = run(capsys, GAAS_FLAGS + [
        "evolve", "--tmin", "1", "--tmax", "3", "--steps", "3"])
    assert code == 3 and out == "" and len(counts) == 2
    # the first and the last time it refuses
    assert err == ("error: pole sum at x=4.0 above tol=1.0e-08 at 3 of 3 "
                   "time points from t=1 fs to t=3 fs; worst error estimate "
                   f"1.0e-07 with N={max(counts)} exact poles\n")


def test_flags_override_config_file(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[system]\nV_eV=0.3\nE_eV=0.001\nL_nm=4.0\n"
                   "mass_ratio=0.067\n[numerics]\ntol=1e-8\n")
    code, out, _ = run(capsys, ["--config", str(ini), "--E", "0.01",
                                "poles", "--n", "4"])
    assert code == 0
    prov, _, _ = parse_csv(out)
    assert "E_eV=0.01" in prov
    assert "V_eV=0.29999999999999999" in prov


def test_flag_supplies_a_key_the_config_file_leaves_out(capsys, tmp_path):
    # flags win over file values, so a file may leave out what a flag gives
    ini = tmp_path / "run.ini"
    ini.write_text("[system]\nV_eV=0.3\nL_nm=4.0\nmass_ratio=0.067\n")
    code, out, err = run(capsys, ["--config", str(ini), "--E", "0.001",
                                  "tmax"])
    assert code == 0 and err == ""
    prov, _, rows = parse_csv(out)
    assert " E_eV=0.001 " in prov
    assert rows[0][1] is True


@pytest.mark.parametrize("grid", ["3:5:3", "5:3:3"])
def test_scan_with_threads_is_ordered(capsys, grid):
    # rows come out in ascending order, whatever the grid direction
    code, out, _ = run(capsys, ["--threads", "3"] + GAAS_FLAGS +
                       ["scan-tmax-L", "--grid", grid])
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ("L_nm", "t_max_fs", "omega_ratio", "exists")
    assert [r[0] for r in rows] == [3.0, 4.0, 5.0]
    assert all(r[3] is True for r in rows)


def test_width_scan_needs_no_width(capsys):
    # scan-tmax-L takes its widths from the grid: it runs without --L, and a
    # stray --L changes no row and is not echoed in the provenance
    head = ["--V", "0.3", "--E", "0.001", "--mass-ratio", "0.067"]
    scan = ["scan-tmax-L", "--grid", "3:4:2"]
    code, bare, err = run(capsys, head + scan)
    assert code == 0 and err == ""
    code, stray, err = run(capsys, head + ["--L", "2"] + scan)
    assert code == 0 and err == ""
    assert stray.splitlines()[1:] == bare.splitlines()[1:]
    for out in (bare, stray):
        prov, _, rows = parse_csv(out)
        assert "L_nm" not in prov
        assert [r[0] for r in rows] == [3.0, 4.0]


def test_scan_freq_x_shared_cache_is_thread_independent(capsys):
    # the probes (internal at 2 nm and x = L, external at 6 nm) share one
    # pole table; two threads reading it must emit the same rows, byte for
    # byte, as one thread
    body = {}
    for threads in ("1", "2"):
        code, out, _ = run(capsys, ["--threads", threads] + GAAS_FLAGS +
                           ["scan-freq-x", "--grid", "2:6:3"])
        assert code == 0
        # the first line is the provenance comment, which echoes threads
        body[threads] = out.split("\n", 1)[1]
    assert body["1"] == body["2"]
    _, _, rows = parse_csv(out)
    assert [r[0] for r in rows] == [2.0, 4.0, 6.0]


@pytest.mark.parametrize("command", ["scan-freq-x", "scan-tmax-L"])
def test_scan_rows_are_the_library_sweep(capsys, command):
    # the CLI scan and the library sweep run one peak search, so the rows
    # are the sweep's values at 17 digits, byte for byte
    grid = {"scan-freq-x": "2:6:3", "scan-tmax-L": "3:5:3"}[command]
    code, out, _ = run(capsys, ["--threads", "1"] + GAAS_FLAGS +
                       [command, "--grid", grid])
    assert code == 0
    values = np.linspace(*(float(v) for v in grid.split(":")[:2]), 3)
    if command == "scan-freq-x":
        table = sweep_freq_vs_x(values, make_system(0.3, 0.001, 4.0, 0.067))
    else:
        table = sweep_tmax_vs_L(values, 0.3, 0.001, 0.067)
    rows = [f"{r.independent:.17g},{r.t_max:.17g},{r.omega_ratio:.17g},"
            f"{str(r.exists).lower()}" for r in table.rows]
    assert out.splitlines()[2:] == rows


def test_out_file_written(capsys, tmp_path):
    path = tmp_path / "poles.csv"
    code, out, _ = run(capsys, GAAS_FLAGS + ["--out", str(path),
                                             "poles", "--n", "4"])
    assert code == 0 and out == ""
    _, _, rows = parse_csv(path.read_text())
    assert len(rows) == 4


def test_bad_config_exits_2(capsys, tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[system]\nV_eV=0.3\nE_eV=0.001\nL_nm=4.0\nbogus=1\n")
    code, out, err = run(capsys, ["--config", str(ini), "poles"])
    assert code == 2
    assert "bogus" in err and "line 5" in err


def test_config_file_not_utf8_exits_2(capsys, tmp_path):
    # a byte that is not UTF-8 is a config error naming the file and the
    # byte's offset, not a UnicodeDecodeError traceback
    ini = tmp_path / "latin.ini"
    ini.write_bytes(b"[system]\nV_eV = 0.3\xff\n")
    code, out, err = run(capsys, ["--config", str(ini), "poles"])
    assert code == 2 and out == ""
    assert err == f"error: {ini}: not UTF-8 at byte 19\n"


@pytest.mark.parametrize("command", [
    ["evolve", "--tmin", "1", "--tmax", "2", "--steps", str(10 ** 15)],
    ["scan-freq-x", "--grid", f"1:4:{10 ** 15}"]])
def test_grid_too_large_to_allocate_exits_2(capsys, command):
    # 10**15 float64 values (7.1 PiB) exceed any x86-64 address space, so
    # numpy refuses the array before mapping anything; its message is the
    # error
    code, out, err = run(capsys, GAAS_FLAGS + command)
    assert code == 2 and out == ""
    assert err.startswith("error: Unable to allocate 7.11 PiB")


def test_missing_parameters_exit_2(capsys):
    code, _, err = run(capsys, ["--V", "0.3", "--E", "0.001", "tmax"])
    assert code == 2
    assert "L_nm" in err


@pytest.mark.parametrize("command,u", [("scan-freq-alpha", "0.5"),
                                       ("window", "0"),
                                       ("scan-freq-alpha", "-2"),
                                       ("scan-freq-alpha", "inf"),
                                       ("window", "inf")])
def test_invalid_u_exits_2(capsys, command, u):
    # --u is checked before the energy V/u is derived from it; an infinite
    # u would make that energy 0
    extra = ["--grid", "2:3:2"] if command == "scan-freq-alpha" else []
    code, _, err = run(capsys, ["--V", "0.3", command, "--u", u] + extra)
    assert code == 2
    assert "--u" in err


@pytest.mark.parametrize("n", ["0", "-3", "3000"])
def test_poles_bad_count_exits_2(capsys, n):
    # find_poles takes any N >= 1; the CLI's own guard keeps --n within
    # 1 .. HARD_CAP = 2048
    code, out, err = run(capsys, GAAS_FLAGS + ["poles", "--n", n])
    assert code == 2 and out == ""
    assert "--n" in err and "2048" in err


def test_poles_command_audits_the_count(capsys, monkeypatch):
    # find_poles certifies its table by branch index alone; the poles
    # command also counts the zeros by the argument principle
    monkeypatch.setattr(resonances, "_winding_number",
                        lambda *a, **k: 7)
    code, out, err = run(capsys, GAAS_FLAGS + ["poles", "--n", "8"])
    assert code == 3 and out == ""
    assert "argument principle counts 7 zeros, found 8 poles" in err


def test_scan_grid_checked_before_any_pole_sum(capsys):
    # x = 0 is rejected with the rest of the grid before the 4 nm probe
    # or the x = 0 pole sum (which would run into the pole cap) starts
    code, out, err = run(capsys, GAAS_FLAGS + ["scan-freq-x",
                                               "--grid", "0:4:2"])
    assert code == 2 and out == ""
    assert "x must be > 0" in err


@pytest.mark.parametrize("span", [["--alpha-min", "6", "--alpha-max", "1.2"],
                                  ["--alpha-min", "3", "--alpha-max", "3"],
                                  ["--alpha-max", "inf"],
                                  ["--alpha-min", "-1"]])
def test_window_bad_alpha_span_exits_2(capsys, recwarn, span):
    # checked before the first probe, and blamed on the span flags
    code, out, err = run(capsys, ["--V", "0.3", "--mass-ratio", "0.067",
                                  "window", "--u", "300"] + span)
    assert code == 2 and out == ""
    assert "--alpha-min" in err and "--alpha-max" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("threads,command", [
    ("0", ["scan-freq-x", "--grid", "2:6:3"]), ("-4", ["tmax"])])
def test_threads_below_one_exits_2(capsys, threads, command):
    code, out, err = run(capsys, ["--threads", threads] + GAAS_FLAGS + command)
    assert code == 2 and out == ""
    assert "--threads" in err


def test_nonconvergence_exits_3(capsys):
    # next to the shutter, 1e-3 fs after release, 2048 poles do not reach
    # the default tolerance
    code, _, err = run(capsys, GAAS_FLAGS + ["evolve", "--x", "0.05",
                                             "--tmin", "0.001", "--tmax", "1",
                                             "--steps", "3"])
    assert code == 3
    assert "error:" in err and "cap 2048" in err


def test_unwritable_output_exits_4(capsys):
    code, _, err = run(capsys, GAAS_FLAGS + [
        "--out", "/nonexistent-dir/out.csv", "poles", "--n", "4"])
    assert code == 4
    assert "error:" in err


def test_window_command_without_L(capsys):
    # the window and alpha-scan commands derive L from the opacity, so a
    # config without L_nm must be accepted; checked via scan-freq-alpha
    # (the cheaper of the two)
    code, out, _ = run(capsys, ["--V", "0.3", "--mass-ratio", "0.067",
                                "scan-freq-alpha", "--grid", "2.5:3:2",
                                "--u", "300"])
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ("alpha", "t_max_fs", "omega_ratio", "exists")
    assert [r[0] for r in rows] == [2.5, 3.0]
    assert all(r[2] < 1.0 for r in rows)


@pytest.mark.parametrize("source", ["flags", "stray flags", "config",
                                    "height-only config"])
def test_fixed_u_provenance_shows_the_energy_used(capsys, tmp_path, source):
    # scan-freq-alpha runs at E = V/u and takes its widths from the opacity
    # grid, so the provenance shows that E and no L_nm, whatever the flags
    # or the config file say about E and L; from a file as from flags it
    # needs V_eV alone
    head = {"flags": ["--V", "0.3", "--mass-ratio", "0.067"],
            "stray flags": ["--V", "0.3", "--E", "0.05", "--L", "2",
                            "--mass-ratio", "0.067"],
            "config": ["--config", str(tmp_path / "run.ini")],
            "height-only config": ["--config",
                                   str(tmp_path / "bare.ini")]}[source]
    (tmp_path / "run.ini").write_text(
        "[system]\nV_eV=0.3\nE_eV=0.05\nL_nm=4.0\nmass_ratio=0.067\n")
    (tmp_path / "bare.ini").write_text("[system]\nV_eV=0.3\nmass_ratio=0.067\n")
    code, out, _ = run(capsys, head + ["scan-freq-alpha", "--grid", "2.5:3:2",
                                       "--u", "300"])
    assert code == 0
    prov, _, rows = parse_csv(out)
    assert f" E_eV={0.3 / 300:.17g} " in prov
    assert "L_nm" not in prov
    assert [r[0] for r in rows] == [2.5, 3.0]


@pytest.mark.parametrize("argv,named", [
    (["evolve", "--x", "inf", "--tmin", "1", "--tmax", "5"], "x=inf"),
    (["spectrogram", "--x", "nan", "--tmin", "1", "--tmax", "5"], "x=nan"),
    (["tmax", "--x", "nan"], "x=nan"),
    (["tmax", "--x", "inf"], "x=inf"),
    (["oracle-compare", "--x", "nan", "--tmin", "1", "--tmax", "3"], "x=nan"),
    (["oracle-compare", "--tmin", "1", "--tmax", "inf"], "tmax=inf"),
    (["evolve", "--tmin", "1", "--tmax", "nan"], "tmax=nan"),
    (["spectrogram", "--x", "nan", "--tmin", "1", "--tmax", "5",
      "--steps", "2000"], "x=nan"),
])
def test_non_finite_x_or_time_exits_2_naming_it(capsys, recwarn, argv, named):
    # rejected where it enters, before any kernel sees it
    code, out, err = run(capsys, GAAS_FLAGS + argv)
    assert code == 2 and out == ""
    assert named in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("tol", ["0", "nan", "1", "1e300"])
@pytest.mark.parametrize("command", [
    ["tmax"], ["evolve", "--tmin", "1", "--tmax", "5", "--steps", "5"],
    ["poles", "--n", "3"]])
def test_tol_outside_zero_to_one_exits_2_naming_it(capsys, command, tol):
    # a relative tolerance of 1 or more is input error, not a scan or
    # polish that missed: the command exits 2 before any pole sum, and so
    # does one that sums no poles, which would echo tol in its provenance
    code, out, err = run(capsys, GAAS_FLAGS + ["--tol", tol] + command)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "tol" in err


def test_config_file_tol_outside_zero_to_one_exits_2(capsys, tmp_path):
    ini = tmp_path / "loose.ini"
    ini.write_text("[system]\nV_eV=0.3\nE_eV=0.001\nL_nm=4.0\n"
                   "[numerics]\ntol = 5\n")
    code, out, err = run(capsys, ["--config", str(ini), "poles", "--n", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "tol=5" in err


def test_oversized_oracle_run_exits_2_before_any_sum(capsys):
    # 4e9 oracle steps: refused before the analytic trace or any kernel
    code, out, err = run(capsys, GAAS_FLAGS + [
        "oracle-compare", "--tmin", "1", "--tmax", "1e7", "--steps", "2"])
    assert code == 2 and out == ""
    assert "t_end=1e+07" in err and "steps" in err and "250000" in err


def test_far_probe_oracle_run_completes(capsys):
    # x = 1000 nm to 300 fs: the lattice solve costs what it costs at L,
    # so the run completes with one row per time
    code, out, err = run(capsys, GAAS_FLAGS + [
        "oracle-compare", "--x", "1000", "--tmin", "1", "--tmax", "300",
        "--steps", "3"])
    assert code == 0 and err == ""
    _, cols, rows = parse_csv(out)
    assert [row[0] for row in rows] == [1.0, 150.5, 300.0]
    assert all(math.isfinite(row[2]) for row in rows)


def test_reused_parser_leaks_nothing_between_calls(capsys, tmp_path):
    # main() builds its parser once per process; a call after others that
    # set --config, --tol, --out and --threads, or failed to parse, must
    # print what the same argv prints in a fresh interpreter
    ini = tmp_path / "run.ini"
    ini.write_text("[system]\nV_eV=0.3\nE_eV=0.01\nL_nm=3.0\n"
                   "mass_ratio=0.067\n[numerics]\ntol=1e-6\n")
    csv = tmp_path / "evolve.csv"
    code, out, err = run(capsys, [
        "--config", str(ini), "--tol", "1e-9", "--out", str(csv), "evolve",
        "--x", "2", "--tmin", "1", "--tmax", "5", "--steps", "5"])
    assert (code, out, err) == (0, "", "")
    assert "tol=1.0000000000000001e-09" in csv.read_text(encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(GAAS_FLAGS + ["--no-such-flag", "tmax"])
    assert info.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    code, out, err = run(capsys, ["--threads", "0"] + GAAS_FLAGS + ["tmax"])
    assert code == 2 and out == "" and "--threads" in err
    argv = GAAS_FLAGS + ["tmax"]
    in_process = run(capsys, argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    fresh = subprocess.run([sys.executable, "-m", "qtransient.cli"] + argv,
                           env=env, capture_output=True, text=True,
                           timeout=120)
    assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert in_process[0] == 0 and "tol=1e-08 " in in_process[1]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs start-up time and memory that no command needs,
    # neither at import nor in a peak find
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import io, sys, contextlib, qtransient.cli as cli\n"
             "print('scipy.optimize' in sys.modules)\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cli.main({GAAS_FLAGS + ['tmax']!r})\n"
             "print(code, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["False", "0 False"]


def test_cli_import_leaves_scipy_linalg_unloaded():
    # no command solves with LAPACK, so start-up and the analytic commands
    # never load scipy.linalg
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import io, sys, contextlib, qtransient.cli as cli\n"
             "print('scipy.linalg' in sys.modules)\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cli.main({GAAS_FLAGS + ['tmax']!r})\n"
             "print(code, 'scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["False", "0 False"]


def test_cold_pole_search_leaves_scipy_ndimage_unloaded():
    # the pole search is one Newton pass over its seeds: no grid filter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import sys, qtransient.cli\n"
             "from qtransient import find_poles, make_system\n"
             "find_poles(make_system(0.3, 0.001, 4.0, 0.067), 64)\n"
             "print('scipy.ndimage' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_analytic_path_loads_no_scipy():
    # every command runs on numpy alone: start-up, a peak find, a cold
    # pole search, a trace and the grid oracle, whose key-node solve is a
    # numpy elimination, load no scipy module.  The peak search calls no
    # LAPACK routine and loads no numpy.polynomial: a peak at x = L, a
    # search that ends in the no-peak check (L = 2 nm, below alpha_c) and a
    # position scan run while numpy.linalg's solvers raise
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    evolve = ["evolve", "--x", "6", "--tmin", "1", "--tmax", "5",
              "--steps", "5"]
    oracle = ["oracle-compare", "--tmin", "2", "--tmax", "3", "--steps", "2"]
    thin = ["--V", "0.3", "--E", "0.001", "--L", "2", "--mass-ratio", "0.067"]
    scan = ["scan-freq-x", "--grid", "2:6:3"]
    probe = ("import io, sys, contextlib\n"
             "import numpy.linalg\n"
             "def scipy():\n"
             "    return sorted(m for m in sys.modules\n"
             "                  if m == 'scipy' or m.startswith('scipy.'))\n"
             "import qtransient.cli as cli\n"
             "from qtransient import find_poles, make_system\n"
             "print('import', scipy())\n"
             "def run(argv):\n"
             "    global out\n"
             "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             "        return cli.main(argv)\n"
             "def refuse(*args, **kwargs):\n"
             "    raise AssertionError('numpy.linalg called')\n"
             "solvers = ('lstsq', 'eigvals', 'eig', 'solve', 'svd')\n"
             "saved = {f: getattr(numpy.linalg, f) for f in solvers}\n"
             "for f in solvers:\n"
             "    setattr(numpy.linalg, f, refuse)\n"
             f"print('tmax', run({GAAS_FLAGS + ['tmax']!r}), scipy())\n"
             f"print('no peak', run({thin + ['tmax']!r}),\n"
             "      out.getvalue().splitlines()[-1].split(',')[1])\n"
             f"print('scan', run({GAAS_FLAGS + scan!r}))\n"
             "print('numpy.polynomial', 'numpy.polynomial' in sys.modules)\n"
             "for f in solvers:\n"
             "    setattr(numpy.linalg, f, saved[f])\n"
             "find_poles(make_system(0.3, 0.001, 4.0, 0.067), 64)\n"
             "print('find_poles', scipy())\n"
             f"print('evolve', run({GAAS_FLAGS + evolve!r}), scipy())\n"
             f"print('oracle', run({GAAS_FLAGS + oracle!r}),\n"
             "      'scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "import []", "tmax 0 []", "no peak 0 false", "scan 0",
        "numpy.polynomial False", "find_poles []", "evolve 0 []",
        "oracle 0 False"]


def test_oracle_compare_runs_with_scipy_unimportable():
    # the README oracle-compare example in a process where importing scipy
    # fails: it exits 0 and still agrees with the grid to 1 % from 2.5 fs,
    # where the CLI's lattice resolves the transient
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    argv = GAAS_FLAGS + ["oracle-compare", "--tmin", "1", "--tmax", "30",
                         "--steps", "30"]
    probe = ("import sys\n"
             "sys.modules['scipy'] = None\n"
             "import qtransient.cli as cli\n"
             f"sys.exit(cli.main({argv!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    _, columns, rows = parse_csv(out.stdout)
    assert columns == ("t_fs", "abs2_analytic", "abs2_cn", "rel_err")
    late = [row[3] for row in rows if row[0] >= 2.5]
    assert len(late) == 28 and max(late) <= 0.01


def test_non_finite_pole_sum_exits_3(capsys):
    # at x = 1e200 the Moshinsky phase a^2/t overflows and every sum is
    # NaN, which passes no comparison with tol: the check counts it as a
    # miss, and numpy does not warn on the way (the suite makes
    # RuntimeWarning an error)
    for argv in (["tmax", "--x", "1e200"],
                 ["evolve", "--x", "1e200", "--tmin", "1", "--tmax", "2",
                  "--steps", "2"]):
        code, out, err = run(capsys, GAAS_FLAGS + argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "x=1e+200" in err and "error estimate inf" in err


def test_overflowing_stationary_amplitude_exits_3(capsys):
    # alpha ~ 5300: e^{kappa0 L} overflows, so the plateau and the
    # stationary amplitudes at +-k are NaN.  The first trace at x refuses
    # its sum as not finite, with one error line naming x; numpy does not
    # warn on the way (the suite makes RuntimeWarning an error), and the
    # NaN plateau raises no OverflowError
    code, out, err = run(capsys, ["--V", "1e6", "--E", "1", "--L", "4",
                                  "--mass-ratio", "0.067", "tmax"])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "x=4.0" in err


def test_overflowing_amplitude_is_refused_without_a_deeper_search(
        capsys, monkeypatch):
    # f(+-k) is NaN at alpha ~ 5300, so the sizing target is not finite and
    # no pool can meet it: the sizer stops at its first pool, and the shared
    # table of HARD_CAP // 4 poles is the only search before the refusal
    depths, search = [], propagator.find_poles
    tables = propagator.find_pole_tables

    def counted(sys_, n):
        depths.append(n)
        return search(sys_, n)

    def counted_tables(systems, n):
        depths.extend([n] * len(systems))
        return tables(systems, n)

    monkeypatch.setattr(propagator, "find_poles", counted)
    monkeypatch.setattr(propagator, "find_pole_tables", counted_tables)
    code, out, err = run(capsys, ["--V", "1e6", "--E", "1", "--L", "4",
                                  "--mass-ratio", "0.067", "tmax"])
    assert code == 3 and out == "" and "x=4.0" in err
    assert depths == [propagator.HARD_CAP // 4]


@pytest.mark.parametrize("flags,code", [
    # alpha ~ 1e-14, far below alpha_c: no peak forms
    (["--V", "0.3", "--E", "0.001", "--mass-ratio", "1e-30"], 0),
    # t ~ 1e298 fs at the peak search's first time: every sum overflows
    (["--V", "1e-300", "--E", "1e-301", "--mass-ratio", "0.067"], 3)])
def test_barrier_with_tiny_squares_is_summed_like_any_other(capsys, flags,
                                                            code):
    # k^2 and k_n^2 lie far below 1 nm^-2, yet k^2 - k_n^2 never vanishes:
    # the sum is taken, and it is refused only by its own check, naming x
    # (numpy does not warn on the way: the suite makes RuntimeWarning an
    # error)
    got, out, err = run(capsys, flags + ["--L", "4", "tmax"])
    assert got == code
    if code == 0:
        _, cols, rows = parse_csv(out)
        assert len(rows) == 1 and dict(zip(cols, rows[0]))["exists"] is False
        assert err == ""
    else:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and "x=" in err
        assert "k^2 - k_n^2" not in err


@pytest.mark.parametrize("flags", [
    ["--V", "0.3", "--E", "0.001", "--mass-ratio", "1e-30"],
    ["--V", "1e-300", "--E", "1e-301", "--mass-ratio", "0.067"]])
def test_tiny_scale_pole_audit_names_alpha_and_its_contour(capsys, flags):
    # at alpha ~ 1e-14 and 5e-150 the argument-principle contour cannot be
    # resolved: exit 3 with one error line that names alpha and the
    # corners, and no numpy warning (G overflows on the contour)
    code, out, err = run(capsys, flags + ["--L", "4", "poles", "--n", "3"])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "alpha=" in err and "Re k in [" in err and "Im k in [" in err


def test_pole_missing_at_a_huge_width_names_l_and_alpha(capsys):
    # at L = 1e6 nm (alpha ~ 7e5) pole 2 has no root on its branch
    code, out, err = run(capsys, ["--V", "0.3", "--E", "0.001", "--L", "1e6",
                                  "--mass-ratio", "0.067", "tmax"])
    assert code == 3 and out == ""
    assert "pole n=2 did not converge" in err
    assert "L=1e+06 nm, alpha=726335" in err


def test_commands_never_import_numpy_ma():
    # numpy.ma, which np.unique imports, adds about 1 MB of RSS: no command
    # of the benchmark's workloads loads it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    commands = [["tmax"],
                ["evolve", "--x", "2", "--tmin", "1", "--tmax", "5",
                 "--steps", "5"],
                ["scan-freq-x", "--grid", "2:4:2"],
                ["oracle-compare", "--tmin", "1", "--tmax", "3", "--steps", "3"]]
    probe = ("import contextlib, io, sys\n"
             "import qtransient.cli as cli\n"
             f"for argv in {[GAAS_FLAGS + c for c in commands]!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = cli.main(argv)\n"
             "    print(argv[8], code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "tmax 0 False", "evolve 0 False", "scan-freq-x 0 False",
        "oracle-compare 0 False"]
