"""Time-frequency diagnostics and the transient-peak finder.

Oracles:
* [TRIVIAL] omega_av^2 + sigma^2 = |dPsi/dt|^2 / |Psi|^2 identically;
* [DERIVED] omega_av equals minus the finite-difference rate of the
  unwrapped phase of Psi;
* [DERIVED] pinned peak data for the GaAs reference barrier (t_max,
  frequency ratio, height ratio), converged under pole-count and scan
  refinement;
* [TRIVIAL] a peak find traces a prefix of the scan grid, each time once,
  up to the chunk that closes the first maximum, then the polish nodes
  inside the scan bracket, and nothing more;
* [DERIVED] the interpolation helpers against numpy.polynomial.chebyshev:
  the FFT coefficients and their Clenshaw values agree with chebfit and
  chebval to 1e-14 of their largest, and the bracketed zero is the least
  falling real root of the companion matrix;
* [DERIVED] the values at t_max, read off the polish interpolants, agree
  with a direct trace at t_max to 1e-10, and an interpolant whose tail
  exceeds tol |Psi|, or tol |dPsi/dt| for dPsi/dt, raises NotConverged,
  as does a polish whose rate does not fall through zero;
* [DERIVED] the chunked scan brackets the same maximum as one trace of the
  whole grid, so t_max is bitwise the same, and a search with no peak
  traces one chunk and then one no-peak check over the rest of the grid;
* [DERIVED] the scan at SCAN_TOL and the no-peak check report bitwise what
  a scan at 1e-6 of every chunk reports, and wherever the check says no
  peak follows, a scan at 1e-6 of the whole grid finds none;
* [DERIVED] on opaque barriers the polished t_max agrees to 1e-11 with
  pinned references from Brent's method;
* [DERIVED] beyond the barrier and next to the shutter the peak find
  reaches the tolerance asked for, t_max 0.1 nm from the shutter agrees
  with a 1024-pole reference to that tolerance, and a miss is reported at
  the tolerance asked for, not the scan's;
* [DERIVED] trace reads a grid of PANEL_MIN or more times off octave
  panels within tol of the direct sum (_direct) and within its own
  estimate, summing under a quarter of the rows; noisy or refused node
  sums leave the rows to the direct sum, bit for bit, and spectrogram
  reads the same values.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import Chebyshev, chebfit, chebpts2, chebval

from qtransient import (analysis, find_time_domain_resonance,
                        local_frequency, make_system, pole_cache, propagator,
                        spectrogram, trace)
from qtransient.analysis import default_window
from qtransient.errors import (AmplitudeUnderflow, MergingPolePair,
                               NotConverged)
from qtransient.propagator import DEFAULT_TOL
from qtransient.systems import length_for_alpha

REF_T_MAX = 5.169962793690934
REF_OMEGA_RATIO = 0.80750851866800455
REF_HEIGHT_RATIO = 1.1744800517103586
# the peak 0.1 nm from the shutter, polished at tol 1e-12 with 1024 exact
# poles at every time and the closed-form tail behind them
REF_T_MAX_NEAR_SHUTTER = 8.266955774104087


def test_frequency_identity(gaas, gaas_cache):
    tr = trace(gaas.L, np.linspace(2.0, 10.0, 9), gaas,
               poles=gaas_cache, tol=1e-10)
    omega, sigma = local_frequency(tr.psi, tr.dpsi_dt)
    lhs = omega**2 + sigma**2
    rhs = np.abs(tr.dpsi_dt / tr.psi) ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(rhs)


def test_omega_av_is_phase_rate(gaas, gaas_cache):
    t0, dt = 5.0, 1e-4
    tr = trace(gaas.L, np.array([t0 - dt, t0, t0 + dt]), gaas,
               poles=gaas_cache, tol=1e-11)
    omega, _ = local_frequency(complex(tr.psi[1]), complex(tr.dpsi_dt[1]))
    fd = -np.angle(tr.psi[2] / tr.psi[0]) / (2 * dt)
    assert abs(omega - fd) <= 1e-4 * abs(fd)


def test_scalar_and_array_interfaces():
    omega, sigma = local_frequency(1.0 + 1.0j, 2.0 - 1.0j)
    assert isinstance(omega, float) and isinstance(sigma, float)
    oa, sa = local_frequency(np.array([1.0 + 1.0j]), np.array([2.0 - 1.0j]))
    assert oa.shape == (1,) and oa[0] == omega and sa[0] == sigma


def test_amplitude_underflow():
    with pytest.raises(AmplitudeUnderflow):
        local_frequency(1e-200 + 0.0j, 1.0 + 0.0j)


def test_spectrogram_consistent_with_trace(gaas, gaas_cache):
    ts = np.linspace(3.0, 8.0, 6)
    sg = spectrogram(gaas, gaas.L, ts, tol=1e-9, poles=gaas_cache)
    tr = trace(gaas.L, ts, gaas, poles=gaas_cache, tol=1e-9)
    omega, sigma = local_frequency(tr.psi, tr.dpsi_dt)
    assert np.allclose(sg.omega_av, omega, rtol=1e-12, atol=0.0)
    assert np.allclose(sg.sigma, sigma, rtol=1e-12, atol=1e-15)
    assert np.allclose(sg.abs2, tr.abs2, rtol=1e-12, atol=0.0)


def test_spectrogram_names_x_and_the_first_faint_time(gaas, gaas_cache,
                                                     monkeypatch):
    # |Psi| below the 1e-150 floor at 5 and 7 fs: dPsi/dt / Psi means
    # nothing there, and the error names x and the first of those times
    def faint(x_, t_grid, *a, **kw):
        tr = trace(x_, t_grid, *a, **kw)
        psi = tr.psi.copy()
        psi[[2, 4]] *= 1e-160
        return dataclasses.replace(tr, psi=psi)

    monkeypatch.setattr(analysis, "trace", faint)
    with pytest.raises(AmplitudeUnderflow) as info:
        spectrogram(gaas, gaas.L, np.linspace(3.0, 8.0, 6), poles=gaas_cache)
    assert "x=4, t=5 fs (first of 2 such grid times)" in str(info.value)


def test_reference_peak_values(gaas, gaas_cache):
    tdr = find_time_domain_resonance(gaas, poles=gaas_cache)
    assert tdr.exists
    assert abs(tdr.t_max - REF_T_MAX) <= 1e-6
    assert abs(tdr.omega_ratio - REF_OMEGA_RATIO) <= 1e-8
    assert abs(tdr.height_ratio - REF_HEIGHT_RATIO) <= 1e-8
    assert tdr.omega_av == pytest.approx(tdr.omega_ratio * gaas.omegaV)


def test_peak_near_the_shutter_to_tolerance(gaas, gaas_cache):
    # the peak is shallow here, so the envelope rate crosses zero slowly and
    # amplifies pole-sum errors into t_max
    tdr = find_time_domain_resonance(gaas, x=0.1, tol=1e-8, poles=gaas_cache)
    assert tdr.exists
    assert abs(tdr.t_max / REF_T_MAX_NEAR_SHUTTER - 1.0) <= 1e-8


def test_peak_invariant_under_scan_refinement(gaas, gaas_cache, monkeypatch):
    # the same number of scan points over a shorter and a longer window
    lo, hi = default_window(gaas, gaas.L)
    found = []
    for scale in (0.6, 2.0):
        monkeypatch.setattr(analysis, "default_window",
                            lambda sys_, x, s=scale: (lo, s * hi))
        found.append(find_time_domain_resonance(gaas, poles=gaas_cache).t_max)
    fine, coarse = found
    assert abs(coarse - fine) <= 1e-6


@pytest.mark.parametrize("x", [1.0, 4.0, 8.0])
def test_peak_polish_traces_each_time_once(gaas, gaas_cache, monkeypatch, x):
    calls = []

    def spy(x_, t_grid, *args, tol, **kwargs):
        tr = trace(x_, t_grid, *args, tol=tol, **kwargs)
        calls.append((tr, tol))
        return tr

    monkeypatch.setattr(analysis, "trace", spy)
    tol = 1e-9
    tdr = find_time_domain_resonance(gaas, x=x, tol=tol, poles=gaas_cache)
    assert tdr.exists
    # the scan chunks, then one polish trace, and nothing at t_max
    *scans, (polish, polish_tol) = calls
    assert {scan_tol for _, scan_tol in scans} == {max(tol, analysis.SCAN_TOL)}
    # the scan traces a prefix of the grid in time order, each time once
    times = np.concatenate([scan.times for scan, _ in scans])
    rho = np.concatenate([scan.abs2 for scan, _ in scans])
    grid = np.linspace(*default_window(gaas, x), analysis.PEAK_SCAN)
    assert times.tolist() == grid[:len(times)].tolist()
    # the polish spans two scan steps either side of the coarse maximum
    nodes = polish.times
    i = int(np.searchsorted(times, nodes[0]))
    assert nodes[0] == times[i] and rho[i + 1] < rho[i + 2] >= rho[i + 3]
    assert nodes[-1] == pytest.approx(grid[i + 4], rel=1e-15, abs=0.0)
    # nothing past the chunk that closes the maximum is traced
    assert len(times) - len(scans[-1][0].times) <= i + 3 < len(times)
    assert len(nodes) == analysis.POLISH_NODES and polish_tol == tol
    assert nodes[0] < tdr.t_max < nodes[-1] and tdr.t_max not in nodes
    # the reported values come from the interpolant through the nodes
    psi = Chebyshev.fit(nodes, polish.psi.real, analysis.POLISH_NODES - 1)(
        tdr.t_max) + 1j * Chebyshev.fit(nodes, polish.psi.imag,
                                        analysis.POLISH_NODES - 1)(tdr.t_max)
    assert tdr.height == pytest.approx(abs(psi) ** 2, rel=1e-13, abs=0.0)


# (alpha, u) corners at V = 0.3 eV, m = 0.067, probed at x = L
PEAK_VALUE_CORNERS = [(alpha, u)
                      for alpha in (2.2, 2.6, 3.3, 4.5, 6.0, 9.0, 11.6)
                      for u in (30.0, 300.0, 3000.0)]
# GaAs (L = 4 nm) at E = 1 and 10 meV, probed inside and beyond the barrier
PEAK_VALUE_POSITIONS = [(E, x) for E in (0.001, 0.01)
                        for x in (0.5, 2.0, 4.0, 8.0, 20.0)]


@pytest.mark.parametrize("tol", [1e-8, 1e-11])
def test_peak_values_from_the_polish_interpolant(tol):
    # the values at t_max come from the 16-node interpolants of the polish
    # trace; they agree with a direct trace at t_max well inside 1e-10
    V, m = 0.3, 0.067
    systems = [(make_system(V, V / u, length_for_alpha(alpha, V, m), m), 1.0)
               for alpha, u in PEAK_VALUE_CORNERS]
    systems += [(make_system(V, E, 4.0, m), x / 4.0)
                for E, x in PEAK_VALUE_POSITIONS]
    for sys_, x_over_L in systems:
        cache = pole_cache(sys_)
        x = x_over_L * sys_.L
        tdr = find_time_domain_resonance(sys_, x=x, tol=tol, poles=cache)
        assert tdr.exists, (sys_.alpha, x)
        w = trace(x, np.array([tdr.t_max]), sys_, poles=cache, tol=tol)
        omega_av, _ = local_frequency(complex(w.psi[0]), complex(w.dpsi_dt[0]))
        for got, want in ((tdr.height, abs(w.psi[0]) ** 2),
                          (tdr.omega_av, omega_av),
                          (tdr.omega_ratio, omega_av / sys_.omegaV)):
            assert abs(got / want - 1.0) <= 1e-10, (sys_.alpha, x, got, want)


@pytest.mark.parametrize("n", [analysis.POLISH_NODES, analysis.RISE_NODES])
@pytest.mark.parametrize("columns", [(), (4,)])
def test_fft_coefficients_match_the_least_squares_fit(n, columns):
    # interpolation at the Chebyshev-Lobatto points by one FFT is the fit
    # numpy.polynomial solves by least squares; one column as the rate,
    # four as Psi and dPsi/dt
    u = analysis._lobatto(n)
    assert np.array_equal(u, chebpts2(n))
    values = np.random.default_rng(n).standard_normal((n, *columns))
    want = chebfit(u, values, n - 1)
    coef = analysis._cheb_coef(values)
    assert np.max(np.abs(coef - want)) <= 1e-14 * np.max(np.abs(want))
    at = np.linspace(-1.0, 1.0, 101)
    want = chebval(at, want).T
    got = (analysis._clenshaw(coef, at) if not columns
           else np.array([analysis._clenshaw(coef, a) for a in at]))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [analysis.POLISH_NODES, analysis.RISE_NODES])
@pytest.mark.parametrize("roots,falling", [
    ([0.3], 0),               # + to -
    ([-0.4, 0.5], 1),         # - to + to -: the rising root comes first
    ([-0.6, 0.1, 0.7], 0),    # + to - to + to -
    ("node", 0),              # + to - on a node, where the value is 0
])
def test_bracketed_zero_is_the_least_falling_root(n, roots, falling):
    u = analysis._lobatto(n)
    if roots == "node":
        roots = [u[n // 3]]
    values = -np.prod([u - r for r in roots], axis=0) * (2.0 + u)
    fit = Chebyshev(chebfit(u, values, n - 1))
    slope = fit.deriv()
    want = min(r.real for r in fit.roots()
               if r.imag == 0 and abs(r.real) <= 1 and slope(r.real) < 0)
    got = analysis._falling_zero(analysis._cheb_coef(values), values)
    assert got == pytest.approx(want, rel=0.0, abs=1e-13)
    # bisection lands closer to the true root than the companion matrix
    assert got == pytest.approx(roots[falling], rel=0.0, abs=1e-15)
    if roots[0] in u:
        assert got == roots[0]


def test_noisy_polish_interpolant_raises(gaas, gaas_cache, monkeypatch):
    # a polish trace whose Psi is off by 1e-7 relative, node to node, leaves
    # an interpolant tail far above tol |Psi(t_max)|
    rng = np.random.default_rng(7)

    def noisy(x_, t_grid, *a, tol, **kw):
        tr = trace(x_, t_grid, *a, tol=tol, **kw)
        if len(t_grid) != analysis.POLISH_NODES:
            return tr
        return dataclasses.replace(
            tr, psi=tr.psi * (1.0 + 1e-7 * rng.standard_normal(len(t_grid))))

    monkeypatch.setattr(analysis, "trace", noisy)
    with pytest.raises(NotConverged, match=r"x=4.*\[.*\] fs.*tol=1.0e-09"):
        find_time_domain_resonance(gaas, tol=1e-9, poles=gaas_cache)


def test_noisy_dpsi_interpolant_raises(gaas, gaas_cache, monkeypatch):
    # Psi is clean, but dPsi/dt is off by 1e-7 relative, node to node:
    # omega_av and sigma read its interpolant, whose tail then lies far
    # above tol |dPsi/dt(t_max)|
    rng = np.random.default_rng(7)

    def noisy(x_, t_grid, *a, tol, **kw):
        tr = trace(x_, t_grid, *a, tol=tol, **kw)
        if len(t_grid) != analysis.POLISH_NODES:
            return tr
        return dataclasses.replace(tr, dpsi_dt=tr.dpsi_dt * (
            1.0 + 1e-7 * rng.standard_normal(len(t_grid))))

    monkeypatch.setattr(analysis, "trace", noisy)
    with pytest.raises(NotConverged, match=r"x=4: the dPsi/dt interpolant "
                       r"on \[.*\] fs.*tol=1.0e-09 times \|dPsi/dt\(t_max\)\|"):
        find_time_domain_resonance(gaas, tol=1e-9, poles=gaas_cache)


def test_polish_that_misses_the_scanned_maximum_raises(gaas, gaas_cache,
                                                      monkeypatch):
    # dPsi/dt flipped on the polish trace: the envelope rate rises through
    # zero across the bracket, so the scan and the polish disagree and the
    # search names both end rates instead of reporting no peak
    def flipped(x_, t_grid, *a, tol, **kw):
        tr = trace(x_, t_grid, *a, tol=tol, **kw)
        if len(t_grid) != analysis.POLISH_NODES:
            return tr
        return dataclasses.replace(tr, dpsi_dt=-tr.dpsi_dt)

    monkeypatch.setattr(analysis, "trace", flipped)
    with pytest.raises(NotConverged, match=r"peak polish at x=4: the envelope "
                       r"rate on \[.*\] fs goes from -\S+ to \S+ 1/fs"):
        find_time_domain_resonance(gaas, tol=1e-9, poles=gaas_cache)


@pytest.mark.parametrize("E,L,x_over_L,exists", [
    *[(E, 4.0, n, True) for E in (0.001, 0.01) for n in (1, 2, 5, 15)],
    (0.001, length_for_alpha(6.0, 0.3, 0.067), 1.0, True),
    (0.001, length_for_alpha(1.8, 0.3, 0.067), 1.0, False),
])
def test_chunked_scan_brackets_like_the_full_scan(monkeypatch, E, L,
                                                  x_over_L, exists):
    # GaAs at E = 1 and 10 meV, then (alpha, u) = (6, 300) and (1.8, 300)
    sys_ = make_system(0.3, E, L, 0.067)
    x = x_over_L * L
    cache = pole_cache(sys_)
    scan_tol = max(DEFAULT_TOL, analysis.SCAN_TOL)
    grid = np.linspace(*default_window(sys_, x), analysis.PEAK_SCAN)
    full = propagator._direct(x, grid, sys_, poles=cache, tol=scan_tol)
    # the first interior maximum above the height floor, on the whole grid
    rho = full.abs2
    floor = analysis.HEIGHT_FLOOR * analysis._plateau_density(sys_, x)
    idx = np.flatnonzero((rho[1:-1] > rho[:-2]) & (rho[1:-1] >= rho[2:])
                         & (rho[1:-1] > floor))

    traced = []

    def from_full_scan(x_, t_grid, *a, tol, **kw):
        # the scan reads the full-grid densities: the one-trace search
        if tol != scan_tol:
            return trace(x_, t_grid, *a, tol=tol, **kw)
        start = int(np.searchsorted(grid, t_grid[0]))
        return SimpleNamespace(abs2=rho[start:start + len(t_grid)])

    def spy(x_, t_grid, *a, tol, **kw):
        traced.append((t_grid, tol))
        return trace(x_, t_grid, *a, tol=tol, **kw)

    monkeypatch.setattr(analysis, "trace", from_full_scan)
    ref = find_time_domain_resonance(sys_, x=x, poles=cache)
    monkeypatch.setattr(analysis, "trace", spy)
    tdr = find_time_domain_resonance(sys_, x=x, poles=cache)
    assert tdr.exists is ref.exists is (len(idx) > 0) is exists
    if exists:
        assert tdr.t_max == ref.t_max
    else:
        # one chunk at the scan's tolerance, then one no-peak check at tol
        # from the chunk's last time to the end of the grid
        (chunk, chunk_tol), (check, check_tol) = traced
        chunk_size = analysis.PEAK_SCAN // 8
        assert chunk.tolist() == grid[:chunk_size].tolist()
        assert chunk_tol == scan_tol and check_tol == DEFAULT_TOL
        assert len(check) == analysis.RISE_NODES
        assert check[0] == grid[chunk_size - 1]
        assert check[-1] == pytest.approx(grid[-1], rel=1e-15, abs=0.0)


# t_max (fs) at x = L, V = 0.3 eV, m = 0.067, tol 1e-11, from Brent's method
# on the envelope rate
OPAQUE_REFERENCES = [
    ((6.0, 30.0), 6.863877726297539),
    ((6.0, 300.0), 6.778364781946191),
    ((6.0, 3000.0), 6.770095043400849),
    ((9.0, 30.0), 9.614953109985743),
    ((9.0, 300.0), 9.528178754556118),
    ((9.0, 3000.0), 9.519777161735254),
    ((None, 5.9), 5.582286253037109),
    ((None, 6.85), 5.996338877791042),
    ((None, 7.8), 6.5311347268839555),
    ((None, 8.75), 7.084108043583695),
    ((None, 9.7), 7.695938068170701),
    ((None, 10.65), 8.326312524362121),
    ((None, 11.6), 8.983189003324144),
]


def test_polish_matches_opaque_references():
    # (alpha, u) barriers, then E = 1 meV barriers of width L (alpha None);
    # the error of the polish is the interpolant's, independent of tol
    V, m = 0.3, 0.067
    for (alpha, param), ref in OPAQUE_REFERENCES:
        if alpha is None:
            sys_ = make_system(V, 0.001, param, m)
        else:
            sys_ = make_system(V, V / param, length_for_alpha(alpha, V, m), m)
        tdr = find_time_domain_resonance(sys_, tol=1e-11)
        assert abs(tdr.t_max / ref - 1.0) <= 1e-11, (alpha, param)


def test_sigma_vanishes_at_peak(gaas, gaas_cache):
    tdr = find_time_domain_resonance(gaas, poles=gaas_cache)
    assert tdr.sigma <= 1e-8 * gaas.omegaV


def test_no_peak_below_critical_opacity():
    V, m = 0.3, 0.067
    sys_ = make_system(V, 0.001, length_for_alpha(1.8, V, m), m)
    tdr = find_time_domain_resonance(sys_)
    assert not tdr.exists
    assert math.isnan(tdr.t_max)


def test_default_window_shifts_with_probe(gaas):
    lo0, hi0 = default_window(gaas, gaas.L)
    lo1, hi1 = default_window(gaas, 3.0 * gaas.L)
    assert 0 < lo0 < hi0
    assert lo1 > lo0 and hi1 > hi0


@pytest.mark.parametrize("x_over_L,alpha,u,tol", [
    (2.0, None, None, None), (2.0, None, None, 1e-9),
    (2.0, 6.0, 30.0, 1e-8), (2.0, 6.0, 3000.0, 1e-8),
    (2.0, 9.0, 30.0, 1e-8), (2.0, 9.0, 3000.0, 1e-8),
    (6.0, None, None, 1e-9), (15.0, None, None, 1e-9),
    (2.0, None, None, 1e-10), (6.0, None, None, 1e-10),
    (15.0, None, None, 1e-10), (0.005, None, None, 1e-8),
    (0.0125, None, None, 1e-8),
])
def test_peak_converges_beyond_the_barrier(gaas, x_over_L, alpha, u, tol):
    # GaAs (alpha None) or an (alpha, u) barrier at V = 0.3 eV; tol None is
    # the default of find_time_domain_resonance.  The scan brackets at
    # SCAN_TOL, so only the polish has to reach tol.  The two probes next
    # to the shutter (0.02 and 0.05 nm) converge too; at 0.02 nm the
    # envelope rate stays positive (the peak appears between 0.04 and
    # 0.05 nm), so that search finds none.
    sys_ = gaas
    if alpha is not None:
        V, m = 0.3, 0.067
        sys_ = make_system(V, V / u, length_for_alpha(alpha, V, m), m)
    kwargs = {} if tol is None else {"tol": tol}
    tdr = find_time_domain_resonance(sys_, x=x_over_L * sys_.L, **kwargs)
    assert tdr.exists is (x_over_L != 0.005)
    if tol is None:
        assert tdr.omega_ratio < 1.0


def test_bracketing_scan_miss_names_the_scan(gaas, gaas_cache, monkeypatch):
    def missed(*args, **kwargs):
        raise NotConverged("pole sum above tol")

    monkeypatch.setattr(analysis, "trace", missed)
    with pytest.raises(NotConverged) as info:
        find_time_domain_resonance(gaas, poles=gaas_cache)
    assert str(info.value) == ("bracketing scan of the peak search, summed "
                               "at tol=1.0e-03 for tol=1.0e-08: "
                               "pole sum above tol")
    assert str(info.value.__cause__) == "pole sum above tol"


def test_scan_miss_keeps_its_class_and_names_the_tol_asked():
    # the antibound poles 1.1e-7 / L apart: the scan, summed at SCAN_TOL,
    # refuses the pair, and the peak search passes the refusal on as a
    # MergingPolePair that names both that tol and the one asked for
    sys_ = make_system(0.3, 0.001, 1.8248986043701056, 0.067)
    with pytest.raises(MergingPolePair) as info:
        find_time_domain_resonance(sys_, tol=1e-10)
    assert str(info.value).startswith(
        "bracketing scan of the peak search, summed at tol=1.0e-03 for "
        "tol=1.0e-10: the poles that merge at alpha_m lie 1.1e-07/L apart")


def test_polish_miss_names_the_polish(gaas, gaas_cache, monkeypatch):
    # the scan and any no-peak check pass; the 16-node polish trace misses
    def polish_missed(x_, t_grid, *args, **kwargs):
        if len(t_grid) == analysis.POLISH_NODES:
            raise NotConverged("pole sum above tol")
        return trace(x_, t_grid, *args, **kwargs)

    monkeypatch.setattr(analysis, "trace", polish_missed)
    with pytest.raises(NotConverged) as info:
        find_time_domain_resonance(gaas, poles=gaas_cache)
    assert str(info.value) == ("peak polish of the peak search: "
                               "pole sum above tol")
    assert str(info.value.__cause__) == "pole sum above tol"


def test_scan_tolerance_does_not_leak_into_reported_values(gaas, gaas_cache):
    # 1e-30 is out of reach at 8 nm within the pole cap; the scan brackets
    # at SCAN_TOL, so the miss surfaces in the polish at the caller's tol
    with pytest.raises(NotConverged, match="tol=1.0e-30") as info:
        find_time_domain_resonance(gaas, x=8.0, tol=1e-30, poles=gaas_cache)
    assert "bracketing scan" not in str(info.value)


def test_tolerance_below_the_rounding_floor_names_the_cap(gaas, gaas_cache):
    # at 4 nm the poles that merge at alpha_m lie 7.0/L apart, and their
    # modelled loss 6.7e-16 is below the double-precision floor: the pair
    # does not limit this sum, the 2048-pole cap does
    with pytest.raises(NotConverged) as info:
        find_time_domain_resonance(gaas, x=8.0, tol=1e-30, poles=gaas_cache)
    assert "(cap 2048)" in str(info.value)
    assert not isinstance(info.value, MergingPolePair)


def _search_as_before(monkeypatch, sys_, x, cache):
    # the search with the scan at 1e-6 and no no-peak check: every chunk is
    # traced until one closes a maximum or the grid ends
    with monkeypatch.context() as m:
        m.setattr(analysis, "SCAN_TOL", 1e-6)
        m.setattr(analysis, "_rises_throughout", lambda *a: False)
        return find_time_domain_resonance(sys_, x=x, poles=cache)


def _same_result(a, b):
    # an absent result holds NaNs, which == on the dataclass calls unequal
    return all(u == v or (math.isnan(u) and math.isnan(v))
               for u, v in zip(dataclasses.astuple(a), dataclasses.astuple(b)))


@pytest.mark.parametrize("L,x,exists", [
    *[(4.0, x, True) for x in (0.1, 4.0, 8.0, 30.0)],
    (1.145374328, None, False),
    *[(length_for_alpha(alpha, 0.3, 0.067), None, alpha > 2.1)
      for alpha in (1.8, 2.15, 6.0)],
])
def test_search_matches_the_fine_full_scan(monkeypatch, L, x, exists):
    # E = 1 meV: GaAs, the 1.145 nm width (alpha 0.83), then alpha = 1.8,
    # 2.15 and 6 at u = 300, probed at x = L (x None).  The scan at
    # SCAN_TOL and the no-peak check report bitwise what a scan at 1e-6
    # over every chunk reports
    sys_ = make_system(0.3, 0.001, L, 0.067)
    cache = pole_cache(sys_)
    ref = _search_as_before(monkeypatch, sys_, x, cache)
    tdr = find_time_domain_resonance(sys_, x=x, poles=cache)
    assert _same_result(tdr, ref), (tdr, ref)
    assert tdr.exists is exists


def test_scan_tolerance_keeps_a_margin_at_the_first_maximum(gaas):
    # 60 nm out, the first maximum (grid index 184, in the second chunk)
    # has the smallest neighbour steps of the probes: the densities the
    # scan traces at SCAN_TOL stay within a fifth of them of the 1e-6 scan
    x = 60.0
    chunk = np.linspace(*default_window(gaas, x), analysis.PEAK_SCAN)[150:450]
    fine, scan = (trace(x, chunk, gaas, poles=pole_cache(gaas), tol=tol).abs2
                  for tol in (1e-6, analysis.SCAN_TOL))
    i = int(np.flatnonzero((fine[1:-1] > fine[:-2])
                           & (fine[1:-1] >= fine[2:]))[0]) + 1
    assert i == 184 - 150
    step = min(fine[i] - fine[i - 1], fine[i] - fine[i + 1])
    shift = np.max(np.abs(scan[i - 1:i + 2] - fine[i - 1:i + 2]))
    assert step >= 5.0 * shift, step / shift


def test_no_peak_check_declines_before_a_late_peak(monkeypatch, gaas,
                                                   gaas_cache):
    # 30 nm from the shutter the first maximum lies past the first chunk:
    # the check traces once and declines, and the scan goes on
    ref = _search_as_before(monkeypatch, gaas, 30.0, gaas_cache)
    checks, chunks = [], []
    check = analysis._rises_throughout

    def spy_check(*args):
        checks.append(check(*args))
        return checks[-1]

    def spy_trace(x_, t_grid, *a, tol, **kw):
        if tol == analysis.SCAN_TOL:
            chunks.append(t_grid)
        return trace(x_, t_grid, *a, tol=tol, **kw)

    monkeypatch.setattr(analysis, "_rises_throughout", spy_check)
    monkeypatch.setattr(analysis, "trace", spy_trace)
    tdr = find_time_domain_resonance(gaas, x=30.0, poles=gaas_cache)
    assert checks == [False]
    grid = np.linspace(*default_window(gaas, 30.0), analysis.PEAK_SCAN)
    chunk_size = analysis.PEAK_SCAN // 8
    assert [len(c) for c in chunks] == [chunk_size, 2 * chunk_size]
    assert chunks[1][0] == grid[chunk_size]
    assert tdr.exists and tdr.t_max == ref.t_max


def test_no_peak_check_is_sound_near_the_critical_opacity(monkeypatch):
    # seeded barriers around alpha_c: wherever the check says the density
    # only rises, a scan of the whole grid at 1e-6 finds no maximum either
    V, m = 0.3, 0.067
    rng = np.random.default_rng(27)
    verdicts, check = [], analysis._rises_throughout

    def spy(*args):
        verdicts.append(check(*args))
        return verdicts[-1]

    monkeypatch.setattr(analysis, "_rises_throughout", spy)
    certified = declined = 0
    for _ in range(40):
        alpha, u = rng.uniform(1.9, 2.5), 10 ** rng.uniform(1.5, 3.5)
        sys_ = make_system(V, V / u, length_for_alpha(alpha, V, m), m)
        x = 10 ** rng.uniform(-0.5, 1.1) * sys_.L
        cache = pole_cache(sys_)
        verdicts.clear()
        tdr = find_time_domain_resonance(sys_, x=x, poles=cache)
        if verdicts == [False]:
            declined += 1
            continue
        if verdicts != [True]:
            continue
        assert not tdr.exists
        grid = np.linspace(*default_window(sys_, x), analysis.PEAK_SCAN)
        rho = propagator._direct(x, grid, sys_, poles=cache,
                                 tol=1e-6).abs2
        floor = analysis.HEIGHT_FLOOR * analysis._plateau_density(sys_, x)
        assert not np.any((rho[1:-1] > rho[:-2]) & (rho[1:-1] >= rho[2:])
                          & (rho[1:-1] > floor)), (alpha, u, x / sys_.L)
        certified += 1
    # both outcomes of the check are exercised
    assert certified >= 10 and declined >= 3


def test_no_peak_check_miss_names_the_check(monkeypatch):
    # alpha = 1.8 at u = 300 has no peak; at tol 1e-30 the check's trace
    # misses, and the miss names the check, not the scan
    V, m = 0.3, 0.067
    sys_ = make_system(V, V / 300.0, length_for_alpha(1.8, V, m), m)
    with pytest.raises(NotConverged, match="tol=1.0e-30") as info:
        find_time_domain_resonance(sys_, tol=1e-30)
    assert str(info.value).startswith("no-peak check of the peak search: ")
    assert isinstance(info.value.__cause__, NotConverged)


# -- Chebyshev panels for long fixed-x traces ---------------------------------

LONG_GRID = np.linspace(0.5, 30.0, 2000)


def test_octaves_cover_every_row_once():
    t = np.linspace(1.0, 5.5, 200)
    # 5.5 lies under half an octave past 4: that piece joins [2, 4]
    panels = propagator._octaves(t)
    assert [(a, b) for a, b, _ in panels] == [(1.0, 2.0), (2.0, 5.5)]
    t = np.linspace(1.0, 6.0, 200)
    panels = propagator._octaves(t)
    assert [(a, b) for a, b, _ in panels] == [(1.0, 2.0), (2.0, 4.0),
                                              (4.0, 6.0)]
    rows = np.concatenate([r for _, _, r in panels])
    assert np.array_equal(rows, np.arange(len(t)))
    for a, b, r in panels:
        assert np.all((t[r] >= a) & (t[r] <= b))
        assert r[-1] == len(t) - 1 or t[r[-1] + 1] >= b
    # a panel with no rows is left out
    t = np.array([1.0, 1.5, 7.0, 7.5])
    assert [(a, b) for a, b, _ in propagator._octaves(t)] == [(1.0, 2.0),
                                                             (4.0, 7.5)]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("x", [0.05, 2.0, 4.0, 8.0, 20.0])
def test_panel_rows_meet_tol_within_their_estimates(gaas, gaas_cache,
                                                    monkeypatch, x, tol):
    traced, direct_sum = [], propagator._direct

    def counted(x_, t_grid, *a, **kw):
        traced.append(len(t_grid))
        return direct_sum(x_, t_grid, *a, **kw)

    monkeypatch.setattr(propagator, "_direct", counted)
    panel = trace(x, LONG_GRID, gaas, poles=gaas_cache, tol=tol)
    # the panels, not the rows, were summed
    assert traced and sum(traced) < len(LONG_GRID) / 4
    direct = direct_sum(x, LONG_GRID, gaas, poles=gaas_cache, tol=tol)
    ref = direct_sum(x, LONG_GRID, gaas, poles=gaas_cache, tol=1e-3 * tol)
    assert np.all(np.abs(panel.psi - direct.psi) <= tol * np.abs(direct.psi))
    assert np.all(np.abs(panel.dpsi_dt - direct.dpsi_dt)
                  <= tol * np.abs(direct.dpsi_dt))
    error = np.abs(panel.psi - ref.psi) / np.abs(ref.psi)
    assert np.all(panel.trunc_error_est >= error)
    assert np.all(panel.trunc_error_est <= tol)
    assert panel.n_terms_used == direct.n_terms_used


def test_spectrogram_reads_the_panels_bitwise(gaas, gaas_cache):
    panel = trace(2.0, LONG_GRID, gaas, poles=gaas_cache)
    sg = spectrogram(gaas, 2.0, LONG_GRID, poles=gaas_cache)
    assert np.array_equal(sg.psi, panel.psi)
    assert np.array_equal(sg.trunc_error_est, panel.trunc_error_est)
    omega, sigma = local_frequency(panel.psi, panel.dpsi_dt)
    assert np.array_equal(sg.omega_av, omega)
    assert np.array_equal(sg.sigma, sigma)


def test_grid_below_the_switch_over_is_the_direct_sum(gaas, gaas_cache):
    t = np.linspace(0.5, 30.0, propagator.PANEL_MIN - 1)
    panel = trace(8.0, t, gaas, poles=gaas_cache)
    direct = propagator._direct(8.0, t, gaas, poles=gaas_cache)
    for name in ("psi", "dpsi_dt", "trunc_error_est"):
        assert np.array_equal(getattr(panel, name), getattr(direct, name))
    assert panel.n_terms_used == direct.n_terms_used


def test_noisy_nodes_fail_the_tail_test(gaas, gaas_cache, monkeypatch):
    # node values 3 tol off at random, as a Cauchy ring sized for far
    # later times leaves them (ROADMAP item 8): no panel may accept them,
    # so the rows of every panel, one stretch, are the direct sum's
    tol, rng = 1e-8, np.random.default_rng(7)
    perturbed, direct_sum = [], propagator._direct

    def noisy(x_, t_grid, *a, **kw):
        tr = direct_sum(x_, t_grid, *a, **kw)
        at = np.searchsorted(LONG_GRID, tr.times)
        if np.array_equal(LONG_GRID[np.minimum(at, len(LONG_GRID) - 1)],
                          tr.times):
            return tr
        perturbed.append(len(tr.times))
        off = rng.standard_normal((2, len(tr.times)))
        return dataclasses.replace(
            tr, psi=tr.psi * (1.0 + 3.0 * tol * (off[0] + 1j * off[1])))

    monkeypatch.setattr(propagator, "_direct", noisy)
    panel = trace(2.0, LONG_GRID, gaas, poles=gaas_cache, tol=tol)
    direct = direct_sum(2.0, LONG_GRID, gaas, poles=gaas_cache, tol=tol)
    assert perturbed
    assert np.array_equal(panel.psi, direct.psi)
    assert np.array_equal(panel.trunc_error_est, direct.trunc_error_est)


def test_a_refused_round_leaves_the_grid_to_the_direct_sum(gaas, gaas_cache,
                                                           monkeypatch):
    # nothing is refused that the direct sum serves: a miss in any panel
    # sum hands the whole grid to the direct sum
    calls, direct_sum = [], propagator._direct

    def refusing(x_, t_grid, *a, **kw):
        calls.append(len(t_grid))
        if len(calls) == 1:
            raise NotConverged("a round's miss")
        return direct_sum(x_, t_grid, *a, **kw)

    monkeypatch.setattr(propagator, "_direct", refusing)
    panel = trace(2.0, LONG_GRID, gaas, poles=gaas_cache)
    direct = direct_sum(2.0, LONG_GRID, gaas, poles=gaas_cache)
    assert len(calls) == 2 and calls[-1] == len(LONG_GRID)
    assert np.array_equal(panel.psi, direct.psi)
    assert np.array_equal(panel.trunc_error_est, direct.trunc_error_est)
