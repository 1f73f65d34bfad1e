"""Parameter sweeps: ordering invariance, basin/suffix detectors, windows."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from qtransient import (analysis, detect_basin, find_time_domain_resonance,
                        linear_suffix, make_system, opacity_window,
                        psi_external, psi_internal, sweep_freq_vs_alpha,
                        sweep_freq_vs_x, sweep_tmax_vs_L, sweeps, trace)
from qtransient.errors import NoCrossing, NonPositiveParameter
from qtransient.sweeps import ALPHA_TOL, SweepRow, SweepTable

# alpha_u of GaAs at u = 300 from bisection on the ratio to ALPHA_TOL
BISECTED_ALPHA_U_300 = 3.3027343749999996


def test_grid_permutation_is_a_noop():
    table_sorted = sweep_freq_vs_alpha([2.5, 3.0, 3.5], u=300.0, V_ref=0.3,
                                       mass_ratio=0.067)
    table_shuffled = sweep_freq_vs_alpha([3.5, 2.5, 3.0], u=300.0, V_ref=0.3,
                                         mass_ratio=0.067)
    assert table_sorted.rows == table_shuffled.rows


def test_freq_vs_x_rows_sorted(gaas):
    table = sweep_freq_vs_x([6.0, 2.0, 4.0], gaas)
    assert [r.independent for r in table.rows] == [2.0, 4.0, 6.0]
    assert all(r.exists for r in table.rows)
    assert np.array_equal(table.column("independent"), [2.0, 4.0, 6.0])


def _table(ts):
    rows = tuple(SweepRow(independent=float(i), t_max=float(t),
                          omega_ratio=0.5, exists=np.isfinite(t))
                 for i, t in enumerate(ts))
    return SweepTable(rows=rows)


def test_detect_basin_on_synthetic_data():
    dip = _table([np.nan, 6.0, 4.0, 3.0, 5.0, 7.0, 9.0])
    i, j, k = detect_basin(dip)
    assert (i, j, k) == (1, 3, 6)
    assert detect_basin(_table([1.0, 2.0, 3.0, 4.0])) is None
    assert detect_basin(_table([np.nan, np.nan, 1.0])) is None


def test_linear_suffix_on_synthetic_data():
    line = _table([9.0, 2.0, 3.0, 4.0, 5.0])
    start, slope, intercept, r2 = linear_suffix(line)
    assert start == 1
    assert slope == pytest.approx(1.0)
    assert intercept == pytest.approx(1.0)
    assert r2 > 0.999999
    ragged = _table([0.0, 10.0, 0.0, 10.0, 0.0, 10.0])
    assert linear_suffix(ragged) is None
    # no peak in the last two rows: once fewer than three finite rows
    # remain the search stops, with no line
    assert linear_suffix(_table([1.0, 5.0, 2.0, np.nan, np.nan])) is None


def test_sweep_validation(gaas, monkeypatch):
    with pytest.raises(NonPositiveParameter):
        sweep_tmax_vs_L([-1.0, 4.0], 0.3, 0.001, 0.067)
    with pytest.raises(NonPositiveParameter):
        sweep_freq_vs_x([0.0, 4.0], gaas)
    with pytest.raises(NonPositiveParameter):
        sweep_freq_vs_alpha([3.0], u=0.5, V_ref=0.3)
    with pytest.raises(NonPositiveParameter):
        sweep_freq_vs_alpha([-3.0], u=300.0, V_ref=0.3)
    with pytest.raises(NonPositiveParameter):
        opacity_window(0.5, 0.3)
    # the whole grid is checked before any worker thread starts a probe
    with pytest.raises(NonPositiveParameter, match="got -1"):
        sweep_tmax_vs_L([4.0, 5.0, -1.0], 0.3, 0.001, 0.067, threads=2)
    # a thread count below 1 is rejected before the pole search or a probe,
    # alone or in a lockstep batch
    _refuse_probes(monkeypatch)
    for sweep in (lambda **kw: sweep_tmax_vs_L([4.0], 0.3, 0.001, **kw),
                  lambda **kw: sweep_freq_vs_x([4.0], gaas, **kw),
                  lambda **kw: sweep_freq_vs_alpha([3.0], 300.0, 0.3, **kw)):
        with pytest.raises(NonPositiveParameter, match="threads"):
            sweep(threads=0)


def _no_probe(*args, **kwargs):
    raise AssertionError("a peak search or pole sum ran")


def _refuse_probes(monkeypatch):
    """Make any peak search the sweeps call, a batch of one or a lockstep
    batch, and the position scan's pole table fail the test."""
    for name in ("find_time_domain_resonance", "find_time_domain_resonances",
                 "pole_cache"):
        monkeypatch.setattr(sweeps, name, _no_probe)


def test_infinite_grid_value_rejected_before_any_probe(gaas, monkeypatch):
    # the whole grid is checked before the first peak search (and before
    # the position scan's pole table), so the finite values are not probed
    _refuse_probes(monkeypatch)
    for name, sweep in (
            ("L", lambda g: sweep_tmax_vs_L(g, 0.3, 0.001, 0.067)),
            ("x", lambda g: sweep_freq_vs_x(g, gaas)),
            ("alpha", lambda g: sweep_freq_vs_alpha(g, 300.0, 0.3, 0.067))):
        for grid in ([3.0, 4.0, math.inf], [-math.inf, 3.0]):
            with pytest.raises(NonPositiveParameter,
                               match=rf"^{name} must be > 0 and finite"):
                sweep(grid)


@pytest.mark.parametrize("bad", [math.nan, 1.0, math.inf])
def test_u_checked_before_any_probe(monkeypatch, bad):
    # one check for both opacity commands; NaN and inf (E = V / u = 0) are
    # named as u, not as a bad E
    for name in ("make_system", "find_time_domain_resonance",
                 "phase_time_delay"):
        monkeypatch.setattr(sweeps, name, _no_probe)
    for call in (lambda: opacity_window(bad, 0.3, 0.067),
                 lambda: sweep_freq_vs_alpha([2.5], bad, 0.3, 0.067)):
        with pytest.raises(NonPositiveParameter,
                           match=rf"^u must be finite and > 1 \(tunneling\), "
                                 rf"got {bad}$"):
            call()


def test_opacity_window_needs_a_bracket(monkeypatch):
    # below alpha ~ 2 the phase delay never changes sign; the delays are
    # checked before any peak search runs
    monkeypatch.setattr(sweeps, "find_time_domain_resonance", _no_probe)
    with pytest.raises(NoCrossing, match="delay"):
        opacity_window(300.0, 0.3, mass_ratio=0.067, alpha_span=(1.3, 1.9))


def test_opacity_window_counts_no_peak_as_past_the_unit_crossing(monkeypatch):
    # the coarse scan and the ITP refinement share one predicate: a ratio that
    # is not below 1, NaN (no peak) included, is past the crossing
    def peak(sys_, tol):
        ratio = 0.5 if sys_.alpha < 3.0 else math.nan
        return SimpleNamespace(omega_ratio=ratio)

    monkeypatch.setattr(sweeps, "find_time_domain_resonance", peak)
    alpha_c, alpha_u = opacity_window(300.0, 0.3, mass_ratio=0.067)
    assert abs(alpha_c - 2.0653) < 0.01
    assert abs(alpha_u - 3.0) <= ALPHA_TOL


def test_gaas_window_runs_few_peak_finds(monkeypatch):
    # from the top of the span the coarse scan stops at the crossing (8 of
    # its 13 opacities), and ITP refines it in a few probes, not bisection's 9
    alphas = []

    def spy(sys_, **kw):
        alphas.append(sys_.alpha)
        return find_time_domain_resonance(sys_, **kw)

    monkeypatch.setattr(sweeps, "find_time_domain_resonance", spy)
    alpha_c, alpha_u = opacity_window(300.0, 0.3, mass_ratio=0.067)
    assert len(alphas) <= 12
    assert min(alphas) > 3.19      # nothing below the bracket [3.2, 3.6]
    assert alpha_c == 2.067937474356985
    assert abs(alpha_u - BISECTED_ALPHA_U_300) <= ALPHA_TOL


def _mocked_ratio(monkeypatch, ratio):
    """Stand a ratio function of alpha in for the peak find; returns the
    alphas it is asked for, in order."""
    asked = []

    def peak(sys_, tol):
        asked.append(sys_.alpha)
        return SimpleNamespace(omega_ratio=ratio(sys_.alpha))

    monkeypatch.setattr(sweeps, "find_time_domain_resonance", peak)
    return asked


def test_opacity_window_needs_a_unit_crossing(monkeypatch):
    # a ratio below 1 over the whole span: every coarse opacity is probed
    asked = _mocked_ratio(monkeypatch, lambda alpha: 0.5)
    with pytest.raises(NoCrossing, match=r"^no ratio=1 crossing for alpha "
                                         r"in \(1\.2, 6\.0\) at u=300\.0$"):
        opacity_window(300.0, 0.3, mass_ratio=0.067)
    assert len(asked) == 13


def test_opacity_window_returns_the_last_unit_crossing(monkeypatch):
    # the ratio crosses 1 upward at 2.5, back down at 3.0 and up at 4.7
    def ratio(alpha):
        return 1.0 + 0.1 * (alpha - 2.5) * (alpha - 3.0) * (alpha - 4.7)

    _mocked_ratio(monkeypatch, ratio)
    _, alpha_u = opacity_window(300.0, 0.3, mass_ratio=0.067)
    assert abs(alpha_u - 4.7) <= ALPHA_TOL


@pytest.mark.parametrize("ratio", [
    # finite steps next to either end of the bracket [3.2, 3.6]
    lambda a: 0.5 if a < 3.2 + 1e-4 else 1.5,
    lambda a: 0.5 if a < 3.6 - 1e-4 else 1.5,
    lambda a: 0.999 if a < 3.6 - 1e-4 else 1e3,
    lambda a: 1e-3 if a < 3.2 + 1e-4 else 1.001,
    # a cubic that is flat at its crossing
    lambda a: 1.0 + (a - 3.55) ** 3,
], ids=["step-low", "step-high", "jump-high", "jump-low", "cubic"])
def test_window_refinement_is_never_worse_than_bisection_plus_one(
        monkeypatch, ratio):
    asked = _mocked_ratio(monkeypatch, ratio)
    _, alpha_u = opacity_window(300.0, 0.3, mass_ratio=0.067)
    coarse = np.linspace(1.2, 6.0, 13)
    # the coarse scan, from the top down to the bracket's lower end
    assert asked[:8] == pytest.approx(coarse[:4:-1], rel=1e-12)
    assert len(asked[8:]) <= math.ceil(math.log2(0.4 / ALPHA_TOL)) + 1 == 10
    # the final bracket; sys_.alpha carries the round trip through L
    past = [a for a in asked if not ratio(a) < 1.0]
    below = [a for a in asked if ratio(a) < 1.0]
    assert min(past) - max(below) <= ALPHA_TOL + 1e-12
    assert max(below) < alpha_u < min(past)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf, 1.0, 1e300])
def test_tol_checked_where_it_enters(gaas, gaas_cache, monkeypatch, bad):
    # rejected as bad input before any pole sum, peak search or delay runs;
    # a relative tolerance of 1 or more asks nothing of trunc_error_est
    _refuse_probes(monkeypatch)
    for module, name in ((sweeps, "phase_time_delay"),
                         (analysis, "pole_caches"), (analysis, "trace"),
                         (analysis, "traces")):
        monkeypatch.setattr(module, name, _no_probe)
    calls = (
        lambda: trace(2.0, np.array([1.0]), gaas, poles=gaas_cache, tol=bad),
        lambda: psi_internal(2.0, 1.0, gaas, poles=gaas_cache, tol=bad),
        lambda: psi_external(6.0, 1.0, gaas, poles=gaas_cache, tol=bad),
        lambda: find_time_domain_resonance(gaas, tol=bad),
        lambda: sweep_tmax_vs_L([4.0], 0.3, 0.001, 0.067, tol=bad),
        lambda: sweep_freq_vs_x([2.0], gaas, tol=bad),
        lambda: sweep_freq_vs_alpha([3.0], 300.0, 0.3, 0.067, tol=bad),
        lambda: opacity_window(300.0, 0.3, 0.067, tol=bad),
    )
    for call in calls:
        with pytest.raises(NonPositiveParameter, match="tol="):
            call()
