"""Parameter sweeps: ordering invariance, basin/suffix detectors, windows."""

import numpy as np
import pytest

from qtransient import (detect_basin, linear_suffix, make_system,
                        opacity_window, sweep_freq_vs_alpha, sweep_freq_vs_x,
                        sweep_tmax_vs_L)
from qtransient.errors import NoCrossing, NonPositiveParameter
from qtransient.sweeps import SweepRow, SweepTable


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
    assert table.kind == "FreqVsX"
    assert np.array_equal(table.column("independent"), [2.0, 4.0, 6.0])


def _table(ts):
    rows = tuple(SweepRow(independent=float(i), t_max=float(t),
                          omega_ratio=0.5, exists=np.isfinite(t))
                 for i, t in enumerate(ts))
    return SweepTable(kind="TmaxVsL", fixed_params={}, rows=rows)


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


def test_sweep_validation(gaas):
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


def test_opacity_window_needs_a_bracket():
    # below alpha ~ 2 the phase delay never changes sign
    with pytest.raises(NoCrossing):
        opacity_window(300.0, 0.3, mass_ratio=0.067, alpha_span=(1.3, 1.9))
