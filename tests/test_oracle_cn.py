"""Grid oracle: free-particle cross-check, conservation, and guards.

Oracles:
* [DERIVED] with a negligible barrier the shutter problem has the exact
  closed form M(x, k, t) - M(x, -k, t); the grid solution must land on it;
* [TRIVIAL] with theta = 0.5 the scheme is exactly unitary;
* [DERIVED] successive dx halvings must converge at second order (measured
  between grid solutions, which share the finite-domain continuum limit).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from qtransient import cn_evolve, default_cn_config, make_system
from qtransient.errors import GridTooCoarse, NonPositiveTime, XOutOfRange
from qtransient.moshinsky import moshinsky_m


@pytest.fixture(scope="module")
def free_system():
    # V so small the barrier is numerically invisible next to E
    return make_system(1e-9, 0.04, 1.0, 1.0)


def _free_reference(sys_, x, t):
    return moshinsky_m(x, sys_.k, t, sys_.c2) - moshinsky_m(x, -sys_.k, t, sys_.c2)


def test_free_shutter_matches_moshinsky(free_system):
    s = free_system
    times = np.array([2.0, 4.0, 6.0])
    cfg = default_cn_config(s, float(times[-1]))
    cn = cn_evolve(s, cfg, [0.5], times)
    for t, got in zip(times, cn.psi[0]):
        ref = _free_reference(s, 0.5, float(t))
        assert abs(got - ref) <= 5e-3 * abs(ref)


def test_second_order_convergence(free_system):
    s = free_system
    t = np.array([6.0])
    base = default_cn_config(s, 6.0)
    vals = []
    for f in (1, 2, 4):
        cfg = default_cn_config(s, 6.0, dx=base.dx / f)
        vals.append(cn_evolve(s, cfg, [0.5], t).psi[0, 0])
    order = math.log2(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2]))
    assert 1.7 <= order <= 2.3


def test_unitary_norm_conservation(gaas):
    cfg = replace(default_cn_config(gaas, 2.0), theta=0.5)
    cn = cn_evolve(gaas, cfg, [gaas.L], np.array([2.0]))
    assert abs(cn.norm_end / cn.norm_start - 1.0) <= 1e-12


def test_default_theta_barely_dissipates(gaas):
    cfg = default_cn_config(gaas, 2.0)
    cn = cn_evolve(gaas, cfg, [gaas.L], np.array([2.0]))
    assert abs(cn.norm_end / cn.norm_start - 1.0) <= 1e-6


def test_default_config_passes_own_validation(gaas):
    cfg = default_cn_config(gaas, 10.0)
    assert cfg.x_min < 0.0 and cfg.x_max >= 3.0 * gaas.L
    # the barrier edges must land on grid nodes
    assert (gaas.L / cfg.dx) == pytest.approx(round(gaas.L / cfg.dx), abs=1e-9)


def test_trace_shape_and_probe_order(gaas):
    cfg = default_cn_config(gaas, 2.0)
    times = np.array([1.0, 2.0])
    cn = cn_evolve(gaas, cfg, [2.0, gaas.L], times)
    assert cn.psi.shape == (2, 2)
    assert cn.abs2.shape == (2, 2)
    assert np.array_equal(cn.probes, [2.0, gaas.L])
    assert np.array_equal(cn.times, times)


def test_grid_guards(gaas):
    good = default_cn_config(gaas, 2.0)
    t = np.array([2.0])
    with pytest.raises(GridTooCoarse):
        cn_evolve(gaas, replace(good, dx=1.0), [gaas.L], t)
    with pytest.raises(GridTooCoarse):
        cn_evolve(gaas, replace(good, dt=10.0 * good.dt), [gaas.L], t)
    with pytest.raises(GridTooCoarse):
        cn_evolve(gaas, replace(good, theta=0.3), [gaas.L], t)
    with pytest.raises(GridTooCoarse):
        cn_evolve(gaas, replace(good, theta=1.2), [gaas.L], t)
    with pytest.raises(GridTooCoarse):
        cn_evolve(gaas, replace(good, x_max=2.0 * gaas.L), [gaas.L], t)
    with pytest.raises(GridTooCoarse):
        # left wall inside the causal reach of the window
        cn_evolve(gaas, replace(good, x_min=-(good.absorber_width + 1.0)),
                  [gaas.L], t)


def test_probe_must_sit_in_the_interior(gaas):
    cfg = default_cn_config(gaas, 2.0)
    with pytest.raises(XOutOfRange):
        cn_evolve(gaas, cfg, [cfg.x_max], np.array([2.0]))
    with pytest.raises(XOutOfRange):
        cn_evolve(gaas, cfg, [cfg.x_min + 0.5 * cfg.absorber_width],
                  np.array([2.0]))


def test_time_grid_validation(gaas):
    cfg = default_cn_config(gaas, 2.0)
    with pytest.raises(NonPositiveTime):
        cn_evolve(gaas, cfg, [gaas.L], np.array([-1.0, 2.0]))
    with pytest.raises(NonPositiveTime):
        cn_evolve(gaas, cfg, [gaas.L], np.array([2.0, 1.0]))
