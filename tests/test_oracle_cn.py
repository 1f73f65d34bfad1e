"""Grid oracle: free-particle cross-check, conservation, and guards.

Oracles:
* [DERIVED] with a negligible barrier the shutter problem has the exact
  closed form M(x, k, t) - M(x, -k, t); the grid solution must land on it;
* [TRIVIAL] with theta = 0.5 the scheme is exactly unitary;
* [DERIVED] successive dx halvings must converge at second order (measured
  between grid solutions, which share the finite-domain continuum limit);
* [TRIVIAL] the operator factored once and solved per step gives bit for
  bit what a fresh scipy.linalg.solve_banded gives on every step.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from qtransient import cn_evolve, default_cn_config, make_system, oracle
from qtransient.errors import GridTooCoarse, NonPositiveTime, XOutOfRange
from qtransient.moshinsky import moshinsky_m
from qtransient.oracle import factor_tridiagonal, solve_banded
from qtransient.systems import HBAR_EV_FS as HBAR


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
    for bad in (np.nan, np.inf):
        # a NaN end time would never be reached by the step loop
        with pytest.raises(NonPositiveTime):
            cn_evolve(gaas, cfg, [gaas.L], np.array([1.0, bad]))


def _banded(sub, diag, sup):
    """The (3, n) band layout of scipy.linalg.solve_banded((1, 1), ...)."""
    ab = np.zeros((3, len(diag)), dtype=complex)
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    return ab


def _random_operator(rng, n):
    sub = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    sup = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    diag = 5.0 + rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return sub, diag, sup


def _gaas_operator(sys_):
    """The left-hand operator cn_evolve builds for the default GaAs grid."""
    cfg = default_cn_config(sys_, 30.0)
    x = np.arange(cfg.x_min, cfg.x_max + 0.5 * cfg.dx, cfg.dx)
    overlap = (np.minimum(x + 0.5 * cfg.dx, sys_.L)
               - np.maximum(x - 0.5 * cfg.dx, 0.0)).clip(min=0.0)
    hop = sys_.c2 / (cfg.dx * cfg.dx)
    lam_a = 1j * cfg.dt * cfg.theta / HBAR
    diag = 1.0 + lam_a * (2.0 * hop + (sys_.V / cfg.dx) * overlap)
    off = np.full(len(x) - 1, lam_a * (-hop), dtype=complex)
    return off, diag, off


@pytest.mark.parametrize("which", ["random", "gaas"])
def test_factored_step_is_bitwise_scipy_solve_banded(gaas, which):
    rng = np.random.default_rng(7)
    sub, diag, sup = (_random_operator(rng, 500) if which == "random"
                      else _gaas_operator(gaas))
    rhs = rng.standard_normal(len(diag)) + 1j * rng.standard_normal(len(diag))
    want = scipy.linalg.solve_banded((1, 1), _banded(sub, diag, sup), rhs)
    ipiv, lu = factor_tridiagonal(sub, diag, sup)
    assert lu.shape == (4, len(diag))
    for _ in range(2):   # the factors survive a solve
        assert np.array_equal(solve_banded(ipiv, lu, rhs.copy()), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_step_input_raises(bad):
    sub, diag, sup = _random_operator(np.random.default_rng(3), 50)
    ipiv, lu = factor_tridiagonal(sub, diag, sup)
    rhs = np.ones(50, dtype=complex)
    rhs[17] = bad
    with pytest.raises(ValueError):
        solve_banded(ipiv, lu, rhs)
    diag[17] = bad
    with pytest.raises(ValueError):
        factor_tridiagonal(sub, diag, sup)


def test_singular_operator_raises():
    zeros = np.zeros(50, dtype=complex)
    with pytest.raises(scipy.linalg.LinAlgError):
        factor_tridiagonal(zeros[:-1], zeros, zeros[:-1])


def test_cn_evolve_is_bitwise_a_per_step_scipy_solve(free_system, monkeypatch):
    s = free_system
    times = np.array([1.0, 2.0])
    cfg = default_cn_config(s, 2.0)
    got = cn_evolve(s, cfg, [0.5, 1.5], times)
    # the reference hands the unfactored band to scipy on every step
    steps = []

    def scipy_step(_, ab, rhs):
        steps.append(1)
        return scipy.linalg.solve_banded((1, 1), ab, rhs)

    monkeypatch.setattr(oracle, "factor_tridiagonal",
                        lambda sub, diag, sup: (None, _banded(sub, diag, sup)))
    monkeypatch.setattr(oracle, "solve_banded", scipy_step)
    ref = cn_evolve(s, cfg, [0.5, 1.5], times)
    assert steps
    assert np.array_equal(got.psi, ref.psi)
    assert got.norm_end == ref.norm_end
