"""Grid oracle: free-particle cross-check, transparent window, and guards.

Oracles:
* [DERIVED] with a negligible barrier the shutter problem has the exact
  closed form M(x, k, t) - M(x, -k, t) on both sides of the shutter; the
  grid solution must land on it;
* [DERIVED] the transparent window gives the unbounded lattice's solution:
  moving its ends does not change the probe values, and before any echo
  returns it equals a plain theta scheme on a wide hard-walled domain;
* [DERIVED] the boundary kernel's Laurent series solves the exterior
  equation rho + 1/rho = 2 kappa(z) with the decaying root;
* [DERIVED] successive dx halvings must converge at second order (measured
  between grid solutions, which share one continuum limit);
* [TRIVIAL] the operator factored once and solved per step gives bit for
  bit what a fresh scipy.linalg.solve_banded gives on every step;
* [DERIVED] B = (1 + r) - r A, so the one-solve step
  A^-1 ((1 + r) psi + load) - r psi equals A^-1 (B psi + load) with B built
  explicitly;
* [DERIVED] the default (dt, theta) keeps (2 theta - 1) dt, the damping of
  physical modes, at the older (0.25 dx^2 hbar / c2, 0.55) pairing's value,
  and its traces match that pairing's.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from qtransient import cn_evolve, default_cn_config, make_system, oracle
from qtransient.errors import (GridTooCoarse, NonFiniteInput, NonPositiveTime,
                               ValidationError)
from qtransient.moshinsky import moshinsky_m
from qtransient.oracle import (cn_step, factor_tridiagonal, solve_banded,
                               transparent_kernel)
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
    # -0.5 nm checks the sea carried in closed form and its reflection
    cn = cn_evolve(s, cfg, [-0.5, 0.5], times)
    for x, row in zip(cn.probes, cn.psi):
        for t, got in zip(times, row):
            ref = _free_reference(s, x, float(t))
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


_THETAS = [0.5, oracle.CnConfig.theta]   # unitary and the default


@pytest.mark.parametrize("theta", _THETAS)
def test_window_independence(gaas, theta):
    cfg = replace(default_cn_config(gaas, 30.0), theta=theta)
    times = np.linspace(1.0, 30.0, 59)
    probes = [2.0, 4.0, 8.0]
    ref = cn_evolve(gaas, cfg, probes, times).psi
    # a far probe on either side widens the window by hundreds of nodes
    for extra, rows in (([60.0], slice(0, 3)), ([-40.0], slice(1, 4))):
        got = cn_evolve(gaas, cfg, sorted(probes + extra), times).psi[rows]
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10


def _hard_wall_reference(sys_, cfg, x, probes, n_steps):
    """The untapered sea stepped by A psi' = B psi with a plain
    scipy.linalg.solve_banded on the closed grid x; psi at the probe nodes
    after each of n_steps steps."""
    a, b = _theta_operators(sys_, cfg, x)
    ab, b_op = _banded(*a), scipy.sparse.diags(b, [-1, 0, 1])
    psi = np.where(x <= 0.0, 2j * np.sin(sys_.k * x), 0.0)
    nodes = np.rint((np.asarray(probes) - x[0]) / cfg.dx).astype(int)
    out = []
    for _ in range(n_steps):
        psi = scipy.linalg.solve_banded((1, 1), ab, b_op @ psi)
        out.append(psi[nodes])
    return np.array(out).T


@pytest.mark.parametrize("theta", _THETAS)
def test_matches_closed_domain_reference(gaas, theta):
    cfg = replace(default_cn_config(gaas, 1.0), theta=theta)
    probes = [2.0, 4.0, 8.0]     # grid nodes, so no interpolation in x
    n_steps = math.floor(1.0 / cfg.dt)
    ref = _hard_wall_reference(gaas, cfg, _wide_grid(cfg), probes, n_steps)
    marks = np.array([n_steps // 4, n_steps // 2, n_steps])
    got = cn_evolve(gaas, cfg, probes, marks * cfg.dt).psi
    want = ref[:, marks - 1]
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


@pytest.mark.parametrize("theta", _THETAS)
def test_transparent_kernel_solves_the_exterior_equation(gaas, theta):
    cfg = default_cn_config(gaas, 1.0)
    w = cfg.dt * gaas.c2 / (HBAR * cfg.dx * cfg.dx)
    ell = transparent_kernel(w, theta, 200)
    z = 1.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    rho = np.polyval(ell[::-1], 1.0 / z)
    two_kappa = 2.0 + (z - 1.0) / (1j * w * (theta * z + 1.0 - theta))
    assert np.all(np.abs(rho) < 1.0)
    assert np.max(np.abs(rho + 1.0 / rho - two_kappa)) <= 1e-12


def test_default_config_passes_own_validation(gaas):
    cfg = default_cn_config(gaas, 10.0)
    # the window is transparent, so nothing depends on the time window
    assert default_cn_config(gaas, 300.0) == cfg
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


@pytest.mark.parametrize("probes, error", [
    ([np.nan], NonFiniteInput), ([2.0, np.inf], NonFiniteInput),
    ([-np.inf], NonFiniteInput), ([], ValidationError),
    ([[2.0]], ValidationError),
])
def test_bad_probes_are_rejected(gaas, probes, error):
    # the window is built from the probes, so they are checked first
    with pytest.raises(error, match="probes"):
        cn_evolve(gaas, default_cn_config(gaas, 2.0), probes, np.array([2.0]))


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


def _theta_operators(sys_, cfg, x):
    """A = 1 + i theta H dt / hbar and B = 1 - i (1 - theta) H dt / hbar,
    each as (sub, diag, sup), on the grid x closed by hard walls."""
    overlap = (np.minimum(x + 0.5 * cfg.dx, sys_.L)
               - np.maximum(x - 0.5 * cfg.dx, 0.0)).clip(min=0.0)
    hop = sys_.c2 / (cfg.dx * cfg.dx)
    h_diag = 2.0 * hop + (sys_.V / cfg.dx) * overlap
    h_off = np.full(len(x) - 1, -hop, dtype=complex)
    return [(lam * h_off, 1.0 + lam * h_diag, lam * h_off)
            for lam in (1j * cfg.dt * cfg.theta / HBAR,
                        -1j * cfg.dt * (1.0 - cfg.theta) / HBAR)]


def _wide_grid(cfg):
    """Nodes j dx from -100 to 108 nm: nothing that leaves the barrier
    returns from walls there within 1 fs."""
    return cfg.dx * np.arange(round(-100.0 / cfg.dx), round(108.0 / cfg.dx) + 1)


def _gaas_operator(sys_):
    """The interior left-hand operator of the default GaAs grid."""
    cfg = default_cn_config(sys_, 30.0)
    return _theta_operators(sys_, cfg, _wide_grid(cfg))[0]


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


@pytest.mark.parametrize("which", ["free", "gaas"])
def test_one_solve_step_is_a_inverse_b(free_system, gaas, which):
    sys_, t_end = (free_system, 2.0) if which == "free" else (gaas, 30.0)
    cfg = default_cn_config(sys_, t_end)
    a, b = _theta_operators(sys_, cfg, _wide_grid(cfg))
    rng = np.random.default_rng(11)
    psi, load = (rng.standard_normal(len(a[1]))
                 + 1j * rng.standard_normal(len(a[1])) for _ in range(2))
    b_psi = scipy.sparse.diags(b, [-1, 0, 1]) @ psi
    want = scipy.linalg.solve_banded((1, 1), _banded(*a), b_psi + load)
    ipiv, lu = factor_tridiagonal(*a)
    before = psi.copy(), load.copy()
    got = cn_step(ipiv, lu, (1.0 - cfg.theta) / cfg.theta, psi, load)
    assert np.array_equal(psi, before[0]) and np.array_equal(load, before[1])
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_default_pairs_dt_with_theta(gaas):
    cfg = default_cn_config(gaas, 6.0)
    unit = cfg.dx * cfg.dx * HBAR / gaas.c2
    # the physical damping (2 theta - 1) dt of the older (0.25, 0.55) pairing
    assert (2.0 * cfg.theta - 1.0) * cfg.dt / unit == pytest.approx(0.025,
                                                                    rel=1e-12)
    assert cfg.dt < 0.5 * unit
    probes, times = [2.0, 4.0, 8.0], np.linspace(2.5, 6.0, 8)
    new = cn_evolve(gaas, cfg, probes, times).abs2
    old = cn_evolve(gaas, replace(cfg, theta=0.55, dt=0.25 * unit),
                    probes, times).abs2
    assert np.max(np.abs(new - old) / old) <= 2e-4


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("dt", 0.0), ("dt", -1e-3), ("dt", _NAN), ("dt", _INF),
    ("dx", "negated"), ("dx", 0.0), ("dx", _NAN),
])
def test_invalid_grid_is_rejected_by_field(gaas, field, value):
    good = default_cn_config(gaas, 2.0)
    if value == "negated":
        value = -good.dx
    bad = replace(good, **{field: value})
    t = np.array([2.0])
    # through _validate first: a step loop with dt <= 0 never ends
    with pytest.raises(ValidationError, match=field):
        oracle._validate(gaas, bad, np.array([gaas.L]))
    with pytest.raises(ValidationError, match=field):
        cn_evolve(gaas, bad, [gaas.L], t)
