"""Grid oracle: free-particle cross-check, unbounded lattice, and guards.

Oracles:
* [DERIVED] with a negligible barrier the shutter problem has the exact
  closed form M(x, k, t) - M(x, -k, t) on both sides of the shutter; the
  grid solution must land on it;
* [DERIVED] the closed form gives the unbounded lattice's solution: probes
  far away on either side do not change the others' values, and before
  any echo returns it equals a plain theta scheme on a wide hard-walled
  domain;
* [DERIVED] the transparent kernel, the Laurent series of the oracle's
  decaying root taken by the oracle's coefficient sum, solves the exterior
  equation rho + 1/rho = 2 kappa(z);
* [TRIVIAL] that sum, four quarter circles each a chunk at a time, is bit
  for bit the formula over each whole quarter, kept here as a reference,
  and each coefficient c_p within 4 eps R^p max|rho|, rho's largest
  modulus on the circle, of the one FFT over the whole circle, up to the
  oracle's step bound and at random (w, theta, n); it holds less than a
  fifth of the whole circle's memory;
* [DERIVED] successive dx halvings must converge at second order (measured
  between grid solutions, which share one continuum limit);
* [DERIVED] the batched unpivoted solve agrees with
  scipy.linalg.solve_banded within 1e-14 of the largest entry, on random,
  wide-grid and key-node systems, and within 1e-13 on every chunk of the
  key-node systems cn_evolve builds on GaAs and at alpha = 8; it refuses
  a non-finite entry and a zero pivot;
* [DERIVED] the closed form reproduces a plain stepper (an explicit B, a
  scipy solve on every step and the whole edge history dotted with the
  transparent kernel) within 1e-10, and within 1e-9 at every value of at
  least 1e-150 at alpha 0.87, 3, 8 and 20, inside, at both edges and
  beyond the barrier, from 0.05 fs (values below 1e-200 at alpha = 20 are
  not resolved); a run to 3t repeats a run to t on their shared times;
* [TRIVIAL] validate's oracle run (GaAs, x = 6 nm to 30 fs) peaks under
  2 MiB traced: no temporary spans the whole run's history;
* [TRIVIAL] a run longer than the oracle's step bound fails before it
  computes anything, and a probe at 1000 nm runs to 300 fs and leaves the
  other probe's values as they were;
* [TRIVIAL] a dt so small that the lattice roots would overflow is
  refused, naming dt and w, before any lattice solve;
* [DERIVED] the default (dt, theta) keeps (2 theta - 1) dt, the damping of
  physical modes, at the older (0.25 dx^2 hbar / c2, 0.55) pairing's value,
  and its traces match that pairing's.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtransient import cn_evolve, default_cn_config, make_system, oracle
from qtransient.errors import (GridTooCoarse, NonFiniteInput, NonPositiveTime,
                               ValidationError)
from qtransient.moshinsky import moshinsky_m
from qtransient.oracle import solve_banded
from qtransient.systems import HBAR_EV_FS as HBAR, length_for_alpha


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
    ell, _ = _transparent_kernel(w, theta, 200)
    z = 1.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    rho = np.polyval(ell[::-1], 1.0 / z)
    assert np.all(np.abs(rho) < 1.0)
    assert np.max(np.abs(rho + 1.0 / rho - _two_kappa(w, theta, z))) <= 1e-12


def _transparent_kernel(w, theta, n):
    """(l, top): the Laurent coefficients l_0 .. l_n of the decaying
    exterior root rho(z), the exact discrete transparent boundary kernel,
    taken by the oracle's coefficient sum from the oracle's root, and the
    largest |rho| on its circle."""
    return oracle._coefficients(
        lambda z: oracle._decaying_root(_two_kappa(w, theta, z)),
        *oracle._circle(n), np.arange(n + 1))


def _two_kappa(w, theta, z):
    return 2.0 + (z - 1.0) / (1j * w * (theta * z + 1.0 - theta))


def _kernel_on_fresh_arrays(w, theta, n):
    """The kernel as one FFT of the formula over the whole circle; kept as
    the accuracy reference for the kernel taken by quarter circles."""
    size, radius = oracle._circle(n)
    z = radius * np.exp(2j * np.pi * np.arange(size) / size)
    rho = oracle._decaying_root(_two_kappa(w, theta, z))
    return np.fft.ifft(rho)[:n + 1] * radius ** np.arange(n + 1)


def _kernel_by_quarters_on_fresh_arrays(w, theta, n):
    """The kernel as one expression per array over each whole quarter
    circle; kept as the reference for the sum taken chunk by chunk."""
    size, radius = oracle._circle(n)
    turn = np.exp(2j * np.pi / size * np.arange(n + 1))
    ell = np.zeros(n + 1, dtype=complex)
    for b in (3, 2, 1, 0):
        z = radius * np.exp(2j * np.pi * (4 * np.arange(size // 4) + b) / size)
        ell *= turn
        ell += np.fft.ifft(oracle._decaying_root(_two_kappa(w, theta, z)))[:n + 1]
    return ell * (0.25 * radius ** np.arange(n + 1))


# The rounding of coefficient p grows with R^p, as the oracle's own
# estimate 10 eps R^p max|rho| has it.  Over 20,400 draws of (w, theta, n)
# from the ranges below the gap to one FFT was at most 1.33 of
# eps R^p max|rho|, at n = 1; 0.56 at w = 0.4999999999999999, n = 1986.
_KERNEL_ROUNDING = 4.0


def _check_kernel(w, theta, n):
    got, top = _transparent_kernel(w, theta, n)
    assert got.tobytes() == \
        _kernel_by_quarters_on_fresh_arrays(w, theta, n).tobytes()
    _, radius = oracle._circle(n)
    gap = np.abs(got - _kernel_on_fresh_arrays(w, theta, n))
    assert np.all(gap <= _KERNEL_ROUNDING * np.finfo(float).eps * top
                  * radius ** np.arange(n + 1))


@pytest.mark.parametrize("n", [101, 5000, 12110, oracle._MAX_STEPS])
@pytest.mark.parametrize("theta", [0.5, 0.5 + 1.0 / 36.0, 1.0])
def test_transparent_kernel_is_bitwise_the_formula(theta, n):
    # the default GaAs run to 30 fs takes n = 12110 steps at w = 0.45, 2^16
    # points: the formula over the whole circle holds 6.06 MiB there, by
    # quarter circles 1.15.  The longest run the oracle allows takes 2^20
    # points, four quarters of 64 chunks, and holds 15.9 MiB
    tracemalloc.start()
    _transparent_kernel(0.45, theta, n)
    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    _check_kernel(0.45, theta, n)
    assert peak <= {12110: 1.3, oracle._MAX_STEPS: 17.5}.get(n, math.inf)


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-150, 0.5, exclude_max=True), st.floats(0.5, 1.0),
       st.integers(1, 20_000))
@example(w=0.4999999999999999, theta=0.5, n=1986)
def test_transparent_kernel_is_bitwise_the_formula_anywhere(w, theta, n):
    # one chunk or several per quarter: each point of the circle is the
    # formula's, bit for bit.  Below w ~ 1e-154, kappa^2 ~ w^-2 overflows
    _check_kernel(w, theta, n)


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


def _key_node_systems(sys_, cfg, probes, t_end, monkeypatch):
    """The (ab, rhs, x) of every key-node solve cn_evolve runs to t_end on
    its main circle: the batched systems, 1024 z to a chunk, and their
    solutions."""
    seen = []

    def solve(l_and_u, ab, rhs):
        x = solve_banded(l_and_u, ab, rhs)
        seen.append((ab, rhs, x))
        return x

    monkeypatch.setattr(oracle, "solve_banded", solve)
    cn_evolve(sys_, cfg, probes, np.array([t_end]))
    return seen[:oracle._circle(math.ceil(t_end / cfg.dt))[0] // 1024]


@pytest.mark.parametrize("which", ["random", "gaas", "window", "w=1e-6"])
def test_factored_step_matches_scipy_solve_banded(gaas, monkeypatch, which):
    # random: 500 nodes; gaas: the stepping operator on the -100 to 108 nm
    # grid, 3017 nodes; window: the key-node systems of a run with its
    # probe at 6 nm, a chunk of 1024 z solved as one batch; w=1e-6: the
    # wide grid at w = dt c2 / (hbar dx^2) = 1e-6
    rng = np.random.default_rng(7)
    cfg = default_cn_config(gaas, 30.0)
    if which == "window":
        ab, rhs, _ = _key_node_systems(gaas, cfg, [6.0], 30.0, monkeypatch)[0]
        assert ab.shape == (3, 5, 1024)
    else:
        if which == "random":
            sub, diag, sup = _random_operator(rng, 500)
        else:
            if which == "w=1e-6":
                cfg = replace(cfg, dt=1e-6 * cfg.dx * cfg.dx * HBAR / gaas.c2)
            sub, diag, sup = _theta_operators(gaas, cfg, _wide_grid(cfg))[0]
        ab = _banded(sub, diag, sup)
        rhs = rng.standard_normal(len(diag)) + 1j * rng.standard_normal(len(diag))
    if ab.ndim == 2:
        want = scipy.linalg.solve_banded((1, 1), ab, rhs)
    else:
        want = np.stack([scipy.linalg.solve_banded((1, 1), ab[..., i], rhs[:, i])
                         for i in range(ab.shape[-1])], axis=-1)
    before = ab.copy(), rhs.copy()
    got = solve_banded((1, 1), ab, rhs)
    # the inputs survive a solve
    assert np.array_equal(ab, before[0]) and np.array_equal(rhs, before[1])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("theta", [0.5, 0.5 + 1.0 / 36.0, 1.0])
@pytest.mark.parametrize("alpha", [None, 8.0])
def test_unpivoted_solve_matches_scipy_on_the_key_node_systems(
        gaas, monkeypatch, alpha, theta):
    # the batched solve does not pivot; eliminating from the left, each
    # pivot is the reciprocal of a diagonal entry of a half-lattice
    # resolvent at a non-real E.  Every chunk of a run's main circle
    # matches scipy's pivoted solve, column by column, at every 16th z
    sys_ = gaas if alpha is None else make_system(
        0.3, 0.001, length_for_alpha(alpha, 0.3, 0.067), 0.067)
    cfg = replace(default_cn_config(sys_, 30.0), theta=theta)
    systems = _key_node_systems(sys_, cfg, [1.5 * sys_.L], 30.0, monkeypatch)
    assert len(systems) == 64
    for ab, rhs, got in systems:
        for col in range(0, ab.shape[-1], 16):
            want = scipy.linalg.solve_banded((1, 1), ab[..., col], rhs[:, col])
            assert np.abs(got[:, col] - want).max() <= \
                1e-13 * np.abs(want).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_step_input_raises(bad):
    sub, diag, sup = _random_operator(np.random.default_rng(3), 50)
    rhs = np.ones(50, dtype=complex)
    rhs[17] = bad
    with pytest.raises(ValueError):
        solve_banded((1, 1), _banded(sub, diag, sup), rhs)
    diag[17] = bad
    with pytest.raises(ValueError):
        solve_banded((1, 1), _banded(sub, diag, sup), np.ones(50))


def test_singular_operator_raises():
    zeros = np.zeros(50, dtype=complex)
    with pytest.raises(scipy.linalg.LinAlgError):
        solve_banded((1, 1), _banded(zeros[:-1], zeros, zeros[:-1]),
                     np.ones(50))


def _history_stepper(sys_, cfg, probes, times):
    """The theta scheme as one plain loop, the reference for cn_evolve's
    closed form: an explicit B, scipy.linalg.solve_banded on every step and
    the whole edge history dotted with the transparent kernel on every
    step, on a window two nodes wider than x = 0, the barrier and the
    probes; the sea, source and sampling rule are cn_evolve's."""
    probes = np.asarray(probes, dtype=float)
    lo = math.floor(min(0.0, probes.min()) / cfg.dx) - 2
    hi = math.ceil(max(sys_.L, probes.max()) / cfg.dx) + 2
    x = cfg.dx * np.arange(lo, hi + 1)
    steps = math.ceil(times[-1] / cfg.dt) + 1
    hop = sys_.c2 / (cfg.dx * cfg.dx)
    w = cfg.dt * hop / HBAR
    ell = _kernel_on_fresh_arrays(w, cfg.theta, steps)
    a, b = _theta_operators(sys_, cfg, x)
    # each operator's corners carry its share of chi_out = l_0 chi_edge
    a[1][[0, -1]] -= 1j * cfg.dt * cfg.theta / HBAR * hop * ell[0]
    b[1][[0, -1]] += 1j * cfg.dt * (1.0 - cfg.theta) / HBAR * hop * ell[0]
    ab, b_op = _banded(*a), scipy.sparse.diags(b, [-1, 0, 1])
    memory = cfg.theta * ell[1:] + (1.0 - cfg.theta) * ell[:-1]
    memory[0] = cfg.theta * ell[1]
    memory *= 1j * w
    history = np.zeros((2, steps + 1), dtype=complex)   # newest first

    sea = np.where(x <= 0.0, 2j * np.sin(sys_.k * x), 0.0)
    lam_s = 2.0 * hop * (1.0 - math.cos(sys_.k * cfg.dx))
    g = ((1.0 - 1j * (1.0 - cfg.theta) * cfg.dt * lam_s / HBAR)
         / (1.0 + 1j * cfg.theta * cfg.dt * lam_s / HBAR))
    r0 = 2j * hop * math.sin(sys_.k * cfg.dx)
    s0 = -1j * cfg.dt / HBAR * r0 * ((1.0 - cfg.theta) + g * cfg.theta)
    frac = probes / cfg.dx - lo
    j_p = np.clip(np.floor(frac).astype(int), 0, len(x) - 2)
    w_p = frac - j_p

    def at_probes(chi, m):
        psi = g ** m * sea + chi
        return (1.0 - w_p) * psi[j_p] + w_p * psi[j_p + 1]

    chi = np.zeros(len(x), dtype=complex)
    out = np.zeros((len(probes), len(times)), dtype=complex)
    t_now, i_t, step = 0.0, 0, 0
    while i_t < len(times):
        load = np.zeros(len(x), dtype=complex)
        load[0], load[-1] = history[:, steps - step:] @ memory[:step + 1]
        load[-lo] = s0 * g ** step
        prev, t_prev = chi, t_now
        chi = scipy.linalg.solve_banded((1, 1), ab, b_op @ chi + load)
        step += 1
        t_now += cfg.dt
        history[:, steps - step] = chi[0], chi[-1]
        while i_t < len(times) and times[i_t] <= t_now + 1e-12:
            f = (times[i_t] - t_prev) / cfg.dt
            out[:, i_t] = ((1.0 - f) * at_probes(prev, step - 1)
                           + f * at_probes(chi, step))
            i_t += 1
    return out


@pytest.mark.parametrize("theta", _THETAS)
@pytest.mark.parametrize("which", ["free", "gaas", "unsnapped"])
def test_cn_evolve_matches_the_per_step_history_stepper(free_system, gaas,
                                                        which, theta):
    # dx/2 on the free system keeps its steps as short as GaAs's, so the
    # 390 steps fit in under 2 fs; unsnapped: a dx that puts both barrier
    # edges inside cells, whose partial potential the key nodes around L
    # and x = 0 carry
    sys_, probes, dx = ((free_system, [0.5, 1.5], 0.025) if which == "free"
                        else (gaas, [2.0, 6.0], None))
    cfg = replace(default_cn_config(sys_, 2.0, dx=dx), theta=theta)
    if which == "unsnapped":
        dx = 0.97 * cfg.dx
        cfg = replace(cfg, dx=dx, dt=0.45 * dx * dx * HBAR / gaas.c2)
        assert gaas.L / dx % 1.0 > 0.1
    # the first step, neighbouring steps and a time between steps
    marks = np.array([1, 127, 128, 129, 256, 257, 389.5])
    times = marks * cfg.dt
    assert times[-1] <= 2.0
    got = cn_evolve(sys_, cfg, probes, times).psi
    want = _history_stepper(sys_, cfg, probes, times)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.87, 3.0, 8.0, 20.0])
def test_cn_evolve_matches_the_stepper_across_opacities(alpha):
    # inside, at both edges and beyond the barrier, from 0.05 fs, where the
    # signal beyond an opaque barrier is far below the main circle's
    # rounding and only the retaken circles resolve it
    sys_ = make_system(0.3, 0.001, length_for_alpha(alpha, 0.3, 0.067), 0.067)
    L = sys_.L
    probes = [0.05 * L, 0.5 * L, L, 1.5 * L, L + 6.0]
    times = np.linspace(0.05, 3.0, 60)
    cfg = default_cn_config(sys_, 3.0)
    got = cn_evolve(sys_, cfg, probes, times).psi
    want = _history_stepper(sys_, cfg, probes, times)
    seen = np.abs(want) >= 1e-150
    assert np.max(np.abs(got - want)[seen] / np.abs(want)[seen]) <= 1e-9


@pytest.mark.parametrize("theta", _THETAS)
def test_a_longer_run_repeats_the_shorter_one(gaas, theta):
    # the kernel's FFT length and the block count change with the run
    # length; the shared times must not
    cfg = replace(default_cn_config(gaas, 3.0), theta=theta)
    short = np.linspace(0.1, 1.0, 10)
    longer = np.concatenate([short, np.linspace(1.2, 3.0, 10)])
    ref = cn_evolve(gaas, cfg, [2.0, 6.0], short).psi
    got = cn_evolve(gaas, cfg, [2.0, 6.0], longer).psi[:, :len(short)]
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10


def test_trace_reports_its_steps(gaas):
    cfg = default_cn_config(gaas, 30.0)
    # validate's oracle run
    cn = cn_evolve(gaas, cfg, [6.0], np.array([30.0]))
    assert cn.steps == 12110
    cn = cn_evolve(gaas, cfg, [-1.0, 2.0], np.array([0.1, 100.5 * cfg.dt]))
    assert cn.steps == 101
    # a time is reached within a slack relative to dt: at a tiny dt each
    # of 200 times on the steps takes its own step
    tiny = replace(cfg, dt=cfg.dt * 1e-150)
    cn = cn_evolve(gaas, tiny, [6.0], np.arange(1, 201) * tiny.dt)
    assert cn.steps == 200


def test_validate_oracle_run_holds_no_whole_run_temporaries(gaas):
    # validate's oracle-compare run: 12,110 steps.  The kernel, the padded
    # memory and its blocks are freed once the history's spectra exist, the
    # source is formed a block at a time and a closed block joins the later
    # spectra one edge at a time; with all three held it peaks at 2.69 MiB
    cfg = default_cn_config(gaas, 30.0)
    times = np.linspace(1.0, 30.0, 59)
    cn_evolve(gaas, default_cn_config(gaas, 1.0), [6.0], [1.0])
    tracemalloc.start()
    cn = cn_evolve(gaas, cfg, [6.0], times)
    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    assert cn.steps == 12110
    assert peak < 2.0


def test_oversized_run_fails_before_allocating(gaas):
    # 4e9 steps: the boundary kernel alone would be an FFT of 2^34 points
    cfg = default_cn_config(gaas, 2.0)
    named = r"t_end=1e\+07 fs at dt=0.00247\d* fs needs 4.0\d*e\+09 steps.* 250000"
    with pytest.raises(ValidationError, match=named):
        cn_evolve(gaas, cfg, [gaas.L], np.array([1.0, 1e7]))
    with pytest.raises(ValidationError, match=named):
        default_cn_config(gaas, 1e7)


def test_far_probe_run_completes_and_leaves_the_near_rows_unchanged(gaas):
    # at x = 1000 nm a stepper's window holds 14,505 nodes; the lattice
    # solve adds two key nodes, so 300 fs there costs what it costs at L
    cfg = default_cn_config(gaas, 300.0)
    times = np.array([1.0, 150.5, 300.0])
    near = cn_evolve(gaas, cfg, [gaas.L], times)
    both = cn_evolve(gaas, cfg, [gaas.L, 1000.0], times)
    assert both.steps == 121096
    assert np.isfinite(both.psi).all()
    assert np.max(np.abs(both.psi[0] - near.psi[0]) / np.abs(near.psi[0])) \
        <= 1e-10


@pytest.mark.parametrize("scale", [1e-154, 1e-160])
def test_tiny_dt_is_refused_naming_dt_and_w(gaas, monkeypatch, scale):
    # w = dt c2/(hbar dx^2) of 4.5e-155 or less squares kappa ~ 1/w past
    # the largest float: refused before any lattice solve, with no
    # RuntimeWarning (the suite makes it an error) and no bare ValueError
    good = default_cn_config(gaas, 2.0)
    bad = replace(good, dt=good.dt * scale)

    def solved(*args):
        raise AssertionError("a lattice system was solved")

    monkeypatch.setattr(oracle, "solve_banded", solved)
    named = rf"dt={bad.dt} fs gives w = dt c2/\(hbar dx\^2\) = 4.5e-"
    for call in (lambda: oracle._validate(gaas, bad, np.array([gaas.L])),
                 lambda: oracle.check_run(gaas, bad, [gaas.L], 200 * bad.dt),
                 lambda: cn_evolve(gaas, bad, [gaas.L],
                                   np.array([200 * bad.dt]))):
        with pytest.raises(ValidationError, match=named):
            call()
    # at w = 4.5e-151 a 200-step run passes, and its values are finite
    monkeypatch.undo()
    fine = replace(good, dt=good.dt * 1e-150)
    assert oracle.check_run(gaas, fine, [gaas.L], 200 * fine.dt) == 201
    cn = cn_evolve(gaas, fine, [gaas.L], np.array([200 * fine.dt]))
    assert np.isfinite(cn.psi).all()


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
