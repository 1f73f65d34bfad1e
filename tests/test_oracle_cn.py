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
* [TRIVIAL] the kernel taken a chunk of the circle at a time is bit for
  bit the formula over the whole circle, kept here as the reference, up to
  the oracle's step bound and at random (w, theta, n), and holds less than
  half its memory;
* [DERIVED] successive dx halvings must converge at second order (measured
  between grid solutions, which share one continuum limit);
* [DERIVED] the operator factored once into prefix scans and solved per
  step agrees with scipy.linalg.solve_banded within 1e-14 of the largest
  entry, on one segment and on windows cut into several or very short
  segments; the scans do not pivot, and every operator cn_evolve builds is
  strictly diagonally dominant by rows, which makes that safe;
* [DERIVED] the blocked boundary history (near terms summed directly, far
  ones by FFT) and the one-solve step A^-1 ((1 + r) psi + load) - r psi
  reproduce a plain per-step stepper: B built explicitly, a scipy solve on
  every step and the whole edge history dotted with the kernel; a run to
  3t repeats a run to t on their shared times;
* [TRIVIAL] a run longer than the oracle's step bound, or one whose window
  times its steps exceeds the node-step bound, fails before it allocates
  anything, and the widest window the tests step stays within that bound
  up to the step bound;
* [TRIVIAL] a dt so small that the boundary kernel would overflow is
  refused, naming dt and w, before the kernel is built;
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
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransient import cn_evolve, default_cn_config, make_system, oracle
from qtransient.errors import (GridTooCoarse, NonFiniteInput, NonPositiveTime,
                               ValidationError)
from qtransient.moshinsky import moshinsky_m
from qtransient.oracle import (factor_tridiagonal, solve_banded,
                               transparent_kernel)
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
    ell = transparent_kernel(w, theta, 200)
    z = 1.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    rho = np.polyval(ell[::-1], 1.0 / z)
    two_kappa = 2.0 + (z - 1.0) / (1j * w * (theta * z + 1.0 - theta))
    assert np.all(np.abs(rho) < 1.0)
    assert np.max(np.abs(rho + 1.0 / rho - two_kappa)) <= 1e-12


def _kernel_on_fresh_arrays(w, theta, n):
    """transparent_kernel as one expression per array over the whole
    circle; kept as the reference for the kernel taken chunk by chunk."""
    size = 1 << math.ceil(math.log2(4 * (n + 1)))
    radius = 1e12 ** (1.0 / size)
    z = radius * np.exp(2j * np.pi * np.arange(size) / size)
    kappa = 1.0 + (z - 1.0) / (2j * w * (theta * z + 1.0 - theta))
    root = np.sqrt(kappa * kappa - 1.0)
    grow = np.where((kappa.conjugate() * root).real >= 0.0,
                    kappa + root, kappa - root)
    return np.fft.ifft(1.0 / grow)[:n + 1] * radius ** np.arange(n + 1)


@pytest.mark.parametrize("n", [101, 5000, 12110, oracle._MAX_STEPS])
@pytest.mark.parametrize("theta", [0.5, 0.5 + 1.0 / 36.0, 1.0])
def test_transparent_kernel_is_bitwise_the_formula(theta, n):
    # the default GaAs run to 30 fs takes n = 12110 steps at w = 0.45, 2^16
    # points: the formula over the whole circle holds 6.06 MiB there, chunk
    # by chunk 2.69.  The longest run the oracle allows takes 2^20 points,
    # 256 chunks, and holds 38.1 MiB
    tracemalloc.start()
    got = transparent_kernel(0.45, theta, n)
    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    assert got.tobytes() == _kernel_on_fresh_arrays(0.45, theta, n).tobytes()
    assert peak <= {12110: 2.9, oracle._MAX_STEPS: 42.0}.get(n, math.inf)


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-150, 0.5, exclude_max=True), st.floats(0.5, 1.0),
       st.integers(1, 20_000))
def test_transparent_kernel_is_bitwise_the_formula_anywhere(w, theta, n):
    # one chunk or several: each point of the circle is the formula's, bit
    # for bit.  Below w ~ 1e-154, kappa^2 ~ w^-2 overflows in both
    assert transparent_kernel(w, theta, n).tobytes() == \
        _kernel_on_fresh_arrays(w, theta, n).tobytes()


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


def _window_operator(sys_, cfg, probes, t_end, monkeypatch):
    """The left-hand operator cn_evolve factors for this run, corners
    included, as (sub, diag, sup)."""
    seen = []

    def factor(sub, diag, sup):
        seen.append((sub, diag, sup))
        raise ValidationError("factored")

    monkeypatch.setattr(oracle, "factor_tridiagonal", factor)
    with pytest.raises(ValidationError, match="factored"):
        cn_evolve(sys_, cfg, probes, np.array([t_end]))
    return seen[0]


@pytest.mark.parametrize("which", ["random", "gaas", "window", "w=1e-6"])
def test_factored_step_matches_scipy_solve_banded(gaas, monkeypatch, which):
    # random: 500 nodes; gaas: the -100 to 108 nm grid, 3017 nodes; window:
    # the 92 nodes of a run with its probe at 6 nm, corners included;
    # w=1e-6: the wide grid at w = dt c2 / (hbar dx^2) = 1e-6, whose
    # multipliers are so small that segments hold about 45 nodes
    rng = np.random.default_rng(7)
    cfg = default_cn_config(gaas, 30.0)
    if which == "random":
        sub, diag, sup = _random_operator(rng, 500)
    elif which == "window":
        sub, diag, sup = _window_operator(gaas, cfg, [6.0], 30.0, monkeypatch)
    else:
        if which == "w=1e-6":
            cfg = replace(cfg, dt=1e-6 * cfg.dx * cfg.dx * HBAR / gaas.c2)
        sub, diag, sup = _theta_operators(gaas, cfg, _wide_grid(cfg))[0]
    rhs = rng.standard_normal(len(diag)) + 1j * rng.standard_normal(len(diag))
    want = scipy.linalg.solve_banded((1, 1), _banded(sub, diag, sup), rhs)
    segments, lu = factor_tridiagonal(sub, diag, sup)
    assert lu.shape == (4, len(diag))
    assert (len(segments) > 1) == (which != "window")
    for _ in range(2):   # the factors survive a solve
        got = solve_banded(segments, lu, rhs.copy())
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("theta", [0.5, 0.5 + 1.0 / 36.0, 1.0])
@pytest.mark.parametrize("alpha", [None, 8.0])
def test_operator_is_strictly_diagonally_dominant_by_rows(gaas, monkeypatch,
                                                          alpha, theta):
    # the prefix-scan factors do not pivot; row dominance is what makes
    # that safe: every pivot then exceeds its row's super-diagonal.  On the
    # interior rows the margin is at least sqrt(1 + 4 theta^2 w^2) -
    # 2 theta w, above 0.41 under the dt guard w < 1/2
    sys_ = gaas if alpha is None else make_system(
        0.3, 0.001, length_for_alpha(alpha, 0.3, 0.067), 0.067)
    cfg = replace(default_cn_config(sys_, 30.0), theta=theta)
    sub, diag, sup = _window_operator(sys_, cfg, [1.5 * sys_.L], 30.0,
                                      monkeypatch)
    off = np.zeros(len(diag))
    off[1:] += np.abs(sub)
    off[:-1] += np.abs(sup)
    assert (np.abs(diag) - off).min() > 0.41
    pivots = factor_tridiagonal(sub, diag, sup)[1][3]
    assert (np.abs(pivots[:-1]) > np.abs(sup)).all()


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


def _history_stepper(sys_, cfg, probes, times):
    """cn_evolve as one plain loop: an explicit B, scipy.linalg.solve_banded
    on every step and the whole edge history dotted with the boundary
    kernel on every step; the window, sea, source and sampling rule are
    cn_evolve's."""
    probes = np.asarray(probes, dtype=float)
    lo = math.floor(min(0.0, probes.min()) / cfg.dx) - 2
    hi = math.ceil(max(sys_.L, probes.max()) / cfg.dx) + 2
    x = cfg.dx * np.arange(lo, hi + 1)
    steps = math.ceil(times[-1] / cfg.dt) + 1
    hop = sys_.c2 / (cfg.dx * cfg.dx)
    w = cfg.dt * hop / HBAR
    ell = transparent_kernel(w, cfg.theta, steps)
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
@pytest.mark.parametrize("which", ["free", "gaas"])
def test_cn_evolve_matches_the_per_step_history_stepper(free_system, gaas,
                                                        which, theta):
    # dx/2 on the free system keeps its steps as short as GaAs's, so three
    # blocks fit in under 2 fs
    sys_, probes, dx = ((free_system, [0.5, 1.5], 0.025) if which == "free"
                        else (gaas, [2.0, 6.0], None))
    cfg = replace(default_cn_config(sys_, 2.0, dx=dx), theta=theta)
    k = oracle._BLOCK
    # the first step, both sides of the first two block edges, and a time
    # between steps in the fourth block
    marks = np.array([1, k - 1, k, k + 1, 2 * k, 2 * k + 1, 3 * k + 5.5])
    times = marks * cfg.dt
    assert times[-1] <= 2.0
    got = cn_evolve(sys_, cfg, probes, times).psi
    want = _history_stepper(sys_, cfg, probes, times)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


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


def test_trace_reports_steps_and_nodes(gaas):
    cfg = default_cn_config(gaas, 30.0)
    # validate's oracle run: x from -2 dx to 6 nm + 2 dx, with 6 nm = 87 dx
    cn = cn_evolve(gaas, cfg, [6.0], np.array([30.0]))
    assert (cn.steps, cn.nodes) == (12110, 92)
    cn = cn_evolve(gaas, cfg, [-1.0, 2.0], np.array([0.1, 100.5 * cfg.dt]))
    lo, hi = math.floor(-1.0 / cfg.dx) - 2, math.ceil(gaas.L / cfg.dx) + 2
    assert (cn.steps, cn.nodes) == (101, hi - lo + 1)


def test_oversized_run_fails_before_allocating(gaas):
    # 4e9 steps: the boundary kernel alone would be an FFT of 2^34 points
    cfg = default_cn_config(gaas, 2.0)
    named = r"t_end=1e\+07 fs at dt=0.00247\d* fs needs 4.0\d*e\+09 steps.* 250000"
    with pytest.raises(ValidationError, match=named):
        cn_evolve(gaas, cfg, [gaas.L], np.array([1.0, 1e7]))
    with pytest.raises(ValidationError, match=named):
        default_cn_config(gaas, 1e7)


def test_far_probe_run_fails_on_node_steps_before_allocating(gaas,
                                                             monkeypatch):
    # at x = 1000 nm the window holds 14,505 nodes: 300 fs is within the
    # step bound, but 1.8e9 node-steps would step for many minutes
    cfg = default_cn_config(gaas, 300.0)

    def allocated(*args):
        raise AssertionError("the boundary kernel was built")

    monkeypatch.setattr(oracle, "transparent_kernel", allocated)
    named = (r"t_end=300 fs at dt=0.00247\d* fs needs 121097 steps on 14505 "
             r"nodes, 1.76e\+09 node-steps; the bound is 2.19e\+08 node-steps")
    with pytest.raises(ValidationError, match=named):
        cn_evolve(gaas, cfg, [gaas.L, 1000.0], np.array([1.0, 300.0]))
    with pytest.raises(ValidationError, match=named):
        oracle.check_run(gaas, cfg, [1000.0], 300.0)
    # the widest window of test_window_independence, 875 nodes, stays
    # within the node-step bound up to the step bound
    t_end = 0.999999 * oracle._MAX_STEPS * cfg.dt
    steps, lo, hi = oracle.check_run(gaas, cfg, [2.0, 4.0, 8.0, 60.0], t_end)
    assert hi - lo + 1 == 875 and steps == oracle._MAX_STEPS + 1


@pytest.mark.parametrize("scale", [1e-154, 1e-160])
def test_tiny_dt_is_refused_naming_dt_and_w(gaas, monkeypatch, scale):
    # w = dt c2/(hbar dx^2) of 4.5e-155 or less squares kappa ~ 1/w past
    # the largest float: refused before the kernel is built, with no
    # RuntimeWarning (the suite makes it an error) and no bare ValueError
    good = default_cn_config(gaas, 2.0)
    bad = replace(good, dt=good.dt * scale)

    def allocated(*args):
        raise AssertionError("the boundary kernel was built")

    monkeypatch.setattr(oracle, "transparent_kernel", allocated)
    named = rf"dt={bad.dt} fs gives w = dt c2/\(hbar dx\^2\) = 4.5e-"
    for call in (lambda: oracle._validate(gaas, bad, np.array([gaas.L])),
                 lambda: oracle.check_run(gaas, bad, [gaas.L], 200 * bad.dt),
                 lambda: cn_evolve(gaas, bad, [gaas.L],
                                   np.array([200 * bad.dt]))):
        with pytest.raises(ValidationError, match=named):
            call()
    # at w = 4.5e-151 a 200-step run passes, and its kernel is finite
    fine = replace(good, dt=good.dt * 1e-150)
    assert oracle.check_run(gaas, fine, [gaas.L], 200 * fine.dt)[0] == 201
    assert np.isfinite(transparent_kernel(0.45e-150, fine.theta, 201)).all()


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
