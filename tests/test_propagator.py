"""Transient wavefunction: continuity, limits, and the equation of motion.

Oracles:
* [DERIVED] the internal and external expansions are algebraically unrelated
  (different coefficients, different Moshinsky arguments) yet must agree at
  the interface x = L;
* [DERIVED] pinned reference values, cross-validated against the
  grid oracle by Richardson extrapolation in dx;
* [DERIVED] the same closed-form tail behind 16384 exact poles: traces
  at the a-priori pole count agree with it to their tolerance and within
  their own error estimate, near the shutter, in the barrier, beyond it,
  and on a barrier with antibound poles;
* [TRIVIAL] the full wave must satisfy the barrier Schroedinger equation
  i hbar dPsi/dt = -c2 Psi'' + V Psi (finite-difference Laplacian);
* [DERIVED] the transmitted density at the barrier edge settles to the
  stationary value |T_k|^2 at long times;
* [TRIVIAL] no time reads zero: times next to the release that the pole
  sum cannot serve, down to 1e-300 fs, raise NotConverged naming x and t;
* [DERIVED] on an opaque barrier (alpha ~ 30) the density at x = L agrees
  with the grid oracle within 1 %, which takes every pole down to pole 1;
* [DERIVED] the grid oracle's two-level Richardson extrapolation in dx
  agrees with tol-1e-11 traces within 2e-6 at 5-30 fs, in the barrier, at
  its edge and beyond it, and its own estimate |R - v_{h/2}| bounds the gap;
* [TRIVIAL] one pole table per system, a quarter of the cap deep, is found
  once and shared, and poles found for another system are refused; a pool
  that outgrows it searches the cap once and sums bitwise what it sums on
  the full table;
* [DERIVED] the pool sizing that evaluates only the poles each doubling
  adds picks bitwise the pool of the whole-pool doubling it replaced, kept
  here as the reference, from pools of 32 to the cap;
* [DERIVED] the FFT of a sum of simple poles on midpoint nodes gives its
  moments about the centre in closed form, on one ring and on a circle
  per column;
* [DERIVED] the external moments that take the antibound poles off on the
  circle nodes agree, to the rounding of what they cancel, with the
  power-sum subtraction they replaced, kept here as the reference;
* [DERIVED] times whose |Psi| falls so far below the stationary amplitude
  that the first pole sum misses tol are summed once more, sized from
  |Psi|, and then agree with a tol-1e-12 trace to tol;
* [TRIVIAL] a trace of fewer than 2 _RUN times sums all its times in one
  pass, one Moshinsky call with the incident pair inside and outside the
  barrier, and the second pass makes the one further call;
* [DERIVED] a longer direct sum (_direct, which trace reads off panels
  from PANEL_MIN times on) is split into runs only where t has doubled,
  each at least _RUN times, and is bitwise its runs summed one by one; so
  GaAs at 8 nm over 2000 times holds under 3 MiB, not one pool's 15.8;
* [TRIVIAL] each per-time table of a pole sum is formed in blocks of times
  under one element budget: a budget of a few rows per block sums bit for
  bit what one block per run sums, so 20,000 times summed directly hold
  under 8 MiB;
* [TRIVIAL] one splitter cuts the runs, the blocks and the ragged chunks
  exactly as the three rules it replaced, kept here as the references;
* [DERIVED] whole-window direct sums, whose first times subtract many exact
  terms on the internal ring, read within tol what each of their first
  times reads traced alone at tol 1e-3, at the edge of the two barriers
  that missed it and on seeded (alpha, u) draws inside the barrier;
* [DERIVED] a short trace over a wide window reads within tol, and within
  its own estimate, what each of its times reads traced alone at tol
  1e-13 (expected to fail until ROADMAP item 8 lands);
* [DERIVED] the damped exponentials each time drops past its cut stay
  inside trunc_error_est: tol-1e-8 traces agree with tol-1e-12 ones
  within it, on opaque barriers, out to 20 nm and next to the shutter;
* [TRIVIAL] each time sums exactly the exact poles its own bound asks
  for, capped at half the pool, and times that need none sum none.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransient import (cn_evolve, default_cn_config, find_poles,
                        find_time_domain_resonance, length_for_alpha,
                        make_system, phi_stationary, pole_cache, propagator,
                        psi_external, psi_internal, trace, transmission)
from qtransient.analysis import PEAK_SCAN, default_window
from qtransient.errors import (MergingPolePair, NonPositiveTime, NotConverged,
                               PoleNotConverged, PoleSetMismatch,
                               ValidationError, XOutOfRange)
from qtransient.resonances import expansion_coeffs
from qtransient.systems import HBAR_EV_FS as HBAR

# pinned reference values for the GaAs barrier, converged to ~1e-11 with
# 16384 poles and confirmed by the grid oracle under dx refinement
REF_X2_T5 = 0.015286341495169617 - 0.025048009083664526j
REF_X4_T13 = 4.16937559e-03 - 8.48962293e-03j
REF_X8_T13 = 7.97166545e-03 - 6.57388317e-04j


@pytest.mark.parametrize("t", [1.0, 5.0, 13.0])
def test_interface_continuity(gaas, gaas_cache, t):
    # ten times the largest gap measured over these times: 4.0e-13 on psi
    # and 4.4e-12 on dpsi/dt, both at 13 fs
    inner = psi_internal(gaas.L, t, gaas, poles=gaas_cache, tol=1e-9)
    outer = psi_external(gaas.L, t, gaas, poles=gaas_cache, tol=1e-9)
    assert abs(inner.psi - outer.psi) <= 4.0e-12 * abs(outer.psi)
    assert abs(inner.dpsi_dt - outer.dpsi_dt) <= 4.4e-11 * abs(outer.dpsi_dt)


def test_pinned_reference_values(gaas, gaas_cache):
    s = psi_internal(2.0, 5.0, gaas, poles=gaas_cache, tol=1e-10)
    assert abs(s.psi - REF_X2_T5) <= 1e-9
    a = psi_external(4.0, 13.0, gaas, poles=gaas_cache, tol=1e-9)
    assert abs(a.psi - REF_X4_T13) <= 5e-10
    b = psi_external(8.0, 13.0, gaas, poles=gaas_cache, tol=1e-9)
    assert abs(b.psi - REF_X8_T13) <= 5e-10


DEEP = 16384   # exact poles of the deep reference sums


def _deep_trace(x, ts, sys_, table, monkeypatch):
    """The trace with DEEP exact poles at every time and the same tail: a
    zero aim takes every pole the cap's pool allows."""
    with monkeypatch.context() as patch:
        patch.setattr(propagator, "_AIM", 0.0)
        patch.setattr(propagator, "HARD_CAP", 2 * DEEP)
        tr = trace(x, ts, sys_, poles=table, tol=1e-10)
    assert tr.n_terms_used == 2 * DEEP + 2 + len(table.axis_poles)
    return tr.psi


def test_tail_agrees_with_deep_pole_sums(gaas, monkeypatch):
    V, m = 0.3, 0.067
    merged = make_system(V, 0.001, length_for_alpha(1.0, V, m), m)
    early = np.array([0.064, 0.5, 2.0, 8.0])
    cases = [(gaas, x, early) for x in (0.02, 0.05, 1.0, gaas.L)]
    cases += [(gaas, 8.0, np.array([0.5, 2.0, 8.0])),
              (gaas, 60.0, np.array([1.8, 5.0, 20.0, 50.0])),
              (merged, merged.L, np.array([0.5, 2.0, 8.0])),
              (merged, 2.0 * merged.L, np.array([0.5, 2.0, 8.0]))]
    # tables deep enough for the reference sums; the traces at the cap
    # read their first HARD_CAP rows
    tables = {s: find_poles(s, 2 * DEEP) for s in (gaas, merged)}
    assert tables[merged].axis_poles
    for sys_, x, ts in cases:
        ref = _deep_trace(x, ts, sys_, tables[sys_], monkeypatch)
        for tol in (1e-8, 1e-10):
            tr = trace(x, ts, sys_, poles=tables[sys_], tol=tol)
            err = np.abs(tr.psi - ref) / np.abs(ref)
            assert np.all(err <= tol), (x, tol, err)
            # the deep sums carry 32768 terms, each rounded near 1e-17
            assert np.all(err <= tr.trunc_error_est + 1e-15 / np.abs(ref)), \
                (x, tol, err)


@pytest.mark.parametrize("x,internal", [(2.0, True), (6.0, False)])
def test_schroedinger_equation(gaas, gaas_cache, x, internal):
    # the finite-difference step balances discretization error against the
    # 1/h^2 amplification of the pole-sum truncation noise; the external
    # sum is evaluated at a looser tolerance, so it gets a larger step
    t = 5.0
    h, tol, budget = ((1e-3, 1e-10, 1e-5) if internal
                      else (3e-2, 1e-9, 1e-4))
    ev = psi_internal if internal else psi_external
    lo, mid, hi = (ev(xx, t, gaas, poles=gaas_cache, tol=tol)
                   for xx in (x - h, x, x + h))
    lap = (lo.psi - 2.0 * mid.psi + hi.psi) / (h * h)
    pot = gaas.V if internal else 0.0
    resid = 1j * HBAR * mid.dpsi_dt + gaas.c2 * lap - pot * mid.psi
    scale = max(abs(HBAR * mid.dpsi_dt), abs(gaas.c2 * lap), abs(mid.psi))
    assert abs(resid) <= budget * scale


@pytest.mark.parametrize("x", [0.0, 0.001, 0.05, 2.0, 4.0, 20.0])
@pytest.mark.parametrize("grid", [[1e-300], [1e-30], [5e-5], [9e-5],
                                  [1e-6, 1.0]])
def test_times_next_to_release_are_refused_naming_x_and_t(gaas, gaas_cache,
                                                          x, grid):
    # psi is analytic for every t > 0 and reads no zero: the times the pole
    # sum cannot serve, down to 1e-300 fs where s^(2j+1) underflows, raise
    # NotConverged naming x and the first time, and numpy warns nowhere on
    # the way (the suite makes RuntimeWarning an error)
    with pytest.raises(NotConverged) as info:
        trace(x, np.array(grid), gaas, poles=gaas_cache)
    msg = str(info.value)
    assert f"x={x}" in msg and f"t={grid[0]:.6g} fs" in msg


def test_long_time_density_reaches_stationary(gaas, gaas_cache):
    T2 = abs(transmission(gaas.k, gaas)) ** 2
    for t in (3e4, 1e5, 3e5):
        s = psi_external(gaas.L, t, gaas, poles=gaas_cache, tol=1e-10)
        assert abs(abs(s.psi) ** 2 / T2 - 1.0) <= 1e-3


def test_opaque_barrier_matches_the_grid_oracle():
    # pole 1 sits just above k = sqrt v here; leaving it out of the sum
    # moves |psi|^2 at x = L by 8.7 % at 120 fs
    sys_ = make_system(0.3, 0.001, 41.3, 0.067)
    ts = np.array([60.0, 120.0])
    ref = np.abs(cn_evolve(sys_, default_cn_config(sys_, ts[-1]), [sys_.L],
                           ts).psi[0]) ** 2
    got = np.abs(trace(sys_.L, ts, sys_).psi) ** 2
    assert np.all(np.abs(got - ref) <= 0.01 * ref), got / ref - 1.0


@pytest.mark.parametrize("alpha", [None, 2.5], ids=["gaas", "alpha-2.5"])
def test_pole_sum_matches_the_richardson_extrapolated_oracle(gaas, alpha):
    # default_cn_config ties dt and the theta damping to dx^2, so the
    # oracle's leading error is c dx^2 and R = (4 v_{h/2} - v_h)/3 cancels
    # it.  At t >= 5 fs the largest gap measured was 4.1e-7 (GaAs, 6 nm)
    # and 2.3e-7 (alpha = 2.5, u = 300, 1.5 L), and |R - v_{h/2}| at least
    # 340 times the gap; alpha = 5 reached 4.4e-6 at 1.5 L
    sys_ = gaas if alpha is None else make_system(
        0.3, 0.001, length_for_alpha(alpha, 0.3, 0.067), 0.067)
    t = np.linspace(5.0, 30.0, 26)
    probes = [0.5 * sys_.L, sys_.L, 1.5 * sys_.L]    # nodes of both grids
    cfg = default_cn_config(sys_, t[-1])
    half = default_cn_config(sys_, t[-1], dx=cfg.dx / 2)
    assert half.dx == cfg.dx / 2
    v_h = cn_evolve(sys_, cfg, probes, t).psi
    v_h2 = cn_evolve(sys_, half, probes, t).psi
    richardson = (4.0 * v_h2 - v_h) / 3.0
    table = pole_cache(sys_)
    for x, r, fine in zip(probes, richardson, v_h2):
        psi = trace(x, t, sys_, poles=table, tol=1e-11).psi
        gap = np.abs(r - psi)
        assert np.all(gap <= 2e-6 * np.abs(psi)), (x, gap / np.abs(psi))
        assert np.all(gap <= np.abs(r - fine)), (x, np.abs(r - fine) / gap)


def test_trace_matches_pointwise_evaluation(gaas, gaas_cache):
    ts = np.array([2.0, 5.0, 9.0])
    tr = trace(3.0, ts, gaas, poles=gaas_cache, tol=1e-9)
    for t, psi in zip(ts, tr.psi):
        single = psi_internal(3.0, float(t), gaas, poles=gaas_cache, tol=1e-9)
        assert abs(psi - single.psi) <= 1e-9 * abs(single.psi)


def test_determinism(gaas):
    ts = np.linspace(1.0, 9.0, 5)
    a = trace(2.0, ts, gaas, tol=1e-9)
    b = trace(2.0, ts, gaas, tol=1e-9)
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.dpsi_dt, b.dpsi_dt)


@pytest.mark.parametrize("ts", [
    pytest.param(np.linspace(10.0, 11.0, 129), id="129"),
    pytest.param(np.linspace(10.0, 11.0, 257), id="257"),
    pytest.param(np.linspace(2.0, 12.0, 257), id="257-counts")])
def test_external_moments_in_blocks_are_bitwise_one_block(gaas, gaas_cache,
                                                          monkeypatch, ts):
    # the pool's moments are taken over blocks of _ROWS // (pool entries)
    # times; no block boundary may move a bit of any moment against one
    # block over every time.  In blocks of 64 rows, over 10-11 fs the times
    # all take the same exact poles and 129 times end with a lone row,
    # which joins the block before; over 2-12 fs they take many counts on
    # both sides of the first block boundary
    calls, inner = [], propagator._moments

    def spy(plan, rows, ring):
        calls.append((plan.level[rows], inner(plan, rows, ring),
                      plan.pool_q.shape[1]))
        return calls[-1][1]

    monkeypatch.setattr(propagator, "_moments", spy)
    monkeypatch.setattr(propagator, "_ROWS", 1 << 40)
    whole = trace(6.0, ts, gaas, poles=gaas_cache, tol=1e-9)
    [(level, one, width)] = calls
    rows = 64
    monkeypatch.setattr(propagator, "_ROWS", rows * width)
    calls.clear()
    blocked = trace(6.0, ts, gaas, poles=gaas_cache, tol=1e-9)
    sizes = [len(c[0]) for c in calls]
    assert sizes[:-1] == [rows] * (len(sizes) - 1) and sum(sizes) == len(ts)
    assert rows < sizes[-1] < 2 * rows if len(ts) == 129 else len(sizes) > 2
    if ts[0] < 10.0:
        assert len(set(level[:rows])) > 1
        assert len(set(level[rows:])) > 1
    assert np.array_equal(np.hstack([c[1] for c in calls]), one)
    assert np.array_equal(blocked.psi, whole.psi)
    assert np.array_equal(blocked.dpsi_dt, whole.dpsi_dt)


@pytest.mark.parametrize("x", [2.0, 6.0])
def test_extended_cache_reuse_is_exact(gaas, x):
    # traces keep no state in the shared table, so neither a table that
    # other positions in both regions have read nor a repeat at the same x
    # moves a single bit
    ts = np.linspace(1.0, 12.0, 40)
    fresh = trace(x, ts, gaas, poles=pole_cache(gaas), tol=1e-9)
    shared = pole_cache(gaas)
    trace(3.0, ts, gaas, poles=shared, tol=1e-9)
    trace(12.0, np.linspace(10.0, 20.0, 20), gaas, poles=shared, tol=1e-9)
    first = trace(x, ts, gaas, poles=shared, tol=1e-9)
    again = trace(x, ts, gaas, poles=shared, tol=1e-9)
    for tr in (first, again):
        assert np.array_equal(tr.psi, fresh.psi)
        assert np.array_equal(tr.dpsi_dt, fresh.dpsi_dt)
        assert np.array_equal(tr.trunc_error_est, fresh.trunc_error_est)
        assert tr.n_terms_used == fresh.n_terms_used


def test_pole_table_is_found_once_and_shared(gaas, gaas_poles, monkeypatch):
    # the shared table holds HARD_CAP // 4 poles: a table of the same system
    # that deep is used as it is, and a shorter one is replaced by a search
    # whose first rows are the shorter one's; traces whose pools fit in the
    # table search no further
    calls, search = [], propagator.find_pole_tables

    def spy(systems, n):
        calls.append((*systems, n))
        return search(systems, n)

    monkeypatch.setattr(propagator, "find_pole_tables", spy)
    monkeypatch.setattr(propagator, "find_poles",
                        lambda sys_, n: spy([sys_], n)[0])
    table = pole_cache(gaas, gaas_poles)
    depth = propagator.HARD_CAP // 4
    assert calls == [(gaas, depth)] and len(table) == depth == 512
    assert table.k[:len(gaas_poles)].tolist() == gaas_poles.k.tolist()
    assert pole_cache(make_system(0.3, 0.001, 4.0, 0.067), table) is table
    trace(2.0, np.linspace(1.0, 9.0, 5), gaas, poles=table)
    psi_external(6.0, 3.0, gaas, poles=table)
    assert len(calls) == 1


def test_pool_that_outgrows_the_table_searches_the_cap_once(gaas, gaas_cache,
                                                            monkeypatch):
    # at the edge, 0.1 fs after release and tol 1e-10, the pool takes 1024
    # poles: the trace searches HARD_CAP poles once, leaves the shared
    # table as it is, and sums bitwise what it sums on the full table
    table = pole_cache(gaas)
    calls, sizes = [], []
    plan = propagator._plan

    def spy(*args, **kwargs):
        calls.append(args)
        return find_poles(*args, **kwargs)

    def sized(*args):
        out = plan(*args)
        sizes.append(int(out.size[0]))
        return out

    monkeypatch.setattr(propagator, "find_poles", spy)
    monkeypatch.setattr(propagator, "_plan", sized)
    ts = np.array([0.1, 1.0, 5.0])
    tr = trace(gaas.L, ts, gaas, poles=table, tol=1e-10)
    assert calls == [(gaas, propagator.HARD_CAP)] and len(table) == 512
    assert sizes[0] == 1024
    ref = trace(gaas.L, ts, gaas, poles=gaas_cache, tol=1e-10)
    assert len(calls) == 1
    for got, want in ((tr.psi, ref.psi), (tr.dpsi_dt, ref.dpsi_dt),
                      (tr.trunc_error_est, ref.trunc_error_est)):
        assert got.tobytes() == want.tobytes()
    assert tr.n_terms_used == ref.n_terms_used


def _doubling_size(plan, table):
    """The pool sizing that re-ran the omitted-term bound, the exponential
    remainder and the exact count over the whole pool at every doubling,
    at the plan's earliest time and for its target; kept as the reference
    for _plan's.  The bound and the count are written out here: the first
    omitted term at count n is |alpha_{J+1}| times the sum, over the pool
    poles q from n on, of |c_q| (|k_c - q|^-m + |k_c + conj q|^-m), and n
    never leaves out a pole with Re q below k_c + _Z_MIN / s."""
    x, internal, target = plan.x[0], plan.internal, plan.target[0]
    s0, kc0 = plan.s[:1], plan.kc[:1]
    J = propagator._ORDER[internal]
    m, cap = 2 * J + 3, propagator.HARD_CAP
    coefs = kn = np.zeros(0, dtype=complex)
    p = propagator._POOL
    while True:
        c_new, k_new = expansion_coeffs(x, table[len(kn):p], internal)
        coefs, kn = np.concatenate((coefs, c_new)), np.concatenate((kn, k_new))
        weight = np.abs(propagator._alpha(J + 1, s0, 1.0))[0]
        bound = np.abs(coefs) * (np.abs(kc0 - kn) ** -m
                                 + np.abs(kc0 + kn.conj()) ** -m)
        later = np.cumsum(bound[::-1])[::-1]
        rem = propagator._beyond(coefs[None, -2:], kn[None, -2:], s0, kc0)[0]
        n = max(int(np.sum(later > 0.5 * target / weight)),
                int(np.searchsorted(kn.real,
                                    kc0[0] + propagator._Z_MIN / s0[0])))
        if p >= cap or (2 * n <= p and rem <= 0.5 * target):
            return coefs, kn
        p = min(2 * p, cap)


@pytest.mark.parametrize("alpha", [0.83, 1.33, 3.0, 8.0, 20.0])
def test_pool_sizing_matches_the_whole_pool_doubling(alpha):
    # at the earliest scan time, inside, at the edge and beyond it, _plan
    # picks the pool the whole-pool doubling picks, with bitwise the same
    # coefficients, from a full table and from the shared one, and stops at
    # the cap where that does; pools run from 32 to the cap
    V, m = 0.3, 0.067
    sys_ = make_system(V, V / 300.0, length_for_alpha(alpha, V, m), m)
    full = find_poles(sys_, propagator.HARD_CAP)
    tables = (full, pole_cache(sys_))
    k2 = np.array([sys_.k, -sys_.k])
    pools = []
    for x in (0.5 * sys_.L, sys_.L, 2.0 * sys_.L, 6.0 * sys_.L):
        internal = x <= sys_.L
        t0 = np.array(default_window(sys_, x)[:1])

        f_k = (phi_stationary(x, k2, sys_) if internal
               else transmission(k2, sys_))
        axis = expansion_coeffs(x, full.axis_poles, internal)
        for tol in (1e-6, 1e-10):
            target = tol * propagator._AIM * abs(f_k[0])
            for table in tables:
                plan = propagator._plan(internal, [x], [t0], [sys_], [f_k],
                                        [axis], [target], [table])
                ref = _doubling_size(plan, full)
                assert plan.coefs.tobytes() == ref[0].tobytes()
                assert plan.kn.tobytes() == ref[1].tobytes()
            pools.append(int(plan.size[0]))
    expect = {0.83: 32, 20.0: propagator.HARD_CAP}
    if alpha in expect:
        assert expect[alpha] in pools, pools


@pytest.mark.parametrize("n,spacing,per_column", [
    pytest.param(propagator._RING, 4.0, False, id="ring"),
    pytest.param(propagator._ARC, 8.0, True, id="circles")])
def test_fft_coefficients_are_the_closed_form_moments(n, spacing,
                                                      per_column):
    # g(c) = sum_p a_p/(c - q_p), every q_p at least spacing r from the
    # centre c0, on the midpoint nodes c0 + r e^{i pi (2j + 1)/n}: its
    # Taylor coefficients about c0 are (-1)^m mu_{m+1}, with the moments
    # mu_{m+1} = sum_p a_p/(c0 - q_p)^{m+1} in closed form.  A node phase
    # off by half a node turns mu_{m+1} by pi m/n, far beyond rounding
    rng = np.random.default_rng(33)
    c0 = np.array([0.0, 1.5 - 0.2j, -4.0 + 0.7j])
    r = np.array([0.3, 0.7, 1.1]) if per_column else 0.7
    rc = np.broadcast_to(r, c0.shape)
    q = c0 + rc * rng.uniform(spacing, 3.0 * spacing, (5, 3)) * np.exp(
        2j * math.pi * rng.uniform(size=(5, 3)))
    a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    c = c0 + rc * np.exp(1j * math.pi * (2 * np.arange(n) + 1) / n)[:, None]
    g = np.sum(a / (c[:, None, :] - q), axis=1)
    mu = propagator._taylor(g, r, 4)
    for m in range(4):
        terms = a / (c0 - q) ** (m + 1)
        assert np.all(np.abs(mu[m] - terms.sum(axis=0))
                      <= 1e-13 * np.abs(terms).sum(axis=0)), m


def _power_sum_moments(plan, rows):
    """The external moments of the plan's times rows with the antibound
    poles taken off as power sums: one circle per k_c holds the whole
    closed form, and the exact pool poles' and the antibound poles' shares
    are subtracted power by power; kept as the reference for _moments,
    which takes the antibound share off on the nodes.  Also returns
    max |closed form| / r^m on each circle, what each of the first 2J + 1
    moments cancels, and 0 for the last one, which sums the pool
    directly."""
    (run,) = set(plan.run[rows])
    n_axis = plan.n_axis[run]
    axis = (plan.axis_c[run, :n_axis], plan.axis_k[run, :n_axis])
    kc, level, f_k = plan.kc[rows], plan.level[rows], plan.f_k[run]
    J, k, arc = propagator._ORDER[False], plan.k[run], propagator._ARC
    pool_q, pool_c = plan.pool_q[run], plan.pool_c[run]
    n, top = 2 * level, 2 * int(level.max())
    i = np.arange(len(kc))
    inv = kc[:, None] - pool_q
    near = np.minimum(np.min(np.abs(kc[:, None] - axis[1]), axis=1,
                             initial=np.inf), np.min(np.abs(inv), axis=1))
    inv, inv_axis = 1.0 / inv, 1.0 / (kc[:, None] - axis[1])
    r = near / 8.0
    dk = np.minimum(np.abs(kc - k), kc + k)
    r = np.where((dk >= 0.5 * r) & (dk <= 2.0 * r), 0.5 * dk, r)
    theta = 2.0 * math.pi * (np.arange(arc) + 0.5) / arc
    c = kc[:, None] + r[:, None] * np.exp(1j * theta)
    circle = (f_k[0] / (c - k) - f_k[1] / (c + k)
              + 2.0 * k * propagator._transmission(c, plan.v[run], plan.L[run])
              / (k * k - c * c))
    mu, power, power_axis = [], 1.0, 1.0
    exact = np.zeros((len(kc), top + 1), dtype=complex)
    for m in range(2 * J + 1):
        power, power_axis = power * inv, power_axis * inv_axis
        np.cumsum(power[:, :top] * pool_c[:top], axis=1, out=exact[:, 1:])
        mu.append(np.mean(circle * np.exp(-1j * m * theta), axis=1)
                  / (-r) ** m - exact[i, n]
                  - np.sum(power_axis * axis[0], axis=1))
    rest = np.cumsum((power * inv * pool_c)[:, ::-1], axis=1)
    mu.append(rest[i, len(pool_q) - 1 - n])
    cancel = np.zeros((2 * J + 2, len(kc)))
    cancel[:-1] = (np.max(np.abs(circle), axis=1)
                   / r ** np.arange(2 * J + 1)[:, None])
    return np.array(mu), cancel


@pytest.mark.parametrize("share", [1.5, 6.0])
def test_antibound_share_on_the_nodes_matches_the_power_sums(monkeypatch,
                                                             share):
    # below the merge opacity (alpha = 0.83, two antibound poles) the
    # external moments that take the antibound terms off on the circle
    # nodes agree with the power-sum subtraction they replaced.  Both
    # cancel the circle's closed form, up to 1700 times the moments here,
    # so they can only agree to rounding of it: the gap measured 15 eps
    # max |closed form| / r^m at worst
    V, m = 0.3, 0.067
    sys_ = make_system(V, V / 300.0, length_for_alpha(0.83, V, m), m)
    x = share * sys_.L
    calls, inner = [], propagator._moments
    monkeypatch.setattr(propagator, "_moments",
                        lambda *args: calls.append(args) or inner(*args))
    trace(x, np.linspace(*default_window(sys_, x), 40), sys_, tol=1e-10)
    assert calls and calls[0][0].n_axis[0] == 2
    eps = np.finfo(float).eps
    for args in calls:
        got, (ref, cancel) = inner(*args), _power_sum_moments(*args[:2])
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale + 64 * eps * cancel)


def test_poles_of_another_system_are_rejected(gaas, gaas_poles, gaas_cache):
    # GaAs poles at L = 4 nm summed on an L = 6 nm barrier were off by a
    # factor 42 over 1-10 fs, and moved the peak from 5.6 fs to 0.19 fs
    wide = make_system(0.3, 0.001, 6.0, 0.067)
    for poles in (gaas_poles, gaas_cache):
        calls = (
            lambda: trace(wide.L, np.linspace(1.0, 10.0, 10), wide,
                          poles=poles),
            lambda: psi_external(wide.L, 5.0, wide, poles=poles),
            lambda: find_time_domain_resonance(wide, poles=poles),
        )
        for call in calls:
            with pytest.raises(PoleSetMismatch,
                               match=r"L=4\.0, .* L=6\.0, ") as info:
                call()
            assert isinstance(info.value, ValidationError)


def test_error_estimates_within_tolerance(gaas, gaas_cache):
    tr = trace(gaas.L, np.linspace(1.0, 10.0, 7), gaas,
               poles=gaas_cache, tol=1e-9)
    assert np.all(tr.trunc_error_est <= 1e-9)
    assert tr.n_terms_used >= 2


def test_second_pass_sized_from_psi(monkeypatch):
    # below the merge opacity, 8.25 L out: at the earliest time |Psi| lies
    # far below the stationary amplitude the first sum is sized against
    V, m = 0.3, 0.067
    sys_ = make_system(V, V / 6.61, length_for_alpha(0.894, V, m), m)
    x, t = 8.25 * sys_.L, np.geomspace(0.1239, 75.62, 60)
    sizes, levels = [], []
    pole_sum = propagator._pole_sum

    def counted(plan):
        sizes.append(len(plan.t))
        levels.append(int(plan.level.max()))
        return pole_sum(plan)

    monkeypatch.setattr(propagator, "_pole_sum", counted)
    tr = trace(x, t, sys_, tol=1e-8)
    assert len(sizes) == 2 and sizes[0] == len(t) and 0 < sizes[1] < len(t)
    # n_terms_used counts the N of the pass that sums the most: the second,
    # with the incident pair and the two antibound poles
    assert levels == [45, 153] and tr.n_terms_used == 2 + 2 * 153 + 2
    monkeypatch.undo()
    ref = trace(x, t, sys_, tol=1e-12)
    assert np.all(np.abs(tr.psi - ref.psi) <= 1e-8 * np.abs(ref.psi))


def test_not_converged_at_tiny_cap(gaas, gaas_cache):
    # 1e-3 fs after release the resonance exponentials next to the shutter
    # are damped only past pole ~5000, beyond the cap; 0.5 fs converges
    with pytest.raises(NotConverged):
        trace(0.05, np.array([1e-3]), gaas, poles=gaas_cache)
    assert trace(0.05, np.array([0.5]), gaas, poles=gaas_cache).n_terms_used


def test_time_summed_at_the_cap_is_not_summed_again(gaas, gaas_cache,
                                                   monkeypatch):
    # 1e-3 fs by the shutter takes all 1024 exact poles of the cap's pool
    # and misses: a second pass sized from |Psi| would sum it at the same N
    # and refuse it the same way, so it is refused after one pole sum
    counts = []
    pole_sum = propagator._pole_sum

    def counted(plan):
        out = pole_sum(plan)
        counts.append(int(plan.level.max()))   # the counts the plan holds
        return out

    monkeypatch.setattr(propagator, "_pole_sum", counted)
    with pytest.raises(NotConverged, match=r"N=1024 exact poles \(cap 2048\)"):
        trace(0.05, np.array([1e-3]), gaas, poles=gaas_cache)
    assert counts == [propagator.HARD_CAP // 2]


@pytest.mark.parametrize("x,times,first", [
    # 1e-3 fs after release the exponentials next to the shutter are
    # damped only past the cap's pool
    pytest.param(0.05, [1e-3], "0.001", id="shutter"),
    # at 0.005 fs the Moshinsky centre k_c sits near pole 1180 for x = 8 nm,
    # so the exact poles and their pool would exceed the cap
    pytest.param(8.0, np.linspace(0.005, 30.0, 50), "0.005", id="beyond"),
    # the large-argument weights overflow, and the sum is not finite
    pytest.param(8.0, [1e-300], "1e-300", id="overflow"),
    pytest.param(0.001, np.linspace(1e-5, 9e-5, 3), "1e-05", id="inside")])
def test_not_converged_says_where_and_by_how_much(gaas, gaas_cache, x, times,
                                                  first):
    # one check refuses every miss, and its message names x, tol, the first
    # time missed, a finite or infinite worst estimate, N and the cap
    with pytest.raises(NotConverged) as info:
        trace(x, np.array(times), gaas, poles=gaas_cache)
    msg = str(info.value)
    for part in (f"x={x}", f"from t={first} fs", "error estimate",
                 "N=1024 exact poles (cap 2048)", "tol=1.0e-08"):
        assert part in msg
    assert "nan" not in msg


def test_merging_pole_pair_fails_fast():
    # within about 3e-5 of alpha_m the roundoff of the two merging poles
    # costs more than tol 1e-8; the guard raises before any pole sum, unless
    # the pole search has already named the pair's root
    V, m, alpha_m = 0.3, 0.067, 1.325486838698363
    t = np.linspace(0.5, 30.0, 20)

    def system(d):
        return make_system(V, V / 300.0, length_for_alpha(alpha_m + d, V, m),
                           m)

    for d in (-2e-7, -1e-7, 0.0, 1e-9, 1e-8, 1e-7):
        sys_ = system(d)
        with pytest.raises((MergingPolePair, PoleNotConverged)) as info:
            trace(sys_.L, t, sys_, tol=1e-8)
        if d in (-1e-7, 1e-7):
            side = "<" if d < 0 else ">"
            assert str(info.value).startswith(
                "the poles that merge at alpha_m lie 0.00186/L apart, with "
                f"alpha - alpha_m {side} 0: expected loss ")
    for d in (-1e-3, 1e-3):
        sys_ = system(d)
        assert np.all(trace(sys_.L, t, sys_, tol=1e-8).trunc_error_est
                      <= 1e-8)


def test_domain_validation(gaas, gaas_cache):
    with pytest.raises(XOutOfRange):
        trace(-1.0, np.array([1.0]), gaas)
    with pytest.raises(XOutOfRange):
        psi_internal(gaas.L + 1.0, 1.0, gaas, poles=gaas_cache)
    with pytest.raises(XOutOfRange):
        psi_external(gaas.L - 1.0, 1.0, gaas, poles=gaas_cache)
    with pytest.raises(NonPositiveTime):
        trace(2.0, np.array([2.0, 1.0]), gaas, poles=gaas_cache)
    for first in (0.0, -1.0):
        with pytest.raises(NonPositiveTime, match="times must be > 0"):
            trace(2.0, np.array([first, 1.0]), gaas, poles=gaas_cache)
    with pytest.raises(NonPositiveTime):
        psi_internal(2.0, 0.0, gaas, poles=gaas_cache)
    for bad in (np.inf, np.nan):
        with pytest.raises(XOutOfRange, match="x="):
            trace(bad, np.array([1.0]), gaas, poles=gaas_cache)
        with pytest.raises(XOutOfRange, match="x="):
            psi_external(bad, 1.0, gaas, poles=gaas_cache)
        with pytest.raises(NonPositiveTime):
            trace(2.0, np.array([1.0, bad]), gaas, poles=gaas_cache)
        with pytest.raises(NonPositiveTime):
            psi_internal(2.0, bad, gaas, poles=gaas_cache)


@pytest.mark.parametrize("x_of", [lambda s: s.L, lambda s: 6.0],
                         ids=["inside", "outside"])
def test_one_moshinsky_call_per_pass(gaas, gaas_cache, monkeypatch, x_of):
    # every time sums its own exact poles, and the incident pair, in one
    # call, whatever its exact-pole count: inside at x = L and outside
    calls = []
    inner = propagator.moshinsky_m_dt

    def spy(*args):
        calls.append(np.size(args[1]))
        return inner(*args)

    monkeypatch.setattr(propagator, "moshinsky_m_dt", spy)
    x = x_of(gaas)
    ts = np.geomspace(0.3, 30.0, 40)
    tr = trace(x, ts, gaas, poles=gaas_cache)
    assert len(calls) == 1
    assert calls[0] > 2 * len(ts) and tr.n_terms_used > 2


def test_second_pass_makes_a_second_moshinsky_call(monkeypatch):
    # the system of test_second_pass_sized_from_psi: the second pass over
    # its few times is the one further call
    V, m = 0.3, 0.067
    sys_ = make_system(V, V / 6.61, length_for_alpha(0.894, V, m), m)
    calls = []
    inner = propagator.moshinsky_m_dt

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(propagator, "moshinsky_m_dt", spy)
    trace(8.25 * sys_.L, np.geomspace(0.1239, 75.62, 60), sys_, tol=1e-8)
    assert len(calls) == 2


def _scan_chunk(sys_, x):
    """The first chunk of a peak search's scan grid at x."""
    return np.linspace(*default_window(sys_, x), PEAK_SCAN)[:PEAK_SCAN // 8]


def _probes(gaas):
    V, m = 0.3, 0.067
    for alpha in (2.14, 3.0, 6.0):
        sys_ = make_system(V, V / 300.0, length_for_alpha(alpha, V, m), m)
        yield sys_, sys_.L, _scan_chunk(sys_, sys_.L)
    for x in (2.0, 6.0, 20.0):
        yield gaas, x, _scan_chunk(gaas, x)
    yield gaas, 0.05, np.array([0.5])


def test_exponential_cut_stays_inside_the_error_estimate(gaas, monkeypatch):
    # the damped exponentials are evaluated only up to a cut past which
    # they are bounded; that bound is part of trunc_error_est, which must
    # then cover the gap to a tol-1e-12 trace
    dropped = []
    inner = propagator._exponentials

    def spy(*args):
        out = inner(*args)
        dropped.append(out[2])
        return out

    for sys_, x, ts in _probes(gaas):
        table = pole_cache(sys_)
        with monkeypatch.context() as patch:
            patch.setattr(propagator, "_exponentials", spy)
            tr = trace(x, ts, sys_, poles=table, tol=1e-8)
        ref = trace(x, ts, sys_, poles=table, tol=1e-12)
        gap = np.abs(tr.psi - ref.psi)
        assert np.all(gap <= (tr.trunc_error_est + 1e-15) * np.abs(tr.psi)), \
            (sys_.alpha, x, np.max(gap / np.abs(tr.psi) / tr.trunc_error_est))
    # the cut drops pool poles at some time of every probe
    assert len(dropped) >= 7 and all(np.any(d > 0.0) for d in dropped)


def test_each_time_sums_its_own_exact_count(monkeypatch):
    # every time sums the exact poles its own bound asks for, up to P/2 on
    # a pool of P poles, and no more: on an opaque scan chunk the counts
    # run over many values, not only powers of two
    V, m = 0.3, 0.067
    sys_ = make_system(V, V / 300.0, length_for_alpha(3.0, V, m), m)
    ts = _scan_chunk(sys_, sys_.L)
    needs, heads = [], []
    count, inner = propagator._count, propagator._heads

    def spy_count(*args):
        out = count(*args)
        needs.append(out)
        return out

    def spy_heads(plan):
        heads.append((plan.level, int(plan.size[0])))
        return inner(plan)

    monkeypatch.setattr(propagator, "_count", spy_count)
    monkeypatch.setattr(propagator, "_heads", spy_heads)
    tr = trace(sys_.L, ts, sys_, tol=1e-6)
    assert len(heads) == 1
    level, pool = heads[0]
    # the planner counts one time as it sizes the pool, then every time in
    # blocks of two or more
    need = np.concatenate([n for n in needs if len(n) > 1])
    assert np.array_equal(level, np.minimum(need, pool // 2))
    counts = np.unique(level)
    assert len(counts) > 5
    assert np.any(counts & (counts - 1))     # not a power of two
    assert tr.n_terms_used == 230


def test_times_that_need_no_exact_pole_sum_none():
    # late in the window of a thin barrier (alpha = 0.83, two antibound
    # poles) no time needs an exact pole: the trace sums only +-k and the
    # antibound pair, and the series carries every resonance pole
    sys_ = make_system(0.3, 0.001, 1.145374328, 0.067)
    ts = np.linspace(48.0, 55.0, 150)
    table = pole_cache(sys_)
    tr = trace(sys_.L, ts, sys_, poles=table, tol=1e-6)
    ref = trace(sys_.L, ts, sys_, poles=table, tol=1e-12)
    assert len(table.axis_poles) == 2 and tr.n_terms_used == 4
    gap = np.abs(tr.psi - ref.psi)
    assert np.all(gap <= (tr.trunc_error_est + 1e-15) * np.abs(tr.psi))


def _window_cases():
    """The two edge barriers whose whole-window traces missed tol, then
    seeded (alpha, u) barriers, alpha in [1.5, 9] and u log-uniform in
    [3, 3000], probed inside, mid-barrier and at the edge."""
    V, m, rng = 0.3, 0.067, random.Random(8)
    for u, L, tol in ((39.0, 3.72, 1e-8), (137.0, 3.21, 1e-10)):
        yield pytest.param(make_system(V, V / u, L, m), 1.0, tol,
                           id=f"u{u:g}-edge")
    for d in range(3):
        alpha = rng.uniform(1.5, 9.0)
        u = math.exp(rng.uniform(math.log(3.0), math.log(3000.0)))
        sys_ = make_system(V, V / u, length_for_alpha(alpha, V, m), m)
        for share in (0.25, 0.5, 1.0):
            for tol in (1e-8, 1e-10):
                yield pytest.param(sys_, share, tol,
                                   id=f"draw{d}-{share:g}L-{tol:g}")


@pytest.mark.parametrize("sys_,share,tol", _window_cases())
def test_whole_window_meets_tol_at_its_first_times(sys_, share, tol):
    # a trace over a whole default window keeps few exact poles at its
    # latest times; its first times, which subtract many exact terms on
    # the ring, must still read what they read traced alone.  One ring
    # for the whole window missed by 2.6 and 7.5 tol on the two edge
    # barriers, and by up to 3.1 tol on the draws
    x, table = share * sys_.L, pole_cache(sys_)
    ts = np.linspace(*default_window(sys_, sys_.L), PEAK_SCAN)
    tr = propagator._direct(x, ts, sys_, poles=table, tol=tol)
    for i in range(8):
        ref = trace(x, ts[i:i + 1], sys_, poles=table, tol=1e-3 * tol)
        err = abs(tr.psi[i] - ref.psi[0]) / abs(ref.psi[0])
        assert err <= tol, (i, err)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: a trace of fewer "
                   "than 2 _RUN times takes its earliest time's omitted "
                   "moments from the one ring of its latest times")
def test_short_trace_over_a_wide_window_meets_tol_within_its_estimate():
    # qtransient --V 0.3 --E 0.19957178310361054 --L 1.6767299556191608
    #   --mass-ratio 0.067 --tol 1e-10 evolve --x 0.8583241720991515
    #   --tmin 0.04618246056507653 --tmax 57.72807570634566 --steps 300
    # (alpha 1.218, u 1.503, x/L 0.512): one run, one ring.  Row 0 is off
    # by 3.9e-10 of |psi| while its estimate reads 3.4e-12
    sys_ = make_system(0.3, 0.19957178310361054, 1.6767299556191608, 0.067)
    x, table = 0.8583241720991515, pole_cache(sys_)
    ts = np.linspace(0.04618246056507653, 57.72807570634566, 300)
    tr = trace(x, ts, sys_, poles=table, tol=1e-10)
    ref = np.array([trace(x, [t], sys_, poles=table, tol=1e-13).psi[0]
                    for t in ts])
    err = np.abs(tr.psi - ref) / np.abs(ref)
    assert np.all(err <= 1e-10), (np.argmax(err), err.max())
    assert np.all(tr.trunc_error_est >= err), \
        np.flatnonzero(tr.trunc_error_est < err)


def test_runs_split_long_traces_where_t_has_doubled():
    run = propagator._RUN
    # a trace under two runs' length is one run, however fast t grows
    for n in range(1, 2 * run):
        assert propagator._runs(np.geomspace(0.1, 1e3, n)) == [slice(0, n)]
    t = np.linspace(0.5, 30.0, 2000)
    runs = propagator._runs(t)
    assert len(runs) > 1
    assert runs[0].start == 0 and runs[-1].stop == len(t)
    for a, b in zip(runs, runs[1:]):
        assert a.stop == b.start
        # each run ends where t has doubled, or at its least length
        assert t[a.stop] >= 2.0 * t[a.start]
        assert a.stop - a.start == run or t[a.stop - 1] < 2.0 * t[a.start]
    assert all(r.stop - r.start >= run for r in runs)


def _old_runs(t, run):
    runs, lo = [], 0
    while lo < len(t):
        hi = max(lo + run, int(np.searchsorted(t, 2.0 * t[lo])))
        if len(t) - hi < run:
            hi = len(t)
        runs.append(slice(lo, hi))
        lo = hi
    return runs


def _old_blocks(n, width, rows):
    step = max(2, rows // width)
    edges = [0, *range(step, n - 1, step), n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _old_chunks(width, limit):
    ends = np.cumsum(width)
    lo = 0
    while lo < len(width):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - width[lo]
                                             + limit, side="right")))
        yield slice(lo, hi)
        lo = hi


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 300), st.integers(1, 2000),
       st.integers(1, 1 << 16), st.floats(0.0, 20.0), st.integers(0, 300),
       st.integers(0, 2 ** 32 - 1))
def test_one_splitter_cuts_as_the_runs_blocks_and_chunks_did(
        n, least, width, budget, spread, most, seed):
    # the run, block and chunk rules that _slices replaced, kept above as
    # the references: each of its calls cuts exactly their slices.  The
    # times rise linearly, times a factor of up to e^spread
    rng = np.random.default_rng(seed)
    t = (np.cumsum(1e-3 + rng.random(n))
         * np.exp(np.cumsum(rng.random(n)) * (spread / n)))
    assert propagator._runs(t) == _old_runs(t, propagator._RUN)
    assert propagator._slices(
        n, least, lambda lo: np.searchsorted(t, 2.0 * t[lo])) == \
        _old_runs(t, least)
    for rows in (propagator._ROWS, budget):
        assert propagator._slices(n, 2, lambda lo: lo + rows // width) == \
            _old_blocks(n, width, rows)
    # the chunks _ragged_sums forms, some times empty, some wider than the
    # limit; integer terms make every sum exact
    count = rng.integers(0, most + 1, n) * (rng.random(n) < 0.8)
    limit = budget % (100 * most + 1) + 1
    chunks = []

    def terms(rows, n, pos):
        chunks.append(rows)
        return pos.astype(complex), 1j * np.repeat(np.arange(n.size), n) \
            + 1j * rows.start

    sums = propagator._ragged_sums(count, limit, terms)
    assert chunks == (list(_old_chunks(count, limit)) if count.any() else [])
    assert np.array_equal(sums[0], count * (count - 1) / 2.0)
    assert np.array_equal(sums[1], 1j * np.arange(n) * count)

def test_long_trace_sums_each_run_on_its_own(gaas, gaas_cache):
    # every run sizes its pool, and inside its ring, at its own first time,
    # so a long trace is bitwise its runs traced one by one; and the pool
    # of the earliest run no longer spans the whole trace: GaAs at 8 nm
    # over 2000 times held 15.8 MiB with one pool, and 5.6 MiB with one
    # block of times per run
    t = np.linspace(0.5, 30.0, 2000)
    for x in (8.0, 2.0):
        tracemalloc.start()
        tr = propagator._direct(x, t, gaas, poles=gaas_cache)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if x == 8.0:
            assert peak <= 3 * 2 ** 20
        for run in propagator._runs(t):
            part = propagator._direct(x, t[run], gaas, poles=gaas_cache)
            assert np.array_equal(part.psi, tr.psi[run])
            assert np.array_equal(part.dpsi_dt, tr.dpsi_dt[run])
            assert np.array_equal(part.trunc_error_est,
                                  tr.trunc_error_est[run])


@pytest.mark.parametrize("x", [2.0, 6.0])
def test_whole_pass_in_blocks_is_bitwise_one_block(gaas, gaas_cache,
                                                   monkeypatch, x):
    # the omitted-term bounds, the ring or circle moments with their series
    # and the exponentials are formed in blocks of times under one element
    # budget; a budget of a few rows per block sums, inside the barrier and
    # beyond it, bit for bit what one block per run sums.  Inside, the
    # earliest times also evaluate damped exponentials (384 terms at 2 nm),
    # which that budget splits; beyond it, no time here evaluates one
    t = np.linspace(0.05, 30.0, 3000)
    assert len(propagator._runs(t)) >= 2
    names = ("_count", "_moments", "chunks")
    calls = dict.fromkeys(names, 0)

    def counted(name, inner):
        def spy(*args):
            calls[name] += 1
            return inner(*args)
        return spy

    def ragged(count, limit, terms):
        # each chunk a ragged sum forms is one call of its terms
        return ragged_sums(count, limit, counted("chunks", terms))

    ragged_sums = propagator._ragged_sums
    for name in names[:2]:
        monkeypatch.setattr(propagator, name,
                            counted(name, getattr(propagator, name)))
    monkeypatch.setattr(propagator, "_ragged_sums", ragged)
    monkeypatch.setattr(propagator, "_ROWS", 1 << 40)
    whole = propagator._direct(x, t, gaas, poles=gaas_cache)
    once = dict(calls)
    calls.update(dict.fromkeys(names, 0))
    monkeypatch.setattr(propagator, "_ROWS", 3 * propagator._RING)
    blocked = propagator._direct(x, t, gaas, poles=gaas_cache)
    assert calls["_count"] > 10 * once["_count"]
    assert calls["_moments"] > 10 * once["_moments"]
    assert (calls["chunks"] > once["chunks"]) == (x < gaas.L)
    for got, want in ((blocked.psi, whole.psi),
                      (blocked.dpsi_dt, whole.dpsi_dt),
                      (blocked.trunc_error_est, whole.trunc_error_est)):
        assert got.tobytes() == want.tobytes()
    assert blocked.n_terms_used == whole.n_terms_used


@pytest.mark.parametrize("x", [2.0, 8.0])
def test_long_trace_memory_does_not_grow_with_its_times(gaas, gaas_cache, x):
    # 20,000 times over 0.5-30 fs held 22.3 MiB at 2 nm and 26.5 MiB at
    # 8 nm while a run's times formed each table in one block
    t = np.linspace(0.5, 30.0, 20000)
    tracemalloc.start()
    propagator._direct(x, t, gaas, poles=gaas_cache)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 8 * 2 ** 20
