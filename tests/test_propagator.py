"""Transient wavefunction: continuity, limits, and the equation of motion.

Oracles:
* [DERIVED] the internal and external expansions are algebraically unrelated
  (different coefficients, different Moshinsky arguments) yet must agree at
  the interface x = L;
* [DERIVED] pinned reference values, cross-validated against the
  grid oracle by Richardson extrapolation in dx;
* [TRIVIAL] the full wave must satisfy the barrier Schroedinger equation
  i hbar dPsi/dt = -c2 Psi'' + V Psi (finite-difference Laplacian);
* [DERIVED] the transmitted density at the barrier edge settles to the
  stationary value |T_k|^2 at long times.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qtransient import (find_poles, pole_cache, propagator, psi_external,
                        psi_internal, trace, transmission)
from qtransient.errors import (NonPositiveTime, NotConverged, XOutOfRange)
from qtransient.systems import HBAR_EV_FS as HBAR

# pinned reference values for the GaAs barrier, converged to ~1e-11 with
# 16384 poles and confirmed by the grid oracle under dx refinement
REF_X2_T5 = 0.015286341495169617 - 0.025048009083664526j
REF_X4_T13 = 4.16937559e-03 - 8.48962293e-03j
REF_X8_T13 = 7.97166545e-03 - 6.57388317e-04j


@pytest.mark.parametrize("t", [1.0, 5.0, 13.0])
def test_interface_continuity(gaas, gaas_cache, t):
    inner = psi_internal(gaas.L, t, gaas, poles=gaas_cache, tol=1e-9)
    outer = psi_external(gaas.L, t, gaas, poles=gaas_cache, tol=1e-9)
    assert abs(inner.psi - outer.psi) <= 1e-8 * abs(outer.psi)
    assert abs(inner.dpsi_dt - outer.dpsi_dt) <= 1e-7 * abs(outer.dpsi_dt)


def test_pinned_reference_values(gaas, gaas_cache):
    s = psi_internal(2.0, 5.0, gaas, poles=gaas_cache, tol=1e-10)
    assert abs(s.psi - REF_X2_T5) <= 1e-9
    a = psi_external(4.0, 13.0, gaas, poles=gaas_cache, tol=1e-9)
    assert abs(a.psi - REF_X4_T13) <= 5e-10
    b = psi_external(8.0, 13.0, gaas, poles=gaas_cache, tol=1e-9)
    assert abs(b.psi - REF_X8_T13) <= 5e-10


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


def test_wave_vanishes_before_release(gaas, gaas_cache):
    tr = trace(2.0, np.array([5e-5, 1.0]), gaas, poles=gaas_cache)
    assert tr.psi[0] == 0.0 and tr.dpsi_dt[0] == 0.0
    assert abs(tr.psi[1]) > 0.0


def test_long_time_density_reaches_stationary(gaas, gaas_cache):
    T2 = abs(transmission(gaas.k, gaas)) ** 2
    for t in (3e4, 1e5, 3e5):
        s = psi_external(gaas.L, t, gaas, poles=gaas_cache, tol=1e-10)
        assert abs(abs(s.psi) ** 2 / T2 - 1.0) <= 1e-3


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


@pytest.mark.parametrize("x", [2.0, 6.0])
def test_extended_cache_reuse_is_exact(gaas, x):
    # the pole sequence is prefix-stable, so neither a cache that other
    # positions in both regions have extended nor a repeat at the same x
    # moves a single bit
    ts = np.linspace(1.0, 12.0, 40)
    fresh = trace(x, ts, gaas, poles=pole_cache(gaas), tol=1e-9)
    shared = pole_cache(gaas)
    trace(3.0, ts, gaas, poles=shared, tol=1e-9)
    trace(12.0, np.linspace(10.0, 20.0, 20), gaas, poles=shared, tol=1e-9)
    assert shared.poleset.N_max >= 1024
    first = trace(x, ts, gaas, poles=shared, tol=1e-9)
    again = trace(x, ts, gaas, poles=shared, tol=1e-9)
    for tr in (first, again):
        assert np.array_equal(tr.psi, fresh.psi)
        assert np.array_equal(tr.dpsi_dt, fresh.dpsi_dt)
        assert np.array_equal(tr.trunc_error_est, fresh.trunc_error_est)
        assert tr.n_terms_used == fresh.n_terms_used


def test_shared_cache_under_concurrent_extension(gaas, monkeypatch):
    # more threads than cores, switching every microsecond, extend fresh
    # caches to mixed depths at once; a lost update would hand a thread
    # fewer poles than it asked for, a pole twice, a gap in the ladder, or
    # a cache shorter than the deepest request
    depths = (16, 256, 32, 128, 64, 256, 16, 128)
    ref = pole_cache(gaas)
    want = {n: [p.k for p in ref.poles(n)] for n in set(depths)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            cache = pole_cache(gaas)
            with ThreadPoolExecutor(max_workers=len(depths)) as pool:
                futures = [pool.submit(cache.poles, n) for n in depths]
                got = [f.result(timeout=120) for f in futures]
            for n, poles in zip(depths, got):
                assert [p.k for p in poles] == want[n]
            poles = cache.poleset.poles
            assert [p.n for p in poles] == list(range(1, len(poles) + 1))
            assert len(poles) == max(depths)
    finally:
        sys.setswitchinterval(interval)

    # a short extension held until a long one has finished must not leave
    # the cache short: under the lock the short one waits out its timeout
    # and the long one extends after it; without the lock the long one
    # finishes first and the short one's late store shrinks the cache
    long_done, short_started = threading.Event(), threading.Event()

    def paced(sys_, n, **kwargs):
        if n == 32:
            short_started.set()
            long_done.wait(timeout=0.5)
        out = find_poles(sys_, n, **kwargs)
        if n == 64:
            long_done.set()
        return out

    monkeypatch.setattr(propagator, "find_poles", paced)
    cache = pole_cache(gaas)
    with ThreadPoolExecutor(max_workers=2) as pool:
        short = pool.submit(cache.poles, 32)
        assert short_started.wait(timeout=60)
        long_ = pool.submit(cache.poles, 64)
        assert len(short.result(timeout=60)) == 32
        assert len(long_.result(timeout=60)) == 64
    assert cache.poleset.N_max == 64


def test_error_estimates_within_tolerance(gaas, gaas_cache):
    tr = trace(gaas.L, np.linspace(1.0, 10.0, 7), gaas,
               poles=gaas_cache, tol=1e-9)
    assert np.all(tr.trunc_error_est <= 1e-9)
    assert tr.n_terms_used >= 2


def test_not_converged_at_tiny_cap(gaas):
    with pytest.raises(NotConverged):
        trace(2.0, np.array([0.5]), gaas, tol=1e-13, cap=4)


def test_not_converged_says_where_and_by_how_much(gaas):
    with pytest.raises(NotConverged) as info:
        trace(8.0, np.linspace(1.0, 30.0, 50), gaas, cap=16)
    msg = str(info.value)
    for part in ("x=8", "t=", "error estimate", "of 50 time points", "cap 16"):
        assert part in msg


def test_domain_validation(gaas, gaas_cache):
    with pytest.raises(XOutOfRange):
        trace(-1.0, np.array([1.0]), gaas)
    with pytest.raises(XOutOfRange):
        psi_internal(gaas.L + 1.0, 1.0, gaas, poles=gaas_cache)
    with pytest.raises(XOutOfRange):
        psi_external(gaas.L - 1.0, 1.0, gaas, poles=gaas_cache)
    with pytest.raises(NonPositiveTime):
        trace(2.0, np.array([2.0, 1.0]), gaas, poles=gaas_cache)
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
