"""Time-frequency diagnostics and the transient-peak finder.

Oracles:
* [TRIVIAL] omega_av^2 + sigma^2 = |dPsi/dt|^2 / |Psi|^2 identically;
* [DERIVED] omega_av equals minus the finite-difference rate of the
  unwrapped phase of Psi;
* [DERIVED] pinned peak data for the GaAs reference barrier (t_max,
  frequency ratio, height ratio), converged under pole-count and scan
  refinement;
* [DERIVED] beyond the barrier the peak find reaches the tolerance asked
  for, and a miss is reported at that tolerance, not the scan's.
"""

import math

import numpy as np
import pytest

from qtransient import (find_time_domain_resonance, local_frequency,
                        make_system, spectrogram, trace)
from qtransient.analysis import default_window
from qtransient.errors import (AmplitudeUnderflow, NotConverged,
                               WindowTooNarrow)
from qtransient.systems import length_for_alpha

REF_T_MAX = 5.169962793690934
REF_OMEGA_RATIO = 0.80750851866800455
REF_HEIGHT_RATIO = 1.1744800517103586


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


def test_reference_peak_values(gaas, gaas_cache):
    tdr = find_time_domain_resonance(gaas, poles=gaas_cache)
    assert tdr.exists
    assert abs(tdr.t_max - REF_T_MAX) <= 1e-6
    assert abs(tdr.omega_ratio - REF_OMEGA_RATIO) <= 1e-8
    assert abs(tdr.height_ratio - REF_HEIGHT_RATIO) <= 1e-8
    assert tdr.omega_av == pytest.approx(tdr.omega_ratio * gaas.omegaV)


def test_peak_invariant_under_scan_refinement(gaas, gaas_cache):
    # the same number of scan points over a shorter and a longer window
    lo, hi = default_window(gaas, gaas.L)
    fine = find_time_domain_resonance(gaas, t_window=(lo, 0.6 * hi),
                                      poles=gaas_cache)
    coarse = find_time_domain_resonance(gaas, t_window=(lo, 2.0 * hi),
                                        poles=gaas_cache)
    assert abs(coarse.t_max - fine.t_max) <= 1e-6


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


def test_window_validation(gaas):
    with pytest.raises(WindowTooNarrow):
        find_time_domain_resonance(gaas, t_window=(0.0, 5.0))


@pytest.mark.parametrize("x_over_L,alpha,u,tol", [
    (2.0, None, None, None), (2.0, None, None, 1e-9),
    (2.0, 6.0, 30.0, 1e-8), (2.0, 6.0, 3000.0, 1e-8),
    (2.0, 9.0, 30.0, 1e-8), (2.0, 9.0, 3000.0, 1e-8),
    (6.0, None, None, 1e-9), (15.0, None, None, 1e-9),
])
def test_peak_converges_beyond_the_barrier(gaas, x_over_L, alpha, u, tol):
    # GaAs (alpha None) or an (alpha, u) barrier at V = 0.3 eV; tol None is
    # the default of find_time_domain_resonance.  The scan brackets at
    # SCAN_TOL, so only the polish has to reach tol.
    sys_ = gaas
    if alpha is not None:
        V, m = 0.3, 0.067
        sys_ = make_system(V, V / u, length_for_alpha(alpha, V, m), m)
    kwargs = {} if tol is None else {"tol": tol}
    tdr = find_time_domain_resonance(sys_, x=x_over_L * sys_.L, **kwargs)
    assert tdr.exists
    if tol is None:
        assert tdr.omega_ratio < 1.0


def test_scan_tolerance_does_not_leak_into_reported_values(gaas, gaas_cache):
    # 1e-12 is out of reach at 8 nm; the scan brackets at SCAN_TOL, so the
    # miss surfaces in the polish at the caller's tol
    with pytest.raises(NotConverged, match="tol=1.0e-12") as info:
        find_time_domain_resonance(gaas, x=8.0, tol=1e-12, poles=gaas_cache)
    assert "bracketing scan" not in str(info.value)
