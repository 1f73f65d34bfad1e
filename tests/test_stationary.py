"""Stationary scattering amplitudes: unitarity, matching, and phase delay.

Oracles:
* [TRIVIAL] flux conservation |T|^2 + |R|^2 = 1 for real incidence;
* [TRIVIAL] the internal solution must match the boundary values
  Phi(0) = 1 + R and Phi(L) = T exp(ikL);
* [DERIVED] the transmission phase delay changes sign between small and
  large opacity (checked at alpha = 1.5 and the reference alpha ~ 2.9);
* [DERIVED] the pole function G = D/q is bitwise the quotient of its two
  terms on a grid of the pole zone, and at the removable point q ~ 0,
  where it takes its series branch, it agrees with D/q at 40 digits.
"""

import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtransient import make_system
from qtransient.errors import XOutOfRange, ZeroWavenumber
from qtransient.stationary import (_q_of_k, phase_time_delay,
                                   phi_stationary, pole_function, reflection,
                                   transmission)
from qtransient.systems import length_for_alpha

SYSTEMS = [
    make_system(0.3, 0.001, 4.0, 0.067),   # deep tunneling, GaAs mass
    make_system(0.3, 0.01, 4.0, 0.067),
    make_system(1.0, 0.5, 2.0, 1.0),
    make_system(0.3, 0.5, 2.0, 0.067),     # over the barrier
    make_system(0.05, 0.049, 5.0, 1.0),    # near-top
]


@pytest.mark.parametrize("sys_", SYSTEMS)
def test_unitarity(sys_):
    t = transmission(sys_.k, sys_)
    r = reflection(sys_.k, sys_)
    assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.floats(1e-3, 5.0), st.floats(0.01, 3.0),
       st.floats(0.1, 10.0), st.floats(0.05, 2.0))
def test_unitarity_random(V, ratio, L, mass_ratio):
    assume(abs(ratio - 1.0) > 1e-3)
    sys_ = make_system(V, V * ratio, L, mass_ratio)
    assume(sys_.alpha < 50.0)  # keep exp(kappa L) representable
    t = transmission(sys_.k, sys_)
    r = reflection(sys_.k, sys_)
    assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) <= 1e-11


@pytest.mark.parametrize("sys_", SYSTEMS)
def test_internal_solution_matches_boundaries(sys_):
    t = transmission(sys_.k, sys_)
    r = reflection(sys_.k, sys_)
    left = complex(phi_stationary(0.0, sys_.k, sys_))
    right = complex(phi_stationary(sys_.L, sys_.k, sys_))
    assert abs(left - (1.0 + r)) <= 1e-12 * abs(1.0 + r)
    exact = t * cmath.exp(1j * sys_.k * sys_.L)
    assert abs(right - exact) <= 1e-12 * abs(exact)


def test_phase_delay_sign_flips_with_opacity():
    V, m = 0.3, 0.067
    low = make_system(V, 0.001, length_for_alpha(1.5, V, m), m)
    high = make_system(V, 0.001, length_for_alpha(2.9, V, m), m)
    assert phase_time_delay(low) > 0.0
    assert phase_time_delay(high) < 0.0


def test_transmission_accepts_complex_arrays(gaas):
    ks = np.array([gaas.k + 0.0j, -gaas.k + 0.0j, 1.0 - 0.2j])
    vals = transmission(ks, gaas)
    assert vals.shape == (3,)
    assert complex(vals[0]) == transmission(gaas.k, gaas)


def test_zero_wavenumber_rejected(gaas):
    with pytest.raises(ZeroWavenumber):
        transmission(0.0, gaas)
    with pytest.raises(ZeroWavenumber):
        reflection(0.0, gaas)


def test_phi_stationary_domain(gaas):
    with pytest.raises(XOutOfRange):
        phi_stationary(-0.1, gaas.k, gaas)
    with pytest.raises(XOutOfRange):
        phi_stationary(gaas.L + 0.1, gaas.k, gaas)


# at V = 1 eV, m = m_e no double k near sqrt(v) squares to v exactly, so
# |q| never drops below 1e-8 there and the series branch is out of reach
@pytest.mark.parametrize("sys_", SYSTEMS[:2] + SYSTEMS[3:])
def test_pole_function_series_branch_matches_d_over_q(sys_):
    # on a grid of the pole zone G is bitwise D/q; at |q| < 1e-8 (k^2 ~ v)
    # it takes its series branch, which must match D/q at 40 digits
    mp = pytest.importorskip("mpmath")
    v, L = sys_.v_strength, sys_.L
    re = np.linspace(1e-3 / L, 8.0 / L, 41)
    im = np.linspace(-6.0 / L, -1e-4 / L, 29)
    kk = re[:, None] + 1j * im[None, :]
    root = np.sqrt(v)
    kk[0, :17] = root + np.arange(-8, 9) * np.spacing(root)
    q = _q_of_k(kk, v)
    small = np.abs(q) < 1e-8
    assert np.sum(small) >= 1
    got = pole_function(kk, sys_)
    with np.errstate(invalid="ignore", divide="ignore"):
        want = ((kk + q) ** 2 * np.exp(-1j * q * L)
                - (kk - q) ** 2 * np.exp(1j * q * L)) / q
    assert np.array_equal(got[~small], want[~small])
    with mp.workdps(40):
        for k, g in zip(kk[small].tolist(), got[small].tolist()):
            z = mp.mpc(k.real, k.imag)
            qm = mp.sqrt(z * z - mp.mpf(v))
            ref = complex(((z + qm) ** 2 * mp.exp(-1j * qm * L)
                           - (z - qm) ** 2 * mp.exp(1j * qm * L)) / qm)
            assert abs(g - ref) <= 1e-14 * abs(ref)
