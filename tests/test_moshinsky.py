"""Moshinsky function: limits, derivatives, and the free equation of motion.

Oracles:
* [DERIVED] the analytic time derivative is checked against a central finite
  difference of the function itself;
* [DERIVED] the function must satisfy the free Schroedinger equation
  i hbar dM/dt = -c2 d^2M/dx^2 (finite-difference Laplacian);
* [PAPER-level asymptotics, rederivable] for real q > 0 the long-time limit
  is the plane wave (|M| -> 1, the classically allowed front has passed),
  while M(x, -q, t) -> 0 (no left-moving wave survives at the probe);
* [TRIVIAL] at a scalar x = 0 the shortcut that skips the unit phase and
  the vanishing a-terms gives bitwise what the general form gives.
"""

import numpy as np
import pytest

from qtransient.errors import NonPositiveTime
from qtransient.moshinsky import moshinsky_m, moshinsky_m_dt
from qtransient.systems import HBAR_EV_FS as HBAR

C2 = 0.5686537313432836  # hbar^2/2m for m/m_e = 0.067, eV nm^2

CASES = [
    (0.0, 0.04193 + 0.0j, 5.0),
    (2.0, 0.72512 - 0.3j, 3.0),
    (4.0, -0.04193 + 0.0j, 13.0),
    (8.0, 1.5 - 0.8j, 1.0),
    (1.0, -2.0 - 1.0j, 0.5),
]


@pytest.mark.parametrize("x,q,t", CASES)
def test_time_derivative_matches_finite_difference(x, q, t):
    _, dm = moshinsky_m_dt(x, q, t, C2)
    h = 1e-5 * t
    fd = (moshinsky_m(x, q, t + h, C2) - moshinsky_m(x, q, t - h, C2)) / (2 * h)
    assert abs(dm - fd) <= 1e-7 * max(abs(dm), abs(fd))


@pytest.mark.parametrize("x,q,t", CASES)
def test_free_schroedinger_equation(x, q, t):
    m, dm = moshinsky_m_dt(x, q, t, C2)
    h = 2e-4
    lap = (moshinsky_m(x + h, q, t, C2) - 2.0 * m
           + moshinsky_m(x - h, q, t, C2)) / (h * h)
    resid = 1j * HBAR * dm + C2 * lap
    scale = max(abs(HBAR * dm), abs(C2 * lap), abs(m))
    assert abs(resid) <= 1e-6 * scale


def test_long_time_limits():
    q = 1.0
    x = 1.0
    t = 1e6
    allowed = moshinsky_m(x, q, t, C2)
    forbidden = moshinsky_m(x, -q, t, C2)
    assert abs(abs(allowed) - 1.0) < 5e-3
    assert abs(forbidden) < 5e-3


def test_short_time_smallness():
    # ahead of the front the function is small (algebraic forerunner tail,
    # |M| ~ sqrt(t c2/hbar) / (2 sqrt(pi) x) far ahead of the classical front)
    early = abs(moshinsky_m(5.0, 1.0, 1e-4, C2))
    settled = abs(moshinsky_m(5.0, 1.0, 1e4, C2))
    assert early < 2e-3
    assert early < 1e-2 * settled


def test_broadcasting_and_scalar_types():
    q = np.array([0.5 + 0.0j, -0.5 + 0.0j, 1.0 - 0.2j])[None, :]
    t = np.array([1.0, 2.0])[:, None]
    m, dm = moshinsky_m_dt(1.0, q, t, C2)
    assert m.shape == (2, 3) and dm.shape == (2, 3)
    m00, dm00 = moshinsky_m_dt(1.0, complex(q[0, 0]), 1.0, C2)
    assert isinstance(m00, complex) and isinstance(dm00, complex)
    assert abs(m00 - m[0, 0]) <= 1e-12 * abs(m00)
    assert abs(dm00 - dm[0, 0]) <= 1e-12 * abs(dm00)


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_nonpositive_time_rejected(t):
    with pytest.raises(NonPositiveTime):
        moshinsky_m(1.0, 1.0, t, C2)
    with pytest.raises(NonPositiveTime):
        moshinsky_m_dt(1.0, 1.0, t, C2)


def test_scalar_zero_x_is_bitwise_the_general_form():
    # the pole sums call with the scalar x = 0, which skips the phase and
    # the a-terms; an array of zeros takes the general form.  The poles
    # run over both signs of Re q, real ones included, at times across
    # the scan windows
    rng = np.random.default_rng(7)
    n = 8192
    q = rng.uniform(-10.0, 40.0, n) - 1j * rng.uniform(0.0, 3.0, n)
    q[:64] = q[:64].real
    t = np.repeat(rng.uniform(0.01, 50.0, 64), n // 64)
    fast = moshinsky_m_dt(0.0, q, t, C2)
    general = moshinsky_m_dt(np.zeros(n), q, t, C2)
    for got, want in zip(fast, general):
        assert got.tobytes() == want.tobytes()
    one = moshinsky_m_dt(0.0, -0.7 - 0.2j, 3.0, C2)
    assert one == tuple(complex(v[0]) for v in moshinsky_m_dt(
        np.zeros(1), np.array([-0.7 - 0.2j]), 3.0, C2))
