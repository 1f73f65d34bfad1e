"""Faddeeva function against an arbitrary-precision oracle.

Oracle [DERIVED]: w(z) = exp(-z^2) erfc(-iz) evaluated with mpmath at 50
digits; the implementation (Weideman's rational series, reflected into the
lower half-plane, behind range checks) must match to 1e-13 relative
everywhere in the |Re z|, |Im z| <= 10 box and at large |z| in both
half-planes, out to the |z| ~ 5e3 that far-field pole sums reach.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransient.errors import NonFiniteInput, OverflowRange
from qtransient.faddeeva import faddeeva, faddeeva_dz

mpmath.mp.dps = 50

REL_TOL = 1e-13


def w_oracle(z):
    zm = mpmath.mpc(z.real, z.imag)
    return complex(mpmath.exp(-zm * zm) * mpmath.erfc(-1j * zm))


@pytest.mark.parametrize("y", np.linspace(-10.0, 10.0, 11))
def test_matches_mpmath_on_grid(y):
    for x in np.linspace(-10.0, 10.0, 41):
        z = complex(x, y)
        ref = w_oracle(z)
        got = complex(faddeeva(z))
        assert abs(got - ref) <= REL_TOL * abs(ref), f"z={z}"


@settings(max_examples=200, deadline=None)
@given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False))
def test_matches_mpmath_random(x, y):
    z = complex(x, y)
    ref = w_oracle(z)
    assert abs(complex(faddeeva(z)) - ref) <= REL_TOL * abs(ref)


# the propagator's arguments i y(x, k_n, t): far-field pole sums put |z| up
# to ~5e3 (median ~340), along the rays near 45-60 degrees and, in the lower
# half-plane, -135 to -150 degrees; the other rays cover both half-planes
# wherever exp(-z^2) stays in range
@pytest.mark.parametrize("r", [50.0, 340.0, 1000.0, 5000.0])
@pytest.mark.parametrize("deg", [10, 50, 55, 80, 135, 170, -20, -140, -147, -170])
def test_matches_mpmath_at_large_modulus(r, deg):
    z = cmath.rect(r, math.radians(deg))
    ref = w_oracle(z)
    assert abs(complex(faddeeva(z)) - ref) <= REL_TOL * abs(ref), f"z={z}"


def test_vectorized_matches_scalar():
    zs = np.array([0.3 + 0.4j, -2.0 + 1.0j, 5.0 - 0.5j, -7.0 - 2.0j])
    vec = faddeeva(zs)
    for z, v in zip(zs, vec):
        assert v == complex(faddeeva(complex(z)))


@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_a_point_gives_the_same_bits_in_any_array(n):
    # the series runs in place, and numpy rounds an in-place complex product
    # on a length-1 array differently from one in a longer array
    rng = np.random.default_rng(n)
    points = [0.3 + 0.4j, -2.0 + 1.0j, 5.0 - 0.5j, -7.0 - 2.0j, 20.0 + 3.0j,
              -0.5 - 0.1j, 1e3 + 1e3j, 40.0 - 20.0j, 1e-3j, -3.0 - 4.0j]
    for z in points:
        arr = rng.uniform(-10, 10, n) + 1j * rng.uniform(-5, 5, n)
        arr[-1] = z
        assert faddeeva(arr)[-1] == complex(faddeeva(z)), (n, z)


def test_seeded_sweep_against_mpmath():
    # |z| log-uniform in [1e-3, 1e4] over both half-planes; lower points past
    # the OverflowRange guard are left out, and so are those where w is ill
    # conditioned, |z w'(z) / w(z)| > 100: near its zeros, and where
    # exp(-z^2) dominates at large |z| (there it is ~ 2 |z|^2, and the
    # rounding of z alone moves w by more than the tolerance)
    rng = np.random.default_rng(20261018)
    r = 10.0 ** rng.uniform(-3.0, 4.0, 500)
    theta = np.concatenate((rng.uniform(0.0, math.pi, 200),
                            rng.uniform(-math.pi, 0.0, 300)))
    z = r * np.exp(1j * theta)
    z = z[(z.imag >= 0.0) | (z.imag ** 2 - z.real ** 2 <= 705.0)]
    ref = np.array([w_oracle(complex(v)) for v in z])
    cond = np.abs(z * (-2.0 * z * ref + 2j / math.sqrt(math.pi))) / np.abs(ref)
    keep = (z.imag >= 0.0) | (cond <= 100.0)
    assert np.count_nonzero(keep & (z.imag >= 0.0)) == 200
    assert np.count_nonzero(keep & (z.imag < 0.0)) >= 150
    rel = np.abs(faddeeva(z[keep]) - ref[keep]) / np.abs(ref[keep])
    assert np.all(rel <= REL_TOL), z[keep][np.argmax(rel)]


def test_known_values():
    # [TRIVIAL] w(0) = 1 and w(iy) = exp(y^2) erfc(y) on the positive axis
    assert abs(complex(faddeeva(0.0 + 0.0j)) - 1.0) < 1e-15
    y = 1.5
    ref = math.exp(y * y) * math.erfc(y)
    assert abs(complex(faddeeva(1j * y)) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("z", [0.5 + 0.5j, -3.0 + 2.0j, 6.0 - 1.0j, 9.0 + 9.0j])
def test_derivative_matches_mpmath(z):
    # oracle [DERIVED]: numerical derivative of the mpmath evaluation
    ref = complex(mpmath.diff(
        lambda t: mpmath.exp(-t * t) * mpmath.erfc(-1j * t),
        mpmath.mpc(z.real, z.imag)))
    got = complex(faddeeva_dz(z, faddeeva(z)))
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteInput):
        faddeeva(complex(float("nan"), 0.0))
    with pytest.raises(NonFiniteInput):
        faddeeva(complex(0.0, float("inf")))


def test_lower_half_plane_overflow():
    # the reflection formula needs exp(-z^2), which overflows for deep
    # negative imaginary arguments
    with pytest.raises(OverflowRange):
        faddeeva(-40.0j)


def test_lower_half_plane_overflow_where_wofz_returns_inf():
    # scipy's wofz returns -inf-inf*j here without complaint
    with pytest.raises(OverflowRange):
        faddeeva(5.0 - 30.0j)
    with pytest.raises(OverflowRange):
        faddeeva(np.array([0.5 + 0.5j, 5.0 - 30.0j]))
