"""Resonance poles and Gamow data: residuals, counting, and identities.

Oracles:
* [TRIVIAL] every accepted pole satisfies the pole equation to 1e-12
  (backward error) and lies in the fourth quadrant;
* [DERIVED] the argument principle over the scanned rectangle must count
  exactly the poles that were found;
* [DERIVED] the transmission-pole residue identity
  res T(k_n) = i u_n(0) u_n(L) exp(-i k_n L), with the residue computed
  independently from the derivative of the entire denominator function;
* [DERIVED] the analytic Gamow normalization must agree with direct
  Gauss-Legendre quadrature of u_n^2 plus the boundary term;
* [TRIVIAL] the vectorised expansion coefficients equal their per-pole
  closed forms;
* [DERIVED] each mirror pole k_{-n} = -conj k_n, built as a pole of its
  own, has minus the conjugate of its partner's coefficients, which is
  what lets the pole sums evaluate only the k_n.
"""

import cmath

import numpy as np
import pytest

from qtransient import find_poles, make_system
from qtransient.errors import CountMismatch, PoleNotConverged
from qtransient.resonances import (PoleSet, _build_pole, audit_pole_count,
                                   expansion_coeffs, find_axis_poles)
from qtransient.stationary import pole_function
from qtransient.systems import length_for_alpha


def test_residuals_below_tolerance(gaas_poles):
    for p in gaas_poles.poles:
        assert p.residual <= 1e-12


def test_poles_in_fourth_quadrant_sorted(gaas_poles):
    res = [p.k.real for p in gaas_poles.poles]
    assert all(r > 0 for r in res)
    assert all(p.k.imag < 0 for p in gaas_poles.poles)
    assert res == sorted(res)
    assert [p.n for p in gaas_poles.poles] == list(range(1, len(res) + 1))


def test_argument_principle_certifies_count(gaas_poles):
    assert audit_pole_count(gaas_poles) == len(gaas_poles.poles)


def test_argument_principle_catches_missing_pole(gaas, gaas_poles):
    holed = tuple(p for p in gaas_poles.poles[:8] if p.n != 5)
    broken = PoleSet(system=gaas, poles=holed, N_max=8,
                     axis_poles=gaas_poles.axis_poles)
    with pytest.raises(CountMismatch):
        audit_pole_count(broken)


def test_residue_identity(gaas, gaas_poles):
    # T(k) = 4k exp(-ikL) / G(k) with G entire, so the residue at a zero of
    # G is 4 k_n exp(-i k_n L) / G'(k_n); G' by central difference
    for p in gaas_poles.poles[:8]:
        h = 1e-6 * abs(p.k)
        gp = complex(pole_function(p.k + h, gaas)
                     - pole_function(p.k - h, gaas)) / (2 * h)
        res_direct = 4 * p.k * cmath.exp(-1j * p.k * gaas.L) / gp
        res_identity = 1j * p.u0 * p.uL * cmath.exp(-1j * p.k * gaas.L)
        assert abs(res_direct - res_identity) <= 1e-6 * abs(res_identity)


def test_gamow_normalization_against_quadrature(gaas, gaas_poles):
    nodes, weights = np.polynomial.legendre.leggauss(400)
    x = 0.5 * gaas.L * (nodes + 1.0)
    w = 0.5 * gaas.L * weights
    for p in gaas_poles.poles[:12]:
        u = p.u_at(x)
        norm = np.sum(w * u * u) + 1j * (p.u0**2 + p.uL**2) / (2 * p.k)
        assert abs(norm - 1.0) <= 1e-10


def test_boundary_data_consistent_with_u_at(gaas_poles):
    for p in gaas_poles.poles[:6]:
        assert abs(complex(p.u_at(0.0)) - p.u0) <= 1e-12 * abs(p.u0)
        L = gaas_poles.system.L
        assert abs(complex(p.u_at(L)) - p.uL) <= 1e-12 * abs(p.uL)


def test_axis_poles_below_merge_opacity():
    V, m = 0.3, 0.067
    sys_ = make_system(V, 0.001, length_for_alpha(1.0, V, m), m)
    axis = find_axis_poles(sys_)
    assert len(axis) == 2
    for p in axis:
        assert p.k.real == 0.0 and p.k.imag < 0.0
        assert p.residual <= 1e-12


def test_no_axis_poles_for_reference_barrier(gaas_poles):
    assert gaas_poles.axis_poles == ()


def test_determinism(gaas):
    a = find_poles(gaas, 10, audit=False)
    b = find_poles(gaas, 10, audit=False)
    assert [p.k for p in a.poles] == [p.k for p in b.poles]
    assert [p.inv_sqrt_norm for p in a.poles] == [p.inv_sqrt_norm for p in b.poles]


def test_extension_matches_fresh_solve(gaas):
    base = find_poles(gaas, 8, audit=False)
    extended = find_poles(gaas, 16, audit=False, previous=base)
    fresh = find_poles(gaas, 16, audit=False)
    assert [p.k for p in extended.poles] == [p.k for p in fresh.poles]


def _coeffs_one_by_one(x, poles, sys_):
    phis, tns = [], []
    for p in poles:
        pref = 2j * sys_.k * p.u0 / (sys_.k ** 2 - p.k * p.k)
        phis.append(pref * p.u_at(x))
        tns.append(pref * p.uL * cmath.exp(-1j * p.k * sys_.L))
    return np.array(phis), np.array(tns)


@pytest.fixture(scope="module")
def coeff_cases(gaas, gaas_poles):
    """(system, axis poles, ladder poles): 1024 GaAs poles, and an alpha = 1
    barrier whose lowest pair sits on the imaginary axis."""
    V, m = 0.3, 0.067
    below_merge = make_system(V, 0.001, length_for_alpha(1.0, V, m), m)
    axis_set = find_poles(below_merge, 8, audit=False)
    assert axis_set.axis_poles
    gaas_set = find_poles(gaas, 1024, audit=False, previous=gaas_poles)
    return [(gaas, (), gaas_set.poles),
            (below_merge, axis_set.axis_poles, axis_set.poles)]


@pytest.mark.parametrize("frac", [0.0, 0.25, 0.5, 1.0])
def test_expansion_coeffs_match_per_pole_definitions(coeff_cases, frac):
    for sys_, axis, ladder in coeff_cases:
        poles = axis + ladder
        x = frac * sys_.L
        for internal, want in zip((True, False), _coeffs_one_by_one(x, poles, sys_)):
            got, kn = expansion_coeffs(x, sys_.k, poles, sys_, internal)
            assert got.shape == want.shape == (len(poles),)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert kn.tolist() == [p.k for p in poles]


@pytest.mark.parametrize("frac", [0.0, 0.25, 0.5, 1.0])
def test_mirror_coefficients_are_minus_conjugate(coeff_cases, frac):
    for sys_, _, ladder in coeff_cases:
        mirrors = [_build_pole(-p.n, -p.k.conjugate(), sys_) for p in ladder]
        x = frac * sys_.L
        for internal, want in zip((True, False), _coeffs_one_by_one(x, mirrors, sys_)):
            got, _ = expansion_coeffs(x, sys_.k, ladder, sys_, internal)
            assert np.max(np.abs(-got.conj() - want)) <= 1e-14 * np.max(np.abs(want))


def test_bad_request_rejected(gaas):
    with pytest.raises(PoleNotConverged):
        find_poles(gaas, 0)
