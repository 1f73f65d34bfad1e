"""Resonance poles and Gamow data: residuals, counting, and identities.

Oracles:
* [TRIVIAL] every accepted pole satisfies the pole equation to 1e-12
  (backward error) and lies in the fourth quadrant;
* [DERIVED] across opacities and energies the ladder roots agree with
  40-digit mpmath roots of the transmission denominator to 1e-14;
* [DERIVED] the argument principle over the scanned rectangle must count
  exactly the poles that were found;
* [DERIVED] the antibound poles agree with an independent sign scan of
  Im G on the negative imaginary axis out to 200/L and with 40-digit
  mpmath roots of the axis equation to 5e-14, they stay finite at
  opacities where e^{|q| L} overflows, and just below the merge opacity
  the pair is either found to RESIDUAL_TOL or reported as pole 0;
* [DERIVED] the branch index of the pole equation numbers the poles: a
  rung whose Newton lands on its neighbour's root leaves a gap, and the
  search names the missing pole, or the root on its branch that missed
  RESIDUAL_TOL with its residual;
* [DERIVED] the transmission-pole residue identity
  res T(k_n) = i u_n(0) u_n(L) exp(-i k_n L), with the residue computed
  independently from the derivative of the entire denominator function;
* [DERIVED] the analytic Gamow normalization must agree with direct
  Gauss-Legendre quadrature of u_n^2 plus the boundary term, and, up to
  n = 2047, with the normalization integral evaluated at 40 digits on an
  mpmath-polished root;
* [TRIVIAL] the vectorised expansion coefficients equal their per-pole
  closed forms;
* [TRIVIAL] a shorter pole search gives bitwise the first rows of the
  full table, and the pole records repeat the table's columns;
* [DERIVED] each mirror pole k_{-n} = -conj k_n, built as a pole of its
  own, has minus the conjugate of its partner's coefficients, which is
  what lets the pole sums evaluate only the k_n.
"""

import cmath
import re

import numpy as np
import pytest

from qtransient import find_poles, make_system, resonances
from qtransient.errors import (CountMismatch, NonPositiveParameter,
                               PoleNotConverged)
from qtransient.propagator import HARD_CAP
from qtransient.resonances import (RESIDUAL_TOL, _pole_set, audit_pole_count,
                                   expansion_coeffs, find_axis_poles,
                                   gamow_boundary_data)
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
    broken = gaas_poles[np.flatnonzero(gaas_poles.n[:8] != 5)]
    assert broken.n.tolist() == [1, 2, 3, 4, 6, 7, 8]
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
    for p in axis.poles:
        assert p.k.real == 0.0 and p.k.imag < 0.0
        assert p.residual <= 1e-12


@pytest.mark.parametrize("alpha", [0.02, 0.05])
def test_axis_poles_include_the_deep_antibound_pole(alpha):
    # the second axis zero of G moves out like 2 ln(1/alpha) / L; an
    # independent sign scan of Im G(-iy) out to 200/L brackets every zero
    V, m = 0.3, 0.067
    sys_ = make_system(V, V / 300.0, length_for_alpha(alpha, V, m), m)
    y = np.geomspace(1e-6, 200.0, 200001) / sys_.L
    flips = np.flatnonzero(np.diff(np.sign(pole_function(-1j * y, sys_).imag)))
    axis = find_axis_poles(sys_)
    assert len(axis) == len(flips) == 2
    for p, i in zip(axis.poles, flips):
        assert p.k.real == 0.0 and y[i] <= -p.k.imag <= y[i + 1]
        assert p.residual <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_axis_scan_does_not_overflow_at_high_opacity():
    # GaAs at L = 400 nm, alpha ~ 290: e^{|q| L} overflows past alpha ~ 233
    sys_ = make_system(0.3, 0.001, 400.0, 0.067)
    assert sys_.alpha > 233.0
    assert len(find_axis_poles(sys_)) == 0


def test_no_axis_poles_for_reference_barrier(gaas_poles):
    assert len(gaas_poles.axis_poles) == 0


# the merge opacity: the root of sqrt(4 + a^2) = 2 ln((2 + sqrt(4 + a^2))/a)
ALPHA_MERGE = 1.325486838698363


def _mp_axis_roots(sys_):
    """Both zeros y of K L + ln v - 2 ln(K + y), K = sqrt(y^2 + v), at 40
    digits; it is convex in y with its minimum at y = 2/L."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        v, L = mp.mpf(sys_.v_strength), mp.mpf(sys_.L)

        def f(y):
            big_k = mp.sqrt(y * y + v)
            return big_k * L + mp.log(v) - 2 * mp.log(big_k + y)
        return [float(mp.findroot(f, (a / L, b / L), solver="illinois"))
                for a, b in ((0, 2), (2, 200))]


@pytest.mark.parametrize("alpha", [0.005, 0.02, 0.1, 0.5, 1.0, 1.3, 1.3254])
def test_axis_poles_match_mpmath_roots(alpha):
    V, m = 0.3, 0.067
    sys_ = make_system(V, V / 300.0, length_for_alpha(alpha, V, m), m)
    axis = find_axis_poles(sys_)
    assert len(axis) == 2
    for k, ref in zip(axis.k, _mp_axis_roots(sys_)):
        assert k.real == 0.0
        assert abs(-k.imag - ref) <= 5e-14 * ref


@pytest.mark.parametrize("d", [1e-6, 5e-7, 2e-7])
def test_axis_pair_just_below_the_merge_opacity(d):
    # the two axis roots lie about 2 sqrt(8.7 d) / L apart: 5.9e-3 / L at
    # d = 1e-6 and 2.6e-3 / L at d = 2e-7
    V, m = 0.3, 0.067
    sys_ = make_system(V, V / 300.0, length_for_alpha(ALPHA_MERGE - d, V, m),
                       m)
    ps = find_poles(sys_, 64)   # audits the count
    assert len(ps.axis_poles) == 2
    assert np.all(ps.axis_poles.residual <= RESIDUAL_TOL)
    assert ps.n.tolist() == list(range(1, 65))


def test_merging_axis_pair_is_found_or_reported_as_pole_zero():
    # nearer alpha_m the residual |H/H'| of the nearly double root is
    # roundoff over a vanishing H'; a miss must name pole 0 and its residual
    V, m = 0.3, 0.067
    for d in np.geomspace(1e-14, 1e-7, 15):
        sys_ = make_system(V, V / 300.0,
                           length_for_alpha(ALPHA_MERGE - d, V, m), m)
        try:
            ps = find_poles(sys_, 64)
        except PoleNotConverged as exc:
            assert re.fullmatch(r"pole n=0 did not converge \(k = 0-[0-9.]+j, "
                                r"residual [0-9.e+-]+\)", str(exc))
        else:
            assert len(ps.axis_poles) == 2
            assert np.all(ps.axis_poles.residual <= RESIDUAL_TOL)


def test_pole_one_just_above_the_merge_opacity_names_its_residual():
    # just above alpha_m Newton finds pole 1 on branch m = 1, but at some
    # distances the near-double root's residual misses RESIDUAL_TOL (the
    # first of 300 log-spaced distances in [1e-12, 1e-6] to do so is the
    # 14th, 1.82e-12): the error names that root and its residual, not a
    # missing branch
    V, m = 0.3, 0.067
    failed = []
    for d in np.geomspace(1e-12, 1e-6, 300)[:30]:
        sys_ = make_system(V, V / 300.0,
                           length_for_alpha(ALPHA_MERGE + d, V, m), m)
        try:
            find_poles(sys_, 64)
        except PoleNotConverged as exc:
            failed.append(d)
            assert exc.n == 1
            match = re.fullmatch(
                r"pole n=1 did not converge \(k = ([0-9.e+-]+j), "
                r"residual ([0-9.e+-]+) on branch m = 1\)", str(exc))
            assert match, str(exc)
            assert abs(complex(match[1]) + 2j / sys_.L) <= 1e-3 / sys_.L
            assert float(match[2]) > RESIDUAL_TOL
    assert failed and abs(failed[0] - 1.82e-12) <= 0.01e-12


def test_determinism(gaas):
    a = find_poles(gaas, 10, audit=False)
    b = find_poles(gaas, 10, audit=False)
    assert [p.k for p in a.poles] == [p.k for p in b.poles]
    assert [p.inv_sqrt_norm for p in a.poles] == [p.inv_sqrt_norm for p in b.poles]


def _columns(ps):
    return [getattr(ps, c).tolist()
            for c in ("n", "k", "q", "u0", "uL", "inv_sqrt_norm", "residual")]


def test_shorter_search_is_a_prefix_of_the_full_table(gaas):
    # the Newton pass refines each seed on its own, so a shorter search
    # gives bitwise the first rows of the full table: on the reference
    # barrier, below the merge opacity (axis poles) and deep in the opaque
    # regime
    V, m = 0.3, 0.067
    cases = (gaas,
             make_system(V, 0.001, length_for_alpha(1.0, V, m), m),
             make_system(V, V / 3000, length_for_alpha(9.0, V, m), m))
    for sys_ in cases:
        full = find_poles(sys_, HARD_CAP, audit=False)
        assert len(full) == HARD_CAP
        for n in (8, 24, 256):
            short = find_poles(sys_, n, audit=False)
            assert _columns(short) == _columns(full[:n])
            assert _columns(short.axis_poles) == _columns(full.axis_poles)
        # the records are the columns, row by row
        for ps in (full, full.axis_poles):
            assert [(p.n, p.k, p.q, p.u0, p.uL, p.inv_sqrt_norm, p.residual)
                    for p in ps.poles] == list(zip(*_columns(ps)))
            assert [p.E for p in ps.poles] == (sys_.c2 * ps.k * ps.k).tolist()


def _mp_pole(mp, k, sys_):
    """The pole nearest k, polished on D(k) at mpmath's working precision."""
    v, L = mp.mpf(sys_.v_strength), mp.mpf(sys_.L)

    def d(z):
        q = mp.sqrt(z * z - v)
        return ((z + q) ** 2 * mp.exp(-1j * q * L)
                - (z - q) ** 2 * mp.exp(1j * q * L))
    return mp.findroot(d, mp.mpc(k.real, k.imag))


def _mp_root(k, sys_):
    """The pole nearest k, polished on D(k) at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return complex(_mp_pole(mp, k, sys_))


@pytest.mark.parametrize("alpha", [0.8, 1.2, 1.33, 2.9, 6.0, 9.0, 11.6, 30.0])
def test_ladder_across_opacity_and_energy(alpha):
    V, m = 0.3, 0.067
    L = length_for_alpha(alpha, V, m)
    for u in (1.2, 30.0, 3000.0):
        sys_ = make_system(V, V / u, L, m)
        ps = find_poles(sys_, 256)   # audits the count
        k = ps.k
        assert max(p.residual for p in ps.poles + ps.axis_poles.poles) \
            <= RESIDUAL_TOL
        assert np.all(np.diff(k.real) > 0)
        # every cold system searches this deep
        deep = find_poles(sys_, HARD_CAP, audit=False)
        assert np.max(deep.residual) <= RESIDUAL_TOL
        assert np.all(np.diff(deep.k.real) > 0)
        for n in (1, 2, 17, 256):
            ref = _mp_root(k[n - 1], sys_)
            assert abs(k[n - 1] - ref) <= 1e-14 * abs(ref)


def test_lowest_pole_of_an_opaque_barrier():
    # at alpha ~ 30 pole 1 sits just above k = sqrt v, where the lowest
    # poles crowd far closer than pi/L; the audit counts it only with its
    # samples spaced evenly in Re q
    sys_ = make_system(0.3, 0.001, 41.3, 0.067)
    k1 = find_poles(sys_, 64).k[0]   # audits the count
    assert abs(k1 * sys_.L - (30.1595 - 0.0216j)) <= 1e-3
    ref = _mp_root(k1, sys_)
    assert abs(k1 - ref) <= 1e-14 * abs(ref)


def test_branch_index_names_a_missing_pole(gaas, monkeypatch):
    # the rung that finds pole 5 returns its neighbour's root instead: with
    # and without antibound poles the search must raise for pole 5 rather
    # than number the table around the gap
    V, m = 0.3, 0.067
    below_merge = make_system(V, 0.001, length_for_alpha(1.0, V, m), m)
    newton = resonances._newton_refine
    for sys_ in (gaas, below_merge):
        k = find_poles(sys_, 8, audit=False).k

        def stray(k0, sys_, lost=k[4], kept=k[3]):
            roots = newton(k0, sys_)
            return np.where(roots == lost, kept, roots)

        monkeypatch.setattr(resonances, "_newton_refine", stray)
        with pytest.raises(PoleNotConverged, match="n=5 ") as err:
            find_poles(sys_, 8, audit=False)
        assert err.value.n == 5
        monkeypatch.undo()


def _mp_inv_sqrt_norm(k, sys_):
    """1/sqrt of the Gamow norm, integral plus boundary term, summed term
    by term at 40 digits on the mpmath-polished root nearest k."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        v, L = mp.mpf(sys_.v_strength), mp.mpf(sys_.L)
        z = _mp_pole(mp, k, sys_)
        q = mp.sqrt(z * z - v)
        p_c, q_c = q - z, q + z
        u_l = p_c * mp.exp(1j * q * L) + q_c * mp.exp(-1j * q * L)
        norm = (p_c**2 * (mp.exp(2j * q * L) - 1) / (2j * q)
                + q_c**2 * (1 - mp.exp(-2j * q * L)) / (2j * q)
                + 2 * p_c * q_c * L + 1j * (4 * q * q + u_l**2) / (2 * z))
        return complex(1 / mp.sqrt(norm))


def test_gamow_normalization_against_mpmath(gaas, gaas_cache):
    # the direct sum of the normalization integral cancels terms of size
    # e^{2 |Im q| L} and lost up to 4e-10 here; the closed form on the pole
    # equation keeps full precision.  The sign of sqrt is conventional.
    ps = gaas_cache
    for n in (1, 100, 1000, 2047):
        got, ref = ps.poles[n - 1].inv_sqrt_norm, _mp_inv_sqrt_norm(
            ps.poles[n - 1].k, gaas)
        assert min(abs(got - ref), abs(got + ref)) <= 1e-12 * abs(ref)


def test_gamow_normalization_is_stable_under_one_ulp(gaas, gaas_cache):
    # one ulp in k_n moved inv_sqrt_norm by up to 1.9e-10 near n = 1100
    k = gaas_cache.k[1089:1110]
    base = gamow_boundary_data(k, gaas)[3]
    for step in (np.inf, -np.inf):
        for moved in (np.nextafter(k.real, step) + 1j * k.imag,
                      k.real + 1j * np.nextafter(k.imag, step)):
            got = gamow_boundary_data(moved, gaas)[3]
            change = np.minimum(np.abs(got - base), np.abs(got + base))
            assert np.all(change <= 1e-13 * np.abs(base))


def _coeffs_one_by_one(x, poles, sys_):
    phis, tns = [], []
    for p in poles:
        pref = 2j * sys_.k * p.u0 / (sys_.k ** 2 - p.k * p.k)
        phis.append(pref * p.u_at(x))
        tns.append(pref * p.uL * cmath.exp(-1j * p.k * sys_.L))
    return np.array(phis), np.array(tns)


@pytest.fixture(scope="module")
def coeff_cases(gaas, gaas_cache):
    """(system, axis poles, ladder poles): 1024 GaAs poles and no axis
    poles, and an alpha = 1 barrier whose lowest pair sits on the imaginary
    axis."""
    V, m = 0.3, 0.067
    below_merge = make_system(V, 0.001, length_for_alpha(1.0, V, m), m)
    axis_set = find_poles(below_merge, 8, audit=False)
    assert axis_set.axis_poles
    return [(gaas, gaas_cache.axis_poles, gaas_cache[:1024]),
            (below_merge, axis_set.axis_poles, axis_set)]


@pytest.mark.parametrize("frac", [0.0, 0.25, 0.5, 1.0])
def test_expansion_coeffs_match_per_pole_definitions(coeff_cases, frac):
    for sys_, axis, ladder in coeff_cases:
        poles = axis.poles + ladder.poles
        x = frac * sys_.L
        for internal, want in zip((True, False), _coeffs_one_by_one(x, poles, sys_)):
            got, kn = (np.concatenate(c) for c in zip(
                expansion_coeffs(x, axis, internal),
                expansion_coeffs(x, ladder, internal)))
            assert got.shape == want.shape == (len(poles),)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert kn.tolist() == [p.k for p in poles]


@pytest.mark.parametrize("frac", [0.0, 0.25, 0.5, 1.0])
def test_mirror_coefficients_are_minus_conjugate(coeff_cases, frac):
    for sys_, _, ladder in coeff_cases:
        mirrors = _pole_set(sys_, -ladder.n, -ladder.k.conj())
        x = frac * sys_.L
        for internal, want in zip((True, False),
                                  _coeffs_one_by_one(x, mirrors.poles, sys_)):
            got, _ = expansion_coeffs(x, ladder, internal)
            assert np.max(np.abs(-got.conj() - want)) <= 1e-14 * np.max(np.abs(want))


def test_bad_request_rejected(gaas):
    # a pole count that is not an integer >= 1 is bad input, not a miss
    for N in (0, -3, 2.5):
        with pytest.raises(NonPositiveParameter, match=r"^N must be .*"
                           + re.escape(repr(N))):
            find_poles(gaas, N)
