"""Lockstep batches: many probes through one pole search and one pole sum.

Oracles:
* [TRIVIAL] find_pole_tables over many widths gives each width bitwise
  the table find_poles gives it alone, antibound poles included, on both
  sides of alpha_m; a width whose search fails raises the error it raises
  alone, and the others' tables are unchanged;
* [TRIVIAL] traces and find_time_domain_resonances give each probe of a
  seeded batch drawn from the opacity workload's ranges bitwise what
  trace and find_time_domain_resonance give it alone;
* [TRIVIAL] a batch holding a width with no peak and a width whose search
  fails gives every probe what it gets alone, error included, and a sweep
  over such a grid raises the first failing probe's error in grid order;
  at any thread count a sweep's rows are the rows of one batch;
* [DERIVED] a scan runs at most BATCH probes in lockstep, so its peak
  traced memory over three times BATCH widths is that over BATCH widths,
  and the batches of many probes, and the Newton groups of many systems,
  keep each probe's numbers.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from qtransient import (find_poles, find_time_domain_resonance, make_system,
                        sweep_freq_vs_x, sweep_tmax_vs_L, trace)
from qtransient.analysis import default_window, find_time_domain_resonances
from qtransient.errors import MergingPolePair, PoleNotConverged
from qtransient import propagator, resonances
from qtransient.propagator import BATCH, batches, traces
from qtransient.resonances import find_pole_tables
from qtransient.systems import length_for_alpha

V, M = 0.3, 0.067
ALPHA_MERGE = 1.325486838698363
# just above alpha_m at u = 300 the near-double root of pole 1 misses
# RESIDUAL_TOL (test_resonances: the 14th of 300 log-spaced distances)
MISSED = np.geomspace(1e-12, 1e-6, 300)[13]
# GaAs at exactly alpha_m: the scan refuses the merging pair
MERGED_L = 1.8248986043701056


def _system(alpha, u=300.0):
    return make_system(V, V / u, length_for_alpha(alpha, V, M), M)


def _outcome(result):
    """A result's bytes, or its error's class and message: two outcomes are
    equal when every number agrees bit for bit, NaN included."""
    if isinstance(result, Exception):
        return type(result), str(result)
    if hasattr(result, "psi"):
        return (result.psi.tobytes(), result.dpsi_dt.tobytes(),
                result.trunc_error_est.tobytes(), result.n_terms_used)
    return tuple(struct.pack("d", v) if isinstance(v, float) else v
                 for v in vars(result).values())


def _alone(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except Exception as exc:    # the error is the outcome compared
        return exc


def _table(ps):
    cols = ("n", "k", "q", "u0", "uL", "inv_sqrt_norm", "residual")
    return [getattr(t, c).tobytes() for t in (ps, ps.axis_poles) for c in cols]


def test_pole_tables_over_widths_are_each_widths_own():
    systems = [_system(a) for a in (0.83, 1.2, ALPHA_MERGE + MISSED, 1.4,
                                    2.9, 8.0)]
    systems.append(make_system(V, 0.001, 4.0, M))
    assert [len(find_poles(s, 8).axis_poles) for s in systems[:2]] == [2, 2]
    for n in (8, 512):
        batch = find_pole_tables(systems, n)
        for sys_, got in zip(systems, batch):
            alone = _alone(find_poles, sys_, n)
            if isinstance(alone, Exception):
                assert isinstance(alone, PoleNotConverged)
                assert _outcome(got) == _outcome(alone)
            else:
                assert _table(got) == _table(alone)
        assert sum(isinstance(t, Exception) for t in batch) == 1


def test_seeded_batches_are_each_probes_own():
    # up to 20 batches of 2-6 probes from the opacity workload's ranges:
    # GaAs widths 1.1-11.7 nm at E = 1 meV, and opacities 2.1-3.6 at
    # u = 300, each probed at its edge
    rng = np.random.default_rng(51)
    for _ in range(20):
        probes = []
        for _ in range(int(rng.integers(2, 7))):
            if rng.random() < 0.5:
                sys_ = make_system(V, 0.001, rng.uniform(1.1, 11.7), M)
            else:
                sys_ = _system(rng.uniform(2.1, 3.6))
            probes.append((sys_, None, None))
        batch = find_time_domain_resonances(probes)
        for (sys_, _, _), got in zip(probes, batch):
            alone = _alone(find_time_domain_resonance, sys_)
            assert _outcome(got) == _outcome(alone)
        # the scan's first chunk of each probe, traced as one batch
        asked = []
        for sys_, _, _ in probes:
            grid = np.linspace(*default_window(sys_, sys_.L), 1200)
            start = int(rng.integers(0, 1000))
            asked.append((sys_.L, grid[start:start + int(rng.integers(1, 200))],
                          sys_, None, float(rng.choice([1e-3, 1e-8]))))
        for probe, got in zip(asked, traces(asked)):
            x, t, sys_, _, tol = probe
            assert _outcome(got) == _outcome(_alone(trace, x, t, sys_, tol=tol))


def test_no_peak_and_failing_widths_in_one_batch():
    # 1.145 nm has no peak (alpha 0.83, two antibound poles); at alpha_m the
    # scan refuses the merging pair; 4 nm has the edge peak
    widths = [1.145374328, MERGED_L, 4.0, 6.0]
    probes = [(make_system(V, 0.001, w, M), None, None) for w in widths]
    batch = find_time_domain_resonances(probes)
    alone = [_alone(find_time_domain_resonance, s) for s, _, _ in probes]
    assert [_outcome(r) for r in batch] == [_outcome(r) for r in alone]
    assert batch[0].exists is False and batch[2].exists is True
    assert isinstance(batch[1], MergingPolePair)
    # a sweep over them raises the first failing probe's error, in grid
    # order, at any thread count
    for threads in (1, 2, 3):
        with pytest.raises(MergingPolePair) as info:
            sweep_tmax_vs_L(widths[::-1], V, 0.001, M, threads=threads)
        assert str(info.value) == str(alone[1])
    rows = sweep_tmax_vs_L([widths[0], *widths[2:]], V, 0.001, M).rows
    for row, result in zip(rows, [alone[0], *alone[2:]]):
        assert row.exists is result.exists
        for name in ("t_max", "omega_ratio"):
            assert struct.pack("d", getattr(row, name)) == struct.pack(
                "d", getattr(result, name))


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_sweep_rows_do_not_depend_on_the_batches(gaas, threads):
    # inside the barrier, at its edge and beyond it: the batches a thread
    # count cuts give the rows of one batch, and each row its lone search
    grid = [1.0, 2.0, 4.0, 6.0, 8.0]
    one = sweep_freq_vs_x(grid, gaas).rows
    assert sweep_freq_vs_x(grid, gaas, threads=threads).rows == one
    for row in one:
        tdr = find_time_domain_resonance(gaas, x=row.independent)
        assert (row.t_max, row.omega_ratio) == (tdr.t_max, tdr.omega_ratio)


def test_a_step_that_raises_for_one_probe_leaves_the_others_their_sums(
        gaas, monkeypatch):
    # at tol 1e-10, 0.1 fs after release, the edge pool outgrows the shared
    # table: where that deeper search fails, the batch's shared plan raises,
    # and each probe is summed alone, so only that probe gets the error
    from qtransient import pole_cache, propagator
    search = propagator.find_poles

    def failing(sys_, n):
        if n == propagator.HARD_CAP:
            raise PoleNotConverged(700, "(no root on branch m = 700)")
        return search(sys_, n)

    cache = pole_cache(gaas)
    asked = [(gaas.L, np.array([0.1, 1.0, 5.0]), gaas, cache, 1e-10),
             (gaas.L, np.linspace(3.0, 8.0, 20), gaas, cache, 1e-8),
             (8.0, np.linspace(3.0, 8.0, 5), gaas, cache, 1e-8)]
    alone = [_outcome(_alone(trace, x, t, s, poles=p, tol=tol))
             for x, t, s, p, tol in asked[1:]]
    monkeypatch.setattr(propagator, "find_poles", failing)
    got = traces(asked)
    assert isinstance(got[0], PoleNotConverged) and "n=700" in str(got[0])
    assert [_outcome(r) for r in got[1:]] == alone


def test_probes_of_different_masses_share_a_batch():
    # the Moshinsky and exponential terms take each run's own c2 where a
    # batch's systems differ in mass, inside the barrier and beyond it
    asked = [(x, np.linspace(2.0, 9.0, 30), make_system(V, 0.001, 4.0, m),
              None, 1e-8) for m in (0.067, 0.1) for x in (4.0, 8.0)]
    for probe, got in zip(asked, traces(asked)):
        x, t, sys_, _, tol = probe
        assert _outcome(got) == _outcome(_alone(trace, x, t, sys_, tol=tol))


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_its_grid():
    # without the BATCH cap, three times the widths in one lockstep batch
    # raise the peak by about 40 %
    def scan(n):
        return lambda: sweep_tmax_vs_L(np.linspace(3.0, 5.0, n), V, 0.001, M)

    scan(BATCH)()
    few, many = _peak_bytes(scan(BATCH)), _peak_bytes(scan(3 * BATCH))
    assert many <= 1.1 * few, (few, many)


def test_batches_are_near_equal_and_capped():
    for n in range(0, 3 * BATCH + 2):
        for parts in (1, 2, 5):
            cut = batches(n, parts)
            sizes = [b.stop - b.start for b in cut]
            assert sum(sizes) == n and cut == sorted(cut)
            assert all(0 < z <= BATCH for z in sizes)
            assert len(cut) == max(-(-n // BATCH), min(parts, n))
            assert max(sizes, default=0) - min(sizes, default=0) <= 1


def test_capped_batches_and_newton_groups_keep_each_probes_numbers(
        monkeypatch):
    # batches of two probes and Newton groups of two systems give what one
    # batch and one Newton give
    widths = [2.5, 3.0, 4.0, 5.0, 6.5]
    probes = [(make_system(V, 0.001, w, M), None, None) for w in widths]
    systems = [p[0] for p in probes]
    one = [_outcome(r) for r in find_time_domain_resonances(probes)]
    tables = [_table(t) for t in find_pole_tables(systems, 64)]
    monkeypatch.setattr(propagator, "BATCH", 2)
    monkeypatch.setattr(resonances, "_SEEDS", 2 * 66)
    assert [_outcome(r) for r in find_time_domain_resonances(probes)] == one
    assert [_table(t) for t in find_pole_tables(systems, 64)] == tables
