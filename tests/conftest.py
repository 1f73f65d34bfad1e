"""Shared fixtures: the GaAs reference barrier and its pole data.

The reference system (V = 0.3 eV, E = 1 meV, L = 4 nm, m/m_e = 0.067) is a
deeply tunneling GaAs barrier with opacity alpha ~ 2.9, squarely inside the
regime where a transient density peak forms at the barrier edge.  The poles
and the full pole table are session scoped: they are deterministic and
immutable, so sharing them only saves time.  The full table holds HARD_CAP
poles, deeper than the table pole_cache shares, so that tests can read its
deepest rows.
"""

import pytest

from qtransient import find_poles, make_system
from qtransient.propagator import HARD_CAP


@pytest.fixture(scope="session")
def gaas():
    return make_system(0.3, 0.001, 4.0, 0.067)


@pytest.fixture(scope="session")
def gaas_poles(gaas):
    return find_poles(gaas, 24)


@pytest.fixture(scope="session")
def gaas_cache(gaas):
    return find_poles(gaas, HARD_CAP)
