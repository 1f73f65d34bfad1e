"""Input validation of the barrier parameter bundle.

Oracle [TRIVIAL]: make_system rejects a non-finite or non-positive V, E, L
or mass ratio, and E == V, and length_for_alpha rejects any argument
<= 0, each with its named error.
"""

import math

import pytest

from qtransient import make_system
from qtransient.errors import EEqualsV, NonPositiveParameter
from qtransient.systems import length_for_alpha

GAAS = {"V": 0.3, "E": 0.001, "L": 4.0, "mass_ratio": 0.067}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(GAAS))
def test_make_system_rejects_non_finite_or_non_positive(name, bad):
    with pytest.raises(NonPositiveParameter, match=rf"^{name} must be "):
        make_system(**{**GAAS, name: bad})


def test_make_system_rejects_e_equal_to_v():
    with pytest.raises(EEqualsV):
        make_system(0.3, 0.3, 4.0, 0.067)


@pytest.mark.parametrize("bad", [0.0, -1.0])
@pytest.mark.parametrize("slot", range(3))
def test_length_for_alpha_rejects_non_positive(slot, bad):
    args = [2.9, 0.3, 0.067]
    args[slot] = bad
    with pytest.raises(NonPositiveParameter):
        length_for_alpha(*args)
