"""Physical constants, unit conventions, and the barrier parameter bundle.

Unit system is fixed to (eV, nm, fs).  In these units

    hbar          = 0.6582119569   eV fs
    hbar^2/2 m_e  = 0.0380998      eV nm^2

and every derived quantity below follows from the two.  An effective mass is
given as the dimensionless ratio m/m_e (e.g. 0.067 for GaAs electrons).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import EEqualsV, NonPositiveParameter

HBAR_EV_FS = 0.6582119569        # eV fs
HBAR2_OVER_2ME_EV_NM2 = 0.0380998  # eV nm^2, bare electron mass


@dataclass(frozen=True)
class BarrierSystem:
    """Rectangular barrier of height V on [0, L] hit by a plane wave of energy E.

    Derived fields:

    c2      hbar^2/2m for the effective mass (eV nm^2)
    k       incident wavenumber sqrt(E/c2) (1/nm)
    kappa0  under-barrier decay wavenumber sqrt((V-E)/c2); stored as a complex
            number when E > V (then purely imaginary)
    omegaV  cutoff frequency V/hbar (1/fs)
    alpha   opacity sqrt(2mV) L / hbar = sqrt(V/c2) L
    u       height-to-energy ratio V/E
    """

    V: float
    E: float
    L: float
    mass_ratio: float
    c2: float = field(init=False)
    k: float = field(init=False)
    kappa0: complex = field(init=False)
    omegaV: float = field(init=False)
    alpha: float = field(init=False)
    u: float = field(init=False)

    def __post_init__(self):
        for name in ("V", "E", "L", "mass_ratio"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise NonPositiveParameter(f"{name} must be a finite number, got {value!r}")
            if value <= 0.0:
                raise NonPositiveParameter(f"{name} must be > 0, got {value}")
        if self.E == self.V:
            raise EEqualsV("E == V makes kappa0 singular")
        c2 = HBAR2_OVER_2ME_EV_NM2 / self.mass_ratio
        kappa0 = cmath.sqrt((self.V - self.E) / c2)
        if kappa0.imag == 0.0:
            kappa0 = kappa0.real
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "k", math.sqrt(self.E / c2))
        object.__setattr__(self, "kappa0", kappa0)
        object.__setattr__(self, "omegaV", self.V / HBAR_EV_FS)
        object.__setattr__(self, "alpha", math.sqrt(self.V / c2) * self.L)
        object.__setattr__(self, "u", self.V / self.E)

    @property
    def v_strength(self) -> float:
        """Barrier strength 2mV/hbar^2 = V/c2 in 1/nm^2."""
        return self.V / self.c2


def make_system(V, E, L, mass_ratio=1.0) -> BarrierSystem:
    """Validate the physical inputs and populate every derived constant."""
    return BarrierSystem(V=float(V), E=float(E), L=float(L), mass_ratio=float(mass_ratio))


def length_for_alpha(alpha, V, mass_ratio=1.0) -> float:
    """Barrier width realizing a requested opacity at fixed height."""
    if alpha <= 0 or V <= 0 or mass_ratio <= 0:
        raise NonPositiveParameter("alpha, V, mass_ratio must all be > 0")
    c2 = HBAR2_OVER_2ME_EV_NM2 / mass_ratio
    return alpha / math.sqrt(V / c2)
