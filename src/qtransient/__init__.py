"""Transient quantum-shutter dynamics of the rectangular tunneling barrier.

Analytic solution of the shutter release problem (resonance-pole expansion
plus Moshinsky functions), time-frequency diagnostics of the transient
forerunner, opacity-regime sweeps, and an independent Crank-Nicolson grid
oracle.
"""

from .analysis import (Spectrogram, TimeDomainResonance,
                       find_time_domain_resonance, local_frequency,
                       spectrogram)
from .errors import (NumericalError, QTransientError, ValidationError)
from .moshinsky import moshinsky_m, moshinsky_m_dt
from .oracle import CnConfig, CnTrace, cn_evolve, default_cn_config
from .propagator import (WaveSample, WaveTrace, pole_cache, psi_external,
                         psi_internal, trace)
from .resonances import PoleSet, ResonancePole, audit_pole_count, find_poles
from .stationary import (phase_time_delay, phi_stationary, reflection,
                         transmission)
from .sweeps import (SweepTable, detect_basin, linear_suffix, opacity_window,
                     sweep_freq_vs_alpha, sweep_freq_vs_x, sweep_tmax_vs_L)
from .systems import BarrierSystem, length_for_alpha, make_system

__version__ = "0.1.0"

__all__ = [
    "BarrierSystem", "CnConfig", "CnTrace", "NumericalError", "PoleSet",
    "QTransientError", "ResonancePole", "Spectrogram", "SweepTable",
    "TimeDomainResonance", "ValidationError", "WaveSample", "WaveTrace",
    "audit_pole_count", "cn_evolve", "default_cn_config", "detect_basin",
    "find_poles", "find_time_domain_resonance", "length_for_alpha",
    "linear_suffix", "local_frequency", "make_system", "moshinsky_m",
    "moshinsky_m_dt", "opacity_window", "phase_time_delay", "phi_stationary",
    "pole_cache", "psi_external", "psi_internal", "reflection",
    "spectrogram", "sweep_freq_vs_alpha", "sweep_freq_vs_x",
    "sweep_tmax_vs_L", "trace", "transmission",
]
