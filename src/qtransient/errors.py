"""Exception hierarchy shared across the package.

Every error raised on purpose derives from QTransientError so that the CLI
can map failures onto its exit-code contract (2 = validation, 3 = numerical
non-convergence, 4 = I/O).
"""


class QTransientError(Exception):
    """Base class for all package errors."""


class ValidationError(QTransientError):
    """Bad input: wrong sign, wrong range, malformed config. Exit code 2."""


class NumericalError(QTransientError):
    """A numerical procedure failed to converge or lost accuracy. Exit code 3."""


# --- validation ---------------------------------------------------------

class NonPositiveParameter(ValidationError):
    pass


class EEqualsV(ValidationError):
    """E == V makes the under-barrier wavenumber singular."""


class NonFiniteInput(ValidationError):
    pass


class NonPositiveTime(ValidationError):
    pass


class ZeroWavenumber(ValidationError):
    pass


class XOutOfRange(ValidationError):
    pass


class AmplitudeUnderflow(ValidationError):
    """|psi| too small to divide by in the frequency diagnostics."""


class WindowTooNarrow(ValidationError):
    """A peak-search scan window that is not 0 < lo < hi."""


class GridTooCoarse(ValidationError):
    pass


class ConfigError(ValidationError):
    pass


class UnknownKey(ConfigError):
    pass


class MissingRequired(ConfigError):
    pass


# --- numerics -----------------------------------------------------------

class OverflowRange(NumericalError):
    """Result magnitude exceeds the representable double range."""


class PoleNotConverged(NumericalError):
    def __init__(self, n, detail=""):
        super().__init__(f"pole n={n} did not converge {detail}".rstrip())
        self.n = n


class DuplicatePole(NumericalError):
    pass


class CountMismatch(NumericalError):
    """Argument-principle zero count disagrees with the pole list."""


class NormalizationSingular(NumericalError):
    pass


class PoleCollision(NumericalError):
    """Incident k**2 came within guard distance of a pole k_n**2."""


class NotConverged(NumericalError):
    """Resonance sum still above tolerance at the hard pole cap."""


class NoCrossing(NumericalError):
    """Bisection target never brackets inside the scanned interval."""
