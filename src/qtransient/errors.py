"""Exception hierarchy shared across the package.

Every error raised on purpose is a ValidationError or a NumericalError, so
that the CLI can map failures onto its exit-code contract (2 = validation,
3 = numerical non-convergence, 4 = I/O).
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


class PoleSetMismatch(ValidationError):
    """Poles passed in were found for another barrier system."""


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


class CountMismatch(NumericalError):
    """Argument-principle zero count disagrees with the pole list."""


class NormalizationSingular(NumericalError):
    pass


class NotConverged(NumericalError):
    """Resonance sum that cannot meet its tolerance within the pole cap."""


class MergingPolePair(NotConverged):
    """Resonance sum that cannot meet its tolerance because the two poles
    that merge at alpha_m lie too close."""


class NoCrossing(NumericalError):
    """A window edge has no bracketing sign change in the scanned interval."""


def single(results):
    """The one entry of a batch of one: its value, or its error raised.
    Batched evaluators give each item its value or the error it raised;
    the functions that evaluate one item are such a batch of one."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result
