"""Exception hierarchy shared by all modules."""


class LocalizationError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateHyperbola(LocalizationError):
    """Range difference is not strictly smaller than the station separation."""


class NonPositiveDistance(LocalizationError):
    pass


class TooFewStations(LocalizationError):
    pass


class CoincidentPosition(LocalizationError):
    """A user position within 1 nm of a station."""


class CoincidentWithStation(LocalizationError):
    pass


class SingularCandidate(LocalizationError):
    pass


class EmptyRegion(LocalizationError):
    pass


class MissingTdoa(LocalizationError):
    pass


class LengthMismatch(LocalizationError):
    pass


class EmptyGrid(LocalizationError):
    pass


class TemplateTooLong(LocalizationError):
    pass


class WindowOutOfSupport(LocalizationError):
    pass


class EmptyInput(LocalizationError):
    pass


class UnknownKey(LocalizationError, ValueError):
    """A scenario file or override names a key the scenario format lacks."""


class InvalidScenario(LocalizationError, ValueError):
    """A scenario lacks a required key, or a value fails its check."""
