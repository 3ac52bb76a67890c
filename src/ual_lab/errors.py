"""Exception types shared across the library."""


class UalLabError(Exception):
    """Base class for library errors."""


class NumericalError(UalLabError):
    """A matrix that must be positive definite is not; no jitter is added."""


class ConfigError(UalLabError):
    """An experiment configuration is malformed or semantically invalid."""


class DataError(UalLabError):
    """A dataset file does not satisfy its declared schema."""


class TruncationError(UalLabError):
    """A truncated-domain computation does not cover enough probability mass."""
