"""Exception hierarchy shared across the pipeline."""


class PersonaMinerError(Exception):
    """Base class for all package errors."""


class ConfigError(PersonaMinerError, ValueError):
    """Invalid or missing configuration (bad patterns, bad paths, bad values)."""


class RetryableFetchError(PersonaMinerError):
    """Transient transport failure; the caller may retry."""


class RateBudgetError(PersonaMinerError):
    """API rate budget exhausted; carries the reset time when known."""

    def __init__(self, message: str, reset_at=None):
        super().__init__(message)
        self.reset_at = reset_at


class ArchiveFormatError(PersonaMinerError):
    """Archive header missing, malformed, or of an unsupported version."""


class DataValidationError(PersonaMinerError):
    """Inconsistent or out-of-contract data passed between stages."""
