"""Exception hierarchy shared across the pipeline."""


class LieSymError(Exception):
    """Base class for all package errors."""


class FormatError(LieSymError):
    """Malformed input file; carries path and line number."""

    def __init__(self, path, line, cause):
        super().__init__(f"{path}:{line}: {cause}")
        self.path = str(path)
        self.line = line
        self.cause = cause


class SingularMetricError(LieSymError):
    pass


class ChartError(LieSymError):
    pass


class NonClosureError(LieSymError):
    """A bracket fell outside the candidate span."""

    def __init__(self, message, pair=None, remainder=None):
        super().__init__(message)
        self.pair = pair
        self.remainder = remainder


class DependentBasisError(LieSymError):
    pass


class UnsupportedAdjointError(LieSymError):
    """Minimal polynomial outside the supported root classes."""


class AnsatzError(LieSymError):
    pass


class VerificationError(LieSymError):
    pass


class IntegrationError(LieSymError):
    """Singularity or non-finite state during numerical integration."""
