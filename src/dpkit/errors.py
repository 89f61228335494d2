"""Exception types shared across the package.

Invalid arguments and violated mathematical domains raise the built-in
``ValueError``; the classes below cover the two failure modes that need
to be distinguished from bad input.
"""

__all__ = ["DpkitError", "NumericError", "PreconditionError", "ConfigError"]


class DpkitError(Exception):
    """Base class for package-specific failures."""


class NumericError(DpkitError):
    """An iteration or quadrature failed to reach its tolerance.

    Carries enough context (bracket endpoints, iteration counts, offending
    element ids) in the message to diagnose the failure without re-running.
    """


class PreconditionError(DpkitError):
    """A mathematical precondition of an algorithm is violated.

    Raised e.g. when a coercivity or uniqueness margin is not positive, so
    the requested computation is not backed by the theory it implements.
    """


class ConfigError(DpkitError):
    """A run configuration is malformed or internally inconsistent."""
