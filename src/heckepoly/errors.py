"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Rejected input: bad family/rank, non-minuscule coweight, domain
    mismatch, malformed serialization.  Maps to CLI exit code 2."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed one of its bounds (support, Weyl
    order, size of a rational); the message names the stage and the
    bound.  Maps to CLI exit code 3."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed (e.g. non-constant double-coset
    coefficients).  Indicates corrupted data or a bug, never bad user
    input."""
