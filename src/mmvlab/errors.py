"""Exception types shared across the package."""


class MmvLabError(Exception):
    """Base class for all package errors."""


class SchemaError(MmvLabError):
    """Config document is malformed: unknown keys, wrong types, bad shapes."""


class InvariantError(MmvLabError):
    """Config parsed but violates a model invariant (coverage, PSD, masses)."""


class UnsupportedMeasure(MmvLabError):
    """Operation not defined for this jump-measure family or dimension."""


class NonIntegrable(MmvLabError):
    """Positive part of a variation integrand diverges; no drift exists."""


class OptimizationError(MmvLabError):
    """Search failed to bracket or converge."""


class DomainError(MmvLabError):
    """Argument outside the mathematical domain of a conversion."""


class InfiniteValue(MmvLabError):
    """A requested quantity is infinite for this model."""
