"""Exception types shared across the package."""


class QswarmError(Exception):
    """Base class for all package errors."""


class DomainError(QswarmError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(QswarmError, ValueError):
    """A scenario / parameter configuration is invalid."""


class EmptySwarmError(DomainError):
    """Operation requires a swarm with at least one sample."""


class TotalReductionError(DomainError):
    """Every amplitude fell below the amplitude quantum; the state was annihilated."""


class DegenerateStateError(DomainError):
    """Measurement attempted on a state with no nonzero amplitude."""


class MemoryBudgetError(QswarmError, RuntimeError):
    """A sample count passed 2**53, where float64 counts stop being exact."""


class DisjointnessError(DomainError):
    """One-particle states were required to occupy non-overlapping regions."""


class InterferenceConditionError(DomainError):
    """A composite's internal state depends on the composite position."""
