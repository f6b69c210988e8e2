"""Exception types shared across the package."""


class BudgetBuilderError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BudgetBuilderError):
    """Invalid process / sweep / CLI configuration."""


class StreamExhausted(BudgetBuilderError):
    """next_edge called after all t edges were revealed."""


class DuplicateEdgeError(BudgetBuilderError):
    """Edge inserted twice into a graph."""


class BudgetContractViolation(BudgetBuilderError):
    """A strategy returned 'buy' with the budget already exhausted."""


class OnlineRuleViolation(BudgetBuilderError):
    """A strategy bought a row out of stream order: at or before the row it
    bought last, or at or past t."""


class DetectorMismatch(BudgetBuilderError):
    """Incremental detection disagrees with batch containment on the final graph."""


class UnsupportedPattern(BudgetBuilderError):
    """Operation does not support the requested pattern."""


class CrossoverNotEstimable(BudgetBuilderError):
    """Phase points do not bracket the 50% success level."""
