"""Exception types shared across the package."""


class BudgetBuilderError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BudgetBuilderError):
    """Invalid process / sweep / CLI configuration."""


class StreamExhausted(BudgetBuilderError):
    """next_edge called after all t edges were revealed."""


class ContractViolation(BudgetBuilderError):
    """A strategy or detector broke the process's contract; the CLI exits 3."""


class DuplicateEdgeError(ContractViolation):
    """Edge inserted twice into a graph."""


class BudgetContractViolation(ContractViolation):
    """A strategy returned 'buy' with the budget already exhausted."""


class OnlineRuleViolation(ContractViolation):
    """A strategy bought a row out of stream order (at or before the row it
    bought last, or at or past t), a row or an end that is not an integer,
    or a pair other than the one revealed at its row, named in the
    message."""


class DetectorMismatch(ContractViolation):
    """Incremental detection disagrees with batch containment on the final graph."""


class UnsupportedPattern(BudgetBuilderError):
    """Operation does not support the requested pattern."""


class CrossoverNotEstimable(BudgetBuilderError):
    """Phase points do not bracket the 50% success level."""
