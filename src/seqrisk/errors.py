"""Exception types shared across the toolkit."""


class SeqriskError(Exception):
    """Base class for all toolkit errors."""


class NumericsError(SeqriskError):
    """A forward value became NaN/Inf, or training diverged."""


class ContractError(SeqriskError):
    """A documented precondition was violated by the caller."""
