"""Exception types shared across the toolkit."""


class ArwError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ArwError, ValueError):
    """Config or argument value is structurally invalid; names the field.

    Also a ValueError, so callers that guard library calls with
    `except ValueError` keep working.  The command line exits 2 on it and its
    subclasses alone."""


class Overflow(ArwError):
    """A quantity left the signed 64-bit range it is contracted to stay in."""


class EmptyShell(ValidationError):
    """Operation requires a nonempty lattice shell."""


class UnknownPolicy(ValidationError):
    """Sequence policy name not recognized."""


class MemoryBudgetExceeded(ArwError):
    """Requested grid would exceed the configured memory budget."""


class DegenerateIntegral(ArwError):
    """Local integral is numerically zero; ratio undefined."""


class Uncertified(ArwError):
    """Operation requires a certified nodal summary."""


class PerturbationTooLarge(ArwError):
    """Perturbation violates the sup-norm smallness preconditions."""


class InsufficientTrials(ArwError):
    """Not enough (certified) trials to compute the requested statistic."""


class DegreeTooSmall(ArwError):
    """Requested formal degree is below the polynomial's actual degree."""


class ExpansionBudgetExceeded(ArwError):
    """Symbolic determinant expansion exceeded its monomial budget."""


class IdentityFailure(ArwError):
    """An exact polynomial identity failed; indicates an implementation bug."""


class ConfigParseError(ValidationError):
    """Config file is not syntactically valid; carries line information."""


class AliasError(ValidationError):
    """Grid resolution too small to hold the shell's frequencies alias-free."""


class IoError(ArwError):
    """File could not be read or written, or has an invalid format."""
