"""Exception types shared across the toolkit."""


class ArwError(Exception):
    """Base class for all toolkit errors."""


class Overflow(ArwError):
    """A quantity left the signed 64-bit range it is contracted to stay in."""


class EmptyShell(ArwError):
    """Operation requires a nonempty lattice shell."""


class UnknownPolicy(ArwError):
    """Sequence policy name not recognized."""


class AliasError(ArwError):
    """Grid resolution too small to hold the shell's frequencies alias-free."""


class MemoryBudgetExceeded(ArwError):
    """Requested grid would exceed the configured memory budget."""


class QuadratureNonConvergence(ArwError):
    """Quadrature refinement schedule exhausted before reaching tolerance."""


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


class ConfigParseError(ArwError):
    """Config file is not syntactically valid; carries line information."""


class ValidationError(ArwError, ValueError):
    """Config or argument value is structurally invalid; names the field.

    Also a ValueError, so callers that guard library calls with
    `except ValueError` keep working."""


class IoError(ArwError):
    """File could not be read or written, or has an invalid format."""
