"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: bad input / out-of-domain data exit
with 3, ill-conditioned numerical solves with 4, anything unexpected
with 5 (argparse itself uses 2 for usage errors).
"""


class VirminError(Exception):
    """Base class for all package-specific errors."""


class RangeError(VirminError):
    """A Kac label or model parameter is outside its allowed range."""


class ShapeError(VirminError):
    """Mismatched lengths or a non-homogeneous algebraic object."""


class FusionError(VirminError):
    """A requested channel is not allowed by the fusion rules."""


class DomainError(VirminError):
    """An evaluation point lies outside the region where the operation is defined."""


class ReductionError(VirminError):
    """Two-variable to one-variable reduction left residual dependence
    on the overall scale variable (inconsistent operator/anchor pair)."""


class StructureError(VirminError):
    """An ODE point is not regular singular where the operation requires it."""


class ModelViolationError(VirminError):
    """An exact minimal-model identity failed (an indicial exponent or a
    singular-vector count).  Surfaced as a diagnostic, never silently accepted."""


class LogarithmicCaseError(VirminError):
    """A local solution would need a logarithm: an inconsistent resonance
    or a repeated indicial root.  Minimal-model equations raise it too,
    at unphysical exponents and after a resonance set to zero."""


class ConditioningError(VirminError):
    """A numerical fit was too ill-conditioned to trust."""
