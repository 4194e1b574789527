"""Exception hierarchy shared by all spinbath modules."""

from __future__ import annotations


class SpinbathError(Exception):
    """Base class for all errors raised by this package."""


class SpecificationError(SpinbathError, ValueError):
    """A chain specification is internally inconsistent (bad site index, duplicate coupling, ...)."""


class ValidationError(SpinbathError, ValueError):
    """An input value violates a documented precondition (non-Hermitian matrix, dimension mismatch, ...)."""


class DomainError(SpinbathError, ValueError):
    """A function was evaluated outside its mathematical domain (e.g. spectral density at omega <= 0)."""


class CapacityError(SpinbathError):
    """The request exceeds the exact-enumeration scale this package is built for."""


class DegenerateGapError(SpinbathError):
    """The spectrum is degenerate: two levels lie within the tolerance.

    The secular rate construction needs a nondegenerate spectrum; the
    builders refuse a degenerate one and name the offending level pair in
    the message.  Equal transition gaps alone are admitted.
    """


class NumericalIntegrityError(SpinbathError):
    """A numerical result drifted past its guaranteed tolerance.

    Raised instead of silently repairing the result (renormalising,
    clamping negative populations, ...).
    """


class ConfigError(SpinbathError):
    """A run configuration file is malformed or violates the schema."""
