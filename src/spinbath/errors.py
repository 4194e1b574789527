"""Exception hierarchy shared by all spinbath modules."""

from __future__ import annotations


class SpinbathError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SpinbathError, ValueError):
    """An input value violates a documented precondition: an inconsistent chain
    specification, a bath that does not match its transition table, a gap
    omega <= 0, a dimension mismatch, ..."""


class CapacityError(SpinbathError):
    """The request exceeds the exact-enumeration scale this package is built for."""


class DegenerateGapError(SpinbathError):
    """The spectrum is degenerate: two levels lie within the tolerance.

    The secular rate construction needs a nondegenerate spectrum; the
    transition table (`bath.coupling_matrix_elements`) refuses a degenerate
    one and names the offending level pair in the message.  Equal transition
    gaps alone are admitted.
    """


class NumericalIntegrityError(SpinbathError):
    """A numerical result drifted past its guaranteed tolerance.

    Raised instead of silently repairing the result (renormalising,
    clamping negative populations, ...).
    """


class ConfigError(SpinbathError):
    """A run configuration file is malformed or violates the schema."""
