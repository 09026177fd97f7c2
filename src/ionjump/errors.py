"""Exception types shared across the package.

Bound and simulator routines reject bad inputs eagerly with named errors
instead of propagating NaNs/infinities into tables and reports.
"""


class IonjumpError(Exception):
    """Base class for all package errors."""


class ParseError(IonjumpError):
    """Ion database file could not be parsed."""


class ValidationError(IonjumpError):
    """Ion database content violates an invariant."""


class MissingFieldError(ValidationError):
    """A required key is absent from a database record."""


class MissingIon(IonjumpError, KeyError):
    """Requested ion is not present in the database."""


class NonPositiveInput(IonjumpError, ValueError):
    """An argument that must be strictly positive was not."""


class NonPositiveFrequency(NonPositiveInput):
    """A frequency argument that must be strictly positive was not."""


class ZeroDetuning(IonjumpError, ValueError):
    """A detuning that appears in a denominator is zero."""


class OutOfRange(IonjumpError, ValueError):
    """A probability or count argument is outside its admissible range."""


class MissingQec(IonjumpError, ValueError):
    """An error-corrected formula was requested without overhead factors."""


class MissingTransitionData(IonjumpError, ValueError):
    """The ion record lacks a transition datum needed by a bound."""


class UnknownTransition(MissingTransitionData):
    """Transition does not belong to the given ion.

    A missing-data error: a bound that looks the transition up reports
    the lookup's own message.
    """


class WrongEncoding(IonjumpError, ValueError):
    """Scenario encoding does not match the requested bound."""


class AmbiguousRegime(IonjumpError, ValueError):
    """Neither extraneous level clearly dominates the Raman dynamics."""


class InvalidGateOperands(IonjumpError, ValueError):
    """Gate references repeated or out-of-range ion indices."""


class IndexOutOfRange(IonjumpError, IndexError):
    """Ion or level index outside the register layout."""


class ZeroFunction(IonjumpError, ValueError):
    """Input function is identically zero and cannot be normalized."""
