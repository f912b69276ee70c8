"""Exception types used across the library.

Everything inherits from SgdecompError so callers can catch broadly.
DivisionByZero is deliberately absent: inverting zero raises the builtin
ZeroDivisionError, which is what Python users expect.
"""


class SgdecompError(Exception):
    """Base class for all library errors."""


class CompositeP(SgdecompError):
    """The characteristic passed to make_field is not prime."""


class FieldTooLarge(SgdecompError):
    """q = p^n exceeds the supported cap (2^20)."""


class NotAPrimePower(SgdecompError):
    """A q argument does not factor as p^n."""


class ContextMismatch(SgdecompError):
    """Two operands belong to different field contexts."""


class EmptyInput(SgdecompError):
    """An operation that needs a nonempty set received an empty one."""


class DuplicateElements(SgdecompError):
    """An element sequence that must be duplicate-free contains repeats."""


class ZeroDilation(SgdecompError):
    """Dilation by zero is not a bijection and is refused."""


class OutOfRange(SgdecompError, ValueError):
    """An integer argument lies outside its range: an element index or n < 1.

    It is also a ValueError, so callers that catch ValueError still do.
    """


class NotADivisor(SgdecompError):
    """d does not divide q - 1."""


class DegenerateD(SgdecompError):
    """d outside the admissible range for the requested operation."""


class NotAProperDivisor(SgdecompError):
    """A subfield degree k must satisfy k | n and k < n."""


class PTooSmall(SgdecompError):
    """A construction needs a larger characteristic than was given."""


class TrivialCharacter(SgdecompError):
    """The requested character is trivial (order 1) where a nontrivial one is required."""


class HypothesisViolated(SgdecompError):
    """Input data does not satisfy the stated hypothesis of the routine."""


class InternalProofFailure(SgdecompError):
    """A fact the underlying mathematics guarantees failed to verify.

    Raised only on library bugs, never on legitimate inputs.
    """


class FieldTooLargeForExhaustive(SgdecompError):
    """The field exceeds the cap for an exhaustive search mode."""
