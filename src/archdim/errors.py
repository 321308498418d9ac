"""Exception hierarchy, and the type checks of parsed JSON input.

Validation errors (bad user input) subclass ``ValueError`` so callers may
catch either the specific class or the builtin.  Verdict errors signal that
a computed quantity violated a bound that the library promises to hold;
they are never raised for bad input.
"""


class ArchdimError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(ArchdimError, ValueError):
    """Invalid input to a library operation."""


class InvalidQubit(ValidationError):
    """Qubit index out of range, or a gate pairing a qubit with itself."""


class InvalidBoundary(ValidationError):
    """Slice boundaries not strictly increasing or out of range."""


class OddQubitCount(ValidationError):
    """Brickwork generation requires an even number of qubits."""


class DimensionMismatch(ValidationError):
    """Operands act on different numbers of qubits."""


class TrivialPauli(ValidationError):
    """The identity Pauli string was passed where a nontrivial one is required."""


class PhasedPauli(ValidationError):
    """A phased Pauli string was passed where an unphased one is required.

    Conjugation preserves the scalar prefactor, so routing a string carrying
    a nonzero power of i to a bare single-qubit Z is impossible.
    """


class NotOnSlice(ValidationError):
    """Pauli string acts on qubits outside the slice's register."""


class NotCausal(ValidationError):
    """The gate range is not a causal slice (no sink qubit exists)."""


class TooManySlices(ValidationError):
    """Requested slice count exceeds the independent-direction budget."""


class SizeLimit(ValidationError):
    """A dense computation's estimated peak memory exceeds the budget."""


class CountMismatch(ValidationError):
    """Gate assignment length differs from the architecture's gate count."""


class AlphaOutOfRange(ValidationError):
    """Probability parameter alpha must lie in [0, 1)."""


class CertificateMismatch(ArchdimError):
    """A witness certificate failed independent re-verification."""


class VerdictError(ArchdimError):
    """A computed quantity violated a bound the library asserts."""


def json_int(x: object, what: str) -> int:
    """``x``, a parsed JSON integer field named ``what``.  A float, a bool
    or a string raises ValidationError: it is refused, never truncated."""
    if type(x) is not int:  # bool is a subclass of int
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return x


def json_typed(x: object, kind: type, what: str):
    """``x``, a parsed JSON value named ``what`` that must be of type
    ``kind`` (dict, list or str); any other value raises ValidationError."""
    if not isinstance(x, kind):
        noun = "a JSON object" if kind is dict else f"a {kind.__name__}"
        raise ValidationError(f"{what} must be {noun}, got {x!r}")
    return x
