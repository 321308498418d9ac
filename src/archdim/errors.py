"""Exception hierarchy, the frame-mode, integer and seed checks, and the
type checks of parsed JSON input.

Validation errors (bad user input) subclass ``ValueError`` so callers may
catch either the specific class or the builtin.  Verdict errors signal that
a computed quantity violated a bound that the library promises to hold;
they are never raised for bad input.
"""

import numbers


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


def check_mode(mode: object, what: str = "mode") -> None:
    """Refuse a frame mode other than "unitary" or "state" with a
    ValidationError that names it ``what``."""
    if mode not in ("unitary", "state"):
        raise ValidationError(
            f"{what} must be 'unitary' or 'state', got {mode!r}")


def check_int(x: object, what: str) -> int:
    """``x`` as an int, or ValidationError that names it ``what`` unless it
    is an integer (a Python or numpy one): a float, a bool, a string or
    None is refused, never truncated.  Parsed JSON input takes this check
    too."""
    if type(x) is int:  # the common case, without the ABC check
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return int(x)


def check_seed(seed: object) -> int:
    """``seed`` as an int, or ValidationError unless it is a nonnegative
    integer (``check_int``)."""
    seed = check_int(seed, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return seed


def json_typed(x: object, kind: type, what: str):
    """``x``, a parsed JSON value named ``what`` that must be of type
    ``kind`` (dict, list or str); any other value raises ValidationError."""
    if not isinstance(x, kind):
        noun = "a JSON object" if kind is dict else f"a {kind.__name__}"
        raise ValidationError(f"{what} must be {noun}, got {x!r}")
    return x
