"""Pauli strings in symplectic (bitmask) form with exact phase tracking.

An n-qubit Pauli string is stored as two n-bit integers plus a power of i:

    P = i^phase_exp * (sigma_1 x sigma_2 x ... x sigma_n)

where the letter on qubit q is read from bit q-1 of ``x_bits``/``z_bits``:
(0,0) -> I, (1,0) -> X, (1,1) -> Y, (0,1) -> Z.  Qubit 1 is the leftmost
character of the text form and the most significant tensor factor of the
dense matrix.

Multiplication tracks phases mod 4 exactly, using Y = i X Z per qubit, so
for example X * Z = -iY on one qubit.  Bitmask integers keep products,
equality and hashing cheap at any register width.

The packed XZ form used by Clifford tableaux writes the same operator as
one integer row ``x_bits | z_bits << n`` and an exponent e with
P = i^e X^x Z^z, all X factors before all Z factors; since each Y carries
its own i, e = phase_exp + |x & z| (mod 4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionMismatch, InvalidQubit, ValidationError

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PHASE_PREFIX = {0: "", 1: "+i", 2: "-", 3: "-i"}
# Accept ASCII and Unicode minus on parse.
_LABEL_RE = re.compile(r"^(\+i|-i|−i|\+|-|−|i)?([IXYZ]+)$")
_PREFIX_PHASE = {
    None: 0, "+": 0, "i": 1, "+i": 1,
    "-": 2, "−": 2, "-i": 3, "−i": 3,
}

_MAT_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """Immutable n-qubit Pauli string ``i^phase_exp * letters``."""

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionMismatch(f"need at least one qubit, got n={self.n}")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise InvalidQubit(f"bitmask exceeds {self.n} qubits")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> PauliString:
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, kind: str, qubit: int) -> PauliString:
        """Single-letter string, e.g. ``single(3, "Z", 2)`` is IZI."""
        if kind not in _LETTER_BITS:
            raise ValueError(f"unknown Pauli letter {kind!r}")
        if not 1 <= qubit <= n:
            raise InvalidQubit(f"qubit {qubit} outside [1, {n}]")
        xb, zb = _LETTER_BITS[kind]
        p = qubit - 1
        return cls(n, xb << p, zb << p, 0)

    @classmethod
    def from_label(cls, text: str) -> PauliString:
        """Parse a text form like ``XYZI``, ``-iXZ`` or ``+IZ``."""
        m = isinstance(text, str) and _LABEL_RE.match(text.strip())
        if not m:
            raise ValidationError(f"cannot parse Pauli label {text!r}")
        prefix, letters = m.groups()
        phase = _PREFIX_PHASE[prefix]
        x = z = 0
        for pos, ch in enumerate(letters):
            xb, zb = _LETTER_BITS[ch]
            x |= xb << pos
            z |= zb << pos
        return cls(len(letters), x, z, phase)

    # -- inspection --------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def letter(self, qubit: int) -> str:
        if not 1 <= qubit <= self.n:
            raise InvalidQubit(f"qubit {qubit} outside [1, {self.n}]")
        p = qubit - 1
        xb = (self.x_bits >> p) & 1
        zb = (self.z_bits >> p) & 1
        return ("I", "Z", "X", "Y")[(xb << 1) | zb]

    def label(self) -> str:
        """Canonical text form; phase 0 prints with no prefix."""
        letters = "".join(self.letter(q) for q in range(1, self.n + 1))
        return _PHASE_PREFIX[self.phase_exp] + letters

    def xz_row(self) -> tuple[int, int]:
        """Packed XZ form (x_bits | z_bits << n, e), self = i^e X^x Z^z."""
        return (self.x_bits | self.z_bits << self.n,
                (self.phase_exp + (self.x_bits & self.z_bits).bit_count()) & 3)

    @classmethod
    def from_xz_row(cls, n: int, row: int, e: int) -> PauliString:
        """The string i^e X^x Z^z of a packed row ``x | z << n``."""
        x, z = row & ((1 << n) - 1), row >> n
        return cls(n, x, z, e - (x & z).bit_count())

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: PauliString) -> PauliString:
        if self.n != other.n:
            raise DimensionMismatch(
                f"cannot multiply strings on {self.n} and {other.n} qubits")
        x = self.x_bits ^ other.x_bits
        z = self.z_bits ^ other.z_bits
        # Each canonical letter string W satisfies W = i^{#Y} X^x Z^z, and
        # Z^z X^x' = (-1)^{z.x'} X^x' Z^z; collecting powers of i:
        y_self = (self.x_bits & self.z_bits).bit_count()
        y_other = (other.x_bits & other.z_bits).bit_count()
        y_res = (x & z).bit_count()
        cross = (self.z_bits & other.x_bits).bit_count()
        phase = (self.phase_exp + other.phase_exp
                 + y_self + y_other + 2 * cross - y_res) % 4
        return PauliString(self.n, x, z, phase)

    # -- dense form ---------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, qubit 1 as the most significant factor."""
        out = np.array([[1.0 + 0j]])
        for q in range(1, self.n + 1):
            out = np.kron(out, _MAT_1Q[self.letter(q)])
        return (1j ** self.phase_exp) * out


def xz_state_image(n: int, row: int, e: int) -> tuple[int, int]:
    """(bits, kappa) with ``i^e X^x Z^z |0...0> = i^kappa |bits>``: Z^z fixes
    |0...0>, so kappa = e and bits is x read with qubit 1 most significant."""
    x = row & ((1 << n) - 1)
    return int(format(x, f"0{n}b")[::-1], 2), e & 3


def lex_flips(n: int) -> Iterator[list[int]]:
    """Bits of the packed row ``x | z << n`` to flip to step from each
    nontrivial unphased string to the next in lexicographic label order,
    starting from the identity.

    The label is a base-4 odometer with qubit n the fastest digit.  Each
    letter step I -> X -> Y -> Z -> I flips one bit (x, z, x, z), so a step
    flips one bit plus one per carry.
    """
    digits = [0] * n
    while True:
        flips = []
        pos = n - 1
        while pos >= 0 and digits[pos] == 3:
            digits[pos] = 0
            flips.append(n + pos)
            pos -= 1
        if pos < 0:
            return
        digits[pos] += 1
        flips.append(n + pos if digits[pos] == 2 else pos)
        yield flips


def nontrivial_strings(n: int) -> Iterator[PauliString]:
    """All 4^n - 1 nontrivial unphased strings in lexicographic label order."""
    row, mask = 0, (1 << n) - 1
    for flips in lex_flips(n):
        for bit in flips:
            row ^= 1 << bit
        yield PauliString(n, row & mask, row >> n, 0)


TWO_QUBIT_GENERATORS: tuple[PauliString, ...] = tuple(nontrivial_strings(2))
TWO_QUBIT_GENERATOR_MATS: tuple[np.ndarray, ...] = tuple(
    p.to_matrix() for p in TWO_QUBIT_GENERATORS)
