"""Clifford circuits and tableaux over the elementary basis {H, S, CNOT, SWAP, CZ}.

Conjugation works on packed rows with exact phases.  A Pauli operator is one
integer ``x | z << n`` plus an exponent e in XZ form, P = i^e X^x Z^z, as
in the bit-packed tableau of Aaronson and Gottesman (quant-ph/0406196) with
the phase kept mod 4.  Two rows multiply by XOR, and since
Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1 their exponents add to
e1 + e2 + 2 |z1 & x2|.  A ``PauliString``, whose letters carry the i of
each Y, converts with phase_exp = e - |x & z|.  The dense matrix of any
circuit is available as a cross-check.  ``routing_clifford_2q``
synthesises, constructively, a short circuit mapping any nontrivial
two-qubit Pauli onto a bare Z of a chosen wire - the local step used to
sweep a Pauli string through a causal slice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dense import apply_gate_left
from .errors import (
    DimensionMismatch,
    InvalidQubit,
    PhasedPauli,
    TrivialPauli,
)
from .pauli import PauliString

_SQRT2 = 1.0 / np.sqrt(2.0)

GATE_ARITY = {"H": 1, "S": 1, "CNOT": 2, "SWAP": 2, "CZ": 2}

# Local qubit 1 is the most significant bit; CNOT control is its first qubit.
GATE_MATRICES: dict[str, np.ndarray] = {
    "H": np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}

# Inverses within the same basis (S^-1 = S S S).
_GATE_INVERSE = {
    "H": ("H",),
    "S": ("S", "S", "S"),
    "CNOT": ("CNOT",),
    "SWAP": ("SWAP",),
    "CZ": ("CZ",),
}


def _check_qubits(qubits: tuple[int, ...], n: int) -> None:
    for q in qubits:
        if not 1 <= q <= n:
            raise InvalidQubit(f"qubit {q} outside [1, {n}]")


def _gate_on_row(row: int, e: int, n: int, name: str,
                 qubits: tuple[int, ...]) -> tuple[int, int]:
    """g (i^e X^x Z^z) g^dagger in packed XZ form, for one elementary gate g.

    Each qubit's factor X^a Z^b maps on its own: H gives (-1)^ab X^b Z^a and
    S gives i^a X^a Z^(a+b).  CNOT and SWAP map the X block into X's and the
    Z block into Z's, so no sign arises; CZ turns X_a X_b into
    X_a Z_b Z_a X_b = -X_a X_b Z_a Z_b.
    """
    if name == "H" or name == "S":
        xp = qubits[0] - 1
        zp = xp + n
        a, b = row >> xp & 1, row >> zp & 1
        if name == "S":
            return row ^ a << zp, (e + a) & 3
        if a != b:
            row ^= (1 << xp) | (1 << zp)
        return row, (e + 2 * (a & b)) & 3
    if name not in GATE_ARITY:
        raise ValueError(f"unknown gate {name!r}")
    pa, pb = qubits[0] - 1, qubits[1] - 1
    xa, xb = row >> pa & 1, row >> pb & 1
    if name == "CNOT":  # x_target ^= x_control, z_control ^= z_target
        return row ^ xa << pb ^ (row >> (n + pb) & 1) << (n + pa), e
    if name == "CZ":
        return row ^ xa << (n + pb) ^ xb << (n + pa), (e + 2 * (xa & xb)) & 3
    for lo, hi in ((pa, pb), (n + pa, n + pb)):  # SWAP
        if (row >> lo ^ row >> hi) & 1:
            row ^= (1 << lo) | (1 << hi)
    return row, e


def conjugate_pauli_by_gate(p: PauliString, name: str,
                            qubits: tuple[int, ...]) -> PauliString:
    """Image g P g^dagger for a single elementary gate."""
    _check_qubits(qubits, p.n)
    return PauliString.from_xz_row(
        p.n, *_gate_on_row(*p.xz_row(), p.n, name, qubits))


@dataclass(frozen=True)
class CliffordCircuit:
    """Ordered list of named elementary gates on an n-qubit register."""

    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        for name, qubits in self.gates:
            arity = GATE_ARITY.get(name)
            if arity is None:
                raise ValueError(f"unknown gate {name!r}")
            if len(qubits) != arity:
                raise ValueError(f"{name} takes {arity} qubits, got {qubits}")
            if len(set(qubits)) != len(qubits):
                raise InvalidQubit(f"{name} qubits must be distinct: {qubits}")
            for q in qubits:
                if not 1 <= q <= self.n:
                    raise InvalidQubit(f"qubit {q} outside [1, {self.n}]")

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def is_identity(self) -> bool:
        return not self.gates

    def inverse(self) -> CliffordCircuit:
        ops = []
        for name, qubits in reversed(self.gates):
            for inv in _GATE_INVERSE[name]:
                ops.append((inv, qubits))
        return CliffordCircuit(self.n, tuple(ops))

    def conjugate(self, p: PauliString,
                  wires: tuple[int, ...] | None = None) -> PauliString:
        """C P C^dagger, optionally with local qubits mapped onto ``wires``."""
        return PauliString.from_xz_row(
            p.n, *self.conjugate_row(*p.xz_row(), p.n, wires))

    def conjugate_row(self, row: int, e: int, n: int,
                      wires: tuple[int, ...] | None = None) -> tuple[int, int]:
        """``conjugate`` on the packed XZ form of an n-qubit string."""
        for name, qubits in self.gates:
            if wires is not None:
                qubits = tuple(wires[q - 1] for q in qubits)
            _check_qubits(qubits, n)
            row, e = _gate_on_row(row, e, n, name, qubits)
        return row, e

    def to_unitary(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix of the circuit (first gate acts first)."""
        dim = 2 ** self.n
        mat = np.eye(dim, dtype=complex)
        for name, qubits in self.gates:
            mat = apply_gate_left(mat, GATE_MATRICES[name], qubits, self.n)
        return mat

    def to_json_ops(self) -> list[list]:
        return [[name, *qubits] for name, qubits in self.gates]

    @classmethod
    def from_json_ops(cls, n: int, ops: list[list]) -> CliffordCircuit:
        return cls(n, tuple((op[0], tuple(op[1:])) for op in ops))


@dataclass
class CliffordTableau:
    """Conjugation action of a Clifford unitary C on the 2n Pauli generators.

    ``rows[b]`` and ``phases[b]`` hold, in packed XZ form (module
    docstring), the image under C of the generator whose own packed row is
    ``1 << b``: C X_q C^dagger at b = q - 1 and C Z_q C^dagger at
    b = n + q - 1.  Images of X^x Z^z are then products of the rows at its
    set bits, in increasing bit order.  ``x_images`` and ``z_images`` are
    read-only ``PauliString`` views.  The tableau is a builder:
    :meth:`apply_gate` and :meth:`apply_circuit` post-compose (C becomes
    G C, so G acts after C), and :meth:`prepend_circuit` pre-composes (C
    becomes C G).  Treat a fully built tableau as read-only.
    """

    n: int
    rows: list[int]
    phases: list[int]

    @classmethod
    def identity(cls, n: int) -> CliffordTableau:
        return cls(n, [1 << b for b in range(2 * n)], [0] * (2 * n))

    @classmethod
    def from_circuit(cls, circuit: CliffordCircuit, n: int | None = None,
                     wires: tuple[int, ...] | None = None) -> CliffordTableau:
        n = circuit.n if n is None else n
        tab = cls.identity(n)
        tab.apply_circuit(circuit, wires)
        return tab

    @property
    def x_images(self) -> tuple[PauliString, ...]:
        """C X_q C^dagger for q = 1..n."""
        return self._strings(0, self.n)

    @property
    def z_images(self) -> tuple[PauliString, ...]:
        """C Z_q C^dagger for q = 1..n."""
        return self._strings(self.n, 2 * self.n)

    def _strings(self, lo: int, hi: int) -> tuple[PauliString, ...]:
        return tuple(PauliString.from_xz_row(self.n, self.rows[b], self.phases[b])
                     for b in range(lo, hi))

    def apply_gate(self, name: str, qubits: tuple[int, ...]) -> None:
        _check_qubits(qubits, self.n)
        rows, phases = self.rows, self.phases
        for b in range(2 * self.n):
            rows[b], phases[b] = _gate_on_row(
                rows[b], phases[b], self.n, name, qubits)

    def apply_circuit(self, circuit: CliffordCircuit,
                      wires: tuple[int, ...] | None = None) -> None:
        for name, qubits in circuit.gates:
            if wires is not None:
                qubits = tuple(wires[q - 1] for q in qubits)
            self.apply_gate(name, qubits)

    def prepend_circuit(self, circuit: CliffordCircuit,
                        wires: tuple[int, ...]) -> None:
        """Pre-compose ``circuit`` G, placed on ``wires``: C becomes C G.

        Only the generators on ``wires`` change, each image P becoming
        C (G P G^dagger) C^dagger: G's local image of the generator, cached
        per circuit, names which current rows of ``wires`` to multiply.  An
        empty circuit is a no-op.
        """
        if circuit.is_identity:
            return
        n = self.n
        if len(wires) != circuit.n:
            raise DimensionMismatch(
                f"{circuit.n}-qubit circuit needs {circuit.n} wires, "
                f"got {len(wires)}")
        _check_qubits(wires, n)
        slots = [w - 1 for w in wires] + [n + w - 1 for w in wires]
        rows, phases = self.rows, self.phases
        old = [(rows[s], phases[s]) for s in slots]
        local_rows, local_phases = circuit_images(circuit)
        for s, local, e in zip(slots, local_rows, local_phases):
            acc = 0
            for i, (row, f) in enumerate(old):
                if local >> i & 1:
                    e += f + 2 * ((acc >> n) & row).bit_count()
                    acc ^= row
            rows[s], phases[s] = acc, e & 3

    def image(self, row: int, e: int) -> tuple[int, int]:
        """C (i^e X^x Z^z) C^dagger for a packed row ``x | z << n``, walking
        only its set bits."""
        rows, phases, n = self.rows, self.phases, self.n
        acc = 0
        while row:
            low = row & -row
            b = low.bit_length() - 1
            row ^= low
            img = rows[b]
            e += phases[b] + 2 * ((acc >> n) & img).bit_count()
            acc ^= img
        return acc, e & 3

    def conjugate(self, p: PauliString) -> PauliString:
        """C P C^dagger, phase included."""
        if p.n != self.n:
            raise DimensionMismatch(
                f"tableau on {self.n} qubits, string on {p.n}")
        return PauliString.from_xz_row(self.n, *self.image(*p.xz_row()))

    def is_symplectic(self) -> bool:
        """Check that the images are Hermitian and preserve all pairwise
        (anti)commutation relations: X_q and Z_q anticommute, all other
        generator pairs commute."""
        n, rows = self.n, self.rows
        for i, (ri, ei) in enumerate(zip(rows, self.phases)):
            if (ei - (ri & ri >> n).bit_count()) % 2:
                return False
            for j in range(i + 1, 2 * n):
                rj = rows[j]
                anti = ((ri & rj >> n).bit_count()
                        + (ri >> n & rj).bit_count()) % 2
                if anti != (j == i + n):
                    return False
        return True


@functools.lru_cache(maxsize=1024)
def circuit_images(circuit: CliffordCircuit,
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Packed rows and phases of the circuit's own tableau: the images of
    X_1..X_k, Z_1..Z_k on its k local qubits, in the layout of
    ``CliffordTableau.rows``.  The rows alone are its phase-free symplectic
    map.  Cached per distinct circuit."""
    tab = CliffordTableau.from_circuit(circuit)
    return tuple(tab.rows), tuple(tab.phases)


def _normalizer_ops(letter: str, qubit: int) -> list[tuple[str, tuple[int, ...]]]:
    # Phase-clean single-qubit normalizations onto Z.
    if letter in ("I", "Z"):
        return []
    if letter == "X":
        return [("H", (qubit,))]
    # Y -> -Y -> X -> Z under H, S, H.
    return [("H", (qubit,)), ("S", (qubit,)), ("H", (qubit,))]


@functools.lru_cache(maxsize=64)
def routing_clifford_2q(p2: PauliString, target: int = 2) -> CliffordCircuit:
    """Two-qubit Clifford circuit C with C p2 C^dagger = Z on ``target``.

    The input must be a nontrivial unphased two-qubit string.  The
    construction normalizes each nontrivial letter to Z, then consolidates
    with a CNOT (or moves with a SWAP); a Y x Y input is first reduced by a
    CNOT and the resulting sign cleared while a letter still anticommutes
    with Z.  At most five elementary gates are emitted.  The 30 possible
    circuits are cached, so equal inputs share one circuit object.
    """
    if p2.n != 2:
        raise DimensionMismatch(f"expected a 2-qubit string, got n={p2.n}")
    if p2.is_identity:
        raise TrivialPauli("the identity string cannot be routed to Z")
    if p2.phase_exp != 0:
        raise PhasedPauli(f"cannot route phased string {p2.label()!r}")
    if target not in (1, 2):
        raise InvalidQubit(f"target must be 1 or 2, got {target}")
    src = 2 if target == 1 else 1

    ops: list[tuple[str, tuple[int, ...]]] = []
    work = p2

    def emit(name: str, *qubits: int) -> None:
        nonlocal work
        ops.append((name, qubits))
        work = conjugate_pauli_by_gate(work, name, qubits)

    if work.letter(1) == "Y" and work.letter(2) == "Y":
        emit("CNOT", src, target)
    if work.phase_exp == 2:
        q = src if work.letter(src) in ("X", "Y") else target
        emit("S", q)
        emit("S", q)

    for q in (src, target):
        for name, qubits in _normalizer_ops(work.letter(q), q):
            emit(name, *qubits)

    if work.letter(src) == "Z":
        if work.letter(target) == "Z":
            emit("CNOT", src, target)
        else:
            emit("SWAP", 1, 2)

    expected = PauliString.single(2, "Z", target)
    if work != expected:
        raise AssertionError(
            f"routing failed: {p2.label()} -> {work.label()}")
    return CliffordCircuit(2, tuple(ops))
