"""Clifford circuits and tableaux over the elementary basis {H, S, CNOT, SWAP, CZ}.

Conjugation of Pauli strings is done at the bit level with exact phase
tracking; the dense matrix of any circuit is available as a cross-check.
``routing_clifford_2q`` synthesises, constructively, a short circuit mapping
any nontrivial two-qubit Pauli onto a bare Z of a chosen wire - the local
step used to sweep a Pauli string through a causal slice.
"""

from __future__ import annotations

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


def _conj_h(p: PauliString, q: int) -> PauliString:
    pos = q - 1
    xb = (p.x_bits >> pos) & 1
    zb = (p.z_bits >> pos) & 1
    flip = (xb ^ zb) << pos
    return PauliString(p.n, p.x_bits ^ flip, p.z_bits ^ flip,
                       p.phase_exp + 2 * (xb & zb))


def _conj_s(p: PauliString, q: int) -> PauliString:
    pos = q - 1
    xb = (p.x_bits >> pos) & 1
    zb = (p.z_bits >> pos) & 1
    return PauliString(p.n, p.x_bits, p.z_bits ^ (xb << pos),
                       p.phase_exp + 2 * (xb & zb))


def _conj_cnot(p: PauliString, c: int, t: int) -> PauliString:
    pc, pt = c - 1, t - 1
    xc = (p.x_bits >> pc) & 1
    zc = (p.z_bits >> pc) & 1
    xt = (p.x_bits >> pt) & 1
    zt = (p.z_bits >> pt) & 1
    phase = p.phase_exp + 2 * (xc & zt & (xt ^ zc ^ 1))
    return PauliString(p.n, p.x_bits ^ (xc << pt), p.z_bits ^ (zt << pc), phase)


def _conj_swap(p: PauliString, a: int, b: int) -> PauliString:
    pa, pb = a - 1, b - 1
    x, z = p.x_bits, p.z_bits
    xa, xb = (x >> pa) & 1, (x >> pb) & 1
    za, zb = (z >> pa) & 1, (z >> pb) & 1
    if xa != xb:
        x ^= (1 << pa) | (1 << pb)
    if za != zb:
        z ^= (1 << pa) | (1 << pb)
    return PauliString(p.n, x, z, p.phase_exp)


def conjugate_pauli_by_gate(p: PauliString, name: str,
                            qubits: tuple[int, ...]) -> PauliString:
    """Image g P g^dagger for a single elementary gate."""
    for q in qubits:
        if not 1 <= q <= p.n:
            raise InvalidQubit(f"qubit {q} outside [1, {p.n}]")
    if name == "H":
        return _conj_h(p, qubits[0])
    if name == "S":
        return _conj_s(p, qubits[0])
    if name == "CNOT":
        return _conj_cnot(p, qubits[0], qubits[1])
    if name == "SWAP":
        return _conj_swap(p, qubits[0], qubits[1])
    if name == "CZ":
        # CZ = H(t) CNOT(c,t) H(t)
        a, b = qubits
        return _conj_h(_conj_cnot(_conj_h(p, b), a, b), b)
    raise ValueError(f"unknown gate {name!r}")


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
        for name, qubits in self.gates:
            if wires is not None:
                qubits = tuple(wires[q - 1] for q in qubits)
            p = conjugate_pauli_by_gate(p, name, qubits)
        return p

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
    """Conjugation action of a Clifford unitary on the 2n Pauli generators.

    ``x_images[j]`` is C X_{j+1} C^dagger and ``z_images[j]`` is
    C Z_{j+1} C^dagger, phases included.  The tableau is a builder:
    :meth:`apply_gate` and :meth:`apply_circuit` post-compose (C becomes
    G C, so G acts after C), and :meth:`prepend_circuit` pre-composes (C
    becomes C G).  Treat a fully built tableau as read-only.
    """

    n: int
    x_images: list[PauliString]
    z_images: list[PauliString]

    @classmethod
    def identity(cls, n: int) -> CliffordTableau:
        return cls(
            n,
            [PauliString.single(n, "X", q) for q in range(1, n + 1)],
            [PauliString.single(n, "Z", q) for q in range(1, n + 1)],
        )

    @classmethod
    def from_circuit(cls, circuit: CliffordCircuit, n: int | None = None,
                     wires: tuple[int, ...] | None = None) -> CliffordTableau:
        n = circuit.n if n is None else n
        tab = cls.identity(n)
        tab.apply_circuit(circuit, wires)
        return tab

    def apply_gate(self, name: str, qubits: tuple[int, ...]) -> None:
        self.x_images = [conjugate_pauli_by_gate(p, name, qubits)
                         for p in self.x_images]
        self.z_images = [conjugate_pauli_by_gate(p, name, qubits)
                         for p in self.z_images]

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
        C (G P G^dagger) C^dagger; an empty circuit is a no-op.
        """
        if circuit.is_identity:
            return
        images = {}
        for local, wire in enumerate(wires, start=1):
            for kind in ("X", "Z"):
                moved = circuit.conjugate(
                    PauliString.single(circuit.n, kind, local))
                images[kind, wire] = self.conjugate(
                    moved.embedded(self.n, wires))
        for (kind, wire), image in images.items():
            (self.x_images if kind == "X" else self.z_images)[wire - 1] = image

    def conjugate(self, p: PauliString) -> PauliString:
        """C P C^dagger by composing generator images.

        Decomposes P as i^{phase+#Y} X^x Z^z and multiplies the stored
        images of the set bits, X block before Z block.
        """
        if p.n != self.n:
            raise DimensionMismatch(
                f"tableau on {self.n} qubits, string on {p.n}")
        acc = PauliString.identity(self.n)
        for pos in range(self.n):
            if (p.x_bits >> pos) & 1:
                acc = acc * self.x_images[pos]
        for pos in range(self.n):
            if (p.z_bits >> pos) & 1:
                acc = acc * self.z_images[pos]
        extra = p.phase_exp + (p.x_bits & p.z_bits).bit_count()
        return PauliString(self.n, acc.x_bits, acc.z_bits,
                           acc.phase_exp + extra)

    def is_symplectic(self) -> bool:
        """Check that images preserve all pairwise (anti)commutation relations."""
        gens = ([PauliString.single(self.n, "X", q) for q in range(1, self.n + 1)]
                + [PauliString.single(self.n, "Z", q) for q in range(1, self.n + 1)])
        imgs = self.x_images + self.z_images
        for i in range(2 * self.n):
            if imgs[i].phase_exp % 2:
                return False
            for j in range(i + 1, 2 * self.n):
                if gens[i].commutes_with(gens[j]) != imgs[i].commutes_with(imgs[j]):
                    return False
        return True


def _normalizer_ops(letter: str, qubit: int) -> list[tuple[str, tuple[int, ...]]]:
    # Phase-clean single-qubit normalizations onto Z.
    if letter in ("I", "Z"):
        return []
    if letter == "X":
        return [("H", (qubit,))]
    # Y -> -Y -> X -> Z under H, S, H.
    return [("H", (qubit,)), ("S", (qubit,)), ("H", (qubit,))]


def routing_clifford_2q(p2: PauliString, target: int = 2) -> CliffordCircuit:
    """Two-qubit Clifford circuit C with C p2 C^dagger = Z on ``target``.

    The input must be a nontrivial unphased two-qubit string.  The
    construction normalizes each nontrivial letter to Z, then consolidates
    with a CNOT (or moves with a SWAP); a Y x Y input is first reduced by a
    CNOT and the resulting sign cleared while a letter still anticommutes
    with Z.  At most five elementary gates are emitted.
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
