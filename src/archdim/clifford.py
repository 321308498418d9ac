"""Clifford circuits and tableaux over the elementary basis {H, S, CNOT, SWAP, CZ}.

Conjugation works on packed rows with exact phases.  A Pauli operator is one
integer ``x | z << n`` plus an exponent e in XZ form, P = i^e X^x Z^z, as
in the bit-packed tableau of Aaronson and Gottesman (quant-ph/0406196) with
the phase kept mod 4 (``PauliString.xz_row`` converts).  Two rows multiply
by XOR, and since Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1 their exponents add
to e1 + e2 + 2 |z1 & x2|.  Two primitives carry every Clifford action:
``CliffordCircuit.conjugate_row`` conjugates one row gate by gate, and a
``CliffordTableau`` holds the 2n generator images, grows by
``prepend_circuit`` (following a plan cached on each circuit) and applies
them by ``image`` or ``conjugate``.  No dense matrix enters: the gate matrices and a circuit's dense unitary, the
cross-check of every conjugation, live in ``tests/reference.py``.
``routing_clifford_2q`` synthesises, constructively, a short circuit
mapping any nontrivial two-qubit Pauli onto a bare Z of a chosen wire - the
local step used to sweep a Pauli string through a causal slice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    InvalidQubit,
    PhasedPauli,
    TrivialPauli,
    ValidationError,
    check_int,
    json_typed,
)
from .pauli import PauliString

GATE_ARITY = {"H": 1, "S": 1, "CNOT": 2, "SWAP": 2, "CZ": 2}

# Inverses within the same basis: S^-1 = S S S, every other gate is its own.
_GATE_INVERSE = {name: (name,) for name in GATE_ARITY} | {"S": ("S",) * 3}


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
        raise ValidationError(f"unknown gate {name!r}")
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
                raise ValidationError(f"unknown gate {name!r}")
            if len(qubits) != arity:
                raise ValidationError(f"{name} takes {arity} qubits, got {qubits}")
            if len(set(qubits)) != len(qubits):
                raise InvalidQubit(f"{name} qubits must be distinct: {qubits}")
            _check_qubits(qubits, self.n)

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def is_identity(self) -> bool:
        return not self.gates

    def inverse(self) -> CliffordCircuit:
        """The inverse circuit, built once per circuit object."""
        return self._inverse

    @functools.cached_property
    def _inverse(self) -> CliffordCircuit:
        return CliffordCircuit(self.n, tuple(
            (inv, qubits) for name, qubits in reversed(self.gates)
            for inv in _GATE_INVERSE[name]))

    @functools.cached_property
    def prepend_plan(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        """How ``CliffordTableau.prepend_circuit`` rewrites a tableau, built
        once per circuit object from ``circuit_images``: one
        (slot, picks, phase) entry per local generator slot whose image is
        not the generator itself, in the slot order of ``circuit_images``.
        The new row of that slot is the product, in order, of the old rows
        of the local slots in ``picks`` (the set bits of its local image),
        and its exponent starts at the local image's phase.  Slots left out
        keep their rows, so an empty circuit has an empty plan."""
        local_rows, local_phases = circuit_images(self)
        return tuple(
            (s, tuple(i for i in range(2 * self.n) if local >> i & 1), e)
            for s, (local, e) in enumerate(zip(local_rows, local_phases))
            if (local, e) != (1 << s, 0))

    def conjugate_row(self, row: int, e: int, n: int,
                      wires: tuple[int, ...] | None = None) -> tuple[int, int]:
        """C P C^dagger for P = i^e X^x Z^z given as a packed n-qubit row,
        gate by gate, with local qubit q placed on ``wires[q - 1]``."""
        for name, qubits in self.gates:
            if wires is not None:
                qubits = tuple(wires[q - 1] for q in qubits)
            _check_qubits(qubits, n)
            row, e = _gate_on_row(row, e, n, name, qubits)
        return row, e

    def to_json_ops(self) -> list[list]:
        return [[name, *qubits] for name, qubits in self.gates]

    @classmethod
    def from_json_ops(cls, n: int, ops: object) -> CliffordCircuit:
        """Circuit from parsed JSON ops ``[name, qubit, ...]`` with a string
        name and integer qubits (``check_int``); any other shape raises
        ValidationError."""
        for op in json_typed(ops, list, "a circuit"):
            if not (isinstance(op, list) and op and isinstance(op[0], str)):
                raise ValidationError(
                    f"an op must be a gate name and its qubits, got {op!r}")
        return cls(n, tuple(
            (op[0], tuple(check_int(q, "gate qubit") for q in op[1:]))
            for op in ops))


@dataclass
class CliffordTableau:
    """Conjugation action of a Clifford unitary C on the 2n Pauli generators.

    ``rows[b]`` and ``phases[b]`` hold, in packed XZ form (module
    docstring), the image under C of the generator whose own packed row is
    ``1 << b``: C X_q C^dagger at b = q - 1 and C Z_q C^dagger at
    b = n + q - 1.  Images of X^x Z^z are then products of the rows at its
    set bits, in increasing bit order (:meth:`image`, :meth:`conjugate`).
    The tableau grows only by :meth:`prepend_circuit`, which pre-composes
    (C becomes C G).  Treat a fully built tableau as read-only.
    """

    n: int
    rows: list[int]
    phases: list[int]

    @classmethod
    def identity(cls, n: int) -> CliffordTableau:
        return cls(n, [1 << b for b in range(2 * n)], [0] * (2 * n))

    def prepend_circuit(self, circuit: CliffordCircuit,
                        wires: tuple[int, ...]) -> None:
        """Pre-compose ``circuit`` G, placed on ``wires``: C becomes C G.

        Only the generators on ``wires`` change, each image P becoming
        C (G P G^dagger) C^dagger: the circuit's cached ``prepend_plan``
        names which current rows of ``wires`` to multiply for each slot
        that changes.  The wires are checked even for an empty circuit,
        which is then a no-op.
        """
        n = self.n
        if len(wires) != circuit.n:
            raise DimensionMismatch(
                f"{circuit.n}-qubit circuit needs {circuit.n} wires, "
                f"got {len(wires)}")
        _check_qubits(wires, n)
        plan = circuit.prepend_plan
        if not plan:
            return
        slots = [w - 1 for w in wires] + [n + w - 1 for w in wires]
        rows, phases = self.rows, self.phases
        old = [(rows[s], phases[s]) for s in slots]
        for k, picks, e in plan:
            acc = 0
            for i in picks:
                row, f = old[i]
                e += f + 2 * ((acc >> n) & row).bit_count()
                acc ^= row
            s = slots[k]
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


@functools.lru_cache(maxsize=1024)
def circuit_images(circuit: CliffordCircuit,
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Packed rows and phases of the circuit's own tableau: the images of
    X_1..X_k, Z_1..Z_k on its k local qubits, each the ``conjugate_row``
    image of the generator row ``1 << b``, in the layout of
    ``CliffordTableau.rows``.  The rows alone are its phase-free symplectic
    map.  Cached per distinct circuit, equal circuits sharing one entry;
    ``CliffordCircuit.prepend_plan`` reads it once per circuit object."""
    k = circuit.n
    images = [circuit.conjugate_row(1 << b, 0, k) for b in range(2 * k)]
    return tuple(r for r, _ in images), tuple(e for _, e in images)


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
