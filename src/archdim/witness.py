"""Clifford witness points certifying linear rank growth.

A causal slice can be filled with Clifford gates that sweep any chosen
nontrivial Pauli string onto a bare Z of the slice's sink qubit: each qubit's
factor travels along a path of the slice's in-tree, one two-qubit routing
step per hop, and merged paths proceed jointly.  Iterating over slices while
keeping the accumulated perturbation directions distinct yields a gate
assignment at which the contraction map provably has rank at least the slice
count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import contraction
from .architecture import Architecture, is_causal_slice
from .bounds import saturation_threshold
from .clifford import (
    CliffordCircuit,
    CliffordTableau,
    circuit_images,
    routing_clifford_2q,
)
from .errors import (
    CertificateMismatch,
    CountMismatch,
    NotCausal,
    NotOnSlice,
    PhasedPauli,
    TooManySlices,
    TrivialPauli,
    ValidationError,
)
from .pauli import PauliString, lex_flips, xz_state_image


@dataclass(frozen=True)
class PathTree:
    """In-tree of qubit paths to a slice's sink.

    ``next_hop[q]`` is the (gate_index, next_qubit) step that carries qubit
    q's Pauli factor one gate closer to the sink; gate indices are absolute
    and strictly increase along every root path, so merged paths never
    diverge after meeting.
    """

    n: int
    start: int
    stop: int
    sink: int
    wire_pairs: tuple[tuple[int, int], ...]
    next_hop: dict[int, tuple[int, int]]


def build_path_tree(arch: Architecture, start: int, stop: int,
                    sink: int | None = None) -> PathTree:
    """Deterministic in-tree over a causal slice, built back to front.

    Sweeping the slice's gates in reverse, a qubit not yet connected to the
    sink is attached through the latest gate that couples it to a connected
    qubit.  Hop gate indices therefore increase along every path, and each
    gate carries at most one hop.
    """
    if sink is None:
        sink = is_causal_slice(arch, start, stop)
        if sink is None:
            raise NotCausal(f"slice [{start}, {stop}) has no sink")
    connected = {sink}
    next_hop: dict[int, tuple[int, int]] = {}
    for idx in range(stop - 1, start - 1, -1):
        a, b = arch.gates[idx]
        in_a, in_b = a in connected, b in connected
        if in_a and not in_b:
            next_hop[b] = (idx, a)
            connected.add(b)
        elif in_b and not in_a:
            next_hop[a] = (idx, b)
            connected.add(a)
    if len(connected) != arch.n:
        missing = sorted(set(range(1, arch.n + 1)) - connected)
        raise NotCausal(
            f"slice [{start}, {stop}) is not causal: qubits {missing} "
            f"cannot reach {sink}")
    return PathTree(arch.n, start, stop, sink,
                    arch.gates[start:stop], dict(next_hop))


_EMPTY_2Q = CliffordCircuit(2)


def route_pauli_through_slice(tree: PathTree,
                              p: PauliString) -> dict[int, CliffordCircuit]:
    """Per-gate Clifford circuits conjugating ``p`` to Z on the sink.

    Gates off the sweep get the empty circuit.  At each hop gate the current
    two-qubit factor, if nontrivial, is routed onto the hop's destination
    wire as a bare Z; waiting factors on the destination merge into the same
    step.  The input must be nontrivial and unphased, since conjugation can
    never change the scalar prefactor.
    """
    if p.n != tree.n:
        raise NotOnSlice(f"string acts on {p.n} qubits, slice register is {tree.n}")
    if p.is_identity:
        raise TrivialPauli("the identity string has no routing")
    if p.phase_exp != 0:
        raise PhasedPauli(f"cannot route phased string {p.label()!r}")

    n = tree.n
    hop_for_gate = {idx: (q, nxt) for q, (idx, nxt) in tree.next_hop.items()}
    assignments: dict[int, CliffordCircuit] = {}
    row, e = p.xz_row()  # the swept string, in packed XZ form
    for offset, (a, b) in enumerate(tree.wire_pairs):
        idx = tree.start + offset
        hop = hop_for_gate.get(idx)
        circuit = _EMPTY_2Q
        if hop is not None:
            x = (row >> (a - 1) & 1) | (row >> (b - 1) & 1) << 1
            z = (row >> (n + a - 1) & 1) | (row >> (n + b - 1) & 1) << 1
            if x or z:
                _, dst = hop
                circuit = routing_clifford_2q(PauliString(2, x, z),
                                              target=1 if dst == a else 2)
                row, e = circuit.conjugate_row(row, e, n, wires=(a, b))
        assignments[idx] = circuit
    target = PauliString.single(n, "Z", tree.sink)
    if (row, e) != target.xz_row():
        raise AssertionError(
            f"routing failed: {p.label()} swept to "
            f"{PauliString.from_xz_row(n, row, e).label()}, "
            f"expected {target.label()}")
    return assignments


@dataclass(frozen=True)
class SliceRecord:
    start: int
    stop: int
    sink: int
    chosen: PauliString
    insertion_gate: int


@dataclass(frozen=True)
class WitnessCertificate:
    """Gate assignment plus the direction bookkeeping that certifies it.

    In unitary mode ``directions`` holds the T perturbation directions in
    the final frame, pairwise distinct up to phase.  In state mode
    ``state_images`` holds (bits, kappa) pairs with pairwise-distinct
    (bits, kappa mod 2), the real-linear independence criterion for
    i^kappa |bits>.
    """

    n: int
    mode: str
    gate_circuits: tuple[CliffordCircuit, ...]
    slices: tuple[SliceRecord, ...]
    directions: tuple[PauliString, ...] = ()
    state_images: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("unitary", "state"):
            raise ValidationError(
                f"certificate mode must be 'unitary' or 'state', got {self.mode!r}")

    @property
    def slice_count(self) -> int:
        return len(self.slices)

    def to_gate_assignment(self) -> "contraction.GateAssignment":
        return contraction.GateAssignment.from_circuits(self.gate_circuits)

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "mode": self.mode,
            "gates": [c.to_json_ops() for c in self.gate_circuits],
            "slices": [
                {
                    "start": s.start,
                    "stop": s.stop,
                    "sink": s.sink,
                    "q": s.chosen.label(),
                    "insertion_gate": s.insertion_gate,
                }
                for s in self.slices
            ],
        }
        if self.mode == "unitary":
            d["directions"] = [p.label() for p in self.directions]
        else:
            d["directions"] = [
                {"bits": format(bits, f"0{self.n}b"), "phase_exp": kappa}
                for bits, kappa in self.state_images
            ]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> WitnessCertificate:
        n = int(d["n"])
        mode = d["mode"]
        circuits = tuple(
            CliffordCircuit.from_json_ops(2, ops) for ops in d["gates"])
        slices = tuple(
            SliceRecord(int(s["start"]), int(s["stop"]), int(s["sink"]),
                        PauliString.from_label(s["q"]),
                        int(s["insertion_gate"]))
            for s in d["slices"])
        directions: tuple[PauliString, ...] = ()
        images: tuple[tuple[int, int], ...] = ()
        if mode == "unitary":
            directions = tuple(
                PauliString.from_label(lbl) for lbl in d["directions"])
        else:
            images = tuple(
                (int(e["bits"], 2), int(e["phase_exp"]))
                for e in d["directions"])
        return cls(n, mode, circuits, slices, directions, images)

    @classmethod
    def from_json(cls, text: str) -> WitnessCertificate:
        return cls.from_json_dict(json.loads(text))


class _DirectionSweep:
    """The marked slices swept front to back under the inverse prefix.

    ``inv_prefix`` is the tableau of Prefix^dagger, the inverse of every gate
    passed so far, grown by prepending each gate's inverse circuit.  After
    slice j it stores the pulled-back direction
    d_j = Prefix_j^dagger Z_sink Prefix_j, which is the tableau's Z_sink
    row, in packed XZ form, and its distinctness key: the packed row itself
    (the string up to phase) in unitary mode, the (bits, kappa mod 2) image
    of |0...0> in state mode, with bits unreversed.  Conjugation by the
    prefix is a bijection on Paulis up to phase, so a candidate q yields a
    direction distinct from all earlier ones exactly when
    key(Prefix^dagger q Prefix) is new.  Each distinct gate circuit is
    inverted once per sweep.
    """

    def __init__(self, arch: Architecture, mode: str) -> None:
        self.arch = arch
        self.n = arch.n
        self.state = mode == "state"
        self.inv_prefix = CliffordTableau.identity(arch.n)
        self.pulled: list[tuple[int, int]] = []
        self.keys: set[int] = set()
        self.inverses: dict[CliffordCircuit, CliffordCircuit] = {}

    def key(self, row: int, e: int) -> int:
        if not self.state:
            return row
        # x | (kappa mod 2) << n, as kappa = e for the state image
        return row & ((1 << self.n) - 1) | (e & 1) << self.n

    def first_new(self) -> PauliString:
        """The lexicographically smallest nontrivial unphased q whose key,
        pulled back through the prefix, is not taken.

        The scan steps through ``lex_flips`` and keeps the image of
        X^x Z^z under the inverse prefix up to date, one row XOR per flipped
        bit.  A key reads only the row and the exponent mod 2, and a row
        product adds an even cross term to the exponent, so the parity is
        the sum of the factors' exponents, plus |x & z| for the candidate
        i^|x & z| X^x Z^z itself.  Each candidate costs O(1) row operations.
        """
        n = self.n
        rows, phases = self.inv_prefix.rows, self.inv_prefix.phases
        q = img = e = 0
        for flips in lex_flips(n):
            for b in flips:
                q ^= 1 << b
                img ^= rows[b]
                e += phases[b]
            if self.key(img, e + (q & q >> n).bit_count()) not in self.keys:
                return PauliString(n, q & ((1 << n) - 1), q >> n)
        raise AssertionError("every nontrivial direction is taken")

    def add_slice(self, start: int, stop: int, sink: int,
                  circuits: Sequence[CliffordCircuit] | dict) -> None:
        for idx in range(start, stop):
            circuit = circuits[idx]
            inverse = self.inverses.get(circuit)
            if inverse is None:
                inverse = self.inverses[circuit] = circuit.inverse()
            self.inv_prefix.prepend_circuit(inverse, self.arch.gates[idx])
        b = self.n + sink - 1
        d = (self.inv_prefix.rows[b], self.inv_prefix.phases[b])
        self.pulled.append(d)
        self.keys.add(self.key(*d))

    def pulled_strings(self) -> tuple[PauliString, ...]:
        return tuple(PauliString.from_xz_row(self.n, row, e)
                     for row, e in self.pulled)

    def state_images(self) -> tuple[tuple[int, int], ...]:
        return tuple(xz_state_image(self.n, row, e) for row, e in self.pulled)


def _last_gate_on(arch: Architecture, start: int, stop: int, qubit: int) -> int:
    for idx in range(stop - 1, start - 1, -1):
        if qubit in arch.gates[idx]:
            return idx
    raise NotCausal(f"no gate touches qubit {qubit} in slice [{start}, {stop})")


def witness_point(arch: Architecture, mode: str = "unitary",
                  ) -> WitnessCertificate:
    """All-Clifford gate assignment with T pairwise-distinct directions.

    Iterates over the marked slices: pick the lexicographically smallest
    nontrivial Pauli whose direction would be new (its distinctness key,
    pulled back through the inverse prefix, is not yet taken), route it to Z
    on the slice's sink, and pull that Z back through the grown prefix.
    """
    if mode not in ("unitary", "state"):
        raise ValidationError(f"mode must be 'unitary' or 'state', got {mode!r}")
    ranges = arch.slice_ranges()
    if not ranges:
        raise NotCausal("architecture has no marked slices")
    cap, t = saturation_threshold(arch.n, mode), len(ranges)
    if mode == "unitary" and t > cap:
        raise TooManySlices(f"unitary mode supports at most {cap} slices for "
                            f"n={arch.n}, got {t}")
    if mode == "state" and t >= cap:
        raise TooManySlices(f"state mode needs slice count below {cap} for "
                            f"n={arch.n}, got {t}")

    per_gate: dict[int, CliffordCircuit] = {}  # the slices tile the gates
    sweep = _DirectionSweep(arch, mode)
    records: list[SliceRecord] = []
    for start, stop in ranges:
        sink = is_causal_slice(arch, start, stop)
        if sink is None:
            raise NotCausal(f"slice [{start}, {stop}) is not causal")
        tree = build_path_tree(arch, start, stop, sink)
        chosen = sweep.first_new()
        per_gate.update(route_pauli_through_slice(tree, chosen))
        sweep.add_slice(start, stop, sink, per_gate)
        records.append(SliceRecord(
            start, stop, sink, chosen, _last_gate_on(arch, start, stop, sink)))

    if len(sweep.keys) != len(sweep.pulled):
        raise AssertionError("constructed directions are not distinct")
    circuits = tuple(per_gate[i] for i in range(arch.gate_count))
    if mode == "state":
        return WitnessCertificate(arch.n, mode, circuits, tuple(records),
                                  state_images=sweep.state_images())
    # carry each d_j to the final frame by U, prepending gates back to front
    total = CliffordTableau.identity(arch.n)
    for idx in range(arch.gate_count - 1, -1, -1):
        total.prepend_circuit(circuits[idx], arch.gates[idx])
    directions = tuple(total.conjugate(d) for d in sweep.pulled_strings())
    return WitnessCertificate(
        arch.n, mode, circuits, tuple(records), directions=directions)


def witness_rank(arch: Architecture, circuits: Sequence[CliffordCircuit],
                 mode: str) -> int:
    """Exact rank of the tangent frame at an all-Clifford gate assignment.

    Every direction is then K_{j,k} = Suffix_j S_k Suffix_j^dagger = U Q U^dagger
    with Q = Prefix_j^dagger S_k Prefix_j, and u_j^dagger S_k u_j runs over
    all 15 nontrivial Paulis on (a, b) up to sign.  One sweep runs front to
    back under the inverse prefix and keeps the phase-free image of every X_q
    and Z_q as one packed row x_bits | z_bits << n, in the layout of
    ``CliffordTableau.rows``: gate j on (a, b) adds the 15 nonzero XOR
    combinations of the images of X_a, X_b, Z_a, Z_b, then the rows of its
    inverse circuit's tableau (``circuit_images``) replace those four images.

    The mode picks only the key.  In unitary mode each frame column is a
    signed unit vector and conjugation by U is a bijection on phase-free
    Paulis, so the rank is the number of distinct (x_bits, z_bits) keys of
    Q.  In state mode i K_{j,k} U|0> = i U Q|0>; U is a real-linear isometry
    and the Hermitian Q maps |0...0> to +- i^kappa |x_bits> with kappa its Y
    count, so the rank is the number of distinct (x_bits, kappa mod 2)
    images.

    No dense matrix and no tolerance enter.  The 15R directions span the
    same space as the gauge-fixed frame's columns, so this is the rank that
    ``numerical_rank(tangent_frame(...))`` estimates.
    """
    if mode not in ("unitary", "state"):
        raise ValidationError(f"mode must be 'unitary' or 'state', got {mode!r}")
    if len(circuits) != arch.gate_count:
        raise CountMismatch(
            f"{len(circuits)} circuits supplied for {arch.gate_count} slots")
    n = arch.n
    mask = (1 << n) - 1
    # images[q - 1], images[n + q - 1]: X_q and Z_q under the inverse prefix
    images = [1 << b for b in range(2 * n)]
    distinct = set(circuits)
    if any(c.n != 2 for c in distinct):
        raise ValidationError("vertex circuits must act on 2 qubits")
    inverse_maps = {c: circuit_images(c.inverse())[0] for c in distinct}
    keys: set[int] = set()
    for (a, b), circuit in zip(arch.gates, circuits):
        slots = (a - 1, b - 1, n + a - 1, n + b - 1)
        # span[m] XORs the slot images at the set bits of m
        x_a, x_b, z_a, z_b = (images[s] for s in slots)
        x_ab, z_ab = x_a ^ x_b, z_a ^ z_b
        span = (0, x_a, x_b, x_ab, z_a, x_a ^ z_a, x_b ^ z_a, x_ab ^ z_a,
                z_b, x_a ^ z_b, x_b ^ z_b, x_ab ^ z_b,
                z_ab, x_a ^ z_ab, x_b ^ z_ab, x_ab ^ z_ab)
        if mode == "unitary":
            keys.update(span[1:])
        else:
            keys.update((v & mask) | ((v & v >> n).bit_count() & 1) << n
                        for v in span[1:])
        for s, idx in zip(slots, inverse_maps[circuit]):
            images[s] = span[idx]
    return len(keys)


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of ``verify_certificate``.  ``witness_rank`` is the exact frame
    rank, None when the rank and gate checks were skipped."""

    slice_count: int
    distinct_directions: int
    witness_rank: int | None


def verify_certificate(cert: WitnessCertificate, arch: Architecture,
                       check_rank: bool = True) -> WitnessVerdict:
    """Independently recompute and cross-check a certificate.

    One front-to-back sweep under the inverse prefix answers every question
    about the slices.  A slice's gates S route its stored string q onto
    Z_sink exactly when q, pulled back through the prefix before the slice,
    equals the slice's pulled-back direction Prefix^dagger Z_sink Prefix;
    the comparison is exact, phase included.  The slices tile the circuit,
    so the final inverse prefix is U^dagger: a stored unitary-mode direction
    D_j is right exactly when U^dagger D_j U is the pulled-back d_j, and a
    stored state-mode image must equal d_j |0...0>.  The distinctness keys
    come from the same sweep.  With ``check_rank`` the exact tangent-frame
    rank at the witness point (``witness_rank``, a stabilizer computation
    with no tolerance) must reach the slice count, and each gate matrix of
    ``cert.to_gate_assignment()`` must conjugate X_1, Z_1, X_2 and Z_2 as its
    circuit's two-qubit tableau does, phases included; either failure raises
    ``CertificateMismatch``.  Tableau composition is exact, so the gate check
    ties the matrices to the whole circuit's tableau in O(R) time at any n.
    """
    if cert.n != arch.n or len(cert.gate_circuits) != arch.gate_count:
        raise CertificateMismatch("certificate does not match the architecture")
    ranges = arch.slice_ranges()
    if tuple((s.start, s.stop) for s in cert.slices) != ranges:
        raise CertificateMismatch("certificate slices do not match boundaries")

    sweep = _DirectionSweep(arch, cert.mode)
    for s in cert.slices:
        pulled_q = sweep.inv_prefix.conjugate(s.chosen).xz_row()
        sweep.add_slice(s.start, s.stop, s.sink, cert.gate_circuits)
        if sweep.pulled[-1] != pulled_q:
            raise CertificateMismatch(
                f"slice [{s.start}, {s.stop}) does not route {s.chosen.label()} "
                f"to {PauliString.single(arch.n, 'Z', s.sink).label()}")
        if _last_gate_on(arch, s.start, s.stop, s.sink) != s.insertion_gate:
            raise CertificateMismatch(
                f"insertion gate of slice [{s.start}, {s.stop}) is stale")

    if cert.mode == "unitary":
        stored = (tuple(sweep.inv_prefix.conjugate(d) for d in cert.directions),
                  cert.state_images)
        fresh = (sweep.pulled_strings(), ())
    else:
        stored = (cert.directions, cert.state_images)
        fresh = ((), sweep.state_images())
    if stored != fresh:
        raise CertificateMismatch("stored directions disagree with recomputation")
    if len(sweep.keys) != len(sweep.pulled):
        raise CertificateMismatch("directions are not pairwise distinct")

    rank = None
    if check_rank:
        rank = witness_rank(arch, cert.gate_circuits, cert.mode)
        if rank < cert.slice_count:
            raise CertificateMismatch(
                f"witness rank {rank} below slice count {cert.slice_count}")
        bad = _first_mismatched_gate(
            cert.to_gate_assignment().matrices, cert.gate_circuits)
        if bad is not None:
            raise CertificateMismatch(
                f"gate {bad} matrix disagrees with the circuit tableaux")
    return WitnessVerdict(cert.slice_count, len(sweep.keys), rank)


def _xz_matrix_2q(row: int) -> np.ndarray:
    """X^x Z^z for a packed two-qubit row (bits x_1, x_2, z_1, z_2)."""
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    eye = np.eye(2)
    factors = [(x if row >> q & 1 else eye) @ (z if row >> (q + 2) & 1 else eye)
               for q in (0, 1)]
    return np.kron(*factors).astype(complex)


# X^x Z^z for every packed two-qubit row; a row with exponent e is i^e times it
_XZ_MATRICES_2Q = np.stack([_xz_matrix_2q(row) for row in range(16)])
# each is a signed permutation: the one nonzero of row r of table entry t
# sits in column _XZ_COLUMNS[t, r] and equals _XZ_SIGNS[t, r]
_XZ_COLUMNS = np.argmax(np.abs(_XZ_MATRICES_2Q), axis=2)
_XZ_SIGNS = np.take_along_axis(_XZ_MATRICES_2Q, _XZ_COLUMNS[..., None], 2)[..., 0]
_I_POWERS = np.array([1, 1j, -1, -1j])


def _first_mismatched_gate(matrices: np.ndarray,
                           circuits: Sequence[CliffordCircuit]) -> int | None:
    """First gate j whose matrix u breaks u g = P u, P = C_j g C_j^dagger, for
    some g in X_1, X_2, Z_1, Z_2; None when every gate agrees.

    Each image is i^e times an entry of a 16-matrix table, read off the
    circuit's cached tableau.  The generator and the table entries are
    signed permutation matrices, so u g is u with its columns permuted and
    signed, and P u is u with its rows permuted and phased: gathers, not
    matrix products.  Each generator is compared over all R gates at once,
    so no array exceeds (R, 4, 4).
    """
    if not circuits:
        return None
    distinct: dict[CliffordCircuit, int] = {}
    which = np.array([distinct.setdefault(c, len(distinct)) for c in circuits])
    tableaux = [circuit_images(c) for c in distinct]
    rows = np.array([r for r, _ in tableaux])[which]
    phases = _I_POWERS[np.array([e for _, e in tableaux])[which] & 3]
    gate = np.arange(len(circuits))[:, None]
    bad = np.zeros(len(circuits), dtype=bool)
    u_g = np.empty_like(matrices)
    for g in range(4):
        u_g[:, :, _XZ_COLUMNS[1 << g]] = matrices * _XZ_SIGNS[1 << g]
        image = rows[:, g]
        p_u = matrices[gate, _XZ_COLUMNS[image]]
        p_u *= (phases[:, g, None] * _XZ_SIGNS[image])[:, :, None]
        # written as ~(x <= tol) so that a NaN entry fails the check
        bad |= ~(np.abs(u_g - p_u) <= 1e-9).all(axis=(1, 2))
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None
