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
from .clifford import CliffordCircuit, CliffordTableau, routing_clifford_2q
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
from .pauli import PauliString, nontrivial_strings


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

    def path(self, qubit: int) -> list[tuple[int, int, int]]:
        """Hops (gate_index, from_qubit, to_qubit) from a qubit to the sink."""
        out = []
        q = qubit
        while q != self.sink:
            idx, nxt = self.next_hop[q]
            out.append((idx, q, nxt))
            q = nxt
        return out


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

    hop_for_gate = {idx: (q, nxt) for q, (idx, nxt) in tree.next_hop.items()}
    assignments: dict[int, CliffordCircuit] = {}
    work = p
    for offset, (a, b) in enumerate(tree.wire_pairs):
        idx = tree.start + offset
        hop = hop_for_gate.get(idx)
        circuit = CliffordCircuit(2)
        if hop is not None:
            local = work.factor((a, b))
            if not local.is_identity:
                _, dst = hop
                circuit = routing_clifford_2q(local, target=1 if dst == a else 2)
                work = circuit.conjugate(work, wires=(a, b))
        assignments[idx] = circuit
    target = PauliString.single(tree.n, "Z", tree.sink)
    if work != target:
        raise AssertionError(
            f"routing failed: {p.label()} swept to {work.label()}, "
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


def _slice_tableau(arch: Architecture, start: int, stop: int,
                   circuits: dict[int, CliffordCircuit] | tuple,
                   ) -> CliffordTableau:
    tab = CliffordTableau.identity(arch.n)
    for idx in range(start, stop):
        c = circuits[idx]
        tab.apply_circuit(c, wires=arch.gates[idx])
    return tab


class _DirectionSweep:
    """The marked slices swept front to back under the inverse prefix.

    ``inv_prefix`` is the tableau of Prefix^dagger, the inverse of every gate
    passed so far, grown by prepending each gate's inverse circuit.  After
    slice j it stores the pulled-back direction
    d_j = Prefix_j^dagger Z_sink Prefix_j and its distinctness key: the
    string up to phase in unitary mode, the (bits, kappa mod 2) image of
    |0...0> in state mode.  Conjugation by the prefix is a bijection on
    Paulis up to phase, so a candidate q yields a direction distinct from
    all earlier ones exactly when key(Prefix^dagger q Prefix) is new.  Each
    distinct gate circuit is inverted once per sweep.
    """

    def __init__(self, arch: Architecture, mode: str) -> None:
        self.arch = arch
        self.key = PauliString.key if mode == "unitary" else _parity_pair
        self.inv_prefix = CliffordTableau.identity(arch.n)
        self.pulled: list[PauliString] = []
        self.keys: set[tuple[int, int]] = set()
        self.inverses: dict[CliffordCircuit, CliffordCircuit] = {}

    def is_new(self, q: PauliString) -> bool:
        return self.key(self.inv_prefix.conjugate(q)) not in self.keys

    def add_slice(self, start: int, stop: int, sink: int,
                  circuits: Sequence[CliffordCircuit] | dict) -> None:
        for idx in range(start, stop):
            circuit = circuits[idx]
            inverse = self.inverses.get(circuit)
            if inverse is None:
                inverse = self.inverses[circuit] = circuit.inverse()
            self.inv_prefix.prepend_circuit(inverse, self.arch.gates[idx])
        d = self.inv_prefix.conjugate(PauliString.single(self.arch.n, "Z", sink))
        self.pulled.append(d)
        self.keys.add(self.key(d))


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

    per_gate: dict[int, CliffordCircuit] = {
        i: CliffordCircuit(2) for i in range(arch.gate_count)}
    sweep = _DirectionSweep(arch, mode)
    records: list[SliceRecord] = []
    for start, stop in ranges:
        sink = is_causal_slice(arch, start, stop)
        if sink is None:
            raise NotCausal(f"slice [{start}, {stop}) is not causal")
        tree = build_path_tree(arch, start, stop, sink)
        chosen = next(q for q in nontrivial_strings(arch.n) if sweep.is_new(q))
        per_gate.update(route_pauli_through_slice(tree, chosen))
        sweep.add_slice(start, stop, sink, per_gate)
        records.append(SliceRecord(
            start, stop, sink, chosen, _last_gate_on(arch, start, stop, sink)))

    if len(sweep.keys) != len(sweep.pulled):
        raise AssertionError("constructed directions are not distinct")
    circuits = tuple(per_gate[i] for i in range(arch.gate_count))
    if mode == "state":
        images = tuple(d.state_image() for d in sweep.pulled)
        return WitnessCertificate(
            arch.n, mode, circuits, tuple(records), state_images=images)
    # carry each d_j to the final frame by U, prepending gates back to front
    total = CliffordTableau.identity(arch.n)
    for idx in range(arch.gate_count - 1, -1, -1):
        total.prepend_circuit(circuits[idx], arch.gates[idx])
    directions = tuple(total.conjugate(d) for d in sweep.pulled)
    return WitnessCertificate(
        arch.n, mode, circuits, tuple(records), directions=directions)


def _parity_pair(p: PauliString) -> tuple[int, int]:
    bits, kappa = p.state_image()
    return bits, kappa % 2


# X_1, Z_1, X_2, Z_2
_GENERATORS_2Q = tuple(PauliString.single(2, kind, q)
                       for q in (1, 2) for kind in ("X", "Z"))


def _symplectic_2q(circuit: CliffordCircuit) -> tuple[int, int, int, int]:
    """Phase-free images of X_1, Z_1, X_2, Z_2 under a two-qubit circuit, each
    as a 4-bit index (bits: x_1, z_1, x_2, z_2) into the XOR span of
    ``witness_rank``."""
    if circuit.n != 2:
        raise ValidationError("vertex circuits must act on 2 qubits")
    out = []
    for g in _GENERATORS_2Q:
        p = circuit.conjugate(g)
        out.append((p.x_bits & 1) | (p.z_bits & 1) << 1
                   | (p.x_bits >> 1) << 2 | (p.z_bits >> 1) << 3)
    return tuple(out)


def witness_rank(arch: Architecture, circuits: Sequence[CliffordCircuit],
                 mode: str) -> int:
    """Exact rank of the tangent frame at an all-Clifford gate assignment.

    Every direction is then K_{j,k} = Suffix_j S_k Suffix_j^dagger = U Q U^dagger
    with Q = Prefix_j^dagger S_k Prefix_j, and u_j^dagger S_k u_j runs over
    all 15 nontrivial Paulis on (a, b) up to sign.  One sweep runs front to
    back under the inverse prefix and keeps the phase-free image of every X_q
    and Z_q as one integer x_bits | z_bits << n: gate j on (a, b) adds the 15
    nonzero XOR combinations of the images of X_a, Z_a, X_b, Z_b, then its
    inverse circuit's two-qubit symplectic map replaces those four images.

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
    # images[2q], images[2q + 1]: X and Z of qubit q + 1 under the inverse prefix
    images = [bit for q in range(n) for bit in (1 << q, 1 << (q + n))]
    inverse_maps = {c: _symplectic_2q(c.inverse()) for c in set(circuits)}
    keys: set[int] = set()
    for (a, b), circuit in zip(arch.gates, circuits):
        slots = (2 * a - 2, 2 * a - 1, 2 * b - 2, 2 * b - 1)
        span = [0]
        for s in slots:
            img = images[s]
            span += [v ^ img for v in span]
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
        pulled_q = sweep.inv_prefix.conjugate(s.chosen)
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
        fresh = (tuple(sweep.pulled), ())
    else:
        stored = (cert.directions, cert.state_images)
        fresh = ((), tuple(d.state_image() for d in sweep.pulled))
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


def _first_mismatched_gate(matrices: np.ndarray,
                           circuits: Sequence[CliffordCircuit]) -> int | None:
    """First gate j whose matrix u breaks u g = P u, P = C_j g C_j^dagger, for
    some g in X_1, Z_1, X_2, Z_2; None when every gate agrees.

    The images are formed once per distinct circuit and each generator is
    compared over all R gates at once, so no array exceeds (R, 4, 4).
    """
    if not circuits:
        return None
    distinct: dict[CliffordCircuit, int] = {}
    which = [distinct.setdefault(c, len(distinct)) for c in circuits]
    bad = np.zeros(len(circuits), dtype=bool)
    for g in _GENERATORS_2Q:
        images = np.stack([c.conjugate(g).to_matrix() for c in distinct])
        diff = matrices @ g.to_matrix() - images[which] @ matrices
        # written as ~(x <= tol) so that a NaN entry fails the check
        bad |= ~(np.abs(diff) <= 1e-9).all(axis=(1, 2))
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None
