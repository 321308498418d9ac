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

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Sequence

from .architecture import Architecture, is_causal_slice
from .bounds import saturation_threshold
from .clifford import CliffordCircuit, CliffordTableau, routing_clifford_2q
from .errors import (
    CertificateMismatch,
    CountMismatch,
    NotCausal,
    TooManySlices,
    ValidationError,
    check_int,
    check_mode,
    json_typed,
)
from .pauli import PauliString, lex_flips, xz_state_image


@dataclass(frozen=True)
class PathTree:
    """In-tree of qubit paths to a slice's sink, as its hop list.

    ``hops`` holds one (offset from ``start``, wires, destination qubit) per
    hop gate, in slice order: the gate carries the Pauli factor on its other
    wire onto the destination, one gate closer to the sink.  Offsets
    strictly increase along every root path, so merged paths never diverge
    after meeting, and they hold for every slice with the same gates.  The
    last hop ends on the sink, at the slice's last gate on it.
    """

    n: int
    start: int
    stop: int
    sink: int
    hops: tuple[tuple[int, tuple[int, int], int], ...]


def build_path_tree(arch: Architecture, start: int, stop: int) -> PathTree:
    """Deterministic in-tree over a causal slice, built back to front.

    The sink is the one ``is_causal_slice`` picks.  Sweeping the slice's
    gates in reverse, a qubit not yet connected to the sink is attached
    through the latest gate that couples it to a connected qubit; this
    attaches every qubit with a time-ordered path to the sink, which in a
    causal slice is every qubit.  Hop offsets therefore increase along every
    path, and each gate carries at most one hop.  Until the first hop only
    the sink is connected, so that hop, the tree's last, is the slice's last
    gate on the sink.
    """
    sink = is_causal_slice(arch, start, stop)
    if sink is None:
        raise NotCausal(f"slice [{start}, {stop}) is not causal")
    connected = {sink}
    hops = []
    for idx in range(stop - 1, start - 1, -1):
        a, b = wires = arch.gates[idx]
        in_a = a in connected
        if in_a != (b in connected):
            connected.update(wires)
            hops.append((idx - start, wires, a if in_a else b))
    return PathTree(arch.n, start, stop, sink, tuple(reversed(hops)))


_EMPTY_2Q = CliffordCircuit(2)


def _route(tree: PathTree, p: PauliString,
           ) -> tuple[tuple[int, CliffordCircuit], ...]:
    """The non-empty circuits, as (offset, circuit) in slice order, that
    sweep ``p`` along the tree's hops onto Z on its sink; raises
    AssertionError if the swept string is anything else."""
    n = tree.n
    routed = []
    row, e = p.xz_row()  # the swept string, in packed XZ form
    for offset, (a, b), dst in tree.hops:
        x = (row >> (a - 1) & 1) | (row >> (b - 1) & 1) << 1
        z = (row >> (n + a - 1) & 1) | (row >> (n + b - 1) & 1) << 1
        if x or z:
            circuit = routing_clifford_2q(PauliString(2, x, z),
                                          target=1 if dst == a else 2)
            if circuit.gates:  # a bare Z on the destination needs none
                row, e = circuit.conjugate_row(row, e, n, wires=(a, b))
                routed.append((offset, circuit))
    target = PauliString.single(n, "Z", tree.sink)
    if (row, e) != target.xz_row():
        raise AssertionError(
            f"routing failed: {p.label()} swept to "
            f"{PauliString.from_xz_row(n, row, e).label()}, "
            f"expected {target.label()}")
    return tuple(routed)


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
        check_mode(self.mode, "certificate mode")

    @property
    def slice_count(self) -> int:
        return len(self.slices)

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "mode": self.mode,
            # most gates of a witness are empty circuits
            "gates": [c.to_json_ops() if c.gates else []
                      for c in self.gate_circuits],
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
    def from_json_dict(cls, d: object) -> WitnessCertificate:
        """Certificate from parsed JSON in the ``to_json_dict`` layout; any
        other shape, a missing field among them, a non-integer number, an
        unknown mode or bad state bits raise ValidationError.  A missing
        field is read as null, which its check refuses by name."""
        n = check_int(json_typed(d, dict, "a certificate").get("n"), "n")
        circuits = tuple(CliffordCircuit.from_json_ops(2, ops)
                         for ops in json_typed(d.get("gates"), list, "gates"))
        slices = tuple(
            SliceRecord(check_int(s.get("start"), "slice start"),
                        check_int(s.get("stop"), "slice stop"),
                        check_int(s.get("sink"), "slice sink"),
                        PauliString.from_label(s.get("q")),
                        check_int(s.get("insertion_gate"), "insertion gate"))
            for s in (json_typed(s, dict, "a slice")
                      for s in json_typed(d.get("slices"), list, "slices")))
        mode = d.get("mode")  # checked first: it fixes the directions' layout
        check_mode(mode, "certificate mode")
        entries = json_typed(d.get("directions"), list, "directions")
        if mode == "unitary":
            return cls(n, mode, circuits, slices, directions=tuple(
                PauliString.from_label(p) for p in entries))
        images = []
        for e in entries:
            bits = json_typed(e, dict, "a direction").get("bits")
            if not isinstance(bits, str) or len(bits) != n or set(bits) - {"0", "1"}:
                raise ValidationError(f"bits must be {n} characters 0 or 1, "
                                      f"got {bits!r}")
            images.append((int(bits, 2),
                           check_int(e.get("phase_exp"), "phase_exp")))
        return cls(n, mode, circuits, slices, state_images=tuple(images))

    @classmethod
    def from_json(cls, text: str) -> WitnessCertificate:
        return cls.from_json_dict(json.loads(text))


# Steps of the candidate scan that a sweep keeps; later steps are generated
# on each scan that reaches them.
_SCAN_PREFIX = 1 << 12


def _lex_steps(n: int) -> Iterator[tuple[list[int], int, int]]:
    """Per step of ``lex_flips``: the flipped bits, the candidate's packed
    row q and |x & z|."""
    q = 0
    for flips in lex_flips(n):
        for b in flips:
            q ^= 1 << b
        yield flips, q, (q & q >> n).bit_count()


class _DirectionSweep:
    """Gates pre-composed front to back under the inverse prefix.

    ``inv_prefix`` is the tableau of Prefix^dagger, the inverse of every gate
    passed so far, grown one gate at a time by prepending the gate's
    inverse circuit (``add_gates``; ``witness_point`` prepends the
    non-empty circuits of a slice itself).  Closing a slice (``close_slice``)
    stores its pulled-back direction d_j = Prefix_j^dagger Z_sink Prefix_j,
    which is the tableau's Z_sink row, in packed XZ form, and its
    distinctness key: the packed row itself (the string up to phase) in
    unitary mode, the (bits, kappa mod 2) image of |0...0> in state mode,
    with bits unreversed.  Conjugation by the prefix is a bijection on
    Paulis up to phase, so a candidate q yields a direction distinct from
    all earlier ones exactly when key(Prefix^dagger q Prefix) is new.  A
    gate with the empty circuit leaves the prefix as it is, so it is skipped
    once its rank rows are collected.

    With ``count_rank``, ``rank_rows`` collects the phase-free rows of all
    15 directions of every gate passed (see ``witness_rank``): before gate
    j on (a, b) is pre-composed, its directions pulled back through the
    prefix are the 15 nonzero XOR combinations v of the current rows of
    X_a, X_b, Z_a, Z_b.  Each is Hermitian up to sign, so its exponent is
    |x & z| up to 2, and ``rank`` keys v with e = |x & z|.
    """

    def __init__(self, arch: Architecture, mode: str,
                 count_rank: bool = False) -> None:
        self.arch = arch
        self.n = arch.n
        self.state = mode == "state"
        self.inv_prefix = CliffordTableau.identity(arch.n)
        self.pulled: list[tuple[int, int]] = []
        self.keys: set[int] = set()
        self.rank_rows: set[int] | None = set() if count_rank else None
        # a key is the row, or x | (kappa mod 2) << n in state mode, as
        # kappa = e for the state image
        self.row_mask = (1 << self.n) - 1 if self.state else -1
        self.parity = int(self.state)
        self.steps: list[tuple[list[int], int, int]] = []
        self.unseen = _lex_steps(self.n)

    def key(self, row: int, e: int) -> int:
        return row & self.row_mask | (e & self.parity) << self.n

    def first_new(self) -> PauliString:
        """The lexicographically smallest nontrivial unphased q whose key,
        pulled back through the prefix, is not taken.

        The scan steps through ``lex_flips``, read back from the steps
        the sweep keeps (``_scan_steps``), and keeps the image of
        X^x Z^z under the inverse prefix up to date, one row XOR per flipped
        bit.  A key reads only the row and the exponent mod 2, and a row
        product adds an even cross term to the exponent, so the parity is
        the sum of the factors' exponents, plus |x & z| for the candidate
        i^|x & z| X^x Z^z itself.  Each candidate costs O(1) row operations,
        and the key test is ``key`` written out.
        """
        n, keys, row_mask, parity = self.n, self.keys, self.row_mask, self.parity
        rows, phases = self.inv_prefix.rows, self.inv_prefix.phases
        img = e = 0
        for flips, q, y in self._scan_steps():
            for b in flips:
                img ^= rows[b]
                e += phases[b]
            if (img & row_mask | (e + y & parity) << n) not in keys:
                return PauliString(n, q & ((1 << n) - 1), q >> n)
        raise AssertionError("every nontrivial direction is taken")

    def _scan_steps(self) -> Iterator[tuple[list[int], int, int]]:
        """The steps of ``_lex_steps``.  The first ``_SCAN_PREFIX`` are kept
        in ``steps`` as the sweep's scans first reach them, so that later
        scans read them back; a scan beyond them generates the rest."""
        steps = self.steps
        yield from steps
        while len(steps) < _SCAN_PREFIX:
            step = next(self.unseen, None)
            if step is None:
                return
            steps.append(step)
            yield step
        yield from itertools.islice(_lex_steps(self.n), _SCAN_PREFIX, None)

    def add_gates(self, start: int, stop: int,
                  circuits: Sequence[CliffordCircuit]) -> None:
        """Pre-compose gates start..stop-1 with ``circuits[idx]``, in order."""
        n, rows, rank_rows = self.n, self.inv_prefix.rows, self.rank_rows
        for idx in range(start, stop):
            a, b = wires = self.arch.gates[idx]
            if rank_rows is not None:
                x_a, x_b = rows[a - 1], rows[b - 1]
                z_a, z_b = rows[n + a - 1], rows[n + b - 1]
                # all 16 XOR combinations, the identity row 0 included
                rank_rows.update([x ^ z for x in (0, x_a, x_b, x_a ^ x_b)
                                  for z in (0, z_a, z_b, z_a ^ z_b)])
            circuit = circuits[idx]
            if circuit.gates:
                self.inv_prefix.prepend_circuit(circuit.inverse(), wires)

    def rank(self) -> int:
        """The number of distinct keys among the directions of the gates
        passed; a key reads only the phase-free row, so each distinct
        nonzero row is keyed once."""
        n, row_mask, parity = self.n, self.row_mask, self.parity
        return len({v & row_mask | ((v & v >> n).bit_count() & parity) << n
                    for v in self.rank_rows if v})

    def close_slice(self, sink: int) -> None:
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
    Slices of one shape (the same gates) share one path tree, built at the
    first of them, and one routing per chosen string; each slice writes
    those circuits at its own start.  A slice's insertion gate is its tree's
    last hop, the slice's last gate on the sink.

    Before any slice it raises TooManySlices when ``arch`` marks more
    slices than can have pairwise-distinct directions: more than the cap
    4^n - 1 in unitary mode, or the cap 2 * 2^n - 1 or more in state mode
    (``saturation_threshold``).  A mode that is neither raises
    ValidationError and an architecture with no marked slices NotCausal.

    The circuits of the first R gates are those of the witness of the
    architecture cut after its first slices, R gates in all, since each
    slice's choice reads only the slices before it; a growth sweep reads
    every row's witness rank off its last row's witness this way.
    """
    check_mode(mode)
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

    per_gate = [_EMPTY_2Q] * arch.gate_count  # the slices tile the gates
    sweep = _DirectionSweep(arch, mode)
    records: list[SliceRecord] = []
    # per slice shape: its tree and its routings by chosen string
    shapes: dict[tuple, tuple[PathTree, dict]] = {}
    for start, stop in ranges:
        shape = arch.gates[start:stop]
        if shape not in shapes:
            shapes[shape] = (build_path_tree(arch, start, stop), {})
        tree, routes = shapes[shape]
        chosen = sweep.first_new()
        routed = routes.get(chosen)
        if routed is None:
            routed = routes[chosen] = _route(tree, chosen)
        for offset, circuit in routed:  # the slice's other gates are empty
            per_gate[start + offset] = circuit
            sweep.inv_prefix.prepend_circuit(circuit.inverse(),
                                             arch.gates[start + offset])
        sweep.close_slice(tree.sink)
        records.append(SliceRecord(start, stop, tree.sink, chosen,
                                   start + tree.hops[-1][0]))

    if len(sweep.keys) != len(sweep.pulled):
        raise AssertionError("constructed directions are not distinct")
    circuits = tuple(per_gate)
    if mode == "state":
        return WitnessCertificate(arch.n, mode, circuits, tuple(records),
                                  state_images=sweep.state_images())
    # carry each d_j to the final frame by U, prepending gates back to front
    total = CliffordTableau.identity(arch.n)
    for idx in range(arch.gate_count - 1, -1, -1):
        if circuits[idx].gates:
            total.prepend_circuit(circuits[idx], arch.gates[idx])
    directions = tuple(total.conjugate(d) for d in sweep.pulled_strings())
    return WitnessCertificate(
        arch.n, mode, circuits, tuple(records), directions=directions)


def witness_rank(arch: Architecture, circuits: Sequence[CliffordCircuit],
                 mode: str) -> int:
    """Exact rank of the tangent frame at an all-Clifford gate assignment.

    Every direction is then K_{j,k} = Suffix_j S_k Suffix_j^dagger = U Q U^dagger
    with Q = Prefix_j^dagger S_k Prefix_j, and u_j^dagger S_k u_j runs over
    all 15 nontrivial Paulis on (a, b) up to sign.  One ``_DirectionSweep``
    runs front to back over every gate, with no marked slices needed, and
    keys each Q before gate j is pre-composed: Q is the product of the
    inverse prefix's rows at X_a, X_b, Z_a, Z_b picked by S_k, so its
    phase-free row is their XOR.  The keys read only those phase-free rows.

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
    check_mode(mode)
    if len(circuits) != arch.gate_count:
        raise CountMismatch(
            f"{len(circuits)} circuits supplied for {arch.gate_count} slots")
    if any(c.n != 2 for c in set(circuits)):
        raise ValidationError("vertex circuits must act on 2 qubits")
    sweep = _DirectionSweep(arch, mode, count_rank=True)
    sweep.add_gates(0, arch.gate_count, circuits)
    return sweep.rank()


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of ``verify_certificate``.  ``witness_rank`` is the exact frame
    rank, None when the rank check was skipped."""

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
    come from the same sweep.  With ``check_rank`` the sweep also collects
    the ``witness_rank`` keys of every gate it passes, and the checked
    slices tile the gates, so it yields the exact tangent-frame rank at the
    witness point with no second pass; a rank below the slice count raises
    ``CertificateMismatch``.  Without ``check_rank`` no rank keys are
    collected.  The certificate's gates are circuits, so every check is a
    tableau computation: no dense matrix is formed at any n.
    """
    if cert.n != arch.n or len(cert.gate_circuits) != arch.gate_count:
        raise CertificateMismatch("certificate does not match the architecture")
    ranges = arch.slice_ranges()
    if tuple((s.start, s.stop) for s in cert.slices) != ranges:
        raise CertificateMismatch("certificate slices do not match boundaries")

    sweep = _DirectionSweep(arch, cert.mode, count_rank=check_rank)
    for s in cert.slices:
        if not 1 <= s.sink <= arch.n:  # the sink picks a tableau row
            raise CertificateMismatch(
                f"slice [{s.start}, {s.stop}) has sink {s.sink}, outside "
                f"1..{arch.n}")
        pulled_q = sweep.inv_prefix.conjugate(s.chosen).xz_row()
        sweep.add_gates(s.start, s.stop, cert.gate_circuits)
        sweep.close_slice(s.sink)
        if sweep.pulled[-1] != pulled_q:
            raise CertificateMismatch(
                f"slice [{s.start}, {s.stop}) does not route {s.chosen.label()} "
                f"to {PauliString.single(arch.n, 'Z', s.sink).label()}")
        if _last_gate_on(arch, s.start, s.stop, s.sink) != s.insertion_gate:
            raise CertificateMismatch(
                f"insertion gate of slice [{s.start}, {s.stop}) is stale")

    stored = (tuple(sweep.inv_prefix.conjugate(d) for d in cert.directions),
              cert.state_images)
    fresh = ((sweep.pulled_strings(), ()) if cert.mode == "unitary"
             else ((), sweep.state_images()))
    if stored != fresh:
        raise CertificateMismatch("stored directions disagree with recomputation")
    if len(sweep.keys) != len(sweep.pulled):
        raise CertificateMismatch("directions are not pairwise distinct")

    rank = None
    if check_rank:
        rank = sweep.rank()  # the slices tile the gates
        if rank < cert.slice_count:
            raise CertificateMismatch(
                f"witness rank {rank} below slice count {cert.slice_count}")
    return WitnessVerdict(cert.slice_count, len(sweep.keys), rank)

