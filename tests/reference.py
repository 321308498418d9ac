"""Dense and by-hand reference implementations that only the tests call.

Each one recomputes, the slow and direct way, a quantity the library builds
another way: Haar sampling one gate at a time, a gate's Pauli transfer
matrix from traces, the per-column perturbation operator behind
``tangent_frame``, the gauge redundancy that its dropped columns rely on, a
slice's tableau composed gate by gate, the tableau symplecticity check, a
path-tree walk, a qubit's forward reach, the witness point built with a
path tree, a candidate scan and a routing for every slice, a circuit
pre-composed onto a
tableau by testing every bit of its ``circuit_images``, the witness rank from
phase-free symplectic images alone, the Gram certificate of a plain
matrix from its product M^T M, the split Gram read over whole 4^n-row
Pauli vectors and the split's price from its meets listed as wire tuples.
The dense bridge from Clifford
circuits to matrices lives here too: the elementary gate matrices, a
circuit's unitary and the SU(4) gate assignment of a witness point; the
library itself keeps circuits as tableaux only.  None has a size guard;
the tests keep their inputs small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from archdim import CliffordTableau, GateAssignment, PauliString
from archdim.architecture import Architecture
from archdim.clifford import CliffordCircuit, circuit_images
from archdim.contraction import (
    DEFAULT_TOLERANCES,
    RankEstimate,
    _gram_estimate,
    pauli_coefficients,
)
from archdim.dense import apply_gate_left, apply_gate_right
from archdim.pauli import TWO_QUBIT_GENERATOR_MATS, lex_flips, nontrivial_strings
from archdim.witness import (
    PathTree,
    SliceRecord,
    WitnessCertificate,
    _DirectionSweep,
    _last_gate_on,
    build_path_tree,
    route_pauli_through_slice,
)

_GENERATOR_STACK = np.stack(TWO_QUBIT_GENERATOR_MATS)  # (15, 4, 4)

_SQRT2 = 1.0 / np.sqrt(2.0)

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


def circuit_unitary(circuit: CliffordCircuit) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the circuit (first gate acts first)."""
    mat = np.eye(2 ** circuit.n, dtype=complex)
    for name, qubits in circuit.gates:
        mat = apply_gate_left(mat, GATE_MATRICES[name], qubits, circuit.n)
    return mat


def explicit(matrices: Sequence[np.ndarray],
             normalize: bool = True) -> GateAssignment:
    """A gate assignment from explicit 4x4 matrices; with ``normalize`` each
    is divided by a fourth root of its determinant first."""
    mats = []
    for u in matrices:
        u = np.asarray(u, dtype=complex)
        if normalize:
            u = u / np.linalg.det(u) ** 0.25
        mats.append(u)
    stacked = np.stack(mats) if mats else np.zeros((0, 4, 4), dtype=complex)
    return GateAssignment(stacked)


def gate_assignment(circuits: Sequence[CliffordCircuit]) -> GateAssignment:
    """The SU(4) matrix of each two-qubit circuit, one per gate slot; each
    distinct circuit's unitary is formed once."""
    unitaries = {c: circuit_unitary(c) for c in set(circuits)}
    return explicit([unitaries[c] for c in circuits])


def haar_one_at_a_time(count: int, seed: int) -> np.ndarray:
    """``count`` Haar-random SU(4) samples drawn one gate at a time: QR of a
    complex Ginibre matrix, its R-diagonal phases folded into Q, then the
    determinant phased out."""
    rng = np.random.default_rng(seed)
    out = np.zeros((count, 4, 4), dtype=complex)
    for i in range(count):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        z /= np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        u = q * (d / np.abs(d))[None, :]
        out[i] = u / np.linalg.det(u) ** 0.25
    return out


def pauli_transfer_matrix(u: np.ndarray) -> np.ndarray:
    """T[P, Q] = tr(P u Q u^dagger) / 4 over the 16 two-qubit labels in
    label order (identity first), one trace per entry."""
    paulis = [PauliString.identity(2).to_matrix()] + [
        p.to_matrix() for p in nontrivial_strings(2)]
    return np.array([[np.trace(p @ u @ q @ u.conj().T).real / 4
                      for q in paulis] for p in paulis])


def perturbation_operator(arch: Architecture, gates: GateAssignment,
                          gate_index: int, generator: int | PauliString,
                          ) -> np.ndarray:
    """K_{j,k}: conjugation of generator k by the gates after gate j.

    ``gate_index`` is 0-based; ``generator`` is an index into the 15
    nontrivial two-qubit strings (label order) or such a string itself.
    """
    if isinstance(generator, PauliString):
        s_mat = generator.to_matrix()
    else:
        s_mat = TWO_QUBIT_GENERATOR_MATS[generator]
    n = arch.n
    suffix = np.eye(2 ** n, dtype=complex)
    for (a, b), u in list(zip(arch.gates, gates.matrices))[gate_index + 1:]:
        suffix = apply_gate_left(suffix, u, (a, b), n)
    wires = arch.gates[gate_index]
    return apply_gate_right(suffix, s_mat, wires, n) @ suffix.conj().T


@dataclass(frozen=True)
class WireRedundancy:
    earlier_gate: int
    later_gate: int
    qubit: int
    max_residual: float


@dataclass(frozen=True)
class GaugeRedundancyReport:
    wires: tuple[WireRedundancy, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(w.max_residual <= self.tolerance for w in self.wires)


def internal_wires(arch: Architecture) -> list[tuple[int, int, int]]:
    """(earlier_gate, later_gate, qubit) triples for consecutive shared wires."""
    out = []
    last_on: dict[int, int] = {}
    for idx, (a, b) in enumerate(arch.gates):
        for q in (a, b):
            if q in last_on:
                out.append((last_on[q], idx, q))
            last_on[q] = idx
    return out


def gauge_redundancy_check(arch: Architecture, gates: GateAssignment,
                           tolerance: float = 1e-8) -> GaugeRedundancyReport:
    """Certify the 3-parameter redundancy of every internally contracted wire.

    For each qubit shared by consecutive gates (j1, j2), the three
    single-qubit Pauli directions inserted after j1 commute past the gates
    between j1 and j2, hence must lie in the span of gate j2's fifteen
    perturbation directions.  The least-squares residual of that projection
    is reported per wire.  Both sides are built here from dense suffix
    products, independently of ``tangent_frame``, whose gauge-fixed columns
    rely on exactly this identity.
    """
    n = arch.n
    singles = np.stack([PauliString.single(1, letter, 1).to_matrix()
                        for letter in "XYZ"])

    def directions(suffix, ops, wires):
        # Pauli expansion of suffix @ op @ suffix^dagger, one column per op
        k_ops = apply_gate_right(suffix, ops, wires, n) @ suffix.conj().T
        return pauli_coefficients(k_ops, n).T

    # One right-to-left sweep.  pending[q] = (j2, suffix after gate j2) for
    # the next gate j2 on qubit q: the only suffix a wire on q still needs
    # once the sweep reaches its earlier gate.
    results: dict[tuple[int, int, int], WireRedundancy] = {}
    pending: dict[int, tuple[int, np.ndarray]] = {}
    suffix = np.eye(2 ** n, dtype=complex)
    for j1 in range(arch.gate_count - 1, -1, -1):
        for q in arch.gates[j1]:
            if q in pending:
                j2, later = pending[q]
                block = directions(later, _GENERATOR_STACK, arch.gates[j2])
                targets = directions(suffix, singles, (q,))
                sol, *_ = np.linalg.lstsq(block, targets, rcond=None)
                residual = np.linalg.norm(block @ sol - targets, axis=0)
                scale = np.linalg.norm(targets, axis=0)
                worst = (residual / np.where(scale > 0, scale, 1.0)).max()
                results[j1, j2, q] = WireRedundancy(j1, j2, q, float(worst))
            pending[q] = (j1, suffix)
        suffix = apply_gate_right(suffix, gates.matrices[j1], arch.gates[j1], n)
    return GaugeRedundancyReport(
        tuple(results[w] for w in internal_wires(arch)), tolerance)


def post_composed(n: int,
                  steps: Sequence[tuple[CliffordCircuit, tuple[int, ...]]],
                  ) -> CliffordTableau:
    """Tableau of the (circuit, wires) steps, the first acting first: every
    generator image is conjugated by each step in turn, gate by gate
    (``conjugate_row``)."""
    tab = CliffordTableau.identity(n)
    for circuit, wires in steps:
        for b in range(2 * n):
            tab.rows[b], tab.phases[b] = circuit.conjugate_row(
                tab.rows[b], tab.phases[b], n, wires)
    return tab


def slice_tableau(arch: Architecture, start: int, stop: int,
                  circuits: dict[int, CliffordCircuit] | Sequence[CliffordCircuit],
                  ) -> CliffordTableau:
    """Tableau of gates ``start:stop``, post-composed one circuit at a time."""
    return post_composed(arch.n, [(circuits[idx], arch.gates[idx])
                                  for idx in range(start, stop)])


def is_symplectic(tab: CliffordTableau) -> bool:
    """Check that the images are Hermitian and preserve all pairwise
    (anti)commutation relations: X_q and Z_q anticommute, all other
    generator pairs commute."""
    n, rows = tab.n, tab.rows
    for i, (ri, ei) in enumerate(zip(rows, tab.phases)):
        if (ei - (ri & ri >> n).bit_count()) % 2:
            return False
        for j in range(i + 1, 2 * n):
            rj = rows[j]
            anti = ((ri & rj >> n).bit_count()
                    + (ri >> n & rj).bit_count()) % 2
            if anti != (j == i + n):
                return False
    return True


def path(tree: PathTree, qubit: int) -> list[tuple[int, int, int]]:
    """Hops (gate_index, from_qubit, to_qubit) from a qubit to the sink,
    read off the tree's hop list; a qubit with no hop or a cycle of hops
    raises AssertionError."""
    step = {a + b - dst: (tree.start + offset, dst)  # keyed by its source
            for offset, (a, b), dst in tree.hops}
    out = []
    q = qubit
    while q != tree.sink:
        assert q in step and len(out) < tree.n, f"qubit {qubit} stops at {q}"
        idx, nxt = step[q]
        out.append((idx, q, nxt))
        q = nxt
    return out


def first_new(sweep: _DirectionSweep) -> PauliString:
    """The sweep's next chosen string, scanning ``lex_flips`` afresh and
    keying each candidate's pulled-back image with ``sweep.key``."""
    n = sweep.n
    rows, phases = sweep.inv_prefix.rows, sweep.inv_prefix.phases
    q = img = e = 0
    for flips in lex_flips(n):
        for b in flips:
            q ^= 1 << b
            img ^= rows[b]
            e += phases[b]
        if sweep.key(img, e + (q & q >> n).bit_count()) not in sweep.keys:
            return PauliString(n, q & ((1 << n) - 1), q >> n)
    raise AssertionError("every nontrivial direction is taken")


def witness_point(arch: Architecture, mode: str) -> WitnessCertificate:
    """The witness construction one slice at a time: each slice builds its
    own path tree, scans for its string and routes it, with no state shared
    between slices of one shape.  The slice count must fit the mode."""
    sweep = _DirectionSweep(arch, mode)
    per_gate: dict[int, CliffordCircuit] = {}
    records = []
    for start, stop in arch.slice_ranges():
        tree = build_path_tree(arch, start, stop)
        chosen = first_new(sweep)
        per_gate.update(route_pauli_through_slice(tree, chosen))
        sweep.add_gates(start, stop, per_gate)
        sweep.close_slice(tree.sink)
        records.append(SliceRecord(start, stop, tree.sink, chosen,
                                   _last_gate_on(arch, start, stop, tree.sink)))
    circuits = tuple(per_gate[i] for i in range(arch.gate_count))
    if mode == "state":
        return WitnessCertificate(arch.n, mode, circuits, tuple(records),
                                  state_images=sweep.state_images())
    total = CliffordTableau.identity(arch.n)
    for idx in range(arch.gate_count - 1, -1, -1):
        total.prepend_circuit(circuits[idx], arch.gates[idx])
    return WitnessCertificate(
        arch.n, mode, circuits, tuple(records),
        directions=tuple(total.conjugate(d) for d in sweep.pulled_strings()))


def forward_reach(arch: Architecture, start: int, stop: int, u: int) -> set[int]:
    """The qubits a Pauli factor starting on qubit u can spread to through
    gates ``start:stop``, gate by gate."""
    reached = {u}
    for a, b in arch.gates[start:stop]:
        if a in reached or b in reached:
            reached |= {a, b}
    return reached


def prepend_by_images(tab: CliffordTableau, circuit: CliffordCircuit,
                      wires: tuple[int, ...]) -> None:
    """``CliffordTableau.prepend_circuit`` without the cached plan: every
    slot on ``wires`` becomes the product of the old slot rows at the set
    bits of its local image in ``circuit_images``, testing all of them."""
    n = tab.n
    slots = [w - 1 for w in wires] + [n + w - 1 for w in wires]
    old = [(tab.rows[s], tab.phases[s]) for s in slots]
    for s, local, e in zip(slots, *circuit_images(circuit)):
        acc = 0
        for i, (row, f) in enumerate(old):
            if local >> i & 1:
                e += f + 2 * ((acc >> n) & row).bit_count()
                acc ^= row
        tab.rows[s], tab.phases[s] = acc, e & 3


def phase_free_rank(arch: Architecture, circuits: Sequence[CliffordCircuit],
                    mode: str) -> int:
    """``witness_rank`` from phase-free symplectic images only.

    Front to back, ``images`` holds the image of each X_q and Z_q under the
    inverse prefix as one packed row x_bits | z_bits << n, with no phase.
    Gate j on (a, b) adds the 15 nonzero XOR combinations of the images of
    X_a, X_b, Z_a, Z_b, keyed by the row (unitary) or by
    (x_bits, |x & z| mod 2) (state), then the rows of its inverse
    circuit's tableau replace those four images.
    """
    n = arch.n
    mask = (1 << n) - 1
    images = [1 << b for b in range(2 * n)]
    inverse_maps = {c: circuit_images(c.inverse())[0] for c in set(circuits)}
    keys: set[int] = set()
    for (a, b), circuit in zip(arch.gates, circuits, strict=True):
        slots = (a - 1, b - 1, n + a - 1, n + b - 1)
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


def gram_certificate(mat: np.ndarray,
                     tol_pair: tuple[float, float] = DEFAULT_TOLERANCES,
                     ) -> RankEstimate | None:
    """The Gram certificate of a tall real matrix M (m rows) from the
    computed product G = fl(M^T M), or None when it does not certify.

    The product is within gamma_m ||M||_F^2 <= m eps trace(G) of the exact
    M^T M, so the certificate's eigenvalue bound is
    delta = (m + C) eps trace(G).
    """
    gram = mat.T @ mat
    read_error = mat.shape[0] * np.finfo(np.float64).eps * np.trace(gram)
    return _gram_estimate(gram, tol_pair, read_error)


def _pauli_transfer(vecs: np.ndarray, t: np.ndarray, wires: tuple[int, int],
                    n: int) -> np.ndarray:
    """A 16 x 16 transfer matrix t over the labels of ``wires`` (the first
    wire leading) applied to the 4^n-row Pauli vectors ``vecs``."""
    a, b = wires
    out = np.tensordot(t.reshape(4, 4, 4, 4), vecs.reshape([4] * n + [-1]),
                       axes=([2, 3], [a - 1, b - 1]))
    return np.moveaxis(out, (0, 1), (a - 1, b - 1)).reshape(vecs.shape)


def split_gram(arch: Architecture, transfers: np.ndarray,
               kept: Sequence[np.ndarray], split: int) -> np.ndarray:
    """The unitary frame's Gram matrix read the split way at h = ``split``,
    over whole 4^n-row Pauli vectors: no light cones, no dropped wires.

    Gates 0..h-1 run forward: gate j applies T_j to the columns so far,
    appends its kept unit vectors e_{j,k}, and reads every column's
    coefficients on them.  Gates R-1..h run backward: gate j applies T_j^T
    to the columns so far, appends T_j^T e_{j,k}, and takes the inner
    products of those with every column.  The forward and backward columns
    left at h give the cross block.  ``kept[j]`` holds gate j's kept
    generator indices (into the 15)."""
    n, end = arch.n, arch.gate_count
    starts = np.cumsum([0] + [k.size for k in kept])
    width = int(starts[-1])
    gram = np.zeros((width, width))

    def units(j):
        a, b = arch.gates[j]
        labels = kept[j] + 1
        out = np.zeros((4 ** n, labels.size))
        out[labels // 4 * 4 ** (n - a) + labels % 4 * 4 ** (n - b),
            np.arange(labels.size)] = 1.0
        return out

    halves = []
    for order, flip in ((range(split), False),
                        (range(end - 1, split - 1, -1), True)):
        vecs, cols = np.zeros((4 ** n, 0)), np.zeros(0, dtype=np.intp)
        for j in order:
            t = transfers[j].T if flip else transfers[j]
            born = units(j)
            if flip:
                born = _pauli_transfer(born, t, arch.gates[j], n)
            vecs = np.hstack([_pauli_transfer(vecs, t, arch.gates[j], n),
                              born])
            cols = np.concatenate([cols, np.arange(starts[j], starts[j + 1])])
            block = born.T @ vecs
            gram[np.ix_(np.arange(starts[j], starts[j + 1]), cols)] = block
            gram[np.ix_(cols, np.arange(starts[j], starts[j + 1]))] = block.T
        halves.append((vecs, cols))
    (fvecs, fcols), (bvecs, bcols) = halves
    gram[np.ix_(fcols, bcols)] = fvecs.T @ bvecs
    gram[np.ix_(bcols, fcols)] = bvecs.T @ fvecs
    return gram


def split_point(forward: Sequence, backward: Sequence, call_madds: int) -> int:
    """The split h of least work from the half plans' steps
    (``contraction._half_plan``), priced as the plan priced it before it
    read wire bitmasks: each candidate h lists the groups alive there, with
    each cone's bitmask turned into a tuple of wires, and the meet of each
    forward and backward pair as a tuple of wires.  A step costs its
    multiply-adds and ``call_madds`` per array call; a join 4^|meet| per
    pair of columns it pairs, and one call for the product and one per row
    copy of a cone that is not the meet.  Ties go to the later h."""
    end = len(forward)
    work = [[step.madds + call_madds * sum(1 + len(move[1])
                                           for move in step.moves)
             for step in half] for half in (forward, backward)]
    before = np.cumsum([0] + work[0])
    after = np.cumsum([0] + work[1])[::-1]

    def wires(widths: dict) -> dict:
        return {tuple(q for q in range(1, mask.bit_length())
                      if mask & 1 << q): width
                for mask, width in widths.items()}

    def cost(h: int) -> int:
        ahead = wires(forward[h - 1].widths) if h else {}
        behind = wires(backward[end - h - 1].widths) if h < end else {}
        join = sum(4 ** len(meet) * ahead[f] * behind[b]
                   + call_madds * (1 + (meet != f) + (meet != b))
                   for f in ahead for b in behind
                   for meet in [tuple(q for q in f if q in b)] if meet)
        return int(before[h] + after[h]) + join

    return min(range(end + 1), key=lambda h: (cost(h), -h))
