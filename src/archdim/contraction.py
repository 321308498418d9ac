"""Dense contraction of gate assignments and Jacobian-rank estimation.

The contraction map sends a list of two-qubit gates to the n-qubit unitary
obtained by slotting them into an architecture.  Perturbing gate j along a
two-qubit Pauli generator S_k moves the contracted unitary along the
direction K_{j,k} = Suffix_j S_k Suffix_j^dagger, with Suffix_j the product
of the gates after j.  The tangent frame collects the Pauli-basis expansion
of every K_{j,k} (or, in state mode, the real/imaginary parts of
i K_{j,k} |psi>); its numerical rank at independent Haar-random points is the
accessible dimension of the architecture, because the rank is constant off a
measure-zero set.  A unitary frame is built by one forward sweep in the Pauli
basis, where each gate acts as a real orthogonal 16 x 16 transfer matrix on
columns grouped by their forward light cones.  The frame's Gram matrix, for
the rank, is read off two half sweeps that meet at one gate: the forward
sweep over the gates before it and a backward one, with the transposed
transfer matrices, over the rest; a join multiplies the columns the two
halves hold there.  The plan picks the gate from its multiply-add counts,
and the last gate means the forward sweep alone.  A sweep that only reads
the Gram matrix drops each wire from the cones once it has passed the
wire's gates, and every sweep holds its groups in one arena laid out by
the plan.  A unitary frame keeps its transfer matrices and forms its
4^n x C matrix, when it is read, by one forward sweep that keeps every
wire.  A state frame is built by a forward sweep over a stack of state
vectors.  Both read one cached plan per
architecture.  A dense call whose estimated peak memory (``peak_bytes``)
exceeds ``MEMORY_BUDGET`` raises SizeLimit before it allocates.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .architecture import Architecture, is_causal_slice
from .bounds import gauge_fixed_count, saturation_threshold
from .dense import apply_gate_left, apply_gate_right
from .errors import CountMismatch, SizeLimit, ValidationError, check_mode
from .pauli import TWO_QUBIT_GENERATOR_MATS, TWO_QUBIT_GENERATORS

DEFAULT_TOLERANCES = (1e-6, 1e-10)
MEMORY_BUDGET = 2 * 2 ** 30

_GENERATOR_STACK = np.stack(TWO_QUBIT_GENERATOR_MATS)  # (15, 4, 4)

# The state sweep applies a gate to its stack in column chunks of at most
# this many bytes, so that the allocator reuses the temporaries.
_STACK_CHUNK = 4 * 2 ** 20

# _KEPT[later_a, later_b]: the generators a gate on wires (a, b) keeps in the
# gauge-fixed frame.  A single-qubit generator on a wire that a later gate
# also acts on is dropped (see ``tangent_frame``): XI, YI, ZI for wire a,
# IX, IY, IZ for wire b.
_KEPT = {
    (later_a, later_b): np.array([
        k for k, p in enumerate(TWO_QUBIT_GENERATORS)
        if not (later_a and p.letter(2) == "I")
        and not (later_b and p.letter(1) == "I")])
    for later_a in (False, True) for later_b in (False, True)
}

# The 16 two-qubit Pauli matrices in label order, identity first.
_PAULI_STACK = np.concatenate([np.eye(4, dtype=complex)[None],
                               _GENERATOR_STACK])
# _SWAPPED[L]: the label L of a gate on wires (a, b) read with b leading.
_SWAPPED = np.array([4 * (label % 4) + label // 4 for label in range(16)])


def subseed(seed: int, *key: int) -> int:
    """Deterministic 64-bit child seed for (seed, key...).  A seed that is
    not a nonnegative integer raises ValidationError: a float or a bool is
    refused, never truncated."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def frame_shape(arch: Architecture, mode: str) -> tuple[int, int]:
    """(rows, columns) of the gauge-fixed tangent frame: 4^n Pauli rows in
    unitary mode, 2 * 2^n real rows in state mode, 9R + 3 * touched qubits
    columns in both.  Any other mode raises ValidationError."""
    check_mode(mode)
    rows = 4 ** arch.n if mode == "unitary" else 2 * 2 ** arch.n
    return rows, gauge_fixed_count(arch)


def peak_bytes(arch: Architecture, job: str) -> int:
    """Upper estimate of the peak bytes of a dense call on ``arch``; ``job``
    is a frame mode, "contract" or "contract_state", and any other job
    raises ValidationError.  A gate applied to an array holds two more of
    its size (tensordot's reordered input and output).  A frame counts its
    matrix twice (the SVD's copy).

    The state sweep holds its C x 2^n complex stack (the frame's size), then
    the frame beside it; the rank holds the frame beside the SVD's copy or,
    for a tall frame, four C x C arrays of the SVD's work.  On top come
    16 KiB per gate for the plan and one gate's temporaries, which the
    allocator keeps: two copies of a stack chunk and about 36 state
    vectors.  A unitary frame keeps its transfer matrices, which with their
    complex build take 16 KiB per gate.  Reading its matrix runs the
    unpruned sweep, which holds its plan's arena and one transfer's
    temporaries (``_frame_plan``); forming the matrix holds the arena's head
    beside it, and the SVD takes it twice.  A tall frame also holds its
    C x C Gram matrix throughout.  It runs the Gram read's plan first: one
    arena holds the forward half's groups, then the groups the join reads
    beside the backward half's, and the plan's scratch covers one
    transfer's or read's temporaries or one joined pair's row copies and
    product.  The arena is gone when the sweep returns, and the
    certificate takes up to three more C x C arrays.  An estimate whose
    frame terms alone exceed ``MEMORY_BUDGET`` returns before the sweep's
    plans are built."""
    vec = 16 * 2 ** arch.n  # one complex state vector
    held = {"contract": 3 * vec * 2 ** arch.n, "contract_state": 3 * vec}
    if job in held:
        return held[job]
    rows, cols = frame_shape(arch, job)
    frame = 8 * rows * cols
    gram = 8 * cols * cols if cols < rows else 0
    if job == "state":  # a chunk is at most the whole stack
        temps = 2 * min(frame, max(_STACK_CHUNK, vec)) + 36 * vec
        return 16384 * arch.gate_count + temps + frame + max(frame, 4 * gram)
    if gram + 2 * frame > MEMORY_BUDGET:
        return gram + 2 * frame
    transfers = 16384 * arch.gate_count
    full = _frame_plan(arch)
    phases = [transfers + 8 * (full.arena + full.scratch),
              8 * full.held + frame, 2 * frame]
    if gram:
        pruned = _frame_plan(arch, prune=True)
        phases += [transfers + 8 * (pruned.arena + pruned.scratch),
                   transfers + 3 * gram]
    return gram + max(phases)


def check_budget(est: int, budget: int, needs: str) -> None:
    """Raise SizeLimit when an estimated peak of ``est`` bytes is over
    ``budget``; ``needs`` opens the message with the call and its verb."""
    if est > budget:
        raise SizeLimit(f"{needs} an estimated {est / 2 ** 30:.2f} GiB, over "
                        f"the {budget / 2 ** 30:.0f} GiB memory budget")


def _check_size(arch: Architecture, job: str) -> None:
    check_budget(peak_bytes(arch, job), MEMORY_BUDGET,
                 f"{job} on n={arch.n}, R={arch.gate_count} needs")


@dataclass(frozen=True, eq=False)
class GateAssignment:
    """Ordered 4x4 special unitaries filling an architecture's gate slots."""

    matrices: np.ndarray  # (R, 4, 4) complex

    def __post_init__(self) -> None:
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1:] != (4, 4):
            raise ValidationError(f"expected (R, 4, 4) array, got {mats.shape}")
        object.__setattr__(self, "matrices", mats)
        gram = np.swapaxes(mats, 1, 2).conj() @ mats
        # written as ~(x <= tol) so that a NaN entry fails the check
        with np.errstate(invalid="ignore"):
            not_unitary = ~(np.abs(gram - np.eye(4)).max(axis=(1, 2)) <= 1e-10)
            not_special = ~(np.abs(np.linalg.det(mats) - 1.0) <= 1e-10)
        bad = np.flatnonzero(not_unitary | not_special)
        if bad.size:
            i = int(bad[0])
            if not_unitary[i]:
                raise ValidationError(f"gate {i} is not unitary within 1e-10")
            raise ValidationError(f"gate {i} is not special unitary")

    def __len__(self) -> int:
        return self.matrices.shape[0]

    @classmethod
    def haar(cls, arch: Architecture, seed: int) -> GateAssignment:
        """Haar-random SU(4) gates, one per slot: QR of complex Ginibre
        matrices with the R-diagonal phases folded into Q, then the
        determinant phased out.

        One draw and one stacked QR serve every gate; each matrix equals,
        bit for bit, what sampling them one at a time from the same
        generator gives."""
        z = np.random.default_rng(seed).standard_normal(
            (arch.gate_count, 2, 4, 4))
        z = z[:, 0] + 1j * z[:, 1]
        z /= np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2)
        u = q * (d / np.abs(d))[:, None, :]
        return cls(u / np.linalg.det(u)[:, None, None] ** 0.25)


def _require_match(arch: Architecture, gates: GateAssignment) -> None:
    if len(gates) != arch.gate_count:
        raise CountMismatch(
            f"{len(gates)} gates supplied for {arch.gate_count} slots")


def contract(arch: Architecture, gates: GateAssignment) -> np.ndarray:
    """The 2^n x 2^n unitary obtained by applying the gates in order."""
    _check_size(arch, "contract")
    _require_match(arch, gates)
    mat = np.eye(2 ** arch.n, dtype=complex)
    for (a, b), u in zip(arch.gates, gates.matrices):
        mat = apply_gate_left(mat, u, (a, b), arch.n)
    return mat


def contract_state(arch: Architecture, gates: GateAssignment) -> np.ndarray:
    """The contracted circuit applied to |0...0>."""
    _check_size(arch, "contract_state")
    _require_match(arch, gates)
    psi = np.zeros(2 ** arch.n, dtype=complex)
    psi[0] = 1.0
    for (a, b), u in zip(arch.gates, gates.matrices):
        psi = apply_gate_left(psi, u, (a, b), arch.n)
    return psi


# The unitary frame's transfer matrices use the n = 2 plan; direct callers
# of ``pauli_coefficients`` may fill the other entries.
@functools.lru_cache(maxsize=16)
def _pauli_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(gather, hadamard, order, scale) of ``pauli_coefficients`` on n qubits.

    ``gather[x * 2^n + r]`` is the flat index of entry (r, r XOR x);
    ``hadamard`` is [[1, 1], [1, -1]]^{(x) n}, whose entry (r, z) is
    (-1)^{z . r}; label L, with bits x and z, reads the transform at
    ``order[L] = x * 2^n + z`` and multiplies it by ``scale[L]``, which is
    +-1 / 2^(n+1): + when its Y count is 0 or 3 mod 4.  Together the four
    arrays take 32 * 4^n bytes.
    """
    dim = 2 ** n
    r = np.arange(dim)
    gather = (r * dim + (r ^ r[:, None])).ravel()
    hadamard = np.ones((1, 1))
    x = z = ys = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        hadamard = np.kron(hadamard, [[1.0, 1.0], [1.0, -1.0]])
        # append one qubit's letter I, X, Y, Z as the lowest digit
        x = (2 * x[:, None] + [0, 1, 1, 0]).ravel()
        z = (2 * z[:, None] + [0, 0, 1, 1]).ravel()
        ys = (ys[:, None] + [0, 0, 1, 0]).ravel()
    scale = np.where((ys + 1) % 4 < 2, 1.0, -1.0) / (2 * dim)
    plan = (gather, hadamard, x * dim + z, scale)
    for arr in plan:  # every caller shares the cached arrays
        arr.flags.writeable = False
    return plan


def pauli_coefficients(op: np.ndarray, n: int) -> np.ndarray:
    """Real coefficients tr(P H) / 2^n of the Hermitian part
    H = (K + K^dagger) / 2 of an operator K over the 4^n Pauli strings P,
    ordered lexicographically by label with qubit 1 as the leading digit.
    For Hermitian K these are its Pauli coefficients; for any K they are
    Re tr(P K) / 2^n.

    The transform runs in real arithmetic.  H -> R = Re H + Im H maps
    Hermitian matrices isometrically onto real ones (a symmetric matrix is
    orthogonal to an antisymmetric one).  Writing P = i^y X^x Z^z,
    tr(P H) = i^y sum_r (-1)^{z . r} H[r, r XOR x]; the sum is real for even
    y and imaginary for odd y, so the same sum over R gives it up to the
    sign that ``_pauli_plan`` records.  That is one gather,
    A[x, r] = R[r, r XOR x], one real matmul with the Walsh-Hadamard matrix
    over the whole stack, and one gather into label order.

    A stack of operators, shape (B, 2^n, 2^n), gives a (B, 4^n) array whose
    rows equal, bit for bit, the expansions of the operators one at a time.
    """
    gather, hadamard, order, scale = _pauli_plan(n)
    dim = 2 ** n
    k = op.reshape((-1, dim, dim))
    twice = k.real + k.imag  # 2R = Re K + Im K + (Re K - Im K)^T
    twice += np.swapaxes(k.real - k.imag, 1, 2)
    walsh = np.take(twice.reshape(-1, dim * dim), gather, axis=1)
    walsh = (walsh.reshape(-1, dim) @ hadamard).reshape(-1, dim * dim)
    out = np.take(walsh, order, axis=1)
    out *= scale
    return out.reshape(op.shape[:-2] + (4 ** n,))


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Real matrix of gauge-fixed perturbation-direction coordinates.

    ``columns[c]`` is the (gate, generator) pair of column c: a 0-based gate
    index and an index into the 15 two-qubit generators.  Columns are
    ordered by gate, then generator.

    ``matrix`` is formed on first access and kept.  A state frame forms it
    from its sweep's vector stack at once.  A unitary frame, tall or wide,
    holds its transfer stack and, when ``matrix`` is first read, runs the
    unpruned sweep and assembles the matrix from it.  ``gram`` is the
    C x C Gram matrix M^T M of a tall unitary frame (fewer columns than
    rows), read off the split sweep in column order, and ``gram_error`` bounds
    its 2-norm distance from the exact Gram matrix of ``matrix``; ``gram``
    is None in state mode and for wide frames.
    """

    mode: str
    n: int
    gate_count: int
    columns: np.ndarray  # (C, 2) int
    _assemble: Callable[[], np.ndarray] = field(repr=False)
    gram: np.ndarray | None = None
    gram_error: float = 0.0

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self._assemble()


_Cone = tuple[int, ...]  # 1-based qubits, ascending


class _Move(NamedTuple):
    """One group a gate writes: its cone, the cones of the groups merged
    into it, the group's rows the Gram read takes (those that are the
    identity off the gate's wires, ``_meet_rows``: at the gate's kept
    labels forward, all 16 backward), its offset in the sweep's arena (in
    float64 entries) and its column count.  The group over the gate's own
    wires also takes the gate's kept columns, last."""

    cone: _Cone
    sources: tuple[_Cone, ...]
    read: np.ndarray
    offset: int
    width: int


class _Join(NamedTuple):
    """The cones of a forward and a backward group at the split, and their
    meet: the wires both hold."""

    forward: _Cone
    backward: _Cone
    meet: _Cone


@dataclass(frozen=True, eq=False)
class _FramePlan:
    """The integer bookkeeping of both frame modes.

    ``kept[j]`` holds gate j's kept generator indices (into the 15), and
    ``record`` is the frame's (gate, generator) column list.  The rest is
    the unitary sweep's.  ``labels[j]`` holds gate j's kept generators as
    two-qubit labels (1 to 15) read with the lower wire leading, and
    ``steps`` the groups each gate writes, in sweep order: gates 0 to
    ``split`` - 1 forward, then gates R - 1 down to ``split`` backward
    (none when ``split`` is R).  Row r of a group over cone c is the Pauli
    string that is the identity off c; a move's read rows are the meet
    rows of the gate's wires, the strings that are the identity off them.
    ``joins`` pairs the groups the two halves meet with.  ``arena`` counts
    the float64 entries of the arena that holds every group, ``held`` those
    of its head, which holds the groups an unpruned sweep ends with or
    those a pruned one joins, and ``scratch`` bounds the entries one
    transfer's, read's or join's temporaries take beside it.
    """

    kept: tuple[np.ndarray, ...]
    record: np.ndarray
    steps: tuple[tuple[_Move, ...], ...]
    labels: tuple[np.ndarray, ...]
    arena: int
    held: int
    scratch: int
    split: int
    joins: tuple[_Join, ...] = ()


def _first_fit(spans: list[tuple[int, int, int]],
               end: int) -> tuple[list[int], int, int]:
    """Offsets for blocks (first step, last step, size) such that blocks
    whose step ranges meet never overlap; the arena size they need; and
    ``held``, the size of the arena's head [0, held), which packs the
    blocks that last to step ``end`` and which no other block crosses.

    The held blocks come first, then the largest block and the later of
    two equal ones, each at the lowest offset clear of the blocks already
    placed that it meets.  A group that every gate rewrites with a growing
    width, such as the whole-register one, then alternates between two
    slots back from its widest, and smaller groups fill the gaps.  On the
    architectures measured the arena stays within 1.06x the most entries
    live at once.  A block is checked only against the placed blocks live
    at one of its steps."""
    held = sum(size for first, last, size in spans if last == end)
    live: list[list[tuple[int, int]]] = [[] for _ in range(end + 1)]
    offsets = [0] * len(spans)
    for i in sorted(range(len(spans)), reverse=True,
                    key=lambda i: (spans[i][1] == end, spans[i][2], i)):
        first, last, size = spans[i]
        at = 0
        # a zero-size block at the head's end walls it off
        for lo, hi in sorted({(held, held)}.union(*live[first:last + 1])):
            if lo - at >= size:
                break
            at = max(at, hi)
        offsets[i] = at
        for step in live[first:last + 1]:
            step.append((at, at + size))
    return offsets, max([held] + [at + span[2] for at, span
                                  in zip(offsets, spans)]), held


# Plans repeat across a frame's Haar samples and across calls on the same
# architecture.  The benchmark's dim-wide ops use nine architectures, its
# three dim shapes and the sweep's staircase(3, 1..6), and ``peak_bytes``
# builds both plans, pruned and unpruned, of each of the six tall ones: 15
# entries.
@functools.lru_cache(maxsize=128)
def _frame_plan(arch: Architecture, *, prune: bool = False,
                split: int | None = None) -> _FramePlan:
    """Each gate's kept generators; the unitary columns' light-cone groups.

    After gate j, the columns of gates 0..j sit in groups, one per cone: the
    qubits that gates up to j connect to a column's own gate wires (1-based,
    ascending).  A column is the identity outside its cone, so its group is
    stored over the cone's 4^|cone| Pauli rows only.  Gate j moves every
    group whose cone meets its wires to the cone grown by both wires, merges
    the groups that land on one cone (equal cones evolve alike from then
    on), and adds its own kept generators to the group of cone {a, b}.

    With ``prune`` the plan is the Gram read's (``_unitary_frame``), which
    splits the gates at h = ``split``: gates 0..h-1 sweep forward and gates
    R-1..h backward, where the same moves carry columns under the
    transposed transfers and cones grow back from each column's gate.  A
    wire whose last gate the sweep has passed (its first, backward) also
    leaves every cone the sweep moves: the reads see strings that are the
    identity off the gate's wires, and no later gate of the half changes
    the letter on a passed wire, so its rows with another letter there
    never reach a read, nor the join, whose other half never holds the
    wire.  The sweep keeps the identity letter's rows of a dropped wire.
    The join pairs each forward group at h with each backward one whose
    cone meets its own; only the strings that are the identity off the
    meet sit in both.  A group neither a later gate of its half nor the
    join reads is dead once its gate has read it.  Without ``split``, h
    minimizes the sweep's work (``_split_point``); h = R is the forward
    sweep alone.

    Every group lives from the gate that writes it to the gate that moves
    it on (or, unpruned, to the end, where the frame's matrix is formed
    from the last groups, or to the join) and has a fixed offset in one
    arena (``_first_fit``), the two halves' groups on one timeline.  A
    transfer between cone positions next to each other is a matmul into
    its group; it copies the slice of its source when it drops a wire.
    Wires apart in the cone take tensordot, which also copies its input
    and output.  A read copies its rows, 16 backward, where it also makes
    their product with the gate's born columns; and a join copies the
    meet's rows of both groups, unless the meet is the whole cone, and
    their product.  ``scratch`` is the largest sum.
    """
    end = arch.gate_count
    last = {q: j for j, gate in enumerate(arch.gates) for q in gate}
    kept_all, labels_all = [], []
    for j, (a, b) in enumerate(arch.gates):
        kept = _KEPT[last[a] > j, last[b] > j]
        kept_all.append(kept)
        labels = _SWAPPED[kept + 1] if a > b else kept + 1
        labels.flags.writeable = False
        labels_all.append(labels)
    forward = _half_plan(arch, labels_all, prune, backward=False)
    backward = _half_plan(arch, labels_all, prune, backward=True) \
        if prune else []
    if split is None:
        split = _split_point(forward, backward) if prune else end
    taken = forward[:split] + backward[:end - split]
    meets = _meets(forward, backward, split)
    joined = {(False, f) for f, _, _ in meets} \
        | {(True, b) for _, b, _ in meets}
    groups: dict[tuple[bool, _Cone], int] = {}  # (half, cone) -> spans index
    spans: list[list[int]] = []  # [first step, last step, size] per group
    for s, step in enumerate(taken):
        for cone, sources, _, width in step.moves:
            for src in sources:
                spans[groups.pop((s >= split, src))][1] = s
            groups[s >= split, cone] = len(spans)
            spans.append([s, s, 4 ** len(cone) * width])
    for key, i in groups.items():
        if not prune or key in joined:
            spans[i][1] = end
    offsets, arena, held = _first_fit([tuple(span) for span in spans], end)
    at = iter(offsets)  # spans are in step order
    record = np.array([(j, k) for j, kept in enumerate(kept_all) for k in kept],
                      dtype=np.intp).reshape(-1, 2)
    record.flags.writeable = False
    # one joined pair's row copies and product
    ahead, behind = _alive(forward, backward, split)
    scratch = max([step.scratch for step in taken]
                  + [4 ** len(meet) * (ahead[f] * (meet != f)
                                       + behind[b] * (meet != b))
                     + ahead[f] * behind[b] for f, b, meet in meets],
                  default=0)
    return _FramePlan(
        kept=tuple(kept_all), record=record,
        steps=tuple(tuple(_Move(cone, sources, read, next(at), width)
                          for cone, sources, read, width in step.moves)
                    for step in taken),
        labels=tuple(labels_all), arena=arena, held=held, scratch=scratch,
        split=split, joins=tuple(_Join(*meet) for meet in meets))


class _Step(NamedTuple):
    """One gate of a half sweep: its moves (cone, sources, read, width),
    their multiply-adds and temporaries, and the widths of the groups after
    it."""

    moves: list[tuple]
    madds: int
    scratch: int
    widths: dict[_Cone, int]


def _half_plan(arch: Architecture, labels_all: list[np.ndarray],
               prune: bool, *, backward: bool) -> list[_Step]:
    """The steps of a sweep over every gate, forward from gate 0 or
    backward from gate R - 1 (``_frame_plan``).  A transfer into a cone c
    from a source holding k of the gate's wires takes 4^(|c| + k)
    multiply-adds per column, and a backward read 16 per column and kept
    label."""
    order = range(arch.gate_count)
    if backward:
        order = order[::-1]
    final = {q: s for s, j in enumerate(order) for q in arch.gates[j]}
    widths: dict[_Cone, int] = {}
    steps: list[_Step] = []
    for s, j in enumerate(order):
        a, b = arch.gates[j]
        labels = labels_all[j]
        lo, hi = sorted((a, b))
        moves: dict[_Cone, list[_Cone]] = {}
        for cone in [c for c in widths if a in c or b in c]:
            live = {q for q in cone if not prune or final[q] >= s}
            moves.setdefault(tuple(sorted(live | {a, b})), []).append(cone)
        moves.setdefault((lo, hi), [])
        step, madds, scratch = [], 0, 0
        for cone, sources in moves.items():
            apart = cone.index(hi) > cone.index(lo) + 1
            width = labels.size if cone == (lo, hi) else 0
            for src in sources:
                count = widths.pop(src)
                width += count
                stay = sum(w in cone for w in src)  # the wires src keeps
                size_in = count * 4 ** stay
                scratch = max(scratch, size_in * (stay < len(src))
                              + (size_in + 4 ** len(cone) * count) * apart)
                madds += 4 ** (len(cone) + (lo in src) + (hi in src)) * count
            widths[cone] = width
            read = _meet_rows(cone, (lo, hi))
            if backward:
                madds += 16 * labels.size * width
            else:
                read = read[labels]
                read.flags.writeable = False
            scratch = max(scratch,
                          prune * (16 * backward + labels.size) * width)
            step.append((cone, tuple(sources), read, width))
        steps.append(_Step(step, madds, scratch, dict(widths)))
    return steps


def _alive(forward: list[_Step], backward: list[_Step],
           split: int) -> tuple[dict[_Cone, int], dict[_Cone, int]]:
    """The widths of the forward and the backward groups alive at
    ``split``."""
    end = len(forward)
    return (forward[split - 1].widths if split else {},
            backward[end - split - 1].widths if split < end else {})


def _meets(forward: list[_Step], backward: list[_Step],
           split: int) -> list[tuple[_Cone, _Cone, _Cone]]:
    """(forward cone, backward cone, meet) of the groups the join at
    ``split`` pairs: those alive there whose cones meet."""
    ahead, behind = _alive(forward, backward, split)
    return [(f, b, meet) for f in ahead for b in behind
            for meet in [tuple(q for q in f if q in b)] if meet]


def _meet_rows(cone: _Cone, meet: _Cone) -> np.ndarray:
    """The rows of a group over ``cone`` that are the identity off
    ``meet``, in the meet's label order."""
    return _cone_index(tuple(cone.index(q) + 1 for q in meet), len(cone))


# One array call costs about as much as this many multiply-adds: on a
# 2-core x86-64 VM with OpenBLAS, a call takes about 10 us beside its
# arithmetic, and a sweep runs about 6 multiply-adds per ns.
_CALL_MADDS = 2 ** 16


def _split_point(forward: list[_Step], backward: list[_Step]) -> int:
    """The split h with the least work: the multiply-adds of the forward
    steps before h, of the backward steps from h and of the join, 4^|meet|
    per pair of columns it pairs, plus ``_CALL_MADDS`` per array call (a
    transfer, a read, a join's row copy or product); ties go to the later
    h."""
    end = len(forward)
    work = [[step.madds + _CALL_MADDS * sum(1 + len(move[1])
                                            for move in step.moves)
             for step in half] for half in (forward, backward)]
    before = np.cumsum([0] + work[0])
    after = np.cumsum([0] + work[1])[::-1]

    def cost(h: int) -> int:
        ahead, behind = _alive(forward, backward, h)
        join = sum(4 ** len(meet) * ahead[f] * behind[b]
                   + _CALL_MADDS * (1 + (meet != f) + (meet != b))
                   for f, b, meet in _meets(forward, backward, h))
        return int(before[h] + after[h]) + join

    return min(range(end + 1), key=lambda h: (cost(h), -h))


# A frame's partial cones repeat across its Haar samples and across calls on
# the same architecture.  One entry takes at most 8 * 4^(n-1) bytes, a
# quarter of one frame column.
@functools.lru_cache(maxsize=64)
def _cone_index(cone: _Cone, n: int) -> np.ndarray:
    """Flat indices of the Pauli strings that are the identity outside
    ``cone``, in lexicographic label order over the cone's qubits (1-based,
    ascending).  Cached and read-only: every caller shares the array."""
    idx = np.zeros(1, dtype=np.intp)
    for q in cone:
        idx = (idx[:, None] + np.arange(4) * 4 ** (n - q)).ravel()
    idx.flags.writeable = False
    return idx


def transfer_matrices(gates: GateAssignment) -> np.ndarray:
    """Pauli transfer matrices T_j[P, Q] = tr(P u_j Q u_j^dagger) / 4 over
    the 16 two-qubit labels, shape (R, 16, 16).  Conjugation by u_j maps
    label Q to sum_P T_j[P, Q] P, so each T_j is real and orthogonal, with
    T_j[0, 0] = 1 and the rest of row and column 0 zero."""
    mats = gates.matrices
    r = len(mats)
    # u_j Q for every gate and label, then u_j Q u_j^dagger
    conj = apply_gate_right(mats.reshape(4 * r, 4), _PAULI_STACK, (1, 2), 2)
    conj = conj.reshape(16, r, 4, 4) @ np.swapaxes(mats, 1, 2).conj()
    return np.ascontiguousarray(pauli_coefficients(conj, 2).transpose(1, 2, 0))


def _transfer(x: np.ndarray, t4: np.ndarray, old: _Cone, new: _Cone,
              wires: tuple[int, int], out: np.ndarray) -> None:
    """Apply a transfer matrix t4[P_lo, P_hi, Q_lo, Q_hi] on wires
    (lo, hi), lo < hi, to a group stored over cone ``old``, shape
    (4^|old|, m), and write the group over cone ``new``, shape
    (4^|new|, m), into ``out``: a whole group or a column range of a wider
    one.  A wire new to the cone enters with the identity letter, so only
    that slice of t4 is read; a wire of ``old`` that ``new`` drops leaves
    at its identity letter, so only that slice of x is read."""
    lo, hi = wires
    # new is old and the wires new to it, less the wires it drops
    if len(new) < len(old) + (lo not in old) + (hi not in old):
        x = x.reshape([4] * len(old) + [-1])[
            tuple(slice(None) if w in new else 0 for w in old)]
        old = tuple(w for w in old if w in new)
    t = t4[:, :, :4 if lo in old else 1, :4 if hi in old else 1]
    p, q = new.index(lo), new.index(hi)
    if q == p + 1 and out.flags.c_contiguous:
        # adjacent in the cone: one broadcast matmul
        np.matmul(t.reshape(16, -1),
                  x.reshape(4 ** p, t.shape[2] * t.shape[3], -1),
                  out=out.reshape(4 ** p, 16, -1))
    elif q == p + 1:  # into a column range: one matmul per outer row block
        m, tail = x.shape[-1], 4 ** (len(new) - q - 1)
        np.matmul(t.reshape(16, -1),
                  x.reshape(4 ** p, -1, tail, m).swapaxes(1, 2),
                  out=out.reshape(4 ** p, 16, tail, m).swapaxes(1, 2))
    else:
        dims = [4 if w in old else 1 for w in new] + [-1]
        y = np.moveaxis(np.tensordot(t, x.reshape(dims),
                                     axes=([2, 3], [p, q])), (0, 1), (p, q))
        np.copyto(out.reshape(y.shape), y)


_Groups = dict[_Cone, tuple[np.ndarray, np.ndarray]]  # cone -> (x, columns)


def _sweep(arch: Architecture, transfers: np.ndarray, plan: _FramePlan,
           gram: np.ndarray | None) -> _Groups:
    """Run ``plan``'s sweep and return the forward groups left at the end,
    each with its frame columns; fill ``gram``, when given (all zero), with
    the Gram matrix.  A pruned plan reuses the space of the groups it
    returns, so only an unpruned sweep's groups can be read.

    The plan's arena is made by one ``np.empty`` for the rest, which is
    gone when the sweep returns, and then one for its head, which holds the
    groups returned or joined.  Made second, the head tends to sit just
    above the rest in a heap, so once the matrix is formed from it and it
    is freed, the two free blocks join into one that takes the SVD's copy
    of the matrix.  Every group a gate writes is a view at its planned
    offset.  Each source group's transfer writes straight into its column
    range, and the group over the gate's wires takes the gate's born
    columns in its tail: the kept columns of I forward, of T_j^T backward.
    A forward read takes the group's rows of the gate's kept labels; a
    backward one takes the product of the born columns with the group's
    rows of all 16 labels.  The join takes the product of each joined
    pair's rows of their meet.  Each read and join writes its block into
    both entries of its pairs, and every pair of columns of different
    gates is read once; the diagonal is 1, a born unit vector against
    itself (the pairs of one gate's columns read 0)."""
    held, split = plan.held, plan.split
    rest, head = np.empty(plan.arena - held), np.empty(held)
    stops = list(itertools.accumulate(kept.size for kept in plan.kept))
    halves: list[_Groups] = [{}, {}]
    order = list(range(split)) + list(range(arch.gate_count - 1, split - 1, -1))
    for s, (j, step) in enumerate(zip(order, plan.steps)):
        backward = s >= split
        groups = halves[backward]
        (a, b), labels = arch.gates[j], plan.labels[j]
        t4 = (transfers[j].T if backward else transfers[j]).reshape(4, 4, 4, 4)
        if a > b:  # the lower wire leads, as in the plan's labels
            a, b, t4 = b, a, t4.transpose(1, 0, 3, 2)
        born = (t4.reshape(16, 16) if backward else np.eye(16))[:, labels]
        span = slice(stops[j] - labels.size, stops[j])  # gate j's columns
        for cone, sources, read, offset, width in step:
            size = 4 ** len(cone) * width
            x = head[offset:offset + size] if offset < held \
                else rest[offset - held:offset - held + size]
            x = x.reshape(-1, width)
            cols, at = [], 0
            for src in sources:
                part, members = groups.pop(src)
                _transfer(part, t4, src, cone, (a, b),
                          x[:, at:at + part.shape[1]])
                at += part.shape[1]
                cols.append(members)
            if cone == (a, b):  # the gate's own group
                x[:, at:] = born
                cols.append(np.arange(span.start, span.stop))
            cols = cols[0] if len(cols) == 1 else np.concatenate(cols)
            groups[cone] = x, cols
            if gram is not None and at:  # the sources' columns
                block = born.T @ x[read, :at] if backward else x[read, :at]
                gram[span, cols[:at]] = block
                gram[cols[:at], span] = block.T
    forward, backward = halves
    if gram is not None:
        for join in plan.joins:
            (xf, fcols), (xb, bcols) = forward[join.forward], \
                backward[join.backward]
            if join.meet != join.forward:
                xf = xf[_meet_rows(join.forward, join.meet)]
            if join.meet != join.backward:
                xb = xb[_meet_rows(join.backward, join.meet)]
            pairs = np.ix_(fcols, bcols)
            gram[pairs] = gram.T[pairs] = xf.T @ xb
        np.fill_diagonal(gram, 1.0)
    return forward


def _assemble(n: int, width: int, groups: _Groups) -> np.ndarray:
    """The 4^n x C frame, C = ``width``, from an unpruned sweep's last
    groups."""
    # one row per column: each group is written as one transposed block
    out = np.empty((width, 4 ** n))
    for cone, (x, cols) in groups.items():
        if len(cone) == n:
            out[cols] = x.T
        else:
            out[cols] = 0.0
            out[np.ix_(cols, _cone_index(cone, n))] = x.T
    return out.T


def _unitary_frame(arch: Architecture, gates: GateAssignment) -> TangentFrame:
    """The unitary frame by the forward sweep of ``_frame_plan``: column
    (j, k) is T_R ... T_{j+1} e_{S_k}.

    A tall frame also reads its Gram matrix off the sweep split at gate h
    (``_frame_plan``).  The T_j are orthogonal, so for j < j2 the inner
    product of columns (j, k) and (j2, k2) of the frame equals the one just
    after gate j2, when column (j2, k2) is still the unit vector e_{S_k2} on
    gate j2's wires: column (j, k)'s coefficient on that Pauli string.  For
    j2 < h the forward half reads it there: after each gate, every group it
    writes gives those rows for the gate's kept labels.  Moved onto the
    other column by the transposes, it is <e_{S_k}, T_{j+1}^T ... T_{j2}^T
    e_{S_k2}> for h <= j, which the backward half reads at gate j as the
    inner product of its born column T_j^T e_{S_k} with every group the
    gate writes, over their 16 rows on its wires; and for j < h <= j2 it is
    the join's <T_{h-1} ... T_{j+1} e_{S_k}, T_h^T ... T_{j2}^T e_{S_k2}>.
    Each read and join writes both entries of the pairs it reads.  Columns
    of groups a read does not take are the identity on the gate's wires
    and have 0 there, and a pair the join skips has no causal path between
    its gates, so its forward read is 0 as well.  Two columns of one gate
    pair as the unit vectors they are born as: 1 on the diagonal, 0 off
    it.

    Rounding and the unitarity defect of the gates keep the T_j from being
    exactly orthogonal.  Let tau be the largest Frobenius norm of the
    computed defects T_j^T T_j - I; with 128 eps for the rounding of that
    product (eps = 2^-52), it bounds every ||T_j^T T_j - I||_2, and so
    every ||T_j T_j^T - I||_2, which has the same singular values.  A
    computed transfer, or transposed transfer, adds at most
    gamma_16 ||T_j||_F <= 32 eps relative error to a column.  So one gate
    moves the inner product of two columns by at most rho = tau + 256 eps
    times their norms, whether it applies T_j to both, T_j^T to both (with
    a backward read's 16-term sum), or T_j to one column in place of T_j^T
    to the other, which is exact but for the two roundings.  No column norm
    grows past (1 + rho)^(R/2).  A forward read at gate j2 reaches the entry
    of M^T M of the returned frame through the R - j2 - 1 later gates; a
    backward read at gate j through j2 - j moves to that forward read and
    one more; a join through j2 - h + 1.  The join's sum over the 4^m
    strings of a meet of m wires adds gamma_{4^m} times the norms, with m
    the widest meet (gamma = 0 without a join).  So every entry of the read
    Gram matrix is within (1 + gamma) (1 + rho)^R - 1 of M^T M's, and C
    times that bounds its Frobenius norm and its 2-norm (``gram_error``).
    Pruning dead wires changes none of this: a dropped row never feeds a
    kept row, so every kept row is computed by the same transfers as
    before, and the bound holds as written.  A non-finite transfer stack
    gives no Gram matrix: every frame entry is a sum of products of the
    stack's entries, so a finite stack makes a finite frame.

    A tall frame runs the Gram read's plan and releases the sweep's arena
    on return; a wide frame runs no sweep here.  Every frame keeps its
    transfer stack (2 KiB per gate), and reading its ``matrix`` runs the
    unpruned sweep once and assembles the matrix from its last groups.
    """
    rows, width = frame_shape(arch, "unitary")
    transfers = transfer_matrices(gates)
    defect = np.swapaxes(transfers, 1, 2) @ transfers - np.eye(16)
    tau = np.sqrt((defect * defect).sum(axis=(1, 2)).max(initial=0.0))
    gram, gram_error = None, 0.0
    if width < rows and np.isfinite(tau):
        gram = np.zeros((width, width))
        pruned = _frame_plan(arch, prune=True)
        eps = np.finfo(np.float64).eps
        meet = max((4 ** len(join.meet) for join in pruned.joins), default=0)
        gram_error = width * float(np.expm1(
            arch.gate_count * np.log1p(tau + 256 * eps)
            + np.log1p(meet * eps / (1 - meet * eps))))
        _sweep(arch, transfers, pruned, gram)
    plan = _frame_plan(arch)

    def assemble() -> np.ndarray:
        return _assemble(arch.n, width, _sweep(arch, transfers, plan, None))

    return TangentFrame("unitary", arch.n, arch.gate_count, plan.record,
                        assemble, gram, gram_error)


def tangent_frame(arch: Architecture, gates: GateAssignment,
                  mode: str = "unitary") -> TangentFrame:
    """The gauge-fixed perturbation directions.

    Unitary mode stores the Pauli-basis expansion of each
    K_{j,k} = Suffix_j S_k Suffix_j^dagger (4^n real rows); state mode
    stores Re and Im of i K_{j,k} |psi> (2 * 2^n real rows).

    Gate j on wires (a, b) drops XI, YI, ZI when a later gate acts on a, and
    IX, IY, IZ when a later gate acts on b, leaving 9R + 3 * touched qubits
    columns.  The rank is unchanged at every gate assignment, not only a
    generic one: if j2 is the next gate on wire q, the gates between j and
    j2 commute with a Pauli P on q, so
    K_{j,P} = Suffix_{j2} (u_{j2} P u_{j2}^dagger) Suffix_{j2}^dagger, which
    lies in the real span of gate j2's 15 directions (and, by induction from
    the last gate back, in the span of the kept ones).

    Unitary mode sweeps forward in the Pauli basis.  Conjugation by gate j
    acts on Pauli coefficients as its real orthogonal 16 x 16 transfer
    matrix T_j (``transfer_matrices``) on its two wires, so column (j, k) is
    T_R ... T_{j+1} e_{S_k}: gate j applies T_j to every column built so
    far, then appends its kept generators as unit vectors.  A column is the
    identity outside its forward light cone, the qubits that gates j, j+1,
    ... connect to gate j's wires, so columns are held in groups over their
    current cone only, and groups whose cones become equal merge
    (``_frame_plan``).  A column's rows with a non-identity letter outside
    its cone are exactly 0.  A tall frame (C < 4^n) with a finite transfer
    stack carries its Gram matrix with an error bound (``_unitary_frame``);
    that is all the Gram route of ``numerical_rank`` reads.  It is read off
    two half sweeps that meet at a gate h the plan picks: the forward sweep
    over gates 0..h-1, at O(15 C) work per gate, and a backward sweep over
    gates R-1..h with the transposed transfer matrices, whose column (j, k)
    is born as T_j^T e_{S_k}; then one product per pair of groups the two
    halves hold at h whose cones meet.  On shapes where splitting saves no
    work, h = R and the forward sweep alone reads it.  Each half drops a
    wire from every cone it moves once it has passed the wire's gates,
    since no later read nor the join sees that wire's other letters, and
    keeps only the groups the join reads.  Every unitary frame, tall or
    wide, forms its 4^n x C matrix only when ``matrix`` is read, by one
    unpruned forward sweep.

    State mode sweeps forward over a stack of complex 2^n vectors: gate j
    applies u_j to the columns built so far, advances psi by u_j, then
    appends i S_k psi for its kept k, so column (j, k) ends as
    i K_{j,k} psi.  No 2^n x 2^n operator is formed.
    """
    check_mode(mode)
    _check_size(arch, mode)
    _require_match(arch, gates)
    if mode == "unitary":
        return _unitary_frame(arch, gates)
    plan = _frame_plan(arch)
    n = arch.n
    dim = 2 ** n
    stack = np.empty((dim, plan.record.shape[0]), dtype=complex)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    filled = 0
    chunk = max(1, _STACK_CHUNK // (16 * dim))
    for wires, u, kept in zip(arch.gates, gates.matrices, plan.kept):
        for lo in range(0, filled, chunk):
            part = stack[:, lo:min(lo + chunk, filled)]
            part[...] = apply_gate_left(part, u, wires, n)
        psi = apply_gate_left(psi, u, wires, n)
        block = slice(filled, filled + kept.size)
        stack[:, block] = apply_gate_left(psi, 1j * _GENERATOR_STACK[kept],
                                          wires, n).T
        filled = block.stop
    matrix = np.concatenate([stack.real, stack.imag])
    return TangentFrame(mode, n, arch.gate_count, plan.record, lambda: matrix)


# -- numerical rank ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RankEstimate:
    """Rank decision at a loose/tight tolerance pair.

    The estimate is conclusive only when both thresholds count the same
    number of singular values above tol * sigma_max.  ``route`` names how
    the singular values were found: ``"gram"`` (certified from the Gram
    spectrum) or ``"svd"``; see ``numerical_rank``.  On the gram route,
    ``gram_margin`` is the factor by which the certificate held,
    (lam_min - delta) / ((100 loose)^2 (lam_max + delta)) >= 1.
    """

    singular_values: np.ndarray
    tolerances: tuple[float, float]
    loose_rank: int
    tight_rank: int
    route: str = "svd"
    gram_margin: float | None = None

    @property
    def conclusive(self) -> bool:
        return self.loose_rank == self.tight_rank

    @property
    def rank(self) -> int | None:
        return self.loose_rank if self.conclusive else None

    def gap_description(self) -> str:
        sv = self.singular_values
        if self.conclusive:
            return "conclusive"
        lo, hi = sorted((self.loose_rank, self.tight_rank))
        contested = ", ".join(f"{x:.3e}" for x in sv[lo:hi])
        return (f"ranks {self.loose_rank}/{self.tight_rank} disagree; "
                f"contested singular values: {contested}")


# A Gram certificate places every singular value at least this factor above
# the loose cutoff.
_GRAM_MARGIN = 100.0


def _gram_estimate(gram: np.ndarray, tol_pair: tuple[float, float],
                   read_error: float) -> RankEstimate | None:
    """The full-rank estimate of a real matrix M with C columns whose Gram
    matrix ``gram`` certifies it, or None when it cannot.

    ``gram`` lies within ``read_error`` of the exact M^T M in the 2-norm,
    and eigvalsh is backward stable, within C eps ||G||_2 <= C eps trace(G).
    So lam = eigvalsh(G) lies within delta = C eps trace(G) + read_error of
    the eigenvalues of M^T M (Weyl).  When lam_min - delta > 0 and
    lam_min - delta >= (100 loose)^2 (lam_max + delta), every singular value
    is at least 100x above loose * sigma_max, so an SVD would count all C of
    them at both tolerances.
    """
    c = gram.shape[0]
    delta = c * np.finfo(np.float64).eps * np.trace(gram) + read_error
    floor = (_GRAM_MARGIN * tol_pair[0]) ** 2
    lam = np.linalg.eigvalsh(gram)
    low, high = lam[0] - delta, lam[-1] + delta
    if not (low > 0.0 and low >= floor * high):
        return None
    return RankEstimate(np.sqrt(lam[::-1]), tol_pair, c, c, route="gram",
                        gram_margin=float(low / (floor * high)))


def _check_tolerances(tol_pair: tuple[float, float]) -> tuple[float, float]:
    """The (loose, tight) pair, or ValidationError unless
    eps <= tight <= loose < 1."""
    loose, tight = tol_pair
    if not np.finfo(float).eps <= tight <= loose < 1.0:
        raise ValidationError("tolerances must satisfy eps <= tight <= loose"
                              f" < 1, got (loose, tight) = {tol_pair}")
    return loose, tight


def numerical_rank(frame: TangentFrame | np.ndarray,
                   tol_pair: tuple[float, float] = DEFAULT_TOLERANCES,
                   ) -> RankEstimate:
    """Singular-value rank under two relative thresholds.

    A frame that carries a Gram matrix (``TangentFrame.gram``: a tall
    unitary frame, which reads it off its sweep) is first tried on the Gram
    route: the eigenvalues of that matrix, with its error bound, certify
    that all C singular values sit at least 100x above the loose cutoff,
    and then the SVD would return loose = tight = C as well.  A certified
    frame never forms its matrix; the estimate holds sqrt(eigvalsh(G)) as
    its singular values, with ``route="gram"``.  Every other input takes a
    full SVD (``route="svd"``): plain arrays, state frames, wide frames,
    rank-deficient or near-cutoff spectra, and all-zero matrices.  A state
    frame could never be certified: gate 0 acts on |0...0>, so its at least
    9 kept directions i S_k u_0 |00> lie in the 7-dimensional tangent space
    of the sphere at u_0 |00>, and the later gates move them by one unitary.
    Ranks never differ between the routes; gram-route singular values
    differ from LAPACK's SVD by rounding only (below 1e-12 sigma_max on the
    frames measured).

    An empty or all-zero matrix has rank 0 by convention.  A matrix holding
    NaN or inf raises ``LinAlgError``; a frame with a Gram matrix is finite
    by construction (see ``tangent_frame``).  The tolerances must satisfy
    eps <= tight <= loose < 1.
    """
    loose, tight = _check_tolerances(tol_pair)
    gram = frame.gram if isinstance(frame, TangentFrame) else None
    if gram is not None and gram.size:
        est = _gram_estimate(gram, tol_pair, frame.gram_error)
        if est is not None:
            return est
    mat = frame.matrix if isinstance(frame, TangentFrame) else np.asarray(frame)
    if mat.size == 0:
        return RankEstimate(np.zeros(0), tol_pair, 0, 0)
    if not np.isfinite(mat).all():
        raise np.linalg.LinAlgError("frame holds a non-finite entry")
    sv = np.linalg.svd(mat, compute_uv=False)
    smax = sv[0]
    if smax == 0.0:
        return RankEstimate(sv, tol_pair, 0, 0)
    return RankEstimate(
        sv, tol_pair,
        int((sv > loose * smax).sum()),
        int((sv > tight * smax).sum()),
    )


def dimension_bounds(arch: Architecture, mode: str) -> tuple[int, int, int]:
    """(lower, upper, cap) for the accessible dimension.

    The lower bound is the number of causal slices among the marked ones;
    the cap is 4^n - 1 in unitary mode and the sphere dimension 2 * 2^n - 1
    in state mode.
    """
    lower = sum(
        1 for start, stop in arch.slice_ranges()
        if is_causal_slice(arch, start, stop) is not None)
    cap = saturation_threshold(arch.n, mode)
    return lower, min(gauge_fixed_count(arch), cap), cap


def _sample_json(e: RankEstimate) -> dict:
    entry = {
        "loose_rank": e.loose_rank,
        "tight_rank": e.tight_rank,
        "sigma_max": float(e.singular_values[0])
        if e.singular_values.size else 0.0,
        "status": e.gap_description(),
        "route": e.route,
    }
    if e.gram_margin is not None:
        entry["gram_margin"] = e.gram_margin
    return entry


@dataclass(frozen=True, eq=False)
class RankReport:
    """Per-sample ranks plus the consensus accessible dimension and verdicts."""

    n: int
    gate_count: int
    mode: str
    samples: int
    seed: int
    tolerances: tuple[float, float]
    estimates: tuple[RankEstimate, ...]
    consensus: int | None
    inconclusive: bool
    inconclusive_reason: str | None
    lower_bound: int
    upper_bound: int
    cap: int

    @property
    def lower_ok(self) -> bool | None:
        if self.consensus is None:
            return None
        return self.consensus >= self.lower_bound

    @property
    def upper_ok(self) -> bool | None:
        if self.consensus is None:
            return None
        return self.consensus <= self.upper_bound

    @property
    def bounds_ok(self) -> bool | None:
        if self.consensus is None:
            return None
        return bool(self.lower_ok and self.upper_ok)

    def sample_ranks(self) -> tuple[tuple[int, int], ...]:
        return tuple((e.loose_rank, e.tight_rank) for e in self.estimates)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "gates": self.gate_count,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": list(self.tolerances),
            "per_sample": [_sample_json(e) for e in self.estimates],
            "consensus": self.consensus,
            "inconclusive": self.inconclusive,
            "inconclusive_reason": self.inconclusive_reason,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "cap": self.cap,
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
        }

    def spectra_csv(self) -> str:
        lines = ["sample,index,singular_value"]
        for i, e in enumerate(self.estimates):
            for idx, val in enumerate(e.singular_values):
                lines.append(f"{i},{idx},{float(val)!r}")
        return "\n".join(lines) + "\n"


def accessible_dimension(arch: Architecture, mode: str = "unitary",
                         samples: int = 5, seed: int = 0,
                         tolerances: tuple[float, float] = DEFAULT_TOLERANCES,
                         ) -> RankReport:
    """Consensus Jacobian rank over independent Haar-random gate assignments.

    All samples must agree at both tolerances; any disagreement is surfaced
    as an inconclusive report, never averaged away.  Per-sample seeds derive
    from ``seed`` by counter.  A frame over ``MEMORY_BUDGET`` raises
    SizeLimit, and a tolerance pair ``numerical_rank`` would refuse or a
    seed that is not a nonnegative integer (``subseed``) raises
    ValidationError, before the first sample is drawn.
    """
    check_mode(mode)
    if samples < 3:
        raise ValidationError(f"need at least 3 samples, got {samples}")
    _check_tolerances(tolerances)
    _check_size(arch, mode)

    def one(i: int) -> RankEstimate:
        gates = GateAssignment.haar(arch, subseed(seed, i))
        return numerical_rank(tangent_frame(arch, gates, mode), tolerances)

    estimates = tuple(one(i) for i in range(samples))

    reason = None
    for i, e in enumerate(estimates):
        if not e.conclusive:
            reason = f"sample {i}: {e.gap_description()}"
            break
    if reason is None:
        ranks = {e.rank for e in estimates}
        if len(ranks) > 1:
            reason = f"samples disagree: {sorted(r for r in ranks)}"
    consensus = estimates[0].rank if reason is None else None
    lower, upper, cap = dimension_bounds(arch, mode)
    return RankReport(
        n=arch.n, gate_count=arch.gate_count, mode=mode, samples=samples,
        seed=seed, tolerances=tolerances, estimates=estimates,
        consensus=consensus, inconclusive=reason is not None,
        inconclusive_reason=reason, lower_bound=lower, upper_bound=upper,
        cap=cap,
    )
