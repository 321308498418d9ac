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
columns grouped by their forward light cones, and the same sweep reads off
the frame's Gram matrix for the rank; a state frame by a forward sweep over
a stack of state vectors.  Both read one cached plan per architecture.  A
dense call whose estimated peak memory
(``peak_bytes``) exceeds ``MEMORY_BUDGET`` raises SizeLimit before it
allocates.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .architecture import Architecture, is_causal_slice
from .bounds import gauge_fixed_count, saturation_threshold
from .dense import apply_gate_left, apply_gate_right
from .errors import (
    CountMismatch,
    SizeLimit,
    ValidationError,
)
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
    """Deterministic 64-bit child seed for (seed, key...)."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _haar_stack(rng: int | np.random.Generator, count: int,
                special: bool) -> np.ndarray:
    """``count`` Haar-random U(4) samples, shape (count, 4, 4), or SU(4)
    samples when ``special``: QR of complex Ginibre matrices with the
    R-diagonal phases folded into Q, then the determinant phased out.

    One draw and one stacked QR serve every sample; each matrix equals, bit
    for bit, what sampling them one at a time from the same generator gives.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    z = gen.standard_normal((count, 2, 4, 4))
    z = z[:, 0] + 1j * z[:, 1]
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    u = q * (d / np.abs(d))[:, None, :]
    return u / np.linalg.det(u)[:, None, None] ** 0.25 if special else u


def haar_u4(rng: int | np.random.Generator) -> np.ndarray:
    """Haar-random U(4) sample."""
    return _haar_stack(rng, 1, special=False)[0]


def haar_su4(rng: int | np.random.Generator) -> np.ndarray:
    """Haar-random SU(4) sample (U(4) sample with the determinant phased out)."""
    return _haar_stack(rng, 1, special=True)[0]


def frame_shape(arch: Architecture, mode: str) -> tuple[int, int]:
    """(rows, columns) of the gauge-fixed tangent frame: 4^n Pauli rows in
    unitary mode, 2 * 2^n real rows in state mode, 9R + 3 * touched qubits
    columns in both."""
    rows = 4 ** arch.n if mode == "unitary" else 2 * 2 ** arch.n
    return rows, gauge_fixed_count(arch)


def peak_bytes(arch: Architecture, job: str) -> int:
    """Upper estimate of the peak bytes of a dense call on ``arch``; ``job``
    is a frame mode, "contract" or "contract_state".  A gate applied to an
    array holds two more of its size (tensordot's reordered input and
    output).  A frame counts its matrix twice (the SVD's copy).

    The state sweep holds its C x 2^n complex stack (the frame's size), then
    the frame beside it; the rank holds the frame beside the SVD's copy or,
    for a tall frame, four C x C arrays of the SVD's work.  On top come
    16 KiB per gate for the plan and one gate's temporaries, which the
    allocator keeps: two copies of a stack chunk and about 36 state
    vectors.  The unitary frame's forward sweep (``_frame_plan``) holds the
    two buffers of the whole-register group beside one gate step's partial
    groups, and its transfer matrices and their complex build take 16 KiB
    per gate.  A tall unitary frame also holds its C x C Gram matrix
    throughout.  Its certificate runs beside the groups the frame keeps (at
    most one frame's worth) and takes up to three more C x C arrays; the SVD
    route forms the matrix from those groups and then copies it.  An
    estimate whose frame terms alone exceed ``MEMORY_BUDGET`` returns
    before the sweep's plan is built."""
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
    plan = _frame_plan(arch)
    whole = 8 * 4 ** arch.n * plan.whole_width
    return gram + max(16384 * arch.gate_count + 2 * whole + plan.step_bytes,
                      frame + 3 * gram, 2 * frame)


def _check_size(arch: Architecture, job: str) -> None:
    est = peak_bytes(arch, job)
    if est > MEMORY_BUDGET:
        raise SizeLimit(f"{job} on n={arch.n}, R={arch.gate_count} needs an "
                        f"estimated {est / 2 ** 30:.2f} GiB, over the "
                        f"{MEMORY_BUDGET / 2 ** 30:.0f} GiB memory budget")


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
        return cls(_haar_stack(seed, arch.gate_count, special=True))


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
    from its sweep's vector stack at once; a unitary frame holds its
    sweep's light-cone groups until something reads it.  ``gram`` is the C x C Gram matrix M^T M of a
    tall unitary frame (fewer columns than rows), read off the sweep in
    column order, and ``gram_error`` bounds its 2-norm distance from the
    exact Gram matrix of ``matrix``; ``gram`` is None in state mode and for
    wide frames.
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


@dataclass(frozen=True, eq=False)
class _FramePlan:
    """The integer bookkeeping of both frame modes.

    ``kept[j]`` holds gate j's kept generator indices (into the 15), and
    ``record`` is the frame's (gate, generator) column list.  The rest is
    the unitary sweep's.  ``labels[j]`` holds gate j's kept generators as
    two-qubit labels (1 to 15) read with the lower wire leading.
    ``steps[j]`` lists the groups gate j writes, each as (cone, the cones
    of the groups merged into it, whether gate j's own kept generators join
    it, the group's rows of those labels).  Row r of a group over cone c is
    the Pauli string that is the identity off c; the read rows put each
    label on gate j's wires and the identity on the rest of c.
    ``whole_width`` counts the columns of the whole-register group at the
    end (it only grows).  ``step_bytes`` bounds the bytes one gate's step
    holds outside the whole-register buffers.
    """

    kept: tuple[np.ndarray, ...]
    record: np.ndarray
    steps: tuple[tuple[tuple[_Cone, tuple[_Cone, ...], bool, np.ndarray],
                       ...], ...]
    labels: tuple[np.ndarray, ...]
    whole_width: int
    step_bytes: int


# Plans repeat across a frame's Haar samples and across calls on the same
# architecture; the benchmark's dim-wide ops use four architectures.
@functools.lru_cache(maxsize=64)
def _frame_plan(arch: Architecture) -> _FramePlan:
    """Each gate's kept generators; the unitary columns' light-cone groups.

    After gate j, the columns of gates 0..j sit in groups, one per cone: the
    qubits that gates up to j connect to a column's own gate wires (1-based,
    ascending).  A column is the identity outside its cone, so its group is
    stored over the cone's 4^|cone| Pauli rows only.  Gate j moves every
    group whose cone meets its wires to the cone grown by both wires, merges
    the groups that land on one cone (equal cones evolve alike from then
    on), and adds its own kept generators to the group of cone {a, b}.

    A step holds the groups it reads beside those it writes.  One transfer
    adds at most a reordered copy of its input and a moved copy of its
    output.  Columns that reach the whole register count at full size until
    they are written into its buffer; a whole-register group off the matmul
    route (wires not adjacent) is reordered into a copy and transferred
    into another.
    """
    n = arch.n
    last = {q: j for j, gate in enumerate(arch.gates) for q in gate}
    whole = tuple(range(1, n + 1))
    groups: dict[_Cone, int] = {}  # cone -> column count
    kept_all, labels_all, steps = [], [], []
    step_bytes = 0

    def held(cone: _Cone, count: int) -> int:
        return 8 * 4 ** len(cone) * count

    def partial_bytes() -> int:
        return sum(held(cone, count)
                   for cone, count in groups.items() if cone != whole)

    for j, (a, b) in enumerate(arch.gates):
        kept = _KEPT[last[a] > j, last[b] > j]
        kept_all.append(kept)
        labels = _SWAPPED[kept + 1] if a > b else kept + 1
        labels.flags.writeable = False
        labels_all.append(labels)
        lo, hi = sorted((a, b))
        before = partial_bytes()
        width = groups.get(whole, 0)
        written = largest_in = largest_out = 0
        moves: dict[_Cone, list[_Cone]] = {}
        # the whole-register group, when there is one, leads its merge
        for cone in sorted((c for c in groups if a in c or b in c),
                           key=lambda c: c != whole):
            moves.setdefault(tuple(sorted({*cone, a, b})), []).append(cone)
        fresh = (lo, hi)
        moves.setdefault(fresh, [])
        step = []
        for cone, sources in moves.items():
            largest_in = max([largest_in] + [
                held(src, groups[src]) for src in sources if src != whole])
            count = sum(groups.pop(src) for src in sources)
            if cone == fresh:
                count += kept.size
            groups[cone] = count
            # the whole-register group's own columns stay in its buffers
            out = held(cone, count - (width if cone == whole else 0))
            written += out
            largest_out = max(largest_out, out)
            tail = len(cone) - 1
            read = labels // 4 * 4 ** (tail - cone.index(lo)) \
                + labels % 4 * 4 ** (tail - cone.index(hi))
            read.flags.writeable = False
            step.append((cone, tuple(sources), cone == fresh, read))
        steps.append(tuple(step))
        scratch = 2 * held(whole, width) if abs(a - b) > 1 else 0
        step_bytes = max(step_bytes, before + written + largest_in
                         + largest_out + scratch)
    record = np.array([(j, k) for j, kept in enumerate(kept_all) for k in kept],
                      dtype=np.intp).reshape(-1, 2)
    record.flags.writeable = False
    return _FramePlan(
        kept=tuple(kept_all), record=record, steps=tuple(steps),
        labels=tuple(labels_all), whole_width=groups.get(whole, 0),
        step_bytes=step_bytes)


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
    that slice of t4 is read."""
    lo, hi = wires
    t = t4[:, :, :4 if lo in old else 1, :4 if hi in old else 1]
    p, q = new.index(lo), new.index(hi)
    if q == p + 1 and out.flags.c_contiguous:
        # adjacent in the cone: one broadcast matmul
        np.matmul(t.reshape(16, -1),
                  x.reshape(4 ** p, t.shape[2] * t.shape[3], -1),
                  out=out.reshape(4 ** p, 16, -1))
    elif q == p + 1:  # into a column range: one matmul per outer row block
        m, tail = x.shape[1], 4 ** (len(new) - q - 1)
        np.matmul(t.reshape(16, -1),
                  x.reshape(4 ** p, -1, tail, m).swapaxes(1, 2),
                  out=out.reshape(4 ** p, 16, tail, m).swapaxes(1, 2))
    else:
        dims = [4 if w in old else 1 for w in new] + [-1]
        y = np.moveaxis(np.tensordot(t, x.reshape(dims),
                                     axes=([2, 3], [p, q])), (0, 1), (p, q))
        np.copyto(out.reshape(y.shape), y)


def _unitary_frame(arch: Architecture, gates: GateAssignment) -> TangentFrame:
    """The unitary frame by the forward sweep of ``_frame_plan``: column
    (j, k) is T_R ... T_{j+1} e_{S_k}.

    Each group a gate writes is allocated first: the whole-register group
    alternates between two buffers, and a partial group is a fresh array of
    its cone's size.  Each source group's transfer then writes straight
    into its column range, and the gate's kept unit vectors fill the tail.
    The frame keeps the groups and forms its matrix from them on first
    access.

    A tall frame also reads its Gram matrix off the sweep.  The T_j are
    orthogonal, so for j < j2 the inner product of columns (j, k) and
    (j2, k2) of the frame equals the one just after gate j2, when column
    (j2, k2) is still the unit vector e_{S_k2} on gate j2's wires: column
    (j, k)'s coefficient on that Pauli string.  After each gate, every group
    it writes gives those rows for the gate's kept labels (``_frame_plan``);
    columns of groups it does not write are the identity on its wires and
    have 0 there.  That is 15 reads per column of a written group.

    Rounding and the unitarity defect of the gates keep the T_j from being
    exactly orthogonal.  Let tau be the largest Frobenius norm of the
    computed defects T_j^T T_j - I; with 128 eps for the rounding of that
    product (eps = 2^-52), it bounds every ||T_j^T T_j - I||_2.  A computed
    transfer adds at most gamma_16 ||T_j||_F <= 32 eps relative error to a
    column.  So one gate moves the inner product of two columns by at most
    rho = tau + 256 eps times their norms, no column norm grows past
    (1 + rho)^(R/2), and R gates move it by at most (1 + rho)^R - 1 in all.
    That bounds every entry of the read Gram matrix minus M^T M of the
    returned frame, so C ((1 + rho)^R - 1) bounds its Frobenius norm and
    its 2-norm (``gram_error``).  A non-finite transfer stack gives no Gram
    matrix: every frame entry is a sum of products of the stack's entries,
    so a finite stack makes a finite frame.
    """
    plan = _frame_plan(arch)
    n = arch.n
    whole = tuple(range(1, n + 1))
    rows, width = frame_shape(arch, "unitary")
    buffers = [np.empty(rows * plan.whole_width) for _ in range(2)]
    cur = 0
    transfers = transfer_matrices(gates)
    defect = np.swapaxes(transfers, 1, 2) @ transfers - np.eye(16)
    tau = np.sqrt((defect * defect).sum(axis=(1, 2)).max(initial=0.0))
    gram, gram_error = None, 0.0
    if width < rows and np.isfinite(tau):
        gram = np.zeros((width, width))
        rho = tau + 256 * np.finfo(np.float64).eps
        gram_error = width * float(np.expm1(arch.gate_count * np.log1p(rho)))

    groups: dict[_Cone, np.ndarray] = {}
    members: dict[_Cone, np.ndarray] = {}  # the frame columns of each group
    start = 0
    for (a, b), t4, labels, step in zip(arch.gates,
                                        transfers.reshape(-1, 4, 4, 4, 4),
                                        plan.labels, plan.steps):
        if a > b:  # the lower wire leads, as in the plan's labels
            a, b, t4 = b, a, t4.transpose(1, 0, 3, 2)
        span = slice(start, start + labels.size)  # gate j's frame columns
        start = span.stop
        for cone, sources, takes_kept, read in step:
            cols = [members.pop(src) for src in sources]
            if takes_kept:
                cols.append(np.arange(span.start, span.stop))
            cols = cols[0] if len(cols) == 1 else np.concatenate(cols)
            if cone == whole:
                cur = 1 - cur
                x = buffers[cur][:rows * cols.size].reshape(rows, -1)
            else:
                x = np.empty((4 ** len(cone), cols.size))
            at = 0
            for src in sources:
                part = groups.pop(src)
                _transfer(part, t4, src, cone, (a, b),
                          x[:, at:at + part.shape[1]])
                at += part.shape[1]
            if takes_kept:  # unit vectors e_{S_k} over the cone {a, b}
                units = x[:, at:]
                units[...] = 0.0
                units[labels, np.arange(labels.size)] = 1.0
            groups[cone] = x
            members[cone] = cols
            if gram is not None:
                block = x[read]
                gram[cols, span] = block.T
                gram[span, cols] = block

    def assemble() -> np.ndarray:
        # one row per column: each group is written as one transposed block
        out = np.empty((width, rows))
        for cone, x in groups.items():
            if cone == whole:
                out[members[cone]] = x.T
            else:
                out[members[cone]] = 0.0
                out[np.ix_(members[cone], _cone_index(cone, n))] = x.T
        groups.clear()
        return out.T

    return TangentFrame("unitary", n, arch.gate_count, plan.record, assemble,
                        gram, gram_error)


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
    its cone are exactly 0.  The frame keeps the groups and forms its
    4^n x C matrix only when ``matrix`` is read.  A tall frame (C < 4^n)
    carries its Gram matrix, read off the sweep at O(15 C) work per gate
    with an error bound (``_unitary_frame``); that is all the Gram route of
    ``numerical_rank`` reads.

    State mode sweeps forward over a stack of complex 2^n vectors: gate j
    applies u_j to the columns built so far, advances psi by u_j, then
    appends i S_k psi for its kept k, so column (j, k) ends as
    i K_{j,k} psi.  No 2^n x 2^n operator is formed.
    """
    if mode not in ("unitary", "state"):
        raise ValidationError(f"mode must be 'unitary' or 'state', got {mode!r}")
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
    loose, tight = tol_pair
    if not np.finfo(float).eps <= tight <= loose < 1.0:
        raise ValidationError("tolerances must satisfy eps <= tight <= loose"
                              f" < 1, got (loose, tight) = {tol_pair}")
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
    SizeLimit before the first sample is drawn.
    """
    if samples < 3:
        raise ValidationError(f"need at least 3 samples, got {samples}")
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
