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
wire.  Each unitary sweep reads a cached plan with one job, the Gram
plan's read or the matrix plan's frame, which compiles all of that sweep
the gates do not change; binding the plan to a batch of samples
(``_bind``) makes its arrays and views once, so that a sweep is a flat
loop of array calls, and a thread keeps the Gram plan's bound sweep per
batch size across its consensuses, all carved from one reused pair of
buffers (``_Store``), so that a repeat consensus binds nothing.  A state
frame is built by a forward sweep over a stack of state vectors.  Both
modes take their columns from one cached gauge-fixed record.  A dense
call whose estimated peak memory (``peak_bytes``) exceeds
``MEMORY_BUDGET`` raises SizeLimit before it allocates.

The prefixes of an architecture share its Haar draws and frames
(``accessible_dimensions`` with ``prefixes``): one frame over its gates,
with the union of the prefixes' gauge-fixed columns, serves each prefix as
a column block, since the later gates act on a prefix's columns by one
orthogonal map.

A consensus takes its Haar samples in draw batches, and sweeps each draw
batch in sweep batches inside it, both sized to fit in ``_STACK_CHUNK``:
one stacked draw (``GateAssignment.haar`` with a list of seeds) and one
transfer build serve a draw batch, and one sweep a sweep batch, which
takes its slice of the draw's transfers.  Each array call serves every
sample at once with one sample's shapes, so that every sample's numbers
are those of its own frame, bit for bit.  A sweep batch's rank decisions
go one prefix at a time (``_decide``): each stacks its samples' Gram
matrices and certifies them with one Cholesky call (``_certify``), while
each sum and product keeps one sample's operands, and a lone frame's
decision (``numerical_rank``) is that routine on a stack of one.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import operator
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .architecture import Architecture, is_causal_slice
from .bounds import _gauge_fixed, gauge_fixed_count, saturation_threshold
from .dense import apply_gate_left, apply_gate_right
from .errors import (CountMismatch, SizeLimit, ValidationError, check_int,
                     check_mode, check_seed)
from .pauli import TWO_QUBIT_GENERATOR_MATS, TWO_QUBIT_GENERATORS

DEFAULT_TOLERANCES = (1e-6, 1e-10)
MEMORY_BUDGET = 2 * 2 ** 30

_GENERATOR_STACK = np.stack(TWO_QUBIT_GENERATOR_MATS)  # (15, 4, 4)

# The state sweep applies a gate to its stack in column chunks of at most
# this many bytes, so that the allocator reuses the temporaries.  A
# consensus's sweep batch (``_batch``) and draw batch (``_draw``) and a
# matrix sweep (``_matrix_batch``) hold as many samples as fit in it, and
# at least one (``_fit``).
_STACK_CHUNK = 4 * 2 ** 20

# A thread keeps at most this many Gram programs across consensuses
# (``_Store``), in buffers of at most this many bytes: dim-wide's shapes
# keep four.
_KEPT_PROGRAMS = 8
_KEPT_CAP = 4 * _STACK_CHUNK

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

# _KEEPS[later_a, later_b, k]: whether _KEPT[later_a, later_b] holds k.
_KEEPS = np.array([[[k in _KEPT[later_a, later_b] for k in range(15)]
                    for later_b in (False, True)]
                   for later_a in (False, True)])

# The 16 two-qubit Pauli matrices in label order, identity first.
_PAULI_STACK = np.concatenate([np.eye(4, dtype=complex)[None],
                               _GENERATOR_STACK])
# _SWAPPED[L]: the label L of a gate on wires (a, b) read with b leading.
_SWAPPED = np.array([4 * (label % 4) + label // 4 for label in range(16)])


def subseed(seed: int, *key: int) -> int:
    """Deterministic 64-bit child seed for (seed, key...).  A seed that is
    not a nonnegative integer raises ValidationError (``check_seed``)."""
    ss = np.random.SeedSequence((check_seed(seed),)
                                + tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _ends(arch: Architecture,
          prefixes: Sequence[int] | None) -> tuple[int, ...]:
    """The gate counts of the prefixes of ``arch`` a frame serves, sorted
    and distinct: ``prefixes`` and R, the whole architecture (R alone for
    None).  A prefix length that is not an integer in 0..R raises
    ValidationError."""
    end = arch.gate_count
    ends = {end}
    for length in prefixes or ():
        length = check_int(length, "prefix length")
        if not 0 <= length <= end:
            raise ValidationError(
                f"prefix length {length} outside [0, {end}]")
        ends.add(length)
    return tuple(sorted(ends))


def _count(cols: slice | np.ndarray) -> int:
    """The number of columns a ``_gauge`` row selects."""
    if isinstance(cols, slice):
        return len(range(cols.start, cols.stop, cols.step))
    return cols.size


def _frame_rows(n: int, mode: str) -> int:
    """4^n Pauli rows in unitary mode, 2 * 2^n real rows in state mode; any
    other mode raises ValidationError."""
    check_mode(mode)
    return 4 ** n if mode == "unitary" else 2 * 2 ** n


def frame_shape(arch: Architecture, mode: str,
                prefixes: Sequence[int] | None = None) -> tuple[int, int]:
    """(rows, columns) of the gauge-fixed tangent frame: 4^n Pauli rows in
    unitary mode, 2 * 2^n real rows in state mode, 9R + 3 * touched qubits
    columns in both.  With ``prefixes`` (gate counts) the columns are those
    of the union gauge over them (``_gauge``).  Any other mode raises
    ValidationError."""
    return (_frame_rows(arch.n, mode),
            _gauge(arch, _ends(arch, prefixes))[2].shape[0])


def peak_bytes(arch: Architecture, job: str,
               prefixes: Sequence[int] | None = None,
               samples: int = 1) -> int:
    """Upper estimate of the peak bytes of a dense call on ``arch``; ``job``
    is a frame mode, "contract" or "contract_state", and any other job
    raises ValidationError.  A gate applied to an array holds two more of
    its size (tensordot's reordered input and output).  A frame counts its
    matrix twice (the SVD's copy).

    With ``prefixes`` (gate counts) the frame is the union frame that
    serves them (``accessible_dimensions``), and every prefix, one at a
    time, takes its rank on its own column block (``TangentFrame.prefix``):
    a prefix with fewer columns than the frame holds a copy of its block of
    the matrix beside the frame's, then the SVD's copy of it or, if it has
    at least as many columns as rows, the wide certificate's arrays, and,
    if it has fewer columns than rows, its block of the Gram matrix, which
    the certificate's arrays join.  When some prefix has fewer columns than
    rows, the frame holds the Gram matrix of the longest such prefix's
    gates' columns, and its Gram plan is that prefix's, which counts those
    columns too (``_tall_head``).
    Without ``prefixes`` the frame is its one prefix, which copies no
    block; this is the estimate below.

    The state sweep holds its C x 2^n complex stack (the frame's size), then
    the frame beside it; the rank holds the frame beside the SVD's copy or,
    for a tall frame, four C x C arrays of the SVD's work.  On top come
    16 KiB per gate for the gauge-fixed columns (``_gauge``) and one gate's
    temporaries, which the allocator keeps: two copies of a stack chunk and
    about 36 state vectors.  A unitary frame keeps its transfer matrices,
    which with their complex build take 16 KiB per gate, and its cached
    plans keep their compiled tables (``_FramePlan.tables``) throughout.
    Reading its matrix binds the matrix plan (``_bind``), whose program
    holds the plan's arena and its scratch, one transfer's temporaries as
    the compiled transfer specs count them (``_compile``); the matrix is
    then formed beside the arena's head, which holds at most its
    4^n x C entries, and the SVD takes it twice, so the SVD's phase covers
    that one.  A tall frame also holds its C x C Gram matrix throughout.
    It binds the Gram plan first: one arena holds the forward half's
    groups, then the groups the join reads beside the backward half's,
    and the plan's scratch, counted where ``_compile`` lays out each
    transfer, read and join, covers one transfer's or read's temporaries
    or one joined pair's row copies; the staging vector lies in the Gram
    matrix.  A consensus keeps that program, arena and scratch, through
    the certificates (``_Binding``): the certificate (``_gram_estimate``)
    takes up to three more C x C arrays, the |G| temporary of its norm,
    then ``_certify``'s C^2 bytes of its finite check and its shifted copy
    beside Cholesky's working copy and the factor (or, for a spectrum,
    eigvalsh's copy after them), and a sweep batch's certificate
    (``_decide``) takes them for each of its samples at once, with the
    block copies it stacks; the scatter's copy of the
    staging vector and the symmetrisation's temporary come before them
    and take less.  A wide frame, or a wide prefix's block, tries its
    certificate (``_wide_estimate``) before the SVD, beside the matrix:
    its (4^n - 1)^2 row Gram matrix and the three arrays the certificate
    takes beside it, for each sample of one matrix sweep at once, which
    are gone when the SVD (or, for a spectrum, a certified frame's SVD)
    takes its copy.  An
    estimate whose frame terms alone exceed ``MEMORY_BUDGET`` returns
    before the sweep's plans are built.  Before that, when the frame and
    the whole architecture's block, 16 bytes per row and gauge-fixed
    column of ``arch``, which every phase above holds, exceed it alone,
    that floor is returned before the union gauge is built.

    A frame job counts ``samples`` Haar samples, as a consensus over that
    many makes their frames (``accessible_dimensions``): in sweep batches
    of at most ``_batch`` samples, each one stacked frame, inside draw
    batches of at most ``_draw`` samples, each one stacked draw and
    transfer build, so the estimate counts one sweep batch of
    min(samples, batch) inside one draw batch of min(samples, draw).
    Each other sample of the sweep batch holds, beside the phases above,
    at most what ``_batch`` counts for a sample: its gates and transfers,
    its Gram matrix and its share of the Gram sweep's arena and scratch.
    Each sample of the draw batch outside the sweep batch holds its gates
    and transfers, 16 KiB per gate as their build takes.  A unitary frame
    forms the matrices of up to ``_matrix_batch`` of the sweep batch's
    samples in one sweep, and each other one's matrix sweep, with its
    matrix, beside the phases above.  A frame over ``_STACK_CHUNK`` goes
    one sample a sweep batch, and its estimate moves with ``samples`` by
    its draw batch's term alone; the floor and the early return above do
    not move.  The Gram programs a thread keeps across consensuses
    (``_Store``) are not counted: the admission adds them (``_check_size``)."""
    if check_int(samples, "samples") < 1:
        raise ValidationError(f"need at least 1 sample, got {samples}")
    return _peak_bytes(arch, job, prefixes, samples, stack=False)


def _peak_bytes(arch: Architecture, job: str,
                prefixes: Sequence[int] | None, samples: int, *,
                stack: bool) -> int:
    """``peak_bytes``, or with ``stack`` that of one stacked frame of
    ``samples`` samples (``tangent_frame``), which holds all of them."""
    vec = 16 * 2 ** arch.n  # one complex state vector
    held = {"contract": 3 * vec * 2 ** arch.n, "contract_state": 3 * vec}
    if job in held:
        return held[job]
    if job not in ("unitary", "state"):
        raise ValidationError(
            "job must be 'unitary' or 'state' (a frame mode), 'contract' "
            f"or 'contract_state', got {job!r}")
    ends = _ends(arch, prefixes)
    rows = _frame_rows(arch.n, job)
    floor = 16 * rows * gauge_fixed_count(arch)
    if floor > MEMORY_BUDGET:
        return floor
    _, _, record, owns = _gauge(arch, ends)
    cols = record.shape[0]
    frame = 8 * rows * cols
    counts = [_count(own) for own in owns]
    # per prefix: its block of the matrix, and the copy that block takes
    blocks = [8 * rows * c for c in counts]
    copies = [b * (c < cols) for b, c in zip(blocks, counts)]
    if job == "state":  # a chunk is at most the whole stack
        temps = 2 * min(frame, max(_STACK_CHUNK, vec)) + 36 * vec
        svd = max(copy + max(b, 32 * c * c * (c < rows))
                  for copy, b, c in zip(copies, blocks, counts))
        batch, others = _held(arch, job, ends, samples, stack)
        return 16384 * arch.gate_count + temps + frame + max(frame, svd) \
            + others
    # per tall prefix: its block of the Gram matrix, and that block's copy
    grams = [8 * c * c * (c < rows) for c in counts]
    gram_copies = [g * (c < cols) for g, c in zip(grams, counts)]
    head = _tall_head(arch, ends)
    gram = 0 if head is None else 8 * head.width ** 2
    # per wide prefix: its row Gram matrix and the certificate's arrays
    wides = [32 * (rows - 1) ** 2 * (c >= rows) for c in counts]

    def svd(stacked: int) -> int:  # with ``stacked`` wide certificates
        return frame + max(copy + max(b, stacked * w) + g for copy, b, w, g
                           in zip(copies, blocks, wides, gram_copies))

    if gram + svd(1) > MEMORY_BUDGET:
        return gram + svd(1)
    transfers = 16384 * arch.gate_count
    full = _frame_plan(arch, ends)
    tables = full.tables
    batch, others = _held(arch, job, ends, samples, stack)
    matrices, matrix_each = _matrix_batch(arch, ends)
    phases = [transfers + 8 * (full.arena + full.scratch),
              svd(min(matrices, batch))]
    if head is not None:
        tables += head.tables
        phases.append(transfers + 8 * (head.arena + head.scratch)
                      + batch * max(copy + 3 * g for copy, g
                                    in zip(gram_copies, grams)))
    return gram + tables + max(phases) + others \
        + (min(matrices, batch) - 1) * matrix_each


def _held(arch: Architecture, mode: str, ends: tuple[int, ...],
          samples: int, stack: bool) -> tuple[int, int]:
    """(sweep batch, bytes) of ``_peak_bytes``'s ``samples`` in ``mode``:
    the samples of the sweep batch, and the bytes that its samples but
    one and the draw batch's samples outside it hold (``peak_bytes``).  A
    ``stack`` is one sweep batch of all ``samples``, drawn already."""
    batch, each = _batch(arch, mode, ends)
    draw = samples if stack else min(samples, _draw(arch, batch))
    batch = samples if stack else min(samples, batch)
    return batch, (batch - 1) * each \
        + (draw - batch) * 16384 * arch.gate_count


def _fit(each: int) -> int:
    """How many items of ``each`` bytes fit in ``_STACK_CHUNK``: at least
    one."""
    return max(1, _STACK_CHUNK // max(each, 1))


def _batch(arch: Architecture, mode: str,
           ends: tuple[int, ...]) -> tuple[int, int]:
    """(samples, bytes a sample) of a consensus's sweep batch, one stacked
    frame (``accessible_dimensions``): as many samples as fit in
    ``_STACK_CHUNK``, at least one.  A sample holds 16 KiB per gate for
    its gates, their draw and, in unitary mode, its transfers and their
    build (as ``peak_bytes`` counts them); then its state frame's matrix,
    or a unitary frame's Gram matrix with the arena and scratch of the
    Gram plan's sweep, all three read from its head's Gram plan
    (``_tall_head``), if it reads one.  The sweep batches of a draw batch
    (``_draw``) take their slices of its draw and transfers."""
    each = 16384 * arch.gate_count
    if mode == "state":
        each += 8 * _frame_rows(arch.n, mode) * _gauge(arch, ends)[2].shape[0]
    elif (head := _tall_head(arch, ends)) is not None:
        each += 8 * (head.width ** 2 + head.arena + head.scratch)
    return _fit(each), each


def _draw(arch: Architecture, batch: int) -> int:
    """The samples of a consensus's draw batch, one stacked draw and
    transfer build (``accessible_dimensions``): as many whole sweep
    batches of ``batch`` samples (``_batch``) as fit in ``_STACK_CHUNK``
    at 16 KiB per gate a sample, at least one.  A sweep batch's sample
    counts those 16 KiB too, so the draw batch holds at least one sweep
    batch, and the sweep batches keep the sizes they would have alone."""
    return batch * max(1, _fit(16384 * arch.gate_count) // batch)


def _matrix_batch(arch: Architecture,
                  ends: tuple[int, ...]) -> tuple[int, int]:
    """(samples, bytes a sample) of one matrix sweep of a stacked unitary
    frame (``_unitary_frame``): as many samples as fit in ``_STACK_CHUNK``
    with the matrix plan's arena and scratch and their 4^n x C matrix, at
    least one."""
    plan = _frame_plan(arch, ends)
    each = 8 * (plan.arena + plan.scratch + 4 ** arch.n * plan.width)
    return _fit(each), each


def check_budget(est: int, budget: int, needs: str) -> None:
    """Raise SizeLimit when an estimated peak of ``est`` bytes is over
    ``budget``; ``needs`` opens the message with the call and its verb."""
    if est > budget:
        raise SizeLimit(f"{needs} an estimated {est / 2 ** 30:.2f} GiB, over "
                        f"the {budget / 2 ** 30:.0f} GiB memory budget")


def _check_size(arch: Architecture, job: str,
                prefixes: Sequence[int] | None = None, samples: int = 1, *,
                stack: bool = False) -> None:
    """Refuse a call whose estimate (``_peak_bytes``) is over the budget;
    outside a consensus, first drop the kept Gram programs (``_Store``)
    if the estimate and their bytes are over it."""
    est = _peak_bytes(arch, job, prefixes, samples, stack=stack)
    if _CONSENSUS.get() is None and est + _STORE.kept > MEMORY_BUDGET:
        _STORE.release()
    check_budget(est, MEMORY_BUDGET,
                 f"{job} on n={arch.n}, R={arch.gate_count} needs")


@dataclass(frozen=True, eq=False)
class GateAssignment:
    """Ordered 4x4 special unitaries filling an architecture's gate slots,
    or a stack of such assignments with a leading sample axis, which holds
    at least one sample."""

    matrices: np.ndarray  # (R, 4, 4) or (S, R, 4, 4) complex

    def __post_init__(self) -> None:
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.ndim not in (3, 4) or mats.shape[-2:] != (4, 4):
            raise ValidationError(
                f"expected (R, 4, 4) or (S, R, 4, 4) array, got {mats.shape}")
        if mats.ndim == 4 and not len(mats):
            raise ValidationError("a stack of assignments needs a sample")
        object.__setattr__(self, "matrices", mats)
        gram = np.swapaxes(mats, -2, -1).conj() @ mats
        # written as ~(x <= tol) so that a NaN entry fails the check
        with np.errstate(invalid="ignore"):
            not_unitary = ~(np.abs(gram - np.eye(4)).max(axis=(-2, -1))
                            <= 1e-10)
            not_special = ~(np.abs(np.linalg.det(mats) - 1.0) <= 1e-10)
        bad = np.argwhere(not_unitary | not_special)
        if bad.size:
            *sample, i = bad[0].tolist()
            where = "".join(f"sample {s} " for s in sample) + f"gate {i}"
            if not_unitary[tuple(bad[0])]:
                raise ValidationError(f"{where} is not unitary within 1e-10")
            raise ValidationError(f"{where} is not special unitary")

    def __len__(self) -> int:
        return self.matrices.shape[-3]

    def _samples(self, lo: int, hi: int) -> GateAssignment:
        """Samples lo..hi-1 of a stack, as a stack that views its matrices:
        they passed its validation, which is not run again."""
        part = object.__new__(GateAssignment)
        object.__setattr__(part, "matrices", self.matrices[lo:hi])
        return part

    @property
    def samples(self) -> int | None:
        """The length of the sample axis of a stack, None for one
        assignment."""
        return len(self.matrices) if self.matrices.ndim == 4 else None

    @classmethod
    def haar(cls, arch: Architecture,
             seed: int | Sequence[int]) -> GateAssignment:
        """Haar-random SU(4) gates, one per slot: QR of complex Ginibre
        matrices with the R-diagonal phases folded into Q, then the
        determinant phased out.  A seed that is not a nonnegative integer
        raises ValidationError (``check_seed``).

        One draw and one stacked QR serve every gate; each matrix equals,
        bit for bit, what sampling them one at a time from the same
        generator gives.  A sequence of seeds gives their stack, shape
        (S, R, 4, 4): each seed's generator fills its sample of one
        Ginibre stack, and one QR and one validation serve them all, so
        sample i equals ``haar(arch, seeds[i])`` bit for bit.  Every seed
        is checked before the first draw, and an empty sequence, which
        draws nothing, gives no stack (ValidationError)."""
        single = isinstance(seed, str) \
            or not isinstance(seed, (Sequence, np.ndarray))
        seeds = [check_seed(s) for s in ([seed] if single else seed)]
        z = np.empty((len(seeds), arch.gate_count, 2, 4, 4))
        for s, out in zip(seeds, z):
            np.random.default_rng(s).standard_normal(out=out)
        z = z[:, :, 0] + 1j * z[:, :, 1]
        z /= np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        u = q * (d / np.abs(d))[..., None, :]
        u = u / np.linalg.det(u)[..., None, None] ** 0.25
        return cls(u[0] if single else u)


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
    matrix plan's sweep and assembles the matrix from it.  ``gram`` is the
    C x C Gram matrix M^T M of a tall unitary frame (fewer columns than
    rows), read off the split sweep in column order, and ``gram_error``
    bounds its 2-norm distance from the exact Gram matrix of ``matrix``.
    A unitary frame that serves tall prefixes (``tangent_frame``) holds
    the Gram matrix of its leading columns, those of the longest tall
    prefix's gates, which hold every tall prefix's.  ``gram`` is None in
    state mode and for every other frame.

    ``prefixes`` maps the gate count of each prefix of the architecture
    that the frame serves, the whole one included, to that prefix's own
    columns of ``columns``: a slice or a read-only index array
    (``_gauge``).  ``prefix`` gives each one's frame.

    A stacked frame (``tangent_frame`` of a stacked assignment) holds S
    samples' frames at once: ``samples`` is S (None for one sample's
    frame), and ``gram``, ``gram_error`` and ``matrix`` carry a leading
    sample axis.  ``sample`` gives each sample's frame, which
    ``numerical_rank`` and ``prefix`` take; a unitary sample forms its
    matrix with those of the next samples that fit in one matrix sweep
    (``_unitary_frame``).
    """

    mode: str
    n: int
    gate_count: int
    columns: np.ndarray  # (C, 2) int
    _assemble: Callable[[], np.ndarray] = field(repr=False)
    gram: np.ndarray | None = None
    gram_error: float | np.ndarray = 0.0
    prefixes: dict[int, slice | np.ndarray] = field(default_factory=dict,
                                                    repr=False)
    samples: int | None = None
    # a stacked frame's matrix of sample i
    _part: Callable[[int], np.ndarray] | None = field(default=None,
                                                      repr=False)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self._assemble()

    def _one(self, call: str) -> None:
        if self.samples is not None:
            raise ValidationError(
                f"{call} takes one sample's frame, not a stack of "
                f"{self.samples}: see TangentFrame.sample")

    def sample(self, i: int) -> TangentFrame:
        """Sample i's frame of a stacked frame, equal bit for bit to the
        frame of its own assignment: its Gram matrix and bound (none when
        the bound is not finite, as a non-finite transfer stack makes it)
        and its matrix, formed on first access.  A frame with no sample
        axis, or an index outside it, raises ValidationError."""
        if self.samples is None:
            raise ValidationError("the frame has no sample axis")
        if not 0 <= check_int(i, "sample") < self.samples:
            raise ValidationError(
                f"sample {i} outside [0, {self.samples - 1}]")
        gram, error = None, 0.0
        if self.gram is not None and np.isfinite(self.gram_error[i]):
            gram, error = self.gram[i], float(self.gram_error[i])
        return TangentFrame(self.mode, self.n, self.gate_count, self.columns,
                            functools.partial(self._part, i), gram, error,
                            self.prefixes)

    def prefix(self, length: int) -> TangentFrame:
        """The frame of the prefix of ``length`` gates, at the same gates:
        its own columns of this frame.  The later gates act on them by one
        orthogonal map, so it has the prefix's own Gram matrix and singular
        values.  If it has fewer columns than rows it takes its block of
        ``gram``.  ``gram_error`` is C_head times a bound on each entry's
        error, C_head the columns ``gram`` holds, and a block of C_t
        columns is within C_t times that bound in the Frobenius norm and
        so in the 2-norm; the block's error is ``gram_error`` C_t / C_head,
        raised by 8 u (u = eps / 2) over the three roundings of forming
        it, and ``gram_error`` itself for the whole head.  Its matrix is
        the column block of ``matrix``, read on first access.  Columns that
        run in a slice take views: the whole frame's prefix holds this
        frame's arrays.  A length the frame does not serve, or a stacked
        frame, raises ValidationError."""
        self._one("prefix")
        if length not in self.prefixes:
            raise ValidationError(
                f"the frame serves no prefix of {length} gates")
        cols = self.prefixes[length]
        rows = _frame_rows(self.n, self.mode)
        columns = self.columns[cols]
        gram, error = None, 0.0
        if self.gram is not None and len(columns) < rows:
            gram, error = _gram_block(self.gram, self.gram_error, cols)
        return TangentFrame(self.mode, self.n, length, columns,
                            lambda: self.matrix[:, cols], gram, error,
                            {length: slice(0, len(columns), 1)})


def _gram_block(gram: np.ndarray, error: float | np.ndarray,
                cols: slice | np.ndarray) -> tuple[np.ndarray,
                                                   float | np.ndarray]:
    """The block of ``gram`` on the columns ``cols``, and its bound from
    ``gram_error``'s ``error`` (``TangentFrame.prefix``); with a leading
    sample axis, each sample's block and bound.  Columns in a slice take
    a view, others a C-ordered copy, as ``np.ix_`` gathers it."""
    c, width = _count(cols), gram.shape[-1]
    block = gram[..., cols, cols] if isinstance(cols, slice) \
        else gram[np.ix_(*map(range, gram.shape[:-2]), cols, cols)]
    if c < width:
        error = error * c / width * float(1 + 8 * _UNIT_ROUNDOFF)
    return block, error


_Cone = tuple[int, ...]  # 1-based qubits, ascending


class _Block(NamedTuple):
    """Where a group lives in a sweep's arena: the array (1 the head, 0 the
    rest), its flat slice there and its column count."""

    arena: int
    span: slice
    width: int


class _Spec(NamedTuple):
    """The shape logic of one transfer between two cones, which neither the
    gates nor the column count change (``_spec``).

    ``drop`` is None, or the shape over the source's cone and the index
    that keeps the identity letter of each wire the move drops.  ``t``
    slices t4[s, P_lo, P_hi, Q_lo, Q_hi] to the identity letter of each of
    the gate's wires new to the cone.  ``path`` is 0 when the wires sit
    next to each other in the cone and the source fills the group (one
    broadcast matmul), 1 when they sit next to each other and it fills a
    column range (one matmul per outer row block) and 2 when they lie apart
    (tensordot's product over the cone positions ``pq``).  ``shape`` is the
    source's shape for that call and ``out`` the shape of its column range.
    The shapes are one sample's, and both indexes take the sample axis
    first (``_bind_transfer``).  ``temps`` counts the entries per source
    column of the temporaries the transfer makes: the copy of the source's
    kept slice when it drops a wire, and tensordot's reordered input and
    output on path 2.  ``part`` is the path and the extents of ``t`` on
    Q_lo and Q_hi, which key a bound sweep's transfer operands
    (``_bind``)."""

    drop: tuple | None
    t: tuple[slice, ...]
    path: int
    shape: tuple[int, ...]
    out: tuple[int, ...]
    pq: tuple[int, int]
    temps: int
    part: tuple[int, int, int]


class _Feed(NamedTuple):
    """One source group's transfer: the source's block, the column range
    ``cut`` it fills in the move's group, and its ``_Spec``."""

    source: _Block
    cut: slice
    spec: _Spec


class _Move(NamedTuple):
    """One group a gate writes: its cone, the cones of the groups merged
    into it, its ``block`` in the sweep's arena, one ``feed`` per source
    and ``at``, the column count the sources fill.  The group over the
    gate's own wires also takes the gate's kept columns, last.

    A move of the Gram plan with a source also holds ``read``, the group's
    rows its read takes (those that are the identity off the gate's wires,
    ``_read``: at the gate's kept labels forward, all 16 backward),
    ``pairs``, the index of the Gram entries the read writes: gate j's row
    and the sources' columns forward, the sources' rows and gate j's
    columns backward, so that the row is always the later gate's, and
    ``stage``, the offset of its block in the staging vector
    (``_compile``).  All three are None on every other move, so on every
    move of the matrix plan."""

    cone: _Cone
    sources: tuple[_Cone, ...]
    block: _Block
    feeds: tuple[_Feed, ...]
    at: int
    read: slice | np.ndarray | None
    pairs: tuple | None
    stage: int | None


class _Join(NamedTuple):
    """The cones of a forward and a backward group at the split, and their
    meet: the wires both hold.  Compiled for the sweep: both groups'
    blocks, their rows of the meet (``_rows``), the index of the Gram
    entries their product writes, the backward columns' rows (the later
    gates) and the forward columns, and the offset of the product's block
    in the staging vector."""

    forward: _Cone
    backward: _Cone
    meet: _Cone
    ahead: _Block
    behind: _Block
    ahead_rows: slice | np.ndarray
    behind_rows: slice | np.ndarray
    pairs: tuple
    stage: int


class _Gate(NamedTuple):
    """The gate of one sweep step: its index, whether the backward half
    runs it, whether its wires are swapped (a > b; the plan's labels read
    the lower wire leading), its kept labels and, forward, its born columns
    I[:, labels] (backward they are T_j^T[:, labels], made per sample)."""

    j: int
    backward: bool
    swap: bool
    labels: np.ndarray
    born: np.ndarray | None


@dataclass(frozen=True, eq=False)
class _FramePlan:
    """The integer bookkeeping of one unitary sweep, which has one job: the
    Gram plan (pruned) reads the Gram matrix, and the matrix plan
    (unpruned) forms the 4^n x C frame.

    ``steps`` holds the groups each gate writes, in sweep order: gates 0 to
    ``split`` - 1 forward, then gates R - 1 down to ``split`` backward
    (none when ``split`` is R), with ``gates`` the gate of each step.  Row
    r of a group over cone c is the Pauli string that is the identity off
    c; a Gram read takes the meet rows of the gate's wires, the strings
    that are the identity off them.  Only the Gram plan has read tables
    (``_Move``) and ``joins``, which pairs the groups the two halves meet
    with; only the matrix plan has ``final``, the cone, block and frame
    columns of each group its sweep ends with.  ``arena`` counts the
    float64 entries of the arena that holds every group, ``held`` those of
    its head, which holds the groups the matrix plan ends with or those the
    Gram plan joins, and ``scratch`` bounds the entries one transfer's,
    read's or join's temporaries take beside it (``_compile``).
    ``staging`` counts the entries of the Gram plan's staging vector,
    which holds what its reads and joins take until they are scattered
    into the Gram matrix (0 for the matrix plan), and ``index`` gives each
    entry's place there.  ``tables`` bounds the bytes of the compiled
    tables the plan keeps, ``index`` among them.  ``width`` counts the
    columns of ``gates``, the C of the Gram matrix a Gram plan reads or of
    the matrix a matrix plan forms.  Which columns a gate keeps is not the
    plan's: both plans read them from ``_gauge``.
    """

    steps: tuple[tuple[_Move, ...], ...]
    arena: int
    held: int
    scratch: int
    staging: int
    split: int
    gates: tuple[_Gate, ...]
    width: int
    joins: tuple[_Join, ...]
    final: tuple[tuple[_Cone, _Block, np.ndarray], ...]
    tables: int

    @functools.cached_property
    def index(self) -> np.ndarray:
        """The flat C x C Gram index of each entry of the staging vector:
        the entry of its pair of columns whose row is the later gate's
        (``pairs``), where a backward read's and a join's product hold
        the transpose of their block.  Made on the first Gram read
        (``_gram_read``), after the size check, and kept read-only with
        the plan; int32 where C^2 allows."""
        width = self.width
        cell = np.arange(width, dtype=np.int32 if width ** 2 < 2 ** 31
                         else np.intp)
        row_cell = cell * width  # the flat offset of each row
        index = np.empty(self.staging, dtype=cell.dtype)
        blocks = [(move.stage, (gate.labels.size, move.at), move.pairs,
                   gate.backward)
                  for gate, step in zip(self.gates, self.steps)
                  for move in step if move.stage is not None]
        blocks += [(join.stage, (join.ahead.width, join.behind.width),
                    join.pairs, True) for join in self.joins]
        for at, shape, (rows, cols), flip in blocks:
            out = index[at:at + shape[0] * shape[1]].reshape(shape)
            if flip:
                np.add(cell[cols].reshape(-1, 1),
                       row_cell[rows].reshape(-1), out=out)
            else:
                np.add(row_cell[rows].reshape(-1, 1), cell[cols], out=out)
        index.flags.writeable = False
        return index


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


@functools.lru_cache(maxsize=128)
def _gauge(arch: Architecture, ends: tuple[int, ...],
           ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...],
                      np.ndarray, tuple[slice | np.ndarray, ...]]:
    """The gauge-fixed columns both frame modes share (``tangent_frame``)
    for the prefixes of ``arch`` that end after ``ends`` gates (``_ends``):
    each gate's kept generator indices (into the 15), the same as
    two-qubit labels (1 to 15) read with the lower wire leading, the
    frame's (gate, generator) column list, and each prefix's own columns
    in that list (``_span``).

    Gate j keeps what the shortest prefix that holds it keeps, the union
    gauge: a prefix drops a single-qubit generator of a wire that a later
    gate of the prefix acts on, so a longer prefix keeps a subset, and
    every prefix's own columns are in the list.  With one prefix this is
    its own gauge.  Cached and read-only."""
    end = arch.gate_count
    # the next gate after each gate on each of its wires, R for none
    after = np.full((end, 2), end, dtype=np.intp)
    nxt: dict[int, int] = {}
    for j in range(end - 1, -1, -1):
        a, b = arch.gates[j]
        after[j] = nxt.get(a, end), nxt.get(b, end)
        nxt[a] = nxt[b] = j
    # the length of the shortest prefix that holds each gate
    stops = np.asarray(ends)[np.searchsorted(ends, np.arange(end), "right")]
    kept_all, labels_all = [], []
    for (a, b), (later_a, later_b) in zip(
            arch.gates, (after < stops[:, None]).tolist()):
        kept = _KEPT[later_a, later_b]
        kept_all.append(kept)
        labels = _SWAPPED[kept + 1] if a > b else kept + 1
        labels.flags.writeable = False
        labels_all.append(labels)
    record = np.array([(j, k) for j, kept in enumerate(kept_all) for k in kept],
                      dtype=np.intp).reshape(-1, 2)
    record.flags.writeable = False
    gate, generator = record.T
    rows = []
    for stop in ends:
        later = (after[gate] < stop).astype(np.intp)
        own = (gate < stop) & _KEEPS[later[:, 0], later[:, 1], generator]
        rows.append(_span(np.flatnonzero(own)))
    return tuple(kept_all), tuple(labels_all), record, tuple(rows)


# Plans repeat across a frame's Haar samples and across calls on the same
# architecture.  The benchmark's dim-wide ops use four frames, its three dim
# shapes and the sweep's union over staircase(3, 1..6), and ``peak_bytes``
# builds two plans for each, since each has a prefix with fewer columns
# than rows: the frame's unpruned plan and its longest tall prefix's pruned
# one (``_tall_head``): 8 entries.
@functools.lru_cache(maxsize=128)
def _frame_plan(arch: Architecture, ends: tuple[int, ...], *,
                prune: bool = False, split: int | None = None) -> _FramePlan:
    """The unitary columns' light-cone groups, compiled for one sweep.

    After gate j, the columns of gates 0..j sit in groups, one per cone: the
    qubits that gates up to j connect to a column's own gate wires (1-based,
    ascending).  A column is the identity outside its cone, so its group is
    stored over the cone's 4^|cone| Pauli rows only.  Gate j moves every
    group whose cone meets its wires to the cone grown by both wires, merges
    the groups that land on one cone (equal cones evolve alike from then
    on), and adds its own kept generators to the group of cone {a, b}.

    With ``prune`` the plan is the Gram plan (``_unitary_frame``), which
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

    Both half plans (``_half_plan``) work on wire bitmasks and hold only
    each step's moves, multiply-adds and group widths; one list of the
    pairs the join at h takes (``_meets``) serves both the pricing of h
    and the plan.  Every group lives from the gate that writes it to the
    gate that moves it on (or, unpruned, to the end, where the frame's
    matrix is formed from the last groups, or to the join) and has a fixed
    offset in one arena (``_first_fit``), the two halves' groups on one
    timeline.

    Without ``prune`` it is the matrix plan, the forward sweep whose last
    groups form the frame's matrix.  Last, the plan compiles everything its
    sweep does that the gates do not change, and counts the ``scratch``
    of the temporaries each transfer, read and join makes where it lays
    them out (``_compile``), so that ``_sweep`` runs only array calls.

    The columns are those of the union gauge over the prefixes of ``arch``
    that end after ``ends`` gates (``_ends``, ``_gauge``); nothing here
    depends on which labels a gate keeps.  (``arch``, ``ends``) is the
    frame key, so a frame and the frame that serves its one prefix share a
    plan.  The cache keys argument forms apart, so this module fetches the
    matrix plan as ``_frame_plan(arch, ends)`` and the Gram plan only
    through ``_tall_head``, as ``_frame_plan(arch, ends, prune=True)``.
    This cache is the only one that holds a plan, so each plan is held
    once.
    """
    end = arch.gate_count
    labels_all = _gauge(arch, ends)[1]
    forward = _half_plan(arch, labels_all, prune, backward=False)
    backward = _half_plan(arch, labels_all, prune, backward=True) \
        if prune else []
    if split is None:
        split = _split_point(forward, backward) if prune else end
    taken = forward[:split] + backward[:end - split]
    meets = _meets(forward, backward, split)
    joined = {key for f, b, *_ in meets for key in ((False, f), (True, b))}
    groups: dict[tuple[bool, int], int] = {}  # (half, cone) -> spans index
    spans: list[list[int]] = []  # [first step, last step, size] per group
    for s, step in enumerate(taken):
        for cone, sources, width in step.moves:
            for src in sources:
                spans[groups.pop((s >= split, src))][1] = s
            groups[s >= split, cone] = len(spans)
            spans.append([s, s, 4 ** cone.bit_count() * width])
    for key, i in groups.items():
        if not prune or key in joined:
            spans[i][1] = end
    layout = _first_fit([tuple(span) for span in spans], end)
    return _compile(arch, labels_all, taken, split, layout, meets, prune)


# Each compiled move, feed, join and gate is counted at this many bytes of
# Python objects beside its index arrays.  With the specs and reads a first
# build adds to their caches, tracemalloc on CPython 3.11 measured less on
# every plan of the tests' shapes.
_TABLE_OBJECT = 1024


def _compile(arch: Architecture, labels_all: list[np.ndarray],
             taken: list[_Step], split: int,
             layout: tuple[list[int], int, int],
             meets: list[tuple[int, ...]], prune: bool) -> _FramePlan:
    """The plan (``_FramePlan``) from the half plans' steps it takes, the
    arena ``layout`` of ``_first_fit`` and the ``meets`` of its split:
    each step's gate and its moves with their blocks and feeds; for the
    Gram plan (``prune``) each move's read rows and Gram indices and the
    joins, and for the matrix plan the final groups; the bytes these
    tables keep; the scratch of the sweep's temporaries; and the staging
    vector's layout.

    The steps' cones are wire bitmasks, which become tuples of wires here
    (``_wires``).  A gate's frame columns run from the sum of the kept
    counts before it, and a group's columns are its sources' in order, then
    the gate's born ones.  A column list that runs up by a fixed step is
    kept as a slice, and any other as a read-only index array.

    ``scratch`` is the most entries that one transfer, read or join makes
    beside the arena: a transfer its ``_Spec.temps`` per source column; in
    the Gram plan the read of a move with sources its rows, and backward
    their product with the born columns; a join the meet's rows of each
    group whose cone is not the meet, and their product.  It stays an upper
    bound where the compiled rows are slices, which copy nothing.  A bound
    sweep (``_bind``) lays each of these temporaries out at the start of
    one scratch buffer of that size, but for the products of reads and
    joins, which it writes into the staging vector.

    The staging vector holds, in sweep order, one block per read and join:
    a forward read's rows and a backward read's product (the gate's kept
    labels x the source columns) and a join's product (forward x backward
    columns), each in C order.  ``stage`` is a block's offset there, and
    ``staging`` their total."""
    end = arch.gate_count
    offsets, arena, held = layout
    starts = [0, *itertools.accumulate(labels.size for labels in labels_all)]
    order = [*range(split), *range(end - 1, split - 1, -1)]
    born: dict[tuple, np.ndarray] = {}  # one I[:, labels] per label set
    live: dict[tuple[bool, int], tuple[_Block, np.ndarray]] = {}
    at_offset = iter(offsets)  # the offsets are in step and move order
    gates, steps, arrays, scratch, staged = [], [], [], 0, 0
    for s, (j, step) in enumerate(zip(order, taken)):
        backward = s >= split
        a, b = arch.gates[j]
        lo, hi = sorted((a, b))
        labels = labels_all[j]
        key = tuple(labels.tolist())
        if not backward and key not in born:
            born[key] = np.eye(16)[:, labels]
            born[key].flags.writeable = False
        gates.append(_Gate(j, backward, a > b, labels,
                           None if backward else born[key]))
        own = slice(starts[j], starts[j + 1])  # gate j's columns
        moves = []
        for mask, sources, width in step.moves:
            cone = _wires(mask)
            offset = next(at_offset)
            size = 4 ** len(cone) * width
            place, start = (1, offset) if offset < held else (0, offset - held)
            block = _Block(place, slice(start, start + size), width)
            feeds, cols, at = [], [], 0
            for src in sources:
                source, members = live.pop((backward, src))
                spec = _spec(_wires(src), cone, lo, hi, source.width == width)
                scratch = max(scratch, spec.temps * source.width)
                feeds.append(_Feed(source, slice(at, at + source.width), spec))
                at += source.width
                cols.append(members)
            if cone == (lo, hi):
                cols.append(np.arange(own.start, own.stop))
            cols = cols[0] if len(cols) == 1 else np.concatenate(cols)
            live[backward, mask] = block, cols
            read = pairs = stage = None
            if prune and at:  # a move with sources reads them
                scratch = max(scratch, (16 * backward + labels.size) * width)
                read = _read(cone, lo, hi, None if backward else key)
                pairs = _pairs(cols[:at], own) if backward \
                    else _pairs(own, cols[:at])
                arrays += [*pairs, read]
                stage, staged = staged, staged + labels.size * at
            moves.append(_Move(cone, tuple(map(_wires, sources)), block,
                               tuple(feeds), at, read, pairs, stage))
        steps.append(tuple(moves))
    joins = []
    for f, b, meet, fw, bw in meets:
        (ahead, fcols), (behind, bcols) = live[False, f], live[True, b]
        f, b, meet = _wires(f), _wires(b), _wires(meet)
        join = _Join(f, b, meet, ahead, behind, _rows(f, meet), _rows(b, meet),
                     _pairs(bcols, fcols), staged)
        staged += fw * bw
        scratch = max(scratch, 4 ** len(meet) * (fw * (meet != f)
                                                 + bw * (meet != b)) + fw * bw)
        arrays += [join.ahead_rows, join.behind_rows, *join.pairs]
        joins.append(join)
    final = ()
    if not prune:
        final = tuple((_wires(cone), block, cols)
                      for (_, cone), (block, cols) in live.items())
        for _, _, cols in final:
            cols.flags.writeable = False
            arrays.append(cols)
    count = sum(len(step) + sum(len(move.feeds) for move in step)
                for step in steps) + len(joins)
    # views share their base's bytes: count each base once
    bases = {id(x.base if x.base is not None else x):
             (x.base if x.base is not None else x).nbytes
             for x in arrays + list(born.values())
             if isinstance(x, np.ndarray)}
    # the Gram index (``_FramePlan.index``) that the first Gram read makes
    index = staged * (4 if starts[-1] ** 2 < 2 ** 31 else 8)
    tables = sum(bases.values()) + index \
        + _TABLE_OBJECT * (count + len(gates))
    return _FramePlan(
        steps=tuple(steps), arena=arena, held=held, scratch=scratch,
        staging=staged, split=split, gates=tuple(gates),
        width=starts[-1], joins=tuple(joins), final=final, tables=tables)


# Cones repeat across the moves of a plan and across plans.
@functools.lru_cache(maxsize=4096)
def _wires(mask: int) -> _Cone:
    """The wires of a cone's bitmask (bit q for qubit q), ascending."""
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


def _span(index: np.ndarray) -> slice | np.ndarray:
    """``index`` as a slice when it runs up by a fixed step, else as a
    read-only array."""
    if index.size:
        first, last = int(index[0]), int(index[-1])
        step = int(index[1]) - first if index.size > 1 else 1
        if step > 0 and last - first == step * (index.size - 1) \
                and (index[1:] - index[:-1] == step).all():
            return slice(first, last + 1, step)
    index.flags.writeable = False
    return index


def _pairs(rows: np.ndarray | slice, cols: np.ndarray | slice) -> tuple:
    """The index of the Gram block at ``rows`` x ``cols``: slices where the
    lists run up by a fixed step, and two broadcast index arrays where
    neither does."""
    rows, cols = (_span(x) if isinstance(x, np.ndarray) else x
                  for x in (rows, cols))
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        rows = rows[:, None]
    return rows, cols


def _rows(cone: _Cone, meet: _Cone) -> slice | np.ndarray:
    """The rows of a group over ``cone`` that are the identity off ``meet``,
    in the meet's label order: a leading block where the other wires lead
    (all rows where there are none), a stride where they trail, and the
    gather of ``_meet_rows`` otherwise."""
    rest = len(cone) - len(meet)
    if cone[rest:] == meet:
        return slice(0, 4 ** len(meet))
    if cone[:len(meet)] == meet:
        return slice(None, None, 4 ** rest)
    return _meet_rows(cone, meet)


# Reads repeat across the moves of a plan and across plans.
@functools.lru_cache(maxsize=4096)
def _read(cone: _Cone, lo: int, hi: int,
          labels: tuple[int, ...] | None) -> slice | np.ndarray:
    """The rows of a group over ``cone`` a read on wires (lo, hi) takes:
    those that are the identity off the wires (``_rows``), at the kept
    ``labels`` forward and all 16 backward (``labels`` None)."""
    if labels is None:
        return _rows(cone, (lo, hi))
    return _span(_meet_rows(cone, (lo, hi))[list(labels)])


# Transfer shapes repeat across the moves of a plan and across plans.
@functools.lru_cache(maxsize=4096)
def _spec(old: _Cone, new: _Cone, lo: int, hi: int, whole: bool) -> _Spec:
    """The ``_Spec`` of a transfer on the gate's wires (lo, hi), lo < hi,
    from a group over cone ``old`` into a group over cone ``new``, which the
    source fills when ``whole``, else a column range of it.  The shapes
    fix each GEMM operand's layout, as reshape makes it from t4's slice
    and the source: a view where it can, else a C-ordered copy.  A bound
    sweep keeps exactly those layouts (``_bind``): the strides of an
    operand set the rounding of its product, and a contiguous copy of a
    strided transfer slice moves Gram entries by up to 8e-17."""
    drop = None
    # new is old and the wires new to it, less the wires it drops
    if len(new) < len(old) + (lo not in old) + (hi not in old):
        drop = ((4,) * len(old) + (-1,),
                (slice(None),) + tuple(slice(None) if w in new else 0
                                       for w in old))
        old = tuple(w for w in old if w in new)
    t = (slice(None),) * 3 + (slice(4 if lo in old else 1),
                              slice(4 if hi in old else 1))
    p, q = new.index(lo), new.index(hi)
    pair = (4 if lo in old else 1) * (4 if hi in old else 1)
    if q == p + 1 and whole:
        path, shape, out = 0, (4 ** p, pair, -1), (4 ** p, 16, -1)
    elif q == p + 1:
        tail = 4 ** (len(new) - q - 1)
        path = 1
        shape, out = (4 ** p, pair, tail, -1), (4 ** p, 16, tail, -1)
    else:
        path = 2
        shape = tuple(4 if w in old else 1 for w in new) + (-1,)
        out = (4,) * len(new) + (-1,)
    # per column: the kept slice of the source, and tensordot's input and
    # output
    temps = 4 ** len(old) * ((drop is not None) + (path == 2)) \
        + 4 ** len(new) * (path == 2)
    return _Spec(drop, t, path, shape, out, (p, q), temps,
                 (path, t[3].stop, t[4].stop))


class _Step(NamedTuple):
    """One gate of a half sweep: its moves (cone, sources, width) and their
    multiply-adds, and the width of each group after it, cones as wire
    bitmasks."""

    moves: list[tuple[int, tuple[int, ...], int]]
    madds: int
    widths: dict[int, int]


def _half_plan(arch: Architecture, labels_all: list[np.ndarray],
               prune: bool, *, backward: bool) -> list[_Step]:
    """The steps of a sweep over every gate, forward from gate 0 or
    backward from gate R - 1 (``_frame_plan``), with each cone keyed by
    its wire bitmask: bit q for qubit q.  A transfer into a cone c from a
    source holding k of the gate's wires takes 4^(|c| + k) multiply-adds
    per column, and a backward read 16 per column and kept label."""
    order = range(arch.gate_count)
    if backward:
        order = order[::-1]
    pairs = [1 << arch.gates[j][0] | 1 << arch.gates[j][1] for j in order]
    # the wires a step from s on touches: a pruned cone keeps only those
    touched = [*itertools.accumulate(pairs[::-1], operator.or_)][::-1]
    widths: dict[int, int] = {}
    steps: list[_Step] = []
    for s, (j, pair) in enumerate(zip(order, pairs)):
        labels = labels_all[j]
        moves: dict[int, list[int]] = {}
        for cone in [c for c in widths if c & pair]:
            grown = (cone & touched[s] if prune else cone) | pair
            moves.setdefault(grown, []).append(cone)
        moves.setdefault(pair, [])
        step, madds = [], 0
        for cone, sources in moves.items():
            width = labels.size if cone == pair else 0
            for src in sources:
                count = widths.pop(src)
                width += count
                madds += 4 ** (cone.bit_count()
                               + (src & pair).bit_count()) * count
            widths[cone] = width
            madds += 16 * labels.size * width * backward
            step.append((cone, tuple(sources), width))
        steps.append(_Step(step, madds, dict(widths)))
    return steps


def _meets(forward: list[_Step], backward: list[_Step],
           split: int) -> list[tuple[int, int, int, int, int]]:
    """(forward cone, backward cone, meet, forward width, backward width),
    cones as wire bitmasks, of the groups the join at ``split`` pairs: the
    groups alive there, after forward step ``split`` - 1 and backward step
    R - ``split`` - 1, whose cones meet."""
    end = len(forward)
    ahead = forward[split - 1].widths if split else {}
    behind = backward[end - split - 1].widths if split < end else {}
    return [(f, b, f & b, fw, bw) for f, fw in ahead.items()
            for b, bw in behind.items() if f & b]


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
    steps before h, of the backward steps from h and of the join
    (``_meets``), 4^|meet| per pair of columns it pairs, plus
    ``_CALL_MADDS`` per array call (a transfer, a read, a join's row copy
    of a cone that is not the meet or its product); ties go to the later
    h."""
    end = len(forward)
    work = [[step.madds + _CALL_MADDS * sum(1 + len(sources)
                                            for _, sources, _ in step.moves)
             for step in half] for half in (forward, backward)]
    before = np.cumsum([0] + work[0])
    after = np.cumsum([0] + work[1])[::-1]

    def cost(h: int) -> int:
        return int(before[h] + after[h]) + sum(
            4 ** meet.bit_count() * fw * bw
            + _CALL_MADDS * (1 + (meet != f) + (meet != b))
            for f, b, meet, fw, bw in _meets(forward, backward, h))

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
    the 16 two-qubit labels, shape (R, 16, 16), or (S, R, 16, 16) for a
    stack: the leading axes are kept, and one build serves every sample,
    each equal bit for bit to its own.  Conjugation by u_j maps label Q to
    sum_P T_j[P, Q] P, so each T_j is real and orthogonal, with
    T_j[0, 0] = 1 and the rest of row and column 0 zero.

    One ``apply_gate_right`` call forms u_j Q for every gate and label.
    Gate j's 16 products, stacked as the rows of one 64 x 4 matrix, then
    take u_j^dagger in one GEMM, R in all; each entry is the same 4-term
    sum as in 16 R separate 4 x 4 products, bit for bit on the machines
    measured.  One ``pauli_coefficients`` call expands them all."""
    mats = gates.matrices.reshape(-1, 4, 4)
    r = len(mats)
    conj = apply_gate_right(mats.reshape(4 * r, 4), _PAULI_STACK, (1, 2), 2)
    # gate-major: the rows of gate j's u_j Q, label by label
    conj = np.ascontiguousarray(conj.reshape(16, r, 4, 4).swapaxes(0, 1))
    conj = conj.reshape(r, 64, 4) @ np.swapaxes(mats, 1, 2).conj()
    return np.ascontiguousarray(pauli_coefficients(
        conj.reshape(r, 16, 4, 4), 2).swapaxes(1, 2)).reshape(
        gates.matrices.shape[:-2] + (16, 16))


class _Program(NamedTuple):
    """A plan's sweep bound to a batch of S samples (``_bind``): the
    transfer stack its operands view, (S, R, 16, 16); its array calls in
    sweep order, each a function and its arguments; for a Gram plan the
    S x C x C stack its Gram matrices take, whose first entries hold the
    staging vector while it sweeps (None for the matrix plan); for the
    matrix plan the cone, group (S, rows, width) and frame columns of each
    group the sweep ends with."""

    plan: _FramePlan
    transfers: np.ndarray
    calls: tuple[tuple[Callable, tuple], ...]
    gram: np.ndarray | None
    final: tuple[tuple[_Cone, np.ndarray, np.ndarray], ...]


def _carve(buffer: np.ndarray) -> Callable[[tuple[int, ...]], np.ndarray]:
    """Hand out C-ordered arrays of the asked shapes from ``buffer``, one
    after another; one past its end raises ValueError."""
    used = 0

    def take(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal used
        start, used = used, used + math.prod(shape)
        return buffer[start:used].reshape(shape)

    return take


def _shaped(a: np.ndarray, shape: tuple[int, ...], calls: list,
            take: Callable) -> np.ndarray:
    """``a.reshape(shape)`` as the sweep sees it: a view of ``a`` where
    reshape makes one, else a buffer from ``take`` that a copy call fills
    with ``a`` in C order, as reshape's own copy is laid out."""
    try:
        return a.reshape(shape, copy=False)
    except ValueError:
        buf = take(a.shape)
        calls.append((np.copyto, (buf, a)))
        return buf.reshape(shape)


def _bind_transfer(t: np.ndarray, src: np.ndarray, x: np.ndarray,
                   feed: _Feed, calls: list, scratch: np.ndarray) -> None:
    """Add the calls that apply each sample's transfer slice, as the
    operand ``t`` of the feed's path (``_OPERAND``), to its source group
    ``src`` and write it into its column range of the group ``x``
    (S, rows, width), as ``feed`` lays out (``_Feed``).  A wire the move
    drops leaves at its identity letter, so only that slice of the source
    is read.  The copies a reshape makes lie at the start of
    ``scratch``."""
    spec = feed.spec
    s = len(x)
    take = _carve(scratch)
    if spec.drop is not None:  # the kept slice, which reshape may copy
        src = src.reshape((s,) + spec.drop[0])[spec.drop[1]]
    src = _shaped(src, (s,) + spec.shape, calls, take)
    out = x[:, :, feed.cut].reshape((s,) + spec.out)
    if spec.path == 0:  # adjacent in the cone: one broadcast matmul
        calls.append((np.matmul, (t, src, out)))
    elif spec.path == 1:  # into a column range: a matmul per outer block
        calls.append((np.matmul, (t, src.swapaxes(2, 3), out.swapaxes(2, 3))))
    else:  # tensordot's product: the pair's axes lead the source's
        p, q = spec.pq
        src = np.moveaxis(src, (p + 1, q + 1), (1, 2))
        rest = src.shape[3:]
        src = _shaped(src, (s, t.shape[2], -1), calls, take)
        prod = take((s, 16, src.shape[2]))
        calls += [(np.matmul, (t, src, prod)),
                  (np.copyto, (out, np.moveaxis(prod.reshape((s, 4, 4) + rest),
                                                (1, 2), (p + 1, q + 1))))]


# The shape of each transfer path's operand after the sample axis: a
# matmul broadcast over the outer row blocks (and the tail's), or one
# 16 x k matrix for tensordot's product.
_OPERAND = {0: (1, 16, -1), 1: (1, 1, 16, -1), 2: (16, -1)}


def _gate_entries(plan: _FramePlan) -> int:
    """The entries a sample of a bound sweep's gate buffer holds
    (``_bind``): a backward gate's born columns, at most 16 x 15, and a
    swapped gate's copies of its transfer slices, at most one each of
    16 x 1, 16 x 4, 16 x 4 and 16 x 16, where a swapped backward gate
    first copies its whole transfer matrix for its born columns.  With
    the copy of a sweep batch's transfer stack that a program keeps
    (2 KiB per gate a sample), this fits in the 16 KiB per gate that
    ``peak_bytes`` counts for the transfers and their complex build, which
    is gone when the program sweeps."""
    return 240 * (plan.split < len(plan.gates)) \
        + 400 * any(gate.swap for gate in plan.gates)


def _footprint(plan: _FramePlan, samples: int) -> list[int]:
    """The entries of ``_bind``'s arrays for ``samples`` samples: the
    arena's rest, scratch, gate buffer and a Gram plan's arena head."""
    return [samples * (plan.arena - plan.held), samples * plan.scratch,
            samples * _gate_entries(plan),
            samples * plan.held * (not plan.final)]


def _bind(plan: _FramePlan, transfers: np.ndarray,
          kept: tuple[np.ndarray, np.ndarray] | None = None) -> _Program:
    """``plan``'s sweep bound to the S samples of ``transfers``
    (S, R, 16, 16), which its transfer operands view (``_sweep`` copies
    another batch in): its arrays are made once and every group view,
    transfer operand and Gram block view is built here, so that a sweep
    is a flat loop of matmul and copy calls.  With ``kept`` (``_Store``)
    a Gram plan's arrays and its own copy of a ``transfers``-shaped stack
    are carved from the first buffer, its Gram stack from the second.

    Each block of the arena holds its group of every sample, one sample
    after another, so that each sample's group has one sample's layout.
    One array holds the arena's rest, the scratch and the gate buffer and,
    for a Gram plan, the arena's head.  The matrix plan's head, which
    its final groups keep, is a second array: made second, it tends to
    sit just above the first, so that once both are freed they can take
    the SVD's copy of the matrix.  Each op lays its temporaries
    (``_compile``) out at the start of the scratch, S times the plan's
    ``scratch``; a gate's born columns and copied transfer slices take the
    gate buffer (``_gate_entries``).  A Gram plan's staging vector takes
    the first ``staging`` entries of each sample's matrix in the
    program's S x C x C Gram stack.

    Every product operand has one sample's layout, since a GEMM operand's
    strides set its rounding: the slice of t4 each transfer takes is the
    view or C-ordered copy that reshape makes of it, one per slice and
    gate (``_spec``), and the backward born columns, the kept columns of
    T_j^T, are column-major.  The group over the gate's wires
    takes the born columns in its tail.  A forward read copies the rows
    of the gate's kept labels into its staging block, a backward read
    writes there their product with the born columns and a join the
    product of its pair's rows of the meet; rows that no slice selects
    are taken into the scratch first."""
    s, c = len(transfers), plan.width
    gram_plan = not plan.final
    sizes = _footprint(plan, s)
    buffer, grams = kept or (np.empty(sum(sizes)),
                             np.empty(s * c * c * gram_plan))
    if kept:
        transfers = buffer[sum(sizes):sum(sizes) + transfers.size].reshape(
            transfers.shape)
    gram = grams[:s * c * c].reshape(s, c, c) if gram_plan else None
    parts, at = [], 0
    for size in sizes:
        parts.append(buffer[at:at + size])
        at += size
    rest, scratch, gate_buffer, head = parts
    if not gram_plan:  # the final groups outlive the rest
        head = np.empty(s * plan.held)
    arenas = rest, head
    staging = gram.reshape(s, -1) if gram_plan else None
    sliced = gate_buffer[240 * s * (plan.split < len(plan.gates)):]
    groups: dict[int, np.ndarray] = {}  # by id, as blocks recur
    calls: list = []

    def group(block: _Block) -> np.ndarray:
        x = groups.get(id(block))
        if x is None:
            span = block.span
            x = groups[id(block)] = arenas[block.arena][
                s * span.start:s * span.stop].reshape(s, -1, block.width)
        return x

    def rows_of(x: np.ndarray, rows: slice | np.ndarray, cols: int,
                at: int = 0) -> np.ndarray:
        # x[:, rows, :cols]: a view where rows is a slice, else taken in
        # C order into the scratch from ``at`` by one take
        if isinstance(rows, slice):
            return x[:, rows, :cols]
        out = scratch[at:at + s * rows.size * cols].reshape(s, -1, cols)
        if cols == x.shape[2]:
            calls.append((x.take, (rows, 1, out, "clip")))
        else:  # by flat positions, as the columns are a leading range
            flat = np.arange(0, x.size, x[0].size)[:, None, None] \
                + (rows[:, None] * x.shape[2] + np.arange(cols))
            calls.append((x.reshape(-1).take, (flat.ravel(), 0,
                                               out.reshape(-1), "clip")))
        return out

    def stage(at: int, shape: tuple[int, int]) -> np.ndarray:
        return staging[:, at:at + shape[0] * shape[1]].reshape(
            (s,) + shape)

    for gate, step in zip(plan.gates, plan.steps):
        # t4[s, P_lo, P_hi, Q_lo, Q_hi], transposed backward, with the
        # lower wire leading, as the plan's labels read it
        t4 = transfers[:, gate.j]
        t4 = (t4.swapaxes(1, 2) if gate.backward else t4).reshape(
            s, 4, 4, 4, 4)
        if gate.swap:
            t4 = t4.transpose(0, 2, 1, 4, 3)
        born, k = gate.born, gate.labels.size
        if gate.backward:  # T_j^T's kept columns, column-major
            born = gate_buffer[:s * k * 16].reshape(s, k, 16)
            t = _shaped(t4, (s, 16, 16), calls, _carve(sliced))
            calls.append((t.swapaxes(1, 2).take, (gate.labels, 1, born,
                                                  "clip")))
            born = born.swapaxes(1, 2)
        take = _carve(sliced)
        operands: dict[tuple, np.ndarray] = {}
        for move in step:
            x = group(move.block)
            for feed in move.feeds:
                spec = feed.spec
                t = operands.get(spec.part)
                if t is None:  # one view or copy per slice of t4
                    t = operands.get(spec.part[1:])
                    if t is None:
                        t = operands[spec.part[1:]] = _shaped(
                            t4[spec.t], (s, 16, -1), calls, take)
                    t = operands[spec.part] = t.reshape(
                        (s,) + _OPERAND[spec.path])
                _bind_transfer(t, group(feed.source), x, feed, calls,
                               scratch)
            at = move.at
            if at < move.block.width:  # the gate's own group
                calls.append((np.copyto, (x[:, :, at:], born)))
            if move.stage is None:
                continue
            out = stage(move.stage, (k, at))
            if gate.backward:
                calls.append((np.matmul, (born.swapaxes(1, 2),
                                          rows_of(x, move.read, at), out)))
            else:  # a gather takes the rows whole, then their columns
                rows = rows_of(x, move.read, x.shape[2])
                calls.append((np.copyto, (out, rows[:, :, :at])))
    for join in plan.joins:
        fw, bw = join.ahead.width, join.behind.width
        xf = rows_of(group(join.ahead), join.ahead_rows, fw)
        xb = rows_of(group(join.behind), join.behind_rows, bw,
                     0 if isinstance(join.ahead_rows, slice) else xf.size)
        calls.append((np.matmul, (xf.swapaxes(1, 2), xb,
                                  stage(join.stage, (fw, bw)))))
    final = tuple((cone, group(block), cols)
                  for cone, block, cols in plan.final)
    return _Program(plan, transfers, tuple(calls), gram, final)


def _sweep(program: _Program, transfers: np.ndarray) -> None:
    """Run the bound sweep ``program`` (``_bind``) over the S samples of
    ``transfers`` (S, R, 16, 16), which it first copies into its own
    stack unless they are that stack.  Its groups are then in its arena:
    the matrix plan's last ones in its ``final`` views (``_assemble``
    reads them), and a Gram plan's reads and joins in its staging vector
    (``_gram_read`` scatters them).  Each array call serves every sample,
    and each sample's product keeps the shape and operand layout of a
    one-sample sweep's, so each sample's numbers are those of its own
    sweep, bit for bit."""
    if transfers is not program.transfers:
        np.copyto(program.transfers, transfers)
    for call, args in program.calls:
        call(*args)


def _gram_read(program: _Program, transfers: np.ndarray) -> np.ndarray:
    """The Gram matrices the bound Gram plan ``program``'s sweep reads
    (``_unitary_frame``), S x C x C for the S samples of ``transfers`` and
    the C kept labels of its plan's gates: the program's own stack, which
    its next sweep overwrites.  The sweep stages one entry of each pair of
    columns it reads at the head of each sample's Gram matrix; a copy of
    them is scattered, by the plan's ``index``, into that matrix once it
    is zeroed, so the other entry stays an exact 0 (a pair no read or
    join takes, or of one gate's columns, is 0).  Then ``g += g.T.copy()``
    fills the other entries, with one C x C temporary, and the diagonal
    takes 1, a born unit vector against itself."""
    _sweep(program, transfers)
    plan, gram = program.plan, program.gram
    for one in gram:
        flat = one.reshape(-1)
        staged = flat[:plan.staging].copy()
        flat.fill(0.0)
        flat[plan.index] = staged
        one += one.T.copy()
        flat[::plan.width + 1] = 1.0
    return gram


def _assemble(n: int, width: int,
              final: tuple[tuple[_Cone, np.ndarray, np.ndarray], ...],
              samples: int) -> np.ndarray:
    """The S x 4^n x C frames, S = ``samples`` and C = ``width``, from the
    ``final`` groups of a bound matrix plan's sweep (``_Program``)."""
    # one row per column: each group is written as one transposed block
    out = np.empty((samples, width, 4 ** n))
    for cone, x, cols in final:
        x = x.swapaxes(1, 2)
        if len(cone) == n:
            out[:, cols] = x
        else:
            out[:, cols] = 0.0
            out[:, cols[:, None], _cone_index(cone, n)] = x
    return out.swapaxes(1, 2)


class _Store(threading.local):
    """A thread's bound Gram sweeps (``_bind``), kept across consensuses
    by Gram plan and transfer-stack shape (frames of several lengths can
    share a head's plan), all carved from two buffers: one for arenas,
    scratch and transfers, one for the Gram stacks a frame holds through
    its matrix sweeps.  One program sweeps at a time and a consensus
    drops its frames before it returns, so the programs share the bytes
    the largest needs.  A program that does not fit grows the buffers and
    drops every program; one over ``_KEPT_CAP`` is bound for its caller
    alone.  At most ``_KEPT_PROGRAMS`` stay, the oldest going first.

    Beside the buffers, which ``kept`` counts, a program's views and call
    tuples take about 500 bytes a call: 165 KB for brickwork(6, 1)'s 331
    calls, 215 KB for the four programs dim-wide keeps (tracemalloc).  A
    kept program holds its plan, also once ``_frame_plan`` has dropped
    it, until the program goes."""

    def __init__(self) -> None:
        self.release()

    def release(self) -> None:
        """Drop every kept program and both buffers."""
        self.programs: dict[tuple[_FramePlan, tuple[int, ...]],
                            _Program] = {}
        self.buffers = np.empty(0), np.empty(0)

    @property
    def kept(self) -> int:
        """The bytes the buffers hold."""
        return sum(buffer.nbytes for buffer in self.buffers)

    def program(self, plan: _FramePlan,
                transfers: np.ndarray) -> tuple[_Program, bool]:
        """The program of ``plan`` over a stack of the shape of
        ``transfers``: the kept one, bound first if it is not kept, or
        one of its own over ``_KEPT_CAP``; and whether binding it grew
        the buffers."""
        key = plan, transfers.shape
        if key in self.programs:
            return self.programs[key], False
        need = (sum(_footprint(plan, len(transfers))) + transfers.size,
                len(transfers) * plan.width ** 2)
        if 8 * sum(need) > _KEPT_CAP:
            return _bind(plan, np.empty_like(transfers)), False
        grew = any(size > buffer.size
                   for size, buffer in zip(need, self.buffers))
        if grew:  # the old buffers go before the new ones
            sizes = [max(size, buffer.size)
                     for size, buffer in zip(need, self.buffers)]
            sizes = sizes if 8 * sum(sizes) <= _KEPT_CAP else need
            self.release()
            # a block of their size, made and freed first, raises glibc's
            # mmap threshold, as freeing each consensus's own arena did:
            # without it temporaries over 128 KiB get new pages each time
            np.empty(sum(sizes))
            self.buffers = tuple(np.empty(size) for size in sizes)
        elif len(self.programs) >= _KEPT_PROGRAMS:
            del self.programs[next(iter(self.programs))]
        program = self.programs[key] = _bind(plan, transfers, self.buffers)
        return program, grew


# Each thread's kept Gram programs (``_Store``).
_STORE = _Store()


class _Binding:
    """The bound Gram sweep (``_bind``) a consensus sweeps its batches
    through: the kept program (``_Store``), or one of its own over
    ``_KEPT_CAP``.  As a context manager it is the consensus in progress
    (``_CONSENSUS``), through which ``tangent_frame``, the frame call the
    consensus makes per sweep batch, sweeps the batch's Gram plan.  Before
    a matrix sweep (``drop``) the program goes, and the kept buffers too
    if this consensus grew them, as ``peak_bytes`` counts.

    ``batch`` holds the sweep batch in progress: its assignment, samples
    of the draw batch's stack (``GateAssignment._samples``), and their
    slice of the draw's transfer stack (None in state mode), which the
    batch's frame takes in place of a build of its own (``transfers``).
    The consensus clears it before the next draw."""

    def __init__(self) -> None:
        self.program: _Program | None = None
        self.grew = False
        self.batch: tuple[GateAssignment, np.ndarray | None] | None = None

    def __enter__(self) -> _Binding:
        self._token = _CONSENSUS.set(self)
        return self

    def __exit__(self, *exc: object) -> None:
        _CONSENSUS.reset(self._token)
        self.program = None

    def gram_read(self, plan: _FramePlan,
                  transfers: np.ndarray) -> np.ndarray:
        """``_gram_read`` by ``plan``'s program over ``transfers``."""
        program = self.program
        if program is None or program.plan is not plan \
                or program.transfers.shape != transfers.shape:
            self.program = None  # an arena of this consensus alone goes
            self.program, grew = _STORE.program(plan, transfers)
            self.grew |= grew
        return _gram_read(self.program, transfers)

    def drop(self) -> None:
        self.program = None
        if self.grew:
            _STORE.release()

    def transfers(self, gates: GateAssignment) -> np.ndarray:
        """The transfer stack of ``gates``: the sweep batch's slice of its
        draw's when ``gates`` is that batch's assignment, else its own
        build (``transfer_matrices``)."""
        if self.batch is not None and self.batch[0] is gates:
            return self.batch[1]
        return transfer_matrices(gates)


# The binding of the consensus in progress (``_Binding``), which
# ``tangent_frame`` reads, as it takes no binding of its own.
_CONSENSUS: contextvars.ContextVar[_Binding | None] = \
    contextvars.ContextVar("consensus", default=None)


def _tall_head(arch: Architecture,
               ends: tuple[int, ...]) -> _FramePlan | None:
    """The Gram plan of the unitary frame of ``arch`` over ``ends``
    (``_ends``), which its sweep (``_unitary_frame``), its estimate
    (``peak_bytes``) and its batch (``_batch``) read; None if no prefix in
    ``ends`` has fewer columns than the 4^n rows.  A prefix's own columns
    grow with it, so the tall prefixes are the shortest ones, and the Gram
    read covers the gates of the longest, the head: the plan is
    ``_frame_plan``'s pruned one over the tall prefixes of the head's
    architecture (``arch`` itself for all its gates), so its ``gates`` are
    the head's and its ``width`` is the Gram matrix's.  The plan is the
    head's only record, held once in ``_frame_plan``'s cache."""
    own = _gauge(arch, ends)[3]
    tall = tuple(end for end, cols in zip(ends, own)
                 if _count(cols) < 4 ** arch.n)
    if not tall:
        return None
    head = arch if tall[-1] == arch.gate_count \
        else Architecture(arch.n, arch.gates[:tall[-1]])
    return _frame_plan(head, tall, prune=True)


def _unitary_frame(arch: Architecture, gates: GateAssignment,
                   ends: tuple[int, ...],
                   binding: _Binding | None) -> TangentFrame:
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
    Each read and join writes the entry of the pairs it reads whose row is
    the later gate's (``_sweep``), and ``_gram_read`` mirrors it.  Columns
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
    strings of a meet of m wires adds gamma_{2 * 4^m} (``_gamma``) times
    the norms, with m the widest meet (gamma = 0 without a join).  So every
    entry of the read Gram matrix is within (1 + gamma) (1 + rho)^R - 1 of
    M^T M's, and C times that bounds its Frobenius norm and its 2-norm
    (``gram_error``).  Pruning dead wires changes none of this: a dropped
    row never feeds a kept row, so every kept row is computed by the same
    transfers as before, and the bound holds as written.  A non-finite
    transfer stack gives no Gram matrix: every frame entry is a sum of
    products of the stack's entries, so a finite stack makes a finite
    frame.

    A frame one of whose prefixes (``ends``) is tall runs the Gram plan's
    sweep; any other frame runs no sweep here.  With a ``binding``, the
    consensus's, the frame of a sweep batch takes its slice of the draw
    batch's transfer stack (``_Binding.transfers``), and the sweep runs
    the consensus's program, most often the one the thread keeps for the
    plan and batch size (``_Store``), whose Gram stack the frame then
    holds until the next sweep batch's sweep; without one the frame
    builds its own transfer stack, binds the plan to it, sweeps and drops
    the program but for its Gram stack, which the frame keeps, before it
    returns.  The sweep covers the gates of the longest tall prefix, whose
    columns lead the frame's and hold every tall prefix's: the later gates
    act on them orthogonally, so their Gram matrix is the head's, and the
    bound above takes the head's gates and columns, those of its Gram plan
    (``_tall_head``).  Every frame takes its columns from ``_gauge`` and
    keeps its transfer stack (2 KiB per gate a sample; a sweep batch's
    slice keeps its draw's whole stack), and the first read of its
    ``matrix`` fetches the matrix plan, runs its sweep and assembles the
    matrix from its last groups.

    The frame is stacked, over the samples of a stacked assignment or a
    stack of one: one transfer build (or slice of a draw's), one Gram
    sweep and one bound per sample serve them all, and
    ``TangentFrame.sample`` gives each sample's frame.  The first read of
    a sample's matrix drops the ``binding``'s program (``_Binding.drop``:
    with the kept buffers, if the consensus grew them), binds the matrix
    plan to the transfers of it and the next samples, as many as
    ``_matrix_batch`` allows, sweeps, drops the program but for its final
    groups and keeps their matrices until another sample's is read.
    """
    _, _, record, own = _gauge(arch, ends)
    s = gates.samples or 1
    transfers = (transfer_matrices(gates) if binding is None
                 else binding.transfers(gates)).reshape(
        (s, arch.gate_count, 16, 16))
    defect = np.swapaxes(transfers, 2, 3) @ transfers - np.eye(16)
    taus = np.sqrt((defect * defect).sum(axis=(2, 3)).max(axis=1,
                                                          initial=0.0))
    gram, gram_error = None, np.zeros(s)
    head = _tall_head(arch, ends)
    if head is not None and np.isfinite(taus).any():
        eps = np.finfo(np.float64).eps
        meet = max((4 ** len(join.meet) for join in head.joins), default=0)
        join_term = np.log1p(_gamma(2 * meet))
        gram = _gram_read(_bind(head, transfers), transfers) \
            if binding is None else binding.gram_read(head, transfers)
        gram_error = np.array([head.width * float(np.expm1(
            len(head.gates) * np.log1p(tau + 256 * eps) + join_term))
            for tau in taus])

    def assemble(lo: int, hi: int) -> np.ndarray:
        if binding is not None:
            binding.drop()
        plan = _frame_plan(arch, ends)
        program = _bind(plan, transfers[lo:hi])
        _sweep(program, program.transfers)
        final = program.final
        del program  # the arena's rest goes before the matrix is formed
        return _assemble(arch.n, plan.width, final, hi - lo)

    formed: dict[int, np.ndarray] = {}  # the last matrix sweep's samples

    def part(i: int) -> np.ndarray:
        if i not in formed:
            formed.clear()  # freed once their samples' frames are gone
            batch = _matrix_batch(arch, ends)[0]
            lo = i - i % batch
            formed.update(enumerate(assemble(lo, min(lo + batch, s)), lo))
        return formed[i]

    return TangentFrame("unitary", arch.n, arch.gate_count, record,
                        lambda: assemble(0, s), gram, gram_error,
                        dict(zip(ends, own)), s, part)


def tangent_frame(arch: Architecture, gates: GateAssignment,
                  mode: str = "unitary",
                  prefixes: Sequence[int] | None = None) -> TangentFrame:
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

    With ``prefixes`` (gate counts, each in 0..R) the frame serves the
    prefixes of ``arch`` of those lengths as well: gate j keeps the
    generators the shortest of them that holds it keeps (``_gauge``), and
    ``TangentFrame.prefix`` gives each prefix's frame.  The frame reads its
    Gram matrix when some prefix has fewer columns than rows.  Without
    ``prefixes`` it is the frame of ``arch`` alone.  Either way,
    ``TangentFrame.prefixes`` holds each prefix's own columns.

    A stacked assignment (``GateAssignment.haar`` with a sequence of
    seeds) gives one stacked frame, whose ``TangentFrame.sample`` i is,
    bit for bit, the frame of sample i's own assignment.  In unitary mode
    one transfer build, one Gram sweep and one matrix sweep per
    ``_matrix_batch`` samples serve the stack, each array call for every
    sample at once, and each sweep binds its plan (``_bind``) and drops
    the program when it is done; inside a consensus the frame takes its
    slice of the draw batch's transfers, and the Gram sweep runs the
    consensus's program instead (``accessible_dimensions``).  State
    mode builds the samples' frames one after another.  One assignment
    gives its own frame, a stack of one's sample.  The size check
    (``peak_bytes``) covers the stacks ``accessible_dimensions`` makes
    (``_batch``).
    """
    check_mode(mode)
    ends = _ends(arch, prefixes)
    _check_size(arch, mode, ends, gates.samples or 1, stack=True)
    _require_match(arch, gates)
    frame = _unitary_frame(arch, gates, ends, _CONSENSUS.get()) \
        if mode == "unitary" else _state_frame(arch, gates, ends)
    return frame if gates.samples is not None else frame.sample(0)


def _state_frame(arch: Architecture, gates: GateAssignment,
                 ends: tuple[int, ...]) -> TangentFrame:
    """The stacked state frame (``tangent_frame``), one sample at a time,
    since a gate stack applies to one target only (``apply_gate_left``):
    one complex vector stack serves the samples in turn, and their
    matrices fill one array."""
    kept_all, _, record, own = _gauge(arch, ends)
    n = arch.n
    dim = 2 ** n
    mats = gates.matrices.reshape(
        (gates.samples or 1, arch.gate_count, 4, 4))
    stack = np.empty((dim, record.shape[0]), dtype=complex)
    matrix = np.empty((len(mats), 2 * dim, record.shape[0]))
    chunk = _fit(16 * dim)
    for sample, out in zip(mats, matrix):
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        filled = 0
        for wires, u, kept in zip(arch.gates, sample, kept_all):
            for lo in range(0, filled, chunk):
                part = stack[:, lo:min(lo + chunk, filled)]
                part[...] = apply_gate_left(part, u, wires, n)
            psi = apply_gate_left(psi, u, wires, n)
            block = slice(filled, filled + kept.size)
            stack[:, block] = apply_gate_left(
                psi, 1j * _GENERATOR_STACK[kept], wires, n).T
            filled = block.stop
        np.concatenate([stack.real, stack.imag], out=out)
    return TangentFrame("state", n, arch.gate_count, record, lambda: matrix,
                        prefixes=dict(zip(ends, own)), samples=len(mats),
                        _part=matrix.__getitem__)


# -- numerical rank ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RankEstimate:
    """Rank decision at a loose/tight tolerance pair.

    The estimate is conclusive only when both thresholds count the same
    number of singular values above tol * sigma_max.  ``route`` names how
    it was decided: ``"gram"`` (certified from the Gram matrix) or
    ``"svd"``; see ``numerical_rank``.  An svd-route estimate holds every
    singular value, descending.  A gram-route estimate of rank r holds the
    certified bounds ``sigma_max_upper`` >= sigma_max and
    ``sigma_min_lower`` <= sigma_r, the r-th largest singular value (for a
    tall frame, r = C and sigma_r is sigma_min), with sigma_min_lower =
    100 loose sigma_max_upper, and holds ``singular_values`` only when
    asked for the spectrum (None otherwise).
    """

    singular_values: np.ndarray | None
    tolerances: tuple[float, float]
    loose_rank: int
    tight_rank: int
    route: str = "svd"
    sigma_max_upper: float | None = None
    sigma_min_lower: float | None = None

    @property
    def conclusive(self) -> bool:
        return self.loose_rank == self.tight_rank

    @property
    def rank(self) -> int | None:
        return self.loose_rank if self.conclusive else None

    def gap_description(self) -> str:
        if self.conclusive:
            return "conclusive"
        lo, hi = sorted((self.loose_rank, self.tight_rank))
        contested = ", ".join(f"{x:.3e}" for x in self.singular_values[lo:hi])
        return (f"ranks {self.loose_rank}/{self.tight_rank} disagree; "
                f"contested singular values: {contested}")


# A Gram certificate places every singular value at least this factor above
# the loose cutoff.
_GRAM_MARGIN = 100.0

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = float(np.nextafter(0.0, 1.0))


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), with u = eps / 2: the relative rounding
    bound of a k-term sum or dot product."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def _shift(gram: np.ndarray, error: float | np.ndarray,
           floor: float | np.ndarray) -> float | np.ndarray:
    """``_certify``'s diagonal shift s of the symmetric C x C matrix
    ``gram``, or of each matrix of an S x C x C stack (with ``error`` and
    ``floor`` one value or S values), from its diagonal alone."""
    c, u = gram.shape[-1], _UNIT_ROUNDOFF
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    gamma, top = _gamma(c + 1), diag.max(axis=-1)
    return ((floor + error + gamma / (1 - gamma) * (1 + gamma)
             * diag.sum(axis=-1) + u * top) * (1 + 16 * u)
            + 4 * (c + 1) * (2 * (c + 2) + top) * _SMALLEST_SUBNORMAL)


def _certify(gram: np.ndarray, error: float | np.ndarray,
             floor: float | np.ndarray) -> bool | np.ndarray:
    """Whether lam_min(A) >= ``floor`` for every symmetric A within
    ``error`` of the symmetric C x C matrix G = ``gram`` in the 2-norm,
    proved by one floating-point Cholesky factorization.

    With u = eps / 2, gamma = gamma_{C+1} and gamma' = gamma / (1 - gamma):

    - The shift s (``_shift``) is floor + error, plus gamma' trace(G)
      (1 + gamma) (the last factor covers the rounding of the trace), plus
      u max g_ii, plus Rump's underflow term 4 (C + 1) (2 (C + 2) +
      max g_ii) eta (eta the smallest subnormal), the sum taken times
      (1 + 16 u) to cover the rounding of forming it.
    - If floating-point Cholesky of G~ = fl(G - s I) runs to completion,
      its factor R satisfies R^T R = G~ + dA with |dA| <= gamma' d d^T,
      d_i = sqrt(g~_ii) (Demmel, LAPACK Working Note 14, 1989, in the form
      of S. M. Rump, "Verification of positive definiteness", BIT 46 (2006)
      433-452, which adds the underflow term), so ||dA||_2 <= gamma'
      trace(G~) <= gamma' trace(G), as 0 < g~_ii <= g_ii.  G~ differs from
      G - s I by the rounding of its diagonal, at most u max g_ii.  R^T R
      is positive semidefinite, so lam_min(G) >= s minus those two terms
      and the underflow term, and lam_min(A) >= lam_min(G) - error >=
      floor.

    A Cholesky that fails (``LinAlgError``) proves nothing.  Nor does a
    non-finite entry of G, ``error`` or ``floor``, refused before the
    factorization, which LAPACK may run to completion on NaN.

    ``gram`` may carry a leading sample axis, an S x C x C stack with S
    values of ``error`` and of ``floor``; then the result is the S
    verdicts.  One Cholesky call factors the shifted copies of every
    finite sample, and when it fails, each is factored alone, so each
    verdict is its sample's own, computed on the same numbers.
    """
    def factors(shifted: np.ndarray) -> bool:  # one matrix or a stack
        try:  # exactly symmetric: its F-ordered transpose is the same
            np.linalg.cholesky(np.swapaxes(shifted, -1, -2))
        except np.linalg.LinAlgError:
            return False
        return True

    grams = gram if gram.ndim == 3 else gram[None]
    error, floor = np.atleast_1d(error, floor)
    ok = np.isfinite(error) & np.isfinite(floor) \
        & np.isfinite(grams).all(axis=(1, 2))
    shifted = grams[ok]
    s, c = shifted.shape[:2]
    shifted.reshape(s, c * c)[:, ::c + 1] -= _shift(
        shifted, error[ok], floor[ok])[:, None]
    if s and not factors(shifted):
        # the stack fails if one sample fails: factor each alone
        ok[ok] = [s > 1 and factors(one) for one in shifted]
    return ok if gram.ndim == 3 else bool(ok[0])


def _upper(gram: np.ndarray,
           read_error: float | np.ndarray) -> float | np.ndarray:
    """``_gram_estimate``'s U of ``gram``, or of each matrix of a stack of
    them (with ``read_error`` one value or S values)."""
    return np.abs(gram).sum(axis=-1).max(axis=-1) \
        * (1 + _gamma(gram.shape[-1] + 1)) + read_error


def _gram_estimate(gram: np.ndarray, tol_pair: tuple[float, float],
                   read_error: float | np.ndarray,
                   ) -> RankEstimate | None | list[RankEstimate | None]:
    """The full-rank estimate of a real matrix M with C columns whose Gram
    matrix ``gram`` certifies it, or None when it cannot.

    ``gram`` is symmetric and lies within ``read_error`` of the exact
    A = M^T M in the 2-norm.  U = ||G||_inf (1 + gamma_{C+1}) + read_error
    (``_upper``) bounds lam_max(A) from above; the factor covers the
    rounding of the C-term row sums.  With floor = (100 loose)^2,
    ``_certify(G, read_error, floor U)`` proves lam_min(A) >= floor U >=
    floor lam_max(A) with no eigensolver.  Then every singular value is at
    least 100x above loose * sigma_max, so an SVD would count all C of
    them at both tolerances.  The estimate holds sigma_max_upper =
    sqrt(U) and sigma_min_lower = sqrt(floor U), and no singular values.
    A certificate that fails proves nothing, and the SVD decides.

    With a leading sample axis (an S x C x C stack, and S values of
    ``read_error``) it returns each sample's estimate or None, in
    order, from one ``_certify`` call.
    """
    grams = gram if gram.ndim == 3 else gram[None]
    c = grams.shape[-1]
    upper = _upper(grams, read_error)
    low = (_GRAM_MARGIN * tol_pair[0]) ** 2 * upper
    found = [RankEstimate(None, tol_pair, c, c, route="gram",
                          sigma_max_upper=float(np.sqrt(top)),
                          sigma_min_lower=float(np.sqrt(bottom)))
             if passed else None
             for passed, top, bottom
             in zip(_certify(grams, read_error, low), upper, low)]
    return found if gram.ndim == 3 else found[0]


def _wide_estimate(mats: Iterable[np.ndarray], samples: int, rows: int,
                   tol_pair: tuple[float, float],
                   ) -> list[RankEstimate | None]:
    """The rank-(m - 1) estimate of each of the ``samples`` wide unitary
    frames ``mats`` (m = 4^n = ``rows`` rows, C >= m columns) that its row
    Gram matrix certifies, or None when it cannot, in order.

    Row 0, m_0, is the identity string's: 0 in exact arithmetic, since
    every generator is traceless and each T_j fixes the identity.  Let M'
    be the other m - 1 rows and H = M' M'^T, with gamma = gamma_C.
    Floating point forms G = fl(H) with |G - H| <= gamma |M'| |M'|^T
    entrywise, so ||G - H||_2 <= gamma ||M'||_F^2 = gamma trace(H), and
    trace(H) <= fl(sum of g_ii) / (1 - gamma)^2 over the diagonal's and
    the sum's roundings.  The exact ||m_0||^2 is at most fl(m_0 . m_0) /
    (1 - gamma).  M^T M = M'^T M' + m_0^T m_0, so
    sigma_max(M)^2 <= lam_max(H) + ||m_0||^2, and ``_gram_estimate`` of G
    with read_error = gamma trace(H) + ||m_0||^2 (times 1 + 16 u for
    forming it) has U >= sigma_max(M)^2 and, on success,
    lam_min(H) >= floor U.  By Cauchy interlacing, sigma_{m-1}(M)^2 >=
    lam_min(H): every one of the top m - 1 singular values sits at least
    100x above the loose cutoff.

    The certificate also requires ||m_0||^2 <= (tight / 100)^2
    max_i g_ii (1 - 2 gamma).  Each exact h_ii is at least g_ii (1 -
    gamma) and at most sigma_max(M)^2, the extra gamma >= 16 u covering
    the roundings of the test, so sigma_m(M) <= ||m_0|| (M^T e_0 = m_0)
    sits 100x below the tight cutoff.  So an SVD would count m - 1 at
    both tolerances.  A non-finite M' gives a non-finite trace, and a
    non-finite m_0 fails the test: neither is certified; such a sample,
    or one that fails the test, takes no read error (NaN), which
    ``_certify`` refuses.

    The matrices are read one at a time: each forms its G by its own GEMM
    into one S x (m - 1) x (m - 1) stack, which one ``_gram_estimate``
    call certifies.
    """
    grams = np.empty((samples, rows - 1, rows - 1))
    edges = np.empty(samples)
    for k, mat in enumerate(mats):
        cols = mat.shape[1]
        rest = mat[1:]
        np.matmul(rest, rest.T, out=grams[k])
        edges[k] = mat[0] @ mat[0]
    u, gamma = _UNIT_ROUNDOFF, _gamma(cols)
    diag = np.diagonal(grams, axis1=1, axis2=2)
    trace = diag.sum(axis=1)
    ceiling = (tol_pair[1] / _GRAM_MARGIN) ** 2 \
        * diag.max(axis=1, initial=0.0) * (1 - 2 * gamma)
    ok = np.isfinite(trace) & (edges / (1 - gamma) <= ceiling)
    read_error = np.where(
        ok, (gamma * trace / (1 - gamma) + edges) / (1 - gamma)
        * (1 + 16 * u), np.nan)
    return _gram_estimate(grams, tol_pair, read_error)


def _check_tolerances(tol_pair: tuple[float, float]) -> tuple[float, float]:
    """The (loose, tight) pair, or ValidationError unless
    eps <= tight <= loose < 1."""
    loose, tight = tol_pair
    if not np.finfo(float).eps <= tight <= loose < 1.0:
        raise ValidationError("tolerances must satisfy eps <= tight <= loose"
                              f" < 1, got (loose, tight) = {tol_pair}")
    return loose, tight


def _svd_estimate(mat: np.ndarray,
                  tol_pair: tuple[float, float]) -> RankEstimate:
    """The svd-route estimate of ``mat`` (``numerical_rank``)."""
    loose, tight = tol_pair
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


def _tall_estimates(stack: TangentFrame, cols: slice | np.ndarray,
                    tol_pair: tuple[float, float],
                    spectrum: bool) -> list[RankEstimate | None]:
    """Each sample's gram-route estimate of the column block ``cols`` of
    the stacked frame ``stack`` (``_decide``), or None for each sample it
    leaves to a matrix: every sample when the block is not a tall block
    of ``gram``."""
    if stack.gram is None \
            or not 0 < _count(cols) < _frame_rows(stack.n, stack.mode):
        return [None] * stack.samples
    # each sample's block in its own frame's layout, which a sum's order
    # follows
    grams, errors = _gram_block(stack.gram, stack.gram_error, cols)
    found = _gram_estimate(grams, tol_pair, errors)
    if not spectrum:
        return found
    return [None if e is None else replace(
        e, singular_values=np.sqrt(np.linalg.eigvalsh(g)[::-1]))
        for e, g in zip(found, grams)]


def _decide(stack: TangentFrame, lengths: Sequence[int],
            tol_pair: tuple[float, float], spectrum: bool,
            chunk: int) -> list[list[RankEstimate]]:
    """``numerical_rank`` of every sample's frame of each prefix of
    ``lengths`` gates that the stacked frame ``stack`` serves: one list
    per prefix, in sample order, each estimate its sample's own frame's
    (``TangentFrame.sample`` and ``prefix``), bit for bit.

    First the tall prefixes that carry their blocks of ``gram``, which
    read no matrix: each stacks its S samples' Gram blocks, each bounded
    by its own ``gram_error`` as ``TangentFrame.prefix`` scales it, and
    one ``_gram_estimate`` call certifies them.  A sample whose bound is
    not finite (``TangentFrame.sample`` gives it no Gram matrix) is
    refused there.  With ``spectrum`` each certified sample takes
    eigvalsh of its own block.  Then, ``chunk`` samples at a time, those
    whose matrices one matrix sweep forms (``_matrix_batch``), every
    decision that reads a matrix: one ``_wide_estimate`` call per wide
    unitary prefix (C >= 4^n), each certified one with ``spectrum``
    taking its SVD's values, and then the SVD (``_svd_estimate``) of
    each sample's block that is still undecided.  Every reduction and
    GEMM takes one sample's operands as its own frame's decision would,
    so only the Cholesky factorizations share a call."""
    rows = _frame_rows(stack.n, stack.mode)
    found = [_tall_estimates(stack, stack.prefixes[length], tol_pair,
                             spectrum) for length in lengths]
    for lo in range(0, stack.samples, chunk):
        samples = range(lo, min(lo + chunk, stack.samples))
        for length, ests in zip(lengths, found):
            cols = stack.prefixes[length]
            if stack.mode == "unitary" and _count(cols) >= rows:
                ests[lo:samples.stop] = _wide_estimate(
                    (stack._part(i)[:, cols] for i in samples),
                    len(samples), rows, tol_pair)
            for i in samples:
                if ests[i] is None:
                    ests[i] = _svd_estimate(stack._part(i)[:, cols], tol_pair)
                elif spectrum and ests[i].singular_values is None:
                    ests[i] = replace(ests[i], singular_values=np.linalg.svd(
                        stack._part(i)[:, cols], compute_uv=False))
    return found


def numerical_rank(frame: TangentFrame | np.ndarray,
                   tol_pair: tuple[float, float] = DEFAULT_TOLERANCES,
                   *, spectrum: bool = False) -> RankEstimate:
    """Singular-value rank under two relative thresholds.

    A unitary frame is first tried on the Gram route, which certifies its
    rank from a small Gram matrix by one Cholesky factorization, shifted by
    its error bounds (``_certify``), and no eigensolver.  A frame
    that carries the Gram matrix of all its columns
    (``TangentFrame.gram``: a tall unitary frame, which reads it off its
    sweep or takes its block of a frame that serves it) is certified when
    all C singular values sit at least 100x above the loose cutoff, and
    never forms its matrix.  A wide unitary frame (C >= 4^n) forms its
    matrix and is certified from its row Gram matrix, that of the 4^n - 1
    rows of non-identity strings, when its top 4^n - 1 singular values sit
    100x above the loose cutoff and its identity row 100x below the tight
    one (``_wide_estimate``).  Either way the SVD would return
    loose = tight = the certified rank as well.  The estimate holds the
    certified bounds ``sigma_max_upper`` and ``sigma_min_lower``, with
    ``route="gram"``, and with ``spectrum`` also its singular values:
    sqrt(eigvalsh(G)) of a tall frame and the SVD's of a wide one.  A
    certificate that fails proves nothing, and every other input takes a
    full SVD (``route="svd"``), whose singular values the estimate always
    holds: plain arrays, state frames, rank-deficient or near-cutoff
    spectra, and all-zero matrices.  A state frame could never be
    certified: gate 0 acts on |0...0>, so its at least 9 kept directions
    i S_k u_0 |00> lie in the 7-dimensional tangent space of the sphere at
    u_0 |00>, and the later gates move them by one unitary.  Ranks never
    differ between the routes; gram-route singular values of a tall frame
    differ from LAPACK's SVD by rounding only (below 1e-12 sigma_max on the
    frames measured).

    A frame is decided as the one sample of a stack, by the routine
    (``_decide``) that decides every sample of a consensus's sweep batch
    at once, so a frame's estimate is the one its sample gets there.

    An empty or all-zero matrix has rank 0 by convention.  A matrix holding
    NaN or inf raises ``LinAlgError``.  A Gram matrix holding one is never
    certified (``_certify``), so its frame takes the SVD of its matrix,
    which raises if that is not finite either.  The tolerances must satisfy
    eps <= tight <= loose < 1.  A stacked frame raises ValidationError:
    each of its samples (``TangentFrame.sample``) takes its own rank.
    """
    _check_tolerances(tol_pair)
    if not isinstance(frame, TangentFrame):
        return _svd_estimate(np.asarray(frame), tol_pair)
    frame._one("numerical_rank")
    one = replace(frame, gram=None if frame.gram is None else frame.gram[None],
                  gram_error=np.array([frame.gram_error]),
                  prefixes={frame.gate_count: slice(0, len(frame.columns), 1)},
                  samples=1, _part=lambda i: frame.matrix)
    return _decide(one, [frame.gate_count], tol_pair, spectrum, 1)[0][0]


def dimension_bounds(arch: Architecture, mode: str,
                     length: int | None = None) -> tuple[int, int, int]:
    """(lower, upper, cap) for the accessible dimension of the prefix of
    ``arch`` that ends after ``length`` gates (``arch`` itself for None).

    The lower bound is the number of causal slices among the marked ones
    that end by ``length``, so a slice the cut splits does not count; the
    upper bound is ``gauge_fixed_count`` of the prefix's gates, at most
    the cap, which is 4^n - 1 in unitary mode and the sphere dimension
    2 * 2^n - 1 in state mode.  A length that is not an integer in 0..R
    raises ValidationError.
    """
    end = arch.gate_count if length is None else _ends(arch, (length,))[0]
    return _bounds(arch, mode, end, _causal_stops(arch, end))


def _causal_stops(arch: Architecture, end: int) -> list[int]:
    """The stop of each causal slice (``is_causal_slice``) among the
    marked slices of ``arch`` that end by gate ``end``."""
    return [stop for start, stop in arch.slice_ranges()
            if stop <= end and is_causal_slice(arch, start, stop) is not None]


def _bounds(arch: Architecture, mode: str, end: int,
            stops: list[int]) -> tuple[int, int, int]:
    """``dimension_bounds`` of the prefix of ``arch`` that ends after
    ``end`` gates, from the causal slices' ``stops`` (``_causal_stops``
    up to ``end`` or further)."""
    lower = sum(1 for stop in stops if stop <= end)
    cap = saturation_threshold(arch.n, mode)
    touched = len({q for gate in arch.gates[:end] for q in gate})
    return lower, min(_gauge_fixed(end, touched), cap), cap


def _sample_json(e: RankEstimate) -> dict:
    entry = {
        "loose_rank": e.loose_rank,
        "tight_rank": e.tight_rank,
        "status": e.gap_description(),
        "route": e.route,
    }
    if e.route == "gram":
        entry.update(sigma_max_upper=e.sigma_max_upper,
                     sigma_min_lower=e.sigma_min_lower)
    else:
        entry["sigma_max"] = float(e.singular_values[0]) \
            if e.singular_values.size else 0.0
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
        """One row per singular value of each sample; a report made without
        ``spectrum=True`` whose gram route held no spectrum raises
        ValueError."""
        if any(e.singular_values is None for e in self.estimates):
            raise ValueError("a gram-route sample holds no spectrum; "
                             "make the report with spectrum=True")
        lines = ["sample,index,singular_value"]
        for i, e in enumerate(self.estimates):
            for idx, val in enumerate(e.singular_values):
                lines.append(f"{i},{idx},{float(val)!r}")
        return "\n".join(lines) + "\n"


def accessible_dimensions(arch: Architecture, mode: str = "unitary",
                          samples: int = 5, seed: int = 0,
                          tolerances: tuple[float, float] = DEFAULT_TOLERANCES,
                          *, spectrum: bool = False,
                          prefixes: Sequence[int] | None = None,
                          ) -> tuple[RankReport, ...]:
    """Consensus Jacobian ranks of the prefixes of ``arch`` that end after
    ``prefixes`` gates and of ``arch`` itself (``_ends``; ``arch`` alone
    for None), one report each in gate-count order, over shared Haar
    samples.

    Sample i draws ``GateAssignment.haar(arch, subseed(seed, i))`` once.
    A prefix of R gates reads its first R gates, which are, bit for bit,
    the draw ``haar`` makes for the prefix's own architecture from that
    seed, since the gates are drawn from one stream in order.  One frame
    per sample serves every prefix (``tangent_frame`` with ``prefixes``):
    each takes its own column block (``TangentFrame.prefix``), and its
    estimate is the one ``numerical_rank`` gives that block.  The frame
    reads its Gram matrix once when some prefix's frame is tall, and
    forms its matrix once when a wide one or a failed certificate first
    reads it.  Each report carries its prefix's gate count and bounds
    (``dimension_bounds``), whose lower bounds read each marked slice's
    causal flag once (``_causal_stops``).

    The samples go in draw batches of ``_draw`` samples, each swept in
    sweep batches of ``_batch`` samples, as many as fit in
    ``_STACK_CHUNK`` and at least one.  One ``haar`` call draws a draw
    batch's stack, with one validation, and one ``transfer_matrices``
    call builds its transfers (in unitary mode).  One ``tangent_frame``
    call makes each sweep batch's stacked frame from its samples of the
    draw (``GateAssignment._samples``), whose frame takes their slice of
    the draw's transfers (``_Binding.batch``); ``_decide`` then decides
    all its samples with one call per prefix: one certificate over the
    stack of the samples' Gram blocks of each tall prefix, and one over
    their row Gram matrices of each wide prefix, for the samples of each
    matrix sweep (``_matrix_batch``), before the SVD of each sample
    whose certificate fails.  Each sweep
    batch is dropped before the next one is framed, and the draw batch
    before the next one is drawn, so a frame over the chunk goes one
    sample a sweep.  A unitary consensus sweeps every sweep batch through
    one program of its Gram plan (``_Binding``, which ``tangent_frame``
    reads from ``_CONSENSUS``): the one the thread keeps for the plan and
    the batch size (``_Store``), bound by the first consensus that needs
    it, so that a repeat consensus binds nothing; a last batch of fewer
    samples takes its own.  The program, arena and all, lives through the
    batches' certificates; before any matrix sweep a consensus that grew
    the kept buffers drops them (``_Binding.drop``).  Every estimate is
    the one a sample's own frame gives, bit for bit.

    For each prefix all samples must agree at both tolerances; any
    disagreement is surfaced as an inconclusive report, never averaged
    away.  ``spectrum`` asks for every sample's singular values, as
    ``numerical_rank`` gives them, which ``RankReport.spectra_csv``
    writes.  A union frame whose
    estimate (``peak_bytes`` with the prefixes) is over ``MEMORY_BUDGET``
    raises SizeLimit; a tolerance pair ``numerical_rank`` would refuse, a
    sample count that is not an integer of at least 3, a seed that is not
    a nonnegative integer (``subseed``), or a prefix length that is not an
    integer in 0..R raises ValidationError; all before the first sample is
    drawn.
    """
    check_mode(mode)
    if check_int(samples, "samples") < 3:
        raise ValidationError(f"need at least 3 samples, got {samples}")
    _check_tolerances(tolerances)
    ends = _ends(arch, prefixes)
    _check_size(arch, mode, ends, samples)
    estimates: list[list[RankEstimate]] = [[] for _ in ends]
    batch = _batch(arch, mode, ends)[0]
    draw = _draw(arch, batch)
    chunk = _matrix_batch(arch, ends)[0] if mode == "unitary" else batch
    with _Binding() as binding:
        for lo in range(0, samples, draw):
            gates = GateAssignment.haar(arch, [
                subseed(seed, i) for i in range(lo, min(lo + draw, samples))])
            transfers = transfer_matrices(gates) if mode == "unitary" \
                else None
            for at in range(0, gates.samples, batch):
                part = gates._samples(at, at + batch)
                binding.batch = part, None if transfers is None \
                    else transfers[at:at + batch]
                stack = tangent_frame(arch, part, mode, ends)
                for row, found in zip(estimates, _decide(
                        stack, ends, tolerances, spectrum, chunk)):
                    row.extend(found)
                del stack  # before the next sweep batch is framed
            binding.batch = None
            del gates, transfers, part  # before the next batch is drawn
    stops = _causal_stops(arch, ends[-1])
    return tuple(_consensus(arch, length, mode, seed, tolerances, tuple(row),
                            _bounds(arch, mode, length, stops))
                 for length, row in zip(ends, estimates))


def _consensus(arch: Architecture, length: int, mode: str, seed: int,
               tolerances: tuple[float, float],
               estimates: tuple[RankEstimate, ...],
               bounds: tuple[int, int, int]) -> RankReport:
    """The report of the per-sample estimates of the prefix of ``arch``
    that ends after ``length`` gates, with its ``bounds``
    (``dimension_bounds``): their consensus if every one is conclusive
    and all agree, else the first reason not."""
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
    lower, upper, cap = bounds
    return RankReport(
        n=arch.n, gate_count=length, mode=mode,
        samples=len(estimates), seed=seed, tolerances=tolerances,
        estimates=estimates, consensus=consensus,
        inconclusive=reason is not None, inconclusive_reason=reason,
        lower_bound=lower, upper_bound=upper, cap=cap,
    )


def accessible_dimension(arch: Architecture, mode: str = "unitary",
                         samples: int = 5, seed: int = 0,
                         tolerances: tuple[float, float] = DEFAULT_TOLERANCES,
                         *, spectrum: bool = False) -> RankReport:
    """Consensus Jacobian rank over independent Haar-random gate
    assignments: ``accessible_dimensions`` of ``arch`` alone.

    Per-sample seeds derive from ``seed`` by counter.  It refuses what
    ``accessible_dimensions`` refuses, before the first sample is drawn.
    """
    return accessible_dimensions(arch, mode, samples, seed, tolerances,
                                 spectrum=spectrum)[0]
