"""Dense contraction of gate assignments, tangent frames and the Haar
consensus of their ranks.

The contraction map sends a list of two-qubit gates to the n-qubit unitary
obtained by slotting them into an architecture.  Perturbing gate j along a
two-qubit Pauli generator S_k moves the contracted unitary along the
direction K_{j,k} = Suffix_j S_k Suffix_j^dagger, with Suffix_j the product
of the gates after j.  The tangent frame collects the Pauli-basis expansion
of every K_{j,k} (or, in state mode, the real/imaginary parts of
i K_{j,k} |psi>); its numerical rank at independent Haar-random points is the
accessible dimension of the architecture, because the rank is constant off a
measure-zero set.  A unitary frame is built by sweeps in the Pauli basis
(``sweep``) that read cached plans (``plan``): it keeps its transfer
matrices, reads its Gram matrix, for the rank (``rank``), off the split
Gram sweep and forms its 4^n x C matrix, when it is read, by one forward
sweep that keeps every wire.  A state frame is built by a forward sweep over a stack
of state vectors.  A dense call whose estimated peak memory
(``peak_bytes``) exceeds ``MEMORY_BUDGET`` raises SizeLimit before it
allocates.

The prefixes of an architecture share its Haar draws and frames
(``accessible_dimensions`` with ``prefixes``): one frame over its gates,
with the union of the prefixes' gauge-fixed columns, serves each prefix as
a column block, since the later gates act on a prefix's columns by one
orthogonal map.

A consensus takes its Haar samples in draw batches, and sweeps each draw
batch in sweep batches inside it, both sized to fit in ``_STACK_CHUNK``:
one stacked draw (``GateAssignment.haar`` with a list of seeds) serves a
draw batch, and one sweep a sweep batch.  An assignment builds its
transfer matrices once, when a unitary frame first reads them
(``GateAssignment._transfers``): a draw batch on its first sweep batch's
frame, each sweep batch taking its slice.  Each array call serves every
sample at once with one sample's shapes, so that every sample's numbers
are those of its own frame, bit for bit.  A sweep batch's rank decisions
go one prefix at a time (``_decide``).  A consensus checks its size once
and borrows the thread's store (``sweep._Store``), which runs every
sweep, for its sweep batches; a frame made outside a consensus checks its
own size.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .architecture import Architecture, is_causal_slice
from .bounds import gauge_fixed_count, saturation_threshold
from .dense import apply_gate_left
from .errors import (CountMismatch, SizeLimit, ValidationError, check_int,
                     check_mode, check_seed)
from .plan import _count, _frame_plan, _gauge, _tall_head
from .rank import (DEFAULT_TOLERANCES, RankEstimate, TangentFrame,
                   _check_tolerances, _decide, _frame_rows, _gamma)
# bench/tracer.py wraps numerical_rank and pauli_coefficients by this
# module's name; neither is called here
from .rank import numerical_rank  # noqa: F401
from .sweep import _GENERATOR_STACK, _STORE, transfer_matrices
from .sweep import pauli_coefficients  # noqa: F401

MEMORY_BUDGET = 2 * 2 ** 30

# The state sweep applies a gate to its stack in column chunks of at most
# this many bytes, so that the allocator reuses the temporaries.  A
# consensus's sweep batch (``_batch``) and draw batch (``_draw``) and a
# matrix sweep (``_matrix_batch``) hold as many samples as fit in it, and
# at least one (``_fit``).
_STACK_CHUNK = 4 * 2 ** 20


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
    the certificates (``_Store``): the certificate (``_gram_estimate``)
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
    (``_draw``) take their slices of its draw and of the transfers it
    builds (``GateAssignment._transfers``)."""
    each = 16384 * arch.gate_count
    if mode == "state":
        each += 8 * _frame_rows(arch.n, mode) * _gauge(arch, ends)[2].shape[0]
    elif (head := _tall_head(arch, ends)) is not None:
        each += 8 * (head.width ** 2 + head.arena + head.scratch)
    return _fit(each), each


def _draw(arch: Architecture, batch: int) -> int:
    """The samples of a consensus's draw batch (``accessible_dimensions``),
    one stacked draw and, in unitary mode, one transfer build on its first
    sweep batch's frame (``GateAssignment._transfers``): as many whole
    sweep batches of ``batch`` samples (``_batch``) as fit in
    ``_STACK_CHUNK`` at 16 KiB per gate a sample, at least one.  A sweep
    batch's sample counts those 16 KiB too, so the draw batch holds at
    least one sweep batch, and the sweep batches keep the sizes they would
    have alone."""
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
    first drop the kept Gram programs (``_Store``) if the estimate and
    their bytes are over it."""
    est = _peak_bytes(arch, job, prefixes, samples, stack=stack)
    if est + _STORE.kept > MEMORY_BUDGET:
        _STORE.release()
    check_budget(est, MEMORY_BUDGET,
                 f"{job} on n={arch.n}, R={arch.gate_count} needs")


@dataclass(frozen=True, eq=False)
class GateAssignment:
    """Ordered 4x4 special unitaries filling an architecture's gate slots,
    or a stack of such assignments with a leading sample axis, which holds
    at least one sample.  It owns its transfer matrices (``_transfers``),
    built once, on their first read."""

    matrices: np.ndarray  # (R, 4, 4) or (S, R, 4, 4) complex
    # a consensus's sweep batch: its draw batch and its samples' range
    # there (``_samples``); None for any other assignment
    _draw = None

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
        they passed its validation, which is not run again.  It records
        its draw and range (``_draw``), so that its transfers are the
        slice of the stack's (``_transfers``)."""
        part = object.__new__(GateAssignment)
        object.__setattr__(part, "matrices", self.matrices[lo:hi])
        object.__setattr__(part, "_draw", (self, lo, hi))
        return part

    @functools.cached_property
    def _transfers(self) -> np.ndarray:
        """The gates' transfer matrices (``transfer_matrices``), built on
        the first read and kept: the one build of an assignment, or of a
        sweep batch's draw, whose slice it views (``_samples``)."""
        if self._draw is None:
            return transfer_matrices(self)
        draw, lo, hi = self._draw
        return draw._transfers[lo:hi]

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


def _unitary_frame(arch: Architecture, gates: GateAssignment,
                   ends: tuple[int, ...]) -> TangentFrame:
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
    the norms, with m the widest meet (``_FramePlan.meet``; gamma = 0
    without a join).  So every entry of the read Gram matrix is within
    (1 + gamma) (1 + rho)^R - 1 of M^T M's, and C times that bounds its
    Frobenius norm and its 2-norm (``gram_error``).  Pruning dead wires changes none of this: a dropped
    row never feeds a kept row, so every kept row is computed by the same
    transfers as before, and the bound holds as written.  A non-finite
    transfer stack gives no Gram matrix: every frame entry is a sum of
    products of the stack's entries, so a finite stack makes a finite
    frame.

    A frame one of whose prefixes (``ends``) is tall reads its Gram
    matrix through the thread's store (``_Store.gram_read``); any other
    frame reads none.  The frame takes its assignment's transfer stack
    (``GateAssignment._transfers``), built on the first read: a sweep
    batch's is its slice of its draw batch's.  The Gram plan's sweep
    covers the gates of the longest tall prefix, whose columns lead the
    frame's and hold every tall prefix's: the later gates act on them
    orthogonally, so their Gram matrix is the head's, and the bound above
    takes the head's gates and columns, those of its Gram plan
    (``_tall_head``).  Every frame takes its columns from ``_gauge`` and
    keeps its transfer stack (2 KiB per gate a sample; a sweep batch's
    slice keeps its draw's whole stack) for its matrices.

    The frame is stacked, over the samples of a stacked assignment or a
    stack of one: one transfer stack, one Gram sweep and one bound per
    sample serve them all, and ``TangentFrame.sample`` gives each sample's
    frame, whose matrix forms as ``TangentFrame`` says: the store sweeps
    ``_matrix_batch`` samples' matrices at a time (``_Store.matrices``).
    """
    _, _, record, own = _gauge(arch, ends)
    s = gates.samples or 1
    transfers = gates._transfers.reshape((s, arch.gate_count, 16, 16))
    defect = np.swapaxes(transfers, 2, 3) @ transfers - np.eye(16)
    taus = np.sqrt((defect * defect).sum(axis=(2, 3)).max(axis=1,
                                                          initial=0.0))
    gram, gram_error = None, np.zeros(s)
    head = _tall_head(arch, ends)
    if head is not None and np.isfinite(taus).any():
        eps = np.finfo(np.float64).eps
        join_term = np.log1p(_gamma(2 * head.meet))
        gram = _STORE.gram_read(head, transfers)
        gram_error = np.array([head.width * float(np.expm1(
            len(head.gates) * np.log1p(tau + 256 * eps) + join_term))
            for tau in taus])

    formed: dict[int, np.ndarray] = {}  # the last matrix sweep's samples
    batch = _matrix_batch(arch, ends)[0]

    def part(i: int) -> np.ndarray:
        if i not in formed:
            formed.clear()  # freed once their samples' frames are gone
            lo = i - i % batch
            formed.update(enumerate(_STORE.matrices(
                arch.n, _frame_plan(arch, ends), transfers[lo:lo + batch]),
                lo))
        return formed[i]

    return TangentFrame("unitary", arch.n, arch.gate_count, record, part,
                        gram, gram_error, dict(zip(ends, own)), s, batch)


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
    one transfer stack and one Gram sweep serve the stack, each array
    call for every sample at once, and the thread's store runs every
    sweep (``_Store``).  The transfers are the assignment's
    (``GateAssignment._transfers``): built on its first unitary frame and
    kept, so that a second frame builds none; a consensus's sweep batch
    takes its slice of its draw batch's, and its Gram sweep runs a program
    of the store lent to the consensus (``accessible_dimensions``).  State
    mode builds the samples' frames one after another.  One assignment
    gives its own frame, a stack of one's sample.  A frame checks its size
    (``peak_bytes`` of its stack) unless its assignment is a consensus's
    sweep batch (``GateAssignment._samples``), since the consensus's check
    covers the stacks it makes (``_batch``).
    """
    check_mode(mode)
    ends = _ends(arch, prefixes)
    if gates._draw is None:  # a consensus's frames are admitted once
        _check_size(arch, mode, ends, gates.samples or 1, stack=True)
    _require_match(arch, gates)
    frame = _unitary_frame(arch, gates, ends) \
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
    return TangentFrame("state", n, arch.gate_count, record,
                        matrix.__getitem__, prefixes=dict(zip(ends, own)),
                        samples=len(mats), _chunk=len(mats))


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
    return lower, min(gauge_fixed_count(arch, end), cap), cap


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
    batch's stack, with one validation.  One ``tangent_frame`` call makes
    each sweep batch's stacked frame from its samples of the draw
    (``GateAssignment._samples``); in unitary mode the first of them
    builds the draw's transfers, once (``GateAssignment._transfers``),
    and each takes its slice, while a state-mode consensus builds none.
    ``_decide`` then decides all its samples with one call per prefix:
    one certificate over the stack of the samples' Gram blocks of each
    tall prefix, and one over their row Gram matrices of each wide prefix,
    for the samples of each matrix sweep (``_matrix_batch``), before the
    SVD of each sample whose certificate fails.  Each sweep batch is
    dropped before the next one is framed, and the draw batch before the
    next one is drawn, so a frame over the chunk goes one sample a sweep.
    The consensus checks its size once, then borrows the thread's store
    (``_Store``) until it returns or raises, so that each
    ``tangent_frame`` call sweeps through it and, given a sweep batch,
    checks nothing; the store keeps its Gram programs and says when they
    go.  Every estimate is the
    one a sample's own frame gives, bit for bit.

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
    with _STORE:
        for lo in range(0, samples, draw):
            gates = GateAssignment.haar(arch, [
                subseed(seed, i) for i in range(lo, min(lo + draw, samples))])
            for at in range(0, gates.samples, batch):
                part = gates._samples(at, at + batch)
                stack = tangent_frame(arch, part, mode, ends)
                for row, found in zip(estimates, _decide(
                        stack, ends, tolerances, spectrum)):
                    row.extend(found)
                del stack  # before the next sweep batch is framed
            del gates, part  # before the next batch is drawn
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
