"""The array work of unitary frame sweeps in the Pauli basis.

Each gate acts as a real orthogonal 16 x 16 transfer matrix
(``transfer_matrices``) on the columns of the groups its plan (``plan``)
moves.  Binding a plan to a batch of samples (``_bind``) makes its arrays
and views once, so that a sweep (``_sweep``) is a flat loop of array
calls: a Gram plan's sweep stages what its reads and joins take, which
``_gram_read`` scatters into the Gram matrices, and the last groups of a
matrix plan's sweep form the frames' 4^n x C matrices (``_assemble``).
A thread's store (``_Store``) runs every frame's Gram reads and matrix
sweeps.  It keeps the Gram plan's bound sweep per batch size across its
consensuses, all carved from one reused pair of buffers, so that a repeat
consensus binds nothing; the store is lent to the consensus in progress,
and a Gram read outside one binds a program of its own.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Callable
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .dense import apply_gate_right
from .pauli import TWO_QUBIT_GENERATOR_MATS
from .plan import _Block, _Cone, _Feed, _FramePlan, _cone_index

if TYPE_CHECKING:  # annotations only: contraction imports this module
    from .contraction import GateAssignment

_GENERATOR_STACK = np.stack(TWO_QUBIT_GENERATOR_MATS)  # (15, 4, 4)

# A thread keeps at most this many Gram programs across consensuses
# (``_Store``), in buffers of at most this many bytes: dim-wide's shapes
# keep four.
_KEPT_PROGRAMS = 8
_KEPT_CAP = 16 * 2 ** 20

# The 16 two-qubit Pauli matrices in label order, identity first.
_PAULI_STACK = np.concatenate([np.eye(4, dtype=complex)[None],
                               _GENERATOR_STACK])


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
    """The one runner of a thread's frame sweeps: it binds (``_bind``),
    sweeps and frees every Gram read (``gram_read``) and matrix sweep
    (``matrices``), for a lone frame and for a consensus's sweep batches
    alike, so that each follows the memory phases ``peak_bytes`` counts.

    It keeps bound Gram sweeps across consensuses by Gram plan and
    transfer-stack shape (frames of several lengths can share a head's
    plan), all carved from two buffers: one for arenas, scratch and
    transfers, one for the Gram stacks a frame holds through its matrix
    sweeps.  One program sweeps at a time and a consensus drops its
    frames before it returns, so the programs share the bytes the largest
    needs.  A program that does not fit grows the buffers and drops every
    program; one over ``_KEPT_CAP`` is bound for its consensus alone
    (``own``).  At most ``_KEPT_PROGRAMS`` stay, the oldest going first.

    As a context manager the store is lent to the consensus in progress
    (``lent``), whose frames, one per sweep batch, read their Gram
    matrices through the kept program or the consensus's own, whose Gram
    stack the frame holds until the next sweep batch's sweep.  The lease
    holds the consensus's own program and whether the consensus grew the
    buffers (``grew``); when the consensus ends, or raises, the own
    program goes, the kept ones stay and ``grew`` is reset.  A Gram read
    outside a consensus binds a program for that read alone and frees it
    but for its Gram stack, which the frame keeps and which shares no
    memory with the buffers.  Every matrix sweep first drops the own
    program, and the buffers with every kept program if this consensus
    grew them, as ``peak_bytes`` counts; then it binds the matrix plan,
    sweeps, lets the arena's rest go and assembles the matrices.

    Beside the buffers, which ``kept`` counts, a program's views and call
    tuples take about 500 bytes a call: 165 KB for brickwork(6, 1)'s 331
    calls, 215 KB for the four programs dim-wide keeps (tracemalloc).  A
    kept program holds its plan, also once ``_frame_plan`` has dropped
    it, until the program goes."""

    def __init__(self) -> None:
        self.lent, self.grew = False, False
        self.own: _Program | None = None
        self.release()

    def __enter__(self) -> _Store:
        self.lent, self.grew = True, False
        return self

    def __exit__(self, *exc: object) -> None:
        self.lent, self.grew, self.own = False, False, None

    def release(self) -> None:
        """Drop every kept program and both buffers."""
        self.programs: dict[tuple[_FramePlan, tuple[int, ...]],
                            _Program] = {}
        self.buffers = np.empty(0), np.empty(0)

    @property
    def kept(self) -> int:
        """The bytes the buffers hold."""
        return sum(buffer.nbytes for buffer in self.buffers)

    def gram_read(self, plan: _FramePlan,
                  transfers: np.ndarray) -> np.ndarray:
        """``_gram_read`` by the program of ``plan`` over a stack of the
        shape of ``transfers``: lent, the kept one, or the consensus's own,
        bound first if it is neither; not lent, one bound for this read."""
        if not self.lent:
            return _gram_read(_bind(plan, transfers), transfers)
        program = self.programs.get((plan, transfers.shape), self.own)
        if program is None or program.plan is not plan \
                or program.transfers.shape != transfers.shape:
            self.own = None  # an arena of this consensus alone goes
            program = self._bind(plan, transfers)
        return _gram_read(program, transfers)

    def _bind(self, plan: _FramePlan, transfers: np.ndarray) -> _Program:
        """Bind ``plan`` over a stack of the shape of ``transfers``: kept,
        growing the buffers if it does not fit them, or over ``_KEPT_CAP``
        as the consensus's own."""
        need = (sum(_footprint(plan, len(transfers))) + transfers.size,
                len(transfers) * plan.width ** 2)
        if 8 * sum(need) > _KEPT_CAP:
            self.own = _bind(plan, np.empty_like(transfers))
            return self.own
        if any(size > buffer.size for size, buffer in zip(need, self.buffers)):
            # the old buffers go before the new ones
            sizes = [max(size, buffer.size)
                     for size, buffer in zip(need, self.buffers)]
            sizes = sizes if 8 * sum(sizes) <= _KEPT_CAP else need
            self.release()
            # a block of their size, made and freed first, raises glibc's
            # mmap threshold, as freeing each consensus's own arena did:
            # without it temporaries over 128 KiB get new pages each time
            np.empty(sum(sizes))
            self.buffers = tuple(np.empty(size) for size in sizes)
            self.grew = True
        elif len(self.programs) >= _KEPT_PROGRAMS:
            del self.programs[next(iter(self.programs))]
        program = self.programs[plan, transfers.shape] = _bind(
            plan, transfers, self.buffers)
        return program

    def matrices(self, n: int, plan: _FramePlan,
                 transfers: np.ndarray) -> np.ndarray:
        """The S x 4^n x C frames of the S samples of ``transfers`` by one
        sweep of the matrix plan ``plan`` (``_assemble``), after the drop
        the class describes."""
        self.own = None
        if self.grew:
            self.release()
        program = _bind(plan, transfers)
        _sweep(program, program.transfers)
        final = program.final
        del program  # the arena's rest goes before the matrix is formed
        return _assemble(n, plan.width, final, len(transfers))


# Each thread's sweep runner and kept Gram programs (``_Store``).
_STORE = _Store()
