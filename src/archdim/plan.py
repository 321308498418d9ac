"""The plans of unitary frame sweeps: what a sweep does that the gates do
not change.

Both frame modes take their columns from one cached gauge-fixed record
(``_gauge``).  A unitary frame's columns sit in groups by their forward
light cones (``_frame_plan``).  The frame's Gram matrix, for the rank, is
read off two half sweeps that meet at one gate: the forward sweep over the
gates before it and a backward one, with the transposed transfer
matrices, over the rest; a join multiplies the columns the two halves hold
there.  The plan picks the gate from its multiply-add counts
(``_split_point``), and the last gate means the forward sweep alone.  A
sweep that only reads the Gram matrix drops each wire from the cones once
it has passed the wire's gates, and every sweep holds its groups in one
arena laid out by the plan.  Each unitary sweep reads a cached plan with
one job, the Gram plan's read or the matrix plan's frame, which compiles
all of that sweep the gates do not change (``_compile``).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .architecture import Architecture
from .pauli import TWO_QUBIT_GENERATORS

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

# _SWAPPED[L]: the label L of a gate on wires (a, b) read with b leading.
_SWAPPED = np.array([4 * (label % 4) + label // 4 for label in range(16)])


def _count(cols: slice | np.ndarray) -> int:
    """The number of columns a ``_gauge`` row selects."""
    if isinstance(cols, slice):
        return len(range(cols.start, cols.stop, cols.step))
    return cols.size


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
    entry's place there.  ``meet`` counts the strings 4^m of the widest
    meet of m wires among the ``joins`` (0 without a join), which the
    Gram read's error bound takes (``_unitary_frame``).  ``tables`` bounds
    the bytes of the compiled tables the plan keeps, ``index`` among them.
    ``width`` counts the columns of ``gates``, the C of the Gram matrix a
    Gram plan reads or of the matrix a matrix plan forms.  Which columns a
    gate keeps is not the plan's: both plans read them from ``_gauge``.
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
    meet: int
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
        width=starts[-1], joins=tuple(joins), final=final, tables=tables,
        meet=max((4 ** len(join.meet) for join in joins), default=0))


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
