"""A thread keeps its consensuses' bound Gram sweeps from one consensus to
the next (``sweep._Store``): a repeat consensus binds nothing, the
kept buffers count in the admission and stay under the cap, and every
estimate is the one a consensus on a cleared store gives, bit for bit.
The store is lent to one consensus at a time, which checks its size once,
and comes back when the consensus returns or raises; a frame made outside
a consensus never sweeps through it."""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import archdim.plan
import archdim.sweep
from archdim import (GateAssignment, SizeLimit, accessible_dimensions,
                     build_family, random_adjacent, staircase, tangent_frame)
from archdim import contraction
from archdim.contraction import peak_bytes
from test_contraction import _OBJECT_SLACK
from test_stacked_frames import (_arena, _bits, _count_binds,
                                 _estimate_bits, _recorded_grams)

# (architecture, prefixes) of the consensuses that share one store, the
# first again last: two Gram plans at one sample a batch and at three,
# and a union whose wide prefixes run a matrix sweep
SEQUENCE = [(build_family("brickwork", 6, 1), None),
            (build_family("staircase", 6, 2), None),
            (staircase(3, 6), staircase(3, 6).slice_boundaries),
            (build_family("brickwork", 6, 1), None)]


def _consensus(monkeypatch, arch, prefixes, samples=5, seed=2):
    """Each sample's estimate of each prefix of a consensus, by its bits,
    with the Gram matrix and ``gram_error`` its frame was decided on."""
    with monkeypatch.context() as patch:
        seen = _recorded_grams(patch)
        reports = accessible_dimensions(arch, "unitary", samples, seed,
                                        prefixes=prefixes)
    return ([_estimate_bits(e) for report in reports
             for e in report.estimates],
            [(_bits(gram), _bits(error)) for gram, error in seen])


def test_kept_programs_give_a_cleared_store_s_estimates(monkeypatch):
    # each consensus first on a cleared store, then in turn on the store
    # the ones before it kept, then again with the kept buffers filled
    # with NaN: a sweep reads no entry it has not written
    want = []
    for arch, prefixes in SEQUENCE:
        archdim.sweep._STORE.release()
        want.append(_consensus(monkeypatch, arch, prefixes))
    for poison in (False, True):
        for (arch, prefixes), one in zip(SEQUENCE, want):
            if poison:
                for buffer in archdim.sweep._STORE.buffers:
                    buffer.fill(np.nan)
            assert _consensus(monkeypatch, arch, prefixes) == one
    assert archdim.sweep._STORE.programs


def test_a_repeat_consensus_binds_nothing(monkeypatch):
    # staircase(6, 2) takes three samples a sweep batch: three samples bind
    # once, again none, and five (3 and 2) and four (3 and 1) bind the
    # one batch size each adds
    arch = build_family("staircase", 6, 2)
    assert contraction._batch(arch, "unitary", (arch.gate_count,))[0] == 3
    bound = _count_binds(monkeypatch)
    counts = []
    for samples in (3, 3, 5, 5, 4):
        accessible_dimensions(arch, "unitary", samples, 1)
        counts.append(len(bound))
    assert counts == [1, 1, 2, 2, 3]
    assert {shape[0] for _, shape in archdim.sweep._STORE.programs} \
        == {1, 2, 3}


def _never_drawn(arch, seeds):
    raise AssertionError("a refused consensus drew its samples")


def test_the_admission_counts_the_kept_buffers(monkeypatch):
    # brickwork(6, 1) leaves its 8 MB program kept; a staircase(6, 2)
    # consensus whose estimate fits a budget that the kept bytes would
    # overflow releases them first and runs, and one whose estimate
    # alone is over the budget is refused before any draw
    accessible_dimensions(build_family("brickwork", 6, 1), "unitary", 3, 1)
    kept = archdim.sweep._STORE.kept
    first = weakref.ref(archdim.sweep._STORE.buffers[0])
    assert kept > 8 * 2 ** 20
    arch = build_family("staircase", 6, 2)
    est = peak_bytes(arch, "unitary", samples=3)
    monkeypatch.setattr(contraction, "MEMORY_BUDGET", est + kept)
    accessible_dimensions(arch, "unitary", 3, 1)
    assert first() is not None
    assert archdim.sweep._STORE.kept == kept
    monkeypatch.setattr(contraction, "MEMORY_BUDGET", est + kept // 2)
    reports = accessible_dimensions(arch, "unitary", 3, 1)
    assert reports[0].consensus is not None
    assert first() is None
    assert archdim.sweep._STORE.kept < kept
    monkeypatch.setattr(contraction, "MEMORY_BUDGET", est - 1)
    monkeypatch.setattr(GateAssignment, "haar", _never_drawn)
    with pytest.raises(SizeLimit):
        accessible_dimensions(arch, "unitary", 3, 1)


def test_a_program_over_the_cap_goes_with_its_consensus(monkeypatch):
    # brickwork(6, 2)'s one-sample program takes about 24 MiB, over the
    # cap: it is bound for its consensus alone and gone after it, while
    # the buffers staircase(6, 2) left stay kept
    accessible_dimensions(build_family("staircase", 6, 2), "unitary", 3, 1)
    buffers = [weakref.ref(buffer) for buffer in archdim.sweep._STORE.buffers]
    programs = dict(archdim.sweep._STORE.programs)
    arch = build_family("brickwork", 6, 2)
    head = archdim.plan._tall_head(arch, (arch.gate_count,))
    assert contraction._batch(arch, "unitary", (arch.gate_count,))[0] == 1
    assert 8 * (sum(archdim.sweep._footprint(head, 1)) + 256 * len(head.gates)
                + head.width ** 2) > archdim.sweep._KEPT_CAP
    arenas = []
    bind = archdim.sweep._bind

    def watched_bind(plan, transfers, *kept):
        program = bind(plan, transfers, *kept)
        arenas.append(weakref.ref(_arena(program)))
        return program

    monkeypatch.setattr_everywhere(archdim.sweep, "_bind", watched_bind)
    report, = accessible_dimensions(arch, "unitary", 3, 1)
    assert [e.route for e in report.estimates] == ["gram"] * 3
    assert len(arenas) == 1 and arenas[0]() is None
    assert all(buffer() is not None for buffer in buffers)
    assert archdim.sweep._STORE.programs.keys() == programs.keys()


def _estimates(arch, prefixes, seed):
    """Each sample's estimate of each prefix of a five-sample consensus,
    by its bits."""
    return [_estimate_bits(e) for report in accessible_dimensions(
        arch, "unitary", 5, seed, prefixes=prefixes)
        for e in report.estimates]


def test_two_threads_keep_their_own_programs():
    # two threads run consensuses on two shapes at once, each on its own
    # store, and get the estimates of the same consensuses run in turn
    shapes = [(build_family("staircase", 6, 2), None),
              (staircase(3, 6), staircase(3, 6).slice_boundaries)]
    want = [[_estimates(*shape, seed) for seed in (1, 2, 3)]
            for shape in shapes]
    mine = archdim.sweep._STORE.buffers
    start = threading.Barrier(2)
    got: list = [None, None]
    kept: list = [None, None]

    def run(i):
        start.wait()
        got[i] = [_estimates(*shapes[i], seed) for seed in (1, 2, 3)]
        kept[i] = archdim.sweep._STORE.buffers

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == want
    assert archdim.sweep._STORE.buffers is mine
    assert len({id(buffers[0]) for buffers in [mine] + kept}) == 3


def test_frames_that_share_a_head_keep_a_program_each(monkeypatch):
    # the unions over staircase(2, 2) and (2, 3) read one head's Gram plan
    # over transfer stacks of 2 and 3 gates: on the buffers staircase(6,
    # 2) left kept, which hold them through their matrix sweeps, each
    # keeps its own program and gives a cleared store's estimates
    shapes = [(staircase(2, t), staircase(2, t).slice_boundaries)
              for t in (2, 3)]
    heads = {archdim.plan._tall_head(arch, contraction._ends(arch, prefixes))
             for arch, prefixes in shapes}
    assert len(heads) == 1
    want = []
    for shape in shapes:
        archdim.sweep._STORE.release()
        want.append(_consensus(monkeypatch, *shape, samples=3))
    accessible_dimensions(build_family("staircase", 6, 2), "unitary", 3, 1)
    for shape, one in zip(shapes * 2, want * 2):
        assert _consensus(monkeypatch, *shape, samples=3) == one
    assert len([plan for plan, _ in archdim.sweep._STORE.programs
                if plan in heads]) == 2


@pytest.mark.parametrize("arch, prefixes, sweeps", [
    pytest.param(staircase(3, 6), staircase(3, 6).slice_boundaries, 1,
                 id="union-staircase-3-1..6"),
    pytest.param(random_adjacent(6, 30, 1), None, 3, id="random-6-30-1")])
def test_a_consensus_holds_found_buffers_under_its_estimate(arch, prefixes,
                                                            sweeps,
                                                            monkeypatch):
    # brickwork(6, 1) leaves its buffers kept; a consensus whose program
    # fits them binds there and holds them through its matrix sweeps (the
    # union's wide prefixes', each failed certificate's of random_adjacent
    # (6, 30, 1)), and with them stays under its estimate plus the kept
    # bytes.  The trace starts before the buffers are made, so it counts
    # them.
    held = []
    sweep = archdim.sweep._sweep

    def watched_sweep(program, transfers):
        if program.gram is None:
            held.append(all(buffer() is not None for buffer in buffers))
        return sweep(program, transfers)

    tracemalloc.start()
    try:
        accessible_dimensions(build_family("brickwork", 6, 1), "unitary", 3,
                              1)
        buffers = [weakref.ref(buffer)
                   for buffer in archdim.sweep._STORE.buffers]
        kept = archdim.sweep._STORE.kept
        other = tracemalloc.get_traced_memory()[0] - kept
        tracemalloc.reset_peak()
        monkeypatch.setattr_everywhere(archdim.sweep, "_sweep", watched_sweep)
        accessible_dimensions(arch, "unitary", 3, 3, prefixes=prefixes)
        peak = tracemalloc.get_traced_memory()[1] - other
    finally:
        tracemalloc.stop()
    assert held == [True] * sweeps
    assert [buffer() for buffer in buffers] \
        == list(archdim.sweep._STORE.buffers)
    assert peak <= peak_bytes(arch, "unitary", prefixes, samples=3) + kept \
        + _OBJECT_SLACK


def test_a_thread_keeps_a_bounded_number_of_programs(monkeypatch):
    # on the buffers brickwork(6, 1) left, consensuses bind more Gram
    # programs than the store keeps: it holds the latest _KEPT_PROGRAMS,
    # and the first consensus, run again, binds again
    accessible_dimensions(build_family("brickwork", 6, 1), "unitary", 3, 1)
    archs = [staircase(4, t) for t in range(1, 3)] \
        + [staircase(5, t) for t in range(1, 5)] \
        + [staircase(6, t) for t in range(1, 4)]
    buffers = archdim.sweep._STORE.buffers
    bound = _count_binds(monkeypatch)
    for arch in archs:
        accessible_dimensions(arch, "unitary", 3, 1)
    assert len(bound) > archdim.sweep._KEPT_PROGRAMS
    assert archdim.sweep._STORE.buffers is buffers
    assert [plan for plan, _ in archdim.sweep._STORE.programs] \
        == bound[-archdim.sweep._KEPT_PROGRAMS:]
    rebound = len(bound)
    accessible_dimensions(archs[0], "unitary", 3, 1)
    assert len(bound) > rebound


@pytest.mark.parametrize("family, n, t", [("brickwork", 6, 1),
                                          ("staircase", 6, 2),
                                          ("staircase", 7, 1)])
def test_a_consensus_checks_its_size_once(family, n, t, monkeypatch):
    # brickwork(6, 1) takes three sweep batches, staircase(6, 2) and (7, 1)
    # one each: the consensus's own check covers them all, while a lone
    # frame checks its stack once
    arch = build_family(family, n, t)
    estimate = contraction._peak_bytes
    checks = []

    def counted(*args, **kwargs):
        checks.append(args[1])
        return estimate(*args, **kwargs)

    monkeypatch.setattr(contraction, "_peak_bytes", counted)
    accessible_dimensions(arch, "unitary", 3, 1)
    assert checks == ["unitary"]
    tangent_frame(arch, GateAssignment.haar(arch, 1))
    assert checks == ["unitary"] * 2


def test_a_lone_frame_never_uses_the_kept_store():
    # a lone frame of the shape a consensus keeps a program for binds its
    # own: its Gram matrix lies outside the kept buffers and keeps its bits
    # through the next consensus, which sweeps through them
    arch = build_family("brickwork", 6, 1)
    accessible_dimensions(arch, "unitary", 3, 1)
    assert archdim.sweep._STORE.programs
    frame = tangent_frame(arch, GateAssignment.haar(arch, 5))
    assert not any(np.shares_memory(frame.gram, buffer)
                   for buffer in archdim.sweep._STORE.buffers)
    want = _bits(frame.gram)
    accessible_dimensions(arch, "unitary", 3, 2)
    assert _bits(frame.gram) == want


def test_a_lone_matrix_sweep_leaves_the_kept_store_alone():
    # staircase(6, 2)'s consensus grows the buffers of a released store;
    # a lone wide frame's matrix read after it, which sweeps through the
    # store, drops no kept program and no buffer: only a consensus drops
    # the buffers it grew
    accessible_dimensions(build_family("staircase", 6, 2), "unitary", 3, 1)
    store = archdim.sweep._STORE
    programs, buffers = dict(store.programs), store.buffers
    assert programs
    arch = staircase(3, 5)
    frame = tangent_frame(arch, GateAssignment.haar(arch, 2))
    assert frame.gram is None and frame.matrix.shape == (64, 99)
    assert store.programs == programs and store.buffers is buffers


def test_a_consensus_that_raises_returns_the_store(monkeypatch):
    # with the cap patched below brickwork(6, 1)'s program, its consensus
    # binds one of its own; a decision that raises on the second sweep
    # batch ends the lease: that program goes, the programs staircase(6, 2)
    # left stay, and a lone frame binds its own again
    accessible_dimensions(build_family("staircase", 6, 2), "unitary", 3, 1)
    programs = dict(archdim.sweep._STORE.programs)
    buffers = archdim.sweep._STORE.buffers
    assert programs
    monkeypatch.setattr(archdim.sweep, "_KEPT_CAP", 0)
    arch = build_family("brickwork", 6, 1)
    decide = contraction._decide
    own = []

    def failing(*args):
        if own:
            raise RuntimeError("planted")
        own.append(weakref.ref(_arena(archdim.sweep._STORE.own)))
        return decide(*args)

    monkeypatch.setattr(contraction, "_decide", failing)
    with pytest.raises(RuntimeError, match="planted"):
        accessible_dimensions(arch, "unitary", 3, 1)
    store = archdim.sweep._STORE
    assert not store.lent
    assert store.own is None and own[0]() is None
    assert store.programs == programs and store.buffers is buffers
    bound = _count_binds(monkeypatch)
    frame = tangent_frame(arch, GateAssignment.haar(arch, 5))
    assert bound == [archdim.plan._tall_head(arch, (arch.gate_count,))]
    assert store.own is None and store.programs == programs
    assert not any(np.shares_memory(frame.gram, buffer)
                   for buffer in store.buffers)
