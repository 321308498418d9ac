"""Prefixes of one architecture share its Haar draws and one frame per
sample (``accessible_dimensions``), as the rows of a growth sweep do."""

import tracemalloc

import numpy as np
import pytest

import archdim.plan
import archdim.rank
import archdim.sweep
from archdim import (
    GateAssignment,
    SizeLimit,
    TooManySlices,
    ValidationError,
    accessible_dimension,
    accessible_dimensions,
    brickwork,
    build_family,
    growth_sweep,
    numerical_rank,
    random_adjacent,
    staircase,
    subseed,
    tangent_frame,
    witness_point,
    witness_rank,
)
from archdim import contraction, experiments, witness
from archdim.architecture import Architecture
from archdim.bounds import gauge_fixed_count
from archdim.contraction import dimension_bounds, frame_shape, peak_bytes
from test_contraction import SWEEP_CASES

# prefix chains of the frame tests' shapes
CHAINS = [
    pytest.param(lambda: [staircase(3, t) for t in range(1, 5)],
                 id="staircase-3-1..4"),
    pytest.param(lambda: [brickwork(4, rounds) for rounds in range(1, 5)],
                 id="brickwork-4-1..4"),
    pytest.param(lambda: [random_adjacent(6, r, 4) for r in range(14, 23)],
                 id="random-6-14..22")]

# Python objects (reports, estimates, plan caches' keys) that do not scale
# with the arrays the estimate counts.
_OBJECT_SLACK = 2 ** 16


def _lengths(archs):
    return [arch.gate_count for arch in archs]


def _row_kind(rows):
    """How a plan table takes its rows: a gather, a stride or a slice."""
    if isinstance(rows, np.ndarray):
        return "gather"
    return "slice" if rows.step in (None, 1) else "stride"


def test_the_random_chain_reaches_every_path_of_the_union_frame():
    # the chain tests stand for the paper's random regime, so the chain
    # must keep the paths a longer one takes: a Gram read split between
    # its halves, joins and reads over every kind of row table, one sample
    # a sweep batch but several a draw batch, gathered own columns, and an
    # SVD below the column count on every prefix
    archs = CHAINS[-1].values[0]()  # the random chain
    arch = archs[-1]
    ends = contraction._ends(arch, _lengths(archs))
    head = archdim.plan._tall_head(arch, ends)
    assert 0 < head.split < len(head.gates)
    joins = {(_row_kind(join.ahead_rows), _row_kind(join.behind_rows))
             for join in head.joins}
    assert joins >= {("gather", "slice"), ("slice", "gather"),
                     ("slice", "slice"), ("slice", "stride"),
                     ("stride", "slice")}
    assert {_row_kind(move.read) for step in head.steps for move in step
            if move.read is not None} == {"gather", "slice", "stride"}
    assert contraction._batch(arch, "unitary", ends)[0] == 1
    assert contraction._draw(arch, 1) > 1
    assert any(isinstance(cols, np.ndarray)
               for cols in archdim.plan._gauge(arch, ends)[3])
    union = tangent_frame(arch, GateAssignment.haar(arch, 21),
                          prefixes=_lengths(archs))
    for length in ends:
        row = union.prefix(length)
        estimate = numerical_rank(row)
        assert estimate.route == "svd"
        assert max(estimate.loose_rank, estimate.tight_rank) \
            < row.columns.shape[0]


def _never_drawn(*args):
    raise AssertionError("sampled before the input was checked")


@pytest.mark.parametrize("build", CHAINS)
def test_a_prefix_draws_the_first_gates_of_a_longer_draw(build):
    archs = build()
    longest = archs[-1]
    for seed in (0, 7, subseed(3, 2)):
        drawn = GateAssignment.haar(longest, seed).matrices
        for arch in archs:
            assert np.array_equal(GateAssignment.haar(arch, seed).matrices,
                                  drawn[:arch.gate_count])


@pytest.mark.parametrize("prefixes, match", [
    ([-1], "outside"), ([2, 7], "outside"), ([2.0], "prefix length")],
    ids=["negative", "past-the-end", "not-an-integer"])
def test_the_consensus_refuses_a_length_that_names_no_prefix(prefixes, match,
                                                             monkeypatch):
    monkeypatch.setattr(GateAssignment, "haar", _never_drawn)
    with pytest.raises(ValidationError, match=match):
        accessible_dimensions(staircase(3, 3), "unitary", 3, 1,
                              prefixes=prefixes)


def _gram_gap(a, b):
    return np.linalg.norm(a - b, 2) if a.size else 0.0


@pytest.mark.parametrize("build", CHAINS)
def test_each_prefix_of_a_union_frame_matches_its_own_frame(build):
    # at one Haar point: a tall prefix's Gram block agrees with its own
    # frame's Gram read within both bounds, a wide one's singular values
    # to 1e-12 sigma_max, and the ranks and routes are equal
    archs = build()
    longest = archs[-1]
    gates = GateAssignment.haar(longest, 21)
    union = tangent_frame(longest, gates, prefixes=_lengths(archs))
    rows, cols = frame_shape(longest, "unitary", _lengths(archs))
    assert union.columns.shape[0] == cols \
        >= frame_shape(longest, "unitary")[1]
    assert union.gram is not None  # the shortest prefix is tall
    for arch in archs:
        row = union.prefix(arch.gate_count)
        own = tangent_frame(arch, GateAssignment(
            gates.matrices[:arch.gate_count]))
        assert row.gate_count == arch.gate_count
        assert np.array_equal(row.columns, own.columns)
        got = numerical_rank(row, spectrum=True)
        want = numerical_rank(own, spectrum=True)
        assert (got.route, got.loose_rank, got.tight_rank) \
            == (want.route, want.loose_rank, want.tight_rank)
        if own.gram is None:
            assert row.gram is None and own.columns.shape[0] >= rows
            assert np.abs(got.singular_values - want.singular_values).max() \
                <= 1e-12 * want.singular_values[0]
        else:
            assert row.gram_error == pytest.approx(
                union.gram_error * len(row.gram) / len(union.gram),
                rel=1e-14)
            assert _gram_gap(row.gram, own.gram) \
                <= row.gram_error + own.gram_error


@pytest.mark.parametrize("archs", [
    [staircase(3, t) for t in range(1, 5)],
    [brickwork(4, rounds) for rounds in range(1, 5)],
    [staircase(5, t) for t in range(1, 4)]],
    ids=["staircase-3-1..4", "brickwork-4-1..4", "staircase-5-1..3"])
def test_a_prefix_gram_block_is_within_its_scaled_bound(archs):
    # a tall prefix's block of C_t of the head's C_head columns carries
    # C_t / C_head of the head's gram_error, and stays within it of the
    # dense M^T M of its own columns
    gates = GateAssignment.haar(archs[-1], 12)
    union = tangent_frame(archs[-1], gates, prefixes=_lengths(archs))
    head = len(union.gram)
    blocks = 0
    for arch in archs:
        row = union.prefix(arch.gate_count)
        if row.gram is None:
            continue
        cols = len(row.gram)
        assert union.gram_error * cols / head <= row.gram_error \
            <= union.gram_error * cols / head * (1 + 1e-14)
        assert (row.gram_error < union.gram_error) == (cols < head)
        assert _gram_gap(row.gram, row.matrix.T @ row.matrix) \
            <= row.gram_error
        blocks += 1
    assert blocks >= 2


def test_a_sweep_past_the_slice_cap_refuses_before_its_first_draw(
        monkeypatch):
    # state mode caps n = 2 at 6 slices: the last row, T = 15, is refused
    # before the shared consensus draws a gate
    drawn = []
    haar = GateAssignment.haar

    def counted(arch, seeds):
        drawn.extend(seeds)
        return haar(arch, seeds)

    monkeypatch.setattr(GateAssignment, "haar", counted)
    with pytest.raises(TooManySlices, match="below 7 for n=2, got 15"):
        growth_sweep(2, "staircase", 15, 3, 5, "state")
    assert drawn == []
    assert len(growth_sweep(2, "staircase", 6, 3, 5, "state")) == 6
    assert len(drawn) == 3


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_a_state_or_unitary_prefix_keeps_its_singular_values(mode):
    archs = [staircase(3, t) for t in range(1, 5)]
    gates = GateAssignment.haar(archs[-1], 8)
    union = tangent_frame(archs[-1], gates, mode, _lengths(archs))
    for arch in archs:
        own = tangent_frame(arch, GateAssignment(
            gates.matrices[:arch.gate_count]), mode)
        got = np.linalg.svd(union.prefix(arch.gate_count).matrix,
                            compute_uv=False)
        want = np.linalg.svd(own.matrix, compute_uv=False)
        assert np.abs(got - want).max() <= 1e-12 * want[0]


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_a_one_prefix_union_adds_no_column(mode):
    # the frame of an architecture alone is its one-prefix union, and its
    # one prefix holds the frame's own arrays
    arch = staircase(3, 3)
    end = arch.gate_count
    gates = GateAssignment.haar(arch, 2)
    plain = tangent_frame(arch, gates, mode)
    union = tangent_frame(arch, gates, mode, [end])
    assert frame_shape(arch, mode, [end]) == frame_shape(arch, mode)
    assert peak_bytes(arch, mode, [end]) == peak_bytes(arch, mode)
    assert np.array_equal(union.columns, plain.columns)
    assert list(plain.prefixes) == [end]
    whole = plain.prefix(end)
    assert np.shares_memory(whole.matrix, plain.matrix)
    assert np.array_equal(whole.matrix, plain.matrix)
    assert (whole.gram is None) == (plain.gram is None)
    with pytest.raises(ValidationError, match="no prefix of 2 gates"):
        plain.prefix(2)


def test_a_union_keeps_what_the_shortest_prefix_holding_a_gate_keeps():
    # staircase(3, 1..2): gates 0 and 2 on (1, 2) are followed on wire 2
    # within their rows, gates 1 and 3 on (2, 3) are their rows' last; the
    # whole architecture alone keeps 9 of gates 0 and 1, whose wires later
    # gates act on
    archs = [staircase(3, 1), staircase(3, 2)]
    kept, _, record, own = archdim.plan._gauge(
        archs[-1], contraction._ends(archs[-1], _lengths(archs)))
    assert [k.size for k in kept] == [12, 15, 12, 15]
    assert [archdim.plan._count(cols) for cols in own] == [27, 45]
    assert record.shape[0] == 54 > frame_shape(archs[-1], "unitary")[1]


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_a_sweep_draws_and_frames_once_per_sample(mode, monkeypatch):
    # a work count: one Haar draw of the last row's gates per sample, and
    # one rank decision per row and sample; the four samples are one
    # batch, drawn by one haar call and framed by one stacked frame; the
    # draws are the ones the last row made when every row drew its own
    drawn, frames, ranks = [], [], []
    haar = GateAssignment.haar
    frame, decide = contraction.tangent_frame, archdim.rank._decide

    def counted_haar(arch, seeds):
        drawn.append((arch.gate_count, list(seeds)))
        return haar(arch, seeds)

    def counted_frame(*args, **kwargs):
        frames.append((args[0].gate_count, args[1].samples))
        return frame(*args, **kwargs)

    def counted_decide(stack, lengths, *args):
        ranks.extend(length for _ in range(stack.samples)
                     for length in lengths)
        return decide(stack, lengths, *args)

    monkeypatch.setattr(GateAssignment, "haar", counted_haar)
    monkeypatch.setattr(contraction, "tangent_frame", counted_frame)
    monkeypatch.setattr_everywhere(archdim.rank, "_decide", counted_decide)
    samples, t_max, seed = 4, 5, 9
    rows = growth_sweep(3, "staircase", t_max, samples, seed, mode)
    assert len(rows) == t_max
    assert drawn == [(2 * t_max, [subseed(subseed(seed, t_max), i)
                                  for i in range(samples)])]
    assert frames == [(2 * t_max, samples)]
    assert ranks == [2 * t for t in range(1, t_max + 1)] * samples


def test_a_sweep_builds_one_witness(monkeypatch):
    # a work count: the last row's witness, before the first draw, serves
    # every row
    built, drawn = [], []
    haar = GateAssignment.haar

    def counted_witness(arch, mode):
        built.append((arch.gate_count, len(drawn)))
        return witness_point(arch, mode)

    def counted_haar(arch, seeds):
        drawn.extend(seeds)
        return haar(arch, seeds)

    monkeypatch.setattr(experiments, "witness_point", counted_witness)
    monkeypatch.setattr(GateAssignment, "haar", counted_haar)
    assert len(growth_sweep(3, "staircase", 5, 3, 2)) == 5
    assert built == [(10, 0)]
    assert len(drawn) == 3


def _cuts(arch):
    """``arch`` cut after each of its marked slices."""
    return [Architecture(arch.n, arch.gates[:end],
                         arch.slice_boundaries[:k + 1])
            for k, end in enumerate(arch.slice_boundaries or ())]


@pytest.mark.parametrize("mode", ["unitary", "state"])
@pytest.mark.parametrize("build", SWEEP_CASES + [
    pytest.param(lambda: build_family("brickwork", 4, 3),
                 id="brickwork-4-1..3"),
    pytest.param(lambda: staircase(3, 8), id="staircase-3-1..8"),
    pytest.param(lambda: staircase(2, 6), id="staircase-2-1..6")])
def test_each_cut_takes_the_first_circuits_of_the_whole_witness(build, mode):
    # the witness of an architecture cut after its first slices is the
    # first gates' circuits of the whole one's, so each row of a sweep
    # reads its witness rank off the last row's witness
    arch = build()
    circuits = witness_point(arch, mode).gate_circuits \
        if arch.slice_count else ()
    for cut in _cuts(arch):
        own = witness_point(cut, mode).gate_circuits
        assert own == circuits[:cut.gate_count]
        assert witness_rank(cut, own, mode) \
            == witness_rank(cut, circuits[:cut.gate_count], mode)


@pytest.mark.parametrize("mode", ["unitary", "state"])
@pytest.mark.parametrize("family, n, t_max", [
    ("staircase", 3, 5), ("staircase", 2, 6), ("brickwork", 4, 3)])
def test_each_sweep_row_has_its_own_witness_rank(family, n, t_max, mode):
    rows = growth_sweep(n, family, t_max, 3, 1, mode)
    archs = [build_family(family, n, t) for t in range(1, t_max + 1)]
    assert [row.witness_rank for row in rows] == [
        witness_rank(arch, witness_point(arch, mode).gate_circuits, mode)
        for arch in archs]


def test_the_consensus_of_one_architecture_is_accessible_dimension():
    arch = brickwork(4, 2)
    one = accessible_dimension(arch, "unitary", 3, 6)
    (alone,) = accessible_dimensions(arch, "unitary", 3, 6)
    assert one.to_json_dict() == alone.to_json_dict()


def test_the_last_row_keeps_the_draws_of_its_own_consensus():
    # the last row's samples are the Haar points accessible_dimension
    # draws for its architecture from the sweep's row seed: its frames
    # differ only by the union's extra columns, and keep their singular
    # values
    last = staircase(2, 3)
    seed = subseed(4, 3)
    shared = accessible_dimensions(last, "unitary", 3, seed, spectrum=True,
                                   prefixes=last.slice_boundaries)[-1]
    alone = accessible_dimension(last, "unitary", 3, seed, spectrum=True)
    assert shared.consensus == alone.consensus == 15
    for got, want in zip(shared.estimates, alone.estimates):
        assert np.abs(got.singular_values - want.singular_values).max() \
            <= 1e-12 * want.singular_values[0]


def test_a_sweep_over_budget_refuses_before_its_first_draw(monkeypatch):
    # the budget is checked once, on the union frame, which has more
    # columns than the last row's own
    last = staircase(3, 4)
    union = peak_bytes(last, "unitary", last.slice_boundaries)
    assert union > peak_bytes(last, "unitary")
    monkeypatch.setattr(contraction, "MEMORY_BUDGET", union - 1)
    monkeypatch.setattr(GateAssignment, "haar", _never_drawn)
    with pytest.raises(SizeLimit):
        growth_sweep(3, "staircase", 4, 3, 1)


UNION_SWEEPS = [
    pytest.param([staircase(3, t) for t in range(1, 9)], "unitary",
                 id="staircase-3-1..8-unitary"),
    # rows 1..9 are tall, row 10 barely wide (282 of 256 rows): the head's
    # Gram matrix is held while row 10 takes its wide certificate
    pytest.param([staircase(4, t) for t in range(1, 11)], "unitary",
                 id="staircase-4-1..10-unitary"),
    pytest.param([staircase(5, t) for t in range(1, 4)], "state",
                 id="staircase-5-1..3-state")]


@pytest.mark.parametrize("archs, mode", UNION_SWEEPS)
def test_a_union_sweep_stays_under_its_estimate(archs, mode):
    _assert_union_sweep_under_its_estimate(archs, mode, 3)


@pytest.mark.parametrize("archs, mode", UNION_SWEEPS)
def test_a_union_sweep_of_50_samples_stays_under_its_estimate(archs, mode):
    # the estimate counts one batch of the 50 samples, at most all of them
    _assert_union_sweep_under_its_estimate(archs, mode, 50)


def _assert_union_sweep_under_its_estimate(archs, mode, samples):
    # a first small consensus sets up numpy's own state, which a fresh
    # process makes on its first rank call; the traced shape stays cold
    accessible_dimension(staircase(2, 1), mode, 3, 1)
    estimate = peak_bytes(archs[-1], mode, _lengths(archs), samples)
    tracemalloc.start()
    try:
        accessible_dimensions(archs[-1], mode, samples, 11,
                              prefixes=_lengths(archs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate + _OBJECT_SLACK


@pytest.mark.parametrize("build", CHAINS)
def test_each_prefix_report_is_the_prefix_s_own_consensus(build):
    # one report per prefix, in gate-count order, with the consensus and
    # bounds the prefix's own architecture gets at the same seed
    archs = build()
    reports = accessible_dimensions(archs[-1], "unitary", 3, 5,
                                    prefixes=_lengths(archs))
    assert [r.gate_count for r in reports] == _lengths(archs)
    for arch, report in zip(archs, reports):
        own = accessible_dimension(arch, "unitary", 3, 5)
        assert report.consensus is not None
        assert (report.n, report.consensus, report.lower_bound,
                report.upper_bound, report.cap) \
            == (own.n, own.consensus, own.lower_bound, own.upper_bound,
                own.cap)


def _counted_builds(monkeypatch):
    built = []
    build = experiments.build_family

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(experiments, "build_family", counted)
    return built


@pytest.mark.parametrize("mode", ["unitary", "state"])
@pytest.mark.parametrize("family, n, t_max", [
    ("staircase", 3, 5), ("brickwork", 4, 3)])
def test_a_sweep_builds_its_last_row_and_composes_each_gate_once(
        family, n, t_max, mode, monkeypatch):
    # a work count: one architecture, the last row's, and one witness rank
    # pass that pre-composes each of its gates once, front to back
    built, composed = _counted_builds(monkeypatch), []
    add_gates = witness._DirectionSweep.add_gates

    def counted_add(self, start, stop, circuits):
        composed.extend(range(start, stop))
        add_gates(self, start, stop, circuits)

    monkeypatch.setattr(witness._DirectionSweep, "add_gates", counted_add)
    rows = growth_sweep(n, family, t_max, 3, 1, mode)
    assert built == [(family, n, t_max)]
    assert composed == list(range(rows[-1].r_gates))


def test_a_sweep_far_past_the_slice_cap_builds_only_its_last_row(
        monkeypatch):
    built = _counted_builds(monkeypatch)
    monkeypatch.setattr(GateAssignment, "haar", _never_drawn)
    with pytest.raises(TooManySlices, match="at most 63 slices for n=3, "
                                            "got 5000"):
        growth_sweep(3, "staircase", 5000, 3, 1)
    assert built == [("staircase", 3, 5000)]


@pytest.mark.parametrize("mode", ["unitary", "state"])
@pytest.mark.parametrize("family, n, t_max", [
    ("staircase", 3, 8), ("staircase", 2, 6), ("brickwork", 4, 3),
    ("brickwork", 2, 5)])
def test_a_sweep_row_has_the_bounds_of_its_own_architecture(family, n, t_max,
                                                            mode):
    last = build_family(family, n, t_max)
    for t, end in enumerate(last.slice_boundaries, start=1):
        assert dimension_bounds(last, mode, end) \
            == dimension_bounds(build_family(family, n, t), mode)
    assert dimension_bounds(last, mode, last.gate_count) \
        == dimension_bounds(last, mode)


def test_an_unmarked_prefix_has_the_bounds_of_its_own_architecture():
    longest = random_adjacent(6, 40, 1)
    for r in range(10, 41):
        arch = random_adjacent(6, r, 1)
        assert arch.gates == longest.gates[:r]
        assert dimension_bounds(longest, "unitary", r) \
            == dimension_bounds(arch, "unitary")


def test_a_cut_inside_a_slice_counts_only_the_complete_slices():
    # staircase(3, 2) cut at 3 gates: slice [0, 2) is complete, [2, 4)
    # is not; the first 3 gates touch 3 qubits, 9 * 3 + 3 * 3 = 36
    arch = staircase(3, 2)
    assert [dimension_bounds(arch, "unitary", r) for r in range(5)] \
        == [(0, 0, 63), (0, 15, 63), (1, 27, 63), (1, 36, 63), (2, 45, 63)]
    for length in (-1, 5, 2.0):
        with pytest.raises(ValidationError):
            dimension_bounds(arch, "unitary", length)


@pytest.mark.parametrize("build", SWEEP_CASES + CHAINS)
def test_each_report_has_its_prefix_s_bounds(build, monkeypatch):
    # a consensus over every prefix, cuts inside a slice included, reads
    # each marked slice's causal flag once and gives each report the
    # bounds of its own prefix; state frames keep it cheap
    arch = build()
    if isinstance(arch, list):
        arch = arch[-1]
    flagged = []
    causal = contraction.is_causal_slice

    def counted(arch, start, stop):
        flagged.append((start, stop))
        return causal(arch, start, stop)

    monkeypatch.setattr(contraction, "is_causal_slice", counted)
    lengths = list(range(arch.gate_count + 1))
    reports = accessible_dimensions(arch, "state", 3, 2, prefixes=lengths)
    assert flagged == list(arch.slice_ranges())
    monkeypatch.undo()
    for report, length in zip(reports, lengths):
        assert report.gate_count == length
        assert (report.lower_bound, report.upper_bound, report.cap) \
            == dimension_bounds(arch, "state", length)


@pytest.mark.parametrize("mode", ["unitary", "state"])
@pytest.mark.parametrize("build", CHAINS)
def test_the_budget_floor_never_exceeds_the_estimate(build, mode):
    # the frame and the whole architecture's block, which peak_bytes
    # returns early when they alone are over the budget, are within every
    # full estimate
    archs = build()
    rows = frame_shape(archs[-1], mode)[0]
    for arch in archs:
        assert peak_bytes(arch, mode) >= 16 * rows * gauge_fixed_count(arch)
    assert peak_bytes(archs[-1], mode, _lengths(archs)) \
        >= 16 * rows * gauge_fixed_count(archs[-1])


def test_one_compiled_plan_per_frame_key():
    # plans are cached by the frame key (arch, ends): a frame and the frame
    # that serves its one prefix share its Gram and matrix plans, and a
    # sweep adds its head's Gram plan and its union's matrix plan
    archdim.plan._frame_plan.cache_clear()
    arch = build_family("staircase", 6, 2)
    accessible_dimension(arch, "unitary", 3, 1)
    assert archdim.plan._frame_plan.cache_info().currsize == 2
    tangent_frame(arch, GateAssignment.haar(arch, 1), "unitary",
                  prefixes=[arch.gate_count])
    assert archdim.plan._tall_head(arch, (arch.gate_count,)) \
        is archdim.plan._frame_plan(arch, (arch.gate_count,), prune=True)
    assert archdim.plan._frame_plan.cache_info().currsize == 2
    growth_sweep(3, "staircase", 6, 3, 1)
    assert archdim.plan._frame_plan.cache_info().currsize == 4


def test_a_cleared_plan_cache_leaves_no_stale_gram_plan(monkeypatch):
    # the frame sweeps the Gram plan the plan cache holds, also after the
    # cache is cleared, so no second, equal plan is compiled beside it
    arch = build_family("staircase", 6, 2)
    ends = (arch.gate_count,)
    tangent_frame(arch, GateAssignment.haar(arch, 1))
    archdim.plan._frame_plan.cache_clear()
    swept = []
    sweep = archdim.sweep._sweep

    def counted(program, transfers):
        swept.append(program.plan)
        return sweep(program, transfers)

    monkeypatch.setattr_everywhere(archdim.sweep, "_sweep", counted)
    tangent_frame(arch, GateAssignment.haar(arch, 2))
    assert len(swept) == 1
    assert swept[0] is archdim.plan._frame_plan(arch, ends, prune=True)


def test_an_over_budget_union_is_refused_before_its_gauge(monkeypatch):
    # staircase(9, 1000) in unitary mode: 4^9 rows by 9 * 8000 + 27
    # columns, twice, is over the budget before the 1000-prefix union
    # gauge is built
    last = staircase(9, 1000)
    misses = archdim.plan._gauge.cache_info().misses
    estimate = peak_bytes(last, "unitary", last.slice_boundaries)
    assert estimate == 16 * 4 ** 9 * (9 * 8000 + 27) \
        > contraction.MEMORY_BUDGET
    assert archdim.plan._gauge.cache_info().misses == misses
    monkeypatch.setattr(GateAssignment, "haar", _never_drawn)
    with pytest.raises(SizeLimit, match="281.36 GiB"):
        growth_sweep(9, "staircase", 1000, 3, 1)
    assert archdim.plan._gauge.cache_info().misses == misses
