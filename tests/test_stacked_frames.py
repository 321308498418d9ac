"""The samples of a Haar consensus go in batches with a leading sample axis:
one ``GateAssignment.haar`` draw and one transfer build per draw batch, and
one ``tangent_frame`` and one sweep per sweep batch inside it, serve them
all, and each sample's numbers are its own frame's, bit for bit."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

import archdim.plan
import archdim.rank
import archdim.sweep
from archdim import (
    Architecture,
    GateAssignment,
    ValidationError,
    accessible_dimension,
    accessible_dimensions,
    brickwork,
    build_family,
    numerical_rank,
    random_adjacent,
    staircase,
    subseed,
    tangent_frame,
)
from archdim import contraction
from archdim.bounds import gauge_fixed_count
from archdim.contraction import dimension_bounds, peak_bytes
from archdim.rank import DEFAULT_TOLERANCES
from archdim.sweep import transfer_matrices
from reference import split_gram
from test_contraction import _OBJECT_SLACK, FRAME_CASES, PEAK_CASES
from test_shared_draws import CHAINS


def _union(archs):
    """The last of a prefix chain and the gate counts of the chain."""
    return archs[-1], [arch.gate_count for arch in archs]


# (architecture, prefix gate counts): the frame cases alone and the union
# frames over the prefix chains
STACK_CASES = [
    pytest.param(lambda build=case.values[0]: (build(), None), id=case.id)
    for case in FRAME_CASES
] + [
    pytest.param(lambda build=case.values[0]: _union(build()), id=case.id)
    for case in CHAINS]


def _bits(x):
    """The bytes of an array, with its shape, or the repr of any other
    value: equal for bit-identical numbers only."""
    if isinstance(x, np.ndarray):
        return x.shape, np.ascontiguousarray(x).tobytes()
    return repr(x)


def _seeds(count):
    return [subseed(4, i) for i in range(count)]


@pytest.mark.parametrize("build", STACK_CASES)
def test_a_stacked_draw_is_each_seed_s_draw(build):
    arch, _ = build()
    seeds = _seeds(7)
    stack = GateAssignment.haar(arch, seeds)
    assert stack.samples == 7 and len(stack) == arch.gate_count
    transfers = transfer_matrices(stack)
    assert transfers.shape == (7, arch.gate_count, 16, 16)
    for i, seed in enumerate(seeds):
        one = GateAssignment.haar(arch, seed)
        assert one.samples is None
        assert _bits(stack.matrices[i]) == _bits(one.matrices)
        assert _bits(transfers[i]) == _bits(transfer_matrices(one))


@pytest.mark.parametrize("count", [3, 7])
@pytest.mark.parametrize("mode", ["unitary", "state"])
@pytest.mark.parametrize("build", STACK_CASES)
def test_each_sample_of_a_stacked_frame_is_its_own_frame(build, mode, count):
    arch, prefixes = build()
    seeds = _seeds(count)
    stack = tangent_frame(arch, GateAssignment.haar(arch, seeds), mode,
                          prefixes)
    assert stack.samples == count
    assert (stack.n, stack.mode, stack.gate_count) \
        == (arch.n, mode, arch.gate_count)
    for i, seed in enumerate(seeds):
        one = tangent_frame(arch, GateAssignment.haar(arch, seed), mode,
                            prefixes)
        got = stack.sample(i)
        assert one.samples is got.samples is None
        assert _bits(got.gram) == _bits(one.gram)
        assert _bits(got.gram_error) == _bits(one.gram_error)
        assert _bits(got.matrix) == _bits(one.matrix)
        assert np.array_equal(got.columns, one.columns)
        assert got.prefixes.keys() == one.prefixes.keys()


def test_a_stacked_frame_carries_the_sample_axis():
    arch = staircase(4, 2)
    seeds = _seeds(3)
    stack = tangent_frame(arch, GateAssignment.haar(arch, seeds))
    rows, cols = contraction.frame_shape(arch, "unitary")
    assert stack.gram.shape == (3, cols, cols)
    assert stack.gram_error.shape == (3,)
    with pytest.raises(ValidationError, match="TangentFrame.sample"):
        stack.matrix
    for i, seed in enumerate(seeds):
        one = tangent_frame(arch, GateAssignment.haar(arch, seed))
        assert _bits(stack.gram[i]) == _bits(one.gram)
        assert stack.sample(i).matrix.shape == (rows, cols)
        assert _bits(stack.sample(i).matrix) == _bits(one.matrix)


def test_a_stacked_frame_takes_no_one_sample_call():
    arch = staircase(3, 2)
    stack = tangent_frame(arch, GateAssignment.haar(arch, _seeds(3)))
    with pytest.raises(ValidationError, match="stack of 3"):
        numerical_rank(stack)
    with pytest.raises(ValidationError, match="stack of 3"):
        stack.prefix(arch.gate_count)
    for i in (-1, 3, 1.0):
        with pytest.raises(ValidationError):
            stack.sample(i)
    with pytest.raises(ValidationError, match="no sample axis"):
        stack.sample(0).sample(0)


def _reference_consensus(arch, mode, samples, seed, prefixes):
    """The reports of ``accessible_dimensions`` by one frame per sample."""
    ends = contraction._ends(arch, prefixes)
    rows = [[] for _ in ends]
    for i in range(samples):
        gates = GateAssignment.haar(arch, subseed(seed, i))
        frame = tangent_frame(arch, gates, mode, ends)
        for row, length in zip(rows, ends):
            row.append(numerical_rank(frame.prefix(length)))
    return [contraction._consensus(arch, length, mode, seed,
                                   DEFAULT_TOLERANCES, tuple(row),
                                   dimension_bounds(arch, mode, length))
            for length, row in zip(ends, rows)]


@pytest.mark.parametrize("mode", ["unitary", "state"])
@pytest.mark.parametrize("build", STACK_CASES)
def test_a_consensus_reports_what_one_frame_per_sample_reports(build, mode):
    # a chain keeps every sixth row and its last, rows 14, 20 and 22 of
    # the random chain, since each of its rows takes an SVD
    arch, prefixes = build()
    if prefixes:
        prefixes = prefixes[::6] + prefixes[-1:]
    got = accessible_dimensions(arch, mode, 4, 5, prefixes=prefixes)
    want = _reference_consensus(arch, mode, 4, 5, prefixes)
    assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]
    for report, ref in zip(got, want):
        for e, f in zip(report.estimates, ref.estimates):
            assert _bits(e.singular_values) == _bits(f.singular_values)


@pytest.mark.parametrize("bad, match", [(-1, "must be nonnegative"),
                                        (2.0, "must be an integer")])
def test_a_bad_seed_in_a_list_is_refused_before_any_draw(bad, match,
                                                         monkeypatch):
    def never(*args):
        raise AssertionError("drew before every seed was checked")

    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ValidationError, match=match):
        GateAssignment.haar(staircase(3, 1), [1, 2, bad])


def test_a_bad_gate_in_a_stack_names_its_sample():
    mats = GateAssignment.haar(staircase(3, 1), _seeds(3)).matrices.copy()
    mats[2, 1] *= np.exp(0.3j)
    with pytest.raises(ValidationError,
                       match="sample 2 gate 1 is not special unitary"):
        GateAssignment(mats)


def test_a_stack_with_no_sample_is_refused():
    arch = staircase(3, 1)
    with pytest.raises(ValidationError, match="needs a sample"):
        GateAssignment.haar(arch, [])
    with pytest.raises(ValidationError, match="needs a sample"):
        GateAssignment(np.empty((0, arch.gate_count, 4, 4)))


# -- resource limits ----------------------------------------------------------


def _consensus_cases():
    """(arch, mode, samples) of each shape of the one-frame peak test, in
    each mode it runs: 3 samples, and 50 where a sweep batch holds more
    than 3.  Three samples of one-sample sweep batches take one draw
    batch of 3, which the estimate counts."""
    for case in PEAK_CASES:
        arch, = case.values
        for mode in ("unitary", "state") if arch.n <= 7 else ("state",):
            batch = contraction._batch(arch, mode, (arch.gate_count,))[0]
            for samples in (3, 50) if batch > 3 else (3,):
                yield pytest.param(arch, mode, samples,
                                   id=f"{case.id}-{mode}-{samples}")


@pytest.mark.parametrize("arch, mode, samples", _consensus_cases())
def test_a_consensus_stays_under_its_estimate(arch, mode, samples):
    # a batch of samples stays under the estimate of the consensus over
    # them, which counts the batch
    tracemalloc.start()
    try:
        accessible_dimension(arch, mode, samples, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= peak_bytes(arch, mode, samples=samples) + _OBJECT_SLACK


def test_a_wide_frame_over_the_chunk_stays_under_its_one_sample_estimate():
    # staircase(5, 30): a 1024 x 1095 frame, whose 9 MB matrix is over the
    # chunk, so each matrix sweep forms one; three samples stay under the
    # estimate of one
    arch = staircase(5, 30)
    assert contraction.frame_shape(arch, "unitary") == (1024, 1095)
    assert contraction._matrix_batch(arch, (arch.gate_count,))[0] == 1
    accessible_dimension(staircase(2, 1), "unitary", 3, 1)
    tracemalloc.start()
    try:
        accessible_dimension(arch, "unitary", 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= peak_bytes(arch, "unitary") + _OBJECT_SLACK


def test_a_lone_stack_forms_its_matrices_one_sweep_at_a_time():
    # staircase(6, 2): 4096 x 108 matrices, one a matrix sweep; a lone
    # stack of 8 refuses its whole matrix and forms each sample's through
    # sample(i), so reading every matrix and spectrum stays under the
    # stack's estimate
    arch = staircase(6, 2)
    assert contraction._matrix_batch(arch, (arch.gate_count,))[0] == 1
    seeds = _seeds(8)
    gates = GateAssignment.haar(arch, seeds)
    estimate = contraction._peak_bytes(arch, "unitary", None, 8, stack=True)
    tracemalloc.start()
    try:
        stack = tangent_frame(arch, gates)
        with pytest.raises(ValidationError, match="TangentFrame.sample"):
            stack.matrix
        for i in range(8):
            numerical_rank(stack.sample(i), spectrum=True)
            stack.sample(i).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate + _OBJECT_SLACK
    for i, seed in enumerate(seeds):
        one = tangent_frame(arch, GateAssignment.haar(arch, seed))
        assert _bits(stack.sample(i).matrix) == _bits(one.matrix)


def test_many_samples_hold_one_batch():
    # the estimate grows with the samples up to one batch, and no further
    arch = staircase(2, 1)
    batch = contraction._batch(arch, "unitary", (arch.gate_count,))[0]
    assert 3 < batch < 2000
    estimate = peak_bytes(arch, "unitary", samples=2000)
    assert peak_bytes(arch, "unitary") < estimate \
        == peak_bytes(arch, "unitary", samples=batch) \
        == peak_bytes(arch, "unitary", samples=10 ** 6)
    tracemalloc.start()
    try:
        accessible_dimension(arch, "unitary", 2000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate + _OBJECT_SLACK


def test_a_frame_over_the_chunk_adds_only_its_draw_batch():
    # brickwork(6, 6): a 7.1 MB Gram arena, one sample a sweep batch, in
    # draw batches of 8 (16 KiB for each of its 30 gates a sample), whose
    # other samples' gates and transfers the estimate counts
    arch = brickwork(6, 6)
    assert contraction._batch(arch, "unitary", (arch.gate_count,))[0] == 1
    assert contraction._draw(arch, 1) == 8
    assert peak_bytes(arch, "unitary", samples=50) \
        == peak_bytes(arch, "unitary", samples=8) \
        == peak_bytes(arch, "unitary") + 7 * 16384 * arch.gate_count


@pytest.mark.parametrize("arch, prefixes", [
    (staircase(3, 6), staircase(3, 6).slice_boundaries),
    (build_family("staircase", 6, 2), None),
    (brickwork(6, 6), None)],
    ids=["union-staircase-3-1..6", "staircase-6-2", "brickwork-6-6"])
def test_the_heads_sizes_have_one_source(arch, prefixes):
    # a unitary consensus sample holds its gates' 16 KiB each and the
    # head's Gram matrix, arena and scratch, all read from the head's Gram
    # plan, whose gates are the longest tall prefix's and whose width is
    # that of the Gram matrix a frame reads
    ends = contraction._ends(arch, prefixes)
    head = archdim.plan._tall_head(arch, ends)
    assert len(head.gates) == max(
        end for end in ends
        if gauge_fixed_count(Architecture(arch.n, arch.gates[:end]))
        < 4 ** arch.n)
    assert contraction._batch(arch, "unitary", ends)[1] \
        == 16384 * arch.gate_count \
        + 8 * (head.width ** 2 + head.arena + head.scratch)
    frame = tangent_frame(arch, GateAssignment.haar(arch, 1),
                          prefixes=prefixes)
    assert frame.gram.shape == (head.width, head.width)


def test_a_frame_with_no_tall_prefix_has_no_head():
    arch = staircase(3, 6)
    assert archdim.plan._tall_head(arch, (arch.gate_count,)) is None


# -- work counts --------------------------------------------------------------


def _count_work(monkeypatch, arch):
    """Lists that record each later call: the seeds of each ``haar`` call,
    the sample count of each ``transfer_matrices`` and ``tangent_frame``
    call, the gate count of each prefix of each sample that ``_decide``
    decides, and, for each ``_sweep`` call, whether it ran ``arch``'s
    Gram plan and over how many samples."""
    drawn, built, framed, ranked, swept = [], [], [], [], []
    haar = GateAssignment.haar
    frame, decide, sweep = (contraction.tangent_frame, archdim.rank._decide,
                            archdim.sweep._sweep)
    build = archdim.sweep.transfer_matrices
    pruned = archdim.plan._frame_plan(arch, (arch.gate_count,), prune=True)

    def counted_haar(arch, seeds):
        drawn.append(list(seeds))
        return haar(arch, seeds)

    def counted_build(gates):
        built.append(gates.samples)
        return build(gates)

    def counted_frame(arch, gates, *args):
        framed.append(gates.samples)
        return frame(arch, gates, *args)

    def counted_decide(stack, lengths, *args):
        ranked.extend(length for _ in range(stack.samples)
                      for length in lengths)
        return decide(stack, lengths, *args)

    def counted_sweep(program, transfers):
        swept.append((program.plan is pruned, len(transfers)))
        return sweep(program, transfers)

    monkeypatch.setattr(GateAssignment, "haar", counted_haar)
    monkeypatch.setattr(contraction, "tangent_frame", counted_frame)
    monkeypatch.setattr_everywhere(archdim.rank, "_decide", counted_decide)
    monkeypatch.setattr_everywhere(archdim.sweep, "_sweep", counted_sweep)
    monkeypatch.setattr_everywhere(
        archdim.sweep, "transfer_matrices", counted_build)
    return drawn, built, framed, ranked, swept


def test_a_consensus_draws_once_per_draw_batch_and_frames_per_sweep_batch(
        monkeypatch):
    # the dim-many digest's shape: a 1 MB Gram arena, three samples a
    # sweep batch, in draw batches of 24, so seven samples take one draw
    # and one transfer build, swept in batches of 3, 3 and 1
    arch = build_family("staircase", 6, 2)
    drawn, built, framed, ranked, swept = _count_work(monkeypatch, arch)
    accessible_dimension(arch, "unitary", 7, 3)
    assert drawn == [[subseed(3, i) for i in range(7)]]
    assert built == [7]
    assert framed == [3, 3, 1]
    assert ranked == [arch.gate_count] * 7
    assert swept == [(True, 3), (True, 3), (True, 1)]


@pytest.mark.parametrize("samples", [3, 5])
def test_one_draw_serves_one_sample_sweep_batches(samples, monkeypatch):
    # brickwork(6, 1)'s 7.1 MB Gram arena takes one sample a sweep batch,
    # and its 30 gates draw 8 samples a batch: one draw, one transfer
    # build and one bind serve every sample, and each sample's route,
    # ranks, Gram bound and sigma bounds are its own frame's, bit for bit
    arch = build_family("brickwork", 6, 1)
    ends = (arch.gate_count,)
    assert contraction._batch(arch, "unitary", ends)[0] == 1
    assert contraction._draw(arch, 1) == 8
    drawn, built, framed, _, swept = _count_work(monkeypatch, arch)
    bound = _count_binds(monkeypatch)
    seen = _recorded_grams(monkeypatch)
    report = accessible_dimension(arch, "unitary", samples, 6)
    monkeypatch.undo()
    assert drawn == [[subseed(6, i) for i in range(samples)]]
    assert built == [samples]
    assert framed == [1] * samples
    assert swept == [(True, 1)] * samples
    assert len(bound) == 1
    for i, got in enumerate(report.estimates):
        one = tangent_frame(arch, GateAssignment.haar(arch, subseed(6, i)))
        want = numerical_rank(one)
        assert _bits(seen[i][1]) == _bits(one.gram_error)
        assert (got.route, got.loose_rank, got.tight_rank) \
            == (want.route, want.loose_rank, want.tight_rank)
        assert _bits(got.sigma_max_upper) == _bits(want.sigma_max_upper)
        assert _bits(got.sigma_min_lower) == _bits(want.sigma_min_lower)


@pytest.mark.parametrize("arch, sweeps", [
    (staircase(7, 1), [(True, 3)]),
    (brickwork(6, 6), [(True, 1)] * 3)],
    ids=["staircase-7-1", "brickwork-6-6"])
def test_a_consensus_runs_one_gram_sweep_per_batch(arch, sweeps,
                                                   monkeypatch):
    # staircase(7, 1) holds its three samples in one batch; brickwork(6,
    # 6)'s 7.1 MB Gram arena takes one sample a batch
    *_, swept = _count_work(monkeypatch, arch)
    report = accessible_dimension(arch, "unitary", 3, 0)
    assert [e.route for e in report.estimates] == ["gram"] * 3
    assert swept == sweeps


@pytest.mark.parametrize("arch", [staircase(3, 8), staircase(5, 30)],
                         ids=["staircase-3-8", "staircase-5-30"])
def test_a_matrix_sweep_forms_what_fits_in_the_chunk(arch, monkeypatch):
    # wide frames: staircase(3, 8)'s 64 x 153 matrices fit in one sweep,
    # staircase(5, 30)'s 9 MB ones go one a sweep
    *_, swept = _count_work(monkeypatch, arch)
    accessible_dimension(arch, "unitary", 3, 1)
    matrices = contraction._matrix_batch(arch, (arch.gate_count,))[0]
    assert swept == [(False, min(matrices, 3))] * math.ceil(3 / matrices)


# -- the bound Gram sweep -----------------------------------------------------


def _recorded_grams(monkeypatch):
    """The list that records, for each sample's frame of each prefix that
    ``_decide`` later decides (``TangentFrame.sample`` and ``prefix``),
    in sample order, a copy of its Gram matrix (None for none) and its
    ``gram_error``: a consensus's bound sweep overwrites its Gram stack
    batch by batch."""
    seen = []
    decide = archdim.rank._decide

    def recorded(stack, lengths, *args):
        for i in range(stack.samples):
            for length in lengths:
                frame = stack.sample(i).prefix(length)
                gram = None if frame.gram is None else frame.gram.copy()
                seen.append((gram, frame.gram_error))
        return decide(stack, lengths, *args)

    monkeypatch.setattr_everywhere(archdim.rank, "_decide", recorded)
    return seen


def _batched(monkeypatch, batching, arch, ends):
    """Make a consensus over ``arch`` take its samples one a batch, all in
    one batch, or two a batch."""
    if batching == "one":
        monkeypatch.setattr(contraction, "_STACK_CHUNK", 1)
    elif batching == "stacked":
        monkeypatch.setattr(contraction, "_STACK_CHUNK", 2 ** 40)
    else:
        each = contraction._batch(arch, "unitary", ends)[1]
        monkeypatch.setattr(contraction, "_STACK_CHUNK", 2 * each)


@pytest.mark.parametrize("batching", ["one", "stacked", "pairs"])
@pytest.mark.parametrize("build", STACK_CASES + [
    pytest.param(lambda: (build_family("brickwork", 6, 1), None),
                 id="brickwork-6-1")])
def test_a_bound_sweep_reads_each_sample_s_own_gram_matrix(build, batching,
                                                           monkeypatch):
    # five samples in batches of one (one program swept five times), of
    # five (one stacked sweep) and of 2, 2 and 1 (a program per batch
    # size): each sample's Gram matrix, bound, route and ranks are those
    # of its own frame, bit for bit, and its head's Gram matrix is the
    # split read's of the dense reference, to rounding
    arch, prefixes = build()
    if prefixes:
        prefixes = prefixes[::6] + prefixes[-1:]
    ends = contraction._ends(arch, prefixes)
    _batched(monkeypatch, batching, arch, ends)
    seen = _recorded_grams(monkeypatch)
    reports = accessible_dimensions(arch, "unitary", 5, 8, prefixes=prefixes)
    monkeypatch.undo()
    head = archdim.plan._tall_head(arch, ends)
    kept = archdim.plan._gauge(arch, ends)[0]
    for i in range(5):
        gates = GateAssignment.haar(arch, subseed(8, i))
        frame = tangent_frame(arch, gates, "unitary", ends)
        for k, (length, report) in enumerate(zip(ends, reports)):
            gram, error = seen[i * len(ends) + k]
            one = frame.prefix(length)
            assert _bits(gram) == _bits(one.gram)
            assert _bits(error) == _bits(one.gram_error)
            want = numerical_rank(one)
            got = report.estimates[i]
            assert (got.route, got.loose_rank, got.tight_rank) \
                == (want.route, want.loose_rank, want.tight_rank)
        if head is not None:
            r = len(head.gates)
            ref = split_gram(Architecture(arch.n, arch.gates[:r]),
                             transfer_matrices(gates)[:r], kept[:r],
                             head.split)
            assert np.abs(frame.gram - ref).max(initial=0.0) < 1e-13


def _estimate_bits(e):
    """Every field of a rank estimate, floats and arrays by their bits."""
    return (e.route, e.loose_rank, e.tight_rank, e.tolerances,
            _bits(e.sigma_max_upper), _bits(e.sigma_min_lower),
            _bits(e.singular_values))


@pytest.mark.parametrize("spectrum", [False, True])
@pytest.mark.parametrize("batching", ["one", "stacked", "pairs"])
@pytest.mark.parametrize("build", STACK_CASES)
def test_a_stacked_decision_is_each_sample_s_own(build, batching, spectrum,
                                                 monkeypatch):
    # a sweep batch's samples are decided together, one certificate per
    # prefix; in batches of one, of five and of 2, 2 and 1, every
    # estimate, with or without the spectrum, is its own frame's, bit for
    # bit
    arch, prefixes = build()
    if prefixes:
        prefixes = prefixes[::6] + prefixes[-1:]
    ends = contraction._ends(arch, prefixes)
    _batched(monkeypatch, batching, arch, ends)
    reports = accessible_dimensions(arch, "unitary", 5, 8, spectrum=spectrum,
                                    prefixes=prefixes)
    monkeypatch.undo()
    for i in range(5):
        gates = GateAssignment.haar(arch, subseed(8, i))
        frame = tangent_frame(arch, gates, "unitary", ends)
        for length, report in zip(ends, reports):
            want = numerical_rank(frame.prefix(length), spectrum=spectrum)
            assert _estimate_bits(report.estimates[i]) \
                == _estimate_bits(want)


@pytest.mark.parametrize("plant", ["non-finite", "singular"])
def test_a_failing_sample_alone_takes_the_svd(plant, monkeypatch):
    # one sample of a four-sample batch gets a non-finite Gram entry,
    # refused before the one Cholesky call factors the other three, or a
    # zero last row and column, on which the stacked call fails and each
    # sample is factored alone: either way the others are certified, and
    # only it takes the SVD, of its own matrix
    arch = staircase(5, 2)
    _batched(monkeypatch, "stacked", arch, (arch.gate_count,))
    read = archdim.sweep._gram_read

    def planted(program, transfers):
        gram = read(program, transfers)
        if plant == "non-finite":
            gram[1, 0, 1] = np.nan
        else:
            gram[1, -1, :] = gram[1, :, -1] = 0.0
        return gram

    svds, factored = [], []
    svd, cholesky = np.linalg.svd, np.linalg.cholesky

    def counted_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    def counted_cholesky(a):
        factored.append(a.shape[:-2])
        return cholesky(a)

    monkeypatch.setattr_everywhere(archdim.sweep, "_gram_read", planted)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    report = accessible_dimension(arch, "unitary", 4, 3)
    monkeypatch.undo()
    assert [e.route for e in report.estimates] == ["gram", "svd", "gram",
                                                   "gram"]
    assert svds == [contraction.frame_shape(arch, "unitary")]
    assert factored == ([(3,)] if plant == "non-finite"
                        else [(4,), (), (), (), ()])
    for i, got in enumerate(report.estimates):
        frame = tangent_frame(arch, GateAssignment.haar(arch, subseed(3, i)))
        want = numerical_rank(frame.matrix if i == 1 else frame)
        assert _estimate_bits(got) == _estimate_bits(want)


@pytest.mark.parametrize("count", [1, 3, 5])
@pytest.mark.parametrize("build", STACK_CASES)
def test_stacked_shifts_and_upper_bounds_keep_their_bits(build, count):
    # the certificate's shift and U of a stack of Gram matrices are each
    # sample's own, as raw bits
    arch, prefixes = build()
    stack = tangent_frame(arch, GateAssignment.haar(arch, _seeds(count)),
                          "unitary", prefixes)
    grams, errors = stack.gram, stack.gram_error
    floors = (100 * DEFAULT_TOLERANCES[0]) ** 2 \
        * archdim.rank._upper(grams, errors)
    for stacked, one in [
            (archdim.rank._shift(grams, errors, floors),
             [archdim.rank._shift(g, float(e), float(f))
              for g, e, f in zip(grams, errors, floors)]),
            (archdim.rank._upper(grams, errors),
             [archdim.rank._upper(g, float(e))
              for g, e in zip(grams, errors)])]:
        assert stacked.shape == (count,)
        assert stacked.view(np.int64).tolist() \
            == np.array(one).view(np.int64).tolist()


def _count_binds(monkeypatch):
    """The list of the plans that each later ``_bind`` call binds."""
    bound = []
    bind = archdim.sweep._bind

    def counted(plan, transfers, *kept):
        bound.append(plan)
        return bind(plan, transfers, *kept)

    monkeypatch.setattr_everywhere(archdim.sweep, "_bind", counted)
    return bound


def test_a_consensus_binds_its_gram_sweep_once(monkeypatch):
    # brickwork(6, 1)'s three samples go one a batch, through one bound
    # program; a lone frame binds its own, once a call
    arch = build_family("brickwork", 6, 1)
    pruned = archdim.plan._frame_plan(arch, (arch.gate_count,), prune=True)
    bound = _count_binds(monkeypatch)
    report = accessible_dimension(arch, "unitary", 3, 0)
    assert [e.route for e in report.estimates] == ["gram"] * 3
    assert contraction._batch(arch, "unitary", (arch.gate_count,))[0] == 1
    assert bound == [pruned]
    for seed in (1, 2):
        tangent_frame(arch, GateAssignment.haar(arch, seed))
    assert bound == [pruned] * 3


def _arena(program):
    """The largest array that a bound program's calls view, but for its
    Gram stack: the one array of its arena, which a kept program's
    transfer stack shares (``sweep._bind``)."""
    roots = {}
    for _, args in program.calls:
        for x in args:
            if isinstance(x, np.ndarray):
                while x.base is not None:
                    x = x.base
                roots[id(x)] = x
    held = program.gram
    while held.base is not None:
        held = held.base
    roots.pop(id(held), None)
    return max(roots.values(), key=lambda x: x.nbytes)


@pytest.mark.parametrize("arch, prefixes, route, samples, sweeps", [
    pytest.param(build_family("brickwork", 6, 1), None, "gram", 3, 0,
                 id="brickwork-6-1"),
    pytest.param(build_family("brickwork", 6, 1), None, "gram", 5, 0,
                 id="brickwork-6-1-5-samples"),
    pytest.param(random_adjacent(6, 40, 1), None, "svd", 3, 3,
                 id="random-6-40-1"),
    pytest.param(build_family("staircase", 6, 2), None, "gram", 3, 0,
                 id="staircase-6-2"),
    pytest.param(staircase(3, 6), staircase(3, 6).slice_boundaries, "gram",
                 3, 1, id="union-staircase-3-1..6")])
def test_a_bound_consensus_stays_under_its_estimate(arch, prefixes, route,
                                                    samples, sweeps,
                                                    monkeypatch):
    # the Gram program's arena lives through the certificates and stays
    # under the estimate, which counts it there; random_adjacent(6, 40,
    # 1)'s certificates fail, and its arena, which the consensus grew
    # the kept buffers for, is gone before the matrix sweep that each
    # sample's SVD then reads.  After the consensus the last arena stays
    # kept, under the cap, unless a matrix sweep followed its bind.
    # brickwork(6, 1)'s five samples take one draw of 5 and five
    # one-sample sweep batches, and the draw's gates and transfers stay
    # beside the arena.  The three
    # samples of staircase(6, 2) and of the staircase(3, 1..6) union
    # share a sweep batch, whose tall prefixes' certificates stack them;
    # the union's wide rows stack theirs after its one matrix sweep
    draws, arenas, gone, last_swept = [], [], [], []
    haar = GateAssignment.haar

    def counted_haar(arch, seeds):
        draws.append(len(seeds))
        return haar(arch, seeds)

    bind, sweep = archdim.sweep._bind, archdim.sweep._sweep

    def watched_bind(plan, transfers, *kept):
        program = bind(plan, transfers, *kept)
        if program.gram is not None:
            arenas.append(weakref.ref(_arena(program)))
            last_swept.clear()
        return program

    def watched_sweep(program, transfers):
        if program.gram is None:
            gone.append(all(arena() is None for arena in arenas))
            last_swept.append(True)
        return sweep(program, transfers)

    monkeypatch.setattr(GateAssignment, "haar", counted_haar)
    monkeypatch.setattr_everywhere(archdim.sweep, "_bind", watched_bind)
    monkeypatch.setattr_everywhere(archdim.sweep, "_sweep", watched_sweep)
    tracemalloc.start()
    try:
        reports = accessible_dimensions(arch, "unitary", samples, 3,
                                        prefixes=prefixes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= peak_bytes(arch, "unitary", prefixes, samples=samples) \
        + _OBJECT_SLACK
    assert draws == [samples]
    assert arenas and all(arena() is None for arena in arenas[:-1])
    ends = contraction._ends(arch, prefixes)
    head = archdim.plan._tall_head(arch, ends)
    batch = min(samples, contraction._batch(arch, "unitary", ends)[0])
    assert 8 * (sum(archdim.sweep._footprint(head, batch))
                + batch * (256 * len(head.gates) + head.width ** 2)) \
        <= archdim.sweep._KEPT_CAP
    assert (arenas[-1]() is None) == bool(last_swept)
    for report in reports:
        assert [e.route for e in report.estimates] == [route] * samples
    assert gone == [True] * sweeps
