"""Architecture families, causal-slice analysis, staircase detection."""

import numpy as np
import pytest

from archdim import (
    Architecture,
    InvalidBoundary,
    InvalidQubit,
    OddQubitCount,
    ValidationError,
    brickwork,
    build_family,
    detect_staircase_slices,
    from_gate_sequence,
    is_causal_slice,
    random_adjacent,
    staircase,
)
from archdim.architecture import _reach_masks

from reference import forward_reach


# -- construction and validation ------------------------------------------------


def test_single_gate_architecture():
    arch = from_gate_sequence(2, [(1, 2)])
    assert arch.gate_count == 1
    assert arch.slice_boundaries is None


def test_degenerate_pair_rejected():
    with pytest.raises(InvalidQubit):
        from_gate_sequence(3, [(1, 1)])


def test_out_of_range_qubit_rejected():
    with pytest.raises(InvalidQubit):
        from_gate_sequence(3, [(1, 4)])


def test_boundaries_partition_gate_list():
    arch = from_gate_sequence(4, [(1, 2), (3, 4), (2, 3)], [3])
    assert arch.slice_ranges() == ((0, 3),)


def test_bad_boundaries_rejected():
    with pytest.raises(InvalidBoundary):
        from_gate_sequence(4, [(1, 2), (3, 4)], [2, 2])
    with pytest.raises(InvalidBoundary):
        from_gate_sequence(4, [(1, 2), (3, 4)], [1])  # must end at R


def test_json_roundtrip_exact():
    arch = staircase(4, 3)
    again = Architecture.from_json(arch.to_json())
    assert again == arch
    plain = from_gate_sequence(3, [(1, 2), (2, 3)])
    assert Architecture.from_json(plain.to_json()) == plain


@pytest.mark.parametrize("doc", [
    {"n": 3.9, "gates": [[1, 2], [2, 3]]},
    {"n": 3, "gates": [[1.5, 2], [2, 3]]},
    {"n": 3, "gates": [[1, 2], [2, 3]], "boundaries": [2.0]},
    {"n": True, "gates": []},
    {"n": 3, "gates": [[1, True]]},
    {"n": "3", "gates": []},
], ids=["float-n", "float-wire", "float-boundary", "bool-n", "bool-wire",
        "string-n"])
def test_json_refuses_non_integers(doc):
    # int() would truncate 3.9 to 3 and read true as 1
    with pytest.raises(ValidationError, match="must be an integer"):
        Architecture.from_json_dict(doc)


WRONG_SHAPES = [
    [1, 2],
    "x",
    None,
    {"n": 3, "gates": 5},
    {"n": 3, "gates": "ab"},
    {"n": 3, "gates": [1, 2]},
    {"n": 3, "gates": [[1, 2, 3]]},
    {"n": 3, "gates": [[1, 2], [2, 3]], "boundaries": 1},
    {"n": 3, "gates": [[1, 2], [2, 3]], "boundaries": {"a": 2}},
    {},
    {"n": 3},
    {"gates": []},
]
WRONG_SHAPE_IDS = ["list", "string", "null", "int-gates", "string-gates",
                   "flat-gates", "triple-gate", "int-boundaries",
                   "object-boundaries", "empty-object", "missing-gates",
                   "missing-n"]


@pytest.mark.parametrize("doc", WRONG_SHAPES, ids=WRONG_SHAPE_IDS)
def test_json_refuses_wrong_shapes(doc):
    # these raised AttributeError or TypeError, which the CLI did not
    # catch, or, for a missing key, KeyError
    with pytest.raises(ValidationError):
        Architecture.from_json_dict(doc)


# -- families --------------------------------------------------------------------


def test_staircase_minimal_slice():
    arch = staircase(3, 1)
    assert arch.gates == ((1, 2), (2, 3))
    assert arch.gate_count == 2


def test_staircase_two_qubits():
    arch = staircase(2, 5)
    assert arch.gates == ((1, 2),) * 5
    assert arch.gate_count == 5


def test_staircase_gate_count_and_boundaries():
    arch = staircase(4, 3)
    assert arch.gate_count == 9
    assert arch.slice_boundaries == (3, 6, 9)


def test_brickwork_single_round_layers():
    arch = brickwork(4, 1)
    assert arch.gates == ((1, 2), (3, 4), (2, 3))
    assert arch.slice_boundaries is None


def test_brickwork_causal_slice_size():
    arch = brickwork(4, 8)
    # one causal slice per n rounds, each of n(n-1) = 12 gates
    assert arch.slice_ranges() == ((0, 12), (12, 24))
    for start, stop in arch.slice_ranges():
        assert is_causal_slice(arch, start, stop) is not None


def test_brickwork_partial_tail_merges_into_last_slice():
    arch = brickwork(4, 9)
    assert arch.slice_boundaries == (12, 27)
    start, stop = arch.slice_ranges()[-1]
    assert is_causal_slice(arch, start, stop) is not None


def test_brickwork_odd_rejected():
    with pytest.raises(OddQubitCount):
        brickwork(3, 1)


def test_build_family_dispatch():
    assert build_family("staircase", 4, 3) == staircase(4, 3)
    # brickwork defaults to n * t rounds, i.e. t slices
    assert build_family("brickwork", 4, 2) == brickwork(4, 8)
    assert build_family("brickwork", 4, 2, rounds=5) == brickwork(4, 5)
    assert build_family("random", 4, 1, r_gates=9, seed=3) == random_adjacent(4, 9, 3)
    with pytest.raises(ValidationError, match="gate count"):
        build_family("random", 4, 1)
    with pytest.raises(ValidationError, match="unknown family"):
        build_family("ladder", 4, 1)


def test_random_adjacent_reproducible():
    a = random_adjacent(5, 100, seed=42)
    b = random_adjacent(5, 100, seed=42)
    assert a == b
    assert a != random_adjacent(5, 100, seed=43)


def test_random_adjacent_two_qubits_single_position():
    arch = random_adjacent(2, 10, seed=1)
    assert arch.gates == ((1, 2),) * 10


def test_random_adjacent_empty():
    assert random_adjacent(5, 0, seed=1).gate_count == 0


def test_random_adjacent_position_frequencies():
    # binomial oracle: each of the 4 positions within 3 sigma of R/4
    r = 10 ** 4
    arch = random_adjacent(5, r, seed=7)
    counts = np.bincount([a for a, _ in arch.gates], minlength=5)[1:]
    sigma = np.sqrt(r * 0.25 * 0.75)
    assert np.all(np.abs(counts - r / 4) <= 3 * sigma)


# -- causal slices ----------------------------------------------------------------


def test_staircase_full_slice_sink_is_last_qubit():
    arch = staircase(4, 1)
    assert is_causal_slice(arch, 0, 3) == 4


def test_single_gate_slice_not_causal_for_three_qubits():
    arch = from_gate_sequence(3, [(1, 2)])
    assert is_causal_slice(arch, 0, 1) is None


def test_every_staircase_slice_causal():
    for n, t in ((2, 3), (3, 2), (5, 2)):
        arch = staircase(n, t)
        for start, stop in arch.slice_ranges():
            assert is_causal_slice(arch, start, stop) == n


def test_no_smaller_staircase_subrange_is_causal():
    for n in (3, 4, 5):
        arch = staircase(n, 1)
        r = arch.gate_count
        for start in range(r):
            for stop in range(start, r + 1):
                if stop - start < n - 1:
                    assert is_causal_slice(arch, start, stop) is None


def test_causality_monotone_under_added_gates():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(3, 6))
        base = staircase(n, 1)
        extra = [(int(j), int(j) + 1)
                 for j in rng.integers(1, n, size=int(rng.integers(1, 5)))]
        pos = int(rng.integers(0, 2))
        gates = list(base.gates)
        if pos == 0:
            gates = extra + gates
        else:
            gates = gates + extra
        grown = from_gate_sequence(n, gates)
        assert is_causal_slice(grown, 0, grown.gate_count) is not None


def test_sink_and_reach_matrix_match_forward_reference():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        pairs = [tuple(int(q) + 1 for q in rng.choice(n, size=2, replace=False))
                 for _ in range(int(rng.integers(0, 25)))]
        arch = from_gate_sequence(n, pairs)
        start, stop = sorted(int(v) for v in rng.integers(0, len(pairs) + 1, 2))
        reach = [forward_reach(arch, start, stop, u) for u in range(1, n + 1)]
        sinks = [v for v in range(1, n + 1) if all(v in r for r in reach)]
        assert is_causal_slice(arch, start, stop) == (max(sinks) if sinks else None)
        # bit u - 1 of mask v - 1: qubit u reaches qubit v
        masks = _reach_masks(arch, start, stop)
        assert [[bool(m >> u & 1) for m in masks] for u in range(n)] == \
            [[v in r for v in range(1, n + 1)] for r in reach]


# -- staircase detection -----------------------------------------------------------


def test_detect_two_qubit_blocks_always_causal():
    arch = random_adjacent(2, 11, seed=3)
    reports = detect_staircase_slices(arch)
    full = [r for r in reports if r.complete]
    assert len(full) == 5
    assert all(r.causal for r in full)
    assert not reports[-1].complete  # trailing gate reported unflagged
    assert not reports[-1].causal


def test_detect_flags_imply_causality():
    arch = random_adjacent(4, 3 * 36, seed=9)
    for rep in detect_staircase_slices(arch):
        if rep.causal:
            assert is_causal_slice(arch, rep.start, rep.stop) is not None


def test_detect_missing_position_unflags():
    n = 3
    # sub-block 1 hits (1,2); sub-block 2 avoids (2,3) entirely
    gates = [(1, 2)] * 6 + [(1, 2)] * 6
    arch = from_gate_sequence(n, gates)
    rep = detect_staircase_slices(arch)[0]
    assert rep.complete
    assert rep.i_flags == (True, False)
    assert not rep.causal


def test_detect_crafted_staircase_flagged():
    n = 3
    gates = [(1, 2)] * 6 + [(2, 3)] * 6
    rep = detect_staircase_slices(from_gate_sequence(n, gates))[0]
    assert rep.i_flags == (True, True)
    assert rep.causal


def test_detect_empirical_fraction_matches_formula():
    # n=5: p = (1 - 0.75^20)^4, checked within 4 sigma over 2000 blocks
    n, trials = 5, 2000
    arch = random_adjacent(n, trials * n * (n - 1) ** 2, seed=123)
    reports = [r for r in detect_staircase_slices(arch) if r.complete]
    assert len(reports) == trials
    p_hat = sum(r.causal for r in reports) / trials
    p = (1 - 0.75 ** 20) ** 4
    assert abs(p_hat - p) <= 4 * np.sqrt(p * (1 - p) / trials)


def test_detect_rejects_nonadjacent_gates():
    arch = from_gate_sequence(4, [(1, 3)])
    with pytest.raises(ValueError):
        detect_staircase_slices(arch)
