"""Contraction, Haar sampling, tangent frames, rank estimation, gauge checks."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import archdim.plan
import archdim.rank
import archdim.sweep
from archdim import (
    CountMismatch,
    GateAssignment,
    PauliString,
    SizeLimit,
    ValidationError,
    accessible_dimension,
    brickwork,
    build_family,
    contract,
    contract_state,
    from_gate_sequence,
    numerical_rank,
    pauli_coefficients,
    random_adjacent,
    staircase,
    subseed,
    tangent_frame,
    witness_point,
)
from archdim import contraction
from archdim.bounds import gauge_fixed_count
from archdim.contraction import MEMORY_BUDGET, frame_shape, peak_bytes
from archdim.dense import apply_gate_left, apply_gate_right
from archdim.pauli import TWO_QUBIT_GENERATOR_MATS, nontrivial_strings
from archdim.rank import DEFAULT_TOLERANCES
from archdim.sweep import transfer_matrices
from reference import (
    explicit,
    forward_reach,
    gate_assignment,
    gauge_redundancy_check,
    gram_certificate,
    haar_one_at_a_time,
    pauli_transfer_matrix,
    perturbation_operator,
    slice_tableau,
    split_gram,
    split_point,
    transfer_matrices_by_label,
)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)


def _embed_oracle(gate: np.ndarray, wires: tuple[int, ...], n: int) -> np.ndarray:
    """Bit-by-bit embedding, independent of the tensordot implementation."""
    k = len(wires)
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    positions = [w - 1 for w in wires]
    for col in range(dim):
        bits = [(col >> (n - 1 - p)) & 1 for p in range(n)]
        sub_in = 0
        for p in positions:
            sub_in = (sub_in << 1) | bits[p]
        for sub_out in range(2 ** k):
            amp = gate[sub_out, sub_in]
            if amp == 0:
                continue
            new_bits = list(bits)
            for i, p in enumerate(positions):
                new_bits[p] = (sub_out >> (k - 1 - i)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            out[row, col] += amp
    return out


def test_apply_gate_left_right_match_embedding_oracle():
    rng = np.random.default_rng(40)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 3))
        wires = tuple(int(w) + 1 for w in rng.choice(n, size=k, replace=False))
        gate = rng.standard_normal((2 ** k, 2 ** k)) \
            + 1j * rng.standard_normal((2 ** k, 2 ** k))
        m = rng.standard_normal((2 ** n, 2 ** n)) \
            + 1j * rng.standard_normal((2 ** n, 2 ** n))
        emb = _embed_oracle(gate, wires, n)
        assert np.abs(apply_gate_left(m, gate, wires, n) - emb @ m).max() < 1e-10
        assert np.abs(apply_gate_right(m, gate, wires, n) - m @ emb).max() < 1e-10
        # a stack of gates gives the stack of products
        stack = np.stack([gate, gate.conj().T, gate @ gate])
        lefts = apply_gate_left(m, stack, wires, n)
        rights = apply_gate_right(m[:3], stack, wires, n)
        for g, left, right in zip(stack, lefts, rights):
            emb = _embed_oracle(g, wires, n)
            assert np.abs(left - emb @ m).max() < 1e-10
            assert np.abs(right - m[:3] @ emb).max() < 1e-10


# -- Haar sampling ---------------------------------------------------------------


def _one_slot(count):
    """``count`` gates on the one pair of a two-qubit register."""
    return from_gate_sequence(2, [(1, 2)] * count)


def test_haar_su4_is_special_unitary():
    for seed in range(5):
        for u in GateAssignment.haar(_one_slot(4), seed).matrices:
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_haar_distinct_seeds_differ():
    one, two = (GateAssignment.haar(_one_slot(1), seed).matrices[0]
                for seed in (1, 2))
    assert np.linalg.norm(one - two) > 1e-3


@pytest.mark.parametrize("count", [0, 1, 2, 30])
def test_haar_batch_bit_identical_to_one_at_a_time(count):
    for seed in range(5):
        got = GateAssignment.haar(_one_slot(count), seed).matrices
        assert np.array_equal(got, haar_one_at_a_time(count, seed))


def test_haar_trace_moment():
    # E |tr U|^2 = 1 on SU(4) as on U(4): the defining representation is
    # irreducible.  10^4 samples, Var(|tr U|^2) = 1 (E |tr U|^4 = 2).
    mats = GateAssignment.haar(_one_slot(10 ** 4), 314159).matrices
    vals = np.abs(np.trace(mats, axis1=1, axis2=2)) ** 2
    assert abs(vals.mean() - 1.0) <= 3.0 / np.sqrt(10 ** 4)


def _first_invalid_gate(mats):
    """Gate-by-gate validation in index order: the reference for the
    vectorised check in GateAssignment."""
    for i, u in enumerate(mats):
        if np.abs(u.conj().T @ u - np.eye(4)).max() > 1e-10:
            return f"gate {i} is not unitary within 1e-10"
        if abs(np.linalg.det(u) - 1.0) > 1e-10:
            return f"gate {i} is not special unitary"
    return None


def test_gate_validation_reports_first_failing_gate():
    rng = np.random.default_rng(45)
    for seed in range(40):
        mats = haar_one_at_a_time(6, seed)
        for i in rng.choice(6, size=int(rng.integers(0, 4)), replace=False):
            if rng.random() < 0.5:
                mats[i] *= np.exp(0.3j)  # unitary, determinant != 1
            else:
                mats[i, 0, 0] += 1e-6  # not unitary
        expected = _first_invalid_gate(mats)
        if expected is None:
            GateAssignment(mats)
            continue
        with pytest.raises(ValidationError) as exc:
            GateAssignment(mats)
        assert str(exc.value) == expected


def test_gate_validation_rejects_nan():
    mats = np.stack([haar_one_at_a_time(1, 46)[0],
                     np.full((4, 4), np.nan, dtype=complex)])
    with pytest.raises(ValidationError, match="gate 1 is not unitary"):
        GateAssignment(mats)


def test_subseed_deterministic_and_spread():
    assert subseed(7, 1) == subseed(7, 1)
    assert subseed(7, 1) != subseed(7, 2)
    assert subseed(7, 1) != subseed(8, 1)
    assert subseed(np.int64(7), 1) == subseed(7, 1)
    # int() truncated these to the seeds 1 and 2 they are not
    for seed in (1.5, 2.0, True):
        with pytest.raises(ValidationError, match="must be an integer"):
            subseed(seed, 1)
    with pytest.raises(ValidationError, match="must be nonnegative"):
        subseed(-1, 1)
    with pytest.raises(ValidationError, match="seed must be an integer"):
        accessible_dimension(staircase(2, 1), "unitary", 3, 1.9)


@pytest.mark.parametrize("seed,match", [(2.0, "must be an integer"),
                                        (True, "must be an integer"),
                                        (-1, "must be nonnegative")])
def test_random_positions_refuse_a_bad_seed(seed, match):
    # the one position stream of random_adjacent and the Monte Carlo, and
    # the Haar sampler, check their seed as subseed does
    with pytest.raises(ValidationError, match=match):
        random_adjacent(5, 12, seed)
    assert random_adjacent(5, 12, np.int64(2)) == random_adjacent(5, 12, 2)
    arch = staircase(3, 1)
    with pytest.raises(ValidationError, match=match):
        GateAssignment.haar(arch, seed)
    assert np.array_equal(GateAssignment.haar(arch, np.int64(2)).matrices,
                          GateAssignment.haar(arch, 2).matrices)


# -- contraction -----------------------------------------------------------------


def test_contract_empty_is_identity():
    arch = from_gate_sequence(3, [])
    gates = explicit([])
    assert np.allclose(contract(arch, gates), np.eye(8))


def test_contract_single_cnot():
    arch = from_gate_sequence(2, [(1, 2)])
    gates = explicit([CNOT])
    u = contract(arch, gates)
    phase = u[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.abs(u - phase * CNOT).max() < 1e-12


def test_contract_two_gates_compose():
    arch = _one_slot(2)
    u, v = haar_one_at_a_time(2, 41)
    gates = explicit([u, v], normalize=False)
    assert np.abs(contract(arch, gates) - v @ u).max() < 1e-12


def test_contract_is_unitary():
    arch = brickwork(4, 2)
    gates = GateAssignment.haar(arch, 5)
    u = contract(arch, gates)
    assert np.abs(u @ u.conj().T - np.eye(16)).max() < 1e-9


def test_contract_respects_slicing():
    arch = staircase(3, 3)
    gates = GateAssignment.haar(arch, 8)
    whole = contract(arch, gates)
    pieces = np.eye(8, dtype=complex)
    for start, stop in arch.slice_ranges():
        sub = from_gate_sequence(3, arch.gates[start:stop])
        part = GateAssignment(gates.matrices[start:stop])
        pieces = contract(sub, part) @ pieces
    assert np.abs(whole - pieces).max() < 1e-9


def test_contract_count_mismatch():
    arch = staircase(3, 1)
    with pytest.raises(CountMismatch):
        contract(arch, explicit([CNOT]))


def test_contract_size_limit():
    # one 2^14 x 2^14 complex operator alone is 4 GiB
    arch = staircase(14, 1)
    gates = GateAssignment.haar(arch, 0)
    with pytest.raises(SizeLimit, match="GiB"):
        contract(arch, gates)


def test_memory_guard_takes_the_frame_shape():
    # 8 gates touching 9 qubits: 9 * 8 + 3 * 9 = 99 gauge-fixed columns
    arch = staircase(9, 1)
    assert frame_shape(arch, "unitary") == (4 ** 9, 99)
    assert frame_shape(arch, "state") == (2 * 2 ** 9, 99)
    # the frame counts twice (the SVD's copy); the state frame's forward
    # sweep holds a C x 2^n complex stack, the frame's size, and no 2^n x 2^n
    # operator: past 16 MiB and 40 state vectors for one gate's temporaries
    # and the plan, its estimate grows as C * 2^n (at n = 18, 4^n bytes are
    # 64 GiB)
    assert peak_bytes(arch, "unitary") >= 2 * 8 * 4 ** 9 * 99
    for tall in (arch, staircase(12, 1), staircase(16, 1), staircase(18, 1)):
        rows, cols = frame_shape(tall, "state")
        frame = 8 * rows * cols
        assert 2 * frame <= peak_bytes(tall, "state") \
            <= 2 * frame + 2 ** 24 + 40 * 16 * 2 ** tall.n
    # n = 9 fits the budget now that the guard counts bytes, not qubits
    gates = GateAssignment.haar(arch, 0)
    assert contract(arch, gates).shape == (512, 512)
    assert contract_state(arch, gates).shape == (512,)


def test_budget_refusal_message():
    with pytest.raises(SizeLimit) as info:
        contraction.check_budget(3 * 2 ** 30, 2 ** 31, "a job needs")
    assert str(info.value) == \
        "a job needs an estimated 3.00 GiB, over the 2 GiB memory budget"
    contraction.check_budget(2 ** 31, 2 ** 31, "a job at the budget needs")


def test_peak_bytes_names_every_job_it_takes():
    # the two frame modes and the two contractions; any other job is
    # refused with all four named
    arch = staircase(3, 1)
    for job in ("unitary", "state", "contract", "contract_state"):
        assert peak_bytes(arch, job) > 0
    with pytest.raises(ValidationError) as info:
        peak_bytes(arch, "foo")
    assert str(info.value) == (
        "job must be 'unitary' or 'state' (a frame mode), 'contract' or "
        "'contract_state', got 'foo'")


def test_an_unknown_mode_is_refused_before_the_size_estimate():
    # the mode is checked first: staircase(20, 3) would otherwise be refused
    # as a state frame over the memory budget
    message = "mode must be 'unitary' or 'state', got 'foo'"
    with pytest.raises(ValidationError) as info:
        accessible_dimension(staircase(20, 3), "foo", 3)
    assert not isinstance(info.value, SizeLimit)
    assert str(info.value) == message
    for job in ("foo", "contract_unitary", None):
        with pytest.raises(ValidationError, match="must be 'unitary' or"):
            peak_bytes(staircase(3, 1), job)
    arch = staircase(3, 1)
    gates = GateAssignment.haar(arch, 0)
    for call in (lambda: tangent_frame(arch, gates, "foo"),
                 lambda: frame_shape(arch, "foo"),
                 lambda: contraction.dimension_bounds(arch, "foo"),
                 lambda: witness_point(arch, "foo")):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("arch, mode", [(staircase(8, 40), "unitary"),
                                        (staircase(20, 1), "state"),
                                        # past n = 32 the sweep's plan
                                        # would overflow its row indices
                                        (staircase(33, 2), "unitary")])
def test_over_budget_frame_fails_before_allocating(arch, mode):
    assert peak_bytes(arch, mode) > MEMORY_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit) as info:
            accessible_dimension(arch, mode, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert f"{peak_bytes(arch, mode) / 2 ** 30:.2f} GiB" in str(info.value)
    assert "2 GiB memory budget" in str(info.value)


# Python objects (gate lists, reach matrices, results) that do not scale
# with the arrays the estimate counts.
_OBJECT_SLACK = 2 ** 20


def test_forward_sweep_estimate_within_the_suffix_sweeps():
    # The backward suffix sweep that the unitary forward sweep replaced
    # counted the frame twice, 64 dense operators and the Pauli plans.
    for arch in (staircase(7, 1), staircase(6, 3), brickwork(6, 1),
                 staircase(6, 12), brickwork(6, 6), staircase(8, 31),
                 staircase(9, 5)):
        suffix_sweep = 2 * 8 * 4 ** arch.n * gauge_fixed_count(arch) \
            + 64 * 16 * 4 ** arch.n + 80 * 4 ** arch.n
        assert peak_bytes(arch, "unitary") <= suffix_sweep
    # the README's admission boundary: the largest shapes admitted, then
    # the smallest refused, per n
    for (n, t), mode, admitted in [
            ((8, 31), "unitary", True), ((9, 5), "unitary", True),
            ((9, 6), "unitary", True), ((10, 1), "unitary", True),
            ((18, 1), "state", True), ((17, 3), "state", True),
            ((8, 32), "unitary", False), ((9, 7), "unitary", False),
            ((10, 2), "unitary", False), ((19, 1), "state", False),
            ((18, 2), "state", False)]:
        assert (peak_bytes(staircase(n, t), mode) <= MEMORY_BUDGET) \
            == admitted, (n, t, mode)


PEAK_CASES = [
    pytest.param(staircase(7, 1), id="staircase7x1"),
    pytest.param(staircase(6, 3), id="staircase6x3"),
    pytest.param(brickwork(6, 1), id="brickwork6x1"),
    pytest.param(staircase(9, 1), id="staircase9x1"),
    pytest.param(staircase(6, 12), id="staircase6x12"),
    pytest.param(brickwork(6, 6), id="brickwork6x6"),
    pytest.param(random_adjacent(6, 40, 1), id="random6x40"),
    pytest.param(from_gate_sequence(6, [(1, 6), (2, 5), (3, 4), (6, 1),
                                        (1, 3), (2, 4), (5, 6)] * 3),
                 id="sequence6x21"),
    # C = 735 of 1024 rows: the Gram certificate's C x C arrays beside the
    # groups outweigh the frame twice
    pytest.param(staircase(5, 20), id="staircase5x20"),
    # C = 282 of 256 rows: the wide certificate's row Gram matrix and its
    # three arrays beside the frame outweigh the frame twice
    pytest.param(staircase(4, 10), id="staircase4x10"),
    # state frames only, up to n = 14; one distant gate's new directions
    # outweigh its 15-column stack
    pytest.param(staircase(12, 2), id="staircase12x2"),
    pytest.param(staircase(13, 1), id="staircase13x1"),
    pytest.param(staircase(14, 1), id="staircase14x1"),
    pytest.param(from_gate_sequence(14, [(1, 14)]), id="sequence14x1")]


@pytest.mark.parametrize("arch", PEAK_CASES)
def test_peak_estimate_bounds_the_traced_peak(arch):
    gates = GateAssignment.haar(arch, 3)
    calls = {
        "unitary": lambda: numerical_rank(tangent_frame(arch, gates)),
        "state": lambda: numerical_rank(tangent_frame(arch, gates, "state")),
        "contract": lambda: contract(arch, gates),
        "contract_state": lambda: contract_state(arch, gates),
    }
    if arch.n > 7:  # keep the unitary frame small
        del calls["unitary"]
    if arch.n > 9:  # and the contracted unitary
        del calls["contract"]
    for job, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= peak_bytes(arch, job) + _OBJECT_SLACK, job


def test_the_plan_splits_the_gram_read_only_where_it_saves_work():
    # dim --family brickwork --n 6 --t 1, one of the traced-peak cases
    # above with staircase(6, 12), random6x40 and staircase5x20, splits;
    # dim-wide's staircase frames and every tall frame on 3 qubits, as in
    # sweep-ramp, keep the forward read
    for arch in (brickwork(6, 6), staircase(6, 12), random_adjacent(6, 40, 1),
                 staircase(5, 20)):
        assert 0 < archdim.plan._frame_plan(
            arch, (arch.gate_count,), prune=True).split < arch.gate_count
    for arch in (staircase(6, 2), staircase(7, 1), staircase(3, 1),
                 staircase(3, 2), staircase(3, 3)):
        assert archdim.plan._frame_plan(
            arch, (arch.gate_count,), prune=True).split == arch.gate_count


def test_contract_state_basics():
    arch = from_gate_sequence(2, [])
    psi = contract_state(arch, explicit([]))
    assert np.allclose(psi, [1, 0, 0, 0])
    # H on qubit 1 embedded into a two-qubit gate
    h2 = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))
    arch = from_gate_sequence(2, [(1, 2)])
    psi = contract_state(arch, explicit([h2]))
    phase = psi[0] * np.sqrt(2)
    assert np.abs(psi - phase * np.array([1, 0, 1, 0]) / np.sqrt(2)).max() < 1e-12
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_contract_state_witness_is_stabilizer_state():
    arch = staircase(3, 2)
    cert = witness_point(arch, "unitary")
    psi = contract_state(arch, gate_assignment(cert.gate_circuits))
    total = slice_tableau(arch, 0, arch.gate_count, cert.gate_circuits)
    # psi is a +1 eigenvector of every conjugated stabilizer generator
    for q in range(1, 4):
        gen = PauliString.single(3, "Z", q)
        stab = total.conjugate(gen)
        assert np.abs(stab.to_matrix() @ psi - psi).max() < 1e-10


# -- pauli coefficients and perturbation operators --------------------------------


_PAULI_STACK = np.stack([
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
])


def _pauli_tensordot_reference(op, n):
    """Re tr(P op) / 2^n over the 4^n labels, one complex tensordot per
    qubit: the reference for the real-arithmetic ``pauli_coefficients``."""
    batch = op.shape[:-2]
    lead = len(batch)
    t = op.reshape(batch + (2,) * (2 * n))
    for q in range(n - 1, -1, -1):
        m = n - 1 - q  # qubits already consumed
        t = np.tensordot(_PAULI_STACK, t,
                         axes=([2, 1], [m + lead + q, n + lead + q]))
    # t is (4,) * n + batch: one Pauli axis per qubit, then the batch
    t = np.moveaxis(t.reshape((4 ** n,) + batch), 0, -1)
    return t.real / 2 ** n


def _random_ops(rng, shape, n, hermitian):
    k = rng.standard_normal(shape + (2 ** n, 2 ** n)) \
        + 1j * rng.standard_normal(shape + (2 ** n, 2 ** n))
    return k + np.swapaxes(k, -1, -2).conj() if hermitian else k


def test_pauli_coefficients_against_trace_oracle():
    rng = np.random.default_rng(42)
    for n in range(1, 6):
        labels = [PauliString.identity(n)] + list(nontrivial_strings(n))
        paulis = np.stack([p.to_matrix() for p in labels])
        h = _random_ops(rng, (), n, hermitian=True)
        k = _random_ops(rng, (), n, hermitian=False)
        stack = _random_ops(rng, (3,), n, hermitian=True)
        # tr(P h) for every label P; a non-Hermitian k gives the
        # coefficients of its Hermitian part (k + k^dagger) / 2
        for op, want in ((h, np.einsum("pij,ji->p", paulis, h).real),
                         (k, np.einsum("pij,ji->p", paulis,
                                       (k + k.conj().T) / 2).real)):
            assert np.abs(pauli_coefficients(op, n) - want / 2 ** n).max() < 1e-10
        want = np.einsum("pij,bji->bp", paulis, stack).real / 2 ** n
        assert pauli_coefficients(stack, n).shape == (3, 4 ** n)
        assert np.abs(pauli_coefficients(stack, n) - want).max() < 1e-10


def test_batched_pauli_coefficients_bit_identical():
    # every plan size from 1 to 7 qubits
    rng = np.random.default_rng(43)
    for n in range(1, 8):
        h = _random_ops(rng, (15,), n, hermitian=True)
        batched = pauli_coefficients(h, n)
        assert batched.shape == (15, 4 ** n)
        for op, row in zip(h, batched):
            assert np.array_equal(row, pauli_coefficients(op, n))


@pytest.mark.parametrize("hermitian", [True, False],
                         ids=["hermitian", "non-hermitian"])
def test_pauli_coefficients_match_tensordot_reference(hermitian):
    rng = np.random.default_rng(47)
    for n in range(1, 8):
        ops = _random_ops(rng, (4,), n, hermitian)
        got = pauli_coefficients(ops, n)
        want = _pauli_tensordot_reference(ops, n)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_perturbation_operator_is_conjugated_generator():
    arch = staircase(3, 2)
    gates = GateAssignment.haar(arch, 17)
    j, k = 1, 7
    kop = perturbation_operator(arch, gates, j, k)
    # Hermitian and traceless
    assert np.abs(kop - kop.conj().T).max() < 1e-10
    assert abs(np.trace(kop)) < 1e-10
    # inserting after the final gate leaves the generator bare
    klast = perturbation_operator(arch, gates, arch.gate_count - 1, k)
    expected = TWO_QUBIT_GENERATOR_MATS[k]
    emb = _embed_oracle(expected, arch.gates[-1], 3)
    assert np.abs(klast - emb).max() < 1e-10


def test_finite_difference_matches_perturbation_operator():
    # central difference of the contraction along eps_{j,k}
    rng = np.random.default_rng(44)
    eps = 1e-5
    worst = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 5))
        arch = staircase(n, int(rng.integers(1, 4)))
        gates = GateAssignment.haar(arch, int(rng.integers(10 ** 6)))
        j = int(rng.integers(arch.gate_count))
        k = int(rng.integers(15))
        s = TWO_QUBIT_GENERATOR_MATS[k]
        kop = perturbation_operator(arch, gates, j, k)
        base = contract(arch, gates)
        plus = np.cos(eps) * np.eye(4) + 1j * np.sin(eps) * s  # S^2 = 1
        def shifted(p):
            mats = gates.matrices.copy()
            mats[j] = p @ mats[j]
            return contract(arch, GateAssignment(mats))
        fd = (shifted(plus) - shifted(plus.conj().T)) / (2 * np.sin(eps))
        pred = 1j * kop @ base
        worst = max(worst, np.linalg.norm(fd - pred) / np.linalg.norm(pred))
    assert worst < 1e-6


# -- tangent frames ----------------------------------------------------------------


def test_single_gate_frame_has_rank_fifteen():
    arch = from_gate_sequence(2, [(1, 2)])
    gates = GateAssignment.haar(arch, 3)
    est = numerical_rank(tangent_frame(arch, gates))
    assert est.rank == 15


def test_identity_point_staircase_frame_counts_distinct_strings():
    arch = staircase(3, 1)
    gates = explicit([np.eye(4, dtype=complex)] * 2)
    frame = tangent_frame(arch, gates)
    # columns are raw embedded two-qubit strings; count distinct embeddings
    distinct = set()
    for wires in arch.gates:
        for p in nontrivial_strings(2):
            letters = ["I"] * 3
            for q, w in enumerate(wires, 1):
                letters[w - 1] = p.letter(q)
            distinct.add("".join(letters))
    assert numerical_rank(frame).rank == len(distinct) == 27


def test_frame_contains_witness_directions():
    arch = staircase(3, 2)
    cert = witness_point(arch, "unitary")
    frame = tangent_frame(arch, gate_assignment(cert.gate_circuits))
    labels = [PauliString.identity(3)] + list(nontrivial_strings(3))
    for d in cert.directions:
        target = np.zeros(64)
        target[labels.index(PauliString(3, d.x_bits, d.z_bits))] = 1.0
        sol, *_ = np.linalg.lstsq(frame.matrix, target, rcond=None)
        assert np.linalg.norm(frame.matrix @ sol - target) < 1e-8


def test_unitary_frame_columns_are_traceless_unit_vectors():
    arch = staircase(3, 2)
    gates = GateAssignment.haar(arch, 9)
    frame = tangent_frame(arch, gates)
    assert np.abs(frame.matrix[0]).max() < 1e-10  # identity component
    norms = np.linalg.norm(frame.matrix, axis=0)
    assert np.abs(norms - 1.0).max() < 1e-10


def test_state_frame_columns_tangent_to_sphere():
    arch = staircase(3, 2)
    gates = GateAssignment.haar(arch, 10)
    psi = contract_state(arch, gates)
    frame = tangent_frame(arch, gates, mode="state")
    psi_real = np.concatenate([psi.real, psi.imag])
    overlaps = psi_real @ frame.matrix
    assert np.abs(overlaps).max() < 1e-10


def test_frame_matches_perturbation_operator_columns():
    arch = staircase(3, 2)
    gates = GateAssignment.haar(arch, 11)
    frame = tangent_frame(arch, gates)
    rng = np.random.default_rng(0)
    for c in rng.choice(frame.matrix.shape[1], size=6, replace=False):
        j, k = (int(x) for x in frame.columns[c])
        kop = perturbation_operator(arch, gates, j, k)
        assert np.abs(frame.matrix[:, c]
                      - _pauli_tensordot_reference(kop, 3)).max() < 1e-10


def _reference_frame(arch, gates, mode):
    """All 15R directions, one perturbation_operator call per column, in
    (gate, generator) order."""
    if mode == "unitary":
        cols = [_pauli_tensordot_reference(
                    perturbation_operator(arch, gates, j, k), arch.n)
                for j in range(arch.gate_count) for k in range(15)]
    else:
        psi = contract_state(arch, gates)
        cols = []
        for j in range(arch.gate_count):
            for k in range(15):
                v = 1j * perturbation_operator(arch, gates, j, k) @ psi
                cols.append(np.concatenate([v.real, v.imag]))
    return np.stack(cols, axis=1)


def _kept(frame):
    """Indices into the 15R reference of the frame's columns."""
    return 15 * frame.columns[:, 0] + frame.columns[:, 1]


FRAME_CASES = [
    pytest.param(lambda: staircase(5, 2), id="staircase-5-2"),
    pytest.param(lambda: staircase(6, 1), id="staircase-6-1"),
    pytest.param(lambda: brickwork(4, 6), id="brickwork-4-6"),
    pytest.param(lambda: random_adjacent(5, 14, 6), id="random-5-14"),
]


@pytest.mark.parametrize("build", FRAME_CASES)
def test_unitary_frame_matches_columnwise_reference(build):
    arch = build()
    gates = GateAssignment.haar(arch, 21)
    frame = tangent_frame(arch, gates)
    ref = _reference_frame(arch, gates, "unitary")
    assert np.abs(frame.matrix - ref[:, _kept(frame)]).max() < 1e-12
    got, want = numerical_rank(frame), numerical_rank(ref)
    assert (got.loose_rank, got.tight_rank) == (want.loose_rank, want.tight_rank)


@pytest.mark.parametrize("build", FRAME_CASES)
def test_state_frame_matches_columnwise_reference(build):
    arch = build()
    gates = GateAssignment.haar(arch, 22)
    frame = tangent_frame(arch, gates, mode="state")
    ref = _reference_frame(arch, gates, "state")
    assert np.abs(frame.matrix - ref[:, _kept(frame)]).max() < 1e-12
    got, want = numerical_rank(frame), numerical_rank(ref)
    assert (got.loose_rank, got.tight_rank) == (want.loose_rank, want.tight_rank)


def _gauge_cases(mode):
    """(architecture, gate assignment) pairs: Haar points, identity gates and
    all-Clifford witness points of ``mode``."""
    cases = [(p.values[0](), 24) for p in FRAME_CASES]
    cases += [(staircase(3, 2), "identity"), (brickwork(4, 4), "identity"),
              (from_gate_sequence(2, [(1, 2), (1, 2)]), 25),
              (staircase(3, 3), "witness"), (staircase(4, 3), "witness"),
              (brickwork(4, 4), "witness")]
    out = []
    for arch, point in cases:
        if point == "identity":
            gates = explicit([np.eye(4)] * arch.gate_count)
        elif point == "witness":
            gates = gate_assignment(witness_point(arch, mode).gate_circuits)
        else:
            gates = GateAssignment.haar(arch, point)
        out.append((arch, gates))
    return out


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_gauge_fixed_frame_keeps_full_frame_rank(mode):
    for arch, gates in _gauge_cases(mode):
        frame = tangent_frame(arch, gates, mode)
        r, touched = arch.gate_count, len(arch.touched_qubits())
        assert frame.matrix.shape == frame_shape(arch, mode)
        assert frame.matrix.shape[1] == 9 * r + 3 * touched \
            == gauge_fixed_count(arch)
        ref = _reference_frame(arch, gates, mode)
        assert np.abs(frame.matrix - ref[:, _kept(frame)]).max() < 1e-12
        got, want = numerical_rank(frame), numerical_rank(ref)
        assert got.conclusive
        assert (got.loose_rank, got.tight_rank) == \
            (want.loose_rank, want.tight_rank)


def test_frame_drops_single_qubit_generators_of_passed_wires():
    # gate 0 passes both wires on, gate 1 passes wire 2, gate 2 passes none
    arch = from_gate_sequence(3, [(1, 2), (1, 2), (2, 3)])
    frame = tangent_frame(arch, GateAssignment.haar(arch, 26))
    kept = {j: [int(k) for g, k in frame.columns if g == j] for j in range(3)}
    assert kept[0] == [k for k in range(15) if k not in (0, 1, 2, 3, 7, 11)]
    assert kept[1] == [k for k in range(15) if k not in (0, 1, 2)]
    assert kept[2] == list(range(15))


@pytest.mark.parametrize("build", FRAME_CASES)
def test_unitary_frame_vanishes_outside_light_cone(build):
    arch = build()
    n = arch.n
    frame = tangent_frame(arch, GateAssignment.haar(arch, 23))
    # letters[i, q] is the letter (0 = I) of Pauli row i on qubit q + 1
    letters = (np.arange(4 ** n)[:, None] // 4 ** np.arange(n - 1, -1, -1)) % 4
    partial = False
    for j, (a, _b) in enumerate(arch.gates):
        reached = forward_reach(arch, j, arch.gate_count, a)
        cone = np.array([q in reached for q in range(1, n + 1)])
        outside = (letters[:, ~cone] != 0).any(axis=1)
        block = frame.matrix[:, frame.columns[:, 0] == j]
        assert np.all(block[outside] == 0.0)
        partial |= not cone.all()
    assert partial


def _cone_index_loop(cone, n, base):
    idx = np.zeros(1, dtype=np.intp)
    for q in cone:
        idx = (idx[:, None] + np.arange(base) * base ** (n - q)).ravel()
    return idx


def _scatter_reference_unitary_frame(arch, gates):
    """The unitary frame by a backward suffix sweep, independent of the
    forward Pauli-transfer sweep: each gate's kept directions are formed
    from the suffix rows of their cone (a fancy-index gather), expanded with
    ``pauli_coefficients`` and scattered into the cone's Pauli rows."""
    n = arch.n
    rows, width = frame_shape(arch, "unitary")
    cols = np.zeros((width, rows))
    reach = np.eye(n, dtype=bool)
    suffix = np.eye(2 ** n, dtype=complex)
    stop = width
    for j in range(arch.gate_count - 1, -1, -1):
        a, b = wires = arch.gates[j]
        kept = archdim.plan._gauge(arch, (arch.gate_count,))[0][j]
        block = slice(stop - kept.size, stop)
        stop = block.start
        reach[[a - 1, b - 1]] = reach[a - 1] | reach[b - 1]
        cone = np.flatnonzero(reach[a - 1]) + 1
        sub = suffix[_cone_index_loop(cone, n, 2)]
        ks = apply_gate_right(sub, archdim.sweep._GENERATOR_STACK[kept],
                              wires, n) @ sub.conj().T
        cols[block, _cone_index_loop(cone, n, 4)] = \
            pauli_coefficients(ks, cone.size)
        suffix = apply_gate_right(suffix, gates.matrices[j], wires, n)
    return cols.T


SWEEP_CASES = FRAME_CASES + [
    pytest.param(lambda: brickwork(6, 6), id="brickwork-6-6"),
    pytest.param(lambda: staircase(7, 1), id="staircase-7-1"),
    # non-adjacent and reversed wires take the tensordot route
    pytest.param(lambda: from_gate_sequence(
        4, [(3, 1), (2, 4), (1, 4), (4, 3), (2, 1)]), id="sequence-4-5"),
    # gate 3 merges two groups into the partial cone (1, 2, 3), through
    # the tensordot route
    pytest.param(lambda: from_gate_sequence(
        5, [(1, 3), (2, 3), (1, 2), (3, 1), (4, 5)]), id="sequence-5-5"),
    # gate 2 moves cone (1, 2, 4) to (1, 2, 3) through the tensordot
    # route, dropping wire 4, whose last gate has passed
    pytest.param(lambda: from_gate_sequence(
        4, [(1, 2), (2, 4), (1, 3), (2, 3)]), id="sequence-4-4"),
    # the cone is the whole register from the first gate on
    pytest.param(lambda: from_gate_sequence(2, [(1, 2), (2, 1)]),
                 id="sequence-2-2"),
    pytest.param(lambda: from_gate_sequence(3, []), id="empty-3")]


@pytest.mark.parametrize("build", SWEEP_CASES)
def test_unitary_frame_bit_identical_to_scatter_reference(build):
    # The forward sweep sums in another order than the backward reference,
    # so the frames agree to rounding, with equal ranks.  The Gram matrix
    # read off the sweep agrees with the reference's within its bound.
    arch = build()
    for seed in (27, 28):
        gates = GateAssignment.haar(arch, seed)
        frame = tangent_frame(arch, gates)
        ref = _scatter_reference_unitary_frame(arch, gates)
        rows, cols = ref.shape
        if cols >= rows:
            assert frame.gram is None
        else:
            assert frame.gram.shape == (cols, cols)
            assert _gram_gap(frame.gram, ref) <= frame.gram_error
        assert frame.matrix.shape == ref.shape
        assert np.abs(frame.matrix - ref).max(initial=0.0) < 1e-12
        got, want = numerical_rank(frame), numerical_rank(ref)
        assert (got.loose_rank, got.tight_rank) == \
            (want.loose_rank, want.tight_rank)


def _gram_gap(gram, mat):
    """||gram - mat^T mat||_2, 0 for an empty frame."""
    return np.linalg.norm(gram - mat.T @ mat, 2) if gram.size else 0.0


def _plan_spans(arch, prune, split=None):
    """(first step, last step, offset, size) of every group of the plan,
    read back from its moves: a group lives to the end when the unpruned
    sweep ends with it or the join reads it."""
    plan = archdim.plan._frame_plan(arch, (arch.gate_count,), prune=prune,
                                    split=split)
    joined = {(False, join.forward) for join in plan.joins} \
        | {(True, join.backward) for join in plan.joins}
    spans, groups = [], {}
    for s, step in enumerate(plan.steps):
        half = s >= plan.split  # the backward half's groups are its own
        for move in step:
            for src in move.sources:
                spans[groups.pop((half, src))][1] = s
            groups[half, move.cone] = len(spans)
            block = move.block  # the rest's offsets start after the head
            offset = block.span.start + plan.held * (block.arena == 0)
            spans.append([s, s, offset, 4 ** len(move.cone) * block.width])
    for key, i in groups.items():
        if not prune or key in joined:
            spans[i][1] = arch.gate_count
    return plan, spans


PLAN_CASES = SWEEP_CASES + [
    pytest.param(lambda: staircase(6, 12), id="staircase-6-12"),
    pytest.param(lambda: random_adjacent(6, 40, 1), id="random-6-40"),
    pytest.param(lambda: from_gate_sequence(
        6, [(1, 6), (2, 5), (3, 4), (6, 1), (1, 3), (2, 4), (5, 6)] * 3),
        id="sequence-6-21")]

# the three dim shapes of the benchmark's dim-wide workload
DIM_CASES = [
    pytest.param(lambda: build_family("staircase", 6, 2),
                 id="dim-staircase-6-2"),
    pytest.param(lambda: build_family("staircase", 7, 1),
                 id="dim-staircase-7-1"),
    pytest.param(lambda: build_family("brickwork", 6, 1),
                 id="dim-brickwork-6-1")]


@pytest.mark.parametrize("build", PLAN_CASES + DIM_CASES)
def test_split_pricing_on_wire_bitmasks_picks_the_same_split(build):
    # the join priced on wire bitmasks picks the h that listing each
    # candidate's meets as wire tuples picks
    arch = build()
    labels = archdim.plan._gauge(arch, (arch.gate_count,))[1]
    halves = [archdim.plan._half_plan(arch, labels, True, backward=backward)
              for backward in (False, True)]
    want = split_point(*halves, archdim.plan._CALL_MADDS)
    assert archdim.plan._split_point(*halves) == want
    assert archdim.plan._frame_plan(arch, (arch.gate_count,),
                                    prune=True).split == want


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("build", PLAN_CASES + DIM_CASES)
def test_a_bound_sweep_allocates_only_when_it_binds(build, prune, samples):
    # binding a plan makes, per sample, its arena, its scratch (which
    # each transfer's temporaries, priced by its _Spec, fit in, or the
    # binding raises), its gate buffer and, for a Gram plan, its Gram
    # matrix; beside them it keeps less than one _TABLE_OBJECT of views
    # and calls per compiled move, feed, join and gate.  Its sweep then
    # makes no array that grows with the frame.
    arch = build()
    plan = archdim.plan._frame_plan(arch, (arch.gate_count,), prune=prune)
    for step in plan.steps:
        for move in step:
            for feed in move.feeds:
                assert feed.spec.temps * feed.source.width <= plan.scratch
    transfers = transfer_matrices(
        GateAssignment.haar(arch, list(range(27, 27 + samples))))
    arrays = 8 * samples * (plan.arena + plan.scratch
                            + archdim.sweep._gate_entries(plan)
                            + prune * plan.width ** 2)
    objects = len(plan.gates) + len(plan.joins) + sum(
        len(step) + sum(len(move.feeds) for move in step)
        for step in plan.steps)
    tracemalloc.start()
    try:
        program = archdim.sweep._bind(plan, transfers)
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        archdim.sweep._sweep(program, transfers)
        swept = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    assert kept <= arrays + archdim.plan._TABLE_OBJECT * objects + 1024
    assert swept <= 8192 * samples


@pytest.mark.parametrize("build", PLAN_CASES + DIM_CASES)
def test_scratch_prices_only_the_reads_a_sweep_makes(build):
    # a move's read (its rows, and backward their product with the born
    # columns) is priced where the sweep makes it, on a move with sources
    arch = build()
    plan = archdim.plan._frame_plan(arch, (arch.gate_count,), prune=True)
    for gate, step in zip(plan.gates, plan.steps):
        for move in step:
            assert (move.read is None) == (move.at == 0)
            if move.at:
                assert (16 * gate.backward + gate.labels.size) \
                    * move.block.width <= plan.scratch


def test_a_lone_gate_plan_makes_no_scratch():
    # the gate's own group has no source, so the sweep reads nothing
    plan = archdim.plan._frame_plan(from_gate_sequence(2, [(1, 2)]), (1,),
                                   prune=True)
    assert plan.scratch == 0


# peak_bytes(arch, "unitary") and (arch, "state") of each plan case,
# measured while the reads of moves without sources were still priced; no
# estimate may rise.  The unitary ones were measured again when each Gram
# plan came to keep its Gram index (``_FramePlan.index``, 4 bytes a staged
# entry) and a consensus's bound Gram sweep to hold its arena through the
# certificate, which is now brickwork-4-6's largest phase; the state ones
# are unchanged.
PEAK_BYTES_BEFORE = {
    "staircase-5-2": (1608712, 327680), "staircase-6-1": (4219328, 439328),
    "brickwork-4-6": (2112876, 482304), "random-5-14": (2691316, 536576),
    "brickwork-6-6": (20279324, 1708032), "staircase-7-1": (19783088, 812832),
    "sequence-4-5": (317272, 149504), "sequence-5-5": (1064492, 307712),
    "sequence-4-4": (264924, 123904), "sequence-2-2": (45376, 41216),
    "empty-3": (0, 4608), "staircase-6-12": (40965772, 3305472),
    "random-6-40": (26819612, 2240512), "sequence-6-21": (15544048, 1228800)}


@pytest.mark.parametrize("build, before", [
    pytest.param(case.values[0], PEAK_BYTES_BEFORE[case.id], id=case.id)
    for case in PLAN_CASES])
def test_no_peak_estimate_rises(build, before):
    arch = build()
    for mode, bound in zip(("unitary", "state"), before):
        assert peak_bytes(arch, mode) <= bound


@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("build", PLAN_CASES)
def test_plan_tables_bound_what_a_plan_keeps(build, prune):
    # peak_bytes counts each cached plan's compiled tables; with 4 KiB a
    # gate for the integer bookkeeping the plans kept before (under the
    # 16 KiB a gate of the transfer term), they bound all a build keeps,
    # the Gram index that a first Gram read makes included
    arch = build()
    archdim.plan._frame_plan.cache_clear()
    tracemalloc.start()
    try:
        plan = archdim.plan._frame_plan(arch, (arch.gate_count,), prune=prune)
        assert plan.index.size == plan.staging
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= plan.tables + 4096 * arch.gate_count + 2 ** 14


@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("build", PLAN_CASES)
def test_live_groups_never_overlap_in_the_arena(build, prune):
    arch = build()
    end = arch.gate_count
    # the chosen split, a pure backward sweep and the middle one
    splits = {None, 0, end // 2} if prune else {None}
    for split in splits:
        plan, spans = _plan_spans(arch, prune, split)
        for i, (first, last, offset, size) in enumerate(spans):
            assert 0 <= offset and offset + size <= plan.arena
            # the head holds exactly the groups the sweep ends with
            if last == end:
                assert offset + size <= plan.held
            else:
                assert offset >= plan.held or offset + size <= plan.held
            for first2, last2, offset2, size2 in spans[:i]:
                if first <= last2 and first2 <= last:
                    assert offset + size <= offset2 \
                        or offset2 + size2 <= offset
        assert plan.held == sum(size for first, last, offset, size in spans
                                if last == end)
        if prune:  # only the join's groups outlive the pruned sweep
            assert bool(plan.held) == bool(plan.joins)


@pytest.mark.parametrize("build", PLAN_CASES)
def test_pruned_groups_hold_no_passed_wire(build):
    # no group written after a wire's last gate (forward) or before its
    # first gate (backward) contains that wire; the unpruned plan keeps
    # every wire of a column's forward light cone
    arch = build()
    end = arch.gate_count
    last = {q: j for j, gate in enumerate(arch.gates) for q in gate}
    first = {q: j for j, gate in reversed(list(enumerate(arch.gates)))
             for q in gate}
    pruned, full = (archdim.plan._frame_plan(arch, (end,), prune=True,
                                             split=end),
                    archdim.plan._frame_plan(arch, (end,)))
    dropped = False
    for j, (step, full_step) in enumerate(zip(pruned.steps, full.steps)):
        for move in step:
            assert all(last[w] >= j for w in move.cone)
        dropped |= any(last[w] < j for move in full_step for w in move.cone)
    backward = archdim.plan._frame_plan(arch, (end,), prune=True, split=0)
    for j, step in zip(range(end - 1, -1, -1), backward.steps):
        for move in step:
            assert all(first[w] <= j for w in move.cone)
            assert arch.gates[j][0] in move.cone
    # fewer entries written exactly when the unpruned plan moves a wire on
    # after its last gate
    written = [sum(4 ** len(move.cone) * move.block.width
                   for step in plan.steps for move in step)
               for plan in (pruned, full)]
    assert (written[0] < written[1]) == dropped
    assert written[0] <= written[1]


@pytest.mark.parametrize("build", SWEEP_CASES)
def test_pruned_gram_matches_the_unpruned_sweep(build):
    # a tall frame reads its Gram matrix off the Gram plan's pruned sweep,
    # within its bound of M^T M for the matrix the matrix plan's unpruned
    # sweep forms when it is first read, which matches the scatter reference
    arch = build()
    rows, cols = frame_shape(arch, "unitary")
    for seed in (27, 28):
        gates = GateAssignment.haar(arch, seed)
        frame = tangent_frame(arch, gates)
        if cols >= rows:
            assert frame.gram is None
            continue
        assert "matrix" not in frame.__dict__
        assert _gram_gap(frame.gram, frame.matrix) <= frame.gram_error
        ref = _scatter_reference_unitary_frame(arch, gates)
        assert np.abs(frame.matrix - ref).max(initial=0.0) < 1e-12


def _split_frame(monkeypatch, arch, gates, split):
    """The unitary frame whose Gram read splits the gates at ``split``."""
    plan = archdim.plan._frame_plan
    monkeypatch.setattr_everywhere(
        archdim.plan, "_frame_plan",
        lambda arch, ends, prune=False: plan(
            arch, ends, prune=prune, split=split if prune else None))
    try:
        return tangent_frame(arch, gates)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("build", SWEEP_CASES)
def test_every_split_reads_the_gram_matrix_within_its_bound(build,
                                                            monkeypatch):
    # Every split h, from the backward sweep alone (h = 0) to the forward
    # one (h = R), reads a Gram matrix within gram_error of M^T M and of
    # the forward read, and certifies the same ranks by the same route.
    arch = build()
    rows, cols = frame_shape(arch, "unitary")
    end = arch.gate_count
    gates = GateAssignment.haar(arch, 27)
    whole = _split_frame(monkeypatch, arch, gates, end)
    want = numerical_rank(whole)
    for split in range(end + 1):
        frame = _split_frame(monkeypatch, arch, gates, split)
        if cols >= rows:
            assert frame.gram is None
            continue
        assert _gram_gap(frame.gram, whole.matrix) <= frame.gram_error
        if cols:
            assert np.linalg.norm(frame.gram - whole.gram, 2) \
                <= frame.gram_error
        assert frame.gram_error >= whole.gram_error
        got = numerical_rank(frame)
        assert (got.route, got.loose_rank, got.tight_rank) == \
            (want.route, want.loose_rank, want.tight_rank)


@pytest.mark.parametrize("build", SWEEP_CASES)
def test_split_gram_matches_the_dense_reference(build):
    # the light-cone groups, dropped wires and join of every split read
    # what whole 4^n-row vectors read, to rounding
    arch = build()
    cols = frame_shape(arch, "unitary")[1]
    end = arch.gate_count
    transfers = transfer_matrices(GateAssignment.haar(arch, 28))
    kept = archdim.plan._gauge(arch, (end,))[0]
    splits = set(range(end + 1))
    if end > 18:  # the reference takes about 0.15 s a split on brickwork-6-6
        splits = {0, 1, end // 2, end - 1, end,
                  archdim.plan._frame_plan(arch, (end,), prune=True).split}
    for split in splits:
        plan = archdim.plan._frame_plan(arch, (end,), prune=True, split=split)
        stack = transfers[None]
        gram, = archdim.sweep._gram_read(archdim.sweep._bind(plan, stack),
                                         stack)
        ref = split_gram(arch, transfers, kept, split)
        assert np.abs(gram - ref).max(initial=0.0) < 1e-13
        # one symmetrisation fills the entries the sweep leaves
        assert np.array_equal(gram, gram.T)


def _causal_pairs(arch):
    """causal[j, j2]: j < j2 and a path of gates runs from gate j to gate
    j2, so that j2 touches a wire of gate j's forward light cone."""
    end = arch.gate_count
    causal = np.zeros((end, end), dtype=bool)
    for j in range(end):
        reach = set(arch.gates[j])
        for j2 in range(j + 1, end):
            if reach & set(arch.gates[j2]):
                causal[j, j2] = True
                reach |= set(arch.gates[j2])
    return causal


@pytest.mark.parametrize("build", PLAN_CASES)
def test_each_gram_pair_is_written_once(build):
    # integer bookkeeping only: at every split the reads and joins of the
    # plan's tables write each pair of columns of causally linked gates
    # once, into the entry whose row is the later gate's, and no pair of
    # one gate's columns; a pair with no causal path reads 0 and is not
    # written.  So the closing g += g.T.copy() adds only exact zeros.
    arch = build()
    end = arch.gate_count
    for split in {0, end // 2, end,
                  archdim.plan._frame_plan(arch, (end,), prune=True).split}:
        plan = archdim.plan._frame_plan(arch, (end,), prune=True, split=split)
        gate = archdim.plan._gauge(arch, (end,))[2][:, 0]
        counts = np.zeros((gate.size, gate.size), dtype=np.intp)
        for step in plan.steps:
            for move in step:
                assert (move.pairs is None) == (move.at == 0)
                if move.pairs is not None:
                    np.add.at(counts, move.pairs, 1)
        for join in plan.joins:
            np.add.at(counts, join.pairs, 1)
        want = _causal_pairs(arch)[gate[None, :], gate[:, None]]
        assert np.array_equal(counts, want.astype(np.intp)), split
        # the staging vector holds one entry a pair, and the plan's index
        # sends each to the pair's entry
        assert plan.staging == counts.sum()
        placed = np.bincount(plan.index, minlength=counts.size)
        assert np.array_equal(placed.reshape(counts.shape), counts), split
        assert not plan.index.flags.writeable


def _held_arrays(x):
    """Every ndarray inside ``x``, through tuples (named ones too) and
    dataclass fields."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, tuple):
        for item in x:
            yield from _held_arrays(item)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _held_arrays(getattr(x, f.name))


@pytest.mark.parametrize("build", PLAN_CASES)
def test_each_plan_keeps_only_its_own_sweep_tables(build):
    # the matrix plan is the forward sweep with no Gram read tables, the
    # Gram plan has no final groups, and every array either cached plan
    # holds is read-only, since every frame of the architecture shares it
    arch = build()
    matrix = archdim.plan._frame_plan(arch, (arch.gate_count,))
    assert matrix.split == arch.gate_count and matrix.joins == ()
    assert all(move.read is None and move.pairs is None
               for step in matrix.steps for move in step)
    gram = archdim.plan._frame_plan(arch, (arch.gate_count,), prune=True)
    assert gram.final == ()
    for plan in (matrix, gram):
        arrays = list(_held_arrays(plan))
        assert bool(arrays) == bool(arch.gate_count)
        assert not any(x.flags.writeable for x in arrays)


def _count_sweeps(monkeypatch, arch):
    """The list that records, for each later ``_sweep`` call, whether it ran
    ``arch``'s pruned plan."""
    pruned = archdim.plan._frame_plan(arch, (arch.gate_count,), prune=True)
    swept = []
    sweep = archdim.sweep._sweep

    def counted(program, transfers):
        swept.append(program.plan is pruned)
        return sweep(program, transfers)

    monkeypatch.setattr_everywhere(archdim.sweep, "_sweep", counted)
    return swept


@pytest.mark.parametrize("arch", [staircase(3, 8), random_adjacent(3, 10, 2),
                                  staircase(2, 3)],
                         ids=["staircase-3-8", "random-3-10", "staircase-2-3"])
def test_a_wide_frame_sweeps_once_when_its_matrix_is_read(arch, monkeypatch):
    # C >= 4^n: no Gram matrix, so making the frame runs no sweep, and the
    # first read of its matrix runs the unpruned one; the rank's wide
    # certificate reads that matrix, and holds when the rank is 4^n - 1
    rows, cols = frame_shape(arch, "unitary")
    assert cols >= rows
    gates = GateAssignment.haar(arch, 36)
    swept = _count_sweeps(monkeypatch, arch)
    frame = tangent_frame(arch, gates)
    assert frame.gram is None
    assert swept == []
    est = numerical_rank(frame)
    assert frame.matrix is frame.matrix
    assert swept == [False]
    monkeypatch.undo()
    ref = _scatter_reference_unitary_frame(arch, gates)
    assert np.abs(frame.matrix - ref).max() < 1e-12
    want = numerical_rank(ref)
    assert (est.loose_rank, est.tight_rank) == \
        (want.loose_rank, want.tight_rank)
    assert est.route == ("gram" if want.rank == rows - 1 else "svd")


def test_a_failed_certificate_forms_the_matrix_by_one_unpruned_sweep(
        monkeypatch):
    # random_adjacent(5, 12, 4) is tall and rank-deficient: every sample's
    # certificate fails on its pruned frame, and the SVD reads the matrix
    # that one unpruned sweep forms; the three samples are one batch, so
    # one pruned sweep reads their Gram matrices and one unpruned sweep
    # forms their matrices
    arch = random_adjacent(5, 12, 4)
    swept = _count_sweeps(monkeypatch, arch)
    report = accessible_dimension(arch, "unitary", 3, 5)
    assert swept == [True, False]
    monkeypatch.undo()
    for i, est in enumerate(report.estimates):
        gates = GateAssignment.haar(arch, subseed(5, i))
        want = numerical_rank(_scatter_reference_unitary_frame(arch, gates))
        assert est.route == want.route == "svd"
        assert est.rank == want.rank < frame_shape(arch, "unitary")[1]
        assert np.abs(est.singular_values - want.singular_values).max() \
            < 1e-12 * want.singular_values[0]


def test_gram_route_leaves_the_frame_matrix_unbuilt(monkeypatch):
    # a certified frame runs one pruned sweep and forms no matrix
    arch = staircase(7, 1)
    swept = _count_sweeps(monkeypatch, arch)
    frame = tangent_frame(arch, GateAssignment.haar(arch, 33))
    est = numerical_rank(frame)
    assert est.route == "gram"
    assert "matrix" not in frame.__dict__
    assert swept == [True]
    # the matrix is still there to read, formed once by the unpruned sweep
    assert frame.matrix is frame.matrix
    assert swept == [True, False]
    assert numerical_rank(frame.matrix).rank == est.rank


def _near_unitary_frame(arch, scale):
    """The frame at Haar gates moved off unitarity by about ``scale``, and
    the largest 2-norm defect of their transfer matrices."""
    haar = GateAssignment.haar(arch, 40).matrices
    rng = np.random.default_rng(41)
    gates = GateAssignment(haar + scale * (
        rng.standard_normal(haar.shape) + 1j * rng.standard_normal(haar.shape)))
    defect = max(np.linalg.norm(t.T @ t - np.eye(16), 2)
                 for t in transfer_matrices(gates))
    return tangent_frame(arch, gates), defect


def test_gram_reads_of_near_unitary_gates_stay_inside_the_bound():
    # gates off unitarity by about 1e-11, inside what GateAssignment
    # accepts, move the read Gram matrix by about that much: far above the
    # rounding of Haar frames (a few 1e-15), inside gram_error
    for arch in (staircase(7, 1), staircase(5, 3), brickwork(4, 2)):
        frame, defect = _near_unitary_frame(arch, 1e-12)
        assert 5e-12 < defect < 5e-11
        gap = _gram_gap(frame.gram, frame.matrix)
        assert 1e-13 < gap <= frame.gram_error
        est, cert = numerical_rank(frame), gram_certificate(frame.matrix)
        assert est.route == "gram"
        assert est.rank == cert.rank == frame.gram.shape[0]
    # the defect term is needed: a bound from rounding alone,
    # C ((1 + 256 eps)^R - 1), falls short at a defect of about 6e-11
    for arch in (staircase(7, 1), brickwork(4, 2)):
        frame, _ = _near_unitary_frame(arch, 5e-12)
        rounding = frame.gram.shape[0] * np.expm1(
            arch.gate_count * np.log1p(256 * np.finfo(float).eps))
        assert rounding < _gram_gap(frame.gram, frame.matrix) \
            <= frame.gram_error


def test_non_finite_transfer_stack_gives_no_gram():
    # GateAssignment refuses a NaN gate, so build the stack past its check
    arch = staircase(4, 1)
    mats = GateAssignment.haar(arch, 34).matrices.copy()
    mats[1, 2, 3] = np.nan
    gates = object.__new__(GateAssignment)
    object.__setattr__(gates, "matrices", mats)
    frame = tangent_frame(arch, gates)
    assert frame.gram is None
    with pytest.raises(np.linalg.LinAlgError):
        numerical_rank(frame)


def test_transfer_matrices_match_trace_oracle():
    arch = random_adjacent(4, 12, 3)
    gates = GateAssignment.haar(arch, 29)
    transfers = transfer_matrices(gates)
    assert transfers.shape == (12, 16, 16)
    for t, u in zip(transfers, gates.matrices):
        assert np.abs(t @ t.T - np.eye(16)).max() < 1e-12
        assert abs(t[0, 0] - 1.0) < 1e-12
        assert np.abs(t[0, 1:]).max() < 1e-12
        assert np.abs(t[1:, 0]).max() < 1e-12
        assert np.abs(t - pauli_transfer_matrix(u)).max() < 1e-12


def _raw_bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("build", FRAME_CASES + [
    pytest.param(lambda: from_gate_sequence(2, [(1, 2)]), id="one-gate")])
def test_transfer_matrices_are_the_label_by_label_build_bit_for_bit(build):
    # one 64 x 4 product per gate gives the bits of 16 R 4 x 4 ones: on
    # one sample's draws at seeds 1 to 3 and on stacks of 1, 3 and 5
    arch = build()
    for seed in (1, 2, 3):
        gates = GateAssignment.haar(arch, seed)
        assert _raw_bits_equal(transfer_matrices(gates),
                               transfer_matrices_by_label(gates))
    for count in (1, 3, 5):
        stack = GateAssignment.haar(arch, [subseed(7, i)
                                           for i in range(count)])
        got = transfer_matrices(stack)
        assert got.shape == (count, arch.gate_count, 16, 16)
        assert _raw_bits_equal(got, transfer_matrices_by_label(stack))


def test_cone_index_is_cached_and_read_only():
    for cone, n in [((2, 3), 4), ((1, 3, 4), 5), ((2,), 3)]:
        idx = archdim.plan._cone_index(cone, n)
        assert idx is archdim.plan._cone_index(cone, n)
        assert not idx.flags.writeable
        assert np.array_equal(idx, _cone_index_loop(cone, n, 4))


def test_meet_row_selectors_take_the_meet_rows():
    # a compiled selector, slice or gather, takes the same rows in the same
    # order as the meet's gather: a leading block where the other wires
    # lead, a stride where they trail
    kinds = set()
    for size in range(1, 5):
        cone = tuple(range(2, 2 + size))
        rows = np.arange(4 ** size)
        for m in range(1, size + 1):
            for meet in itertools.combinations(cone, m):
                sel = archdim.plan._rows(cone, meet)
                assert np.array_equal(rows[sel],
                                      archdim.plan._meet_rows(cone, meet))
                kinds.add(sel.step if isinstance(sel, slice) else "gather")
    assert {None, "gather"} < kinds


# -- numerical rank -----------------------------------------------------------------


def test_rank_disagreement_is_inconclusive():
    est = numerical_rank(np.diag([1.0, 1e-3, 1e-8]))
    assert (est.loose_rank, est.tight_rank) == (2, 3)
    assert not est.conclusive
    assert est.rank is None
    assert "1.000e-08" in est.gap_description()


def test_rank_exact_zero_is_conclusive():
    est = numerical_rank(np.diag([1.0, 1e-3, 0.0]))
    assert est.rank == 2


def test_rank_of_empty_and_zero_matrices():
    assert numerical_rank(np.zeros((4, 0))).rank == 0
    assert numerical_rank(np.zeros((4, 4))).rank == 0


def test_spec_spectrum_with_sub_tight_value_is_conclusive():
    # 1e-12 sits below both relative thresholds, so both counts agree at 2
    est = numerical_rank(np.diag([1.0, 1e-3, 1e-12]))
    assert est.rank == 2


def _svd_reference(mat, tol_pair=(1e-6, 1e-10)):
    """(singular values, loose rank, tight rank) from a full SVD alone."""
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0.0:
        return sv, 0, 0
    return sv, int((sv > tol_pair[0] * sv[0]).sum()), \
        int((sv > tol_pair[1] * sv[0]).sum())


PLANTED_RATIOS = [1.0, 1e-2, 0.5e-4, 1.5e-4, 1e-6 * (1 - 1e-3),
                  1e-6 * (1 + 1e-3), 1e-8, 1e-10 * (1 - 1e-3),
                  1e-10 * (1 + 1e-3), 1e-13, 0.0]


@pytest.mark.parametrize("ratio", PLANTED_RATIOS)
def test_gram_route_matches_svd_on_planted_spectra(ratio):
    # Q1 diag(s) Q2^T: s spans [0.1, 1] and its last value sets
    # sigma_min / sigma_max, so the decision turns on that value
    rng = np.random.default_rng(31)
    m, c = 200, 40
    q1, _ = np.linalg.qr(rng.standard_normal((m, c)))
    q2, _ = np.linalg.qr(rng.standard_normal((c, c)))
    s = np.geomspace(1.0, max(ratio, 0.1), c)
    s[-1] = ratio
    mat = 3.0 * (q1 * s) @ q2.T
    sv, loose, tight = _svd_reference(mat)
    # a plain array takes the SVD
    est = numerical_rank(mat)
    assert est.route == "svd"
    assert (est.loose_rank, est.tight_rank) == (loose, tight)
    assert np.array_equal(est.singular_values, sv)
    # the M^T M certificate holds only on spectra far from the cutoffs, and
    # then decides as the SVD does
    cert = gram_certificate(mat, spectrum=True)
    if ratio < 1e-4:
        assert cert is None
    if ratio >= 1e-2:
        assert cert is not None
    if cert is not None:
        assert (cert.route, cert.loose_rank, cert.tight_rank) == \
            ("gram", loose, tight)
        assert np.abs(cert.singular_values - sv).max() <= 1e-12 * sv[0]


def _planted_gram(lam, seed):
    """Q diag(lam) Q^T for a random orthogonal Q, exactly symmetric."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    gram = (q * lam) @ q.T
    return (gram + gram.T) / 2


def _certify(gram, error, floor):
    """``_certify``'s verdict on one matrix, as a stack of one."""
    return bool(archdim.rank._certify(gram[None], np.array([error]),
                                      np.array([floor]))[0])


def _gram_estimate(gram, tol_pair, read_error):
    """``_gram_estimate`` of one matrix, as a stack of one."""
    return archdim.rank._gram_estimate(gram[None], tol_pair,
                                       np.array([read_error]))[0]


def _check_certify(gram, lam_min, error, floor):
    """``_certify``'s contract on a Gram matrix whose smallest eigenvalue
    is ``lam_min``: it refuses whenever lam_min < error + floor, and
    certifies when lam_min is at least twice that and at least 1e-5."""
    certified = _certify(gram, error, floor)
    if lam_min < error + floor:
        assert not certified
    if lam_min >= max(2 * (error + floor), 1e-5):
        assert certified


# lam_min / lam_max against the certificate's floor (100 loose)^2 = 1e-8
BELOW_FLOOR = [1e-8 * (1 - 1e-3), 0.5e-8, 1e-12, 0.0, -1e-6]
ABOVE_FLOOR = [1e-5, 1e-3, 0.1]


@pytest.mark.parametrize("lam_min", BELOW_FLOOR + ABOVE_FLOOR)
def test_gram_certificate_on_planted_spectra(lam_min):
    # lam_max = 1: a lam_min below the floor is never certified, whatever
    # Q, and one well above it always is, with bounds that bracket the
    # planted spectrum; the certificate under it keeps its contract at
    # floor 0 and 1e-8 and at errors on both sides of lam_min
    lam = np.geomspace(1.0, 0.1, 60)
    lam[-1] = lam_min
    for seed in range(5):
        gram = _planted_gram(lam, seed)
        for floor, error in itertools.product((0.0, 1e-8),
                                              (0.0, 1e-6, 1e-4)):
            _check_certify(gram, lam_min, error, floor)
        est = _gram_estimate(gram, DEFAULT_TOLERANCES, 0.0)
        if lam_min < 1e-8:
            assert est is None
            continue
        assert (est.route, est.rank, est.singular_values) == \
            ("gram", lam.size, None)
        assert est.sigma_min_lower <= np.sqrt(lam_min)
        assert 1.0 <= est.sigma_max_upper


def test_a_read_error_that_closes_the_gap_refuses_the_certificate():
    lam = np.geomspace(1.0, 0.1, 60)
    lam[-1] = 1e-3
    gram = _planted_gram(lam, 36)
    for read_error in (0.0, 0.5e-3):
        est = _gram_estimate(gram, DEFAULT_TOLERANCES, read_error)
        assert est is not None and est.rank == lam.size
    # within 1e-3 of G the exact M^T M may be singular
    for read_error in (1e-3, 1.0):
        assert _gram_estimate(gram, DEFAULT_TOLERANCES, read_error) is None
    for floor, error in itertools.product((0.0, 1e-8),
                                          (0.0, 0.4e-3, 1e-3, 1.0)):
        _check_certify(gram, 1e-3, error, floor)


DIM_WIDE_SHAPES = [
    pytest.param(lambda: build_family("staircase", 6, 2),
                 id="dim-staircase-6-2"),
    pytest.param(lambda: build_family("staircase", 7, 1),
                 id="dim-staircase-7-1"),
    pytest.param(lambda: build_family("brickwork", 6, 1),
                 id="dim-brickwork-6-1"),
]


@pytest.mark.parametrize("build", FRAME_CASES + DIM_WIDE_SHAPES)
def test_certified_bounds_bracket_the_svd(build):
    # every tall full-rank Haar frame is certified, its bounds bracket the
    # SVD's extreme singular values, and every frame ranks as the SVD does
    arch = build()
    for seed in range(1, 21):
        frame = tangent_frame(arch, GateAssignment.haar(arch, seed))
        est = numerical_rank(frame)
        m, c = frame_shape(arch, "unitary")
        sv, loose, tight = _svd_reference(frame.matrix)
        assert (est.loose_rank, est.tight_rank) == (loose, tight)
        assert est.route == ("gram" if loose == c < m else "svd")
        if est.route == "gram":
            assert est.sigma_min_lower <= sv[-1]
            assert sv[0] <= est.sigma_max_upper


def _is_wide(build):
    arch = build()
    rows, cols = frame_shape(arch, "unitary")
    return cols >= rows


# the wide frames of the sweep cases, the wide rows of a staircase(3, 6)
# sweep and a saturated frame on 4 qubits
WIDE_CASES = [case for case in SWEEP_CASES if _is_wide(case.values[0])] + [
    *(pytest.param(lambda t=t: staircase(3, t), id=f"staircase-3-{t}")
      for t in (4, 5, 6)),
    pytest.param(lambda: staircase(4, 12), id="staircase-4-12")]


@pytest.mark.parametrize("build", WIDE_CASES)
def test_wide_certificate_ranks_as_the_svd(build):
    # every wide Haar frame is certified at rank 4^n - 1, and its bounds
    # bracket the SVD's sigma_max and its (4^n - 1)-th singular value;
    # asked for its spectrum, it holds the SVD's values
    arch = build()
    m, c = frame_shape(arch, "unitary")
    assert c >= m
    for seed in range(1, 21):
        frame = tangent_frame(arch, GateAssignment.haar(arch, seed))
        est = numerical_rank(frame)
        sv, loose, tight = _svd_reference(frame.matrix)
        assert (est.route, est.loose_rank, est.tight_rank) == \
            ("gram", loose, tight)
        assert loose == m - 1
        assert est.singular_values is None
        assert est.sigma_min_lower <= sv[m - 2] <= sv[0] \
            <= est.sigma_max_upper
        held = numerical_rank(frame, spectrum=True)
        assert held.route == "gram"
        assert np.array_equal(held.singular_values, sv)


def _planted_wide(edge, smallest, seed, aligned=False):
    """A 64 x 96 frame (n = 3): rows 1..63 are orthogonal with norms from 1
    down to ``smallest``, row 0 has norm ``edge``.  Row 0 is orthogonal to
    the others, so the singular values are the norms and ``edge``, or, if
    ``aligned``, along row 1, so that sigma_max^2 = 1 + edge^2 and the
    rank is 63."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((96, 64)))
    norms = np.geomspace(1.0, 0.3, 63)
    norms[-1] = smallest
    rest = norms[:, None] * basis[:, 1:].T
    head = edge * basis[:, 1 if aligned else 0]
    mat = np.vstack([head, rest])
    return _frame_of(mat), mat


def _frame_of(mat):
    """A unitary TangentFrame on n = 3 whose matrix is ``mat``."""
    return archdim.rank.TangentFrame("unitary", 3, 0,
                                     np.zeros((mat.shape[1], 2), dtype=int),
                                     lambda _: mat)


# |m_0| / sigma_max against the identity row's ceiling tight / 100 = 1e-12,
# and sigma_63 / sigma_max against the floor 100 loose = 1e-4
PLANTED_EDGES = [0.0, 1e-13, 1e-9]
PLANTED_SMALLEST = [1e-4 * (1 - 1e-3), 0.5e-4, 1e-8, 0.0, 1e-4 * (1 + 1e-3),
                    1e-2, 0.1]


@pytest.mark.parametrize("smallest", PLANTED_SMALLEST)
@pytest.mark.parametrize("edge", PLANTED_EDGES)
def test_wide_certificate_on_planted_frames(edge, smallest):
    # only a frame whose identity row sits under its ceiling and whose
    # other rows' smallest singular value sits over the floor is
    # certified, and then at the SVD's ranks; one well inside both always
    # is
    for seed in range(3):
        frame, mat = _planted_wide(edge, smallest, seed)
        est = numerical_rank(frame)
        sv, loose, tight = _svd_reference(mat)
        admissible = edge <= 1e-12 and smallest >= 1e-4
        if est.route == "gram":
            assert admissible
            assert (est.loose_rank, est.tight_rank) == (loose, tight) \
                == (63, 63)
            assert est.sigma_min_lower <= smallest
            assert sv[0] <= est.sigma_max_upper
        else:
            assert (est.loose_rank, est.tight_rank) == (loose, tight)
        if admissible and smallest >= 1e-2:
            assert est.route == "gram"


def test_wide_certificate_bounds_the_identity_row_in_sigma_max():
    # tolerances (1e-3, 1e-4) let the identity row reach 1e-6 sigma_max;
    # along the top row of a diagonal row Gram matrix it raises sigma_max^2
    # to 1 + edge^2, over ||G||_inf, and only the read error's ||m_0||^2
    # term keeps sigma_max_upper above it
    tolerances = (1e-3, 1e-4)
    for edge in (0.0, 5e-7):
        frame, mat = _planted_wide(edge, 0.2, 7, aligned=True)
        est = numerical_rank(frame, tolerances)
        sv, loose, tight = _svd_reference(mat, tolerances)
        assert (est.route, est.loose_rank, est.tight_rank) == \
            ("gram", loose, tight)
        assert sv[0] <= est.sigma_max_upper


def test_a_rank_deficient_wide_frame_takes_the_svd(monkeypatch):
    # ten gates on one pair of wires span only their own 15 directions in
    # a 64 x 96 frame: its row Gram matrix has rank 15 of 63, so the
    # Cholesky fails, and the SVD decides
    arch = from_gate_sequence(3, [(1, 2)] * 10)
    assert frame_shape(arch, "unitary") == (64, 96)
    passed = []
    certify = archdim.rank._certify

    def counted(*args):
        verdicts = certify(*args)
        passed.extend(np.atleast_1d(verdicts).tolist())
        return verdicts

    monkeypatch.setattr(archdim.rank, "_certify", counted)
    est = numerical_rank(tangent_frame(arch, GateAssignment.haar(arch, 4)))
    assert passed == [False]
    assert (est.route, est.rank) == ("svd", 15)
    # every route decides through the one certificate: one verdict per
    # sample of a tall consensus, never one for a state frame
    passed.clear()
    tall = staircase(4, 1)
    report = accessible_dimension(tall, samples=3, seed=4)
    assert passed == [True] * 3
    assert [e.route for e in report.estimates] == ["gram"] * 3
    passed.clear()
    state = tangent_frame(tall, GateAssignment.haar(tall, 4), "state")
    assert numerical_rank(state).route == "svd"
    assert passed == []


def test_gram_route_edge_cases():
    zero = numerical_rank(np.zeros((5, 3)))
    assert (zero.rank, zero.route) == (0, "svd")
    with pytest.raises(np.linalg.LinAlgError):
        numerical_rank(np.full((6, 3), np.nan))
    tall = np.ones((6, 3))
    tall[2, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        numerical_rank(tall)
    # an inf used to give a conclusive rank 0 (the SVD returns NaN values)
    for inf_frame in (np.ones((6, 3)), np.ones((3, 6))):
        inf_frame[2, 1] = np.inf
        with pytest.raises(np.linalg.LinAlgError):
            numerical_rank(inf_frame)
    # a wide plain array takes the SVD; only a unitary frame's row 0 is
    # its identity string
    wide = numerical_rank(np.random.default_rng(32).standard_normal((3, 6)))
    assert (wide.rank, wide.route) == (3, "svd")
    # a non-finite Gram matrix or read error is never certified, though
    # LAPACK's Cholesky may run to completion on NaN: a frame whose Gram
    # matrix holds NaN takes the SVD of its finite matrix
    arch = staircase(4, 1)
    frame = tangent_frame(arch, GateAssignment.haar(arch, 1))
    gram = frame.gram.copy()
    gram[0, 1] = gram[1, 0] = np.nan
    est = numerical_rank(dataclasses.replace(frame, gram=gram))
    assert (est.route, est.rank, est.sigma_max_upper) == ("svd", 39, None)
    assert _gram_estimate(np.eye(5), DEFAULT_TOLERANCES, np.nan) is None
    for bad in (np.nan, np.inf):
        assert not _certify(np.eye(5), bad, 0.0)
        assert not _certify(np.eye(5), 0.0, bad)
        diagonal = np.eye(5)
        diagonal[3, 3] = bad
        assert not _certify(diagonal, 0.0, 0.0)
    mat = np.random.default_rng(33).standard_normal((20, 5))
    mat[7, 2] = np.nan
    assert gram_certificate(mat) is None


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_gram_route_on_haar_and_witness_frames(mode):
    # a Haar frame takes the gram route exactly when it is tall with full
    # column rank (its spectra are far from the cutoffs); rank-deficient
    # Clifford witness frames take the SVD
    routes = []
    for build in FRAME_CASES:
        arch = build.values[0]()
        frame = tangent_frame(arch, GateAssignment.haar(arch, 24), mode)
        est = numerical_rank(frame, spectrum=True)
        m, c = frame.matrix.shape
        _sv, loose, tight = _svd_reference(frame.matrix)
        assert (est.loose_rank, est.tight_rank) == (loose, tight)
        assert est.route == ("gram" if loose == c < m else "svd")
        # the Gram matrix read off the sweep decides as M^T M does
        cert = gram_certificate(frame.matrix, spectrum=True)
        assert (est.route == "gram") == (cert is not None)
        if cert is not None:
            assert (est.loose_rank, est.tight_rank) == \
                (cert.loose_rank, cert.tight_rank)
            assert np.abs(est.singular_values - cert.singular_values).max() \
                <= 1e-12 * cert.singular_values[0]
        routes.append(est.route)
    assert ("gram" in routes) == (mode == "unitary")
    for arch in (staircase(4, 3), brickwork(4, 4)):
        gates = gate_assignment(witness_point(arch, mode).gate_circuits)
        frame = tangent_frame(arch, gates, mode)
        est = numerical_rank(frame)
        _sv, loose, tight = _svd_reference(frame.matrix)
        assert est.route == "svd"
        assert gram_certificate(frame.matrix) is None
        assert (est.loose_rank, est.tight_rank) == (loose, tight)


@pytest.mark.parametrize("build", FRAME_CASES + [
    pytest.param(lambda: from_gate_sequence(4, [(3, 1), (2, 4)]),
                 id="sequence-4-2")])
def test_state_frames_never_pass_the_gram_certificate(build):
    # gate 0 acts on |0...0>, so its kept columns i S_k u_0 |00> lie in the
    # 7-dimensional real tangent space of the sphere at u_0 |00>: its block
    # has rank at most 7, below its 9 or more kept columns, and the frame
    # is rank-deficient whatever the gates.  Checked at a Haar point and,
    # where the architecture marks slices, at its witness point.
    arch = build()
    points = [GateAssignment.haar(arch, 35)]
    if arch.slice_ranges():
        points.append(
            gate_assignment(witness_point(arch, "state").gate_circuits))
    for gates in points:
        frame = tangent_frame(arch, gates, "state")
        block = frame.matrix[:, frame.columns[:, 0] == 0]
        sv = np.linalg.svd(block, compute_uv=False)
        assert int((sv > 1e-10 * sv[0]).sum()) <= 7 < block.shape[1]
        assert gram_certificate(frame.matrix) is None
        assert frame.gram is None
        assert numerical_rank(frame).route == "svd"


# -- accessible dimension -------------------------------------------------------------


def test_accessible_dimension_su4_saturation():
    report = accessible_dimension(staircase(2, 3), samples=5, seed=7)
    assert report.consensus == 15
    assert report.cap == 15
    assert report.bounds_ok


def test_accessible_dimension_staircase_3_2_matches_fd_oracle():
    # frozen value 45, cross-checked against a finite-difference Jacobian
    report = accessible_dimension(staircase(3, 2), samples=5, seed=2024)
    assert report.consensus == 45
    assert report.lower_bound == 2
    assert report.upper_bound == 45
    fd_rank = _fd_jacobian_rank(staircase(3, 2),
                                GateAssignment.haar(staircase(3, 2), 2024))
    assert fd_rank == 45


def _fd_jacobian_rank(arch, gates, eps=1e-5):
    cols = []
    for j in range(arch.gate_count):
        for k in range(15):
            s = TWO_QUBIT_GENERATOR_MATS[k]
            plus = np.cos(eps) * np.eye(4) + 1j * np.sin(eps) * s
            def shifted(p):
                mats = gates.matrices.copy()
                mats[j] = p @ mats[j]
                return contract(arch, GateAssignment(mats))
            d = (shifted(plus) - shifted(plus.conj().T)) / (2 * np.sin(eps))
            cols.append(np.concatenate([d.real.ravel(), d.imag.ravel()]))
    m = np.stack(cols, axis=1)
    sv = np.linalg.svd(m, compute_uv=False)
    return int((sv > 1e-6 * sv[0]).sum())


@pytest.mark.parametrize("tolerances", [(2.0, 1e-10), (1e-10, 1e-6),
                                        (1e-17, 1e-17), (np.nan, 1e-10)],
                         ids=["above-one", "swapped", "below-eps", "nan"])
def test_a_refused_tolerance_pair_builds_no_frame(tolerances, monkeypatch):
    # the pair is checked beside the mode and the sample count, before the
    # first Haar sample's frame and its Gram sweep
    built = []
    frame = contraction.tangent_frame

    def counted(*args):
        built.append(args)
        return frame(*args)

    monkeypatch.setattr(contraction, "tangent_frame", counted)
    with pytest.raises(ValidationError) as info:
        accessible_dimension(brickwork(6, 6), "unitary", 3, 0, tolerances)
    assert built == []
    with pytest.raises(ValidationError) as direct:
        numerical_rank(np.eye(2), tolerances)
    assert str(info.value) == str(direct.value)
    # one stacked frame serves the batch of three samples
    accessible_dimension(staircase(3, 1), "unitary", 3, 0)
    assert len(built) == 1


def test_accessible_dimension_sample_constancy():
    report = accessible_dimension(staircase(3, 4), samples=5, seed=3)
    ranks = [(e.loose_rank, e.tight_rank) for e in report.estimates]
    assert len(set(ranks)) == 1
    assert not report.inconclusive


@pytest.mark.parametrize("arch, samples, seed, consensus", [
    (staircase(3, 2), 3, 5, 15),  # the cap 2 * 2^3 - 1
    (staircase(5, 2), 5, 11, 56),
    (staircase(6, 2), 5, 11, 73),
    (staircase(8, 2), 5, 11, 107),
    (brickwork(4, 1), 5, 11, 22),
    (brickwork(4, 2), 5, 11, 31),
    (random_adjacent(5, 14, 6), 5, 11, 57),
    # 8n - 9 at n = 13, from a 16384 x 147 frame
    (staircase(13, 1), 3, 0, 95)],
    ids=["staircase-3-2", "staircase-5-2", "staircase-6-2", "staircase-8-2",
         "brickwork-4-1", "brickwork-4-2", "random-5-14", "staircase-13-1"])
def test_accessible_dimension_state_mode_cap(arch, samples, seed, consensus):
    report = accessible_dimension(arch, mode="state", samples=samples,
                                  seed=seed)
    assert not report.inconclusive
    assert report.consensus == consensus
    assert report.cap == 2 * 2 ** arch.n - 1
    assert report.bounds_ok


def test_witness_rank_never_exceeds_consensus():
    for n, t in ((2, 1), (3, 2), (3, 5)):
        arch = staircase(n, t)
        report = accessible_dimension(arch, samples=3, seed=21)
        cert = witness_point(arch, "unitary")
        west = numerical_rank(
            tangent_frame(arch, gate_assignment(cert.gate_circuits)))
        assert west.rank is not None
        assert t <= west.rank <= report.consensus


def test_report_json_and_spectra():
    # ten gates on one pair of wires span only their 15 directions: every
    # frame of this 64 x 96 shape is rank-deficient and takes the SVD
    report = accessible_dimension(from_gate_sequence(3, [(1, 2)] * 10),
                                  samples=3, seed=1)
    d = report.to_json_dict()
    assert d["consensus"] == 15
    assert len(d["per_sample"]) == 3
    assert [e["route"] for e in d["per_sample"]] == ["svd"] * 3
    assert all(set(e) == {"loose_rank", "tight_rank", "status", "route",
                          "sigma_max"} for e in d["per_sample"])
    # staircase(3, 1) frames are 64 x 27 with full column rank, and
    # staircase(2, 2) frames are 16 x 24 with rank 15, 4^n - 1
    for arch, rank in ((staircase(3, 1), 27), (staircase(2, 2), 15)):
        held = accessible_dimension(arch, samples=3, seed=1, spectrum=True)
        entries = held.to_json_dict()["per_sample"]
        assert held.consensus == rank
        assert [e["route"] for e in entries] == ["gram"] * 3
        # the certified bounds bracket the spectrum, a margin of 100 loose
        # apart; the JSON keys do not depend on the spectrum being held
        for e, est in zip(entries, held.estimates):
            assert set(e) == {"loose_rank", "tight_rank", "status", "route",
                              "sigma_max_upper", "sigma_min_lower"}
            assert e["sigma_min_lower"] == pytest.approx(
                100 * 1e-6 * e["sigma_max_upper"], rel=1e-14)
            assert e["sigma_min_lower"] <= est.singular_values[rank - 1]
            assert est.singular_values[0] <= e["sigma_max_upper"]
        plain = accessible_dimension(arch, samples=3, seed=1)
        assert plain.to_json_dict() == held.to_json_dict()
        assert all(e.singular_values is None for e in plain.estimates)
        with pytest.raises(ValueError, match="spectrum=True"):
            plain.spectra_csv()
    for rep in (report, held):
        lines = rep.spectra_csv().splitlines()
        assert lines[0] == "sample,index,singular_value"
        values = {}
        for line in lines[1:]:
            sample, index, value = line.split(",")
            values[int(sample), int(index)] = float(value)
        assert values == {(i, k): float(v)
                          for i, e in enumerate(rep.estimates)
                          for k, v in enumerate(e.singular_values)}


# -- gauge redundancy ----------------------------------------------------------------


def test_gauge_two_gate_chain():
    arch = from_gate_sequence(3, [(1, 2), (2, 3)])
    gates = GateAssignment.haar(arch, 8)
    report = gauge_redundancy_check(arch, gates)
    assert report.passed
    assert [w.qubit for w in report.wires] == [2]
    assert numerical_rank(tangent_frame(arch, gates)).rank <= 27


def test_gauge_repeated_gate_su4_cap():
    arch = from_gate_sequence(2, [(1, 2), (1, 2)])
    gates = GateAssignment.haar(arch, 12)
    report = gauge_redundancy_check(arch, gates)
    assert report.passed
    assert numerical_rank(tangent_frame(arch, gates)).rank <= 15


def test_gauge_brickwork_all_wires_pass():
    arch = brickwork(4, 1)
    gates = GateAssignment.haar(arch, 31)
    report = gauge_redundancy_check(arch, gates)
    assert report.passed
    assert len(report.wires) == 2
