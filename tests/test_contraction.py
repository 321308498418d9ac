"""Contraction, Haar sampling, tangent frames, rank estimation, gauge checks."""

import tracemalloc

import numpy as np
import pytest

from archdim import (
    CountMismatch,
    GateAssignment,
    PauliString,
    SizeLimit,
    ValidationError,
    accessible_dimension,
    brickwork,
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
from archdim.contraction import (
    MEMORY_BUDGET,
    frame_shape,
    peak_bytes,
    transfer_matrices,
)
from archdim.dense import apply_gate_left, apply_gate_right
from archdim.pauli import TWO_QUBIT_GENERATOR_MATS, nontrivial_strings
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


@pytest.mark.parametrize("arch", [
    staircase(7, 1), staircase(6, 3), brickwork(6, 1), staircase(9, 1),
    staircase(6, 12), brickwork(6, 6), random_adjacent(6, 40, 1),
    from_gate_sequence(6, [(1, 6), (2, 5), (3, 4), (6, 1), (1, 3), (2, 4),
                           (5, 6)] * 3),
    # C = 735 of 1024 rows: the Gram certificate's C x C arrays beside the
    # groups outweigh the frame twice
    staircase(5, 20),
    # state frames only, up to n = 14; one distant gate's new directions
    # outweigh its 15-column stack
    staircase(12, 2), staircase(13, 1), staircase(14, 1),
    from_gate_sequence(14, [(1, 14)])],
    ids=["staircase7x1", "staircase6x3", "brickwork6x1", "staircase9x1",
         "staircase6x12", "brickwork6x6", "random6x40", "sequence6x21",
         "staircase5x20", "staircase12x2", "staircase13x1", "staircase14x1",
         "sequence14x1"])
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
        assert 0 < contraction._frame_plan(arch, prune=True).split \
            < arch.gate_count
    for arch in (staircase(6, 2), staircase(7, 1), staircase(3, 1),
                 staircase(3, 2), staircase(3, 3)):
        assert contraction._frame_plan(arch, prune=True).split \
            == arch.gate_count


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
        kept = contraction._frame_plan(arch).kept[j]
        block = slice(stop - kept.size, stop)
        stop = block.start
        reach[[a - 1, b - 1]] = reach[a - 1] | reach[b - 1]
        cone = np.flatnonzero(reach[a - 1]) + 1
        sub = suffix[_cone_index_loop(cone, n, 2)]
        ks = apply_gate_right(sub, contraction._GENERATOR_STACK[kept], wires,
                              n) @ sub.conj().T
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
    plan = contraction._frame_plan(arch, prune=prune, split=split)
    joined = {(False, join.forward) for join in plan.joins} \
        | {(True, join.backward) for join in plan.joins}
    spans, groups = [], {}
    for s, step in enumerate(plan.steps):
        half = s >= plan.split  # the backward half's groups are its own
        for move in step:
            for src in move.sources:
                spans[groups.pop((half, src))][1] = s
            groups[half, move.cone] = len(spans)
            spans.append([s, s, move.offset, 4 ** len(move.cone) * move.width])
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
    pruned, full = (contraction._frame_plan(arch, prune=True, split=end),
                    contraction._frame_plan(arch))
    dropped = False
    for j, (step, full_step) in enumerate(zip(pruned.steps, full.steps)):
        for move in step:
            assert all(last[w] >= j for w in move.cone)
        dropped |= any(last[w] < j for move in full_step for w in move.cone)
    backward = contraction._frame_plan(arch, prune=True, split=0)
    for j, step in zip(range(end - 1, -1, -1), backward.steps):
        for move in step:
            assert all(first[w] <= j for w in move.cone)
            assert arch.gates[j][0] in move.cone
    # fewer entries written exactly when the unpruned plan moves a wire on
    # after its last gate
    written = [sum(4 ** len(move.cone) * move.width
                   for step in plan.steps for move in step)
               for plan in (pruned, full)]
    assert (written[0] < written[1]) == dropped
    assert written[0] <= written[1]
    for plan in (pruned, backward, contraction._frame_plan(arch, prune=True)):
        for field in ("kept", "labels"):
            assert all(np.array_equal(x, y) for x, y in
                       zip(getattr(plan, field), getattr(full, field)))
        assert np.array_equal(plan.record, full.record)


@pytest.mark.parametrize("build", SWEEP_CASES)
def test_pruned_gram_matches_the_unpruned_sweep(build):
    # a tall frame reads its Gram matrix off the pruned sweep; the unpruned
    # sweep reads it too, within the same bound, and reading the pruned
    # frame's matrix runs that sweep, which matches the scatter reference
    arch = build()
    rows, cols = frame_shape(arch, "unitary")
    for seed in (27, 28):
        gates = GateAssignment.haar(arch, seed)
        frame = tangent_frame(arch, gates)
        if cols >= rows:
            assert frame.gram is None
            continue
        full = np.zeros((cols, cols))
        contraction._sweep(arch, transfer_matrices(gates),
                           contraction._frame_plan(arch), full)
        if cols:
            gap = np.linalg.norm(frame.gram - full, 2)
            assert gap <= frame.gram_error
        assert "matrix" not in frame.__dict__
        ref = _scatter_reference_unitary_frame(arch, gates)
        assert np.abs(frame.matrix - ref).max(initial=0.0) < 1e-12


def _split_frame(monkeypatch, arch, gates, split):
    """The unitary frame whose Gram read splits the gates at ``split``."""
    plan = contraction._frame_plan
    monkeypatch.setattr(
        contraction, "_frame_plan",
        lambda arch, prune=False: plan(arch, prune=prune,
                                       split=split if prune else None))
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
    kept = contraction._frame_plan(arch).kept
    splits = set(range(end + 1))
    if end > 18:  # the reference takes about 0.15 s a split on brickwork-6-6
        splits = {0, 1, end // 2, end - 1, end,
                  contraction._frame_plan(arch, prune=True).split}
    for split in splits:
        gram = np.zeros((cols, cols))
        contraction._sweep(arch, transfers, contraction._frame_plan(
            arch, prune=True, split=split), gram)
        ref = split_gram(arch, transfers, kept, split)
        assert np.abs(gram - ref).max(initial=0.0) < 1e-13
        # each read writes both entries of its pairs, the same number
        assert np.array_equal(gram, gram.T)


def _count_sweeps(monkeypatch, arch):
    """The list that records, for each later ``_sweep`` call, whether it ran
    ``arch``'s pruned plan."""
    pruned = contraction._frame_plan(arch, prune=True)
    swept = []
    sweep = contraction._sweep

    def counted(arch, transfers, plan, gram):
        swept.append(plan is pruned)
        return sweep(arch, transfers, plan, gram)

    monkeypatch.setattr(contraction, "_sweep", counted)
    return swept


@pytest.mark.parametrize("arch", [staircase(3, 8), random_adjacent(3, 10, 2),
                                  staircase(2, 3)],
                         ids=["staircase-3-8", "random-3-10", "staircase-2-3"])
def test_a_wide_frame_sweeps_once_when_its_matrix_is_read(arch, monkeypatch):
    # C >= 4^n: no Gram matrix, so making the frame runs no sweep, and the
    # first read of its matrix runs the unpruned one
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
    assert (est.route, est.loose_rank, est.tight_rank) == \
        ("svd", want.loose_rank, want.tight_rank)


def test_a_failed_certificate_forms_the_matrix_by_one_unpruned_sweep(
        monkeypatch):
    # random_adjacent(5, 12, 4) is tall and rank-deficient: every sample's
    # certificate fails on its pruned frame, and the SVD reads the matrix
    # that one unpruned sweep forms
    arch = random_adjacent(5, 12, 4)
    swept = _count_sweeps(monkeypatch, arch)
    report = accessible_dimension(arch, "unitary", 3, 5)
    assert swept == [True, False] * 3
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


def test_cone_index_is_cached_and_read_only():
    for cone, n in [((2, 3), 4), ((1, 3, 4), 5), ((2,), 3)]:
        idx = contraction._cone_index(cone, n)
        assert idx is contraction._cone_index(cone, n)
        assert not idx.flags.writeable
        assert np.array_equal(idx, _cone_index_loop(cone, n, 4))


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
    cert = gram_certificate(mat)
    if ratio < 1e-4:
        assert cert is None
    if ratio >= 1e-2:
        assert cert is not None
    if cert is not None:
        assert (cert.route, cert.loose_rank, cert.tight_rank) == \
            ("gram", loose, tight)
        assert np.abs(cert.singular_values - sv).max() <= 1e-12 * sv[0]


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
    # wide frames always take the SVD
    wide = numerical_rank(np.random.default_rng(32).standard_normal((3, 6)))
    assert (wide.rank, wide.route) == (3, "svd")


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_gram_route_on_haar_and_witness_frames(mode):
    # a Haar frame takes the gram route exactly when it is tall with full
    # column rank (its spectra are far from the cutoffs); rank-deficient
    # Clifford witness frames take the SVD
    routes = []
    for build in FRAME_CASES:
        arch = build.values[0]()
        frame = tangent_frame(arch, GateAssignment.haar(arch, 24), mode)
        est = numerical_rank(frame)
        m, c = frame.matrix.shape
        _sv, loose, tight = _svd_reference(frame.matrix)
        assert (est.loose_rank, est.tight_rank) == (loose, tight)
        assert est.route == ("gram" if loose == c < m else "svd")
        # the Gram matrix read off the sweep decides as M^T M does
        cert = gram_certificate(frame.matrix)
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
    accessible_dimension(staircase(3, 1), "unitary", 3, 0)
    assert len(built) == 3


def test_accessible_dimension_sample_constancy():
    report = accessible_dimension(staircase(3, 4), samples=5, seed=3)
    ranks = report.sample_ranks()
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
    report = accessible_dimension(staircase(2, 2), samples=3, seed=1)
    d = report.to_json_dict()
    assert d["consensus"] == 15
    assert len(d["per_sample"]) == 3
    # staircase(2, 2) frames are 16 x 24, too wide for the gram route;
    # staircase(3, 1) frames are 64 x 27 with full column rank
    assert [e["route"] for e in d["per_sample"]] == ["svd"] * 3
    assert all("gram_margin" not in e for e in d["per_sample"])
    tall = accessible_dimension(staircase(3, 1), samples=3, seed=1)
    entries = tall.to_json_dict()["per_sample"]
    assert [e["route"] for e in entries] == ["gram"] * 3
    # the certificate held by this factor; at 1 it would just hold
    assert all(e["gram_margin"] >= 1.0 for e in entries)
    for rep in (report, tall):
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
