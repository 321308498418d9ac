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
    haar_su4,
    haar_u4,
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
from reference import (
    explicit,
    forward_reach,
    gauge_redundancy_check,
    perturbation_operator,
    slice_tableau,
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


def test_haar_su4_is_special_unitary():
    for seed in range(20):
        u = haar_su4(seed)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_haar_distinct_seeds_differ():
    assert np.linalg.norm(haar_su4(1) - haar_su4(2)) > 1e-3


def test_haar_trace_moment():
    # E |tr U|^2 = 1 on U(4); 10^4 samples, Var(|tr U|^2) = 1
    rng = np.random.default_rng(314159)
    vals = np.array([abs(np.trace(haar_u4(rng))) ** 2 for _ in range(10 ** 4)])
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
    for _ in range(40):
        mats = np.stack([haar_su4(rng) for _ in range(6)])
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
    mats = np.stack([haar_su4(46), np.full((4, 4), np.nan, dtype=complex)])
    with pytest.raises(ValidationError, match="gate 1 is not unitary"):
        GateAssignment(mats)


def test_subseed_deterministic_and_spread():
    assert subseed(7, 1) == subseed(7, 1)
    assert subseed(7, 1) != subseed(7, 2)
    assert subseed(7, 1) != subseed(8, 1)


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
    rng = np.random.default_rng(41)
    arch = from_gate_sequence(2, [(1, 2), (1, 2)])
    u, v = haar_su4(rng), haar_su4(rng)
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
    # the frame counts twice (the SVD's copy), beside the 2^9 x 2^9 suffix
    op = 16 * 4 ** 9
    assert peak_bytes(arch, "unitary") > 2 * 8 * 4 ** 9 * 99 + op
    assert peak_bytes(arch, "state") > 2 * 8 * 2 * 2 ** 9 * 99 + op
    # n = 9 fits the budget now that the guard counts bytes, not qubits
    gates = GateAssignment.haar(arch, 0)
    assert contract(arch, gates).shape == (512, 512)
    assert contract_state(arch, gates).shape == (512,)


@pytest.mark.parametrize("arch, mode", [(staircase(8, 40), "unitary"),
                                        (staircase(13, 1), "state")])
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


@pytest.mark.parametrize("arch", [staircase(7, 1), staircase(6, 3),
                                  brickwork(6, 1), staircase(9, 1),
                                  staircase(6, 12)],
                         ids=["staircase7x1", "staircase6x3", "brickwork6x1",
                              "staircase9x1", "staircase6x12"])
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
    for job, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= peak_bytes(arch, job) + _OBJECT_SLACK, job


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
    psi = contract_state(arch, cert.to_gate_assignment())
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
    # every cone size of the frames, so every cached plan size
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
    frame = tangent_frame(arch, cert.to_gate_assignment())
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
            gates = witness_point(arch, mode).to_gate_assignment()
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
    for j in range(3):
        assert np.array_equal(frame.column_block(j),
                              frame.matrix[:, frame.columns[:, 0] == j])


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
        assert np.all(frame.column_block(j)[outside] == 0.0)
        partial |= not cone.all()
    assert partial


def _cone_index_loop(cone, n, base):
    idx = np.zeros(1, dtype=np.intp)
    for q in cone:
        idx = (idx[:, None] + np.arange(base) * base ** (n - q)).ravel()
    return idx


def _scatter_reference_unitary_frame(arch, gates):
    """The unitary frame's suffix sweep with a fresh fancy-index gather and
    scatter for every cone, the whole register included."""
    n = arch.n
    rows, width = frame_shape(arch, "unitary")
    cols = np.zeros((width, rows))
    reach = np.eye(n, dtype=bool)
    later = np.zeros(n, dtype=bool)
    suffix = np.eye(2 ** n, dtype=complex)
    stop = width
    for j in range(arch.gate_count - 1, -1, -1):
        a, b = wires = arch.gates[j]
        kept = contraction._KEPT[later[a - 1], later[b - 1]]
        later[[a - 1, b - 1]] = True
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


@pytest.mark.parametrize("build", FRAME_CASES + [
    pytest.param(lambda: brickwork(6, 6), id="brickwork-6-6")])
def test_unitary_frame_bit_identical_to_scatter_reference(build):
    arch = build()
    for seed in (27, 28):
        gates = GateAssignment.haar(arch, seed)
        frame = tangent_frame(arch, gates)
        assert np.array_equal(frame.matrix,
                              _scatter_reference_unitary_frame(arch, gates))


def test_cone_index_is_cached_and_read_only():
    for cone, n, base in [((2, 3), 4, 2), ((1, 3, 4), 5, 4), ((2,), 3, 4)]:
        idx = contraction._cone_index(cone, n, base)
        assert idx is contraction._cone_index(cone, n, base)
        assert not idx.flags.writeable
        assert np.array_equal(idx, _cone_index_loop(cone, n, base))


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
    est = numerical_rank(mat)
    sv, loose, tight = _svd_reference(mat)
    assert (est.loose_rank, est.tight_rank) == (loose, tight)
    if ratio < 1e-4:
        assert est.route == "svd"
    if ratio >= 1e-2:
        assert est.route == "gram"
    if est.route == "gram":
        assert np.abs(est.singular_values - sv).max() <= 1e-12 * sv[0]
    else:
        assert np.array_equal(est.singular_values, sv)


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
        m, c = frame.matrix.shape
        est = numerical_rank(frame)
        _sv, loose, tight = _svd_reference(frame.matrix)
        assert (est.loose_rank, est.tight_rank) == (loose, tight)
        assert est.route == ("gram" if loose == c < m else "svd")
        routes.append(est.route)
    assert ("gram" in routes) == (mode == "unitary")
    for arch in (staircase(4, 3), brickwork(4, 4)):
        gates = witness_point(arch, mode).to_gate_assignment()
        frame = tangent_frame(arch, gates, mode)
        est = numerical_rank(frame)
        _sv, loose, tight = _svd_reference(frame.matrix)
        assert est.route == "svd"
        assert (est.loose_rank, est.tight_rank) == (loose, tight)


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


def test_accessible_dimension_sample_constancy():
    report = accessible_dimension(staircase(3, 4), samples=5, seed=3)
    ranks = report.sample_ranks()
    assert len(set(ranks)) == 1
    assert not report.inconclusive


def test_accessible_dimension_state_mode_cap():
    report = accessible_dimension(staircase(3, 2), mode="state",
                                  samples=3, seed=5)
    assert report.cap == 15
    assert report.consensus == 15
    assert report.bounds_ok


def test_witness_rank_never_exceeds_consensus():
    for n, t in ((2, 1), (3, 2), (3, 5)):
        arch = staircase(n, t)
        report = accessible_dimension(arch, samples=3, seed=21)
        cert = witness_point(arch, "unitary")
        west = numerical_rank(tangent_frame(arch, cert.to_gate_assignment()))
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
    tall = accessible_dimension(staircase(3, 1), samples=3, seed=1)
    assert [e["route"] for e in tall.to_json_dict()["per_sample"]] == \
        ["gram"] * 3
    csv = report.spectra_csv()
    assert csv.startswith("sample,index,singular_value")


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
