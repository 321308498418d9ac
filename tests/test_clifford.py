"""Clifford circuits, tableaux, and the two-qubit routing synthesis."""

import numpy as np
import pytest

from archdim import (
    CliffordCircuit,
    CliffordTableau,
    DimensionMismatch,
    InvalidQubit,
    PauliString,
    PhasedPauli,
    TrivialPauli,
    ValidationError,
    conjugate_pauli_by_gate,
    routing_clifford_2q,
)
from archdim.clifford import GATE_ARITY, circuit_images
from archdim.dense import apply_gate_left
from archdim.pauli import TWO_QUBIT_GENERATORS

from reference import (
    GATE_MATRICES,
    circuit_unitary,
    is_symplectic,
    post_composed,
    prepend_by_images,
)

GATE_PLACEMENTS = [
    (name, qubits)
    for name, arity in GATE_ARITY.items()
    for qubits in ([(1,), (2,)] if arity == 1 else [(1, 2), (2, 1)])
]


def _embedded(name: str, qubits: tuple[int, ...], n: int) -> np.ndarray:
    return apply_gate_left(np.eye(2 ** n, dtype=complex),
                           GATE_MATRICES[name], qubits, n)


@pytest.mark.parametrize("name,qubits", GATE_PLACEMENTS)
def test_gate_conjugation_matches_dense(name, qubits):
    g = _embedded(name, qubits, 2)
    for p in TWO_QUBIT_GENERATORS:
        predicted = conjugate_pauli_by_gate(p, name, qubits)
        got = g @ p.to_matrix() @ g.conj().T
        assert np.abs(got - predicted.to_matrix()).max() < 1e-12


def test_standard_conjugation_rules():
    x1 = PauliString.from_label("XI")
    assert conjugate_pauli_by_gate(x1, "CNOT", (1, 2)).label() == "XX"
    zz = PauliString.from_label("ZZ")
    assert conjugate_pauli_by_gate(zz, "CNOT", (1, 2)).label() == "IZ"
    z = PauliString.from_label("Z")
    assert conjugate_pauli_by_gate(z, "H", (1,)).label() == "X"
    y = PauliString.from_label("Y")
    assert conjugate_pauli_by_gate(y, "H", (1,)).label() == "-Y"
    assert conjugate_pauli_by_gate(
        PauliString.from_label("X"), "S", (1,)).label() == "Y"


def _random_circuit(rng, n, length):
    names = list(GATE_ARITY)
    ops = []
    for _ in range(length):
        name = names[int(rng.integers(len(names)))]
        qs = tuple(int(q) + 1
                   for q in rng.choice(n, size=GATE_ARITY[name], replace=False))
        ops.append((name, qs))
    return CliffordCircuit(n, tuple(ops))


def _random_pauli(rng, n):
    return PauliString(n, int(rng.integers(0, 1 << n)),
                       int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))


def _tableau(circuit):
    """The circuit's tableau, pre-composed onto the identity in one step."""
    tab = CliffordTableau.identity(circuit.n)
    tab.prepend_circuit(circuit, tuple(range(1, circuit.n + 1)))
    return tab


def _random_two_qubit_steps(rng, n, length):
    """Random two-qubit circuits placed on random ordered wire pairs."""
    steps = []
    for _ in range(length):
        wires = tuple(int(q) + 1 for q in rng.choice(n, size=2, replace=False))
        steps.append((_random_circuit(rng, 2, int(rng.integers(0, 4))), wires))
    return steps


def test_prepend_circuit_matches_post_composed_and_dense():
    # prepending the steps back to front must give the tableau that
    # post-composing them front to back, gate by gate, gives, phases
    # included; n = 40 makes rows of 80 bits
    rng = np.random.default_rng(11)
    sizes = [int(rng.integers(2, 5)) for _ in range(300)] + [16] * 20 + [40] * 20
    for n in sizes:
        steps = _random_two_qubit_steps(rng, n, 6 if n < 16 else 40)
        built = CliffordTableau.identity(n)
        for circuit, wires in reversed(steps):
            built.prepend_circuit(circuit, wires)
        flat = CliffordCircuit(n, tuple(
            (name, tuple(wires[q - 1] for q in qubits))
            for circuit, wires in steps for name, qubits in circuit.gates))
        reference = post_composed(n, steps)
        assert (built.rows, built.phases) == (reference.rows, reference.phases)
        built.prepend_circuit(CliffordCircuit(2), steps[0][1])  # a no-op
        assert (built.rows, built.phases) == (reference.rows, reference.phases)
        u = circuit_unitary(flat) if n <= 3 else None
        for _ in range(4):
            p = _random_pauli(rng, n)
            assert built.conjugate(p) == reference.conjugate(p)
            if u is not None:
                dense = u @ p.to_matrix() @ u.conj().T
                image = built.conjugate(p).to_matrix()
                assert np.abs(dense - image).max() < 1e-12


def test_tableau_is_symplectic_for_random_circuits():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        tab = _tableau(_random_circuit(rng, n, 8))
        assert is_symplectic(tab)
        # a non-Hermitian image, or Z_1's image equal to X_1's, breaks it
        phases = list(tab.phases)
        phases[n] += 1
        assert not is_symplectic(CliffordTableau(n, list(tab.rows), phases))
        rows = list(tab.rows)
        rows[n] = rows[0]
        assert not is_symplectic(CliffordTableau(n, rows, list(tab.phases)))


def test_packed_product_matches_pauli_mul():
    # image() multiplies the rows at the set bits of its input in increasing
    # bit order; with arbitrary phased strings as rows that is exactly the
    # PauliString product, including the input's own XZ-form phase
    rng = np.random.default_rng(18)
    for _ in range(150):
        n = int(rng.integers(1, 70))
        strings = [_random_pauli_wide(rng, n) for _ in range(2 * n)]
        tab = CliffordTableau(n, [p.xz_row()[0] for p in strings],
                              [p.xz_row()[1] for p in strings])
        assert tab.image(1 | 1 << n, 0) == (strings[0] * strings[n]).xz_row()
        q = _random_pauli_wide(rng, n)
        expected = PauliString(n, 0, 0, q.xz_row()[1])
        for b in range(2 * n):
            if q.xz_row()[0] >> b & 1:
                expected = expected * strings[b]
        assert tab.image(*q.xz_row()) == expected.xz_row()
        assert PauliString.from_xz_row(n, *q.xz_row()) == q


def _random_pauli_wide(rng, n):
    x = int.from_bytes(rng.bytes(16), "little") & ((1 << n) - 1)
    z = int.from_bytes(rng.bytes(16), "little") & ((1 << n) - 1)
    return PauliString(n, x, z, int(rng.integers(0, 4)))


def test_tableau_preserves_identity_and_weight_zero():
    rng = np.random.default_rng(13)
    tab = _tableau(_random_circuit(rng, 3, 10))
    ident = PauliString.identity(3)
    assert tab.conjugate(ident) == ident


def test_conjugate_tracks_input_phase():
    tab = CliffordTableau.identity(2)
    p = PauliString.from_label("-iXZ")
    assert tab.conjugate(p) == p


def test_circuit_inverse_undoes_conjugation():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        circ = _random_circuit(rng, n, 6)
        p = _random_pauli(rng, n)
        image = circ.conjugate_row(*p.xz_row(), n)
        assert circ.inverse().conjugate_row(*image, n) == p.xz_row()


def test_conjugation_by_unknown_gate_is_a_validation_error():
    # the single-gate route refuses an unknown name as CliffordCircuit does
    # for certificate ops (test_witness.py, WRONG_CERTIFICATES)
    with pytest.raises(ValidationError, match="unknown gate 'FOO'"):
        conjugate_pauli_by_gate(PauliString.from_label("XI"), "FOO", (1, 2))


# -- dense bridge ---------------------------------------------------------------


def test_empty_circuit_unitary_is_identity():
    assert np.allclose(circuit_unitary(CliffordCircuit(2)), np.eye(4))


def test_single_hadamard_unitary():
    circ = CliffordCircuit(1, (("H", (1,)),))
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(circuit_unitary(circ) - h).max() < 1e-15


def test_unitarity_of_random_circuits():
    rng = np.random.default_rng(15)
    circ = _random_circuit(rng, 3, 12)
    u = circuit_unitary(circ)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12


def test_dense_conjugation_agrees_with_tableau_on_phased_strings():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        circ = _random_circuit(rng, n, 6)
        u = circuit_unitary(circ)
        tab = _tableau(circ)
        p = _random_pauli(rng, n)
        dense = u @ p.to_matrix() @ u.conj().T
        assert np.abs(dense - tab.conjugate(p).to_matrix()).max() < 1e-12


def test_dense_conjugation_agrees_with_tableau_on_generators():
    rng = np.random.default_rng(16)
    for _ in range(10):
        n = 2
        circ = _random_circuit(rng, n, 5)
        u = circuit_unitary(circ)
        tab = _tableau(circ)
        for q in range(1, n + 1):
            for kind in ("X", "Z"):
                gen = PauliString.single(n, kind, q)
                dense = u @ gen.to_matrix() @ u.conj().T
                assert np.abs(dense - tab.conjugate(gen).to_matrix()).max() < 1e-12


# -- routing --------------------------------------------------------------------


def test_routing_identity_input_rejected():
    with pytest.raises(TrivialPauli):
        routing_clifford_2q(PauliString.identity(2))


def test_routing_phased_input_rejected():
    with pytest.raises(PhasedPauli):
        routing_clifford_2q(PauliString.from_label("-XX"))


def test_routing_trivial_cases():
    assert routing_clifford_2q(PauliString.from_label("IZ")).is_identity
    swap_only = routing_clifford_2q(PauliString.from_label("ZI"))
    assert [name for name, _ in swap_only.gates] == ["SWAP"]


@pytest.mark.parametrize("target", [1, 2])
def test_routing_all_fifteen_paulis(target):
    expected = PauliString.single(2, "Z", target)
    for p in TWO_QUBIT_GENERATORS:
        circ = routing_clifford_2q(p, target=target)
        assert len(circ) <= 5
        assert circ.conjugate_row(*p.xz_row(), 2) == expected.xz_row()
        # dense 4x4 oracle
        u = circuit_unitary(circ)
        got = u @ p.to_matrix() @ u.conj().T
        assert np.abs(got - expected.to_matrix()).max() < 1e-12


def test_local_circuit_embeds_on_wires():
    circ = routing_clifford_2q(PauliString.from_label("XY"))
    big = PauliString.from_label("IXIY")  # XY placed on wires (2, 4)
    moved = circ.conjugate_row(*big.xz_row(), 4, wires=(2, 4))
    assert moved == PauliString.single(4, "Z", 4).xz_row()


def test_circuit_images_match_dense_conjugation():
    # rows and phases of each circuit's own tableau against C g C^dagger for
    # every generator g (X_1, X_2, Z_1, Z_2 on two qubits), phases included
    routed = [routing_clifford_2q(p, target=t)
              for p in TWO_QUBIT_GENERATORS for t in (1, 2)]
    circuits = [CliffordCircuit(2), CliffordCircuit(1, (("H", (1,)),)),
                CliffordCircuit(1, (("S", (1,)),))]
    circuits += routed + [c.inverse() for c in routed]
    assert len(routed) == 30
    assert circuit_images(CliffordCircuit(2)) == ((1, 2, 4, 8), (0, 0, 0, 0))
    for circ in circuits:
        k, u = circ.n, circuit_unitary(circ)
        rows, phases = circuit_images(circ)
        assert len(rows) == len(phases) == 2 * k
        for b in range(2 * k):
            g = PauliString.from_xz_row(k, 1 << b, 0).to_matrix()
            image = PauliString.from_xz_row(k, rows[b], phases[b]).to_matrix()
            assert np.abs(u @ g @ u.conj().T - image).max() < 1e-12


def test_cached_prepend_plan_matches_circuit_images_reference():
    # every routing circuit, its inverse and 200 random circuits (empty ones
    # included) on random wire pairs of one n = 5 tableau, in a seeded
    # order: after each step the plan-driven tableau and the one built by
    # testing every bit of ``circuit_images`` agree, phases included
    rng = np.random.default_rng(20261018)
    routed = [routing_clifford_2q(p, target=t)
              for p in TWO_QUBIT_GENERATORS for t in (1, 2)]
    assert len(routed) == 30
    circuits = (routed + [c.inverse() for c in routed]
                + [_random_circuit(rng, 2, int(rng.integers(0, 6)))
                   for _ in range(200)])
    n = 5
    built, reference = CliffordTableau.identity(n), CliffordTableau.identity(n)
    changed = 0
    for k in rng.permutation(len(circuits)):
        circuit = circuits[int(k)]
        wires = tuple(int(q) + 1 for q in rng.choice(n, size=2, replace=False))
        before = list(built.rows)
        built.prepend_circuit(circuit, wires)
        prepend_by_images(reference, circuit, wires)
        assert (built.rows, built.phases) == (reference.rows, reference.phases)
        changed += built.rows != before
    assert changed > len(circuits) // 2
    assert is_symplectic(built)


def test_prepend_plan_lists_only_changed_slots():
    assert CliffordCircuit(2).prepend_plan == ()
    # CNOT(1, 2): X_1 -> X_1 X_2 and Z_2 -> Z_1 Z_2; X_2 and Z_1 stay
    cnot = CliffordCircuit(2, (("CNOT", (1, 2)),))
    assert cnot.prepend_plan == ((0, (0, 1), 0), (3, (2, 3), 0))
    circ = routing_clifford_2q(PauliString.from_label("YX"))
    assert circ.inverse() is circ.inverse()
    assert circ.inverse().prepend_plan != circ.prepend_plan


def test_prepend_circuit_checks_wires_of_an_empty_circuit():
    tab = CliffordTableau.identity(3)
    with pytest.raises(InvalidQubit):
        tab.prepend_circuit(CliffordCircuit(2), (1, 99))
    with pytest.raises(DimensionMismatch):
        tab.prepend_circuit(CliffordCircuit(2), (1,))
    fresh = CliffordTableau.identity(3)
    assert (tab.rows, tab.phases) == (fresh.rows, fresh.phases)
