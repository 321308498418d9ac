"""Path trees, slice routing, witness construction and verification."""

import dataclasses
import hashlib
import itertools
import json
import sys

import numpy as np
import pytest

from archdim import (
    CertificateMismatch,
    CliffordCircuit,
    CountMismatch,
    DimensionMismatch,
    NotCausal,
    PauliString,
    TooManySlices,
    ValidationError,
    WitnessCertificate,
    brickwork,
    build_family,
    build_path_tree,
    contract,
    from_gate_sequence,
    is_causal_slice,
    numerical_rank,
    random_adjacent,
    staircase,
    tangent_frame,
    verify_certificate,
    witness_point,
    witness_rank,
)
from archdim import contraction, dense, witness
from archdim.clifford import CliffordTableau, routing_clifford_2q
from archdim.pauli import nontrivial_strings, xz_state_image
from archdim.witness import _DirectionSweep

from reference import (
    circuit_unitary,
    explicit,
    first_new as reference_first_new,
    gate_assignment,
    path,
    phase_free_rank,
    route_pauli_through_slice,
    slice_tableau,
    witness_point as per_slice_witness_point,
)


def _random_nontrivial(rng, n):
    while True:
        p = PauliString(n, int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 1 << n)), 0)
        if not p.is_identity:
            return p


# -- path trees -------------------------------------------------------------------


def test_staircase_paths_walk_toward_sink():
    arch = staircase(4, 1)
    tree = build_path_tree(arch, 0, 3)
    for q in (1, 2, 3):
        hops = path(tree, q)
        assert hops[-1][2] == 4
        assert [h[1] for h in hops] == list(range(q, 4))


def test_single_gate_tree():
    arch = from_gate_sequence(2, [(1, 2)])
    tree = build_path_tree(arch, 0, 1)
    assert path(tree, 1) == [(0, 1, 2)]
    assert path(tree, 2) == []


def test_tree_requires_causal_slice():
    arch = from_gate_sequence(3, [(1, 2)])
    with pytest.raises(NotCausal):
        build_path_tree(arch, 0, 1)


def test_tree_merging_property():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        arch = staircase(n, 1) if rng.integers(2) else brickwork(
            int(rng.choice([4])), 4)
        stop = arch.slice_ranges()[0][1] if arch.slice_boundaries else arch.gate_count
        tree = build_path_tree(arch, 0, stop)
        paths = {q: [(q, *[h[2] for h in path(tree, q)])]
                 for q in range(1, arch.n + 1)}
        seqs = {q: paths[q][0] for q in paths}
        # once two paths share a qubit their suffixes coincide
        for q1 in seqs:
            for q2 in seqs:
                s1, s2 = seqs[q1], seqs[q2]
                for i, v in enumerate(s1):
                    if v in s2:
                        j = s2.index(v)
                        assert s1[i:] == s2[j:]
                        break


def _causal_windows():
    """(arch, start, stop) of a brickwork slice and of every causal window
    of seeded random_adjacent circuits that starts at gate 0 or 3."""
    yield brickwork(4, 4), 0, 12
    for seed in range(12):
        arch = random_adjacent(3 + seed % 4, 24, seed)
        for start in (0, 3):
            for stop in range(start + 1, arch.gate_count + 1):
                if is_causal_slice(arch, start, stop) is not None:
                    yield arch, start, stop


def test_tree_hops_increase_along_paths():
    windows = 0
    for arch, start, stop in _causal_windows():
        tree = build_path_tree(arch, start, stop)
        offsets = [h[0] for h in tree.hops]
        assert offsets == sorted(set(offsets))  # one hop per gate at most
        for q in range(1, arch.n + 1):
            hops = path(tree, q)  # reaches the sink from every qubit
            assert [h[2] for h in hops[-1:]] == ([] if q == tree.sink
                                                 else [tree.sink])
            indices = [h[0] for h in hops]
            assert indices == sorted(set(indices))
        # the last hop is the insertion gate: the last gate on the sink
        offset, wires, dst = tree.hops[-1]
        assert dst == tree.sink and tree.sink in wires
        assert offset == witness._last_gate_on(arch, start, stop,
                                               tree.sink) - start
        windows += 1
    assert windows > 100


# -- routing ----------------------------------------------------------------------


def test_route_sink_z_needs_no_gates():
    arch = staircase(3, 1)
    tree = build_path_tree(arch, 0, 2)
    assignments = route_pauli_through_slice(
        tree, PauliString.single(3, "Z", 3))
    assert all(c.is_identity for c in assignments.values())


def test_route_identity_rejected():
    # the routing checks what it swept: neither the identity nor a phased
    # string can end as a bare Z on the sink
    arch = staircase(3, 1)
    tree = build_path_tree(arch, 0, 2)
    for p in (PauliString.identity(3), PauliString(3, 0, 4, 2)):
        with pytest.raises(AssertionError, match="routing failed"):
            witness._route(tree, p)


def test_route_xxy_through_staircase():
    arch = staircase(3, 1)
    tree = build_path_tree(arch, 0, 2)
    p = PauliString.from_label("XXY")
    assignments = route_pauli_through_slice(tree, p)
    tab = slice_tableau(arch, 0, 2, assignments)
    assert tab.conjugate(p) == PauliString.single(3, "Z", 3)


def test_route_random_paulis_against_tableau_and_dense():
    rng = np.random.default_rng(32)
    for _ in range(100):
        if rng.integers(2):
            n = int(rng.integers(2, 6))
            arch = staircase(n, 1)
        else:
            n = 4
            arch = brickwork(4, 4)
        start, stop = arch.slice_ranges()[0]
        sink = is_causal_slice(arch, start, stop)
        tree = build_path_tree(arch, start, stop)
        p = _random_nontrivial(rng, n)
        assignments = route_pauli_through_slice(tree, p)
        tab = slice_tableau(arch, start, stop, assignments)
        target = PauliString.single(n, "Z", sink)
        assert tab.conjugate(p) == target
        if n <= 3:
            # dense oracle on the contracted slice
            gates = gate_assignment(
                [assignments[i] for i in range(start, stop)])
            sub = from_gate_sequence(n, arch.gates[start:stop])
            u = contract(sub, gates)
            got = u @ p.to_matrix() @ u.conj().T
            assert np.abs(got - target.to_matrix()).max() < 1e-9


# -- witness construction -----------------------------------------------------------


def test_witness_two_slices_distinct_directions():
    cert = witness_point(staircase(3, 2), "unitary")
    assert len(cert.directions) == 2
    assert len({(d.x_bits, d.z_bits) for d in cert.directions}) == 2


def test_witness_direction_count_full_saturation():
    cert = witness_point(staircase(3, 63), "unitary")
    assert len(cert.directions) == 63
    assert len({(d.x_bits, d.z_bits) for d in cert.directions}) == 63


def test_witness_unitary_threshold():
    with pytest.raises(TooManySlices):
        witness_point(staircase(3, 64), "unitary")


def test_witness_state_threshold():
    with pytest.raises(TooManySlices):
        witness_point(staircase(3, 63), "state")
    with pytest.raises(TooManySlices):
        witness_point(staircase(3, 15), "state")
    cert = witness_point(staircase(3, 14), "state")
    assert len(cert.state_images) == 14
    assert len({(b, k % 2) for b, k in cert.state_images}) == 14


def test_witness_state_budget_edge_n4():
    # 2 * 2^4 - 2 = 30 distinct image pairs exist; 31 does not fit
    cert = witness_point(staircase(4, 30), "state")
    assert len({(b, k % 2) for b, k in cert.state_images}) == 30
    with pytest.raises(TooManySlices):
        witness_point(staircase(4, 31), "state")


def test_witness_saturates_su4_on_two_qubits():
    # at the full unitary budget the witness itself reaches the cap
    arch = staircase(2, 15)
    cert = witness_point(arch, "unitary")
    verdict = verify_certificate(cert, arch)
    assert verdict.distinct_directions == 15
    assert verdict.witness_rank == 15


def test_witness_on_irregular_causal_architectures():
    # random gate soup (non-adjacent pairs allowed), slices kept only when
    # causal; every witness must verify in both modes
    rng = np.random.default_rng(20260808)
    built = 0
    while built < 40:
        n = int(rng.integers(2, 6))
        t_slices = int(rng.integers(1, 4))
        gates, slices, ok = [], [], True
        for _ in range(t_slices):
            block = []
            for _ in range(int(rng.integers(n - 1, 3 * n))):
                a, b = rng.choice(n, size=2, replace=False)
                block.append((int(a) + 1, int(b) + 1))
            probe = from_gate_sequence(n, block)
            if is_causal_slice(probe, 0, len(block)) is None:
                ok = False
                break
            gates.extend(block)
            slices.append(len(gates))
        if not ok:
            continue
        arch = from_gate_sequence(n, gates, slices)
        mode = "unitary" if rng.integers(2) else "state"
        cert = witness_point(arch, mode)
        verdict = verify_certificate(cert, arch, check_rank=(n <= 4))
        assert verdict.distinct_directions == t_slices
        if verdict.witness_rank is not None:
            assert verdict.witness_rank >= t_slices
        built += 1


def test_witness_needs_marked_slices():
    with pytest.raises(NotCausal):
        witness_point(from_gate_sequence(3, [(1, 2), (2, 3)]), "unitary")


def test_witness_directions_survive_random_slice_conjugation():
    # distinctness is preserved by any further Clifford conjugation
    rng = np.random.default_rng(33)
    cert = witness_point(staircase(3, 5), "unitary")
    directions = list(cert.directions)
    for _ in range(20):
        arch = staircase(3, 1)
        p = _random_nontrivial(rng, 3)
        tree = build_path_tree(arch, 0, 2)
        assignments = route_pauli_through_slice(tree, p)
        tab = slice_tableau(arch, 0, 2, assignments)
        directions = [tab.conjugate(d) for d in directions]
        assert len({(d.x_bits, d.z_bits) for d in directions}) == len(directions)


def test_witness_rank_meets_slice_count():
    for n, t in ((3, 2), (3, 6), (4, 3), (4, 6)):
        cert = witness_point(staircase(n, t), "unitary")
        frame = tangent_frame(staircase(n, t), gate_assignment(cert.gate_circuits))
        est = numerical_rank(frame)
        assert est.rank is not None and est.rank >= t


def _dense_rank(arch, circuits, mode):
    est = numerical_rank(tangent_frame(
        arch, gate_assignment(circuits), mode))
    assert est.conclusive, est.gap_description()
    return est.rank


WITNESS_RANK_ARCHS = (
    [staircase(n, t) for n in range(2, 7) for t in (1, 2, 4)]
    + [staircase(5, 10), staircase(6, 8)]
    + [brickwork(n, r) for n, r in ((2, 2), (2, 5), (4, 4), (4, 9), (6, 6))])

_CLIFFORD_OPS = (("H", 1), ("S", 1), ("CNOT", 2), ("CZ", 2), ("SWAP", 2))


def _random_clifford_2q(rng) -> CliffordCircuit:
    ops = []
    for _ in range(int(rng.integers(0, 6))):
        name, arity = _CLIFFORD_OPS[int(rng.integers(len(_CLIFFORD_OPS)))]
        ops.append((name, tuple(int(q) + 1 for q in rng.permutation(2)[:arity])))
    return CliffordCircuit(2, tuple(ops))


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_witness_rank_matches_dense_rank_at_witness_points(mode):
    checked = 0
    for arch in WITNESS_RANK_ARCHS:
        try:
            cert = witness_point(arch, mode)
        except TooManySlices:
            continue
        rank = witness_rank(arch, cert.gate_circuits, mode)
        assert rank == _dense_rank(arch, cert.gate_circuits, mode), arch
        assert rank >= cert.slice_count
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_witness_rank_matches_dense_rank_at_random_clifford_points(mode):
    # seeded random H/S/CNOT/CZ/SWAP circuits, empty ones included, on random
    # adjacent-gate architectures; most frames fall below the generic rank
    rng = np.random.default_rng(20261018)
    deficient = 0
    for case in range(40):
        n = int(rng.integers(2, 6))
        arch = random_adjacent(n, int(rng.integers(1, 12)), case)
        circuits = [_random_clifford_2q(rng) for _ in range(arch.gate_count)]
        rank = witness_rank(arch, circuits, mode)
        assert rank == _dense_rank(arch, circuits, mode), (case, arch)
        deficient += rank < contraction.dimension_bounds(arch, mode)[1]
    assert deficient >= 10


def _random_clifford_point(rng, n, r_gates):
    """``r_gates`` gates on random wire pairs, not only adjacent ones, each
    with a random circuit (empty ones included)."""
    pairs = [tuple(int(q) + 1 for q in rng.choice(n, size=2, replace=False))
             for _ in range(r_gates)]
    return (from_gate_sequence(n, pairs),
            [_random_clifford_2q(rng) for _ in pairs])


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_witness_rank_matches_phase_free_reference_at_random_clifford_points(mode):
    # the sweep keeps phases the reference never forms; ranks must agree
    rng = np.random.default_rng(20261019)
    for n in range(2, 17):
        for r_gates in (0, 1, int(rng.integers(2, 4 * n)), 4 * n):
            arch, circuits = _random_clifford_point(rng, n, r_gates)
            assert (witness_rank(arch, circuits, mode)
                    == phase_free_rank(arch, circuits, mode)), (n, arch)


def test_gate_leaves_the_span_of_its_slot_rows_unchanged():
    # pre-composing a two-qubit circuit on (a, b) maps the rows of X_a, X_b,
    # Z_a, Z_b to products of themselves, so gate j's 15 direction keys are
    # the same read before or after gate j itself is pre-composed
    rng = np.random.default_rng(7)

    def span(tab, a, b):
        out = {0}
        for s in (a - 1, b - 1, tab.n + a - 1, tab.n + b - 1):
            out |= {v ^ tab.rows[s] for v in out}
        return out

    for _ in range(50):
        n = int(rng.integers(2, 7))
        arch, circuits = _random_clifford_point(rng, n, 6)
        tab = CliffordTableau.identity(n)
        for wires, circuit in zip(arch.gates, circuits):
            before = span(tab, *wires)
            tab.prepend_circuit(circuit.inverse(), wires)
            assert span(tab, *wires) == before


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_witness_and_verify_rank_match_phase_free_reference(mode):
    checked = 0
    for arch in WITNESS_RANK_ARCHS:
        try:
            cert = witness_point(arch, mode)
        except TooManySlices:
            continue
        expected = phase_free_rank(arch, cert.gate_circuits, mode)
        assert witness_rank(arch, cert.gate_circuits, mode) == expected, arch
        assert verify_certificate(cert, arch).witness_rank == expected, arch
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_witness_rank_at_the_all_empty_point_matches_dense_rank(mode):
    # every circuit is empty, so the sweep pre-composes nothing; the rank
    # rows of each gate must still be collected before its circuit is skipped
    for arch in (staircase(2, 1), staircase(3, 2), staircase(4, 1),
                 brickwork(4, 2), random_adjacent(5, 8, 1)):
        circuits = (CliffordCircuit(2),) * arch.gate_count
        rank = witness_rank(arch, circuits, mode)
        assert rank == _dense_rank(arch, circuits, mode) > 0, arch


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_each_sweep_prepends_each_non_empty_circuit_once(mode, monkeypatch):
    # a work count, not a timing: witness_point and verify_certificate call
    # prepend_circuit once per non-empty gate circuit in each sweep (the
    # build sweep, in unitary mode the back-to-front total, and the verify
    # sweep), and never for an empty one
    arch = staircase(16, 48)
    calls = []
    prepend = CliffordTableau.prepend_circuit

    def counted(tab, circuit, wires):
        calls.append((tab, circuit, wires))
        prepend(tab, circuit, wires)

    monkeypatch.setattr(CliffordTableau, "prepend_circuit", counted)
    cert = witness_point(arch, mode)
    verify_certificate(cert, arch)
    sweeps: dict[int, list] = {}
    for tab, circuit, wires in calls:
        sweeps.setdefault(id(tab), []).append((circuit, wires))
    placed = [(c, w) for c, w in zip(cert.gate_circuits, arch.gates) if c.gates]
    assert 0 < len(placed) < arch.gate_count
    forward = [(c.inverse(), w) for c, w in placed]
    expected = ([forward, placed[::-1], forward] if mode == "unitary"
                else [forward, forward])
    assert list(sweeps.values()) == expected


def test_witness_rank_validates_input():
    arch = staircase(3, 1)
    cert = witness_point(arch, "unitary")
    with pytest.raises(CountMismatch):
        witness_rank(arch, cert.gate_circuits[:-1], "unitary")
    with pytest.raises(ValidationError):
        witness_rank(arch, cert.gate_circuits, "density")
    with pytest.raises(ValidationError):
        witness_rank(arch, (CliffordCircuit(3),) * 2, "unitary")


def test_witness_t1_trivial():
    cert = witness_point(staircase(2, 1), "unitary")
    assert cert.directions == (PauliString.single(2, "Z", 2),)
    verdict = verify_certificate(cert, staircase(2, 1))
    assert verdict.witness_rank >= 1


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_large_certificate_roundtrips_and_verifies_with_rank(mode):
    # n = 12 is beyond any dense 2^n check; verification stays stabilizer-only
    arch = staircase(12, 6)
    cert = witness_point(arch, mode)
    again = WitnessCertificate.from_json(cert.to_json())
    assert again == cert
    verdict = verify_certificate(again, arch)
    assert verdict.distinct_directions == 6
    assert verdict.witness_rank >= 6


@pytest.mark.parametrize("family, n, t, mode, rank", [
    ("staircase", 9, 2, "unitary", 99),
    ("staircase", 12, 24, "unitary", 180),
    ("staircase", 16, 48, "unitary", 258),
    ("brickwork", 10, 4, "unitary", 120),
    ("brickwork", 16, 4, "unitary", 192),
    ("staircase", 10, 40, "state", 69),
    ("staircase", 16, 48, "state", 99),
    ("brickwork", 12, 6, "state", 49),
])
def test_witness_rank_pinned_beyond_dense_reach(family, n, t, mode, rank):
    # no dense frame can check these, so the exact ranks are pinned
    arch = build_family(family, n, t)
    assert witness_rank(arch, witness_point(arch, mode).gate_circuits, mode) == rank


def test_from_circuits_matches_per_gate_reference():
    # ``gate_assignment`` forms each distinct circuit's unitary once
    circuits = witness_point(staircase(5, 10), "unitary").gate_circuits
    assert len(set(circuits)) < len(circuits)
    reference = []
    for c in circuits:
        u = circuit_unitary(c)
        reference.append(u / np.linalg.det(u) ** 0.25)
    assert np.array_equal(gate_assignment(circuits).matrices,
                          np.stack(reference))


# -- dense reference: the contracted witness unitary is Clifford (n <= 6) ----------


def _pauli_times(p, mat):
    """P @ mat as a signed row permutation.

    P |s> = i^(phase + #Y) (-1)^(z.s) |s ^ x>, with the x and z masks in
    basis-state order (qubit 1 as the most significant bit).
    """
    n = p.n
    x = int(f"{p.x_bits:0{n}b}"[::-1], 2)
    z = int(f"{p.z_bits:0{n}b}"[::-1], 2)
    source = np.arange(2 ** n) ^ x  # row r of P @ mat comes from row r ^ x
    signs = np.where(np.bitwise_count(source & z) & 1, -1.0, 1.0)
    kappa = p.phase_exp + (p.x_bits & p.z_bits).bit_count()
    return (1j ** kappa) * signs[:, None] * mat[source]


def _dense_is_clifford(arch, gates, total):
    """Whether the contracted unitary U conjugates each X_q and Z_q to its
    image under ``total``, the whole circuit's tableau, checked as U g = P U.
    Both sides are signed permutations of U's columns or rows."""
    assert arch.n <= 6
    dense = contract(arch, gates)
    for q in range(1, arch.n + 1):
        for kind in ("X", "Z"):
            gen = PauliString.single(arch.n, kind, q)
            right = _pauli_times(gen, dense.T).T  # U g, as g is symmetric
            left = _pauli_times(total.conjugate(gen), dense)
            if np.abs(right - left).max() > 1e-9:
                return False
    return True


def test_witness_contracted_unitary_is_clifford():
    arch = staircase(3, 3)
    cert = witness_point(arch, "unitary")
    gates = gate_assignment(cert.gate_circuits)
    assert _dense_is_clifford(arch, gates, _witness_tableau(arch, cert))
    assert verify_certificate(cert, arch).witness_rank is not None


def _kicked(gates, j=0):
    """The assignment with gate j multiplied by exp(-1e-3 i X (x) I)."""
    x_i = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    kick = np.cos(1e-3) * np.eye(4) - 1j * np.sin(1e-3) * x_i
    mats = gates.matrices.copy()
    mats[j] = mats[j] @ kick
    return explicit(mats, normalize=False)


def _z_flipped(gates, j=0):
    """The assignment with gate j right-multiplied by Z (x) I, which flips the
    sign of its X_1 and Y_1 images."""
    mats = gates.matrices.copy()
    mats[j] = mats[j] @ np.diag([1, 1, -1, -1])
    return explicit(mats, normalize=False)


def _witness_tableau(arch, cert):
    return slice_tableau(arch, 0, arch.gate_count, cert.gate_circuits)


def test_pauli_times_matches_dense_product():
    rng = np.random.default_rng(33)
    for n in (1, 2, 4):
        mat = rng.standard_normal((2 ** n, 3)) + 1j * rng.standard_normal((2 ** n, 3))
        for _ in range(8):
            p = PauliString(n, int(rng.integers(0, 1 << n)),
                            int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
            assert np.abs(_pauli_times(p, mat) - p.to_matrix() @ mat).max() < 1e-12


def test_dense_clifford_check_rejects_perturbed_gate():
    arch = staircase(3, 3)
    cert = witness_point(arch, "unitary")
    gates, total = gate_assignment(cert.gate_circuits), _witness_tableau(arch, cert)
    assert _dense_is_clifford(arch, gates, total)
    assert not _dense_is_clifford(arch, _kicked(gates), total)


def test_dense_clifford_check_rejects_flipped_image_sign():
    arch = staircase(3, 3)
    cert = witness_point(arch, "unitary")
    total = _witness_tableau(arch, cert)
    phases = list(total.phases)
    phases[total.n] = (phases[total.n] + 2) % 4  # the image of Z_1
    flipped = CliffordTableau(total.n, list(total.rows), phases)
    z_1 = PauliString.single(total.n, "Z", 1)
    p = total.conjugate(z_1)
    assert flipped.conjugate(z_1) == PauliString(p.n, p.x_bits, p.z_bits,
                                                 p.phase_exp + 2)
    assert not _dense_is_clifford(arch, gate_assignment(cert.gate_circuits), flipped)


@pytest.mark.parametrize("mode", ["unitary", "state"])
@pytest.mark.parametrize("arch", [staircase(3, 3), brickwork(4, 8)],
                         ids=["staircase-3-3", "brickwork-4-8"])
@pytest.mark.parametrize("perturb", [_kicked, _z_flipped], ids=["kick", "z-flip"])
def test_gate_check_agrees_with_dense_reference(arch, mode, perturb):
    # every gate position: the dense reference accepts the witness point and
    # rejects it with gate j perturbed
    cert = witness_point(arch, mode)
    gates, total = gate_assignment(cert.gate_circuits), _witness_tableau(arch, cert)
    assert _dense_is_clifford(arch, gates, total)
    for j in range(arch.gate_count):
        assert not _dense_is_clifford(arch, perturb(gates, j), total)


@pytest.mark.parametrize("mode", ["unitary", "state"])
@pytest.mark.parametrize("arch", [staircase(3, 3), brickwork(4, 8)],
                         ids=["staircase-3-3", "brickwork-4-8"])
def test_verify_touches_no_dense_code(arch, mode, monkeypatch):
    # a rank-checked verify is a tableau computation only: every archdim
    # name bound to a dense gate application is made to raise
    cert = witness_point(arch, mode)
    expected = witness_rank(arch, cert.gate_circuits, mode)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_certificate applied a dense gate")

    for fn in (dense.apply_gate_left, dense.apply_gate_right):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "archdim" and vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, refuse)
    verdict = verify_certificate(cert, arch, check_rank=True)
    assert verdict.witness_rank == expected >= cert.slice_count


def test_witness_brickwork():
    arch = brickwork(4, 8)
    cert = witness_point(arch, "unitary")
    verdict = verify_certificate(cert, arch)
    assert verdict.slice_count == 2
    assert verdict.witness_rank >= 2


def test_witness_brickwork_with_merged_tail():
    arch = brickwork(4, 9)  # trailing round merged into the second slice
    cert = witness_point(arch, "unitary")
    verdict = verify_certificate(cert, arch)
    assert verdict.slice_count == 2
    assert verdict.witness_rank >= 2


def test_state_images_match_dense_state_map():
    # i K_j |psi> must equal i * U * i^kappa |bits>, and the T vectors must
    # be real-linearly independent
    arch = staircase(3, 5)
    cert = witness_point(arch, "state")
    gates = gate_assignment(cert.gate_circuits)
    u_total = contract(arch, gates)
    psi = u_total[:, 0]
    tabs = [slice_tableau(arch, s.start, s.stop, cert.gate_circuits)
            for s in cert.slices]
    real_vectors = []
    for j, s in enumerate(cert.slices):
        d = PauliString.single(3, "Z", s.sink)
        for tab in tabs[j + 1:]:
            d = tab.conjugate(d)
        v = 1j * d.to_matrix() @ psi
        bits, kappa = cert.state_images[j]
        predicted = 1j * (1j ** kappa) * u_total[:, bits]
        assert np.abs(v - predicted).max() < 1e-10
        real_vectors.append(np.concatenate([v.real, v.imag]))
    m = np.stack(real_vectors, axis=1)
    assert np.linalg.matrix_rank(m, tol=1e-10) == 5


# -- verification and serialization ---------------------------------------------------


def test_verify_passes_on_fresh_certificates():
    for mode in ("unitary", "state"):
        arch = staircase(4, 3)
        cert = witness_point(arch, mode)
        verdict = verify_certificate(cert, arch)
        assert verdict.slice_count == 3
        assert verdict.distinct_directions == 3
        assert verdict.witness_rank >= 3


def test_verify_detects_forged_directions():
    arch = staircase(4, 3)
    cert = witness_point(arch, "unitary")
    forged = WitnessCertificate(
        cert.n, cert.mode, cert.gate_circuits, cert.slices,
        (cert.directions[0],) + cert.directions[:-1], cert.state_images)
    with pytest.raises(CertificateMismatch):
        verify_certificate(forged, arch)


def test_verify_detects_forged_route():
    # another string in the certificate cannot reach Z on the sink through
    # the stored gates, though the directions do not depend on it
    arch = staircase(4, 3)
    for mode in ("unitary", "state"):
        cert = witness_point(arch, mode)
        slices = list(cert.slices)
        forged = next(q for q in nontrivial_strings(4) if q != slices[1].chosen)
        slices[1] = dataclasses.replace(slices[1], chosen=forged)
        with pytest.raises(CertificateMismatch, match="does not route"):
            verify_certificate(dataclasses.replace(cert, slices=tuple(slices)),
                               arch, check_rank=False)


def test_verify_detects_phase_only_tampering():
    # a stored direction or image that is right up to phase is still forged
    arch = staircase(4, 3)
    cert = witness_point(arch, "unitary")
    directions = list(cert.directions)
    directions[1] = dataclasses.replace(
        directions[1], phase_exp=directions[1].phase_exp + 2)
    forged = [dataclasses.replace(cert, directions=tuple(directions))]
    cert = witness_point(arch, "state")
    for shift in (1, 2):
        images = list(cert.state_images)
        bits, kappa = images[1]
        images[1] = (bits, (kappa + shift) % 4)
        forged.append(dataclasses.replace(cert, state_images=tuple(images)))
    for cert in forged:
        with pytest.raises(CertificateMismatch, match="stored directions disagree"):
            verify_certificate(cert, arch, check_rank=False)


def test_verify_detects_wrong_architecture():
    cert = witness_point(staircase(3, 2), "unitary")
    with pytest.raises(CertificateMismatch):
        verify_certificate(cert, staircase(3, 3))


@pytest.mark.parametrize("label", ["ZI", "IIXI", "IIXII"])
@pytest.mark.parametrize("slot", ["chosen", "direction"])
def test_verify_refuses_a_string_on_other_qubit_counts(slot, label):
    # staircase(3, 2) chooses IIX and stores IIX as its first direction;
    # each stand-in has their packed row, so only the qubit count tells
    # them apart
    arch = staircase(3, 2)
    cert = witness_point(arch, "unitary")
    p = PauliString.from_label(label)
    assert (p.xz_row() == cert.slices[0].chosen.xz_row()
            == cert.directions[0].xz_row())
    if slot == "chosen":
        slices = (dataclasses.replace(cert.slices[0], chosen=p),
                  *cert.slices[1:])
        cert = dataclasses.replace(cert, slices=slices)
    else:
        cert = dataclasses.replace(cert, directions=(p, *cert.directions[1:]))
    with pytest.raises(DimensionMismatch, match="on 3 qubits"):
        verify_certificate(cert, arch)


@pytest.mark.parametrize("sink", [4, 11, 0, -1],
                         ids=["n+1", "2n+5", "0", "-1"])
def test_verify_refuses_a_sink_off_the_register(sink):
    # the stored sink picks a tableau row, so it is checked before it is
    # read; n = 3
    arch = staircase(3, 2)
    doc = witness_point(arch, "unitary").to_json_dict()
    doc["slices"][1]["sink"] = sink
    cert = WitnessCertificate.from_json_dict(doc)
    with pytest.raises(CertificateMismatch, match="sink .* outside 1..3"):
        verify_certificate(cert, arch)


def _staircase_3_2(mutate):
    """staircase(3, 2) and its unitary certificate, its JSON document
    changed by ``mutate``.  The certificate chooses IIX in both slices, on
    sink 3, with insertion gates 1 and 3; each slice's circuit is H on wire
    3 at its last gate, and the directions are IIX and IIZ."""
    arch = staircase(3, 2)
    doc = witness_point(arch, "unitary").to_json_dict()
    mutate(doc)
    return arch, WitnessCertificate.from_json_dict(doc)


def _repeat_a_direction(doc):
    # slice 1 keeps the prefix and chooses IIZ, which slice 0's H on wire
    # 3 pulls back onto d_0 = IIX, so slice 1 routes it onto Z_3 with no
    # gates; U is that H, and both stored directions are U d_0 U^dagger
    doc["slices"][1]["q"] = "IIZ"
    doc["gates"][2] = doc["gates"][3] = []
    doc["directions"] = ["IIZ", "IIZ"]


FORGED_CERTIFICATES = {
    "stale-insertion-gate": (
        lambda doc: doc["slices"][0].update(insertion_gate=0),
        "insertion gate of slice \\[0, 2\\) is stale"),
    "slices-off-the-boundaries": (
        lambda doc: doc.update(slices=[
            {**doc["slices"][0], "stop": 1},
            {**doc["slices"][1], "start": 1}]),
        "slices do not match boundaries"),
    "repeated-direction": (_repeat_a_direction, "not pairwise distinct"),
}


@pytest.mark.parametrize("mutate, match", FORGED_CERTIFICATES.values(),
                         ids=FORGED_CERTIFICATES.keys())
def test_verify_refuses_a_forged_slice(mutate, match):
    arch, cert = _staircase_3_2(mutate)
    with pytest.raises(CertificateMismatch, match=match):
        verify_certificate(cert, arch)


def test_verify_refuses_a_rank_below_the_slice_count(monkeypatch):
    arch, cert = _staircase_3_2(lambda doc: None)
    monkeypatch.setattr(_DirectionSweep, "rank", lambda self: 1)
    with pytest.raises(CertificateMismatch,
                       match="witness rank 1 below slice count 2"):
        verify_certificate(cert, arch)
    assert verify_certificate(cert, arch, check_rank=False).witness_rank \
        is None


def test_verify_refuses_a_slice_with_no_gate_on_its_sink():
    # gate 0 of the first slice acts on wires 1 and 2, not on its stored
    # sink 3; with empty circuits IIZ reaches Z_3, so the slice routes its
    # string and only its insertion gate is wrong, which the verifier
    # reports as a mismatch, not as invalid input (NotCausal)
    arch = from_gate_sequence(3, [(1, 2), (2, 3)], [1, 2])
    cert = WitnessCertificate.from_json_dict({
        "n": 3, "mode": "unitary", "gates": [[], []],
        "slices": [
            {"start": 0, "stop": 1, "sink": 3, "q": "IIZ",
             "insertion_gate": 0},
            {"start": 1, "stop": 2, "sink": 3, "q": "IIX",
             "insertion_gate": 1}],
        "directions": ["IIZ", "IIX"]})
    with pytest.raises(CertificateMismatch,
                       match="insertion gate of slice \\[0, 1\\) is stale"):
        verify_certificate(cert, arch)


def test_construction_refuses_directions_it_keyed_alike(monkeypatch):
    # every pulled direction given one key: the second slice's direction
    # repeats the first's key, which the construction refuses
    monkeypatch.setattr(_DirectionSweep, "key", lambda self, row, e: 0)
    with pytest.raises(AssertionError,
                       match="constructed directions are not distinct"):
        witness_point(staircase(3, 2), "unitary")


def test_certificate_rejects_unknown_mode():
    arch = staircase(3, 3)
    cert = witness_point(arch, "state")
    doc = cert.to_json_dict()
    doc["mode"] = "foo"
    with pytest.raises(ValidationError, match="mode"):
        WitnessCertificate.from_json_dict(doc)
    # a unitary document's directions are labels, not state-mode objects;
    # the mode is refused before they are read
    doc = witness_point(arch, "unitary").to_json_dict()
    doc["mode"] = "foo"
    with pytest.raises(ValidationError, match="certificate mode must be "
                       "'unitary' or 'state', got 'foo'"):
        WitnessCertificate.from_json(json.dumps(doc))
    with pytest.raises(ValidationError, match="mode"):
        WitnessCertificate(cert.n, "foo", cert.gate_circuits, cert.slices,
                           cert.directions, cert.state_images)


@pytest.mark.parametrize("mode, field, value", [
    ("unitary", "n", 3.0),
    ("unitary", "start", False),
    ("unitary", "stop", 2.0),
    ("unitary", "sink", 3.2),
    ("unitary", "insertion_gate", "1"),
    ("state", "phase_exp", 0.0),
])
def test_certificate_refuses_non_integer_field(mode, field, value):
    # int() truncated each value to the stored one, so the document verified
    arch = staircase(3, 2)
    doc = witness_point(arch, mode).to_json_dict()
    if field == "n":
        doc["n"] = value
    elif field == "phase_exp":
        doc["directions"][0]["phase_exp"] = value
    else:
        doc["slices"][0][field] = value
    with pytest.raises(ValidationError, match="must be an integer"):
        WitnessCertificate.from_json_dict(doc)


def _with_slice_q(d, q):
    return {**d, "slices": [{**d["slices"][0], "q": q}] + d["slices"][1:]}


def _with_gate(d, j, ops):
    gates = list(d["gates"])
    gates[j] = ops
    return {**d, "gates": gates}


def _with_bits(d, bits):
    return {**d, "directions": [{**d["directions"][0], "bits": bits}]
            + d["directions"][1:]}


# (mode, mutation) pairs on the certificate of staircase(3, 4), whose gate 1
# is [["H", 2]], gate 7 [["SWAP", 1, 2]] and, in state mode, first bits "001"
WRONG_CERTIFICATES = {
    "not-an-object": ("unitary", lambda d: [1, 2]),
    "gates-not-a-list": ("unitary", lambda d: {**d, "gates": 5}),
    "circuit-not-a-list": ("unitary", lambda d: _with_gate(d, 1, 5)),
    "slices-not-a-list": ("unitary", lambda d: {**d, "slices": 5}),
    "directions-not-a-list": ("state", lambda d: {**d, "directions": 5}),
    "slice-not-an-object": ("unitary", lambda d: {**d, "slices": [5]}),
    "state-direction-not-an-object": ("state",
                                      lambda d: {**d, "directions": [5]}),
    "q-not-a-string": ("unitary", lambda d: _with_slice_q(d, 5)),
    "q-too-short": ("unitary", lambda d: _with_slice_q(d, "ZI")),
    "q-too-long": ("unitary", lambda d: _with_slice_q(d, "IIXI")),
    "direction-too-long": ("unitary", lambda d: {**d, "directions": [
        d["directions"][0] + "I"] + d["directions"][1:]}),
    "direction-not-a-string": ("unitary", lambda d: {**d, "directions": [5]}),
    "bool-qubit": ("unitary", lambda d: _with_gate(d, 7, [["SWAP", True, 2]])),
    "float-qubit": ("unitary", lambda d: _with_gate(d, 1, [["H", 2.0]])),
    "empty-op": ("unitary", lambda d: _with_gate(d, 1, [[]])),
    "gate-name-not-a-string": ("unitary", lambda d: _with_gate(d, 1, [[5, 2]])),
    "op-not-a-list": ("unitary", lambda d: _with_gate(d, 1, ["H"])),
    "unknown-gate": ("unitary", lambda d: _with_gate(d, 1, [["FOO", 1]])),
    "wrong-qubit-count": ("unitary", lambda d: _with_gate(d, 1, [["H", 1, 2]])),
    "bits-too-short": ("state", lambda d: _with_bits(d, "1")),
    "bits-too-long": ("state", lambda d: _with_bits(d, "0001")),
    "bits-with-space": ("state", lambda d: _with_bits(d, " 01")),
    "bits-with-underscore": ("state", lambda d: _with_bits(d, "0_1")),
    "missing-gates": ("unitary", lambda d: {k: v for k, v in d.items()
                                            if k != "gates"}),
    "missing-slice-start": ("unitary", lambda d: {**d, "slices": [
        {k: v for k, v in d["slices"][0].items() if k != "start"}]}),
    "missing-mode": ("state", lambda d: {k: v for k, v in d.items()
                                         if k != "mode"}),
    "missing-phase-exp": ("state", lambda d: {**d, "directions": [
        {"bits": d["directions"][0]["bits"]}]}),
}


@pytest.mark.parametrize("mode, mutate", WRONG_CERTIFICATES.values(),
                         ids=WRONG_CERTIFICATES.keys())
def test_certificate_refuses_wrong_shape(mode, mutate):
    # each raised TypeError, AttributeError, IndexError, KeyError or a
    # plain ValueError, or was read leniently (true as qubit 1, "1" as
    # "001", a Pauli label on 2 or 4 qubits)
    doc = witness_point(staircase(3, 4), mode).to_json_dict()
    with pytest.raises(ValidationError):
        WitnessCertificate.from_json(json.dumps(mutate(doc)))


def test_certificate_json_roundtrip():
    for mode in ("unitary", "state"):
        arch = staircase(3, 4)
        cert = witness_point(arch, mode)
        again = WitnessCertificate.from_json(cert.to_json())
        assert again == cert
        verify_certificate(again, arch)


@pytest.mark.parametrize("mode", ["unitary", "state"])
@pytest.mark.parametrize("arch", [staircase(3, 4), staircase(5, 6), brickwork(4, 8)],
                         ids=["staircase-3-4", "staircase-5-6", "brickwork-4-8"])
def test_witness_directions_match_eq_partial_recomputation(arch, mode):
    # Reference built from post-composed slice tableaux, slice by slice:
    # direction j is Z on slice j's sink conjugated through the later slices,
    # and state image j is that Z pulled back through the inverse slices
    # 1..j, the reversed gates with inverted circuits.
    cert = witness_point(arch, mode)
    r = arch.gate_count
    tabs = [slice_tableau(arch, s.start, s.stop, cert.gate_circuits)
            for s in cert.slices]
    reversed_arch = from_gate_sequence(arch.n, arch.gates[::-1])
    inverses = [c.inverse() for c in cert.gate_circuits[::-1]]
    directions, images = [], []
    for j, s in enumerate(cert.slices):
        z_sink = PauliString.single(arch.n, "Z", s.sink)
        d = z_sink
        for tab in tabs[j + 1:]:
            d = tab.conjugate(d)
        directions.append(d)
        inv_prefix = slice_tableau(reversed_arch, r - s.stop, r, inverses)
        images.append(xz_state_image(
            arch.n, *inv_prefix.conjugate(z_sink).xz_row()))
        # and the slice routes its chosen string onto that Z
        assert tabs[j].conjugate(s.chosen) == z_sink
    if mode == "unitary":
        assert cert.directions == tuple(directions)
    else:
        assert cert.state_images == tuple(images)
    verdict = verify_certificate(cert, arch, check_rank=False)
    assert verdict.distinct_directions == len(cert.slices)


# Certificates of staircase n = 2..6 with T in {1, 3, 9}, brickwork(4, 8) and
# the witness-certify brickwork architectures (n, T) = (4, 8) and (8, 3), both
# modes, one JSON document per line ("TooManySlices" where T exceeds the
# mode's direction budget).  The digest pins every chosen string, routing
# circuit, direction and phase: change it only with the construction itself.
GOLDEN_ARCHS = (
    [staircase(n, t) for n in range(2, 7) for t in (1, 3, 9)]
    + [brickwork(4, 8), build_family("brickwork", 4, 8),
       build_family("brickwork", 8, 3)])
GOLDEN_CERTIFICATES_SHA256 = (
    "d8e59b621ff0613bb6029bc43eaf29484952b1cd20f06a216ffddde68d77420a")


def test_witness_certificates_match_golden_digest():
    digest = hashlib.sha256()
    for arch in GOLDEN_ARCHS:
        for mode in ("unitary", "state"):
            try:
                text = witness_point(arch, mode).to_json()
            except TooManySlices:
                text = "TooManySlices"
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_CERTIFICATES_SHA256


def _sliced(n, blocks):
    """Architecture whose marked slices are ``blocks``, in order."""
    gates = [gate for block in blocks for gate in block]
    return from_gate_sequence(n, gates, itertools.accumulate(map(len, blocks)))


def _causal_blocks(rng, n, count):
    """``count`` random causal gate blocks on n qubits, on any wire pairs."""
    blocks = []
    while len(blocks) < count:
        block = [tuple(int(q) + 1 for q in rng.choice(n, size=2, replace=False))
                 for _ in range(int(rng.integers(n - 1, 3 * n)))]
        if is_causal_slice(from_gate_sequence(n, block), 0, len(block)):
            blocks.append(block)
    return blocks


def _mixed_shape_archs():
    # slices of differing gates, shapes recurring apart from each other
    up = [(q, q + 1) for q in range(1, 5)]
    down = [(q + 1, q) for q in range(4, 0, -1)]  # sink 1
    archs = [_sliced(5, [up, down, up, up, down, up]),
             _sliced(5, [down, up] * 5),
             _sliced(4, [brickwork(4, 1).gates, up[:3], brickwork(4, 1).gates])]
    rng = np.random.default_rng(20261019)
    for _ in range(12):
        n = int(rng.integers(3, 6))
        pool = _causal_blocks(rng, n, int(rng.integers(2, 4)))
        picks = rng.integers(len(pool), size=int(rng.integers(3, 8)))
        archs.append(_sliced(n, [pool[int(i)] for i in picks]))
    return archs


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_witness_point_matches_the_per_slice_reference(mode):
    # sharing a tree and the routings between slices of one shape builds
    # the certificate that building them slice by slice builds
    archs = GOLDEN_ARCHS + _mixed_shape_archs() + [
        build_family(family, n, t) for family, n, t in (
            ("staircase", 9, 2), ("staircase", 12, 24), ("staircase", 16, 48),
            ("brickwork", 10, 4), ("brickwork", 16, 4), ("staircase", 10, 40),
            ("brickwork", 12, 6), ("staircase", 5, 20))]
    compared = 0
    for arch in archs:
        try:
            text = witness_point(arch, mode).to_json()
        except TooManySlices:
            continue
        assert text == per_slice_witness_point(arch, mode).to_json(), arch
        compared += 1
    assert compared > len(archs) // 2


@pytest.mark.parametrize("arch", [
    pytest.param(staircase(16, 48), id="staircase-16-48"),
    pytest.param(_mixed_shape_archs()[0], id="mixed-5-6")])
@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_each_shape_builds_one_tree_and_one_routing_per_string(
        arch, mode, monkeypatch):
    # a work count: build_path_tree runs once per distinct slice shape, and
    # routing_clifford_2q runs for each distinct (shape, chosen string)
    # only, making the calls one routing of that pair makes
    trees, calls = [], []
    build, routing = witness.build_path_tree, witness.routing_clifford_2q

    def counted_tree(built, start, stop):
        trees.append(built.gates[start:stop])
        return build(built, start, stop)

    def counted_routing(p2, target=2):
        calls.append((p2, target))
        return routing(p2, target)

    monkeypatch.setattr(witness, "build_path_tree", counted_tree)
    monkeypatch.setattr(witness, "routing_clifford_2q", counted_routing)
    cert = witness.witness_point(arch, mode)
    shapes = {arch.gates[s.start:s.stop] for s in cert.slices}
    assert sorted(trees) == sorted(shapes)
    made, calls[:] = calls[:], []
    first = {}  # each (shape, string) at its first slice
    for s in cert.slices:
        first.setdefault((arch.gates[s.start:s.stop], s.chosen), s)
    assert len(first) < len(cert.slices)
    for s in first.values():
        route_pauli_through_slice(build(arch, s.start, s.stop), s.chosen)
    assert made == calls


def test_certificate_json_writes_ops_of_nonempty_circuits_only(monkeypatch):
    # a witness leaves most gates empty; their op lists are fresh lists,
    # written without a to_json_ops call
    cert = witness_point(build_family("brickwork", 8, 3), "state")
    calls = []
    to_ops = CliffordCircuit.to_json_ops

    def counted(circuit):
        calls.append(circuit)
        return to_ops(circuit)

    monkeypatch.setattr(CliffordCircuit, "to_json_ops", counted)
    gates = cert.to_json_dict()["gates"]
    busy = [c for c in cert.gate_circuits if c.gates]
    assert calls == busy and len(busy) < len(gates)
    assert gates == [to_ops(c) for c in cert.gate_circuits]
    empty = [ops for ops in gates if not ops]
    assert len({id(ops) for ops in empty}) == len(empty) > 1
    assert cert.to_json_dict()["gates"][0] is not gates[0]


def test_witness_q_selection_is_lexicographically_minimal():
    arch = staircase(2, 3)
    cert = witness_point(arch, "unitary")
    # first slice: nothing used yet, smallest nontrivial string is IX
    assert cert.slices[0].chosen == next(nontrivial_strings(2))


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_direction_scan_matches_string_scan(mode):
    # the packed, incremental candidate scan picks the string that scanning
    # nontrivial_strings and conjugating each one by the prefix picks
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        sweep = _DirectionSweep(staircase(n, 1), mode)
        for _ in range(int(rng.integers(0, 8))):
            wires = tuple(int(q) + 1 for q in rng.choice(n, size=2, replace=False))
            circuit = routing_clifford_2q(_random_nontrivial(rng, 2),
                                          target=int(rng.integers(1, 3)))
            sweep.inv_prefix.prepend_circuit(circuit, wires)

        def reference_key(p):
            if mode == "unitary":
                return p.x_bits, p.z_bits
            bits, kappa = xz_state_image(p.n, *p.xz_row())
            return bits, kappa % 2

        taken = set()
        # state keys (bits, kappa mod 2) number 2^(n+1); leave one free
        room = 4 ** n // 2 if mode == "unitary" else 2 ** (n + 1) - 1
        for _ in range(int(rng.integers(0, room))):
            image = sweep.inv_prefix.conjugate(_random_nontrivial(rng, n))
            sweep.keys.add(sweep.key(*image.xz_row()))
            taken.add(reference_key(image))
        expected = next(q for q in nontrivial_strings(n)
                        if reference_key(sweep.inv_prefix.conjugate(q)) not in taken)
        assert sweep.first_new() == expected


@pytest.mark.parametrize("cap", [1, 5, 1 << 12])
@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_capped_scan_picks_the_string_a_fresh_scan_picks(mode, cap, monkeypatch):
    # a sweep keeps at most _SCAN_PREFIX steps of its scans and generates
    # the rest on each scan; taking each chosen string's key in turn, every
    # scan picks what a fresh lex_flips scan picks, until none is left
    monkeypatch.setattr(witness, "_SCAN_PREFIX", cap)
    rng = np.random.default_rng(7)
    n = 3 if mode == "unitary" else 4
    sweep = _DirectionSweep(staircase(n, 1), mode)
    for _ in range(6):
        wires = tuple(int(q) + 1 for q in rng.choice(n, size=2, replace=False))
        sweep.inv_prefix.prepend_circuit(routing_clifford_2q(
            _random_nontrivial(rng, 2), target=int(rng.integers(1, 3))), wires)
    free = 4 ** n - 1 if mode == "unitary" else 2 ** (n + 1) - 1
    for _ in range(free):
        chosen = sweep.first_new()
        assert chosen == reference_first_new(sweep)
        assert len(sweep.steps) <= cap
        sweep.keys.add(sweep.key(*sweep.inv_prefix.conjugate(chosen).xz_row()))
    with pytest.raises(AssertionError, match="every nontrivial direction"):
        sweep.first_new()


@pytest.mark.parametrize("mode", ["unitary", "state"])
def test_wide_witness_round_trip(mode):
    # rows of 80 bits: build, then verify with the exact rank check
    arch = staircase(40, 6)
    cert = witness_point(arch, mode)
    verdict = verify_certificate(cert, arch, check_rank=True)
    assert verdict.slice_count == verdict.distinct_directions == 6
    assert verdict.witness_rank >= 6
    again = WitnessCertificate.from_json(cert.to_json())
    assert verify_certificate(again, arch, check_rank=True) == verdict
