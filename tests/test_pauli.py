"""Pauli string algebra: phases, products, labels, packed rows."""

import itertools

import numpy as np
import pytest

from archdim import DimensionMismatch, PauliString
from archdim.pauli import TWO_QUBIT_GENERATORS, nontrivial_strings, xz_state_image


def test_x_times_z_is_minus_i_y():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    prod = x * z
    assert prod == PauliString(1, 1, 1, 3)
    assert prod.label() == "-iY"


def test_multiply_identity_is_neutral():
    p = PauliString.from_label("XYZI")
    ident = PauliString.identity(4)
    assert p * ident == p
    assert ident * p == p


def test_hermitian_squares_to_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        p = PauliString(n, int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 1 << n)),
                        int(rng.choice([0, 2])))
        sq = p * p
        assert sq.is_identity
        assert sq.phase_exp == 0


def test_multiply_requires_equal_width():
    with pytest.raises(DimensionMismatch):
        PauliString.from_label("X") * PauliString.from_label("XX")


def test_label_roundtrip_canonical():
    for text in ("XYZI", "-iXZ", "+iY", "-ZZZ", "IIII"):
        p = PauliString.from_label(text)
        assert PauliString.from_label(p.label()) == p
    # canonical printing drops the "+" prefix
    assert PauliString.from_label("+IZ").label() == "IZ"
    # Unicode minus accepted on parse
    assert PauliString.from_label("−iXZ") == PauliString.from_label("-iXZ")


def test_bad_labels_rejected():
    for bad in ("", "XQ", "i", "--XX", "X Y"):
        with pytest.raises(ValueError):
            PauliString.from_label(bad)


def test_label_phase_prefixes():
    base = PauliString.from_label("XY")
    assert PauliString(2, base.x_bits, base.z_bits, 0).label() == "XY"
    assert PauliString(2, base.x_bits, base.z_bits, 1).label() == "+iXY"
    assert PauliString(2, base.x_bits, base.z_bits, 2).label() == "-XY"
    assert PauliString(2, base.x_bits, base.z_bits, 3).label() == "-iXY"


def test_multiplication_matches_dense_matrices():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = PauliString(n, int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        q = PauliString(n, int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        dense = p.to_matrix() @ q.to_matrix()
        assert np.abs(dense - (p * q).to_matrix()).max() < 1e-12


def test_associativity_random():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        ps = [PauliString(n, int(rng.integers(0, 1 << n)),
                          int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
              for _ in range(3)]
        assert (ps[0] * ps[1]) * ps[2] == ps[0] * (ps[1] * ps[2])


def test_single_places_letter_at_qubit():
    p = PauliString.single(4, "Z", 3)
    assert p.label() == "IIZI"
    assert p.letter(3) == "Z"


def test_state_image():
    # X on qubit 1 of three flips the most significant bit
    def image(label):
        return xz_state_image(3, *PauliString.from_label(label).xz_row())
    assert image("XII") == (0b100, 0)
    assert image("YII") == (0b100, 1)
    assert image("ZZZ") == (0, 0)


def test_state_image_matches_dense_action_on_zero_state():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        p = PauliString(n, int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        bits, kappa = xz_state_image(n, *p.xz_row())
        expected = np.zeros(2 ** n, dtype=complex)
        expected[bits] = 1j ** kappa
        assert np.abs(p.to_matrix()[:, 0] - expected).max() < 1e-12


def test_nontrivial_strings_follow_label_order():
    # the packed odometer reproduces itertools' lexicographic order
    for n in range(1, 5):
        labels = ["".join(t) for t in itertools.product("IXYZ", repeat=n)]
        assert [p.label() for p in nontrivial_strings(n)] == labels[1:]


def test_nontrivial_strings_order_and_count():
    strings = list(nontrivial_strings(2))
    assert len(strings) == 15
    labels = [p.label() for p in strings]
    assert labels[0] == "IX"
    assert labels == sorted(labels)
    assert TWO_QUBIT_GENERATORS == tuple(strings)


def test_to_matrix_qubit_one_most_significant():
    zi = PauliString.from_label("ZI").to_matrix()
    assert np.allclose(zi, np.kron(np.diag([1, -1]), np.eye(2)))
