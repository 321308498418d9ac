"""Exact arithmetic of the closed-form bound calculators."""

import math
from fractions import Fraction

import pytest

from archdim import (
    AlphaOutOfRange,
    ValidationError,
    complexity_lower_bound,
    from_gate_sequence,
    make_bound_sheet,
    randomized_bound_probability,
    saturation_threshold,
    staircase,
    staircase_slice_probability,
)
from archdim.contraction import dimension_bounds


@pytest.mark.parametrize("call,what", [
    (lambda: saturation_threshold(3.5, "unitary"), "n"),
    (lambda: randomized_bound_probability(3.5, 0.5), "n"),
    (lambda: complexity_lower_bound(10.5, 2, 3), "r_gates"),
    (lambda: complexity_lower_bound(10, 2.0, 3), "l_gates"),
    (lambda: complexity_lower_bound(10, 2, True), "n"),
    (lambda: make_bound_sheet(3.0, 10, 2), "n"),
    (lambda: staircase_slice_probability(3.0), "n")],
    ids=["threshold-n", "probability-n", "lower-r", "lower-l", "lower-bool-n",
         "sheet-n", "staircase-probability-n"])
def test_bound_formulas_refuse_non_integers_by_name(call, what):
    # 3.5 qubits gave a threshold of 127.0 and a probability of 0.849, True
    # counted as one qubit, and the others raised TypeError
    with pytest.raises(ValidationError, match=f"^{what} must be an integer"):
        call()


def test_lower_bound_spot_check():
    res = complexity_lower_bound(900, 10, 6)
    assert res.value == Fraction(8)
    assert not res.clamped and not res.floored


def test_lower_bound_brickwork_fraction():
    res = complexity_lower_bound(1080, 12, 4)
    assert res.value == Fraction(26, 3)


def test_lower_bound_clamps_at_zero():
    res = complexity_lower_bound(0, 1, 4)
    assert res.value == 0
    assert res.clamped
    assert res.raw == Fraction(-4, 3)


@pytest.mark.parametrize("n", [0, -3])
def test_lower_bound_refuses_fewer_than_one_qubit(n):
    # n = -3 gave 19/9 for 10 one-gate slices, inflated by qubits that
    # cannot exist, and n = 0 gave 10/9
    with pytest.raises(ValidationError, match=f"^need n >= 1, got {n}$"):
        complexity_lower_bound(10, 1, n)


def test_lower_bound_floors_partial_slices():
    res = complexity_lower_bound(905, 10, 6)
    assert res.floored
    assert res.slices == 90
    assert res.value == Fraction(90, 9) - Fraction(2)


def test_lower_bound_monotonicity():
    base = complexity_lower_bound(900, 10, 6).raw
    assert complexity_lower_bound(1800, 10, 6).raw > base
    assert complexity_lower_bound(900, 20, 6).raw < base
    assert complexity_lower_bound(900, 10, 8).raw < base


def test_dimension_upper_bound_examples():
    assert dimension_bounds(staircase(3, 1), "unitary")[1] == 27
    assert dimension_bounds(from_gate_sequence(2, [(1, 2)]), "unitary")[1] == 15
    assert dimension_bounds(from_gate_sequence(4, []), "unitary")[1] == 0


def test_dimension_upper_counts_touched_qubits_only():
    # two gates on qubits 1..3 of a 5-qubit register
    arch = from_gate_sequence(5, [(1, 2), (2, 3)])
    assert dimension_bounds(arch, "unitary")[1] == min(30, 18 + 9, 4 ** 5 - 1)


def test_saturation_thresholds():
    assert saturation_threshold(3, "unitary") == 63
    assert saturation_threshold(3, "state") == 15
    assert saturation_threshold(1, "unitary") == 3
    assert saturation_threshold(2, "unitary") == 15


def test_randomized_probability_spot_checks():
    assert abs(randomized_bound_probability(10, 0.5)
               - (1 - 18 * math.exp(-10))) < 1e-15
    assert abs(randomized_bound_probability(2, 0.0)
               - (1 - math.exp(-2))) < 1e-15


def test_randomized_probability_clamps_and_validates():
    assert randomized_bound_probability(5, 0.999999999) >= 0.0
    assert randomized_bound_probability(2, 0.9) == max(
        0.0, 1 - math.exp(-2) / 0.1)
    with pytest.raises(AlphaOutOfRange):
        randomized_bound_probability(5, 1.0)
    with pytest.raises(AlphaOutOfRange):
        randomized_bound_probability(5, -0.1)


def test_staircase_probability_exact_values():
    p5 = staircase_slice_probability(5)
    assert p5.exact == (1 - Fraction(3, 4) ** 20) ** 4
    assert abs(p5.value - 0.98738) < 5e-6
    assert staircase_slice_probability(2).exact == 1


def test_staircase_probability_respects_lower_bound():
    for n in range(2, 12):
        p = staircase_slice_probability(n)
        assert p.lower <= p.value <= 1.0


def test_bounds_equal_their_old_closed_forms():
    # the sheet's dimension bound is the gauge_fixed_count rule with
    # min(n, 2R) touched qubits, and the staircase lower bound is the
    # randomized bound at alpha = 0, bit for bit
    for n in range(1, 13):
        for r in range(41):
            upper = make_bound_sheet(n, r, 1).dimension_upper
            assert upper == (min(15 * r, 9 * r + 3 * n) if r else 0), (n, r)
        if n >= 2:
            lower = staircase_slice_probability(n).lower
            assert lower.hex() == (1.0 - (n - 1) * math.exp(-n)).hex(), n


def test_bound_sheet_cli_example():
    sheet = make_bound_sheet(3, 126, 2)
    assert sheet.lower_bound_complexity == Fraction(6)
    assert sheet.unitary_cap == 63
    assert sheet.unitary_saturated
    text = sheet.format_text()
    assert "63" in text and "6" in text
    d = sheet.to_json_dict()
    assert d["complexity_lower_bound"] == "6"


def test_bound_sheet_consistency_with_witness_machinery():
    # any architecture whose slices certify must fit under the upper bound
    for n, t in ((3, 2), (4, 3)):
        arch = staircase(n, t)
        assert dimension_bounds(arch, "unitary")[1] >= t
