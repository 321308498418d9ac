"""Input refusals, one table: each call raises its ValidationError class
with a message that names what it refuses, before it computes anything."""

import numpy as np
import pytest

from archdim import (
    CliffordCircuit,
    CliffordTableau,
    DimensionMismatch,
    GateAssignment,
    InvalidQubit,
    PauliString,
    ValidationError,
    brickwork,
    complexity_lower_bound,
    detect_staircase_slices,
    from_gate_sequence,
    growth_sweep,
    is_causal_slice,
    random_adjacent,
    randomized_architecture_experiment,
    randomized_bound_probability,
    routing_clifford_2q,
    saturation_threshold,
    staircase,
    staircase_slice_probability,
)
from archdim.contraction import peak_bytes
from archdim.dense import apply_gate_left

REFUSALS = {
    "architecture-n-0": (lambda: from_gate_sequence(0, []), InvalidQubit,
                         "need at least one qubit, got n=0"),
    "staircase-n-1": (lambda: staircase(1, 1), InvalidQubit,
                      "staircase needs n >= 2, got 1"),
    "staircase-t-0": (lambda: staircase(3, 0), ValidationError,
                      "need at least one slice, got 0"),
    "brickwork-rounds-0": (lambda: brickwork(4, 0), ValidationError,
                           "need at least one round, got 0"),
    "random-n-1": (lambda: random_adjacent(1, 3, 0), InvalidQubit,
                   "need n >= 2, got 1"),
    "random-r-negative": (lambda: random_adjacent(3, -1, 0), ValidationError,
                          "gate count must be nonnegative, got -1"),
    "causal-slice-past-the-end": (
        lambda: is_causal_slice(staircase(3, 1), 0, 3), ValidationError,
        r"slice \[0, 3\) outside \[0, 2\)"),
    "detect-n-1": (lambda: detect_staircase_slices(from_gate_sequence(1, [])),
                   ValidationError, "need n >= 2, got n=1"),
    "bound-l-0": (lambda: complexity_lower_bound(10, 0, 3), ValidationError,
                  "slice size must be positive, got 0"),
    "bound-r-negative": (lambda: complexity_lower_bound(-1, 2, 3),
                         ValidationError,
                         "gate count must be nonnegative, got -1"),
    "saturation-n-0": (lambda: saturation_threshold(0, "unitary"),
                       ValidationError, "need n >= 1, got 0"),
    "random-bound-n-1": (lambda: randomized_bound_probability(1, 0.5),
                         ValidationError, "need n >= 2, got 1"),
    "slice-probability-n-1": (lambda: staircase_slice_probability(1),
                              ValidationError, "need n >= 2, got 1"),
    "cnot-on-one-qubit": (lambda: CliffordCircuit(2, (("CNOT", (1, 1)),)),
                          InvalidQubit, "CNOT qubits must be distinct"),
    "conjugate-other-width": (
        lambda: CliffordTableau.identity(3).conjugate(
            PauliString.from_label("XZ")),
        DimensionMismatch, "tableau on 3 qubits, string on 2"),
    "routing-other-width": (
        lambda: routing_clifford_2q(PauliString.from_label("XZI"), 1),
        DimensionMismatch, "expected a 2-qubit string, got n=3"),
    "routing-target-3": (
        lambda: routing_clifford_2q(PauliString.from_label("XZ"), 3),
        InvalidQubit, "target must be 1 or 2, got 3"),
    "peak-bytes-no-sample": (
        lambda: peak_bytes(staircase(3, 1), "unitary", samples=0),
        ValidationError, "need at least 1 sample, got 0"),
    "empty-assignment": (
        lambda: GateAssignment([]), ValidationError,
        r"expected \(R, 4, 4\) or \(S, R, 4, 4\) array, got \(0,\)"),
    "dense-repeated-wire": (
        lambda: apply_gate_left(np.zeros(8), np.eye(4), (2, 2), 3),
        InvalidQubit, r"wires must be distinct: \(2, 2\)"),
    "dense-wire-off-the-register": (
        lambda: apply_gate_left(np.zeros(8), np.eye(4), (1, 4), 3),
        InvalidQubit, r"wire 4 outside \[1, 3\]"),
    "sweep-t-max-0": (lambda: growth_sweep(3, "staircase", 0), ValidationError,
                      "t_max must be positive, got 0"),
    "monte-carlo-no-trial": (
        lambda: randomized_architecture_experiment(3, 0, 1), ValidationError,
        "trials must be positive, got 0"),
    "pauli-n-0": (lambda: PauliString(0, 0, 0), DimensionMismatch,
                  "need at least one qubit, got n=0"),
    "pauli-bitmask": (lambda: PauliString(2, 4, 0), InvalidQubit,
                      "bitmask exceeds 2 qubits"),
    "pauli-single-letter": (lambda: PauliString.single(2, "Q", 1),
                            ValidationError, "unknown Pauli letter 'Q'"),
    "pauli-single-qubit": (lambda: PauliString.single(2, "Z", 3),
                           InvalidQubit, r"qubit 3 outside \[1, 2\]"),
    "pauli-letter-qubit": (lambda: PauliString.from_label("XZ").letter(0),
                           InvalidQubit, r"qubit 0 outside \[1, 2\]"),
}


@pytest.mark.parametrize("call, error, match", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_a_refused_input_raises_its_validation_error(call, error, match):
    assert issubclass(error, ValidationError)
    with pytest.raises(error, match=match):
        call()
