"""Dense and by-hand reference implementations that only the tests call.

Each one recomputes, the slow and direct way, a quantity the library builds
another way: the per-column perturbation operator behind ``tangent_frame``,
the gauge redundancy that its dropped columns rely on, a slice's tableau
composed gate by gate, a path-tree walk and a qubit's forward reach.  None
has a size guard; the tests keep their inputs small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from archdim import CliffordTableau, GateAssignment, PauliString
from archdim.architecture import Architecture
from archdim.clifford import CliffordCircuit
from archdim.contraction import pauli_coefficients
from archdim.dense import apply_gate_left, apply_gate_right
from archdim.pauli import TWO_QUBIT_GENERATOR_MATS
from archdim.witness import PathTree

_GENERATOR_STACK = np.stack(TWO_QUBIT_GENERATOR_MATS)  # (15, 4, 4)


def explicit(matrices: Sequence[np.ndarray],
             normalize: bool = True) -> GateAssignment:
    """A gate assignment from explicit 4x4 matrices; with ``normalize`` each
    is divided by a fourth root of its determinant first."""
    mats = []
    for u in matrices:
        u = np.asarray(u, dtype=complex)
        if normalize:
            u = u / np.linalg.det(u) ** 0.25
        mats.append(u)
    stacked = np.stack(mats) if mats else np.zeros((0, 4, 4), dtype=complex)
    return GateAssignment(stacked)


def perturbation_operator(arch: Architecture, gates: GateAssignment,
                          gate_index: int, generator: int | PauliString,
                          ) -> np.ndarray:
    """K_{j,k}: conjugation of generator k by the gates after gate j.

    ``gate_index`` is 0-based; ``generator`` is an index into the 15
    nontrivial two-qubit strings (label order) or such a string itself.
    """
    if isinstance(generator, PauliString):
        s_mat = generator.to_matrix()
    else:
        s_mat = TWO_QUBIT_GENERATOR_MATS[generator]
    n = arch.n
    suffix = np.eye(2 ** n, dtype=complex)
    for (a, b), u in list(zip(arch.gates, gates.matrices))[gate_index + 1:]:
        suffix = apply_gate_left(suffix, u, (a, b), n)
    wires = arch.gates[gate_index]
    return apply_gate_right(suffix, s_mat, wires, n) @ suffix.conj().T


@dataclass(frozen=True)
class WireRedundancy:
    earlier_gate: int
    later_gate: int
    qubit: int
    max_residual: float


@dataclass(frozen=True)
class GaugeRedundancyReport:
    wires: tuple[WireRedundancy, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(w.max_residual <= self.tolerance for w in self.wires)


def internal_wires(arch: Architecture) -> list[tuple[int, int, int]]:
    """(earlier_gate, later_gate, qubit) triples for consecutive shared wires."""
    out = []
    last_on: dict[int, int] = {}
    for idx, (a, b) in enumerate(arch.gates):
        for q in (a, b):
            if q in last_on:
                out.append((last_on[q], idx, q))
            last_on[q] = idx
    return out


def gauge_redundancy_check(arch: Architecture, gates: GateAssignment,
                           tolerance: float = 1e-8) -> GaugeRedundancyReport:
    """Certify the 3-parameter redundancy of every internally contracted wire.

    For each qubit shared by consecutive gates (j1, j2), the three
    single-qubit Pauli directions inserted after j1 commute past the gates
    between j1 and j2, hence must lie in the span of gate j2's fifteen
    perturbation directions.  The least-squares residual of that projection
    is reported per wire.  Both sides are built here from dense suffix
    products, independently of ``tangent_frame``, whose gauge-fixed columns
    rely on exactly this identity.
    """
    n = arch.n
    singles = np.stack([PauliString.single(1, letter, 1).to_matrix()
                        for letter in "XYZ"])

    def directions(suffix, ops, wires):
        # Pauli expansion of suffix @ op @ suffix^dagger, one column per op
        k_ops = apply_gate_right(suffix, ops, wires, n) @ suffix.conj().T
        return pauli_coefficients(k_ops, n).T

    # One right-to-left sweep.  pending[q] = (j2, suffix after gate j2) for
    # the next gate j2 on qubit q: the only suffix a wire on q still needs
    # once the sweep reaches its earlier gate.
    results: dict[tuple[int, int, int], WireRedundancy] = {}
    pending: dict[int, tuple[int, np.ndarray]] = {}
    suffix = np.eye(2 ** n, dtype=complex)
    for j1 in range(arch.gate_count - 1, -1, -1):
        for q in arch.gates[j1]:
            if q in pending:
                j2, later = pending[q]
                block = directions(later, _GENERATOR_STACK, arch.gates[j2])
                targets = directions(suffix, singles, (q,))
                sol, *_ = np.linalg.lstsq(block, targets, rcond=None)
                residual = np.linalg.norm(block @ sol - targets, axis=0)
                scale = np.linalg.norm(targets, axis=0)
                worst = (residual / np.where(scale > 0, scale, 1.0)).max()
                results[j1, j2, q] = WireRedundancy(j1, j2, q, float(worst))
            pending[q] = (j1, suffix)
        suffix = apply_gate_right(suffix, gates.matrices[j1], arch.gates[j1], n)
    return GaugeRedundancyReport(
        tuple(results[w] for w in internal_wires(arch)), tolerance)


def slice_tableau(arch: Architecture, start: int, stop: int,
                  circuits: dict[int, CliffordCircuit] | Sequence[CliffordCircuit],
                  ) -> CliffordTableau:
    """Tableau of gates ``start:stop``, post-composed one circuit at a time."""
    tab = CliffordTableau.identity(arch.n)
    for idx in range(start, stop):
        tab.apply_circuit(circuits[idx], wires=arch.gates[idx])
    return tab


def path(tree: PathTree, qubit: int) -> list[tuple[int, int, int]]:
    """Hops (gate_index, from_qubit, to_qubit) from a qubit to the sink."""
    out = []
    q = qubit
    while q != tree.sink:
        idx, nxt = tree.next_hop[q]
        out.append((idx, q, nxt))
        q = nxt
    return out


def forward_reach(arch: Architecture, start: int, stop: int, u: int) -> set[int]:
    """The qubits a Pauli factor starting on qubit u can spread to through
    gates ``start:stop``, gate by gate."""
    reached = {u}
    for a, b in arch.gates[start:stop]:
        if a in reached or b in reached:
            reached |= {a, b}
    return reached
