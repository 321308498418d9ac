"""Dense contraction of gate assignments and Jacobian-rank estimation.

The contraction map sends a list of two-qubit gates to the n-qubit unitary
obtained by slotting them into an architecture.  Perturbing gate j along a
two-qubit Pauli generator S_k moves the contracted unitary along the
direction K_{j,k} = Suffix_j S_k Suffix_j^dagger, with Suffix_j the product
of the gates after j.  The tangent frame collects the Pauli-basis expansion
of every K_{j,k} (or, in state mode, the real/imaginary parts of
i K_{j,k} |psi>); its numerical rank at independent Haar-random points is the
accessible dimension of the architecture, because the rank is constant off a
measure-zero set.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .architecture import Architecture, is_causal_slice
from .clifford import CliffordCircuit
from .dense import apply_gate_left, apply_gate_right
from .errors import (
    CountMismatch,
    NoInternalWire,
    SizeLimit,
    ValidationError,
)
from .pauli import PauliString, TWO_QUBIT_GENERATOR_MATS

DEFAULT_N_MAX = 8
DEFAULT_TOLERANCES = (1e-6, 1e-10)

_PAULI_STACK = np.stack([
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
])
_GENERATOR_STACK = np.stack(TWO_QUBIT_GENERATOR_MATS)  # (15, 4, 4)


def subseed(seed: int, *key: int) -> int:
    """Deterministic 64-bit child seed for (seed, key...)."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def haar_u4(rng: int | np.random.Generator) -> np.ndarray:
    """Haar-random U(4) sample: QR of a complex Ginibre matrix with the
    R-diagonal phases folded into Q."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    z = (gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def haar_su4(rng: int | np.random.Generator) -> np.ndarray:
    """Haar-random SU(4) sample (U(4) sample with the determinant phased out)."""
    u = haar_u4(rng)
    return u / np.linalg.det(u) ** 0.25


def _check_size(arch: Architecture, n_max: int) -> None:
    if arch.n > n_max:
        raise SizeLimit(
            f"n={arch.n} exceeds the dense-simulation limit n_max={n_max}")
    if n_max > DEFAULT_N_MAX and arch.n > DEFAULT_N_MAX:
        rows = 4 ** arch.n
        cols = 15 * arch.gate_count
        est = rows * max(cols, 1) * 8 / 1e9
        print(f"archdim: n={arch.n} frame may need ~{est:.1f} GB",
              file=sys.stderr)


@dataclass(frozen=True, eq=False)
class GateAssignment:
    """Ordered 4x4 special unitaries filling an architecture's gate slots."""

    matrices: np.ndarray  # (R, 4, 4) complex
    provenance: str = "explicit"
    seed: int | None = None

    def __post_init__(self) -> None:
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1:] != (4, 4):
            raise ValidationError(f"expected (R, 4, 4) array, got {mats.shape}")
        object.__setattr__(self, "matrices", mats)
        eye = np.eye(4)
        for i, u in enumerate(mats):
            if np.abs(u.conj().T @ u - eye).max() > 1e-10:
                raise ValidationError(f"gate {i} is not unitary within 1e-10")
            if abs(np.linalg.det(u) - 1.0) > 1e-10:
                raise ValidationError(f"gate {i} is not special unitary")

    def __len__(self) -> int:
        return self.matrices.shape[0]

    @classmethod
    def haar(cls, arch: Architecture, seed: int) -> GateAssignment:
        rng = np.random.default_rng(seed)
        mats = np.stack([haar_su4(rng) for _ in range(arch.gate_count)]) \
            if arch.gate_count else np.zeros((0, 4, 4), dtype=complex)
        return cls(mats, provenance="haar", seed=seed)

    @classmethod
    def from_circuits(cls, circuits: Sequence[CliffordCircuit]) -> GateAssignment:
        mats = []
        for c in circuits:
            if c.n != 2:
                raise ValidationError("vertex circuits must act on 2 qubits")
            u = c.to_unitary()
            mats.append(u / np.linalg.det(u) ** 0.25)
        stacked = np.stack(mats) if mats else np.zeros((0, 4, 4), dtype=complex)
        return cls(stacked, provenance="clifford-witness")

    @classmethod
    def explicit(cls, matrices: Sequence[np.ndarray],
                 normalize: bool = True) -> GateAssignment:
        mats = []
        for u in matrices:
            u = np.asarray(u, dtype=complex)
            if normalize:
                u = u / np.linalg.det(u) ** 0.25
            mats.append(u)
        stacked = np.stack(mats) if mats else np.zeros((0, 4, 4), dtype=complex)
        return cls(stacked, provenance="explicit")


def _require_match(arch: Architecture, gates: GateAssignment) -> None:
    if len(gates) != arch.gate_count:
        raise CountMismatch(
            f"{len(gates)} gates supplied for {arch.gate_count} slots")


def contract(arch: Architecture, gates: GateAssignment,
             n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """The 2^n x 2^n unitary obtained by applying the gates in order."""
    _check_size(arch, n_max)
    _require_match(arch, gates)
    mat = np.eye(2 ** arch.n, dtype=complex)
    for (a, b), u in zip(arch.gates, gates.matrices):
        mat = apply_gate_left(mat, u, (a, b), arch.n)
    return mat


def contract_state(arch: Architecture, gates: GateAssignment,
                   n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """The contracted circuit applied to |0...0>."""
    _check_size(arch, n_max)
    _require_match(arch, gates)
    psi = np.zeros(2 ** arch.n, dtype=complex)
    psi[0] = 1.0
    for (a, b), u in zip(arch.gates, gates.matrices):
        psi = apply_gate_left(psi, u, (a, b), arch.n)
    return psi


def pauli_coefficients(op: np.ndarray, n: int) -> np.ndarray:
    """Real coefficients of a Hermitian operator over the 4^n Pauli strings,
    ordered lexicographically by label with qubit 1 as the leading digit.

    A stack of operators, shape (B, 2^n, 2^n), gives a (B, 4^n) array whose
    rows equal, bit for bit, the expansions of the operators one at a time.
    """
    batch = op.shape[:-2]
    lead = len(batch)
    t = op.reshape(batch + (2,) * (2 * n))
    for q in range(n - 1, -1, -1):
        m = n - 1 - q  # qubits already consumed
        row_axis = m + lead + q
        col_axis = n + lead + q
        t = np.tensordot(_PAULI_STACK, t, axes=([2, 1], [row_axis, col_axis]))
    # t is (4,) * n + batch: one Pauli axis per qubit, then the batch
    t = np.moveaxis(t.reshape((4 ** n,) + batch), 0, -1)
    return t.real / 2 ** n


def perturbation_operator(arch: Architecture, gates: GateAssignment,
                          gate_index: int, generator: int | PauliString,
                          n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """K_{j,k}: conjugation of generator k by the gates after gate j.

    ``gate_index`` is 0-based; ``generator`` is an index into the 15
    nontrivial two-qubit strings (label order) or such a string itself.
    """
    _check_size(arch, n_max)
    _require_match(arch, gates)
    if not 0 <= gate_index < arch.gate_count:
        raise ValidationError(f"gate index {gate_index} out of range")
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


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Real matrix of perturbation-direction coordinates, 15 columns per gate."""

    matrix: np.ndarray
    mode: str
    n: int
    gate_count: int

    def column_block(self, gate_index: int) -> np.ndarray:
        """The 15 columns belonging to one gate (0-based index)."""
        if not 0 <= gate_index < self.gate_count:
            raise ValidationError(f"gate index {gate_index} out of range")
        return self.matrix[:, 15 * gate_index: 15 * (gate_index + 1)]


def _cone_index(cone: np.ndarray, n: int, base: int) -> np.ndarray:
    """Flat indices of the basis elements (base 2: computational states,
    base 4: Pauli strings) that are trivial outside ``cone``, in
    lexicographic order over the cone's qubits (1-based, ascending)."""
    idx = np.zeros(1, dtype=np.intp)
    for q in cone:
        idx = (idx[:, None] + np.arange(base) * base ** (n - q)).ravel()
    return idx


def tangent_frame(arch: Architecture, gates: GateAssignment,
                  mode: str = "unitary",
                  n_max: int = DEFAULT_N_MAX) -> TangentFrame:
    """All 15R perturbation directions, computed in one suffix sweep.

    Unitary mode stores the Pauli-basis expansion of each K_{j,k}
    (4^n real rows); state mode stores Re and Im of i K_{j,k} |psi>
    (2 * 2^n real rows).  Each gate's 15 generators are applied as one
    batch.

    In unitary mode K_{j,k} = I_out (x) K' is the identity outside gate j's
    forward light cone C_j: the qubits that gates j, j+1, ... connect to
    gate j's wires (row a of ``reach_matrix(arch, j, R)`` for wires (a, b)).
    The sweep therefore forms only K', from the 2^|C_j| suffix rows whose
    out-of-cone bits are 0, and expands it over the |C_j| cone qubits; the
    rows of block j with a non-identity letter outside C_j are exactly 0.
    """
    if mode not in ("unitary", "state"):
        raise ValidationError(f"mode must be 'unitary' or 'state', got {mode!r}")
    _check_size(arch, n_max)
    _require_match(arch, gates)
    n = arch.n
    dim = 2 ** n
    r = arch.gate_count
    rows = 4 ** n if mode == "unitary" else 2 * dim
    cols = np.zeros((rows, 15 * r))

    states = None
    if mode == "state":
        states = [np.zeros(dim, dtype=complex)]
        states[0][0] = 1.0
        for (a, b), u in zip(arch.gates, gates.matrices):
            states.append(apply_gate_left(states[-1], u, (a, b), n))

    # reach[u - 1]: the qubits that qubit u reaches through gates j, j+1, ...
    reach = np.eye(n, dtype=bool)
    suffix = np.eye(dim, dtype=complex)
    for j in range(r - 1, -1, -1):
        wires = arch.gates[j]
        block = slice(15 * j, 15 * (j + 1))
        if mode == "unitary":
            a, b = wires
            reach[[a - 1, b - 1]] = reach[a - 1] | reach[b - 1]
            cone = np.flatnonzero(reach[a - 1]) + 1
            sub = suffix[_cone_index(cone, n, 2)]
            ks = apply_gate_right(sub, _GENERATOR_STACK, wires, n) @ sub.conj().T
            cols[_cone_index(cone, n, 4), block] = \
                pauli_coefficients(ks, cone.size).T
        else:
            psi_back = states[j + 1]  # prefix including gate j
            batch = apply_gate_left(psi_back, _GENERATOR_STACK, wires, n)
            v = 1j * (suffix @ batch.T)
            cols[:dim, block] = v.real
            cols[dim:, block] = v.imag
        suffix = apply_gate_right(suffix, gates.matrices[j], wires, n)
    return TangentFrame(cols, mode, n, r)


# -- numerical rank ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RankEstimate:
    """Rank decision at a loose/tight tolerance pair.

    The estimate is conclusive only when both thresholds count the same
    number of singular values above tol * sigma_max.
    """

    singular_values: np.ndarray
    tolerances: tuple[float, float]
    loose_rank: int
    tight_rank: int

    @property
    def conclusive(self) -> bool:
        return self.loose_rank == self.tight_rank

    @property
    def rank(self) -> int | None:
        return self.loose_rank if self.conclusive else None

    def gap_description(self) -> str:
        sv = self.singular_values
        if self.conclusive:
            return "conclusive"
        lo, hi = sorted((self.loose_rank, self.tight_rank))
        contested = ", ".join(f"{x:.3e}" for x in sv[lo:hi])
        return (f"ranks {self.loose_rank}/{self.tight_rank} disagree; "
                f"contested singular values: {contested}")


def numerical_rank(frame: TangentFrame | np.ndarray,
                   tol_pair: tuple[float, float] = DEFAULT_TOLERANCES,
                   ) -> RankEstimate:
    """Singular-value rank under two relative thresholds.

    An empty or all-zero matrix has rank 0 by convention.
    """
    mat = frame.matrix if isinstance(frame, TangentFrame) else np.asarray(frame)
    loose, tight = tol_pair
    if loose < tight:
        raise ValidationError(f"tolerances must be (loose, tight), got {tol_pair}")
    if mat.size == 0:
        return RankEstimate(np.zeros(0), tol_pair, 0, 0)
    sv = np.linalg.svd(mat, compute_uv=False)
    smax = sv[0]
    if smax == 0.0:
        return RankEstimate(sv, tol_pair, 0, 0)
    return RankEstimate(
        sv, tol_pair,
        int((sv > loose * smax).sum()),
        int((sv > tight * smax).sum()),
    )


def dimension_bounds(arch: Architecture, mode: str) -> tuple[int, int, int]:
    """(lower, upper, cap) for the accessible dimension.

    The lower bound is the number of causal slices among the marked ones;
    the cap is 4^n - 1 in unitary mode and the sphere dimension 2 * 2^n - 1
    in state mode.
    """
    lower = sum(
        1 for start, stop in arch.slice_ranges()
        if is_causal_slice(arch, start, stop) is not None)
    cap = 4 ** arch.n - 1 if mode == "unitary" else 2 * 2 ** arch.n - 1
    r = arch.gate_count
    upper = min(15 * r, 9 * r + 3 * len(arch.touched_qubits()), cap) if r else 0
    return lower, upper, cap


@dataclass(frozen=True, eq=False)
class RankReport:
    """Per-sample ranks plus the consensus accessible dimension and verdicts."""

    n: int
    gate_count: int
    mode: str
    samples: int
    seed: int
    tolerances: tuple[float, float]
    estimates: tuple[RankEstimate, ...]
    consensus: int | None
    inconclusive: bool
    inconclusive_reason: str | None
    lower_bound: int
    upper_bound: int
    cap: int

    @property
    def lower_ok(self) -> bool | None:
        if self.consensus is None:
            return None
        return self.consensus >= self.lower_bound

    @property
    def upper_ok(self) -> bool | None:
        if self.consensus is None:
            return None
        return self.consensus <= self.upper_bound

    @property
    def bounds_ok(self) -> bool | None:
        if self.consensus is None:
            return None
        return bool(self.lower_ok and self.upper_ok)

    def sample_ranks(self) -> tuple[tuple[int, int], ...]:
        return tuple((e.loose_rank, e.tight_rank) for e in self.estimates)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "gates": self.gate_count,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": list(self.tolerances),
            "per_sample": [
                {
                    "loose_rank": e.loose_rank,
                    "tight_rank": e.tight_rank,
                    "sigma_max": float(e.singular_values[0])
                    if e.singular_values.size else 0.0,
                    "status": e.gap_description(),
                }
                for e in self.estimates
            ],
            "consensus": self.consensus,
            "inconclusive": self.inconclusive,
            "inconclusive_reason": self.inconclusive_reason,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "cap": self.cap,
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
        }

    def spectra_csv(self) -> str:
        lines = ["sample,index,singular_value"]
        for i, e in enumerate(self.estimates):
            for idx, val in enumerate(e.singular_values):
                lines.append(f"{i},{idx},{val!r}")
        return "\n".join(lines) + "\n"


def accessible_dimension(arch: Architecture, mode: str = "unitary",
                         samples: int = 5, seed: int = 0,
                         tolerances: tuple[float, float] = DEFAULT_TOLERANCES,
                         n_max: int = DEFAULT_N_MAX) -> RankReport:
    """Consensus Jacobian rank over independent Haar-random gate assignments.

    All samples must agree at both tolerances; any disagreement is surfaced
    as an inconclusive report, never averaged away.  Per-sample seeds derive
    from ``seed`` by counter.
    """
    if samples < 3:
        raise ValidationError(f"need at least 3 samples, got {samples}")
    _check_size(arch, n_max)

    def one(i: int) -> RankEstimate:
        gates = GateAssignment.haar(arch, subseed(seed, i))
        return numerical_rank(tangent_frame(arch, gates, mode, n_max), tolerances)

    estimates = tuple(one(i) for i in range(samples))

    reason = None
    for i, e in enumerate(estimates):
        if not e.conclusive:
            reason = f"sample {i}: {e.gap_description()}"
            break
    if reason is None:
        ranks = {e.rank for e in estimates}
        if len(ranks) > 1:
            reason = f"samples disagree: {sorted(r for r in ranks)}"
    consensus = estimates[0].rank if reason is None else None
    lower, upper, cap = dimension_bounds(arch, mode)
    return RankReport(
        n=arch.n, gate_count=arch.gate_count, mode=mode, samples=samples,
        seed=seed, tolerances=tolerances, estimates=estimates,
        consensus=consensus, inconclusive=reason is not None,
        inconclusive_reason=reason, lower_bound=lower, upper_bound=upper,
        cap=cap,
    )


# -- gauge redundancy ----------------------------------------------------------


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
                           tolerance: float = 1e-8,
                           n_max: int = DEFAULT_N_MAX) -> GaugeRedundancyReport:
    """Certify the 3-parameter redundancy of every internally contracted wire.

    For each qubit shared by consecutive gates (j1, j2), the three
    single-qubit Pauli directions inserted after j1 commute past the gates
    between j1 and j2, hence must lie in the span of gate j2's fifteen
    perturbation directions.  The least-squares residual of that projection
    is reported per wire.
    """
    wires = internal_wires(arch)
    if not wires:
        raise NoInternalWire("architecture has no internally contracted wire")
    _check_size(arch, n_max)
    _require_match(arch, gates)
    n = arch.n
    frame = tangent_frame(arch, gates, "unitary", n_max)

    # Suffix products after each gate position, built once right-to-left.
    suffixes: list[np.ndarray | None] = [None] * arch.gate_count
    acc = np.eye(2 ** n, dtype=complex)
    for j in range(arch.gate_count - 1, -1, -1):
        suffixes[j] = acc
        acc = apply_gate_right(acc, gates.matrices[j], arch.gates[j], n)

    singles = np.stack([PauliString.single(1, letter, 1).to_matrix()
                        for letter in "XYZ"])
    results = []
    for j1, j2, q in wires:
        block = frame.column_block(j2)
        suffix = suffixes[j1]
        k_ops = apply_gate_right(suffix, singles, (q,), n) @ suffix.conj().T
        targets = pauli_coefficients(k_ops, n).T  # one column per letter
        sol, *_ = np.linalg.lstsq(block, targets, rcond=None)
        residual = np.linalg.norm(block @ sol - targets, axis=0)
        scale = np.linalg.norm(targets, axis=0)
        worst = (residual / np.where(scale > 0, scale, 1.0)).max()
        results.append(WireRedundancy(j1, j2, q, float(worst)))
    return GaugeRedundancyReport(tuple(results), tolerance)
