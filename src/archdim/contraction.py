"""Dense contraction of gate assignments and Jacobian-rank estimation.

The contraction map sends a list of two-qubit gates to the n-qubit unitary
obtained by slotting them into an architecture.  Perturbing gate j along a
two-qubit Pauli generator S_k moves the contracted unitary along the
direction K_{j,k} = Suffix_j S_k Suffix_j^dagger, with Suffix_j the product
of the gates after j.  The tangent frame collects the Pauli-basis expansion
of every K_{j,k} (or, in state mode, the real/imaginary parts of
i K_{j,k} |psi>); its numerical rank at independent Haar-random points is the
accessible dimension of the architecture, because the rank is constant off a
measure-zero set.  A dense call whose estimated peak memory (``peak_bytes``)
exceeds ``MEMORY_BUDGET`` raises SizeLimit before it allocates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .architecture import Architecture, is_causal_slice
from .bounds import gauge_fixed_count, saturation_threshold
from .clifford import CliffordCircuit
from .dense import apply_gate_left, apply_gate_right
from .errors import (
    CountMismatch,
    NoInternalWire,
    SizeLimit,
    ValidationError,
)
from .pauli import PauliString, TWO_QUBIT_GENERATOR_MATS, TWO_QUBIT_GENERATORS

DEFAULT_TOLERANCES = (1e-6, 1e-10)
MEMORY_BUDGET = 2 * 2 ** 30

_GENERATOR_STACK = np.stack(TWO_QUBIT_GENERATOR_MATS)  # (15, 4, 4)

# _KEPT[later_a, later_b]: the generators a gate on wires (a, b) keeps in the
# gauge-fixed frame.  A single-qubit generator on a wire that a later gate
# also acts on is dropped (see ``tangent_frame``): XI, YI, ZI for wire a,
# IX, IY, IZ for wire b.
_KEPT = {
    (later_a, later_b): np.array([
        k for k, p in enumerate(TWO_QUBIT_GENERATORS)
        if not (later_a and p.letter(2) == "I")
        and not (later_b and p.letter(1) == "I")])
    for later_a in (False, True) for later_b in (False, True)
}


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


def frame_shape(arch: Architecture, mode: str) -> tuple[int, int]:
    """(rows, columns) of the gauge-fixed tangent frame: 4^n Pauli rows in
    unitary mode, 2 * 2^n real rows in state mode, 9R + 3 * touched qubits
    columns in both."""
    rows = 4 ** arch.n if mode == "unitary" else 2 * 2 ** arch.n
    return rows, gauge_fixed_count(arch)


def peak_bytes(arch: Architecture, job: str) -> int:
    """Upper estimate of the peak bytes of a dense call on ``arch``; ``job``
    is a frame mode or "contract", "contract_state", "perturbation", "gauge".
    A gate applied to an array holds two more of its size (tensordot's
    reordered input and output), and 15 directions peak at four stacks of
    15.  A frame also counts its matrix twice (the SVD's copy).  The gauge
    check holds one pending suffix per qubit (at most one per gate), the
    running suffix and 10 operators kept from the last wire.  The Pauli
    expansions of the unitary frame and the gauge check count the cached
    plans of every size up to n (``_pauli_plan``: 32 * 4^c bytes each, under
    43 * 4^n in all) and the temporaries of building the largest."""
    op = 16 * 4 ** arch.n  # one dense complex 2^n x 2^n operator
    plans = 80 * 4 ** arch.n
    suffixes = min(arch.n, arch.gate_count) + 1
    held = {"contract": 3 * op, "contract_state": 3 * 16 * 2 ** arch.n,
            "perturbation": 4 * op, "gauge": (suffixes + 70) * op + plans}
    if job in held:
        return held[job]
    rows, cols = frame_shape(arch, job)
    batch = 60 * op + plans if job == "unitary" else 60 * 16 * 2 ** arch.n
    return 2 * 8 * rows * cols + 4 * op + batch


def _check_size(arch: Architecture, job: str) -> None:
    est = peak_bytes(arch, job)
    if est > MEMORY_BUDGET:
        raise SizeLimit(f"{job} on n={arch.n}, R={arch.gate_count} needs an "
                        f"estimated {est / 2 ** 30:.2f} GiB, over the "
                        f"{MEMORY_BUDGET / 2 ** 30:.0f} GiB memory budget")


@dataclass(frozen=True, eq=False)
class GateAssignment:
    """Ordered 4x4 special unitaries filling an architecture's gate slots."""

    matrices: np.ndarray  # (R, 4, 4) complex

    def __post_init__(self) -> None:
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1:] != (4, 4):
            raise ValidationError(f"expected (R, 4, 4) array, got {mats.shape}")
        object.__setattr__(self, "matrices", mats)
        gram = np.swapaxes(mats, 1, 2).conj() @ mats
        # written as ~(x <= tol) so that a NaN entry fails the check
        with np.errstate(invalid="ignore"):
            not_unitary = ~(np.abs(gram - np.eye(4)).max(axis=(1, 2)) <= 1e-10)
            not_special = ~(np.abs(np.linalg.det(mats) - 1.0) <= 1e-10)
        bad = np.flatnonzero(not_unitary | not_special)
        if bad.size:
            i = int(bad[0])
            if not_unitary[i]:
                raise ValidationError(f"gate {i} is not unitary within 1e-10")
            raise ValidationError(f"gate {i} is not special unitary")

    def __len__(self) -> int:
        return self.matrices.shape[0]

    @classmethod
    def haar(cls, arch: Architecture, seed: int) -> GateAssignment:
        rng = np.random.default_rng(seed)
        mats = np.stack([haar_su4(rng) for _ in range(arch.gate_count)]) \
            if arch.gate_count else np.zeros((0, 4, 4), dtype=complex)
        return cls(mats)

    @classmethod
    def from_circuits(cls, circuits: Sequence[CliffordCircuit]) -> GateAssignment:
        """Each distinct circuit's SU(4) matrix, formed once, per gate slot."""
        if not circuits:
            return cls(np.zeros((0, 4, 4), dtype=complex))
        distinct: dict[CliffordCircuit, int] = {}
        which = [distinct.setdefault(c, len(distinct)) for c in circuits]
        mats = []
        for c in distinct:
            if c.n != 2:
                raise ValidationError("vertex circuits must act on 2 qubits")
            u = c.to_unitary()
            mats.append(u / np.linalg.det(u) ** 0.25)
        return cls(np.stack(mats)[which])

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
        return cls(stacked)


def _require_match(arch: Architecture, gates: GateAssignment) -> None:
    if len(gates) != arch.gate_count:
        raise CountMismatch(
            f"{len(gates)} gates supplied for {arch.gate_count} slots")


def contract(arch: Architecture, gates: GateAssignment) -> np.ndarray:
    """The 2^n x 2^n unitary obtained by applying the gates in order."""
    _check_size(arch, "contract")
    _require_match(arch, gates)
    mat = np.eye(2 ** arch.n, dtype=complex)
    for (a, b), u in zip(arch.gates, gates.matrices):
        mat = apply_gate_left(mat, u, (a, b), arch.n)
    return mat


def contract_state(arch: Architecture, gates: GateAssignment) -> np.ndarray:
    """The contracted circuit applied to |0...0>."""
    _check_size(arch, "contract_state")
    _require_match(arch, gates)
    psi = np.zeros(2 ** arch.n, dtype=complex)
    psi[0] = 1.0
    for (a, b), u in zip(arch.gates, gates.matrices):
        psi = apply_gate_left(psi, u, (a, b), arch.n)
    return psi


# 16 sizes cover every cone of a frame or gauge check within MEMORY_BUDGET
@functools.lru_cache(maxsize=16)
def _pauli_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(gather, hadamard, order, scale) of ``pauli_coefficients`` on n qubits.

    ``gather[x * 2^n + r]`` is the flat index of entry (r, r XOR x);
    ``hadamard`` is [[1, 1], [1, -1]]^{(x) n}, whose entry (r, z) is
    (-1)^{z . r}; label L, with bits x and z, reads the transform at
    ``order[L] = x * 2^n + z`` and multiplies it by ``scale[L]``, which is
    +-1 / 2^(n+1): + when its Y count is 0 or 3 mod 4.  Together the four
    arrays take 32 * 4^n bytes.
    """
    dim = 2 ** n
    r = np.arange(dim)
    gather = (r * dim + (r ^ r[:, None])).ravel()
    hadamard = np.ones((1, 1))
    x = z = ys = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        hadamard = np.kron(hadamard, [[1.0, 1.0], [1.0, -1.0]])
        # append one qubit's letter I, X, Y, Z as the lowest digit
        x = (2 * x[:, None] + [0, 1, 1, 0]).ravel()
        z = (2 * z[:, None] + [0, 0, 1, 1]).ravel()
        ys = (ys[:, None] + [0, 0, 1, 0]).ravel()
    scale = np.where((ys + 1) % 4 < 2, 1.0, -1.0) / (2 * dim)
    plan = (gather, hadamard, x * dim + z, scale)
    for arr in plan:  # every caller shares the cached arrays
        arr.flags.writeable = False
    return plan


def pauli_coefficients(op: np.ndarray, n: int) -> np.ndarray:
    """Real coefficients tr(P H) / 2^n of the Hermitian part
    H = (K + K^dagger) / 2 of an operator K over the 4^n Pauli strings P,
    ordered lexicographically by label with qubit 1 as the leading digit.
    For Hermitian K these are its Pauli coefficients; for any K they are
    Re tr(P K) / 2^n.

    The transform runs in real arithmetic.  H -> R = Re H + Im H maps
    Hermitian matrices isometrically onto real ones (a symmetric matrix is
    orthogonal to an antisymmetric one).  Writing P = i^y X^x Z^z,
    tr(P H) = i^y sum_r (-1)^{z . r} H[r, r XOR x]; the sum is real for even
    y and imaginary for odd y, so the same sum over R gives it up to the
    sign that ``_pauli_plan`` records.  That is one gather,
    A[x, r] = R[r, r XOR x], one real matmul with the Walsh-Hadamard matrix
    over the whole stack, and one gather into label order.

    A stack of operators, shape (B, 2^n, 2^n), gives a (B, 4^n) array whose
    rows equal, bit for bit, the expansions of the operators one at a time.
    """
    gather, hadamard, order, scale = _pauli_plan(n)
    dim = 2 ** n
    k = op.reshape((-1, dim, dim))
    twice = k.real + k.imag  # 2R = Re K + Im K + (Re K - Im K)^T
    twice += np.swapaxes(k.real - k.imag, 1, 2)
    walsh = np.take(twice.reshape(-1, dim * dim), gather, axis=1)
    walsh = (walsh.reshape(-1, dim) @ hadamard).reshape(-1, dim * dim)
    out = np.take(walsh, order, axis=1)
    out *= scale
    return out.reshape(op.shape[:-2] + (4 ** n,))


def perturbation_operator(arch: Architecture, gates: GateAssignment,
                          gate_index: int, generator: int | PauliString,
                          ) -> np.ndarray:
    """K_{j,k}: conjugation of generator k by the gates after gate j.

    ``gate_index`` is 0-based; ``generator`` is an index into the 15
    nontrivial two-qubit strings (label order) or such a string itself.
    """
    _check_size(arch, "perturbation")
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
    """Real matrix of gauge-fixed perturbation-direction coordinates.

    ``columns[c]`` is the (gate, generator) pair of column c: a 0-based gate
    index and an index into the 15 two-qubit generators.  Columns are
    ordered by gate, then generator.
    """

    matrix: np.ndarray
    mode: str
    n: int
    gate_count: int
    columns: np.ndarray  # (C, 2) int

    def column_block(self, gate_index: int) -> np.ndarray:
        """The kept columns of one gate (0-based index)."""
        if not 0 <= gate_index < self.gate_count:
            raise ValidationError(f"gate index {gate_index} out of range")
        start, stop = np.searchsorted(self.columns[:, 0],
                                      [gate_index, gate_index + 1])
        return self.matrix[:, start:stop]


# A frame's partial cones (those short of the whole register, which uses
# slices) repeat across its Haar samples and across calls on the same
# architecture.  One entry takes at most 8 * 4^(n-1) bytes, a quarter of one
# frame column; the benchmark's dim-wide ops fill 30 entries in all.
@functools.lru_cache(maxsize=64)
def _cone_index(cone: tuple[int, ...], n: int, base: int) -> np.ndarray:
    """Flat indices of the basis elements (base 2: computational states,
    base 4: Pauli strings) that are trivial outside ``cone``, in
    lexicographic order over the cone's qubits (1-based, ascending).
    Cached and read-only: every caller shares the array."""
    idx = np.zeros(1, dtype=np.intp)
    for q in cone:
        idx = (idx[:, None] + np.arange(base) * base ** (n - q)).ravel()
    idx.flags.writeable = False
    return idx


def tangent_frame(arch: Architecture, gates: GateAssignment,
                  mode: str = "unitary") -> TangentFrame:
    """The gauge-fixed perturbation directions, computed in one suffix sweep.

    Unitary mode stores the Pauli-basis expansion of each K_{j,k}
    (4^n real rows); state mode stores Re and Im of i K_{j,k} |psi>
    (2 * 2^n real rows).  Each gate's kept generators are applied as one
    batch.

    Gate j on wires (a, b) drops XI, YI, ZI when a later gate acts on a, and
    IX, IY, IZ when a later gate acts on b, leaving 9R + 3 * touched qubits
    columns.  The rank is unchanged at every gate assignment, not only a
    generic one: if j2 is the next gate on wire q, the gates between j and
    j2 commute with a Pauli P on q, so
    K_{j,P} = Suffix_{j2} (u_{j2} P u_{j2}^dagger) Suffix_{j2}^dagger, which
    lies in the real span of gate j2's 15 directions (and, by induction from
    the last gate back, in the span of the kept ones).

    In unitary mode K_{j,k} = I_out (x) K' is the identity outside gate j's
    forward light cone C_j: the qubits that gates j, j+1, ... connect to
    gate j's wires (row a of ``reach_matrix(arch, j, R)`` for wires (a, b)).
    The sweep therefore forms only K', from the 2^|C_j| suffix rows whose
    out-of-cone bits are 0, and expands it over the |C_j| cone qubits; the
    rows of block j with a non-identity letter outside C_j are exactly 0.
    """
    if mode not in ("unitary", "state"):
        raise ValidationError(f"mode must be 'unitary' or 'state', got {mode!r}")
    _check_size(arch, mode)
    _require_match(arch, gates)
    n = arch.n
    dim = 2 ** n
    r = arch.gate_count
    rows, width = frame_shape(arch, mode)
    # one row per column, so that each gate's block is one contiguous write
    cols = np.zeros((width, rows))
    record = np.zeros((width, 2), dtype=np.intp)

    states = None
    if mode == "state":
        states = [np.zeros(dim, dtype=complex)]
        states[0][0] = 1.0
        for (a, b), u in zip(arch.gates, gates.matrices):
            states.append(apply_gate_left(states[-1], u, (a, b), n))

    # reach[u - 1]: the qubits that qubit u reaches through gates j, j+1, ...
    reach = np.eye(n, dtype=bool)
    later = np.zeros(n, dtype=bool)  # qubits acted on by gates after j
    suffix = np.eye(dim, dtype=complex)
    stop = width  # columns are filled right to left
    for j in range(r - 1, -1, -1):
        wires = arch.gates[j]
        a, b = wires
        kept = _KEPT[later[a - 1], later[b - 1]]
        later[[a - 1, b - 1]] = True
        block = slice(stop - kept.size, stop)
        stop = block.start
        record[block, 0] = j
        record[block, 1] = kept
        generators = _GENERATOR_STACK[kept]
        if mode == "unitary":
            reach[[a - 1, b - 1]] = reach[a - 1] | reach[b - 1]
            cone = tuple((np.flatnonzero(reach[a - 1]) + 1).tolist())
            whole = len(cone) == n  # then plain slices do the gather and scatter
            sub = suffix if whole else suffix[_cone_index(cone, n, 2)]
            ks = apply_gate_right(sub, generators, wires, n) @ sub.conj().T
            coeffs = pauli_coefficients(ks, len(cone))
            if whole:
                cols[block] = coeffs
            else:
                cols[block, _cone_index(cone, n, 4)] = coeffs
        else:
            psi_back = states[j + 1]  # prefix including gate j
            batch = apply_gate_left(psi_back, generators, wires, n)
            v = 1j * (suffix @ batch.T)
            cols[block, :dim] = v.real.T
            cols[block, dim:] = v.imag.T
        suffix = apply_gate_right(suffix, gates.matrices[j], wires, n)
    return TangentFrame(cols.T, mode, n, r, record)


# -- numerical rank ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RankEstimate:
    """Rank decision at a loose/tight tolerance pair.

    The estimate is conclusive only when both thresholds count the same
    number of singular values above tol * sigma_max.  ``route`` names how
    the singular values were found: ``"gram"`` (certified from the Gram
    spectrum) or ``"svd"``; see ``numerical_rank``.
    """

    singular_values: np.ndarray
    tolerances: tuple[float, float]
    loose_rank: int
    tight_rank: int
    route: str = "svd"

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


# A Gram certificate places every singular value at least this factor above
# the loose cutoff.
_GRAM_MARGIN = 100.0


def _certified_gram_spectrum(mat: np.ndarray, loose: float) -> np.ndarray | None:
    """Descending singular values of a tall real matrix whose full column
    rank its Gram spectrum certifies, or None when it cannot.

    For M with m rows and C < m columns, lam = eigvalsh(M^T M) lies within
    delta = (m + C) eps trace(G) of the exact Gram eigenvalues (Weyl): the
    product's rounding is at most gamma_m ||M||_F^2 in the 2-norm, with
    ||M||_F^2 = trace(G), and eigvalsh is backward stable.  When
    lam_min - delta > 0 and lam_min - delta >= (100 loose)^2 (lam_max + delta),
    every singular value is at least 100x above loose * sigma_max, so an SVD
    would count all C of them at both tolerances.
    """
    m, c = mat.shape
    if c >= m or mat.dtype != np.float64:
        return None
    gram = mat.T @ mat
    trace = np.trace(gram)
    delta = (m + c) * np.finfo(np.float64).eps * trace
    floor = (_GRAM_MARGIN * loose) ** 2
    # Cholesky-first exit: lam_max >= trace / C, so a certifiable spectrum
    # has lam_min above this shift; if G minus it is not positive definite,
    # the eigenvalues are not worth computing.
    shift = delta + floor * (trace / c + delta)
    try:
        np.linalg.cholesky(gram - shift * np.eye(c))
    except np.linalg.LinAlgError:
        return None
    lam = np.linalg.eigvalsh(gram)
    low, high = lam[0] - delta, lam[-1] + delta
    if not (low > 0.0 and low >= floor * high):
        return None
    return np.sqrt(lam[::-1])


def numerical_rank(frame: TangentFrame | np.ndarray,
                   tol_pair: tuple[float, float] = DEFAULT_TOLERANCES,
                   ) -> RankEstimate:
    """Singular-value rank under two relative thresholds.

    A tall real frame (fewer columns than rows) is first tried on the Gram
    route: the eigenvalues of M^T M, with a rounding bound, certify that all
    C singular values sit at least 100x above the loose cutoff, and then the
    SVD would return loose = tight = C as well.  The estimate holds
    sqrt(eigvalsh(M^T M)) as its singular values, with ``route="gram"``.
    Every other input takes a full SVD (``route="svd"``): wide frames,
    rank-deficient or near-cutoff spectra, and all-zero matrices.  Ranks
    never differ between the routes; gram-route singular values differ from
    LAPACK's SVD by rounding only (below 1e-12 sigma_max on the frames
    measured).

    An empty or all-zero matrix has rank 0 by convention.  A matrix holding
    NaN or inf raises ``LinAlgError``.  The tolerances must satisfy
    eps <= tight <= loose < 1.
    """
    mat = frame.matrix if isinstance(frame, TangentFrame) else np.asarray(frame)
    loose, tight = tol_pair
    if not np.finfo(float).eps <= tight <= loose < 1.0:
        raise ValidationError("tolerances must satisfy eps <= tight <= loose"
                              f" < 1, got (loose, tight) = {tol_pair}")
    if mat.size == 0:
        return RankEstimate(np.zeros(0), tol_pair, 0, 0)
    if not np.isfinite(mat).all():
        raise np.linalg.LinAlgError("frame holds a non-finite entry")
    sv = _certified_gram_spectrum(mat, loose)
    if sv is not None:
        return RankEstimate(sv, tol_pair, sv.size, sv.size, route="gram")
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
    cap = saturation_threshold(arch.n, mode)
    return lower, min(gauge_fixed_count(arch), cap), cap


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
                    "route": e.route,
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
                         ) -> RankReport:
    """Consensus Jacobian rank over independent Haar-random gate assignments.

    All samples must agree at both tolerances; any disagreement is surfaced
    as an inconclusive report, never averaged away.  Per-sample seeds derive
    from ``seed`` by counter.  A frame over ``MEMORY_BUDGET`` raises
    SizeLimit before the first sample is drawn.
    """
    if samples < 3:
        raise ValidationError(f"need at least 3 samples, got {samples}")
    _check_size(arch, mode)

    def one(i: int) -> RankEstimate:
        gates = GateAssignment.haar(arch, subseed(seed, i))
        return numerical_rank(tangent_frame(arch, gates, mode), tolerances)

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
    wires = internal_wires(arch)
    if not wires:
        raise NoInternalWire("architecture has no internally contracted wire")
    _check_size(arch, "gauge")
    _require_match(arch, gates)
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
    return GaugeRedundancyReport(tuple(results[w] for w in wires), tolerance)
