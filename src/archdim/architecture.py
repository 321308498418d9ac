"""Circuit architectures: ordered two-qubit gate slots on an n-qubit register.

An architecture fixes where gates sit, not what they are.  The induced DAG is
implicit in the gate order (a gate depends on the most recent earlier gate on
each of its wires), so acyclicity holds by construction.  Optional slice
boundaries partition the gate list into contiguous slices; a slice is causal
when some sink qubit is reachable from every qubit through gates of the slice
alone, which is the structural property the witness construction needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidBoundary,
    InvalidQubit,
    OddQubitCount,
    ValidationError,
    json_int,
    json_typed,
)


@dataclass(frozen=True)
class Architecture:
    """Immutable arrangement of two-qubit gate slots.

    Gates are (qubit_a, qubit_b) pairs with 1-based, distinct entries.
    ``slice_boundaries`` holds strictly increasing cumulative gate counts and,
    when present, must end at the total gate count.
    """

    n: int
    gates: tuple[tuple[int, int], ...]
    slice_boundaries: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidQubit(f"need at least one qubit, got n={self.n}")
        for i, (a, b) in enumerate(self.gates):
            if a == b:
                raise InvalidQubit(f"gate {i} pairs qubit {a} with itself")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise InvalidQubit(f"gate {i} = ({a}, {b}) outside [1, {self.n}]")
        if self.slice_boundaries is not None:
            prev = 0
            for bnd in self.slice_boundaries:
                if bnd <= prev:
                    raise InvalidBoundary(
                        f"boundaries must be strictly increasing, got "
                        f"{self.slice_boundaries}")
                prev = bnd
            if prev != len(self.gates):
                raise InvalidBoundary(
                    f"last boundary {prev} must equal gate count "
                    f"{len(self.gates)}")

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    @property
    def slice_count(self) -> int:
        return len(self.slice_boundaries) if self.slice_boundaries else 0

    def slice_ranges(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) gate-index ranges of the marked slices."""
        if not self.slice_boundaries:
            return ()
        starts = (0,) + self.slice_boundaries[:-1]
        return tuple(zip(starts, self.slice_boundaries))

    def touched_qubits(self) -> frozenset[int]:
        return frozenset(q for gate in self.gates for q in gate)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        d: dict = {"n": self.n, "gates": [list(g) for g in self.gates]}
        if self.slice_boundaries is not None:
            d["boundaries"] = list(self.slice_boundaries)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: object) -> Architecture:
        """Architecture from parsed JSON: an object whose ``n`` is an
        integer, whose ``gates`` is a list of integer pairs and whose
        optional ``boundaries`` is a list of integers.  Integers must be
        JSON integers (``json_int``); any other shape, a missing ``n`` or
        ``gates`` among them, raises ValidationError."""
        json_typed(d, dict, "an architecture")
        gates = json_typed(d.get("gates"), list, "gates")
        boundaries = d.get("boundaries")
        for i, gate in enumerate(gates):
            if not isinstance(gate, list) or len(gate) != 2:
                raise ValidationError(
                    f"gate {i} must be a pair of wires, got {gate!r}")
        if boundaries is not None:
            json_typed(boundaries, list, "boundaries")
        return cls(
            json_int(d.get("n"), "n"),
            tuple((json_int(a, "gate wire"), json_int(b, "gate wire"))
                  for a, b in gates),
            tuple(json_int(x, "boundary") for x in boundaries)
            if boundaries is not None else None,
        )

    @classmethod
    def from_json(cls, text: str) -> Architecture:
        return cls.from_json_dict(json.loads(text))


def from_gate_sequence(n: int, pairs: Sequence[tuple[int, int]],
                       boundaries: Sequence[int] | None = None) -> Architecture:
    """Validated architecture from an explicit gate list."""
    return Architecture(
        n,
        tuple((int(a), int(b)) for a, b in pairs),
        tuple(int(x) for x in boundaries) if boundaries is not None else None,
    )


def staircase(n: int, t_slices: int) -> Architecture:
    """``t_slices`` repetitions of the stepwise string (1,2),(2,3),...,(n-1,n).

    Each repetition is a minimal causal slice of n-1 gates with sink n, and
    slice boundaries are set accordingly.
    """
    if n < 2:
        raise InvalidQubit(f"staircase needs n >= 2, got {n}")
    if t_slices < 1:
        raise ValidationError(f"need at least one slice, got {t_slices}")
    step = [(j, j + 1) for j in range(1, n)]
    gates = tuple(step * t_slices)
    boundaries = tuple((n - 1) * (k + 1) for k in range(t_slices))
    return Architecture(n, gates, boundaries)


def brickwork(n: int, rounds: int) -> Architecture:
    """Alternating even/odd layers on a 1D chain without periodic boundaries.

    One round is the layer (1,2),(3,4),... followed by (2,3),(4,5),...;
    n rounds make one causal slice of n(n-1) gates.  Boundaries are marked
    every n rounds; trailing rounds short of a full slice are merged into
    the final slice (extra gates never break causality).  With fewer than
    n rounds no boundaries are set.
    """
    if n < 2 or n % 2 != 0:
        raise OddQubitCount(f"brickwork needs an even n >= 2, got {n}")
    if rounds < 1:
        raise ValidationError(f"need at least one round, got {rounds}")
    layer_a = [(j, j + 1) for j in range(1, n, 2)]
    layer_b = [(j, j + 1) for j in range(2, n - 1, 2)]
    gates: list[tuple[int, int]] = []
    for _ in range(rounds):
        gates.extend(layer_a)
        gates.extend(layer_b)
    per_round = len(layer_a) + len(layer_b)
    full_slices = rounds // n
    if full_slices == 0:
        boundaries = None
    else:
        boundaries = [n * per_round * (k + 1) for k in range(full_slices)]
        boundaries[-1] = len(gates)
    return Architecture(n, tuple(gates),
                        tuple(boundaries) if boundaries else None)


def _adjacent_positions(n: int, count: int, seed: int) -> np.ndarray:
    """The j of ``count`` gates (j, j+1), drawn uniformly from 1..n-1 per
    ``seed``: the one position stream of ``random_adjacent`` and the Monte
    Carlo."""
    return np.random.default_rng(seed).integers(1, n, size=count)


def random_adjacent(n: int, r_gates: int, seed: int) -> Architecture:
    """``r_gates`` gates at positions (j, j+1), j drawn uniformly per seed."""
    if n < 2:
        raise InvalidQubit(f"need n >= 2, got {n}")
    if r_gates < 0:
        raise ValidationError(f"gate count must be nonnegative, got {r_gates}")
    gates = tuple((int(j), int(j) + 1)
                  for j in _adjacent_positions(n, r_gates, seed))
    return Architecture(n, gates, None)


def build_family(family: str, n: int, t_slices: int, rounds: int | None = None,
                 r_gates: int | None = None, seed: int = 0) -> Architecture:
    """The architecture a family name describes: ``staircase(n, t_slices)``,
    ``brickwork(n, rounds)`` with n * t_slices rounds by default (t_slices
    slices), or ``random_adjacent(n, r_gates, seed)``."""
    if family == "staircase":
        return staircase(n, t_slices)
    if family == "brickwork":
        return brickwork(n, n * t_slices if rounds is None else rounds)
    if family == "random":
        if r_gates is None:
            raise ValidationError("the random family needs a gate count (--r)")
        return random_adjacent(n, r_gates, seed)
    raise ValidationError(f"unknown family {family!r}")


# -- causal-slice analysis ----------------------------------------------------


def _reach_masks(arch: Architecture, start: int, stop: int) -> list[int]:
    """Per qubit v, the bitmask of the qubits u (bit u - 1) with a directed
    path to v through gates ``start:stop``: a gate on (a, b) gives both
    wires the union of their masks."""
    if not (0 <= start <= stop <= arch.gate_count):
        raise ValidationError(
            f"slice [{start}, {stop}) outside [0, {arch.gate_count})")
    into = [1 << v for v in range(arch.n)]
    for a, b in arch.gates[start:stop]:
        into[a - 1] = into[b - 1] = into[a - 1] | into[b - 1]
    return into


def is_causal_slice(arch: Architecture, start: int, stop: int) -> int | None:
    """Sink qubit of the slice, or None if the slice is not causal.

    A sink is a qubit reachable from every qubit via a directed path of
    slice gates.  Several sinks can coexist; the largest is returned, which
    for the staircase family is the last qubit of the chain.
    """
    into = _reach_masks(arch, start, stop)
    full = (1 << arch.n) - 1
    for v in range(arch.n, 0, -1):
        if into[v - 1] == full:
            return v
    return None


# -- staircase detection in adjacent-gate streams ------------------------------


@dataclass(frozen=True)
class StaircaseSliceReport:
    """Detection result for one block of an adjacent-gate stream."""

    start: int
    stop: int
    i_flags: tuple[bool, ...]
    causal: bool
    complete: bool


def staircase_block_flags(positions: np.ndarray, n: int) -> np.ndarray:
    """Flags of a stream of whole blocks of adjacent gates (j, j+1), given
    each gate's j: ``flags[k, j-1]`` is set when sub-block j (n(n-1) gates)
    of block k (n(n-1)^2 gates) holds (j, j+1).  A block with every flag set
    contains the ascending staircase in order, so it is causal."""
    body = positions.reshape(-1, n - 1, n * (n - 1))
    return (body == np.arange(1, n)[None, :, None]).any(axis=2)


def detect_staircase_slices(arch: Architecture) -> list[StaircaseSliceReport]:
    """``staircase_block_flags`` per block of an adjacent-gate stream.  A
    trailing partial block is reported but never flagged causal."""
    n, count = arch.n, arch.gate_count
    if n < 2:
        raise ValidationError(f"need n >= 2, got n={n}")
    for i, (a, b) in enumerate(arch.gates):
        if abs(a - b) != 1:
            raise ValidationError(
                f"gate {i} = ({a}, {b}) is not an adjacent pair")
    block = n * (n - 1) ** 2
    # zero padding completes the last block and matches no position
    positions = np.zeros(-(-count // block) * block, dtype=np.int64)
    positions[:count] = [min(gate) for gate in arch.gates]
    reports: list[StaircaseSliceReport] = []
    for k, row in enumerate(staircase_block_flags(positions, n)):
        stop = min((k + 1) * block, count)
        complete = stop - k * block == block
        reports.append(StaircaseSliceReport(
            k * block, stop, tuple(bool(x) for x in row),
            complete and bool(row.all()), complete))
    return reports
