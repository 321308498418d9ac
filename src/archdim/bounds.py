"""Closed-form bound calculators.

Integer inputs are evaluated in exact rational arithmetic; the e^{-n} terms
feed inequalities with wide margins and stay in double precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .architecture import Architecture
from .errors import AlphaOutOfRange, ValidationError


@dataclass(frozen=True)
class LowerBoundResult:
    """Complexity lower bound T/9 - n/3 with clamping bookkeeping."""

    value: Fraction
    raw: Fraction
    clamped: bool
    floored: bool
    slices: int


def complexity_lower_bound(r_gates: int, l_gates: int, n: int) -> LowerBoundResult:
    """Exact rational R/(9L) - n/3, clamped below at zero.

    When R is not a multiple of L, the bound uses floor(R/L) full slices
    and the result is flagged as floored.
    """
    if l_gates < 1:
        raise ValidationError(f"slice size must be positive, got {l_gates}")
    if r_gates < 0:
        raise ValidationError(f"gate count must be nonnegative, got {r_gates}")
    t = r_gates // l_gates
    raw = Fraction(t, 9) - Fraction(n, 3)
    clamped = raw < 0
    return LowerBoundResult(
        value=max(raw, Fraction(0)),
        raw=raw,
        clamped=clamped,
        floored=r_gates % l_gates != 0,
        slices=t,
    )


def gauge_fixed_count(arch: Architecture) -> int:
    """9R + 3 * touched qubits: the perturbation directions left once every
    internally contracted wire sheds its 3-parameter single-qubit gauge.

    Each of the 2R gate wires carries 3 single-qubit generators, and all but
    the last gate on a qubit pass them to the next gate on that qubit, so
    15R - 3 (2R - touched) directions remain.  This is at most 15R, because
    at most 2R qubits are touched.
    """
    return _gauge_fixed(arch.gate_count, len(arch.touched_qubits()))


def _gauge_fixed(r_gates: int, touched: int) -> int:
    return 9 * r_gates + 3 * touched


def saturation_threshold(n: int, mode: str) -> int:
    """Slice count at which the accessible dimension saturates its cap."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if mode == "unitary":
        return 4 ** n - 1
    if mode == "state":
        return 2 ** (n + 1) - 1
    raise ValidationError(f"mode must be 'unitary' or 'state', got {mode!r}")


def randomized_bound_probability(n: int, alpha: float) -> float:
    """max(0, 1 - (n-1) e^{-n} / (1 - alpha)): the success probability of the
    complexity bound for uniformly placed adjacent gates."""
    if not 0.0 <= alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1), got {alpha}")
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    return max(0.0, 1.0 - (n - 1) * math.exp(-n) / (1.0 - alpha))


@dataclass(frozen=True)
class StaircaseProbability:
    """Probability that a random adjacent-gate block contains a staircase."""

    exact: Fraction
    lower: float

    @property
    def value(self) -> float:
        return float(self.exact)


def staircase_slice_probability(n: int) -> StaircaseProbability:
    """p = (1 - (1 - 1/(n-1))^{n(n-1)})^{n-1}, with the chained Bernoulli
    lower bound 1 - (n-1) e^{-n}, ``randomized_bound_probability`` at 0."""
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    miss = (Fraction(1) - Fraction(1, n - 1)) ** (n * (n - 1))
    exact = (Fraction(1) - miss) ** (n - 1)
    return StaircaseProbability(exact, randomized_bound_probability(n, 0.0))


@dataclass(frozen=True)
class BoundSheet:
    """All quantitative bounds for one (n, R, L) configuration."""

    n: int
    r_gates: int
    l_gates: int
    slices: int
    lower_bound_complexity: Fraction
    lower_clamped: bool
    lower_floored: bool
    dimension_upper: int
    unitary_cap: int
    state_cap: int

    @property
    def unitary_saturated(self) -> bool:
        return self.slices >= self.unitary_cap

    @property
    def state_saturated(self) -> bool:
        return self.slices >= self.state_cap

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "R": self.r_gates,
            "L": self.l_gates,
            "T": self.slices,
            "complexity_lower_bound": str(self.lower_bound_complexity),
            "complexity_lower_bound_float": float(self.lower_bound_complexity),
            "clamped": self.lower_clamped,
            "floored": self.lower_floored,
            "dimension_upper": self.dimension_upper,
            "unitary_cap": self.unitary_cap,
            "state_cap": self.state_cap,
            "unitary_saturated": self.unitary_saturated,
            "state_saturated": self.state_saturated,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def format_text(self) -> str:
        rows = [
            ("qubits n", str(self.n)),
            ("gates R", str(self.r_gates)),
            ("slice size L", str(self.l_gates)),
            ("slices T", str(self.slices)),
            ("complexity lower bound",
             f"{self.lower_bound_complexity} "
             f"({float(self.lower_bound_complexity):.6g})"
             + (" [clamped]" if self.lower_clamped else "")
             + (" [floored T]" if self.lower_floored else "")),
            ("dimension upper bound", str(self.dimension_upper)),
            ("unitary cap 4^n-1", str(self.unitary_cap)
             + (" [saturated]" if self.unitary_saturated else "")),
            ("state cap 2^(n+1)-1", str(self.state_cap)
             + (" [saturated]" if self.state_saturated else "")),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def make_bound_sheet(n: int, r_gates: int, l_gates: int) -> BoundSheet:
    """Bound sheet for R gates in slices of L; the dimension bound is
    ``gauge_fixed_count`` with min(n, 2R) qubits touched."""
    lower = complexity_lower_bound(r_gates, l_gates, n)
    return BoundSheet(
        n=n,
        r_gates=r_gates,
        l_gates=l_gates,
        slices=lower.slices,
        lower_bound_complexity=lower.value,
        lower_clamped=lower.clamped,
        lower_floored=lower.floored,
        dimension_upper=_gauge_fixed(r_gates, min(n, 2 * r_gates)),
        unitary_cap=saturation_threshold(n, "unitary"),
        state_cap=saturation_threshold(n, "state"),
    )
