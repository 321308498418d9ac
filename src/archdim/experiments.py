"""Reproducible experiment harness: growth sweeps and the
randomized-architecture Monte Carlo.

All randomness derives from a caller-supplied master seed by counter, so a
given seed reproduces identical numbers.  Rows carry wall-clock milliseconds
for operator convenience; every other column is deterministic.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

from .architecture import (
    _adjacent_positions,
    build_family,
    staircase_block_flags,
)
from .bounds import randomized_bound_probability, staircase_slice_probability
from .contraction import (
    DEFAULT_TOLERANCES,
    MEMORY_BUDGET,
    accessible_dimension,
    check_budget,
    subseed,
    # not called here since the witness rank became exact; kept because
    # bench/tests/test_bench.py patches it in this namespace
    tangent_frame,  # noqa: F401
)
from .errors import ValidationError, VerdictError
from .witness import witness_point, witness_rank

# Two-sided 99% normal quantile for the binomial interval.
_Z_99 = 2.5758293035489004

# Peak bytes per drawn gate of the Monte Carlo: its int64 position and its
# bool comparison, with one more byte for the per-block flags (which reach
# one per gate at n = 2).
_MC_BYTES_PER_GATE = 10

CSV_HEADER = "n,family,T,R,L,dA,witness_rank,lower,upper,cap,samples,seed,ms"


@dataclass(frozen=True)
class SweepRow:
    n: int
    family: str
    t_slices: int
    r_gates: int
    l_gates: int
    accessible: int | None
    witness_rank: int
    lower: int
    upper: int
    cap: int
    samples: int
    seed: int
    ms: int

    def csv_line(self) -> str:
        d = "" if self.accessible is None else str(self.accessible)
        return (f"{self.n},{self.family},{self.t_slices},{self.r_gates},"
                f"{self.l_gates},{d},{self.witness_rank},{self.lower},"
                f"{self.upper},{self.cap},"
                f"{self.samples},{self.seed},{self.ms}")


def check_ramp(rows: list[SweepRow]) -> None:
    """Assert the ramp shape of one sweep.

    Every row's witness rank must reach its slice count.  On the conclusive
    rows the consensus dimension must lie within the row's bounds, be at
    least the witness rank (an exact rank at one point never exceeds the
    generic rank), never decrease, gain at least one per slice below the
    cap, stay at or above the slice count until the cap, and sit exactly at
    the cap from then on.
    """
    for row in rows:
        if row.witness_rank < row.t_slices:
            raise VerdictError(
                f"T={row.t_slices}: witness rank {row.witness_rank} below "
                f"slice count")
    conclusive = [r for r in rows if r.accessible is not None]
    prev: SweepRow | None = None
    for row in conclusive:
        d = row.accessible
        cap = row.cap
        if not row.lower <= d <= row.upper:
            raise VerdictError(
                f"T={row.t_slices}: dimension {d} outside its bounds "
                f"[{row.lower}, {row.upper}]")
        if row.witness_rank > d:
            raise VerdictError(
                f"T={row.t_slices}: witness rank {row.witness_rank} exceeds "
                f"dimension {d}")
        if row.t_slices <= cap and d < row.t_slices:
            raise VerdictError(
                f"T={row.t_slices}: dimension {d} below slice count")
        if row.t_slices >= cap and d != cap:
            raise VerdictError(
                f"T={row.t_slices}: dimension {d} should sit at cap {cap}")
        if prev is not None and prev.accessible is not None:
            if d < prev.accessible:
                raise VerdictError(
                    f"T={row.t_slices}: dimension decreased "
                    f"{prev.accessible} -> {d}")
            gap = row.t_slices - prev.t_slices
            if prev.accessible < cap and d < min(cap, prev.accessible + gap):
                raise VerdictError(
                    f"T={row.t_slices}: slope below one per slice "
                    f"({prev.accessible} -> {d})")
        prev = row


def growth_sweep(n: int, family: str, t_max: int, samples: int = 5,
                 seed: int = 0, mode: str = "unitary",
                 tolerances: tuple[float, float] = DEFAULT_TOLERANCES,
                 ) -> list[SweepRow]:
    """One row per slice count T = 1..t_max, ramp shape asserted.

    Inconclusive consensus ranks propagate as empty dimension cells; the
    sweep continues and the ramp check skips them.  The witness rank is
    exact (``witness_rank``), so its cell is never empty.  A frame over the
    memory budget raises SizeLimit, and a seed that is not a nonnegative
    integer ValidationError, before its first Haar sample.
    """
    if t_max < 1:
        raise ValidationError(f"t_max must be positive, got {t_max}")
    rows: list[SweepRow] = []
    for t in range(1, t_max + 1):
        arch = build_family(family, n, t)
        started = time.perf_counter()
        report = accessible_dimension(
            arch, mode, samples, subseed(seed, t), tolerances)
        cert = witness_point(arch, mode)
        wrank = witness_rank(arch, cert.gate_circuits, mode)
        ms = int(round((time.perf_counter() - started) * 1000))
        rows.append(SweepRow(
            n=n, family=family, t_slices=t, r_gates=arch.gate_count,
            l_gates=arch.gate_count // t, accessible=report.consensus,
            witness_rank=wrank, lower=report.lower_bound,
            upper=report.upper_bound, cap=report.cap, samples=samples,
            seed=seed, ms=ms))
    check_ramp(rows)
    return rows


def rows_to_csv(rows: list[SweepRow], header_comment: str | None = None) -> str:
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append(CSV_HEADER)
    lines.extend(r.csv_line() for r in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MonteCarloSummary:
    """Empirical causal fraction of random adjacent-gate blocks vs exact p."""

    n: int
    trials: int
    block_gates: int
    seed: int
    causal_blocks: int
    empirical: float
    exact: float
    interval: tuple[float, float]
    within_interval: bool
    alpha: float
    probability_bound: float
    complexity_threshold: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "block_gates": self.block_gates,
            "seed": self.seed,
            "causal_blocks": self.causal_blocks,
            "empirical": self.empirical,
            "exact": self.exact,
            "interval_99": list(self.interval),
            "within_interval": self.within_interval,
            "alpha": self.alpha,
            "probability_bound": self.probability_bound,
            "complexity_threshold": self.complexity_threshold,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def randomized_architecture_experiment(n: int, trials: int, seed: int,
                                       alpha: float = 0.5,
                                       ) -> MonteCarloSummary:
    """Sample ``trials`` blocks of n(n-1)^2 uniformly placed adjacent gates
    and compare the causal fraction against the exact product formula.

    The 99% interval is the normal approximation around the exact p; the
    summary also evaluates the implied complexity statement at ``alpha``.
    A draw whose estimated peak is over ``MEMORY_BUDGET`` raises SizeLimit
    before it allocates.
    """
    if trials < 1:
        raise ValidationError(f"trials must be positive, got {trials}")
    probability_bound = randomized_bound_probability(n, alpha)
    block = n * (n - 1) ** 2
    r_total = trials * block
    check_budget(_MC_BYTES_PER_GATE * r_total, MEMORY_BUDGET,
                 f"{trials} trials on n={n} ({r_total} gates) need")
    positions = _adjacent_positions(n, r_total, seed)
    hits = int(staircase_block_flags(positions, n).all(axis=1).sum())
    p_hat = hits / trials
    exact = staircase_slice_probability(n).value
    half = _Z_99 * math.sqrt(exact * (1.0 - exact) / trials)
    interval = (exact - half, exact + half)
    threshold = alpha * r_total / (9 * n * (n - 1) ** 2) - n / 3.0
    return MonteCarloSummary(
        n=n, trials=trials, block_gates=block, seed=seed, causal_blocks=hits,
        empirical=p_hat, exact=exact, interval=interval,
        within_interval=interval[0] <= p_hat <= interval[1], alpha=alpha,
        probability_bound=probability_bound,
        complexity_threshold=threshold)
