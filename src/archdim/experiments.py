"""Reproducible experiment harness: growth sweeps and the
randomized-architecture Monte Carlo.

All randomness derives from a caller-supplied master seed by counter, so a
given seed reproduces identical numbers.  Rows carry wall-clock milliseconds
for operator convenience; every other column is deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

from .architecture import (
    _adjacent_positions,
    build_family,
    staircase_block_flags,
)
from .bounds import (_complexity_bound, randomized_bound_probability,
                     staircase_slice_probability)
from .contraction import (
    MEMORY_BUDGET,
    accessible_dimensions,
    check_budget,
    subseed,
    # not called here since the witness rank became exact; kept because
    # bench/tests/test_bench.py patches it in this namespace
    tangent_frame,  # noqa: F401
)
from .errors import ValidationError, VerdictError, check_int
from .rank import DEFAULT_TOLERANCES
from .witness import _DirectionSweep, witness_point

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
        """The row under ``CSV_HEADER``, whose columns are the fields in
        order; an inconclusive dimension is an empty cell."""
        return ",".join("" if v is None else str(v) for v in (
            self.n, self.family, self.t_slices, self.r_gates, self.l_gates,
            self.accessible, self.witness_rank, self.lower, self.upper,
            self.cap, self.samples, self.seed, self.ms))


def check_ramp(rows: list[SweepRow]) -> None:
    """Assert the ramp shape of one sweep.

    Every row's witness rank must reach its slice count.  On the conclusive
    rows the consensus dimension must lie within the row's bounds, be at
    least the witness rank (an exact rank at one point never exceeds the
    generic rank), never decrease, gain at least one per slice below the
    cap, and sit exactly at the cap from then on.  It then reaches the
    slice count as the witness rank does, with no check of its own.
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

    Only the last row, ``build_family(family, n, t_max)``, is built: in the
    staircase and brickwork families row T is its prefix that ends at its
    T-th slice boundary, R_T gates, with the first T slices.  Every row is
    read at those boundaries.

    The rows share their Haar draws (``accessible_dimensions`` with the
    boundaries as ``prefixes``): sample i draws the last row's gates once
    from seed ``subseed(subseed(seed, t_max), i)``, and row T reads the
    first R_T of them, bit for bit the draw ``haar`` makes for row T's own
    architecture from that seed.  So the last row keeps the Haar points a
    sweep drew for it when every row drew its own (row T from
    ``subseed(seed, T)``), and the shorter rows moved.  One frame per
    sample, over the union gauge (gate j keeps the generators that the
    shortest row holding it keeps), serves every row as a column block.

    The rows share one witness too: ``witness_point`` of the last row,
    built before the first draw, whose first R_T gate circuits are row T's
    own witness.  One pass pre-composes each of its gates once under the
    inverse prefix (``witness._DirectionSweep``) and reads row T's exact
    witness rank, ``witness_rank`` of those circuits, at R_T.

    The ``ms`` column counts each row's own stretch of the witness rank
    pass; the last row's also counts the shared witness build and the
    shared consensus run: the draws, the frames and every row's rank
    decisions.

    Inconclusive consensus ranks propagate as empty dimension cells; the
    sweep continues and the ramp check skips them.  The witness rank is
    exact, so its cell is never empty.  A ``t_max`` that is not a positive
    integer raises ValidationError before any row is built; a last row with
    more slices than its witness can take raises TooManySlices (in
    ``witness_point``), a union frame over the memory budget SizeLimit, and
    a family, mode, sample count or seed ``build_family`` or
    ``accessible_dimensions`` refuses, ValidationError, all before the
    first Haar sample.
    """
    if check_int(t_max, "t_max") < 1:
        raise ValidationError(f"t_max must be positive, got {t_max}")
    last = build_family(family, n, t_max)
    ends = last.slice_boundaries
    started = time.perf_counter()
    circuits = witness_point(last, mode).gate_circuits
    reports = accessible_dimensions(last, mode, samples, subseed(seed, t_max),
                                    tolerances, prefixes=ends)
    shared = time.perf_counter() - started
    witness = _DirectionSweep(last, mode, count_rank=True)
    rows: list[SweepRow] = []
    for t, (start, end, report) in enumerate(
            zip((0,) + ends, ends, reports), start=1):
        started = time.perf_counter()
        witness.add_gates(start, end, circuits)
        wrank = witness.rank()
        seconds = time.perf_counter() - started + shared * (t == t_max)
        rows.append(SweepRow(
            n=n, family=family, t_slices=t, r_gates=end, l_gates=end // t,
            accessible=report.consensus, witness_rank=wrank,
            lower=report.lower_bound, upper=report.upper_bound,
            cap=report.cap, samples=samples, seed=seed,
            ms=int(round(seconds * 1000))))
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
    interval_99: list[float]
    within_interval: bool
    alpha: float
    probability_bound: float
    complexity_threshold: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def randomized_architecture_experiment(n: int, trials: int, seed: int,
                                       alpha: float = 0.5,
                                       ) -> MonteCarloSummary:
    """Sample ``trials`` blocks of n(n-1)^2 uniformly placed adjacent gates
    and compare the causal fraction against the exact product formula.

    The 99% interval is the normal approximation around the exact p.  The
    summary also evaluates the implied complexity statement at ``alpha``:
    ``complexity_threshold`` is the paper's bound T/9 - n/3, whose one home
    is ``bounds``, at T = alpha * trials slices of one block each, in
    floats.  A draw whose estimated peak is over ``MEMORY_BUDGET`` raises
    SizeLimit before it allocates, and a ``trials`` that is not a positive
    integer ValidationError.
    """
    if check_int(trials, "trials") < 1:
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
    interval = [exact - half, exact + half]
    return MonteCarloSummary(
        n=n, trials=trials, block_gates=block, seed=seed, causal_blocks=hits,
        empirical=p_hat, exact=exact, interval_99=interval,
        within_interval=interval[0] <= p_hat <= interval[1], alpha=alpha,
        probability_bound=probability_bound,
        complexity_threshold=_complexity_bound(alpha * r_total, block, n))
