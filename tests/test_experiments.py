"""Experiment harness: sweeps and the Monte Carlo."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import archdim.experiments
from archdim import (
    AlphaOutOfRange,
    GateAssignment,
    SizeLimit,
    ValidationError,
    VerdictError,
    accessible_dimension,
    detect_staircase_slices,
    growth_sweep,
    random_adjacent,
    randomized_architecture_experiment,
    rows_to_csv,
    staircase,
)
from archdim.experiments import CSV_HEADER, SweepRow, check_ramp


def test_sweep_su4_plateau():
    rows = growth_sweep(2, "staircase", 3, samples=3, seed=1)
    assert [r.accessible for r in rows] == [15, 15, 15]
    assert all(r.witness_rank == 15 for r in rows)


def test_sweep_ramp_lower_bound():
    rows = growth_sweep(3, "staircase", 10, samples=3, seed=2)
    for r in rows:
        assert r.accessible >= r.t_slices
        assert r.lower == r.t_slices
        assert r.lower <= r.accessible <= r.upper
    assert [r.accessible for r in rows] == [27, 45] + [63] * 8


def test_sweep_full_saturation():
    # the ramp must end exactly at the cap once T reaches 4^n - 1
    rows = growth_sweep(3, "staircase", 63, samples=3, seed=17)
    assert [r.t_slices for r in rows] == list(range(1, 64))
    assert rows[-1].accessible == 63
    assert rows[-1].witness_rank == 63


def test_sweep_brickwork():
    rows = growth_sweep(4, "brickwork", 2, samples=3, seed=3)
    assert [r.l_gates for r in rows] == [12, 12]
    for r in rows:
        assert r.accessible >= r.t_slices


def test_sweep_csv_deterministic_modulo_wall_time():
    def strip_ms(text):
        return ["," .join(line.split(",")[:-1]) for line in text.splitlines()]

    a = rows_to_csv(growth_sweep(2, "staircase", 2, samples=3, seed=5))
    b = rows_to_csv(growth_sweep(2, "staircase", 2, samples=3, seed=5))
    assert strip_ms(a) == strip_ms(b)
    assert a.splitlines()[0] == CSV_HEADER


def test_the_csv_header_has_one_column_per_row_field():
    # each cell holds its field's index, and an inconclusive dimension is
    # an empty cell
    names = [field.name for field in dataclasses.fields(SweepRow)]
    columns = CSV_HEADER.split(",")
    assert len(columns) == len(names)
    assert {"t_slices": "T", "r_gates": "R", "l_gates": "L",
            "accessible": "dA", "ms": "ms"}.items() \
        <= dict(zip(names, columns)).items()
    row = SweepRow(*range(len(names)))
    assert row.csv_line() == ",".join(map(str, range(len(names))))
    cells = dataclasses.replace(row, accessible=None).csv_line().split(",")
    assert cells[columns.index("dA")] == ""


def test_sweep_refuses_a_non_integer_seed():
    # int() truncated 2.0 to 2 and drew seed 2's gates under seed 2.0
    with pytest.raises(ValidationError, match="seed must be an integer"):
        growth_sweep(2, "staircase", 2, samples=3, seed=2.0)


@pytest.mark.parametrize("call,what", [
    (lambda: accessible_dimension(staircase(2, 1), "unitary", 3.0, 1),
     "samples"),
    (lambda: growth_sweep(2, "staircase", 2.5, 3, 1), "t_max"),
    (lambda: growth_sweep(2, "staircase", 2, samples=3.5, seed=1), "samples"),
    (lambda: randomized_architecture_experiment(3, 2.5, 1), "trials"),
    (lambda: growth_sweep(2.0, "staircase", 2, 3, 1), "n"),
    (lambda: randomized_architecture_experiment(3.0, 10, 1), "n")],
    ids=["dim-samples", "sweep-t-max", "sweep-samples", "mc-trials",
         "sweep-n", "mc-n"])
def test_a_non_integer_count_is_refused_by_name(call, what, monkeypatch):
    # range() and the position stream raised TypeError deep inside; the
    # count is refused before any gate or position is drawn
    def drawn(*args):
        raise AssertionError("sampled before the count was checked")

    monkeypatch.setattr(archdim.experiments, "_adjacent_positions", drawn)
    monkeypatch.setattr(GateAssignment, "haar", drawn)
    with pytest.raises(ValidationError, match=f"{what} must be an integer"):
        call()


def test_monte_carlo_refuses_a_non_integer_seed():
    # default_rng raised TypeError on 1.5 before the position stream checked
    # its seed
    with pytest.raises(ValidationError, match="seed must be an integer"):
        randomized_architecture_experiment(3, 10, 1.5)


def test_check_ramp_rejects_violations():
    def row(t, d, cap=63):
        return SweepRow(3, "staircase", t, 2 * t, 2, d, t, t,
                        min(18 * t + 9, cap), cap, 3, 0, 0)

    check_ramp([row(1, 27), row(2, 45), row(3, 63), row(4, 63)])
    with pytest.raises(VerdictError):
        check_ramp([row(1, 27), row(2, 26)])  # decreasing
    with pytest.raises(VerdictError):
        check_ramp([row(1, 0)])  # below slice count
    with pytest.raises(VerdictError):
        check_ramp([row(1, 27), row(2, 27)])  # flat below the cap
    with pytest.raises(VerdictError):
        check_ramp([row(63, 62, cap=63)])  # not saturated at the cap
    with pytest.raises(VerdictError, match="dimension 28 outside its "
                       "bounds \\[1, 27\\]"):
        check_ramp([row(1, 28)])
    with pytest.raises(VerdictError, match="exceeds dimension"):
        check_ramp([dataclasses.replace(row(1, 27), witness_rank=28)])
    with pytest.raises(VerdictError, match="T=7: dimension 9 should sit at "
                       "cap 7"):  # a row whose upper bound is past its cap
        check_ramp([dataclasses.replace(row(7, 9, cap=7), upper=9)])
    with pytest.raises(VerdictError, match="below slice count"):
        # checked on inconclusive rows too
        check_ramp([row(1, 27), dataclasses.replace(row(2, None), witness_rank=1)])


def test_check_ramp_skips_inconclusive_rows():
    def row(t, d):
        return SweepRow(3, "staircase", t, 2 * t, 2, d, t, t, 63, 63, 3, 0, 0)

    check_ramp([row(1, 27), row(2, None), row(3, 63)])


def test_monte_carlo_two_qubits_always_causal():
    summary = randomized_architecture_experiment(2, 100, seed=4)
    assert summary.empirical == 1.0
    assert summary.exact == 1.0


def test_monte_carlo_matches_formula():
    summary = randomized_architecture_experiment(4, 2000, seed=6)
    assert summary.block_gates == 36
    lo, hi = summary.interval_99
    assert lo <= summary.empirical <= hi
    assert summary.within_interval
    # chained Bernoulli lower bound
    assert summary.empirical >= 1 - 3 * np.exp(-4) - 0.02


def test_monte_carlo_calibration_over_seeds():
    # the 99% interval should hold in at least 95% of seeded batches
    inside = sum(
        randomized_architecture_experiment(4, 1000, seed=s).within_interval
        for s in range(20))
    assert inside >= 19


def test_monte_carlo_checks_alpha_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled gates before validating alpha")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    for alpha in (1.5, 1.0, -0.1):
        with pytest.raises(AlphaOutOfRange):
            randomized_architecture_experiment(5, 20000, seed=1, alpha=alpha)


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled gates before checking the memory budget")


def test_monte_carlo_refuses_over_budget_before_drawing(monkeypatch):
    # 10000 trials at n = 30 draw 252.3M gates, about 2.35 GiB
    monkeypatch.setattr(np.random, "default_rng", _no_sampling)
    with pytest.raises(SizeLimit) as info:
        randomized_architecture_experiment(30, 10000, seed=1)
    assert "2.35 GiB, over the 2 GiB memory budget" in str(info.value)
    # the same check under a small budget: 2000 trials at n = 5 are 160000
    # gates
    monkeypatch.setattr(archdim.experiments, "MEMORY_BUDGET", 2 ** 20)
    with pytest.raises(SizeLimit, match="160000 gates"):
        randomized_architecture_experiment(5, 2000, seed=1)


@pytest.mark.parametrize("n, trials", [(2, 20000), (3, 5000), (5, 2000),
                                       (12, 100), (20, 20)])
def test_monte_carlo_estimate_bounds_the_traced_peak(n, trials):
    gates = trials * n * (n - 1) ** 2
    tracemalloc.start()
    try:
        randomized_architecture_experiment(n, trials, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= archdim.experiments._MC_BYTES_PER_GATE * gates + 2 ** 16


@pytest.mark.parametrize("n, trials, seed", [(2, 50, 1), (4, 300, 6),
                                             (5, 200, 9), (7, 40, 2)])
def test_monte_carlo_count_matches_detected_slices(n, trials, seed):
    # the detector on the same seeded architecture is the reference count
    block = n * (n - 1) ** 2
    reports = detect_staircase_slices(random_adjacent(n, trials * block, seed))
    assert len(reports) == trials and all(r.complete for r in reports)
    summary = randomized_architecture_experiment(n, trials, seed)
    assert summary.causal_blocks == sum(r.causal for r in reports)


def test_monte_carlo_summary_json():
    summary = randomized_architecture_experiment(3, 200, seed=8, alpha=0.25)
    d = summary.to_json_dict()
    assert d["alpha"] == 0.25
    assert 0.0 <= d["probability_bound"] <= 1.0
    assert d["trials"] == 200
