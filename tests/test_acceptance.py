"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion pins its tolerance and runtime budget explicitly.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from archdim import (
    GateAssignment,
    PauliString,
    TooManySlices,
    accessible_dimension,
    brickwork,
    build_path_tree,
    complexity_lower_bound,
    contract,
    from_gate_sequence,
    is_causal_slice,
    numerical_rank,
    randomized_architecture_experiment,
    randomized_bound_probability,
    route_pauli_through_slice,
    routing_clifford_2q,
    saturation_threshold,
    staircase,
    tangent_frame,
    witness_point,
)
from archdim.pauli import TWO_QUBIT_GENERATOR_MATS, TWO_QUBIT_GENERATORS

from reference import (
    gate_assignment,
    gauge_redundancy_check,
    perturbation_operator,
    slice_tableau,
)


@contextmanager
def criterion(num: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"\ncriterion {num:2d} ({name}): PASS [{elapsed:.1f}s]")


@pytest.fixture(scope="module")
def ramp_reports():
    """Criterion 1 data: n=3 staircase, T = 1..12, samples = 5."""
    started = time.perf_counter()
    reports = {t: accessible_dimension(staircase(3, t), samples=5, seed=90 + t)
               for t in range(1, 13)}
    return reports, time.perf_counter() - started


@pytest.fixture(scope="module")
def ceiling_reports():
    """Criterion 2 data: 50 seeded random architectures, n <= 4, R <= 12."""
    rng = np.random.default_rng(777)
    out = []
    for i in range(50):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, 13))
        gates = []
        for _ in range(r):
            a, b = rng.choice(n, size=2, replace=False)
            gates.append((int(a) + 1, int(b) + 1))
        arch = from_gate_sequence(n, gates)
        out.append((arch, accessible_dimension(arch, samples=5, seed=1000 + i)))
    return out


@pytest.fixture(scope="module")
def saturation_reports():
    """Criterion 3 data: n=2 plateau points and the forced n=3, T=63 point."""
    started = time.perf_counter()
    small = {t: accessible_dimension(staircase(2, t), samples=5, seed=40 + t)
             for t in (1, 2, 5)}
    big = accessible_dimension(staircase(3, 63), samples=5, seed=63)
    return small, big, time.perf_counter() - started


def test_criterion_1_ramp_lower_bound(ramp_reports):
    reports, elapsed = ramp_reports
    with criterion(1, "ramp lower bound d_A >= T"):
        for t, report in reports.items():
            assert not report.inconclusive, report.inconclusive_reason
            assert report.consensus >= t, (t, report.consensus)
        assert elapsed < 120.0, f"ramp took {elapsed:.1f}s"


def test_criterion_2_dimension_ceiling(ceiling_reports):
    with criterion(2, "dimension ceiling min(15R, 9R+3n, 4^n-1)"):
        for arch, report in ceiling_reports:
            assert not report.inconclusive, report.inconclusive_reason
            r = arch.gate_count
            ceiling = min(15 * r,
                          9 * r + 3 * len(arch.touched_qubits()),
                          4 ** arch.n - 1)
            assert report.consensus <= ceiling, (arch, report.consensus)


def test_criterion_3_saturation(saturation_reports):
    small, big, elapsed = saturation_reports
    with criterion(3, "saturation at 4^n - 1"):
        for t, report in small.items():
            assert report.consensus == 15, (t, report.consensus)
        assert big.consensus == 63, big.consensus
        assert elapsed < 600.0, f"saturation took {elapsed:.1f}s"


def test_criterion_4_sample_constancy(ramp_reports, ceiling_reports,
                                      saturation_reports):
    small, big, _ = saturation_reports
    everything = (list(ramp_reports[0].values())
                  + [rep for _, rep in ceiling_reports]
                  + list(small.values()) + [big])
    with criterion(4, "rank constancy across Haar samples"):
        for report in everything:
            pairs = report.sample_ranks()
            assert len(pairs) == 5
            assert len(set(pairs)) == 1, pairs
            for loose, tight in pairs:
                assert loose == tight


def test_criterion_5_clifford_witnesses():
    with criterion(5, "routing and witness construction"):
        # all 15 nontrivial two-qubit strings route to a bare Z
        for p in TWO_QUBIT_GENERATORS:
            circ = routing_clifford_2q(p)
            assert (circ.conjugate_row(*p.xz_row(), 2)
                    == PauliString.from_label("IZ").xz_row())

        # 100 seeded (slice, Pauli) pairs on staircase/brickwork slices
        rng = np.random.default_rng(555)
        checked = 0
        while checked < 100:
            if rng.integers(2):
                n = int(rng.integers(2, 6))
                arch = staircase(n, 1)
            else:
                n = 4
                arch = brickwork(4, 4)
            start, stop = arch.slice_ranges()[0]
            p = PauliString(n, int(rng.integers(0, 1 << n)),
                            int(rng.integers(0, 1 << n)), 0)
            if p.is_identity:
                continue
            sink = is_causal_slice(arch, start, stop)
            tree = build_path_tree(arch, start, stop)
            assignments = route_pauli_through_slice(tree, p)
            tab = slice_tableau(arch, start, stop, assignments)
            assert tab.conjugate(p) == PauliString.single(n, "Z", sink)
            checked += 1

        # witness points for n = 3, 4 and T <= 6
        for n in (3, 4):
            for t in range(1, 7):
                arch = staircase(n, t)
                cert = witness_point(arch, "unitary")
                assert len({(d.x_bits, d.z_bits) for d in cert.directions}) == t
                est = numerical_rank(
                    tangent_frame(arch, gate_assignment(cert.gate_circuits)))
                assert est.rank is not None and est.rank >= t


def test_criterion_6_derivative_check():
    with criterion(6, "finite differences match K_{j,k} F(x)"):
        rng = np.random.default_rng(666)
        eps = 1e-5
        for _ in range(50):
            n = int(rng.integers(2, 5))
            t = int(rng.integers(1, 4))
            arch = staircase(n, t)
            gates = GateAssignment.haar(arch, int(rng.integers(10 ** 6)))
            j = int(rng.integers(arch.gate_count))
            k = int(rng.integers(15))
            s = TWO_QUBIT_GENERATOR_MATS[k]
            kop = perturbation_operator(arch, gates, j, k)
            base = contract(arch, gates)
            plus = np.cos(eps) * np.eye(4) + 1j * np.sin(eps) * s
            def shifted(p):
                mats = gates.matrices.copy()
                mats[j] = p @ mats[j]
                return contract(arch, GateAssignment(mats))
            fd = (shifted(plus) - shifted(plus.conj().T)) / (2 * np.sin(eps))
            pred = 1j * kop @ base
            rel = np.linalg.norm(fd - pred) / np.linalg.norm(pred)
            assert rel < 1e-6, rel


def test_criterion_7_state_mode():
    with criterion(7, "state-mode ranks and threshold"):
        for t in range(1, 15):
            report = accessible_dimension(
                staircase(3, t), mode="state", samples=5, seed=700 + t)
            assert not report.inconclusive, (t, report.inconclusive_reason)
            assert report.consensus >= t, (t, report.consensus)
            assert report.consensus <= 15
        with pytest.raises(TooManySlices):
            witness_point(staircase(3, 15), "state")


def test_criterion_8_monte_carlo():
    with criterion(8, "randomized-architecture Monte Carlo"):
        started = time.perf_counter()
        summary = randomized_architecture_experiment(5, 10 ** 4, seed=888)
        elapsed = time.perf_counter() - started
        assert summary.block_gates == 80
        assert abs(summary.exact - 0.98738) < 5e-6
        assert summary.within_interval, (summary.empirical, summary.interval)
        assert elapsed < 60.0, f"monte carlo took {elapsed:.1f}s"


def test_criterion_9_gauge_redundancy():
    with criterion(9, "gauge redundancy of internal wires"):
        chain = from_gate_sequence(3, [(1, 2), (2, 3)])
        gates = GateAssignment.haar(chain, 99)
        est = numerical_rank(tangent_frame(chain, gates))
        assert est.rank is not None and est.rank <= 27
        report = gauge_redundancy_check(chain, gates, tolerance=1e-8)
        assert report.passed

        bw = brickwork(4, 1)
        bw_gates = GateAssignment.haar(bw, 98)
        bw_report = gauge_redundancy_check(bw, bw_gates, tolerance=1e-8)
        assert bw_report.passed, [w.max_residual for w in bw_report.wires]


def test_criterion_10_bound_calculators():
    with criterion(10, "closed-form calculators"):
        assert complexity_lower_bound(900, 10, 6).value == Fraction(8)
        expected = 1 - 18 * np.exp(-10)
        assert abs(randomized_bound_probability(10, 0.5) - expected) < 1e-12
        assert saturation_threshold(3, "unitary") == 63
        assert saturation_threshold(3, "state") == 15
