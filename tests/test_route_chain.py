"""One chain of routes to the accessible dimension over seeded random
architectures: the closed-form bounds, the Haar consensus of each prefix in
both modes, the exact rank at an all-Clifford point and, for the whole
architecture with n <= 4, the frame's rank mod p at rational unitary points
in both modes must be ordered as the theory orders them."""

import numpy as np

from archdim import accessible_dimensions, random_adjacent, witness_rank
from archdim.architecture import Architecture
from reference import rank_mod_p, state_rank_mod_p
from test_witness import _random_clifford_2q

SHAPES = 150


def _shapes():
    """(architecture, three prefix lengths, Clifford circuits) per shape:
    n = 2-5 wires and R <= 4n + 9 adjacent gates, seeded."""
    rng = np.random.default_rng(20261020)
    for case in range(SHAPES):
        n = int(rng.integers(2, 6))
        arch = random_adjacent(n, int(rng.integers(1, 4 * n + 10)), case)
        end = arch.gate_count
        prefixes = sorted(int(x) for x in rng.choice(
            np.arange(1, end + 1), size=min(3, end), replace=False))
        yield arch, prefixes, [_random_clifford_2q(rng) for _ in range(end)]


def test_bounds_consensuses_and_clifford_ranks_are_ordered():
    # d_A lies within its bounds; a longer prefix reaches at least what a
    # shorter one does; the frame's rank at any point, an all-Clifford
    # one included, is at most its generic rank, and so is its rank mod p
    # at any point, since reduction mod p is a ring map; and the state map
    # is the unitary one followed by U -> U|0>, so its rank is at most that
    # one's
    conclusive = total = 0
    for case, (arch, prefixes, circuits) in enumerate(_shapes()):
        consensus = {}
        for mode in ("unitary", "state"):
            reports = accessible_dimensions(arch, mode, 3, case,
                                            prefixes=prefixes)
            reached = 0
            total += len(reports)
            for report in reports:
                if report.inconclusive:
                    continue
                conclusive += 1
                length, value = report.gate_count, report.consensus
                where = (case, arch, mode, length)
                assert report.lower_bound <= value <= report.upper_bound, \
                    where
                assert value >= reached, where
                reached = value
                head = Architecture(arch.n, arch.gates[:length])
                assert witness_rank(head, circuits[:length], mode) <= value, \
                    where
                consensus[mode, length] = value
                if arch.n <= 4 and length == arch.gate_count:
                    oracle = rank_mod_p if mode == "unitary" \
                        else state_rank_mod_p
                    assert oracle(arch, case) <= value, where
        for (mode, length), value in consensus.items():
            if mode == "state" and ("unitary", length) in consensus:
                assert value <= consensus["unitary", length], (case, length)
    # nearly every report is conclusive, so the chain is checked
    assert conclusive >= 0.95 * total
