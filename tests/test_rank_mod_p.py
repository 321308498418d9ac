"""The exact route to the accessible dimension: a frame's rank mod a prime
at rational unitary points (``reference.rank_mod_p`` in unitary mode,
``reference.state_rank_mod_p`` in state mode), a lower bound on d_A with
no error analysis, against recorded values and the Haar consensus."""

import pytest

from archdim import accessible_dimension
from archdim.architecture import brickwork, random_adjacent, staircase
from reference import rank_mod_p, state_rank_mod_p

# (architecture, rank mod p at point seed 1)
RECORDED = [
    pytest.param(lambda: staircase(3, 1), 27, id="staircase-3-1"),
    pytest.param(lambda: staircase(3, 2), 45, id="staircase-3-2"),
    pytest.param(lambda: staircase(4, 2), 66, id="staircase-4-2"),
    pytest.param(lambda: staircase(6, 2), 108, id="staircase-6-2"),
    pytest.param(lambda: brickwork(4, 2), 66, id="brickwork-4-rounds-2"),
    pytest.param(lambda: random_adjacent(5, 12, 4), 87, id="random-5-12-4"),
    pytest.param(lambda: random_adjacent(5, 15, 7), 96, id="random-5-15-7"),
    pytest.param(lambda: random_adjacent(5, 17, 0), 105, id="random-5-17-0"),
    pytest.param(lambda: random_adjacent(6, 40, 1), 270, id="random-6-40-1"),
]


@pytest.mark.parametrize("build, want", RECORDED)
def test_the_rank_mod_p_takes_its_recorded_value(build, want):
    arch = build()
    assert rank_mod_p(arch, 1) == want
    if arch.n <= 5:
        # d_A itself on these shapes: the Haar consensus agrees
        report = accessible_dimension(arch, "unitary", 3, 1)
        assert not report.inconclusive
        assert report.consensus == want


def _staircase_state(n, t):
    """The state-mode d_A measured on staircase(n, t) for t = 1-3, 8n - 9,
    17n - 29 and 26n - 46, capped at the sphere dimension 2^(n+1) - 1."""
    slope, offset = {1: (8, 9), 2: (17, 29), 3: (26, 46)}[t]
    return min(slope * n - offset, 2 ** (n + 1) - 1)


# (architecture, state-mode rank mod p at point seed 1)
STATE_RECORDED = [
    pytest.param(lambda n=n, t=t: staircase(n, t), _staircase_state(n, t),
                 id=f"staircase-{n}-{t}")
    for n in range(3, 9) for t in range(1, 4)] + [
    pytest.param(lambda: brickwork(4, 2), 31, id="brickwork-4-rounds-2"),
    pytest.param(lambda: brickwork(4, 4), 31, id="brickwork-4-rounds-4"),
    pytest.param(lambda: random_adjacent(5, 12, 4), 48, id="random-5-12-4"),
    pytest.param(lambda: random_adjacent(5, 17, 0), 39, id="random-5-17-0"),
]


@pytest.mark.parametrize("build, want", STATE_RECORDED)
def test_the_state_rank_mod_p_takes_its_recorded_value(build, want):
    arch = build()
    assert state_rank_mod_p(arch, 1) == want
    if arch.n <= 5:
        # the state-mode d_A itself on these shapes
        report = accessible_dimension(arch, "state", 3, 1)
        assert not report.inconclusive
        assert report.consensus == want
