"""The deciding-side mining scan on larger sets, its budget check, and a
byte-identity guard at a size where the scan runs over many blocks."""

import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import synth
from carlab.core import CarlabError, LearningSample, LearningSet
from carlab.lcpr import UnseparableSeedError, grow_maximal_ld, ldset_to_json, mine_lds

import oracles
from test_mine_kernel import assert_mines_greedy

# About ten values: ties, shared runs and coincident points stay common
# while the scans still cross several lockstep blocks.
_POOL = [-3.0, -1.5, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 7.0]
_OFF_GRID = [-4.0, -2.0, 0.25, 1.75, 3.5, 8.0]


@st.composite
def larger_sets(draw):
    n = draw(st.integers(1, 5))
    classes = draw(st.integers(2, 4))
    # A narrow pool on the early features keeps their runs long.
    pools = [draw(st.sampled_from([_POOL[:3], _POOL[:5], _POOL])) for _ in range(n)]
    samples = []
    for k in range(draw(st.integers(30, 150))):
        label = k if k < classes else draw(st.integers(0, classes - 1))
        features = tuple(draw(st.sampled_from(pool)) for pool in pools)
        samples.append(LearningSample(f"s{k}", features, label))
    return LearningSet.build(samples)


@settings(max_examples=40, deadline=None)
@given(larger_sets(), st.integers(0, 3))
def test_mine_lds_matches_greedy_walk_on_larger_sets(learning_set, budget):
    assert_mines_greedy(learning_set, budget)


@settings(max_examples=40, deadline=None)
@given(larger_sets(), st.integers(0, 3), st.data())
def test_grow_maximal_ld_matches_greedy_walk_off_the_grid(learning_set, budget, data):
    points = [s.features for s in learning_set.samples]
    labels = [s.label for s in learning_set.samples]
    seeds = [
        LearningSample(
            f"outside{k}",
            tuple(data.draw(st.sampled_from(_OFF_GRID + _POOL)) for _ in range(learning_set.n)),
            data.draw(st.integers(0, learning_set.deviated_count)),
        )
        for k in range(3)
    ]
    for seed in seeds + list(learning_set.samples[:3]):
        box, coincident = oracles.greedy_box(points, labels, seed.features, seed.label, budget)
        if box is None:
            with pytest.raises(UnseparableSeedError, match=f"with {coincident} counter"):
                grow_maximal_ld(seed, learning_set, budget)
        else:
            assert oracles.box_of_ld(grow_maximal_ld(seed, learning_set, budget), learning_set.n) == box


def _tie_set(below, above, n=1):
    """Seed 's' of class 0 at 10 on the last feature, counter points of
    class 1 at the values ``below`` and ``above`` it there; any earlier
    features are 0 for every point, so every counter point is inside."""
    rows = [("s", (0.0,) * (n - 1) + (10.0,), 0)]
    rows += [(f"c{k}", (0.0,) * (n - 1) + (v,), 1) for k, v in enumerate(below + above)]
    return LearningSet.build([LearningSample(*row) for row in rows])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "budget, below, lower, upper",
    [
        # One seed scans blocks of 1, 2, 4, ... rows.  The run of 9s starts
        # in the first block and the stop, the second 9, is in the next:
        # none lies beyond it, so the slack 1 still lets the upper bound
        # step past 11.
        (1, [9.0, 9.0, 9.0, 5.0], 10.0, 11.0),
        # 9.5 lies beyond the stop; the run of 9s crosses from the second
        # block into the third, where the stop, the fourth blocking row,
        # is: one is beyond, and the slack 2 left steps past 11 and 12.
        (3, [9.5, 9.0, 9.0, 9.0, 9.0, 5.0], 9.5, 12.0),
        # Two rows fewer below: the stop, the second 9, is in the block
        # where the run of 9s starts, and the slack left is 1.
        (2, [9.5, 9.0, 9.0, 5.0], 9.5, 11.0),
    ],
)
def test_a_run_of_equal_stops_across_blocks_counts_the_slack_once(n, budget, below, lower, upper):
    learning_set = _tie_set(below, [11.0, 12.0, 13.0], n)
    seed = learning_set.samples[0]
    ld = grow_maximal_ld(seed, learning_set, budget)
    assert (ld.lower, ld.upper) == ({n: lower}, {n: upper})
    points = [s.features for s in learning_set.samples]
    labels = [s.label for s in learning_set.samples]
    box, _ = oracles.greedy_box(points, labels, seed.features, seed.label, budget)
    assert oracles.box_of_ld(ld, n) == box
    assert_mines_greedy(learning_set, budget)


_BAD_BUDGETS = [1.5, 0.5, True, False, np.True_, "1", None, -1, np.int64(-2)]


@pytest.mark.parametrize("budget", _BAD_BUDGETS, ids=repr)
def test_a_budget_that_is_not_a_count_is_refused(budget):
    learning_set = synth.random_learning_set(synth.default_rng(7), n=3, classes=3, m=45)
    with pytest.raises(CarlabError, match="violation_budget must be >= 0 and an integer"):
        mine_lds(learning_set, budget)
    with pytest.raises(CarlabError, match="violation_budget must be >= 0 and an integer"):
        grow_maximal_ld(learning_set.samples[0], learning_set, budget)


@pytest.mark.parametrize("budget", [np.int64(1), np.uint8(2), 10**30])
def test_any_integer_budget_is_read_as_its_value(budget):
    learning_set = synth.random_learning_set(synth.default_rng(7), n=3, classes=3, m=45)
    assert mine_lds(learning_set, budget) == mine_lds(learning_set, min(int(budget), learning_set.m))
    assert_mines_greedy(learning_set, min(int(budget), learning_set.m))


def test_a_nan_seed_is_refused():
    learning_set = synth.random_learning_set(synth.default_rng(7), n=3, classes=3, m=45)
    with pytest.raises(CarlabError, match="seed 'x' has a NaN feature"):
        grow_maximal_ld(LearningSample("x", (1.0, float("nan"), 2.0), 0), learning_set)


# sha256 of the key-sorted ``json.dumps`` of ``ldset_to_json(mine_lds(...))``
# on the set below, as mined by the excluded-matrix kernel this scan
# replaced.
_DIGESTS = {
    0: "aad2ac6bdd825025feb3bc080f8a5dd2eb1ebdb3810a3b323cdd066b8a79823c",
    2: "7d1c3ed62cc20ca4a37463f98b6703183ecb95e9cfcb459d481d6aaaa258329d",
}


@pytest.mark.parametrize("budget", sorted(_DIGESTS))
def test_3000_rows_mine_to_the_recorded_bytes(budget):
    learning_set = synth.random_learning_set(synth.default_rng(30), n=4, classes=4, m=3000)
    start = time.perf_counter()
    lds = mine_lds(learning_set, budget)
    elapsed = time.perf_counter() - start
    doc = json.dumps(ldset_to_json(lds), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == _DIGESTS[budget]
    assert elapsed < 2.0
