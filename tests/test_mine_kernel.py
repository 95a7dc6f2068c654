"""The lockstep mining kernel against the plain-Python greedy walk."""

import pytest
from hypothesis import given, settings, strategies as st

from carlab import lcpr, synth
from carlab.core import LearningSample, LearningSet
from carlab.lcpr import UnseparableSeedError, grow_maximal_ld, mine_lds

import oracles

# A small value pool makes duplicate grid values and coincident points common.
_value = st.sampled_from([-1.5, 0.0, 2.0, 3.0])


@st.composite
def learning_sets(draw):
    n = draw(st.integers(1, 3))
    classes = draw(st.integers(1, 3))
    samples = []
    for k in range(draw(st.integers(classes, 12))):
        label = k if k < classes else draw(st.integers(0, classes - 1))
        samples.append(LearningSample(f"s{k}", tuple(draw(_value) for _ in range(n)), label))
    return LearningSet.build(samples)


def greedy_mining(learning_set, budget):
    """Per-class sets of greedy-walk boxes, and the warnings in seed order."""
    points = [s.features for s in learning_set.samples]
    labels = [s.label for s in learning_set.samples]
    boxes = {i: set() for i in range(learning_set.deviated_count + 1)}
    warnings = []
    for k, seed in enumerate(learning_set.samples):
        box, coincident = oracles.greedy_box(points, labels, seed.features, seed.label, budget)
        if box is None:
            warnings.append(
                f"unseparable seed {seed.object_id!r}: coincides with "
                f"{coincident} counter-class point(s)"
            )
        else:
            boxes[seed.label].add(box)
    return boxes, warnings


def assert_mines_greedy(learning_set, budget):
    lds = mine_lds(learning_set, budget)
    boxes, warnings = greedy_mining(learning_set, budget)
    assert list(lds.warnings) == warnings
    assert set(lds.by_class) == set(boxes)
    for i, members in lds.by_class.items():
        mined = [oracles.box_of_ld(ld, learning_set.n) for ld in members]
        assert len(mined) == len(set(mined))
        assert set(mined) == boxes[i]


@settings(max_examples=300, deadline=None)
@given(learning_sets(), st.integers(0, 2))
def test_mine_lds_matches_greedy_walk(learning_set, budget):
    assert_mines_greedy(learning_set, budget)


@settings(max_examples=100, deadline=None)
@given(learning_sets(), st.integers(0, 2), st.data())
def test_grow_maximal_ld_matches_greedy_walk(learning_set, budget, data):
    points = [s.features for s in learning_set.samples]
    labels = [s.label for s in learning_set.samples]
    # A seed need not be a training point: it may lie off the grid.
    outside = LearningSample(
        "outside",
        tuple(data.draw(st.sampled_from([-2.0, 1.0, 3.0, 4.0])) for _ in range(learning_set.n)),
        data.draw(st.integers(0, learning_set.deviated_count)),
    )
    for seed in learning_set.samples + (outside,):
        box, coincident = oracles.greedy_box(points, labels, seed.features, seed.label, budget)
        if box is None:
            with pytest.raises(UnseparableSeedError, match=f"with {coincident} counter"):
                grow_maximal_ld(seed, learning_set, budget)
        else:
            grown = grow_maximal_ld(seed, learning_set, budget)
            assert grown.class_index == seed.label
            assert oracles.box_of_ld(grown, learning_set.n) == box


@pytest.mark.parametrize("budget", [0, 1, 2])
def test_coincident_counter_points(budget):
    rows = [
        ("a", (1.0, 1.0), 0),
        ("b", (1.0, 1.0), 1),
        ("c", (1.0, 1.0), 1),
        ("d", (2.0, 1.0), 0),
        ("e", (2.0, 0.0), 1),
        ("f", (0.0, 2.0), 1),
        ("g", (0.0, 2.0), 0),
    ]
    learning_set = LearningSet.build([LearningSample(*r) for r in rows])
    assert_mines_greedy(learning_set, budget)
    assert len(mine_lds(learning_set, budget).warnings) == (
        {0: 5, 1: 1, 2: 0}[budget]
    )


@pytest.mark.parametrize("budget", [0, 1, 2])
def test_seeds_spanning_several_chunks(monkeypatch, budget):
    rng = synth.default_rng(7)
    learning_set = synth.random_learning_set(rng, n=3, classes=3, m=45)
    sizes = [
        sum(s.label == i for s in learning_set.samples)
        for i in range(learning_set.deviated_count + 1)
    ]
    cells = 2 * learning_set.m
    monkeypatch.setattr(lcpr, "_CHUNK_CELLS", cells)
    # A chunk holds cells // (counter points) seeds, fewer than any class has.
    assert all(1 < cells // (learning_set.m - size) < size for size in sizes)
    assert_mines_greedy(learning_set, budget)
