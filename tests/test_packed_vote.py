"""The packed box-set vote against the brute-force oracle, on the cases
its compile step has to get right: shared bounds, rows on a bound, signed
zeros, open sides, classes around word sizes and sets of several blocks."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import lcpr
from carlab.lcpr import LDSet, LogicalDependency, classify_batch, ld_classifier

import oracles


def assert_counts_match_oracle(rows, lds):
    batch = classify_batch(rows, lds)
    for k, x in enumerate(rows):
        label, reason, exact = oracles.vote_oracle(x, lds)
        assert (batch.labels[k], lcpr._REASONS[batch.reasons[k]]) == (-1 if label is None else label, reason)
        for c, i in enumerate(batch.classes):
            assert batch.counts[k, c] == exact[i] * len(lds.by_class[i])
    return batch


def random_set(rng, sizes, n, values):
    """Boxes with bounds drawn from ``values``, each side open one time in three."""
    by_class = {}
    for index, size in sizes.items():
        members = []
        for _ in range(size):
            lower, upper = {}, {}
            for j in range(1, n + 1):
                lo, hi = sorted((rng.choice(values), rng.choice(values)))
                if rng.random() < 2 / 3:
                    lower[j] = lo
                if rng.random() < 2 / 3:
                    upper[j] = hi
            members.append(LogicalDependency(index, lower, upper))
        by_class[index] = tuple(members)
    return LDSet(by_class=by_class)


def grid_rows(rng, count, n, values):
    return [tuple(rng.choice(values) for _ in range(n)) for _ in range(count)]


def test_bounds_tied_across_boxes_and_rows_on_them():
    # Three bound values for 40 boxes: every bound is shared, and every row
    # lies on a bound of some box.
    rng, values = random.Random(1), [0.0, 1.0, 2.0]
    lds = random_set(rng, {0: 20, 1: 20}, 2, values)
    assert_counts_match_oracle(grid_rows(rng, 60, 2, values + [0.5, -1.0, 3.0]), lds)


def test_signed_zeros_in_bounds_and_rows():
    lds = LDSet(by_class={
        0: (LogicalDependency(0, {1: -0.0}, {}), LogicalDependency(0, {}, {1: -0.0})),
        1: (LogicalDependency(1, {1: 0.0}, {1: 0.0}), LogicalDependency(1, {1: -0.0}, {1: 0.0})),
        2: (LogicalDependency(2, {}, {1: -1e-300}),),
    })
    batch = assert_counts_match_oracle([(0.0,), (-0.0,), (1e-300,), (-1e-300,)], lds)
    assert batch.counts[:2].tolist() == [[2, 2, 0], [2, 2, 0]]


def test_open_sides_and_a_box_open_everywhere():
    lds = LDSet(by_class={
        0: (LogicalDependency(0, {}, {}),),
        1: (LogicalDependency(1, {2: 1.0}, {}), LogicalDependency(1, {}, {1: 0.0})),
        3: (),
    })
    batch = assert_counts_match_oracle([(0.0, 0.0), (1.0, 1.0), (-5.0, 7.0)], lds)
    assert batch.counts[:, 0].tolist() == [1, 1, 1]


def test_a_set_with_no_bounded_side():
    lds = LDSet(by_class={0: (LogicalDependency(0, {}, {}),) * 3, 1: (LogicalDependency(1, {}, {}),)})
    assert assert_counts_match_oracle([(4.0,), (-4.0,)], lds).counts.tolist() == [[3, 1], [3, 1]]


@pytest.mark.parametrize("sizes", [(0, 1, 63), (64, 65, 0), (130, 1, 64)])
def test_classes_around_word_sizes(sizes):
    rng, values = random.Random(sum(sizes)), [float(v) for v in range(6)]
    lds = random_set(rng, dict(enumerate(sizes)), 2, values)
    assert lds.sizes == sizes
    assert_counts_match_oracle(grid_rows(rng, 40, 2, values + [2.5]), lds)


def test_a_set_of_several_blocks(monkeypatch):
    # Blocks of 50 boxes split classes of 70, 1 and 120 boxes over five blocks.
    monkeypatch.setattr(lcpr, "_BLOCK_BOXES", 50)
    rng, values = random.Random(3), [float(v) for v in range(5)]
    lds = random_set(rng, {0: 70, 1: 1, 2: 120}, 3, values)
    assert len(lcpr._compile(lds)) == 4
    assert_counts_match_oracle(grid_rows(rng, 50, 3, values + [1.5]), lds)


def test_blocks_bound_the_tables():
    # Every bound distinct: a side's table in a block of b boxes is b + 1
    # sets of about b / 64 words.
    rng = np.random.default_rng(0)
    boxes = [LogicalDependency(0, {1: float(lo)}, {1: float(lo) + 1.0}) for lo in rng.permutation(5000)]
    lds = LDSet(by_class={0: tuple(boxes)})
    size = sum(table.nbytes for _, sides, _, _ in lcpr._compile(lds) for _, _, table in sides)
    assert size <= 2 * 5000 * (lcpr._BLOCK_BOXES + 64) / 8
    rows = [(float(v),) for v in rng.uniform(-1, 5001, 30)]
    assert_counts_match_oracle(rows, lds)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 130), st.integers(1, 3))
def test_random_sets_match_the_oracle(seed, total, n):
    rng, values = random.Random(seed), [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]
    sizes = {0: rng.randrange(total + 1)}
    sizes[2] = total - sizes[0]
    lds = random_set(rng, sizes, n, values)
    assert_counts_match_oracle(grid_rows(rng, 20, n, values + [1.5]), lds)


def test_the_bound_classifier_agrees_across_calls():
    rng, values = random.Random(4), [float(v) for v in range(4)]
    lds = random_set(rng, {0: 30, 1: 70}, 2, values)
    classify = ld_classifier(lds)
    for count in (25, 1, 0, 25):
        rows = grid_rows(rng, count, 2, values + [0.5])
        batch, expected = classify.batch(rows), classify_batch(rows, lds)
        assert batch.counts.tolist() == expected.counts.tolist()
        assert batch.labels.tolist() == expected.labels.tolist()
        assert batch.reasons.tolist() == expected.reasons.tolist()
        for k, x in enumerate(rows):
            assert classify(x) == expected.outcome(k)
