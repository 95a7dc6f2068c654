"""The cube vote by (mask, value) codes against the float-box vote of the
same subcube covers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from carlab.boolcube import (
    RegionPartition,
    all_vertices,
    cover_counts,
    forall_exists_partition,
    multiclass_rdnf,
    subcubes_to_ldset,
    vertex_to_vector,
    vote_vertices,
)
from carlab.core import LearningSample, LearningSet
from carlab.lcpr import classify_batch
from conftest import cube


def assert_cube_vote_matches_box_vote(rdnfs, n):
    vertices = list(all_vertices(n))
    for cubes in rdnfs.values():
        expected = [sum(c.contains(v) for c in cubes) for v in vertices]
        assert cover_counts(cubes, n).tolist() == expected
    rows = np.array([vertex_to_vector(v) for v in vertices])
    boxes = classify_batch(rows, subcubes_to_ldset(rdnfs))
    cube = vote_vertices(rdnfs, n)
    assert (cube.classes, cube.sizes) == (boxes.classes, boxes.sizes)
    assert cube.counts.tolist() == boxes.counts.tolist()
    assert (cube.labels, cube.reasons) == (boxes.labels, boxes.reasons)
    return cube


@st.composite
def boolean_sets(draw):
    n = draw(st.integers(2, 8))
    classes = draw(st.integers(2, 4))
    codes = draw(
        st.lists(st.integers(0, 2**n - 1), min_size=classes, max_size=min(2**n, 16), unique=True)
    )
    # Every class gets one point; the rest are labelled at random.
    labels = list(range(classes)) + [
        draw(st.integers(0, classes - 1)) for _ in range(len(codes) - classes)
    ]
    samples = [
        LearningSample(f"v{code}", tuple(float(code >> (n - 1 - j) & 1) for j in range(n)), label)
        for code, label in zip(codes, labels)
    ]
    return LearningSet.build(samples, mode="boolean")


@settings(max_examples=60, deadline=None)
@given(boolean_sets())
def test_cube_vote_matches_box_vote(learning_set):
    rdnfs, n = multiclass_rdnf(learning_set), learning_set.n
    votes = assert_cube_vote_matches_box_vote(rdnfs, n)
    # The always/sometimes split that `carlab inverse` takes from the counts.
    covered = votes.counts > 0
    split = RegionPartition.from_masks(covered[:, 0], covered[:, 1:].any(axis=1))
    rest = set().union(*(cubes for c, cubes in rdnfs.items() if c != 0))
    expected = forall_exists_partition(rdnfs[0], rest, n=n)
    for name in ("forall_region", "exists_region", "uncovered"):
        assert np.array_equal(getattr(split, name), getattr(expected, name)), name


def test_tied_all_zero_and_empty_class():
    rdnfs = {
        0: {cube("00*"), cube("111")},
        1: {cube("0**"), cube("*0*"), cube("011"), cube("010")},
        2: set(),
    }
    votes = vote_vertices(rdnfs, 3)
    verdicts = dict(zip(all_vertices(3), zip(votes.labels, votes.reasons)))
    # 000 scores 1/2 for class 0 against 2/4 for class 1.
    assert verdicts["000"] == (None, "tied")
    assert verdicts["110"] == (None, "all-zero")
    assert verdicts["111"] == (0, None) and verdicts["101"] == (1, None)
    assert votes.sizes == (2, 4, 0)
    assert_cube_vote_matches_box_vote(rdnfs, 3)
