"""The cube vote by (mask, value) codes against the float-box vote of the
same subcube covers."""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from carlab import boolcube
from carlab.boolcube import (
    BooleanAction,
    RegionPartition,
    Subcube,
    all_vertices,
    backward_reach,
    cover_counts,
    forall_exists_partition,
    multiclass_rdnf,
    subcubes_to_ldset,
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
    rows = np.array([[float(c) for c in v] for v in vertices])
    boxes = classify_batch(rows, subcubes_to_ldset(rdnfs))
    cube = vote_vertices(rdnfs, n)
    assert (cube.classes, cube.sizes) == (boxes.classes, boxes.sizes)
    assert cube.counts.tolist() == boxes.counts.tolist()
    assert cube.labels.tolist() == boxes.labels.tolist()
    assert cube.reasons.tolist() == boxes.reasons.tolist()
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


def tied_and_empty_rdnfs():
    return {
        0: {cube("00*"), cube("111")},
        1: {cube("0**"), cube("*0*"), cube("011"), cube("010")},
        2: set(),
    }


def test_tied_all_zero_and_empty_class():
    rdnfs = tied_and_empty_rdnfs()
    votes = vote_vertices(rdnfs, 3)
    verdicts = {v: (o.label, o.reason) for v, o in zip(all_vertices(3), map(votes.outcome, range(8)))}
    # 000 scores 1/2 for class 0 against 2/4 for class 1.
    assert verdicts["000"] == (None, "tied")
    assert verdicts["110"] == (None, "all-zero")
    assert verdicts["111"] == (0, None) and verdicts["101"] == (1, None)
    assert votes.sizes == (2, 4, 0)
    assert_cube_vote_matches_box_vote(rdnfs, 3)


def test_reach_reads_the_label_array_as_the_labels_with_none():
    votes = vote_vertices(tied_and_empty_rdnfs(), 3)
    listed = [votes.outcome(v).label for v in range(8)]
    assert None in listed
    region, actions = np.flatnonzero(votes.labels == 0), {1: BooleanAction("a1", 3, exprs=("x2", "~x3", "x1"))}
    a, b = (backward_reach(region, actions, labels, 4, 3) for labels in (votes.labels, listed))
    for name in ("depths", "cumulative"):
        assert [r.tolist() for r in getattr(a, name)] == [r.tolist() for r in getattr(b, name)], name
    assert a.indeterminate.tolist() == b.indeterminate.tolist() == [v for v in range(8) if listed[v] is None]


def loop_counts(cubes, n):
    """The per-cube reference: one compare-and-add over all codes per cube."""
    codes, counts = np.arange(1 << n), np.zeros(1 << n, dtype=np.int64)
    for c in cubes:
        counts += codes & c.mask == c.value
    return counts


def subcubes(n):
    pairs = st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))
    return pairs.map(lambda mv: Subcube(n, mv[0], mv[1] & mv[0]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), st.lists(subcubes(n), max_size=12))))
def test_cover_counts_matches_the_cube_loop(case):
    n, cubes = case
    expected = loop_counts(cubes, n)
    counts = cover_counts(cubes, n)
    assert counts.dtype == np.int64 and counts.tolist() == expected.tolist()
    assert cover_counts((c for c in cubes), n).tolist() == expected.tolist()
    assert cover_counts(cubes + cubes[::-1], n).tolist() == (2 * expected).tolist()


def test_cover_counts_of_no_cubes():
    for n in (1, 2, 7):
        assert cover_counts([], n).tolist() == [0] * 2**n
        assert cover_counts(iter(()), n).tolist() == [0] * 2**n


def test_cover_counts_across_chunks():
    rng = random.Random(16)
    for n in (6, 7):
        masks = [rng.randrange(2**n) for _ in range(2 * boolcube._CUBE_CHUNK + 5)]
        cubes = [Subcube(n, m, rng.randrange(2**n) & m) for m in masks]
        expected = loop_counts(cubes, n).tolist()
        assert cover_counts(cubes, n).tolist() == expected
        assert cover_counts((c for c in cubes), n).tolist() == expected
