"""The cube vote by (mask, value) codes against the float-box vote of the
same subcube covers."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import boolcube
from carlab.boolcube import (
    BooleanAction,
    CubeSet,
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
from carlab.core import CarlabError, LearningSample, LearningSet
from carlab.lcpr import LDSet, LogicalDependency, classify_batch
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


def cube_set(cubes, n):
    """The CubeSet of some subcubes of the n-cube, as ``_cover`` makes one."""
    keys = np.unique(np.array([c.mask << n | c.value for c in cubes], np.int64))
    return CubeSet(n, keys >> n, keys & (1 << n) - 1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.lists(subcubes(n), max_size=12), subcubes(n))))
def test_cube_set_is_the_set_of_its_subcubes(case):
    n, cubes, other = case
    members, cubes = set(cubes), cube_set(cubes, n)
    assert cubes == members and members == cubes and not cubes != members
    assert list(cubes) == sorted(members, key=lambda c: (c.mask, c.value))
    assert len(cubes) == len(members) and cubes.masks.dtype == cubes.values.dtype == np.int64
    assert (other in cubes) == (other in members)
    assert all(c in cubes for c in members)
    assert Subcube(n + 1, 0, 0) not in cubes and "*" * n not in cubes
    assert set().union(cubes) == members and cubes | set() == members and cubes & members == members
    for array in (cubes.masks, cubes.values):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[:] = 0
    with pytest.raises(TypeError, match="unhashable"):
        hash(cubes)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(boolean_sets())
def test_covers_are_cube_sets_read_as_arrays(learning_set):
    rdnfs, n = multiclass_rdnf(learning_set), learning_set.n
    assert all(isinstance(cubes, CubeSet) and cubes.n == n for cubes in rdnfs.values())
    as_lists = {i: list(cubes) for i, cubes in rdnfs.items()}
    for cubes in rdnfs.values():
        assert cover_counts(cubes, n).tolist() == loop_counts(cubes, n).tolist()
    assert vote_vertices(rdnfs, n).counts.tolist() == vote_vertices(as_lists, n).counts.tolist()
    for pos, neg in ((rdnfs[0], rdnfs[1]), (cube_set([], n), rdnfs[1])):
        # n is read from a nonempty side; the partition is the one with n given.
        inferred, given_n = forall_exists_partition(pos, neg), forall_exists_partition(list(pos), iter(list(neg)), n=n)
        for name in ("forall_region", "exists_region", "uncovered"):
            assert np.array_equal(getattr(inferred, name), getattr(given_n, name)), name


@pytest.mark.parametrize("size", [6, 7, 8, 15, 22])
def test_cover_counts_of_a_cube_set_across_chunks(monkeypatch, size):
    """Chunks of 7 cubes: one short of a chunk, one chunk, past one, and
    past two."""
    monkeypatch.setattr(boolcube, "_CUBE_CHUNK", 7)
    rng, n = random.Random(size), 6
    cubes = set()
    while len(cubes) < size:
        mask = rng.randrange(2**n)
        cubes.add(Subcube(n, mask, rng.randrange(2**n) & mask))
    cubes = cube_set(cubes, n)
    assert len(cubes) == size and cover_counts(cubes, n).tolist() == loop_counts(cubes, n).tolist()


def test_cube_set_of_another_width_is_refused_by_name():
    wide = cube_set([cube("1*1"), cube("0*1")], 3)
    message = "dimension mismatch: subcube '0*1' for n=2"
    for call in (
        lambda: cover_counts(wide, 2),
        lambda: cover_counts(list(wide), 2),
        lambda: vote_vertices({0: cube_set([cube("0*")], 2), 1: wide}, 2),
        lambda: forall_exists_partition(cube_set([cube("0*")], 2), wide),
    ):
        with pytest.raises(CarlabError) as error:
            call()
        assert str(error.value) == message
    with pytest.raises(CarlabError, match="dimension unknown"):
        forall_exists_partition(cube_set([], 2), [])


def ldset_by_dependencies(rdnfs):
    """The box form of subcube covers, one LogicalDependency per cube:
    its fixed coordinates bounded to their bits on both sides."""
    bounds = lambda c: {k + 1: float(ch) for k, ch in enumerate(c.word) if ch != "*"}
    lds = lambda i: sorted((LogicalDependency(i, bounds(c), bounds(c)) for c in rdnfs[i]), key=LogicalDependency.key)
    return LDSet(by_class={i: lds(i) for i in rdnfs})


def assert_same_ldset(got, expected):
    assert got == expected
    assert (got.class_ids, got.sizes) == (expected.class_ids, expected.sizes)
    assert got.lower.shape == expected.lower.shape and got.upper.shape == expected.upper.shape
    assert np.array_equal(got.lower, expected.lower) and np.array_equal(got.upper, expected.upper)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(boolean_sets(), st.randoms())
def test_box_form_of_cube_sets_and_cube_lists(learning_set, rng):
    rdnfs = multiclass_rdnf(learning_set)
    expected = ldset_by_dependencies(rdnfs)
    assert_same_ldset(subcubes_to_ldset(rdnfs), expected)
    shuffled = {i: rng.sample(list(cubes), len(cubes)) for i, cubes in rdnfs.items()}
    assert_same_ldset(subcubes_to_ldset(shuffled), expected)


@pytest.mark.parametrize(
    "rdnfs",
    [{}, {0: []}, {0: [cube("***")]}, {3: [cube("*0*"), cube("1**")], 1: [cube("**1"), cube("0*0")], 2: []}],
    ids=["no-class", "empty-class", "free-cube", "unsorted-classes"],
)
def test_box_form_of_hand_made_covers(rdnfs):
    assert_same_ldset(subcubes_to_ldset(rdnfs), ldset_by_dependencies(rdnfs))
