"""The packed subset-lattice closure behind ``reduced_dnf`` against the
brute-force oracle, ``multiclass_rdnf`` against the per-class covers of
``reduced_dnf``, and ``code_words`` against ``format``."""

import functools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import boolcube, synth
from carlab.boolcube import (
    PartialBooleanFunction,
    Subcube,
    code_words,
    multiclass_rdnf,
    reduced_dnf,
)
from carlab.core import CarlabError, LearningSample, LearningSet

import oracles


def pbf(n, pos, neg):
    return PartialBooleanFunction(n=n, positives=frozenset(pos), negatives=frozenset(neg))


space = functools.cache(oracles.SubcubeSpace)


@pytest.mark.parametrize("n", range(1, 9))  # part of a word, one word, several words
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_reduced_dnf_matches_brute_force(n, data):
    codes = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=min(2**n, 10), unique=True))
    split = data.draw(st.integers(0, len(codes)))
    words = [format(code, f"0{n}b") for code in codes]
    pos, neg = words[:split], words[split:]
    got = {c.word for c in reduced_dnf(pbf(n, pos, neg))}
    assert got == oracles.brute_force_rdnf(space(n), pos, neg)


@pytest.mark.parametrize("n", [1, 5, 6, 7, 12, 20])
def test_no_negatives_give_the_whole_cube(n):
    for positives in (["0" * n], ["1" * n, "0" * n]):
        assert reduced_dnf(pbf(n, positives, [])) == {Subcube(n, 0, 0)}


@pytest.mark.parametrize("n", [1, 5, 6, 7, 12])
def test_a_single_positive_against_its_complement(n):
    """The positive 0...0 and the negative 1...1 differ everywhere: the
    maximal cubes fix one coordinate to 0 each."""
    cubes = reduced_dnf(pbf(n, ["0" * n], ["1" * n]))
    assert {c.word for c in cubes} == {"*" * k + "0" + "*" * (n - 1 - k) for k in range(n)}


def _learning_set(n, classes):
    samples = [
        LearningSample(f"v{k}", tuple(float(b) for b in word), label)
        for k, (word, label) in enumerate((w, label) for label, words in enumerate(classes) for w in words)
    ]
    return LearningSet.build(samples, mode="boolean")


def _per_class(learning_set):
    """The covers ``multiclass_rdnf`` must give: one ``reduced_dnf`` per
    class, on the class's words against every other class's."""
    words = [
        {"".join(str(int(v)) for v in row) for row in learning_set.X[learning_set.labels == i].tolist()}
        for i in range(learning_set.deviated_count + 1)
    ]
    rest = lambda i: set().union(*(w for j, w in enumerate(words) if j != i))
    return {i: reduced_dnf(pbf(learning_set.n, w, rest(i))) for i, w in enumerate(words)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_multiclass_rdnf_is_the_per_class_reduced_dnf(data):
    n = data.draw(st.integers(1, 9))
    classes = data.draw(st.integers(2, min(4, 2**n)))
    per_class = data.draw(st.integers(1, min(5, 2**n // classes)))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    learning_set = synth.random_boolean_learning_set(rng, n, classes, per_class)
    assert multiclass_rdnf(learning_set) == _per_class(learning_set)


def test_duplicate_points_within_a_class_count_once():
    single = _learning_set(3, [["000", "011"], ["111"]])
    repeated = _learning_set(3, [["000", "011", "000", "011"], ["111", "111"]])
    assert multiclass_rdnf(repeated) == multiclass_rdnf(single) == _per_class(single)


def test_repeated_rows_reach_the_closure_once(monkeypatch):
    """A dataset emitted by ``simulate`` repeats states row after row: the
    closure gets each code once per side, so its work follows the vertex
    count, not the row count."""
    learning_set = _learning_set(4, [["0000", "0110"] * 50, ["1011", "1100", "0111"] * 40])
    expected = _per_class(learning_set)
    sides = []
    cover = boolcube._cover
    monkeypatch.setattr(boolcube, "_cover", lambda p, q, n: sides.extend([p, q]) or cover(p, q, n))
    assert multiclass_rdnf(learning_set) == expected
    assert [len(side) for side in sides] == [2, 3, 3, 2]
    assert all(np.array_equal(side, np.unique(side)) for side in sides)


def test_the_closure_of_a_dense_truth_table_stays_small():
    """Every vertex of the 12-cube, a third of them positive: a chunk of the
    closure marks at most about 2^17 (positive, negative) pairs, not the
    3.7M pairs of all 1366 positives at once (143 MiB of scratch)."""
    codes = np.arange(1 << 12)
    positive = codes % 3 == 0
    tracemalloc.start()
    try:
        cubes = boolcube._cover(codes[positive], codes[~positive], 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cubes and peak < 32 << 20


@pytest.mark.parametrize(
    "classes, named",
    [
        ([["01", "10"], ["01", "11"], ["10"]], 0),
        ([["00"], ["01", "11"], ["11", "01"]], 1),
        ([["0000", "0101", "0110", "1001", "1111"], ["1111", "1001", "0110", "0101"]], 0),  # more than three
    ],
    ids=["class-0", "later-class", "first-three"],
)
def test_a_vertex_in_two_classes_raises_the_overlap_error(classes, named):
    """The first class that shares a vertex is named with the error
    ``PartialBooleanFunction`` raises for its words and the rest."""
    n = len(classes[0][0])
    rest = set().union(*(words for i, words in enumerate(classes) if i != named))
    with pytest.raises(CarlabError) as expected:
        pbf(n, classes[named], rest)
    with pytest.raises(CarlabError) as got:
        multiclass_rdnf(_learning_set(n, classes))
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("positives and negatives overlap on [")


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_code_words_are_the_words_of_the_codes(n):
    codes = np.unique(np.random.default_rng(n).integers(0, 2**n, 50))
    words = code_words(codes, n)
    assert words.dtype == np.dtype(f"S{n}") and words.shape == codes.shape
    assert [w.decode() for w in words.tolist()] == [format(c, f"0{n}b") for c in codes.tolist()]
    assert code_words(np.zeros(0, np.int64), n).shape == (0,)
