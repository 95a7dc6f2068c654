"""Relations the cube vote must keep at sizes the brute-force oracles
cannot reach (n = 12-16), and one that mining must keep on noisy real
data: they follow from the definitions, so no oracle is needed."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from carlab import synth
from carlab.boolcube import multiclass_rdnf, vote_vertices
from carlab.core import LearningSample, LearningSet
from carlab.lcpr import ldset_to_json, mine_lds


def code_of(sample):
    return int("".join(str(int(x)) for x in sample.features), 2)


def relabel(learning_set, vertex=lambda v: v, label=lambda c: c):
    """The learning set with every point moved by ``vertex`` (a code map)
    and every class renamed by ``label``."""
    n = learning_set.n
    samples = [
        LearningSample(
            s.object_id,
            tuple(float(vertex(code_of(s)) >> (n - 1 - j) & 1) for j in range(n)),
            label(s.label),
        )
        for s in learning_set.samples
    ]
    return LearningSet.build(samples, mode="boolean")


def votes_of(learning_set):
    return vote_vertices(multiclass_rdnf(learning_set), learning_set.n)


@st.composite
def automorphisms(draw):
    """A cube automorphism: complement the bits of ``flip``, then move the
    bit at position i (0 = high bit) to position ``perm[i]``."""
    n = draw(st.integers(12, 16))
    perm, flip = draw(st.permutations(range(n))), draw(st.integers(0, 2**n - 1))
    codes = np.arange(1 << n) ^ flip
    image = np.zeros_like(codes)
    for i, j in enumerate(perm):
        image |= (codes >> (n - 1 - i) & 1) << (n - 1 - j)
    return n, image


@settings(max_examples=6, deadline=None)
@given(automorphisms(), st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_cube_automorphism_moves_the_vote(automorphism, seed, per_class):
    n, image = automorphism
    base = synth.random_boolean_learning_set(synth.default_rng(seed), n, 3, per_class)
    before = votes_of(base)
    after = votes_of(relabel(base, vertex=lambda v: int(image[v])))
    assert before.sizes == after.sizes
    assert np.array_equal(after.counts[image], before.counts)
    assert np.array_equal(after.labels[image], before.labels)
    assert np.array_equal(after.reasons[image], before.reasons)


@settings(max_examples=6, deadline=None)
@given(st.integers(12, 16), st.integers(0, 2**32 - 1), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
def test_renaming_deviated_classes_swaps_their_columns(n, seed, pair):
    a, b = pair
    swap = lambda c: {a: b, b: a}.get(c, c)
    base = synth.random_boolean_learning_set(synth.default_rng(seed), n, 4, 2)
    before, after = votes_of(base), votes_of(relabel(base, label=swap))
    columns = [swap(c) for c in range(4)]
    assert after.sizes == tuple(before.sizes[c] for c in columns)
    assert np.array_equal(after.counts, before.counts[:, columns])
    assert after.labels.tolist() == [swap(c) for c in before.labels.tolist()]  # -1 stays -1
    # Every tie stays a tie, and every all-zero row stays all-zero.
    assert np.array_equal(after.reasons, before.reasons)


@st.composite
def noisy_learning_sets(draw):
    """Points on a coarse grid with random labels, so points repeat within
    and across classes and some seeds cannot be separated."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(3, 60))
    grid = st.sampled_from([0.0, 1.0, 2.5, 3.0, 4.0, 7.5])
    points = draw(st.lists(st.tuples(*[grid] * n), min_size=m, max_size=m))
    labels = [0, 1, 2] + draw(st.lists(st.integers(0, 2), min_size=m - 3, max_size=m - 3))
    return LearningSet.build([LearningSample(f"s{k:02d}", x, c) for k, (x, c) in enumerate(zip(points, labels))])


@settings(max_examples=40, deadline=None)
@given(noisy_learning_sets(), st.integers(0, 2), st.data())
def test_row_order_leaves_the_mined_lds_unchanged(learning_set, budget, data):
    order = data.draw(st.permutations(range(learning_set.m)))
    shuffled = LearningSet.build([learning_set.samples[k] for k in order])
    before, after = mine_lds(learning_set, budget), mine_lds(shuffled, budget)
    assert json.dumps(ldset_to_json(after)) == json.dumps(ldset_to_json(before))
    assert sorted(after.warnings) == sorted(before.warnings)
