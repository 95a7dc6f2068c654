"""The compiled voting kernel against an independent exact oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import synth
from carlab.boolcube import all_vertices
from carlab.carsim import register_actions, run_car
from carlab.core import CarlabError
from carlab.lcpr import (
    LDSet,
    LogicalDependency,
    _CHUNK_CELLS,
    _REASONS,
    classify,
    classify_batch,
    ld_classifier,
    mine_lds,
)

import oracles
from conftest import cube


def ld(class_index, lower=None, upper=None):
    return LogicalDependency(
        class_index=class_index, lower=lower or {}, upper=upper or {}
    )


def assert_matches_oracle(rows, lds):
    batch = classify_batch(rows, lds)
    assert batch.labels.shape == batch.reasons.shape == (len(rows),)
    assert (batch.labels.dtype, batch.reasons.dtype) == (np.int64, np.int8)
    for k, x in enumerate(rows):
        label, reason, exact = oracles.vote_oracle(x, lds)
        single = classify(x, lds)
        for outcome in (single, batch.outcome(k)):
            assert (outcome.label, outcome.reason) == (label, reason)
            assert outcome.scores == {i: float(v) for i, v in exact.items()}
        assert (batch.labels[k], _REASONS[batch.reasons[k]]) == (-1 if label is None else label, reason)
        for c, i in enumerate(batch.classes):
            size = len(lds.by_class[i])
            assert batch.sizes[c] == size
            assert batch.counts[k, c] == exact[i] * size


# Integer bounds on a small grid make shared faces and exact ties common.
_bound = st.one_of(st.none(), st.integers(0, 4))


@st.composite
def ldsets(draw, n):
    by_class = {}
    for index in range(draw(st.integers(1, 4))):
        members = []
        for _ in range(draw(st.integers(0, 5))):
            lower, upper = {}, {}
            for j in range(1, n + 1):
                lo, hi = draw(_bound), draw(_bound)
                if lo is not None and hi is not None and lo > hi:
                    lo, hi = hi, lo
                if lo is not None:
                    lower[j] = float(lo)
                if hi is not None:
                    upper[j] = float(hi)
            members.append(ld(index, lower, upper))
        by_class[index] = tuple(members)
    return LDSet(by_class=by_class)


@st.composite
def voting_cases(draw):
    n = draw(st.integers(1, 3))
    lds = draw(ldsets(n))
    point = st.tuples(*[st.integers(-1, 5).map(float)] * n)
    return lds, draw(st.lists(point, min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(voting_cases())
def test_kernel_matches_exact_oracle(case):
    lds, rows = case
    assert_matches_oracle(rows, lds)


class TestExactVoting:
    def test_tie_across_denominators(self):
        # 1/2 for class 0 against 2/4 for class 1: equal, so tied.
        lds = LDSet(
            by_class={
                0: (ld(0, upper={1: 1.0}), ld(0, lower={1: 5.0})),
                1: (
                    ld(1, upper={1: 1.0}),
                    ld(1, upper={1: 2.0}),
                    ld(1, lower={1: 5.0}),
                    ld(1, lower={1: 6.0}),
                ),
            }
        )
        out = classify((0.0,), lds)
        assert (out.label, out.reason) == (None, "tied")
        assert out.scores == {0: 0.5, 1: 0.5}
        assert_matches_oracle([(0.0,), (1.5,), (3.0,), (5.5,)], lds)

    def test_empty_class_and_all_zero_rows(self):
        lds = LDSet(by_class={0: (), 1: (ld(1, lower={1: 2.0}),), 2: ()})
        out = classify((0.0,), lds)
        assert (out.label, out.reason) == (None, "all-zero")
        assert out.scores == {0: 0.0, 1: 0.0, 2: 0.0}
        assert classify((3.0,), lds).label == 1
        assert_matches_oracle([(0.0,), (2.0,), (3.0,)], lds)

    def test_no_classes_is_all_zero(self):
        out = classify((1.0,), LDSet(by_class={}))
        assert (out.label, out.reason, out.scores) == (None, "all-zero", {})

    def test_points_on_box_faces_are_inside(self):
        lds = LDSet(
            by_class={
                0: (ld(0, lower={1: 0.0, 2: 0.0}, upper={1: 1.0, 2: 1.0}),),
                1: (ld(1, lower={1: 1.0}, upper={2: 0.0}),),
            }
        )
        rows = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (2.0, 0.0), (1.0, -1.0)]
        assert [classify(x, lds).reason for x in rows[:3]] == [None, None, "tied"]
        assert_matches_oracle(rows, lds)

    def test_rows_beyond_one_chunk(self):
        rng = synth.default_rng(21)
        learning_set = synth.random_learning_set(rng, n=2, classes=3, m=60)
        lds = mine_lds(learning_set)
        total_lds = sum(len(v) for v in lds.by_class.values())
        rows = [
            (rng.uniform(-1, 11), rng.uniform(-1, 11))
            for _ in range(3 * (_CHUNK_CELLS // total_lds) + 7)
        ]
        rows += [s.features for s in learning_set.samples]
        assert_matches_oracle(rows, lds)

    def test_subcube_mask_value(self):
        c = cube("1*0*")
        assert (c.n, c.mask, c.value) == (4, 0b1010, 0b1000)
        for code, vertex in enumerate(all_vertices(4)):
            assert (code & c.mask == c.value) == c.contains(vertex)


class TestBadInput:
    lds = LDSet(by_class={0: (ld(0, upper={2: 1.0}),), 1: (ld(1, lower={2: 2.0}),)})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_rejected(self, value):
        with pytest.raises(CarlabError, match="non-finite"):
            classify((0.0, value), self.lds)
        with pytest.raises(CarlabError, match="row 1"):
            classify_batch([(0.0, 0.0), (value, 0.0)], self.lds)

    def test_feature_index_out_of_range(self):
        with pytest.raises(CarlabError, match="out of range"):
            classify((0.0,), self.lds)
        with pytest.raises(CarlabError, match="out of range"):
            classify_batch(np.zeros((3, 1)), self.lds)

    def test_empty_batch(self):
        batch = classify_batch([], self.lds)
        assert batch.labels.shape == batch.reasons.shape == (0,) and batch.counts.shape == (0, 2)


@pytest.mark.parametrize("seed", [3, 4])
def test_run_car_batch_matches_per_row_classifier(seed):
    rng = synth.default_rng(seed)
    learning_set = synth.random_learning_set(rng, n=2, classes=3, m=40)
    lds = mine_lds(learning_set)
    _, specs, _ = synth.contracting_instance(deviated_count=2)
    actions = register_actions(specs, learning_set.deviated_count)
    batched = run_car(learning_set.samples, ld_classifier(lds), actions, 6)
    per_row = run_car(
        learning_set.samples, lambda x: classify(x, lds), actions, 6
    )
    assert batched == per_row
    assert any(batched.converged.values()) and batched.stalls
