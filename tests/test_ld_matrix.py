"""LD sets as bound matrices.

The canonical order and dedup of boxes are checked against a row-at-a-time
oracle over ``LogicalDependency.key``, the JSON reader's messages against
the ones it has always raised, and ``LDSet(by_class=...)`` against its
contract: members keep their given order, an empty class scores 0, and
``by_class`` stays a mapping of tuples.
"""

import copy
import json
import math
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import lcpr, synth
from carlab.core import CarlabError, LearningSample, LearningSet, load_learning_set
from carlab.lcpr import (
    LDSet,
    LogicalDependency,
    _REASONS,
    classify_batch,
    grow_maximal_ld,
    ldset_from_json,
    ldset_to_json,
    load_ldset,
    mine_lds,
    save_ldset,
    vote,
)

import oracles

INF = math.inf


def _written(lds) -> str:
    """The JSON text of LDs in order; json writes -0.0 and 0.0 apart."""
    return json.dumps(
        [
            {
                "class": ld.class_index,
                "lower": {str(j): v for j, v in sorted(ld.lower.items())},
                "upper": {str(j): v for j, v in sorted(ld.upper.items())},
            }
            for ld in lds
        ]
    )


def _canonical(rows) -> list:
    """Boxes given as (class, lower row, upper row), -inf / +inf for an open
    side, one at a time: the first of equal keys kept, then sorted by key."""
    seen, kept = set(), []
    for index, lower, upper in rows:
        ld = LogicalDependency(
            index,
            {j + 1: v for j, v in enumerate(lower) if v != -INF},
            {j + 1: v for j, v in enumerate(upper) if v != INF},
        )
        if ld.key() not in seen:
            seen.add(ld.key())
            kept.append(ld)
    return sorted(kept, key=LogicalDependency.key)


# Few values, so that equal bounds on a side are common; -0.0 beside 0.0.
_side = st.sampled_from([None, -1.5, 0.0, -0.0, 2.0, 3.0])


@st.composite
def box_rows(draw):
    """Rows of (class, lower, upper) at n = 1-5: a few distinct boxes, each
    drawn for several seeds, and a seed's zero bounds may carry either sign."""
    n = draw(st.integers(1, 5))
    classes = draw(st.integers(1, 3))
    distinct = []
    for _ in range(draw(st.integers(1, 6))):
        lower, upper = [], []
        for _ in range(n):
            lo, hi = draw(_side), draw(_side)
            if lo is not None and hi is not None and lo > hi:
                lo, hi = hi, lo
            lower.append(-INF if lo is None else lo)
            upper.append(INF if hi is None else hi)
        distinct.append((draw(st.integers(0, classes - 1)), lower, upper))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        index, lower, upper = draw(st.sampled_from(distinct))
        flip = draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n))
        signed = [-v if v == 0.0 and f else v for v, f in zip(lower + upper, flip)]
        rows.append((index, signed[:n], signed[n:]))
    return classes, rows


@settings(max_examples=300, deadline=None)
@given(box_rows())
def test_box_matrices_dedup_and_order_as_the_key_does(case):
    classes, rows = case
    n = len(rows[0][1]) if rows else 1
    codes = np.array([index for index, _, _ in rows], dtype=np.intp)
    lower = np.array([lo for _, lo, _ in rows], dtype=float).reshape(len(rows), n)
    upper = np.array([hi for _, _, hi in rows], dtype=float).reshape(len(rows), n)
    lds = lcpr._ldset(range(classes), *lcpr._by_key(codes, lower, upper, unique=True))
    expected = _canonical(rows)
    assert json.dumps(ldset_to_json(lds)) == _written(expected)
    assert lds.sizes == tuple(sum(ld.class_index == i for ld in expected) for i in range(classes))
    assert _written(lds.all_lds()) == _written(expected)


@st.composite
def learning_sets(draw):
    n = draw(st.integers(1, 3))
    classes = draw(st.integers(1, 3))
    values = st.sampled_from([-1.5, -0.0, 0.0, 2.0, 3.0])
    samples = []
    for k in range(draw(st.integers(classes, 12))):
        label = k if k < classes else draw(st.integers(0, classes - 1))
        samples.append(LearningSample(f"s{k}", tuple(draw(values) for _ in range(n)), label))
    return LearningSet.build(samples)


@settings(max_examples=150, deadline=None)
@given(learning_sets())
def test_mined_boxes_are_the_first_seeds_in_key_order(learning_set):
    """Each seed's box grown alone, kept for the first seed that grows it."""
    rows = []
    for seed in learning_set.samples:
        try:
            ld = grow_maximal_ld(seed, learning_set)
        except lcpr.UnseparableSeedError:
            continue
        box = oracles.box_of_ld(ld, learning_set.n)
        rows.append((seed.label, [lo for lo, _ in box], [hi for _, hi in box]))
    assert json.dumps(ldset_to_json(mine_lds(learning_set))) == _written(_canonical(rows))


def test_open_sides_order_as_the_key_does():
    # Open lower side on feature 1: the box bounding nothing comes first,
    # the one bounding only feature 1 next, the one bounding feature 2 last.
    lower = np.array([[-INF, 1.0], [1.0, -INF], [-INF, -INF], [1.0, 0.0]])
    lds = lcpr._ldset(range(1), *lcpr._by_key(np.zeros(4, np.intp), lower, np.full((4, 2), INF)))
    assert [ld.lower for ld in lds.all_lds()] == [{}, {1: 1.0}, {1: 1.0, 2: 0.0}, {2: 1.0}]


def _entry(**fields):
    return {"class": 0, "lower": {"1": 0.0}, "upper": {"1": 1.0}, **fields}


@pytest.mark.parametrize(
    "entry, message",
    [
        (_entry(lower={"1": True}), "lower must be a number, got True"),
        (_entry(upper={"1": "1"}), "upper must be a number, got '1'"),
        (_entry(lower={"01": 0.0}), "lower key must be a decimal integer, got '01'"),
        (_entry(lower={"0": 0.0}), "feature index 0 out of range"),
        (_entry(upper={"-1": 1.0}), "upper key must be a decimal integer, got '-1'"),
        (_entry(lower={"2": 3.0}, upper={"2": 1.0}), r"empty box on feature 2: \[3.0, 1.0\]"),
        ({"lower": {"1": 0.0}, "upper": {}}, "missing key 'class'"),
        (_entry(lower=[0.0]), "'list' object has no attribute 'items'"),
        (_entry(lower={"1": True}, upper={"01": 1.0}, **{"class": -1.5}), "lower must be a number, got True"),
        (_entry(upper={"01": 1.0}, **{"class": "0"}), "upper key must be a decimal integer, got '01'"),
        (_entry(lower={"0": 2.0}, **{"class": "0"}), "class must be an integer, got '0'"),
    ],
    ids=["bool-bound", "string-bound", "key-01", "key-0", "key-minus-1", "lower-above-upper", "no-class",
         "lower-not-object", "lower-before-upper-and-class", "upper-before-class", "class-before-checks"],
)
def test_the_first_bad_entry_raises_its_message(tmp_path, entry, message):
    path = tmp_path / "lds.json"
    path.write_text(json.dumps([_entry(), entry, {"class": "bad"}]))
    with pytest.raises(CarlabError, match=f"^{re.escape(str(path))}: {message}$"):
        load_ldset(path)


def test_a_nan_bound_is_refused_after_the_earlier_checks():
    with pytest.raises(CarlabError, match="^NaN bound on feature 1$"):
        ldset_from_json([_entry(lower={"1": math.nan}, upper={"0": 1.0})])
    with pytest.raises(CarlabError, match="^feature index 0 out of range$"):
        ldset_from_json([_entry(lower={"0": math.nan})])
    with pytest.raises(CarlabError, match="^NaN bound on feature 2$"):
        ldset_from_json([_entry(lower={"2": 3.0}, upper={"2": math.nan, "1": -1.0})])


def test_a_far_feature_without_n_is_refused_by_its_index(tmp_path):
    # Without n the bound matrices are as wide as the largest index named.
    message = "feature index 1000000000000 out of range: no memory for bound matrices that wide"
    with pytest.raises(CarlabError, match=f"^{message}$"):
        ldset_from_json([{"class": 0, "lower": {"1000000000000": 0.5}}])
    path = tmp_path / "lds.json"
    path.write_text(json.dumps([_entry(), _entry(upper={"100000000000000000000": 1.0})]))
    with pytest.raises(CarlabError, match=f"^{re.escape(str(path))}: feature index 100000000000000000000 out of range"):
        load_ldset(path)


def test_a_negative_class_is_refused_wherever_a_set_is_made():
    # -1 is the vote's abstention code, so no class may have it.
    with pytest.raises(CarlabError, match="^negative class index -1$"):
        ldset_from_json([_entry(**{"class": -1}), _entry(**{"class": 2})])
    with pytest.raises(CarlabError, match="^negative class index -3$"):
        LDSet(by_class={0: (), -3: (LogicalDependency(-3, {}, {}),)})


def test_members_keep_their_given_order():
    members = (
        LogicalDependency(1, {2: 1.0}, {}),
        LogicalDependency(1, {1: 5.0}, {1: 6.0}),
        LogicalDependency(1, {}, {}),
    )
    assert sorted(members, key=LogicalDependency.key) != list(members)
    lds = LDSet(by_class={1: members, 0: (LogicalDependency(0, {}, {1: 0.0}),)})
    assert list(lds.all_lds())[1:] == list(members)
    assert [entry["lower"] for entry in ldset_to_json(lds)] == [{}, {"2": 1.0}, {"1": 5.0}, {}]
    assert lds.lower[1:].tolist() == [[-INF, 1.0], [5.0, -INF], [-INF, -INF]]
    rows = [(5.5, 1.0), (0.0, 0.0), (-1.0, 2.0)]
    batch = classify_batch(rows, lds)
    for k, x in enumerate(rows):
        label, reason, exact = oracles.vote_oracle(x, lds)
        assert (batch.labels[k], _REASONS[batch.reasons[k]]) == (-1 if label is None else label, reason)
        assert batch.counts[k].tolist() == [exact[0] * 1, exact[1] * 3]


def test_an_empty_class_scores_zero_wherever_it_sits():
    inside = LogicalDependency(0, {1: 0.0}, {})
    for by_class in (
        {0: (), 1: (inside,), 2: ()},
        {0: (inside,), 1: (), 2: (inside, inside)},
        {0: (), 1: (), 2: (inside,)},
    ):
        lds = LDSet(by_class=by_class)
        batch = classify_batch([(1.0,), (-1.0,)], lds)
        assert batch.sizes == tuple(len(m) for m in by_class.values())
        assert batch.counts.tolist() == [[len(m) for m in by_class.values()], [0, 0, 0]]
        assert batch.scores(0).tolist() == [1.0 if m else 0.0 for m in by_class.values()]
    # Size 0 counts as 1 in the exact comparison, so 0 of 0 never wins.
    batch = vote((0, 1), (0, 2), np.array([[0, 1], [0, 0]]))
    assert batch.labels.tolist() == [1, -1]
    assert [_REASONS[r] for r in batch.reasons] == [None, "all-zero"]


def test_by_class_counts_as_the_benchmark_counts_it(tmp_path):
    root = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(root))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(root))
    real_loop = workloads.WORKLOADS["real-loop"]
    real_loop.generate(workloads.workload_rng("real-loop", 1), tmp_path, real_loop.sizes)
    lds = mine_lds(load_learning_set(tmp_path / "train.csv"))
    assert all(type(members) is tuple for members in lds.by_class.values())
    assert spans._total_lds(lds) == 229 == len(lds.lower)
    with pytest.raises(TypeError):
        lds.by_class[0] = ()
    with pytest.raises(ValueError):
        lds.lower[0, 0] = 0.0


def test_sets_compare_by_their_rules_and_warnings(tmp_path):
    mined = mine_lds(synth.contracting_instance(deviated_count=3)[0])
    assert not mined.warnings and all(mined.by_class.values())
    save_ldset(mined, tmp_path / "lds.json")
    assert load_ldset(tmp_path / "lds.json") == mined
    assert LDSet(by_class=mined.by_class) == mined
    assert LDSet(by_class=mined.by_class, warnings=("w",)) != mined
    assert LDSet(by_class={**mined.by_class, 0: mined.by_class[0][1:]}) != mined
    for copied in (pickle.loads(pickle.dumps(mined)), copy.deepcopy(mined)):
        assert copied == mined and not copied.lower.flags.writeable
        assert json.dumps(ldset_to_json(copied)) == json.dumps(ldset_to_json(mined))
