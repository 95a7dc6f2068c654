import pytest
from hypothesis import given, strategies as st

from carlab.core import CarlabError, LearningSample, LearningSet
from carlab.lcpr import (
    LDSet,
    LogicalDependency,
    UnseparableSeedError,
    classify,
    eval_ld,
    grow_maximal_ld,
    is_admissible,
    indeterminateness_areas,
    ld_overlap,
    ldset_from_json,
    ldset_to_json,
    mine_lds,
    similarity,
)
from carlab import synth

import oracles


def ld(class_index=0, lower=None, upper=None):
    return LogicalDependency(
        class_index=class_index, lower=lower or {}, upper=upper or {}
    )


class TestEvalLd:
    def test_inside(self):
        assert eval_ld(ld(lower={1: 2.0}, upper={1: 5.0}), (3.0,)) == 1

    def test_upper_violated(self):
        assert eval_ld(ld(lower={1: 2.0}, upper={1: 5.0}), (6.0,)) == 0

    def test_boundary_is_closed(self):
        box = ld(lower={1: 2.0}, upper={1: 5.0})
        assert eval_ld(box, (2.0,)) == 1
        assert eval_ld(box, (5.0,)) == 1

    def test_empty_conjunction_is_true(self):
        assert eval_ld(ld(), (42.0, -1.0)) == 1

    def test_index_out_of_range(self):
        with pytest.raises(Exception, match="out of range"):
            eval_ld(ld(lower={3: 1.0}), (1.0,))


class TestAdmissibility:
    def test_single_point_rule(self, two_band_set):
        box = ld(class_index=0, lower={1: 2.0}, upper={1: 2.0})
        res = is_admissible(box, two_band_set, budget=0)
        assert res.admissible and res.own_covered == 1 and res.counter_covered == 0

    def test_unbounded_rule_covers_counter(self, two_band_set):
        box = ld(class_index=0)
        res = is_admissible(box, two_band_set, budget=0)
        assert not res.admissible
        assert res.counter_covered == 1

    def test_budget_allows_violations(self, two_band_set):
        box = ld(class_index=0)
        assert is_admissible(box, two_band_set, budget=1).admissible


class TestGrowMaximal:
    def test_one_dimensional_band(self, two_band_set):
        grown = grow_maximal_ld(two_band_set.samples[0], two_band_set)
        assert grown.lower == {} and grown.upper == {1: 4.0}

    def test_nothing_to_exclude(self):
        ls = LearningSet.build([LearningSample("a", (2.0,), 0)], mode="real")
        grown = grow_maximal_ld(ls.samples[0], ls)
        assert grown.lower == {} and grown.upper == {}

    def test_corner_vs_corner(self, corner_set):
        grown = grow_maximal_ld(corner_set.samples[0], corner_set)
        # relaxation order: feature 1 bounds drop first, leaving x2 <= 0
        assert grown.lower == {} and grown.upper == {2: 0.0}

    def test_result_is_oracle_maximal(self, corner_set):
        grown = grow_maximal_ld(corner_set.samples[0], corner_set)
        points = [s.features for s in corner_set.samples]
        labels = [s.label for s in corner_set.samples]
        maximal = oracles.enumerate_maximal_boxes(points, labels, class_index=0)
        assert oracles.box_of_ld(grown, corner_set.n) in maximal

    def test_unseparable_seed(self):
        ls = LearningSet.build(
            [LearningSample("a", (1.0,), 0), LearningSample("b", (1.0,), 1)],
            mode="real",
        )
        with pytest.raises(UnseparableSeedError):
            grow_maximal_ld(ls.samples[0], ls)

    def test_seed_of_other_width_rejected(self, two_band_set):
        with pytest.raises(CarlabError, match="seed 'z' has 2 features, expected 1"):
            grow_maximal_ld(LearningSample("z", (1.0, 2.0), 0), two_band_set)

    def test_budget_absorbs_coincident_counter(self):
        ls = LearningSet.build(
            [LearningSample("a", (1.0,), 0), LearningSample("b", (1.0,), 1)],
            mode="real",
        )
        grown = grow_maximal_ld(ls.samples[0], ls, budget=1)
        assert grown.lower == {} and grown.upper == {}


class TestMineLds:
    def test_two_singletons(self):
        ls = LearningSet.build(
            [LearningSample("a", (0.0,), 0), LearningSample("b", (10.0,), 1)],
            mode="real",
        )
        lds = mine_lds(ls)
        assert [x.upper for x in lds.by_class[0]] == [{1: 0.0}]
        assert [x.lower for x in lds.by_class[1]] == [{1: 10.0}]

    def test_duplicate_point_in_two_classes_warns(self):
        ls = LearningSet.build(
            [LearningSample("a", (1.0,), 0), LearningSample("b", (1.0,), 1)],
            mode="real",
        )
        lds = mine_lds(ls)
        assert len(lds.warnings) == 2
        assert not lds.by_class[0] and not lds.by_class[1]

    def test_all_mined_lds_admissible(self):
        rng = synth.default_rng(7)
        ls = synth.random_learning_set(rng, n=3, classes=3, m=30)
        lds = mine_lds(ls)
        for box in lds.all_lds():
            res = is_admissible(box, ls, budget=0)
            assert res.admissible, box

    def test_every_training_point_covered(self):
        rng = synth.default_rng(8)
        ls = synth.random_learning_set(rng, n=2, classes=2, m=20)
        lds = mine_lds(ls)
        for s in ls.samples:
            assert similarity(s.features, lds, s.label) > 0.0

    def test_mined_boxes_are_oracle_maximal(self):
        rng = synth.default_rng(9)
        ls = synth.random_learning_set(
            rng, n=2, classes=2, m=8, grid=(0.0, 1.0, 2.0, 3.0)
        )
        lds = mine_lds(ls)
        points = [s.features for s in ls.samples]
        labels = [s.label for s in ls.samples]
        for index in (0, 1):
            maximal = oracles.enumerate_maximal_boxes(points, labels, index)
            for box in lds.by_class[index]:
                assert oracles.box_of_ld(box, ls.n) in maximal

    def test_single_bound_relaxation_breaks_admissibility(self):
        rng = synth.default_rng(10)
        ls = synth.random_learning_set(rng, n=3, classes=3, m=25)
        lds = mine_lds(ls)
        for box in lds.all_lds():
            assert_relaxations_blocked(box, ls)


def assert_relaxations_blocked(box, ls):
    """Every adjacent-grid relaxation or bound removal must admit a counter."""
    grids = {
        j: sorted({s.features[j - 1] for s in ls.samples})
        for j in range(1, ls.n + 1)
    }
    for j, lo in box.lower.items():
        below = [v for v in grids[j] if v < lo]
        candidates = []
        if below:
            stepped = dict(box.lower)
            stepped[j] = below[-1]
            candidates.append(stepped)
        dropped = dict(box.lower)
        dropped.pop(j)
        candidates.append(dropped)
        for lower in candidates:
            relaxed = LogicalDependency(box.class_index, lower, dict(box.upper))
            assert not is_admissible(relaxed, ls, budget=0).admissible
    for j, hi in box.upper.items():
        above = [v for v in grids[j] if v > hi]
        candidates = []
        if above:
            stepped = dict(box.upper)
            stepped[j] = above[0]
            candidates.append(stepped)
        dropped = dict(box.upper)
        dropped.pop(j)
        candidates.append(dropped)
        for upper in candidates:
            relaxed = LogicalDependency(box.class_index, dict(box.lower), upper)
            assert not is_admissible(relaxed, ls, budget=0).admissible


class TestSimilarityAndClassify:
    def make_ldset(self):
        return LDSet(
            by_class={
                0: (ld(0, upper={1: 0.0}),),
                1: (
                    ld(1, lower={1: 1.0}),
                    ld(1, lower={1: 2.0}),
                    ld(1, lower={1: 5.0}),
                    ld(1, lower={1: 9.0}),
                ),
            }
        )

    def test_no_rule_covers(self):
        lds = self.make_ldset()
        assert similarity((0.5,), lds, 1) == 0.0

    def test_quarter_coverage(self):
        lds = self.make_ldset()
        assert similarity((1.5,), lds, 1) == 0.25

    def test_full_coverage(self):
        lds = self.make_ldset()
        assert similarity((9.5,), lds, 1) == 1.0

    def test_unique_positive_max(self):
        lds = self.make_ldset()
        out = classify((3.0,), lds)
        assert out.label == 1 and out.reason is None

    def test_tie_reported(self):
        lds = LDSet(
            by_class={0: (ld(0, upper={1: 5.0}),), 1: (ld(1, upper={1: 5.0}),)}
        )
        out = classify((1.0,), lds)
        assert out.label is None and out.reason == "tied"

    def test_all_zero_reported(self):
        lds = self.make_ldset()
        out = classify((0.5,), lds)
        assert out.label is None and out.reason == "all-zero"

    def test_empty_class_scores_zero(self):
        lds = LDSet(by_class={0: (), 1: (ld(1, lower={1: 0.0}),)})
        assert similarity((1.0,), lds, 0) == 0.0

    def test_monotone_in_added_rule(self):
        lds = self.make_ldset()
        x = (1.5,)
        before = similarity(x, lds, 1)
        extended = LDSet(
            by_class={0: lds.by_class[0], 1: lds.by_class[1] + (ld(1),)}
        )
        assert similarity(x, extended, 1) >= before

    def test_argmax_invariant_under_rescaling(self):
        lds = self.make_ldset()
        for x in [(0.5,), (-1.0,), (3.0,), (9.5,)]:
            out = classify(x, lds)
            scores = {i: similarity(x, lds, i) for i in lds.class_ids}
            for scale in (0.5, 3.0, 117.0):
                scaled = {i: scale * v for i, v in scores.items()}
                best = max(scaled.values())
                winners = [i for i, v in scaled.items() if v == best]
                if best <= 0.0:
                    assert out.label is None
                elif len(winners) > 1:
                    assert out.label is None and out.reason == "tied"
                else:
                    assert out.label == winners[0]


class TestOverlap:
    def test_interval_intersection(self):
        a = ld(0, lower={1: 2.0}, upper={1: 5.0})
        b = ld(1, lower={1: 4.0}, upper={1: 9.0})
        assert ld_overlap(a, b) == ({1: 4.0}, {1: 5.0})

    def test_disjoint(self):
        a = ld(0, lower={1: 2.0}, upper={1: 3.0})
        b = ld(1, lower={1: 4.0}, upper={1: 9.0})
        assert ld_overlap(a, b) is None

    def test_unbounded_returns_other(self):
        b = ld(1, lower={1: 4.0, 2: 0.0}, upper={1: 9.0})
        assert ld_overlap(ld(0), b) == (b.lower, b.upper)

    def test_overlap_iff_both_scores_positive(self):
        rng = synth.default_rng(11)
        ls = synth.random_learning_set(rng, n=2, classes=2, m=15)
        lds = mine_lds(ls)
        areas = indeterminateness_areas(lds)
        probe = [s.features for s in ls.samples] + [
            (rng.uniform(-1, 11), rng.uniform(-1, 11)) for _ in range(50)
        ]
        for x in probe:
            in_overlap = any(
                eval_ld(ld(0, lower=lo, upper=hi), x) for _, _, lo, hi in areas
            )
            both_positive = (
                similarity(x, lds, 0) > 0 and similarity(x, lds, 1) > 0
            )
            assert in_overlap == both_positive


def test_gamma_bounds_property():
    rng = synth.default_rng(12)
    for _ in range(20):
        ls = synth.random_learning_set(rng, n=2, classes=3, m=20)
        lds = mine_lds(ls)
        for _ in range(10):
            x = (rng.uniform(-2, 12), rng.uniform(-2, 12))
            for i in lds.class_ids:
                assert 0.0 <= similarity(x, lds, i) <= 1.0


def test_ldset_json_round_trip():
    rng = synth.default_rng(13)
    ls = synth.random_learning_set(rng, n=2, classes=2, m=12)
    lds = mine_lds(ls)
    again = ldset_from_json(ldset_to_json(lds))
    assert {i: v for i, v in again.by_class.items() if v} == {
        i: v for i, v in lds.by_class.items() if v
    }


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_nan_bound_rejected(side):
    with pytest.raises(CarlabError, match="NaN bound on feature 2"):
        ld(**{side: {1: 0.0, 2: float("nan")}})


def test_mining_config_validation():
    ls = LearningSet.build([LearningSample("a", (1.0,), 0), LearningSample("b", (2.0,), 1)])
    with pytest.raises(CarlabError, match="violation_budget must be >= 0"):
        mine_lds(ls, budget=-1)
    with pytest.raises(CarlabError, match="violation_budget must be >= 0"):
        grow_maximal_ld(ls.samples[0], ls, budget=-1)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=4))
def test_empty_ld_covers_everything(coords):
    assert eval_ld(ld(), tuple(coords)) == 1
