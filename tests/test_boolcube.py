import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab.core import CarlabError, LearningSample, LearningSet
from carlab.boolcube import (
    BooleanAction,
    PartialBooleanFunction,
    Subcube,
    all_vertices,
    backward_reach,
    cover_counts,
    forall_exists_partition,
    multiclass_rdnf,
    reduced_dnf,
    subcube_cover,
    subcubes_to_ldset,
    vote_vertices,
)
from carlab import synth
from carlab.lcpr import classify

import oracles
from conftest import cube


def pbf(n, pos, neg):
    return PartialBooleanFunction(n=n, positives=frozenset(pos), negatives=frozenset(neg))


def codes(vertices):
    """A word set as the ascending code array the region API takes."""
    return np.array(sorted(int(v, 2) for v in vertices), dtype=np.int64)


def words(codes, n):
    """The word set a code array names."""
    return {format(c, f"0{n}b") for c in codes.tolist()}


def labels(label, n):
    """The label of every vertex, in code order."""
    return [label(v) for v in all_vertices(n)]


class TestSubcube:
    def test_contains(self):
        c = cube("0*1")
        assert c.contains("001") and c.contains("011")
        assert not c.contains("101")

    def test_vertices(self):
        assert sorted(cube("*0*").vertices()) == ["000", "001", "100", "101"]

    @pytest.mark.parametrize(
        "n, mask, value",
        [(0, 0, 0), (2, 4, 0), (2, -1, 0), (2, 2, 1), (2, 2, -2)],
        ids=["n-zero", "mask-past-cube", "mask-negative", "value-off-mask", "value-negative"],
    )
    def test_bad_pair(self, n, mask, value):
        with pytest.raises(CarlabError, match="bad subcube"):
            Subcube(n, mask, value)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_pair_matches_the_oracle_space(self, n):
        space = oracles.SubcubeSpace(n)
        for mask, bits in space.cubes:
            c = Subcube(n, mask, bits)
            assert c.word == space.word(mask, bits)
            members = list(c.vertices())
            assert members == sorted(members)
            assert members == [v for v in all_vertices(n) if c.contains(v)]


class TestReducedDnf:
    def test_two_point_separation(self):
        cubes = reduced_dnf(pbf(2, ["00"], ["11"]))
        assert {c.word for c in cubes} == {"0*", "*0"}

    def test_full_cube(self):
        cubes = reduced_dnf(pbf(2, ["00", "01", "10", "11"], []))
        assert {c.word for c in cubes} == {"**"}

    def test_two_positives(self):
        cubes = reduced_dnf(pbf(2, ["00", "01"], ["11"]))
        assert {c.word for c in cubes} == {"0*", "*0"}

    def test_no_positives(self):
        assert reduced_dnf(pbf(2, [], ["11"])) == set()

    def test_overlapping_sets_rejected(self):
        with pytest.raises(CarlabError, match="overlap"):
            pbf(2, ["00"], ["00"])

    def test_covers_all_positives(self):
        rng = synth.default_rng(3)
        f = synth.random_partial_boolean_function(rng, n=5, positives=6, negatives=6)
        cubes = reduced_dnf(f)
        for p in f.positives:
            assert any(c.contains(p) for c in cubes)

    def test_matches_brute_force(self):
        rng = synth.default_rng(4)
        space = oracles.SubcubeSpace(5)
        for _ in range(10):
            f = synth.random_partial_boolean_function(
                rng, n=5, positives=rng.randint(1, 10), negatives=rng.randint(0, 10)
            )
            got = {c.word for c in reduced_dnf(f)}
            expected = oracles.brute_force_rdnf(space, f.positives, f.negatives)
            assert got == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force_on_every_small_function(self, n):
        # Each vertex is a positive, a negative or open: all 3^(2^n)
        # functions, empty positives and empty negatives among them.
        space = oracles.SubcubeSpace(n)
        vertices = list(all_vertices(n))
        for roles in itertools.product((None, True, False), repeat=len(vertices)):
            pos = [v for v, role in zip(vertices, roles) if role is True]
            neg = [v for v, role in zip(vertices, roles) if role is False]
            got = {c.word for c in reduced_dnf(pbf(n, pos, neg))}
            assert got == oracles.brute_force_rdnf(space, pos, neg), (pos, neg)

    def test_each_cube_consistent_and_maximal(self):
        rng = synth.default_rng(5)
        f = synth.random_partial_boolean_function(rng, n=6, positives=8, negatives=8)
        cubes = reduced_dnf(f)
        for c in cubes:
            covered = set(c.vertices())
            assert covered & f.positives
            assert not covered & f.negatives
            for k in (k for k, ch in enumerate(c.word) if ch != "*"):
                freed = cube(c.word[:k] + "*" + c.word[k + 1 :])
                assert set(freed.vertices()) & f.negatives, (c.word, k)


class TestPartition:
    def test_example_split(self):
        part = forall_exists_partition(
            [cube("0*"), cube("*0")], [cube("1*")]
        )
        assert words(part.exists_region, 2) == {"10"}
        assert words(part.forall_region, 2) == {"00", "01"}
        # "11" sits in the negative union, so nothing is uncovered here
        assert words(part.uncovered, 2) == frozenset()

    def test_empty_negative_side(self):
        part = forall_exists_partition([cube("0*")], [], n=2)
        assert words(part.exists_region, 2) == frozenset()
        assert words(part.forall_region, 2) == {"00", "01"}

    def test_identical_sides(self):
        part = forall_exists_partition([cube("0*")], [cube("0*")])
        assert words(part.forall_region, 2) == frozenset()
        assert words(part.exists_region, 2) == {"00", "01"}

    def test_dimension_mismatch(self):
        with pytest.raises(CarlabError, match="dimension"):
            forall_exists_partition([cube("0*")], [cube("0**")])

    def test_cover_counts_rejects_cubes_of_another_width(self):
        assert cover_counts([cube("0*")], 2).tolist() == [1, 1, 0, 0]
        with pytest.raises(CarlabError, match="dimension"):
            cover_counts([cube("0*1")], 2)
        with pytest.raises(CarlabError, match="dimension"):
            vote_vertices({0: [cube("0*")], 1: [cube("1**")]}, 2)

    def test_soundness_by_enumeration(self):
        rng = synth.default_rng(6)
        f = synth.random_partial_boolean_function(rng, n=5, positives=6, negatives=6)
        g = pbf(5, f.negatives, f.positives)
        pos_rdnf = reduced_dnf(f)
        neg_rdnf = reduced_dnf(g)
        part = forall_exists_partition(pos_rdnf, neg_rdnf, n=5)
        forall, exists = words(part.forall_region, 5), words(part.exists_region, 5)
        uncovered = words(part.uncovered, 5)
        for v in all_vertices(5):
            pos_cover = any(c.contains(v) for c in pos_rdnf)
            neg_cover = any(c.contains(v) for c in neg_rdnf)
            assert (v in forall) == (pos_cover and not neg_cover)
            assert (v in exists) == (pos_cover and neg_cover)
            assert (v in uncovered) == (not pos_cover and not neg_cover)


class TestBooleanAction:
    def test_rule_application(self):
        a = BooleanAction("a1", 3, exprs=("~x1", "x3", "0"))
        assert a.apply("101") == "010"

    def test_table_application(self):
        a = BooleanAction("a1", 1, table={"0": "1", "1": "1"})
        assert a.apply("0") == "1"

    def test_incomplete_table_rejected(self):
        with pytest.raises(CarlabError, match="cover all"):
            BooleanAction("a1", 2, table={"00": "00"})

    def test_bad_expr_rejected(self):
        with pytest.raises(CarlabError, match="rule expression"):
            BooleanAction("a1", 2, exprs=("x3", "0"))

    @pytest.mark.parametrize("token", ["x١", "x02", "~x02", "x+1", "x 1", "x1 ", "x1_0", "x-1", "x"])
    def test_rule_index_must_be_canonical_decimal(self, token):
        with pytest.raises(CarlabError, match="rule expression"):
            BooleanAction("a1", 12, exprs=(token,) + ("0",) * 11)

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"ab": "zz", "01": "111", "10": "0", "11": "1"}, "cover all"),
            ({"00": "00", "01": "111", "10": "10", "11": "11"}, "bad table output"),
            ({"00": "00", "01": "zz", "10": "10", "11": "11"}, "bad table output"),
            ({"00": "00", "01": 1, "10": "10", "11": "11"}, "bad table output"),
            ({"0": "00", "01": "01", "10": "10", "11": "11"}, "cover all"),
            ({0: "00", "01": "01", "10": "10", "11": "11"}, "cover all"),
            ({"00": "00", "01": None, "10": "zz", "11": "11"}, "bad table output None for n=2"),
            ({"00": "00", "01": "1", "10": 7, "11": "11"}, "bad table output '1' for n=2"),
        ],
        ids=[
            "bad-keys", "long-output", "non-bit-output", "non-string-output", "short-key",
            "non-string-key", "first-bad-output-non-string", "first-bad-output-short",
        ],
    )
    def test_table_words_validated(self, table, message):
        with pytest.raises(CarlabError, match=message):
            BooleanAction("a1", 2, table=table)


class TestBackward:
    def test_flip_example(self):
        flip1 = BooleanAction("a1", 2, exprs=("~x1", "x2"))
        label = lambda v: 0 if v == "00" else 1
        reach = backward_reach(codes({"00"}), {1: flip1}, labels(label, 2), 1, 2)
        assert words(reach.depths[1], 2) == {"00", "10"}

    def test_identity_actions_shrink_into_region(self):
        ident = BooleanAction("a1", 2, exprs=("x1", "x2"))
        label = lambda v: 0 if v.startswith("0") else 1
        region = {"00", "01", "10"}
        reach = backward_reach(codes(region), {1: ident}, labels(label, 2), 1, 2)
        assert words(reach.depths[1], 2) <= region
        assert words(reach.depths[1], 2) == region  # everything determinately classified

    def test_empty_region(self):
        ident = BooleanAction("a1", 2, exprs=("x1", "x2"))
        reach = backward_reach(codes(set()), {1: ident}, labels(lambda v: 1, 2), 1, 2)
        assert words(reach.depths[1], 2) == frozenset()

    def test_indeterminate_excluded_and_tallied(self):
        ident = BooleanAction("a1", 2, exprs=("x1", "x2"))
        label = lambda v: None if v == "11" else 0
        reach = backward_reach(codes({"11", "00"}), {1: ident}, labels(label, 2), 1, 2)
        assert "11" in words(reach.depths[0], 2)  # depth 0 echoes the input region
        assert "11" not in words(reach.depths[1], 2)
        assert words(reach.indeterminate, 2) == {"11"}

    def test_depth_zero_is_input(self):
        ident = BooleanAction("a1", 2, exprs=("x1", "x2"))
        reach = backward_reach(codes({"01"}), {1: ident}, labels(lambda v: 1, 2), 0, 2)
        assert [words(d, 2) for d in reach.depths] == [frozenset({"01"})]

    def test_action_bindings_checked_only_when_a_step_is_taken(self):
        """Depth 0 takes no step, so a class with no action, or with an
        action of another size, does not fail it; depth 1 does."""
        label = lambda v: {"00": 0, "01": 1, "10": 2, "11": None}[v]
        wide = BooleanAction("a2", 3, exprs=("x1", "x2", "x3"))
        for actions, message in (({}, "no action bound to class 1"), ({1: wide, 2: wide}, "dimension mismatch")):
            reach = backward_reach(codes({"00"}), actions, labels(label, 2), 0, 2)
            assert [words(d, 2) for d in reach.depths] == [frozenset({"00"})]
            assert words(reach.indeterminate, 2) == {"11"}
            with pytest.raises(CarlabError, match=f"^{message}$"):
                backward_reach(codes({"00"}), actions, labels(label, 2), 1, 2)

    def test_absorbing_construction(self):
        # every action maps into the region: one step back reaches all
        # determinately classified vertices
        const = BooleanAction("a1", 2, exprs=("0", "0"))
        label = lambda v: 0 if v == "00" else (None if v == "11" else 1)
        reach = backward_reach(codes({"00"}), {1: const}, labels(label, 2), 1, 2)
        assert words(reach.cumulative[1], 2) == {"00", "01", "10"}

    def test_matches_forward_simulation(self):
        rng = synth.default_rng(14)
        for _ in range(5):
            n = rng.randint(4, 6)
            ls = synth.random_boolean_learning_set(
                rng, n=n, classes=3, per_class=rng.randint(2, 3)
            )
            lds = subcubes_to_ldset(multiclass_rdnf(ls))
            label = lambda v: classify([float(c) for c in v], lds).label
            actions = {
                i: synth.random_boolean_action(rng, f"a{i}", n) for i in (1, 2)
            }
            region = {v for v in all_vertices(n) if label(v) == 0}
            depth = rng.randint(1, 4)
            reach = backward_reach(codes(region), actions, labels(label, n), depth, n)
            for d in range(depth + 1):
                expected = oracles.forward_depth_region(n, label, actions, region, d)
                assert words(reach.depths[d], n) == expected, (n, d)

    def test_cumulative_monotone(self):
        rng = synth.default_rng(15)
        n = 4
        ls = synth.random_boolean_learning_set(rng, n=n, classes=2, per_class=3)
        lds = subcubes_to_ldset(multiclass_rdnf(ls))
        label = lambda v: classify([float(c) for c in v], lds).label
        actions = {1: synth.random_boolean_action(rng, "a1", n)}
        region = {v for v in all_vertices(n) if label(v) == 0}
        reach = backward_reach(codes(region), actions, labels(label, n), 6, n)
        cumulative = [words(c, n) for c in reach.cumulative]
        for earlier, later in zip(cumulative, cumulative[1:]):
            assert earlier <= later

    def test_cumulative_stabilizes_within_cube_size(self):
        rng = synth.default_rng(19)
        n = 3
        for _ in range(5):
            ls = synth.random_boolean_learning_set(rng, n=n, classes=2, per_class=2)
            lds = subcubes_to_ldset(multiclass_rdnf(ls))
            label = lambda v: classify([float(c) for c in v], lds).label
            actions = {1: synth.random_boolean_action(rng, "a1", n)}
            region = {v for v in all_vertices(n) if label(v) == 0}
            reach = backward_reach(codes(region), actions, labels(label, n), 2 ** n + 1, n)
            assert words(reach.cumulative[2 ** n], n) == words(reach.cumulative[2 ** n + 1], n)


class TestMulticlass:
    def test_two_class_count(self):
        ls = synth.random_boolean_learning_set(synth.default_rng(16), 4, 2, 3)
        rdnfs = multiclass_rdnf(ls)
        assert sorted(rdnfs) == [0, 1]

    def test_class_cover_includes_own_points(self):
        ls = synth.random_boolean_learning_set(synth.default_rng(17), 5, 3, 4)
        rdnfs = multiclass_rdnf(ls)
        for i in range(ls.deviated_count + 1):
            for s in ls.class_share(i):
                word = "".join(str(int(v)) for v in s.features)
                assert any(c.contains(word) for c in rdnfs[i])

    def test_partitioned_cube_gives_exclusive_regions(self):
        # class shares that partition the whole square completely
        samples = []
        for k, v in enumerate(["00", "01"]):
            samples.append(LearningSample(f"a{k}", (float(v[0]), float(v[1])), 0))
        for k, v in enumerate(["10", "11"]):
            samples.append(LearningSample(f"b{k}", (float(v[0]), float(v[1])), 1))
        ls = LearningSet.build(samples, mode="boolean")
        rdnfs = multiclass_rdnf(ls)
        for v in all_vertices(2):
            inside = [
                i for i in rdnfs if any(c.contains(v) for c in rdnfs[i])
            ]
            assert len(inside) == 1

    def test_requires_boolean_mode(self):
        ls = LearningSet.build(
            [LearningSample("a", (0.5,), 0), LearningSample("b", (1.0,), 1)],
            mode="real",
        )
        with pytest.raises(CarlabError, match="Boolean"):
            multiclass_rdnf(ls)


class TestSubcubeCover:
    def test_cover_is_exact(self):
        rng = synth.default_rng(18)
        for _ in range(10):
            n = rng.randint(2, 5)
            region = {
                v for v in all_vertices(n) if rng.random() < 0.4
            }
            cover = subcube_cover(codes(region), n)
            covered = set()
            for c in cover:
                vs = set(c.vertices())
                assert vs <= region
                covered |= vs
            assert covered == region


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=30, deadline=None)
def test_subcube_membership_consistency(n, data):
    word = "".join(
        data.draw(st.sampled_from("01*"), label=f"c{k}") for k in range(n)
    )
    c = cube(word)
    members = set(c.vertices())
    assert len(members) == 2 ** word.count("*")
    for v in all_vertices(n):
        assert c.contains(v) == (v in members)


def _greedy_cover_by_words(region, n):
    """Reference for subcube_cover: the same greedy, on words."""
    cover, covered = [], set()
    for v in sorted(region):
        if v in covered:
            continue
        chars = list(v)
        for k in range(n):
            saved, chars[k] = chars[k], "*"
            if not set(cube("".join(chars)).vertices()) <= region:
                chars[k] = saved
        cover.append(cube("".join(chars)))
        covered.update(cover[-1].vertices())
    return tuple(cover)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=40, deadline=None)
def test_subcube_cover_matches_greedy_on_words(n, data):
    region = data.draw(st.sets(st.sampled_from(list(all_vertices(n)))))
    assert subcube_cover(codes(region), n) == _greedy_cover_by_words(region, n)


@given(st.integers(min_value=7, max_value=10), st.sampled_from([0.01, 0.1, 0.5, 0.9, 0.99]), st.randoms())
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
def test_subcube_cover_matches_greedy_on_words_on_larger_cubes(n, density, rng):
    """Sparse regions leave most neighbours outside, dense ones most inside:
    the coordinates skipped for an outside neighbour never change the cover."""
    region = {v for v in all_vertices(n) if rng.random() < density}
    assert subcube_cover(codes(region), n) == _greedy_cover_by_words(region, n)


class TestSubcubeCoverAtTheCap:
    N = 20

    def test_whole_cube_is_one_cube(self):
        assert [c.word for c in subcube_cover(np.arange(1 << self.N), self.N)] == ["*" * self.N]

    def test_half_cube_is_one_cube(self):
        assert [c.word for c in subcube_cover(np.arange(1 << self.N - 1), self.N)] == ["0" + "*" * (self.N - 1)]

    def test_blocks_without_a_neighbour_stay_apart(self):
        """342 blocks of 2^10 codes whose high halves have even parity:
        no two differ in one coordinate, so each is its own cube."""
        highs = [h for h in range(1 << 10) if not bin(h).count("1") % 2][:342]
        region = (np.array(highs)[:, None] << 10 | np.arange(1 << 10)).ravel()
        cover = subcube_cover(region, self.N)
        assert [c.word for c in cover] == [format(h, "010b") + "*" * 10 for h in highs]


RULE_TOKENS = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.one_of(
                st.sampled_from(["0", "1"]),
                st.builds(lambda neg, k: f"{'~' if neg else ''}x{k}", st.booleans(), st.integers(1, n)),
            ),
            min_size=n,
            max_size=n,
        ),
    )
)


@given(RULE_TOKENS)
@settings(max_examples=60, deadline=None)
def test_rule_image_follows_the_tokens(n_tokens):
    n, tokens = n_tokens
    action = BooleanAction("a1", n, exprs=tuple(tokens))
    assert action.image.shape == (2 ** n,)
    for code in range(2 ** n):
        word = format(code, f"0{n}b")
        out = []
        for token in tokens:
            if token in ("0", "1"):
                out.append(token)
            else:
                bit = word[int(token.lstrip("~x")) - 1]
                out.append(bit if not token.startswith("~") else "10"[int(bit)])
        assert action.image[code] == int("".join(out), 2), (tokens, word)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_table_image_follows_the_table(n, data):
    words = list(all_vertices(n))
    keys = data.draw(st.permutations(words))
    table = {v: data.draw(st.sampled_from(words)) for v in keys}
    action = BooleanAction("a1", n, table=table)
    assert action.image.tolist() == [int(table[v], 2) for v in words]


class TestVertexWordsChecked:
    RULE = BooleanAction("a1", 2, exprs=("~x1", "x2"))
    TABLE = BooleanAction("a2", 2, table={"00": "01", "01": "11", "10": "10", "11": "00"})
    BAD = ["2 ", " 1", "+1", "0b", "1", "011", "zz", "", 1, None]

    @pytest.mark.parametrize("action", [RULE, TABLE], ids=["rule", "table"])
    @pytest.mark.parametrize("vertex", BAD, ids=repr)
    def test_apply_rejects_non_words(self, action, vertex):
        with pytest.raises(CarlabError, match="bad vertex"):
            action.apply(vertex)

    @pytest.mark.parametrize("vertex", BAD, ids=repr)
    def test_reach_cover_and_contains_reject_non_words(self, vertex):
        # Reach and cover take code arrays, so a set of words is refused whole.
        with pytest.raises(CarlabError, match="vertex set"):
            backward_reach({vertex}, {1: self.RULE}, [1] * 4, 0, 2)
        with pytest.raises(CarlabError, match="vertex set"):
            subcube_cover({"00", vertex}, 2)
        with pytest.raises(CarlabError, match="bad vertex"):
            cube("0*").contains(vertex)


class TestCodeArraysChecked:
    RULE = BooleanAction("a1", 2, exprs=("~x1", "x2"))
    BAD = {
        "bool-mask": (np.array([True, False, False, True]), "vertex set"),
        "float-array": (np.array([0.0, 3.0]), "vertex set"),
        "float-list": ([0, 1.5], "vertex set"),
        "2-d": (np.array([[0, 1], [2, 3]]), "vertex set"),
        "scalar": (np.int64(1), "vertex set"),
        "words": (["00", "11"], "vertex set"),
        "none": ([0, None], "vertex set"),
        "huge-int": ([2 ** 70], "vertex set"),
        "negative": ([0, -1], "out of range"),
        "past-cube": (np.array([0, 4]), "out of range"),
        "past-cube-unsigned": (np.array([4], dtype=np.uint8), "out of range"),
    }

    @pytest.mark.parametrize("name", BAD)
    def test_reach_and_cover_reject_bad_code_arrays(self, name):
        region, message = self.BAD[name]
        with pytest.raises(CarlabError, match=message):
            backward_reach(region, {1: self.RULE}, [1] * 4, 1, 2)
        with pytest.raises(CarlabError, match=message):
            subcube_cover(region, 2)

    @pytest.mark.parametrize("size", [0, 3, 5])
    def test_reach_rejects_labels_of_other_length(self, size):
        with pytest.raises(CarlabError, match="one label per vertex"):
            backward_reach([0], {1: self.RULE}, [1] * size, 1, 2)

    def test_reach_refuses_a_negative_label(self):
        with pytest.raises(CarlabError, match="^negative class index -1$"):
            backward_reach([0], {1: self.RULE}, [0, None, -1, 1], 1, 2)
        with pytest.raises(CarlabError, match="^negative class index -2$"):
            backward_reach([0], {1: self.RULE}, np.array([0, -1, -2, 1]), 1, 2)

    def test_reach_and_cover_take_int_lists(self):
        reach = backward_reach([3, 0, 0], {1: self.RULE}, [0, 1, 1, 0], 1, 2)
        assert reach.depths[0].tolist() == [0, 3]
        assert reach.depths[1].tolist() == [0, 1, 2, 3]
        assert subcube_cover([], 2) == ()
        region = np.array([3, 1, 0], dtype=np.uint8)
        assert subcube_cover(region, 2) == (cube("0*"), cube("*1"))
