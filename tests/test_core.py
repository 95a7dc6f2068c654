import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carlab.core import (
    DataFormatError,
    LearningSample,
    LearningSet,
    TraceEvent,
    TraceTable,
    load_learning_set,
    load_trace_log,
    save_learning_set,
    save_trace_log,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadLearningSet:
    def test_three_row_file(self, tmp_path):
        p = write(
            tmp_path / "d.csv",
            "id,f1,f2,class\na,1.0,2.0,0\nb,3.0,4.0,1\nc,5.0,6.0,1\n",
        )
        ls = load_learning_set(p)
        assert (ls.n, ls.deviated_count, ls.m) == (2, 1, 3)
        assert ls.samples[0].features == (1.0, 2.0)

    def test_empty_class_share(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,f1,class\na,1.0,1\nb,2.0,1\n")
        with pytest.raises(DataFormatError, match="empty class share"):
            load_learning_set(p)

    def test_non_boolean_value_in_boolean_mode(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,f1,class\na,0.5,0\nb,1.0,1\n")
        with pytest.raises(DataFormatError, match="non-Boolean"):
            load_learning_set(p, mode="boolean")

    def test_boolean_mode_accepts_bits(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,f1,class\na,0,0\nb,1,1\n")
        ls = load_learning_set(p, mode="boolean")
        assert ls.mode == "boolean"

    def test_inconsistent_feature_count(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,f1,f2,class\na,1.0,2.0,0\nb,3.0,1\n")
        with pytest.raises(DataFormatError, match="malformed row"):
            load_learning_set(p)

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "d.csv", "id,x1,class\na,1.0,0\n")
        with pytest.raises(DataFormatError, match="bad feature columns"):
            load_learning_set(p)


@pytest.mark.parametrize("make", [LearningSet, LearningSet.build], ids=["constructor", "build"])
@pytest.mark.parametrize(
    "rows, mode, message",
    [
        ([("a", (1.0, 2.0), 0), ("b", (1.0,), 1)], "real", "inconsistent feature count for 'b': expected 2, got 1"),
        ([("a", (float("nan"),), 0), ("b", (1.0,), 1)], "real", "non-finite value for 'a'"),
        ([("a", (0.5,), 0), ("b", (1.0,), 1)], "boolean", "non-Boolean value 0.5 for 'a'"),
        ([("a", (1.0,), 1)], "real", "empty class share 0"),
        ([("a", (1.0,), 0)], "weird", "unknown mode 'weird'"),
        ([], "real", "learning set has no samples"),
        ([("a", (), 0)], "real", "feature count must be positive"),
    ],
    ids=["mixed-feature-counts", "non-finite", "non-boolean", "empty-share", "unknown-mode", "no-samples", "no-features"],
)
def test_learning_set_checks_itself(make, rows, mode, message):
    """A direct constructor call, given the columns, rejects what build
    rejects, with the same message."""
    samples = tuple(LearningSample(*row) for row in rows)
    columns = [*zip(*rows)] or [(), (), ()]
    with pytest.raises(DataFormatError, match=re.escape(message)):
        make(*columns, mode) if make is LearningSet else make(samples, mode)


def test_learning_set_counts_are_read_off_the_samples():
    ls = LearningSet(("a", "b", "c"), np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]), np.array([0, 2, 1]), "boolean")
    assert (ls.n, ls.deviated_count, ls.m) == (2, 2, 3)


def test_results_store_each_fact_once():
    """A value that follows from stored fields is a property, not a field,
    so no constructor call can contradict it."""
    from carlab.carsim import CarRunReport
    from carlab.mdp import ComparisonReport
    from carlab.poset import LevelDiagram, MinimumReport, PosetReport, ValidationVerdict

    stored = {
        LearningSet: ["ids", "X", "labels", "mode"],
        LevelDiagram: ["levels", "unleveled", "warnings"],
        PosetReport: ["counterexample_cycle"],
        MinimumReport: ["minimal"],
        ValidationVerdict: ["poset", "minimum", "diagram", "nondeterministic"],
        CarRunReport: ["max_steps", "table", "steps_to_normal", "stalls"],
        ComparisonReport: ["v_optimal", "v_observed", "regret", "optimal_actions", "agreement"],
    }
    assert {cls: [f.name for f in dataclasses.fields(cls)] for cls in stored} == stored


class TestLoadTraceLog:
    def test_two_events_one_trace(self, tmp_path):
        p = write(
            tmp_path / "t.csv",
            "id,step,timestamp,f1,class,action\n"
            "a,0,1.0,5.0,1,a1\n"
            "a,1,2.0,4.0,0,\n",
        )
        traces = load_trace_log(p)
        assert traces.object_ids == ("a",)
        assert len(traces) == 2
        assert traces.action[1] == -1

    def test_non_increasing_timestamp(self, tmp_path):
        p = write(
            tmp_path / "t.csv",
            "id,step,timestamp,f1,class,action\n"
            "a,0,1.0,5.0,1,a1\n"
            "a,1,1.0,4.0,0,\n",
        )
        with pytest.raises(DataFormatError, match="non-increasing timestamp"):
            load_trace_log(p)

    def test_action_on_normal_event(self, tmp_path):
        p = write(
            tmp_path / "t.csv",
            "id,step,timestamp,f1,class,action\na,0,1.0,5.0,0,a1\n",
        )
        with pytest.raises(DataFormatError, match="normal-class event"):
            load_trace_log(p)

    def test_step_gap(self, tmp_path):
        p = write(
            tmp_path / "t.csv",
            "id,step,timestamp,f1,class,action\n"
            "a,0,1.0,5.0,1,a1\n"
            "a,2,2.0,4.0,0,\n",
        )
        with pytest.raises(DataFormatError, match="gap in step numbering"):
            load_trace_log(p)

    @pytest.mark.parametrize(
        "row",
        ["b,0,nan,5.0,1,a1", "b,0,inf,5.0,1,a1", "b,0,1e999,5.0,1,a1", "b,0,1.0,nan,1,a1",
         "b,0,1.0,-inf,1,a1"],
    )
    def test_non_finite_value(self, tmp_path, row):
        p = write(
            tmp_path / "t.csv", f"id,step,timestamp,f1,class,action\na,0,1.0,5.0,0,\n{row}\n"
        )
        with pytest.raises(DataFormatError, match=r"t\.csv:3: non-finite value for 'b'"):
            load_trace_log(p)


grids = st.sampled_from([0.0, 1.0, 2.5, -3.0, 10.0])


@st.composite
def learning_sets(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    deviated_count = draw(st.integers(min_value=0, max_value=2))
    samples = []
    k = 0
    for label in range(deviated_count + 1):
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            feats = tuple(draw(grids) for _ in range(n))
            samples.append(LearningSample(f"s{k}", feats, label))
            k += 1
    return LearningSet.build(samples, mode="real")


@given(learning_sets())
def test_learning_set_round_trip(tmp_path_factory, ls):
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    save_learning_set(ls, path)
    assert load_learning_set(path, mode=ls.mode) == ls


def test_trace_round_trip(tmp_path):
    traces = {
        "a": (
            TraceEvent("a", 0, 0.25, (1.5, -2.0), 1, "a1"),
            TraceEvent("a", 1, 1.75, (0.5, 0.0), 0, None),
        ),
        "b": (TraceEvent("b", 0, 0.1, (3.0, 4.0), 2, "a2"),),
    }
    path = tmp_path / "t.csv"
    save_trace_log(traces, path)
    loaded, expected = load_trace_log(path), TraceTable.from_events(traces)
    assert (loaded.object_ids, loaded.actions) == (expected.object_ids, expected.actions)
    for column in ("obj", "step", "timestamp", "state", "label", "action"):
        assert getattr(loaded, column).tolist() == getattr(expected, column).tolist()


def test_trace_log_without_feature_columns_is_refused(tmp_path):
    """A table of no rows is written as its header, unless that header has
    no feature column, which the reader would refuse."""
    with pytest.raises(DataFormatError, match="no feature columns"):
        save_trace_log([], tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


def test_from_events_sorts_flat_events():
    events = [
        TraceEvent("a", 1, 1.0, (1.0,), 0, None),
        TraceEvent("a", 0, 0.0, (2.0,), 1, "a1"),
    ]
    table = TraceTable.from_events(events)
    assert table.step.tolist() == [0, 1]


# --- Columnar learning sets against the row-at-a-time checks ----------------


def row_checks(rows, mode):
    """The checks of a learning set one row at a time, as ``LearningSet``
    made them when it stored one ``LearningSample`` per row: each sample as
    it is made, then the set; the rows, or the message of the first fault."""
    for object_id, _, label in rows:
        if not object_id:
            raise DataFormatError("object_id must be nonempty")
        if label < 0:
            raise DataFormatError(f"negative class index {label}")
    mode = mode.lower()
    if mode not in ("real", "boolean"):
        raise DataFormatError(f"unknown mode {mode!r}")
    if not rows:
        raise DataFormatError("learning set has no samples")
    n = len(rows[0][1])
    if not n:
        raise DataFormatError("feature count must be positive")
    for object_id, features, _ in rows:
        if len(features) != n:
            raise DataFormatError(f"inconsistent feature count for {object_id!r}: expected {n}, got {len(features)}")
        if not all(math.isfinite(v) for v in features):
            raise DataFormatError(f"non-finite value for {object_id!r}")
        if mode == "boolean":
            for v in features:
                if v not in (0.0, 1.0):
                    raise DataFormatError(f"non-Boolean value {v!r} for {object_id!r}")
    empty = set(range(max(label for *_, label in rows) + 1)) - {label for *_, label in rows}
    if empty:
        raise DataFormatError(f"empty class share {min(empty)}")
    return [(object_id, tuple(features), label) for object_id, features, label in rows]


FAULTS = ["empty-id", "negative-class", "short-row", "long-row", "non-finite", "non-boolean", "skipped-class"]


@st.composite
def faulty_rows(draw):
    """Rows of a learning set, valid but for zero to three faults, each in
    a drawn row, and a mode (now and then an unknown one)."""
    mode = draw(st.sampled_from(["real", "real", "boolean", "boolean", "Boolean", "weird"]))
    n, m = draw(st.sampled_from([0, 1, 2, 2, 3, 3])), draw(st.integers(0, 6))
    bits = st.sampled_from([0.0, -0.0, 1.0])
    values = bits if mode.lower() == "boolean" else st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0])
    rows = [
        [f"o{k}", [draw(values) for _ in range(n)], draw(st.integers(0, 2))] for k in range(m)
    ]
    for label in range(max((r[2] for r in rows), default=-1) + 1):  # every class share nonempty
        if label not in {r[2] for r in rows}:
            draw(st.sampled_from(rows))[2] = label
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)) if rows else ():
        row = draw(st.sampled_from(rows))
        if fault == "empty-id":
            row[0] = ""
        elif fault == "negative-class":
            row[2] = draw(st.integers(-3, -1))
        elif fault == "short-row":
            row[1] = row[1][:-1]
        elif fault == "long-row":
            row[1] = row[1] + [1.0]
        elif fault in ("non-finite", "non-boolean") and row[1]:
            bad = [math.nan, math.inf, -math.inf] if fault == "non-finite" else [0.5, 2.0, -1.0]
            row[1][draw(st.integers(0, len(row[1]) - 1))] = draw(st.sampled_from(bad))
        elif fault == "skipped-class":
            skipped = draw(st.integers(0, 2))
            for r in rows:
                r[2] += r[2] >= skipped
    return [(i, tuple(x), label) for i, x, label in rows], mode


def _outcome(make):
    try:
        return repr(make())
    except DataFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(faulty_rows())
@example(([("a", (math.nan, 1.0), 0), ("b", (1.0,), 1)], "real"))  # a value fault before a width fault
@example(([("a", (0.5,), 0), ("b", (1.0, 1.0), 1)], "boolean"))
@example(([("a", (1.0,), 0), ("", (1.0,), -1), ("c", (1.0,), -2)], "weird"))  # sample checks come first
def test_column_checks_match_the_row_checks(case):
    """``build`` and the constructor, given the columns, accept what the
    row-at-a-time checks accept and raise the same first message."""
    rows, mode = case
    expected = _outcome(lambda: row_checks(rows, mode))
    as_rows = lambda ls: [(s.object_id, s.features, s.label) for s in ls.samples]
    assert _outcome(lambda: as_rows(LearningSet.build([LearningSample(*row) for row in rows], mode))) == expected
    columns = [*zip(*rows)] or [(), (), ()]
    assert _outcome(lambda: as_rows(LearningSet(*columns, mode.lower()))) == expected


def _small_set():
    return LearningSet(("b", "a", "c"), np.array([[0.5, -0.0], [1.0, 2.0], [3.0, 2.0]]), np.array([1, 0, 1]), "real")


def test_learning_set_columns_refuse_writes():
    X, labels = np.array([[0.5, 1.0], [1.0, 2.0]]), np.array([1, 0])
    ls = LearningSet(["b", "a"], X, labels, "real")
    X[0, 0], labels[0] = 9.0, 5  # the set keeps copies of its inputs
    assert ls.X.tolist() == [[0.5, 1.0], [1.0, 2.0]] and ls.labels.tolist() == [1, 0]
    assert ls.ids == ("b", "a") and ls.X.dtype == np.float64 and ls.labels.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        ls.X[0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        ls.labels[0] = 0


def test_learning_set_equality_pickling_and_file_round_trip(tmp_path):
    ls = _small_set()
    assert ls == LearningSet(["b", "a", "c"], [(0.5, 0.0), (1.0, 2.0), (3.0, 2.0)], [1, 0, 1], "real")
    assert ls != LearningSet(("b", "a", "d"), ls.X, ls.labels, "real")
    assert ls != LearningSet(ls.ids, ls.X, [0, 1, 1], "real")
    assert ls != LearningSet(ls.ids, ls.X + 1.0, ls.labels, "real")
    assert ls.samples and ls == _small_set()  # the cached row view is not compared
    copy = pickle.loads(pickle.dumps(ls))
    assert copy == ls and "samples" not in vars(copy)
    assert not copy.X.flags.writeable and not copy.labels.flags.writeable
    save_learning_set(ls, tmp_path / "d.csv")
    assert load_learning_set(tmp_path / "d.csv") == ls


def test_samples_are_built_only_when_read(tmp_path):
    """Loading, mining, the Boolean covers and run_car read the columns."""
    from carlab.boolcube import multiclass_rdnf
    from carlab.carsim import ActionSpec, register_actions, run_car
    from carlab.lcpr import ld_classifier, mine_lds

    path = write(tmp_path / "d.csv", "id,f1,f2,class\na,0,0,0\nb,1,0,1\nc,1,1,1\nd,0,1,0\n")
    real, boolean = load_learning_set(path), load_learning_set(path, mode="boolean")
    lds = mine_lds(real)
    multiclass_rdnf(boolean)
    spec = ActionSpec("a1", 1, "affine", alpha=(1.0, 1.0), beta=(-1.0, 0.0))
    report = run_car(real, ld_classifier(lds), register_actions([spec], 1), 3)
    assert "samples" not in vars(real) and "samples" not in vars(boolean)
    assert report == run_car(real.samples, ld_classifier(lds), register_actions([spec], 1), 3)
