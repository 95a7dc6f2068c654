import dataclasses
import re

import pytest
from hypothesis import given, strategies as st

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
    """A direct constructor call rejects what build rejects, with the same message."""
    samples = tuple(LearningSample(*row) for row in rows)
    with pytest.raises(DataFormatError, match=re.escape(message)):
        make(samples, mode)


def test_learning_set_counts_are_read_off_the_samples():
    rows = [("a", (0.0, 1.0), 0), ("b", (1.0, 1.0), 2), ("c", (1.0, 0.0), 1)]
    ls = LearningSet(tuple(LearningSample(*row) for row in rows), "boolean")
    assert (ls.n, ls.deviated_count, ls.m) == (2, 2, 3)


def test_results_store_each_fact_once():
    """A value that follows from stored fields is a property, not a field,
    so no constructor call can contradict it."""
    from carlab.carsim import CarRunReport
    from carlab.mdp import ComparisonReport
    from carlab.poset import LevelDiagram, MinimumReport, PosetReport, ValidationVerdict

    stored = {
        LearningSet: ["samples", "mode"],
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


def test_from_events_sorts_flat_events():
    events = [
        TraceEvent("a", 1, 1.0, (1.0,), 0, None),
        TraceEvent("a", 0, 0.0, (2.0,), 1, "a1"),
    ]
    table = TraceTable.from_events(events)
    assert table.step.tolist() == [0, 1]
