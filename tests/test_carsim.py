from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab.core import CarlabError, LearningSample, TraceEvent
from carlab.carsim import (
    ActionSpec,
    StallInfo,
    convergence_metrics,
    register_actions,
    report_to_json,
    run_car,
    actions_from_json,
    actions_to_json,
)
from carlab.boolcube import all_vertices, multiclass_rdnf, subcubes_to_ldset, vector_to_vertex
from carlab.lcpr import ClassifyOutcome, classify, ld_classifier, mine_lds
from carlab import synth

import oracles


def affine_spec(class_index, alpha, beta, action_id=None):
    return ActionSpec(
        action_id=action_id or f"a{class_index}",
        class_index=class_index,
        kind="affine",
        alpha=alpha,
        beta=beta,
    )


def threshold_classifier(cut=0.5):
    """Class 0 below the cut on feature 1, class 1 at or above it."""

    def classify(x):
        label = 0 if x[0] < cut else 1
        return ClassifyOutcome(label=label, reason=None, scores={label: 1.0})

    return classify


class TestRegisterActions:
    def test_complete_table(self):
        table = register_actions(
            [affine_spec(1, (1.0,), (0.0,)), affine_spec(2, (1.0,), (-1.0,))], deviated_count=2
        )
        assert sorted(table) == [1, 2]

    def test_missing_class(self):
        with pytest.raises(CarlabError, match="missing action binding"):
            register_actions([affine_spec(1, (1.0,), (0.0,))], deviated_count=2)

    def test_duplicate_class(self):
        specs = [affine_spec(1, (1.0,), (0.0,)), affine_spec(1, (2.0,), (0.0,))]
        with pytest.raises(CarlabError, match="duplicate action binding"):
            register_actions(specs, deviated_count=1)

    def test_zero_slope_rejected(self):
        with pytest.raises(CarlabError, match="non-invertible affine component"):
            affine_spec(1, (0.0,), (1.0,))

    def test_unknown_class_rejected(self):
        specs = [affine_spec(1, (1.0,), (0.0,)), affine_spec(5, (1.0,), (0.0,))]
        with pytest.raises(CarlabError, match="unknown classes"):
            register_actions(specs, deviated_count=1)


class TestRunCar:
    def test_immediately_normal(self):
        actions = register_actions([affine_spec(1, (1.0,), (-1.0,))], deviated_count=1)
        report = run_car([(0.0,)], threshold_classifier(), actions, 5)
        assert report.converged["v0000"]
        assert report.steps_to_normal["v0000"] == 0
        assert len(report.traces["v0000"]) == 1

    def test_identity_action_cycles(self):
        actions = register_actions([affine_spec(1, (1.0,), (0.0,))], deviated_count=1)
        report = run_car([(2.0,)], threshold_classifier(), actions, 5)
        assert not report.converged["v0000"]
        stall = report.stalls["v0000"]
        assert stall.kind == "cycle" and stall.step == 1

    def test_contracting_converges_within_height(self):
        learning_set, specs, graph = synth.contracting_instance(deviated_count=4)
        lds = mine_lds(learning_set)
        actions = register_actions(specs, deviated_count=4)
        report = run_car(
            learning_set.samples, ld_classifier(lds), actions, max_steps=4
        )
        assert all(report.converged.values())
        for sample in learning_set.samples:
            assert report.steps_to_normal[sample.object_id] == sample.label

    def test_monotone_curve(self):
        learning_set, specs, _ = synth.contracting_instance(deviated_count=3)
        lds = mine_lds(learning_set)
        actions = register_actions(specs, deviated_count=3)
        report = run_car(learning_set.samples, ld_classifier(lds), actions, 6)
        curve = report.fraction_normal_within
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == 1.0

    def test_indeterminate_stall(self):
        def classifier(x):
            return ClassifyOutcome(label=None, reason="tied", scores={})

        actions = register_actions([affine_spec(1, (1.0,), (0.0,))], deviated_count=1)
        report = run_car([(1.0,)], classifier, actions, 3)
        assert report.stalls["v0000"].kind == "indeterminate"
        assert report.traces["v0000"] == ()

    def test_exhausted_budget(self):
        actions = register_actions([affine_spec(1, (1.0,), (1.0,))], deviated_count=1)
        report = run_car([(1.0,)], threshold_classifier(), actions, 3)
        assert report.stalls["v0000"].kind == "exhausted"
        assert len(report.traces["v0000"]) == 4  # classified at steps 0..3

    def test_traces_replayable(self):
        learning_set, specs, _ = synth.contracting_instance(deviated_count=3)
        lds = mine_lds(learning_set)
        classifier = ld_classifier(lds)
        actions = register_actions(specs, deviated_count=3)
        report = run_car(learning_set.samples, classifier, actions, 5)
        for events in report.traces.values():
            for prev, nxt in zip(events, events[1:]):
                assert classifier(prev.state).label == prev.assigned_class
                replay = actions[prev.assigned_class].apply(prev.state)
                assert replay == nxt.state
            last = events[-1]
            assert classifier(last.state).label == last.assigned_class

    def test_synthetic_timestamps_strictly_increase(self):
        learning_set, specs, _ = synth.contracting_instance(deviated_count=2)
        lds = mine_lds(learning_set)
        actions = register_actions(specs, deviated_count=2)
        report = run_car(learning_set.samples, ld_classifier(lds), actions, 4)
        for events in report.traces.values():
            stamps = [e.timestamp for e in events]
            assert stamps == sorted(stamps)
            assert len(set(stamps)) == len(stamps)

    def test_duplicate_ids_rejected(self):
        samples = [
            LearningSample("dup", (0.0,), 0),
            LearningSample("dup", (1.0,), 0),
        ]
        actions = register_actions([affine_spec(1, (1.0,), (0.0,))], deviated_count=1)
        with pytest.raises(CarlabError, match="unique"):
            run_car(samples, threshold_classifier(), actions, 2)


class TestMetrics:
    def test_all_converge_at_one(self):
        actions = register_actions([affine_spec(1, (1.0,), (-10.0,))], deviated_count=1)
        report = run_car([(5.0,), (7.0,)], threshold_classifier(), actions, 3)
        metrics = convergence_metrics(report)
        assert metrics["converged"] == 2
        assert metrics["mean_steps"] == 1.0
        assert report.fraction_normal_within[1] == 1.0

    def test_half_converge(self):
        def classifier(x):
            if x[0] >= 100.0:
                return ClassifyOutcome(label=None, reason="all-zero", scores={})
            return threshold_classifier()(x)

        actions = register_actions([affine_spec(1, (1.0,), (-1.0,))], deviated_count=1)
        report = run_car([(1.0,), (100.0,)], classifier, actions, 4)
        metrics = convergence_metrics(report)
        assert metrics["terminal_fraction"] == 0.5
        assert metrics["stalls"]["indeterminate"] == 1

    def test_empty_population(self):
        actions = register_actions([affine_spec(1, (1.0,), (0.0,))], deviated_count=1)
        report = run_car([], threshold_classifier(), actions, 3)
        metrics = convergence_metrics(report)
        assert metrics["population"] == 0
        assert metrics["terminal_fraction"] is None
        assert report.fraction_normal_within == ()


class TestBooleanActions:
    def test_rule_action_on_float_states(self):
        spec = ActionSpec(
            action_id="a1", class_index=1, kind="rule", n=2, exprs=("~x1", "x2")
        )
        assert spec.apply((1.0, 0.0)) == (0.0, 0.0)

    def test_table_action(self):
        spec = ActionSpec(
            action_id="a1",
            class_index=1,
            kind="table",
            n=1,
            table={"0": "1", "1": "0"},
        )
        assert spec.apply((0.0,)) == (1.0,)

    def test_non_boolean_state_rejected(self):
        spec = ActionSpec(
            action_id="a1", class_index=1, kind="rule", n=1, exprs=("~x1",)
        )
        with pytest.raises(CarlabError, match="non-Boolean"):
            spec.apply((0.5,))

    def test_boolean_run_matches_forward_stepping(self):
        # every vertex, every depth: the simulated state equals what
        # independent classify-act stepping produces
        rng = synth.default_rng(42)
        n = 5
        ls = synth.random_boolean_learning_set(rng, n=n, classes=3, per_class=3)
        lds = subcubes_to_ldset(multiclass_rdnf(ls))
        label = lambda v: classify([float(c) for c in v], lds).label
        raw = {i: synth.random_boolean_action(rng, f"a{i}", n) for i in (1, 2)}
        specs = [
            ActionSpec(
                action_id=f"a{i}",
                class_index=i,
                kind="table",
                n=n,
                table={v: raw[i].apply(v) for v in all_vertices(n)},
            )
            for i in raw
        ]
        table = register_actions(specs, deviated_count=2)
        k = 4
        population = [tuple(float(c) for c in v) for v in all_vertices(n)]
        run = run_car(population, ld_classifier(lds), table, max_steps=k)
        for index, vertex in enumerate(all_vertices(n)):
            events = run.traces[f"v{index:04d}"]
            for event in events:
                expected = oracles.forward_state(vertex, label, raw, event.step)
                got = "".join(str(int(c)) for c in event.state)
                assert got == expected, (vertex, event.step)


def test_action_json_round_trip():
    specs = [
        affine_spec(1, (1.0, 2.0), (0.0, -1.0)),
        ActionSpec(
            action_id="a2", class_index=2, kind="rule", n=2, exprs=("x2", "~x1")
        ),
        ActionSpec(
            action_id="a3",
            class_index=3,
            kind="table",
            n=1,
            table={"0": "0", "1": "0"},
        ),
    ]
    again = actions_from_json(actions_to_json(specs))
    assert again == specs


def test_report_json_shape():
    learning_set, specs, _ = synth.contracting_instance(deviated_count=2)
    lds = mine_lds(learning_set)
    actions = register_actions(specs, deviated_count=2)
    report = run_car(learning_set.samples, ld_classifier(lds), actions, 3)
    payload = report_to_json(report)
    assert payload["max_steps"] == 3
    assert set(payload["objects"]) == set(report.traces)
    assert payload["metrics"]["converged"] == len(learning_set.samples)


def scalar_apply(spec, x):
    """One action on one state tuple, a coordinate at a time."""
    if spec.boolean is None:
        if len(x) != len(spec.alpha):
            raise CarlabError("affine action dimension mismatch")
        return tuple(a * v + b for a, v, b in zip(spec.alpha, x, spec.beta))
    return tuple(float(c) for c in spec.boolean.apply(vector_to_vertex(x)))


def reference_run(population, label_of, actions, max_steps):
    """The classify-act loop one object at a time, states as float tuples
    and (state, class) pairs compared as tuples: traces, steps to the
    normal class and stalls, each by id."""
    items = sorted((f"v{k:04d}", tuple(float(v) for v in x)) for k, x in enumerate(population))
    states = dict(items)
    traces = {o: [] for o in states}
    seen = {o: set() for o in states}
    steps, stalls = dict.fromkeys(states), {}
    active = list(states)
    for step in range(max_steps + 1):
        still = []
        for o in active:
            state = states[o]
            label = label_of(state)
            if label is None:
                stalls[o] = StallInfo("indeterminate", step)
                continue
            if label == 0:
                traces[o].append(TraceEvent(o, step, float(step), state, 0, None))
                steps[o] = step
                continue
            action = actions.get(label)
            if action is None:
                raise CarlabError(f"no action bound to class {label}")
            traces[o].append(TraceEvent(o, step, float(step), state, label, action.action_id))
            if (state, label) in seen[o]:
                stalls[o] = StallInfo("cycle", step)
                continue
            seen[o].add((state, label))
            if step < max_steps:
                states[o] = scalar_apply(action, state)
            still.append(o)
        active = still
    for o in active:
        stalls[o] = StallInfo("exhausted", max_steps)
    return {o: tuple(t) for o, t in traces.items()}, steps, dict(sorted(stalls.items()))


VALUES = [-0.0, 0.0, 1.0, 0.5, 2.0, -1.5]


@st.composite
def action_specs(draw, class_index, n):
    kind = draw(st.sampled_from(["affine", "table", "rule"]))
    action_id = f"a{class_index}"
    if kind == "affine":
        alpha = tuple(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n)))
        beta = tuple(draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0]), min_size=n, max_size=n)))
        return affine_spec(class_index, alpha, beta)
    if kind == "table":
        words = list(all_vertices(n))
        table = dict(zip(words, draw(st.lists(st.sampled_from(words), min_size=len(words), max_size=len(words)))))
        return ActionSpec(action_id=action_id, class_index=class_index, kind="table", n=n, table=table)
    tokens = ["0", "1"] + [f"{neg}x{k}" for neg in ("", "~") for k in range(1, n + 1)]
    exprs = tuple(draw(st.lists(st.sampled_from(tokens), min_size=n, max_size=n)))
    return ActionSpec(action_id=action_id, class_index=class_index, kind="rule", n=n, exprs=exprs)


@st.composite
def car_instances(draw):
    """A population (Boolean or not, with repeated rows and -0.0), a label
    for each state hash, actions for some of the deviated classes, a
    classifier with or without ``batch`` and a step budget."""
    n, deviated = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    values = [-0.0, 0.0, 1.0] if draw(st.booleans()) else VALUES
    population = draw(st.lists(st.tuples(*[st.sampled_from(values)] * n), max_size=8))
    assign = draw(st.lists(st.sampled_from([None, *range(deviated + 1)]), min_size=1, max_size=6))
    label_of = lambda x: assign[hash(x) % len(assign)]  # -0.0 and 0.0 hash alike
    bound = draw(st.sets(st.integers(1, deviated), min_size=deviated - 1)) if draw(st.booleans()) else range(1, deviated + 1)
    actions = {c: draw(action_specs(c, n)) for c in bound}
    outcome = lambda x: ClassifyOutcome(label=label_of(tuple(x)), reason=None, scores={})
    if draw(st.booleans()):
        classifier = outcome
    else:
        classifier = SimpleNamespace(batch=lambda rows: SimpleNamespace(labels=[label_of(tuple(r)) for r in rows.tolist()]))
    return population, label_of, actions, classifier, draw(st.integers(0, 6))


def _outcome(run):
    try:
        return repr(run())
    except CarlabError as exc:
        return f"error: {exc}"


@settings(max_examples=300, deadline=None)
@given(car_instances())
def test_lockstep_run_matches_per_object_stepping(instance):
    population, label_of, actions, classifier, max_steps = instance

    def lockstep():
        report = run_car(population, classifier, actions, max_steps)
        return report.traces, report.steps_to_normal, report.stalls

    assert _outcome(lockstep) == _outcome(lambda: reference_run(population, label_of, actions, max_steps))


@pytest.mark.parametrize("kind, bad", [("object", -1), ("batch-list", -1), ("batch-array", -2)])
def test_a_negative_label_raises_and_is_never_an_abstention(kind, bad):
    # In an array -1 is the abstention code, so only a code below it is wrong.
    label_of = lambda x: bad if x[0] > 0.5 else 0
    if kind == "object":
        classifier = lambda x: ClassifyOutcome(label=label_of(x), reason=None, scores={})
    else:
        wrap = np.array if kind == "batch-array" else list
        classifier = SimpleNamespace(batch=lambda rows: SimpleNamespace(labels=wrap([label_of(r) for r in rows.tolist()])))
    with pytest.raises(CarlabError, match=f"^negative class index {bad}$"):
        run_car([(0.0,), (1.0,)], classifier, {}, 3)


@pytest.mark.parametrize("start", [(-0.0,), (0.0,)])
def test_a_zero_and_its_negative_are_one_state(start):
    # x -> 1.0 * x + 0.0 maps -0.0 to 0.0 and 0.0 to itself: either way
    # the object is back in the same state, a cycle at step 1.
    actions = register_actions([affine_spec(1, (1.0,), (0.0,))], deviated_count=1)
    report = run_car([start], threshold_classifier(cut=-1.0), actions, 5)
    assert report.stalls["v0000"] == StallInfo("cycle", 1)
    assert [repr(e.state) for e in report.traces["v0000"]] == [repr(start), "(0.0,)"]
