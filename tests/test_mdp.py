import json
import math
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from carlab.core import CarlabError, TraceEvent
from carlab.mdp import (
    MDPModel,
    Policy,
    STAY_ACTION,
    compare_policies,
    estimate_mdp,
    extract_observed_policy,
    load_mdp,
    mdp_from_json,
    mdp_to_json,
    policy_evaluation,
    reward_from_levels,
    save_mdp,
    value_iteration,
    _fixed_point,
)
from carlab.poset import LevelDiagram, Transition, ClassTransitionGraph, build_level_diagram, extract_relation
from carlab import synth

import oracles


def chain_diagram(depth):
    edges = [Transition(i, f"a{i}", i - 1, 1) for i in range(1, depth + 1)]
    return build_level_diagram(ClassTransitionGraph.build(edges))


def chain_mdp(gamma=0.9):
    """S = {0, 1}; the single action moves 1 -> 0 with reward +1."""
    return MDPModel(
        states=(0, 1),
        gamma=gamma,
        transitions={
            0: {STAY_ACTION: ((0, 1.0, 0.0),)},
            1: {"a": ((0, 1.0, 1.0),)},
        },
    )


def two_action_mdp(gamma=0.9):
    """At state 1: 'a' reaches normal (reward 1), 'b' loops (reward 0)."""
    return MDPModel(
        states=(0, 1),
        gamma=gamma,
        transitions={
            0: {STAY_ACTION: ((0, 1.0, 0.0),)},
            1: {"a": ((0, 1.0, 1.0),), "b": ((1, 1.0, 0.0),)},
        },
    )


def one_step_traces(outcomes):
    """Each (dst, count) pair becomes count traces 1 -(a)-> dst."""
    traces = {}
    k = 0
    for dst, count in outcomes:
        for _ in range(count):
            object_id = f"o{k:03d}"
            events = [TraceEvent(object_id, 0, 0.0, (1.0,), 1, "a")]
            action = None if dst == 0 else "a"
            events.append(TraceEvent(object_id, 1, 1.0, (0.5,), dst, action))
            traces[object_id] = tuple(events)
            k += 1
    return traces


class TestEstimate:
    def test_frequency_ratio(self):
        traces = one_step_traces([(0, 9), (1, 1)])
        model = estimate_mdp(traces, chain_diagram(1), smoothing=0.0)
        row = dict((dst, p) for dst, p, _ in model.transitions[1]["a"])
        assert row[0] == pytest.approx(0.9)
        assert row[1] == pytest.approx(0.1)

    def test_laplace_smoothing(self):
        traces = one_step_traces([(0, 1)])
        model = estimate_mdp(traces, chain_diagram(1), smoothing=1.0)
        row = dict((dst, p) for dst, p, _ in model.transitions[1]["a"])
        assert row[0] == pytest.approx(2.0 / 3.0)
        assert row[1] == pytest.approx(1.0 / 3.0)

    def test_deterministic_traces_give_unit_rows(self):
        traces = one_step_traces([(0, 5)])
        model = estimate_mdp(traces, chain_diagram(1))
        assert model.transitions[1]["a"] == ((0, 1.0, 1.0),)

    def test_rows_normalize(self):
        rng = synth.default_rng(31)
        traces = synth.random_trace_log(rng, n_objects=30, classes=4)
        diagram = chain_diagram(3)
        for smoothing in (0.0, 0.5, 2.0):
            model = estimate_mdp(traces, diagram, smoothing=smoothing)
            for s in model.states:
                for a in model.actions(s):
                    total = sum(p for _, p, _ in model.transitions[s][a])
                    assert abs(total - 1.0) <= 1e-12

    def test_diagram_defaults_to_the_traces_own(self):
        rng = synth.default_rng(31)
        traces = synth.random_trace_log(rng, n_objects=30, classes=4)
        diagram = build_level_diagram(extract_relation(traces))
        for shape in ("level-diff", "neg-level"):
            assert estimate_mdp(traces, reward_shape=shape) == estimate_mdp(
                traces, diagram, reward_shape=shape
            )

    def test_state_without_action_rejected(self):
        events = [
            TraceEvent("x", 0, 0.0, (1.0,), 1, "a1"),
            TraceEvent("x", 1, 1.0, (2.0,), 2, "a2"),
        ]
        with pytest.raises(CarlabError, match="no observed action"):
            estimate_mdp({"x": tuple(events)}, chain_diagram(2))

    def test_class_missing_from_diagram_rejected(self):
        traces = one_step_traces([(0, 1)])
        diagram = LevelDiagram(levels={0: 0}, unleveled=())
        with pytest.raises(CarlabError, match="missing from the level diagram"):
            estimate_mdp(traces, diagram)


class TestRewards:
    def test_level_difference(self):
        reward = reward_from_levels(chain_diagram(3))
        assert reward(2, "a", 1) == 1.0
        assert reward(2, "a", 2) == 0.0
        assert reward(1, "a", 3) == -2.0

    def test_telescoping_along_traces(self):
        rng = synth.default_rng(32)
        diagram = chain_diagram(3)
        reward = reward_from_levels(diagram)
        traces = synth.random_trace_log(rng, n_objects=25, classes=4)
        for events in traces.values():
            total = sum(
                reward(prev.assigned_class, prev.applied_action, nxt.assigned_class)
                for prev, nxt in zip(events, events[1:])
            )
            assert total == diagram.levels[events[0].assigned_class] - diagram.levels[
                events[-1].assigned_class
            ]


class TestValueIteration:
    def test_two_state_chain(self):
        vi = value_iteration(chain_mdp(), tol=1e-9)
        assert vi.values[1] == pytest.approx(1.0, abs=1e-8)
        assert vi.values[0] == pytest.approx(0.0, abs=1e-12)
        assert vi.policy.action(1) == "a"

    def test_zero_rewards_zero_values(self):
        model = MDPModel(
            states=(0, 1),
            gamma=0.9,
            transitions={
                0: {STAY_ACTION: ((0, 1.0, 0.0),)},
                1: {"a": ((1, 1.0, 0.0),)},
            },
        )
        vi = value_iteration(model)
        assert all(abs(v) < 1e-12 for v in vi.values.values())

    def test_two_action_choice(self):
        vi = value_iteration(two_action_mdp(), tol=1e-9)
        assert vi.policy.action(1) == "a"
        assert vi.values[1] == pytest.approx(1.0, abs=1e-8)

    def test_matches_exhaustive_policy_enumeration(self):
        rng = synth.default_rng(33)
        for _ in range(10):
            model = synth.random_mdp(rng)
            vi = value_iteration(model, tol=1e-9)
            best = oracles.best_deterministic_values(model)
            for s in model.states:
                assert vi.values[s] == pytest.approx(best[s], abs=1e-8)
            assert vi.residual <= 1e-9

    def test_iteration_count_within_bound(self):
        rng = synth.default_rng(34)
        tol = 1e-9
        for _ in range(10):
            model = synth.random_mdp(rng)
            vi = value_iteration(model, tol=tol)
            r_max = max(
                abs(r)
                for s in model.states
                for a in model.actions(s)
                for _, _, r in model.transitions[s][a]
            )
            if r_max == 0:
                continue
            v_max = r_max / (1 - model.gamma)
            bound = math.log(tol * (1 - model.gamma) / v_max) / math.log(model.gamma)
            assert vi.iterations <= math.ceil(bound) + 1


class TestPolicyEvaluation:
    def test_optimal_policy_value(self):
        model = two_action_mdp()
        v = policy_evaluation(model, Policy.deterministic({0: STAY_ACTION, 1: "a"}))
        assert v[1] == pytest.approx(1.0, abs=1e-8)

    def test_self_loop_zero(self):
        model = two_action_mdp()
        v = policy_evaluation(model, Policy.deterministic({0: STAY_ACTION, 1: "b"}))
        assert v[1] == pytest.approx(0.0, abs=1e-8)

    def test_myopic_at_gamma_zero(self):
        model = two_action_mdp(gamma=0.0)
        v = policy_evaluation(model, Policy.deterministic({0: STAY_ACTION, 1: "a"}))
        assert v[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_linear_solve(self):
        rng = synth.default_rng(35)
        for _ in range(10):
            model = synth.random_mdp(rng)
            decision = {}
            for s in model.states:
                actions = model.actions(s)
                weights = [rng.random() + 0.05 for _ in actions]
                total = sum(weights)
                decision[s] = {a: w / total for a, w in zip(actions, weights)}
            policy = Policy(decision=decision)
            v = policy_evaluation(model, policy, tol=1e-9)
            exact = oracles.exact_policy_value(model, decision)
            for s in model.states:
                assert v[s] == pytest.approx(exact[s], abs=1e-8)

    def test_unavailable_action_rejected(self):
        model = chain_mdp()
        with pytest.raises(CarlabError, match="unavailable action"):
            policy_evaluation(model, Policy.deterministic({0: STAY_ACTION, 1: "zzz"}))

    def test_uncovered_state_rejected(self):
        model = chain_mdp()
        with pytest.raises(CarlabError, match="does not cover"):
            policy_evaluation(model, Policy.deterministic({0: STAY_ACTION}))

    def test_state_outside_the_model_rejected(self):
        model = chain_mdp()
        decision = {0: {STAY_ACTION: 1.0}, 1: {"a": 1.0}, 9: {"a": 1.0}, 7: {"b": 1.0}}
        with pytest.raises(CarlabError, match="^policy decides at state 7, which the model does not have$"):
            policy_evaluation(model, Policy(decision=decision))

    def test_stay_decision_needs_the_normal_class_in_the_model(self):
        model = MDPModel(states=(1,), gamma=0.9, transitions={1: {"a": ((1, 1.0, 0.0),)}})
        policy = extract_observed_policy([TraceEvent("x", 0, 0.0, (1.0,), 1, "a")])
        with pytest.raises(CarlabError, match="^policy decides at state 0, which the model does not have$"):
            policy_evaluation(model, policy)

    @pytest.mark.parametrize("weight", [-0.5, float("nan")])
    def test_negative_or_nan_weight_rejected(self, weight):
        model = chain_mdp()
        decision = {0: {STAY_ACTION: 1.0}, 1: {"a": 1.5, "zzz": weight}}
        with pytest.raises(CarlabError, match="negative weight"):
            policy_evaluation(model, Policy(decision=decision))


class TestObservedPolicy:
    def test_single_action_frequency(self):
        traces = one_step_traces([(0, 4)])
        policy = extract_observed_policy(traces)
        assert policy.decision[1] == {"a": 1.0}

    def test_mixed_frequencies(self):
        events = {}
        for k in range(4):
            action = "a" if k < 3 else "b"
            events[f"o{k}"] = (
                TraceEvent(f"o{k}", 0, 0.0, (1.0,), 1, action),
                TraceEvent(f"o{k}", 1, 1.0, (0.0,), 0, None),
            )
        policy = extract_observed_policy(events)
        assert policy.decision[1] == {"a": 0.75, "b": 0.25}

    def test_unvisited_state_absent(self):
        traces = one_step_traces([(0, 1)])
        policy = extract_observed_policy(traces)
        assert 2 not in policy.decision


class TestComparePolicies:
    def test_self_comparison(self):
        model = two_action_mdp()
        report = compare_policies(
            Policy.deterministic({0: STAY_ACTION, 1: "a"}), model
        )
        assert report.verdict == "matches-optimal"
        assert all(r <= 1e-8 for r in report.regret.values())
        assert report.agreement == {0: True, 1: True}

    def test_suboptimal_action_has_unit_regret(self):
        model = two_action_mdp()
        report = compare_policies(
            Policy.deterministic({0: STAY_ACTION, 1: "b"}), model
        )
        assert report.regret[1] == pytest.approx(1.0, abs=1e-7)
        assert report.verdict == "suboptimal"
        assert not report.agreement[1]

    def test_mixture_sits_between_extremes(self):
        model = two_action_mdp()
        mixed = Policy(decision={0: {STAY_ACTION: 1.0}, 1: {"a": 0.75, "b": 0.25}})
        report = compare_policies(mixed, model)
        # V = 0.75 * 1 + 0.25 * 0.9 V  =>  V = 0.75 / 0.775
        expected = 0.75 / 0.775
        assert report.v_observed[1] == pytest.approx(expected, abs=1e-8)
        assert 0.0 < report.regret[1] < 1.0

    def test_regret_nonnegative_on_random_models(self):
        rng = synth.default_rng(36)
        for _ in range(10):
            model = synth.random_mdp(rng)
            decision = {}
            for s in model.states:
                actions = model.actions(s)
                pick = actions[rng.randrange(len(actions))]
                decision[s] = {pick: 1.0}
            report = compare_policies(Policy(decision=decision), model)
            for s in model.states:
                assert report.regret[s] >= -1e-9


class TestBackupGuards:
    def test_identical_actions_tie_to_lowest_id(self):
        model = MDPModel(
            states=(0, 1),
            gamma=0.9,
            transitions={
                0: {STAY_ACTION: ((0, 1.0, 0.0),)},
                1: {
                    "b": ((0, 0.5, 1.0), (1, 0.5, 0.0)),
                    "a": ((0, 0.5, 1.0), (1, 0.5, 0.0)),
                },
            },
        )
        vi = value_iteration(model)
        assert vi.policy.action(1) == "a"
        report = compare_policies(vi.policy, model)
        assert report.optimal_actions[1] == ("a", "b")

    def test_destination_listed_twice_with_different_rewards(self):
        rows = [
            (0, STAY_ACTION, 0, 1.0, 0.0),
            (1, "a", 0, 0.25, 1.0),
            (1, "a", 0, 0.25, 3.0),
            (1, "a", 1, 0.5, -1.0),
            (1, "b", 2, 1.0, 0.5),
            (2, "c", 1, 0.5, 2.0),
            (2, "c", 1, 0.5, -2.5),
            (2, "d", 0, 0.5, 1.0),
            (2, "d", 2, 0.5, -1.0),
        ]
        model = mdp_from_json(
            {
                "states": [0, 1, 2],
                "gamma": 0.9,
                "transitions": [
                    {"s": s, "a": a, "s'": dst, "p": p, "r": r}
                    for s, a, dst, p, r in rows
                ],
            }
        )
        vi = value_iteration(model)
        best = oracles.best_deterministic_values(model)
        decision = {
            0: {STAY_ACTION: 1.0},
            1: {"a": 0.3, "b": 0.7},
            2: {"c": 0.6, "d": 0.4},
        }
        v = policy_evaluation(model, Policy(decision=decision))
        exact = oracles.exact_policy_value(model, decision)
        for s in model.states:
            assert vi.values[s] == pytest.approx(best[s], abs=1e-8)
            assert v[s] == pytest.approx(exact[s], abs=1e-8)

    def test_greedy_policy_matches_optimal_at_high_gamma(self):
        rng = synth.default_rng(38)
        for _ in range(5):
            model = synth.random_mdp(rng, gamma=0.999)
            report = compare_policies(value_iteration(model).policy, model)
            assert report.verdict == "matches-optimal"
            assert all(report.agreement.values())


def self_loop_mdp(gamma, reward):
    """At state 1 the one action loops with ``reward``: the change of sweep
    k is exactly gamma^(k-1) * reward, the most the sweep bound allows."""
    return MDPModel(
        states=(0, 1),
        gamma=gamma,
        transitions={0: {STAY_ACTION: ((0, 1.0, 0.0),)}, 1: {"a": ((1, 1.0, reward),)}},
    )


class TestSweepBound:
    def test_a_step_that_never_settles_raises(self):
        sweeps = []

        def step(values):
            sweeps.append(values)
            assert len(sweeps) <= 1000, "the sweeps are not bounded"
            return values + 1.0

        with pytest.raises(CarlabError, match="still move by 1.0 after 62 sweeps"):
            _fixed_point(step, self_loop_mdp(0.5, 1.0)._backup, 1e-9)

    def test_a_tolerance_far_below_the_reward_bounds_the_sweeps(self):
        """tol / max|r| underflows to 0.0 here, and the bound is still
        taken: the float sweeps stop moving and settle."""
        assert 1e-20 / 1e305 == 0.0
        vi = value_iteration(self_loop_mdp(0.9, 1e305), tol=1e-20)
        assert vi.values[1] == pytest.approx(1e306)

    def test_a_tolerance_that_is_not_positive_raises(self):
        with pytest.raises(CarlabError, match="not positive"):
            value_iteration(chain_mdp(), tol=0.0)

    def test_zero_rewards_settle_in_one_sweep(self):
        vi = value_iteration(self_loop_mdp(0.9, 0.0))
        assert vi.iterations == 1
        assert vi.values == {0: 0.0, 1: 0.0}

    def test_gamma_zero_settles_in_two_sweeps(self):
        vi = value_iteration(two_action_mdp(gamma=0.0))
        assert vi.iterations == 2
        assert vi.values[1] == 1.0
        v = policy_evaluation(two_action_mdp(gamma=0.0), Policy.deterministic({0: STAY_ACTION, 1: "a"}))
        assert v[1] == 1.0

    @pytest.mark.parametrize("gamma", [0.9, 0.99999])
    def test_values_that_overflow_raise(self, gamma):
        with pytest.raises(CarlabError, match="values overflow float64 in sweep"):
            value_iteration(self_loop_mdp(gamma, 1e308))

    def test_rounding_slack(self):
        """Float sweeps on a rewarding self-loop run ten past the exact bound
        of 1 + ceil(log(tol / r) / log(gamma)) = 27,619 and still settle."""
        vi = value_iteration(self_loop_mdp(0.999, 1000.0), tol=1e-9)
        assert vi.iterations == 27_629
        assert vi.values[1] == pytest.approx(1e6)


def test_row_sum_validation():
    with pytest.raises(CarlabError, match="sums to"):
        MDPModel(
            states=(0, 1),
            gamma=0.9,
            transitions={
                0: {STAY_ACTION: ((0, 1.0, 0.0),)},
                1: {"a": ((0, 0.5, 1.0),)},
            },
        )


def test_normal_class_must_be_absorbing():
    with pytest.raises(CarlabError, match="absorbing"):
        MDPModel(
            states=(0, 1),
            gamma=0.9,
            transitions={
                0: {"a0": ((1, 1.0, 0.0),)},
                1: {"a": ((0, 1.0, 1.0),)},
            },
        )


def test_mdp_json_round_trip(tmp_path):
    rng = synth.default_rng(37)
    model = synth.random_mdp(rng)
    path = tmp_path / "m.json"
    save_mdp(model, path)
    again = load_mdp(path)
    assert again.states == model.states
    assert again.gamma == model.gamma
    assert again.transitions == model.transitions
    assert mdp_from_json(mdp_to_json(model)) == model


@pytest.mark.parametrize(
    "p, r, message",
    [
        (math.nan, 0.0, r"row \(1, a\): probability nan"),
        (1.5, 0.0, r"row \(1, a\): probability 1.5"),
        (1.0, math.nan, r"row \(1, a\): non-finite reward"),
        (1.0, math.inf, r"row \(1, a\): non-finite reward"),
    ],
)
def test_mdp_from_json_rejects_bad_outcomes(p, r, message):
    data = {
        "states": [0, 1],
        "gamma": 0.9,
        "transitions": [
            {"s": 0, "a": STAY_ACTION, "s'": 0, "p": 1.0, "r": 0.0},
            {"s": 1, "a": "a", "s'": 0, "p": p, "r": r},
        ],
    }
    with pytest.raises(CarlabError, match=message):
        mdp_from_json(data)


# The checks of a transition row's fields, in the order a row is read.
ROW_FIELDS = (
    ("p", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "must be a number"),
    ("r", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "must be a number"),
    ("s", lambda v: isinstance(v, int) and not isinstance(v, bool), "must be an integer"),
    ("a", lambda v: isinstance(v, str) and v != "", "must be a nonempty string"),
    ("s'", lambda v: isinstance(v, int) and not isinstance(v, bool), "must be an integer"),
)


def _first_row_fault(rows: list) -> tuple[type, str]:
    """The error a reader that takes the rows one at a time, each field
    in the order p, r, s, a, s', raises first."""
    for row in rows:
        for key, valid, rule in ROW_FIELDS:
            if key not in row:
                return KeyError, str(KeyError(key))
            if not valid(row[key]):
                return CarlabError, f"{key} {rule}, got {row[key]!r}"
    raise AssertionError("no row fails")


# Each fault: the field it breaks and its bad value (None drops the field).
ROW_FAULTS = {
    "bool-s": ("s", True),
    "string-p": ("p", "0.5"),
    "empty-a": ("a", ""),
    "missing-s'": ("s'", None),
    "bool-s'": ("s'", False),
    "string-r": ("r", "1"),
    "float-s": ("s", 1.0),
    "none-a": ("a", None),
}


def _break(row: dict, fault: str) -> None:
    key, value = ROW_FAULTS[fault]
    if value is None and key == "s'":
        row.pop(key, None)
    else:
        row[key] = value


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), faults=st.lists(st.tuples(st.sampled_from(sorted(ROW_FAULTS)), st.integers(0, 10**6)),
                                                   min_size=1, max_size=4))
def test_mdp_from_json_raises_at_the_first_failing_row_and_field(seed, faults):
    """A document read by columns raises what a row-at-a-time read raises:
    the first row that fails, at its first field in the order p, r, s, a, s'."""
    data = json.loads(json.dumps(mdp_to_json(synth.random_mdp(synth.default_rng(seed)))))
    rows = data["transitions"]
    for fault, at in faults:
        _break(rows[at % len(rows)], fault)
    kind, message = _first_row_fault(rows)
    with pytest.raises(kind) as raised:
        mdp_from_json(data)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "faults, message",
    [
        ({2: ["bool-s"], 3: ["string-p"]}, "s must be an integer, got True"),
        ({2: ["string-p"], 3: ["bool-s"]}, "p must be a number, got '0.5'"),
        ({2: ["empty-a"], 3: ["missing-s'"]}, "a must be a nonempty string, got ''"),
        ({2: ["missing-s'"], 3: ["empty-a"]}, "missing key \"s'\""),
        ({2: ["missing-s'", "bool-s"]}, "s must be an integer, got True"),
        ({2: ["empty-a", "string-p"]}, "p must be a number, got '0.5'"),
        ({3: ["string-r"], 2: ["missing-s'"]}, "missing key \"s'\""),
    ],
    ids=["bool-s", "string-p", "empty-a", "missing-s'", "s-before-s'", "p-before-a", "earlier-row"],
)
def test_load_mdp_names_the_first_failing_row_and_field(tmp_path, faults, message):
    rows = [
        {"s": 0, "a": STAY_ACTION, "s'": 0, "p": 1.0, "r": 0.0},
        {"s": 1, "a": "a1", "s'": 0, "p": 0.5, "r": 1.0},
        {"s": 1, "a": "a1", "s'": 1, "p": 0.5, "r": 0.0},
        {"s": 1, "a": "a2", "s'": 0, "p": 1.0, "r": 1.0},
    ]
    for k, names in faults.items():
        for fault in names:
            _break(rows[k], fault)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"states": [0, 1], "gamma": 0.9, "transitions": rows}), encoding="utf-8")
    with pytest.raises(CarlabError) as raised:
        load_mdp(path)
    assert str(raised.value) == f"{path}: {message}"


def test_compare_policies_from_threads_matches_one_thread():
    """Sweeps that share a model's cached backup keep their buffers apart:
    three threads (more than the two cores of a small runner) comparing on
    one model, switching often, report the bits one thread does."""
    model = synth.random_mdp(synth.default_rng(41), gamma=0.99)
    policy = Policy(decision={s: {a: 1.0 / len(model.actions(s)) for a in model.actions(s)} for s in model.states})
    expected = repr(compare_policies(policy, model))
    barrier, reports = threading.Barrier(3), [[], [], []]

    def work(k: int) -> None:
        barrier.wait(timeout=60)
        for _ in range(10):
            reports[k].append(repr(compare_policies(policy, model)))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == [[expected] * 10] * 3
