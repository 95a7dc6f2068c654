"""MDP models held as outcome rows, against per-outcome loops.

``estimate_mdp`` computes every probability and reward as arrays; each
must equal, bit for bit, what a loop over the outcomes computes with the
formulas of its docstring.  ``MDPModel`` checks its rows as arrays; it
must raise what a loop over the states, their actions and the actions'
outcomes raises first.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import synth
from carlab.core import NORMAL_CLASS, CarlabError, TraceEvent
from carlab.mdp import ROW_SUM_TOL, STAY_ACTION, MDPModel, estimate_mdp, mdp_from_json, mdp_to_json
from carlab.poset import ClassTransitionGraph, Transition, build_level_diagram, extract_relation

ACTIONS = ("a0", "a1", "b")


def _walks(seed):
    """Trace events of random walks over classes 0..5 under random actions,
    drawn again until every deviated class has an observed action and a
    level."""
    rng = synth.default_rng(seed)
    while True:
        events = []
        for k in range(rng.randint(3, 25)):
            current, t = rng.randint(1, 5), 0.0
            for step in range(rng.randint(2, 10)):
                t += rng.uniform(0.5, 2.0)
                action = rng.choice(ACTIONS) if current else None
                events.append(TraceEvent(f"o{k}", step, t, (rng.uniform(0.0, 1.0),), current, action))
                if not current:
                    break
                current = min(5, max(0, current + rng.choice((-2, -1, -1, 0, 1))))
        graph = extract_relation(events)
        if all(graph.successors[c] for c in graph.classes - {NORMAL_CLASS}) and build_level_diagram(graph).complete:
            return events


def _per_outcome(traces, diagram, smoothing, shape):
    """The transitions of ``estimate_mdp``, one outcome at a time."""
    graph = extract_relation(traces)
    diagram = diagram or build_level_diagram(graph)
    states, counts = sorted(graph.classes), {}
    for e in graph.edges:
        counts.setdefault((e.src, e.action), {})[e.dst] = e.count
    expected = {NORMAL_CLASS: {STAY_ACTION: ((NORMAL_CLASS, 1.0, 0.0),)}}
    for (s, a), row in counts.items():
        total, outcomes = sum(row.values()), []
        for dst in states:
            p = (row.get(dst, 0) + smoothing) / (total + smoothing * len(states))
            reward = diagram.levels[s] - diagram.levels[dst] if shape == "level-diff" else -diagram.levels[dst]
            if p > 0.0:
                outcomes.append((dst, p, float(reward)))
        expected.setdefault(s, {})[a] = tuple(outcomes)
    return expected


def _bits(transitions):
    return {
        s: {a: [(dst, p.hex(), r.hex()) for dst, p, r in outcomes] for a, outcomes in actions.items()}
        for s, actions in transitions.items()
    }


CHAIN = build_level_diagram(ClassTransitionGraph.build([Transition(c, f"c{c}", c - 1) for c in range(1, 6)]))


@pytest.mark.parametrize("shape", ["level-diff", "neg-level"])
@pytest.mark.parametrize("smoothing", [0.0, 0.5, 1.7])
@pytest.mark.parametrize("diagram", [None, CHAIN], ids=["own-levels", "chain-levels"])
@pytest.mark.parametrize("seed", range(4))
def test_estimate_mdp_matches_the_per_outcome_formulas(seed, diagram, smoothing, shape):
    traces = synth.random_trace_log(synth.default_rng(seed), classes=5) if seed % 2 else _walks(seed)
    model = estimate_mdp(traces, diagram, gamma=0.95, smoothing=smoothing, reward_shape=shape)
    expected = _per_outcome(traces, diagram, smoothing, shape)
    assert _bits(model.transitions) == _bits(expected)
    assert all(list(actions) == sorted(actions) for actions in model.transitions.values())
    assert mdp_from_json(json.loads(json.dumps(mdp_to_json(model)))) == model
    rebuilt = MDPModel(model.states, model.gamma, expected)
    assert rebuilt == model
    assert rebuilt.transitions == expected


def _first_fault(states, gamma, transitions):
    """The message of the first check a model fails, taking the states in
    order, each state's actions as listed and each action's outcomes in
    order; None when it fails none."""
    if not 0.0 <= gamma < 1.0:
        return "gamma must lie in [0, 1)"
    members = set(states)
    if len(members) != len(states):
        return f"states {list(states)} list a state twice"
    if set(transitions) != members:
        return f"transition sources {sorted(transitions)} are not the states {sorted(members)}"
    for s in states:
        if not transitions[s]:
            return f"state {s} has no actions"
        for a, outcomes in transitions[s].items():
            total = 0.0
            for dst, p, r in outcomes:
                if dst not in members:
                    return f"unknown destination state {dst}"
                if not 0.0 <= p <= 1.0:
                    return f"row ({s}, {a}): probability {p!r} outside [0, 1]"
                if not math.isfinite(r):
                    return f"row ({s}, {a}): non-finite reward {r!r}"
                total += p
            if abs(total - 1.0) > ROW_SUM_TOL:
                return f"row ({s}, {a}) sums to {total!r}, expected 1"
    if NORMAL_CLASS in members and transitions[NORMAL_CLASS] != {STAY_ACTION: ((NORMAL_CLASS, 1.0, 0.0),)}:
        return "the normal class must be absorbing"
    return None


# Each fault: how it changes one outcome row (dst, p, r), or None for one
# that drops the row, empties its action or empties its state.
OUTCOME_FAULTS = {
    "nan-p": lambda dst, p, r: (dst, math.nan, r),
    "big-p": lambda dst, p, r: (dst, 1.5, r),
    "negative-p": lambda dst, p, r: (dst, -0.25, r),
    "inf-r": lambda dst, p, r: (dst, p, math.inf),
    "nan-r": lambda dst, p, r: (dst, p, math.nan),
    "unknown-dst": lambda dst, p, r: (97, p, r),
    "drop-row": None,
    "empty-action": None,
    "empty-state": None,
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    faults=st.lists(st.tuples(st.sampled_from(sorted(OUTCOME_FAULTS)), st.integers(0, 10**6)), max_size=3),
    reverse=st.booleans(),
)
def test_model_checks_raise_the_first_fault_of_a_row_loop(seed, faults, reverse):
    model = synth.random_mdp(synth.default_rng(seed), max_states=5, max_actions=3)
    transitions = {
        s: dict(reversed(actions.items()) if reverse else actions.items())  # listed out of order, too
        for s, actions in model.transitions.items()
    }
    for fault, at in faults:
        s = model.states[at % len(model.states)]
        if fault == "empty-state":
            transitions[s] = {}
            continue
        if not transitions[s]:
            continue
        a = list(transitions[s])[at % len(transitions[s])]
        outcomes = list(transitions[s][a])
        if fault == "empty-action":
            outcomes = []
        elif outcomes and OUTCOME_FAULTS[fault] is None:
            del outcomes[at % len(outcomes)]
        elif outcomes:
            k = at % len(outcomes)
            outcomes[k] = OUTCOME_FAULTS[fault](*outcomes[k])
        transitions[s][a] = tuple(outcomes)
    expected = _first_fault(model.states, model.gamma, transitions)
    if expected is None:
        view = MDPModel(model.states, model.gamma, transitions).transitions
        assert view == transitions
        assert all(list(actions) == sorted(actions) for actions in view.values())
    else:
        with pytest.raises(CarlabError) as raised:
            MDPModel(model.states, model.gamma, transitions)
        assert str(raised.value) == expected


def test_mdp_from_json_reads_values_of_float_and_int_subclasses():
    class Index(int):
        pass

    model = synth.random_mdp(synth.default_rng(3), max_states=4, max_actions=3)
    document = mdp_to_json(model)
    for row in document["transitions"]:
        row["p"], row["r"], row["s"] = np.float64(row["p"]), np.float64(row["r"]), Index(row["s"])
    read = mdp_from_json(document)
    assert read == model
    assert read.transitions == model.transitions
