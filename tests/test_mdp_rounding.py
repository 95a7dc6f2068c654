"""The MDP solvers' values, bit for bit, and the tolerance that picks
optimal actions.

The ``mdp`` module promises that each value rounds exactly as a scalar
loop over states, sorted actions and listed outcomes would.  The loops
here add term by term with ``+=``, never with ``sum()``, which
compensates its rounding from Python 3.12 on.
"""

import pytest

from carlab import synth
from carlab.mdp import (
    OPTIMAL_ATOL,
    STAY_ACTION,
    MDPModel,
    Policy,
    compare_policies,
    policy_evaluation,
    value_iteration,
)

GAMMAS = (0.0, 0.5, 0.9, 0.99)


def _scalar_sweeps(mdp, backup, tol=1e-9):
    """Sweep ``backup`` (values -> new values, one state at a time) from
    zero until no value moves by more than ``tol``: the values and the
    number of sweeps."""
    values, iterations, delta = [0.0] * len(mdp.states), 0, float("inf")
    while delta > tol:
        new_values = [backup(s, values) for s in mdp.states]
        delta = max(abs(new - old) for new, old in zip(new_values, values))
        values, iterations = new_values, iterations + 1
    return values, iterations


def _terms(mdp, s, a, values, weight=1.0):
    """One action's terms ``(weight * p) * (r + gamma * V(s'))``, in
    listed order."""
    index = {state: k for k, state in enumerate(mdp.states)}
    for dst, p, r in mdp.transitions[s][a]:
        yield (weight * p) * (r + mdp.gamma * values[index[dst]])


def _scalar_value_iteration(mdp):
    def backup(s, values):
        best = None
        for a in sorted(mdp.transitions[s]):
            q = 0.0
            for term in _terms(mdp, s, a, values):
                q += term
            best = q if best is None else max(best, q)
        return best

    return _scalar_sweeps(mdp, backup)


def _scalar_policy_evaluation(mdp, policy):
    def backup(s, values):
        v = 0.0
        for a in sorted(mdp.transitions[s]):
            for term in _terms(mdp, s, a, values, policy.decision[s].get(a, 0.0)):
                v += term
        return v

    return _scalar_sweeps(mdp, backup)[0]


def _mixed_policy(mdp, rng):
    decision = {}
    for s in mdp.states:
        weights = {a: rng.random() + 1e-3 for a in mdp.actions(s)}
        total = 0.0
        for w in weights.values():
            total += w
        decision[s] = {a: w / total for a, w in weights.items()}
    return Policy(decision=decision)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_values_round_as_a_scalar_loop(gamma):
    for seed in range(25):
        rng = synth.default_rng(seed)
        mdp = synth.random_mdp(rng, gamma=gamma)
        values, iterations = _scalar_value_iteration(mdp)
        vi = value_iteration(mdp)
        assert list(vi.values.values()) == values
        assert vi.iterations == iterations
        policy = _mixed_policy(mdp, rng)
        assert list(policy_evaluation(mdp, policy).values()) == _scalar_policy_evaluation(mdp, policy)


def _near_tie_mdp(delta):
    """At state 1, 'a' and 'b' both reach normal, 'b' paying ``delta``
    more."""
    return MDPModel(
        states=(0, 1),
        gamma=0.9,
        transitions={0: {STAY_ACTION: ((0, 1.0, 0.0),)}, 1: {"a": ((0, 1.0, 1.0),), "b": ((0, 1.0, 1.0 + delta),)}},
    )


@pytest.mark.parametrize(
    "delta, optimal, verdict", [(5e-9, ("a", "b"), "matches-optimal"), (2e-8, ("b",), "suboptimal")]
)
def test_actions_within_the_tolerance_of_the_best_are_optimal(delta, optimal, verdict):
    assert OPTIMAL_ATOL == 1e-8
    observed = Policy.deterministic({0: STAY_ACTION, 1: "a"})
    report = compare_policies(observed, _near_tie_mdp(delta))
    assert report.optimal_actions[1] == optimal
    assert report.agreement[1] is (verdict == "matches-optimal")
    assert report.verdict == verdict
