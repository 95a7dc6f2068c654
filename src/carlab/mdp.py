"""Tabular MDP estimation, value iteration, and policy comparison.

States are class labels; the normal class is absorbing under a synthetic
``stay`` action with zero reward.  Rewards derive from level-diagram
distances, so progress toward the normal class pays off and regression
costs, and cumulative reward telescopes along any trace.

A model is held once, compiled once into flat outcome rows: each (state,
action) pair, by state and then sorted action, owns a run of rows, and
each row is one listed outcome.  Value iteration, policy evaluation and
policy comparison share one Bellman backup over those rows, and every
backup sums its terms in row order, so each value rounds exactly as a
scalar loop over states, sorted actions and listed outcomes would.
Each backup keeps its row terms in a scratch buffer of its own and
multiplies a policy's weight into each probability once: a term is
``(w * p) * future``.
A comparison's ``max_regret`` and ``verdict`` are read-only properties of
its regret and agreement, under the tolerance that picks optimal actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice
from operator import itemgetter, ne
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import poset
from .core import (
    CarlabError,
    NORMAL_CLASS,
    Traces,
    TraceTable,
    _count_rows,
    _equal_fields,
    _parse_index,
    _parse_indices,
    _parse_name,
    _parse_number,
    load_json,
    save_json,
)

STAY_ACTION = "stay"
ROW_SUM_TOL = 1e-12
OPTIMAL_ATOL = 1e-8  # values within this of the best count as optimal

# (destination, probability, reward) triples per (state, action)
Outcomes = tuple[tuple[int, float, float], ...]


@dataclass(frozen=True, eq=False, init=False)
class MDPModel:
    """A checked model as flat outcome rows, its arrays read-only.

    Pair k is action ``pair_action[k]`` at state ``states[pair_state[k]]``,
    the pairs by state, in ``states`` order, then by action.  Row i, one
    outcome of pair ``pair[i]``, reaches ``states[dst[i]]`` with
    probability ``p[i]`` and reward ``r[i]``; a pair's rows run in listed
    order.  ``MDPModel(states, gamma, transitions)`` compiles {state:
    {action: ((destination, p, r), ...)}}, which ``transitions`` views."""

    states: tuple[int, ...]
    gamma: float
    pair_state: np.ndarray
    pair_action: tuple[str, ...]
    pair: np.ndarray
    dst: np.ndarray
    p: np.ndarray
    r: np.ndarray

    __eq__ = _equal_fields

    def __init__(self, states: Sequence[int], gamma: float, transitions: Mapping[int, Mapping[str, Outcomes]]):
        pairs = [(s, a, outcomes) for s, actions in transitions.items() for a, outcomes in actions.items()]
        rows = [(k, *row) for k, (*_, outcomes) in enumerate(pairs) for row in outcomes]
        s, a, _ = zip(*pairs) if pairs else ((), (), ())
        pair, dst, p, r = zip(*rows) if rows else ((), (), (), ())
        _model(self, states, gamma, transitions, s, a, pair, dst, p, r)

    @cached_property
    def transitions(self) -> Mapping[int, Mapping[str, Outcomes]]:
        """{state: {action: outcomes}}, actions sorted, built on first read."""
        outcomes = zip([self.states[k] for k in self.dst.tolist()], self.p.tolist(), self.r.tolist())
        view: dict[int, dict[str, Outcomes]] = {s: {} for s in self.states}
        sizes = np.bincount(self.pair, minlength=len(self.pair_action)).tolist()
        for k, a, size in zip(self.pair_state.tolist(), self.pair_action, sizes):
            view[self.states[k]][a] = tuple(islice(outcomes, size))
        return MappingProxyType({s: MappingProxyType(actions) for s, actions in view.items()})

    def actions(self, state: int) -> tuple[str, ...]:
        return tuple(self.transitions[state])


def _model(
    model: MDPModel, states: Sequence[int], gamma: float, sources: Iterable[int], pair_state: Sequence[int],
    pair_action: Sequence[str], pair: Sequence[int], dst: Sequence[int], p: Sequence[float], r: Sequence[float],
) -> MDPModel:
    """``model``, its fields set to the rows of (state, action) pairs,
    each given in any order: pair k is action ``pair_action[k]`` at state
    ``pair_state[k]``, and row i, one outcome of pair ``pair[i]``, has
    destination ``dst[i]``, probability ``p[i]`` and reward ``r[i]``; a
    pair's rows are its outcomes in the order given.  ``sources`` are
    the states given pairs.

    Checked as a loop would check it that takes the states in order, each
    state's pairs as given and each pair's rows in order: gamma in [0, 1),
    no state listed twice, the sources the states; each state with an
    action, each row with a known destination, a probability in [0, 1]
    and a finite reward, each pair's probabilities, added in row order,
    summing to 1 within ROW_SUM_TOL; the normal class, if a state,
    absorbing.  The checks run on arrays, and the loop only to find the
    first failure."""
    if not 0.0 <= gamma < 1.0:
        raise CarlabError("gamma must lie in [0, 1)")
    index = {s: k for k, s in enumerate(states)}
    if len(index) != len(states):
        raise CarlabError(f"states {list(states)} list a state twice")
    if set(sources) != index.keys():
        raise CarlabError(f"transition sources {sorted(sources)} are not the states {sorted(index)}")
    position, ids = np.array([index[s] for s in pair_state], np.intp), np.array(states, np.int64)
    pair, dst, p, r = np.array(pair, np.intp), np.array(dst, np.int64), np.array(p, float), np.array(r, float)
    sorter = np.argsort(ids)
    at = sorter[np.searchsorted(ids, dst, sorter=sorter).clip(max=len(ids) - 1)]  # each destination's state, if known
    known, total = ids[at] == dst, np.bincount(pair, p, minlength=len(position))
    if not (
        known.all() and ((0.0 <= p) & (p <= 1.0)).all() and np.isfinite(r).all()
        and (np.abs(total - 1.0) <= ROW_SUM_TOL).all() and len(set(position.tolist())) == len(states)
    ):
        rows = np.split(np.argsort(pair, kind="stable"), np.cumsum(np.bincount(pair, minlength=len(position)))[:-1])
        for j, s in enumerate(states):
            mine = np.flatnonzero(position == j).tolist()
            if not mine:
                raise CarlabError(f"state {s} has no actions")
            for k in mine:
                a, total = pair_action[k], 0.0
                for i in rows[k].tolist():
                    if not known[i]:
                        raise CarlabError(f"unknown destination state {dst[i]}")
                    if not 0.0 <= p[i] <= 1.0:
                        raise CarlabError(f"row ({s}, {a}): probability {p[i].item()!r} outside [0, 1]")
                    if not math.isfinite(r[i]):
                        raise CarlabError(f"row ({s}, {a}): non-finite reward {r[i].item()!r}")
                    total += p[i].item()
                if abs(total - 1.0) > ROW_SUM_TOL:
                    raise CarlabError(f"row ({s}, {a}) sums to {total!r}, expected 1")
    normal = np.flatnonzero(ids[position] == NORMAL_CLASS)  # the normal class's pairs
    if NORMAL_CLASS in index and [(pair_action[k], *(c[pair == k].tolist() for c in (dst, p, r))) for k in normal] != [
        (STAY_ACTION, [NORMAL_CLASS], [1.0], [0.0])
    ]:
        raise CarlabError("the normal class must be absorbing")
    canon = sorted(range(len(position)), key=lambda k: (position[k], pair_action[k]))
    rank = np.empty(len(canon), np.intp)
    rank[canon] = np.arange(len(canon))
    rows = np.argsort(rank[pair], kind="stable")
    arrays = dict(pair_state=position[canon], pair=rank[pair[rows]], dst=at[rows], p=p[rows], r=r[rows])
    for array in arrays.values():
        array.flags.writeable = False
    vars(model).update(states=tuple(states), gamma=gamma, pair_action=tuple(pair_action[k] for k in canon), **arrays)
    return model


@dataclass(frozen=True)
class Policy:
    """Per-state action distribution; deterministic policies put unit mass."""

    decision: dict[int, dict[str, float]]

    @staticmethod
    def deterministic(mapping: Mapping[int, str]) -> "Policy":
        return Policy(decision={s: {a: 1.0} for s, a in mapping.items()})

    def action(self, state: int) -> str:
        dist = self.decision[state]
        if len(dist) != 1:
            raise CarlabError(f"policy is stochastic at state {state}")
        return next(iter(dist))

    def support(self, state: int) -> tuple[str, ...]:
        return tuple(sorted(a for a, p in self.decision[state].items() if p > 0))


ValueFunction = dict[int, float]


@dataclass(frozen=True)
class VIResult:
    values: ValueFunction
    policy: Policy
    iterations: int
    residual: float


@dataclass(frozen=True)
class ComparisonReport:
    v_optimal: ValueFunction
    v_observed: ValueFunction
    regret: ValueFunction
    optimal_actions: dict[int, tuple[str, ...]]
    agreement: dict[int, bool]

    @property
    def max_regret(self) -> float:
        return max(self.regret.values(), default=0.0)

    @property
    def verdict(self) -> str:
        matches = all(self.agreement.values()) and self.max_regret <= OPTIMAL_ATOL
        return "matches-optimal" if matches else "suboptimal"


def reward_from_levels(diagram: poset.LevelDiagram):
    """Reward callable (s, a, s') -> level(s) - level(s')."""

    def reward(s: int, a: str, dst: int) -> float:
        return float(poset.distance_to_normal(diagram, s) - poset.distance_to_normal(diagram, dst))

    return reward


_REWARD_SHAPES = ("level-diff", "neg-level")


def estimate_mdp(
    traces: Traces,
    diagram: Optional[poset.LevelDiagram] = None,
    gamma: float = 0.9,
    smoothing: float = 0.0,
    reward_shape: str = "level-diff",
) -> MDPModel:
    """Frequency-estimate the transition model from traces.

    P(s, a, s') = (count + smoothing) / (row count + smoothing * |S|),
    with the counts and states of ``extract_relation(traces)``; actions
    per state are those observed there, and an action's outcomes are the
    states s' with P > 0, ascending.  The normal class gets the synthetic
    absorbing row.  Rewards follow the levels of ``diagram``, by default
    the level diagram of that same relation: level(s) - level(s') under
    ``level-diff``, -level(s') under ``neg-level``.
    """
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise CarlabError(f"smoothing must be a finite number >= 0, got {smoothing!r}")
    graph = poset.extract_relation(traces)
    if diagram is None:
        diagram = poset.build_level_diagram(graph)
    if reward_shape not in _REWARD_SHAPES:
        raise CarlabError(f"unknown reward shape {reward_shape!r}")
    states = graph.classes
    for s in states:
        if s not in diagram.levels:
            raise CarlabError(f"class {s} missing from the level diagram")
    for s in sorted(states - {NORMAL_CLASS}):
        if not graph.successors[s]:
            raise CarlabError(f"state {s} has no observed action")
    ordered = tuple(sorted(states))
    index, pairs = {s: k for k, s in enumerate(ordered)}, {}
    counts = np.zeros((len({(e.src, e.action) for e in graph.edges}), len(ordered)), np.int64)
    for e in graph.edges:  # the pairs in (s, a) order, as the edges
        counts[pairs.setdefault((e.src, e.action), len(pairs)), index[e.dst]] = e.count
    p = (counts + smoothing) / (counts.sum(axis=1, keepdims=True) + smoothing * len(ordered))
    level = np.array([diagram.levels[s] for s in ordered], np.int64)
    k, d = np.nonzero(p > 0)  # each pair's outcomes, by destination
    reward = (level[[index[s] for s, _ in pairs]][k] if reward_shape == "level-diff" else 0) - level[d]
    return _model(
        object.__new__(MDPModel), ordered, gamma, ordered,
        [NORMAL_CLASS, *(s for s, _ in pairs)], [STAY_ACTION, *(a for _, a in pairs)],
        np.append(0, k + 1), np.append(NORMAL_CLASS, np.array(ordered)[d]),
        np.append(1.0, p[k, d]), np.append(0.0, reward),
    )


def _sweep(mdp: MDPModel, weights: Optional[np.ndarray] = None) -> Callable[[np.ndarray], np.ndarray]:
    """The Bellman backup of ``mdp``, V -> Q per pair; given per-pair
    policy weights, V -> V per state with terms ``(w * p) * (r + gamma *
    V)``, ``w * p`` folded once and ``gamma * V`` taken per state.  Each
    call writes its row terms into one scratch buffer that belongs to the
    returned function, and ``np.bincount`` sums them in row order."""
    if weights is None:
        scale, index, size = mdp.p, mdp.pair, len(mdp.pair_action)
    else:
        scale, index, size = weights[mdp.pair] * mdp.p, mdp.pair_state[mdp.pair], len(mdp.states)
    terms, gamma, dst, r = np.empty(len(mdp.p)), mdp.gamma, mdp.dst, mdp.r

    def backup(values: np.ndarray) -> np.ndarray:
        (gamma * values).take(dst, out=terms, mode="wrap")  # every dst is a state index
        np.add(r, terms, out=terms)
        np.multiply(scale, terms, out=terms)
        return np.bincount(index, terms, minlength=size)

    return backup


def _fixed_point(step, mdp: MDPModel, tol: float) -> tuple[np.ndarray, int]:
    """Sweep ``step`` from zero until no value moves by more than ``tol``.

    ``step`` is a Bellman backup of ``mdp``, with discount gamma and
    rewards of at most max|r| in size: the first sweep moves a value by
    at most that reward and each later one by at most gamma times the
    last (Puterman 1994, section 6.3), so sweep k moves none by more
    than gamma^(k-1) * reward.  CarlabError is raised past twice the
    sweeps that bound allows, or when a value overflows.
    """
    if not tol > 0:
        raise CarlabError(f"tolerance {tol!r} is not positive")
    gamma, reward = mdp.gamma, float(np.max(np.abs(mdp.r)))
    if reward <= tol:
        bound = 1
    elif gamma == 0:
        bound = 2
    else:  # a difference of logs, since tol / reward can underflow to 0
        bound = 1 + math.ceil((math.log(tol) - math.log(reward)) / math.log(gamma))
    # The factor 2 is slack for rounding: float sweeps can run past the
    # exact bound while the last ulps settle (a rewarding self-loop at
    # gamma = 0.99999 takes 2,072,637 sweeps against a bound of 2,072,318).
    values, iterations, delta = np.zeros(len(mdp.states)), 0, np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises CarlabError instead
        while delta > tol:
            if iterations == 2 * bound:
                raise CarlabError(f"values still move by {delta!r} after {iterations} sweeps (tolerance {tol!r})")
            new_values = step(values)
            delta = float(abs(new_values - values).max())
            values, iterations = new_values, iterations + 1
            if not math.isfinite(delta):
                raise CarlabError(f"values overflow float64 in sweep {iterations}")
    return values, iterations


def value_iteration(mdp: MDPModel, tol: float = 1e-9) -> VIResult:
    """Bellman optimality sweeps to a residual of at most ``tol``.

    Stops when the sup-norm sweep change falls to ``tol``; the returned
    values then satisfy the Bellman residual bound gamma * tol <= tol.
    The greedy policy breaks ties toward the lowest action id.
    """
    q_of, first_pair = _sweep(mdp), np.searchsorted(mdp.pair_state, np.arange(len(mdp.states)))
    values, iterations = _fixed_point(lambda v: np.maximum.reduceat(q_of(v), first_pair), mdp, tol)
    q = q_of(values)
    # Sort by state, descending q, then pair: ties go to the lowest action id.
    best = np.lexsort((np.arange(len(q)), -q, mdp.pair_state))[first_pair]
    return VIResult(
        values=dict(zip(mdp.states, values.tolist())),
        policy=Policy.deterministic({s: mdp.pair_action[k] for s, k in zip(mdp.states, best.tolist())}),
        iterations=iterations,
        residual=float(np.max(np.abs(q[best] - values))),
    )


def policy_evaluation(
    mdp: MDPModel, policy: Policy, tol: float = 1e-9
) -> ValueFunction:
    """Iterative fixed-point evaluation of a (possibly stochastic) policy
    that decides at exactly the model's states."""
    pairs = [(mdp.states[k], a) for k, a in zip(mdp.pair_state.tolist(), mdp.pair_action)]
    available = set(pairs)
    for s in mdp.states:
        if s not in policy.decision:
            raise CarlabError(f"policy does not cover state {s}")
        for a in policy.support(s):
            if (s, a) not in available:
                raise CarlabError(f"policy uses unavailable action {a!r} at {s}")
        if not all(w >= 0 for w in policy.decision[s].values()):
            raise CarlabError(f"policy distribution at {s} has a negative weight")
        total = sum(policy.decision[s].values())
        if abs(total - 1.0) > 1e-9:
            raise CarlabError(f"policy distribution at {s} sums to {total!r}")
    extra = set(policy.decision).difference(mdp.states)
    if extra:
        raise CarlabError(f"policy decides at state {min(extra)}, which the model does not have")
    weights = np.array([policy.decision[s].get(a, 0.0) for s, a in pairs])
    values, _ = _fixed_point(_sweep(mdp, weights), mdp, tol)
    return dict(zip(mdp.states, values.tolist()))


def extract_observed_policy(traces: Traces) -> Policy:
    """Empirical action frequencies per deviated state, plus the synthetic
    stay decision at the normal class."""
    table = TraceTable.from_events(traces)
    deviated = table.label != NORMAL_CLASS
    totals = dict(_count_rows(table.label[deviated]))
    decision: dict[int, dict[str, float]] = {NORMAL_CLASS: {STAY_ACTION: 1.0}}
    for s, a, c in _count_rows(table.label[deviated], table.action[deviated]):
        decision.setdefault(s, {})[table.actions[a]] = c / totals[s]
    return Policy(decision=decision)


def compare_policies(
    observed: Policy, mdp: MDPModel, tol: float = 1e-9
) -> ComparisonReport:
    """Observed-vs-optimal report: values, per-state regret, agreement.

    A state agrees when the observed policy puts all its mass on actions
    that are optimal under the computed value function.
    """
    vi = value_iteration(mdp, tol=tol)
    v_obs = policy_evaluation(mdp, observed, tol=tol)
    q = _sweep(mdp)(np.array([vi.values[s] for s in mdp.states]))
    best = np.maximum.reduceat(q, np.searchsorted(mdp.pair_state, np.arange(len(mdp.states))))
    near_best = q >= (best - OPTIMAL_ATOL)[mdp.pair_state]
    optimal_actions: dict[int, tuple[str, ...]] = {}
    pairs = [(mdp.states[k], a) for k, a in zip(mdp.pair_state.tolist(), mdp.pair_action)]
    for s, a in compress(pairs, near_best):
        optimal_actions[s] = optimal_actions.get(s, ()) + (a,)
    return ComparisonReport(
        v_optimal=vi.values,
        v_observed=v_obs,
        regret={s: vi.values[s] - v_obs[s] for s in mdp.states},
        optimal_actions=optimal_actions,
        agreement={s: set(observed.support(s)) <= set(optimal_actions[s]) for s in mdp.states},
    )


def mdp_to_json(mdp: MDPModel) -> dict:
    """JSON form: {states, gamma, transitions: [{s, a, s', p, r}]}, one
    transition per outcome row, in row order."""
    states, pair = mdp.states, mdp.pair.tolist()
    rows = zip(
        [states[k] for k in mdp.pair_state[mdp.pair].tolist()], [mdp.pair_action[k] for k in pair],
        [states[k] for k in mdp.dst.tolist()], mdp.p.tolist(), mdp.r.tolist(),
    )
    return {
        "states": list(states), "gamma": mdp.gamma,
        "transitions": [{"s": s, "a": a, "s'": dst, "p": p, "r": r} for s, a, dst, p, r in rows],
    }


# Each field of a transition row, in the order a row is read: the exact
# kinds of its value, and its reader.
_ROW_FIELDS = {
    "p": ({int, float}, _parse_number), "r": ({int, float}, _parse_number), "s": ({int}, _parse_index),
    "a": ({str}, _parse_name), "s'": ({int}, _parse_index),
}


def _transition_columns(rows: list) -> Optional[dict[str, list]]:
    """The fields of the transition rows as columns; None unless every row
    holds each field with its exact kind, every action is nonempty and
    every state fits in 64 bits."""
    try:
        columns = {key: list(map(itemgetter(key), rows)) for key in _ROW_FIELDS}
    except (KeyError, TypeError):
        return None
    if any(not set(map(type, columns[key])) <= kinds for key, (kinds, _) in _ROW_FIELDS.items()) or "" in columns["a"]:
        return None
    states = columns["s"] + columns["s'"]
    if not -(2**63) <= min(states, default=0) <= max(states, default=0) < 2**63:
        return None
    return columns


def mdp_from_json(data: dict) -> MDPModel:
    """The model of an MDP JSON document.  Its transition rows are read by
    column, each column checked once; when a check fails, the rows are
    read one at a time, to raise at the first row and field (in the
    order p, r, s, a, s') that fails or, when none does (a value of a
    subclass of float or int, say), to give the columns.  A pair's rows
    are its rows in document order, wherever they stand."""
    rows = data["transitions"]
    columns = _transition_columns(rows)
    if columns is None:
        columns = {key: [] for key in _ROW_FIELDS}
        for row in rows:
            for key, (_, parse) in _ROW_FIELDS.items():
                columns[key].append(parse(row[key], key))
    states, gamma = _parse_indices(data["states"], "state"), _parse_number(data["gamma"], "gamma")
    keys = list(zip(columns["s"], columns["a"]))
    heads = [*compress(range(len(keys)), chain([True], map(ne, keys[1:], keys)))]  # runs of rows of one pair
    pairs: dict[tuple[int, str], int] = {}
    runs = [pairs.setdefault(keys[k], len(pairs)) for k in heads]
    return _model(
        object.__new__(MDPModel), states, gamma, {s for s, _ in pairs}, [s for s, _ in pairs], [a for _, a in pairs],
        np.repeat(np.array(runs, np.intp), np.diff([*heads, len(keys)])), columns["s'"], columns["p"], columns["r"],
    )


def save_mdp(mdp: MDPModel, dest: Union[str, Path]) -> None:
    save_json(mdp_to_json(mdp), dest)


def load_mdp(source: Union[str, Path]) -> MDPModel:
    return load_json(source, mdp_from_json)
