"""Tabular MDP estimation, value iteration, and policy comparison.

States are class labels; the normal class is absorbing under a synthetic
``stay`` action with zero reward.  Rewards derive from level-diagram
distances, so progress toward the normal class pays off and regression
costs, and cumulative reward telescopes along any trace.

Value iteration, policy evaluation and policy comparison share one
Bellman backup over the model compiled once into flat outcome rows, and
every backup sums its terms in model order, so each value rounds exactly
as a scalar loop over states, sorted actions and listed outcomes would.
Each sweep loop keeps its row terms in a scratch buffer of its own, not
on the cached backup that threads may share, and multiplies a policy's
weight into each probability once: a term is ``(w * p) * future``.
A comparison's ``max_regret`` and ``verdict`` are read-only properties of
its regret and agreement, under the tolerance that picks optimal actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter, ne
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .core import (
    CarlabError,
    NORMAL_CLASS,
    Traces,
    TraceTable,
    _count_rows,
    _parse_index,
    _parse_indices,
    _parse_name,
    _parse_number,
    load_json,
    save_json,
)
from .poset import LevelDiagram, build_level_diagram, distance_to_normal, extract_relation

STAY_ACTION = "stay"
ROW_SUM_TOL = 1e-12
OPTIMAL_ATOL = 1e-8  # values within this of the best count as optimal

# (destination, probability, reward) triples per (state, action)
Outcomes = tuple[tuple[int, float, float], ...]


@dataclass(frozen=True)
class MDPModel:
    states: tuple[int, ...]
    gamma: float
    transitions: dict[int, dict[str, Outcomes]]

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise CarlabError("gamma must lie in [0, 1)")
        members = set(self.states)
        if len(members) != len(self.states):
            raise CarlabError(f"states {list(self.states)} list a state twice")
        if set(self.transitions) != members:
            raise CarlabError(f"transition sources {sorted(self.transitions)} are not the states {sorted(members)}")
        for s in self.states:
            if not self.transitions[s]:
                raise CarlabError(f"state {s} has no actions")
            for a, outcomes in self.transitions[s].items():
                total = 0.0
                for dst, p, r in outcomes:
                    if dst not in members:
                        raise CarlabError(f"unknown destination state {dst}")
                    if not 0.0 <= p <= 1.0:
                        raise CarlabError(f"row ({s}, {a}): probability {p!r} outside [0, 1]")
                    if not math.isfinite(r):
                        raise CarlabError(f"row ({s}, {a}): non-finite reward {r!r}")
                    total += p
                if abs(total - 1.0) > ROW_SUM_TOL:
                    raise CarlabError(
                        f"row ({s}, {a}) sums to {total!r}, expected 1"
                    )
        if NORMAL_CLASS in members:
            row = self.transitions[NORMAL_CLASS]
            if row != {STAY_ACTION: ((NORMAL_CLASS, 1.0, 0.0),)}:
                raise CarlabError("the normal class must be absorbing")

    def actions(self, state: int) -> tuple[str, ...]:
        return tuple(sorted(self.transitions[state]))

    @cached_property
    def _backup(self) -> "_Backup":
        return _Backup(self)


class _Backup:
    """A model's Bellman backup over flat outcome rows, ordered by state,
    sorted action and listed outcome: each (state, action) pair owns a run
    of rows, and each state a run of pairs starting at ``first_pair``."""

    def __init__(self, mdp: MDPModel) -> None:
        index = {s: k for k, s in enumerate(mdp.states)}
        self.gamma = mdp.gamma
        self.pairs = [(s, a) for s in mdp.states for a in mdp.actions(s)]
        self.pair_state = np.array([index[s] for s, _ in self.pairs])
        self.first_pair = np.searchsorted(self.pair_state, np.arange(len(index)))
        outcomes = [mdp.transitions[s][a] for s, a in self.pairs]
        dst, p, r = zip(*chain.from_iterable(outcomes))
        self.pair = np.repeat(np.arange(len(self.pairs)), list(map(len, outcomes)))
        self.dst, self.p, self.r = np.array(list(map(index.__getitem__, dst))), np.array(p), np.array(r)
        self.src = self.pair_state[self.pair]
        self.reward = float(np.max(np.abs(self.r)))  # the largest |reward|

    def sweep(self, weights: Optional[np.ndarray] = None) -> Callable[[np.ndarray], np.ndarray]:
        """The backup V -> Q per pair; given per-pair policy weights, V -> V
        per state with terms ``(w * p) * (r + gamma * V)``, ``w * p`` folded
        once and ``gamma * V`` taken per state.  Each call writes its row
        terms into one scratch buffer that belongs to the returned function,
        and ``np.bincount`` sums them in row order."""
        if weights is None:
            scale, index, size = self.p, self.pair, len(self.pairs)
        else:
            scale, index, size = weights[self.pair] * self.p, self.src, len(self.first_pair)
        terms = np.empty(len(self.p))

        def backup(values: np.ndarray) -> np.ndarray:
            np.take(self.gamma * values, self.dst, out=terms, mode="wrap")  # every dst is a state index
            np.add(self.r, terms, out=terms)
            np.multiply(scale, terms, out=terms)
            return np.bincount(index, terms, minlength=size)

        return backup


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


def reward_from_levels(diagram: LevelDiagram):
    """Reward callable (s, a, s') -> level(s) - level(s')."""

    def reward(s: int, a: str, dst: int) -> float:
        return float(distance_to_normal(diagram, s) - distance_to_normal(diagram, dst))

    return reward


def _neg_level_reward(diagram: LevelDiagram):
    def reward(s: int, a: str, dst: int) -> float:
        return float(-distance_to_normal(diagram, dst))

    return reward


def estimate_mdp(
    traces: Traces,
    diagram: Optional[LevelDiagram] = None,
    gamma: float = 0.9,
    smoothing: float = 0.0,
    reward_shape: str = "level-diff",
) -> MDPModel:
    """Frequency-estimate the transition model from traces.

    P(s, a, s') = (count + smoothing) / (row count + smoothing * |S|),
    with the counts and states of ``extract_relation(traces)``; actions
    per state are those observed there.  The normal class gets the
    synthetic absorbing row.  Rewards follow ``diagram``, by default the
    level diagram of that same relation.
    """
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise CarlabError(f"smoothing must be a finite number >= 0, got {smoothing!r}")
    graph = extract_relation(traces)
    if diagram is None:
        diagram = build_level_diagram(graph)
    if reward_shape == "level-diff":
        reward = reward_from_levels(diagram)
    elif reward_shape == "neg-level":
        reward = _neg_level_reward(diagram)
    else:
        raise CarlabError(f"unknown reward shape {reward_shape!r}")
    counts: dict[tuple[int, str], dict[int, int]] = {}  # in (s, a) order, as the edges
    for e in graph.edges:
        counts.setdefault((e.src, e.action), {})[e.dst] = e.count
    states = graph.classes
    for s in states:
        if s not in diagram.levels:
            raise CarlabError(f"class {s} missing from the level diagram")
    for s in sorted(states - {NORMAL_CLASS}):
        if not graph.successors[s]:
            raise CarlabError(f"state {s} has no observed action")
    ordered = tuple(sorted(states))
    size = len(ordered)
    transitions: dict[int, dict[str, Outcomes]] = {
        NORMAL_CLASS: {STAY_ACTION: ((NORMAL_CLASS, 1.0, 0.0),)}
    }
    for (s, a), row in counts.items():
        total = sum(row.values())
        outcomes = []
        for dst in ordered:
            raw = row.get(dst, 0)
            p = (raw + smoothing) / (total + smoothing * size)
            if p > 0.0:
                outcomes.append((dst, p, reward(s, a, dst)))
        transitions.setdefault(s, {})[a] = tuple(outcomes)
    return MDPModel(states=ordered, gamma=gamma, transitions=transitions)


def _fixed_point(step, backup: "_Backup", tol: float) -> tuple[np.ndarray, int]:
    """Sweep ``step`` from zero until no value moves by more than ``tol``.

    ``step`` is a Bellman backup of ``backup``'s model, with discount
    gamma and rewards of at most ``backup.reward`` in size: the first
    sweep moves a value by at most that reward and each later one by at
    most gamma times the last (Puterman 1994, section 6.3), so sweep k
    moves none by more than gamma^(k-1) * reward.  CarlabError is raised
    past twice the sweeps that bound allows, or when a value overflows.
    """
    if not tol > 0:
        raise CarlabError(f"tolerance {tol!r} is not positive")
    gamma, reward = backup.gamma, backup.reward
    if reward <= tol:
        bound = 1
    elif gamma == 0:
        bound = 2
    else:  # a difference of logs, since tol / reward can underflow to 0
        bound = 1 + math.ceil((math.log(tol) - math.log(reward)) / math.log(gamma))
    # The factor 2 is slack for rounding: float sweeps can run past the
    # exact bound while the last ulps settle (a rewarding self-loop at
    # gamma = 0.99999 takes 2,072,637 sweeps against a bound of 2,072,318).
    values, iterations, delta = np.zeros(len(backup.first_pair)), 0, np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises CarlabError instead
        while delta > tol:
            if iterations == 2 * bound:
                raise CarlabError(f"values still move by {delta!r} after {iterations} sweeps (tolerance {tol!r})")
            new_values = step(values)
            delta = float(np.max(np.abs(new_values - values)))
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
    backup = mdp._backup
    q_of = backup.sweep()
    best_q = lambda v: np.maximum.reduceat(q_of(v), backup.first_pair)
    values, iterations = _fixed_point(best_q, backup, tol)
    q = q_of(values)
    # Sort by state, descending q, then pair: ties go to the lowest action id.
    best = np.lexsort((np.arange(len(q)), -q, backup.pair_state))[backup.first_pair]
    return VIResult(
        values=dict(zip(mdp.states, values.tolist())),
        policy=Policy.deterministic(dict(backup.pairs[k] for k in best)),
        iterations=iterations,
        residual=float(np.max(np.abs(q[best] - values))),
    )


def policy_evaluation(
    mdp: MDPModel, policy: Policy, tol: float = 1e-9
) -> ValueFunction:
    """Iterative fixed-point evaluation of a (possibly stochastic) policy
    that decides at exactly the model's states."""
    for s in mdp.states:
        if s not in policy.decision:
            raise CarlabError(f"policy does not cover state {s}")
        for a in policy.support(s):
            if a not in mdp.transitions[s]:
                raise CarlabError(f"policy uses unavailable action {a!r} at {s}")
        if not all(w >= 0 for w in policy.decision[s].values()):
            raise CarlabError(f"policy distribution at {s} has a negative weight")
        total = sum(policy.decision[s].values())
        if abs(total - 1.0) > 1e-9:
            raise CarlabError(f"policy distribution at {s} sums to {total!r}")
    extra = set(policy.decision).difference(mdp.states)
    if extra:
        raise CarlabError(f"policy decides at state {min(extra)}, which the model does not have")
    backup = mdp._backup
    weights = np.array([policy.decision[s].get(a, 0.0) for s, a in backup.pairs])
    values, _ = _fixed_point(backup.sweep(weights), backup, tol)
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
    backup = mdp._backup
    q = backup.sweep()(np.array([vi.values[s] for s in mdp.states]))
    best = np.maximum.reduceat(q, backup.first_pair)
    near_best = q >= (best - OPTIMAL_ATOL)[backup.pair_state]
    optimal_actions: dict[int, tuple[str, ...]] = {}
    for (s, a), near in zip(backup.pairs, near_best):
        if near:
            optimal_actions[s] = optimal_actions.get(s, ()) + (a,)
    return ComparisonReport(
        v_optimal=vi.values,
        v_observed=v_obs,
        regret={s: vi.values[s] - v_obs[s] for s in mdp.states},
        optimal_actions=optimal_actions,
        agreement={s: set(observed.support(s)) <= set(optimal_actions[s]) for s in mdp.states},
    )


def mdp_to_json(mdp: MDPModel) -> dict:
    """JSON form: {states, gamma, transitions: [{s, a, s', p, r}]}."""
    rows = []
    for s in mdp.states:
        for a in mdp.actions(s):
            for dst, p, r in mdp.transitions[s][a]:
                rows.append({"s": s, "a": a, "s'": dst, "p": p, "r": r})
    return {"states": list(mdp.states), "gamma": mdp.gamma, "transitions": rows}


# The exact kinds of the fields of a transition row.
_ROW_KINDS = {"p": {int, float}, "r": {int, float}, "s": {int}, "a": {str}, "s'": {int}}


def _transition_columns(rows: list) -> Optional[dict[str, list]]:
    """The fields of the transition rows as columns, the numbers as floats;
    None unless every row holds each field with its exact kind, and every
    action is nonempty."""
    try:
        columns = {key: list(map(itemgetter(key), rows)) for key in _ROW_KINDS}
    except (KeyError, TypeError):
        return None
    if any(not set(map(type, columns[key])) <= kinds for key, kinds in _ROW_KINDS.items()) or "" in columns["a"]:
        return None
    columns["p"], columns["r"] = list(map(float, columns["p"])), list(map(float, columns["r"]))
    return columns


def mdp_from_json(data: dict) -> MDPModel:
    """The model of an MDP JSON document.  Its transition rows are read by
    column, each column checked once; a document that fails a check is
    read a row at a time, which raises at the first row and field (in
    the order p, r, s, a, s') that fails."""
    rows = data["transitions"]
    columns = _transition_columns(rows) if isinstance(rows, list) else None
    transitions: dict[int, dict[str, list]] = {}
    if columns is None:
        for row in rows:
            p, r = (_parse_number(row[key], key) for key in ("p", "r"))
            s, a = _parse_index(row["s"], "s"), _parse_name(row["a"], "a")
            transitions.setdefault(s, {}).setdefault(a, []).append((_parse_index(row["s'"], "s'"), p, r))
    else:
        keys = list(zip(columns["s"], columns["a"]))
        outcomes = list(zip(columns["s'"], columns["p"], columns["r"]))
        starts = [*compress(range(len(keys)), chain([True], map(ne, keys[1:], keys))), len(keys)]
        for start, end in zip(starts, starts[1:]):  # one run of rows per (s, a), in most documents
            s, a = keys[start]
            transitions.setdefault(s, {}).setdefault(a, []).extend(outcomes[start:end])
    return MDPModel(
        states=_parse_indices(data["states"], "state"),
        gamma=_parse_number(data["gamma"], "gamma"),
        transitions={
            s: {a: tuple(outs) for a, outs in acts.items()}
            for s, acts in transitions.items()
        },
    )


def save_mdp(mdp: MDPModel, dest: Union[str, Path]) -> None:
    save_json(mdp_to_json(mdp), dest)


def load_mdp(source: Union[str, Path]) -> MDPModel:
    return load_json(source, mdp_from_json)
