"""Seeded generators for synthetic datasets, traces, graphs, and MDPs.

Used by the demo scripts and the test suite.  When no seed is given, the
CARLAB_SEED environment variable (default 0) fixes all randomness so
repeated runs reproduce byte-identical artifacts.
"""

from __future__ import annotations

import os
import random
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .boolcube import BooleanAction, PartialBooleanFunction
from .carsim import ActionSpec
from .core import CarlabError, LearningSet, TraceEvent, TraceMap
from .mdp import STAY_ACTION, MDPModel
from .poset import ClassTransitionGraph, Transition, extract_relation

ENV_SEED = "CARLAB_SEED"


def default_rng(seed: Optional[int] = None) -> random.Random:
    if seed is None:
        seed = int(os.environ.get(ENV_SEED, "0"))
    return random.Random(seed)


def random_learning_set(
    rng: random.Random,
    n: Optional[int] = None,
    classes: Optional[int] = None,
    m: Optional[int] = None,
    grid: Sequence[float] = tuple(float(v) for v in range(10)),
) -> LearningSet:
    """Random real-mode dataset without cross-class duplicate points.

    Duplicates across classes would make seeds unseparable; rejection
    sampling keeps every training point coverable.
    """
    n = n if n is not None else rng.randint(1, 6)
    classes = classes if classes is not None else rng.randint(2, 4)
    m = m if m is not None else rng.randint(classes, 60)
    labels = list(range(classes)) + [rng.randrange(classes) for _ in range(m - classes)]
    rng.shuffle(labels)
    points: list[tuple[float, ...]] = []
    taken: dict[tuple[float, ...], int] = {}  # the class of each point drawn
    for label in labels:
        for _ in range(200):
            point = tuple(rng.choice(grid) for _ in range(n))
            if taken.get(point, label) == label:
                break
        else:
            owned = [p for p, c in zip(points, labels) if c == label]
            # tiny grids only: with no point of its own, a deterministic scan for any free cell
            point = rng.choice(owned) if owned else next((c for c in product(grid, repeat=n) if c not in taken), None)
            if point is None:
                raise ValueError("grid too small for disjoint class shares")
        taken[point] = label
        points.append(point)
    return LearningSet([f"s{k:03d}" for k in range(len(labels))], points, labels, "real")


def random_boolean_learning_set(
    rng: random.Random, n: int, classes: int, per_class: int
) -> LearningSet:
    """Random Boolean dataset with disjoint class shares."""
    universe = list(range(2 ** n))
    rng.shuffle(universe)
    need = classes * per_class
    if need > len(universe):
        raise ValueError("not enough vertices for disjoint class shares")
    codes = np.array(universe[:need], np.int64)
    X = codes[:, None] >> np.arange(n - 1, -1, -1) & 1
    return LearningSet([f"b{k:03d}" for k in range(need)], X, np.repeat(range(classes), per_class), "boolean")


def random_partial_boolean_function(
    rng: random.Random, n: int, positives: int, negatives: int
):
    """Disjoint random positive/negative vertex sets as binary words."""
    universe = list(range(2 ** n))
    rng.shuffle(universe)
    pos = universe[:positives]
    neg = universe[positives : positives + negatives]
    as_word = lambda code: format(code, f"0{n}b")
    return PartialBooleanFunction(
        n=n,
        positives=frozenset(as_word(c) for c in pos),
        negatives=frozenset(as_word(c) for c in neg),
    )


def random_boolean_action(rng: random.Random, action_id: str, n: int) -> BooleanAction:
    """Random total update: half the time a substitution rule, else a table."""
    if rng.random() < 0.5:
        tokens = []
        for _ in range(n):
            kind = rng.randrange(4)
            if kind == 0:
                tokens.append("0")
            elif kind == 1:
                tokens.append("1")
            elif kind == 2:
                tokens.append(f"x{rng.randint(1, n)}")
            else:
                tokens.append(f"~x{rng.randint(1, n)}")
        return BooleanAction(action_id=action_id, n=n, exprs=tuple(tokens))
    table = {}
    for code in range(2 ** n):
        word = format(code, f"0{n}b")
        table[word] = format(rng.randrange(2 ** n), f"0{n}b")
    return BooleanAction(action_id=action_id, n=n, table=table)


def random_transition_graph(
    rng: random.Random, max_classes: int = 50, edge_prob: float = 0.15
) -> ClassTransitionGraph:
    """Random digraph over classes 0..c-1; edges never leave class 0."""
    c = rng.randint(2, max_classes)
    edges = []
    for src in range(1, c):
        for dst in range(c):
            if src != dst and rng.random() < edge_prob:
                edges.append(
                    Transition(src=src, action=f"a{src}", dst=dst, count=rng.randint(1, 5))
                )
    return ClassTransitionGraph.build(edges, classes=range(c))


def random_mdp(
    rng: random.Random,
    max_states: int = 6,
    max_actions: int = 3,
    gamma: float = 0.9,
) -> MDPModel:
    """Random model with the normal class absorbing and dense random rows
    elsewhere."""
    size = rng.randint(2, max_states)
    states = tuple(range(size))
    transitions = {0: {STAY_ACTION: ((0, 1.0, 0.0),)}}
    for s in states[1:]:
        rows = {}
        for k in range(rng.randint(1, max_actions)):
            weights = [rng.random() + 1e-3 for _ in states]
            total = sum(weights)
            rows[f"a{k}"] = tuple(
                (dst, w / total, round(rng.uniform(-2.0, 2.0), 3))
                for dst, w in zip(states, weights)
            )
        transitions[s] = rows
    return MDPModel(states=states, gamma=gamma, transitions=transitions)


def random_trace_log(
    rng: random.Random,
    n_objects: int = 20,
    classes: int = 4,
    n_features: int = 2,
    max_len: int = 8,
) -> TraceMap:
    """Random walks over classes; actions are per-class, destinations
    biased one level down so most traces drift toward normal.

    Regenerates until every observed deviated class has at least one
    recorded outgoing transition, so the result is always estimable.
    """
    if n_objects < 1 or classes < 2 or max_len < 2:
        raise CarlabError("no transition is recorded unless n_objects >= 1, classes >= 2, max_len >= 2")
    while True:
        traces: TraceMap = {}
        for k in range(n_objects):
            object_id = f"t{k:03d}"
            current = rng.randint(1, classes - 1)
            events = []
            t = 0.0
            for step in range(max_len):
                t += rng.uniform(0.5, 2.0)
                state = tuple(round(rng.uniform(0, 10), 2) for _ in range(n_features))
                if current == 0:
                    events.append(TraceEvent(object_id, step, t, state, 0, None))
                    break
                events.append(
                    TraceEvent(object_id, step, t, state, current, f"a{current}")
                )
                roll = rng.random()
                if roll < 0.6:
                    current -= 1
                elif roll < 0.8 and current < classes - 1:
                    current += 1
            traces[object_id] = tuple(events)
        graph = extract_relation(traces)
        if graph.edges and all(graph.successors[c] for c in graph.classes - {0}):
            return traces


def contracting_instance(deviated_count: int) -> tuple[LearningSet, list[ActionSpec], ClassTransitionGraph]:
    """Chain construction where each action drops the class level by one.

    Class i occupies the band f1 = i with two points each; the action for
    class i subtracts 1 from f1, landing exactly in band i-1.  Every
    object therefore reaches the normal class in as many steps as its
    starting level, bounded by the height of the transition diagram.
    """
    ids = [f"c{i}_{b}" for i in range(deviated_count + 1) for b in range(2)]
    X = [(float(i), f2) for i in range(deviated_count + 1) for f2 in (0.0, 1.0)]
    learning_set = LearningSet(ids, X, np.repeat(range(deviated_count + 1), 2), "real")
    specs = [
        ActionSpec(
            action_id=f"a{i}",
            class_index=i,
            kind="affine",
            alpha=(1.0, 1.0),
            beta=(-1.0, 0.0),
        )
        for i in range(1, deviated_count + 1)
    ]
    edges = [
        Transition(src=i, action=f"a{i}", dst=i - 1, count=2) for i in range(1, deviated_count + 1)
    ]
    graph = ClassTransitionGraph.build(edges)
    return learning_set, specs, graph
