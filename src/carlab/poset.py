"""Class-transition analysis: order axioms, unique minimum, level diagram.

Observed transitions generate a step relation over classes; an action on
class x leading to class y is read as "y below x".  The order is the one
the steps generate, so reflexivity and transitivity hold by construction;
antisymmetry and the unique minimum are read off the step relation itself
with one strongly-connected-component pass.  The level diagram roots the
normal class at level 0 and assigns every other class its shortest
directed distance to it.  A report stores what was found, and its
pass/fail is a read-only property of that, as a diagram's ``height`` and
``complete`` are of its levels.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .core import (
    CarlabError,
    DataFormatError,
    NORMAL_CLASS,
    Traces,
    TraceTable,
    _count_rows,
    _parse_index,
    _parse_indices,
    _parse_key,
    _parse_strings,
    _raise_first,
    _read_csv,
    _write_csv,
)

_TRANSITION_HEADER = ["from_class", "action", "to_class", "count"]


@dataclass(frozen=True)
class Transition:
    src: int
    action: str
    dst: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.src == NORMAL_CLASS:
            raise CarlabError("no action leaves the normal class")
        if self.count < 1:
            raise CarlabError("transition count must be >= 1")
        if not self.action:
            raise CarlabError("transition without action label")
        if min(self.src, self.dst) < 0:
            raise CarlabError(f"negative class index {min(self.src, self.dst)}")


@dataclass(frozen=True)
class ClassTransitionGraph:
    """Aggregated class-to-class transitions with action labels and counts.

    The normal class is always a member of ``classes`` even when no
    transition mentions it, so degenerate inputs still validate
    consistently.
    """

    classes: frozenset[int]
    edges: tuple[Transition, ...]

    @staticmethod
    def build(
        edges: Iterable[Transition], classes: Iterable[int] = ()
    ) -> "ClassTransitionGraph":
        edges = tuple(edges)
        members = {NORMAL_CLASS}
        members.update(classes)
        for e in edges:
            members.add(e.src)
            members.add(e.dst)
        return ClassTransitionGraph(classes=frozenset(members), edges=edges)

    def step_pairs(self) -> set[tuple[int, int]]:
        return {(e.src, e.dst) for e in self.edges}

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        """Distinct step successors of every class, ascending; built once."""
        succ: dict[int, set[int]] = {c: set() for c in self.classes}
        for e in self.edges:
            succ[e.src].add(e.dst)
        return {c: tuple(sorted(d)) for c, d in succ.items()}

    def nondeterministic(self) -> dict[tuple[int, str], tuple[int, ...]]:
        """(class, action) pairs observed with more than one destination."""
        dests: dict[tuple[int, str], set[int]] = {}
        for e in self.edges:
            dests.setdefault((e.src, e.action), set()).add(e.dst)
        return {
            key: tuple(sorted(v)) for key, v in sorted(dests.items()) if len(v) > 1
        }


@dataclass(frozen=True)
class PosetReport:
    """Antisymmetry of the generated order, the one axiom that can fail."""

    counterexample_cycle: Optional[tuple[int, ...]]

    @property
    def antisymmetric(self) -> bool:
        return self.counterexample_cycle is None

    passed = antisymmetric


@dataclass(frozen=True)
class MinimumReport:
    minimal: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.minimal == (NORMAL_CLASS,)


@dataclass(frozen=True)
class LevelDiagram:
    """Classes leveled by shortest directed distance to the normal class.

    The normal class is at level 0, every level is a nonnegative int,
    ``height`` is the largest level, and the diagram is ``complete``
    exactly when no class is ``unleveled``.
    """

    levels: dict[int, int]
    unleveled: tuple[int, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for c, level in self.levels.items():
            if isinstance(level, bool) or not isinstance(level, int) or level < 0:
                raise CarlabError(f"class {c} has level {level!r}, expected a nonnegative int")
        if self.levels.get(NORMAL_CLASS) != 0:
            raise CarlabError("the normal class must be at level 0")
        if not set(self.levels).isdisjoint(self.unleveled):
            raise CarlabError(f"unleveled {list(self.unleveled)} lists a leveled class")
        if len(set(self.unleveled)) < len(self.unleveled) or min(self.unleveled, default=0) < 0:
            raise CarlabError(f"unleveled {list(self.unleveled)} repeats a class or names a negative one")

    @property
    def height(self) -> int:
        return max(self.levels.values())

    @property
    def complete(self) -> bool:
        return not self.unleveled


@dataclass(frozen=True)
class ValidationVerdict:
    poset: PosetReport
    minimum: MinimumReport
    diagram: LevelDiagram
    nondeterministic: dict[tuple[int, str], tuple[int, ...]]

    @property
    def passed(self) -> bool:
        return self.poset.passed and self.minimum.passed and self.diagram.complete

    @property
    def verdict(self) -> str:
        warned = self.nondeterministic or self.diagram.warnings
        return "fail" if not self.passed else "pass-with-warnings" if warned else "pass"


def _graph(
    counts: dict[tuple[int, str, int], int], classes: Iterable[int] = ()
) -> ClassTransitionGraph:
    """The graph of (src, action, dst) -> count, edges in key order."""
    edges = tuple(
        Transition(src=s, action=a, dst=d, count=c)
        for (s, a, d), c in sorted(counts.items())
    )
    return ClassTransitionGraph.build(edges, classes=classes)


def extract_relation(traces: Traces) -> ClassTransitionGraph:
    """Count the class transitions of consecutive trace events; every
    class a trace visits is a member of the graph."""
    table = TraceTable.from_events(traces)
    head = np.flatnonzero(table.obj[1:] == table.obj[:-1])  # row k of each step k -> k + 1
    out_of_normal = head[table.label[head] == NORMAL_CLASS]
    if out_of_normal.size:
        k = out_of_normal[0]
        raise CarlabError(
            f"transition out of the normal class in trace {table.object_ids[table.obj[k]]!r} "
            f"at step {table.step[k]}"
        )
    counts = _count_rows(table.label[head], table.action[head], table.label[head + 1])
    classes = np.unique(table.label).tolist()
    return _graph({(s, table.actions[a], d): c for s, a, d, c in counts}, classes)


def load_transition_records(source: Union[str, Path]) -> ClassTransitionGraph:
    """Read a transition CSV with header from_class,action,to_class,count."""
    path = Path(source)

    def kinds(header: list[str]) -> list[type]:
        if header != _TRANSITION_HEADER:
            raise DataFormatError(f"{path}: bad header {header!r}")
        return [int, str, int, int]

    _, (src, (names, action), dst, count), _, malformed, unread = _read_csv(path, kinds)
    _raise_first([malformed, *unread])
    sums = _count_rows(src, action, dst, weights=count)
    return _graph({(s, names[a], d): c for s, a, d, c in sums})


def save_transition_records(g: ClassTransitionGraph, dest: Union[str, Path]) -> None:
    edges = sorted(g.edges, key=lambda e: (e.src, e.action, e.dst))
    _write_csv(dest, _TRANSITION_HEADER, ([e.src, e.action, e.dst, e.count] for e in edges))


def _components(succ: dict[int, tuple[int, ...]]) -> list[list[int]]:
    """Strongly connected components (Tarjan 1972), without recursion.

    A class whose component is closed gets low link inf, so later visits
    from other components leave their low links alone.
    """
    low: dict[int, float] = {}
    stack: list[int] = []
    work: list = []  # (class, index, stack position, successor iterator)
    components: list[list[int]] = []

    def enter(v: int) -> None:
        low[v] = len(low)
        work.append((v, low[v], len(stack), iter(succ[v])))
        stack.append(v)

    for root in succ:
        if root not in low:
            enter(root)
        while work:
            v, index, pos, children = work[-1]
            for w in children:
                if w not in low:
                    enter(w)
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if low[v] == index:
                    components.append(stack[pos:])
                    for w in stack[pos:]:
                        low[w] = math.inf
                    del stack[pos:]
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return components


def _path(succ: dict[int, tuple[int, ...]], src: int, dst: int) -> list[int]:
    """Shortest step path src -> dst, visiting successors in ascending order."""
    parent: dict[int, Optional[int]] = {src: None}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == dst:
            out = [cur]
            while parent[cur] is not None:
                cur = parent[cur]
                out.append(cur)
            return out[::-1]
        for nxt in succ[cur]:
            if nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    raise CarlabError("internal: expected path missing")


def check_poset(g: ClassTransitionGraph) -> PosetReport:
    """Antisymmetry of the order the step relation generates.

    Antisymmetry fails exactly when a strongly connected component holds
    two or more classes; self-loops do not count.  The witness is a closed
    walk a -> ... -> b -> ... -> a, where a is the smallest class in any
    such component and b the smallest other class in a's component.
    """
    cyclic = [sorted(c) for c in _components(g.successors) if len(c) > 1]
    if not cyclic:
        return PosetReport(counterexample_cycle=None)
    a, b = min(cyclic)[:2]
    cycle = _path(g.successors, a, b) + _path(g.successors, b, a)[1:]
    return PosetReport(counterexample_cycle=tuple(cycle))


def has_unique_minimum(g: ClassTransitionGraph) -> MinimumReport:
    """Minimal elements of the generated order; pass iff exactly the
    normal class.

    A class is minimal when nothing lies strictly below it, i.e. it
    reaches no other class, which holds exactly when it has no step
    successor besides itself.  No acyclicity is assumed.
    """
    return MinimumReport(tuple(sorted(c for c, succ in g.successors.items() if set(succ) <= {c})))


def build_level_diagram(g: ClassTransitionGraph) -> LevelDiagram:
    """Level every class by shortest directed distance to the normal class.

    Produces warnings for edges that do not step exactly one level down;
    such edges break the strict level-by-level shape without making the
    leveling itself wrong.
    """
    pred: dict[int, set[int]] = {c: set() for c in g.classes}
    for s, d in g.step_pairs():
        pred[d].add(s)
    levels: dict[int, int] = {NORMAL_CLASS: 0}
    queue = deque([NORMAL_CLASS])
    while queue:
        cur = queue.popleft()
        for up in sorted(pred.get(cur, ())):
            if up not in levels:
                levels[up] = levels[cur] + 1
                queue.append(up)
    unleveled = tuple(sorted(c for c in g.classes if c not in levels))
    warnings = []
    for s, d in sorted(g.step_pairs()):
        if s in levels and d in levels and levels[s] - levels[d] != 1:
            warnings.append(
                f"edge {s}->{d} spans levels {levels[s]}->{levels[d]}"
            )
    return LevelDiagram(levels=levels, unleveled=unleveled, warnings=tuple(warnings))


def validate_to_normal(g: ClassTransitionGraph) -> ValidationVerdict:
    """Combined verdict: order axioms, unique normal minimum, complete
    diagram.  Nondeterministic (class, action) pairs downgrade a pass to
    pass-with-warnings and point at the stochastic workflow."""
    return ValidationVerdict(
        poset=check_poset(g),
        minimum=has_unique_minimum(g),
        diagram=build_level_diagram(g),
        nondeterministic=g.nondeterministic(),
    )


def distance_to_normal(diagram: LevelDiagram, class_index: int) -> int:
    if class_index not in diagram.levels:
        raise CarlabError(f"class {class_index} is not leveled")
    return diagram.levels[class_index]


def neighborhood(
    g: ClassTransitionGraph, depth: int, link_threshold: float = 0.0
) -> set[int]:
    """Accumulated neighborhood of the normal class up to ``depth``.

    A class joins layer d when it has at least one edge into the previous
    neighborhood (plus the normal class) and the share of its outgoing
    transition counts landing there is at least ``link_threshold``.
    Threshold 0 reduces to plain BFS layers.
    """
    if depth < 1:
        raise CarlabError("depth must be >= 1")
    if not 0.0 <= link_threshold <= 1.0:
        raise CarlabError("link_threshold must lie in [0, 1]")
    out_counts: dict[int, dict[int, int]] = {}
    for e in g.edges:
        row = out_counts.setdefault(e.src, {})
        row[e.dst] = row.get(e.dst, 0) + e.count
    members: set[int] = set()
    for _ in range(depth):
        target = members | {NORMAL_CLASS}
        added = set()
        for c in sorted(g.classes - target):
            row = out_counts.get(c, {})
            into = sum(cnt for d, cnt in row.items() if d in target)
            if into and into / sum(row.values()) >= link_threshold:
                added.add(c)
        if not added:
            break
        members |= added
    return members


def diagram_to_json(diagram: LevelDiagram) -> dict:
    return {
        "levels": {str(c): lvl for c, lvl in sorted(diagram.levels.items())},
        "complete": diagram.complete,
        "height": diagram.height,
        "unleveled": list(diagram.unleveled),
        "warnings": list(diagram.warnings),
    }


def diagram_from_json(data: dict) -> LevelDiagram:
    """The diagram of a JSON document, which must state its levels' ``height`` and ``complete``."""
    levels, complete = data["levels"].items(), data["complete"]
    if not isinstance(complete, bool):
        raise DataFormatError(f"complete must be a boolean, got {complete!r}")
    diagram = LevelDiagram(
        levels={_parse_key(c, "level"): _parse_index(v, f"level of class {c}") for c, v in levels},
        unleveled=_parse_indices(data.get("unleveled", []), "unleveled class"),
        warnings=_parse_strings(data.get("warnings", []), "warnings"),
    )
    if _parse_index(data["height"], "height") != diagram.height:
        raise CarlabError(f"height {data['height']!r} is not the largest level")
    if complete != diagram.complete:
        raise CarlabError(f"complete is {complete!r}, unleveled {list(diagram.unleveled)!r}")
    return diagram


def verdict_to_json(v: ValidationVerdict) -> dict:
    cycle = v.poset.counterexample_cycle
    return {
        "passed": v.passed,
        "verdict": v.verdict,
        "poset": {
            "antisymmetric": v.poset.antisymmetric,
            "counterexample_cycle": None if cycle is None else list(cycle),
        },
        "minimum": {
            "passed": v.minimum.passed,
            "minimal": list(v.minimum.minimal),
        },
        "diagram": diagram_to_json(v.diagram),
        "nondeterministic": {
            f"{s}:{a}": list(dsts) for (s, a), dsts in v.nondeterministic.items()
        },
    }


def counter_class(diagram: LevelDiagram, fraction: float) -> frozenset[int]:
    """Classes at level >= ceil(fraction * height); the far half of the
    diagram when fraction is 1/2."""
    if not diagram.complete:
        raise CarlabError("counter_class requires a complete diagram")
    if diagram.height < 1:
        raise CarlabError("counter_class requires height >= 1")
    if not 0.0 < fraction <= 1.0:
        raise CarlabError("fraction must lie in (0, 1]")
    threshold = math.ceil(fraction * diagram.height - 1e-9)
    return frozenset(c for c, lvl in diagram.levels.items() if lvl >= threshold)
