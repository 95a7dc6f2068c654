"""Forward classification-action recursion over a population of objects.

Each object is classified, then updated by the action bound to its
assigned class, until it reaches the normal class, stalls on an
indeterminate classification, revisits a (state, class) pair (a provable
cycle under deterministic dynamics), or exhausts the step budget.  A run
report stores each object's trace, its steps to the normal class (None if
it stalled) and its stall; ``converged``, the convergence curve and the
mean steps are read-only properties of the steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .boolcube import BooleanAction, vector_to_vertex, vertex_to_vector
from .core import (
    CarlabError,
    DataFormatError,
    FeatureVector,
    LearningSample,
    NORMAL_CLASS,
    TraceEvent,
    _parse_index,
    _parse_name,
    _parse_number,
    _parse_strings,
    load_json,
    save_json,
)
from .lcpr import ClassifyOutcome

Classifier = Callable[[FeatureVector], ClassifyOutcome]


@dataclass(frozen=True)
class ActionSpec:
    """Declarative binding of one action to one deviated class.

    Kinds: "affine" (per-coordinate x -> alpha * x + beta, alpha > 0),
    "table" and "rule" (Boolean-domain actions).  A table or rule spec is
    compiled once, when it is made, into its ``BooleanAction``, held in
    the non-field attribute ``boolean`` (None for an affine spec).
    """

    action_id: str
    class_index: int
    kind: str
    alpha: Optional[tuple[float, ...]] = None
    beta: Optional[tuple[float, ...]] = None
    n: Optional[int] = None
    table: Optional[dict[str, str]] = None
    exprs: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.class_index == NORMAL_CLASS:
            raise CarlabError("no action may be bound to the normal class")
        if self.kind == "affine":
            if self.alpha is None or self.beta is None:
                raise CarlabError("affine action needs alpha and beta")
            if len(self.alpha) != len(self.beta):
                raise CarlabError("alpha/beta length mismatch")
            for a in self.alpha:
                if a <= 0:
                    raise CarlabError(
                        "non-invertible affine component (slope must be positive)"
                    )
            boolean = None
        elif self.kind in ("table", "rule"):
            if self.n is None:
                raise CarlabError(f"{self.kind} action needs n")
            boolean = BooleanAction(
                action_id=self.action_id, n=self.n, table=self.table, exprs=self.exprs
            )
        else:
            raise CarlabError(f"unknown action kind {self.kind!r}")
        object.__setattr__(self, "boolean", boolean)

    def apply(self, x: FeatureVector) -> FeatureVector:
        """The state after one application of the action to ``x``."""
        if self.boolean is not None:
            return vertex_to_vector(self.boolean.apply(vector_to_vertex(x)))
        if len(x) != len(self.alpha):
            raise CarlabError("affine action dimension mismatch")
        return tuple(a * v + b for a, v, b in zip(self.alpha, x, self.beta))


@dataclass(frozen=True)
class StallInfo:
    kind: str  # "indeterminate" | "cycle" | "exhausted"
    step: int


@dataclass(frozen=True)
class CarRunReport:
    max_steps: int
    traces: dict[str, tuple[TraceEvent, ...]]
    steps_to_normal: dict[str, Optional[int]]
    stalls: dict[str, StallInfo]

    @cached_property
    def converged(self) -> dict[str, bool]:
        return {object_id: s is not None for object_id, s in self.steps_to_normal.items()}

    @cached_property
    def fraction_normal_within(self) -> tuple[float, ...]:
        steps, total = range(self.max_steps + 1), len(self.steps_to_normal)
        reached = [s for s in self.steps_to_normal.values() if s is not None]
        return tuple(sum(s <= k for s in reached) / total for k in steps) if total else ()

    @cached_property
    def mean_steps(self) -> Optional[float]:
        reached = [s for s in self.steps_to_normal.values() if s is not None]
        return sum(reached) / len(reached) if reached else None


def check_action_sizes(specs: Sequence[ActionSpec], n: int) -> None:
    """Reject an action sized for other data than the dataset's n
    features, before any work starts."""
    for spec in specs:
        width = len(spec.alpha) if spec.kind == "affine" else spec.n
        if width != n:
            raise CarlabError(
                f"action {spec.action_id!r} has n={width}, but the dataset has n={n}"
            )


def register_actions(
    specs: Sequence[ActionSpec], deviated_count: int
) -> dict[int, ActionSpec]:
    """Validate that exactly one action binds each deviated class."""
    table: dict[int, ActionSpec] = {}
    for spec in specs:
        if spec.class_index in table:
            raise CarlabError(f"duplicate action binding for class {spec.class_index}")
        table[spec.class_index] = spec
    missing = [i for i in range(1, deviated_count + 1) if i not in table]
    if missing:
        raise CarlabError(f"missing action binding for classes {missing}")
    extra = [i for i in table if not 1 <= i <= deviated_count]
    if extra:
        raise CarlabError(f"action bound to unknown classes {sorted(extra)}")
    return table


def _population_items(
    population: Iterable[Union[LearningSample, Sequence[float]]]
) -> list[tuple[str, FeatureVector]]:
    items = []
    for k, obj in enumerate(population):
        if isinstance(obj, LearningSample):
            items.append((obj.object_id, tuple(obj.features)))
        else:
            items.append((f"v{k:04d}", tuple(float(v) for v in obj)))
    ids = [i for i, _ in items]
    if len(set(ids)) != len(ids):
        raise CarlabError("population object ids must be unique")
    return items


def run_car(
    population: Iterable[Union[LearningSample, Sequence[float]]],
    classifier: Classifier,
    actions: Mapping[int, ActionSpec],
    max_steps: int,
) -> CarRunReport:
    """Drive every object through at most ``max_steps`` classify-act
    rounds, recording a trace with synthetic timestamps t_k = k.

    Convergence at step k means the k-th classification (after k applied
    actions) is the normal class.  Stalls are data, not errors.  The
    active objects advance in lockstep: one classification round per
    step, a single call when the classifier has a ``batch`` method (as
    ``ld_classifier``'s does) and one call per object otherwise.
    """
    if max_steps < 0:
        raise CarlabError("max_steps must be >= 0")
    items = sorted(_population_items(population))
    batch = getattr(classifier, "batch", None)
    states = dict(items)
    events: dict[str, list[TraceEvent]] = {object_id: [] for object_id, _ in items}
    seen: dict[str, set[tuple[FeatureVector, int]]] = {o: set() for o, _ in items}
    reached: dict[str, int] = {}
    stalled: dict[str, StallInfo] = {}
    active = [object_id for object_id, _ in items]
    for step in range(max_steps + 1):
        if not active:
            break
        rows = [states[object_id] for object_id in active]
        if batch is not None:
            labels = batch(rows).labels
        else:
            labels = [classifier(state).label for state in rows]
        still_active = []
        for object_id, state, label in zip(active, rows, labels):
            if label is None:
                stalled[object_id] = StallInfo(kind="indeterminate", step=step)
                continue
            if label == NORMAL_CLASS:
                events[object_id].append(
                    TraceEvent(object_id, step, float(step), state, label, None)
                )
                reached[object_id] = step
                continue
            action = actions.get(label)
            if action is None:
                raise CarlabError(f"no action bound to class {label}")
            events[object_id].append(
                TraceEvent(object_id, step, float(step), state, label, action.action_id)
            )
            key = (state, label)
            if key in seen[object_id]:
                stalled[object_id] = StallInfo(kind="cycle", step=step)
                continue
            seen[object_id].add(key)
            if step < max_steps:
                states[object_id] = action.apply(state)
            still_active.append(object_id)
        active = still_active
    for object_id in active:
        stalled[object_id] = StallInfo(kind="exhausted", step=max_steps)
    return CarRunReport(  # events holds every object, in id order
        max_steps=max_steps,
        traces={object_id: tuple(trace) for object_id, trace in events.items()},
        steps_to_normal={object_id: reached.get(object_id) for object_id in events},
        stalls={object_id: stalled[object_id] for object_id in events if object_id in stalled},
    )


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        raise CarlabError("no values")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def convergence_metrics(report: CarRunReport) -> dict:
    """Aggregate summary of one run; everything here can be recomputed
    from the raw traces."""
    reached = sorted(s for s in report.steps_to_normal.values() if s is not None)
    stall_census = {"indeterminate": 0, "cycle": 0, "exhausted": 0}
    for info in report.stalls.values():
        stall_census[info.kind] += 1
    total = len(report.steps_to_normal)
    return {
        "population": total,
        "converged": len(reached),
        "terminal_fraction": (len(reached) / total) if total else None,
        "fraction_normal_within": list(report.fraction_normal_within),
        "mean_steps": report.mean_steps,
        "median_steps": _percentile(reached, 0.5) if reached else None,
        "p90_steps": _percentile(reached, 0.9) if reached else None,
        "max_steps_observed": reached[-1] if reached else None,
        "stalls": stall_census,
    }


def actions_to_json(specs: Sequence[ActionSpec]) -> list[dict]:
    out = []
    for spec in sorted(specs, key=lambda s: s.class_index):
        entry: dict = {"action": spec.action_id, "class": spec.class_index, "kind": spec.kind}
        if spec.kind == "affine":
            entry.update(alpha=list(spec.alpha), beta=list(spec.beta))
        elif spec.kind == "table":
            entry.update(n=spec.n, map=dict(sorted(spec.table.items())))
        else:
            entry.update(n=spec.n, exprs=list(spec.exprs))
        out.append(entry)
    return out


def actions_from_json(data: list[dict]) -> list[ActionSpec]:
    specs = []
    for entry in data:
        kind = entry["kind"]
        fields: dict = {}
        if kind == "affine":
            fields = {k: tuple(_parse_number(v, k) for v in entry[k]) for k in ("alpha", "beta")}
        elif kind == "table":
            if not isinstance(entry["map"], dict):
                raise DataFormatError(f"map must be an object, got {entry['map']!r}")
            fields = {"n": _parse_index(entry["n"], "n"), "table": entry["map"]}
        elif kind == "rule":
            fields = {"n": _parse_index(entry["n"], "n"), "exprs": _parse_strings(entry["exprs"], "exprs")}
        specs.append(
            ActionSpec(
                action_id=_parse_name(entry["action"], "action"),
                class_index=_parse_index(entry["class"], "class"),
                kind=kind,
                **fields,
            )
        )
    return specs


def save_actions(specs: Sequence[ActionSpec], dest: Union[str, Path]) -> None:
    save_json(actions_to_json(specs), dest)


def load_actions(source: Union[str, Path]) -> list[ActionSpec]:
    return load_json(source, actions_from_json)


def report_to_json(report: CarRunReport) -> dict:
    objects = {}
    for object_id in sorted(report.traces):
        stall = report.stalls.get(object_id)
        objects[object_id] = {
            "converged": report.converged[object_id],
            "steps_to_normal": report.steps_to_normal[object_id],
            "stall": None if stall is None else {"kind": stall.kind, "step": stall.step},
        }
    return {
        "max_steps": report.max_steps,
        "objects": objects,
        "fraction_normal_within": list(report.fraction_normal_within),
        "mean_steps": report.mean_steps,
        "metrics": convergence_metrics(report),
    }
