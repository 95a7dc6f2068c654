"""Forward classification-action recursion over a population of objects.

Each object is classified, then updated by the action bound to its
assigned class, until it reaches the normal class, stalls on an
indeterminate classification, revisits a (state, class) pair (a provable
cycle under deterministic dynamics), or exhausts the step budget.  The
active objects advance in lockstep as the rows of one float state matrix,
in id order: one classification round per step, then each class's action
applied to its rows at once (``ActionSpec.apply_rows``).  A run report
stores the trace as one columnar ``TraceTable``, each object's steps to
the normal class (None if it stalled) and its stall; the per-object
``TraceEvent`` tuples (``traces``), ``converged``, the convergence curve
and the mean steps are read-only views of those.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .boolcube import BooleanAction
from .core import (
    CarlabError,
    DataFormatError,
    FeatureVector,
    LearningSample,
    LearningSet,
    NORMAL_CLASS,
    TraceEvent,
    TraceTable,
    _codes,
    _parse_index,
    _parse_name,
    _parse_number,
    _parse_strings,
    _trace_table,
    load_json,
    save_json,
)
from .lcpr import ClassifyOutcome, label_codes

Classifier = Callable[[FeatureVector], ClassifyOutcome]
Population = Union[LearningSet, Iterable[Union[LearningSample, Sequence[float]]]]


@dataclass(frozen=True)
class ActionSpec:
    """Declarative binding of one action to one deviated class.

    Kinds: "affine" (per-coordinate x -> alpha * x + beta, alpha > 0),
    "table" and "rule" (Boolean-domain actions).  A table or rule spec is
    compiled once, when it is made, into its ``BooleanAction``, the field
    ``boolean`` (None for an affine spec); the table is not kept.
    """

    action_id: str
    class_index: int
    kind: str
    alpha: Optional[tuple[float, ...]] = None
    beta: Optional[tuple[float, ...]] = None
    n: Optional[int] = None
    table: InitVar[Optional[dict[str, str]]] = None
    exprs: Optional[tuple[str, ...]] = None
    boolean: Optional[BooleanAction] = field(init=False, repr=False)

    def __post_init__(self, table: Optional[dict[str, str]]) -> None:
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
            boolean = BooleanAction(action_id=self.action_id, n=self.n, table=table, exprs=self.exprs)
        else:
            raise CarlabError(f"unknown action kind {self.kind!r}")
        object.__setattr__(self, "boolean", boolean)

    def apply(self, x: FeatureVector) -> FeatureVector:
        """The state after one application of the action to ``x``."""
        return tuple(self.apply_rows(np.array([x], dtype=float))[0].tolist())

    def apply_rows(self, X: np.ndarray) -> np.ndarray:
        """The states after one application of the action to each row of
        the float matrix ``X``: ``X * alpha + beta`` for an affine action,
        rounded twice as ``a * v + b`` is, and bits -> code -> image ->
        bits for a Boolean one.  The first row that fails raises."""
        if self.boolean is None:
            if X.shape[1] != len(self.alpha):
                raise CarlabError("affine action dimension mismatch")
            with np.errstate(over="ignore", invalid="ignore"):
                return X * self.alpha + self.beta
        n, bad = self.n, (X != 0.0) & (X != 1.0)
        fails = bad.any(axis=1) | (X.shape[1] != n)
        if fails.any():
            row, wrong = X[fails.argmax()], bad[fails.argmax()]  # the first failing row
            if wrong.any():
                raise CarlabError(f"non-Boolean coordinate {row[wrong][0].item()!r}")
            word = "".join(str(int(v)) for v in row.tolist())
            raise CarlabError(f"bad vertex {word!r} for n={n}")
        shifts = np.arange(n - 1, -1, -1)
        image = self.boolean.image[X.astype(np.int64) @ (1 << shifts)]
        return (image[:, None] >> shifts & 1).astype(float)


@dataclass(frozen=True)
class StallInfo:
    kind: str  # "indeterminate" | "cycle" | "exhausted"
    step: int


@dataclass(frozen=True)
class CarRunReport:
    max_steps: int
    table: TraceTable
    steps_to_normal: dict[str, Optional[int]]
    stalls: dict[str, StallInfo]

    @cached_property
    def traces(self) -> dict[str, tuple[TraceEvent, ...]]:
        """Each object's trace as events, in id order; () for an object
        with no classified step."""
        t, names = self.table, self.table.actions + (None,)
        events = list(map(
            TraceEvent, [t.object_ids[o] for o in t.obj.tolist()], t.step.tolist(), t.timestamp.tolist(),
            map(tuple, t.state.tolist()), t.label.tolist(), [names[a] for a in t.action.tolist()],
        ))
        # The rows come grouped by object, objects in index order.
        starts = np.searchsorted(t.obj, np.arange(len(t.object_ids) + 1)).tolist()
        traces = dict.fromkeys(self.steps_to_normal, ())
        traces.update((o, tuple(events[a:b])) for o, a, b in zip(t.object_ids, starts, starts[1:]))
        return traces

    @cached_property
    def converged(self) -> dict[str, bool]:
        return {object_id: s is not None for object_id, s in self.steps_to_normal.items()}

    @cached_property
    def fraction_normal_within(self) -> tuple[float, ...]:
        total = len(self.steps_to_normal)
        reached = np.array([s for s in self.steps_to_normal.values() if s is not None], dtype=np.int64)
        within = np.cumsum(np.bincount(reached, minlength=self.max_steps + 1))[: self.max_steps + 1]
        return tuple((within / total).tolist()) if total else ()

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


def _population(population: Population) -> tuple[list[str], np.ndarray]:
    """The object ids of a population, in id order, and its states as the
    rows of a new float matrix in that order; plain vector k is "vk"."""
    if isinstance(population, LearningSet):
        ids, X = population.ids, population.X
    else:
        objects = list(population)
        ids = [x.object_id if isinstance(x, LearningSample) else f"v{k:04d}" for k, x in enumerate(objects)]
        X = [tuple(x.features if isinstance(x, LearningSample) else x) for x in objects]
    if len(set(ids)) != len(ids):
        raise CarlabError("population object ids must be unique")
    if isinstance(X, list):
        widths = set(map(len, X))
        if len(widths) > 1 or 0 in widths:
            raise CarlabError("population states must be nonempty and of one length")
        X = np.array(X, float).reshape(len(X), -1 if X else 0)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [ids[k] for k in order], X[order]


def _raise_first_failure(rows: np.ndarray, label: np.ndarray, deviated: np.ndarray, applies: np.ndarray,
                         actions: Mapping[int, ActionSpec]) -> None:
    """Raise for the first deviated row, in id order, whose class has no
    action or whose action cannot be applied to it."""
    for r in np.flatnonzero(deviated).tolist():
        action = actions.get(label[r])
        if action is None:
            raise CarlabError(f"no action bound to class {label[r]}")
        if applies[r]:
            action.apply_rows(rows[r : r + 1])


def run_car(
    population: Population,
    classifier: Classifier,
    actions: Mapping[int, ActionSpec],
    max_steps: int,
) -> CarRunReport:
    """Drive every object of ``population`` (a LearningSet, LearningSample
    rows or plain vectors) through at most ``max_steps`` classify-act
    rounds, recording a trace with synthetic timestamps t_k = k.

    Convergence at step k means the k-th classification (after k applied
    actions) is the normal class.  Stalls are data, not errors.  The
    active objects advance in lockstep as rows of one state matrix, in id
    order: one classification round per step, a single call when the
    classifier has a ``batch`` method (as ``ld_classifier``'s does) and
    one call per object, with a tuple of floats, otherwise.  A (state,
    class) pair is compared by the bytes of the state with -0.0 read as
    0.0, so equal states match.  The first object in id order that has no
    action for its class, whose action cannot apply to it, or whose state
    is not finite raises.
    """
    if max_steps < 0:
        raise CarlabError("max_steps must be >= 0")
    ids, X = _population(population)
    batch = getattr(classifier, "batch", None)
    action_ids = {c: spec.action_id for c, spec in actions.items()}
    key_type = np.dtype((np.void, X.dtype.itemsize * (X.shape[1] + 2)))
    seen: set[bytes] = set()  # the (object, class, state) bytes of every deviated row so far
    reached = np.full(len(ids), -1)
    stalled: dict[int, StallInfo] = {}
    blocks = []  # per step: the object, state and class of each classified row
    active = np.arange(len(ids))
    for step in range(max_steps + 1):
        rows = X[active]
        labels = batch(rows).labels if batch else [classifier(state).label for state in map(tuple, rows.tolist())]
        label = label_codes(labels)
        abstain = label < 0
        normal = label == NORMAL_CLASS
        deviated = ~abstain & ~normal
        blocks.append((active[~abstain], rows[~abstain], label[~abstain]))
        stalled.update(dict.fromkeys(active[abstain].tolist(), StallInfo(kind="indeterminate", step=step)))
        reached[active[normal]] = step
        dev = np.flatnonzero(deviated)  # -0.0 + 0.0 is 0.0, so equal states get equal keys
        keys = np.column_stack((active[dev], label[dev], rows[dev] + 0.0)).view(key_type).ravel().tolist()
        cycle = np.zeros_like(deviated)
        cycle[dev] = np.fromiter(map(seen.__contains__, keys), bool, len(keys))
        seen.update(keys)
        stalled.update(dict.fromkeys(active[cycle].tolist(), StallInfo(kind="cycle", step=step)))
        applies = deviated & ~cycle & (step < max_steps)
        classes = np.unique(label[deviated]).tolist()
        if not all(c in actions for c in classes):
            _raise_first_failure(rows, label, deviated, applies, actions)
        try:
            for c in classes:
                at = active[applies & (label == c)]
                if at.size:
                    X[at] = actions[c].apply_rows(X[at])
        except CarlabError:
            _raise_first_failure(rows, label, deviated, applies, actions)
            raise
        active = active[deviated & ~cycle]
        if not active.size:
            break
    stalled.update(dict.fromkeys(active.tolist(), StallInfo(kind="exhausted", step=max_steps)))
    obj, state, label = (np.concatenate(column) for column in zip(*blocks))
    step = np.repeat(np.arange(len(blocks)), [len(block[0]) for block in blocks])
    objects, obj = _codes(obj)
    labels, action = _codes(label)
    table = _trace_table(
        [ids[o] for o in objects], obj, step, step.astype(float), state, label,
        [action_ids.get(c, "") for c in labels], action,
    )
    return CarRunReport(
        max_steps=max_steps,
        table=table,
        steps_to_normal={object_id: None if s < 0 else s for object_id, s in zip(ids, reached.tolist())},
        stalls={ids[o]: stalled[o] for o in sorted(stalled)},
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
            entry.update(n=spec.n, map=spec.boolean.table_words())
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
    stall = lambda info: None if info is None else {"kind": info.kind, "step": info.step}
    objects = {
        object_id: {
            "converged": steps is not None,
            "steps_to_normal": steps,
            "stall": stall(report.stalls.get(object_id)),
        }
        for object_id, steps in report.steps_to_normal.items()
    }
    return {
        "max_steps": report.max_steps,
        "objects": objects,
        "fraction_normal_within": list(report.fraction_normal_within),
        "mean_steps": report.mean_steps,
        "metrics": convergence_metrics(report),
    }
