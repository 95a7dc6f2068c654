"""Layer spans recorded from outside the program.

While instrumented, the public functions listed in ``LAYERS`` are
replaced by wrappers that record one span per call (name, start, end,
parent span, workflow id) in memory, plus per-workflow counts computed
from the call's arguments and result.  Self time per layer is derived
from the spans alone: a span's duration minus the durations of its
direct children.  Per-box and per-vertex inner calls get no span; their
work is counted instead.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _total_lds(lds) -> int:
    return sum(len(v) for v in lds.by_class.values())


def _trace_rows(traces) -> int:
    if hasattr(traces, "values"):
        return sum(len(events) for events in traces.values())
    return len(traces)


def _mine_stats(counts, args, kwargs, result):
    counts["lcpr.mine_lds.seeds"] += args[0].m
    counts["lcpr.mine_lds.lds"] += _total_lds(result)
    counts["lcpr.mine_lds.unseparable"] += len(result.warnings)


def _classify_stats(counts, args, kwargs, result):
    counts["lcpr.classify.calls"] += 1
    counts["lcpr.classify.box_tests"] += _total_lds(args[1])
    if result.reason == "tied":
        counts["lcpr.classify.tied"] += 1
    elif result.reason == "all-zero":
        counts["lcpr.classify.all_zero"] += 1


def _run_car_stats(counts, args, kwargs, result):
    counts["carsim.run_car.objects"] += len(result.traces)
    counts["carsim.run_car.steps"] += sum(len(e) for e in result.traces.values())
    counts["carsim.run_car.converged"] += sum(result.converged.values())
    for info in result.stalls.values():
        counts[f"carsim.run_car.stall_{info.kind}"] += 1


def _rdnf_stats(counts, args, kwargs, result):
    counts["boolcube.multiclass_rdnf.cubes"] += sum(len(v) for v in result.values())


def _reach_stats(counts, args, kwargs, result):
    counts["boolcube.backward_reach.vertices"] += 2 ** args[4]
    counts["boolcube.backward_reach.indeterminate"] += len(result.indeterminate)


def _cover_stats(counts, args, kwargs, result):
    counts["boolcube.subcube_cover.cubes"] += len(result)


def _rows_of_result(name):
    def stats(counts, args, kwargs, result):
        counts[name] += result.m if hasattr(result, "m") else _trace_rows(result)

    return stats


def _save_rows(counts, args, kwargs, result):
    counts["core.save_trace_log.rows"] += _trace_rows(args[0])


def _vi_stats(counts, args, kwargs, result):
    counts["mdp.value_iteration.iterations"] += result.iterations


# (module, function, stats) for every layer boundary that gets a span.
LAYERS = (
    ("core", "load_learning_set", _rows_of_result("core.load_learning_set.rows")),
    ("core", "load_trace_log", _rows_of_result("core.load_trace_log.rows")),
    ("core", "save_trace_log", _save_rows),
    ("lcpr", "mine_lds", _mine_stats),
    ("lcpr", "classify", _classify_stats),
    ("lcpr", "load_ldset", None),
    ("carsim", "run_car", _run_car_stats),
    ("boolcube", "multiclass_rdnf", _rdnf_stats),
    ("boolcube", "forall_exists_partition", None),
    ("boolcube", "backward_reach", _reach_stats),
    ("boolcube", "subcube_cover", _cover_stats),
    ("mdp", "estimate_mdp", None),
    ("mdp", "extract_observed_policy", None),
    ("mdp", "value_iteration", _vi_stats),
    ("mdp", "policy_evaluation", None),
    ("mdp", "compare_policies", None),
    ("poset", "load_transition_records", None),
    ("poset", "extract_relation", None),
    ("poset", "validate_to_normal", None),
    ("poset", "build_level_diagram", None),
)


class Tracer:
    """In-memory span log for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1, workflow)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.workflow = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, stats=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.workflow)
        if stats is not None:
            stats(self.counts[self.workflow], args, kwargs, result)
        return result

    def wrap(self, name: str, fn, stats=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, stats=stats, **kwargs)

        return wrapper

    @contextmanager
    def instrument(self, carlab_modules: dict):
        """Swap the layer functions for span-recording wrappers.

        The CLI imports the ``core`` loaders by name, so they are swapped
        in ``carlab.cli`` as well.  Boolean action applications are
        counted, not spanned.
        """
        cli = carlab_modules["cli"]
        saved = []

        def swap(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for module_name, attr, stats in LAYERS:
                module = carlab_modules[module_name]
                wrapped = self.wrap(f"{module_name}.{attr}", getattr(module, attr), stats)
                swap(module, attr, wrapped)
                if getattr(cli, attr, None) is saved[-1][2]:
                    swap(cli, attr, wrapped)
            action_cls = carlab_modules["boolcube"].BooleanAction
            apply = action_cls.apply
            counts = self.counts

            def counted_apply(action, vertex):
                counts[self.workflow]["boolcube.action_apply.calls"] += 1
                return apply(action, vertex)

            swap(action_cls, "apply", counted_apply)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[int, Counter]:
        """Self seconds per span name, per workflow."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for k, (name, start, end, _, workflow) in enumerate(self.spans):
            out[workflow][name] += end - start - child[k]
        return out

    def inclusive_times(self) -> dict[int, Counter]:
        """Total seconds per span name, per workflow."""
        out: dict[int, Counter] = defaultdict(Counter)
        for name, start, end, _, workflow in self.spans:
            out[workflow][name] += end - start
        return out

    def write(self, path: Path, origin: float) -> None:
        """Write every span once, as CSV, with times relative to ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "workflow", "name", "start_s", "end_s"])
            for k, (name, start, end, parent, workflow) in enumerate(self.spans):
                writer.writerow(
                    [k, parent, workflow, name, f"{start - origin:.9f}", f"{end - origin:.9f}"]
                )
