"""Workload definitions: seeded input generators, CLI step lists, and the
output checks of each workload.

The generators use only the standard library, so the program under test
sees nothing but the CSV/JSON files written here.  Each workload's random
stream is derived from the workload name and the benchmark seed, so one
seed gives the same inputs on every run and every machine.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Step:
    """One CLI invocation: argv for ``carlab.cli.main`` and its expected exit."""

    argv: tuple[str, ...]
    expected_exit: int
    outputs: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    toy_sizes: dict
    generate: Callable[[random.Random, Path, dict], dict]
    steps: Callable[[Path, dict], list[Step]]
    decision: Callable[[Path], object]
    invariants: Callable[[Path, dict], list[str]]


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _write_dataset(path: Path, rows, n: int) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(1, n + 1)] + ["class"])
        for object_id, features, label in rows:
            writer.writerow([object_id] + [repr(v) for v in features] + [label])


def _optimal_policy(cmp: dict) -> dict:
    """Optimal actions per state with their values rounded to 1e-8."""
    return {
        s: [entry["optimal_actions"], round(entry["v_optimal"], 8)]
        for s, entry in sorted(cmp["per_state"].items())
    }


# --- real-loop --------------------------------------------------------------
#
# The class is the band of the last feature on a 50-value grid; a fixed
# share of training labels is flipped to another class.  Every deviated
# class contracts the last feature toward the normal band
# (x -> 0.6 x + 2, fixed point 5), so objects need several steps and
# cannot run off the grid; noisy rules still make some stall.

def _real_band(x: tuple[float, ...], classes: int, grid: int) -> int:
    return int(x[-1]) * classes // grid


def _real_point(rng: random.Random, n: int, grid: int, band=None, classes=4):
    x = [float(rng.randrange(grid)) for _ in range(n)]
    if band is not None:
        lo = -(-band * grid // classes)
        hi = -(-(band + 1) * grid // classes)
        x[-1] = float(rng.randrange(lo, hi))
    return tuple(x)


def real_loop_generate(rng: random.Random, work: Path, sizes: dict) -> dict:
    n, classes, grid = sizes["n"], sizes["classes"], sizes["grid"]
    m, q = sizes["train"], sizes["queries"]
    noisy = set(rng.sample(range(m), round(sizes["noise"] * m)))
    taken: set[tuple[float, ...]] = set()
    train = []
    for k in range(m):
        while True:
            # the first rows fix one point per band, so no class share is empty
            x = _real_point(rng, n, grid, band=k if k < classes else None, classes=classes)
            if x not in taken:
                break
        taken.add(x)
        label = _real_band(x, classes, grid)
        if k in noisy:
            label = rng.choice([c for c in range(classes) if c != label])
        train.append((f"s{k:05d}", x, label))
    queries = []
    for k in range(q):
        x = _real_point(rng, n, grid, band=k if k < classes else None, classes=classes)
        queries.append((f"q{k:05d}", x, _real_band(x, classes, grid)))
    _write_dataset(work / "train.csv", train, n)
    _write_dataset(work / "queries.csv", queries, n)
    actions = [
        {
            "action": f"a{c}",
            "class": c,
            "kind": "affine",
            "alpha": [1.0] * (n - 1) + [0.6],
            "beta": [0.0] * (n - 1) + [2.0],
        }
        for c in range(1, classes)
    ]
    (work / "actions.json").write_text(json.dumps(actions, indent=1), encoding="utf-8")
    return {"queries": q}


def real_loop_steps(work: Path, sizes: dict) -> list[Step]:
    w = lambda name: str(work / name)
    return [
        Step(("mine", "--data", w("train.csv"), "--out", w("lds.json")), 0, ("lds.json",)),
        Step(
            ("classify", "--lds", w("lds.json"), "--data", w("queries.csv"), "--out", w("table.json")),
            0,
            ("table.json",),
        ),
        Step(
            (
                "simulate", "--data", w("queries.csv"), "--lds", w("lds.json"),
                "--actions", w("actions.json"), "--max-steps", "20", "--out", w("run.json"),
                "--trace-out", w("traces.csv"), "--emit-dataset", w("visited.csv"),
            ),
            0,
            ("run.json", "traces.csv", "visited.csv"),
        ),
        Step(("fit-mdp", "--traces", w("traces.csv"), "--out", w("mdp.json")), 0, ("mdp.json",)),
        Step(
            ("eval-policy", "--mdp", w("mdp.json"), "--traces", w("traces.csv"), "--out", w("cmp.json")),
            0,
            ("cmp.json",),
        ),
    ]


def real_loop_decision(work: Path) -> dict:
    table = _read_json(work / "table.json")
    run = _read_json(work / "run.json")
    return {
        "lds": _read_json(work / "lds.json"),
        "labels": [[r["id"], r["label"], r["reason"]] for r in table["results"]],
        "objects": {
            object_id: [o["steps_to_normal"], o["stall"]]
            for object_id, o in sorted(run["objects"].items())
        },
        "policy": _optimal_policy(_read_json(work / "cmp.json")),
    }


def real_loop_invariants(work: Path, meta: dict) -> list[str]:
    problems = []
    table = _read_json(work / "table.json")
    run = _read_json(work / "run.json")
    q = meta["queries"]
    if len(table["results"]) != q:
        problems.append(f"classify: {len(table['results'])} results for {q} queries")
    if len(run["objects"]) != q:
        problems.append(f"simulate: {len(run['objects'])} objects for {q} queries")
    metrics = run["metrics"]
    ended = metrics["converged"] + sum(metrics["stalls"].values())
    if ended != q:
        problems.append(f"simulate: {ended} objects converged or stalled, expected {q}")
    return problems


# --- bool-inverse -----------------------------------------------------------
#
# Disjoint random class shares on the n-cube; class 1 carries a
# substitution rule and class 2 an explicit table.  The number of maximal
# subcubes, and with it the voting work, swings by about a quarter between
# random instances of this size, which would swamp any bound.  So the
# instance is drawn once from a fixed stream, and the seed picks a cube
# automorphism (a coordinate permutation plus a complement mask) that
# relabels it: every seed gives other words and other sort orders, but the
# same amount of work.

def _relabel(word: str, perm: list[int], mask: list[int]) -> str:
    out = [""] * len(word)
    for i, c in enumerate(word):
        out[perm[i]] = str(int(c) ^ mask[i])
    return "".join(out)


def _relabel_token(token: str, i: int, perm: list[int], mask: list[int]) -> str:
    """Token for output coordinate perm[i] of the relabelled rule."""
    if token in ("0", "1"):
        return str(int(token) ^ mask[i])
    negate = token.startswith("~")
    k = int(token.lstrip("~x")) - 1
    flip = negate ^ mask[k] ^ mask[i]
    return f"{'~' if flip else ''}x{perm[k] + 1}"


def bool_inverse_generate(rng: random.Random, work: Path, sizes: dict) -> dict:
    n, per, classes = sizes["n"], sizes["per_class"], 3
    base = random.Random(f"bool-inverse/base/{n}/{per}")
    word = lambda code: format(code, f"0{n}b")
    codes = base.sample(range(2 ** n), classes * per)
    tokens = []
    for _ in range(n):
        kind = base.randrange(4)
        k = base.randint(1, n)
        tokens.append(["0", "1", f"x{k}", f"~x{k}"][kind])
    table = {word(code): word(base.randrange(2 ** n)) for code in range(2 ** n)}

    perm = list(range(n))
    rng.shuffle(perm)
    mask = [rng.randrange(2) for _ in range(n)]
    relabel = lambda w: _relabel(w, perm, mask)
    rows = [
        (f"b{k:03d}", tuple(int(c) for c in relabel(word(code))), k // per)
        for k, code in enumerate(codes)
    ]
    _write_dataset(work / "bool.csv", rows, n)
    exprs = [""] * n
    for i, token in enumerate(tokens):
        exprs[perm[i]] = _relabel_token(token, i, perm, mask)
    actions = [
        {"action": "r1", "class": 1, "kind": "rule", "n": n, "exprs": exprs},
        {
            "action": "t2", "class": 2, "kind": "table", "n": n,
            "map": {relabel(v): relabel(t) for v, t in sorted(table.items())},
        },
    ]
    (work / "actions.json").write_text(json.dumps(actions), encoding="utf-8")
    return {"n": n, "depth": sizes["depth"]}


def bool_inverse_steps(work: Path, sizes: dict) -> list[Step]:
    return [
        Step(
            (
                "inverse", "--data", str(work / "bool.csv"), "--actions",
                str(work / "actions.json"), "--depth", str(sizes["depth"]), "--out", str(work / "inv.json"),
            ),
            0,
            ("inv.json",),
        )
    ]


def bool_inverse_decision(work: Path) -> dict:
    inv = _read_json(work / "inv.json")
    return {
        "forall": inv["forall"],
        "exists": inv["exists"],
        "uncovered": inv["uncovered"],
        "indeterminate": inv["indeterminate"],
        "depths": [[d["region"], d["cumulative"]] for d in inv["depths"]],
    }


def bool_inverse_invariants(work: Path, meta: dict) -> list[str]:
    problems = []
    inv = _read_json(work / "inv.json")
    total = 2 ** meta["n"]
    parts = [set(inv[k]) for k in ("forall", "exists", "uncovered")]
    if sum(map(len, parts)) != len(set().union(*parts)):
        problems.append("inverse: forall, exists and uncovered overlap")
    if len(inv["depths"]) != meta["depth"] + 1:
        problems.append(f"inverse: {len(inv['depths'])} depth entries, expected {meta['depth'] + 1}")
    for d in inv["depths"]:
        seen = set(d["cumulative"]) | set(d["never_within"])
        if len(seen) != total or len(d["cumulative"]) + len(d["never_within"]) != total:
            problems.append(f"inverse: depth {d['depth']} does not classify all {total} vertices")
    return problems


# --- trace-fit --------------------------------------------------------------
#
# Random walks over the classes, each step under one of three actions
# chosen uniformly.  Walks mostly drop one or two levels, but upward moves
# make the step relation cyclic, so validate-poset fails (exit 2) while
# every class still reaches normal and the MDP can be fitted.

TRACE_ACTIONS = ("a0", "a1", "a2")
TRACE_DOWN = (0.55, 0.65, 0.75)


def trace_fit_generate(rng: random.Random, work: Path, sizes: dict) -> dict:
    classes, features, target = sizes["classes"], sizes["features"], sizes["rows"]
    max_len = sizes["max_len"]
    counts: dict[tuple[int, str, int], int] = {}
    seen: set[int] = set()
    rows = objects = 0
    with (work / "traces.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id", "step", "timestamp"] + [f"f{j}" for j in range(1, features + 1)] + ["class", "action"]
        )
        while rows < target or len(seen) < classes:
            object_id = f"o{objects:05d}"
            objects += 1
            current = rng.randrange(1, classes)
            t = 0.0
            for step in range(max_len + 1):
                t += rng.uniform(0.5, 2.0)
                state = [repr(round(rng.uniform(0.0, 10.0), 3)) for _ in range(features)]
                seen.add(current)
                rows += 1
                if current == 0:
                    writer.writerow([object_id, step, repr(round(t, 6))] + state + [0, ""])
                    break
                action = rng.choice(TRACE_ACTIONS)
                writer.writerow([object_id, step, repr(round(t, 6))] + state + [current, action])
                if step == max_len:
                    break
                roll = rng.random()
                down = TRACE_DOWN[TRACE_ACTIONS.index(action)]
                if roll < down:
                    nxt = max(0, current - (2 if rng.random() < 0.2 else 1))
                elif roll < down + 0.2 and current < classes - 1:
                    nxt = current + 1
                else:
                    nxt = current
                key = (current, action, nxt)
                counts[key] = counts.get(key, 0) + 1
                current = nxt
    with (work / "transitions.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from_class", "action", "to_class", "count"])
        for (src, action, dst), count in sorted(counts.items()):
            writer.writerow([src, action, dst, count])
    return {"classes": len(seen), "rows": rows, "objects": objects}


def trace_fit_steps(work: Path, sizes: dict) -> list[Step]:
    w = lambda name: str(work / name)
    return [
        Step(("validate-poset", "--transitions", w("transitions.csv"), "--out", w("verdict.json")), 2, ("verdict.json",)),
        Step(("diagram", "--transitions", w("transitions.csv"), "--out", w("diagram.json")), 0, ("diagram.json",)),
        Step(
            (
                "fit-mdp", "--traces", w("traces.csv"), "--gamma", "0.99", "--smoothing", "0.5",
                "--out", w("mdp.json"),
            ),
            0,
            ("mdp.json",),
        ),
        Step(
            ("eval-policy", "--mdp", w("mdp.json"), "--traces", w("traces.csv"), "--out", w("cmp.json")),
            0,
            ("cmp.json",),
        ),
    ]


def trace_fit_decision(work: Path) -> dict:
    verdict = _read_json(work / "verdict.json")
    return {
        "passed": verdict["passed"],
        "verdict": verdict["verdict"],
        "counterexample_cycle": verdict["poset"]["counterexample_cycle"],
        "minimal": verdict["minimum"]["minimal"],
        "levels": verdict["diagram"]["levels"],
        "diagram_levels": _read_json(work / "diagram.json")["levels"],
        "policy": _optimal_policy(_read_json(work / "cmp.json")),
    }


def trace_fit_invariants(work: Path, meta: dict) -> list[str]:
    problems = []
    verdict = _read_json(work / "verdict.json")
    levels = _read_json(work / "diagram.json")["levels"]
    cmp = _read_json(work / "cmp.json")
    if verdict["poset"]["counterexample_cycle"] is None:
        problems.append("validate-poset: fail verdict without a counterexample cycle")
    if len(levels) != meta["classes"]:
        problems.append(f"diagram: {len(levels)} levels for {meta['classes']} classes")
    if len(cmp["per_state"]) != meta["classes"]:
        problems.append(f"eval-policy: {len(cmp['per_state'])} states for {meta['classes']} classes")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="real-loop",
            sizes={"n": 6, "classes": 4, "grid": 50, "noise": 0.2, "train": 500, "queries": 1000},
            toy_sizes={"n": 6, "classes": 4, "grid": 50, "noise": 0.2, "train": 60, "queries": 40},
            generate=real_loop_generate,
            steps=real_loop_steps,
            decision=real_loop_decision,
            invariants=real_loop_invariants,
        ),
        Workload(
            name="bool-inverse",
            sizes={"n": 12, "per_class": 5, "depth": 3},
            toy_sizes={"n": 6, "per_class": 4, "depth": 2},
            generate=bool_inverse_generate,
            steps=bool_inverse_steps,
            decision=bool_inverse_decision,
            invariants=bool_inverse_invariants,
        ),
        Workload(
            name="trace-fit",
            sizes={"classes": 30, "features": 4, "rows": 30000, "max_len": 60},
            toy_sizes={"classes": 6, "features": 2, "rows": 200, "max_len": 30},
            generate=trace_fit_generate,
            steps=trace_fit_steps,
            decision=trace_fit_decision,
            invariants=trace_fit_invariants,
        ),
    )
}
