"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value is recomputed here by brute force (exhaustive
enumeration, exact linear solves, forward simulation) independently of
the library's algorithms.  Tolerances are fixed in the asserts.
"""

import time

import numpy as np
import pytest

from carlab import synth
from carlab.boolcube import (
    all_vertices,
    backward_reach,
    forall_exists_partition,
    multiclass_rdnf,
    reduced_dnf,
    subcubes_to_ldset,
)
from carlab.carsim import register_actions, run_car, save_actions, ActionSpec
from carlab.cli import main as cli_main
from carlab.core import save_learning_set
from carlab.lcpr import (
    LogicalDependency,
    classify,
    eval_ld,
    ld_classifier,
    mine_lds,
)
from carlab.mdp import Policy, policy_evaluation, reward_from_levels, value_iteration
from carlab.poset import (
    build_level_diagram,
    check_poset,
    has_unique_minimum,
    save_transition_records,
    validate_to_normal,
)

import oracles
from conftest import ACCEPTANCE_LINES


def report(number, detail):
    line = f"criterion {number:2d}: PASS - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def _codes(vertices):
    """A word set as the ascending code array the region API takes."""
    return np.array(sorted(int(v, 2) for v in vertices), dtype=np.int64)


def _words(codes, n):
    """The word set a code array names."""
    return {format(c, f"0{n}b") for c in codes.tolist()}


# ---------------------------------------------------------------------------
# Criteria 1-2: logical-dependency mining


@pytest.fixture(scope="module")
def mining_batch():
    rng = synth.default_rng(100)
    start = time.monotonic()
    batch = []
    for _ in range(100):
        ls = synth.random_learning_set(rng)
        batch.append((ls, mine_lds(ls)))
    return batch, time.monotonic() - start


def _coverage_counts(ls, box):
    xs = np.array([s.features for s in ls.samples])
    ys = np.array([s.label for s in ls.samples])
    lo = np.full(ls.n, -np.inf)
    hi = np.full(ls.n, np.inf)
    for j, v in box.lower.items():
        lo[j - 1] = v
    for j, v in box.upper.items():
        hi[j - 1] = v
    inside = np.all((xs >= lo) & (xs <= hi), axis=1)
    own = int(np.count_nonzero(inside & (ys == box.class_index)))
    counter = int(np.count_nonzero(inside & (ys != box.class_index)))
    return own, counter


def test_criterion_1_admissibility(mining_batch):
    batch, mining_seconds = mining_batch
    start = time.monotonic()
    rules = 0
    for ls, lds in batch:
        assert not lds.warnings, "generator must avoid unseparable seeds"
        for box in lds.all_lds():
            own, counter = _coverage_counts(ls, box)
            assert own >= 1 and counter == 0, box
            rules += 1
        for sample in ls.samples:
            covering = [
                box
                for box in lds.by_class[sample.label]
                if eval_ld(box, sample.features)
            ]
            assert covering, f"uncovered training point {sample.object_id}"
    elapsed = mining_seconds + time.monotonic() - start
    assert elapsed < 30.0, f"criterion 1 too slow: {elapsed:.1f}s"
    report(1, f"{rules} mined rules admissible, all points covered ({elapsed:.1f}s)")


def test_criterion_2_maximality(mining_batch):
    batch, _ = mining_batch
    checked = 0
    for ls, lds in batch:
        grids = {
            j: sorted({s.features[j - 1] for s in ls.samples})
            for j in range(1, ls.n + 1)
        }
        for box in lds.all_lds():
            for j, lo in box.lower.items():
                below = [v for v in grids[j] if v < lo]
                variants = []
                if below:
                    stepped = dict(box.lower)
                    stepped[j] = below[-1]
                    variants.append((stepped, box.upper))
                dropped = dict(box.lower)
                dropped.pop(j)
                variants.append((dropped, box.upper))
                for lower, upper in variants:
                    relaxed = LogicalDependency(box.class_index, dict(lower), dict(upper))
                    _, counter = _coverage_counts(ls, relaxed)
                    assert counter >= 1, (box, relaxed)
                    checked += 1
            for j, hi in box.upper.items():
                above = [v for v in grids[j] if v > hi]
                variants = []
                if above:
                    stepped = dict(box.upper)
                    stepped[j] = above[0]
                    variants.append((box.lower, stepped))
                dropped = dict(box.upper)
                dropped.pop(j)
                variants.append((box.lower, dropped))
                for lower, upper in variants:
                    relaxed = LogicalDependency(box.class_index, dict(lower), dict(upper))
                    _, counter = _coverage_counts(ls, relaxed)
                    assert counter >= 1, (box, relaxed)
                    checked += 1
    report(2, f"{checked} single-bound relaxations all admit a counter point")


# ---------------------------------------------------------------------------
# Criterion 3: RDNF versus exhaustive subcube enumeration


def test_criterion_3_rdnf_oracle():
    start = time.monotonic()
    rng = synth.default_rng(103)
    instances = 0
    for n in (4, 6, 8, 10):
        space = oracles.SubcubeSpace(n)
        half = 2 ** (n - 1)
        for _ in range(50):
            positives = rng.randint(1, min(30, half))
            negatives = rng.randint(0, min(30, half))
            f = synth.random_partial_boolean_function(rng, n, positives, negatives)
            got = {c.word for c in reduced_dnf(f)}
            expected = oracles.brute_force_rdnf(space, f.positives, f.negatives)
            assert got == expected, (n, sorted(f.positives), sorted(f.negatives))
            instances += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 3 too slow: {elapsed:.1f}s"
    report(3, f"{instances} instances match 3^n enumeration exactly ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 4: region partition soundness by vertex enumeration


def test_criterion_4_partition_soundness():
    rng = synth.default_rng(104)
    checked = 0
    for n in (4, 6, 8, 10):
        for _ in range(5):
            half = 2 ** (n - 1)
            f = synth.random_partial_boolean_function(
                rng, n, rng.randint(1, half), rng.randint(1, half)
            )
            pos_rdnf = reduced_dnf(f)
            neg_rdnf = reduced_dnf(
                type(f)(n=n, positives=f.negatives, negatives=f.positives)
            )
            part = forall_exists_partition(pos_rdnf, neg_rdnf, n=n)
            forall, exists = _words(part.forall_region, n), _words(part.exists_region, n)
            for v in all_vertices(n):
                pos_cover = sum(1 for c in pos_rdnf if c.contains(v))
                neg_cover = sum(1 for c in neg_rdnf if c.contains(v))
                if v in forall:
                    assert pos_cover >= 1 and neg_cover == 0
                elif v in exists:
                    assert pos_cover >= 1 and neg_cover >= 1
                else:
                    assert pos_cover == 0
                checked += 1
    report(4, f"{checked} vertices classified consistently with their covers")


# ---------------------------------------------------------------------------
# Criteria 5 and 11: backward reach vs forward simulation


def _boolean_instance(rng, n):
    classes = rng.randint(2, 3)
    per_class = rng.randint(2, max(2, min(5, 2 ** n // (2 * classes))))
    ls = synth.random_boolean_learning_set(rng, n, classes, per_class)
    lds = subcubes_to_ldset(multiclass_rdnf(ls))

    def label(v):
        return classify([float(c) for c in v], lds).label

    actions = {
        i: synth.random_boolean_action(rng, f"a{i}", n)
        for i in range(1, classes)
    }
    region = {v for v in all_vertices(n) if label(v) == 0}
    return ls, lds, label, actions, region


def test_criterion_5_backward_reach_oracle():
    rng = synth.default_rng(105)
    sizes = [4, 5, 6, 7, 8] * 4 + [9, 9, 9, 10, 10]
    for n in sizes:
        _, _, label, actions, region = _boolean_instance(rng, n)
        depth = rng.randint(1, 5)
        labels = [label(v) for v in all_vertices(n)]
        reach = backward_reach(_codes(region), actions, labels, depth, n)
        for d in range(depth + 1):
            expected = oracles.forward_depth_region(n, label, actions, region, d)
            assert _words(reach.depths[d], n) == expected, (n, d)
    report(5, f"{len(sizes)} instances match forward simulation at every depth")


def test_criterion_11_forward_backward_consistency():
    rng = synth.default_rng(111)
    sizes = [4, 5, 6, 7, 8, 10]
    total = 0
    for n in sizes:
        _, lds, label, actions, region = _boolean_instance(rng, n)
        k = rng.randint(1, 5)
        labels = [label(v) for v in all_vertices(n)]
        reach = backward_reach(_codes(region), actions, labels, k, n)
        cumulative = _words(reach.cumulative[k], n)
        specs = [
            ActionSpec(
                action_id=f"a{i}",
                class_index=i,
                kind="table",
                n=n,
                table={
                    v: actions[i].apply(v) for v in all_vertices(n)
                },
            )
            for i in actions
        ]
        table = register_actions(specs, deviated_count=max(actions))
        population = [tuple(float(c) for c in v) for v in all_vertices(n)]
        run = run_car(population, ld_classifier(lds), table, max_steps=k)
        for index, v in enumerate(all_vertices(n)):
            object_id = f"v{index:04d}"
            steps = run.steps_to_normal[object_id]
            converged_within_k = steps is not None and steps <= k
            assert converged_within_k == (v in cumulative), (n, v)
            total += 1
    report(11, f"{total} start states agree between run_car and backward reach")


# ---------------------------------------------------------------------------
# Criterion 6: poset validators vs direct axiom evaluation


def test_criterion_6_poset_oracle():
    rng = synth.default_rng(106)
    for _ in range(200):
        g = synth.random_transition_graph(rng, max_classes=50)
        order, m = oracles.closed_relation(g.classes, g.step_pairs())
        axioms = oracles.axioms_on_closure(order, m)
        p = check_poset(g)
        assert axioms["reflexive"] and axioms["transitive"]
        assert p.antisymmetric == axioms["antisymmetric"]
        minimum = has_unique_minimum(g)
        assert list(minimum.minimal) == axioms["minimal"]
        assert minimum.passed == (axioms["minimal"] == [0])
        verdict = validate_to_normal(g)
        expected = (
            axioms["reflexive"]
            and axioms["antisymmetric"]
            and axioms["transitive"]
            and axioms["minimal"] == [0]
            and oracles.all_reach_normal(order, m)
        )
        assert verdict.passed == expected
    report(6, "200 random digraphs agree with the materialized closure")


# ---------------------------------------------------------------------------
# Criteria 7-8: value iteration and policy evaluation oracles


@pytest.fixture(scope="module")
def mdp_family():
    rng = synth.default_rng(107)
    return [synth.random_mdp(rng, max_states=6, max_actions=3, gamma=0.9) for _ in range(50)]


def test_criterion_7_value_iteration_optimality(mdp_family):
    for model in mdp_family:
        vi = value_iteration(model, tol=1e-9)
        best = oracles.best_deterministic_values(model)
        for s in model.states:
            assert abs(vi.values[s] - best[s]) <= 1e-8, s
        assert vi.residual <= 1e-9
    report(7, "50 models: V* matches exhaustive policy enumeration within 1e-8")


def test_criterion_8_policy_evaluation_oracle(mdp_family):
    rng = synth.default_rng(108)
    for model in mdp_family:
        decision = {}
        for s in model.states:
            actions = model.actions(s)
            weights = [rng.random() + 0.05 for _ in actions]
            total = sum(weights)
            decision[s] = {a: w / total for a, w in zip(actions, weights)}
        v = policy_evaluation(model, Policy(decision=decision), tol=1e-9)
        exact = oracles.exact_policy_value(model, decision)
        for s in model.states:
            assert abs(v[s] - exact[s]) <= 1e-8, s
    report(8, "50 stochastic policies match the exact linear-system solution")


# ---------------------------------------------------------------------------
# Criteria 9-10: reward telescoping and contracting convergence


def test_criterion_9_reward_telescoping():
    traces_checked = 0
    for deviated_count in (1, 2, 3, 5):
        learning_set, specs, graph = synth.contracting_instance(deviated_count)
        diagram = build_level_diagram(graph)
        reward = reward_from_levels(diagram)
        lds = mine_lds(learning_set)
        table = register_actions(specs, deviated_count)
        run = run_car(learning_set.samples, ld_classifier(lds), table, max_steps=deviated_count + 2)
        for events in run.traces.values():
            total = sum(
                reward(prev.assigned_class, prev.applied_action, nxt.assigned_class)
                for prev, nxt in zip(events, events[1:])
            )
            expected = diagram.levels[events[0].assigned_class] - diagram.levels[
                events[-1].assigned_class
            ]
            assert total == expected  # exact integer equality
            traces_checked += 1
    report(9, f"{traces_checked} simulated traces telescope exactly")


def test_criterion_10_contracting_convergence():
    for deviated_count in (1, 2, 3, 4, 6):
        learning_set, specs, graph = synth.contracting_instance(deviated_count)
        diagram = build_level_diagram(graph)
        assert diagram.complete and diagram.height == deviated_count
        lds = mine_lds(learning_set)
        table = register_actions(specs, deviated_count)
        run = run_car(learning_set.samples, ld_classifier(lds), table, max_steps=deviated_count)
        assert all(run.converged.values()), f"non-convergence at height {deviated_count}"
        assert max(run.steps_to_normal.values()) <= diagram.height
        curve = run.fraction_normal_within
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == 1.0
    report(10, "all objects reach the normal class within height(diagram) steps")


# ---------------------------------------------------------------------------
# Criterion 12: byte-identical CLI workflows


def _run_workflow(base):
    base.mkdir()
    learning_set, specs, graph = synth.contracting_instance(deviated_count=3)
    data = base / "data.csv"
    save_learning_set(learning_set, data)
    actions = base / "actions.json"
    save_actions(specs, actions)
    transitions = base / "transitions.csv"
    save_transition_records(graph, transitions)

    rng = synth.default_rng(112)
    boolean_set = synth.random_boolean_learning_set(rng, n=4, classes=2, per_class=4)
    bool_data = base / "bool.csv"
    save_learning_set(boolean_set, bool_data)
    bool_actions = base / "bool_actions.json"
    save_actions(
        [
            ActionSpec(
                action_id="a1",
                class_index=1,
                kind="rule",
                n=4,
                exprs=("0", "x2", "0", "x4"),
            )
        ],
        bool_actions,
    )

    outputs = {
        "lds.json": ["mine", "--data", data],
        "table.json": ["classify", "--lds", base / "lds.json", "--data", data],
        "verdict.json": ["validate-poset", "--transitions", transitions],
        "diagram.json": ["diagram", "--transitions", transitions],
        "run.json": [
            "simulate",
            "--data", data,
            "--lds", base / "lds.json",
            "--actions", actions,
            "--max-steps", "6",
            "--trace-out", base / "traces.csv",
            "--emit-dataset", base / "emitted.csv",
        ],
        "mdp.json": ["fit-mdp", "--traces", base / "traces.csv"],
        "cmp.json": [
            "eval-policy", "--mdp", base / "mdp.json", "--traces", base / "traces.csv",
        ],
        "inv.json": [
            "inverse", "--data", bool_data, "--actions", bool_actions, "--depth", "3",
        ],
    }
    for name, argv in outputs.items():
        code = cli_main([str(a) for a in argv] + ["--out", str(base / name)])
        assert code == 0, name
    code = cli_main(
        ["report", "--out", str(base / "bundle.json")]
        + [str(base / n) for n in ("verdict.json", "diagram.json", "cmp.json")]
    )
    assert code == 0
    names = sorted(
        p.name for p in base.iterdir() if p.suffix in (".json", ".csv", ".cfg")
    )
    return {name: (base / name).read_bytes() for name in names}


def test_criterion_12_cli_determinism(tmp_path):
    first = _run_workflow(tmp_path / "one")
    second = _run_workflow(tmp_path / "two")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    report(12, f"{len(first)} workflow artifacts byte-identical across reruns")
