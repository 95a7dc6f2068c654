"""Input checks that no other test reaches, each refused with its message.

One case per check where data enters a library function or constructor:
the exception type and the message are asserted, so a check that stops
raising, or raises something else, fails here.  The CLI cases run the
same kind of refusal through ``main``, which must exit 1 with one
``error:`` line and no traceback.
"""

import contextlib
import io
import json
import re

import numpy as np
import pytest

from carlab import synth
from carlab.boolcube import BooleanAction, backward_reach
from carlab.carsim import ActionSpec, load_actions, run_car, save_actions
from carlab.cli import main
from carlab.core import CarlabError, DataFormatError, LearningSet, TraceEvent, save_learning_set, save_trace_log
from carlab.lcpr import LDSet, LogicalDependency, classify_batch, eval_ld, save_ldset
from carlab.mdp import MDPModel, Policy, estimate_mdp, policy_evaluation
from carlab.poset import ClassTransitionGraph, LevelDiagram, Transition, counter_class, neighborhood

RULE = ActionSpec("r", 1, "rule", n=2, exprs=("x1", "x2"))
AFFINE = ActionSpec("a", 1, "affine", alpha=(1.0,), beta=(0.0,))
GRAPH = ClassTransitionGraph.build([Transition(1, "a", 0)])
TRACES = [
    TraceEvent("o1", 0, 0.0, (1.0,), 1, "a"),
    TraceEvent("o1", 1, 1.0, (0.0,), 0, None),
]
# Two states: state 1 has actions a and b, both into the absorbing normal state 0.
MODEL = MDPModel([0, 1], 0.9, {0: {"stay": ((0, 1.0, 0.0),)}, 1: {"a": ((0, 1.0, 1.0),), "b": ((0, 1.0, 0.0),)}})
LDS = LDSet({0: [LogicalDependency(0, {1: 0.0}, {})]})


def _cases():
    yield "exprs-and-table-both-missing", lambda: BooleanAction("a", 2), CarlabError, \
        "exactly one of table/exprs must be given"
    yield "rule-of-wrong-length", lambda: BooleanAction("a", 2, exprs=("x1",)), CarlabError, \
        "rule must give one expression per coordinate"
    yield "backward-reach-negative-depth", lambda: backward_reach([], {}, [None] * 4, -1, 2), CarlabError, \
        "depth must be >= 0"
    yield "action-bound-to-normal-class", lambda: ActionSpec("a", 0, "affine", alpha=(1.0,), beta=(0.0,)), \
        CarlabError, "no action may be bound to the normal class"
    yield "affine-without-beta", lambda: ActionSpec("a", 1, "affine", alpha=(1.0,)), CarlabError, \
        "affine action needs alpha and beta"
    yield "alpha-beta-lengths-differ", lambda: ActionSpec("a", 1, "affine", alpha=(1.0,), beta=(0.0, 0.0)), \
        CarlabError, "alpha/beta length mismatch"
    yield "table-without-n", lambda: ActionSpec("a", 1, "table", table={"0": "1", "1": "0"}), CarlabError, \
        "table action needs n"
    yield "rule-without-n", lambda: ActionSpec("a", 1, "rule", exprs=("x1",)), CarlabError, \
        "rule action needs n"
    yield "unknown-kind", lambda: ActionSpec("a", 1, "shift"), CarlabError, "unknown action kind 'shift'"
    yield "affine-rows-of-wrong-width", lambda: AFFINE.apply_rows(np.zeros((1, 2))), CarlabError, \
        "affine action dimension mismatch"
    yield "boolean-row-of-wrong-width", lambda: RULE.apply_rows(np.array([[0.0, 1.0, 1.0]])), CarlabError, \
        "bad vertex '011' for n=2"
    yield "population-of-mixed-lengths", lambda: run_car([(0.0,), (0.0, 1.0)], None, {}, 1), CarlabError, \
        "population states must be nonempty and of one length"
    yield "negative-max-steps", lambda: run_car([(0.0,)], None, {}, -1), CarlabError, "max_steps must be >= 0"
    yield "learning-set-with-a-row-short", lambda: LearningSet(["a", "b"], [[0.0]], [0, 1], "real"), \
        DataFormatError, "need a feature row and a label per id: 2 ids, (1, 1), (2,)"
    yield "eval-ld-past-the-vector", lambda: eval_ld(LogicalDependency(1, {}, {3: 1.0}), (0.0, 0.0)), \
        CarlabError, "feature index 3 out of range for n=2"
    yield "classify-batch-on-1d-rows", lambda: classify_batch(np.zeros(3), LDS), CarlabError, \
        "rows to classify must form a 2-D array"
    yield "gamma-of-one", lambda: MDPModel([0], 1.0, {0: {"stay": ((0, 1.0, 0.0),)}}), CarlabError, \
        "gamma must lie in [0, 1)"
    yield "stochastic-policy-action", lambda: Policy({1: {"a": 0.5, "b": 0.5}}).action(1), CarlabError, \
        "policy is stochastic at state 1"
    yield "unknown-reward-shape", lambda: estimate_mdp(TRACES, reward_shape="x"), CarlabError, \
        "unknown reward shape 'x'"
    yield "policy-weights-summing-to-0.9", \
        lambda: policy_evaluation(MODEL, Policy({0: {"stay": 1.0}, 1: {"a": 0.45, "b": 0.45}})), CarlabError, \
        "policy distribution at 1 sums to 0.9"
    yield "transition-out-of-normal", lambda: Transition(0, "a", 1), CarlabError, \
        "no action leaves the normal class"
    yield "transition-count-zero", lambda: Transition(1, "a", 0, 0), CarlabError, \
        "transition count must be >= 1"
    yield "transition-without-action", lambda: Transition(1, "", 0), CarlabError, \
        "transition without action label"
    yield "transition-to-negative-class", lambda: Transition(1, "a", -2), CarlabError, \
        "negative class index -2"
    yield "neighborhood-depth-zero", lambda: neighborhood(GRAPH, 0), CarlabError, "depth must be >= 1"
    yield "neighborhood-threshold-past-one", lambda: neighborhood(GRAPH, 1, 1.5), CarlabError, \
        "link_threshold must lie in [0, 1]"
    yield "counter-class-of-height-zero", lambda: counter_class(LevelDiagram({0: 0}, ()), 0.5), CarlabError, \
        "counter_class requires height >= 1"
    yield "counter-class-fraction-zero", lambda: counter_class(LevelDiagram({0: 0, 1: 1}, ()), 0.0), \
        CarlabError, "fraction must lie in (0, 1]"


CASES = list(_cases())


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_a_bad_input_is_refused_with_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_table_map_cut_short_at_the_end_of_the_file_is_refused(tmp_path):
    # The map's 16 entries cannot fit in what is left of the file, so the
    # fixed-width reader gives way to the JSON route, whose table check refuses.
    path = tmp_path / "actions.json"
    doc = [{"action": "a", "class": 1, "kind": "table", "n": 4, "map": {"0000": "0001", "0001": "0000"}}]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: table keys must cover all 4-bit words")):
        load_actions(path)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    learning_set, specs, _ = synth.contracting_instance(deviated_count=2)
    save_learning_set(learning_set, root / "data.csv")
    save_ldset(LDS, root / "lds.json")
    save_actions(specs, root / "actions.json")
    save_trace_log(TRACES, root / "traces.csv")
    save_learning_set(synth.random_boolean_learning_set(synth.default_rng(5), n=3, classes=2, per_class=2),
                      root / "bool.csv")
    save_actions([ActionSpec("a1", 1, "rule", n=3, exprs=("0", "~x2", "x3"))], root / "bool_actions.json")
    normal = [dict(entry, **{"class": 0}) for entry in json.loads((root / "actions.json").read_text())]
    (root / "normal_actions.json").write_text(json.dumps(normal), encoding="utf-8")
    return root


@pytest.mark.parametrize("argv, message", [
    (["inverse", "--data", "bool.csv", "--actions", "bool_actions.json", "--depth", "-1"], "depth must be >= 0"),
    (["simulate", "--data", "data.csv", "--lds", "lds.json", "--actions", "actions.json", "--max-steps", "-1"],
     "max_steps must be >= 0"),
    (["fit-mdp", "--traces", "traces.csv", "--gamma", "1.5"], "gamma must lie in [0, 1)"),
    (["simulate", "--data", "data.csv", "--lds", "lds.json", "--actions", "normal_actions.json"],
     "no action may be bound to the normal class"),
], ids=["inverse-negative-depth", "simulate-negative-max-steps", "fit-mdp-gamma-past-one", "action-on-normal-class"])
def test_the_cli_refuses_a_bad_value_with_one_error_line(cli_inputs, argv, message):
    argv = [str(cli_inputs / a) if a.endswith((".csv", ".json")) else a for a in argv]
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv + ["--out", str(cli_inputs / "out.json")])
    lines = err.getvalue().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith(message)
    assert "Traceback" not in err.getvalue()
