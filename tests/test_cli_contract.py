"""The CLI contract under malformed input: exit 0, 1 or 2, never a traceback.

Valid inputs for every subcommand are built once; each example then
mutates one of a subcommand's input files, by deleting or replacing
characters, by making a CSV feature or timestamp non-finite or, for
JSON, by dropping a key, giving a value the wrong type or giving an
integer index a float or bool value, and runs ``main`` on the result.
A non-finite CSV value and a non-integer index must exit 1, and so must
a decimal JSON object key rewritten in a form ``int()`` reads but that
is not canonical, and a trace log whose steps, timestamps or actions
no longer form valid runs.
"""

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from carlab import synth
from carlab.boolcube import all_vertices
from carlab.carsim import ActionSpec, register_actions, run_car, save_actions
from carlab.cli import main
from carlab.core import save_learning_set, save_trace_log
from carlab.lcpr import ld_classifier, mine_lds, save_ldset
from carlab.mdp import estimate_mdp, save_mdp
from carlab.poset import build_level_diagram, diagram_to_json, save_transition_records

# Subcommand argv; a word naming an input file is replaced by its path.
COMMANDS = {
    "mine": ["mine", "--data", "data.csv"],
    "mine-boolean": ["mine", "--data", "bool.csv", "--mode", "boolean"],
    "classify": ["classify", "--lds", "lds.json", "--data", "data.csv"],
    "validate-poset": ["validate-poset", "--transitions", "transitions.csv"],
    "diagram": ["diagram", "--transitions", "transitions.csv"],
    "fit-mdp": ["fit-mdp", "--traces", "traces.csv", "--diagram", "diagram.json"],
    "eval-policy": ["eval-policy", "--mdp", "mdp.json", "--traces", "traces.csv"],
    "simulate": [
        "simulate", "--data", "data.csv", "--lds", "lds.json",
        "--actions", "actions.json", "--max-steps", "4",
        "--trace-out", "run_traces.csv", "--emit-dataset", "run_data.csv",
    ],
    "inverse": ["inverse", "--data", "bool.csv", "--actions", "bool_actions.json", "--depth", "2"],
    "report": ["report", "mdp.json", "diagram.json"],
}

# Characters a replacement may write: digits, separators, JSON syntax,
# letters of keywords and tokens, and a few that no format expects.
ALPHABET = "0123456789,.-+e\n\r\" {}[]:*~xantrufl\x00\xe9"

WRONG_VALUES = st.sampled_from([None, True, -1, 0, 7, 2.5, float("nan"), "", "x", [], {}, [1, 2]])


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """File name -> text of a valid input for every subcommand."""
    root = tmp_path_factory.mktemp("valid")
    learning_set, specs, graph = synth.contracting_instance(deviated_count=2)
    lds = mine_lds(learning_set)
    report = run_car(learning_set.samples, ld_classifier(lds), register_actions(specs, 2), 4)
    traces = [e for events in report.traces.values() for e in events]
    diagram = build_level_diagram(graph)
    save_learning_set(learning_set, root / "data.csv")
    save_ldset(lds, root / "lds.json")
    save_actions(specs, root / "actions.json")
    save_transition_records(graph, root / "transitions.csv")
    save_trace_log(traces, root / "traces.csv")
    (root / "diagram.json").write_text(json.dumps(diagram_to_json(diagram)), encoding="utf-8")
    save_mdp(estimate_mdp(traces, diagram, gamma=0.9), root / "mdp.json")

    rng = synth.default_rng(5)
    save_learning_set(
        synth.random_boolean_learning_set(rng, n=3, classes=3, per_class=2), root / "bool.csv"
    )
    flip = synth.random_boolean_action(rng, "a1", 3)
    bool_specs = [
        ActionSpec("a1", 1, "table", n=3, table={v: flip.apply(v) for v in all_vertices(3)}),
        ActionSpec("a2", 2, "rule", n=3, exprs=("0", "~x2", "x3")),
    ]
    save_actions(bool_specs, root / "bool_actions.json")
    return {p.name: p.read_text(encoding="utf-8") for p in root.iterdir()}


def _run(argv, files, workdir: Path) -> tuple[int, str]:
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    argv = [str(workdir / a) if a.endswith((".csv", ".json")) else a for a in argv]
    argv += ["--out", str(workdir / "out.json")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def text_mutation(draw, text: str) -> str:
    """Delete or replace one to three characters."""
    for _ in range(draw(st.integers(1, 3))):
        if not text:
            break
        k = draw(st.integers(0, len(text) - 1))
        tail = text[k + 1:]
        text = text[:k] + (tail if draw(st.booleans()) else draw(st.sampled_from(ALPHABET)) + tail)
    return text


@st.composite
def json_mutation(draw, text: str) -> str:
    """Drop one key, or give one value (at any depth) the wrong type."""
    doc = json.loads(text)
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = node[key]
    if parent is None:
        return json.dumps(draw(WRONG_VALUES))
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(WRONG_VALUES)
    return json.dumps(doc)


@st.composite
def non_finite_mutation(draw, text: str) -> str:
    """Make one feature or timestamp field of a CSV file non-finite."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    cells = [
        (r, c)
        for r in range(1, len(rows))
        for c, name in enumerate(rows[0])
        if re.fullmatch(r"f\d+|timestamp", name)
    ]
    if not cells:
        return text
    r, c = draw(st.sampled_from(cells))
    rows[r][c] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"]))
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue()


@st.composite
def index_mutation(draw, text: str) -> str:
    """Give one integer of a JSON document (every one is an index) a
    float or bool value."""
    doc = json.loads(text)
    slots = []

    def walk(node):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            if isinstance(value, int) and not isinstance(value, bool):
                slots.append((node, key))
            elif isinstance(value, (dict, list)):
                walk(value)

    walk(doc)
    if not slots:
        return text
    node, key = draw(st.sampled_from(slots))
    node[key] = draw(st.sampled_from([node[key] + 0.5, float(node[key]), True, False]))
    return json.dumps(doc)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_malformed_input_keeps_the_cli_contract(valid_inputs, command, data):
    argv = COMMANDS[command]
    inputs = [a for a in argv if a in valid_inputs]
    target = data.draw(st.sampled_from(inputs))
    text = valid_inputs[target]
    kind = data.draw(st.sampled_from(["text", "structure", "value"]))
    if kind == "value":
        mutation = index_mutation if target.endswith(".json") else non_finite_mutation
        text = data.draw(mutation(text))
    elif target.endswith(".json") and kind == "structure":
        text = data.draw(json_mutation(text))
    else:
        text = data.draw(text_mutation(text))
    files = {name: valid_inputs[name] for name in inputs}
    files[target] = text
    with tempfile.TemporaryDirectory() as workdir:
        code, err = _run(argv, files, Path(workdir))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.count("error:") == 1
    if kind == "value" and text != valid_inputs[target] and command != "report":
        assert code == 1, err


@st.composite
def trace_row_mutation(draw, text: str) -> str:
    """Break one object's trace: swap the steps of two of its rows, give a
    row the step of another, lower a timestamp to an earlier row's, or
    blank the action of a deviated row."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    step, stamp = rows[0].index("step"), rows[0].index("timestamp")
    kind = draw(st.sampled_from(["swap", "duplicate", "lower", "blank"]))
    if kind == "blank":
        rows[draw(st.sampled_from([r for r in range(1, len(rows)) if rows[r][-2] != "0"]))][-1] = ""
    else:
        runs: dict[str, list[int]] = {}
        for r in range(1, len(rows)):
            runs.setdefault(rows[r][0], []).append(r)
        run = draw(st.sampled_from([rs for rs in runs.values() if len(rs) > 1]))
        a, b = sorted(draw(st.lists(st.sampled_from(run), min_size=2, max_size=2, unique=True)))
        if kind == "swap":
            rows[a][step], rows[b][step] = rows[b][step], rows[a][step]
        elif kind == "duplicate":
            rows[b][step] = rows[a][step]
        else:
            rows[b][stamp] = rows[a][stamp]
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("command", ["fit-mdp", "eval-policy"])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_broken_trace_exits_one(valid_inputs, command, data):
    argv = COMMANDS[command]
    files = {name: valid_inputs[name] for name in argv if name in valid_inputs}
    files["traces.csv"] = data.draw(trace_row_mutation(files["traces.csv"]))
    with tempfile.TemporaryDirectory() as workdir:
        code, err = _run(argv, files, Path(workdir))
    assert code == 1, err
    assert err.count("error:") == 1 and "Traceback" not in err


@st.composite
def key_mutation(draw, text: str) -> str:
    """Rewrite one decimal JSON object key (a feature, class or vertex
    word) in a non-canonical form that ``int()`` still reads."""
    doc = json.loads(text)
    slots = []

    def walk(node):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            if isinstance(key, str) and key.isdigit():
                slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(doc)
    node, key = draw(st.sampled_from(slots))
    form = draw(st.sampled_from([" {}", "{} ", "+{}", "0{}", "{}_0", "{}\n"]))
    node[form.format(key)] = node.pop(key)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "command, target",
    [
        ("classify", "lds.json"),
        ("simulate", "lds.json"),
        ("fit-mdp", "diagram.json"),
        ("inverse", "bool_actions.json"),
    ],
)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_non_canonical_json_key_exits_one(valid_inputs, command, target, data):
    argv = COMMANDS[command]
    files = {name: valid_inputs[name] for name in argv if name in valid_inputs}
    files[target] = data.draw(key_mutation(files[target]))
    with tempfile.TemporaryDirectory() as workdir:
        code, err = _run(argv, files, Path(workdir))
    assert code == 1, err
    assert err.count("error:") == 1 and "Traceback" not in err


def test_valid_inputs_run_clean(valid_inputs):
    """Unmutated, every subcommand succeeds (validate-poset passes the chain)."""
    for argv in COMMANDS.values():
        with tempfile.TemporaryDirectory() as workdir:
            code, err = _run(argv, dict(valid_inputs), Path(workdir))
        assert code == 0, (argv, err)


@pytest.mark.parametrize(
    "command, target",
    [
        ("report", "mdp.json"),
        ("classify", "lds.json"),
        ("simulate", "actions.json"),
        ("fit-mdp", "diagram.json"),
        ("eval-policy", "mdp.json"),
    ],
)
def test_json_nested_too_deep_exits_one(valid_inputs, command, target):
    argv = COMMANDS[command]
    files = {name: valid_inputs[name] for name in argv if name in valid_inputs}
    files[target] = "[" * 10_000 + "]" * 10_000
    with tempfile.TemporaryDirectory() as workdir:
        code, err = _run(argv, files, Path(workdir))
    assert code == 1, err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.endswith(f"{target}: nested too deep\n")


def _rule_action(**fields):
    return [{"action": "a1", "class": 1, "kind": "rule", **fields}]


@pytest.mark.parametrize(
    "command, bad, message",
    [
        (
            "classify",
            {"lds.json": [{"class": -1, "lower": {"1": 0.0}}, {"class": 0, "upper": {"1": -1.0}}], "data.csv": "id,f1\nq,0.5\n"},
            "lds.json: negative class index -1",
        ),
        ("inverse", {"bool_actions.json": _rule_action(n=-1, exprs=["0"])}, "bool_actions.json: bad Boolean action size n=-1"),
        (
            "inverse",
            {"bool_actions.json": [{"action": "a1", "class": 1, "kind": "table", "n": -2, "map": {}}]},
            "bool_actions.json: bad Boolean action size n=-2",
        ),
        ("inverse", {"bool_actions.json": _rule_action(n=0, exprs=[])}, "bool_actions.json: bad Boolean action size n=0"),
    ],
    ids=["negative-class", "rule-n-minus-1", "table-n-minus-2", "rule-n-0"],
)
def test_a_negative_class_or_action_size_exits_one(valid_inputs, command, bad, message):
    argv = COMMANDS[command]
    files = {name: valid_inputs[name] for name in argv if name in valid_inputs}
    files.update({name: text if isinstance(text, str) else json.dumps(text) for name, text in bad.items()})
    with tempfile.TemporaryDirectory() as workdir:
        code, err = _run(argv, files, Path(workdir))
    assert code == 1, err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.endswith(f"{message}\n"), err
