"""Every file format has one reader and one writer: a file the writer made
reads back and writes out again byte for byte."""

import pytest

from carlab import synth
from carlab.boolcube import all_vertices
from carlab.carsim import ActionSpec, load_actions, register_actions, run_car, save_actions
from carlab.core import (
    load_json,
    load_learning_set,
    load_trace_log,
    save_json,
    save_learning_set,
    save_trace_log,
)
from carlab.lcpr import ld_classifier, load_ldset, mine_lds, save_ldset
from carlab.mdp import estimate_mdp, load_mdp, save_mdp
from carlab.poset import (
    build_level_diagram,
    diagram_from_json,
    diagram_to_json,
    load_transition_records,
    save_transition_records,
)


def _contracting():
    learning_set, specs, graph = synth.contracting_instance(deviated_count=3)
    lds = mine_lds(learning_set)
    report = run_car(learning_set.samples, ld_classifier(lds), register_actions(specs, 3), 6)
    return learning_set, specs, graph, lds, report.traces


def _boolean_actions():
    flip = synth.random_boolean_action(synth.default_rng(3), "a1", 3)
    return [
        ActionSpec("a1", 1, "table", n=3, table={v: flip.apply(v) for v in all_vertices(3)}),
        ActionSpec("a2", 2, "rule", n=3, exprs=("1", "~x2", "x3")),
    ]


def _diagram_json(diagram, dest):
    save_json(diagram_to_json(diagram), dest)


# name -> (object maker, writer, reader, file suffix)
FORMATS = {
    "dataset-csv": (lambda: _contracting()[0], save_learning_set, load_learning_set, ".csv"),
    "trace-csv": (lambda: _contracting()[4], save_trace_log, load_trace_log, ".csv"),
    "transition-csv": (
        lambda: synth.random_transition_graph(synth.default_rng(11)),
        save_transition_records,
        load_transition_records,
        ".csv",
    ),
    "ldset-json": (lambda: _contracting()[3], save_ldset, load_ldset, ".json"),
    "mdp-json": (lambda: synth.random_mdp(synth.default_rng(37)), save_mdp, load_mdp, ".json"),
    "affine-actions-json": (lambda: _contracting()[1], save_actions, load_actions, ".json"),
    "boolean-actions-json": (_boolean_actions, save_actions, load_actions, ".json"),
    "diagram-json": (
        lambda: build_level_diagram(_contracting()[2]),
        _diagram_json,
        lambda path: load_json(path, diagram_from_json),
        ".json",
    ),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_read_then_write_is_byte_identical(tmp_path, name):
    make, save, load, suffix = FORMATS[name]
    first, second = tmp_path / f"first{suffix}", tmp_path / f"second{suffix}"
    save(make(), first)
    save(load(first), second)
    assert second.read_bytes() == first.read_bytes()
    assert first.stat().st_size > 0
