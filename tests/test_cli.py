import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from carlab.boolcube import all_vertices, multiclass_rdnf, subcubes_to_ldset
from carlab.carsim import ActionSpec, save_actions
from carlab.cli import main
from carlab.core import load_trace_log, load_vectors, save_learning_set
from carlab.lcpr import classify, load_ldset
from carlab import synth

import oracles

LONG_ID = "x" * 200_000  # past csv.reader's default field limit of 131,072 characters


def run(argv):
    return main([str(a) for a in argv])


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def chain_transitions(tmp_path):
    return write(
        tmp_path / "chain.csv",
        "from_class,action,to_class,count\n2,a2,1,3\n1,a1,0,5\n",
    )


@pytest.fixture
def contracting(tmp_path):
    """Dataset, mined LDs, actions, and transitions for a 3-level chain."""
    from carlab.carsim import save_actions
    from carlab.core import save_learning_set
    from carlab.lcpr import mine_lds, save_ldset
    from carlab.poset import save_transition_records

    learning_set, specs, graph = synth.contracting_instance(deviated_count=3)
    paths = {
        "data": tmp_path / "data.csv",
        "lds": tmp_path / "lds.json",
        "actions": tmp_path / "actions.json",
        "transitions": tmp_path / "transitions.csv",
    }
    save_learning_set(learning_set, paths["data"])
    save_ldset(mine_lds(learning_set), paths["lds"])
    save_actions(specs, paths["actions"])
    save_transition_records(graph, paths["transitions"])
    return paths


class TestValidatePoset:
    def test_chain_passes_with_exit_zero(self, chain_transitions, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        assert run(["validate-poset", "--transitions", chain_transitions, "--out", out]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["verdict"] == "pass"

    def test_cycle_exits_two_with_counterexample(self, tmp_path):
        cyc = write(
            tmp_path / "cyc.csv",
            "from_class,action,to_class,count\n1,a1,2,1\n2,a2,1,1\n",
        )
        out = tmp_path / "verdict.json"
        assert run(["validate-poset", "--transitions", cyc, "--out", out]) == 2
        verdict = json.loads(out.read_text())
        assert verdict["poset"]["counterexample_cycle"] is not None

    def test_missing_file_exits_one(self, tmp_path):
        assert run(["validate-poset", "--transitions", tmp_path / "nope.csv"]) == 1

    def test_unknown_subcommand_exits_one(self):
        assert run(["frobnicate"]) == 1


class TestDiagram:
    def test_levels(self, chain_transitions, tmp_path):
        out = tmp_path / "diagram.json"
        assert run(["diagram", "--transitions", chain_transitions, "--out", out]) == 0
        diagram = json.loads(out.read_text())
        assert diagram["levels"] == {"0": 0, "1": 1, "2": 2}
        assert diagram["complete"] and diagram["height"] == 2


class TestMineClassify:
    def test_mine_then_classify(self, contracting, tmp_path):
        table = tmp_path / "table.json"
        assert run(["classify", "--lds", contracting["lds"], "--data", contracting["data"], "--out", table]) == 0
        results = json.loads(table.read_text())["results"]
        by_id = {r["id"]: r for r in results}
        assert by_id["c0_0"]["label"] == 0
        assert by_id["c3_1"]["label"] == 3

    def test_classify_records_match_the_one_row_vote(self, contracting, tmp_path):
        """The records built column-wise from the vote batch hold, row by
        row, what ``classify`` gives for that row alone, abstentions too."""
        abstaining = (tmp_path / "lds.json", tmp_path / "queries.csv")
        boxes = [{"class": 0, "upper": {"1": 1.0}}, {"class": 1, "lower": {"1": 0.0}, "upper": {"2": 5.0}}]
        abstaining[0].write_text(json.dumps(boxes))
        abstaining[1].write_text("id,f1,f2\ntie,0.5,0.0\none,2.0,0.0\nzero,2.0,9.0\nnormal,-1.0,9.0\n")
        for lds_path, data in ((contracting["lds"], contracting["data"]), abstaining):
            table = tmp_path / "table.json"
            assert run(["classify", "--lds", lds_path, "--data", data, "--out", table]) == 0
            lds = load_ldset(lds_path)
            expected = []
            for object_id, x in load_vectors(data):
                outcome = classify(x, lds)
                scores = {str(i): v for i, v in outcome.scores.items()}
                expected.append({"id": object_id, "label": outcome.label, "reason": outcome.reason, "scores": scores})
            assert json.loads(table.read_text())["results"] == expected
        verdicts = [(r["label"], r["reason"]) for r in expected]
        assert verdicts == [(None, "tied"), (1, None), (None, "all-zero"), (0, None)]

    def test_mine_writes_valid_ldset(self, contracting, tmp_path):
        mined = tmp_path / "mined.json"
        assert run(["mine", "--data", contracting["data"], "--out", mined]) == 0
        entries = json.loads(mined.read_text())
        assert {e["class"] for e in entries} == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\nid,f1,f2\nx,1.0,2.0\n", "bad header []"),
            ("id,f1,f2,class\nx,1.0,2.0,0\ny,1.0,abc,0\n", "vectors.csv:3: bad numeric"),
            (f'id,f1,f2\n"{LONG_ID}",1.0,2.0\n', "vectors.csv: field larger than field limit"),
        ],
        ids=["blank-first-line", "non-numeric", "quoted-field-past-csv-limit"],
    )
    def test_classify_bad_vectors_exit_one(
        self, contracting, tmp_path, capsys, text, message
    ):
        data = write(tmp_path / "vectors.csv", text)
        assert run(["classify", "--lds", contracting["lds"], "--data", data]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_mine_rejects_non_finite_features(self, tmp_path, capsys, value):
        data = write(tmp_path / "data.csv", f"id,f1,class\na,1.0,0\nb,{value},1\n")
        assert run(["mine", "--data", data]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "non-finite value for 'b'" in err
        assert "Traceback" not in err


class TestSimulate:
    def test_simulation_artifacts(self, contracting, tmp_path):
        report_path = tmp_path / "run.json"
        trace_path = tmp_path / "traces.csv"
        emitted = tmp_path / "emitted.csv"
        code = run(
            [
                "simulate",
                "--data", contracting["data"],
                "--lds", contracting["lds"],
                "--actions", contracting["actions"],
                "--max-steps", 5,
                "--out", report_path,
                "--trace-out", trace_path,
                "--emit-dataset", emitted,
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["metrics"]["terminal_fraction"] == 1.0
        traces = load_trace_log(trace_path)
        assert len(traces.object_ids) == 8
        assert emitted.read_text().startswith("id,f1,f2,class")

    def test_fit_mdp_and_eval_policy(self, contracting, tmp_path):
        trace_path = tmp_path / "traces.csv"
        run(
            [
                "simulate",
                "--data", contracting["data"],
                "--lds", contracting["lds"],
                "--actions", contracting["actions"],
                "--max-steps", 5,
                "--out", tmp_path / "run.json",
                "--trace-out", trace_path,
            ]
        )
        mdp_path = tmp_path / "mdp.json"
        assert run(["fit-mdp", "--traces", trace_path, "--out", mdp_path]) == 0
        model = json.loads(mdp_path.read_text())
        assert model["gamma"] == 0.9
        cmp_path = tmp_path / "cmp.json"
        assert run(["eval-policy", "--mdp", mdp_path, "--traces", trace_path, "--out", cmp_path]) == 0
        cmp = json.loads(cmp_path.read_text())
        assert cmp["verdict"] == "matches-optimal"
        assert cmp["max_regret"] <= 1e-8


class TestInverse:
    @pytest.fixture
    def boolean_setup(self, tmp_path):
        from carlab.carsim import ActionSpec, save_actions
        from carlab.core import save_learning_set

        rng = synth.default_rng(41)
        learning_set = synth.random_boolean_learning_set(rng, n=4, classes=2, per_class=4)
        data = tmp_path / "bool.csv"
        save_learning_set(learning_set, data)
        actions = tmp_path / "actions.json"
        save_actions(
            [
                ActionSpec(
                    action_id="a1",
                    class_index=1,
                    kind="rule",
                    n=4,
                    exprs=("0", "x2", "x3", "x4"),
                )
            ],
            actions,
        )
        return data, actions

    def test_depth_zero_echoes_forall_region(self, boolean_setup, tmp_path):
        data, actions = boolean_setup
        out = tmp_path / "inv.json"
        assert run(["inverse", "--data", data, "--actions", actions, "--depth", 0, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["depths"][0]["region"] == payload["forall"]
        assert payload["depths"][0]["cumulative"] == payload["forall"]

    @pytest.fixture
    def three_bit_action(self, tmp_path):
        return write(
            tmp_path / "actions3.json",
            json.dumps(
                [{"action": "a1", "class": 1, "kind": "rule", "n": 3, "exprs": ["0", "x2", "x3"]}]
            ),
        )

    def test_inverse_rejects_action_of_other_size(
        self, boolean_setup, three_bit_action, tmp_path, capsys
    ):
        data, _ = boolean_setup
        out = tmp_path / "inv.json"
        assert run(["inverse", "--data", data, "--actions", three_bit_action, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "action 'a1' has n=3, but the dataset has n=4" in err
        assert "Traceback" not in err and not out.exists()

    def test_boolean_simulate_rejects_action_of_other_size(
        self, boolean_setup, three_bit_action, tmp_path, capsys
    ):
        data, _ = boolean_setup
        lds = tmp_path / "lds.json"
        assert run(["mine", "--data", data, "--mode", "boolean", "--out", lds]) == 0
        out = tmp_path / "run.json"
        code = run(
            [
                "simulate", "--data", data, "--mode", "boolean", "--lds", lds,
                "--actions", three_bit_action, "--out", out,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "action 'a1' has n=3, but the dataset has n=4" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("order", [1, -1])
    def test_two_actions_for_one_class_exit_one(self, tmp_path, capsys, order):
        data = write(tmp_path / "bool.csv", "id,f1,f2,class\np,0,0,0\nq,1,1,1\nr,0,1,1\n")
        specs = [
            {"action": "a1", "class": 1, "kind": "rule", "n": 2, "exprs": ["0", "0"]},
            {"action": "b1", "class": 1, "kind": "rule", "n": 2, "exprs": ["x1", "x2"]},
        ]
        actions = write(tmp_path / "actions.json", json.dumps(specs[::order]))
        out = tmp_path / "inv.json"
        assert run(["inverse", "--data", data, "--actions", actions, "--out", out]) == 1
        assert capsys.readouterr().err == "error: duplicate action binding for class 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, classes, depth, message",
        [
            ("q,1,1,1\n", [1, 2], 1, "action bound to unknown classes [2]"),
            ("q,1,1,1\nr,1,0,2\n", [1], 1, "missing action binding for classes [2]"),
            ("q,1,1,1\nr,1,0,2\n", [1], 0, "missing action binding for classes [2]"),
        ],
    )
    def test_actions_bind_as_simulate_binds_them(self, tmp_path, capsys, rows, classes, depth, message):
        data = write(tmp_path / "bool.csv", "id,f1,f2,class\np,0,0,0\n" + rows)
        specs = [{"action": f"a{c}", "class": c, "kind": "rule", "n": 2, "exprs": ["0", "0"]} for c in classes]
        actions = write(tmp_path / "actions.json", json.dumps(specs))
        out = tmp_path / "inv.json"
        assert run(["inverse", "--data", data, "--actions", actions, "--depth", depth, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_depths_reported(self, boolean_setup, tmp_path):
        data, actions = boolean_setup
        out = tmp_path / "inv.json"
        assert run(["inverse", "--data", data, "--actions", actions, "--depth", 3, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["depths"]) == 4
        sizes = [len(d["cumulative"]) for d in payload["depths"]]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    @given(
        n=st.integers(2, 6),
        classes=st.integers(2, 3),
        depth=st.integers(0, 4),
        seed=st.integers(0, 2 ** 16),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_vertex_lists_match_forward_simulation(self, tmp_path, n, classes, depth, seed, data):
        per_class = data.draw(st.integers(1, min(4, 2 ** n // classes)), label="per_class")
        rng = synth.default_rng(seed)
        learning_set = synth.random_boolean_learning_set(rng, n, classes, per_class)
        actions = {i: synth.random_boolean_action(rng, f"a{i}", n) for i in range(1, classes)}
        specs = [
            ActionSpec(
                action_id=a.action_id, class_index=i, kind="table", n=n,
                table={v: a.apply(v) for v in all_vertices(n)},
            )
            for i, a in actions.items()
        ]
        data_csv, actions_json, out = tmp_path / "bool.csv", tmp_path / "actions.json", tmp_path / "inv.json"
        save_learning_set(learning_set, data_csv)
        save_actions(specs, actions_json)
        argv = ["inverse", "--data", data_csv, "--actions", actions_json, "--depth", depth, "--out", out]
        assert run(argv) == 0
        payload = json.loads(out.read_text())

        cube = list(all_vertices(n))
        lists = [payload[key] for key in ("forall", "exists", "uncovered", "indeterminate")]
        for d in payload["depths"]:
            lists += [d["region"], d["cumulative"], d["never_within"]]
        for vertices in lists:
            assert vertices == sorted(set(vertices))
        # The three split the cube by cover side; deviated-only vertices are in none.
        rdnfs = multiclass_rdnf(learning_set)
        side = {}
        for v in cube:
            covered = {i for i in rdnfs if any(c.contains(v) for c in rdnfs[i])}
            pos, neg = 0 in covered, bool(covered - {0})
            side[v] = "forall" if pos and not neg else "exists" if pos else "uncovered" if not neg else None
        for key in ("forall", "exists", "uncovered"):
            assert payload[key] == [v for v in cube if side[v] == key]
        lds = subcubes_to_ldset(rdnfs)
        label = lambda v: classify([float(c) for c in v], lds).label
        assert [d["depth"] for d in payload["depths"]] == list(range(depth + 1))
        for d in payload["depths"]:
            assert sorted(d["cumulative"] + d["never_within"]) == cube
            expected = oracles.forward_depth_region(n, label, actions, set(payload["forall"]), d["depth"])
            assert set(d["region"]) == expected, d["depth"]


class TestReportAndConfig:
    def test_report_bundles_files(self, chain_transitions, tmp_path):
        verdict = tmp_path / "verdict.json"
        diagram = tmp_path / "diagram.json"
        run(["validate-poset", "--transitions", chain_transitions, "--out", verdict])
        run(["diagram", "--transitions", chain_transitions, "--out", diagram])
        bundle = tmp_path / "bundle.json"
        assert run(["report", "--out", bundle, f"poset={verdict}", str(diagram)]) == 0
        payload = json.loads(bundle.read_text())
        assert set(payload) == {"poset", "diagram"}

    def test_config_file_supplies_values(self, chain_transitions, tmp_path):
        config = write(
            tmp_path / "run.cfg",
            f"# poset workflow\ntransitions={chain_transitions}\n",
        )
        out = tmp_path / "verdict.json"
        assert run(["validate-poset", "--config", config, "--out", out]) == 0

    def test_flags_override_config(self, chain_transitions, tmp_path):
        cyc = write(
            tmp_path / "cyc.csv",
            "from_class,action,to_class,count\n1,a1,2,1\n2,a2,1,1\n",
        )
        config = write(tmp_path / "run.cfg", f"transitions={cyc}\n")
        out = tmp_path / "verdict.json"
        code = run(
            [
                "validate-poset",
                "--config", config,
                "--transitions", chain_transitions,
                "--out", out,
            ]
        )
        assert code == 0  # the explicit flag wins over the cyclic config value

    def test_missing_required_option_exits_one(self):
        assert run(["mine"]) == 1

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("inverse", "dpeth=3", "unrecognized arguments: --dpeth=3"),
            ("inverse", "budget=1", "unrecognized arguments: --budget=1"),
            ("mine", "mode=BOOLEAN", "argument --mode: invalid choice: 'BOOLEAN'"),
            ("inverse", "depth=two", "argument --depth: invalid int value: 'two'"),
        ],
    )
    def test_config_line_meets_the_checks_of_a_flag(self, tmp_path, capsys, command, line, message):
        data = write(tmp_path / "bool.csv", "id,f1,class\np,0,0\nq,1,1\n")
        spec = {"action": "a1", "class": 1, "kind": "rule", "n": 1, "exprs": ["0"]}
        actions = write(tmp_path / "actions.json", json.dumps([spec]))
        inputs = {"mine": ["--data", data], "inverse": ["--data", data, "--actions", actions]}
        config = write(tmp_path / "run.cfg", f"# run\n{line}\n")
        out = tmp_path / "out.json"
        assert run([command, *inputs[command], "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert "Traceback" not in err and not out.exists()

    def test_typed_option_from_config_is_the_flag(self, tmp_path):
        traces = write(
            tmp_path / "traces.csv",
            "id,step,timestamp,f1,class,action\nx,0,0.0,2.0,2,a2\nx,1,1.0,1.0,1,a1\nx,2,2.0,0.0,0,\n",
        )
        outs = [tmp_path / f"mdp{k}.json" for k in range(4)]
        config = write(tmp_path / "run.cfg", "gamma = 0.5\nreward_shape=neg-level\n")
        fit = ["fit-mdp", "--traces", traces]
        assert run(fit + ["--gamma", "0.5", "--reward-shape", "neg-level", "--out", outs[0]]) == 0
        assert run(fit + ["--config", config, "--out", outs[1]]) == 0
        assert run(fit + ["--gamma", "0.7", "--reward-shape", "neg-level", "--out", outs[2]]) == 0
        assert run(fit + ["--config", config, "--gamma", "0.7", "--out", outs[3]]) == 0
        assert json.loads(outs[1].read_text())["gamma"] == 0.5
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[2].read_bytes() == outs[3].read_bytes() != outs[1].read_bytes()


def test_classify_rejects_non_finite_query(contracting, tmp_path, capsys):
    data = write(tmp_path / "vectors.csv", "id,f1,f2\nx,1.0,0.0\ny,nan,nan\n")
    assert run(["classify", "--lds", contracting["lds"], "--data", data]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "vectors.csv:3: non-finite value for 'y'" in err
    assert "Traceback" not in err


def test_classify_rejects_nan_rule_bound(tmp_path, capsys):
    lds = write(tmp_path / "lds.json", '[{"class": 0, "lower": {"1": NaN}, "upper": {}}]')
    data = write(tmp_path / "vectors.csv", "id,f1\nq,-100.0\n")
    out = tmp_path / "table.json"
    assert run(["classify", "--lds", lds, "--data", data, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "lds.json: non-finite number NaN" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("literal", ["-Infinity", "Infinity"])
def test_classify_rejects_infinite_rule_bound(tmp_path, capsys, literal):
    lds = write(tmp_path / "lds.json", '[{"class": 0, "lower": {"1": %s}, "upper": {}}]' % literal)
    data = write(tmp_path / "vectors.csv", "id,f1\nq,-100.0\n")
    out = tmp_path / "table.json"
    assert run(["classify", "--lds", lds, "--data", data, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"lds.json: non-finite number {literal}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("key, literal", [("alpha", "Infinity"), ("beta", "NaN")])
def test_simulate_rejects_non_finite_affine_coefficient(contracting, tmp_path, capsys, key, literal):
    specs = json.loads(contracting["actions"].read_text())
    specs[0][key][0] = "coefficient"
    actions = write(tmp_path / "bad_actions.json", json.dumps(specs).replace('"coefficient"', literal))
    out = tmp_path / "run.json"
    argv = ["simulate", "--data", contracting["data"], "--lds", contracting["lds"], "--actions", actions]
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"bad_actions.json: non-finite number {literal}" in err
    assert "Traceback" not in err and not out.exists()


def test_report_rejects_non_finite_literal(tmp_path, capsys):
    doc = write(tmp_path / "doc.json", '{"mean_steps": NaN}')
    out = tmp_path / "summary.json"
    assert run(["report", "--out", out, doc]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "doc.json: non-finite number NaN" in err
    assert "Traceback" not in err and not out.exists()


def test_simulate_rejects_affine_action_of_other_width(contracting, tmp_path, capsys):
    actions = write(
        tmp_path / "affine1.json",
        json.dumps(
            [
                {"action": f"a{i}", "class": i, "kind": "affine", "alpha": [1.0], "beta": [-1.0]}
                for i in (1, 2, 3)
            ]
        ),
    )
    out = tmp_path / "run.json"
    code = run(
        ["simulate", "--data", contracting["data"], "--lds", contracting["lds"],
         "--actions", actions, "--out", out]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "action 'a1' has n=1, but the dataset has n=2" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(
            ["simulate", "--data", "{data}", "--lds", "{lds}", "--actions", "{bad}"],
            '[{"action": "a1", "class": 1}]',
            id="actions-without-kind",
        ),
        pytest.param(["classify", "--lds", "{bad}", "--data", "{data}"], '{"x": 1}', id="ldset-object"),
        pytest.param(
            ["eval-policy", "--mdp", "{bad}", "--traces", "{traces}"],
            '{"states": [0], "gamma": 0.9}',
            id="mdp-without-transitions",
        ),
        pytest.param(["inverse", "--data", "{bool}", "--actions", "{bad}"], "[1, 2]", id="actions-numbers"),
        pytest.param(
            ["fit-mdp", "--traces", "{traces}", "--diagram", "{bad}"], '{"levels": [0]}', id="diagram-levels-list"
        ),
    ],
)
def test_malformed_json_exits_one_naming_the_file(contracting, tmp_path, capsys, argv, text):
    paths = {
        "data": contracting["data"],
        "lds": contracting["lds"],
        "traces": write(
            tmp_path / "traces.csv",
            "id,step,timestamp,f1,f2,class,action\nx,0,0.0,1.0,0.0,1,a1\nx,1,1.0,0.0,0.0,0,\n",
        ),
        "bool": write(tmp_path / "bool.csv", "id,f1,class\np,0,0\nq,1,1\n"),
        "bad": write(tmp_path / "bad.json", text),
    }
    out = tmp_path / "out.json"
    assert run([a.format(**paths) for a in argv] + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "bad.json: " in err
    assert "Traceback" not in err and not out.exists()


# Per subcommand: its argv, where {doc} is the JSON input under test, and a
# valid document for that input.
VALID_JSON = {
    "classify": (
        ["classify", "--lds", "{doc}", "--data", "{vectors}"],
        [{"class": 0, "lower": {"1": 0.5}, "upper": {}}, {"class": 1, "lower": {}, "upper": {"1": 0.5}}],
    ),
    "eval-policy": (
        ["eval-policy", "--mdp", "{doc}", "--traces", "{traces}"],
        {
            "states": [0, 1],
            "gamma": 0.9,
            "transitions": [
                {"s": 0, "a": "stay", "s'": 0, "p": 1.0, "r": 0.0},
                {"s": 1, "a": "a1", "s'": 0, "p": 1.0, "r": 1.0},
            ],
        },
    ),
    "fit-mdp": (
        ["fit-mdp", "--traces", "{traces}", "--diagram", "{doc}"],
        {"levels": {"0": 0, "1": 1}, "height": 1, "complete": True, "unleveled": [], "warnings": []},
    ),
    "inverse": (
        ["inverse", "--data", "{bool}", "--actions", "{doc}"],
        [{"action": "a1", "class": 1, "kind": "rule", "n": 1, "exprs": ["0"]}],
    ),
}


def _run_json(tmp_path, command, doc):
    argv, _ = VALID_JSON[command]
    paths = {
        "vectors": write(tmp_path / "vectors.csv", "id,f1\nq,0.25\nr,0.75\n"),
        "traces": write(
            tmp_path / "traces.csv",
            "id,step,timestamp,f1,class,action\nx,0,0.0,1.0,1,a1\nx,1,1.0,0.0,0,\n",
        ),
        "bool": write(tmp_path / "bool.csv", "id,f1,class\np,0,0\nq,1,1\n"),
        "doc": write(tmp_path / "doc.json", json.dumps(doc)),
    }
    return run([a.format(**paths) for a in argv] + ["--out", tmp_path / "out.json"])


@pytest.mark.parametrize("command", sorted(VALID_JSON))
def test_valid_json_inputs_run_clean(tmp_path, command):
    assert _run_json(tmp_path, command, VALID_JSON[command][1]) == 0


@pytest.mark.parametrize(
    "command, path, value, message",
    [
        ("classify", (0, "class"), 0.9, "class must be an integer, got 0.9"),
        ("classify", (1, "class"), True, "class must be an integer, got True"),
        ("eval-policy", ("transitions", 1, "s"), 1.2, "s must be an integer, got 1.2"),
        ("eval-policy", ("transitions", 1, "s'"), True, "s' must be an integer, got True"),
        ("eval-policy", ("states",), [0, 1.7], "state must be an integer, got 1.7"),
        ("fit-mdp", ("levels", "1"), 1.0, "level of class 1 must be an integer, got 1.0"),
        ("fit-mdp", ("height",), True, "height must be an integer, got True"),
        ("fit-mdp", ("unleveled",), [2.5], "unleveled class must be an integer, got 2.5"),
        ("inverse", (0, "class"), 1.0, "class must be an integer, got 1.0"),
        ("inverse", (0, "n"), True, "n must be an integer, got True"),
    ],
)
def test_json_index_must_be_an_int(tmp_path, capsys, command, path, value, message):
    doc = json.loads(json.dumps(VALID_JSON[command][1]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert _run_json(tmp_path, command, doc) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"doc.json: {message}" in err
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "diagram, message",
    [
        ({"levels": {"0": 0, "1": 7, "2": 3}, "height": 1, "complete": True}, "height 1 is not the largest level"),
        ({"levels": {"0": 1, "1": 0}, "height": 1, "complete": True}, "the normal class must be at level 0"),
        ({"levels": {"0": 0, "1": -1}, "height": 0, "complete": True}, "class 1 has level -1"),
        ({"levels": {"0": 0, "1": 1}, "height": 1, "complete": False}, "complete is False, unleveled []"),
        ({"levels": {"0": 0, "1": 1}, "height": 1, "complete": True, "unleveled": [2]}, "complete is True"),
    ],
)
def test_fit_mdp_rejects_inconsistent_diagram(tmp_path, capsys, diagram, message):
    assert _run_json(tmp_path, "fit-mdp", diagram) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"doc.json: {message}" in err
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("fit-mdp", {"unleveled": {}}, "unleveled class indices must be a list, got {}"),
        ("fit-mdp", {"unleveled": "2"}, "unleveled class indices must be a list, got '2'"),
        ("fit-mdp", {"unleveled": [1], "complete": False}, "unleveled [1] lists a leveled class"),
        ("fit-mdp", {"unleveled": [2, 2], "complete": False}, "unleveled [2, 2] repeats a class"),
        ("fit-mdp", {"unleveled": [2, -3], "complete": False}, "unleveled [2, -3] repeats a class or names a negative one"),
        ("eval-policy", {"states": "012"}, "state indices must be a list, got '012'"),
        ("eval-policy", {"states": [0, 1, 1]}, "states [0, 1, 1] list a state twice"),
        (
            "eval-policy",
            {"transitions": VALID_JSON["eval-policy"][1]["transitions"] + [{"s": 9, "a": "zz", "s'": 0, "p": 5.0, "r": 0}]},
            "transition sources [0, 1, 9] are not the states [0, 1]",
        ),
    ],
    ids=[
        "unleveled-object",
        "unleveled-string",
        "unleveled-leveled",
        "unleveled-twice",
        "unleveled-negative",
        "states-string",
        "states-twice",
        "stray-source",
    ],
)
def test_json_index_lists_are_checked(tmp_path, capsys, command, change, message):
    doc = dict(VALID_JSON[command][1], **change)
    assert _run_json(tmp_path, command, doc) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"doc.json: {message}" in err
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "command, path, value, message",
    [
        ("eval-policy", ("gamma",), False, "gamma must be a number, got False"),
        ("eval-policy", ("transitions", 0, "p"), True, "p must be a number, got True"),
        ("eval-policy", ("transitions", 1, "r"), True, "r must be a number, got True"),
        ("eval-policy", ("gamma",), "0.9", "gamma must be a number, got '0.9'"),
        ("eval-policy", ("transitions", 0, "p"), "1", "p must be a number, got '1'"),
        ("classify", (0, "lower", "1"), True, "lower must be a number, got True"),
        ("classify", (1, "upper", "1"), "0.5", "upper must be a number, got '0.5'"),
    ],
)
def test_json_number_must_be_a_number(tmp_path, capsys, command, path, value, message):
    doc = json.loads(json.dumps(VALID_JSON[command][1]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert _run_json(tmp_path, command, doc) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"doc.json: {message}" in err
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


def test_json_int_is_a_number(tmp_path):
    doc = json.loads(json.dumps(VALID_JSON["eval-policy"][1]))
    doc["transitions"][1].update(p=1, r=1)
    assert _run_json(tmp_path, "eval-policy", doc) == 0
    ldset = [{"class": 0, "lower": {"1": 0}, "upper": {}}, {"class": 1, "lower": {}, "upper": {"1": 0}}]
    assert _run_json(tmp_path, "classify", ldset) == 0


@pytest.mark.parametrize("key, value", [("alpha", True), ("beta", False)])
def test_simulate_rejects_non_number_affine_coefficient(contracting, tmp_path, capsys, key, value):
    specs = json.loads(contracting["actions"].read_text())
    specs[0][key][0] = value
    actions = write(tmp_path / "bad_actions.json", json.dumps(specs))
    out = tmp_path / "run.json"
    argv = ["simulate", "--data", contracting["data"], "--lds", contracting["lds"], "--actions", actions]
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"bad_actions.json: {key} must be a number, got {value}" in err
    assert "Traceback" not in err and not out.exists()


def test_mine_warns_once_per_unseparable_seed(tmp_path, capsys):
    data = write(tmp_path / "data.csv", "id,f1,class\na,1.0,0\nb,1.0,1\nc,2.0,1\n")
    out = tmp_path / "lds.json"
    assert run(["mine", "--data", data, "--out", out]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: unseparable seed {seed!r}: coincides with 1 counter-class point(s)"
        for seed in ("a", "b")
    ]
    assert json.loads(out.read_text()) == [{"class": 1, "lower": {"1": 2.0}, "upper": {}}]


def test_inverse_rejects_affine_action(tmp_path, capsys):
    data = write(tmp_path / "bool.csv", "id,f1,class\np,0,0\nq,1,1\n")
    actions = write(
        tmp_path / "actions.json",
        json.dumps([{"action": "a1", "class": 1, "kind": "affine", "alpha": [1.0], "beta": [0.0]}]),
    )
    out = tmp_path / "inv.json"
    assert run(["inverse", "--data", data, "--actions", actions, "--out", out]) == 1
    assert capsys.readouterr().err == "error: inverse requires Boolean actions\n"
    assert not out.exists()


def test_config_line_without_equals_exits_one(chain_transitions, tmp_path, capsys):
    config = write(tmp_path / "run.cfg", f"# poset workflow\n{chain_transitions}\n")
    assert run(["validate-poset", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {config}:2: expected KEY=VALUE\n"


def test_report_rejects_duplicate_section(chain_transitions, tmp_path, capsys):
    verdict = tmp_path / "verdict.json"
    assert run(["validate-poset", "--transitions", chain_transitions, "--out", verdict]) == 0
    out = tmp_path / "bundle.json"
    assert run(["report", "--out", out, f"a={verdict}", f"a={verdict}"]) == 1
    assert capsys.readouterr().err == "error: duplicate report section 'a'\n"
    assert not out.exists()


def test_eval_policy_rejects_a_trace_class_the_model_lacks(tmp_path, capsys):
    header = "id,step,timestamp,f1,class,action\n"
    chain = "x,0,0.0,2.0,2,a2\nx,1,1.0,1.0,1,a1\nx,2,2.0,0.0,0,\n"
    fitted = write(tmp_path / "fitted.csv", header + chain)
    visits = write(tmp_path / "visits.csv", header + chain + "y,0,0.0,7.0,7,a7\ny,1,1.0,0.0,0,\n")
    model = tmp_path / "mdp.json"
    assert run(["fit-mdp", "--traces", fitted, "--out", model]) == 0
    out = tmp_path / "cmp.json"
    assert run(["eval-policy", "--mdp", model, "--traces", visits, "--out", out]) == 1
    assert capsys.readouterr().err == "error: policy decides at state 7, which the model does not have\n"
    assert not out.exists()


def test_fit_mdp_neg_level_reward(tmp_path):
    traces = write(
        tmp_path / "traces.csv",
        "id,step,timestamp,f1,class,action\n"
        "x,0,0.0,2.0,2,a2\nx,1,1.0,1.0,1,a1\nx,2,2.0,0.0,0,\n"
        "y,0,0.0,2.0,2,a3\ny,1,1.0,0.0,0,\n",
    )
    levels = {0: 0, 1: 1, 2: 2}
    out = tmp_path / "mdp.json"
    assert run(["fit-mdp", "--traces", traces, "--reward-shape", "neg-level", "--out", out]) == 0
    rewards = {(t["s"], t["a"], t["s'"]): t["r"] for t in json.loads(out.read_text())["transitions"]}
    assert rewards == {
        (s, a, dst): -levels[dst]
        for s, a, dst in [(0, "stay", 0), (1, "a1", 0), (2, "a2", 1), (2, "a3", 0)]
    }


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_mdp_rejects_non_finite_smoothing(tmp_path, capsys, value):
    traces = write(
        tmp_path / "traces.csv",
        "id,step,timestamp,f1,class,action\nx,0,0.0,1.0,1,a1\nx,1,1.0,0.0,0,\n",
    )
    out = tmp_path / "mdp.json"
    assert run(["fit-mdp", "--traces", traces, "--smoothing", value, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == f"error: smoothing must be a finite number >= 0, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [7, "", None, ["a1"]])
def test_mdp_action_must_be_a_name(tmp_path, capsys, value):
    doc = json.loads(json.dumps(VALID_JSON["eval-policy"][1]))
    doc["transitions"][0]["a"] = value  # next to "a1" on the other row
    assert _run_json(tmp_path, "eval-policy", doc) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"doc.json: a must be a nonempty string, got {value!r}" in err
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("value", ["", 3])
def test_simulate_rejects_action_without_a_name(contracting, tmp_path, capsys, value):
    specs = json.loads(contracting["actions"].read_text())
    specs[0]["action"] = value
    actions = write(tmp_path / "bad_actions.json", json.dumps(specs))
    out, traces = tmp_path / "run.json", tmp_path / "traces.csv"
    argv = ["simulate", "--data", contracting["data"], "--lds", contracting["lds"], "--actions", actions]
    assert run(argv + ["--trace-out", traces, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"action must be a nonempty string, got {value!r}" in err
    assert "Traceback" not in err and not out.exists() and not traces.exists()


@pytest.mark.parametrize(
    "command, option, text, line, value",
    [
        ("mine", "--data", "id,f1,class\na,0.5,0\nb,1.5,{}\n", 3, "+1"),
        (
            "fit-mdp", "--traces",
            "id,step,timestamp,f1,class,action\no,0,0.0,1.0,1,a\no,{},1.0,0.5,0,\n", 3, "01",
        ),
        ("validate-poset", "--transitions", "from_class,action,to_class,count\n1,a1,0,{}\n", 2, "1_0"),
    ],
    ids=["mine-class", "fit-mdp-step", "validate-poset-count"],
)
def test_csv_integer_must_be_canonical_decimal(tmp_path, capsys, command, option, text, line, value):
    path, out = write(tmp_path / "in.csv", text.format(value)), tmp_path / "out.json"
    assert run([command, option, path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"in.csv:{line}: bad integer value {value!r}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("key", [" 1", "+1", "01", "1_0", "1 ", "١", "-1", ""])
@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("classify", [{"class": 0, "lower": {"{key}": 0.5}, "upper": {}}], "lower key"),
        ("classify", [{"class": 1, "lower": {}, "upper": {"{key}": 0.5}}], "upper key"),
        ("fit-mdp", {"levels": {"0": 0, "{key}": 1}, "height": 1, "complete": True}, "level key"),
    ],
)
def test_json_key_must_be_canonical_decimal(tmp_path, capsys, key, command, doc, message):
    doc = json.loads(json.dumps(doc).replace("{key}", json.dumps(key)[1:-1]))
    assert _run_json(tmp_path, command, doc) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"doc.json: {message} must be a decimal integer, got {key!r}" in err
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["fit-mdp", "eval-policy"])
@pytest.mark.parametrize(
    "rows, message",
    [
        ("x,0,0.0,1.0,-1,a1\nx,1,1.0,0.0,0,\n", "traces.csv:2: negative class index -1"),
        ("x,0,0.0,1.0,1,a1\n,0,1.0,0.0,0,\n", "traces.csv:3: object_id must be nonempty"),
    ],
    ids=["negative-class", "empty-id"],
)
def test_trace_class_and_id_checked_where_they_enter(tmp_path, capsys, command, rows, message):
    argv, doc = VALID_JSON[command]
    paths = {
        "traces": write(tmp_path / "traces.csv", "id,step,timestamp,f1,class,action\n" + rows),
        "doc": write(tmp_path / "doc.json", json.dumps(doc)),
    }
    out = tmp_path / "out.json"
    assert run([a.format(**paths) for a in argv] + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["mine", "simulate", "inverse"])
@pytest.mark.parametrize(
    "rows, message",
    [
        ("p,0,0\nq,1,-1\n", "data.csv:3: negative class index -1"),
        ("p,0,0\n,1,1\n", "data.csv:3: object_id must be nonempty"),
        ('p,0,0\n"",1,1\n', "data.csv:3: object_id must be nonempty"),  # read by csv.reader
    ],
    ids=["negative-class", "empty-id", "quoted-empty-id"],
)
def test_dataset_class_and_id_checked_where_they_enter(tmp_path, capsys, command, rows, message):
    paths = {
        "data": write(tmp_path / "data.csv", "id,f1,class\n" + rows),
        "lds": write(tmp_path / "lds.json", json.dumps(VALID_JSON["classify"][1])),
        "actions": write(tmp_path / "actions.json", json.dumps(VALID_JSON["inverse"][1])),
    }
    argv = {
        "mine": ["mine", "--data", "{data}"],
        "simulate": ["simulate", "--data", "{data}", "--lds", "{lds}", "--actions", "{actions}"],
        "inverse": ["inverse", "--data", "{data}", "--actions", "{actions}"],
    }[command]
    out = tmp_path / "out.json"
    assert run([a.format(**paths) for a in argv] + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["diagram", "validate-poset"])
@pytest.mark.parametrize("row", ["-1,a1,0,3", "1,a1,-1,3"])
def test_transition_class_must_be_nonnegative(tmp_path, capsys, command, row):
    path = write(tmp_path / "t.csv", f"from_class,action,to_class,count\n{row}\n")
    out = tmp_path / "out.json"
    assert run([command, "--transitions", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "negative class index -1" in err
    assert "Traceback" not in err and not out.exists()


def test_unquoted_field_past_the_csv_limit_reads(tmp_path):
    """A file with no quote is split, not parsed, so no field limit applies."""
    data = write(tmp_path / "big.csv", f"id,f1,class\n{LONG_ID},0.5,0\nb,1.5,1\n")
    lds, table = tmp_path / "lds.json", tmp_path / "table.json"
    assert run(["mine", "--data", data, "--out", lds]) == 0
    assert run(["classify", "--lds", lds, "--data", data, "--out", table]) == 0
    assert LONG_ID in {entry["id"] for entry in json.loads(table.read_text())["results"]}


@pytest.mark.parametrize(
    "command, option, header, code, err",
    [
        ("fit-mdp", "--traces", "id,step,timestamp,f1,class,action", 0, ""),
        ("mine", "--data", "id,f1,class", 1, "error: learning set has no samples\n"),
        ("validate-poset", "--transitions", "from_class,action,to_class,count", 0, ""),
    ],
    ids=["trace-log", "dataset", "transitions"],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\n\n"], ids=["lf", "crlf", "blank-row"])
def test_header_only_file(tmp_path, capsys, command, option, header, code, err, newline):
    """A file with a header and no rows reads as no rows, and nothing but
    the command's own error reaches stderr."""
    path = write(tmp_path / "h.csv", header + newline)
    assert run([command, option, path, "--out", tmp_path / "out.json"]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("complete", "no", "complete must be a boolean, got 'no'"),
        ("complete", 1, "complete must be a boolean, got 1"),
        ("warnings", "abc", "warnings must be a list of strings, got 'abc'"),
        ("warnings", [1], "warnings must be a list of strings, got [1]"),
    ],
    ids=["complete-string", "complete-int", "warnings-string", "warnings-int"],
)
def test_fit_mdp_diagram_values_must_have_their_json_type(tmp_path, capsys, key, value, message):
    doc = dict(VALID_JSON["fit-mdp"][1], **{key: value})
    assert _run_json(tmp_path, "fit-mdp", doc) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"doc.json: {message}" in err
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["inverse", "simulate"])
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "rule", "exprs": "0"}, "exprs must be a list of strings, got '0'"),
        ({"kind": "rule", "exprs": [0]}, "exprs must be a list of strings, got [0]"),
        ({"kind": "table", "map": [["0", "0"], ["1", "0"]]}, "map must be an object, got [['0', '0'], ['1', '0']]"),
    ],
    ids=["exprs-string", "exprs-int", "map-pairs"],
)
def test_boolean_action_values_must_have_their_json_type(contracting, tmp_path, capsys, command, fields, message):
    actions = write(tmp_path / "bad_actions.json", json.dumps([{"action": "a1", "class": 1, "n": 1, **fields}]))
    argv = {
        "inverse": ["inverse", "--data", write(tmp_path / "bool.csv", "id,f1,class\np,0,0\nq,1,1\n")],
        "simulate": ["simulate", "--data", contracting["data"], "--lds", contracting["lds"]],
    }[command]
    out = tmp_path / "out.json"
    assert run(argv + ["--actions", actions, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"bad_actions.json: {message}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "command, option, data",
    [
        ("mine", "--data", b"id,f1,class\na,0.5,0\nb,1.5,1\xff\n"),
        ("fit-mdp", "--traces", b"id,step,timestamp,f1,class,action\nx,0,0.0,1.0,1,a\xff\nx,1,1.0,0.0,0,\n"),
    ],
    ids=["mine", "fit-mdp"],
)
def test_csv_that_is_not_utf8_is_one_error_naming_the_file(tmp_path, capsys, command, option, data):
    path, out = tmp_path / "in.csv", tmp_path / "out.json"
    path.write_bytes(data)
    assert run([command, option, path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: {path}: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in err and not out.exists()


def test_the_cached_parser_gives_what_a_fresh_one_gives(chain_transitions, tmp_path, capsys, monkeypatch):
    """``main`` builds its parser once per process: a usage error, a valid
    call and ``--help`` in turn give the exit codes and output of a fresh
    parser built for each call."""
    from carlab import cli

    out = tmp_path / "diagram.json"
    calls = [
        ["diagram", "--transitions", chain_transitions, "--levels", "2"],
        ["diagram", "--transitions", chain_transitions, "--out", out],
        ["diagram", "--help"],
        ["--help"],
        ["diagram", "--transitions", chain_transitions],
    ]

    def results():
        got = []
        for argv in calls:
            code = run(argv)
            got.append((code, *capsys.readouterr()))
        return got + [out.read_bytes()]

    cached = results()
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert results() == cached
    assert [code for code, *_ in cached[:-1]] == [1, 0, 0, 0, 0]
    assert "unrecognized arguments: --levels 2" in cached[0][2]
    assert "usage: carlab diagram" in cached[2][1] and "usage: carlab" in cached[3][1]
