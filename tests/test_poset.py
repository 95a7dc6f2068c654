import pytest

from carlab.core import CarlabError, TraceEvent
from carlab.poset import (
    ClassTransitionGraph,
    LevelDiagram,
    Transition,
    build_level_diagram,
    check_poset,
    counter_class,
    diagram_from_json,
    diagram_to_json,
    distance_to_normal,
    extract_relation,
    has_unique_minimum,
    load_transition_records,
    neighborhood,
    save_transition_records,
    validate_to_normal,
)
from carlab import synth

import oracles


def graph(pairs, classes=()):
    edges = [Transition(src=s, action=a, dst=d, count=c) for s, a, d, c in pairs]
    return ClassTransitionGraph.build(edges, classes=classes)


def chain_graph():
    return graph([(2, "a2", 1, 1), (1, "a1", 0, 1)])


def trace(object_id, classes):
    events = []
    for k, c in enumerate(classes):
        events.append(
            TraceEvent(
                object_id, k, float(k), (float(k),), c, f"a{c}" if c else None
            )
        )
    return events


class TestExtractRelation:
    def test_chain_trace(self):
        g = extract_relation(trace("x", [2, 1, 0]))
        assert {(e.src, e.action, e.dst, e.count) for e in g.edges} == {
            (2, "a2", 1, 1),
            (1, "a1", 0, 1),
        }

    def test_nondeterminism_flagged(self):
        events = trace("x", [1, 0]) + trace("y", [1, 2])
        g = extract_relation(events)
        assert g.nondeterministic() == {(1, "a1"): (0, 2)}

    def test_empty_input(self):
        g = extract_relation([])
        assert g.edges == ()
        assert g.classes == frozenset({0})

    def test_counts_aggregate(self):
        g = extract_relation(trace("x", [1, 0]) + trace("y", [1, 0]))
        assert g.edges == (Transition(1, "a1", 0, 2),)

    def test_transition_out_of_normal_rejected(self):
        events = [
            TraceEvent("x", 0, 0.0, (0.0,), 0, None),
            TraceEvent("x", 1, 1.0, (1.0,), 1, "a1"),
        ]
        with pytest.raises(CarlabError, match="normal"):
            extract_relation(events)


class TestCheckPoset:
    def test_chain_passes(self):
        report = check_poset(chain_graph())
        assert report.passed
        assert report.counterexample_cycle is None

    def test_two_cycle_fails_antisymmetry(self):
        report = check_poset(graph([(1, "a1", 2, 1), (2, "a2", 1, 1)]))
        assert not report.antisymmetric
        cycle = report.counterexample_cycle
        assert cycle is not None and cycle[0] == cycle[-1]
        assert {1, 2} <= set(cycle)

    def test_two_roots_still_poset(self):
        report = check_poset(graph([(1, "a1", 0, 1), (2, "a2", 0, 1)]))
        assert report.passed

    def test_counterexample_cycle_verifiable(self):
        g = graph([(1, "a1", 3, 1), (3, "a3", 2, 1), (2, "a2", 1, 1)])
        cycle = check_poset(g).counterexample_cycle
        pairs = g.step_pairs()
        for a, b in zip(cycle, cycle[1:]):
            assert (a, b) in pairs


class TestUniqueMinimum:
    def test_chain(self):
        assert has_unique_minimum(chain_graph()).passed

    def test_two_components(self):
        report = has_unique_minimum(graph([(1, "a1", 0, 1), (3, "a3", 2, 1)]))
        assert not report.passed
        assert report.minimal == (0, 2)

    def test_isolated_normal_class(self):
        report = has_unique_minimum(ClassTransitionGraph.build([]))
        assert report.passed and report.minimal == (0,)


class TestLevelDiagram:
    def test_branching_levels(self):
        diagram = build_level_diagram(
            graph([(2, "a2", 1, 1), (1, "a1", 0, 1), (3, "a3", 1, 1)])
        )
        assert diagram.levels == {0: 0, 1: 1, 2: 2, 3: 2}
        assert diagram.complete and diagram.height == 2

    def test_stranded_class(self):
        diagram = build_level_diagram(graph([(1, "a1", 0, 1)], classes=[4]))
        assert not diagram.complete
        assert diagram.unleveled == (4,)

    def test_only_normal(self):
        diagram = build_level_diagram(ClassTransitionGraph.build([]))
        assert diagram.levels == {0: 0} and diagram.height == 0 and diagram.complete

    def test_level_skip_warning(self):
        diagram = build_level_diagram(
            graph(
                [
                    (1, "a1", 0, 1),
                    (2, "a2", 1, 1),
                    (3, "a3", 2, 1),
                    (1, "a1b", 3, 1),
                ]
            )
        )
        assert any("1->3" in w for w in diagram.warnings)

    @pytest.mark.parametrize("unleveled", [(2, 2, -3), (2, 2), (-3,)])
    def test_unleveled_classes_are_distinct_and_nonnegative(self, unleveled):
        with pytest.raises(CarlabError, match="repeats a class or names a negative one"):
            LevelDiagram(levels={0: 0, 1: 1}, unleveled=unleveled)

    def test_every_leveled_class_steps_down(self):
        rng = synth.default_rng(21)
        for _ in range(20):
            g = synth.random_transition_graph(rng, max_classes=12)
            diagram = build_level_diagram(g)
            pairs = g.step_pairs()
            for c, lvl in diagram.levels.items():
                if lvl == 0:
                    continue
                assert any(
                    (c, d) in pairs and diagram.levels.get(d) == lvl - 1
                    for d in diagram.levels
                )


class TestValidateToNormal:
    def test_chain_passes(self):
        verdict = validate_to_normal(chain_graph())
        assert verdict.passed and verdict.verdict == "pass"

    def test_cycle_fails(self):
        verdict = validate_to_normal(graph([(1, "a1", 2, 1), (2, "a2", 1, 1)]))
        assert not verdict.passed and verdict.verdict == "fail"

    def test_stranded_class_fails(self):
        verdict = validate_to_normal(graph([(1, "a1", 0, 1)], classes=[5]))
        assert not verdict.passed

    def test_nondeterminism_downgrades(self):
        g = graph([(1, "a1", 0, 3), (1, "a1", 2, 1), (2, "a2", 0, 1)])
        verdict = validate_to_normal(g)
        assert verdict.passed and verdict.verdict == "pass-with-warnings"
        assert (1, "a1") in verdict.nondeterministic

    def test_pass_implies_reachability_and_acyclicity(self):
        rng = synth.default_rng(22)
        for _ in range(50):
            g = synth.random_transition_graph(rng, max_classes=10)
            verdict = validate_to_normal(g)
            order, m = oracles.closed_relation(g.classes, g.step_pairs())
            axioms = oracles.axioms_on_closure(order, m)
            if verdict.passed:
                assert oracles.all_reach_normal(order, m)
                assert axioms["antisymmetric"]


class TestDistance:
    def test_root(self):
        diagram = build_level_diagram(chain_graph())
        assert distance_to_normal(diagram, 0) == 0

    def test_chain_depth(self):
        diagram = build_level_diagram(chain_graph())
        assert distance_to_normal(diagram, 2) == 2

    def test_unleveled_errors(self):
        diagram = build_level_diagram(graph([(1, "a1", 0, 1)], classes=[9]))
        with pytest.raises(CarlabError, match="not leveled"):
            distance_to_normal(diagram, 9)


class TestNeighborhood:
    def test_bfs_layers_at_zero_threshold(self):
        g = chain_graph()
        assert neighborhood(g, 1, 0.0) == {1}
        assert neighborhood(g, 2, 0.0) == {1, 2}

    def test_threshold_excludes_weak_link(self):
        g = graph(
            [
                (1, "a1", 0, 1),
                (3, "a3", 1, 1),
                (3, "a3x", 4, 9),
                (4, "a4", 3, 1),
            ]
        )
        assert 3 not in neighborhood(g, 2, 0.5)

    def test_threshold_one_requires_all_links_inside(self):
        g = graph(
            [
                (1, "a1", 0, 4),
                (2, "a2", 0, 3),
                (2, "a2x", 3, 1),
                (3, "a3", 0, 1),
            ]
        )
        assert neighborhood(g, 1, 1.0) == {1, 3}

    def test_matches_levels_on_complete_diagrams(self):
        rng = synth.default_rng(23)
        for _ in range(20):
            g = synth.random_transition_graph(rng, max_classes=10)
            diagram = build_level_diagram(g)
            if not diagram.complete:
                continue
            for depth in (1, 2, 3):
                expected = {
                    c for c, lvl in diagram.levels.items() if 1 <= lvl <= depth
                }
                assert neighborhood(g, depth, 0.0) == expected


class TestCounterClass:
    def diagram(self, height):
        pairs = [(i, f"a{i}", i - 1, 1) for i in range(1, height + 1)]
        return build_level_diagram(graph(pairs))

    def test_half_height(self):
        diagram = self.diagram(4)
        assert counter_class(diagram, 0.5) == {2, 3, 4}

    def test_full_fraction(self):
        diagram = self.diagram(4)
        assert counter_class(diagram, 1.0) == {4}

    def test_ceiling_on_small_height(self):
        diagram = self.diagram(1)
        assert counter_class(diagram, 0.5) == {1}

    def test_incomplete_diagram_rejected(self):
        diagram = build_level_diagram(graph([(1, "a1", 0, 1)], classes=[7]))
        with pytest.raises(CarlabError, match="complete"):
            counter_class(diagram, 0.5)


class TestOracleAgreement:
    @staticmethod
    def assert_witness(cycle, g, order, m):
        """The cycle starts at the smallest class with a mutually reachable
        partner, passes through that class's smallest partner, and walks
        step pairs only."""
        mutual = m & m.T
        partners = {
            c: [order[j] for j in mutual[i].nonzero()[0] if j != i]
            for i, c in enumerate(order)
        }
        first = min(c for c, p in partners.items() if p)
        assert cycle[0] == cycle[-1] == first
        assert min(partners[first]) in cycle
        pairs = g.step_pairs()
        for a, b in zip(cycle, cycle[1:]):
            assert (a, b) in pairs

    def test_random_digraphs_against_direct_axioms(self):
        rng = synth.default_rng(24)
        for _ in range(60):
            g = synth.random_transition_graph(rng, max_classes=15)
            order, m = oracles.closed_relation(g.classes, g.step_pairs())
            axioms = oracles.axioms_on_closure(order, m)
            report = check_poset(g)
            assert axioms["reflexive"] and axioms["transitive"]
            assert report.antisymmetric == axioms["antisymmetric"]
            if not report.antisymmetric:
                self.assert_witness(report.counterexample_cycle, g, order, m)
            minimum = has_unique_minimum(g)
            assert list(minimum.minimal) == axioms["minimal"]
            verdict = validate_to_normal(g)
            expected = (
                axioms["reflexive"]
                and axioms["antisymmetric"]
                and axioms["transitive"]
                and axioms["minimal"] == [0]
                and oracles.all_reach_normal(order, m)
            )
            assert verdict.passed == expected


def test_transition_csv_round_trip(tmp_path):
    g = graph([(2, "a2", 1, 3), (1, "a1", 0, 5)])
    path = tmp_path / "t.csv"
    save_transition_records(g, path)
    again = load_transition_records(path)
    assert again.edges == tuple(
        sorted(g.edges, key=lambda e: (e.src, e.action, e.dst))
    )
    assert again.classes == g.classes


def test_transition_csv_rejects_normal_source(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "from_class,action,to_class,count\n0,a0,1,1\n", encoding="utf-8"
    )
    with pytest.raises(CarlabError, match="normal"):
        load_transition_records(path)


def test_diagram_json_round_trip():
    diagram = build_level_diagram(chain_graph())
    assert diagram_from_json(diagram_to_json(diagram)) == diagram
