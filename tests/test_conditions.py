from __future__ import annotations

import random
from fractions import Fraction

import pytest

from byztrim.conditions import (
    Partition,
    ReductionWitness,
    check_partition_condition,
    check_reduced_graph_condition,
    check_source_component_size,
    in_set,
    propagates,
    quick_degree_checks,
    reaches,
    threshold,
)
from byztrim.digraph import Digraph
from byztrim.harness import all_digraphs, generate_graph
from byztrim.protocol import ASYNC, MODELS, SYNC, NodeState, compute_alpha
from conftest import random_digraph
from oracles import (
    naive_reaches,
    naive_reduced_verdict,
    naive_source_size_verdict,
    naive_violating_partition,
    nx_source_components,
)


class TestReaches:
    def test_k5_three_suffice(self, k5):
        assert reaches(k5, {1, 2, 3}, {4}, 3)

    def test_k5_four_unavailable(self, k5):
        assert not reaches(k5, {1, 2, 3}, {4}, 4)

    def test_overlap_rejected(self, k5):
        with pytest.raises(ValueError, match="overlap"):
            reaches(k5, {0}, {0, 1}, 1)

    def test_empty_rejected(self, k5):
        with pytest.raises(ValueError, match="non-empty"):
            reaches(k5, set(), {1}, 1)

    def test_threshold_must_be_positive(self, k5):
        with pytest.raises(ValueError, match=">= 1"):
            reaches(k5, {0}, {1}, 0)

    def test_monotone_in_source_set(self):
        rng = random.Random(21)
        checked = 0
        while checked < 80:
            g = random_digraph(7, rng.choice([0.3, 0.6]), rng)
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            b = set(nodes[:2])
            a = set(nodes[2:4])
            bigger = a | set(nodes[4:6])
            r = rng.randrange(1, 4)
            if reaches(g, a, b, r):
                assert reaches(g, bigger, b, r)
                checked += 1
            else:
                checked += 1


class TestInSet:
    def test_k5_both_meet_threshold(self, k5):
        assert in_set(k5, {1, 2, 3}, {0, 4}, 3) == {0, 4}

    def test_k5_none_meet_threshold(self, k5):
        assert in_set(k5, {1, 2, 3}, {0, 4}, 4) == frozenset()

    def test_chain_absorbs_head_only(self, chain3):
        assert in_set(chain3, {0}, {1, 2}, 1) == {1}

    def test_agrees_with_reaches(self):
        rng = random.Random(4)
        for _ in range(50):
            g = random_digraph(6, 0.5, rng)
            a, b = {0, 1}, {4, 5}
            r = rng.randrange(1, 3)
            assert bool(in_set(g, a, b, r)) == reaches(g, a, b, r) == naive_reaches(g, a, b, r)


class TestPropagates:
    def test_k5_absorbs_in_one_round(self, k5):
        t = propagates(k5, {0, 1, 2}, {3, 4}, 3)
        assert t.succeeded and t.rounds == 1
        assert t.b_sets[-1] == frozenset()

    def test_chain_two_rounds(self, chain3):
        t = propagates(chain3, {0}, {1, 2}, 1)
        assert t.succeeded and t.rounds == 2
        assert t.a_sets == (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}))

    def test_k5_stalls_below_threshold(self, k5):
        t = propagates(k5, {0, 1}, {2, 3, 4}, 3)
        assert not t.succeeded and t.rounds == 0
        assert t.b_sets[-1] == frozenset({2, 3, 4})

    def test_trace_is_internally_consistent(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_digraph(8, 0.7, rng)
            t = propagates(g, {0, 1, 2}, {5, 6, 7}, rng.randrange(1, 4))
            for tau in range(t.rounds):
                absorbed = in_set(g, t.a_sets[tau], t.b_sets[tau], t.r)
                assert absorbed
                assert t.a_sets[tau + 1] == t.a_sets[tau] | absorbed
                assert t.b_sets[tau + 1] == t.b_sets[tau] - absorbed
            if t.succeeded:
                assert all(b for b in t.b_sets[:-1])


class TestPartitionType:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Partition(frozenset({0}), frozenset({0}), frozenset(), frozenset({1}))


class TestPartitionCondition:
    def test_k5_async_fails_with_verified_witness(self, k5):
        report = check_partition_condition(k5, 1, "async")
        assert report.verdict == "fail"
        w = report.witness
        assert w is not None
        w.check_covers(k5)
        assert len(w.faulty) <= 1 and w.left and w.right
        r = threshold(1, "async")
        assert not reaches(k5, w.center | w.right, w.left, r)
        assert not reaches(k5, w.left | w.center, w.right, r)

    def test_k6_async_passes(self, k6):
        assert check_partition_condition(k6, 1, "async").passed

    def test_k4_sync_passes(self, k4):
        assert check_partition_condition(k4, 1, "sync").passed

    def test_unknown_mode(self, k4):
        with pytest.raises(ValueError, match="unknown mode"):
            check_partition_condition(k4, 1, "later")

    def test_first_witness_matches_naive_oracle(self):
        rng = random.Random(31)
        fails = 0
        for _ in range(120):
            g = random_digraph(rng.randrange(2, 6), rng.choice([0.3, 0.5, 0.8]), rng)
            f = rng.randrange(0, 2)
            mode = rng.choice(["sync", "async"])
            report = check_partition_condition(g, f, mode)
            expected = naive_violating_partition(g, f, threshold(f, mode))
            if expected is None:
                assert report.passed
            else:
                fails += 1
                assert report.witness == expected
        assert fails > 20

    def test_async_report_carries_degree_violations(self, k5):
        report = check_partition_condition(k5, 1, "async")
        assert any(v.kind == "node-count" for v in report.degree_violations)

    def test_report_serializes(self, k5):
        d = check_partition_condition(k5, 1, "async").to_json_dict()
        assert d["verdict"] == "fail" and d["mode"] == "async" and d["r"] == 3
        assert set(d["witness"]) == {"F", "L", "C", "R"}


class TestReducedGraphCondition:
    def test_two_node_mutual_edge_passes(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        assert check_reduced_graph_condition(g, 0).passed

    def test_directed_cycle_fails(self, cycle3):
        report = check_reduced_graph_condition(cycle3, 1)
        assert report.verdict == "fail"
        # Each node drops its one in-edge, leaving three singleton sources.
        assert report.witness == ReductionWitness(
            frozenset(), frozenset(), (frozenset({0}), frozenset({1}), frozenset({2}))
        )

    def test_k4_matches_sync_partition_check(self, k4):
        assert check_reduced_graph_condition(k4, 1).verdict == check_partition_condition(k4, 1, "sync").verdict == "pass"

    def test_budget_exceeded_is_distinct(self, k4):
        report = check_reduced_graph_condition(k4, 1, budget=3)
        assert report.verdict == "budget-exceeded"
        assert report.examined == 4
        assert not report.passed

    def test_matches_full_enumeration_oracle(self):
        rng = random.Random(8)
        for _ in range(50):
            g = random_digraph(rng.randrange(1, 5), rng.choice([0.3, 0.6, 0.9]), rng)
            f = rng.randrange(0, 2)
            assert check_reduced_graph_condition(g, f).verdict == naive_reduced_verdict(g, f)


class TestReductionWitness:
    @pytest.mark.parametrize("check", [check_reduced_graph_condition, check_source_component_size])
    def test_failing_witness_is_a_reduction_with_its_sources(self, check):
        rng = random.Random(21)
        failing = 0
        for _ in range(400):
            g = random_digraph(rng.randint(1, 6), rng.choice([0.3, 0.5, 0.7, 0.9]), rng)
            f = rng.randint(0, 2)
            report = check(g, f)
            if report.verdict != "fail":
                continue
            failing += 1
            w = report.witness
            survivors = set(g.nodes) - w.faulty
            assert len(w.faulty) <= f
            # Kept edges lie within the graph minus F, and no survivor loses
            # more than f of its in-edges from outside F.
            assert w.kept_edges <= {(u, v) for (u, v) in g.edges if u in survivors and v in survivors}
            for v in survivors:
                kept = {u for (u, x) in w.kept_edges if x == v}
                assert len(g.in_nbrs[v] - w.faulty) - len(kept) <= f
            assert list(w.source_components) == nx_source_components(survivors, w.kept_edges)
            # The reduction breaks what the check asks for.
            need = f + 1 if check is check_source_component_size else 1
            assert len(w.source_components) != 1 or len(w.source_components[0]) < need
        assert failing > 100


class TestSourceComponentSize:
    def test_k4_passes(self, k4):
        assert check_source_component_size(k4, 1).passed

    def test_directed_cycle_fails(self, cycle3):
        assert check_source_component_size(cycle3, 1).verdict == "fail"

    def test_two_node_mutual_edge_passes(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        assert check_source_component_size(g, 0).passed

    def test_matches_full_enumeration_oracle(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_digraph(rng.randrange(1, 5), rng.choice([0.4, 0.7, 1.0]), rng)
            f = rng.randrange(0, 2)
            assert check_source_component_size(g, f).verdict == naive_source_size_verdict(g, f)


class TestTimingModels:
    """The one record per timing model (protocol.MODELS) against the values
    the paper's conditions give, and its floors against the condition."""

    # f -> (threshold, in-degree floor, node-count floor, messages awaited
    # and alpha on K14, whose in-degrees are 13)
    TABLE = {
        SYNC: {
            0: (1, 1, 0, 13, Fraction(1, 14)),
            1: (2, 3, 3, 13, Fraction(1, 12)),
            2: (3, 5, 6, 13, Fraction(1, 10)),
            3: (4, 7, 9, 13, Fraction(1, 8)),
            4: (5, 9, 12, 13, Fraction(1, 6)),
        },
        ASYNC: {
            0: (1, 1, 0, 13, Fraction(1, 14)),
            1: (3, 4, 5, 12, Fraction(1, 11)),
            2: (5, 7, 10, 11, Fraction(1, 8)),
            3: (7, 10, 15, 10, Fraction(1, 5)),
            4: (9, 13, 20, 9, Fraction(1, 2)),
        },
    }

    @pytest.mark.parametrize("mode", [SYNC, ASYNC])
    def test_rules_table(self, mode):
        model, k14 = MODELS[mode], generate_graph("complete", {"n": 14})
        for f, (r, degree_floor, node_floor, awaited, alpha) in self.TABLE[mode].items():
            assert threshold(f, mode) == model.threshold(f) == r
            assert model.lag(f) == r - f - 1
            assert (model.degree_floor(f), model.node_floor(f)) == (degree_floor, node_floor)
            assert NodeState(0, 0.0, k14, f, model).expected_count == model.awaited(13, f) == awaited
            assert Fraction(1, model.averaged(13, f)) == alpha
            if mode == ASYNC:
                assert compute_alpha(k14, f) == alpha

    @pytest.mark.parametrize("mode", [SYNC, ASYNC])
    def test_below_a_floor_fails(self, mode):
        # Every digraph with n <= 4, then seeded random ones with n = 5..8.
        # With n = 1 there is no second side, so nothing fails.
        model, rng = MODELS[mode], random.Random(2024)
        cases = [(g, f) for n in range(1, 5) for g in all_digraphs(n) for f in (1, 2)]
        cases += [
            (random_digraph(n, rng.choice([0.5, 0.8, 0.95, 1.0]), rng), f)
            for n in range(5, 9) for f in (1, 2) for _ in range(25)
        ]
        below_count = 0
        for g, f in cases:
            report = check_partition_condition(g, f, mode)
            if g.n == 1:
                assert report.passed and not report.degree_violations
                continue
            min_degree = min(len(g.in_nbrs[v]) for v in g.nodes)
            below = g.n <= model.node_floor(f) or min_degree < model.degree_floor(f)
            below_count += below
            if below:
                assert report.verdict == "fail", (g.to_dict(), f)
            if mode == ASYNC:
                assert bool(report.degree_violations) == below, (g.to_dict(), f)
        assert 0 < below_count < len(cases)

    def test_lockstep_degree_message(self):
        # K6 less node 2's in-edges from 3, 4, 5: in lockstep node 2 awaits
        # both of its in-edges and trims both.
        g = Digraph(6, [(i, j) for i in range(6) for j in range(6) if i != j and (j != 2 or i < 2)])
        assert NodeState(2, 0.0, g, 1, MODELS[SYNC]).update_error == "node 2 has in-degree 2 < 2f+1=3"


class TestQuickDegreeChecks:
    def test_k5_node_count(self, k5):
        violations = quick_degree_checks(k5, 1)
        assert [v.kind for v in violations] == ["node-count"]

    def test_low_in_degree_node(self):
        # Node 0 has in-degree 3 < 3f+1 = 4.
        g = Digraph(6, [(i, 0) for i in (1, 2, 3)] + [(0, j) for j in (1, 2, 3, 4, 5)])
        kinds = {(v.kind, v.node) for v in quick_degree_checks(g, 1)}
        assert ("in-degree", 0) in kinds

    def test_k6_clean(self, k6):
        assert quick_degree_checks(k6, 1) == []

    def test_one_node_graph_reports_nothing(self):
        # Both floors assume a second node; with one there is no violation.
        assert quick_degree_checks(Digraph(1, []), 1) == []
        assert "degree_violations" not in check_partition_condition(Digraph(1, []), 1, "async").to_json_dict()

    def test_f_zero_never_fires_degree(self):
        g = Digraph(3, [])
        assert quick_degree_checks(g, 0) == []


@pytest.mark.parametrize(
    "check",
    [
        lambda g, f: check_partition_condition(g, f, "async"),
        check_reduced_graph_condition,
        check_source_component_size,
        quick_degree_checks,
    ],
    ids=["partition", "reduced-graph", "source-size", "quick-degree"],
)
@pytest.mark.parametrize(
    "f, message", [(True, "f must be an integer"), (1.5, "f must be an integer"), (-1, "f must be >= 0")]
)
def test_fault_bound_must_be_a_non_negative_integer(k5, check, f, message):
    with pytest.raises(ValueError, match=message):
        check(k5, f)


class TestTheoremProperties:
    """Testable consequences of the equivalence and propagation results."""

    def test_sync_equivalence_small_random(self):
        rng = random.Random(99)
        for _ in range(150):
            g = random_digraph(rng.randrange(1, 6), rng.choice([0.2, 0.5, 0.8]), rng)
            for f in (0, 1):
                assert (
                    check_partition_condition(g, f, "sync").verdict
                    == check_reduced_graph_condition(g, f).verdict
                ), g.to_dict()

    def test_propagation_dichotomy_on_passing_graphs(self):
        rng = random.Random(55)
        found = 0
        while found < 25:
            g = random_digraph(rng.choice([6, 7]), rng.choice([0.8, 0.9, 1.0]), rng)
            if not check_partition_condition(g, 1, "async").passed:
                continue
            found += 1
            r = 3
            for _ in range(10):
                nodes = list(g.nodes)
                rng.shuffle(nodes)
                cut = rng.randrange(1, len(nodes) - 1)
                fsize = rng.randrange(0, 2)
                fault = set(nodes[:fsize])
                rest = nodes[fsize:]
                a = set(rest[: max(1, cut - fsize)])
                b = set(rest[max(1, cut - fsize):])
                if not a or not b:
                    continue
                fwd = propagates(g, a, b, r)
                bwd = propagates(g, b, a, r)
                assert fwd.succeeded or bwd.succeeded
                for t in (fwd, bwd):
                    if t.succeeded:
                        assert t.rounds <= g.n - 2 * 1 - 1

    def test_propagation_from_non_reach(self):
        rng = random.Random(77)
        found = 0
        while found < 20:
            g = random_digraph(6, 0.9, rng)
            if not check_partition_condition(g, 1, "async").passed:
                continue
            found += 1
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            a, b = set(nodes[:3]), set(nodes[3:])
            if not reaches(g, b, a, 3):
                assert propagates(g, a, b, 3).succeeded

    def test_async_pass_implies_no_degree_violations(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randrange(2, 8)
            g = random_digraph(n, rng.choice([0.5, 0.8, 1.0]), rng)
            f = rng.randrange(0, 2)
            if check_partition_condition(g, f, "async").passed:
                assert quick_degree_checks(g, f) == []
