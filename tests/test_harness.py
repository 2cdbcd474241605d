from __future__ import annotations

import random
from fractions import Fraction

import pytest

from byztrim.conditions import check_partition_condition
from byztrim.digraph import Digraph
from byztrim.harness import all_digraphs, generate_graph, verify_contraction
from byztrim.protocol import compute_alpha
from byztrim.simnet import ByzantineSpec, SchedulerSpec, SimConfig, run_simulation


class TestGenerateGraph:
    def test_complete_edge_count(self):
        assert len(generate_graph("complete", {"n": 6}).edges) == 30

    def test_cycle_edges(self):
        g = generate_graph("cycle", {"n": 3})
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_cycle_too_small(self):
        with pytest.raises(ValueError, match="n >= 2"):
            generate_graph("cycle", {"n": 1})

    def test_random_uniform_deterministic(self):
        a = generate_graph("random-uniform", {"n": 8, "p": 0.7}, seed=7)
        b = generate_graph("random-uniform", {"n": 8, "p": 0.7}, seed=7)
        assert a == b
        assert a != generate_graph("random-uniform", {"n": 8, "p": 0.7}, seed=8)

    def test_random_uniform_bad_p(self):
        with pytest.raises(ValueError, match="probability"):
            generate_graph("random-uniform", {"n": 4, "p": 1.5})

    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("complete", {}, "n"),
            ("cycle", None, "n"),
            ("random-uniform", {"n": 4}, "p"),
            ("random-uniform", {"p": 0.5}, "n"),
        ],
    )
    def test_missing_parameter(self, kind, params, name):
        with pytest.raises(ValueError, match=f"graph kind '{kind}' is missing param\\(s\\) '{name}'"):
            generate_graph(kind, params)

    @pytest.mark.parametrize(
        "kind, params, name, expected",
        [
            ("complete", {"n": 2.7}, "n", "an integer"),
            ("complete", {"n": True}, "n", "an integer"),
            ("cycle", {"n": "5"}, "n", "an integer"),
            ("random-uniform", {"n": 4.0, "p": 0.5}, "n", "an integer"),
            ("random-uniform", {"n": 4, "p": "0.5"}, "p", "a finite number"),
            ("random-uniform", {"n": 4, "p": True}, "p", "a finite number"),
            ("random-uniform", {"n": 4, "p": None}, "p", "a finite number"),
        ],
    )
    def test_mistyped_parameter(self, kind, params, name, expected):
        with pytest.raises(ValueError, match=f"graph kind '{kind}' param '{name}' must be {expected}"):
            generate_graph(kind, params)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("complete", {"n": 3, "p": 7, "zzz": 1}, "graph kind 'complete' has unknown param\\(s\\) 'p', 'zzz'"),
            ("counterexample-k5", {"n": 5}, "graph kind 'counterexample-k5' has unknown param\\(s\\) 'n'"),
            ("complete", [("n", 3)], "graph kind params must be a JSON object"),
        ],
    )
    def test_unknown_parameter(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            generate_graph(kind, params)

    @pytest.mark.parametrize("n, p, seed", [(8, 0.7, 7), (9, 0.9, 5), (6, 0.35, 123), (7, 1, 0)])
    def test_random_uniform_draws_once_per_ordered_pair(self, n, p, seed):
        # One draw per ordered pair i != j, row by row: graphs seeded
        # elsewhere (benchmarks, equiv samples) depend on this order.
        rng = random.Random(seed)
        edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
        assert generate_graph("random-uniform", {"n": n, "p": p}, seed=seed) == Digraph(n, edges)

    def test_counterexample_k5(self):
        g = generate_graph("counterexample-k5")
        assert g.n == 5 and len(g.edges) == 20
        assert g.f_hint == 1
        assert not check_partition_condition(g, 1, "async").passed

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            generate_graph("petersen", {"n": 10})


class TestAllDigraphs:
    def test_counts(self):
        assert sum(1 for _ in all_digraphs(2)) == 4
        assert sum(1 for _ in all_digraphs(3)) == 64

    def test_distinct(self):
        seen = {g.edges for g in all_digraphs(2)}
        assert len(seen) == 4


class TestVerifyContraction:
    def k6_trace(self, seed=0):
        g = generate_graph("complete", {"n": 6})
        rng = random.Random(seed)
        cfg = SimConfig(
            graph=g, f=1, fault_set=frozenset({5}),
            inputs=tuple(rng.random() for _ in range(6)),
            scheduler=SchedulerSpec("random"),
            byzantine=ByzantineSpec("random", {"low": -2, "high": 3}),
            seed=seed, max_rounds=10_000, epsilon=1e-8,
        )
        return g, run_simulation(cfg)

    def test_k6_bound_holds(self):
        g, trace = self.k6_trace()
        alpha = compute_alpha(g, 1)
        assert alpha == Fraction(1, 3)
        ok, report = verify_contraction(trace.spreads, alpha, 6, 1)
        assert ok
        assert report.window == 4
        assert report.theoretical_factor == pytest.approx(1 - (1 / 3) ** 4 / 2)
        if report.observed_worst_factor is not None:
            assert report.observed_worst_factor <= report.theoretical_factor

    def test_constant_trace_trivially_ok(self):
        ok, report = verify_contraction([0.0, 0.0, 0.0], Fraction(1, 3), 6, 1)
        assert ok and report.first_violation_round is None

    def test_violation_detected(self):
        # Spread that grows violates any contraction bound.
        ok, report = verify_contraction([1.0, 1.0, 1.0, 1.0, 2.0], Fraction(1, 3), 6, 1)
        assert not ok
        assert report.first_violation_round == 4

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="no rounds"):
            verify_contraction([], Fraction(1, 2), 6, 1)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="n-f-1"):
            verify_contraction([1.0], Fraction(1, 2), 2, 1)


class TestCompleteGraphThreshold:
    def test_async_pass_iff_n_exceeds_5f(self):
        for f in (0, 1):
            for n in range(2, 9):
                g = generate_graph("complete", {"n": n})
                passed = check_partition_condition(g, f, "async").passed
                assert passed == (n >= 5 * f + 1), (n, f)

