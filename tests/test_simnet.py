from __future__ import annotations

import dataclasses
import json
import random

import pytest

from byztrim.conditions import Partition, check_partition_condition
from byztrim.digraph import Digraph
from byztrim.simnet import (
    BehaviorContext,
    ByzantineSpec,
    SchedulerSpec,
    SimConfig,
    build_attack_config,
    byzantine_values,
    run_simulation,
    trace_metrics,
    read_trace_csv,
    write_metrics_csv,
    write_trace_csv,
)
from conftest import complete


def k6_config(seed=42, behavior=None, fault=frozenset(), **kw) -> SimConfig:
    rng = random.Random(seed)
    inputs = tuple(rng.random() for _ in range(6))
    defaults = dict(
        graph=complete(6),
        f=1,
        fault_set=fault,
        inputs=inputs,
        scheduler=SchedulerSpec("random"),
        byzantine=behavior,
        seed=seed,
        max_rounds=10_000,
        epsilon=1e-6,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestConfigValidation:
    def test_fault_set_bounded_by_f(self):
        cfg = k6_config(fault=frozenset({4, 5}), behavior=ByzantineSpec("silent"))
        with pytest.raises(ValueError, match="exceeds f"):
            cfg.validate()

    def test_inputs_must_cover_nodes(self):
        cfg = dataclasses.replace(k6_config(), inputs=(0.0, 1.0))
        with pytest.raises(ValueError, match="inputs"):
            cfg.validate()

    def test_fault_set_needs_behavior(self):
        cfg = k6_config(fault=frozenset({5}))
        with pytest.raises(ValueError, match="behavior"):
            cfg.validate()

    def test_json_roundtrip(self):
        cfg = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("random", {"low": -1, "high": 2}))
        again = SimConfig.from_json(cfg.to_json())
        assert again == cfg

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("f", True, "f must be an integer"),
            ("f", 1.0, "f must be an integer"),
            ("seed", False, "seed must be an integer"),
            ("seed", "7", "seed must be an integer"),
            ("max_rounds", 20.5, "max_rounds must be an integer"),
            ("max_rounds", True, "max_rounds must be an integer"),
            ("fault_set", [5.0], "fault_set entry must be an integer"),
            ("inputs", [float("nan")] + [0.0] * 5, "input must be a finite number"),
            ("inputs", [float("inf")] + [0.0] * 5, "input must be a finite number"),
            ("inputs", [True] + [0.0] * 5, "input must be a finite number"),
            ("inputs", ["0.5"] + [0.0] * 5, "input must be a finite number"),
            ("epsilon", float("nan"), "epsilon must be a finite number"),
            ("epsilon", float("-inf"), "epsilon must be a finite number"),
        ],
    )
    def test_json_rejects_malformed_field(self, field, value, message):
        cfg = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("random", {"low": -1, "high": 2}))
        d = cfg.to_json_dict()
        d[field] = value
        with pytest.raises(ValueError, match=message):
            SimConfig.from_json(json.dumps(d))


class TestByzantineValues:
    def test_split_targets_sides(self):
        ctx = BehaviorContext(out_neighbors=(0, 1, 2), seed=0)
        spec = ByzantineSpec(
            "split", {"m": 0.0, "M": 1.0, "m_minus": -1.0, "M_plus": 2.0, "left": [0], "right": [1]}
        )
        vals = byzantine_values(spec, 9, 0, ctx)
        assert vals == {0: -1.0, 1: 2.0, 2: 0.5}

    def test_identical_wrong(self):
        ctx = BehaviorContext(out_neighbors=(1, 2, 3), seed=0)
        vals = byzantine_values(ByzantineSpec("identical-wrong", {"value": 7.0}), 0, 3, ctx)
        assert vals == {1: 7.0, 2: 7.0, 3: 7.0}

    def test_random_is_seed_stable(self):
        ctx = BehaviorContext(out_neighbors=(1, 2), seed=123)
        spec = ByzantineSpec("random", {"low": -1.0, "high": 1.0})
        a = byzantine_values(spec, 4, 7, ctx)
        b = byzantine_values(spec, 4, 7, ctx)
        assert a == b
        assert byzantine_values(spec, 4, 8, ctx) != a

    def test_silent_sends_nothing(self):
        ctx = BehaviorContext(out_neighbors=(1, 2), seed=0)
        assert byzantine_values(ByzantineSpec("silent"), 0, 0, ctx) == {}

    def test_unknown_behavior(self):
        ctx = BehaviorContext(out_neighbors=(1,), seed=0)
        with pytest.raises(ValueError, match="unknown byzantine behavior"):
            byzantine_values(ByzantineSpec("gaslight"), 0, 0, ctx)


class TestRunSimulation:
    def test_two_node_hand_iteration(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        cfg = SimConfig(
            graph=g, f=0, fault_set=frozenset(), inputs=(0.0, 1.0),
            scheduler=SchedulerSpec("random"), seed=3, max_rounds=10, epsilon=1e-9,
        )
        trace = run_simulation(cfg)
        assert trace.values[0][:2] == [0.0, 0.5]
        assert trace.values[1][:2] == [1.0, 0.5]
        assert trace.spreads[:2] == [1.0, 0.0]
        assert trace.outcome == "converged" and trace.converged_round == 1

    def test_constant_inputs_converge_at_round_zero(self):
        cfg = k6_config(inputs=(0.7,) * 6, epsilon=0.0)
        trace = run_simulation(cfg)
        assert trace.outcome == "converged" and trace.converged_round == 0
        assert trace.deliveries == []

    def test_validity_under_random_byzantine(self):
        cfg = k6_config(
            fault=frozenset({5}), behavior=ByzantineSpec("random", {"low": -10, "high": 10})
        )
        trace = run_simulation(cfg)
        metrics = trace_metrics(trace)
        assert trace.outcome == "converged"
        assert metrics.all_valid
        assert metrics.first_converged_round == trace.converged_round

    def test_silent_byzantine_is_tolerated(self):
        cfg = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("silent"))
        trace = run_simulation(cfg)
        assert trace.outcome == "converged"

    def test_faulty_node_below_degree_floor_still_paces(self):
        # The update-rule degree precondition applies to fault-free nodes
        # only; a barely-connected faulty node must not wedge the run.
        edges = [(i, j) for i in range(5) for j in range(5) if i != j]
        edges += [(5, j) for j in range(5)] + [(0, 5)]
        cfg = SimConfig(
            graph=Digraph(6, edges), f=1, fault_set=frozenset({5}),
            inputs=(0.0, 0.25, 0.5, 0.75, 1.0, 0.0),
            scheduler=SchedulerSpec("random"),
            byzantine=ByzantineSpec("identical-wrong", {"value": -9.0}),
            seed=1, max_rounds=10_000, epsilon=1e-7,
        )
        trace = run_simulation(cfg)
        assert trace.outcome == "converged"
        assert trace_metrics(trace).all_valid

    def test_determinism_bit_identical(self):
        cfg = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("random", {"low": -1, "high": 2}))
        a, b = run_simulation(cfg), run_simulation(cfg)
        assert a.values == b.values
        assert a.deliveries == b.deliveries
        assert a.u_levels == b.u_levels and a.mu_levels == b.mu_levels

    def test_seed_changes_schedule(self):
        cfg_a = k6_config(seed=1)
        cfg_b = dataclasses.replace(cfg_a, seed=2)
        assert run_simulation(cfg_a).deliveries != run_simulation(cfg_b).deliveries

    def test_fifo_scheduler_runs(self):
        cfg = k6_config(scheduler=SchedulerSpec("fifo"))
        assert run_simulation(cfg).outcome == "converged"

    def test_unknown_scheduler(self):
        cfg = k6_config(scheduler=SchedulerSpec("psychic"))
        with pytest.raises(ValueError, match="unknown scheduler"):
            run_simulation(cfg)

    def test_max_rounds_hit(self):
        cfg = k6_config(epsilon=0.0, max_rounds=5)
        trace = run_simulation(cfg)
        assert trace.outcome == "max-rounds-hit"
        assert trace.common_rounds == 5
        assert all(len(vs) >= 6 for vs in trace.values.values())

    def test_synchronous_mode_matches_lockstep_averaging(self):
        # f=0 lockstep: v_i[t] is exactly the average of self and all
        # in-neighbours at t-1, independently recomputed here.
        g = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        inputs = (0.0, 0.6, 0.9)
        cfg = SimConfig(
            graph=g, f=0, fault_set=frozenset(), inputs=inputs,
            scheduler=SchedulerSpec("synchronous"), seed=0, max_rounds=6, epsilon=0.0,
        )
        trace = run_simulation(cfg)
        expect = list(inputs)
        for t in range(1, 7):
            nxt = []
            for v in g.nodes:
                vals = [expect[v]] + [expect[u] for u in sorted(g.in_nbrs[v])]
                nxt.append(sum(vals) / len(vals))
            expect = nxt
            for v in g.nodes:
                assert trace.values[v][t] == pytest.approx(expect[v], abs=1e-12)


class TestAttack:
    def witness(self, g, f=1) -> Partition:
        report = check_partition_condition(g, f, "async")
        assert report.witness is not None
        return report.witness

    def test_config_construction(self, k5):
        w = self.witness(k5)
        cfg = build_attack_config(k5, 1, w, 0.0, 1.0, max_rounds=20)
        for v in w.left:
            assert cfg.inputs[v] == 0.0
        for v in w.right:
            assert cfg.inputs[v] == 1.0
        assert cfg.fault_set == w.faulty
        assert cfg.byzantine.kind == "split"
        assert cfg.byzantine.params["m_minus"] == -1.0
        assert cfg.byzantine.params["M_plus"] == 2.0
        assert cfg.scheduler.kind == "adaptive-delay"

    def test_stasis_is_exact(self, k5):
        w = self.witness(k5)
        cfg = build_attack_config(k5, 1, w, 0.0, 1.0, max_rounds=60)
        trace = run_simulation(cfg)
        assert trace.outcome == "max-rounds-hit"
        for v in w.left:
            assert set(trace.values[v]) == {0.0}
        for v in w.right:
            assert set(trace.values[v]) == {1.0}
        assert set(trace.spreads) == {1.0}

    def test_metrics_spread_constant(self, k5):
        cfg = build_attack_config(k5, 1, self.witness(k5), 0.0, 1.0, max_rounds=30)
        metrics = trace_metrics(run_simulation(cfg))
        assert set(metrics.spreads) == {1.0}
        assert metrics.first_converged_round is None

    def test_withheld_messages_are_released_stale(self, k5):
        # Finite-delay contract: the adversary defers cross-side traffic but
        # must deliver it; those deliveries arrive after the receiver moved on.
        w = self.witness(k5)
        cfg = build_attack_config(k5, 1, w, 0.0, 1.0, max_rounds=10)
        trace = run_simulation(cfg)
        stale_seen = 0
        for d in trace.deliveries:
            if d.receiver in w.left | w.right:
                cross = (
                    d.sender in (w.center | w.right)
                    if d.receiver in w.left
                    else d.sender in (w.left | w.center)
                )
                if cross and d.tag < len(trace.values[d.receiver]) - 1:
                    stale_seen += 1
        assert stale_seen > 0

    def test_partition_must_violate(self, k6):
        good = Partition(frozenset(), frozenset({0, 1}), frozenset({2}), frozenset({3, 4, 5}))
        with pytest.raises(ValueError, match="does not violate"):
            build_attack_config(k6, 1, good, 0.0, 1.0)

    def test_m_below_M_required(self, k5):
        with pytest.raises(ValueError, match="m < M"):
            build_attack_config(k5, 1, self.witness(k5), 1.0, 0.0)

    def test_attack_without_faulty_nodes(self):
        # A violating partition with empty F: scheduling alone blocks
        # progress.  Two complete 5-cliques with only two cross in-edges per
        # node keep every in-degree at 3f+1 yet starve both sides.
        left, right = frozenset(range(5)), frozenset(range(5, 10))
        edges = [(i, j) for i in left for j in left if i != j]
        edges += [(i, j) for i in right for j in right if i != j]
        edges += [(u, v) for v in left for u in (5, 6)]
        edges += [(u, v) for v in right for u in (0, 1)]
        g = Digraph(10, edges)
        w = Partition(frozenset(), left, frozenset(), right)
        cfg = build_attack_config(g, 1, w, 0.0, 1.0, max_rounds=15)
        trace = run_simulation(cfg)
        assert cfg.byzantine is None
        assert set(trace.spreads) == {1.0}
        assert all(set(trace.values[v]) == {0.0} for v in left)
        assert all(set(trace.values[v]) == {1.0} for v in right)


class TestTraceMetrics:
    def test_constant_inputs(self):
        cfg = k6_config(inputs=(0.25,) * 6, epsilon=0.0)
        metrics = trace_metrics(run_simulation(cfg))
        assert metrics.first_converged_round == 0
        assert metrics.spreads == (0.0,)
        assert metrics.all_valid

    def test_two_node_spread_sequence(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        cfg = SimConfig(
            graph=g, f=0, fault_set=frozenset(), inputs=(0.0, 1.0),
            scheduler=SchedulerSpec("random"), seed=5, max_rounds=10, epsilon=0.0,
        )
        metrics = trace_metrics(run_simulation(cfg), epsilon=1e-12)
        assert metrics.spreads[0] == 1.0
        assert metrics.spreads[1] == 0.0
        assert metrics.first_converged_round == 1


class TestCsvExport:
    def test_roundtrip(self, tmp_path, k5):
        report = check_partition_condition(k5, 1, "async")
        cfg = build_attack_config(k5, 1, report.witness, 0.0, 1.0, max_rounds=8)
        trace = run_simulation(cfg)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, str(out))
        values = read_trace_csv(str(out))
        assert values == trace.values

    def test_metrics_csv_columns(self, tmp_path):
        cfg = k6_config()
        trace = run_simulation(cfg)
        out = tmp_path / "m.csv"
        write_metrics_csv(trace, str(out))
        header, first = out.read_text().splitlines()[:2]
        assert header == "round,U,mu,spread"
        assert first.startswith("0,")

    def test_csv_bytes_reproducible(self, tmp_path):
        cfg = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("random", {}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(run_simulation(cfg), str(a))
        write_trace_csv(run_simulation(cfg), str(b))
        assert a.read_bytes() == b.read_bytes()
