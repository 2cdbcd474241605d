from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import random
import stat
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from byztrim import simnet
from byztrim._inputs import FLOAT_MAX
from byztrim.conditions import Partition, check_partition_condition
from byztrim.digraph import Digraph
from byztrim.protocol import RoundMessage
from byztrim.simnet import (
    AdaptiveDelayScheduler,
    ByzantineSpec,
    Delivery,
    DeliveryLog,
    FifoScheduler,
    RandomScheduler,
    SchedulerSpec,
    SimConfig,
    SimulationError,
    SynchronousScheduler,
    Trace,
    build_attack_config,
    byzantine_values,
    run_simulation,
    trace_metrics,
    read_trace_csv,
    value_levels,
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

    @pytest.mark.parametrize("fault_set", [(5,), [5]])
    def test_fault_set_must_be_a_set(self, fault_set):
        cfg = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("silent"))
        dataclasses.replace(cfg, fault_set={5}).validate()
        with pytest.raises(ValueError, match="fault_set must be a set or frozenset"):
            dataclasses.replace(cfg, fault_set=fault_set).validate()

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
            ("inputs", [10**400] + [0.0] * 5, "input must be a finite number"),
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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("graph"), "missing 'graph'"),
            (lambda d: d.pop("f"), "missing 'f'"),
            (lambda d: d.pop("inputs"), "missing 'inputs'"),
            (lambda d: d.pop("scheduler"), "missing 'scheduler'"),
            (lambda d: d.update(scheduler=None), "missing 'scheduler'"),
            (lambda d: d.update(graph=None), "missing 'graph'"),
            (lambda d: d["scheduler"].pop("kind"), "scheduler is missing 'kind'"),
            (lambda d: d["byzantine"].pop("kind"), "byzantine is missing 'kind'"),
            (lambda d: d.update(rounds=10), "config has unknown field\\(s\\) 'rounds'"),
            (lambda d: d.update(sed=1, epsilom=0.1), "unknown field\\(s\\) 'epsilom', 'sed'"),
            (lambda d: d["scheduler"].update(seed=3), "scheduler has unknown field\\(s\\) 'seed'"),
            (lambda d: d.update(scheduler="random"), "scheduler must be a JSON object"),
            (lambda d: d["byzantine"].update(params=[1]), "byzantine behavior params must be a JSON object"),
            (lambda d: d.update(inputs=0.5), "inputs must be a list"),
            (lambda d: d.update(fault_set=5), "fault_set must be a list"),
            (lambda d: d.update(fault_set=[4, 5]), "exceeds f"),
        ],
    )
    def test_json_rejects_missing_or_unknown_field(self, edit, message):
        d = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("random", {})).to_json_dict()
        edit(d)
        with pytest.raises(ValueError, match=message):
            SimConfig.from_json_dict(d)

    @pytest.mark.parametrize(
        "section, spec, message",
        [
            ("byzantine", {"kind": "split", "params": {}}, "missing param\\(s\\) 'm', 'M'"),
            ("byzantine", {"kind": "split", "params": {"m": 0, "M": 1, "mid": 0.5}}, "unknown param\\(s\\) 'mid'"),
            ("byzantine", {"kind": "split", "params": {"m": 0, "M": "1"}}, "'M' must be a finite number"),
            ("byzantine", {"kind": "split", "params": {"m": 0, "M": 1, "left": [0.0]}}, "'left' entry must be an integer"),
            ("byzantine", {"kind": "split", "params": {"m": 0, "M": 1, "right": [6]}}, "entry 6 is not a node"),
            ("byzantine", {"kind": "identical-wrong", "params": {}}, "missing param\\(s\\) 'value'"),
            ("byzantine", {"kind": "identical-wrong", "params": {"value": float("inf")}}, "finite number"),
            ("byzantine", {"kind": "random", "params": {"low": float("nan")}}, "'low' must be a finite number"),
            ("byzantine", {"kind": "random", "params": {"high": True}}, "'high' must be a finite number"),
            ("byzantine", {"kind": "silent", "params": {"value": 1.0}}, "unknown param\\(s\\) 'value'"),
            ("byzantine", {"kind": "gaslight"}, "unknown byzantine behavior 'gaslight'"),
            ("scheduler", {"kind": "adaptive-delay", "params": {"left": 3}}, "must be a list of node ids"),
            ("scheduler", {"kind": "adaptive-delay", "params": {"right": [True]}}, "'right' entry must be an integer"),
            ("scheduler", {"kind": "adaptive-delay", "params": {"center": [-1]}}, "entry -1 is not a node"),
            ("scheduler", {"kind": "adaptive-delay", "params": {"middle": []}}, "unknown param\\(s\\) 'middle'"),
            ("scheduler", {"kind": "random", "params": {"seed": 3}}, "unknown param\\(s\\) 'seed'"),
            ("scheduler", {"kind": "psychic"}, "unknown scheduler 'psychic'"),
            # Partition sides are disjoint: no node in two node lists (or twice in one).
            (
                "scheduler",
                {"kind": "adaptive-delay", "params": {"left": [0, 1], "right": [1, 2, 3], "center": [0]}},
                "scheduler 'adaptive-delay' lists node\\(s\\) 0, 1 more than once",
            ),
            (
                "byzantine",
                {"kind": "split", "params": {"m": 0, "M": 1, "left": [2, 4], "right": [3, 4]}},
                "byzantine behavior 'split' lists node\\(s\\) 4 more than once",
            ),
            ("scheduler", {"kind": "adaptive-delay", "params": {"left": [2, 2]}}, "lists node\\(s\\) 2 more than once"),
            ("scheduler", {"kind": ["random"]}, "scheduler kind must be a string, got \\['random'\\]"),
            ("byzantine", {"kind": 3}, "byzantine behavior kind must be a string, got 3"),
            ("byzantine", {"kind": "split", "params": {"m": 0, "M": 1, "center": [4]}}, "unknown param\\(s\\) 'center'"),
            # Random.uniform draws low + (high - low) * random(): the difference must be finite.
            (
                "byzantine",
                {"kind": "random", "params": {"low": -1e308, "high": 1e308}},
                "'random' needs a finite high - low, got low=-1e\\+308, high=1e\\+308",
            ),
            ("byzantine", {"kind": "random", "params": {"low": 1.7e308, "high": -1e308}}, "needs a finite high - low"),
        ],
    )
    def test_json_rejects_bad_params(self, section, spec, message):
        d = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("silent")).to_json_dict()
        d[section] = spec
        with pytest.raises(ValueError, match=message):
            SimConfig.from_json(json.dumps(d))

    def test_bad_params_rejected_before_a_run(self):
        cfg = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("split", {"m": 0.0}))
        with pytest.raises(ValueError, match="missing param\\(s\\) 'M'"):
            run_simulation(cfg)
        cfg = k6_config(scheduler=SchedulerSpec("adaptive-delay", {"left": [0, 9]}))
        with pytest.raises(ValueError, match="entry 9 is not a node"):
            run_simulation(cfg)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(inputs=(float("nan"),) + (0.0,) * 5), "input must be a finite number"),
            (dict(inputs=(float("inf"),) + (0.0,) * 5), "input must be a finite number"),
            (dict(epsilon=float("nan")), "epsilon must be a finite number"),
            (dict(epsilon=10**400), "epsilon must be a finite number"),
            (dict(seed=1.5), "seed must be an integer"),
            (dict(max_rounds=2.5), "max_rounds must be an integer"),
            (dict(f=True), "f must be an integer"),
            (dict(fault_set=frozenset({1.0})), "fault_set entry must be an integer"),
            (dict(scheduler=SchedulerSpec(["x"])), "scheduler kind must be a string"),
            (dict(scheduler=SchedulerSpec("adaptive-delay", {"left": [0], "right": [0]})), "node\\(s\\) 0 more than once"),
            # An update sums up to n values: beyond FLOAT_MAX/(n+1) a sum could overflow.
            (dict(inputs=(1e308,) + (0.0,) * 5), "input magnitude must be at most FLOAT_MAX/\\(n\\+1\\)"),
            (dict(inputs=(0.0,) * 5 + (-FLOAT_MAX / 6,)), "input magnitude must be at most"),
        ],
    )
    def test_python_built_config_checked_like_json(self, edit, message):
        cfg = k6_config(behavior=ByzantineSpec("silent"), **edit)
        with pytest.raises(ValueError, match=message):
            run_simulation(cfg)

    def test_validate_returns_checked_params(self):
        cfg = k6_config(
            fault=frozenset({5}),
            behavior=ByzantineSpec("split", {"m": 0, "M": 1, "left": [0, 1]}),
            scheduler=SchedulerSpec("adaptive-delay", {"left": [0, 1], "right": [3]}),
        )
        scheduler, byzantine = cfg.validate()
        assert scheduler == {"left": (0, 1), "right": (3,)}
        assert byzantine == {"m": 0.0, "M": 1.0, "left": (0, 1)}
        assert all(type(byzantine[name]) is float for name in ("m", "M"))
        assert k6_config().validate() == ({}, None)

    def test_inputs_at_the_bound_stay_finite(self):
        # Three copies of FLOAT_MAX/3 sum to inf in float; inputs within
        # FLOAT_MAX/(n+1) never overflow a sum or a spread, and a faulty
        # node's extreme values are trimmed.
        bound = FLOAT_MAX / 7
        for sched in ("random", "fifo", "synchronous"):
            trace = run_simulation(k6_config(
                fault=frozenset({5}), behavior=ByzantineSpec("identical-wrong", {"value": FLOAT_MAX}),
                inputs=(bound, bound, -bound, bound, -bound / 3, 0.0), scheduler=SchedulerSpec(sched),
                max_rounds=30, epsilon=0.0,
            ))
            assert trace.spread(0) == 2 * bound
            assert all(abs(s) <= FLOAT_MAX for s in trace.spreads)
            assert all(abs(x) <= bound for vs in trace.values.values() for x in vs)

    def test_attack_config_roundtrips(self, k5):
        w = check_partition_condition(k5, 1, "async").witness
        cfg = build_attack_config(k5, 1, w, 0.0, 1.0, max_rounds=20)
        assert list(cfg.byzantine.params) == ["m", "M", "m_minus", "M_plus", "left", "right"]
        assert SimConfig.from_json(cfg.to_json()) == cfg

    def test_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            SimConfig.from_json("[1, 2]")

    def test_json_defaults_optional_fields(self):
        d = k6_config().to_json_dict()
        for name in ("fault_set", "byzantine", "seed", "max_rounds", "epsilon"):
            del d[name]
        cfg = SimConfig.from_json_dict(d)
        assert (cfg.fault_set, cfg.byzantine, cfg.seed, cfg.max_rounds, cfg.epsilon) == (
            frozenset(), None, 0, 1000, 0.0
        )


def faulty_config(behavior: ByzantineSpec, node: int, out_nbrs: tuple[int, ...], seed: int = 0) -> SimConfig:
    """A config whose one faulty node `node` has exactly the out-neighbours `out_nbrs`."""
    n = max(node, *out_nbrs) + 1
    return SimConfig(
        graph=Digraph(n, [(node, dest) for dest in out_nbrs]), f=1, fault_set=frozenset({node}),
        inputs=(0.0,) * n, scheduler=SchedulerSpec("random"), byzantine=behavior, seed=seed,
    )


class TestByzantineValues:
    def test_split_targets_sides(self):
        spec = ByzantineSpec(
            "split", {"m": 0.0, "M": 1.0, "m_minus": -1.0, "M_plus": 2.0, "left": [0], "right": [1]}
        )
        vals = byzantine_values(faulty_config(spec, 9, (0, 1, 2)), 9, 0)
        assert vals == {0: -1.0, 1: 2.0, 2: 0.5}

    def test_identical_wrong(self):
        cfg = faulty_config(ByzantineSpec("identical-wrong", {"value": 7.0}), 0, (1, 2, 3))
        assert byzantine_values(cfg, 0, 3) == {1: 7.0, 2: 7.0, 3: 7.0}

    def test_random_is_seed_stable(self):
        cfg = faulty_config(ByzantineSpec("random", {"low": -1.0, "high": 1.0}), 4, (1, 2), seed=123)
        a = byzantine_values(cfg, 4, 7)
        b = byzantine_values(cfg, 4, 7)
        assert a == b
        assert byzantine_values(cfg, 4, 8) != a
        assert byzantine_values(dataclasses.replace(cfg, seed=124), 4, 7) != a

    def test_random_range_must_be_finite(self):
        spec = ByzantineSpec("random", {"low": -1e308, "high": 1e308})
        with pytest.raises(ValueError, match="needs a finite high - low, got low=-1e\\+308, high=1e\\+308"):
            byzantine_values(faulty_config(spec, 5, (0, 1, 2, 3, 4)), 5, 0)
        # A finite difference keeps the draw as it is, however wide.
        cfg = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("random", {"low": -8e307, "high": 8e307}))
        sent = byzantine_values(cfg, 5, 0)
        assert len(sent) == 5 and all(abs(x) <= 8e307 for x in sent.values())
        trace = run_simulation(dataclasses.replace(cfg, max_rounds=20, epsilon=0.0))
        assert all(abs(d.value) <= 8e307 for d in trace.deliveries)

    def test_silent_sends_nothing(self):
        assert byzantine_values(faulty_config(ByzantineSpec("silent"), 0, (1, 2)), 0, 0) == {}

    def test_unknown_behavior(self):
        with pytest.raises(ValueError, match="unknown byzantine behavior"):
            byzantine_values(faulty_config(ByzantineSpec("gaslight"), 0, (1,)), 0, 0)

    def test_matches_what_the_run_sends(self):
        cfg = k6_config(fault=frozenset({5}), behavior=ByzantineSpec("random", {"low": -1, "high": 2}))
        sent = [d for d in run_simulation(cfg).deliveries if d.sender == 5]
        assert len(sent) > 20
        for d in sent:
            assert d.value == byzantine_values(cfg, 5, d.tag)[d.receiver]

    def test_side_node_ids_are_range_checked(self):
        spec = ByzantineSpec("split", {"m": 0.0, "M": 1.0, "left": [7]})
        with pytest.raises(ValueError, match="entry 7 is not a node of the graph"):
            byzantine_values(faulty_config(spec, 0, (1, 2)), 0, 0)

    def test_node_must_be_faulty(self):
        cfg = faulty_config(ByzantineSpec("identical-wrong", {"value": 7.0}), 0, (1, 2))
        with pytest.raises(ValueError, match="node 1 is not in the fault set"):
            byzantine_values(cfg, 1, 0)


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
        assert list(trace.deliveries) == []

    def test_validity_under_random_byzantine(self):
        cfg = k6_config(
            fault=frozenset({5}), behavior=ByzantineSpec("random", {"low": -10, "high": 10})
        )
        trace = run_simulation(cfg)
        u, mu, validity = value_levels(trace.values)
        assert trace.outcome == "converged"
        assert trace_metrics(trace).all_valid
        assert trace_metrics(trace).validity_per_round == tuple(validity)
        assert u == trace.u_levels
        assert mu == trace.mu_levels

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
        assert list(a.deliveries) == list(b.deliveries)
        assert a.u_levels == b.u_levels and a.mu_levels == b.mu_levels

    def test_seed_changes_schedule(self):
        cfg_a = k6_config(seed=1)
        cfg_b = dataclasses.replace(cfg_a, seed=2)
        assert list(run_simulation(cfg_a).deliveries) != list(run_simulation(cfg_b).deliveries)

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


def two_cluster_attack(max_rounds: int) -> tuple[SimConfig, Partition]:
    """Two complete 5-cliques with only two cross in-edges per node: every
    in-degree is 3f+1 for f=1, yet the empty-F cut starves both sides."""
    left, right = frozenset(range(5)), frozenset(range(5, 10))
    edges = [(i, j) for i in left for j in left if i != j]
    edges += [(i, j) for i in right for j in right if i != j]
    edges += [(u, v) for v in left for u in (5, 6)]
    edges += [(u, v) for v in right for u in (0, 1)]
    w = Partition(frozenset(), left, frozenset(), right)
    return build_attack_config(Digraph(10, edges), 1, w, 0.0, 1.0, max_rounds=max_rounds), w


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

    @pytest.mark.parametrize("n, f", [(5, 1), (10, 2)])
    def test_pool_withholds_the_models_lag(self, n, f):
        # The adaptive-delay row builds its pool with the lag of its timing
        # model (f asynchronously): min(lag, |cross|) senders per side node.
        g = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        w = self.witness(g, f)
        cfg = build_attack_config(g, f, w, 0.0, 1.0, max_rounds=20)
        _, _, make_pool, model = simnet._SCHEDULERS["adaptive-delay"]
        pool = make_pool(cfg, cfg.validate()[0])
        held = {v: frozenset(s for s, vs in pool.holders.items() if v in vs) for v in w.left | w.right}
        assert model.lag(f) == f
        assert held == oracles.naive_withheld(g, model.lag(f), w.left, w.center, w.right)
        assert not AdaptiveDelayScheduler(g, 0, w.left, w.center, w.right).holders

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
        trace = run_simulation(cfg)
        assert set(trace.spreads) == {1.0}
        assert trace.converged_round is None
        assert trace_metrics(trace).all_valid

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

    def test_right_side_must_violate(self):
        # No left node has a cross in-edge; right nodes 4 and 5 have 2f+1 = 3
        # (from 0, 1, 2) and right node 3 has f+1 = 2, below the async threshold.
        edges = [(u, v) for v in (4, 5) for u in (0, 1, 2)] + [(0, 3), (1, 3)]
        w = Partition(frozenset(), frozenset({0, 1, 2}), frozenset(), frozenset({3, 4, 5}))
        with pytest.raises(ValueError, match="right node 4 has >= 3 cross in-edges"):
            build_attack_config(Digraph(6, edges), 1, w, 0.0, 1.0)

    def test_huge_levels(self, k5):
        # The mid level of m=1e308, M=1.7e308 is finite although m + M is
        # not: as the center node's input and as what the faulty node sends it.
        split = ByzantineSpec("split", {"m": 1e308, "M": 1.7e308, "left": [1], "right": [3]})
        sent = byzantine_values(faulty_config(split, 0, (1, 2, 3)), 0, 0)
        assert sent[1] == 1e308 and 1e308 < sent[2] < 1.7e308 and sent[3] == 1.7e308
        # Inputs that large could overflow an update's sum, so no attack
        # config holds them.
        w = Partition(frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}))
        with pytest.raises(ValueError, match="input magnitude"):
            build_attack_config(complete(4), 1, w, 1e308, 1.7e308)
        with pytest.raises(ValueError, match="input magnitude"):
            build_attack_config(k5, 1, self.witness(k5), 0.0, 1e308)

    @pytest.mark.parametrize(
        "m, big_m, max_rounds, message",
        [
            (float("nan"), 1.0, 10, "input must be a finite number, got nan"),
            (0.0, float("inf"), 10, "input must be a finite number, got inf"),
            (True, 2.0, 10, "param 'm' must be a finite number, got True"),
            (0.0, 1.0, 0, "max_rounds must be >= 1, got 0"),
        ],
    )
    def test_config_checked_at_build(self, k5, m, big_m, max_rounds, message):
        # What run_simulation would reject fails here, before a config (or
        # its JSON, with a NaN token) exists.
        with pytest.raises(ValueError, match=message):
            build_attack_config(k5, 1, self.witness(k5), m, big_m, max_rounds=max_rounds)

    def test_boolean_levels_rejected_without_faulty_nodes(self):
        # Two disjoint K3s at f=1 violate with F empty; the level rule is the
        # one a faulty node's split behaviour applies.
        g = Digraph(6, [(i, j) for side in (range(3), range(3, 6)) for i in side for j in side if i != j])
        w = Partition(frozenset(), frozenset(range(3)), frozenset(), frozenset(range(3, 6)))
        assert build_attack_config(g, 1, w, 0.0, 1.0).byzantine is None
        with pytest.raises(ValueError, match="param 'm' must be a finite number, got False"):
            build_attack_config(g, 1, w, False, True)

    def test_m_below_M_required(self, k5):
        with pytest.raises(ValueError, match="m < M"):
            build_attack_config(k5, 1, self.witness(k5), 1.0, 0.0)

    def test_attack_without_faulty_nodes(self):
        # A violating partition with empty F: scheduling alone blocks progress.
        cfg, w = two_cluster_attack(max_rounds=15)
        trace = run_simulation(cfg)
        assert cfg.byzantine is None
        assert set(trace.spreads) == {1.0}
        assert all(set(trace.values[v]) == {0.0} for v in w.left)
        assert all(set(trace.values[v]) == {1.0} for v in w.right)


class TestTraceMetrics:
    def test_constant_inputs(self):
        cfg = k6_config(inputs=(0.25,) * 6, epsilon=0.0)
        trace = run_simulation(cfg)
        assert trace.converged_round == 0
        assert trace.spreads == [0.0]
        assert trace_metrics(trace).validity_per_round == (True,)

    def test_two_node_spread_sequence(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        cfg = SimConfig(
            graph=g, f=0, fault_set=frozenset(), inputs=(0.0, 1.0),
            scheduler=SchedulerSpec("random"), seed=5, max_rounds=10, epsilon=0.0,
        )
        trace = run_simulation(cfg)
        assert trace.spreads[0] == 1.0
        assert trace.spreads[1] == 0.0
        assert trace.converged_round == 1
        assert trace_metrics(trace).validity_per_round == (True, True)

    def test_rising_maximum_is_invalid(self):
        trace = run_simulation(k6_config())
        trace.u_levels[2] = trace.u_levels[1] + 1.0
        assert trace_metrics(trace).validity_per_round[:4] == (True, True, False, True)
        assert not trace_metrics(trace).all_valid


# Pieces of malformed cells: signs, digit-group underscores, whitespace
# (U+3000 is an ideographic space), non-ASCII digits, the non-finite
# spellings and line breaks, which need quotes.
_CELL_PIECES = (
    "0", "1", "7", "+", "-", "_", ".", "e", "e999", " ", "\t", "\u3000", "\u0661", "\u0967", "inf", "nan", "\n", "\r\n"
)


@st.composite
def _trace_csv_text(draw) -> str:
    """A trace CSV: the three columns in any order, perhaps with an extra
    one or a second column named as one of them; rows for a shuffled grid
    of (round, nodeId) pairs, perhaps with pairs that repeat or leave a gap
    and rows cut short; a cell now and then replaced by pieces of malformed
    text; cells quoted at random (always when they hold a line break);
    blank lines anywhere."""
    header = draw(st.permutations(["round", "nodeId", "value"]))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, 3)), draw(st.sampled_from(["extra", "extra", "round", "nodeId", "value"])))
    grid = [(t, v) for t in range(draw(st.integers(0, 3))) for v in range(draw(st.integers(1, 3)))]
    grid += draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=2))
    junk = st.lists(st.sampled_from(_CELL_PIECES), max_size=4).map("".join)
    rows = [header]
    for t, v in draw(st.permutations(grid)):
        cells = {"round": str(t), "nodeId": str(v), "value": repr(draw(st.floats())), "extra": "x"}
        row = [draw(junk) if draw(st.integers(0, 7)) == 7 else cells[name] for name in header]
        rows.append(row[: draw(st.integers(0, len(row)))] if draw(st.integers(0, 9)) == 9 else row)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in rows:
        if draw(st.integers(0, 4)) == 4:
            lines.append("")
        quoted = [f'"{cell}"' if "\n" in cell or draw(st.integers(0, 3)) == 3 else cell for cell in row]
        lines.append(",".join(quoted))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def _read_outcome(read, path: str):
    try:
        return read(path)
    except ValueError as exc:
        return ("ValueError", str(exc))


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

    @pytest.mark.parametrize("crafted", [False, True])
    def test_writers_match_csv_writer(self, tmp_path, crafted):
        """Both writers build their text by hand; it must be what csv.writer
        writes for the same rows (the golden digests cover the trace CSV of
        a few runs only, and no digest covers the metrics CSV)."""
        trace = run_simulation(k6_config(fault=frozenset({5}), behavior=ByzantineSpec("random", {})))
        if crafted:
            # Reprs with exponents, signs, long digit strings; ragged rounds.
            odd = [0.1, -0.0, 1e-300, 2.5e300, -1.0000000000000002, 123456789.125, 1e16]
            values = {0: odd, 3: odd[:4], 1: odd[::-1], 7: []}
            trace = Trace(trace.config, values, odd, odd[::-1], DeliveryLog([], []), "max-rounds-hit", None)

        def reference(path, header, rows):
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(rows)

        longest = max(map(len, trace.values.values()))
        reference(
            tmp_path / "trace-ref.csv",
            ["round", "nodeId", "value"],
            [
                [t, v, repr(trace.values[v][t])]
                for t in range(longest)
                for v in sorted(trace.values)
                if t < len(trace.values[v])
            ],
        )
        reference(
            tmp_path / "metrics-ref.csv",
            ["round", "U", "mu", "spread"],
            [
                [t, repr(trace.u_levels[t]), repr(trace.mu_levels[t]), repr(trace.spread(t))]
                for t in range(len(trace.u_levels))
            ],
        )
        write_trace_csv(trace, str(tmp_path / "trace.csv"))
        write_metrics_csv(trace, str(tmp_path / "metrics.csv"))
        for name in ("trace", "metrics"):
            ref = (tmp_path / f"{name}-ref.csv").read_bytes()
            assert (tmp_path / f"{name}.csv").read_bytes() == ref

    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        long_trace = run_simulation(k6_config(epsilon=1e-9))
        short_trace = run_simulation(k6_config(epsilon=1e-2))
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        for write in (write_trace_csv, write_metrics_csv):
            write(short_trace, str(fresh))
            write(long_trace, str(reused))
            assert reused.stat().st_size > fresh.stat().st_size
            write(short_trace, str(reused))
            assert reused.read_bytes() == fresh.read_bytes()

    def test_write_to_devnull(self):
        trace = run_simulation(k6_config())
        write_trace_csv(trace, os.devnull)
        write_metrics_csv(trace, os.devnull)

    def test_new_file_gets_the_mode_of_open_w(self, tmp_path):
        trace = run_simulation(k6_config())
        with open(tmp_path / "reference.csv", "w"):
            pass
        write_trace_csv(trace, str(tmp_path / "trace.csv"))
        write_metrics_csv(trace, str(tmp_path / "metrics.csv"))
        expected = stat.S_IMODE((tmp_path / "reference.csv").stat().st_mode)
        for name in ("trace.csv", "metrics.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == expected

    def test_read_finds_columns_by_name_and_skips_blank_lines(self, tmp_path):
        out = tmp_path / "t.csv"
        out.write_text("value,extra,round,nodeId\n0.5,x,0,1\n\n0.25,y,1,1\n-1.0,z,0,4\n")
        assert read_trace_csv(str(out)) == {1: [0.5, 0.25], 4: [-1.0]}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nodeId,round\n0,0\n", "missing column\\(s\\) 'value'"),
            ("", "missing column\\(s\\) 'round', 'nodeId', 'value'"),
            # Read by the first `round` column, this would load as {0: [0.5, 0.25]}.
            ("round,round,nodeId,value\n0,5,0,0.5\n1,6,0,0.25\n", "names column\\(s\\) 'round' more than once"),
            ("value,nodeId,round,value,nodeId\n", "names column\\(s\\) 'nodeId', 'value' more than once"),
            ("round,nodeId,value\n0,0,0.5\n\n1,0\n", "line 4 has 2 field\\(s\\), need 3"),
            ("round,nodeId,value\n0,0,0.5\n2,0,0.5\n", "not contiguous"),
            ("round,nodeId,value\n0,0,0.5\n1,0,0.5\n0,0,0.25\n", "line 4 repeats round 0 of node 0"),
            # Python's int() and float() accept digit-group underscores and
            # surrounding whitespace; a trace CSV cell does not.
            ("round,nodeId,value\n0,1_0,1.0\n", "line 2 column 'nodeId' is not an integer: '1_0'"),
            ("round,nodeId,value\n1_0,0,1.0\n", "line 2 column 'round' is not an integer: '1_0'"),
            ("round,nodeId,value\n0,0,1_000.5\n", "line 2 column 'value' is not a number: '1_000.5'"),
            ("round,nodeId,value\n0,0,0.5\n0, 1 ,1.0\n", "line 3 column 'nodeId' is not an integer: ' 1 '"),
            ("round,nodeId,value\n 0,1,1.0\n", "line 2 column 'round' is not an integer: ' 0'"),
            ("round,nodeId,value\n0,1,1.0\t\n", "line 2 column 'value' is not a number"),
            ("round,nodeId,value\n0,1,\u30001.0\n", "line 2 column 'value' is not a number"),
            ('round,nodeId,value\n0,"1\n",1.0\n', "line 3 column 'nodeId' is not an integer"),
            # int() and float() also read non-ASCII digits, and int() a sign.
            ("round,nodeId,value\n0,\u0661,1.0\n", "line 2 column 'nodeId' is not an integer: '\u0661'"),
            ("round,nodeId,value\n0,+0,0.5\n", "line 2 column 'nodeId' is not an integer: '\\+0'"),
            ("round,nodeId,value\n+1,0,0.5\n", "line 2 column 'round' is not an integer: '\\+1'"),
            ("round,nodeId,value\n-0,0,0.5\n", "line 2 column 'round' is not an integer: '-0'"),
            ("round,nodeId,value\n0,0,\u0661.5\n", "line 2 column 'value' is not a number: '\u0661.5'"),
        ],
    )
    def test_read_rejects_malformed(self, tmp_path, text, message):
        out = tmp_path / "t.csv"
        out.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_trace_csv(str(out))

    @settings(max_examples=300, deadline=None)
    @given(text=_trace_csv_text())
    def test_read_matches_naive_reader(self, tmp_path_factory, text):
        """read_trace_csv against oracles.naive_read_trace_csv: the same
        dict, or a ValueError with the same message."""
        out = tmp_path_factory.getbasetemp() / "naive-reader.csv"
        out.write_bytes(text.encode())
        expected = _read_outcome(oracles.naive_read_trace_csv, str(out))
        assert _read_outcome(read_trace_csv, str(out)) == expected


def _adaptive_split_k7() -> SimConfig:
    """Left nodes 0-2 withhold faulty node 3, right nodes 3-6 withhold node
    0; node 3 splits its out-neighbours into the runs (0) low, (1) high,
    (2) low, (4) high, (5, 6) mid, so its first three runs go to receivers
    that withhold it and the last two, one of them to two receivers, to
    receivers that do not.  The one golden config whose withheld sender is a
    faulty `split` node (an attack's faulty nodes are never withheld)."""
    return SimConfig(
        graph=complete(7), f=1, fault_set=frozenset({3}), inputs=(0.0, 0.1, 0.2, 0.6, 0.7, 0.8, 0.9),
        scheduler=SchedulerSpec("adaptive-delay", {"left": [0, 1, 2], "right": [3, 4, 5, 6]}),
        byzantine=ByzantineSpec("split", {"m": 0.0, "M": 1.0, "left": [0, 2], "right": [1, 4]}),
        max_rounds=27,
    )


def _golden_config(kind: str) -> SimConfig:
    if kind == "adaptive-k5":
        k5 = complete(5)
        w = check_partition_condition(k5, 1, "async").witness
        return build_attack_config(k5, 1, w, 0.0, 1.0, max_rounds=60)
    if kind == "adaptive-two-cluster":
        return two_cluster_attack(max_rounds=15)[0]
    if kind == "adaptive-split-k7":
        return _adaptive_split_k7()
    # Faulty node 7 of K8 splits its out-neighbours 0..6 into the runs
    # (0) low, (1) high, (2) mid, (3, 4) low, (5) high, (6) mid.
    split = ByzantineSpec("split", {"m": 0.0, "M": 1.0, "left": [0, 3, 4], "right": [1, 5]})
    sched, n, behavior, seed, max_rounds = {
        "random": ("random", 8, ByzantineSpec("random", {"low": -1.0, "high": 2.0}), 7, 40),
        "fifo": ("fifo", 8, ByzantineSpec("identical-wrong", {"value": 3.0}), 8, 40),
        "synchronous": ("synchronous", 6, ByzantineSpec("random", {"low": -1.0, "high": 2.0}), 9, 20),
        "split-random": ("random", 8, split, 10, 40),
        "split-fifo": ("fifo", 8, split, 11, 40),
        "split-synchronous": ("synchronous", 8, split, 12, 20),
        "silent-fifo": ("fifo", 8, ByzantineSpec("silent"), 13, 40),
    }[kind]
    rng = random.Random(seed)
    return SimConfig(
        graph=complete(n), f=1, fault_set=frozenset({n - 1}),
        inputs=tuple(rng.random() for _ in range(n)), scheduler=SchedulerSpec(sched),
        byzantine=behavior, seed=seed, max_rounds=max_rounds, epsilon=0.0,
    )


class TestGoldenDeliveryLog:
    """Pinned SHA-256 of repr(list(trace.deliveries)) followed by the trace
    CSV bytes, one fixed config per scheduler, and faulty runs of `split`
    and `silent` under the round-blind schedulers.  The first five digests
    were taken from the list-scanning schedulers that the message pools
    replaced, the faulty-run ones from one push per faulty destination, so
    a pool or a behaviour that delivers a different message, or in a
    different order, fails."""

    GOLDEN = {
        "random": (1475, "b9bad30093b9f64ae674d3137d1f79c2b7cd64edb364ff1bf39ff54fb4088ba4"),
        "fifo": (1261, "538ca446eb1c101005cb4c1f81cafa541b192b17b6fad75927b5621fbbc25402"),
        "synchronous": (450, "e9890037f4115f19f993736749357f5275a9736a9e158b6a32314a52258db242"),
        "adaptive-k5": (1199, "dd30c6aaea06eb115bbdebb6e8a2ad58f45af8ac8060ac50531833963c02cf4f"),
        "adaptive-two-cluster": (899, "0397c8306bedb546fc09703c8434e445364bcff1f3297d92c0061d0ec3191f33"),
        "adaptive-split-k7": (1133, "9c4a3c8abcedf3b7a60d0953056ebdc8f0fb4e8eb54cf9f747046b36007ceb8b"),
        "split-random": (1704, "1c25da95e4b3e1c26e806c62dc9ff5ddac474e815900246bfa6e74505acdcbea"),
        "split-fifo": (1022, "5f8449658b2b4a85fbbe63dd8cdd3282c339bfdb77d5d0aea629d755a07345e4"),
        "split-synchronous": (1119, "433aa2360ab7ff0032f46a7cd73c2b8d7cebc5b076ee454d97f3afd635f3dad9"),
        "silent-fifo": (1151, "b3fc616ed1bc0b3a1f3dc4ddf12636164a8668a8c695e5c0661a9d58023a1040"),
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_delivery_log_digest(self, tmp_path, kind):
        deliveries, digest = self.GOLDEN[kind]
        trace = run_simulation(_golden_config(kind))
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, str(out))
        assert len(trace.deliveries) == deliveries
        assert all(type(d) is Delivery for d in trace.deliveries)
        blob = repr(list(trace.deliveries)).encode() + out.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestDeliveryLog:
    """trace.deliveries keeps the popped destinations and messages as two
    columns; its length reads no entry, and iterating it builds the
    Delivery records they stand for."""

    @pytest.fixture(scope="class")
    def trace(self):
        return run_simulation(k6_config(fault=frozenset({5}), behavior=ByzantineSpec("random", {"low": -1, "high": 2})))

    def test_len_builds_no_record(self):
        # Entries that no record can be built from: len must not read them.
        assert len(DeliveryLog([None] * 3, [None] * 3)) == 3
        assert len(DeliveryLog([], [])) == 0

    def test_records(self, trace):
        log = trace.deliveries
        assert isinstance(log, DeliveryLog) and len(log) > 100
        records = list(log)
        assert all(type(d) is Delivery for d in records)
        assert [d.virtual_time for d in records] == list(range(1, len(log) + 1))
        for d, dest, msg in zip(records, log._receivers, log._messages, strict=True):
            assert d == Delivery(d.virtual_time, msg.sender, dest, msg.tag, msg.value)

    def test_retained_bytes_per_delivery(self):
        # A K10 f=2 attack: what the returned trace keeps, nearly all of it
        # the log, is two list slots per delivery plus each message's share
        # (one message per broadcast or `split` run).
        k10 = complete(10)
        config = build_attack_config(k10, 2, check_partition_condition(k10, 2, "async").witness, 0.0, 1.0, max_rounds=60)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run_simulation(config)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.deliveries) > 5_000
        assert retained / len(trace.deliveries) <= 48


def _drain(pool, pending: int, empty: type[Exception]) -> list:
    """Pop the `pending` messages a test counts in `pool`, then check that
    the pool holds no more: the next pop raises `empty`."""
    popped = [pool.pop() for _ in range(pending)]
    with pytest.raises(empty):
        pool.pop()
    return popped


class TestInlinedDraw:
    """RandomScheduler and FifoScheduler draw their index with getrandbits
    written out; it must pick what Random(seed).randrange(n) picks, for
    every n, powers of two and their neighbours included."""

    @staticmethod
    def _messages(count: int) -> list[tuple[int, RoundMessage]]:
        # One message per link, so every message is a fifo link head; the
        # i-th push is (destination count + i, message i).
        return [(count + i, RoundMessage(i, 0, float(i))) for i in range(count)]

    @pytest.mark.parametrize("kind", ["random", "fifo"])
    def test_pops_follow_randrange(self, kind):
        for seed in range(120):
            count = 300 if seed < 100 else 4100  # every n up to 300; then 4096 and 4097
            pool = RandomScheduler(seed) if kind == "random" else FifoScheduler(seed)
            expected = self._messages(count)
            for i, (dest, msg) in enumerate(expected):
                pool.push(i, (dest,), msg)
            ref = random.Random(seed)
            while len(expected) > (0 if count == 300 else 4090):
                assert pool.pop() == expected.pop(ref.randrange(len(expected)))
            _drain(pool, len(expected), IndexError)

    @pytest.mark.parametrize("kind", ["random", "fifo"])
    def test_empty_pool_pop_raises(self, kind):
        pool = RandomScheduler(1) if kind == "random" else FifoScheduler(1)
        with pytest.raises(IndexError):
            pool.pop()


class TestFaultyRuns:
    """A faulty node sends one push per run of its behaviour: a maximal
    stretch of consecutive out-neighbours sent the same message, in
    out-neighbour order, at consecutive sequence numbers."""

    @staticmethod
    def _faulty_pushes(monkeypatch, config: SimConfig) -> list[tuple[int, tuple[int, ...], RoundMessage]]:
        pushes = []
        push = RandomScheduler.push

        def recording(self, seq, dests, msg):
            pushes.append((seq, dests, msg))
            push(self, seq, dests, msg)

        monkeypatch.setattr(RandomScheduler, "push", recording)
        run_simulation(config)
        (faulty,) = config.fault_set
        return [p for p in pushes if p[2].sender == faulty]

    def test_split(self, monkeypatch):
        pushes = self._faulty_pushes(monkeypatch, _golden_config("split-random"))
        assert len(pushes) > 6 * 10
        for i in range(0, len(pushes), 6):
            broadcast = pushes[i : i + 6]
            assert [dests for _, dests, _ in broadcast] == [(0,), (1,), (2,), (3, 4), (5,), (6,)]
            assert [msg.value for _, _, msg in broadcast] == [-1.0, 2.0, 0.5, -1.0, 2.0, 0.5]
            assert len({msg.tag for _, _, msg in broadcast}) == 1
            assert [seq for seq, _, _ in broadcast] == [broadcast[0][0] + k for k in (0, 1, 2, 3, 5, 6)]

    @pytest.mark.parametrize("kind, runs", [("identical-wrong", [(0, 1, 2, 3, 4)]), ("random", [(k,) for k in range(5)])])
    def test_identical_wrong_and_random(self, monkeypatch, kind, runs):
        params = {"value": 3.0} if kind == "identical-wrong" else {}
        pushes = self._faulty_pushes(monkeypatch, k6_config(fault=frozenset({5}), behavior=ByzantineSpec(kind, params)))
        assert len(pushes) > 10 * len(runs)
        assert [dests for _, dests, _ in pushes] == runs * (len(pushes) // len(runs))


class TestBroadcastPush:
    """A fault-free node's broadcast is one push(seq, dests, msg) and a
    faulty node's one push per run of its behaviour.  To every pool one
    push and one push per destination are the same: the same pops, in the
    same order, or the same deadlock, under a stream of broadcasts (to the
    sender's out-neighbours or to a shuffled subset of them), round rises
    and pops."""

    @staticmethod
    def _pops(kind: str, per_destination: bool) -> list:
        g = complete(5)
        pool = {
            "random": lambda: RandomScheduler(3),
            "fifo": lambda: FifoScheduler(3),
            "synchronous": SynchronousScheduler,
            "adaptive-delay": lambda: AdaptiveDelayScheduler(g, 2, [0, 1], [], [2, 3, 4]),
        }[kind]()
        rng = random.Random(11)
        rounds = dict.fromkeys(range(5), 1)
        seq = 0
        pending = 0
        popped = []
        for step in range(120):
            if step < 80 and step % 4 < 2:
                sender = rng.randrange(5)
                dests = tuple(sorted(g.out_nbrs[sender]))
                if rng.random() < 0.4:
                    dests = tuple(rng.sample(dests, rng.randint(0, len(dests))))
                msg = RoundMessage(sender, rng.randrange(3), float(seq))
                if per_destination:
                    for i, dest in enumerate(dests, seq):
                        pool.push(i, (dest,), msg)
                else:
                    pool.push(seq, dests, msg)
                seq += len(dests)
                pending += len(dests)
            elif step % 4 == 2:
                v = rng.randrange(5)
                rounds[v] += 1
                pool.advanced(v, rounds[v])
            elif pending:
                try:
                    popped.append(pool.pop())
                except SimulationError:
                    popped.append("deadlock")
                else:
                    pending -= 1
        # Tags are below 3, so round 4 releases whatever adaptive-delay
        # still withholds; then every pending message must pop.
        for v in range(5):
            pool.advanced(v, max(rounds[v], 4))
        empty = SimulationError if kind == "adaptive-delay" else IndexError
        return popped + ["drained"] + _drain(pool, pending, empty)

    @pytest.mark.parametrize("kind", ["random", "fifo", "synchronous", "adaptive-delay"])
    def test_same_pops_for_one_push_and_per_destination_pushes(self, kind):
        whole = self._pops(kind, per_destination=False)
        split = self._pops(kind, per_destination=True)
        assert len(whole) >= 40
        assert whole == split


@st.composite
def _sim_config(draw) -> SimConfig:
    """A small run: every in-degree at least 3f+1 when f > 0 and any, zero
    included, when f = 0; any scheduler (adaptive sides drawn at random),
    any Byzantine kind, inputs with ties."""
    f = draw(st.sampled_from([0, 1, 1, 2]))
    n = draw(st.integers(3 * f + 2, 3 * f + 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = []
    for v in range(n):
        others = [u for u in range(n) if u != v]
        edges += [(u, v) for u in rng.sample(others, rng.randint(3 * f + 1 if f else 0, n - 1))]
    g = Digraph(n, edges)
    sides = {"left": [], "center": [], "right": []}
    for v in range(n):
        sides[rng.choice(("left", "left", "center", "right", "right"))].append(v)
    byz_kind = draw(st.sampled_from(["split", "identical-wrong", "random", "silent"]))
    if byz_kind == "split":
        params = {"m": 0.0, "M": 1.0, "left": sides["left"], "right": sides["right"]}
        if rng.random() < 0.5:
            params.update(m_minus=-2.5, M_plus=3.0)
    elif byz_kind == "identical-wrong":
        params = {"value": rng.uniform(-1.0, 2.0)}
    elif byz_kind == "random":
        params = {"low": -1.0, "high": 2.0} if rng.random() < 0.5 else {}
    else:
        params = {}
    sched = draw(st.sampled_from(["random", "fifo", "synchronous", "adaptive-delay"]))
    levels = (0.0, 0.25, 0.5, 1.0)
    return SimConfig(
        graph=g,
        f=f,
        fault_set=frozenset(rng.sample(range(n), rng.randint(1, f) if f and rng.random() < 0.8 else 0)),
        inputs=tuple(rng.choice(levels) if rng.random() < 0.3 else rng.random() for _ in range(n)),
        scheduler=SchedulerSpec(sched, dict(sides) if sched == "adaptive-delay" else {}),
        byzantine=ByzantineSpec(byz_kind, params),
        seed=draw(st.integers(0, 99)),
        max_rounds=draw(st.integers(1, 12)),
        epsilon=draw(st.sampled_from([0.0, 1e-3, 0.05])),
    )


def _run_result(run, config: SimConfig):
    try:
        trace = run(config)
    except SimulationError as exc:
        return ("SimulationError", str(exc))
    return (
        trace.values,
        trace.u_levels,
        trace.mu_levels,
        trace.outcome,
        trace.converged_round,
        list(trace.deliveries),
    )


class TestEventLoopOracle:
    """run_simulation against oracles.naive_run_simulation, the event loop
    before the readiness shortcut, the round counter, the parsed Byzantine
    params and the native-order update sort: same values, levels, outcome,
    converged round and delivery log, or the same SimulationError."""

    @settings(max_examples=200, deadline=None)
    @given(config=_sim_config())
    def test_matches_naive_event_loop(self, config):
        assert _run_result(run_simulation, config) == _run_result(oracles.naive_run_simulation, config)

    @pytest.mark.parametrize("kind", sorted(TestGoldenDeliveryLog.GOLDEN))
    def test_golden_configs_match(self, kind):
        config = _golden_config(kind)
        assert _run_result(run_simulation, config) == _run_result(oracles.naive_run_simulation, config)


@st.composite
def _pool_scenario(draw):
    """A digraph, an L/C/R/faulty assignment, f, and a stream of operations
    ("push", edge index, tag), ("broadcast", sender, tag) to the sender's
    sorted out-neighbours, ("pop",), ("rise", node, step) or ("run",
    sender, start, stop, tag) to the slice [start:stop] of the sender's
    sorted out-neighbours (a faulty node's run), drawn from a seeded
    generator so that long streams stay cheap.  Any node's round may rise
    at any time."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    sides = draw(st.lists(st.sampled_from("LLCRRF"), min_size=n, max_size=n))
    f = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for _ in range(draw(st.integers(0, 300))):
        x = rng.random()
        if x < 0.3:
            ops.append(("push", rng.randrange(len(edges)), rng.randrange(5)))
        elif x < 0.45:
            ops.append(("broadcast", rng.randrange(n), rng.randrange(5)))
        elif x < 0.75:
            ops.append(("pop",))
        elif x < 0.9:
            ops.append(("rise", rng.randrange(n), rng.randint(1, 2)))
        else:
            sender = rng.randrange(n)
            degree = sum(u == sender for u, _ in edges)
            start = rng.randint(0, degree)
            ops.append(("run", sender, start, rng.randint(start, degree), rng.randrange(5)))
    return n, edges, sides, f, ops


class TestSchedulerPools:
    """Each message pool against its naive twin in oracles.py (the old
    select-an-index-of-the-pending-list schedulers), driven by the same
    interleaved push/pop stream with rising rounds.  Every rise reaches the
    pool through `advanced`, as run_simulation reports it.  A pool pops
    (destination, message); in this stream that pair names one pending
    message, since each push sends a message of its own (its value is the
    push's first sequence number) to distinct destinations, so comparing
    pairs compares the messages' sequence numbers too."""

    @pytest.mark.parametrize("kind", ["random", "fifo", "synchronous", "adaptive-delay"])
    @settings(max_examples=100, deadline=None)
    @given(scenario=_pool_scenario(), seed=st.integers(0, 99))
    def test_pool_matches_naive_selector(self, kind, scenario, seed):
        n, edges, sides, f, ops = scenario
        g = Digraph(n, edges)
        if kind == "random":
            pool, naive = RandomScheduler(seed), oracles.NaiveRandomSelector(seed)
        elif kind == "fifo":
            pool, naive = FifoScheduler(seed), oracles.NaiveFifoSelector(seed)
        elif kind == "synchronous":
            pool, naive = SynchronousScheduler(), oracles.NaiveSynchronousSelector()
        else:
            side = {s: [v for v in range(n) if sides[v] == s] for s in "LCR"}
            pool = AdaptiveDelayScheduler(g, f, side["L"], side["C"], side["R"])
            naive = oracles.NaiveAdaptiveDelaySelector(oracles.naive_withheld(g, f, side["L"], side["C"], side["R"]))
        pending: list[oracles.PendingMessage] = []
        rounds = {v: 1 for v in range(n)}
        seq = 0
        for op in ops:
            if op[0] in ("push", "broadcast", "run"):
                if op[0] == "push":
                    sender, dest = edges[op[1]]
                    dests = (dest,)
                else:
                    sender, dests = op[1], tuple(sorted(g.out_nbrs[op[1]]))
                    if op[0] == "run":
                        dests = dests[op[2] : op[3]]
                msg = RoundMessage(sender, op[-1], float(seq))
                pool.push(seq, dests, msg)
                for dest in dests:
                    pending.append(oracles.PendingMessage(seq, dest, msg))
                    seq += 1
            elif op[0] == "rise":
                rounds[op[1]] += op[2]
                pool.advanced(op[1], rounds[op[1]])
            elif pending:
                try:
                    expected = pending.pop(naive.select(pending, rounds))
                except SimulationError as exc:
                    assert kind == "adaptive-delay"
                    with pytest.raises(SimulationError, match="scheduler deadlock"):
                        pool.pop()
                    assert str(exc).startswith("scheduler deadlock")
                else:
                    assert pool.pop() == (expected.destination, expected.message)
        # Tags are below 5, so round 6 releases whatever adaptive-delay
        # still withholds; then the pool pops what the naive twin selects
        # until `pending` is empty, and holds no more.
        for v in range(n):
            rounds[v] = max(rounds[v], 6)
            pool.advanced(v, rounds[v])
        while pending:
            expected = pending.pop(naive.select(pending, rounds))
            assert pool.pop() == (expected.destination, expected.message)
        with pytest.raises(SimulationError if kind == "adaptive-delay" else IndexError):
            pool.pop()
