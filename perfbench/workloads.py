"""The three workloads: seeded input generators, the library call sequence
of one op, and the checks on its output.

An op is the sequence of library calls one CLI command makes, minus argument
parsing and JSON printing:

* conditions -- `check` in both modes (plus the reduced-graph and
  source-size checks of `check --oracle/--source-size` and `equiv` at n <= 6);
* simulate   -- `run` followed by `verify`, without `verify`'s async
  precheck, which would pull the partition search into this workload;
* attack     -- `attack`.

Each workload builds a pool of inputs from the seed; the run cycles through
the pool in order, so every cycle does the same work.  The library only ever
sees the generated graph and config documents.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass

from checks import partition_errors, reduction_errors

F = 1  # fault bound of the conditions and simulate workloads


@dataclass(frozen=True)
class Item:
    kind: str  # input class, e.g. "n=7 p=0.85", "K12 fifo random", "two-cluster"
    n: int
    f: int
    edges: tuple
    graph_json: str
    config_json: str = ""  # simulate
    scheduler: str = ""  # simulator workloads
    rounds: int = 0  # attack


@dataclass
class Result:
    """What an op hands back: its CLI-equivalent output document, the
    trace (simulator workloads) and anything the checks need."""

    output: dict
    trace: object = None
    csv_paths: tuple = ()
    csv_values: dict | None = None


def _item(kind: str, doc: dict, f: int, **extra) -> Item:
    """An input whose graph reaches the library only as this JSON document."""
    return Item(kind, doc["n"], f, tuple(tuple(e) for e in doc["edges"]), json.dumps(doc), **extra)


def _csv_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# conditions


class Conditions:
    """Exhaustive condition checks on seeded random digraphs.

    Why: this is the 3^n partition enumeration (and, at n <= 6, the
    reduced-graph enumeration) that dominates `check` and `equiv`.  The mix
    is mostly passing graphs, which need the full enumeration, so pruning
    shows here; the simulator is never used.
    """

    name = "conditions"
    NS = (6, 7, 8, 9)
    PS = (0.7, 0.85, 0.95)
    # Graphs per (n, p) cell; one cycle = 180 graphs, about one run.  Op
    # times cluster by cell, so the median and tail need many distinct graphs
    # to be steady from seed to seed.
    ROUNDS = 15
    ORACLE_MAX_N = 6

    def build(self, lib, seed: int, tr) -> list[Item]:
        rng = random.Random(f"conditions/{seed}")
        pool = []
        for _ in range(self.ROUNDS):
            for n in self.NS:
                for p in self.PS:
                    g = tr.call(
                        "harness.generate_graph", lib.harness.generate_graph,
                        "random-uniform", {"n": n, "p": p}, rng.randrange(2**32),
                    )
                    pool.append(_item(f"n={n} p={p}", g.to_dict(), F))
        return pool

    def run_op(self, lib, item: Item, tr, tmp: str) -> Result:
        cond = lib.conditions
        g = tr.call("digraph.parse_graph", lib.digraph.parse_graph, item.graph_json)
        reports = {
            mode: tr.call("conditions.check_partition_condition", cond.check_partition_condition, g, F, mode)
            for mode in (cond.SYNC, cond.ASYNC)
        }
        if g.n <= self.ORACLE_MAX_N:
            reports["reduced-graph"] = tr.call(
                "conditions.check_reduced_graph_condition", cond.check_reduced_graph_condition, g, F
            )
            reports["source-size"] = tr.call(
                "conditions.check_source_component_size", cond.check_source_component_size, g, F
            )
        return Result({k: r.to_json_dict() for k, r in reports.items()})

    def check(self, item: Item, res: Result) -> list[str]:
        out, errs = res.output, []
        for mode, r in (("sync", F + 1), ("async", 2 * F + 1)):
            rep = out[mode]
            if rep["r"] != r or rep["verdict"] not in ("pass", "fail"):
                errs.append(f"{mode}: bad report {rep['verdict']} r={rep['r']}")
            elif rep["verdict"] == "fail":
                errs += [f"{mode} witness: {e}" for e in partition_errors(item.n, item.edges, F, r, rep["witness"])]
        if out["async"]["verdict"] == "pass" and out["sync"]["verdict"] != "pass":
            errs.append("async passes but sync fails")
        if out["async"].get("degree_violations") and out["async"]["verdict"] != "fail":
            errs.append("degree violations on an async pass")
        if "reduced-graph" in out:
            red, size = out["reduced-graph"], out["source-size"]
            if red["verdict"] != out["sync"]["verdict"]:
                errs.append(f"reduced-graph {red['verdict']} != sync partition {out['sync']['verdict']}")
            if out["sync"]["verdict"] == "pass" and size["verdict"] != "pass":
                errs.append(f"sync passes but source-size is {size['verdict']}")
            for rep, min_size in ((red, 1), (size, F + 1)):
                if rep["verdict"] == "fail":
                    errs += [f"{rep['check']} witness: {e}"
                             for e in reduction_errors(item.n, item.edges, F, min_size, rep["witness"])]
        return errs

    def digest_bytes(self, res: Result) -> bytes:
        return json.dumps(res.output, sort_keys=True).encode()

    def count(self, item: Item, res: Result, tally: Counter) -> None:
        for mode in ("sync", "async"):
            tally["conditions.partition_calls"] += 1
            tally["conditions.partition_passes"] += res.output[mode]["verdict"] == "pass"
        for key, check in (("reduced", "reduced-graph"), ("source_size", "source-size")):
            if check in res.output:
                rep = res.output[check]
                tally[f"conditions.{key}_examined"] += rep["examined"]
                tally["conditions.budget_exceeded"] += rep["verdict"] == "budget-exceeded"

    def mix(self, pool: list[Item], tally: Counter) -> dict:
        calls = tally["conditions.partition_calls"]
        return {
            "n_histogram": dict(sorted(Counter(it.n for it in pool).items())),
            "cells": dict(Counter(it.kind for it in pool)),
            "partition_pass_share": tally["conditions.partition_passes"] / calls if calls else 0.0,
        }


# ---------------------------------------------------------------------------
# simulate


def _simulator_counts(res: Result, tally: Counter, scheduler: str) -> None:
    trace = res.trace
    tally["simnet.deliveries"] += len(trace.deliveries)
    tally[f"simnet.deliveries.{scheduler}"] += len(trace.deliveries)
    tally["simnet.rounds"] += trace.common_rounds
    tally["simnet.csv_bytes"] += _csv_bytes(res.csv_paths)


def _delivery_shares(tally: Counter) -> dict:
    total = tally["simnet.deliveries"]
    prefix = "simnet.deliveries."
    return {k[len(prefix):]: v / total for k, v in sorted(tally.items()) if k.startswith(prefix) and total}


class Simulate:
    """`run` + `verify` on complete graphs that pass the async condition.

    Why: this is scheduler selection and the protocol update under the
    `random` and `fifo` schedulers (a third of the runs are `fifo`, which
    rebuilds and sorts its link heads on every delivery), plus trace CSV
    I/O.  No condition check runs, so partition-search changes must not
    move it.
    """

    name = "simulate"
    NS = (8, 12, 16)
    BYZANTINE = ("random", "identical-wrong")
    SCHEDULERS = ("random", "random", "fifo")
    ROUNDS = 16  # configs per cell; one cycle = 288 runs
    EPSILON = 1e-9
    MAX_ROUNDS = 1000

    def build(self, lib, seed: int, tr) -> list[Item]:
        simnet = lib.simnet
        rng = random.Random(f"simulate/{seed}")
        graphs = {
            n: tr.call("harness.generate_graph", lib.harness.generate_graph, "complete", {"n": n})
            for n in self.NS
        }
        pool = []
        for _ in range(self.ROUNDS):
            for n, g in graphs.items():
                for byz in self.BYZANTINE:
                    for sched in self.SCHEDULERS:
                        if byz == "random":
                            params = {"low": -0.5, "high": 1.5}
                        else:
                            params = {"value": rng.uniform(-1.0, 2.0)}
                        config = simnet.SimConfig(
                            graph=g,
                            f=F,
                            fault_set=frozenset([rng.randrange(n)]),
                            inputs=tuple(rng.random() for _ in range(n)),
                            scheduler=simnet.SchedulerSpec(sched),
                            byzantine=simnet.ByzantineSpec(byz, params),
                            seed=rng.randrange(2**31),
                            max_rounds=self.MAX_ROUNDS,
                            epsilon=self.EPSILON,
                        )
                        pool.append(_item(
                            f"K{n} {sched} {byz}", g.to_dict(), F, config_json=config.to_json(), scheduler=sched
                        ))
        return pool

    def run_op(self, lib, item: Item, tr, tmp: str) -> Result:
        simnet = lib.simnet
        trace_path = os.path.join(tmp, "trace.csv")
        metrics_path = os.path.join(tmp, "trace.metrics.csv")
        # run
        config = tr.call("simnet.SimConfig.from_json", simnet.SimConfig.from_json, item.config_json)
        trace = tr.call("simnet.run_simulation", simnet.run_simulation, config)
        tr.call("simnet.write_trace_csv", simnet.write_trace_csv, trace, trace_path)
        tr.call("simnet.write_metrics_csv", simnet.write_metrics_csv, trace, metrics_path)
        metrics = tr.call("simnet.trace_metrics", simnet.trace_metrics, trace)
        run_out = {
            "outcome": trace.outcome,
            "converged_round": trace.converged_round,
            "rounds": trace.common_rounds,
            "final_spread": trace.spread(trace.common_rounds),
            "validity_ok": metrics.all_valid,
        }
        # verify (as the CLI does it, minus the async precheck)
        g = tr.call("digraph.parse_graph", lib.digraph.parse_graph, item.graph_json)
        values = tr.call("simnet.read_trace_csv", simnet.read_trace_csv, trace_path)
        common = min(len(v) for v in values.values())
        u = [max(values[v][t] for v in values) for t in range(common)]
        mu = [min(values[v][t] for v in values) for t in range(common)]
        spreads = [a - b for a, b in zip(u, mu)]
        slack = simnet.VALIDITY_SLACK
        validity_ok = all(
            mu[t] >= mu[t - 1] - slack and u[t] <= u[t - 1] + slack for t in range(1, common)
        )
        alpha = tr.call("protocol.compute_alpha", lib.protocol.compute_alpha, g, F)
        ok, report = tr.call(
            "harness.verify_contraction", lib.harness.verify_contraction, spreads, alpha, g.n, F
        )
        verify_out = {"validity_ok": validity_ok, "contraction": report.to_json_dict(), "alpha": str(alpha)}
        return Result({"run": run_out, "verify": verify_out}, trace=trace,
                      csv_paths=(trace_path, metrics_path), csv_values=values)

    def check(self, item: Item, res: Result) -> list[str]:
        run_out, verify_out = res.output["run"], res.output["verify"]
        errs = []
        if run_out["outcome"] != "converged":
            errs.append(f"outcome {run_out['outcome']} on a passing graph")
        if not run_out["validity_ok"]:
            errs.append("trace_metrics reports a validity violation")
        if not verify_out["validity_ok"]:
            errs.append("validity violated in the trace CSV")
        if not verify_out["contraction"]["ok"]:
            errs.append(f"contraction bound violated at round {verify_out['contraction']['first_violation_round']}")
        if res.csv_values != res.trace.values:
            errs.append("trace CSV round trip differs from trace.values")
        return errs

    def digest_bytes(self, res: Result) -> bytes:
        return json.dumps(res.output, sort_keys=True).encode() + _file_bytes(res.csv_paths[0])

    def count(self, item: Item, res: Result, tally: Counter) -> None:
        _simulator_counts(res, tally, item.scheduler)

    def mix(self, pool: list[Item], tally: Counter) -> dict:
        return {
            "n_histogram": dict(sorted(Counter(it.n for it in pool).items())),
            "run_share_by_scheduler": {k: v / len(pool) for k, v in sorted(Counter(it.scheduler for it in pool).items())},
            "delivery_share_by_scheduler": _delivery_shares(tally),
        }


# ---------------------------------------------------------------------------
# attack


def two_cluster_edges(rng: random.Random, f: int, sizes: tuple[int, int]) -> tuple[int, list]:
    """Two complete clusters; every node gets between max(0, 3f+1-(own
    cluster size-1)) and 2f in-edges from the other cluster, so each
    in-degree is at least 3f+1 while the cut between the clusters is a
    violating partition for r = 2f+1.  Node labels are shuffled."""
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    clusters = [perm[: sizes[0]], perm[sizes[0]:]]
    edges = []
    for own, other in (clusters, clusters[::-1]):
        for v in own:
            edges += [(u, v) for u in own if u != v]
            cross = rng.randint(max(0, 3 * f + 1 - (len(own) - 1)), 2 * f)
            edges += [(u, v) for u in rng.sample(other, cross)]
    return n, edges


class Attack:
    """`attack` on graphs that fail the async condition by construction.

    Why: the same two layers as above, used differently.  The partition
    search stops at the first canonical witness, and the adaptive-delay
    scheduler withholds messages for a fixed number of rounds.  A pruning
    order that helps passing graphs but delays the witness shows here, and
    so does a scheduler change that speeds `random` but slows
    `adaptive-delay`.
    """

    name = "attack"
    # The CLI's default levels.  Sides averaging their own level stay bit-exact
    # with these; with levels such as 0.3 the spread moves by one ulp.
    LOW, HIGH = 0.0, 1.0
    # (input class, f, rounds) per op in one round of the pool.  K5 and K10
    # repeat identical work; the two-cluster graphs carry the seed's variety.
    # K10 ops (a quarter) are the slowest and set op_cost_tail.
    SHAPES = (("K5", 1, 400), ("two-cluster", 1, 200), ("K10", 2, 150), ("two-cluster", 1, 200))
    # One cycle = 64 attacks, about one run.  The median op is a two-cluster
    # attack, whose cost depends on the graph, so it needs many of them.
    ROUNDS = 16
    CLUSTER_SIZES = (5, 5)

    def build(self, lib, seed: int, tr) -> list[Item]:
        rng = random.Random(f"attack/{seed}")
        gen = lib.harness.generate_graph
        k5 = tr.call("harness.generate_graph", gen, "counterexample-k5")
        k10 = tr.call("harness.generate_graph", gen, "complete", {"n": 10})
        pool = []
        for _ in range(self.ROUNDS):
            for kind, f, rounds in self.SHAPES:
                if kind == "two-cluster":
                    n, edges = two_cluster_edges(rng, f, self.CLUSTER_SIZES)
                    doc = {"n": n, "edges": sorted(edges), "f": f}
                else:
                    doc = (k5 if kind == "K5" else k10).to_dict()
                pool.append(_item(kind, doc, f, rounds=rounds, scheduler="adaptive-delay"))
        return pool

    def run_op(self, lib, item: Item, tr, tmp: str) -> Result:
        simnet, cond = lib.simnet, lib.conditions
        trace_path = os.path.join(tmp, "attack.csv")
        metrics_path = os.path.join(tmp, "attack.metrics.csv")
        g = tr.call("digraph.parse_graph", lib.digraph.parse_graph, item.graph_json)
        report = tr.call("conditions.check_partition_condition", cond.check_partition_condition, g, item.f, cond.ASYNC)
        if report.passed:
            return Result({"verdict": "pass"})
        config = tr.call(
            "simnet.build_attack_config", simnet.build_attack_config,
            g, item.f, report.witness, self.LOW, self.HIGH, max_rounds=item.rounds,
        )
        trace = tr.call("simnet.run_simulation", simnet.run_simulation, config)
        tr.call("simnet.write_trace_csv", simnet.write_trace_csv, trace, trace_path)
        tr.call("simnet.write_metrics_csv", simnet.write_metrics_csv, trace, metrics_path)
        out = {
            "verdict": report.verdict,
            "witness": report.witness.to_json_dict(),
            "outcome": trace.outcome,
            "rounds": trace.common_rounds,
            "spread_constant": len(set(trace.spreads)) == 1,
            "final_spread": trace.spread(trace.common_rounds),
        }
        return Result(out, trace=trace, csv_paths=(trace_path, metrics_path))

    def check(self, item: Item, res: Result) -> list[str]:
        out = res.output
        if out["verdict"] != "fail":
            return ["async check passes a graph that fails by construction"]
        errs = [f"witness: {e}" for e in partition_errors(item.n, item.edges, item.f, 2 * item.f + 1, out["witness"])]
        if out["outcome"] != "max-rounds-hit" or out["rounds"] != item.rounds:
            errs.append(f"outcome {out['outcome']} after {out['rounds']} rounds")
        if not out["spread_constant"]:
            errs.append("spread moved under the attack")
        return errs

    def digest_bytes(self, res: Result) -> bytes:
        return json.dumps(res.output, sort_keys=True).encode() + _file_bytes(res.csv_paths[0])

    def count(self, item: Item, res: Result, tally: Counter) -> None:
        tally["conditions.partition_calls"] += 1
        tally["conditions.partition_passes"] += res.output["verdict"] == "pass"
        if res.trace is not None:
            _simulator_counts(res, tally, item.scheduler)

    def mix(self, pool: list[Item], tally: Counter) -> dict:
        return {
            "n_histogram": dict(sorted(Counter(it.n for it in pool).items())),
            "classes": dict(Counter(it.kind for it in pool)),
            "delivery_share_by_scheduler": _delivery_shares(tally),
        }


WORKLOADS = {w.name: w for w in (Conditions(), Simulate(), Attack())}
