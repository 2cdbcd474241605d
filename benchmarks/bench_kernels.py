#!/usr/bin/env python3
"""Benchmark the condition-check kernels, the protocol update and the
simulator on representative workloads.

The kernel rows time the pruned depth-first partition search and the
incremental reduced-graph sweep of `byztrim._kernels`, best of `--repeat`
runs each.

The partition scaling rows run the asynchronous partition check once, at
its default budget, on complete graphs K12..K24 (f=2 and 3), where every
node is a twin of every other, and on twin-free random graphs with
p = 0.9, n = 12..16 (f=2).  Each prints the verdict, the search nodes
visited (`examined`) and the seconds taken.

The simulator rows time `run_simulation` per scheduler and report
deliveries per second: `random`, `fifo` and `synchronous` on complete
graphs (f=1, one `random` Byzantine node, fixed round counts), and the
adaptive-delay attack on K5 (f=1) and K10 (f=2).

The protocol rows time one `NodeState.apply_update` call (the trim-and-
average update and the move to the next round) on complete graphs, f=1,
with a full buffer of distinct random values; buffers are filled outside
the timed loop.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import time

from byztrim import _kernels, simnet
from byztrim.protocol import NodeState, RoundMessage
from byztrim.conditions import ASYNC, check_partition_condition
from byztrim.harness import generate_graph


def random_masks(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    return tuple(
        sum(1 << u for u in range(n) if u != v and rng.random() < p)
        for v in range(n)
    )


def complete_masks(n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(full ^ (1 << v) for v in range(n))


def partition(n: int, in_masks: tuple[int, ...], f: int, r: int):
    return _kernels.violating_partition(n, in_masks, f, r, 10**9)


def workloads():
    rng = random.Random(2024)
    sweep = [random_masks(rng, 5, p) for p in (0.3, 0.5, 0.7, 0.9) for _ in range(50)]
    n9 = generate_graph("random-uniform", {"n": 9, "p": 0.9}, seed=5).in_masks()

    def partition_pass_k6():
        partition(6, complete_masks(6), 1, 3)

    def partition_pass_n9():
        partition(9, n9, 1, 3)

    def partition_pass_k12():
        partition(12, complete_masks(12), 2, 5)

    def reduction_k6():
        _kernels.failing_reduction(6, complete_masks(6), 1, 1, 10**9)

    def source_size_k7():
        _kernels.failing_reduction(7, complete_masks(7), 1, 2, 10**9)

    def reduction_sweep_n5():
        for masks in sweep:
            _kernels.failing_reduction(5, masks, 1, 1, 10**9)
            partition(5, masks, 1, 2)

    return [
        ("partition check, K6 async f=1 (pass)", partition_pass_k6),
        ("partition check, n=9 p=0.9 f=1", partition_pass_n9),
        ("partition check, K12 async f=2 (pass)", partition_pass_k12),
        ("reduced-graph check, K6 f=1 (pass)", reduction_k6),
        ("source-size check, K7 f=1 (pass)", source_size_k7),
        ("200-graph n=5 sweep (both checks)", reduction_sweep_n5),
    ]


def simulator_configs():
    """(name, SimConfig) rows; every config is fixed, so every run of a row
    delivers the same messages."""
    rows = []
    for kind in ("random", "fifo", "synchronous"):
        for n, rounds in ((6, 200), (16, 50), (32, 20)):
            rng = random.Random(n)
            config = simnet.SimConfig(
                graph=generate_graph("complete", {"n": n}),
                f=1,
                fault_set=frozenset({n - 1}),
                inputs=tuple(rng.random() for _ in range(n)),
                scheduler=simnet.SchedulerSpec(kind),
                byzantine=simnet.ByzantineSpec("random", {"low": -1.0, "high": 2.0}),
                seed=n,
                max_rounds=rounds,
                epsilon=0.0,
            )
            rows.append((f"{kind}, K{n} f=1, {rounds} rounds", config))
    for g, f, rounds in (
        (generate_graph("counterexample-k5"), 1, 400),
        (generate_graph("complete", {"n": 10}), 2, 150),
    ):
        witness = check_partition_condition(g, f, ASYNC).witness
        config = simnet.build_attack_config(g, f, witness, 0.0, 1.0, max_rounds=rounds)
        rows.append((f"adaptive-delay attack, K{g.n} f={f}, {rounds} rounds", config))
    return rows


def simulator_rate(config, repeat: int) -> tuple[int, float]:
    """Deliveries of one run and the best deliveries/s over `repeat`
    samples; a sample repeats the run until it covers about 20,000
    deliveries, so short runs are not timed alone."""
    count = len(simnet.run_simulation(config).deliveries)
    runs = max(1, 20_000 // max(count, 1))
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(runs):
            simnet.run_simulation(config)
        best = min(best, time.perf_counter() - start)
    return count, count * runs / best


def update_cost(n: int, repeat: int, calls: int = 5_000) -> float:
    """Best-of-`repeat` seconds per NodeState.apply_update call on K_n, f=1."""
    g = generate_graph("complete", {"n": n})
    rng = random.Random(n)
    best = float("inf")
    for _ in range(repeat):
        nodes = []
        for _ in range(calls):
            st = NodeState(0, rng.random(), g, 1)
            for u in sorted(g.in_nbrs[0]):
                st.ingest_message(RoundMessage(u, 0, rng.random()))
            nodes.append(st)
        start = time.perf_counter()
        for st in nodes:
            st.apply_update()
        best = min(best, time.perf_counter() - start)
    return best / calls


def protocol_rows(repeat: int) -> None:
    header = f"{'protocol update':44s} {'in-degree':>10s} {'us/call':>10s}"
    print(header)
    print("-" * len(header))
    for n in (8, 16, 32):
        print(f"{f'NodeState.apply_update, K{n} f=1':44s} {n - 1:10d} {update_cost(n, repeat) * 1e6:10.2f}")
    print()


def best_time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def simulator_rows(repeat: int) -> None:
    header = f"{'simulator run':44s} {'deliveries':>10s} {'per s':>10s}"
    print(header)
    print("-" * len(header))
    for name, config in simulator_configs():
        count, rate = simulator_rate(config, repeat)
        print(f"{name:44s} {count:10d} {rate:10.0f}")


def partition_scaling_rows() -> None:
    header = f"{'partition check, async':44s} {'verdict':>16s} {'examined':>10s} {'seconds':>8s}"
    print(header)
    print("-" * len(header))
    rows = [
        (f"K{n} f={f}", generate_graph("complete", {"n": n}), f)
        for n in (12, 16, 20, 24)
        for f in (2, 3)
    ]
    rows += [
        (f"random n={n} p=0.9 f=2", generate_graph("random-uniform", {"n": n, "p": 0.9}, seed=n), 2)
        for n in range(12, 17)
    ]
    for name, g, f in rows:
        start = time.perf_counter()
        report = check_partition_condition(g, f, ASYNC)
        seconds = time.perf_counter() - start
        print(f"{name:44s} {report.verdict:>16s} {report.examined:10d} {seconds:8.3f}")
    print()


def kernel_rows(repeat: int) -> None:
    header = f"{'workload':44s} {'seconds':>10s}"
    print(header)
    print("-" * len(header))
    for name, fn in workloads():
        print(f"{name:44s} {best_time(fn, repeat):9.4f}s")
    print()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    args = parser.parse_args()

    kernel_rows(args.repeat)
    partition_scaling_rows()
    protocol_rows(args.repeat)
    simulator_rows(args.repeat)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
