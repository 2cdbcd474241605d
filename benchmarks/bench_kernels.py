#!/usr/bin/env python3
"""Benchmark the condition-check kernels, the protocol update, the
simulator and trace CSV I/O on representative workloads.

The kernel rows time the pruned depth-first partition search and the
incremental reduced-graph sweep of `byztrim._kernels`, best of `--repeat`
runs each.

The partition scaling rows run the partition check once, at its default
budget, asynchronously on complete graphs K12..K24 (f=2 and 3) and K24
(f=4), where every node is a twin of every other, and on twin-free random
graphs with p = 0.9, n = 12..16 (f=2).  Five larger rows follow: random
p = 0.9 graphs with n = 18 (seed 18) and n = 20 (seed 1) at f=2 and
circulant(20, 5) (node i has in-neighbours i-1, ..., i-5 mod 20) at f=1,
all asynchronous, then circulant(20, 5) at f=2 and a random n = 30,
p = 0.3 graph (seed 3) at f=2, both synchronous.  Each prints the
verdict, the search nodes visited (`examined`: the fault-free screen's
when the screen decides a pass) and the seconds taken.

The reduction scaling rows run the reduced-graph check and the
source-size check side by side on K6 and K7 (f=2), at their default
budget, best of `--repeat` runs each, with verdict and `examined`.

The simulator rows time `run_simulation` per scheduler and report
deliveries per second: `random`, `fifo` and `synchronous` on complete
graphs (f=1, one `random` Byzantine node, fixed round counts), `fifo` on
K16 with four `split` or four `random` Byzantine nodes (f=4), and the
adaptive-delay attack on K5 (f=1), K10 (f=2), K16 (f=4, halves with no
faulty node) and a two-cluster graph (two complete 5-node clusters with
at most 2f cross in-edges per node, f=1, 200 rounds), the graph class of
the median perfbench `attack` op.  Each row also reports the bytes per
delivery that a run's trace keeps, as tracemalloc counts them in one
untimed run: memory traced with the returned Trace alive, less memory
traced before the run.  Nearly all of it is the delivery log.

The protocol rows time one `NodeState.apply_update` call (the trim-and-
average update and the move to the next round) on complete graphs, f=1,
with a full buffer of distinct random values; buffers are filled outside
the timed loop.

The CSV rows time one call of each trace-file function on an existing
file: `write_trace_csv` and `write_metrics_csv` rewriting the file they
wrote before (as every `run` and `attack` into the same path does), and
`read_trace_csv`, on that file and on a copy with every cell quoted, the
columns reordered and an extra column.  Inputs are the trace of a 30-round
K8 `random` run, about the size of one `run`, and a synthetic 15-node,
2,000-round trace.

Usage: python benchmarks/bench_kernels.py [--repeat N] [--json]

With --json the rows go to stdout as one JSON object, one list of row
objects per section, instead of as text tables.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import platform
import random
import sys
import tempfile
import time
import tracemalloc

from byztrim import _kernels, simnet
from byztrim.protocol import NodeState, RoundMessage
from byztrim.conditions import (
    ASYNC,
    SYNC,
    check_partition_condition,
    check_reduced_graph_condition,
    check_source_component_size,
)
from byztrim.digraph import Digraph
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
            _kernels.failing_reduction(5, masks, 1, 2, 10**9)
            partition(5, masks, 1, 2)

    return [
        ("partition check, K6 async f=1 (pass)", partition_pass_k6),
        ("partition check, n=9 p=0.9 f=1", partition_pass_n9),
        ("partition check, K12 async f=2 (pass)", partition_pass_k12),
        ("reduced-graph check, K6 f=1 (pass)", reduction_k6),
        ("source-size check, K7 f=1 (pass)", source_size_k7),
        ("200-graph n=5 sweep (all three checks)", reduction_sweep_n5),
    ]


RANDOM_FAULT = simnet.ByzantineSpec("random", {"low": -1.0, "high": 2.0})


def complete_config(kind: str, n: int, rounds: int, f: int = 1, byzantine=RANDOM_FAULT) -> simnet.SimConfig:
    """A fixed run on K_n whose last f nodes are Byzantine."""
    rng = random.Random(n)
    return simnet.SimConfig(
        graph=generate_graph("complete", {"n": n}),
        f=f,
        fault_set=frozenset(range(n - f, n)),
        inputs=tuple(rng.random() for _ in range(n)),
        scheduler=simnet.SchedulerSpec(kind),
        byzantine=byzantine,
        seed=n,
        max_rounds=rounds,
        epsilon=0.0,
    )


def simulator_configs():
    """(name, SimConfig) rows; every config is fixed, so every run of a row
    delivers the same messages."""
    rows = [
        (f"{kind}, K{n} f=1, {rounds} rounds", complete_config(kind, n, rounds))
        for kind in ("random", "fifo", "synchronous")
        for n, rounds in ((6, 200), (16, 50), (32, 20))
    ]
    # A quarter of the nodes faulty: `split` sends each a run of
    # consecutive out-neighbours (left 0-5, right 6-11), `random` one
    # message per out-neighbour.
    split = simnet.ByzantineSpec("split", {"m": 0.0, "M": 1.0, "left": list(range(6)), "right": list(range(6, 12))})
    rows += [
        (f"fifo, K16 f=4, {kind} faults, 50 rounds", complete_config("fifo", 16, 50, 4, spec))
        for kind, spec in (("split", split), ("random", RANDOM_FAULT))
    ]
    for name, g, f, rounds in (
        ("K5", generate_graph("counterexample-k5"), 1, 400),
        ("K10", generate_graph("complete", {"n": 10}), 2, 150),
        ("K16", generate_graph("complete", {"n": 16}), 4, 50),
        ("two-cluster 5+5", two_cluster_graph(random.Random(5), 1, 5), 1, 200),
    ):
        witness = check_partition_condition(g, f, ASYNC).witness
        config = simnet.build_attack_config(g, f, witness, 0.0, 1.0, max_rounds=rounds)
        rows.append((f"adaptive-delay attack, {name} f={f}, {rounds} rounds", config))
    return rows


def two_cluster_graph(rng: random.Random, f: int, size: int) -> Digraph:
    """Two complete clusters of `size` nodes with shuffled labels; each node
    gets between max(0, 3f+1-(size-1)) and 2f in-edges from the other
    cluster, so every in-degree is at least 3f+1 and the cut between the
    clusters violates the async condition."""
    labels = list(range(2 * size))
    rng.shuffle(labels)
    clusters = (labels[:size], labels[size:])
    edges = []
    for own, other in (clusters, clusters[::-1]):
        for v in own:
            edges += [(u, v) for u in own if u != v]
            cross = rng.randint(max(0, 3 * f + 1 - (size - 1)), 2 * f)
            edges += [(u, v) for u in rng.sample(other, cross)]
    return Digraph(2 * size, edges)


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


def retained_bytes(config) -> float:
    """Bytes per delivery that a run's Trace keeps (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = simnet.run_simulation(config)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(trace.deliveries)


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


def protocol_rows(repeat: int) -> list[dict]:
    return [
        {"name": f"NodeState.apply_update, K{n} f=1", "in_degree": n - 1, "us_per_call": update_cost(n, repeat) * 1e6}
        for n in (8, 16, 32)
    ]


def best_time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def simulator_rows(repeat: int) -> list[dict]:
    rows = []
    for name, config in simulator_configs():
        count, rate = simulator_rate(config, repeat)
        rows.append({"name": name, "deliveries": count, "per_s": rate, "trace_bytes": retained_bytes(config)})
    return rows


def circulant(n: int, k: int) -> Digraph:
    """Node i has in-neighbours i-1, ..., i-k mod n."""
    return Digraph(n, [((i - d) % n, i) for i in range(n) for d in range(1, k + 1)])


def partition_scaling_rows() -> list[dict]:
    graphs = [
        (f"K{n} f={f}", generate_graph("complete", {"n": n}), f, ASYNC)
        for n in (12, 16, 20, 24)
        for f in (2, 3)
    ]
    graphs.append(("K24 f=4", generate_graph("complete", {"n": 24}), 4, ASYNC))
    graphs += [
        (f"random n={n} p=0.9 f=2", generate_graph("random-uniform", {"n": n, "p": 0.9}, seed=n), 2, ASYNC)
        for n in range(12, 17)
    ]
    # Past the search over every fault set: the first two pass by the
    # fault-free screen, the other three fall back to that search.
    graphs += [
        ("random n=18 p=0.9 seed 18 f=2", generate_graph("random-uniform", {"n": 18, "p": 0.9}, seed=18), 2, ASYNC),
        ("random n=20 p=0.9 seed 1 f=2", generate_graph("random-uniform", {"n": 20, "p": 0.9}, seed=1), 2, ASYNC),
        ("circulant(20, 5) f=1", circulant(20, 5), 1, ASYNC),
        ("circulant(20, 5) f=2 sync", circulant(20, 5), 2, SYNC),
        ("random n=30 p=0.3 seed 3 f=2 sync", generate_graph("random-uniform", {"n": 30, "p": 0.3}, seed=3), 2, SYNC),
    ]
    rows = []
    for name, g, f, mode in graphs:
        start = time.perf_counter()
        report = check_partition_condition(g, f, mode)
        seconds = time.perf_counter() - start
        rows.append({"name": name, "verdict": report.verdict, "examined": report.examined, "seconds": seconds})
    return rows


def reduction_scaling_rows(repeat: int) -> list[dict]:
    checks = (("reduced-graph", check_reduced_graph_condition), ("source-size", check_source_component_size))
    rows = []
    for n in (6, 7):
        g = generate_graph("complete", {"n": n})
        for label, check in checks:
            report = check(g, 2)
            seconds = best_time(functools.partial(check, g, 2), repeat)
            rows.append(
                {"name": f"K{n} f=2 {label}", "verdict": report.verdict, "examined": report.examined, "seconds": seconds}
            )
    return rows


def kernel_rows(repeat: int) -> list[dict]:
    return [{"name": name, "seconds": best_time(fn, repeat)} for name, fn in workloads()]


def csv_traces() -> list[tuple[str, simnet.Trace]]:
    """(label, trace) inputs of the CSV rows: a K8 `random` run and a
    synthetic 15-node, 2,000-round trace with distinct values."""
    config = complete_config("random", 8, 30)
    rng = random.Random(15)
    values = {v: [rng.random() for _ in range(2_000)] for v in range(15)}
    levels = [max(vs[t] for vs in values.values()) for t in range(2_000)]
    synthetic = simnet.Trace(config, values, levels, [0.0] * 2_000, simnet.DeliveryLog([], []), "max-rounds-hit", None)
    return [("K8 run", simnet.run_simulation(config)), ("synthetic 15x2000", synthetic)]


def per_call(fn, repeat: int, cover: float = 0.1) -> float:
    """Best-of-`repeat` seconds per call of `fn`; a sample repeats the call
    until it covers about `cover` seconds, so fast calls are not timed alone."""
    start = time.perf_counter()
    fn()
    runs = max(1, int(cover / max(time.perf_counter() - start, 1e-6)))

    def sample():
        for _ in range(runs):
            fn()

    return best_time(sample, repeat) / runs


def quoted_copy(path: str, copy: str) -> None:
    """Write the trace CSV at `path` to `copy` with every cell quoted, the
    columns in the order value, extra, nodeId, round, and an empty extra
    column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(copy, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        writer.writerow(["value", "extra", "nodeId", "round"])
        writer.writerows([value, "", node, t] for t, node, value in rows[1:])


def csv_rows(repeat: int) -> list[dict]:
    rows = []

    def row(name: str, path: str, call) -> None:
        call()  # a rewrite now finds the file it writes
        rows.append({"name": name, "bytes": os.path.getsize(path), "ms_per_call": per_call(call, repeat) * 1e3})

    with tempfile.TemporaryDirectory() as tmp:
        path, copy = os.path.join(tmp, "trace.csv"), os.path.join(tmp, "quoted.csv")
        for label, trace in csv_traces():
            row(f"write_trace_csv, rewrite, {label}", path, functools.partial(simnet.write_trace_csv, trace, path))
            row(f"write_metrics_csv, rewrite, {label}", path, functools.partial(simnet.write_metrics_csv, trace, path))
            simnet.write_trace_csv(trace, path)
            row(f"read_trace_csv, {label}", path, functools.partial(simnet.read_trace_csv, path))
            quoted_copy(path, copy)
            row(f"read_trace_csv, {label}, quoted", copy, functools.partial(simnet.read_trace_csv, copy))
    return rows


# section: (title, [(column, key, width, format)])
SECTIONS = {
    "kernels": ("workload", [("seconds", "seconds", 10, ".4f")]),
    "partition_scaling": (
        "partition check, async unless named sync",
        [("verdict", "verdict", 16, "s"), ("examined", "examined", 10, "d"), ("seconds", "seconds", 8, ".3f")],
    ),
    "reduction_scaling": (
        "reduced-graph sweep, sync",
        [("verdict", "verdict", 16, "s"), ("examined", "examined", 10, "d"), ("seconds", "seconds", 8, ".3f")],
    ),
    "protocol": ("protocol update", [("in-degree", "in_degree", 10, "d"), ("us/call", "us_per_call", 10, ".2f")]),
    "simulator": (
        "simulator run",
        [("deliveries", "deliveries", 10, "d"), ("per s", "per_s", 10, ".0f"), ("B/delivery", "trace_bytes", 10, ".1f")],
    ),
    "csv": ("trace CSV I/O", [("bytes", "bytes", 10, "d"), ("ms/call", "ms_per_call", 10, ".3f")]),
}


def print_table(section: str, rows: list[dict]) -> None:
    title, columns = SECTIONS[section]
    header = f"{title:48s} " + " ".join(f"{col:>{width}s}" for col, _, width, _ in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = " ".join(f"{row[key]:>{width}{fmt}}" for _, key, width, fmt in columns)
        print(f"{row['name']:48s} {cells}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--json", action="store_true", help="print the rows as one JSON object")
    args = parser.parse_args()

    sections = {
        "kernels": lambda: kernel_rows(args.repeat),
        "partition_scaling": partition_scaling_rows,
        "reduction_scaling": lambda: reduction_scaling_rows(args.repeat),
        "protocol": lambda: protocol_rows(args.repeat),
        "simulator": lambda: simulator_rows(args.repeat),
        "csv": lambda: csv_rows(args.repeat),
    }
    if args.json:
        out = {"python": platform.python_version(), "repeat": args.repeat}
        out.update((name, rows()) for name, rows in sections.items())
        json.dump(out, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        for name, rows in sections.items():
            print_table(name, rows())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
