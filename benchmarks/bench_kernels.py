#!/usr/bin/env python3
"""Benchmark the pure-Python condition-check kernels against the compiled
twin on representative workloads.

The partition rows compare the pruned depth-first search (pure, the one the
library runs on every backend) with the compiled exhaustive enumeration.
The reduced-graph rows compare the pure incremental sweep with the compiled
twin, which runs a search from every survivor for each reduction; both
inspect the same reductions in the same order.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import time

from byztrim._kernels import pure
from byztrim.harness import generate_graph

try:
    from byztrim._kernels import native
except ImportError:
    native = None


def random_masks(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    return tuple(
        sum(1 << u for u in range(n) if u != v and rng.random() < p)
        for v in range(n)
    )


def complete_masks(n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(full ^ (1 << v) for v in range(n))


def partition(impl, n: int, in_masks: tuple[int, ...], f: int, r: int):
    if impl is pure:
        return impl.violating_partition(n, in_masks, f, r, 10**9)
    return impl.violating_partition(n, in_masks, f, r)


def workloads():
    rng = random.Random(2024)
    sweep = [random_masks(rng, 5, p) for p in (0.3, 0.5, 0.7, 0.9) for _ in range(50)]
    n9 = generate_graph("random-uniform", {"n": 9, "p": 0.9}, seed=5).in_masks()

    def partition_pass_k6(impl):
        partition(impl, 6, complete_masks(6), 1, 3)

    def partition_pass_n9(impl):
        partition(impl, 9, n9, 1, 3)

    def partition_pass_k12(impl):
        partition(impl, 12, complete_masks(12), 2, 5)

    def reduction_k6(impl):
        impl.failing_reduction(6, complete_masks(6), 1, 1, 10**9)

    def source_size_k7(impl):
        impl.failing_reduction(7, complete_masks(7), 1, 2, 10**9)

    def reduction_sweep_n5(impl):
        for masks in sweep:
            impl.failing_reduction(5, masks, 1, 1, 10**9)
            partition(impl, 5, masks, 1, 2)

    return [
        ("partition check, K6 async f=1 (pass)", partition_pass_k6),
        ("partition check, n=9 p=0.9 f=1", partition_pass_n9),
        ("partition check, K12 async f=2 (pass)", partition_pass_k12),
        ("reduced-graph check, K6 f=1 (pass)", reduction_k6),
        ("source-size check, K7 f=1 (pass)", source_size_k7),
        ("200-graph n=5 sweep (both checks)", reduction_sweep_n5),
    ]


def best_time(fn, impl, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(impl)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    args = parser.parse_args()

    if native is None:
        print("compiled kernel not available; showing pure timings only")
    header = f"{'workload':44s} {'pure':>10s} {'native':>10s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for name, fn in workloads():
        t_pure = best_time(fn, pure, args.repeat)
        if native is not None:
            t_native = best_time(fn, native, args.repeat)
            print(f"{name:44s} {t_pure:9.4f}s {t_native:9.4f}s {t_pure / t_native:7.1f}x")
        else:
            print(f"{name:44s} {t_pure:9.4f}s {'-':>10s} {'-':>8s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
