#!/usr/bin/env python3
"""byztrim benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload conditions|simulate|attack \
        --seed N --seconds S --trace 0|1

Run from the repository root; byztrim is imported from ./src, so nothing
needs installing or building (the pure-Python kernels are used unless a
compiled extension sits in src/).

Untraced (--trace 0): cycle through the seeded input pool, timing each op,
until --seconds of op time have passed and at least one full cycle is done.
A fixed reference loop is timed after every op, and an op's cost is its wall
time in multiples of the reference loop's time around it (unit `ref`), which
cancels the shared host's changing speed.  Reports op_cost_mean,
op_cost_p50, op_cost_tail (the highest percentile with at least ten ops
beyond it), peak_rss_mb, and setup_s: the median of nine set-ups (import
byztrim afresh, generate the inputs, make a temp dir), the first before the
ops and the rest spread over the run.  Wall-clock ops/s and op times go to
the record.

Traced (--trace 1): alternate untraced and traced cycles of the pool until
--seconds have passed.  Spans are recorded around every call the benchmark
makes into a byztrim module; each per-layer metric is the median over the
traced cycles of its per-cycle total, counts are per cycle, and
trace.overhead compares the cost (in `ref`, as above) of traced with untraced
cycles of identical work.
Simulator traces are also replayed through the protocol layer.

Every op's output is checked; a failed check counts the op as failed, and
the run then exits 1.  The last stdout line is the JSON result; a fuller
record (input mix, output digest, environment, spans) is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from checks import replay
from tracing import NullTracer, Tracer, self_times
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUPS = 9
REF_ITERATIONS = 2000  # one reference loop, about 0.5 ms
REF_SAMPLES = 4  # reference loops timed after each op
TAIL_OPS = 10  # ops that must lie beyond the reported tail percentile

# per-layer time metric -> span names it sums
SPAN_METRICS = {
    "digraph.parse_s": ("digraph.parse_graph",),
    "conditions.partition_s": ("conditions.check_partition_condition",),
    "conditions.reduced_s": ("conditions.check_reduced_graph_condition",),
    "conditions.source_size_s": ("conditions.check_source_component_size",),
    "protocol.replay_s": ("protocol.replay",),
    "simnet.run_s": ("simnet.run_simulation",),
    "simnet.build_attack_s": ("simnet.build_attack_config",),
    "simnet.csv_write_s": ("simnet.write_trace_csv", "simnet.write_metrics_csv"),
    "simnet.csv_read_s": ("simnet.read_trace_csv",),
    "simnet.trace_metrics_s": ("simnet.trace_metrics",),
    "harness.verify_contraction_s": ("harness.verify_contraction",),
}
COUNT_METRICS = (
    "conditions.partition_calls",
    "conditions.reduced_examined",
    "conditions.source_size_examined",
    "conditions.budget_exceeded",
    "protocol.updates",
    "simnet.deliveries",
    "simnet.rounds",
    "simnet.csv_bytes",
)
SCHEDULERS = ("random", "fifo", "adaptive-delay")


def import_byztrim():
    """Import byztrim from this checkout's src/, dropping any earlier import
    so that the import cost is paid again."""
    for name in [m for m in sys.modules if m == "byztrim" or m.startswith("byztrim.")]:
        del sys.modules[name]
    lib = importlib.import_module("byztrim")
    if Path(lib.__file__).resolve().parent != SRC / "byztrim":
        raise ImportError(f"byztrim imported from {lib.__file__}, not from {SRC}")
    return lib


def declared_units(traced: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the largest value with TAIL_OPS values beyond it."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_OPS - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Run:
    """One workload's ops over its pool, with failure, digest and count bookkeeping."""

    def __init__(self, workload, lib, pool, tmp):
        self.wl, self.lib, self.pool, self.tmp = workload, lib, pool, tmp
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}  # pool index -> first cycle's output digest
        self.totals = Counter()  # counts over every op of the run
        self.cycle_tallies: dict[int, Counter] = defaultdict(Counter)
        self.op_scheduler: dict[int, str] = {}

    def op(self, idx: int, cycle: int, tracer, do_replay: bool) -> float:
        """Run, check and count one op; returns its wall time."""
        item = self.pool[idx]
        op_id = self.attempted
        self.attempted += 1
        tracer.op_id = op_id
        self.op_scheduler[op_id] = item.scheduler
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                res = self.wl.run_op(self.lib, item, tracer, self.tmp)
        except Exception:  # the op failed; record it and keep measuring
            elapsed = time.perf_counter() - start
            self._fail(f"op {op_id} ({item.kind})", [traceback.format_exc(limit=3)])
            return elapsed
        elapsed = time.perf_counter() - start
        errs = self.wl.check(item, res)
        digest = hashlib.sha256(self.wl.digest_bytes(res)).hexdigest()
        if self.digests.setdefault(idx, digest) != digest:
            errs.append("output differs from an earlier cycle's for the same input")
        tally = Counter()
        self.wl.count(item, res, tally)
        if do_replay and res.trace is not None:
            with tracer.span("protocol.replay"):
                same, updates, stored, ingested = replay(self.lib.protocol, res.trace)
            if not same:
                errs.append("protocol replay differs from trace.values")
            tally.update({"protocol.updates": updates, "protocol.stored": stored, "protocol.ingested": ingested})
        self.totals.update(tally)
        self.cycle_tallies[cycle].update(tally)
        if errs:
            self._fail(f"op {op_id} ({item.kind})", errs)
        return elapsed

    def _fail(self, what: str, errs: list[str]) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: " + "; ".join(errs))

    def workload_digest(self) -> str:
        joined = "".join(self.digests.get(i, "failed") for i in range(len(self.pool)))
        return hashlib.sha256(joined.encode()).hexdigest()


def setup(workload, seed: int, tracer):
    gc.collect()  # the previous setup's modules and inputs are garbage now
    start = time.perf_counter()
    lib = import_byztrim()
    pool = workload.build(lib, seed, tracer)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    return time.perf_counter() - start, lib, pool, tmp


def reference_loop() -> int:
    """Fixed interpreter work (dict updates, integer arithmetic), about half
    a millisecond, that no change to byztrim can touch.  Timed between ops,
    it tells how fast the shared host is running the interpreter right now."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        k = (i * 7919) % 1013
        table[k] = table.get(k, 0) + i
        acc ^= table[k] + k
    return acc


def time_reference(marks: list[tuple[float, float]]) -> None:
    """Append REF_SAMPLES (start, duration) reference timings to marks."""
    enabled = gc.isenabled()
    gc.disable()  # a collection of the program's heap is not the host's speed
    try:
        for _ in range(REF_SAMPLES):
            start = time.perf_counter()
            reference_loop()
            marks.append((start, time.perf_counter() - start))
    finally:
        if enabled:
            gc.enable()


def op_costs(ops: list[tuple[float, float]], marks: list[tuple[float, float]]) -> list[float]:
    """Each (start, wall time) op's time in multiples of the median of the
    REF_SAMPLES reference times just before it and the REF_SAMPLES just
    after it.  The host's speed also changes within a second, so the
    nearest samples track it best."""
    starts = [s for s, _ in marks]
    costs = []
    for start, t in ops:
        k = bisect.bisect_left(starts, start)  # no sample is taken during an op
        costs.append(t / statistics.median(d for _, d in marks[max(k - REF_SAMPLES, 0): k + REF_SAMPLES]))
    return costs


def measure_untraced(run: Run, seconds: float, extra_setup) -> tuple[dict, dict]:
    """Ops in pool order until --seconds of op time have passed and the pool
    has been done once, with the reference loop timed after every op.

    The shared host's speed moves by half or more between phases that last
    tens of seconds, in CPU time as much as in wall time, so one run's wall
    times cannot be compared with another's.  An op's cost is therefore its
    wall time divided by the median reference time measured right around
    it: its time in `ref`, multiples of one reference loop.  extra_setup()
    is called SETUPS - 1 times, spread over the run, so that setup_s too
    samples the whole run rather than one moment of it."""
    null = NullTracer()
    n = len(run.pool)
    marks: list[tuple[float, float]] = []
    ops: list[tuple[float, float]] = []  # (start, wall time)
    setups_done = 0
    busy = 0.0
    i = 0
    time_reference(marks)
    while i < n or busy < seconds:
        start = time.perf_counter()
        t = run.op(i % n, i // n, null, do_replay=False)
        ops.append((start, t))
        busy += t
        i += 1
        time_reference(marks)
        if setups_done < (SETUPS - 1) * min(busy / seconds, 1.0) - 0.5:
            extra_setup()
            setups_done += 1
            time_reference(marks)  # so the next op has samples just before it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while setups_done < SETUPS - 1:
        extra_setup()
        setups_done += 1

    costs = op_costs(ops, marks)
    times = [t for _, t in ops]
    value, pct = tail(costs)
    wall_tail, _ = tail(times)
    by_kind = defaultdict(list)
    for k, c in enumerate(costs):
        by_kind[run.pool[k % n].kind].append(c)
    metrics = {
        "op_cost_mean": statistics.fmean(costs),
        "op_cost_p50": statistics.median(costs),
        "op_cost_tail": value,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "ops": len(ops),
        "cycles": len(ops) / n,
        "op_cost_tail_percentile": pct,
        "op_cost_p50_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "reference_ms": {
            "median": statistics.median(d for _, d in marks) * 1000.0,
            "min": min(d for _, d in marks) * 1000.0,
            "samples": len(marks),
        },
        "failed_ratio": run.failed / run.attempted,
        # wall-clock figures; they move with the host's speed
        "wall": {
            "ops_per_s": len(ops) / busy,
            "op_p50_ms": statistics.median(times) * 1000.0,
            "op_tail_ms": wall_tail * 1000.0,
            "deliveries_per_s": run.totals["simnet.deliveries"] / busy,
        },
    }
    return metrics, extra


def measure_traced(run: Run, seconds: float, tracer) -> tuple[dict, dict]:
    null = NullTracer()
    setup_spans = len(tracer.spans)  # recorded by the last setup
    n = len(run.pool)
    untraced, traced, ranges = [], [], []
    marks: list[tuple[float, float]] = []
    cycle_ops: list[list[tuple[float, float]]] = []
    cycle = 0
    time_reference(marks)
    while not traced or sum(untraced) + sum(traced) < seconds:
        traced_cycle = cycle % 2 == 1
        first_span = len(tracer.spans)
        ops = []
        for idx in range(n):
            start = time.perf_counter()
            ops.append((start, run.op(idx, cycle, tracer if traced_cycle else null, do_replay=traced_cycle)))
            time_reference(marks)
        cycle_ops.append(ops)
        busy = sum(t for _, t in ops)
        if traced_cycle:
            traced.append(busy)
            ranges.append((cycle, first_span, len(tracer.spans)))
        else:
            untraced.append(busy)
        cycle += 1
    cycle_costs = [sum(op_costs(ops, marks)) for ops in cycle_ops]

    spans = tracer.spans
    per_cycle = []
    for cyc, lo, hi in ranges:
        rows = self_times(spans, lo, hi)
        row = {m: sum(rows.get(s, {}).get("total_s", 0.0) for s in names) for m, names in SPAN_METRICS.items()}
        sched_time = Counter()
        for name, start, end, _, op_id in spans[lo:hi]:
            if name == "simnet.run_simulation":
                sched_time[run.op_scheduler[op_id]] += end - start
        tally = run.cycle_tallies[cyc]
        for s in SCHEDULERS:
            row[f"simnet.deliveries_per_s.{s}"] = (
                tally[f"simnet.deliveries.{s}"] / sched_time[s] if sched_time[s] else 0.0
            )
        row["simnet.loop_s"] = row["simnet.run_s"] - row["protocol.replay_s"]
        per_cycle.append(row)
    metrics = {m: statistics.median(r[m] for r in per_cycle) for m in per_cycle[0]}

    first = run.cycle_tallies[ranges[0][0]]
    for name in COUNT_METRICS:
        metrics[name] = first[name]
    calls = first["conditions.partition_calls"]
    metrics["conditions.partition_pass_share"] = first["conditions.partition_passes"] / calls if calls else 0.0
    ingested = first["protocol.ingested"]
    metrics["protocol.stored_ratio"] = first["protocol.stored"] / ingested if ingested else 0.0
    setup_rows = self_times(spans, 0, setup_spans)
    metrics["harness.generate_s"] = setup_rows.get("harness.generate_graph", {}).get("total_s", 0.0)
    metrics["trace.overhead"] = statistics.median(cycle_costs[1::2]) / statistics.median(cycle_costs[0::2]) - 1.0
    for cyc, _, _ in ranges[1:]:
        if run.cycle_tallies[cyc] != first:
            run._fail(f"cycle {cyc}", ["counts differ from the first traced cycle's"])

    extra = {
        "cycles_untraced_s": untraced,
        "cycles_traced_s": traced,
        "cycle_costs_ref": cycle_costs,  # untraced, traced, untraced, ...
        "traced_ops_per_s": n / statistics.median(traced),
        "untraced_ops_per_s": n / statistics.median(untraced),
        "self_times_first_traced_cycle": self_times(spans, ranges[0][1], ranges[0][2]),
        "failed_ratio": run.failed / run.attempted,
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "byztrim" / "__init__.py").is_file():
        print(f"error: no byztrim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    setup_times, tmps = [], []

    def do_setup(trace_it: bool = False):
        t, lib, pool, tmp = setup(workload, args.seed, tracer if trace_it else NullTracer())
        setup_times.append(t)
        tmps.append(tmp)
        return lib, pool, tmp

    try:
        if tracer:
            for k in range(SETUPS):
                lib, pool, tmp = do_setup(trace_it=k == SETUPS - 1)
            run = Run(workload, lib, pool, tmp)
            metrics, extra = measure_traced(run, args.seconds, tracer)
        else:
            lib, pool, tmp = do_setup()
            run = Run(workload, lib, pool, tmp)
            modules = {m: sys.modules[m] for m in sys.modules if m == "byztrim" or m.startswith("byztrim.")}

            def extra_setup():
                do_setup()
                sys.modules.update(modules)  # the run keeps using its own import

            metrics, extra = measure_untraced(run, args.seconds, extra_setup)
            metrics["setup_s"] = statistics.median(setup_times)
    finally:
        for tmp in tmps:
            shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "backend": lib._kernels.BACKEND,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_commit": git_commit(),
        },
        "metrics": metrics,
        "detail": extra,
        "setup_times_s": setup_times,
        "pool_size": len(pool),
        "input_mix": workload.mix(pool, run.cycle_tallies[0]),
        "output_digest": run.workload_digest(),
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
    }
    if tracer:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        record["spans"] = [(n, s - t0, e - t0, p, o) for n, s, e, p, o in tracer.spans]
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json's {sorted(units)}", file=sys.stderr)
        return 2
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    for name in sorted(metrics):
        print(f"{name:42s} {metrics[name]:16.6g} {units[name]}")
    print(f"input mix: {json.dumps(record['input_mix'])}")
    print(f"output digest: {record['output_digest']}  record: {path.relative_to(ROOT)}")
    for err in run.errors:
        print(f"FAILED {err}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
