"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to see them on success).

Criteria:
 1. partition check (sync) == reduced-graph check, exhaustively for n <= 4
    and on a 1000-graph random sample at n = 5, f in {0, 1};
 2. graphs passing the async check always satisfy n > 5f and
    min in-degree >= 3f+1 (500 random graphs, n <= 10, f in {1, 2});
 3. K5/f=1 fails async with a self-verifying witness, K6/f=1 passes;
 4. validity (monotone fault-free min/max, 1e-12 slack) on K6 under three
    Byzantine behaviors x 100 seeds;
 5. convergence within the theoretical round bound for alpha=1/3, L=4;
 6. the per-round contraction bound holds (1e-9 slack) on every such trace;
 7. the constructed K5 attack pins the spread at exactly 1.0 for 1000 rounds;
 8. propagation dichotomy with stage bound n-2f-1 on 200 passing graphs;
 9. byte-identical trace CSVs on repeated runs.
"""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction

import pytest

from byztrim.conditions import (
    check_partition_condition,
    check_reduced_graph_condition,
    propagates,
    quick_degree_checks,
    reaches,
)
from byztrim.digraph import Digraph
from byztrim.harness import all_digraphs, verify_contraction
from byztrim.protocol import compute_alpha
from byztrim.simnet import (
    ByzantineSpec,
    SchedulerSpec,
    SimConfig,
    build_attack_config,
    run_simulation,
    trace_metrics,
    write_metrics_csv,
    write_trace_csv,
)
from conftest import complete, random_digraph

EPS_TARGET = 1e-6  # convergence target as a fraction of the initial spread
ALPHA = Fraction(1, 3)  # K6, f=1
WINDOW = 4  # n - f - 1
ROUND_BOUND = math.ceil(WINDOW * math.log(EPS_TARGET) / math.log(1 - float(ALPHA) ** WINDOW / 2))

K6 = complete(6)
FAULTY_NODE = 5
BEHAVIORS = {
    "split": ByzantineSpec(
        "split",
        {"m": 0.0, "M": 1.0, "m_minus": -1.0, "M_plus": 2.0,
         "left": [0, 1], "right": [2, 3]},
    ),
    "identical-wrong": ByzantineSpec("identical-wrong", {"value": 7.0}),
    "random": ByzantineSpec("random", {"low": -5.0, "high": 5.0}),
}


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def k6_config(behavior: ByzantineSpec, seed: int) -> SimConfig:
    rng = random.Random(seed)
    inputs = tuple(rng.random() for _ in range(6))
    fault_free = [inputs[v] for v in range(6) if v != FAULTY_NODE]
    epsilon = EPS_TARGET * (max(fault_free) - min(fault_free))
    return SimConfig(
        graph=K6,
        f=1,
        fault_set=frozenset({FAULTY_NODE}),
        inputs=inputs,
        scheduler=SchedulerSpec("random"),
        byzantine=behavior,
        seed=seed,
        max_rounds=ROUND_BOUND,
        epsilon=epsilon,
    )


@pytest.fixture(scope="module")
def k6_traces():
    """100 seeds x 3 behaviors on K6 with one Byzantine node (criteria 4-6)."""
    out = []
    for name, behavior in BEHAVIORS.items():
        for seed in range(100):
            cfg = k6_config(behavior, seed)
            out.append((name, seed, run_simulation(cfg)))
    return out


def test_criterion_1_condition_equivalence():
    mismatches = []
    total = 0
    for n in range(1, 5):
        for g in all_digraphs(n):
            for f in (0, 1):
                total += 1
                a = check_partition_condition(g, f, "sync").verdict
                b = check_reduced_graph_condition(g, f).verdict
                if a != b:
                    mismatches.append((g.to_dict(), f, a, b))
    rng = random.Random(20260810)
    palette = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
    for i in range(1000):
        g = random_digraph(5, palette[i % len(palette)], rng)
        for f in (0, 1):
            total += 1
            a = check_partition_condition(g, f, "sync").verdict
            b = check_reduced_graph_condition(g, f).verdict
            if a != b:
                mismatches.append((g.to_dict(), f, a, b))
    report(
        1,
        "condition equivalence",
        not mismatches,
        f"{total} instances, {len(mismatches)} disagreements",
    )


def test_criterion_2_corollary_consistency():
    rng = random.Random(77001)
    palette = (0.3, 0.5, 0.65, 0.8, 0.9, 0.95)
    exceptions = []
    passing = 0
    for i in range(500):
        n = rng.randrange(2, 11)
        g = random_digraph(n, palette[i % len(palette)], rng)
        f = 1 + (i % 2)
        if not check_partition_condition(g, f, "async").passed:
            continue
        passing += 1
        if g.n <= 5 * f:
            exceptions.append((g.to_dict(), f, "node count"))
        if min(len(g.in_nbrs[v]) for v in g.nodes) < 3 * f + 1:
            exceptions.append((g.to_dict(), f, "in-degree"))
        if quick_degree_checks(g, f):
            exceptions.append((g.to_dict(), f, "quick filter"))
    assert passing >= 10, "sample produced too few passing graphs to be meaningful"
    report(
        2,
        "corollary consistency",
        not exceptions,
        f"500 graphs, {passing} passing, {len(exceptions)} exceptions",
    )


def test_criterion_3_threshold_instances():
    k5 = complete(5)
    rep5 = check_partition_condition(k5, 1, "async")
    ok = rep5.verdict == "fail" and rep5.witness is not None
    if ok:
        w = rep5.witness
        w.check_covers(k5)
        ok = (
            len(w.faulty) <= 1
            and bool(w.left)
            and bool(w.right)
            and not reaches(k5, w.center | w.right, w.left, 3)
            and not reaches(k5, w.left | w.center, w.right, 3)
        )
    rep6 = check_partition_condition(K6, 1, "async")
    ok = ok and rep6.passed
    report(3, "threshold instances", ok, "K5 fail w/ verified witness, K6 pass")


def test_criterion_4_validity(k6_traces):
    violations = []
    for name, seed, trace in k6_traces:
        metrics = trace_metrics(trace)
        if not metrics.all_valid:
            bad = [t for t, v in enumerate(metrics.validity_per_round) if not v]
            violations.append((name, seed, bad))
    report(
        4,
        "validity",
        not violations,
        f"{len(k6_traces)} traces, {len(violations)} validity violations",
    )


def test_criterion_5_convergence_bound(k6_traces):
    assert compute_alpha(K6, 1) == ALPHA
    late = []
    measured = []
    for name, seed, trace in k6_traces:
        if trace.outcome != "converged" or trace.converged_round > ROUND_BOUND:
            late.append((name, seed, trace.outcome, trace.converged_round))
        else:
            measured.append(trace.converged_round)
    detail = (
        f"bound {ROUND_BOUND} rounds; measured max {max(measured)}, "
        f"mean {sum(measured) / len(measured):.1f}"
        if measured
        else "no converged runs"
    )
    report(5, "convergence within theoretical bound", not late, detail)


def test_criterion_6_contraction_bound(k6_traces):
    failures = []
    for name, seed, trace in k6_traces:
        ok, rep = verify_contraction(trace.spreads, ALPHA, 6, 1)
        if not ok:
            failures.append((name, seed, rep.first_violation_round))
    report(
        6,
        "contraction bound",
        not failures,
        f"{len(k6_traces)} traces checked at 1e-9 slack, {len(failures)} violations",
    )


def test_criterion_7_attack_stasis():
    k5 = complete(5)
    witness = check_partition_condition(k5, 1, "async").witness
    assert witness is not None
    cfg = build_attack_config(k5, 1, witness, 0.0, 1.0, max_rounds=1000)
    trace = run_simulation(cfg)
    zero = struct.pack("<d", 0.0)
    one = struct.pack("<d", 1.0)
    ok = trace.outcome == "max-rounds-hit" and trace.common_rounds == 1000
    ok = ok and all(s == 1.0 for s in trace.spreads)
    for v in witness.left:
        ok = ok and all(struct.pack("<d", x) == zero for x in trace.values[v])
    for v in witness.right:
        ok = ok and all(struct.pack("<d", x) == one for x in trace.values[v])
    report(7, "attack stasis", ok, "1000 rounds, bitwise 0.0/1.0, spread exactly 1")


def test_criterion_8_propagation_dichotomy():
    rng = random.Random(31415)
    palette = (0.7, 0.8, 0.9, 0.97)
    passing: list[Digraph] = []
    attempts = 0
    while len(passing) < 200:
        attempts += 1
        assert attempts < 20000, "graph sampling is not terminating"
        n = rng.choice((6, 7, 8))
        g = random_digraph(n, rng.choice(palette), rng)
        if check_partition_condition(g, 1, "async").passed:
            passing.append(g)
    failures = []
    checked = 0
    for g in passing:
        r = 3  # 2f+1, f=1
        for _ in range(20):
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            fault = set(nodes[: rng.randrange(0, 2)])
            rest = nodes[len(fault):]
            cut = rng.randrange(1, len(rest))
            a, b = set(rest[:cut]), set(rest[cut:])
            checked += 1
            fwd = propagates(g, a, b, r)
            bwd = propagates(g, b, a, r)
            if not (fwd.succeeded or bwd.succeeded):
                failures.append((g.to_dict(), sorted(a), sorted(b), sorted(fault)))
                continue
            for t in (fwd, bwd):
                if t.succeeded and t.rounds > g.n - 2 * 1 - 1:
                    failures.append((g.to_dict(), "stage bound", t.rounds))
    report(
        8,
        "propagation dichotomy",
        not failures,
        f"200 passing graphs, {checked} partitions, {len(failures)} exceptions",
    )


def test_criterion_9_determinism(tmp_path):
    k5 = complete(5)
    witness = check_partition_condition(k5, 1, "async").witness
    configs = [k6_config(b, seed=0) for b in BEHAVIORS.values()]
    configs.append(build_attack_config(k5, 1, witness, 0.0, 1.0, max_rounds=50))
    configs.append(
        SimConfig(
            graph=Digraph(2, [(0, 1), (1, 0)]),
            f=0,
            fault_set=frozenset(),
            inputs=(0.0, 1.0),
            scheduler=SchedulerSpec("fifo"),
            seed=9,
            max_rounds=30,
            epsilon=1e-9,
        )
    )
    mismatches = 0
    for i, cfg in enumerate(configs):
        paths = []
        for rerun in ("a", "b"):
            trace = run_simulation(cfg)
            tp = tmp_path / f"{i}-{rerun}.csv"
            mp = tmp_path / f"{i}-{rerun}.metrics.csv"
            write_trace_csv(trace, str(tp))
            write_metrics_csv(trace, str(mp))
            paths.append((tp.read_bytes(), mp.read_bytes()))
        if paths[0] != paths[1]:
            mismatches += 1
    report(
        9,
        "determinism",
        mismatches == 0,
        f"{len(configs)} configs re-run, byte-compared trace+metrics CSVs",
    )
