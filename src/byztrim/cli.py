"""Command-line interface.

Subcommands: check (condition verdicts with witnesses), equiv (partition
check vs reduced-graph oracle agreement), gen (graph generators), run
(simulate a config), attack (build and run the convergence-blocking
schedule), verify (validity + contraction bound on a trace CSV).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from byztrim import harness, simnet
from byztrim._inputs import decimal, integer
from byztrim.conditions import (
    ASYNC,
    SYNC,
    check_partition_condition,
    check_reduced_graph_condition,
    check_source_component_size,
)
from byztrim.digraph import GraphError, parse_graph
from byztrim.protocol import compute_alpha


# `attack` calls the spread constant when it moves by at most this fraction
# of the larger level magnitude.  With levels that are not dyadic (m=0.3) a
# side averaging copies of its own level can land an ulp or two away from
# it, so exact equality would misreport a frozen spread.
SPREAD_DRIFT_RTOL = 1e-12


def _load_graph(path: str):
    with open(path) as fh:
        return parse_graph(fh.read())


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _metrics_path(out: str) -> str:
    if out.endswith(".csv"):
        return out[: -len(".csv")] + ".metrics.csv"
    return out + ".metrics.csv"


def _budget_message(report) -> str:
    return f"error: {report.check} search budget exceeded ({report.budget} search nodes); no verdict"


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    if args.oracle == "reduced-graph":
        if args.mode != SYNC:
            print("error: the reduced-graph oracle decides the sync condition only", file=sys.stderr)
            return 2
        report = check_reduced_graph_condition(g, args.f)
    else:
        report = check_partition_condition(g, args.f, args.mode)
    out = report.to_json_dict()
    verdicts = [report.verdict]
    if args.source_size:
        size_report = check_source_component_size(g, args.f)
        out["source_size"] = size_report.to_json_dict()
        verdicts.append(size_report.verdict)
    _emit(out)
    if "fail" in verdicts:
        return 1
    if "budget-exceeded" in verdicts:
        return 2
    return 0


def _cmd_equiv(args) -> int:
    if args.exhaustive:
        if args.n > 5:
            print("error: --exhaustive is limited to n <= 5", file=sys.stderr)
            return 2
        graphs = harness.all_digraphs(args.n)
        source = "exhaustive"
        total = 1 << (args.n * (args.n - 1))
    else:
        if args.samples < 1:
            print("error: --samples must be at least 1", file=sys.stderr)
            return 2
        rng = random.Random(args.seed)
        palette = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
        graphs = (
            harness.generate_graph(
                "random-uniform",
                {"n": args.n, "p": palette[i % len(palette)]},
                seed=rng.randrange(2**32),
            )
            for i in range(args.samples)
        )
        source = "sampled"
        total = args.samples
    disagreements = []
    passes = 0
    budget_exceeded = 0
    for g in graphs:
        partition_verdict = check_partition_condition(g, args.f, SYNC).verdict
        reduced_verdict = check_reduced_graph_condition(g, args.f).verdict
        if partition_verdict == "pass":
            passes += 1
        if "budget-exceeded" in (partition_verdict, reduced_verdict):
            # One side has no verdict, so the pair can neither agree nor disagree.
            budget_exceeded += 1
        elif partition_verdict != reduced_verdict:
            disagreements.append(
                {
                    "graph": g.to_dict(),
                    "partition": partition_verdict,
                    "reduced-graph": reduced_verdict,
                }
            )
    _emit(
        {
            "n": args.n,
            "f": args.f,
            "source": source,
            "total": total,
            "passing": passes,
            "disagreements": disagreements[:10],
            "budget_exceeded": budget_exceeded,
            "agreement": not disagreements,
        }
    )
    if disagreements:
        return 1
    return 2 if budget_exceeded else 0


def _cmd_gen(args) -> int:
    params = {name: value for name, value in (("n", args.n), ("p", args.p)) if value is not None}
    g = harness.generate_graph(args.kind, params, seed=args.seed)
    with open(args.out, "w") as fh:
        json.dump(g.to_dict(), fh, indent=2)
        fh.write("\n")
    return 0


def _run_and_write(config: simnet.SimConfig, out: str) -> simnet.Trace:
    trace = simnet.run_simulation(config)
    simnet.write_trace_csv(trace, out)
    simnet.write_metrics_csv(trace, _metrics_path(out))
    return trace


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        config = simnet.SimConfig.from_json(fh.read())
    trace = _run_and_write(config, args.out)
    metrics = simnet.trace_metrics(trace)
    _emit(
        {
            "outcome": trace.outcome,
            "converged_round": trace.converged_round,
            "rounds": trace.common_rounds,
            "final_spread": trace.spread(trace.common_rounds),
            "validity_ok": metrics.all_valid,
            "trace": args.out,
            "metrics": _metrics_path(args.out),
        }
    )
    return 0


def _cmd_attack(args) -> int:
    g = _load_graph(args.graph)
    report = check_partition_condition(g, args.f, ASYNC)
    if report.verdict == "budget-exceeded":
        print(_budget_message(report), file=sys.stderr)
        return 2
    if report.passed:
        print("error: graph satisfies the asynchronous condition; no violating partition exists", file=sys.stderr)
        return 1
    config = simnet.build_attack_config(
        g, args.f, report.witness, args.m, args.M, max_rounds=args.rounds
    )
    trace = _run_and_write(config, args.out)
    drift = max(trace.spreads) - min(trace.spreads)
    _emit(
        {
            "witness": report.witness.to_json_dict(),
            "outcome": trace.outcome,
            "rounds": trace.common_rounds,
            "spread_drift": drift,
            "spread_constant": drift <= SPREAD_DRIFT_RTOL * max(abs(args.m), abs(args.M)),
            "final_spread": trace.spread(trace.common_rounds),
            "trace": args.out,
            "metrics": _metrics_path(args.out),
        }
    )
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    precheck = check_partition_condition(g, args.f, ASYNC)
    if precheck.verdict == "budget-exceeded":
        print(_budget_message(precheck), file=sys.stderr)
        return 2
    if not precheck.passed:
        print("error: graph fails the asynchronous condition; the contraction bound does not apply", file=sys.stderr)
        return 2
    values = simnet.read_trace_csv(args.trace)
    if not values:
        print("error: empty trace", file=sys.stderr)
        return 2
    strays = sorted(set(values).difference(g.nodes))
    if strays:
        print(f"error: trace names node(s) {', '.join(map(str, strays))} not in the graph", file=sys.stderr)
        return 2
    u, mu, validity = simnet.value_levels(values)
    spreads = [a - b for a, b in zip(u, mu)]
    validity_ok = all(validity)
    alpha = compute_alpha(g, args.f)
    ok, report = harness.verify_contraction(spreads, alpha, g.n, args.f)
    _emit(
        {
            "validity_ok": validity_ok,
            "contraction": report.to_json_dict(),
            "alpha": str(alpha),
            "rounds": len(u) - 1,
        }
    )
    return 0 if ok and validity_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byztrim",
        description="Robustness conditions and adversarial simulation for "
        "iterative trim-and-average consensus on directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide the graph condition, emit a witness on failure")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--f", type=integer, required=True, help="fault bound")
    p.add_argument("--mode", choices=(SYNC, ASYNC), required=True)
    p.add_argument("--oracle", choices=("reduced-graph",), help="use the reduced-graph form (sync only)")
    p.add_argument("--source-size", action="store_true", help="also check source-component sizes")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("equiv", help="compare partition and reduced-graph checks over many graphs")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--f", type=integer, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true", help="all digraphs on n nodes (n <= 5)")
    group.add_argument("--samples", type=integer, default=100, help="number of random graphs")
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("gen", help="generate a graph JSON file")
    p.add_argument("--kind", choices=harness.GRAPH_KINDS, required=True)
    p.add_argument("--n", type=integer)
    p.add_argument("--p", type=decimal)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("run", help="simulate a config JSON, write trace + metrics CSVs")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("attack", help="find a violating partition and run the blocking schedule")
    p.add_argument("graph")
    p.add_argument("--f", type=integer, required=True)
    p.add_argument("--m", type=decimal, default=0.0)
    p.add_argument("--M", type=decimal, default=1.0)
    p.add_argument("--rounds", type=integer, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("verify", help="check validity and the contraction bound on a trace CSV")
    p.add_argument("trace")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", type=integer, required=True)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, ValueError, OSError, simnet.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
