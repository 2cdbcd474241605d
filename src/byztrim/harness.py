"""Experiment orchestration: graph generators, theoretical contraction-bound
verification, and seeded batch runs."""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from byztrim.digraph import Digraph
from byztrim.simnet import SimConfig, Trace, run_simulation

CONTRACTION_SLACK = 1e-9

GRAPH_KINDS = ("complete", "cycle", "random-uniform", "counterexample-k5")


def generate_graph(kind: str, params: dict | None = None, seed: int = 0) -> Digraph:
    """Deterministic graph generators.

    complete(n); cycle(n >= 2); random-uniform(n, p) with each ordered pair
    included independently with probability p; counterexample-k5 is the
    5-node complete graph, the smallest instance that defeats f=1 in
    asynchronous mode.  `n` must be an integer and `p` a real number (not
    a boolean or a string); a missing or mistyped parameter raises
    ValueError.
    """
    params = params or {}

    def param(name: str, real: bool = False):
        if name not in params:
            raise ValueError(f"{kind} graph is missing parameter {name!r}")
        value = params[name]
        if isinstance(value, bool) or not isinstance(value, (int, float) if real else int):
            expected = "a real number" if real else "an integer"
            raise ValueError(f"{kind} graph parameter {name!r} must be {expected}, got {value!r}")
        return value

    if kind == "complete":
        n = param("n")
        return Digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])
    if kind == "cycle":
        n = param("n")
        if n < 2:
            raise ValueError(f"cycle needs n >= 2, got {n}")
        return Digraph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "random-uniform":
        n = param("n")
        p = param("p", real=True)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability must be in [0,1], got {p}")
        rng = random.Random(seed)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < p
        ]
        return Digraph(n, edges)
    if kind == "counterexample-k5":
        return Digraph(5, [(i, j) for i in range(5) for j in range(5) if i != j], f_hint=1)
    raise ValueError(f"unknown graph kind {kind!r}; known: {', '.join(GRAPH_KINDS)}")


def all_digraphs(n: int) -> Iterator[Digraph]:
    """Every labelled simple digraph on n nodes, in a fixed order
    (2^(n(n-1)) graphs; only sensible for tiny n)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(pairs)):
        yield Digraph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])


@dataclass(frozen=True)
class ContractionReport:
    ok: bool
    window: int
    theoretical_factor: float
    observed_worst_factor: float | None
    rounds_checked: int
    first_violation_round: int | None

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def verify_contraction(
    spreads: Sequence[float], alpha: Fraction | float, n: int, f: int
) -> tuple[bool, ContractionReport]:
    """Check the guaranteed geometric shrink of the fault-free spread, given
    per round (a Trace's `spreads`, or U - mu from a trace CSV).

    With window length L = n-f-1, the spread at round t must not exceed
    (1 - alpha^L/2)^floor(t/L) times the initial spread (plus a small
    absolute slack for float accumulation).  Also reports the worst
    per-window shrink factor actually observed.
    """
    if not spreads:
        raise ValueError("trace has no rounds")
    window = n - f - 1
    if window < 1:
        raise ValueError(f"need n-f-1 >= 1, got n={n}, f={f}")
    factor = 1.0 - float(alpha) ** window / 2.0
    initial = spreads[0]
    ok = True
    first_violation = None
    for t, s in enumerate(spreads):
        bound = factor ** (t // window) * initial + CONTRACTION_SLACK
        if s > bound:
            ok = False
            first_violation = t
            break
    observed = None
    for k in range((len(spreads) - 1) // window):
        lo, hi = spreads[k * window], spreads[(k + 1) * window]
        if lo > 0:
            ratio = hi / lo
            observed = ratio if observed is None else max(observed, ratio)
    report = ContractionReport(
        ok=ok,
        window=window,
        theoretical_factor=factor,
        observed_worst_factor=observed,
        rounds_checked=len(spreads),
        first_violation_round=first_violation,
    )
    return ok, report


@dataclass(frozen=True)
class ExperimentSpec:
    """A named batch of simulations: one base config re-run under several
    distinct seeds."""

    name: str
    config: SimConfig
    seeds: tuple[int, ...]

    def validate(self) -> None:
        self.config.validate()
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("experiment seeds must be distinct")
        if not self.seeds:
            raise ValueError("experiment needs at least one seed")


def _run_seed(config: SimConfig, seed: int) -> Trace:
    return run_simulation(dataclasses.replace(config, seed=seed))


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> list[Trace]:
    """Run every seed; results come back in seed order regardless of the
    worker pool's completion order."""
    spec.validate()
    if workers and workers > 1:
        # Imported here: concurrent.futures pulls in multiprocessing, which
        # costs every `import byztrim` about 2.5 MB and most runs never use it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_seed, itertools.repeat(spec.config), spec.seeds))
    return [_run_seed(spec.config, s) for s in spec.seeds]
