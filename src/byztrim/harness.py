"""Experiment support: graph generators and theoretical contraction-bound
verification."""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterator, Sequence

from byztrim._inputs import INT, REAL, int_value, real_value, spec_params
from byztrim.digraph import Digraph

CONTRACTION_SLACK = 1e-9


def _cycle(p: dict, seed: int) -> Digraph:
    n = p["n"]
    if n < 2:
        raise ValueError(f"cycle needs n >= 2, got {n}")
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def _random_uniform(p: dict, seed: int) -> Digraph:
    n, prob = p["n"], p["p"]
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {prob}")
    rng = random.Random(seed)
    return Digraph(n, [e for e in permutations(range(n), 2) if rng.random() < prob])


# kind -> (params and their types, required params, factory of the graph
# from the checked params and the seed), checked by spec_params as the
# simulator's scheduler and byzantine kinds are.
_GENERATORS = {
    "complete": ({"n": INT}, ("n",), lambda p, seed: Digraph(p["n"], permutations(range(p["n"]), 2))),
    "cycle": ({"n": INT}, ("n",), _cycle),
    "random-uniform": ({"n": INT, "p": REAL}, ("n", "p"), _random_uniform),
    "counterexample-k5": ({}, (), lambda p, seed: Digraph(5, permutations(range(5), 2), f_hint=1)),
}
GRAPH_KINDS = tuple(_GENERATORS)


def generate_graph(kind: str, params: dict | None = None, seed: int = 0) -> Digraph:
    """Deterministic graph generators.

    complete(n); cycle(n >= 2); random-uniform(n, p) with each ordered pair
    included independently with probability p; counterexample-k5 is the
    5-node complete graph, the smallest instance that defeats f=1 in
    asynchronous mode.  `n` and `seed` must be integers and `p` a finite
    real (not a boolean or a string); an unknown kind, an unknown, missing
    or mistyped parameter, or a mistyped seed raises ValueError.
    """
    checked = spec_params(kind, {} if params is None else params, "graph kind", _GENERATORS, 0)
    return _GENERATORS[kind][2](checked, int_value(seed, "seed"))


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

    `alpha` must be an int, float or Fraction (not a boolean) in (0, 1],
    as compute_alpha returns it, and every spread a finite real; anything
    else raises ValueError.
    """
    int_value(n, "n")
    int_value(f, "f", 0)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float, Fraction)) or not 0 < alpha <= 1:
        raise ValueError(f"alpha must be a finite number in (0, 1], got {alpha!r}")
    if not spreads:
        raise ValueError("trace has no rounds")
    for t, s in enumerate(spreads):
        real_value(s, f"spread of round {t}")
    window = n - f - 1
    if window < 1:
        raise ValueError(f"need n-f-1 >= 1, got n={n}, f={f}")
    factor = 1.0 - float(alpha) ** window / 2.0
    initial = spreads[0]
    first_violation = next(
        (t for t, s in enumerate(spreads) if s > factor ** (t // window) * initial + CONTRACTION_SLACK), None
    )
    ends = spreads[::window]
    observed = max((hi / lo for lo, hi in zip(ends, ends[1:]) if lo > 0), default=None)
    ok = first_violation is None
    return ok, ContractionReport(ok, window, factor, observed, len(spreads), first_violation)

