"""Naive reference implementations used as independent oracles.

Everything here favours obviousness over speed: explicit set arithmetic,
full itertools enumeration (no bitmasks, no minimal-reduction shortcut)
and networkx for the SCC work.  Only call these on tiny graphs.  The
scheduler selectors scan every pending message on each delivery.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx

from byztrim.digraph import Digraph
from byztrim.conditions import Partition
from byztrim.simnet import PendingMessage, SimulationError


def naive_reaches(g: Digraph, a: set[int], b: set[int], r: int) -> bool:
    for v in b:
        count = 0
        for u in a:
            if (u, v) in g.edges:
                count += 1
        if count >= r:
            return True
    return False


def naive_violating_partition(g: Digraph, f: int, r: int) -> Partition | None:
    """First violating partition in the canonical order (F by size then
    lexicographic; remaining nodes assigned base-3 digits L=0, C=1, R=2 with
    the smallest node as the most significant digit)."""
    nodes = list(g.nodes)
    for k in range(min(f, g.n) + 1):
        for fs in itertools.combinations(nodes, k):
            rest = [v for v in nodes if v not in fs]
            if len(rest) < 2:
                continue
            for digits in itertools.product((0, 1, 2), repeat=len(rest)):
                left = {v for v, d in zip(rest, digits) if d == 0}
                center = {v for v, d in zip(rest, digits) if d == 1}
                right = {v for v, d in zip(rest, digits) if d == 2}
                if not left or not right:
                    continue
                if naive_reaches(g, center | right, left, r):
                    continue
                if naive_reaches(g, left | center, right, r):
                    continue
                return Partition(
                    frozenset(fs), frozenset(left), frozenset(center), frozenset(right)
                )
    return None


def naive_partition_verdict(g: Digraph, f: int, r: int) -> str:
    return "pass" if naive_violating_partition(g, f, r) is None else "fail"


def _all_reduced_in_sets(g: Digraph, fs: tuple[int, ...], f: int):
    """Yield {node: kept in-neighbour set} for every reduced graph of (g, F, f),
    removing every subset of up to f extra in-edges per node."""
    survivors = [v for v in g.nodes if v not in fs]
    options = []
    for v in survivors:
        base = sorted(u for u in g.in_nbrs[v] if u not in fs)
        node_opts = []
        for k in range(min(f, len(base)) + 1):
            for removal in itertools.combinations(base, k):
                node_opts.append(set(base) - set(removal))
        options.append(node_opts)
    for combo in itertools.product(*options):
        yield dict(zip(survivors, combo))


def _source_component_sizes(kept_in: dict[int, set[int]]) -> list[int]:
    dg = nx.DiGraph()
    dg.add_nodes_from(kept_in)
    for v, nbrs in kept_in.items():
        for u in nbrs:
            dg.add_edge(u, v)
    cond = nx.condensation(dg)
    return [
        len(cond.nodes[c]["members"]) for c in cond.nodes if cond.in_degree(c) == 0
    ]


def naive_reduced_verdict(g: Digraph, f: int) -> str:
    """Exactly-one-source-component over the FULL reduced-graph family."""
    for k in range(min(f, g.n - 1) + 1):
        for fs in itertools.combinations(g.nodes, k):
            for kept_in in _all_reduced_in_sets(g, fs, f):
                if len(_source_component_sizes(kept_in)) != 1:
                    return "fail"
    return "pass"


def naive_source_size_verdict(g: Digraph, f: int) -> str:
    for k in range(min(f, g.n - 1) + 1):
        for fs in itertools.combinations(g.nodes, k):
            for kept_in in _all_reduced_in_sets(g, fs, f):
                sizes = _source_component_sizes(kept_in)
                if len(sizes) != 1 or sizes[0] < f + 1:
                    return "fail"
    return "pass"


def naive_failing_reduction(g: Digraph, f: int, min_source_size: int, budget: int):
    """Literal sweep of the minimal reductions in the kernel's order.

    Fault sets by size then lexicographic (|F| < n).  Per surviving node,
    every removal of exactly min(f, d) of its d remaining in-neighbours, in
    combinations order; reductions in itertools.product order over the
    survivors (last survivor fastest).  Each reduction inspected counts as
    one examined; past `budget` the sweep stops, reporting budget + 1.
    Returns (status, examined, (F, {node: kept in-neighbour set})) for the
    first reduction without a unique source component of at least
    min_source_size nodes, status being "pass" | "fail" | "budget-exceeded".
    """
    examined = 0
    for k in range(min(f, g.n - 1) + 1):
        for fs in itertools.combinations(g.nodes, k):
            survivors = [v for v in g.nodes if v not in fs]
            options = []
            for v in survivors:
                base = sorted(u for u in g.in_nbrs[v] if u not in fs)
                w = min(f, len(base))
                options.append(
                    [set(base) - set(removal) for removal in itertools.combinations(base, w)]
                )
            for combo in itertools.product(*options):
                examined += 1
                if examined > budget:
                    return ("budget-exceeded", examined, None)
                kept_in = dict(zip(survivors, combo))
                sizes = _source_component_sizes(kept_in)
                if len(sizes) != 1 or sizes[0] < min_source_size:
                    return ("fail", examined, (set(fs), kept_in))
    return ("pass", examined, None)


def nx_condense(g: Digraph):
    """networkx condensation as (components sorted by min member, dag edge set)."""
    dg = nx.DiGraph()
    dg.add_nodes_from(g.nodes)
    dg.add_edges_from(g.edges)
    cond = nx.condensation(dg)
    comps = sorted((frozenset(cond.nodes[c]["members"]) for c in cond.nodes), key=min)
    index = {comp: i for i, comp in enumerate(comps)}
    mapping = {c: index[frozenset(cond.nodes[c]["members"])] for c in cond.nodes}
    dag = {(mapping[a], mapping[b]) for a, b in cond.edges}
    return comps, dag


# ---------------------------------------------------------------------------
# Naive scheduler selectors: a scan of the whole pending list per delivery.
# Each returns the index into `pending` of the message to deliver next.


class NaiveRandomSelector:
    """Uniform out-of-order delivery among all pending messages."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def select(self, pending: list[PendingMessage], rounds: dict[int, int]) -> int:
        return self.rng.randrange(len(pending))


class NaiveFifoSelector:
    """Random delivery, but per-link in order (lowest sequence per link first)."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def select(self, pending: list[PendingMessage], rounds: dict[int, int]) -> int:
        heads: dict[tuple[int, int], int] = {}
        for idx, pm in enumerate(pending):
            link = (pm.message.sender, pm.destination)
            if link not in heads or pm.sequence < pending[heads[link]].sequence:
                heads[link] = idx
        candidates = sorted(heads.values(), key=lambda i: pending[i].sequence)
        return candidates[self.rng.randrange(len(candidates))]


class NaiveSynchronousSelector:
    """Lowest (tag, sequence) first."""

    def select(self, pending: list[PendingMessage], rounds: dict[int, int]) -> int:
        best = min(range(len(pending)), key=lambda i: (pending[i].message.tag, pending[i].sequence))
        return best


class NaiveAdaptiveDelaySelector:
    """Lowest sequence among the messages not withheld; `withheld` maps a
    receiver to the senders whose messages it is starved of."""

    def __init__(self, withheld: dict[int, frozenset[int]]):
        self.withheld = withheld

    def _held(self, pm: PendingMessage, rounds: dict[int, int]) -> bool:
        senders = self.withheld.get(pm.destination)
        if not senders or pm.message.sender not in senders:
            return False
        # Held while the receiver could still use the tag (round <= tag+1).
        return rounds[pm.destination] <= pm.message.tag + 1

    def select(self, pending: list[PendingMessage], rounds: dict[int, int]) -> int:
        best = -1
        for idx, pm in enumerate(pending):
            if self._held(pm, rounds):
                continue
            if best < 0 or pm.sequence < pending[best].sequence:
                best = idx
        if best < 0:
            raise SimulationError("scheduler deadlock: every pending message is withheld")
        return best
