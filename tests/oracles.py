"""Naive reference implementations used as independent oracles.

Everything here favours obviousness over speed: explicit set arithmetic,
full itertools enumeration (no bitmasks, no minimal-reduction shortcut)
and networkx for the SCC work.  Only call these on tiny graphs.  The
scheduler selectors scan every pending message on each delivery, and
naive_run_simulation is the event loop as it was before its per-message
shortcuts, with its own copy of the node update rule.  Two partition
oracles reach past tiny graphs: reference_violating_partition is the
pruned search without its twin cut, and milp_partition_verdict decides the
condition with scipy's MILP solver.  naive_read_trace_csv reads a trace CSV
by the README's file-format rules, with regular expressions for the cells.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
import re
from typing import NamedTuple

import networkx as nx

from byztrim._kernels import BUDGET_EXCEEDED, FAIL, PASS, _bits
from byztrim.digraph import Digraph
from byztrim.conditions import Partition
from byztrim.protocol import ProtocolError, RoundMessage
from byztrim.simnet import Delivery, SimConfig, SimulationError, Trace


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


def all_fault_masks(n: int, f: int) -> list[int]:
    """Every fault set of size <= f as a bitmask, by size then
    lexicographic, from itertools.combinations."""
    return [
        sum(1 << v for v in combo)
        for k in range(min(f, n) + 1)
        for combo in itertools.combinations(range(n), k)
    ]


def reference_violating_partition(
    n: int, in_masks: tuple[int, ...], f: int, r: int, budget: int
) -> tuple[int, int, tuple[int, int, int, int] | None]:
    """The partition search before its twin cut, kept verbatim as the
    reference for the kernel at sizes the naive enumeration cannot reach.

    First partition (F, L, C, R) with |F| <= f, L and R non-empty, where
    no node of L has >= r in-neighbours in C|R and no node of R has >= r
    in-neighbours in L|C.

    Depth-first search: per fault set, the surviving nodes are placed in id
    order, each trying L, C, then R, so complete assignments are reached in
    the canonical base-3 order.  A placement is cut as soon as a placed L
    node has r placed in-neighbours in C|R, or a placed R node has r placed
    in-neighbours in L|C: counts only grow as nodes are placed, so no
    violating partition lies below.  An R placement while L is still empty
    is cut too: the L/R mirror of any partition below it violates equally
    and comes first in canonical order.  Neither cut can skip the first
    violating partition.

    Every placement tried is one examined search node; expanding a node
    tries all its placements at once.  Returns (status, examined, witness)
    with witness = (F, L, C, R) bitmasks on FAIL.  Once examined would
    exceed budget the search stops with BUDGET_EXCEEDED, reporting
    examined == budget + 1.
    """
    out_masks = [0] * n
    for v in range(n):
        for u in _bits(in_masks[v]):
            out_masks[u] |= 1 << v

    def reached(nodes: int, within: int) -> bool:
        # Does some node of `nodes` have >= r in-neighbours in `within`?
        while nodes:
            low = nodes & -nodes
            if (in_masks[low.bit_length() - 1] & within).bit_count() >= r:
                return True
            nodes ^= low
        return False

    examined = 0
    for f_mask in all_fault_masks(n, f):
        rest = [v for v in range(n) if not (f_mask >> v) & 1]
        last = len(rest)
        if last < 2:
            continue
        # Entries (next index, L, C, R); children are pushed R, C, L so that
        # L is expanded first.  After placing v only v itself and the placed
        # L/R nodes it feeds can newly reach r.
        stack = [(0, 0, 0, 0)]
        while stack:
            i, lm, cm, rm = stack.pop()
            if i == last:
                if lm and rm:
                    return (FAIL, examined, (f_mask, lm, cm, rm))
                continue
            v = rest[i]
            bit = 1 << v
            ins = in_masks[v]
            outs = out_masks[v]
            i += 1
            examined += 3 if lm else 2
            if examined > budget:
                return (BUDGET_EXCEEDED, budget + 1, None)
            if lm and (ins & (lm | cm)).bit_count() < r and not reached(outs & lm, cm | rm | bit):
                stack.append((i, lm, cm, rm | bit))
            if not reached(outs & lm, cm | rm | bit) and not reached(outs & rm, lm | cm | bit):
                stack.append((i, lm, cm | bit, rm))
            if (ins & (cm | rm)).bit_count() < r and not reached(outs & rm, lm | cm | bit):
                stack.append((i, lm | bit, cm, rm))
    return (PASS, examined, None)


def naive_partition_verdict(g: Digraph, f: int, r: int) -> str:
    return "pass" if naive_violating_partition(g, f, r) is None else "fail"


def milp_partition_verdict(g: Digraph, f: int, r: int) -> str:
    """Partition verdict from a mixed-integer feasibility model, after
    Usevitch & Panagou's robustness MILP, extended to pick the fault set.

    Binary x_v, y_v, z_v put v in L, R and F.  Constraints: x_v + y_v +
    z_v <= 1, sum z <= f, sum x >= 1, sum y >= 1, and for each v with
    in-degree d_v >= r: sum over in-neighbours u of (1 - x_u - z_u) <=
    r - 1 + (d_v - r + 1)(1 - x_v), the same with y for x.  That is, an L
    node has at most r - 1 in-neighbours outside L and F; the big-M term
    d_v - r + 1 is the least that leaves other nodes free, which keeps the
    relaxation tight.  A node with d_v < r never reaches r, so it has no
    row.  A feasible point is a violating partition, so the model is
    feasible iff the condition fails.  Needs scipy; its witness need not be
    the canonical one, so only the verdict is returned.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = g.n
    x, y, z = 0, n, 2 * n  # column offsets
    rows, lower, upper = [], [], []

    def row(entries: dict[int, float], lo: float, hi: float) -> None:
        a = np.zeros(3 * n)
        for col, coef in entries.items():
            a[col] += coef
        rows.append(a)
        lower.append(lo)
        upper.append(hi)

    for v in g.nodes:
        row({x + v: 1, y + v: 1, z + v: 1}, -np.inf, 1)
    row({z + v: 1 for v in g.nodes}, -np.inf, f)
    row({x + v: 1 for v in g.nodes}, 1, np.inf)
    row({y + v: 1 for v in g.nodes}, 1, np.inf)
    for v in g.nodes:
        slack = len(g.in_nbrs[v]) - r + 1
        if slack <= 0:
            continue
        for side in (x, y):
            # (d - r + 1) side_v - sum over u of (side_u + z_u) <= 0
            entries = {side + v: slack}
            for u in g.in_nbrs[v]:
                entries[side + u] = -1
                entries[z + u] = -1
            row(entries, -np.inf, 0)
    res = milp(
        c=np.zeros(3 * n),
        constraints=LinearConstraint(np.array(rows), lower, upper),
        integrality=np.ones(3 * n),
        bounds=Bounds(0, 1),
    )
    if res.status == 0:
        return "fail"
    if res.status == 2:
        return "pass"
    raise RuntimeError(f"MILP gave no verdict: {res.message}")


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


def nx_source_components(nodes, edges) -> list[frozenset[int]]:
    """Source components of the graph (nodes, edges) by networkx
    condensation, ordered by smallest member."""
    dg = nx.DiGraph()
    dg.add_nodes_from(nodes)
    dg.add_edges_from(edges)
    cond = nx.condensation(dg)
    return sorted(
        (frozenset(cond.nodes[c]["members"]) for c in cond.nodes if cond.in_degree(c) == 0),
        key=min,
    )


def _source_component_sizes(kept_in: dict[int, set[int]]) -> list[int]:
    edges = [(u, v) for v, nbrs in kept_in.items() for u in nbrs]
    return [len(c) for c in nx_source_components(kept_in, edges)]


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


# ---------------------------------------------------------------------------
# Naive scheduler selectors: a scan of the whole pending list per delivery.
# Each returns the index into `pending` of the message to deliver next.


class PendingMessage(NamedTuple):
    """An in-flight message of the naive event loop and selectors; the
    unique sequence number is its send order."""

    sequence: int
    destination: int
    message: RoundMessage


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


def naive_withheld(g: Digraph, f: int, left, center, right) -> dict[int, frozenset[int]]:
    """The adaptive adversary's starved senders per side node: the first
    min(f, |cross|) cross-side in-neighbours in id order."""
    left, center, right = set(left), set(center), set(right)
    withheld = {}
    for v in sorted(left):
        cross = sorted(g.in_nbrs[v] & (center | right))
        withheld[v] = frozenset(cross[: min(f, len(cross))])
    for v in sorted(right):
        cross = sorted(g.in_nbrs[v] & (left | center))
        withheld[v] = frozenset(cross[: min(f, len(cross))])
    return withheld


# ---------------------------------------------------------------------------
# Naive event loop: a pending list scanned by the selectors above, a
# readiness check after every delivery, the common round taken as a minimum
# over the fault-free nodes on every update, and Byzantine params read on
# every emit.


class NaiveNode:
    """A consensus node: first value per (sender, tag) buffered, tags below
    the round in progress discarded, the update sorting the first
    `expected_count` arrivals by (value, sender), trimming f from each end
    and averaging the rest with the own value (alone when the node has no
    in-neighbours)."""

    def __init__(self, node_id: int, value: float, g: Digraph, f: int, require_all: bool):
        self.id = node_id
        self.value = float(value)
        self.round = 1
        self.f = f
        self.in_nbrs = g.in_nbrs[node_id]
        self.out_nbrs = tuple(sorted(g.out_nbrs[node_id]))
        self.require_all = require_all
        self.buffer: dict[int, dict[int, float]] = {}

    @property
    def expected_count(self) -> int:
        if self.require_all:
            return len(self.in_nbrs)
        return len(self.in_nbrs) - self.f

    def outgoing_messages(self) -> list[tuple[int, RoundMessage]]:
        msg = RoundMessage(self.id, self.round - 1, self.value)
        return [(dest, msg) for dest in self.out_nbrs]

    def ingest_message(self, m: RoundMessage) -> bool:
        if m.sender not in self.in_nbrs:
            raise ProtocolError(f"node {self.id} got message from non-neighbour {m.sender}")
        if m.tag < self.round - 1:
            return False
        slot = self.buffer.setdefault(m.tag, {})
        if m.sender in slot:
            return False
        slot[m.sender] = m.value
        return True

    def round_ready(self) -> bool:
        return len(self.buffer.get(self.round - 1, ())) >= self.expected_count

    def apply_update(self) -> float:
        if not self.round_ready():
            raise ProtocolError(f"node {self.id} not ready for round {self.round}")
        if self.f > 0 and not self.require_all and len(self.in_nbrs) < 3 * self.f + 1:
            raise ProtocolError(
                f"node {self.id} has in-degree {len(self.in_nbrs)} < 3f+1={3 * self.f + 1}"
            )
        if not self.in_nbrs:
            # No in-neighbours: the own value is averaged alone.
            self.round += 1
            return self.value
        tag = self.round - 1
        arrivals = list(self.buffer[tag].items())[: self.expected_count]
        arrivals.sort(key=lambda sv: (sv[1], sv[0]))
        kept = arrivals[self.f : len(arrivals) - self.f]
        if not kept:
            raise ProtocolError(
                f"node {self.id}: trimming 2f={2 * self.f} values leaves nothing to average"
            )
        total = self.value
        for _, w in kept:
            total += w
        self.value = total / (len(kept) + 1)
        self.round += 1
        for old in [t for t in self.buffer if t < self.round - 1]:
            del self.buffer[old]
        return self.value


def _naive_derived_rng(seed: int, node: int, tag: int) -> random.Random:
    mix = (
        seed * 0x9E3779B97F4A7C15 + node * 0xBF58476D1CE4E5B9 + tag * 0x94D049BB133111EB + 1
    ) & 0xFFFFFFFFFFFFFFFF
    return random.Random(mix)


def naive_byzantine_values(kind: str, params: dict, node: int, tag: int, out_nbrs, seed: int) -> dict[int, float]:
    if kind == "split":
        m, big_m = float(params["m"]), float(params["M"])
        low = float(params.get("m_minus", m - 1.0))
        high = float(params.get("M_plus", big_m + 1.0))
        mid = (m + big_m) / 2.0
        left, right = set(params.get("left", ())), set(params.get("right", ()))
        return {d: low if d in left else high if d in right else mid for d in out_nbrs}
    if kind == "identical-wrong":
        return {d: float(params["value"]) for d in out_nbrs}
    if kind == "random":
        rng = _naive_derived_rng(seed, node, tag)
        low, high = float(params.get("low", 0.0)), float(params.get("high", 1.0))
        return {d: rng.uniform(low, high) for d in out_nbrs}
    if kind == "silent":
        return {}
    raise ValueError(f"unknown byzantine behavior {kind!r}")


def naive_run_simulation(config: SimConfig) -> Trace:
    """The event loop before its per-message shortcuts, over a pending list
    and the Naive*Selectors.  Its trace's deliveries are a list of Delivery
    records, each with the virtual time this loop counts."""
    config.validate()
    g, f = config.graph, config.f
    kind = config.scheduler.kind
    require_all = kind == "synchronous"
    fault_free = [v for v in g.nodes if v not in config.fault_set]
    states = {v: NaiveNode(v, config.inputs[v], g, f, require_all) for v in g.nodes}
    rounds = {v: states[v].round for v in g.nodes}
    values: dict[int, list[float]] = {v: [states[v].value] for v in fault_free}
    deliveries: list[Delivery] = []
    if kind == "random":
        selector = NaiveRandomSelector(config.seed)
    elif kind == "fifo":
        selector = NaiveFifoSelector(config.seed)
    elif kind == "synchronous":
        selector = NaiveSynchronousSelector()
    else:
        p = config.scheduler.params
        selector = NaiveAdaptiveDelaySelector(
            naive_withheld(g, f, p.get("left", ()), p.get("center", ()), p.get("right", ()))
        )
    pending: list[PendingMessage] = []
    seq = 0
    vt = 0

    def emit(v: int) -> None:
        nonlocal seq
        st = states[v]
        if v in config.fault_set:
            per_dest = naive_byzantine_values(
                config.byzantine.kind, config.byzantine.params, v, st.round - 1, st.out_nbrs, config.seed
            )
            outgoing = [
                (dest, RoundMessage(v, st.round - 1, per_dest[dest]))
                for dest in st.out_nbrs
                if dest in per_dest
            ]
        else:
            outgoing = st.outgoing_messages()
        for dest, msg in outgoing:
            pending.append(PendingMessage(seq, dest, msg))
            seq += 1

    u_levels = [max(values[v][0] for v in fault_free)]
    mu_levels = [min(values[v][0] for v in fault_free)]
    outcome = None
    converged_round = None
    if u_levels[0] - mu_levels[0] <= config.epsilon:
        outcome, converged_round = "converged", 0

    def advance_common_metrics() -> None:
        nonlocal outcome, converged_round
        common = min(len(values[v]) - 1 for v in fault_free)
        while len(u_levels) - 1 < common and outcome is None:
            t = len(u_levels)
            u_levels.append(max(values[v][t] for v in fault_free))
            mu_levels.append(min(values[v][t] for v in fault_free))
            if u_levels[t] - mu_levels[t] <= config.epsilon:
                outcome, converged_round = "converged", t
            elif t >= config.max_rounds:
                outcome = "max-rounds-hit"

    def advance_faulty(st: NaiveNode) -> None:
        st.round += 1
        for old in [t for t in st.buffer if t < st.round - 1]:
            del st.buffer[old]

    def process_ready(v: int) -> None:
        st = states[v]
        while outcome is None and st.round <= config.max_rounds and st.round_ready():
            if v in config.fault_set:
                advance_faulty(st)
            else:
                st.apply_update()
            rounds[v] = st.round
            if v not in config.fault_set:
                values[v].append(st.value)
                advance_common_metrics()
            if outcome is None and st.round <= config.max_rounds:
                emit(v)

    if outcome is None:
        for v in sorted(g.nodes):
            emit(v)
        for v in sorted(g.nodes):
            process_ready(v)

    while outcome is None:
        if not pending:
            raise SimulationError("no pending messages but the run is not finished")
        pm = pending.pop(selector.select(pending, rounds))
        vt += 1
        deliveries.append(
            Delivery(vt, pm.message.sender, pm.destination, pm.message.tag, pm.message.value)
        )
        states[pm.destination].ingest_message(pm.message)
        process_ready(pm.destination)

    return Trace(
        config=config,
        values=values,
        u_levels=u_levels,
        mu_levels=mu_levels,
        deliveries=deliveries,
        outcome=outcome,
        converged_round=converged_round,
    )


TRACE_COLUMNS = ("round", "nodeId", "value")
INTEGER_CELL = re.compile("[0-9]+")
# float()'s syntax without its digit-group underscores and whitespace.
NUMBER_CELL = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)", re.IGNORECASE | re.ASCII
)


def naive_read_trace_csv(path: str) -> dict[int, list[float]]:
    """A trace CSV read by the README's rules: the first line names the
    columns, found by name in any order; blank lines are skipped; a row
    needs a field for each of the three; round and nodeId are ASCII digits;
    a value is a finite number with no underscore, surrounding whitespace or
    non-ASCII text; no (round, nodeId) pair repeats; each node's rounds run
    0, 1, 2, ... with no gap.  The first rule broken, row by row and in that
    order, raises ValueError with read_trace_csv's message."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in TRACE_COLUMNS if name not in header]
        if missing:
            raise ValueError("trace CSV is missing column(s) " + ", ".join(repr(name) for name in missing))
        where = {name: header.index(name) for name in TRACE_COLUMNS}
        need = max(where.values()) + 1
        rounds_of: dict[int, dict[int, float]] = {}
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) < need:
                raise ValueError(f"trace CSV line {line} has {len(row)} field(s), need {need}")
            cells = {name: row[where[name]] for name in TRACE_COLUMNS}
            for name in TRACE_COLUMNS:
                pattern, kind = (NUMBER_CELL, "a number") if name == "value" else (INTEGER_CELL, "an integer")
                if not pattern.fullmatch(cells[name]):
                    raise ValueError(f"trace CSV line {line} column {name!r} is not {kind}: {cells[name]!r}")
            t, node, value = int(cells["round"]), int(cells["nodeId"]), float(cells["value"])
            rounds = rounds_of.setdefault(node, {})
            if t in rounds:
                raise ValueError(f"trace CSV line {line} repeats round {t} of node {node}")
            if not math.isfinite(value):
                raise ValueError(f"trace CSV line {line} has non-finite value {cells['value']!r}")
            rounds[t] = value
    for node, rounds in rounds_of.items():
        if sorted(rounds) != list(range(len(rounds))):
            raise ValueError(f"trace rounds for node {node} are not contiguous")
    return {node: [rounds[t] for t in range(len(rounds))] for node, rounds in rounds_of.items()}
