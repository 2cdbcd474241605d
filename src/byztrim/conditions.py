"""Robustness condition checks for fault-tolerant iterative averaging.

Decides whether a directed graph can support trim-and-average consensus
against f Byzantine nodes, in two equivalent forms:

* the partition form: no split (F, L, C, R) may leave both L and R starved
  of cross-traffic at the threshold r of the mode's protocol.TimingModel
  (f+1 incoming links synchronous, 2f+1 asynchronous), whose node-count
  and in-degree floors also give the asynchronous check a cheap filter;
* the reduced-graph form (synchronous only): every graph obtained by
  deleting a candidate fault set and up to f further in-edges per node must
  keep exactly one source component.

Verdicts come with machine-checkable witnesses.  Both searches are
exponential in the worst case and bounded by a budget; past it the verdict
is "budget-exceeded".  Both run in byztrim._kernels, whose docstrings
state each cut once, the partition search's fault-free screen among them;
the README gives their reach.  A partition report's `examined` counts the
search nodes of the search that decided it, a reduced-graph report's the
minimal reductions inspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from byztrim import _kernels
from byztrim._inputs import int_value
from byztrim.digraph import Digraph
from byztrim.protocol import ASYNC, MODELS, SYNC

DEFAULT_REDUCTION_BUDGET = 5_000_000
# Search nodes visited by the partition search: a few seconds at the
# 1-2 M nodes/s of the pure-Python search.
DEFAULT_PARTITION_BUDGET = 5_000_000


def threshold(f: int, mode: str) -> int:
    """Reach threshold for a mode, from its record in protocol.MODELS: f+1
    synchronous, 2f+1 asynchronous."""
    if not (isinstance(mode, str) and mode in MODELS):
        raise ValueError(f"unknown mode {mode!r}")
    return MODELS[mode].threshold(f)


def _unmask(mask: int) -> frozenset[int]:
    return frozenset(_kernels._bits(mask))


@dataclass(frozen=True)
class Partition:
    """Disjoint node sets (faulty, left, center, right) covering all nodes."""

    faulty: frozenset[int]
    left: frozenset[int]
    center: frozenset[int]
    right: frozenset[int]

    def __post_init__(self):
        sets = (self.faulty, self.left, self.center, self.right)
        total = sum(len(s) for s in sets)
        union = frozenset().union(*sets)
        if total != len(union):
            raise ValueError("partition sets overlap")

    def check_covers(self, g: Digraph) -> None:
        union = self.faulty | self.left | self.center | self.right
        if union != frozenset(g.nodes):
            raise ValueError("partition does not cover all nodes")

    def to_json_dict(self) -> dict:
        return {
            "F": sorted(self.faulty),
            "L": sorted(self.left),
            "C": sorted(self.center),
            "R": sorted(self.right),
        }


@dataclass(frozen=True)
class DegreeViolation:
    """A fast necessary-condition violation (asynchronous mode)."""

    kind: str  # "node-count" | "in-degree"
    node: int | None
    detail: str

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "detail": self.detail}
        if self.node is not None:
            d["node"] = self.node
        return d


@dataclass(frozen=True)
class ReductionWitness:
    """A failing reduced graph: the fault set F, the edges kept among the
    other nodes, and its source components ordered by smallest member."""

    faulty: frozenset[int]
    kept_edges: frozenset[tuple[int, int]]
    source_components: tuple[frozenset[int], ...]

    def to_json_dict(self) -> dict:
        return {
            "F": sorted(self.faulty),
            "kept_edges": [list(e) for e in sorted(self.kept_edges)],
            "source_components": [sorted(c) for c in self.source_components],
        }


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a condition check, with a witness on failure."""

    verdict: str  # "pass" | "fail" | "budget-exceeded"
    check: str  # "partition" | "reduced-graph" | "source-size"
    mode: str
    r: int
    f: int
    examined: int
    budget: int
    witness: Partition | ReductionWitness | None = None
    degree_violations: tuple[DegreeViolation, ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        d: dict = {
            "verdict": self.verdict,
            "check": self.check,
            "mode": self.mode,
            "r": self.r,
            "f": self.f,
            "witness": self.witness.to_json_dict() if self.witness else None,
        }
        if self.degree_violations:
            d["degree_violations"] = [v.to_json_dict() for v in self.degree_violations]
        d["examined"] = self.examined
        d["budget"] = self.budget
        return d


def _check_reach_args(g: Digraph, a: Iterable[int], b: Iterable[int], r: int):
    sa, sb = frozenset(a), frozenset(b)
    if not sa or not sb:
        raise ValueError("reach sets must be non-empty")
    if sa & sb:
        raise ValueError(f"reach sets overlap: {sorted(sa & sb)}")
    nodes = set(g.nodes)
    if not (sa <= nodes and sb <= nodes):
        raise ValueError("reach sets contain unknown nodes")
    if r < 1:
        raise ValueError(f"threshold must be >= 1, got {r}")
    return sa, sb


def reaches(g: Digraph, a: Iterable[int], b: Iterable[int], r: int) -> bool:
    """True iff some node of b has at least r in-neighbours in a."""
    return bool(in_set(g, a, b, r))


def in_set(g: Digraph, a: Iterable[int], b: Iterable[int], r: int) -> frozenset[int]:
    """The nodes of b with at least r in-neighbours in a (empty when none)."""
    sa, sb = _check_reach_args(g, a, b, r)
    return frozenset(v for v in sb if len(g.in_nbrs[v] & sa) >= r)


@dataclass(frozen=True)
class PropagationTrace:
    """Stage-by-stage absorption of set B into set A at threshold r.

    a_sets/b_sets hold the full sequences; on success the final B stage is
    empty.  On failure the trace ends at the stalled stage instead.
    """

    a_sets: tuple[frozenset[int], ...]
    b_sets: tuple[frozenset[int], ...]
    r: int

    @property
    def succeeded(self) -> bool:
        return not self.b_sets[-1]

    @property
    def rounds(self) -> int:
        """Number of absorption stages performed (l on success)."""
        return len(self.a_sets) - 1


def propagates(g: Digraph, a: Iterable[int], b: Iterable[int], r: int) -> PropagationTrace:
    """Iteratively move the threshold-reached part of B into A until B is
    empty (success) or no node of B meets the threshold (failure)."""
    sa, sb = _check_reach_args(g, a, b, r)
    a_sets = [sa]
    b_sets = [sb]
    while b_sets[-1]:
        absorbed = in_set(g, a_sets[-1], b_sets[-1], r)
        if not absorbed:
            break
        a_sets.append(a_sets[-1] | absorbed)
        b_sets.append(b_sets[-1] - absorbed)
    return PropagationTrace(tuple(a_sets), tuple(b_sets), r)


def quick_degree_checks(g: Digraph, f: int) -> list[DegreeViolation]:
    """Fast necessary-condition filter for the asynchronous condition: the
    node-count and in-degree floors of its record (protocol.TimingModel).
    Both floors assume a second node, so a one-node graph reports nothing.
    An empty list means "not disproven", not "pass".
    """
    int_value(f, "f", 0)
    model = MODELS[ASYNC]
    if g.n < 2:
        return []
    found = [("node-count", None, model.node_count_error(g.n, f))]
    # Only a node below the floor can have a degree error.
    floor = model.degree_floor(f)
    found += [("in-degree", v, model.degree_error(g, v, f)) for v, ins in enumerate(g.in_nbrs) if len(ins) < floor]
    return [DegreeViolation(*row) for row in found if row[2] is not None]


def check_partition_condition(
    g: Digraph, f: int, mode: str, budget: int = DEFAULT_PARTITION_BUDGET
) -> ConditionReport:
    """Test every partition (F, L, C, R) with |F| <= f and L, R non-empty;
    fail (with the first violating partition in canonical order) if some
    partition starves both L and R at the mode's threshold.

    Verdict and witness are those of the full enumeration; the cuts and
    the fault-free screen that keep them are in _kernels.violating_partition.
    `examined` is the number of search nodes visited by the search that
    decided, each search capped at `budget` (so at most 2 * budget in all);
    past the cap the verdict is "budget-exceeded" with examined == budget + 1.
    """
    int_value(f, "f", 0)
    r = threshold(f, mode)
    # Cheap filter first; the search below remains the source of truth and
    # supplies the witness.
    violations = tuple(quick_degree_checks(g, f)) if mode == ASYNC else ()
    verdict, examined, hit = _kernels.violating_partition(g.n, g.in_masks(), f, r, budget)
    witness = Partition(*map(_unmask, hit)) if hit else None
    return ConditionReport(verdict, "partition", mode, r, f, examined, budget, witness, violations)


def _reduction_report(
    g: Digraph, f: int, check: str, min_source_size: int, budget: int
) -> ConditionReport:
    verdict, examined, hit = _kernels.failing_reduction(
        g.n, g.in_masks(), f, min_source_size, budget
    )
    witness = None
    if hit:
        f_mask, kept_in = hit
        witness = ReductionWitness(
            _unmask(f_mask),
            frozenset((u, v) for v, mask in kept_in.items() for u in _kernels._bits(mask)),
            tuple(map(_unmask, _kernels.source_components(kept_in))),
        )
    return ConditionReport(verdict, check, SYNC, threshold(f, SYNC), f, examined, budget, witness)


def check_reduced_graph_condition(
    g: Digraph, f: int, budget: int = DEFAULT_REDUCTION_BUDGET
) -> ConditionReport:
    """Pass iff for every fault set F (|F| <= f, |F| < n) every reduced graph
    has exactly one source component.  Decides the synchronous condition;
    serves as the independent oracle for check_partition_condition(sync).
    """
    int_value(f, "f", 0)
    return _reduction_report(g, f, "reduced-graph", 1, budget)


def check_source_component_size(
    g: Digraph, f: int, budget: int = DEFAULT_REDUCTION_BUDGET
) -> ConditionReport:
    """Pass iff every reduced graph has a unique source component with at
    least f+1 nodes (a necessary consequence of the partition condition)."""
    int_value(f, "f", 0)
    return _reduction_report(g, f, "source-size", threshold(f, SYNC), budget)
