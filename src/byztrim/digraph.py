"""Directed-graph data model: validation, strongly-connected-component
condensation, source-component detection and reduced graphs.

Graphs are simple (no self-loops, no duplicate edges) with nodes labelled
0..n-1.  All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Raised for malformed graph documents or invalid graph arguments."""


class Digraph:
    """A simple directed graph over nodes 0..n-1.

    Exposes per-node in-neighbour and out-neighbour sets.  Instances are
    immutable after construction and hashable.
    """

    __slots__ = ("n", "edges", "in_nbrs", "out_nbrs", "f_hint", "_in_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], f_hint: int | None = None):
        if not isinstance(n, int) or n < 1:
            raise GraphError(f"node count must be a positive integer, got {n!r}")
        seen: set[tuple[int, int]] = set()
        ins: list[set[int]] = [set() for _ in range(n)]
        outs: list[set[int]] = [set() for _ in range(n)]
        for e in edges:
            i, j = e
            if not (isinstance(i, int) and isinstance(j, int)):
                raise GraphError(f"edge endpoints must be integers, got {e!r}")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge {e!r} out of range for n={n}")
            if i == j:
                raise GraphError(f"self-loop ({i},{j}) not allowed")
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            outs[i].add(j)
            ins[j].add(i)
        self.n = n
        self.edges: frozenset[tuple[int, int]] = frozenset(seen)
        self.in_nbrs: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in ins)
        self.out_nbrs: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in outs)
        self.f_hint = f_hint
        self._in_masks: tuple[int, ...] | None = None

    @property
    def nodes(self) -> range:
        return range(self.n)

    def in_degree(self, v: int) -> int:
        return len(self.in_nbrs[v])

    def in_masks(self) -> tuple[int, ...]:
        """Per-node in-neighbour sets as bitmasks (bit j set iff (j,v) is an edge)."""
        if self._in_masks is None:
            masks = []
            for v in range(self.n):
                m = 0
                for u in self.in_nbrs[v]:
                    m |= 1 << u
                masks.append(m)
            self._in_masks = tuple(masks)
        return self._in_masks

    def to_dict(self) -> dict:
        d = {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}
        if self.f_hint is not None:
            d["f"] = self.f_hint
        return d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, edges={len(self.edges)})"


def parse_graph(document: str | dict) -> Digraph:
    """Parse a graph document: {"n": int, "edges": [[from, to], ...], "f": int?}.

    The optional "f" entry is carried along as metadata only.
    """
    if isinstance(document, str):
        try:
            obj = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid JSON: {exc}") from exc
    else:
        obj = document
    if not isinstance(obj, dict):
        raise GraphError("graph document must be a JSON object")
    if "n" not in obj:
        raise GraphError('graph document missing "n"')
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise GraphError(f'"n" must be an integer, got {n!r}')
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphError('"edges" must be a list of [from, to] pairs')
    edges = []
    for e in raw_edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphError(f"malformed edge entry {e!r}")
        edges.append((e[0], e[1]))
    f_hint = obj.get("f")
    if f_hint is not None and (isinstance(f_hint, bool) or not isinstance(f_hint, int) or f_hint < 0):
        raise GraphError(f'"f" must be a non-negative integer, got {f_hint!r}')
    return Digraph(n, edges, f_hint=f_hint)


@dataclass(frozen=True)
class Condensation:
    """SCC decomposition: disjoint components covering all nodes, plus the
    acyclic edge relation between component indices."""

    components: tuple[frozenset[int], ...]
    dag_edges: frozenset[tuple[int, int]]


def _tarjan(nodes: list[int], out_adj: dict[int, Iterable[int]]) -> list[list[int]]:
    """Iterative Tarjan SCC over an arbitrary node subset."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[int, Iterator[int]]] = [(root, iter(sorted(out_adj.get(root, ()))))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(out_adj.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _condense(nodes: list[int], out_adj: dict[int, Iterable[int]]) -> Condensation:
    sccs = _tarjan(nodes, out_adj)
    # Deterministic component order: sorted by smallest member id.
    comps = sorted((frozenset(c) for c in sccs), key=min)
    comp_of = {v: idx for idx, comp in enumerate(comps) for v in comp}
    dag = set()
    for u in nodes:
        cu = comp_of[u]
        for w in out_adj.get(u, ()):
            cw = comp_of[w]
            if cu != cw:
                dag.add((cu, cw))
    return Condensation(tuple(comps), frozenset(dag))


def condensation(g: Digraph | ReducedGraph) -> Condensation:
    """Decompose a graph (or reduced graph) into strongly connected components."""
    if isinstance(g, ReducedGraph):
        nodes = sorted(set(g.base.nodes) - g.removed)
        out_adj: dict[int, set[int]] = {v: set() for v in nodes}
        for (u, w) in g.kept_edges:
            out_adj[u].add(w)
        return _condense(nodes, out_adj)
    return _condense(list(g.nodes), {v: g.out_nbrs[v] for v in g.nodes})


def source_components(c: Condensation) -> set[int]:
    """Indices of components with no incoming edge in the condensation DAG."""
    has_in = {j for (_, j) in c.dag_edges}
    return {idx for idx in range(len(c.components)) if idx not in has_in}


@dataclass(frozen=True)
class ReducedGraph:
    """A graph obtained by deleting a candidate fault set F plus up to f
    further in-edges per surviving node."""

    base: Digraph
    removed: frozenset[int]
    kept_edges: frozenset[tuple[int, int]]

    def in_nbrs(self, v: int) -> set[int]:
        return {u for (u, w) in self.kept_edges if w == v}

    def check_invariants(self, f: int) -> None:
        for (u, w) in self.kept_edges:
            if u in self.removed or w in self.removed:
                raise GraphError(f"kept edge ({u},{w}) touches removed set")
        for v in self.base.nodes:
            if v in self.removed:
                continue
            base_in = {u for u in self.base.in_nbrs[v] if u not in self.removed}
            kept_in = self.in_nbrs(v)
            if not kept_in <= base_in:
                raise GraphError(f"node {v} keeps an edge absent from the base graph")
            if len(base_in) - len(kept_in) > f:
                raise GraphError(f"node {v} lost more than f={f} in-edges")
