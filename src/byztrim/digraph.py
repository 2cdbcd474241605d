"""Directed-graph data model and its JSON document parser.

Graphs are simple (no self-loops, no duplicate edges) with nodes labelled
0..n-1, and immutable once built.
"""

from __future__ import annotations

import json
from typing import Iterable

from byztrim._inputs import is_int


class GraphError(ValueError):
    """Raised for malformed graph documents or invalid graph arguments."""


class Digraph:
    """A simple directed graph over nodes 0..n-1.

    Exposes per-node in-neighbour and out-neighbour sets.  Instances are
    immutable after construction and hashable.
    """

    __slots__ = ("n", "edges", "in_nbrs", "out_nbrs", "f_hint", "_in_masks", "_out_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], f_hint: int | None = None):
        if not is_int(n) or n < 1:
            raise GraphError(f"node count must be a positive integer, got {n!r}")
        seen: set[tuple[int, int]] = set()
        ins: list[set[int]] = [set() for _ in range(n)]
        outs: list[set[int]] = [set() for _ in range(n)]
        for e in edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise GraphError(f"edge must be a pair of node ids, got {e!r}") from None
            # The exact-type test decides the common case without a call.
            if not (type(i) is int and type(j) is int or is_int(i) and is_int(j)):
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
        self._out_masks: tuple[int, ...] | None = None

    @property
    def nodes(self) -> range:
        return range(self.n)

    def in_masks(self) -> tuple[int, ...]:
        """Per-node in-neighbour sets as bitmasks (bit j set iff (j,v) is an edge)."""
        if self._in_masks is None:
            self._in_masks = tuple(sum(1 << u for u in nbrs) for nbrs in self.in_nbrs)
        return self._in_masks

    def out_masks(self) -> tuple[int, ...]:
        """Per-node out-neighbour sets as bitmasks (bit j set iff (v,j) is an edge)."""
        if self._out_masks is None:
            self._out_masks = tuple(sum(1 << u for u in nbrs) for nbrs in self.out_nbrs)
        return self._out_masks

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

    The optional "f" entry is carried along as metadata only.  Any other
    field, and a boolean where an integer belongs, raises GraphError.
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
    unknown = sorted(set(obj) - {"n", "edges", "f"})
    if unknown:
        raise GraphError(f"graph document has unknown field(s) {', '.join(map(repr, unknown))}")
    if "n" not in obj:
        raise GraphError('graph document missing "n"')
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphError('"edges" must be a list of [from, to] pairs')
    edges = []
    for e in raw_edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphError(f"malformed edge entry {e!r}")
        edges.append((e[0], e[1]))
    f_hint = obj.get("f")
    if f_hint is not None and (not is_int(f_hint) or f_hint < 0):
        raise GraphError(f'"f" must be a non-negative integer, got {f_hint!r}')
    return Digraph(obj["n"], edges, f_hint=f_hint)
