"""Directed-graph data model and its JSON document parser.

Graphs are simple (no self-loops, no duplicate edges) with nodes labelled
0..n-1, and immutable once built.
"""

from __future__ import annotations

import json
from typing import Iterable, NoReturn

from byztrim._inputs import is_int


class GraphError(ValueError):
    """Raised for malformed graph documents or invalid graph arguments."""


class Digraph:
    """A simple directed graph over nodes 0..n-1.

    The constructor validates the edge list in one pass and keeps one
    structure, the edge set.  Every other view is built on first use, in
    one pass over that set, and cached: the per-node in/out bitmasks
    (in_masks, out_masks), which the condition checks read, and the
    per-node in/out neighbour sets (in_nbrs, out_nbrs), which the
    simulator reads.  A check never builds the neighbour sets and a run
    never builds the masks, whose n^2 bits would dwarf a sparse graph.
    Instances are immutable after construction and hashable.
    """

    __slots__ = ("n", "edges", "f_hint", "_in_nbrs", "_out_nbrs", "_in_masks", "_out_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], f_hint: int | None = None):
        if not is_int(n) or n < 1:
            raise GraphError(f"node count must be a positive integer, got {n!r}")
        pairs: list[tuple[int, int]] = []
        append = pairs.append
        for e in edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                _reject(pairs, f"edge must be a pair of node ids, got {e!r}")
            # A valid edge of exact ints passes one test; any other entry
            # takes the checks below, in order, or is an int subclass.
            if type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n and i != j:
                append((i, j))
                continue
            if not (is_int(i) and is_int(j)):
                _reject(pairs, f"edge endpoints must be integers, got {e!r}")
            if not (0 <= i < n and 0 <= j < n):
                _reject(pairs, f"edge {e!r} out of range for n={n}")
            if i == j:
                _reject(pairs, f"self-loop ({i},{j}) not allowed")
            append((i, j))
        self.n = n
        self.edges: frozenset[tuple[int, int]] = frozenset(pairs)
        if len(self.edges) != len(pairs):
            _reject(pairs, None)
        self.f_hint = f_hint
        self._in_nbrs: tuple[frozenset[int], ...] | None = None
        self._out_nbrs: tuple[frozenset[int], ...] | None = None
        self._in_masks: tuple[int, ...] | None = None
        self._out_masks: tuple[int, ...] | None = None

    @property
    def nodes(self) -> range:
        return range(self.n)

    @property
    def in_nbrs(self) -> tuple[frozenset[int], ...]:
        """Per-node in-neighbour sets, built with out_nbrs on first use."""
        if self._in_nbrs is None:
            self._build_nbrs()
        return self._in_nbrs

    @property
    def out_nbrs(self) -> tuple[frozenset[int], ...]:
        """Per-node out-neighbour sets, built with in_nbrs on first use."""
        if self._out_nbrs is None:
            self._build_nbrs()
        return self._out_nbrs

    def _build_nbrs(self) -> None:
        ins: list[list[int]] = [[] for _ in range(self.n)]
        outs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            outs[i].append(j)
            ins[j].append(i)
        self._in_nbrs = tuple(map(frozenset, ins))
        self._out_nbrs = tuple(map(frozenset, outs))

    def in_masks(self) -> tuple[int, ...]:
        """Per-node in-neighbour sets as bitmasks (bit j set iff (j,v) is an
        edge), built with out_masks on first use."""
        if self._in_masks is None:
            self._build_masks()
        return self._in_masks

    def out_masks(self) -> tuple[int, ...]:
        """Per-node out-neighbour sets as bitmasks (bit j set iff (v,j) is an
        edge), built with in_masks on first use."""
        if self._out_masks is None:
            self._build_masks()
        return self._out_masks

    def _build_masks(self) -> None:
        bits = [1 << v for v in range(self.n)]
        ins = [0] * self.n
        outs = [0] * self.n
        for i, j in self.edges:
            outs[i] |= bits[j]
            ins[j] |= bits[i]
        self._in_masks = tuple(ins)
        self._out_masks = tuple(outs)

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


def _reject(pairs: list[tuple[int, int]], error: str | None) -> NoReturn:
    """Raise the GraphError of the first invalid edge entry.  `pairs` are
    the entries before it, each valid on its own; a repeat among them comes
    first, and `error` (None when the entry is a repeat itself) after."""
    seen: set[tuple[int, int]] = set()
    for i, j in pairs:
        if (i, j) in seen:
            raise GraphError(f"duplicate edge ({i},{j})") from None
        seen.add((i, j))
    raise GraphError(error) from None


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
    for e in raw_edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphError(f"malformed edge entry {e!r}")
    f_hint = obj.get("f")
    if f_hint is not None and (not is_int(f_hint) or f_hint < 0):
        raise GraphError(f'"f" must be a non-negative integer, got {f_hint!r}')
    return Digraph(obj["n"], raw_edges, f_hint=f_hint)
