"""Per-node state machine for iterative trim-and-average consensus, and
the record of each timing model it runs under (TimingModel).

Each node progresses in locally-numbered rounds.  In round t it transmits
its current value tagged t-1, waits for tagged values on all but its
model's lag of incoming edges (none in lockstep, f asynchronously), drops
the f smallest and f largest, and averages the rest with its own value."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import copysign
from typing import NamedTuple

from byztrim._inputs import int_value, real_value
from byztrim.digraph import Digraph


class ProtocolError(ValueError):
    """Raised on protocol-rule violations (bad sender, degree too small, ...)."""


SYNC = "sync"
ASYNC = "async"


@dataclass(frozen=True)
class TimingModel:
    """What a timing model asks of the graph and of each update, all from
    one number, the lag: the in-edges a node may go without in a round, 0
    in lockstep (`sync`) and f when delivery is only eventual (`async`,
    where f silent faulty senders look like slow ones): lag(f) = lag_per_fault * f.

    * threshold r = f + 1 + lag (f+1 sync, 2f+1 async);
    * in-degree floor r + f (2f+1, 3f+1) for f >= 1.  A node v below it
      fails the condition: F = max(0, deg - r + 1) <= f of v's in-neighbours,
      leaving v at most r - 1; L = {v}, C = {}, R = S - {v}.  Each node of R
      has at most one in-neighbour, v, in L, below r >= 2;
    * node-count floor n > f + 2(r - 1) = 3f + 2 lag (3f, 5f).  Else |F| =
      min(f, n - 2) and the n - |F| survivors split into L and R of at most
      r - 1 nodes each.  Both floors need a second survivor: n >= 2;
    * messages awaited per round = in-degree - lag, and the cross-side
      senders the adaptive-delay attack withholds per side node = lag;
    * values averaged = awaited - 2f + 1 (the kept ones and the own), so
      alpha = 1/(max in-degree - lag - 2f + 1).
    """

    mode: str
    lag_per_fault: int

    def lag(self, f: int) -> int:
        return self.lag_per_fault * f

    def threshold(self, f: int) -> int:
        return f + 1 + self.lag(f)

    def degree_floor(self, f: int) -> int:
        return self.threshold(f) + f

    def node_floor(self, f: int) -> int:
        """Every n from 2 up to this fails the condition, whatever the edges."""
        return f + 2 * (self.threshold(f) - 1)

    def awaited(self, degree: int, f: int) -> int:
        return degree - self.lag(f)

    def averaged(self, degree: int, f: int) -> int:
        return self.awaited(degree, f) - 2 * f + 1

    def node_count_error(self, n: int, f: int) -> str | None:
        if n <= self.node_floor(f):
            return f"n={n} <= {3 + 2 * self.lag_per_fault}f={self.node_floor(f)}"
        return None

    def degree_error(self, degree: int, v: int, f: int) -> str | None:
        """Why node v, of in-degree `degree`, cannot run the update, or None.
        A node with no in-neighbour that awaits none (f = 0, or lockstep)
        keeps its value."""
        if (degree or self.lag(f)) and degree < self.degree_floor(f):
            return f"node {v} has in-degree {degree} < {2 + self.lag_per_fault}f+1={self.degree_floor(f)}"
        return None


MODELS = {SYNC: TimingModel(SYNC, 0), ASYNC: TimingModel(ASYNC, 1)}


class _MessageFields(NamedTuple):
    sender: int
    tag: int
    value: float


class RoundMessage(_MessageFields):
    """A value announcement tagged with the round index it belongs to: the
    named tuple (sender, tag, value).

    The constructor checks its fields: `sender` and `tag` are integers (not
    booleans), `tag` >= 0, and `value` is a finite real, stored as a float;
    anything else raises ProtocolError.  `_make` and `_replace` (which
    builds through `_make`) check them too.  Messages built from state that
    is checked already skip the check through
    `tuple.__new__(RoundMessage, (sender, tag, value))`, as the simulator
    does, and hot paths unpack a message instead of loading its fields by
    name."""

    __slots__ = ()

    def __new__(cls, sender: int, tag: int, value: float):
        try:
            fields = (
                int_value(sender, "message sender"),
                int_value(tag, "message tag", 0),
                real_value(value, "message value"),
            )
        except ValueError as e:
            raise ProtocolError(str(e)) from None
        return tuple.__new__(cls, fields)

    @classmethod
    def _make(cls, iterable) -> "RoundMessage":
        return cls(*iterable)


class NodeState:
    """Mutable single-owner state of one consensus node.

    The buffer keeps the first value received per (sender, tag); messages
    tagged below the round in progress are discarded as stale, later tags
    are held for future rounds.  `model` (asynchronous by default) sets how
    many messages a round awaits and the in-degree the update needs.
    """

    __slots__ = ("id", "value", "round", "f", "in_nbrs", "out_nbrs", "expected_count", "update_error", "buffer")

    def __init__(self, node_id: int, value: float, g: Digraph, f: int, model: TimingModel = MODELS[ASYNC]):
        if not 0 <= int_value(node_id, "node id") < g.n:
            raise ProtocolError(f"node id {node_id} out of range for n={g.n}")
        int_value(f, "f", 0)
        self.id = node_id
        self.value = float(value)
        self.round = 1
        self.f = f
        self.in_nbrs = g.in_nbrs[node_id]
        self.out_nbrs = tuple(sorted(g.out_nbrs[node_id]))
        self.expected_count = model.awaited(len(self.in_nbrs), f)
        # Why apply_update cannot run on this node, if it cannot: the degree
        # rule depends on the graph alone.  A node that never updates (a
        # faulty one only paces rounds) never raises it.
        self.update_error = model.degree_error(len(self.in_nbrs), node_id, f)
        # tag -> {sender: value}, insertion-ordered per tag (= arrival order)
        self.buffer: dict[int, dict[int, float]] = {}

    def outgoing_message(self) -> RoundMessage:
        """The round-opening transmission: the current value, tagged
        round-1, sent alike to every node of `out_nbrs` (no self-message;
        the own value joins the update directly)."""
        return tuple.__new__(RoundMessage, (self.id, self.round - 1, self.value))

    def ingest_message(self, m: RoundMessage) -> bool:
        """Buffer a received message.  Returns True if stored, False if the
        message was stale or a duplicate for its (sender, tag) slot."""
        sender, tag, value = m
        if sender not in self.in_nbrs:
            raise ProtocolError(f"node {self.id} got message from non-neighbour {sender}")
        if tag < self.round - 1:
            return False
        slot = self.buffer.get(tag)
        if slot is None:
            self.buffer[tag] = {sender: value}
            return True
        if sender in slot:
            return False
        slot[sender] = value
        return True

    def round_ready(self) -> bool:
        """True once enough distinct senders delivered the tag this round waits on."""
        return len(self.buffer.get(self.round - 1, ())) >= self.expected_count

    def apply_update(self) -> float:
        """Run the trim-and-average update, advance to the next round and
        return the new value.

        Exactly `expected_count` buffered values are used (first arrivals
        win); they are sorted by (value, sender id), the f smallest and f
        largest dropped, and the rest averaged with the own value at weight
        1/(kept+1).  A node without in-neighbours keeps its value.  Tags
        below the one used are never buffered (ingest discards them), so
        dropping that tag's slot empties the past.
        """
        tag = self.round - 1
        slot, count = self.buffer.get(tag, ()), self.expected_count
        if len(slot) < count:
            raise ProtocolError(f"node {self.id} not ready for round {self.round}")
        if self.update_error is not None:
            raise ProtocolError(self.update_error)
        if not self.in_nbrs:
            # Nothing ever arrives (possible only with f = 0 or in lockstep):
            # the node averages its own value alone, so it keeps it.
            self.round += 1
            return self.value
        f = self.f
        # Sorting the values alone keeps what the (value, sender) order keeps:
        # tied values are equal floats, so the sum's value is the same.  Only
        # the sign of a zero sum can differ: it is -0.0 exactly when the own
        # value and every kept value are -0.0, and which of tied 0.0 and -0.0
        # the trim keeps is up to the sender order.
        total = self.value
        for w in sorted(islice(slot.values(), count))[f : count - f]:
            total += w
        if not total and copysign(1.0, self.value) < 0.0:
            total = self.value
            for w, _ in sorted((w, s) for s, w in islice(slot.items(), count))[f : count - f]:
                total += w
        self.value = total / (count - 2 * f + 1)
        self.round += 1
        del self.buffer[tag]
        return self.value


def init_node(node_id: int, value: float, g: Digraph, f: int, require_all: bool = False) -> NodeState:
    """Fresh node state: stored input, round 1 in progress, empty buffer;
    lockstep (the sync record) with `require_all`, else asynchronous."""
    return NodeState(node_id, value, g, f, MODELS[SYNC if require_all else ASYNC])


def compute_alpha(g: Digraph, f: int) -> Fraction:
    """Minimum self-inclusive averaging weight over all nodes, exactly, in
    the asynchronous model: every node averages its record's `averaged`
    values at equal weight, so the minimum weight is 1/averaged(max
    in-degree)."""
    int_value(f, "f", 0)
    model = MODELS[ASYNC]
    degrees = [len(ins) for ins in g.in_nbrs]
    v = min(g.nodes, key=degrees.__getitem__)
    error = model.degree_error(degrees[v], v, f)
    if error is not None:
        raise ProtocolError(error)
    return Fraction(1, model.averaged(max(degrees), f))
