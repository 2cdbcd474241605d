"""Deterministic event-driven simulator for asynchronous consensus under
adversarial message scheduling and Byzantine senders.

Virtual time is an integer event counter; asynchrony is modelled purely as
delivery order.  Every run is fully reproducible from its SimConfig
(including the seed): schedulers draw from a seeded generator and Byzantine
"random" values are derived from (seed, node, round) alone.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import random
from collections import defaultdict, deque
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from itertools import groupby, repeat
from typing import Iterable, NamedTuple

from byztrim._inputs import (
    FLOAT_MAX, NODES, REAL, int_value, json_list, json_number, json_object, real_value, spec_params
)
from byztrim.digraph import Digraph, parse_graph
from byztrim.conditions import Partition, in_set
from byztrim.protocol import ASYNC, MODELS, SYNC, NodeState, RoundMessage

VALIDITY_SLACK = 1e-12


class SimulationError(RuntimeError):
    """Raised when a run cannot make progress (scheduler deadlock)."""


@dataclass(frozen=True)
class _Spec:
    """A kind and its params, checked against a kind table by validate()."""

    kind: str
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params}


class ByzantineSpec(_Spec):
    """The faulty nodes' behavior: a kind of _BEHAVIORS and its params."""


class SchedulerSpec(_Spec):
    """The message pool: a kind of _SCHEDULERS and its params."""


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one experiment: graph, faults, inputs,
    adversary, scheduler, seed and stopping rule."""

    graph: Digraph
    f: int
    fault_set: frozenset[int]
    inputs: tuple[float, ...]
    scheduler: SchedulerSpec
    byzantine: ByzantineSpec | None = None
    seed: int = 0
    max_rounds: int = 1000
    epsilon: float = 0.0

    def validate(self) -> tuple[dict, dict | None]:
        """Check every rule of a config, loaded from JSON or built in Python:
        `f`, `seed` and `max_rounds` are integers (not booleans), `f` >= 0
        and `max_rounds` >= 1, `fault_set` a set of integers, `inputs` and
        `epsilon` finite reals, each input of magnitude at most FLOAT_MAX /
        (n + 1) (an update sums at most n values of the fault-free range,
        and the spare 1 absorbs the sum's rounding, so no sum or spread
        overflows); the range rules below; known scheduler and
        byzantine kinds with valid params (the kind tables _SCHEDULERS and
        _BEHAVIORS, checked by spec_params), and a finite `high` - `low`
        for "random".  Return the checked scheduler and byzantine
        params (None without a byzantine spec) as floats and tuples of node
        ids.  Anything else raises ValueError."""
        for name, minimum in (("f", 0), ("seed", None), ("max_rounds", 1)):
            int_value(getattr(self, name), name, minimum)
        if not isinstance(self.fault_set, (set, frozenset)):
            raise ValueError(f"fault_set must be a set or frozenset, got {self.fault_set!r}")
        for v in self.fault_set:
            int_value(v, "fault_set entry")
        bound = FLOAT_MAX / (self.graph.n + 1)
        for x in self.inputs:
            if abs(real_value(x, "input")) > bound:
                raise ValueError(f"input magnitude must be at most FLOAT_MAX/(n+1)={bound!r}, got {x!r}")
        real_value(self.epsilon, "epsilon")
        if len(self.fault_set) > self.f:
            raise ValueError(f"|fault set|={len(self.fault_set)} exceeds f={self.f}")
        if not self.fault_set <= set(self.graph.nodes):
            raise ValueError("fault set contains unknown nodes")
        if len(self.fault_set) == self.graph.n:
            raise ValueError("at least one node must be fault-free")
        if len(self.inputs) != self.graph.n:
            raise ValueError(f"need {self.graph.n} inputs, got {len(self.inputs)}")
        if self.fault_set and self.byzantine is None:
            raise ValueError("fault set given without a byzantine behavior")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        n, sched, byz = self.graph.n, self.scheduler, self.byzantine
        scheduler = spec_params(sched.kind, sched.params, "scheduler", _SCHEDULERS, n)
        if byz is None:
            return scheduler, None
        byzantine = spec_params(byz.kind, byz.params, "byzantine behavior", _BEHAVIORS, n)
        if byz.kind == "random":
            _random_range(byzantine)
        return scheduler, byzantine

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_dict(),
            "f": self.f,
            "fault_set": sorted(self.fault_set),
            "inputs": list(self.inputs),
            "scheduler": self.scheduler.to_json_dict(),
            "byzantine": self.byzantine.to_json_dict() if self.byzantine else None,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "epsilon": self.epsilon,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "SimConfig":
        """Build a config from its JSON form.  This checks the JSON shape:
        the config and the scheduler and byzantine specs are objects with
        no unknown fields, `graph`, `f`, `inputs`, `scheduler` and each
        spec's `kind` are present (null counts as missing), `inputs` and
        `fault_set` are lists, and `fault_set` entries are integers before
        they are hashed (1.0 would pass as node 1).  JSON integers in `inputs` and
        `epsilon` load as floats.  The config then goes through validate(),
        so whatever it rejects raises ValueError here too."""
        json_object(d, "config", _CONFIG_FIELDS, ("graph", "f", "inputs", "scheduler"))
        sched = json_object(d["scheduler"], "scheduler", _SPEC_FIELDS, ("kind",))
        byz = d.get("byzantine")
        if byz is not None:
            json_object(byz, "byzantine", _SPEC_FIELDS, ("kind",))
        fault_set = json_list(d.get("fault_set", []), "fault_set")
        config = cls(
            graph=parse_graph(d["graph"]),
            f=d["f"],
            fault_set=frozenset(int_value(v, "fault_set entry") for v in fault_set),
            inputs=tuple(map(json_number, json_list(d["inputs"], "inputs"))),
            scheduler=SchedulerSpec(sched["kind"], sched.get("params", {})),
            byzantine=ByzantineSpec(byz["kind"], byz.get("params", {})) if byz is not None else None,
            seed=d.get("seed", 0),
            max_rounds=d.get("max_rounds", 1000),
            epsilon=json_number(d.get("epsilon", 0.0)),
        )
        config.validate()
        return config

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        return cls.from_json_dict(json.loads(text))


_CONFIG_FIELDS = frozenset(attr.name for attr in fields(SimConfig))
_SPEC_FIELDS = frozenset(("kind", "params"))


class Delivery(NamedTuple):
    virtual_time: int
    sender: int
    receiver: int
    tag: int
    value: float


# tuple.__new__(cls, fields) is the body of a named tuple's _make without its
# Python frame: it builds a Delivery or a RoundMessage in C, unchecked.
_new = tuple.__new__


class DeliveryLog:
    """A run's deliveries, read-only, kept as two columns in pop order: the
    receivers and the messages, each message the RoundMessage object its
    sender pushed (shared by every destination that got it).  `len` builds
    nothing; iteration builds delivery k (virtual time k + 1) from the k-th
    receiver and message.  `list(log)` gives the list of Delivery records,
    with its indexes, slices, `==` and `repr`."""

    __slots__ = ("_receivers", "_messages")

    def __init__(self, receivers: list[int], messages: list[RoundMessage]):
        self._receivers = receivers
        self._messages = messages

    def __len__(self) -> int:
        return len(self._receivers)

    def __iter__(self):
        for vt, (dest, (sender, tag, value)) in enumerate(zip(self._receivers, self._messages), 1):
            yield _new(Delivery, (vt, sender, dest, tag, value))


@dataclass
class Trace:
    """Round-indexed value history of the fault-free nodes plus the full
    delivery log.  u_levels/mu_levels cover rounds every fault-free node has
    completed (the "common" rounds)."""

    config: SimConfig
    values: dict[int, list[float]]
    u_levels: list[float]
    mu_levels: list[float]
    deliveries: DeliveryLog
    outcome: str  # "converged" | "max-rounds-hit"
    converged_round: int | None

    @property
    def common_rounds(self) -> int:
        return len(self.u_levels) - 1

    def spread(self, t: int) -> float:
        return self.u_levels[t] - self.mu_levels[t]

    @property
    def spreads(self) -> list[float]:
        return [u - m for u, m in zip(self.u_levels, self.mu_levels)]


# ---------------------------------------------------------------------------
# Byzantine behaviors


def _derived_rng(seed: int, node: int, tag: int) -> random.Random:
    mix = (
        seed * 0x9E3779B97F4A7C15 + node * 0xBF58476D1CE4E5B9 + tag * 0x94D049BB133111EB + 1
    ) & 0xFFFFFFFFFFFFFFFF
    return random.Random(mix)


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2, bit for bit where a + b is finite, and finite where it
    is not."""
    total = a + b
    return total / 2.0 if abs(total) <= FLOAT_MAX else a / 2.0 + b / 2.0


def _split_behavior(p: dict, seed: int):
    m, big_m = p["m"], p["M"]
    levels = (p.get("m_minus", m - 1.0), p.get("M_plus", big_m + 1.0), _midpoint(m, big_m))
    left = set(p.get("left", ()))
    right = set(p.get("right", ()))
    # out-neighbour tuple -> its runs as (dests, index into levels)
    plans: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]] = {}

    def level(dest: int) -> int:
        return 0 if dest in left else 1 if dest in right else 2

    def messages(node: int, tag: int, out_nbrs: tuple[int, ...]) -> list[tuple[tuple[int, ...], RoundMessage]]:
        plan = plans.get(out_nbrs)
        if plan is None:
            plan = plans[out_nbrs] = tuple((tuple(run), k) for k, run in groupby(out_nbrs, level))
        sent = [_new(RoundMessage, (node, tag, x)) for x in levels]
        return [(dests, sent[k]) for dests, k in plan]

    return messages


def _identical_wrong_behavior(p: dict, seed: int):
    value = p["value"]
    return lambda node, tag, out_nbrs: [(out_nbrs, _new(RoundMessage, (node, tag, value)))]


def _random_range(p: dict) -> tuple[float, float]:
    """A `random` behavior's checked (low, high).  Random.uniform draws
    low + (high - low) * random(), so high - low must be finite."""
    low, high = p.get("low", 0.0), p.get("high", 1.0)
    if not abs(high - low) <= FLOAT_MAX:
        raise ValueError(f"byzantine behavior 'random' needs a finite high - low, got low={low!r}, high={high!r}")
    return low, high


def _random_behavior(p: dict, seed: int):
    low, high = _random_range(p)

    def messages(node: int, tag: int, out_nbrs: tuple[int, ...]) -> list[tuple[tuple[int, ...], RoundMessage]]:
        uniform = _derived_rng(seed, node, tag).uniform
        return [((dest,), _new(RoundMessage, (node, tag, uniform(low, high)))) for dest in out_nbrs]

    return messages


def _silent_behavior(p: dict, seed: int):
    return lambda node, tag, out_nbrs: []


# kind -> (params and their types, required params, behavior factory); the
# first two are what SimConfig.validate checks a spec against.  The factory
# turns the checked params and the run's seed into
# `messages(node, round_tag, out_nbrs)`, a faulty node's messages for one
# round tag as (dests, message) runs in out-neighbour order: a run is a
# maximal stretch of consecutive out-neighbours sent the same message
# ("random" sends each its own).  Defaults: "split" `m_minus` m-1, `M_plus`
# M+1, node lists `left`, `right` empty; "random" `low` 0, `high` 1, whose
# difference must be finite (_random_range).
_BEHAVIORS = {
    "split": (
        {"m": REAL, "M": REAL, "m_minus": REAL, "M_plus": REAL, "left": NODES, "right": NODES},
        ("m", "M"),
        _split_behavior,
    ),
    "identical-wrong": ({"value": REAL}, ("value",), _identical_wrong_behavior),
    "random": ({"low": REAL, "high": REAL}, (), _random_behavior),
    "silent": ({}, (), _silent_behavior),
}


def byzantine_values(config: SimConfig, node: int, round_tag: int) -> dict[int, float]:
    """Per-out-edge values that faulty `node` of a run of `config` sends for
    one round tag, as the run sends them.  Raises ValueError where
    config.validate() does, or when `node` is not in the fault set.

    Behaviors: "split" (below-range to the left side, above-range to the
    right side, mid-range elsewhere), "identical-wrong" (one arbitrary value
    to all), "random" (seeded uniform draws), "silent" (no messages).
    """
    _, params = config.validate()
    if node not in config.fault_set:
        raise ValueError(f"node {node!r} is not in the fault set")
    int_value(round_tag, "round tag", 0)
    behavior = _BEHAVIORS[config.byzantine.kind][2](params, config.seed)
    runs = behavior(node, round_tag, tuple(sorted(config.graph.out_nbrs[node])))
    return {dest: msg.value for dests, msg in runs for dest in dests}


# ---------------------------------------------------------------------------
# Schedulers
#
# A message pool answers three calls and no others: `push(seq, dests,
# msg)`, one message sent to each of `dests` at sequence numbers seq,
# seq + 1, ...; `pop()`, the next delivery as (destination, message); and
# `advanced(node, round)`, each rise of a node's round, which a round-blind
# pool ignores.  The event loop counts pending messages itself.


class _RoundBlind:
    """A pool whose delivery order does not depend on the nodes' rounds: its
    `advanced` hook, which run_simulation calls as it calls every pool's,
    does nothing."""

    def advanced(self, node: int, round_: int) -> None:
        """Node `node` moved to round `round_`: nothing to do."""


class RandomScheduler(_RoundBlind):
    """Uniform out-of-order delivery among all pending messages.

    The pool is one list of (destination, message) pairs in push order, the
    pairs that pops return, and keeps no sequence numbers (push order is
    all a draw needs).  A pop draws one index uniformly and removes it with
    list.pop, O(pending) memmove but no Python-level scan.  The draw is
    Random.randrange(len) written out: getrandbits(k) for the bit length k
    of the bound, redrawn until below it, which yields the same indices
    from the same generator state."""

    def __init__(self, seed: int):
        self.getrandbits = random.Random(seed).getrandbits
        self.pending: list[tuple[int, RoundMessage]] = []

    def push(self, seq: int, dests: tuple[int, ...], msg: RoundMessage) -> None:
        self.pending.extend(zip(dests, repeat(msg)))

    def pop(self) -> tuple[int, RoundMessage]:
        pending, getrandbits = self.pending, self.getrandbits
        n = len(pending)
        if not n:
            raise IndexError("pop from an empty message pool")
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        return pending.pop(i)


class FifoScheduler(_RoundBlind):
    """Random delivery, but per-link in order (lowest sequence per link first).

    Each link (sender, destination) keeps a deque of (sequence, message) in
    sequence order; `heads` lists the non-empty links' head sequences in
    ascending order, and a pop draws one of them uniformly (the same
    written-out randrange as RandomScheduler).  Sequence numbers only grow,
    so a push appends a link's new head; a pop puts the link's next head
    back with an O(log links) search and an O(links) list insert."""

    def __init__(self, seed: int):
        self.getrandbits = random.Random(seed).getrandbits
        self.links: defaultdict[tuple[int, int], deque[tuple[int, RoundMessage]]] = defaultdict(deque)
        self.heads: list[tuple[int, tuple[int, int]]] = []

    def push(self, seq: int, dests: tuple[int, ...], msg: RoundMessage) -> None:
        links, heads = self.links, self.heads
        sender, _, _ = msg
        for i, dest in enumerate(dests, seq):
            link = (sender, dest)
            queue = links[link]
            if not queue:
                heads.append((i, link))
            queue.append((i, msg))

    def pop(self) -> tuple[int, RoundMessage]:
        heads, getrandbits = self.heads, self.getrandbits
        n = len(heads)
        if not n:
            raise IndexError("pop from an empty message pool")
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        link = heads.pop(i)[1]
        queue = self.links[link]
        _, msg = queue.popleft()
        if queue:
            bisect.insort(heads, (queue[0][0], link))
        return link[1], msg


class SynchronousScheduler(_RoundBlind):
    """Deliver all messages of a round tag before any later tag (plumbing for
    lockstep sanity runs: kind "synchronous", whose _SCHEDULERS row gives the
    nodes the sync model, so they await every in-edge).  A heap of (tag,
    sequence, destination, message): O(log pending) per pop."""

    def __init__(self):
        self.heap: list[tuple[int, int, int, RoundMessage]] = []

    def push(self, seq: int, dests: tuple[int, ...], msg: RoundMessage) -> None:
        heap = self.heap
        _, tag, _ = msg
        for i, dest in enumerate(dests, seq):
            heappush(heap, (tag, i, dest, msg))

    def pop(self) -> tuple[int, RoundMessage]:
        _, _, dest, msg = heappop(self.heap)
        return dest, msg


class AdaptiveDelayScheduler:
    """The necessity-proof adversary: for each fault-free node on the left
    (resp. right) side, the messages from a fixed set of min(lag, |cross|)
    cross-side senders are withheld until the receiver completes the round
    that could have used them, then released (and discarded as stale).  The
    lag is the number of in-edges a round may go without under the nodes'
    timing model (f asynchronously; see protocol.TimingModel).  All delays
    stay finite.

    Delivery is the lowest sequence among the messages not withheld.  Each
    pending message is one (sequence, destination, message) tuple, and a
    push places each of its destinations in turn.  Messages never withheld
    arrive in sequence order, so they queue in one deque.  Messages from a
    receiver's withheld senders sit in that receiver's heap as (tag,
    message tuple) until the receiver's round exceeds tag + 1, and then in
    the released heap, which orders them by the unique sequence.  Releases
    are eager: `advanced` moves a receiver's releasable messages when its
    round rises, and `push` sends a message that is releasable already
    straight to the released heap.  A pop takes the lower of the two heads:
    O(1) from the queue or O(log released) from the heap."""

    def __init__(self, g: Digraph, lag: int, left: Iterable[int], center: Iterable[int], right: Iterable[int]):
        left, center, right = set(left), set(center), set(right)
        # withheld sender -> the receivers that withhold it
        self.holders: defaultdict[int, set[int]] = defaultdict(set)
        for side, cross in ((left, center | right), (right, left | center)):
            for v in sorted(side):
                for sender in sorted(g.in_nbrs[v] & cross)[:lag]:
                    self.holders[sender].add(v)
        self.held: dict[int, list[tuple[int, tuple[int, int, RoundMessage]]]] = {
            v: [] for receivers in self.holders.values() for v in receivers
        }
        # The rounds of the receivers that withhold; nodes start in round 1.
        self.round_of = dict.fromkeys(self.held, 1)
        self.queue: deque[tuple[int, int, RoundMessage]] = deque()
        self.released: list[tuple[int, int, RoundMessage]] = []

    def push(self, seq: int, dests: tuple[int, ...], msg: RoundMessage) -> None:
        sender, tag, _ = msg
        holders = self.holders.get(sender, ())
        append = self.queue.append
        for i, dest in enumerate(dests, seq):
            if dest not in holders:
                append((i, dest, msg))
            # Held while the receiver could still use the tag (round <= tag+1).
            elif self.round_of[dest] > tag + 1:
                heappush(self.released, (i, dest, msg))
            else:
                heappush(self.held[dest], (tag, (i, dest, msg)))

    def advanced(self, node: int, round_: int) -> None:
        """Node `node` moved to round `round_`: release what it withheld
        for the tags it can no longer use."""
        heap = self.held.get(node)
        if heap is None:
            return
        self.round_of[node] = round_
        while heap and round_ > heap[0][0] + 1:
            heappush(self.released, heappop(heap)[1])

    def pop(self) -> tuple[int, RoundMessage]:
        queue, released = self.queue, self.released
        if released and (not queue or released[0][0] < queue[0][0]):
            _, dest, msg = heappop(released)
        elif queue:
            _, dest, msg = queue.popleft()
        else:
            raise SimulationError("scheduler deadlock: every pending message is withheld")
        return dest, msg


# kind -> (params and their types, required params, factory of the scheduler
# from the config and the checked params, timing model the nodes run under),
# checked as _BEHAVIORS is.  Only "adaptive-delay" takes params: node lists
# `left`, `center`, `right`, each default empty.
_SCHEDULERS = {
    "random": ({}, (), lambda config, p: RandomScheduler(config.seed), MODELS[ASYNC]),
    "fifo": ({}, (), lambda config, p: FifoScheduler(config.seed), MODELS[ASYNC]),
    "synchronous": ({}, (), lambda config, p: SynchronousScheduler(), MODELS[SYNC]),
    "adaptive-delay": (
        {"left": NODES, "center": NODES, "right": NODES},
        (),
        lambda config, p: AdaptiveDelayScheduler(
            config.graph, _SCHEDULERS["adaptive-delay"][3].lag(config.f),
            p.get("left", ()), p.get("center", ()), p.get("right", ()),
        ),
        MODELS[ASYNC],
    ),
}


# ---------------------------------------------------------------------------
# Event loop


def run_simulation(config: SimConfig) -> Trace:
    """Drive every node's transmit/receive/update cycle under the configured
    scheduler until the fault-free spread falls to epsilon or every
    fault-free node completes max_rounds, every node under the timing model
    of the scheduler kind's _SCHEDULERS row.

    A node is ready once it holds `expected_count` messages tagged with the
    round it waits on, and after process_ready it is not ready (or can no
    longer advance).  Slots only grow, one stored message at a time, so a
    delivery runs process_ready only when the message it stored fills the
    awaited slot to exactly `expected_count`: any other delivery leaves
    readiness unchanged.

    A fault-free node's round broadcast is one scheduler push; a faulty
    node's is one push per run of its behaviour, in out-neighbour order.
    Each rise of a node's round reaches the scheduler through its
    `advanced` hook, which a round-blind pool ignores.  The pool pops
    (destination, message) pairs, and the delivery log keeps them as two
    columns (see DeliveryLog)."""
    scheduler_params, byzantine_params = config.validate()
    g, f = config.graph, config.f
    faulty = config.fault_set
    max_rounds, epsilon = config.max_rounds, config.epsilon
    _, _, make_scheduler, model = _SCHEDULERS[config.scheduler.kind]
    fault_free = [v for v in g.nodes if v not in faulty]
    states = {v: NodeState(v, config.inputs[v], g, f, model) for v in g.nodes}
    values: dict[int, list[float]] = {v: [states[v].value] for v in fault_free}
    receivers: list[int] = []
    messages: list[RoundMessage] = []
    scheduler = make_scheduler(config, scheduler_params)
    push, pop, advanced = scheduler.push, scheduler.pop, scheduler.advanced
    behavior = _BEHAVIORS[config.byzantine.kind][2](byzantine_params, config.seed) if faulty else None
    seq = 0  # messages sent; seq - len(receivers) of them are pending

    u_levels = [max(values[v][0] for v in fault_free)]
    mu_levels = [min(values[v][0] for v in fault_free)]
    outcome: str | None = None
    converged_round: int | None = None
    if u_levels[0] - mu_levels[0] <= epsilon:
        outcome, converged_round = "converged", 0
    # completed[t]: fault-free nodes that have completed round t.  Rounds
    # complete in order, so the common rounds grow to t exactly when
    # completed[t] reaches len(fault_free).
    completed = [len(fault_free)]

    def send(v: int, st: NodeState) -> None:
        """Push v's messages for the round in progress: one push, or one
        per run of its behaviour if v is faulty."""
        nonlocal seq
        if v in faulty:
            for dests, msg in behavior(v, st.round - 1, st.out_nbrs):
                push(seq, dests, msg)
                seq += len(dests)
        else:
            push(seq, st.out_nbrs, st.outgoing_message())
            seq += len(st.out_nbrs)

    def process_ready(v: int) -> None:
        """Update v, which is ready, and send its next round's messages;
        again while it stays ready."""
        nonlocal outcome, converged_round
        st = states[v]
        while outcome is None and st.round <= max_rounds:
            if v in faulty:
                # Faulty nodes only pace rounds; their internal value is
                # never used (outgoing values come from the behavior), so no
                # update rule runs.  Only the tag just used can fall behind.
                st.round += 1
                st.buffer.pop(st.round - 2, None)
            else:
                values[v].append(st.apply_update())
                t = st.round - 1
                if t == len(completed):
                    completed.append(1)
                else:
                    completed[t] += 1
                if completed[t] == len(fault_free):
                    u_levels.append(max(values[w][t] for w in fault_free))
                    mu_levels.append(min(values[w][t] for w in fault_free))
                    if u_levels[t] - mu_levels[t] <= epsilon:
                        outcome, converged_round = "converged", t
                    elif t >= max_rounds:
                        outcome = "max-rounds-hit"
            advanced(v, st.round)
            if outcome is not None or st.round > max_rounds:
                return
            send(v, st)
            if not st.round_ready():
                return

    if outcome is None:
        for v in sorted(g.nodes):
            send(v, states[v])
        for v in sorted(g.nodes):
            if states[v].round_ready():
                process_ready(v)

    record_receiver, record_message = receivers.append, messages.append
    while outcome is None:
        if len(receivers) == seq:
            raise SimulationError("no pending messages but the run is not finished")
        dest, msg = pop()
        record_receiver(dest)
        record_message(msg)
        _, tag, _ = msg
        st = states[dest]
        if st.ingest_message(msg) and tag == st.round - 1 and len(st.buffer[tag]) == st.expected_count:
            process_ready(dest)

    return Trace(
        config=config,
        values=values,
        u_levels=u_levels,
        mu_levels=mu_levels,
        deliveries=DeliveryLog(receivers, messages),
        outcome=outcome,
        converged_round=converged_round,
    )


# ---------------------------------------------------------------------------
# Attack construction


def build_attack_config(
    g: Digraph,
    f: int,
    partition: Partition,
    m: float,
    big_m: float,
    max_rounds: int = 1000,
) -> SimConfig:
    """Instantiate the convergence-blocking attack for a violating partition:
    left side starts at m, right side at M, faulty nodes split-send out-of-range
    values per side, and the adaptive scheduler starves each side of enough
    cross-traffic that trimming removes the rest.  On a genuinely violating
    partition the two sides then never move.  The config goes through
    SimConfig.validate, and the levels through the split behaviour's param
    check even without a faulty node, before it is returned, so what
    run_simulation would reject (a level that is not finite or exceeds the
    input bound, a boolean level, max_rounds below 1) raises ValueError."""
    if m >= big_m:
        raise ValueError(f"need m < M, got m={m}, M={big_m}")
    partition.check_covers(g)
    if len(partition.faulty) > f:
        raise ValueError("partition fault set larger than f")
    if not partition.left or not partition.right:
        raise ValueError("partition must have non-empty left and right sides")
    left, center, right = partition.left, partition.center, partition.right
    r = _SCHEDULERS["adaptive-delay"][3].threshold(f)
    for side, nodes, cross in (("left", left, center | right), ("right", right, left | center)):
        reached = in_set(g, cross, nodes, r)
        if reached:
            raise ValueError(
                f"partition does not violate the condition: {side} node {min(reached)} has >= {r} cross in-edges"
            )
    levels = {**dict.fromkeys(left, float(m)), **dict.fromkeys(right, float(big_m))}
    mid = _midpoint(m, big_m)
    sides = {"left": sorted(left), "center": sorted(center), "right": sorted(right)}
    split = {"m": m, "M": big_m, "m_minus": m - 1.0, "M_plus": big_m + 1.0,
             "left": sides["left"], "right": sides["right"]}
    config = SimConfig(
        graph=g,
        f=f,
        fault_set=partition.faulty,
        inputs=tuple(levels.get(v, mid) for v in g.nodes),
        scheduler=SchedulerSpec("adaptive-delay", sides),
        byzantine=ByzantineSpec("split", split) if partition.faulty else None,
        max_rounds=max_rounds,
    )
    config.validate()
    # The levels obey the split behaviour's rules with or without a faulty node.
    spec_params("split", split, "byzantine behavior", _BEHAVIORS, g.n)
    return config


# ---------------------------------------------------------------------------
# Metrics and CSV export


@dataclass(frozen=True)
class TraceMetrics:
    validity_per_round: tuple[bool, ...]  # index t checks round t against t-1

    @property
    def all_valid(self) -> bool:
        return all(self.validity_per_round)


def _validity(u: list[float], mu: list[float]) -> list[bool]:
    """Index t: round t's maximum did not rise and its minimum did not fall
    from round t-1, up to VALIDITY_SLACK (index 0 is True)."""
    return [True] + [
        mu[t] >= mu[t - 1] - VALIDITY_SLACK and u[t] <= u[t - 1] + VALIDITY_SLACK
        for t in range(1, len(u))
    ]


def value_levels(values: dict[int, list[float]]) -> tuple[list[float], list[float], list[bool]]:
    """U[t] (maximum) and mu[t] (minimum) over the nodes of a
    {node: [v[0], v[1], ...]} history, for the rounds every node completed,
    and their per-round validity."""
    common = min(len(vs) for vs in values.values())
    u = [max(vs[t] for vs in values.values()) for t in range(common)]
    mu = [min(vs[t] for vs in values.values()) for t in range(common)]
    return u, mu, _validity(u, mu)


def trace_metrics(trace: Trace) -> TraceMetrics:
    """Per-round validity of a run's fault-free levels."""
    return TraceMetrics(tuple(_validity(trace.u_levels, trace.mu_levels)))


def write_trace_csv(trace: Trace, path: str) -> None:
    """Value history as CSV rows (round, nodeId, value), fault-free nodes only."""
    values = trace.values
    nodes = sorted(values)
    # csv.writer's bytes (both writers): ints and float reprs need no quoting,
    # and "\r\n" is its (excel) line terminator.
    rows = ["round,nodeId,value\r\n"]
    for t in range(max(len(vs) for vs in values.values())):
        rows += [f"{t},{v},{values[v][t]!r}\r\n" for v in nodes if t < len(values[v])]
    with open(path, "w", newline="") as fh:
        fh.write("".join(rows))


def write_metrics_csv(trace: Trace, path: str) -> None:
    """Companion CSV (round, U, mu, spread) over the common rounds."""
    levels = enumerate(zip(trace.u_levels, trace.mu_levels))
    rows = ["round,U,mu,spread\r\n"] + [f"{t},{u!r},{mu!r},{u - mu!r}\r\n" for t, (u, mu) in levels]
    with open(path, "w", newline="") as fh:
        fh.write("".join(rows))


def _int_cell(cell: str) -> int:
    """A round or nodeId cell: ASCII digits only."""
    if not (cell.isascii() and cell.isdigit()):
        raise ValueError
    return int(cell)


def _real_cell(cell: str) -> float:
    """A value cell: what float() reads, but no underscore, surrounding
    whitespace or non-ASCII text."""
    if "_" in cell or cell != cell.strip() or not cell.isascii():
        raise ValueError
    return float(cell)


_COLUMNS = (("round", _int_cell), ("nodeId", _int_cell), ("value", _real_cell))


def _bad_cell(row: list[str], line: int, at: tuple[int, int, int]) -> str:
    """The message for a trace CSV row with a cell that does not convert:
    the first of its round, nodeId and value cells (at indexes `at`) that
    fails."""
    for (name, convert), i in zip(_COLUMNS, at):
        try:
            convert(row[i])
        except ValueError:
            kind = "an integer" if convert is _int_cell else "a number"
            return f"trace CSV line {line} column {name!r} is not {kind}: {row[i]!r}"


def read_trace_csv(path: str) -> dict[int, list[float]]:
    """Load a values CSV back into {node: [v[0], v[1], ...]}.  A missing
    column (an empty file lacks all three), a column the header names more
    than once, a row with too few fields, a round or nodeId that is not
    ASCII digits, a value that is not a finite number (or has an
    underscore, surrounding whitespace or non-ASCII text), a repeated
    (round, nodeId) pair or a gap in a node's rounds raises ValueError;
    blank lines are skipped."""
    values: defaultdict[int, dict[int, float]] = defaultdict(dict)
    with open(path, newline="") as fh:
        # Read whole, so a byte that does not decode is reported at its offset in the file.
        reader = csv.reader(io.StringIO(fh.read(), newline=""))
        header = next(reader, [])
        missing = [name for name in ("round", "nodeId", "value") if name not in header]
        if missing:
            raise ValueError(f"trace CSV is missing column(s) {', '.join(map(repr, missing))}")
        repeated = [name for name in ("round", "nodeId", "value") if header.count(name) > 1]
        if repeated:
            raise ValueError(f"trace CSV names column(s) {', '.join(map(repr, repeated))} more than once")
        at_round, at_node, at_value = map(header.index, ("round", "nodeId", "value"))
        width = max(at_round, at_node, at_value) + 1
        for row in filter(None, reader):
            if len(row) < width:
                raise ValueError(f"trace CSV line {reader.line_num} has {len(row)} field(s), need {width}")
            value_cell = row[at_value]
            try:
                t, node, value = _int_cell(row[at_round]), _int_cell(row[at_node]), _real_cell(value_cell)
            except ValueError:
                raise ValueError(_bad_cell(row, reader.line_num, (at_round, at_node, at_value))) from None
            by_round = values[node]
            if t in by_round:
                raise ValueError(f"trace CSV line {reader.line_num} repeats round {t} of node {node}")
            if not abs(value) <= FLOAT_MAX:
                raise ValueError(f"trace CSV line {reader.line_num} has non-finite value {value_cell!r}")
            by_round[t] = value
    out = {}
    for node, by_round in values.items():
        seq = [by_round[t] for t in sorted(by_round)]
        if sorted(by_round) != list(range(len(seq))):
            raise ValueError(f"trace rounds for node {node} are not contiguous")
        out[node] = seq
    return out
