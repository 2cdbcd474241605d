from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from byztrim.conditions import DegreeViolation, quick_degree_checks
from byztrim.digraph import Digraph
from byztrim.protocol import ASYNC, MODELS, SYNC, NodeState, ProtocolError, RoundMessage, compute_alpha, init_node


def star_in(n_senders: int, extra_out: int = 0) -> Digraph:
    """Node 0 with n_senders in-neighbours (and optional out-edges)."""
    n = n_senders + 1 + extra_out
    edges = [(i, 0) for i in range(1, n_senders + 1)]
    edges += [(0, n_senders + 1 + k) for k in range(extra_out)]
    return Digraph(n, edges)


def feed(state: NodeState, tag: int, pairs: list[tuple[int, float]]) -> None:
    for sender, value in pairs:
        state.ingest_message(RoundMessage(sender, tag, value))


class TestInitNode:
    def test_initial_state(self, k6):
        s = init_node(0, 0.5, k6, 1)
        assert s.value == 0.5
        assert s.round == 1
        assert s.buffer == {}

    def test_input_stored_exactly(self, k6):
        assert init_node(2, -3.2, k6, 1).value == -3.2

    def test_bad_id(self, k6):
        with pytest.raises(ProtocolError, match="out of range"):
            init_node(6, 0.0, k6, 1)


class TestOutgoingMessage:
    def test_tags_and_fanout(self):
        g = Digraph(3, [(0, 2), (0, 1), (1, 0), (2, 0)])
        s = init_node(0, 0.5, g, 0)
        assert s.outgoing_message() == RoundMessage(0, 0, 0.5)
        assert s.out_nbrs == (1, 2)

    def test_no_out_neighbours(self):
        g = Digraph(2, [(1, 0)])
        assert init_node(0, 1.0, g, 0).out_nbrs == ()

    def test_tag_tracks_round(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        s = init_node(0, 1.25, g, 0)
        s.round = 3
        msg = s.outgoing_message()
        assert msg.tag == 2 and msg.value == 1.25


class TestIngest:
    def test_first_value_buffered(self, k6):
        s = init_node(0, 0.0, k6, 1)
        assert s.ingest_message(RoundMessage(1, 0, 0.25))
        assert s.buffer[0] == {1: 0.25}

    def test_duplicate_keeps_first(self, k6):
        s = init_node(0, 0.0, k6, 1)
        s.ingest_message(RoundMessage(1, 0, 0.25))
        assert not s.ingest_message(RoundMessage(1, 0, 0.75))
        assert s.buffer[0] == {1: 0.25}

    def test_stale_tag_discarded(self, k6):
        s = init_node(0, 0.0, k6, 1)
        s.round = 3
        assert not s.ingest_message(RoundMessage(1, 0, 0.25))
        assert s.buffer == {}

    def test_future_tag_held(self, k6):
        s = init_node(0, 0.0, k6, 1)
        assert s.ingest_message(RoundMessage(1, 4, 0.25))
        assert s.buffer[4] == {1: 0.25}

    def test_non_neighbour_rejected(self):
        g = Digraph(3, [(1, 0)])
        s = init_node(0, 0.0, g, 0)
        with pytest.raises(ProtocolError, match="non-neighbour"):
            s.ingest_message(RoundMessage(2, 0, 1.0))

    def test_negative_tag_rejected(self):
        with pytest.raises(ProtocolError):
            RoundMessage(1, -1, 0.0)


class TestRoundMessage:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ((1, True, 0.5), "message tag must be an integer, got True"),
            ((2, 1.5, 0.5), "message tag must be an integer, got 1.5"),
            ((False, 0, 0.5), "message sender must be an integer, got False"),
            ((1, 0, float("nan")), "message value must be a finite number, got nan"),
        ],
    )
    def test_constructor_rejects(self, fields, message):
        with pytest.raises(ProtocolError, match=message):
            RoundMessage(*fields)

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(
                lambda: RoundMessage(1, 0, 0.5)._replace(tag=True), "message tag must be an integer, got True",
                id="_replace tag=True",
            ),
            pytest.param(
                lambda: RoundMessage._make((1, -3, float("nan"))), "message tag must be >= 0, got -3", id="_make tag=-3"
            ),
            pytest.param(
                lambda: RoundMessage._make((1, 0, float("nan"))), "message value must be a finite number, got nan",
                id="_make value=nan",
            ),
        ],
    )
    def test_make_and_replace_reject(self, build, message):
        with pytest.raises(ProtocolError, match=message):
            build()

    def test_make_and_replace(self):
        msg = RoundMessage._make([3, 1, 2])
        assert type(msg) is RoundMessage and msg == (3, 1, 2.0) and type(msg.value) is float
        assert msg._replace(value=5) == RoundMessage(3, 1, 5.0)
        with pytest.raises(ValueError, match="unexpected field names"):
            msg._replace(round=2)

    def test_named_tuple(self):
        msg = RoundMessage(3, 1, 2)
        assert msg == (3, 1, 2.0) and type(msg.value) is float
        sender, tag, value = msg
        assert (sender, tag, value) == (msg.sender, msg.tag, msg.value)
        assert repr(msg) == "RoundMessage(sender=3, tag=1, value=2.0)"

    def test_outgoing_message_is_a_round_message(self):
        msg = init_node(0, 0.5, Digraph(2, [(0, 1), (1, 0)]), 0).outgoing_message()
        assert type(msg) is RoundMessage and msg == RoundMessage(0, 0, 0.5)


class TestRoundReady:
    def test_all_but_f(self):
        g = star_in(4)
        s = init_node(0, 0.0, g, 1)
        feed(s, 0, [(1, 0.1), (2, 0.2), (3, 0.3)])
        assert s.round_ready()

    def test_two_of_four_insufficient(self):
        s = init_node(0, 0.0, star_in(4), 1)
        feed(s, 0, [(1, 0.1), (2, 0.2)])
        assert not s.round_ready()

    def test_f_zero_requires_all(self):
        s = init_node(0, 0.0, star_in(4), 0)
        feed(s, 0, [(1, 0.1), (2, 0.2), (3, 0.3)])
        assert not s.round_ready()
        feed(s, 0, [(4, 0.4)])
        assert s.round_ready()

    def test_only_matching_tag_counts(self):
        s = init_node(0, 0.0, star_in(4), 1)
        feed(s, 1, [(1, 0.1), (2, 0.2), (3, 0.3)])
        assert not s.round_ready()


class TestApplyUpdate:
    def test_trim_one_each_side(self):
        s = init_node(0, 0.0, star_in(4), 1)
        feed(s, 0, [(1, -5.0), (2, 2.0), (3, 10.0)])
        assert s.apply_update() == 1.0
        assert s.round == 2
        assert 0 not in s.buffer

    def test_no_trim_when_f_zero(self):
        s = init_node(0, 3.0, star_in(2), 0)
        feed(s, 0, [(1, 0.0), (2, 6.0)])
        assert s.apply_update() == 3.0

    @pytest.mark.parametrize("f, require_all", [(0, False), (0, True), (1, True)])
    def test_no_in_neighbours_keeps_value(self, f, require_all):
        s = init_node(1, 0.25, star_in(2), f, require_all=require_all)
        assert s.round_ready()
        assert s.apply_update() == 0.25
        assert s.round == 2

    def test_trim_two_each_side(self):
        s = init_node(0, 10.0, star_in(7), 2)
        feed(s, 0, [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0)])
        assert s.apply_update() == 6.5

    def test_not_ready(self):
        s = init_node(0, 0.0, star_in(4), 1)
        with pytest.raises(ProtocolError, match="not ready"):
            s.apply_update()

    def test_degree_too_small_for_f(self):
        # The degree rule is known when the node is built, but only an
        # update raises it, and only once the node is ready.
        s = init_node(0, 0.0, star_in(3), 1)
        with pytest.raises(ProtocolError, match="not ready"):
            s.apply_update()
        feed(s, 0, [(1, 0.1), (2, 0.2)])
        with pytest.raises(ProtocolError, match="3f\\+1"):
            s.apply_update()

    def test_value_ties_broken_by_sender(self):
        # Three equal values: the trimmed extremes are the lowest/highest
        # sender ids, the middle sender survives; result identical either way
        # but the rule must not crash on ties.
        s = init_node(0, 1.0, star_in(4), 1)
        feed(s, 0, [(3, 5.0), (1, 5.0), (2, 5.0)])
        assert s.apply_update() == 3.0

    def test_excess_arrivals_use_first_received(self):
        # Four tag-0 values buffered but only |N|-f=3 are consumed, in
        # arrival order: (4, 100.0) arrives last and is ignored.
        s = init_node(0, 0.0, star_in(4), 1)
        feed(s, 0, [(2, 2.0), (1, -5.0), (3, 10.0), (4, 100.0)])
        assert s.apply_update() == 1.0

    def test_future_buffer_survives_update(self):
        s = init_node(0, 0.0, star_in(4), 1)
        feed(s, 1, [(1, 9.0)])
        feed(s, 0, [(1, -5.0), (2, 2.0), (3, 10.0)])
        s.apply_update()
        assert s.buffer == {1: {1: 9.0}}

    def test_require_all_keeps_trim(self):
        # Synchronous emulation: wait for every in-edge, still trim f each side.
        s = init_node(0, 0.0, star_in(4), 1, require_all=True)
        feed(s, 0, [(1, -5.0), (2, 2.0), (3, 4.0)])
        assert not s.round_ready()
        feed(s, 0, [(4, 10.0)])
        assert s.round_ready()
        assert s.apply_update() == (0.0 + 2.0 + 4.0) / 3

    @settings(max_examples=200)
    @given(
        prev=st.floats(-1e6, 1e6),
        values=st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
    )
    def test_convex_combination(self, prev, values):
        s = init_node(0, prev, star_in(4), 1)
        feed(s, 0, list(enumerate(values, start=1))[:3])
        out = s.apply_update()
        lo = min([prev] + values[:3])
        hi = max([prev] + values[:3])
        assert lo - 1e-9 <= out <= hi + 1e-9

    @settings(max_examples=150)
    @given(
        honest=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
        evil=st.floats(-1e9, 1e9),
        prev=st.floats(-1e3, 1e3),
    )
    def test_trim_safety_single_fault(self, honest, evil, prev):
        # One faulty in-neighbour out of 4 (f=1): the update must land inside
        # the hull of the fault-free values plus the own value.
        s = init_node(0, prev, star_in(4), 1)
        feed(s, 0, [(1, honest[0]), (2, honest[1]), (3, evil)])
        out = s.apply_update()
        lo = min([prev] + honest[:2])
        hi = max([prev] + honest[:2])
        assert lo - 1e-9 <= out <= hi + 1e-9


class TestValueOnlySort:
    """apply_update sorts the buffered values alone, oracles.NaiveNode sorts
    (value, sender) pairs.  On buffers full of ties, 0.0 and -0.0 (the one
    tie whose order can change a sum's bits, through the sign of a zero),
    both must return the same float, bit for bit."""

    VALUES = (-1.0, -0.0, 0.0, 0.5, 2.0)
    # Half the draws are zeros, so runs of tied 0.0 and -0.0 are common.
    VALUE = st.one_of(st.sampled_from((-0.0, 0.0)), st.sampled_from(VALUES))

    @settings(max_examples=400, deadline=None)
    @given(
        f=st.integers(0, 2),
        extra=st.integers(0, 3),
        require_all=st.booleans(),
        own=VALUE,
        values=st.lists(VALUE, min_size=10, max_size=10),
        order=st.permutations(range(1, 11)),
    )
    # Own value -0.0 and zeros only in the trim window: the pair order keeps
    # sender 2's -0.0, arrival order would keep sender 1's 0.0.
    @example(f=1, extra=0, require_all=False, own=-0.0, values=[-0.0, 0.0, 0.0] + [2.0] * 7,
             order=[2, 1, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_bit_identical_to_pair_sort(self, f, extra, require_all, own, values, order):
        g = star_in(3 * f + 1 + extra)
        senders = [s for s in order if s in g.in_nbrs[0]]
        fast = NodeState(0, own, g, f, MODELS[SYNC if require_all else ASYNC])
        naive = oracles.NaiveNode(0, own, g, f, require_all)
        for sender, value in zip(senders, values):
            fast.ingest_message(RoundMessage(sender, 0, value))
            naive.ingest_message(RoundMessage(sender, 0, value))
        assert fast.apply_update().hex() == naive.apply_update().hex()


class TestComputeAlpha:
    def test_k6(self, k6):
        assert compute_alpha(k6, 1) == Fraction(1, 3)

    def test_mixed_degrees(self):
        # Node 0 has in-degree 5, node 1 in-degree 4, rest see both.
        g = Digraph(
            6,
            [(i, 0) for i in range(1, 6)]
            + [(i, 1) for i in (0, 2, 3, 4)]
            + [(i, j) for i in range(6) for j in range(2, 6) if i != j],
        )
        assert min(len(g.in_nbrs[v]) for v in g.nodes) == 4
        assert compute_alpha(g, 1) == Fraction(1, 3)

    def test_f_zero_uses_max_degree(self):
        g = Digraph(4, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3)])
        assert compute_alpha(g, 0) == Fraction(1, 4)

    def test_degree_precondition(self):
        g = star_in(3)
        with pytest.raises(ProtocolError, match="3f\\+1"):
            compute_alpha(g, 1)

    def test_degree_message_shared(self):
        # K6 less node 2's in-edges from 3, 4, 5: one message for the update,
        # alpha and the condition pre-check.
        g = Digraph(6, [(i, j) for i in range(6) for j in range(6) if i != j and (j != 2 or i < 2)])
        message = "node 2 has in-degree 2 < 3f+1=4"
        with pytest.raises(ProtocolError) as exc:
            compute_alpha(g, 1)
        assert str(exc.value) == message
        assert NodeState(2, 0.0, g, 1).update_error == message
        assert DegreeViolation("in-degree", 2, message) in quick_degree_checks(g, 1)

    @settings(max_examples=60)
    @given(st.integers(4, 40), st.integers(1, 5))
    def test_weights_sum_to_one(self, degree, f):
        if degree < 3 * f + 1:
            degree = 3 * f + 1
        a = 1.0 / (degree + 1 - 3 * f)
        total = a * (degree + 1 - 3 * f)
        assert math.isclose(total, 1.0, rel_tol=0, abs_tol=2 ** -50)
