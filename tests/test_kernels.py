from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from byztrim import _kernels
from byztrim.conditions import DEFAULT_PARTITION_BUDGET, check_partition_condition, threshold
from byztrim.digraph import Digraph
from byztrim.harness import generate_graph
from conftest import TWIN_RICH_FAMILIES, complete, random_digraph
from oracles import (
    all_fault_masks,
    naive_failing_reduction,
    naive_twin_predecessors,
    naive_violating_partition,
    naive_violation_with,
    reference_violating_partition,
)


def random_masks(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    return tuple(
        sum(1 << u for u in range(n) if u != v and rng.random() < p)
        for v in range(n)
    )


class TestAgainstNaiveOracle:
    def test_partition_kernel_matches_oracle(self):
        rng = random.Random(300)
        for _ in range(100):
            g = random_digraph(rng.randrange(2, 6), rng.choice([0.3, 0.6]), rng)
            f = rng.randrange(0, 2)
            r = rng.choice([f + 1, 2 * f + 1])
            status, _, got = _kernels.violating_partition(g.n, g.in_masks(), f, r, 10**9)
            expect = naive_violating_partition(g, f, r)
            assert status == (_kernels.PASS if expect is None else _kernels.FAIL)
            if expect is None:
                assert got is None
            else:
                f_mask, l_mask, c_mask, r_mask = got
                assert {v for v in range(g.n) if f_mask >> v & 1} == set(expect.faulty)
                assert {v for v in range(g.n) if l_mask >> v & 1} == set(expect.left)
                assert {v for v in range(g.n) if c_mask >> v & 1} == set(expect.center)
                assert {v for v in range(g.n) if r_mask >> v & 1} == set(expect.right)

    def test_reduction_kernel_matches_full_enumeration(self):
        # The kernel inspects only minimal reductions; cross-check against a
        # literal sweep of the whole reduced-graph family.
        rng = random.Random(400)
        for _ in range(120):
            n = rng.randrange(1, 5)
            masks = random_masks(rng, n, rng.choice([0.4, 0.8, 1.0]))
            f = rng.randrange(0, 3)
            mss = rng.choice([1, f + 1])
            status, _, _ = _kernels.failing_reduction(n, masks, f, mss, 10**9)
            assert (status == _kernels.PASS) == _full_family_ok(n, masks, f, mss)


class TestPartitionSearch:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, 2 ** (n * (n - 1)) - 1))
        ),
        st.integers(0, 2),
        st.sampled_from(["sync", "async"]),
    )
    def test_verdict_and_witness_match_oracle(self, graph, f, mode):
        n, bits = graph
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        g = Digraph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])
        report = check_partition_condition(g, f, mode)
        expect = naive_violating_partition(g, f, threshold(f, mode))
        assert report.verdict == ("pass" if expect is None else "fail")
        assert report.witness == expect
        assert report.examined <= report.budget

    def test_tiny_budget_is_exceeded_deterministically(self):
        # Its screen fails after 53 nodes and the search over every fault
        # set passes after 201, so every smaller budget runs out.
        masks = generate_graph("random-uniform", {"n": 7, "p": 0.9}, seed=8).in_masks()
        status, examined, _ = _kernels.violating_partition(7, masks, 1, 3, 10**9)
        assert (status, examined) == (_kernels.PASS, 201)
        for budget in (0, 1, 7, examined - 1):
            for _ in range(2):
                assert _kernels.violating_partition(7, masks, 1, 3, budget) == (
                    _kernels.BUDGET_EXCEEDED,
                    budget + 1,
                    None,
                )
        assert _kernels.violating_partition(7, masks, 1, 3, examined) == (_kernels.PASS, examined, None)

    def test_search_is_pruned(self):
        # K12 with f=2 passes async; the full enumeration assigns
        # sum_{k<=2} C(12,k) 3^(12-k) = 6,554,439 leaves.
        n = 12
        masks = tuple(((1 << n) - 1) ^ (1 << v) for v in range(n))
        status, examined, _ = _kernels.violating_partition(n, masks, 2, 5, 10**9)
        assert status == _kernels.PASS
        assert examined < 10**6


@st.composite
def twin_rich_case(draw, sizes):
    """(graph, f, mode) with the graph drawn from a twin-rich family."""
    n = draw(sizes)
    family = draw(st.sampled_from(TWIN_RICH_FAMILIES))
    g = family(n, random.Random(draw(st.integers(0, 2**32 - 1))))
    return g, draw(st.integers(0, 2)), draw(st.sampled_from(["sync", "async"]))


class TestTwinCut:
    """The twin cut may skip only partitions with an equally violating one
    earlier, so verdict and first witness match searches without it."""

    @pytest.mark.parametrize(
        "n, edges, expect",
        [
            (4, [(u, v) for u in range(4) for v in range(4) if u != v], [0, 1, 2, 4]),
            (2, [(0, 1)], [0, 0]),  # the swap would reverse the edge
            (3, [(0, 2), (1, 2)], [0, 1, 0]),
            (4, [(0, 2), (2, 0), (1, 3), (3, 1)], [0, 0, 1, 2]),  # classes {0, 2}, {1, 3}
            (3, [(0, 1), (1, 0), (0, 2), (1, 2), (2, 1)], [0, 0, 0]),  # 0->2 one way
        ],
    )
    def test_twin_predecessors(self, n, edges, expect):
        g = Digraph(n, edges)
        assert _kernels._twin_predecessors(n, g.in_masks(), g.out_masks()) == expect
        assert naive_twin_predecessors(g) == expect

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        twin_rich_case(st.integers(2, 12)).map(lambda case: case[0]),
        st.builds(
            lambda n, p, seed: random_digraph(n, p, random.Random(seed)),
            st.integers(1, 9), st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2**32 - 1),
        ),
    ))
    def test_twin_predecessors_match_pairwise_definition(self, g):
        # The two hashed signatures find the classes the pair tests find.
        assert _kernels._twin_predecessors(g.n, g.in_masks(), g.out_masks()) == naive_twin_predecessors(g)

    @settings(max_examples=200, deadline=None)
    @given(twin_rich_case(st.integers(2, 7)))
    def test_matches_naive_oracle(self, case):
        g, f, mode = case
        report = check_partition_condition(g, f, mode)
        expect = naive_violating_partition(g, f, threshold(f, mode))
        assert report.verdict == ("pass" if expect is None else "fail")
        assert report.witness == expect

    @settings(max_examples=100, deadline=None)
    @given(twin_rich_case(st.integers(8, 11)))
    def test_matches_reference_search(self, case):
        g, f, mode = case
        args = (g.n, g.in_masks(), f, threshold(f, mode), 10**9)
        status, examined, witness = _kernels.violating_partition(*args)
        ref_status, ref_examined, ref_witness = reference_violating_partition(*args)
        assert (status, witness) == (ref_status, ref_witness)
        assert examined <= ref_examined

    @pytest.mark.parametrize("n", [8, 10, 12])
    @pytest.mark.parametrize("f", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_complete_graphs_match_reference_search(self, n, f, mode):
        args = (n, complete(n).in_masks(), f, threshold(f, mode), 10**9)
        status, _, witness = _kernels.violating_partition(*args)
        ref_status, _, ref_witness = reference_violating_partition(*args)
        assert (status, witness) == (ref_status, ref_witness)

    @pytest.mark.parametrize("n, f", [(16, 3), (20, 3), (24, 4)])
    def test_complete_graphs_pass_async_within_default_budget(self, n, f):
        # Without the twin cut each of these exceeds the 5 M-node budget.
        report = check_partition_condition(complete(n), f, "async")
        assert report.verdict == "pass"
        assert report.budget == DEFAULT_PARTITION_BUDGET
        assert report.examined < 10_000


def search_parts(n: int, in_masks: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """The out-masks and twin predecessors that _kernels._search takes."""
    out_masks = tuple(sum(1 << v for v in range(n) if in_masks[v] >> u & 1) for u in range(n))
    return out_masks, _kernels._twin_predecessors(n, in_masks, out_masks)


def unscreened(n: int, in_masks: tuple[int, ...], f: int, r: int, budget: int):
    """The kernel's search over every fault set, without the screen."""
    out_masks, pred = search_parts(n, in_masks)
    return _kernels._search(n, in_masks, out_masks, pred, _kernels._fault_masks(n, f, pred), r, budget)


def screen(n: int, in_masks: tuple[int, ...], f: int, r: int, budget: int):
    """The fault-free screen alone: the search with F empty at r + f."""
    out_masks, pred = search_parts(n, in_masks)
    return _kernels._search(n, in_masks, out_masks, pred, [0], r + f, budget)


@st.composite
def screen_case(draw, sizes):
    """(graph, f, mode) with the graph dense random, where the screen
    passes often, or from a twin-rich family."""
    n = draw(sizes)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = random_digraph(n, draw(st.sampled_from([0.5, 0.7, 0.85, 0.95, 1.0])), rng)
    else:
        g = draw(st.sampled_from(TWIN_RICH_FAMILIES))(n, rng)
    return g, draw(st.integers(0, 2)), draw(st.sampled_from(["sync", "async"]))


class TestFaultFreeScreen:
    """For f >= 1 the kernel first searches F = {} at threshold r + f.  A
    pass there is the answer; any other result gives way to the search over
    every fault set, returned unchanged."""

    @settings(max_examples=300, deadline=None)
    @given(screen_case(st.integers(2, 7)))
    def test_matches_naive_oracle(self, case):
        g, f, mode = case
        report = check_partition_condition(g, f, mode)
        expect = naive_violating_partition(g, f, threshold(f, mode))
        assert report.verdict == ("pass" if expect is None else "fail")
        assert report.witness == expect

    @settings(max_examples=60, deadline=None)
    @given(screen_case(st.integers(8, 9)))
    def test_matches_reference_search(self, case):
        g, f, mode = case
        args = (g.n, g.in_masks(), f, threshold(f, mode), 10**9)
        status, _, witness = _kernels.violating_partition(*args)
        ref_status, _, ref_witness = reference_violating_partition(*args)
        assert (status, witness) == (ref_status, ref_witness)

    @settings(max_examples=300, deadline=None)
    @given(screen_case(st.integers(2, 9)), st.sampled_from([0, 1, 10, 100, 10**9]))
    def test_only_screen_passes_differ(self, case, budget):
        g, f, mode = case
        args = (g.n, g.in_masks(), f, threshold(f, mode), budget)
        got = _kernels.violating_partition(*args)
        screened = screen(*args)
        if f and screened[0] == _kernels.PASS:
            assert got == screened
        else:
            assert got == unscreened(*args)

    @settings(max_examples=200, deadline=None)
    @given(screen_case(st.integers(2, 9)))
    def test_no_fault_is_the_unscreened_search(self, case):
        g, _, mode = case
        args = (g.n, g.in_masks(), 0, threshold(0, mode), 10**9)
        assert _kernels.violating_partition(*args) == unscreened(*args)

    # (generate_graph kind, params, seed, f, mode, (status, examined,
    # witness) of the search over every fault set, without the screen).
    # K6 and K12 pass after a failed screen; K7 passes at the root either
    # way, since no fault set leaves room for two sides of the least size.
    PARENT_REPORTS = [
        ("counterexample-k5", {}, 0, 1, "async", ("fail", 12, (1, 6, 0, 24))),
        ("complete", {"n": 9}, 0, 2, "async", ("fail", 26, (1, 30, 0, 480))),
        ("complete", {"n": 10}, 0, 2, "async", ("fail", 26, (3, 60, 0, 960))),
        ("random-uniform", {"n": 10, "p": 0.6}, 1, 2, "sync", ("fail", 3051, (5, 506, 0, 512))),
        ("random-uniform", {"n": 10, "p": 0.6}, 9, 1, "async", ("fail", 395, (32, 65, 0, 926))),
        ("random-uniform", {"n": 10, "p": 0.6}, 14, 2, "sync", ("fail", 4482, (66, 685, 0, 272))),
        ("complete", {"n": 6}, 0, 1, "async", ("pass", 0, None)),
        ("complete", {"n": 12}, 0, 2, "async", ("pass", 0, None)),
        ("complete", {"n": 7}, 0, 1, "async", ("pass", 0, None)),
    ]

    @pytest.mark.parametrize("kind, params, seed, f, mode, parent", PARENT_REPORTS)
    def test_reports_match_the_parent(self, kind, params, seed, f, mode, parent):
        g = generate_graph(kind, params, seed)
        args = (g.n, g.in_masks(), f, threshold(f, mode), 10**9)
        assert unscreened(*args) == parent
        got = _kernels.violating_partition(*args)
        if screen(*args)[0] == _kernels.PASS:
            assert got == screen(*args)
            assert got[0] == parent[0] == _kernels.PASS
            assert got[1] <= parent[1]
        else:
            assert got == parent

    @pytest.mark.parametrize(
        "graph, f, thresholds",
        [
            # Every in-degree is 1 < r + f = 4: no screen.
            (generate_graph("cycle", {"n": 6}), 1, [3]),
            # In-degree 5 >= 4: K6's screen runs and fails, K7's passes.
            (complete(6), 1, [4, 3]),
            (complete(7), 1, [4]),
            # f = 0: the one search is the screen, failing on two
            # disjoint K3s as well as passing on K6.
            (complete(6), 0, [1]),
            (Digraph(6, [(u, v) for u in range(6) for v in range(6) if u != v and u // 3 == v // 3]), 0, [1]),
        ],
        ids=["cycle6-f1", "K6-f1", "K7-f1", "K6-f0", "two-K3-f0"],
    )
    def test_searches_run(self, monkeypatch, graph, f, thresholds):
        calls = self.count_searches(monkeypatch)
        args = (graph.n, graph.in_masks(), f, threshold(f, "async"), 10**9)
        got = _kernels.violating_partition(*args)
        assert calls == thresholds
        if len(calls) == 1 and f:
            assert got == screen(*args)
        else:
            assert got == unscreened(*args)

    def test_screen_runs_only_above_the_in_degree_floor(self, monkeypatch):
        # Below the floor the screen must fail, so it is skipped and the
        # search over every fault set gives the report.
        calls = self.count_searches(monkeypatch)
        rng = random.Random(24)
        seen = {"below": 0, "screen passed": 0, "screen failed": 0}
        for _ in range(300):
            n = rng.randrange(2, 9)
            masks = random_masks(rng, n, rng.choice([0.3, 0.6, 0.8, 1.0]))
            f = rng.randrange(0, 3)
            r = rng.choice([f + 1, 2 * f + 1])
            calls.clear()
            got = _kernels.violating_partition(n, masks, f, r, 10**9)
            searches = list(calls)
            if f and min(m.bit_count() for m in masks) >= r + f:
                if searches == [r + f]:
                    seen["screen passed"] += 1
                    assert got[0] == _kernels.PASS
                    continue
                seen["screen failed"] += 1
                assert searches == [r + f, r]
            else:
                assert searches == [r]
                if f:
                    seen["below"] += 1
                    assert screen(n, masks, f, r, 10**9)[0] == _kernels.FAIL
            assert got == unscreened(n, masks, f, r, 10**9)
        assert all(seen.values()), seen

    @staticmethod
    def count_searches(monkeypatch) -> list[int]:
        """Patch _kernels._search to record the threshold of each call."""
        search = _kernels._search
        calls: list[int] = []

        def counted(*args):
            calls.append(args[5])
            return search(*args)

        monkeypatch.setattr(_kernels, "_search", counted)
        return calls

    def test_decided_instances_stay_decided(self):
        # With the budget set to what the search without the screen needs,
        # the screen may run out, but the search after it still decides.
        rng = random.Random(23)
        exceeded = 0
        for _ in range(150):
            n = rng.randrange(6, 11)
            masks = random_masks(rng, n, rng.choice([0.6, 0.8, 0.9, 1.0]))
            f = rng.randrange(1, 3)
            r = rng.choice([f + 1, 2 * f + 1])
            status, examined, witness = unscreened(n, masks, f, r, 10**9)
            got = _kernels.violating_partition(n, masks, f, r, examined)
            assert got[0] == status and got[2] == witness
            assert got[1] <= examined
            exceeded += screen(n, masks, f, r, examined)[0] == _kernels.BUDGET_EXCEEDED
        assert exceeded  # some screens ran out before the search decided

    def test_random_n20_passes_by_the_screen(self):
        # The screen decides at its root, as the search over every fault
        # set would (the count bound leaves no fault set to search).
        g = generate_graph("random-uniform", {"n": 20, "p": 0.9}, seed=1)
        report = check_partition_condition(g, 2, "async")
        assert (report.verdict, report.examined) == ("pass", 0)
        assert report.examined == screen(g.n, g.in_masks(), 2, 5, DEFAULT_PARTITION_BUDGET)[1]


def partition_masks(partition) -> tuple[int, int, int, int] | None:
    """A Partition as the kernel's (F, L, C, R) bitmasks, or None."""
    if partition is None:
        return None
    sides = (partition.faulty, partition.left, partition.center, partition.right)
    return tuple(sum(1 << v for v in side) for side in sides)


def symmetric_circulant(n: int, k: int) -> Digraph:
    """Node i has in-neighbours i-1, ..., i-k and i+1, ..., i+k mod n."""
    return Digraph(n, {((i + d) % n, i) for i in range(n) for d in range(-k, k + 1) if d})


@st.composite
def threshold_case(draw, sizes):
    """(graph, f, r): a screen_case graph and f, with r one of f + 1, 2f + 1
    and f + 2."""
    g, f, _ = draw(screen_case(sizes))
    return g, f, draw(st.sampled_from([f + 1, 2 * f + 1, f + 2]))


class TestCountCut:
    """_search drops a node when the two sides' least sizes do not fit
    beside the placed C nodes.  A node v of L has fewer than r of its d_v
    surviving in-neighbours outside L, so |L| >= d_v - r + 2; the cut never
    skips a violating partition, so verdicts and first witnesses are those
    of the searches without it, in no more nodes."""

    @settings(max_examples=300, deadline=None)
    @given(threshold_case(st.integers(2, 7)))
    def test_matches_naive_oracle(self, case):
        g, f, r = case
        status, _, witness = _kernels.violating_partition(g.n, g.in_masks(), f, r, 10**9)
        expect = partition_masks(naive_violating_partition(g, f, r))
        assert (status, witness) == (_kernels.PASS if expect is None else _kernels.FAIL, expect)

    @settings(max_examples=60, deadline=None)
    @given(threshold_case(st.integers(8, 10)))
    def test_matches_reference_search(self, case):
        g, f, r = case
        args = (g.n, g.in_masks(), f, r, 10**9)
        status, examined, witness = _kernels.violating_partition(*args)
        ref_status, ref_examined, ref_witness = reference_violating_partition(*args)
        assert (status, witness) == (ref_status, ref_witness)
        assert examined <= ref_examined

    @settings(max_examples=200, deadline=None)
    @given(threshold_case(st.integers(2, 9)), st.data())
    def test_decides_what_the_reference_decides(self, case, data):
        # Under any budget a verdict is the full search's, and where the
        # reference search decides, the kernel decides in no more nodes.
        g, f, r = case
        full = reference_violating_partition(g.n, g.in_masks(), f, r, 10**9)
        budget = data.draw(st.integers(0, 2 * full[1] + 1))
        ref = reference_violating_partition(g.n, g.in_masks(), f, r, budget)
        got = _kernels.violating_partition(g.n, g.in_masks(), f, r, budget)
        if got[0] != _kernels.BUDGET_EXCEEDED:
            assert (got[0], got[2]) == (full[0], full[2])
        if ref[0] != _kernels.BUDGET_EXCEEDED:
            assert got[0] != _kernels.BUDGET_EXCEEDED
            assert got[1] <= ref[1]

    # The passing complete-graph rows of benchmarks/bench_kernels.py
    # partition_scaling and its random p = 0.9 rows with n = 18 and 20.
    @pytest.mark.parametrize(
        "kind, params, seed, f, examined",
        [("complete", {"n": n}, 0, f, 0) for n, f in [(12, 2), (16, 2), (16, 3), (20, 2), (20, 3), (24, 2), (24, 3), (24, 4)]]
        + [
            ("random-uniform", {"n": 18, "p": 0.9}, 18, 2, 0),
            ("random-uniform", {"n": 20, "p": 0.9}, 1, 2, 0),
        ],
    )
    def test_dense_rows_pass_within_a_few_nodes(self, kind, params, seed, f, examined):
        report = check_partition_condition(generate_graph(kind, params, seed), f, "async")
        assert (report.verdict, report.examined) == ("pass", examined)

    @pytest.mark.parametrize(
        "graph, f, mode",
        [
            (generate_graph("random-uniform", {"n": 40, "p": 0.9}, seed=1), 3, "async"),
            (generate_graph("random-uniform", {"n": 60, "p": 0.9}, seed=1), 4, "async"),
            (symmetric_circulant(40, 12), 3, "sync"),
        ],
        ids=["random-n40-f3-async", "random-n60-f4-async", "symmetric-circulant-40-12-f3-sync"],
    )
    def test_large_rows_pass_within_the_default_budget(self, graph, f, mode):
        # Without the count cut each runs out of the default budget.
        report = check_partition_condition(graph, f, mode)
        assert report.verdict == "pass"
        assert report.budget == DEFAULT_PARTITION_BUDGET


def two_cliques_and_centre(centre: int) -> Digraph:
    """Two disjoint K3s (nodes 0-2 and 3-5) and `centre` more nodes, each
    fed by nodes 0 and 3.  At f = 0, r = 1 every need is 3, and the one
    violating partition has L = {0, 1, 2}, R = {3, 4, 5} and the rest in C:
    both sides are of the least size the count bound allows."""
    edges = [(u, v) for side in (range(3), range(3, 6)) for u in side for v in side if u != v]
    edges += [(u, v) for v in range(6, 6 + centre) for u in (0, 3)]
    return Digraph(6 + centre, edges)


class TestCountBound:
    """At the root of each fault set _search counts h(k), the survivors of
    need at most k.  A side of a violating partition holds each member's
    need, so it has at least k* = min{k >= 1 : h(k) >= k} nodes, and sides
    of sizes a <= b need h(b) >= a + b; a fault set with no such b is
    skipped, and both empty sides start at need k*."""

    @settings(max_examples=150, deadline=None)
    @given(threshold_case(st.integers(2, 6)))
    def test_skipped_fault_sets_hold_no_violation(self, case):
        # A fault set searched alone that passes in 0 nodes was skipped at
        # its root (an unskipped root with two or more survivors places a
        # node), so no violating partition has that fault set.
        g, f, r = case
        out_masks, no_twins = g.out_masks(), [0] * g.n
        for f_mask in _kernels._fault_masks(g.n, f, no_twins):
            fault = tuple(_kernels._bits(f_mask))
            if g.n - len(fault) < 2:
                continue
            got = _kernels._search(g.n, g.in_masks(), out_masks, no_twins, [f_mask], r, 10**9)
            if got == (_kernels.PASS, 0, None):
                assert naive_violation_with(g, fault, r) is None

    @pytest.mark.parametrize("centre", [0, 1, 2, 3])
    def test_sides_of_the_least_size_are_found(self, centre):
        # h(3) = 6 + centre, k* = 3: the root test holds with equality at
        # centre 0, and the centre fills the room two sides of size k*
        # leave.
        g = two_cliques_and_centre(centre)
        status, _, witness = _kernels.violating_partition(g.n, g.in_masks(), 0, 1, 10**9)
        assert (status, witness) == (_kernels.FAIL, (0, 0b111, ((1 << centre) - 1) << 6, 0b111000))
        assert witness == partition_masks(naive_violating_partition(g, 0, 1))

    def test_dense_row_passes_at_the_root(self):
        # Random n=16 p=0.9 (seed 16) at f=2 async, a partition_scaling row:
        # the bound skips the screen and every fault set at the root.
        # Without it the search visits 626 nodes.
        g = generate_graph("random-uniform", {"n": 16, "p": 0.9}, seed=16)
        args = (g.n, g.in_masks(), 2, 5, 10**9)
        assert _kernels.violating_partition(*args) == (_kernels.PASS, 0, None)
        assert unscreened(*args) == (_kernels.PASS, 0, None)


class TestGoldenReports:
    """SHA-256 of the kernels' (status, examined, witness) reports over
    fixed seeded pools of random graphs, so that any change to a report,
    `examined` included, shows across commits.  A kernel change that
    alters reports on purpose re-pins them and says which reports moved."""

    PARTITION = "7b329f80fc128d51ac79f129649b827249f061e001a746ac0e515c013504638e"
    REDUCTION = "cefda418e04a831ef88923e55bdf6657ce5d4ed6bc5ecb439216513e44eb4917"

    @staticmethod
    def digest(reports: list) -> str:
        return hashlib.sha256(repr(reports).encode()).hexdigest()

    def test_partition_reports(self):
        # 240 searches: n = 6..10, four densities, f = 1, 2, thresholds
        # f + 1 and 2f + 1, three graphs each.
        rng = random.Random(2024)
        reports = [
            _kernels.violating_partition(n, random_masks(rng, n, p), f, f + 1 if sync else 2 * f + 1, 10**9)
            for n, p, f, sync, _ in itertools.product(
                range(6, 11), (0.5, 0.7, 0.85, 0.95), (1, 2), (True, False), range(3)
            )
        ]
        assert sum(status == _kernels.FAIL for status, _, _ in reports) == 160
        assert self.digest(reports) == self.PARTITION

    def test_reduction_reports(self):
        # 144 sweeps: n = 4..6, four densities, f = 1, 2, min_source_size
        # 1 and f + 1, three graphs each.
        rng = random.Random(2025)
        reports = [
            _kernels.failing_reduction(n, random_masks(rng, n, p), f, f + 1 if by_size else 1, 10**9)
            for n, p, f, by_size, _ in itertools.product(
                range(4, 7), (0.5, 0.7, 0.85, 0.95), (1, 2), (False, True), range(3)
            )
        ]
        assert sum(status == _kernels.FAIL for status, _, _ in reports) == 114
        assert self.digest(reports) == self.REDUCTION


class TestFaultMasks:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_filtered_combinations(self, data):
        n = data.draw(st.integers(0, 9))
        f = data.draw(st.integers(0, 4))
        # pred[v]: any set of earlier nodes, or a single one as twins give.
        pred = [
            data.draw(st.integers(0, (1 << v) - 1) | st.sampled_from([0] + [1 << u for u in range(v)]))
            for v in range(n)
        ]
        expect = [m for m in all_fault_masks(n, f) if not any(pred[v] & ~m for v in range(n) if m >> v & 1)]
        assert _kernels._fault_masks(n, f, pred) == expect

    def test_no_predecessors_give_every_fault_set(self):
        assert _kernels._fault_masks(6, 3, [0] * 6) == all_fault_masks(6, 3)

    def test_one_twin_class_gives_its_prefixes(self):
        masks = complete(24).in_masks()
        out_masks = list(masks)  # K24 is symmetric
        pred = _kernels._twin_predecessors(24, masks, out_masks)
        assert _kernels._fault_masks(24, 4, pred) == [0b0, 0b1, 0b11, 0b111, 0b1111]


class TestReductionSweep:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, 2 ** (n * (n - 1)) - 1), st.integers(1, n))
        ),
        st.integers(0, 2),
        st.integers(0, 300),
    )
    def test_status_examined_and_witness_match_literal_sweep(self, graph, f, budget):
        n, bits, mss = graph
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        g = Digraph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])
        status, examined, witness = _kernels.failing_reduction(n, g.in_masks(), f, mss, budget)
        expect_status, expect_examined, expect_witness = naive_failing_reduction(g, f, mss, budget)
        assert (status, examined) == (expect_status, expect_examined)
        if expect_witness is None:
            assert witness is None
        else:
            f_mask, kept_in = witness
            fault, kept_sets = expect_witness
            assert {v for v in range(n) if f_mask >> v & 1} == fault
            assert {v: {u for u in range(n) if m >> u & 1} for v, m in kept_in.items()} == kept_sets

    # naive_failing_reduction(complete(6), 2, 3, 10**9), pinned because the
    # literal sweep of its 1,046,657 reductions takes about 90 s.
    K6_F2_SOURCE_SIZE = ("fail", 1_046_657, ({0, 1}, {2: {5}, 3: {5}, 4: {5}, 5: {4}}))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_source_size_fails_at_the_counting_bound(self, n):
        # K_n at f=2 fails source-size (f + 1 = 3 roots) in a leaf batch
        # where z, the last survivor, reaches every survivor and keeps one
        # in-edge: counting gives 1 + 1 = 2 roots, one short of 3, so the
        # batch must be scored, not counted.
        g = complete(n)
        status, examined, (f_mask, kept_in) = _kernels.failing_reduction(n, g.in_masks(), 2, 3, 10**9)
        if n < 6:
            expect = naive_failing_reduction(g, 2, 3, 10**9)
        else:
            expect = self.K6_F2_SOURCE_SIZE
        assert status == expect[0] == _kernels.FAIL
        assert examined == expect[1]
        fault, kept_sets = expect[2]
        assert {v for v in range(n) if f_mask >> v & 1} == fault
        assert {v: set(_kernels._bits(m)) for v, m in kept_in.items()} == kept_sets
        z = max(kept_in)
        assert kept_in[z].bit_count() == 1
        assert _kernels.source_components(kept_in) == [kept_in[z] | 1 << z]

    def test_tiny_budget_is_exceeded_deterministically(self):
        masks = tuple(0b111111 ^ (1 << v) for v in range(6))  # K6 passes with f=1
        status, examined, _ = _kernels.failing_reduction(6, masks, 1, 1, 10**9)
        assert (status, examined) == (_kernels.PASS, 5**6 + 6 * 4**5)
        for budget in (0, 1, 4, examined - 1):
            assert _kernels.failing_reduction(6, masks, 1, 1, budget) == (
                _kernels.BUDGET_EXCEEDED,
                budget + 1,
                None,
            )
        assert _kernels.failing_reduction(6, masks, 1, 1, examined) == (_kernels.PASS, examined, None)


def _full_family_ok(n: int, in_masks: tuple[int, ...], f: int, min_size: int) -> bool:
    def root_count(survivors, kept_in):
        out = {v: set() for v in survivors}
        for v in survivors:
            for u in survivors:
                if kept_in[v] >> u & 1:
                    out[u].add(v)
        count = 0
        for v in survivors:
            seen, stack = {v}, [v]
            while stack:
                for y in out[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen == set(survivors):
                count += 1
        return count

    for k in range(min(f, n - 1) + 1):
        for fault in itertools.combinations(range(n), k):
            f_mask = sum(1 << v for v in fault)
            survivors = [v for v in range(n) if v not in fault]
            options = []
            for v in survivors:
                base = in_masks[v] & ~f_mask
                nbrs = [u for u in range(n) if base >> u & 1]
                opts = []
                for w in range(min(f, len(nbrs)) + 1):
                    for removal in itertools.combinations(nbrs, w):
                        opts.append(base & ~sum(1 << u for u in removal))
                options.append(opts)
            for combo in itertools.product(*options):
                if root_count(survivors, dict(zip(survivors, combo))) < min_size:
                    return False
    return True
