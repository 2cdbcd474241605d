from __future__ import annotations

import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from byztrim._kernels import _bits, source_components
from byztrim.conditions import check_partition_condition
from byztrim.digraph import Digraph, GraphError, parse_graph
from byztrim.harness import generate_graph
from byztrim.protocol import compute_alpha
from byztrim.simnet import SchedulerSpec, SimConfig, run_simulation
from conftest import complete, random_digraph
from oracles import naive_digraph, nx_source_components


def sources_of(g: Digraph) -> list[frozenset[int]]:
    """Source components of the whole graph by the bitmask kernel."""
    return [frozenset(_bits(m)) for m in source_components(dict(enumerate(g.in_masks())))]


class TestParseGraph:
    def test_directed_cycle(self):
        g = parse_graph('{"n":3,"edges":[[0,1],[1,2],[2,0]]}')
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 0)})
        assert g.in_nbrs[0] == {2}
        assert g.out_nbrs[0] == {1}

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            parse_graph('{"n":2,"edges":[[0,0]]}')

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            parse_graph('{"n":2,"edges":[[0,1],[0,1]]}')

    def test_out_of_range_node(self):
        with pytest.raises(GraphError, match="out of range"):
            parse_graph('{"n":2,"edges":[[0,2]]}')

    def test_n_must_be_positive(self):
        with pytest.raises(GraphError):
            parse_graph('{"n":0,"edges":[]}')

    def test_invalid_json(self):
        with pytest.raises(GraphError, match="invalid JSON"):
            parse_graph("{nope")

    def test_malformed_edge(self):
        with pytest.raises(GraphError, match="malformed edge"):
            parse_graph('{"n":2,"edges":[[0]]}')

    def test_fault_bound_metadata(self):
        g = parse_graph('{"n":2,"edges":[[0,1]],"f":1}')
        assert g.f_hint == 1
        assert g.to_dict()["f"] == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "edges": [[True, 0]]},
            {"n": 3, "edges": [[0, False]]},
        ],
    )
    def test_booleans_rejected(self, doc):
        with pytest.raises(GraphError, match="integer"):
            parse_graph(json.dumps(doc))

    def test_boolean_arguments_rejected(self):
        with pytest.raises(GraphError, match="node count"):
            Digraph(True, [])
        with pytest.raises(GraphError, match="endpoints"):
            Digraph(3, [(1, True)])

    @pytest.mark.parametrize("edge", [(0, 1, 2), 5])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        with pytest.raises(GraphError, match=re.escape(f"edge must be a pair of node ids, got {edge!r}")):
            Digraph(3, [edge])

    def test_unknown_field_rejected(self):
        with pytest.raises(GraphError, match="unknown field\\(s\\) 'edge'"):
            parse_graph('{"n": 6, "edge": [[0, 1]]}')

    def test_roundtrip(self):
        g = complete(4)
        assert parse_graph(json.dumps(g.to_dict())) == g

    def test_neighbour_consistency(self):
        g = random_digraph(6, 0.5, random.Random(3))
        for (i, j) in g.edges:
            assert j in g.out_nbrs[i]
            assert i in g.in_nbrs[j]


# Edge entries for the constructor oracle: edges of a graph on up to 6
# nodes (so repeats are common) and every kind of invalid entry.
_NODE = st.integers(0, 5)
_VALID_ENTRY = st.tuples(_NODE, _NODE).filter(lambda e: e[0] != e[1])
_BAD_ENTRY = st.one_of(
    _NODE.map(lambda v: (v, v)),  # self-loop
    st.tuples(st.integers(-2, 8), st.integers(-2, 8)),  # possibly out of range
    st.tuples(st.sampled_from([True, 1.0, "1", None]), _NODE),
    st.tuples(_NODE, st.sampled_from([False, 2.0, "0"])),
    st.sampled_from([(0,), (0, 1, 2), (), 5, None, "01"]),  # not a pair
)


def _entries(data) -> list:
    """Mostly edges, some repeated, with up to two invalid entries in random
    places; the pairs are all tuples, all lists or mixed."""
    entries = data.draw(st.lists(_VALID_ENTRY, max_size=14))
    if entries and data.draw(st.booleans()):
        entries.insert(data.draw(st.integers(0, len(entries))), data.draw(st.sampled_from(entries)))
    for _ in range(max(0, data.draw(st.integers(-2, 2)))):
        entries.insert(data.draw(st.integers(0, len(entries))), data.draw(_BAD_ENTRY))
    kind = data.draw(st.sampled_from([tuple, list, None]))
    return [
        (kind or data.draw(st.sampled_from([tuple, list])))(e) if isinstance(e, tuple) else e
        for e in entries
    ]


class TestConstructorOracle:
    """Digraph against naive_digraph, the constructor that checks each
    entry against a set of the ones before it and builds every view."""

    @staticmethod
    def assert_matches(g: Digraph, expect) -> None:
        edges, ins, outs = expect
        assert g.edges == edges
        assert g.in_nbrs == ins and g.out_nbrs == outs
        assert g.in_masks() == tuple(sum(1 << u for u in nbrs) for nbrs in ins)
        assert g.out_masks() == tuple(sum(1 << u for u in nbrs) for nbrs in outs)
        same = Digraph(g.n, sorted(edges, reverse=True))
        assert g == same and hash(g) == hash(same) == hash((g.n, edges))
        assert g.to_dict() == {"n": g.n, "edges": [list(e) for e in sorted(edges)]}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_naive_constructor(self, data):
        n = data.draw(st.integers(1, 6) if data.draw(st.integers(0, 9)) else st.sampled_from([0, -1, True, 2.0]))
        entries = _entries(data)
        expect = naive_digraph(n, entries)
        try:
            got = Digraph(n, iter(entries))
        except GraphError as exc:
            assert str(exc) == expect
        else:
            assert not isinstance(expect, str), expect
            self.assert_matches(got, expect)
        # A document whose entries are all two-element lists reaches the
        # constructor as it is, so parse_graph accepts and rejects alike.
        if all(isinstance(e, list) and len(e) == 2 for e in entries):
            try:
                parsed = parse_graph(json.dumps({"n": n, "edges": entries}))
            except GraphError as exc:
                assert str(exc) == expect
            else:
                self.assert_matches(parsed, expect)

    def test_repeat_before_a_bad_entry_is_reported_first(self):
        # The entries are checked in order: the repeat of (0,1) comes before
        # the out-of-range (0,5), so it decides the error.
        for edges in ([(0, 1), (0, 1), (0, 5)], [[0, 1], [1, 2], [0, 1], [2, 2]]):
            with pytest.raises(GraphError) as exc:
                Digraph(3, edges)
            assert str(exc.value) == "duplicate edge (0,1)" == naive_digraph(3, edges)
        with pytest.raises(GraphError, match=re.escape("edge (0, 5) out of range for n=3")):
            Digraph(3, [(0, 1), (1, 0), (0, 5), (0, 1)])

    def test_checks_never_build_the_neighbour_sets(self):
        g = parse_graph(json.dumps(generate_graph("random-uniform", {"n": 7, "p": 0.8}, seed=4).to_dict()))
        for mode in ("sync", "async"):
            check_partition_condition(g, 1, mode)
        assert g._in_nbrs is None and g._out_nbrs is None


class TestSparseGraph:
    def test_cycle_run_stays_small(self):
        # Parsing a 20,000-node cycle, running it for 2 rounds and computing
        # alpha builds the neighbour sets only: bitmasks, whose n^2 bits the
        # condition checks read, would take about 50 MB more.
        n = 20_000
        doc = json.dumps(generate_graph("cycle", {"n": n}).to_dict())
        tracemalloc.start()
        try:
            g = parse_graph(doc)
            trace = run_simulation(
                SimConfig(
                    graph=g, f=0, fault_set=frozenset(), inputs=tuple(float(v % 7) for v in range(n)),
                    scheduler=SchedulerSpec("random", {}), max_rounds=2,
                )
            )
            alpha = compute_alpha(g, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.common_rounds == 2 and alpha == 1 / 2
        assert peak < 40 * 2**20, peak / 2**20


class TestCondensation:
    def test_cycle_is_one_component(self, cycle3):
        assert sources_of(cycle3) == [frozenset({0, 1, 2})]

    def test_chain_has_singletons(self, chain3):
        assert sources_of(chain3) == [frozenset({0})]
        assert sources_of(Digraph(3, [(2, 1), (1, 0)])) == [frozenset({2})]

    def test_two_two_cycles_joined(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
        assert sources_of(g) == [frozenset({0, 1})]

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_digraph(rng.randrange(1, 9), rng.choice([0.2, 0.4, 0.7]), rng)
            sources = sources_of(g)
            assert sources == nx_source_components(g.nodes, g.edges)
            assert sources  # a finite DAG always has a source

    def test_acyclic_sources_are_the_unreached_nodes(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(2, 8)
            order = rng.sample(range(n), n)
            g = Digraph(n, [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
            assert sources_of(g) == [frozenset({v}) for v in g.nodes if not g.in_nbrs[v]]

    def test_only_the_given_nodes_count(self):
        # Nodes 0 and 2 (a fault set) are absent; 1 <-> 3 is the one source.
        assert source_components({1: 0b1000, 3: 0b0010, 4: 0b0010}) == [0b1010]


class TestSourceComponents:
    def test_single_component(self, cycle3):
        assert len(sources_of(cycle3)) == 1

    def test_chain_source_is_head(self, chain3):
        (src,) = sources_of(chain3)
        assert src == frozenset({0})

    def test_disjoint_cycles_are_both_sources(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert sources_of(g) == [frozenset({0, 1}), frozenset({2, 3})]
