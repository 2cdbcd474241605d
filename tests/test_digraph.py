from __future__ import annotations

import json
import random
import re

import pytest

from byztrim._kernels import _bits, source_components
from byztrim.digraph import Digraph, GraphError, parse_graph
from conftest import complete, random_digraph
from oracles import nx_source_components


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
