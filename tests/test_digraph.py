from __future__ import annotations

import json
import random

import pytest

from byztrim.digraph import (
    Digraph,
    GraphError,
    condensation,
    parse_graph,
    source_components,
)
from conftest import complete, random_digraph
from oracles import nx_condense


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
        c = condensation(cycle3)
        assert c.components == (frozenset({0, 1, 2}),)
        assert c.dag_edges == frozenset()

    def test_chain_has_singletons(self, chain3):
        c = condensation(chain3)
        assert c.components == (frozenset({0}), frozenset({1}), frozenset({2}))
        assert c.dag_edges == frozenset({(0, 1), (1, 2)})

    def test_two_two_cycles_joined(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
        c = condensation(g)
        assert c.components == (frozenset({0, 1}), frozenset({2, 3}))
        assert c.dag_edges == frozenset({(0, 1)})

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_digraph(rng.randrange(1, 9), rng.choice([0.2, 0.4, 0.7]), rng)
            c = condensation(g)
            comps, dag = nx_condense(g)
            assert list(c.components) == comps
            assert set(c.dag_edges) == dag
            assert source_components(c)  # a finite DAG always has a source

    def test_idempotent_on_acyclic_singletons(self):
        # Condensing a condensation DAG (as a plain graph) changes nothing.
        rng = random.Random(5)
        for _ in range(20):
            g = random_digraph(rng.randrange(2, 8), 0.5, rng)
            c = condensation(g)
            dag = Digraph(len(c.components), sorted(c.dag_edges))
            again = condensation(dag)
            assert again.components == tuple(frozenset({i}) for i in range(dag.n))
            assert again.dag_edges == frozenset(dag.edges)


class TestSourceComponents:
    def test_single_component(self, cycle3):
        assert source_components(condensation(cycle3)) == {0}

    def test_chain_source_is_head(self, chain3):
        c = condensation(chain3)
        (src,) = source_components(c)
        assert c.components[src] == frozenset({0})

    def test_disjoint_cycles_are_both_sources(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert source_components(condensation(g)) == {0, 1}
