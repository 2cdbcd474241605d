from __future__ import annotations

import random

import pytest

from byztrim.digraph import Digraph


def complete(n: int) -> Digraph:
    return Digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def random_digraph(n: int, p: float, rng: random.Random) -> Digraph:
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return Digraph(n, edges)


# Twin-rich families: nodes that can be swapped without changing the graph
# are common in each, so they exercise the partition search's twin cut.


def complete_minus_pairs(n: int, rng: random.Random) -> Digraph:
    """K_n without a random set of symmetric edge pairs {u->v, v->u}."""
    q = rng.choice([0.1, 0.25, 0.5])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= q:
                edges += [(i, j), (j, i)]
    return Digraph(n, edges)


def two_cluster(n: int, rng: random.Random) -> Digraph:
    """Two complete clusters with a few random cross edges, node ids shuffled."""
    size = rng.randint(1, n - 1)
    cross = rng.choice([0.0, 0.1, 0.3])
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [
        (perm[u], perm[v])
        for u in range(n)
        for v in range(n)
        if u != v and ((u < size) == (v < size) or rng.random() < cross)
    ]
    return Digraph(n, edges)


def blown_up(n: int, rng: random.Random) -> Digraph:
    """A random digraph on k classes, blown up: the edges from one class to
    another are all there or all absent, and node ids are shuffled.  Inside
    a class, edges form a clique, an independent set or a chain u->v for
    u < v; chain neighbours differ only in the direction of their edge, so
    they are not twins."""
    k = rng.randint(1, n)
    cls = [rng.randrange(k) for _ in range(n)]
    inside = [rng.choice(("clique", "none", "chain")) for _ in range(k)]
    link = [[rng.random() < 0.6 for _ in range(k)] for _ in range(k)]

    def edge(u: int, v: int) -> bool:
        if cls[u] != cls[v]:
            return link[cls[u]][cls[v]]
        return inside[cls[u]] == "clique" or (inside[cls[u]] == "chain" and u < v)

    perm = list(range(n))
    rng.shuffle(perm)
    return Digraph(n, [(perm[u], perm[v]) for u in range(n) for v in range(n) if u != v and edge(u, v)])


TWIN_RICH_FAMILIES = (complete_minus_pairs, two_cluster, blown_up)


@pytest.fixture
def k4() -> Digraph:
    return complete(4)


@pytest.fixture
def k5() -> Digraph:
    return complete(5)


@pytest.fixture
def k6() -> Digraph:
    return complete(6)


@pytest.fixture
def cycle3() -> Digraph:
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def chain3() -> Digraph:
    return Digraph(3, [(0, 1), (1, 2)])
