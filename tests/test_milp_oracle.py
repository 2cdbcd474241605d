"""The partition search against the MILP verdict oracle at n = 9..16, past
the reach of the naive enumeration.

Skipped as a whole when scipy is not installed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from byztrim.conditions import check_partition_condition, threshold
from conftest import TWIN_RICH_FAMILIES, complete, random_digraph
from oracles import milp_partition_verdict, naive_reaches

pytest.importorskip("scipy", reason="the MILP oracle needs scipy.optimize.milp")


def random_family(n: int, rng: random.Random):
    return random_digraph(n, rng.choice([0.6, 0.8, 0.9]), rng)


@st.composite
def large_case(draw):
    """(graph, f, mode): n = 9..16, twin-rich or uniformly random."""
    n = draw(st.integers(9, 16))
    family = draw(st.sampled_from(TWIN_RICH_FAMILIES + (random_family,)))
    g = family(n, random.Random(draw(st.integers(0, 2**32 - 1))))
    return g, draw(st.integers(1, 2)), draw(st.sampled_from(["sync", "async"]))


def assert_violates(g, f: int, r: int, witness) -> None:
    """Re-check a witness from the definition of a violating partition."""
    witness.check_covers(g)
    assert len(witness.faulty) <= f
    assert witness.left and witness.right
    assert not naive_reaches(g, witness.center | witness.right, witness.left, r)
    assert not naive_reaches(g, witness.left | witness.center, witness.right, r)


class TestMilpOracle:
    @settings(max_examples=15, deadline=None)
    @given(large_case())
    def test_verdict_matches_milp(self, case):
        g, f, mode = case
        r = threshold(f, mode)
        report = check_partition_condition(g, f, mode)
        assert report.verdict == milp_partition_verdict(g, f, r)
        if report.witness is not None:
            assert_violates(g, f, r, report.witness)

    @pytest.mark.parametrize("n, f", [(16, 3), (12, 3)])
    def test_complete_graphs(self, n, f):
        # K16 passes at f=3 (n > 5f); K12 fails (n <= 5f).
        g = complete(n)
        report = check_partition_condition(g, f, "async")
        assert report.verdict == milp_partition_verdict(g, f, 2 * f + 1)
        if report.witness is not None:
            assert_violates(g, f, 2 * f + 1, report.witness)
