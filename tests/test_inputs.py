"""Every input boundary gets the same bad values and raises ValueError (the
CLI exits 2): integers are not booleans, reals are finite, and text (trace
CSV cells, CLI numbers) is plain ASCII with no sign but a leading '-'."""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction

import pytest

from byztrim.cli import main
from byztrim.conditions import (
    check_partition_condition,
    check_reduced_graph_condition,
    check_source_component_size,
    quick_degree_checks,
)
from byztrim.digraph import Digraph, parse_graph
from byztrim.harness import generate_graph, verify_contraction
from byztrim.protocol import NodeState, RoundMessage, compute_alpha
from byztrim.simnet import ByzantineSpec, SchedulerSpec, SimConfig, read_trace_csv
from conftest import complete

K6 = complete(6)
CONFIG = SimConfig(
    graph=K6, f=1, fault_set=frozenset({5}), inputs=(0.0,) * 6,
    scheduler=SchedulerSpec("random"), byzantine=ByzantineSpec("silent"),
)


def config(**edit) -> None:
    dataclasses.replace(CONFIG, **edit).validate()


INTEGER_SLOTS = {
    "Digraph n": lambda x: Digraph(x, []),
    "Digraph edge": lambda x: Digraph(3, [(0, x)]),
    "parse_graph n": lambda x: parse_graph({"n": x, "edges": []}),
    "parse_graph f": lambda x: parse_graph({"n": 3, "edges": [], "f": x}),
    "SimConfig f": lambda x: config(f=x),
    "SimConfig seed": lambda x: config(seed=x),
    "SimConfig max_rounds": lambda x: config(max_rounds=x),
    "SimConfig fault_set": lambda x: config(fault_set=frozenset({x})),
    "SimConfig node list": lambda x: config(scheduler=SchedulerSpec("adaptive-delay", {"left": [x]})),
    "check_partition_condition f": lambda x: check_partition_condition(K6, x, "async"),
    "check_reduced_graph_condition f": lambda x: check_reduced_graph_condition(K6, x),
    "check_source_component_size f": lambda x: check_source_component_size(K6, x),
    "quick_degree_checks f": lambda x: quick_degree_checks(K6, x),
    "NodeState node id": lambda x: NodeState(x, 0.0, K6, 1),
    "NodeState f": lambda x: NodeState(0, 0.0, K6, x),
    "compute_alpha f": lambda x: compute_alpha(K6, x),
    "verify_contraction n": lambda x: verify_contraction([1.0], Fraction(1, 3), x, 1),
    "verify_contraction f": lambda x: verify_contraction([1.0], Fraction(1, 3), 6, x),
    "generate_graph n": lambda x: generate_graph("complete", {"n": x}),
    "generate_graph seed": lambda x: generate_graph("random-uniform", {"n": 4, "p": 0.5}, seed=x),
    "RoundMessage sender": lambda x: RoundMessage(x, 0, 0.5),
    "RoundMessage tag": lambda x: RoundMessage(1, x, 0.5),
    "RoundMessage._make sender": lambda x: RoundMessage._make((x, 0, 0.5)),
    "RoundMessage._replace tag": lambda x: RoundMessage(1, 0, 0.5)._replace(tag=x),
}
REAL_SLOTS = {
    "SimConfig input": lambda x: config(inputs=(x,) + (0.0,) * 5),
    "SimConfig epsilon": lambda x: config(epsilon=x),
    "byzantine param": lambda x: config(byzantine=ByzantineSpec("identical-wrong", {"value": x})),
    "generate_graph p": lambda x: generate_graph("random-uniform", {"n": 4, "p": x}),
    "RoundMessage value": lambda x: RoundMessage(1, 0, x),
    "RoundMessage._make value": lambda x: RoundMessage._make((1, 0, x)),
    "RoundMessage._replace value": lambda x: RoundMessage(1, 0, 0.5)._replace(value=x),
    "verify_contraction alpha": lambda x: verify_contraction([1.0], x, 6, 1),
    "verify_contraction spread": lambda x: verify_contraction([1.0, x], Fraction(1, 3), 6, 1),
}
NAN, INF = float("nan"), float("inf")
BAD_INTEGERS = (True, 1.5, 6.0, "1", NAN, INF)
BAD_REALS = (True, "1", NAN, INF, 10**400)
BAD_TEXTS = ("١", "+1", "1_0", " 1")

# (subcommand arguments before the option, option, text rule); the graph
# file never needs to exist, since argparse rejects the number first.
CLI_NUMBERS = (
    (["gen", "--kind", "complete", "--out", "g.json"], "--n", "integer"),
    (["gen", "--kind", "complete", "--n", "5", "--out", "g.json"], "--seed", "integer"),
    (["gen", "--kind", "random-uniform", "--n", "5", "--out", "g.json"], "--p", "decimal"),
    (["check", "g.json", "--mode", "async"], "--f", "integer"),
    (["equiv", "--n", "4", "--f", "1"], "--samples", "integer"),
    (["attack", "g.json", "--f", "1", "--out", "a.csv"], "--rounds", "integer"),
    (["attack", "g.json", "--f", "1", "--rounds", "9", "--out", "a.csv"], "--m", "decimal"),
    (["attack", "g.json", "--f", "1", "--rounds", "9", "--out", "a.csv"], "--M", "decimal"),
)


def csv_cell(column: str):
    def read(text: str) -> None:
        cells = {"round": "0", "nodeId": "0", "value": "0.5", column: text}
        with open("t.csv", "w") as fh:
            fh.write(f"round,nodeId,value\n{','.join(cells.values())}\n")
        read_trace_csv("t.csv")

    return read


def cli_number(argv: list[str], option: str):
    return lambda text: main(argv + [option, text])


ROWS = (
    [(f"{name}={value!r:.12}", INTEGER_SLOTS[name], value, "integer") for name in INTEGER_SLOTS for value in BAD_INTEGERS]
    + [(f"{name}={value!r:.12}", REAL_SLOTS[name], value, "finite number") for name in REAL_SLOTS for value in BAD_REALS]
    # Counts: f is at least 0 and max_rounds at least 1.
    + [(f"{name}=-1", INTEGER_SLOTS[name], -1, "non-negative|>= 0") for name in INTEGER_SLOTS if name.endswith(" f")]
    + [("SimConfig max_rounds=0", INTEGER_SLOTS["SimConfig max_rounds"], 0, ">= 1")]
    # A contraction rate is a real in (0, 1].
    + [
        (f"verify_contraction alpha={value!r}", REAL_SLOTS["verify_contraction alpha"], value, r"in \(0, 1\]")
        for value in (2, -1, 0, 0.0, 1.5, Fraction(3, 2), "0.5")
    ]
    + [(f"{name}=-1", INTEGER_SLOTS[name], -1, ">= 0") for name in ("RoundMessage tag", "RoundMessage._replace tag")]
    # float() reading a leading '+' in a value cell is not lax: it is how a
    # number may be written, so the value column takes the other bad texts.
    + [
        (f"trace CSV {column}={text!r}", csv_cell(column), text, "is not (an integer|a number)")
        for column in ("round", "nodeId", "value")
        for text in BAD_TEXTS
        if not (column == "value" and text == "+1")
    ]
    + [
        (f"{argv[0]} {option}={text!r}", cli_number(argv, option), text, f"invalid {rule} value")
        for argv, option, rule in CLI_NUMBERS
        for text in BAD_TEXTS + (("nan", "inf", "1e999") if rule == "decimal" else ("1.0", "0x1"))
    ]
)


@pytest.mark.parametrize("call, value, message", [pytest.param(*row[1:], id=row[0]) for row in ROWS])
def test_boundary_rejects(call, value, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises((ValueError, SystemExit)) as exc:
        call(value)
    if exc.type is SystemExit:
        # argparse rejects a CLI number before the command runs.
        assert exc.value.code == 2
        assert re.search(message, capsys.readouterr().err)
    else:
        assert re.search(message, str(exc.value))
