"""Robustness conditions and adversarial simulation for iterative
trim-and-average Byzantine consensus on directed graphs."""

from byztrim.digraph import Digraph, GraphError, parse_graph
from byztrim.conditions import (
    ConditionReport,
    DegreeViolation,
    Partition,
    PropagationTrace,
    check_partition_condition,
    check_reduced_graph_condition,
    check_source_component_size,
    in_set,
    propagates,
    quick_degree_checks,
    reaches,
)
from byztrim.protocol import NodeState, ProtocolError, RoundMessage, compute_alpha, init_node
from byztrim.simnet import (
    ByzantineSpec,
    SchedulerSpec,
    SimConfig,
    SimulationError,
    Trace,
    build_attack_config,
    byzantine_values,
    run_simulation,
    trace_metrics,
)
from byztrim.harness import all_digraphs, generate_graph, verify_contraction

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "ByzantineSpec",
    "DegreeViolation",
    "Digraph",
    "GraphError",
    "NodeState",
    "Partition",
    "PropagationTrace",
    "ProtocolError",
    "RoundMessage",
    "SchedulerSpec",
    "SimConfig",
    "SimulationError",
    "Trace",
    "all_digraphs",
    "build_attack_config",
    "byzantine_values",
    "check_partition_condition",
    "check_reduced_graph_condition",
    "check_source_component_size",
    "compute_alpha",
    "generate_graph",
    "in_set",
    "init_node",
    "parse_graph",
    "propagates",
    "quick_degree_checks",
    "reaches",
    "run_simulation",
    "trace_metrics",
    "verify_contraction",
]
