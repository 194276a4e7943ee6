"""Subtask-graph modelling, analysis, generation and serialization."""

from .analysis import (
    asap_times,
    max_parallelism,
    parallelism_profile,
    subtask_weights,
    weight_ordered_subtasks,
)
from .generators import (
    ExecutionTimeModel,
    chain,
    independent_set,
    layered_dag,
    multimedia_like,
    random_dag,
    scaled_family,
    series_parallel,
    with_isp_fraction,
)
from .serialization import (
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    load_graph,
    save_graph,
)
from .subtask import ResourceClass, Subtask, drhw_subtask, isp_subtask
from .taskgraph import TaskGraph, chain_graph, fork_join_graph
from .validation import ValidationReport, assert_valid, validate_graph

__all__ = [
    "ExecutionTimeModel",
    "ResourceClass",
    "Subtask",
    "TaskGraph",
    "ValidationReport",
    "asap_times",
    "assert_valid",
    "chain",
    "chain_graph",
    "drhw_subtask",
    "fork_join_graph",
    "graph_from_dict",
    "graph_from_json",
    "graph_to_dict",
    "graph_to_json",
    "independent_set",
    "isp_subtask",
    "layered_dag",
    "load_graph",
    "max_parallelism",
    "multimedia_like",
    "parallelism_profile",
    "random_dag",
    "save_graph",
    "scaled_family",
    "series_parallel",
    "subtask_weights",
    "validate_graph",
    "weight_ordered_subtasks",
    "with_isp_fraction",
]
