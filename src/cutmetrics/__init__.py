"""Cutpoint-additive graph distances on connected weighted multigraphs.

The package builds four families of vertex distances (path, reliability,
logarithmic forest, walk) whose triangle equality d(i,j) + d(j,k) = d(i,k)
holds exactly when j is a cutpoint between i and k, alongside the classical
shortest-path and resistance distances and the limiting long-walk distance.
Brute-force oracles certify the closed-form pipelines on small graphs.
"""

from .distances import (
    check_cutpoint_additivity,
    check_metric_axioms,
    forest_distance,
    log_distance,
    long_walk_distance,
    normalize_distances,
    path_distance,
    reliability_distance,
    rescaled_long_walk_distance,
    resistance_distance,
    walk_distance,
)
from .errors import (
    CapExceededError,
    CutMetricsError,
    GraphInputError,
    NumericError,
    ParameterError,
)
from .graph import (
    Graph,
    adjacency_matrix,
    is_cutpoint_between,
    laplacian,
    parse_graph,
    separation_labels,
    shortest_path_lengths,
)
from .linalg import determinant, invert, spectral_data, symmetric_pseudoinverse
from .measures import (
    connection_reliability,
    find_tau_threshold,
    forest_matrix,
    path_accessibility,
    validate_transitional_measure,
    walk_matrix,
)
from .oracle import (
    enumerate_paths,
    enumerate_rooted_forests,
    long_walk_limit,
    reliability_by_edge_states,
    truncated_walk_sum,
)
from .types import (
    DistanceMatrix,
    Path,
    RootedForestSummary,
    SpectralData,
    TransitionalMeasure,
    ValidationReport,
    Violation,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "parse_graph",
    "adjacency_matrix",
    "laplacian",
    "is_cutpoint_between",
    "separation_labels",
    "shortest_path_lengths",
    "invert",
    "determinant",
    "spectral_data",
    "symmetric_pseudoinverse",
    "path_accessibility",
    "connection_reliability",
    "forest_matrix",
    "walk_matrix",
    "validate_transitional_measure",
    "find_tau_threshold",
    "log_distance",
    "path_distance",
    "reliability_distance",
    "forest_distance",
    "walk_distance",
    "resistance_distance",
    "long_walk_distance",
    "rescaled_long_walk_distance",
    "check_metric_axioms",
    "check_cutpoint_additivity",
    "normalize_distances",
    "enumerate_paths",
    "truncated_walk_sum",
    "long_walk_limit",
    "reliability_by_edge_states",
    "enumerate_rooted_forests",
    "TransitionalMeasure",
    "DistanceMatrix",
    "ValidationReport",
    "Violation",
    "SpectralData",
    "Path",
    "RootedForestSummary",
    "CutMetricsError",
    "GraphInputError",
    "CapExceededError",
    "ParameterError",
    "NumericError",
]
