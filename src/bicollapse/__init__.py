"""Homology-preserving edge collapse for 1-critical bifiltered graphs."""

from .build import (
    DATASET_KINDS,
    density_rips_from_distances,
    density_rips_graph,
    generate_dataset,
    kde_bandwidth,
    kde_density,
    kde_density_from_matrix,
    load_lower_distance_matrix,
    load_points,
    pairwise_distances,
    square_form,
)
from .collapse import (
    GRADE_MODES,
    MODES,
    CollapseReport,
    apply_grade_mode,
    collapse_iterated,
)
from .core import BifilteredGraph, read_edge_list, write_edge_list
from .domination import is_filtration_dominated, is_strongly_dominated
from .expand import count_triangles, enumerate_triangles, export_scc2020, parse_scc2020
from .oracle import SimplexBudgetExceeded, brute_force_filtration_dominated, verify_collapse
from .orders import ORDER_KINDS, EdgeOrder

__version__ = "0.1.0"

__all__ = [
    "BifilteredGraph",
    "CollapseReport",
    "DATASET_KINDS",
    "EdgeOrder",
    "GRADE_MODES",
    "MODES",
    "ORDER_KINDS",
    "SimplexBudgetExceeded",
    "apply_grade_mode",
    "brute_force_filtration_dominated",
    "collapse_iterated",
    "count_triangles",
    "density_rips_from_distances",
    "density_rips_graph",
    "enumerate_triangles",
    "export_scc2020",
    "generate_dataset",
    "is_filtration_dominated",
    "is_strongly_dominated",
    "kde_bandwidth",
    "kde_density",
    "kde_density_from_matrix",
    "load_lower_distance_matrix",
    "load_points",
    "pairwise_distances",
    "parse_scc2020",
    "read_edge_list",
    "square_form",
    "verify_collapse",
    "write_edge_list",
    "__version__",
]
