"""Distance-edge monitoring of connected graphs.

Exact solvers for the monitoring number and its witnesses, the four binary
graph products, comparison dimensions, and a harness verifying every
closed-form value and bound against the exact solver at desk scale.
"""

from .comparison import (
    ComparisonReport,
    compare_graph,
    edge_metric_dimension,
    metric_dimension,
    strong_metric_dimension,
)
from .cover import CoverResult, is_vertex_cover, vertex_cover_number
from .errors import (
    CapExceededError,
    DisconnectedGraphError,
    EnumerationCapExceededError,
    ExpressionError,
    GenerationError,
    GraphError,
)
from .exprs import ProductSpec, build, canonical, parse_expr
from .families import FamilySpec, generate
from .formulas import (
    PredictedValue,
    VerificationRecord,
    check_lower_equality_condition,
    check_upper_equality_condition,
    predicted_dem,
    run_suite,
    verify_instance,
)
from .graph import INFINITE, Graph, format_edge_list, parse_edge_list
from .monitoring import (
    DemResult,
    dem_number,
    dem_value,
    greedy_dem,
    is_dem_set,
    monitor_matrix,
    monitor_matrix_naive,
    monitored_edges,
    monitored_edges_naive,
    monitored_pairs,
)
from .products import ProductVertexMap, cartesian, cluster, corona, join

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ComparisonReport",
    "CoverResult",
    "DemResult",
    "DisconnectedGraphError",
    "EnumerationCapExceededError",
    "ExpressionError",
    "FamilySpec",
    "GenerationError",
    "Graph",
    "GraphError",
    "INFINITE",
    "PredictedValue",
    "ProductSpec",
    "ProductVertexMap",
    "VerificationRecord",
    "build",
    "canonical",
    "cartesian",
    "check_lower_equality_condition",
    "check_upper_equality_condition",
    "cluster",
    "compare_graph",
    "corona",
    "dem_number",
    "dem_value",
    "edge_metric_dimension",
    "format_edge_list",
    "generate",
    "greedy_dem",
    "is_dem_set",
    "is_vertex_cover",
    "join",
    "metric_dimension",
    "monitor_matrix",
    "monitor_matrix_naive",
    "monitored_edges",
    "monitored_edges_naive",
    "monitored_pairs",
    "parse_edge_list",
    "parse_expr",
    "predicted_dem",
    "run_suite",
    "strong_metric_dimension",
    "verify_instance",
    "vertex_cover_number",
]
