"""Exact computational geometry on integer point sets: collinear subsets,
convex and strictly convex subsets, k-holes, visibility graphs, and a
constructive extractor that certifies either many collinear points or an
empty pentagon."""

__version__ = "1.0.0"

from .geometry import (
    GeometryError,
    Point,
    angle_order,
    canonical,
    collinear_groups,
    cross,
    in_closed_triangle,
    in_open_triangle,
    is_general_position,
    max_collinear,
    on_closed_segment,
    orientation,
    perturb_general_position,
    segments_cross_properly,
    validate_points,
)
from .convexity import (
    EsKlBound,
    HullBoundary,
    LayerDecomposition,
    convex_hull,
    convex_layers,
    es_bound,
    es_kl_bound,
    find_convex_position_subset,
    hull_twice_area,
    in_closed_hull,
    is_convex_position,
    is_strictly_convex_position,
    k_minimal_convex_subset,
    max_convex_position_subset,
    max_convex_subsets,
    max_strictly_convex_subset,
    peel_layers,
    q_formula,
    strictly_convex_subset_in_convex_position,
)
from .holes import (
    CollinearCertificate,
    EXCEPTIONAL_SIX,
    HoleCertificate,
    InconclusiveError,
    NoFourHoleFamily,
    VisibilityGraph,
    classify_no_four_hole,
    find_k_hole,
    find_visible_5_clique,
    is_crossing_free,
    is_hole,
    same_order_type,
    visibility_graph,
)
from .extractor import (
    Arc,
    ExtractionParams,
    ExtractionResult,
    Inconclusive,
    TraceStep,
    arcs_of_layer,
    classify_alignment,
    extract,
    follower,
    is_empty_arc,
    threshold_k,
)
from .oracle import (
    DEFAULT_BUDGET,
    OracleBudget,
    OracleBudgetError,
    oracle_k_hole,
    oracle_k_minimality,
    oracle_max_convex_subset,
)
