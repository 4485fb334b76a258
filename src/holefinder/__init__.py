"""Exact computational geometry on integer point sets: collinear subsets,
convex-position subsets, k-holes, and a constructive extractor that
certifies either many collinear points or an empty pentagon.

The names below are the public API that README lists; every other step
is imported from its module.
"""

__version__ = "1.0.0"

from .geometry import GeometryError, Point, max_collinear
from .convexity import es_bound, es_kl_bound, max_convex_size, q_formula
from .holes import (
    CollinearCertificate,
    HoleCertificate,
    InconclusiveError,
    find_k_hole,
    find_visible_5_clique,
    is_hole,
)
from .extractor import (
    ExtractionParams,
    ExtractionResult,
    Inconclusive,
    TraceStep,
    extract,
    threshold_k,
)

__all__ = [
    "__version__",
    "GeometryError",
    "Point",
    "max_collinear",
    "max_convex_size",
    "find_k_hole",
    "is_hole",
    "HoleCertificate",
    "CollinearCertificate",
    "find_visible_5_clique",
    "InconclusiveError",
    "extract",
    "ExtractionParams",
    "ExtractionResult",
    "Inconclusive",
    "TraceStep",
    "threshold_k",
    "q_formula",
    "es_bound",
    "es_kl_bound",
]
