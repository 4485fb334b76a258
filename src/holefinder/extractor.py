"""Constructive search for an ell-collinear certificate or a 5-hole.

The engine walks a layer decomposition of the point set: a minimal convex
outer layer, hull peels inside it, and an apex point in the residue.  Empty
arcs of a layer are chased to follower arcs on the next layer; whenever one
of the structural claims about followers fails to hold, a 5-hole is harvested
on the spot.  Inputs with fewer than 5 points in convex position
(``machinery-skipped``), with a layer too thin to walk (``layers-too-thin``)
or whose harvest fails verification fall back to complete hole search, so
every produced certificate is verified and the absence answer is exact at
every size.  A broken lemma of the walk raises ``GeometryError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .convexity import (
    LayerDecomposition,
    convex_hull,
    in_closed_hull,
    k_minimal_convex_subset,
    max_convex_position_subset,
)
from .geometry import (
    GeometryError,
    Point,
    canonical,
    cross,
    in_closed_triangle,
    in_open_triangle,
    max_collinear,
    on_closed_segment,
    validate_points,
)
from .holes import CollinearCertificate, HoleCertificate, find_k_hole, is_hole


def threshold_k(ell: int) -> int:
    """The convex-position target size ((2*ell-1)**ell - 1) / (2*ell - 2)."""
    if ell < 2:
        raise GeometryError("threshold_k needs ell >= 2")
    num = (2 * ell - 1) ** ell - 1
    den = 2 * ell - 2
    if num % den:
        raise GeometryError(f"threshold_k({ell}) is not an integer")
    return num // den


@dataclass(slots=True)
class ExtractionParams:
    ell: int
    k: Optional[int] = None
    oracle_fallback: bool = True


@dataclass(frozen=True, slots=True)
class Inconclusive:
    """No certificate.

    ``exhausted`` is True exactly when the complete fallback search ran
    (``find_k_hole`` is complete at every size), which proves that the set
    has neither ``ell`` collinear points nor a 5-hole.  It is False when the
    fallback was switched off, so absence is not proved.
    """

    exhausted: bool


@dataclass(frozen=True, slots=True)
class TraceStep:
    kind: str
    detail: dict


@dataclass(slots=True)
class ExtractionResult:
    outcome: Union[CollinearCertificate, HoleCertificate, Inconclusive]
    trace: list[TraceStep] = field(default_factory=list)

    @property
    def certificate(self):
        return None if isinstance(self.outcome, Inconclusive) else self.outcome

    def trace_kinds(self) -> list[str]:
        return [step.kind for step in self.trace]


def is_empty_arc(x: Point, y: Point, z: Point, inner: Sequence[Point]) -> bool:
    """True iff the open triangle xyz misses the next layer ``inner``."""
    return not any(in_open_triangle(p, x, y, z) for p in inner)


def follower(
    x: Point, y: Point, z: Point, boundary: Sequence[Point]
) -> tuple[Point, Point]:
    """The arc of the next layer's clockwise ``boundary`` that the segment
    from the apex z to the midpoint t of the empty arc xy crosses.

    Points are doubled, so that t is an integer point and every test is an
    exact orientation sign.  The segment must cross the line of an arc
    strictly between z and t, at a point of the closed arc.  That point lies
    in the open triangle xyz, which for an empty arc holds no point of the
    next layer, so it is never a vertex of the boundary.  With z inside the
    boundary, no arc is crossed only when t lies in its closed hull.
    """
    t = (x[0] + y[0], x[1] + y[1])
    zs = (2 * z[0], 2 * z[1])
    m = len(boundary)
    for j in range(m):
        a, b = boundary[j], boundary[(j + 1) % m]
        as_, bs = (2 * a[0], 2 * a[1]), (2 * b[0], 2 * b[1])
        sz, st = cross(as_, bs, zs), cross(as_, bs, t)
        if not ((sz > 0 > st) or (sz < 0 < st)):
            continue
        sa, sb = cross(zs, t, as_), cross(zs, t, bs)
        if (sa > 0 and sb > 0) or (sa < 0 and sb < 0):
            continue
        return a, b
    raise GeometryError("the arc's midpoint lies in the next layer's hull")


def classify_alignment(x: Point, y: Point, p: Point, q: Point, z: Point) -> str:
    """double / left / right alignment of the follower pq of arc xy, or
    "violation" when p and q avoid both apex segments xz and yz."""
    p_on = on_closed_segment(p, x, z)
    q_on = on_closed_segment(q, y, z)
    if p_on and q_on:
        return "double"
    if p_on:
        return "left"
    if q_on:
        return "right"
    return "violation"


def _closest_to_line(points: Sequence[Point], a: Point, b: Point) -> Point:
    """Point with least exact twice-area distance to line ab, ties canonical."""
    return min(points, key=lambda p: (abs(cross(a, b, p)), p))


def extract(points: Sequence[Point], params: ExtractionParams) -> ExtractionResult:
    """Produce an ell-collinear certificate or a 5-hole, with a proof trace."""
    pts = canonical(validate_points(points))
    if len(pts) < 3:
        raise GeometryError("extract needs at least 3 points")
    if params.ell < 2:
        raise GeometryError("extract needs ell >= 2")
    if params.k is not None and params.k < 1:
        raise GeometryError("extract needs k >= 1")
    trace: list[TraceStep] = []
    ell = params.ell

    count, witness = max_collinear(pts)
    if count >= ell:
        trace.append(TraceStep("collinear", {"count": count}))
        cert = CollinearCertificate.build(witness[:ell])
        return ExtractionResult(cert, trace)

    result = _run_machinery(pts, ell, params, trace)
    if result is not None:
        return result
    return _fallback(pts, params, trace)


def _fallback(pts, params: ExtractionParams, trace) -> ExtractionResult:
    if not params.oracle_fallback:
        trace.append(TraceStep("inconclusive", {"fallback": False}))
        return ExtractionResult(Inconclusive(exhausted=False), trace)
    # find_k_hole checks the hole it builds against these same points.
    hole = find_k_hole(pts, 5)
    if hole is not None:
        trace.append(TraceStep("oracle-fallback", {"found": True}))
        return ExtractionResult(hole, trace)
    trace.append(TraceStep("oracle-fallback", {"found": False, "complete": True}))
    return ExtractionResult(Inconclusive(exhausted=True), trace)


def _verified_hole(pts, candidate, kind, trace) -> Optional[ExtractionResult]:
    try:
        hole = HoleCertificate.build(pts, candidate)
    except GeometryError:
        hole = None
    verified = hole is not None
    trace.append(TraceStep(kind, {"verified": verified, "points": list(candidate)}))
    return ExtractionResult(hole, trace) if verified else None


def _run_machinery(
    pts: list[Point], ell: int, params: ExtractionParams, trace: list[TraceStep]
) -> Optional[ExtractionResult]:
    """The layer/arc/follower walk; None means fall back to complete search."""
    if params.k is not None:
        requested = params.k
    elif ell < len(pts):
        requested = threshold_k(ell)
    else:
        # threshold_k(ell) >= ell >= n caps k at n; it can run to thousands
        # of digits, too many to compute or print.
        requested = None
    cap = len(pts) if requested is None else min(requested, len(pts))
    k = len(max_convex_position_subset(pts, cap=cap))
    if k < cap:
        trace.append(TraceStep("reduced-k", {"k": k, "requested": requested}))
    if k < 5:
        trace.append(TraceStep("machinery-skipped", {"reason": "k < 5", "k": k}))
        return None
    # Past n + 1 layers every layer is empty padding: the answer is the same.
    ell = min(ell, len(pts) + 1)

    outer = k_minimal_convex_subset(pts, k)
    decomposition = LayerDecomposition.build(pts, outer, ell)
    trace.append(TraceStep("layers", {"sizes": decomposition.sizes(), "k": k}))

    harvested = _window_harvest(pts, decomposition, ell, trace)
    if harvested is not None:
        return harvested

    sizes = decomposition.sizes()
    if any(sizes[i] < 3 for i in range(ell - 1)) or sizes[ell - 1] == 0:
        trace.append(TraceStep("layers-too-thin", {"sizes": sizes}))
        return None

    # (a) No other point lies on the k-minimal outer hull's boundary: adding
    # it and dropping a corner would give >= k points in convex position
    # with a strictly smaller hull; k_minimal_convex_subset's docstring
    # proves it for its answer.  Each peel takes every boundary point of
    # what is left.  So each layer lies strictly inside the previous layer's
    # hull, and the apex, in the nonempty residue, strictly inside each; no
    # arc is collinear with it.
    # The outer arcs' open triangles are disjoint; if each held a point of
    # layer 2, those points would be >= k points in convex position whose
    # hull misses every outer corner, strictly inside the outer hull, against
    # k-minimality.  So some outer arc is empty.
    boundary, inner = decomposition.layers[:2]
    first = next(
        (
            (x, y)
            for x, y in zip(boundary, boundary[1:] + boundary[:1])
            if is_empty_arc(x, y, decomposition.apex, inner)
        ),
        None,
    )
    if first is None:
        raise GeometryError("outer layer has no empty arc: not k-minimal")
    return _walk(pts, decomposition, ell, first, trace)


def _window_harvest(
    pts: list[Point],
    decomposition: LayerDecomposition,
    ell: int,
    trace: list[TraceStep],
) -> Optional[ExtractionResult]:
    """5-hole search inside hulls of 2*ell - 1 consecutive outer-layer points
    that trap no point of the next layer."""
    width = 2 * ell - 1
    for i in range(2, ell + 1):
        boundary = decomposition.layers[i - 2]
        cur = set(decomposition.layers[i - 1])
        n = len(boundary)
        if n < 3:
            continue
        if n >= width:
            windows = [
                [boundary[(j + t) % n] for t in range(width)] for j in range(n)
            ]
        elif not cur:
            windows = [list(boundary)]  # below guarantee size; try anyway
        else:
            continue
        for window in windows:
            hull = convex_hull(window)
            if any(in_closed_hull(p, hull) for p in cur):
                continue
            local = [p for p in pts if in_closed_hull(p, hull)]
            if len(local) < 5:
                continue
            # Every point of the set inside the window hull is in local,
            # so a hole of local is a hole of the set.
            hole = find_k_hole(local, 5)
            if hole is not None:
                trace.append(
                    TraceStep(
                        "window-harvest",
                        {"layer": i - 1, "window": window, "hole": list(hole.vertices)},
                    )
                )
                return ExtractionResult(hole, trace)
    return None


def _walk(
    pts: list[Point],
    decomposition: LayerDecomposition,
    ell: int,
    first: tuple[Point, Point],
    trace: list[TraceStep],
) -> Optional[ExtractionResult]:
    layers, z = decomposition.layers, decomposition.apex
    x, y = first
    xs = [x]
    ys = [y]
    alignments: dict[int, str] = {}
    trace.append(TraceStep("empty-arc", {"arc": (x, y)}))

    for i in range(1, ell - 1):
        # (b) By (a) the arc's midpoint, on layer i's boundary, lies outside
        # layer i + 1's closed hull and the apex inside it, so the segment
        # between them crosses that hull's boundary: the follower exists.
        p, q = follower(x, y, z, layers[i])
        trace.append(
            TraceStep("follower", {"arc": (x, y), "follower": (p, q), "layer": i + 1})
        )
        # (c) Line pq crosses the open triangle x, y, z, which holds neither p
        # nor q, so segment pq would reach side xy, on layer i's boundary,
        # unless x and y lie strictly beyond line pq; by (a) it cannot.  With
        # p and q strictly inside layer i's hull and both arcs clockwise,
        # x, y, q, p is a convex quadrilateral.  It meets layer i + 1's hull
        # only in arc pq and layer i's boundary only in arc xy, and every
        # other point lies outside layer i's hull or inside layer i + 1's:
        # it is a 4-hole.
        if not is_hole(pts, [x, y, p, q]):
            raise GeometryError(f"arc {x, y} and follower {p, q} are not a 4-hole")
        trace.append(TraceStep("claim-b-4hole", {"points": [x, y, p, q]}))

        if not is_empty_arc(p, q, z, layers[i + 1]):
            # The follower's own triangle traps a deeper point: harvest.  It
            # is one of this layer (is_empty_arc scanned only these), and an
            # open triangle holds none of its own vertices.
            inside = [r for r in layers[i + 1] if in_open_triangle(r, p, q, z)]
            r = _closest_to_line(inside, p, q)
            result = _verified_hole(pts, [x, y, p, q, r], "claim-b-empty-harvest", trace)
            return result  # verified or fall back via None

        tag = classify_alignment(x, y, p, q, z)
        if tag == "violation":
            # Points of the closed triangle p, q, z off the line pq; z is one
            # of them, so the pool is never empty.
            pool = [
                r
                for r in pts
                if r not in (p, q)
                and cross(p, q, r) != 0
                and in_closed_triangle(r, p, q, z)
            ]
            r = _closest_to_line(pool, p, q)
            return _verified_hole(
                pts, [x, y, p, q, r], "claim-c-violation-harvest", trace
            )

        alignments[i + 1] = tag
        trace.append(TraceStep("alignment", {"index": i + 1, "tag": tag}))
        xs.append(p)
        ys.append(q)
        x, y = p, q

    # Every follower was aligned.  A double or left tag at i puts x_i strictly
    # inside segment x_{i-1} z (the chain points and z lie on distinct
    # layers), and a double or right tag does the same for y_i.  A chain
    # with no tag of the other side would put ell - 1 points on a line with
    # z, and extract has ruled out ell collinear points (ell - 1 layers of 3
    # points fit, so this is extract's own ell).  So both a left and a right
    # tag occur (for ell = 3 every tag was a violation): the first tag that
    # is not double comes before ell - 1, and after the mirror some later
    # tag is not left.
    if not {"left", "right"} <= set(alignments.values()):
        raise GeometryError(f"{ell} collinear points on a ray from the apex")
    first_bend = next(i for i in range(2, ell - 1) if alignments[i] != "double")
    if alignments[first_bend] == "right":
        xs, ys = ys, xs
        alignments = {
            i: {"left": "right", "right": "left"}.get(t, t)
            for i, t in alignments.items()
        }
        trace.append(TraceStep("mirror", {}))
    j = next(i for i in range(first_bend + 1, ell) if alignments[i] != "left")
    candidate = [xs[j - 3], ys[j - 3], ys[j - 2], ys[j - 1], xs[j - 2]]
    return _verified_hole(pts, candidate, "terminal-harvest", trace)
