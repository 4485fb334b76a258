"""Constructive search for an ell-collinear certificate or a 5-hole.

The engine walks a layer decomposition of the point set: a minimal convex
outer layer, hull peels inside it, and an apex point in the residue.  Empty
arcs of a layer are chased to follower arcs on the next layer; whenever one
of the structural claims about followers fails to hold, a 5-hole is harvested
on the spot.  Small inputs that exhaust the walk fall back to complete hole
search, so every produced certificate is verified and the absence answer is
exact at desk scale.
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


@dataclass(frozen=True, slots=True)
class Arc:
    """Oriented edge between clockwise-consecutive points of a layer."""

    start: Point
    end: Point
    layer_index: int  # 1-based


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


class FollowerError(GeometryError):
    """The follower of an arc could not be determined (degenerate geometry)."""


def arcs_of_layer(decomposition: LayerDecomposition, index: int) -> list[Arc]:
    """The clockwise arcs of layer ``index`` (1-based)."""
    layer = decomposition.layers[index - 1]
    if len(layer) < 3:
        raise GeometryError(f"layer {index} has fewer than 3 points")
    boundary = convex_hull(list(layer)).boundary
    m = len(boundary)
    return [Arc(boundary[j], boundary[(j + 1) % m], index) for j in range(m)]


def is_empty_arc(arc: Arc, decomposition: LayerDecomposition) -> bool:
    """True iff the open triangle from the arc to the apex misses the next
    layer entirely (degenerate triangles count as empty)."""
    z = decomposition.apex
    if z is None:
        raise GeometryError("decomposition has no apex")
    nxt = decomposition.layers[arc.layer_index]
    if cross(arc.start, arc.end, z) == 0:
        return True
    return not any(in_open_triangle(p, arc.start, arc.end, z) for p in nxt)


def follower(arc: Arc, decomposition: LayerDecomposition) -> Arc:
    """The arc of the next layer meeting the triangle of an empty arc."""
    if not is_empty_arc(arc, decomposition):
        raise GeometryError("follower is only defined for empty arcs")
    z = decomposition.apex
    x, y = arc.start, arc.end
    if cross(x, y, z) == 0:
        raise FollowerError("arc is collinear with the apex")
    nxt = decomposition.layers[arc.layer_index]
    if len(nxt) < 2:
        raise FollowerError("next layer too small for arcs")
    boundary = convex_hull(list(nxt)).boundary
    result = _crossed_arc(x, y, z, boundary)
    if result is None:
        raise FollowerError("could not isolate the crossed arc")
    p, q = result
    return Arc(p, q, arc.layer_index + 1)


def _crossed_arc(
    x: Point, y: Point, z: Point, boundary: Sequence[Point]
) -> Optional[tuple[Point, Point]]:
    """The boundary arc crossed by a ray from z toward the segment xy.

    Several rational targets t = x + (num/den)(y - x) are tried so that a
    ray hitting a boundary vertex exactly can be replaced by a nearby one
    that does not.  All points are scaled by den, so that t is an integer
    point and every test is an exact orientation sign.
    """
    m = len(boundary)
    for num, den in ((1, 2), (1, 3), (2, 3), (1, 5), (2, 5), (3, 5), (4, 5)):
        t = (x[0] * (den - num) + y[0] * num, x[1] * (den - num) + y[1] * num)
        zs = (z[0] * den, z[1] * den)
        hit_vertex = False
        for j in range(m):
            a, b = boundary[j], boundary[(j + 1) % m]
            as_, bs = (a[0] * den, a[1] * den), (b[0] * den, b[1] * den)
            # The segment zt must cross line ab strictly between z and t ...
            sz, st = cross(as_, bs, zs), cross(as_, bs, t)
            if not ((sz > 0 > st) or (sz < 0 < st)):
                continue
            # ... at a point of the closed edge ab.
            sa, sb = cross(zs, t, as_), cross(zs, t, bs)
            if (sa > 0 and sb > 0) or (sa < 0 and sb < 0):
                continue
            if sa == 0 or sb == 0:
                hit_vertex = True
                break
            return a, b
        if not hit_vertex:
            return None
    return None


def classify_alignment(xy: Arc, pq: Arc, z: Point) -> str:
    """double / left / right alignment of a follower, or "violation" when the
    follower endpoints avoid both apex segments."""
    p_on = on_closed_segment(pq.start, xy.start, z)
    q_on = on_closed_segment(pq.end, xy.end, z)
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
    hole = find_k_hole(pts, 5)
    if hole is not None:
        if not hole.verify(pts):
            raise GeometryError(f"fallback hole {hole.vertices} fails verification")
        trace.append(TraceStep("oracle-fallback", {"found": True}))
        return ExtractionResult(hole, trace)
    trace.append(TraceStep("oracle-fallback", {"found": False, "complete": True}))
    return ExtractionResult(Inconclusive(exhausted=True), trace)


def _verified_hole(pts, candidate, kind, trace) -> Optional[ExtractionResult]:
    if len(set(candidate)) != 5 or not is_hole(pts, candidate):
        trace.append(TraceStep(kind, {"verified": False, "points": list(candidate)}))
        return None
    trace.append(TraceStep(kind, {"verified": True, "points": list(candidate)}))
    return ExtractionResult(HoleCertificate.build(pts, candidate), trace)


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

    ground = pts
    for restart in range(len(pts) + 1):
        outer = k_minimal_convex_subset(ground, k)
        decomposition = LayerDecomposition.build(pts, outer, ell, k)
        trace.append(
            TraceStep(
                "layers",
                {"sizes": decomposition.sizes(), "restart": restart, "k": k},
            )
        )

        harvested = _window_harvest(pts, decomposition, ell, trace)
        if harvested is not None:
            return harvested

        sizes = decomposition.sizes()
        if any(sizes[i] < 3 for i in range(ell - 1)) or sizes[ell - 1] == 0:
            trace.append(TraceStep("layers-too-thin", {"sizes": sizes}))
            return None

        arcs = arcs_of_layer(decomposition, 1)
        empty_arcs = [
            a
            for a in arcs
            if is_empty_arc(a, decomposition)
            and cross(a.start, a.end, decomposition.apex) != 0
        ]
        if not empty_arcs:
            # Contradicts minimality of the outer layer: restart from the
            # second layer, whose hull is properly smaller.
            trace.append(TraceStep("restart", {"restart": restart}))
            inner_hull = convex_hull(list(decomposition.layers[1]))
            ground = [p for p in pts if in_closed_hull(p, inner_hull)]
            continue
        return _walk(pts, decomposition, ell, empty_arcs[0], trace)
    trace.append(TraceStep("restart-limit", {}))
    return None


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
        prev = decomposition.layers[i - 2]
        cur = set(decomposition.layers[i - 1])
        if len(prev) < 3:
            continue
        boundary = convex_hull(list(prev)).boundary
        n = len(boundary)
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
            hole = find_k_hole(local, 5)
            if hole is not None:
                if not hole.verify(pts):
                    raise GeometryError(
                        f"window hole {hole.vertices} is not a hole of the set"
                    )
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
    first: Arc,
    trace: list[TraceStep],
) -> Optional[ExtractionResult]:
    z = decomposition.apex
    xs = [first.start]
    ys = [first.end]
    alignments: dict[int, str] = {}
    arc = first
    trace.append(TraceStep("empty-arc", {"arc": (arc.start, arc.end)}))

    for i in range(1, ell - 1):
        try:
            pq = follower(arc, decomposition)
        except FollowerError as exc:
            trace.append(TraceStep("follower-degenerate", {"error": str(exc)}))
            return None
        p, q = pq.start, pq.end
        x, y = arc.start, arc.end
        trace.append(
            TraceStep("follower", {"arc": (x, y), "follower": (p, q), "layer": i + 1})
        )
        if not is_hole(pts, [x, y, p, q]):
            trace.append(TraceStep("claim-b-4hole-failure", {"points": [x, y, p, q]}))
            return None
        trace.append(TraceStep("claim-b-4hole", {"points": [x, y, p, q]}))

        if not is_empty_arc(pq, decomposition):
            # The follower's own triangle traps a deeper point: harvest.
            deeper = decomposition.layers[pq.layer_index]
            inside = [
                r for r in deeper if in_open_triangle(r, p, q, z) and r not in (p, q)
            ]
            if not inside:
                inside = [
                    r
                    for r in pts
                    if r not in (p, q, z) and in_open_triangle(r, p, q, z)
                ]
            r = _closest_to_line(inside, p, q)
            result = _verified_hole(pts, [x, y, p, q, r], "claim-b-empty-harvest", trace)
            return result  # verified or fall back via None

        tag = classify_alignment(arc, pq, z)
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
        arc = pq

    # All followers aligned: locate the pivot indices of the terminal harvest.
    first_bend = next(
        (i for i in range(2, ell - 1) if alignments.get(i) != "double"), None
    )
    if first_bend is None:
        trace.append(TraceStep("double-aligned-exhaustion", {}))
        return None
    if alignments[first_bend] == "right":
        xs, ys = ys, xs
        alignments = {
            i: {"left": "right", "right": "left"}.get(t, t)
            for i, t in alignments.items()
        }
        trace.append(TraceStep("mirror", {}))
    j = next(
        (
            idx
            for idx in range(first_bend + 1, ell)
            if alignments.get(idx) != "left"
        ),
        None,
    )
    if j is None or j > len(xs):
        trace.append(TraceStep("left-aligned-exhaustion", {}))
        return None
    candidate = [xs[j - 3], ys[j - 3], ys[j - 2], ys[j - 1], xs[j - 2]]
    return _verified_hole(pts, candidate, "terminal-harvest", trace)
