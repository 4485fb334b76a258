"""Convex hulls, convex layers, and convex-position subset machinery.

"Convex position" means every point lies on the boundary of the set's convex
hull (collinear boundary points allowed); "strictly convex position" means
every point is a corner.  The distinction drives everything in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .geometry import (
    GeometryError,
    Point,
    angle_order,
    canonical,
    cross,
    in_closed_triangle,
    max_collinear,
    on_closed_segment,
    validate_points,
)


@dataclass(frozen=True)
class HullBoundary:
    """Convex hull boundary in clockwise order.

    ``boundary`` includes non-corner collinear boundary points and starts at
    the lexicographically least boundary point; ``corners`` is the clockwise
    subsequence of strict hull vertices.
    """

    boundary: tuple[Point, ...]
    corners: tuple[Point, ...]


def _strict_hull_ccw(pts: list[Point]) -> list[Point]:
    """Strict hull corners, counterclockwise, via the monotone chain."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_hull(points: Sequence[Point]) -> HullBoundary:
    """Hull boundary of the points, clockwise, collinear boundary points kept."""
    pts = validate_points(points)
    if not pts:
        raise GeometryError("convex_hull needs at least one point")
    if len(pts) == 1:
        return HullBoundary((pts[0],), (pts[0],))
    ccw = _strict_hull_ccw(pts)
    if len(ccw) <= 2:
        # All points collinear: boundary is every point along the segment.
        line = canonical(pts)
        return HullBoundary(tuple(line), (line[0], line[-1]))
    cw = list(reversed(ccw))
    boundary: list[Point] = []
    for i, a in enumerate(cw):
        b = cw[(i + 1) % len(cw)]
        edge = [p for p in pts if p not in (a, b) and on_closed_segment(p, a, b)]
        edge.sort(key=lambda p: (p[0] - a[0]) ** 2 + (p[1] - a[1]) ** 2)
        boundary.append(a)
        boundary.extend(edge)
    start = boundary.index(min(boundary))
    boundary = boundary[start:] + boundary[:start]
    corner_set = set(cw)
    corners = tuple(p for p in boundary if p in corner_set)
    return HullBoundary(tuple(boundary), corners)


def is_convex_position(points: Sequence[Point]) -> bool:
    """True iff every point lies on the boundary of the convex hull."""
    pts = validate_points(points)
    return len(convex_hull(pts).boundary) == len(pts)


def is_strictly_convex_position(points: Sequence[Point]) -> bool:
    """True iff every point is a corner of the convex hull."""
    pts = validate_points(points)
    return len(convex_hull(pts).corners) == len(pts)


def hull_twice_area(corners: Sequence[Point]) -> int:
    """Twice the area of a convex polygon given by its boundary corners."""
    n = len(corners)
    acc = 0
    for i in range(n):
        x1, y1 = corners[i]
        x2, y2 = corners[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return abs(acc)


def _hull_measure(points: Sequence[Point]) -> tuple[int, int]:
    """(twice area, squared diameter) of the hull; strictly decreasing along
    proper hull inclusions, including the degenerate collinear case."""
    hull = convex_hull(points)
    if len(hull.corners) == 1:
        return 0, 0
    area = hull_twice_area(hull.corners)
    ext = max(
        (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
        for p in hull.corners
        for q in hull.corners
    )
    return area, ext


def in_closed_hull(p: Point, hull: HullBoundary) -> bool:
    """True iff p lies in the closed region bounded by the hull."""
    corners = hull.corners
    if len(corners) == 1:
        return p == corners[0]
    if len(corners) == 2:
        return on_closed_segment(p, corners[0], corners[1])
    for i in range(len(corners)):
        a = corners[i]
        b = corners[(i + 1) % len(corners)]
        if cross(a, b, p) > 0:  # corners are clockwise
            return False
    return True


# ---------------------------------------------------------------------------
# Convex-position subset search


def find_convex_position_subset(
    points: Sequence[Point], k: int, strict: bool = False
) -> Optional[list[Point]]:
    """A k-point subset in (strictly) convex position, or None.

    The search is exhaustive, so a None answer is a proof of non-existence.
    """
    found = _convex_subset(canonical(validate_points(points)), strict, k)
    return found if len(found) >= k else None


def max_convex_position_subset(
    points: Sequence[Point], cap: Optional[int] = None
) -> list[Point]:
    """Maximum-cardinality subset in (non-strict) convex position.

    With ``cap`` the search stops at the first subset of ``cap`` points, so
    the answer is either ``cap`` points or a maximum subset.
    """
    pts = canonical(validate_points(points))
    return _convex_subset(pts, False, len(pts) + 1 if cap is None else cap)


def max_strictly_convex_subset(points: Sequence[Point]) -> list[Point]:
    """Maximum-cardinality subset in strictly convex position."""
    return max_convex_subsets(points)[1]


def max_convex_subsets(points: Sequence[Point]) -> tuple[list[Point], list[Point]]:
    """Maximum-cardinality subsets in convex position and in strictly convex
    position, in that order, from one walk."""
    pts = canonical(validate_points(points))
    return _convex_walk(pts, False, len(pts) + 1)


def _convex_subset(
    pts: list[Point], strict: bool, target: int, *, empty: bool = False
) -> list[Point]:
    """The first answer of ``_convex_walk``: with ``empty``, a hole of
    ``target`` points, or ``pts[:2]`` when there is none."""
    return _convex_walk(pts, strict, target, empty)[0]


def _convex_walk(
    pts: list[Point], strict: bool, target: int, empty: bool = False
) -> tuple[list[Point], list[Point]]:
    """The first subset of the canonical ``pts`` in (strictly) convex position
    met with ``target`` points, else the largest one met; and the largest
    corner set of a closing chain met.  Both in canonical order.

    Up to two points, then (non-strict only) the longest collinear run, come
    first.  Then, for each base point in turn, chains of strict corners are
    grown depth first over the later points in angle order around the base.
    A chain that turns convexly back to the base closes a polygon, whose
    subset is its corners, followed in the non-strict case by the points of
    ``pts`` on its closed edges, edge by edge.  Every (strictly) convex
    position subset of three or more non-collinear points lies on such a
    polygon, so an answer shorter than ``target`` is a maximum.

    The second answer starts from ``pts[:2]`` and is the first closing chain
    with the most corners.  A strict walk stops at ``target`` corners and
    adds no edge points, and nothing else sets it apart: so a non-strict walk
    with ``target`` past ``len(pts)`` meets every closing chain a strict one
    meets, in the same order, and one max walk yields both maxima.

    With ``empty`` (used strict, for holes) a chain enters ``p`` only when no
    other point of ``pts`` lies in the closed fan triangle (base, chain[-1],
    p), or, for the first edge, on the closed segment (base, p).  The closed
    fan triangles of a polygon from its base cover the closed polygon, so
    the polygons met are exactly the holes whose least vertex is the base:
    each hole's fan from its least vertex has empty triangles, and no search
    is lost.  The segment test only prunes early, since the first fan
    triangle holds the first edge.  A fan triangle depends on nothing but
    the base and its two other corners, so each base keeps its verdicts in a
    dict keyed by the candidate indices of chain[-1] and p: the same
    decisions come out in the same order, each computed once per base.
    Only a chain of ``target`` corners is tested for closing, so with no
    hole both answers are ``pts[:2]``.
    """
    if target < 1:
        raise GeometryError("subset size must be positive")
    if target <= 2 or len(pts) <= 2:
        return pts[:target], pts[:target]
    best = corners = pts[:2]
    if not strict:
        _, witness = max_collinear(pts)
        if len(witness) > len(best):
            best = witness
        if len(best) >= target:
            return best[:target], corners
    # A hole search reads only chains of target corners; others close at 3.
    closing = target if empty else 3
    # Points on each closed edge, less its ends; an edge recurs across bases.
    edge_points: dict[tuple[Point, Point], list[Point]] = {}
    for idx, base in enumerate(pts):
        cand = angle_order(base, pts[idx + 1 :])
        m = len(cand)
        chain = [base]
        # nxt[d]: the next candidate to try after chain[d], in preorder.
        # While chain[d + 1] is on the chain, nxt[d] - 1 is its index.
        nxt = [0]
        # Fan-triangle verdicts, keyed by nxt[-2] * m + i (empty mode).
        fan: dict[int, bool] = {}
        while nxt:
            i = nxt[-1]
            if i == m or (strict and len(chain) == target):
                nxt.pop()
                chain.pop()
                continue
            nxt[-1] = i + 1
            p = cand[i]
            if len(chain) >= 2:
                if cross(chain[-2], chain[-1], p) <= 0:
                    continue
                if empty:
                    key = nxt[-2] * m + i
                    clear = fan.get(key)
                    if clear is None:
                        clear = fan[key] = _triangle_clear(pts, base, chain[-1], p)
                    if not clear:
                        continue
            elif empty and not _segment_clear(pts, base, p):
                continue
            chain.append(p)
            nxt.append(i + 1)
            # The turn at the base needs no test: the candidates lie within a
            # half-turn above it, and chain[1], chain[2], p come in strictly
            # increasing angle, since a chain never runs straight on.
            if len(chain) < closing or cross(chain[-2], p, base) <= 0:
                continue
            if len(chain) > len(corners):
                corners = list(chain)
            found = list(chain)
            if not strict:
                for edge in zip(chain, chain[1:] + [base]):
                    if edge not in edge_points:
                        a, b = edge
                        edge_points[edge] = [
                            q for q in pts
                            if q not in edge and on_closed_segment(q, a, b)
                        ]
                    found.extend(edge_points[edge])
            if len(found) >= target:
                # Any subset of a convex-position set stays in convex position.
                return canonical(found[:target]), canonical(corners)
            if len(found) > len(best):
                best = found
    return canonical(best), canonical(corners)


def _segment_clear(pts: list[Point], a: Point, b: Point) -> bool:
    """True iff no point of ``pts`` but a and b lies on the closed segment ab."""
    return all(p in (a, b) or not on_closed_segment(p, a, b) for p in pts)


def _triangle_clear(pts: list[Point], a: Point, b: Point, c: Point) -> bool:
    """True iff no point of ``pts`` but a, b and c lies in the closed
    triangle abc."""
    return all(p in (a, b, c) or not in_closed_triangle(p, a, b, c) for p in pts)


# ---------------------------------------------------------------------------
# Bound formulas


def q_formula(k: int, ell: int) -> int:
    """Minimum size forcing, within convex position, ell collinear points or
    k points in strictly convex position."""
    if k < 1 or ell < 1:
        raise GeometryError("q_formula needs k >= 1 and ell >= 1")
    if k <= 2 or ell <= 2:
        return min(k, ell)
    if k == 3:
        return ell
    if ell == 3:
        return k
    if k % 2 == 1:
        return (ell - 1) * (k - 1) // 2 + 1
    return (ell - 1) * (k - 2) // 2 + 2


def es_bound(k: int) -> int:
    """Upper bound on the number of points forcing k in convex position."""
    if k < 3:
        raise GeometryError("es_bound needs k >= 3")
    return comb(2 * k - 5, k - 2) + 1


@dataclass(frozen=True)
class EsKlBound:
    """Upper bound forcing ell collinear or k strictly convex points, with
    the two routes it was derived from."""

    value: int
    via_convex_position: int
    via_general_position: int

    @property
    def winner(self) -> str:
        if self.via_convex_position <= self.via_general_position:
            return "convex-position"
        return "general-position"


def es_kl_bound(k: int, ell: int) -> EsKlBound:
    """Best of the two upper-bound routes for ES(k, ell)."""
    if k < 3 or ell < 3:
        raise GeometryError("es_kl_bound needs k >= 3 and ell >= 3")
    # es_bound(q) points hold q in convex position, and q = q_formula(k, ell)
    # in convex position hold ell collinear or k strictly convex points.
    via_convex = es_bound(q_formula(k, ell))
    es_k = es_bound(k)
    via_genpos = (ell - 3) * comb(es_k - 1, 2) + es_k
    return EsKlBound(min(via_convex, via_genpos), via_convex, via_genpos)


# ---------------------------------------------------------------------------
# Strictly convex subsets inside convex position


def strictly_convex_subset_in_convex_position(
    points: Sequence[Point], k: int, ell: int
) -> list[Point]:
    """k points in strictly convex position from a convex-position set.

    Requires: the input in convex position, fewer than ell collinear points,
    and at least q_formula(k, ell) points.  The construction follows a case
    split on the number of points per hull side and always succeeds under the
    preconditions; the result is re-verified before being returned.
    """
    pts = canonical(validate_points(points))
    if not is_convex_position(pts):
        raise GeometryError("input must be in convex position")
    if max_collinear(pts)[0] >= ell:
        raise GeometryError(f"input has {ell} collinear points")
    if len(pts) < q_formula(k, ell):
        raise GeometryError(
            f"need at least q({k},{ell}) = {q_formula(k, ell)} points, got {len(pts)}"
        )
    result = canonical(_select_strict(pts, k, ell))
    if len(result) != k or not is_strictly_convex_position(result):
        raise GeometryError(f"selected {result} is not {k} strictly convex points")
    return result


def _sides(hull: HullBoundary) -> list[list[Point]]:
    """The per-side point lists of the hull (sides share corners)."""
    corners = hull.corners
    m = len(corners)
    sides = []
    for i in range(m):
        a = corners[i]
        b = corners[(i + 1) % m]
        side = [p for p in hull.boundary if on_closed_segment(p, a, b)]
        side.sort(key=lambda p: (p[0] - a[0]) ** 2 + (p[1] - a[1]) ** 2)
        sides.append(side)
    return sides


def _select_strict(pts: list[Point], k: int, ell: int) -> list[Point]:
    if k <= 2:
        return pts[:k]
    hull = convex_hull(pts)
    if k == 3:
        return list(hull.corners[:3])
    if ell == 3:
        # No three collinear: the whole set is strictly convex.
        return pts[:k]

    boundary = hull.boundary
    sides = _sides(hull)
    m = len(sides)

    for side in sides:
        if len(side) >= 4:
            rest = [p for p in pts if p not in side]
            inner = _select_strict(rest, k - 2, ell)
            return inner + side[1:3]

    for side in sides:
        if len(side) == 2:
            v, w = side
            n = len(boundary)
            j = boundary.index(v)
            if boundary[(j + 1) % n] != w:
                raise GeometryError(f"side {side} is not a boundary edge")
            t = boundary[(j - 2) % n]
            u = boundary[(j - 1) % n]
            x = boundary[(j + 2) % n]
            y = boundary[(j + 3) % n]
            window = [t, u, v, w, x, y]
            if k == 4:
                return [u, v, w, x]
            rest = [p for p in pts if p not in window]
            inner = _select_strict(rest, k - 4, ell)
            return inner + [u, v, w, x]

    # Every side holds exactly 3 points: take all side midpoints plus every
    # second corner (omitting two consecutive corners when m is odd).
    corners = hull.corners
    mids = [side[1] for side in sides]
    if m % 2 == 0:
        chosen = [corners[i] for i in range(0, m, 2)]
    else:
        chosen = [corners[i] for i in range(0, m - 2, 2)]
    picked = mids + chosen
    if len(picked) < k:
        raise GeometryError(f"only {len(picked)} strictly convex points, need {k}")
    return picked[:k]


# ---------------------------------------------------------------------------
# k-minimal convex subsets and layers


def k_minimal_convex_subset(points: Sequence[Point], k: int) -> list[Point]:
    """A >= k point convex-position subset whose hull strictly contains the
    hull of no other >= k point convex-position subset.

    Descends by hull area: while some k-subset in convex position fits inside
    a halfplane cutting off a corner of the current hull, replace and repeat.

    A set with no k points in convex position has no subset with k such
    points, so the descent keeps, as bitmasks over ``pts``, the halfplane
    point sets it has refuted and searches no set inside one of them again.
    Every skipped search would have failed, and the halfplanes are still
    tried in the same order, so the same replacement is found at each step.
    """
    pts = canonical(validate_points(points))
    current = find_convex_position_subset(pts, k)
    if current is None:
        raise GeometryError(f"no {k} points in convex position")
    bits = {p: 1 << i for i, p in enumerate(pts)}
    refuted: list[int] = []
    measure = _hull_measure(current)
    while True:
        replacement = _smaller_convex_subset(pts, current, k, bits, refuted)
        if replacement is None:
            return canonical(current)
        new_measure = _hull_measure(replacement)
        if new_measure >= measure:
            raise GeometryError("k-minimal descent did not shrink the hull")
        current, measure = replacement, new_measure


def _smaller_convex_subset(
    pts: list[Point],
    current: list[Point],
    k: int,
    bits: dict[Point, int],
    refuted: list[int],
) -> Optional[list[Point]]:
    """A >= k convex-position subset with hull properly inside the current
    hull, or None if none exists.

    Halfplane point sets inside a set of ``refuted`` (masks of ``bits``) are
    skipped; each newly refuted set is added to it.
    """
    hull = convex_hull(current)
    inside = [p for p in pts if in_closed_hull(p, hull)]
    corners = hull.corners
    if len(corners) <= 2:
        # Degenerate hull: minimal k-subsets are windows along the line.
        line = canonical(inside)
        best = None
        for i in range(len(line) - k + 1):
            window = line[i : i + k]
            if _hull_measure(window) < _hull_measure(current):
                if best is None or _hull_measure(window) < _hull_measure(best):
                    best = window
        return best
    for a in inside:
        for b in inside:
            if a == b:
                continue
            if all(cross(a, b, c) >= 0 for c in corners):
                continue  # no corner cut off by this halfplane
            half = [q for q in inside if cross(a, b, q) >= 0]
            if len(half) < k:
                continue
            mask = sum(bits[q] for q in half)
            if any(mask | r == r for r in refuted):
                continue
            found = find_convex_position_subset(half, k)
            if found is not None:
                return found
            refuted.append(mask)
    return None


@dataclass(frozen=True)
class LayerDecomposition:
    """Convex layers grown inward from a k-minimal outer subset."""

    layers: tuple[tuple[Point, ...], ...]
    apex: Optional[Point]
    ell: int
    k: int

    def sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    @classmethod
    def build(
        cls, points: Sequence[Point], outer: Sequence[Point], ell: int, k: int
    ) -> "LayerDecomposition":
        """``outer``, then ell - 2 peels of the points inside its hull (empty
        once the points run out), then the residue layer, whose canonical
        least point is the apex."""
        layers, residue = peel_layers(points, outer, ell - 1)
        layers += [()] * (ell - 1 - len(layers))
        residue = canonical(residue)
        apex = residue[0] if residue else None
        return cls(tuple(layers) + (tuple(residue),), apex, ell, k)


def peel_layers(
    points: Sequence[Point], outer: Sequence[Point], depth: int
) -> tuple[list[tuple[Point, ...]], list[Point]]:
    """Convex layers from ``outer`` inward, and the points left inside them.

    The first layer is ``outer``; each later one is the hull boundary
    (collinear boundary points included) of the points of ``points`` inside
    conv(outer) that no earlier layer took.  Peeling stops after ``depth``
    layers or when no point is left; layers are in canonical order.
    """
    layers = [tuple(canonical(outer))]
    taken = set(outer)
    hull = convex_hull(outer)
    remaining = [p for p in points if p not in taken and in_closed_hull(p, hull)]
    while remaining and len(layers) < depth:
        boundary = set(convex_hull(remaining).boundary)
        layers.append(tuple(canonical(p for p in remaining if p in boundary)))
        remaining = [p for p in remaining if p not in boundary]
    return layers, remaining


def convex_layers(points: Sequence[Point], ell: int, k: int) -> LayerDecomposition:
    """Layer decomposition: a k-minimal outer layer, then hull-boundary peels,
    then the residue layer (whose canonical least point is the apex)."""
    pts = canonical(validate_points(points))
    if ell < 2:
        raise GeometryError("convex_layers needs ell >= 2")
    return LayerDecomposition.build(pts, k_minimal_convex_subset(pts, k), ell, k)
