"""Reference convex-position and hole searches for differential tests.

A copy of the chain DFS of ``convexity._convex_walk``, of the k-minimal
descent, whose halfplane loop here searches every halfplane (the library
skips those inside a set it has already refuted), and of the recursive
empty-chain hole search that ``find_k_hole`` ran before it moved onto the
shared walk.  Any faster search must return exactly what these return.
"""

from __future__ import annotations

from typing import Optional

from holefinder.convexity import _hull_measure, convex_hull, in_closed_hull
from holefinder.geometry import (
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
from holefinder.holes import HoleCertificate


def reference_convex_subset(pts: list[Point], strict: bool, target: int) -> list[Point]:
    """The first subset of the canonical ``pts`` in (strictly) convex position
    met with ``target`` points, else the largest one met; canonical order."""
    if target < 1:
        raise GeometryError("subset size must be positive")
    if target <= 2 or len(pts) <= 2:
        return pts[:target]
    best = pts[:2]
    if not strict:
        _, witness = max_collinear(pts)
        if len(witness) > len(best):
            best = witness
        if len(best) >= target:
            return best[:target]
    edge_points: dict[tuple[Point, Point], list[Point]] = {}
    for idx, base in enumerate(pts):
        cand = angle_order(base, pts[idx + 1 :])
        m = len(cand)
        chain = [base]
        nxt = [0]
        while nxt:
            i = nxt[-1]
            if i == m or (strict and len(chain) == target):
                nxt.pop()
                chain.pop()
                continue
            nxt[-1] = i + 1
            p = cand[i]
            if len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                continue
            chain.append(p)
            nxt.append(i + 1)
            if len(chain) < 3 or cross(chain[-2], p, base) <= 0:
                continue
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
                return canonical(found[:target])
            if len(found) > len(best):
                best = found
    return canonical(best)


def reference_find(points, k: int, strict: bool = False) -> Optional[list[Point]]:
    found = reference_convex_subset(canonical(validate_points(points)), strict, k)
    return found if len(found) >= k else None


def reference_k_minimal_convex_subset(points, k: int) -> list[Point]:
    pts = canonical(validate_points(points))
    current = reference_find(pts, k)
    if current is None:
        raise GeometryError(f"no {k} points in convex position")
    measure = _hull_measure(current)
    while True:
        replacement = _reference_smaller_convex_subset(pts, current, k)
        if replacement is None:
            return canonical(current)
        new_measure = _hull_measure(replacement)
        if new_measure >= measure:
            raise GeometryError("k-minimal descent did not shrink the hull")
        current, measure = replacement, new_measure


def _reference_smaller_convex_subset(
    pts: list[Point], current: list[Point], k: int
) -> Optional[list[Point]]:
    hull = convex_hull(current)
    inside = [p for p in pts if in_closed_hull(p, hull)]
    corners = hull.corners
    if len(corners) <= 2:
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
                continue
            half = [q for q in inside if cross(a, b, q) >= 0]
            if len(half) < k:
                continue
            found = reference_find(half, k)
            if found is not None:
                return found
    return None


def reference_k_hole(points, k: int) -> Optional[HoleCertificate]:
    pts = canonical(validate_points(points))
    if k < 3:
        raise GeometryError("holes need k >= 3")
    if len(pts) < k:
        return None
    for idx, base in enumerate(pts):
        cand = angle_order(base, pts[idx + 1 :])
        chain = _reference_empty_chain(pts, base, cand, k)
        if chain is not None:
            return HoleCertificate.build(pts, chain)
    return None


def _reference_empty_chain(
    pts: list[Point], base: Point, cand: list[Point], k: int
) -> Optional[list[Point]]:
    """DFS for a strictly convex k-cycle through base whose fan triangles
    from base contain no other point of pts."""
    n = len(cand)

    def triangle_clear(a: Point, b: Point, c: Point) -> bool:
        return all(
            p in (a, b, c) or not in_closed_triangle(p, a, b, c) for p in pts
        )

    def extend(chain: list[Point], start: int) -> Optional[list[Point]]:
        if len(chain) == k:
            if cross(chain[-2], chain[-1], base) > 0 and cross(
                chain[-1], base, chain[1]
            ) > 0:
                return chain
            return None
        for i in range(start, n):
            p = cand[i]
            if len(chain) >= 2:
                if cross(chain[-2], chain[-1], p) <= 0:
                    continue
                if not triangle_clear(base, chain[-1], p):
                    continue
            elif not _reference_segment_clear(pts, base, p):
                continue
            res = extend(chain + [p], i + 1)
            if res is not None:
                return res
        return None

    return extend([base], 0)


def _reference_segment_clear(pts: list[Point], a: Point, b: Point) -> bool:
    return all(p in (a, b) or not on_closed_segment(p, a, b) for p in pts)
