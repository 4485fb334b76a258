"""Reference convex-position and hole searches for differential tests.

A copy of the chain DFS of ``convexity._convex_walk``, of the k-minimal
corner peeling, whose existence test here is the reference walk (the
library reads the size table), of the recursive
empty-chain hole search that ``find_k_hole`` ran before it moved onto the
shared walk, and of the hull that found each edge's points by rescanning
the set after a strict monotone chain.  It also holds the size table of
``convexity.max_convex_size`` as the plain triple loop it was before its
rows were ranked.  Any faster search must return exactly what these
return.

It also holds the constructive side of ``q_formula``, which ``holefinder
bounds`` prints: ``strictly_convex_subset_in_convex_position`` picks k
strictly convex points out of any q_formula(k, ell) points in convex
position with fewer than ell collinear, by the case split on points per
hull side, and ``random_convex_position``, which draws such sets.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from holefinder.convexity import (
    HullBoundary,
    convex_hull,
    is_convex_position,
    is_strictly_convex_position,
    q_formula,
)
from holefinder.geometry import (
    GeometryError,
    Point,
    _segment_interiors,
    angle_order,
    canonical,
    cross,
    in_closed_triangle,
    max_collinear,
    on_closed_segment,
    validate_points,
)
from holefinder.generators import _loaded_polygon
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


def reference_max_convex_size(points, strict: bool = False) -> int:
    """The Chvátal–Klincsek size table as a plain triple loop: ``size[i][j]``
    is the most points of a chain base -> ... -> cand[j] -> cand[i], and each
    step scans every chain into cand[j] for a left turn towards cand[i]."""
    pts = canonical(validate_points(points))
    inner: dict[tuple[Point, Point], int] = {}
    if not strict:
        inner = {e: len(q) for e, q in _segment_interiors(pts).items()}
    best = max([min(len(pts), 2)] + [2 + t for t in inner.values()])
    for idx, base in enumerate(pts):
        cand = angle_order(base, pts[idx + 1 :])
        first = [2 + inner.get((base, c), 0) for c in cand]
        size: list[list[int]] = []
        for i, c in enumerate(cand):
            row = [0] * i
            for j in range(i):
                b = cand[j]
                if cross(base, b, c) <= 0:
                    continue
                most = first[j]
                for h, v in enumerate(size[j]):
                    if v > most and cross(cand[h], b, c) > 0:
                        most = v
                most += 1 + inner.get((b, c) if b < c else (c, b), 0)
                row[j] = most
                best = max(best, most + first[i] - 2)
            size.append(row)
    return best


def reference_k_minimal_convex_subset(points, k: int) -> list[Point]:
    if k < 1:
        raise GeometryError("subset size must be positive")
    rest = canonical(validate_points(points))
    needed: set[Point] = set()
    while rest:
        for c in convex_hull(rest).corners:
            if c in needed:
                continue
            smaller = [p for p in rest if p != c]
            if reference_find(smaller, k) is not None:
                rest = smaller
                break
            needed.add(c)
        else:
            break
    found = reference_find(rest, k)
    if found is None:
        raise GeometryError(f"no {k} points in convex position")
    return canonical(found)


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


def _reference_strict_hull_ccw(pts: list[Point]) -> list[Point]:
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


def reference_convex_hull(points) -> HullBoundary:
    """Hull boundary of the points, clockwise, collinear boundary points kept."""
    pts = validate_points(points)
    if not pts:
        raise GeometryError("convex_hull needs at least one point")
    if len(pts) == 1:
        return HullBoundary((pts[0],), (pts[0],))
    ccw = _reference_strict_hull_ccw(pts)
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


def reference_sides(hull: HullBoundary) -> list[list[Point]]:
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
    sides = reference_sides(hull)
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


def random_convex_position(n: int, ell: int, seed: int) -> list[Point]:
    """n seeded points in convex position with max_collinear < ell: a random
    subset of a loaded polygon with randomized side slopes."""
    if n < 3 or ell < 3:
        raise GeometryError("random_convex_position needs n >= 3, ell >= 3")
    rng = random.Random(seed)
    per_line = ell - 1
    sides = max(2, -(-n // per_line))
    for _ in range(200):
        pool = _loaded_polygon(sides, ell, rng.randrange(1, 12))
        if len(pool) < n or max_collinear(pool)[0] >= ell:
            sides += 1
            continue
        pts = rng.sample(pool, n)
        if max_collinear(pts)[0] < ell and is_convex_position(pts):
            return canonical(pts)
    raise GeometryError("could not realize random convex-position set")
