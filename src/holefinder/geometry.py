"""Exact integer predicates on planar points.

Points are ``(x, y)`` tuples of Python ints, so every predicate below is an
exact sign computation; there is no floating point anywhere in this package's
decision paths.
"""

from __future__ import annotations

import functools
from math import gcd
from typing import Iterable, Sequence, Tuple

Point = Tuple[int, int]


class GeometryError(ValueError):
    """Raised when an operation's domain preconditions are violated."""


def canonical(points: Iterable[Point]) -> list[Point]:
    """Points in canonical order: ascending by (x, y)."""
    return sorted(points)


def validate_points(points: Iterable[Point]) -> list[Point]:
    """Check that all points are integer pairs and pairwise distinct.

    Coordinates must be exactly ``int``: ``bool`` (an ``int`` subclass) and
    floats are rejected rather than coerced.
    """
    pts = list(points)
    seen = set()
    for p in pts:
        if (
            not isinstance(p, tuple)
            or len(p) != 2
            or type(p[0]) is not int
            or type(p[1]) is not int
        ):
            raise GeometryError(f"not an integer point: {p!r}")
        if p in seen:
            raise GeometryError(f"duplicate point: {p!r}")
        seen.add(p)
    return pts


def cross(a: Point, b: Point, c: Point) -> int:
    """Twice the signed area of triangle abc (positive for a left turn)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def angle_order(base: Point, cand: Iterable[Point]) -> list[Point]:
    """Candidates (all lexicographically above base) counterclockwise by
    angle around base, ties by increasing distance."""

    def cmp(a: Point, b: Point) -> int:
        c = cross(base, a, b)
        if c > 0:
            return -1
        if c < 0:
            return 1
        da = (a[0] - base[0]) ** 2 + (a[1] - base[1]) ** 2
        db = (b[0] - base[0]) ** 2 + (b[1] - base[1]) ** 2
        return -1 if da < db else (1 if da > db else 0)

    return sorted(cand, key=functools.cmp_to_key(cmp))


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a -> b -> c: +1 left, -1 right, 0 collinear.

    The three points must be pairwise distinct.
    """
    if a == b or a == c or b == c:
        raise GeometryError("orientation requires pairwise distinct points")
    d = cross(a, b, c)
    return (d > 0) - (d < 0)


def on_closed_segment(p: Point, v: Point, w: Point) -> bool:
    """True iff p lies on the closed segment [v, w]."""
    if v == w:
        raise GeometryError("degenerate segment")
    if p == v or p == w:
        return True
    if cross(v, w, p) != 0:
        return False
    return (
        min(v[0], w[0]) <= p[0] <= max(v[0], w[0])
        and min(v[1], w[1]) <= p[1] <= max(v[1], w[1])
    )


def in_closed_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """True iff p lies in the closed triangle abc.

    A degenerate (collinear) triangle is treated as the closed segment
    covering its three vertices.
    """
    if a == b == c:
        raise GeometryError("triangle vertices must not all coincide")
    if cross(a, b, c) == 0:
        # Degenerate: the covering segment is between the two extreme vertices.
        vs = sorted({a, b, c})
        lo, hi = vs[0], vs[-1]
        return on_closed_segment(p, lo, hi) if lo != hi else p == lo
    s1 = cross(a, b, p)
    s2 = cross(b, c, p)
    s3 = cross(c, a, p)
    ref = cross(a, b, c)
    if ref < 0:
        s1, s2, s3 = -s1, -s2, -s3
    return s1 >= 0 and s2 >= 0 and s3 >= 0


def in_open_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """True iff p lies strictly inside triangle abc (empty if degenerate)."""
    if a == b == c:
        raise GeometryError("triangle vertices must not all coincide")
    ref = cross(a, b, c)
    if ref == 0:
        return False
    s1 = cross(a, b, p)
    s2 = cross(b, c, p)
    s3 = cross(c, a, p)
    if ref < 0:
        s1, s2, s3 = -s1, -s2, -s3
    return s1 > 0 and s2 > 0 and s3 > 0


def _line_key(a: Point, b: Point) -> tuple[int, int, int]:
    """Canonical (A, B, C) for the line Ax + By = C through a and b."""
    ax, ay = a
    bx, by = b
    A = by - ay
    B = ax - bx
    C = A * ax + B * ay
    g = gcd(gcd(abs(A), abs(B)), abs(C))
    if g:
        A, B, C = A // g, B // g, C // g
    if A < 0 or (A == 0 and B < 0):
        A, B, C = -A, -B, -C
    return A, B, C


def collinear_groups(points: Sequence[Point]) -> list[list[Point]]:
    """All maximal collinear subsets of size >= 2, points ordered along the line."""
    pts = list(points)
    lines: dict[tuple[int, int, int], set[Point]] = {}
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            lines.setdefault(_line_key(a, b), set()).update((a, b))
    return [sorted(group) for group in lines.values()]


def max_collinear(points: Sequence[Point]) -> tuple[int, list[Point]]:
    """Size of the largest collinear subset and one witness achieving it.

    Witness points are ordered along their common line; ties are broken by the
    lexicographically least ordered point list.
    """
    pts = validate_points(points)
    if not pts:
        raise GeometryError("max_collinear needs at least one point")
    if len(pts) == 1:
        return 1, pts
    best: list[Point] = []
    for group in collinear_groups(pts):
        if len(group) > len(best) or (len(group) == len(best) and group < best):
            best = group
    return len(best), best


def perturb_general_position(points: Sequence[Point]) -> list[Point]:
    """A general-position image of ``points`` preserving nonzero orientations.

    The i-th output point is the image of the i-th input point.  Coordinates
    are scaled by a factor M and the points are displaced along a moment curve
    (offsets (i, i^2) in canonical rank order); M is squared until an
    exhaustive check over all triples confirms that no triple is collinear and
    every originally non-collinear triple kept its orientation sign.
    """
    pts = validate_points(points)
    if not pts:
        raise GeometryError("perturb_general_position needs at least one point")
    n = len(pts)
    rank = {p: i for i, p in enumerate(canonical(pts))}
    signs = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                signs[(i, j, k)] = orientation(pts[i], pts[j], pts[k])
    m = max(4, 2 * n * n)
    while True:
        out = [
            (p[0] * m + rank[p], p[1] * m + rank[p] * rank[p]) for p in pts
        ]
        ok = len(set(out)) == n
        for (i, j, k), s in signs.items():
            if not ok:
                break
            t = orientation(out[i], out[j], out[k])
            if t == 0 or (s != 0 and t != s):
                ok = False
        if ok:
            return out
        m *= m


def is_general_position(points: Sequence[Point]) -> bool:
    """True iff no three of the points are collinear."""
    pts = list(points)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if cross(pts[i], pts[j], pts[k]) == 0:
                    return False
    return True


def segments_cross_properly(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the closed segments ab and cd intersect at a point interior
    to both, or overlap, excluding the case of a shared endpoint only."""
    if a in (c, d) or b in (c, d):
        # Shared endpoint: crossing only if they overlap beyond the endpoint.
        o1 = cross(a, b, c)
        o2 = cross(a, b, d)
        if o1 != 0 or o2 != 0:
            return False
        # Collinear with a shared endpoint: proper overlap iff some endpoint
        # of one segment is strictly inside the other.
        for p, (v, w) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
            if p not in (v, w) and on_closed_segment(p, v, w):
                return True
        return False
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 and d2 and d3 and d4:
        return True
    # Touching or collinear overlap cases.
    for p, (v, w) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if on_closed_segment(p, v, w):
            return True
    return False
