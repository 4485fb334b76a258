"""Exact integer predicates on planar points.

Points are ``(x, y)`` tuples of Python ints, so every predicate below is an
exact sign computation, and so is every geometric decision of this package.
Only the CLI's ``bounds`` estimate of how many digits it would print uses
logarithms.
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


def on_closed_segment(p: Point, v: Point, w: Point) -> bool:
    """True iff p lies on the closed segment [v, w]: on line vw and between
    v and w in (x, y) order, which along a line is the order of position (x
    is strictly monotone on a non-vertical line, and y on a vertical one)."""
    if v == w:
        raise GeometryError("degenerate segment")
    return cross(v, w, p) == 0 and min(v, w) <= p <= max(v, w)


def in_closed_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """True iff p lies in the closed triangle abc.

    A degenerate (collinear) triangle is treated as the closed segment
    covering its three vertices.
    """
    if a == b == c:
        raise GeometryError("triangle vertices must not all coincide")
    if cross(a, b, c) == 0:
        # Degenerate: the covering segment is between the two extreme vertices.
        return on_closed_segment(p, min(a, b, c), max(a, b, c))
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


def direction(a: Point, b: Point) -> tuple[int, int]:
    """The reduced direction of b - a: both coordinates divided by their gcd,
    the sign fixed so that x > 0, or x == 0 and y > 0.

    Distinct points b and c lie on one line through a iff
    ``direction(a, b) == direction(a, c)``, whichever sides of a they are on.
    """
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    g = gcd(dx, dy)
    if not g:
        raise GeometryError("direction needs two distinct points")
    if dx < 0 or (dx == 0 and dy < 0):
        g = -g
    return dx // g, dy // g


def _lines_from(pts: Sequence[Point], i: int) -> dict[tuple[int, int], list[Point]]:
    """The points after ``pts[i]`` grouped by their direction from it, each
    group led by ``pts[i]``; in canonical ``pts`` every group is ordered
    along its line."""
    a = pts[i]
    lines: dict[tuple[int, int], list[Point]] = {}
    for b in pts[i + 1 :]:
        lines.setdefault(direction(a, b), [a]).append(b)
    return lines


def _segment_interiors(
    pts: Sequence[Point],
) -> dict[tuple[Point, Point], list[Point]]:
    """For every pair a < b of the canonical ``pts``, the points of ``pts``
    strictly inside segment ab, in canonical order.

    b lies in the direction group of a, and the points strictly between
    them are the ones before b in that group, less a.
    """
    inner: dict[tuple[Point, Point], list[Point]] = {}
    for i in range(len(pts)):
        for line in _lines_from(pts, i).values():
            for t in range(1, len(line)):
                inner[line[0], line[t]] = line[1:t]
    return inner


def max_collinear(points: Sequence[Point]) -> tuple[int, list[Point]]:
    """Size of the largest collinear subset and one witness achieving it.

    Witness points are ordered along their common line; ties are broken by the
    lexicographically least ordered point list.
    """
    pts = canonical(validate_points(points))
    if not pts:
        raise GeometryError("max_collinear needs at least one point")
    # Anchors ascend and each anchor's groups come in the order of their
    # second point, so the first strictly longer group wins every tie.  A
    # group from a later anchor than its line's least point is shorter
    # than that line, and an anchor with no more points after it than the
    # best group can only tie it.
    best = pts[:1]
    for i in range(len(pts)):
        if len(pts) - i <= len(best):
            break
        for group in _lines_from(pts, i).values():
            if len(group) > len(best):
                best = group
    return len(best), best


def is_general_position(points: Sequence[Point]) -> bool:
    """True iff no three of the points are collinear (a repeated point is
    collinear with any third one)."""
    pts = list(points)
    n = len(pts)
    if n < 3:
        return True
    if len(set(pts)) < n:
        return False
    for i, a in enumerate(pts):
        if len({direction(a, b) for b in pts[i + 1 :]}) < n - 1 - i:
            return False
    return True
