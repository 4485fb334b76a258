"""Reference collinearity tests for differential tests.

Copies of the line-key grouping behind ``max_collinear``, of the triple
loop of ``is_general_position``, of the per-anchor collinearity count that
``random_bounded_collinear`` rejected its samples with, and of the Horton
construction that tested every pair of one half against every point of the
other.  Each scanned point triples (or pairs per candidate); the library's
direction-keyed versions must return exactly what these return.  The
bounding-box segment test is kept too: the library's lexicographic
betweenness must agree with it.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Sequence

from holefinder.geometry import GeometryError, Point, canonical, cross, validate_points


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


def reference_collinear_groups(points: Sequence[Point]) -> list[list[Point]]:
    """All maximal collinear subsets of size >= 2, points ordered along the line."""
    pts = list(points)
    lines: dict[tuple[int, int, int], set[Point]] = {}
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            lines.setdefault(_line_key(a, b), set()).update((a, b))
    return [sorted(group) for group in lines.values()]


def reference_max_collinear(points: Sequence[Point]) -> tuple[int, list[Point]]:
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
    for group in reference_collinear_groups(pts):
        if len(group) > len(best) or (len(group) == len(best) and group < best):
            best = group
    return len(best), best


def reference_on_closed_segment(p: Point, v: Point, w: Point) -> bool:
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


def reference_is_general_position(points: Sequence[Point]) -> bool:
    """True iff no three of the points are collinear."""
    pts = list(points)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if cross(pts[i], pts[j], pts[k]) == 0:
                    return False
    return True


def reference_random_bounded_collinear(n: int, ell: int, seed: int) -> list[Point]:
    """n seeded random integer points with max_collinear < ell."""
    if n < 1 or ell < 3:
        raise GeometryError("random_bounded_collinear needs n >= 1, ell >= 3")
    rng = random.Random(seed)
    box = max(8, 4 * n * n)
    pts: list[Point] = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 4000 * n:
            raise GeometryError("sampling budget exhausted; box too small")
        p = (rng.randrange(box), rng.randrange(box))
        if p in pts:
            continue
        if _creates_ell_collinear(pts, p, ell):
            continue
        pts.append(p)
    out = canonical(pts)
    if reference_max_collinear(out)[0] >= ell:
        raise GeometryError(f"sampled set has {ell} collinear points")
    return out


def _creates_ell_collinear(pts: Sequence[Point], p: Point, ell: int) -> bool:
    for a in pts:
        run = 2
        for b in pts:
            if b is not a and cross(a, p, b) == 0:
                run += 1
        if run >= ell:
            return True
    return False


def reference_horton(n: int) -> list[Point]:
    if n == 1:
        return [(0, 0)]
    half = reference_horton(n // 2)
    lower = [(2 * x, y) for x, y in half]
    upper_base = [(2 * x + 1, y) for x, y in half]
    d = 1
    while True:
        upper = [(x, y + d) for x, y in upper_base]
        if reference_deep_above(lower, upper):
            return lower + upper
        d *= 2


def reference_deep_above(lower: Sequence[Point], upper: Sequence[Point]) -> bool:
    """True iff every line through two lower points passes strictly below all
    upper points and every line through two upper points strictly above all
    lower points."""
    for group, other, sign in ((lower, upper, 1), (upper, lower, -1)):
        pts = sorted(group)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                for p in other:
                    if sign * cross(pts[i], pts[j], p) <= 0:
                        return False
    return True
