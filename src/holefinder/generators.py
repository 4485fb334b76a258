"""Deterministic constructors for the configuration families used in tests.

Every generator re-verifies the property that makes its output interesting
(collinearity bound, general position, family classification) before
returning, so fixtures are never emitted unchecked.  All randomness is
seeded; nothing reads system entropy.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .convexity import convex_hull, is_convex_position
from .geometry import (
    GeometryError,
    Point,
    canonical,
    cross,
    direction,
    is_general_position,
    max_collinear,
)
from .holes import EXCEPTIONAL_SIX, classify_no_four_hole


def _loaded_polygon(
    sides: int, ell: int, slope_step: int, boost: int = 1
) -> list[Point]:
    """A centrally symmetric 2*sides-gon whose alternate side lines each carry
    ell - 1 points (the two corners plus ell - 3 evenly spaced interior ones).
    The boost factor enlarges the polygon without adding points, leaving
    lattice room for later insertions.
    """
    scale = max(1, ell - 2) * boost
    ups = [(1, slope_step * i) for i in range(sides)]
    edges = ups + [(-vx, -vy) for vx, vy in ups]
    corners = []
    x, y = 0, 0
    for vx, vy in edges:
        corners.append((x, y))
        x += vx * scale
        y += vy * scale
    if (x, y) != (0, 0):
        raise GeometryError("loaded polygon does not close")
    pts: list[Point] = list(corners)
    for j in range(0, 2 * sides, 2):
        ax, ay = corners[j]
        vx, vy = edges[j]
        for t in range(1, ell - 2):
            pts.append((ax + vx * t, ay + vy * t))
    return pts


def every_second_side(k: int, ell: int) -> list[Point]:
    """A convex-position set one short of forcing k strictly convex or ell
    collinear points: alternate sides of an even polygon loaded with ell - 1
    collinear points each, plus one free extra point when k is even."""
    if k < 3 or ell < 3:
        raise GeometryError("every_second_side needs k >= 3 and ell >= 3")
    if k == 3:
        # ell - 1 collinear points: no 3 strictly convex, ell collinear missed.
        return [(i, 0) for i in range(ell - 1)]
    if k == 4:
        # One apex over ell - 1 collinear points: every 4-subset keeps 3 on
        # the line, so no 4 points are strictly convex.
        return collinear_plus_one(ell)
    sides = (k - 1) // 2 if k % 2 == 1 else (k - 2) // 2
    target = (ell - 1) * (k - 1) // 2 if k % 2 == 1 else (ell - 1) * (k - 2) // 2 + 1
    for boost in (1, 2, 3, 4) if k % 2 == 0 else (1,):
        for slope_step in range(1, 30):
            pts = _loaded_polygon(sides, ell, slope_step, boost)
            if k % 2 == 0:
                extra = _extra_convex_point(pts, sides, ell, slope_step, boost)
                if extra is None:
                    continue
                pts = pts + [extra]
            if len(pts) != target:
                continue
            if max_collinear(pts)[0] == ell - 1 and is_convex_position(pts):
                return canonical(pts)
    raise GeometryError("could not realize every_second_side set")


def _extra_convex_point(
    pts: list[Point], sides: int, ell: int, slope_step: int, boost: int = 1
) -> Optional[Point]:
    """An integer point beyond an unloaded polygon side that keeps the whole
    set in convex position and is collinear with no two existing points."""
    scale = max(1, ell - 2) * boost
    b = (scale, 0)
    c = (2 * scale, slope_step * scale)  # ends of unloaded side 1
    candidates = []
    for ex in range(b[0], c[0] + 3 * scale + 1):
        for ey in range(min(b[1], c[1]) - scale, max(b[1], c[1]) + scale + 1):
            candidates.append((ex, ey))
    mx, my = b[0] + c[0], b[1] + c[1]  # twice the side midpoint
    candidates.sort(key=lambda e: ((2 * e[0] - mx) ** 2 + (2 * e[1] - my) ** 2, e))
    taken = set(pts)
    for e in candidates:
        if e in taken or _creates_ell_collinear(pts, e, 3):
            continue
        if is_convex_position(pts + [e]):
            return e
    return None


def grid(m: int) -> list[Point]:
    """The m-by-m integer grid."""
    if m < 2:
        raise GeometryError("grid needs m >= 2")
    pts = [(x, y) for x in range(m) for y in range(m)]
    if max_collinear(pts)[0] != m:
        raise GeometryError(f"grid({m}) does not have exactly {m} collinear points")
    return pts


def horton(n: int) -> list[Point]:
    """An n-point general-position set built by recursive interleaving, with
    each level's upper half lifted far enough to separate it from the lower."""
    if n < 1 or n & (n - 1):
        raise GeometryError("horton needs n a power of 2")
    pts = _horton(n)
    if len(set(pts)) != n or not is_general_position(pts):
        raise GeometryError(f"horton({n}) is not {n} points in general position")
    return canonical(pts)


def _horton(n: int) -> list[Point]:
    if n == 1:
        return [(0, 0)]
    half = _horton(n // 2)
    lower = [(2 * x, y) for x, y in half]
    upper_base = [(2 * x + 1, y) for x, y in half]
    d = 1
    while True:
        upper = [(x, y + d) for x, y in upper_base]
        if _deep_above(lower, upper):
            return lower + upper
        d *= 2


def _deep_above(lower: Sequence[Point], upper: Sequence[Point]) -> bool:
    """True iff every line through two lower points passes strictly below all
    upper points and every line through two upper points strictly above all
    lower points.

    The x-coordinates are distinct, so for a < b, cross(a, b, p) is linear in
    p with a positive y coefficient: its least value over the upper points
    is at a corner of their lower hull, its greatest over the lower points
    at a corner of their upper hull, and only those corners are tested.
    """
    for group, other, sign in ((lower, upper, 1), (upper, lower, -1)):
        ring = convex_hull(other).corners  # clockwise from the least point
        top = ring.index(max(ring))
        extreme = ring[top:] + ring[:1] if sign > 0 else ring[: top + 1]
        pts = sorted(group)
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                for p in extreme:
                    if sign * cross(a, b, p) <= 0:
                        return False
    return True


def collinear_plus_one(ell: int) -> list[Point]:
    """ell - 1 collinear points plus one apex off the line."""
    if ell < 2:
        raise GeometryError("collinear_plus_one needs ell >= 2")
    pts = [(i, 0) for i in range(ell - 1)] + [(0, 1)]
    if max_collinear(pts)[0] != max(2, ell - 1):
        raise GeometryError(f"collinear_plus_one({ell}) has the wrong collinearity")
    return canonical(pts)


def eppstein_family(tag: str, n: int = 6) -> list[Point]:
    """A set with no 4-hole from one of the structural families:

    - "a": n collinear points,
    - "b": n - 1 collinear points plus one apex,
    - "c": a line of n - 2 points with two apexes whose segment crosses the
      line at one of those points,
    - "d": as "c" but the crossing point lies outside the hull of the line
      points,
    - "e": the frozen exceptional 6-point configuration.
    """
    if tag in ("a", "b", "c", "d") and n < 4:
        raise GeometryError("eppstein_family needs n >= 4")
    if tag == "a":
        pts = [(i, 0) for i in range(n)]
    elif tag == "b":
        pts = [(i, 0) for i in range(n - 1)] + [(1, 1)]
    elif tag == "c":
        pts = [(i, 0) for i in range(n - 2)] + [(1, 1), (1, -1)]
    elif tag == "d":
        pts = [(i, 0) for i in range(n - 2)] + [(n, 1), (n, -1)]
    elif tag == "e":
        pts = list(EXCEPTIONAL_SIX)
    else:
        raise GeometryError(f"unknown family tag: {tag!r}")
    if classify_no_four_hole(pts).tag == "has-four-hole":
        raise GeometryError(f"eppstein_family({tag!r}, {n}) has a 4-hole")
    return canonical(pts)


def random_bounded_collinear(n: int, ell: int, seed: int) -> list[Point]:
    """n seeded random integer points with max_collinear < ell."""
    if n < 1 or ell < 3:
        raise GeometryError("random_bounded_collinear needs n >= 1, ell >= 3")
    rng = random.Random(seed)
    box = max(8, 4 * n * n)
    pts: list[Point] = []
    taken: set[Point] = set()
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 4000 * n:
            raise GeometryError("sampling budget exhausted; box too small")
        p = (rng.randrange(box), rng.randrange(box))
        if p in taken or _creates_ell_collinear(pts, p, ell):
            continue
        pts.append(p)
        taken.add(p)
    out = canonical(pts)
    if max_collinear(out)[0] >= ell:
        raise GeometryError(f"sampled set has {ell} collinear points")
    return out


def _creates_ell_collinear(pts: Sequence[Point], p: Point, ell: int) -> bool:
    """True iff adding p (not among pts) puts ell points of pts + [p] on one
    line: ell - 1 of pts share a direction from p."""
    counts: dict[tuple[int, int], int] = {}
    for a in pts:
        d = direction(p, a)
        counts[d] = counts.get(d, 0) + 1
        if counts[d] >= ell - 1:
            return True
    return False


def random_general_position(n: int, seed: int) -> list[Point]:
    """n seeded random integer points with no three collinear."""
    if n < 1:
        raise GeometryError("random_general_position needs n >= 1")
    return random_bounded_collinear(n, 3, seed)
