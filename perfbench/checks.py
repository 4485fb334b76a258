"""Answer checks that do not trust the program under test.

Certificates are re-verified against their definitions with this file's own
integer predicates, and an absence is accepted only where a theorem or the
exhaustive oracle guarantees it.  Every check is an explicit comparison, not
an ``assert``, so it still runs under ``python -O``.
"""

from __future__ import annotations

from itertools import combinations


def _cross(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(p, a, b) -> bool:
    return (
        _cross(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _in_closed_triangle(p, a, b, c) -> bool:
    ref = _cross(a, b, c)
    if ref == 0:
        return _on_segment(p, a, b) or _on_segment(p, b, c) or _on_segment(p, a, c)
    s = (_cross(a, b, p), _cross(b, c, p), _cross(c, a, p))
    if ref < 0:
        s = tuple(-v for v in s)
    return min(s) >= 0


def _in_closed_hull(p, vertices) -> bool:
    """p lies in the closed convex hull of vertices (Caratheodory: some
    closed triangle or segment of vertices holds it)."""
    if len(vertices) == 2:
        return _on_segment(p, *vertices)
    return any(_in_closed_triangle(p, *tri) for tri in combinations(vertices, 3))


def _subset_of(points, chosen) -> bool:
    ambient = set(points)
    return len(set(chosen)) == len(chosen) and all(p in ambient for p in chosen)


def is_k_hole(points, vertices, k: int) -> bool:
    """``vertices`` are k points of ``points`` in strictly convex position
    whose closed hull holds no other point of ``points``."""
    vs = [tuple(v) for v in vertices]
    if k < 3 or len(vs) != k or not _subset_of(points, vs):
        return False
    for v in vs:
        if _in_closed_hull(v, [w for w in vs if w != v]):
            return False
    corners = set(vs)
    return not any(p not in corners and _in_closed_hull(p, vs) for p in points)


def is_collinear_set(points, chosen, ell: int) -> bool:
    """``chosen`` are ell distinct points of ``points`` on one line."""
    cs = [tuple(p) for p in chosen]
    if ell < 2 or len(cs) != ell or not _subset_of(points, cs):
        return False
    a, b = cs[0], cs[1]
    return all(_cross(a, b, p) == 0 for p in cs)


def is_general_position(points) -> bool:
    return not any(_cross(a, b, c) == 0 for a, b, c in combinations(points, 3))


def hole_theorem(family: str, points, k: int) -> str | None:
    """What a theorem says about k-holes of the set: "absent", "present" or
    None when no theorem used here applies.

    - Horton sets have no 7-hole (Horton 1983).
    - Square grids have no 5-hole: every convex lattice pentagon holds a
      lattice point inside, and the grid holds every lattice point of its box.
    - Ten points in general position have a 5-hole (Harborth 1978).
    - Thirty points in general position have a 6-hole (Heule and Scheucher
      2024).
    """
    if family == "horton" and k >= 7:
        return "absent"
    if family == "grid" and k >= 5:
        return "absent"
    if k in (5, 6) and len(points) >= (10 if k == 5 else 30):
        if is_general_position(points):
            return "present"
    return None
