"""k-holes, visibility graphs, and the no-4-hole classification.

A k-hole of P is a set of k points of P in strictly convex position whose
closed convex hull contains no other point of P.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .convexity import HullBoundary, _convex_walk, convex_hull, in_closed_hull
from .geometry import (
    GeometryError,
    Point,
    _segment_interiors,
    canonical,
    cross,
    max_collinear,
    validate_points,
)


class InconclusiveError(RuntimeError):
    """Raised by ``find_visible_5_clique`` when the set has fewer than ell
    collinear points and no 5 pairwise visible points."""


@dataclass(frozen=True, slots=True)
class HoleCertificate:
    """k points in strictly convex position (clockwise) with an empty hull."""

    vertices: tuple[Point, ...]
    k: int

    @classmethod
    def build(cls, ambient: Sequence[Point], vertices: Sequence[Point]) -> "HoleCertificate":
        """Certificate for the given vertex set, checked against ambient,
        with the vertices in the clockwise order of the check's hull."""
        problem, hull = cls(tuple(vertices), len(vertices))._checked(ambient)
        if problem is not None:
            raise GeometryError(f"{list(vertices)} is not a hole of the set: {problem}")
        return cls(hull.boundary, len(vertices))

    def problem(self, ambient: Sequence[Point]) -> Optional[str]:
        """The first broken condition of a k-hole of ambient, or None."""
        return self._checked(ambient)[0]

    def _checked(
        self, ambient: Sequence[Point]
    ) -> tuple[Optional[str], Optional[HullBoundary]]:
        """``problem``'s answer and the hull of the vertices it read, None
        when a condition on the points alone fails first."""
        pts = validate_points(ambient)
        problem = _point_problem(pts, self.vertices, self.k)
        if problem is not None or self.k < 3:
            return problem or "a hole has at least 3 points", None
        hull = convex_hull(self.vertices)
        if len(hull.corners) != self.k:
            return "not strictly convex", hull
        inside = set(self.vertices)
        if any(p not in inside and in_closed_hull(p, hull) for p in pts):
            return "hull not empty", hull
        return None, hull

    def verify(self, ambient: Sequence[Point]) -> bool:
        return self.problem(ambient) is None


@dataclass(frozen=True, slots=True)
class CollinearCertificate:
    """ell collinear points, ordered along their common line."""

    points: tuple[Point, ...]
    ell: int

    @classmethod
    def build(cls, points: Sequence[Point]) -> "CollinearCertificate":
        """Certificate for the given points, checked against themselves."""
        pts = tuple(points)
        problem = cls(pts, len(pts)).problem(pts)
        if problem is not None:
            raise GeometryError(problem)
        return cls(tuple(sorted(pts)), len(pts))

    def problem(self, ambient: Sequence[Point]) -> Optional[str]:
        """The first broken condition of ell collinear points of ambient, or None."""
        pts = self.points
        problem = _point_problem(validate_points(ambient), pts, self.ell)
        if problem is not None or self.ell < 2:
            return problem or "a collinear certificate needs at least 2 points"
        if any(cross(pts[0], pts[1], p) != 0 for p in pts[2:]):
            return "points are not collinear"
        return None

    def verify(self, ambient: Sequence[Point]) -> bool:
        return self.problem(ambient) is None


# The conditions on the listed points alone, on which is_hole raises.
_NOT_POINTS = (
    "points are not integer pairs",
    "certificate point not in the point set",
    "duplicate certificate points",
)


def _point_problem(ambient: list[Point], points: Sequence, count: int) -> Optional[str]:
    """The first way ``points`` fail to be ``count`` distinct integer points
    of ``ambient``, or None; integers first, as (5.0, 15) equals (5, 15)."""
    if not all(type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int
               for p in points):
        return _NOT_POINTS[0]
    if not set(points) <= set(ambient):
        return _NOT_POINTS[1]
    if len(set(points)) != len(points):
        return _NOT_POINTS[2]
    if len(points) != count:
        return "point count disagrees with the stated parameter"
    return None


def is_hole(points: Sequence[Point], subset: Sequence[Point]) -> bool:
    """True iff ``subset`` is a |subset|-hole of ``points``; raises
    GeometryError unless the subset is distinct integer points of the set."""
    problem = HoleCertificate(tuple(subset), len(subset)).problem(points)
    if problem in _NOT_POINTS:
        raise GeometryError(f"hole vertices: {problem}")
    return problem is None


def find_k_hole(points: Sequence[Point], k: int) -> Optional[HoleCertificate]:
    """A k-hole of the point set, or None if there is none.

    Complete: the convex-position walk ``convexity._convex_walk`` runs with
    ``empty``, on strict corners with every fan triangle from the base
    required to be empty of other points, which prunes hard while missing
    nothing.  Each fan triangle is tested against the points of its angular
    wedge in the base's fan alone, not against the whole set.
    """
    pts = canonical(validate_points(points))
    if k < 3:
        raise GeometryError("holes need k >= 3")
    if len(pts) < k:
        return None
    found = _convex_walk(pts, k, empty=True)
    if len(found) < k:
        return None
    return HoleCertificate.build(pts, found)


@dataclass(frozen=True)
class VisibilityGraph:
    """Adjacency under segment-emptiness visibility."""

    vertices: tuple[Point, ...]
    edges: frozenset[tuple[Point, Point]]

    def adjacent(self, v: Point, w: Point) -> bool:
        return tuple(sorted((v, w))) in self.edges


def visibility_graph(points: Sequence[Point]) -> VisibilityGraph:
    """Exact visibility graph: v, w adjacent iff nothing blocks segment vw,
    that is, no point of the set lies strictly inside it (O(n²) direction
    work through ``_segment_interiors``)."""
    pts = canonical(validate_points(points))
    if len(pts) < 2:
        raise GeometryError("visibility graph needs at least 2 points")
    edges = frozenset(e for e, q in _segment_interiors(pts).items() if not q)
    return VisibilityGraph(tuple(pts), edges)


def is_crossing_free(graph: VisibilityGraph) -> bool:
    """True iff no two visibility edges cross at interior points.

    No point of the set lies inside a visibility edge, so two edges can
    neither touch nor overlap, and any common point other than a shared
    endpoint is interior to both: they cross iff each one's ends lie
    strictly on opposite sides of the other's line.
    """
    edges = sorted(graph.edges)
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if (
                cross(a, b, c) * cross(a, b, d) < 0
                and cross(c, d, a) * cross(c, d, b) < 0
            ):
                return False
    return True


def _first_5_clique(graph: VisibilityGraph) -> Optional[list[Point]]:
    """The first 5 pairwise adjacent vertices in lexicographic order of their
    canonical indices, else None.

    Each adjacency row is a Python int whose bit j marks a later neighbour
    j, so the candidates common to a partial clique are one ``&`` away, and
    a branch stops once too few candidates are left to complete it.
    """
    verts = graph.vertices
    index = {v: i for i, v in enumerate(verts)}
    later = [0] * len(verts)
    for v, w in graph.edges:
        i, j = sorted((index[v], index[w]))
        later[i] |= 1 << j

    def grow(chosen: list[int], cand: int) -> Optional[list[int]]:
        if len(chosen) == 5:
            return chosen
        while cand.bit_count() >= 5 - len(chosen):
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            found = grow(chosen + [i], cand & later[i])
            if found is not None:
                return found
        return None

    found = grow([], (1 << len(verts)) - 1)
    return None if found is None else [verts[i] for i in found]


def find_visible_5_clique(points: Sequence[Point], ell: int):
    """ell collinear points if present, else 5 pairwise visible points: the
    corners of a 5-hole when there is one (the paper's witness), else the
    first 5-clique of the visibility graph.

    Returns a CollinearCertificate or a list of 5 points; raises
    InconclusiveError only when there are fewer than ell collinear points
    and the visibility graph has no 5-clique, so no answer exists.  The
    clique search may branch over every 4-clique, O(n^4) at worst; on full
    grids, which have neither answer, it adds about a sixth to the 5-hole
    search before it.
    """
    pts = canonical(validate_points(points))
    if len(pts) < 5:
        raise GeometryError("need at least 5 points")
    if ell < 2:
        raise GeometryError("find_visible_5_clique needs ell >= 2")
    count, witness = max_collinear(pts)
    if count >= ell:
        return CollinearCertificate.build(witness[:ell])
    hole = find_k_hole(pts, 5)
    if hole is not None:
        return list(hole.vertices)
    clique = _first_5_clique(visibility_graph(pts))
    if clique is None:
        raise InconclusiveError(
            f"no {ell} collinear points and no 5 pairwise visible points"
        )
    return clique


# ---------------------------------------------------------------------------
# No-4-hole classification

# Integer realization of the unique 6-point order type with no 4-hole that
# is neither all-but-one-collinear nor two-apex-line.  Frozen from an
# exhaustive search of 6-subsets of the 4x4 grid, which finds exactly one
# order type meeting those conditions (see tests for the re-derivation); any
# relabeling or mirror image of it is accepted.
EXCEPTIONAL_SIX: tuple[Point, ...] = (
    (0, 0),
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 2),
    (3, 2),
)


@dataclass(frozen=True)
class NoFourHoleFamily:
    """Classification of a point set against the no-4-hole families."""

    tag: str  # all-but-one-collinear | two-apex-line | six-point-exceptional
    #          | has-four-hole
    witness: tuple[Point, ...]
    crossing_free: bool


def same_order_type(a: Sequence[Point], b: Sequence[Point]) -> bool:
    """True iff some relabeling (allowing a mirror) matches all triple
    orientations of ``a`` to those of ``b``."""
    if len(a) != len(b):
        return False
    triples = list(itertools.combinations(range(len(a)), 3))

    def signs(pts: Sequence[Point]) -> Iterator[int]:
        for i, j, k in triples:
            v = cross(pts[i], pts[j], pts[k])
            yield (v > 0) - (v < 0)

    want = list(signs(a))
    return any(
        all(s * flip == w for s, w in zip(signs(relabeled), want))
        for relabeled in itertools.permutations(b)
        for flip in (1, -1)
    )


def _two_apex_line_witness(pts: list[Point]) -> Optional[tuple[Point, ...]]:
    """Points v, w on opposite sides of the line through the rest, with the
    segment vw meeting the rest's hull in a point of the set or not at all."""
    for v, w in itertools.combinations(pts, 2):
        rest = [p for p in pts if p not in (v, w)]
        if len(rest) < 2:
            continue
        a, b = rest[0], rest[1]
        if any(p not in (a, b) and cross(a, b, p) != 0 for p in rest):
            continue
        sv = cross(a, b, v)
        sw = cross(a, b, w)
        if sv == 0 or sw == 0 or (sv > 0) == (sw > 0):
            continue
        # Segment vw crosses the rest's line in one point: outside the rest's
        # hull iff both ends of the hull lie strictly on one side of line vw,
        # and a point of the set iff some point of the rest lies on line vw.
        lo, hi = min(rest), max(rest)
        if cross(v, w, lo) * cross(v, w, hi) > 0 or any(
            cross(v, w, p) == 0 for p in rest
        ):
            return (v, w)
    return None


def classify_no_four_hole(points: Sequence[Point]) -> NoFourHoleFamily:
    """Match the point set against the families of sets with no 4-hole.

    Also checks, on this instance, that having no 4-hole, a crossing-free
    visibility graph, and membership in one of the families all agree.
    """
    pts = canonical(validate_points(points))
    if len(pts) < 3:
        raise GeometryError("classification needs at least 3 points")
    hole = find_k_hole(pts, 4)
    crossing_free = is_crossing_free(visibility_graph(pts))

    tag = None
    witness: tuple[Point, ...] = ()
    count, line = max_collinear(pts)
    if count >= len(pts) - 1:
        tag = "all-but-one-collinear"
        witness = tuple(line)
    else:
        pair = _two_apex_line_witness(pts)
        if pair is not None:
            tag = "two-apex-line"
            witness = pair
        elif len(pts) == 6 and same_order_type(pts, EXCEPTIONAL_SIX):
            tag = "six-point-exceptional"
            witness = tuple(pts)

    if hole is not None:
        # Equivalence: a 4-hole must coincide with a crossing and no family.
        if crossing_free or tag is not None:
            raise GeometryError(
                f"a 4-hole coexists with crossing_free={crossing_free}, family {tag}"
            )
        return NoFourHoleFamily("has-four-hole", hole.vertices, crossing_free)

    if not crossing_free:
        raise GeometryError("no 4-hole, yet two visibility edges cross")
    if tag is None:
        raise GeometryError("no-4-hole set matches no known family")
    return NoFourHoleFamily(tag, witness, crossing_free)
