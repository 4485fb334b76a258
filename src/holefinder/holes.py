"""k-holes, visibility graphs, and the no-4-hole classification.

A k-hole of P is a set of k points of P in strictly convex position whose
closed convex hull contains no other point of P.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .convexity import _convex_subset, _segment_clear, convex_hull, in_closed_hull
from .geometry import (
    GeometryError,
    Point,
    canonical,
    cross,
    max_collinear,
    segments_cross_properly,
    validate_points,
)


class InconclusiveError(RuntimeError):
    """Raised when neither certificate can be produced within search bounds."""


@dataclass(frozen=True, slots=True)
class HoleCertificate:
    """k points in strictly convex position (clockwise) with an empty hull."""

    vertices: tuple[Point, ...]
    k: int

    @classmethod
    def build(cls, ambient: Sequence[Point], vertices: Sequence[Point]) -> "HoleCertificate":
        """Certificate for the given vertex set, verified against ambient."""
        if not is_hole(ambient, vertices):
            raise GeometryError(f"{list(vertices)} is not a hole of the point set")
        cw = convex_hull(list(vertices)).boundary
        return cls(tuple(cw), len(vertices))

    def verify(self, ambient: Sequence[Point]) -> bool:
        vertices = self.vertices
        if not len(set(vertices)) == len(vertices) == self.k:
            return False  # a repeated vertex is no hole
        return is_hole(ambient, vertices)


@dataclass(frozen=True, slots=True)
class CollinearCertificate:
    """ell collinear points, ordered along their common line."""

    points: tuple[Point, ...]
    ell: int

    @classmethod
    def build(cls, points: Sequence[Point]) -> "CollinearCertificate":
        pts = list(points)
        if len(pts) < 2:
            raise GeometryError("a collinear certificate needs at least 2 points")
        a, b = pts[0], pts[1]
        if any(p not in (a, b) and cross(a, b, p) != 0 for p in pts):
            raise GeometryError("points are not collinear")
        return cls(tuple(sorted(pts)), len(pts))

    def verify(self, ambient: Sequence[Point]) -> bool:
        ambient_set = set(ambient)
        if any(p not in ambient_set for p in self.points):
            return False
        if not len(self.points) == len(set(self.points)) == self.ell >= 2:
            return False
        a, b = self.points[0], self.points[-1]
        return all(p in (a, b) or cross(a, b, p) == 0 for p in self.points)


def is_hole(points: Sequence[Point], subset: Sequence[Point]) -> bool:
    """True iff ``subset`` is a |subset|-hole of ``points``."""
    pts = validate_points(points)
    sub = validate_points(subset)
    pset = set(pts)
    if any(x not in pset for x in sub):
        raise GeometryError("hole vertices must belong to the ambient set")
    if len(sub) < 3:
        return False
    hull = convex_hull(sub)
    if len(hull.corners) != len(sub):
        return False  # not in strictly convex position
    sub_set = set(sub)
    return all(p in sub_set or not in_closed_hull(p, hull) for p in pts)


def find_k_hole(points: Sequence[Point], k: int) -> Optional[HoleCertificate]:
    """A k-hole of the point set, or None if there is none.

    Complete: the convex-position walk ``convexity._convex_walk`` runs in
    strict mode with every fan triangle from the base required to be empty
    of other points, which prunes hard while missing nothing.
    """
    pts = canonical(validate_points(points))
    if k < 3:
        raise GeometryError("holes need k >= 3")
    if len(pts) < k:
        return None
    found = _convex_subset(pts, True, k, empty=True)
    return HoleCertificate.build(pts, found) if len(found) == k else None


@dataclass(frozen=True)
class VisibilityGraph:
    """Adjacency under segment-emptiness visibility."""

    vertices: tuple[Point, ...]
    edges: frozenset[tuple[Point, Point]]

    def adjacent(self, v: Point, w: Point) -> bool:
        return tuple(sorted((v, w))) in self.edges

    def is_complete(self) -> bool:
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2


def visibility_graph(points: Sequence[Point]) -> VisibilityGraph:
    """Exact visibility graph: v, w adjacent iff nothing blocks segment vw."""
    pts = canonical(validate_points(points))
    if len(pts) < 2:
        raise GeometryError("visibility graph needs at least 2 points")
    edges = set()
    for i, v in enumerate(pts):
        for w in pts[i + 1 :]:
            if _segment_clear(pts, v, w):
                edges.add((v, w))
    return VisibilityGraph(tuple(pts), frozenset(edges))


def is_crossing_free(graph: VisibilityGraph) -> bool:
    """True iff no two visibility edges cross at interior points.

    No point of the set lies inside a visibility edge, so two edges can
    neither touch nor overlap, and any common point other than a shared
    endpoint is interior to both.
    """
    edges = sorted(graph.edges)
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if segments_cross_properly(a, b, c, d):
                return False
    return True


def find_visible_5_clique(points: Sequence[Point], ell: int):
    """ell collinear points if present, else the corners of a 5-hole, which
    are pairwise visible.

    Returns a CollinearCertificate or a list of 5 points; raises
    InconclusiveError when neither certificate can be produced.
    """
    pts = canonical(validate_points(points))
    if len(pts) < 5:
        raise GeometryError("need at least 5 points")
    count, witness = max_collinear(pts)
    if count >= ell:
        return CollinearCertificate.build(witness[:ell])
    hole = find_k_hole(pts, 5)
    if hole is None:
        raise InconclusiveError(
            "no 5 collinear points and no 5-hole found; cannot certify a clique"
        )
    return list(hole.vertices)


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
    pa = list(a)
    pb = list(b)
    if len(pa) != len(pb):
        return False
    n = len(pa)
    triples = list(itertools.combinations(range(n), 3))
    sig_a = [cross(pa[i], pa[j], pa[k]) for i, j, k in triples]
    signs_a = [(v > 0) - (v < 0) for v in sig_a]
    for perm in itertools.permutations(range(n)):
        for flip in (1, -1):
            ok = True
            for (i, j, k), want in zip(triples, signs_a):
                v = cross(pb[perm[i]], pb[perm[j]], pb[perm[k]])
                if ((v > 0) - (v < 0)) * flip != want:
                    ok = False
                    break
            if ok:
                return True
    return False


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
