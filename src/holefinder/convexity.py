"""Convex hulls, convex layers, and convex-position subset machinery.

"Convex position" means every point lies on the boundary of the set's convex
hull (collinear boundary points allowed); "strictly convex position" means
every point is a corner.  The distinction drives everything in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .geometry import (
    GeometryError,
    Point,
    _segment_interiors,
    angle_order,
    canonical,
    cross,
    in_closed_triangle,
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


def convex_hull(points: Sequence[Point]) -> HullBoundary:
    """Hull boundary of the points, clockwise, collinear boundary points kept.

    One monotone chain (Andrew 1979): over the sorted points, the lower and
    upper chains pop only on a right turn, so the points on each edge stay
    on them in order.  The counterclockwise ring they make is reversed to
    run clockwise from the least point; the corners are its points with a
    nonzero turn.  Without three corners the points are collinear.
    """
    pts = validate_points(points)
    if not pts:
        raise GeometryError("convex_hull needs at least one point")
    if len(pts) == 1:
        return HullBoundary((pts[0],), (pts[0],))
    pts = canonical(pts)
    ccw: list[Point] = []
    for run in (pts, pts[::-1]):  # the lower chain, then the upper one
        chain: list[Point] = []
        for p in run:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) < 0:
                chain.pop()
            chain.append(p)
        ccw += chain[:-1]
    boundary = ccw[:1] + ccw[:0:-1]
    n = len(boundary)
    corners = tuple(
        b for i, b in enumerate(boundary)
        if cross(boundary[i - 1], b, boundary[(i + 1) % n]) != 0
    )
    if len(corners) <= 2:
        # All points collinear: boundary is every point along the segment.
        return HullBoundary(tuple(pts), (pts[0], pts[-1]))
    return HullBoundary(tuple(boundary), corners)


def is_convex_position(points: Sequence[Point]) -> bool:
    """True iff every point lies on the boundary of the convex hull."""
    pts = validate_points(points)
    return len(convex_hull(pts).boundary) == len(pts)


def is_strictly_convex_position(points: Sequence[Point]) -> bool:
    """True iff every point is a corner of the convex hull."""
    pts = validate_points(points)
    return len(convex_hull(pts).corners) == len(pts)


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
    points: Sequence[Point], k: int
) -> Optional[list[Point]]:
    """A k-point subset in convex position, or None.

    None is proved by the exact size table of ``max_convex_size``, with no
    walk; a subset that exists is the first one the exhaustive walk meets.
    """
    pts = canonical(validate_points(points))
    if k > 2 and max_convex_size(pts) < k:
        return None
    found = _convex_walk(pts, k)
    return found if len(found) >= k else None


def max_convex_position_subset(
    points: Sequence[Point], cap: Optional[int] = None
) -> list[Point]:
    """Maximum-cardinality subset in (non-strict) convex position.

    With ``cap`` the search stops at the first subset of ``cap`` points, so
    the answer is either ``cap`` points or a maximum subset.
    """
    pts = canonical(validate_points(points))
    return _convex_walk(pts, len(pts) + 1 if cap is None else cap)


def _convex_walk(pts: list[Point], target: int, empty: bool = False) -> list[Point]:
    """The first subset of the canonical ``pts`` in convex position met with
    ``target`` points, else the largest one met; canonical order.  With
    ``empty``, the first ``target``-hole met, else ``pts[:2]``.

    Up to two points, then (without ``empty``) the longest collinear run,
    come first.  Then, for each base point in turn, chains of strict corners
    are grown depth first over the later points in angle order around the
    base.  A chain that turns convexly back to the base closes a polygon,
    whose subset is its corners, followed (without ``empty``) by the points
    of ``pts`` inside its edges, edge by edge, as ``_segment_interiors``
    lists them.  Every convex-position subset of three or more
    non-collinear points lies on such a polygon, so an answer shorter than
    ``target`` is a maximum.  The longest run is the first longest entry
    of the same index: anchors ascend, each anchor's lines come in the
    order of their second point and each line's entries by growing length,
    so it is the witness of ``max_collinear``.

    With ``empty`` (for holes) the subset is the corners alone, a chain
    stops at ``target`` corners and enters ``p`` only when no other point of
    ``pts`` lies inside the segment (base, p), for the first edge, or in the
    closed fan triangle (base, chain[-1], p), for a later one.  The closed
    fan triangles of a polygon from its base cover the closed polygon, so
    the polygons met are exactly the holes whose least vertex is the base:
    each hole's fan from its least vertex has empty triangles, and no
    search is lost.  Both tests read only the fan.  Every candidate lies
    lexicographically above the base, so a point collinear with base and p
    lies on p's ray, and the fan orders each ray by distance: the points
    inside segment (base, p) are the same-ray candidates just before p.  A
    fan-triangle test reads only the candidates in its angular wedge, those
    after chain[-1] and before p in the fan.  The base is the
    lexicographically least point of the closed triangle, so every other
    point of it is a candidate of this base, at an angle from chain[-1]'s
    to p's and, on p's ray, no farther than p: it comes between chain[-1]
    and p in the fan, or on chain[-1]'s ray before chain[-1].  The latter
    lie on segment (base, chain[-1]), which the previous fan triangle or
    the first-edge test already cleared; that holds as well for the
    degenerate triangle with p on chain[-1]'s ray.  Every chain of three
    or more corners closes: its candidates come in fan order within a
    half-turn above the base, and two on one ray never follow each other
    (for x the base or a candidate before c, and p = base + t(c - base)
    with t > 1, cross(x, c, p) = (1 - t) cross(base, x, c) <= 0 fails the
    turn test), so the turns at the base and at p, cross(chain[-2], p,
    base) = cross(base, chain[-2], p), are left turns.
    """
    if target < 1:
        raise GeometryError("subset size must be positive")
    if target <= 2 or len(pts) <= 2:
        return pts[:target]
    best = pts[:2]
    if not empty:
        inner = _segment_interiors(pts)
        (a, b), run = max(inner.items(), key=lambda e: len(e[1]))
        if run:
            best = [a, *run, b]
        if len(best) >= target:
            return best[:target]
    # A hole search reads only chains of target corners; others close at 3.
    closing = target if empty else 3
    for base, cand in _fans(pts):
        m = len(cand)
        chain = [base]
        # nxt[d]: the next candidate to try after chain[d], in preorder.
        # While chain[d + 1] is on the chain, nxt[d] - 1 is its index.
        nxt = [0]
        while nxt:
            i = nxt[-1]
            if i == m or (empty and len(chain) == target):
                nxt.pop()
                chain.pop()
                continue
            nxt[-1] = i + 1
            p = cand[i]
            if len(chain) >= 2:
                if cross(chain[-2], chain[-1], p) <= 0:
                    continue
                # The wedge: the candidates after chain[-1] and before p.
                if empty and any(
                    in_closed_triangle(q, base, chain[-1], p)
                    for q in cand[nxt[-2] : i]
                ):
                    continue
            elif empty and i and cross(base, cand[i - 1], p) == 0:
                continue
            chain.append(p)
            nxt.append(i + 1)
            if len(chain) < closing:
                continue
            found = list(chain)
            if not empty:
                for a, b in zip(chain, chain[1:] + [base]):
                    found.extend(inner[(a, b) if a < b else (b, a)])
            if len(found) >= target:
                # Any subset of a convex-position set stays in convex position.
                return canonical(found[:target])
            if len(found) > len(best):
                best = found
    return canonical(best)


def _fans(pts: list[Point]) -> Iterator[tuple[Point, list[Point]]]:
    """Each point of the canonical ``pts`` as a base, with the later points in
    angle order around it: the candidates of every chain from that base."""
    for idx, base in enumerate(pts):
        yield base, angle_order(base, pts[idx + 1 :])


def max_convex_size(points: Sequence[Point], strict: bool = False) -> int:
    """The size of the largest subset in (strictly) convex position, found
    without walking: the table of ``_size_table`` over every point."""
    pts = canonical(validate_points(points))
    return _size_table(pts, strict)(pts)


def _size_table(pts: list[Point], strict: bool = False) -> Callable[..., int]:
    """Prepare the size table of the canonical ``pts`` once; the function it
    returns runs the table over the points ``live`` of ``pts`` and answers
    the size of their largest subset in (strictly) convex position, or,
    once that size reaches ``stop``, a size of at least ``stop``.

    The preparation holds the edge counts, ``inner[s][t]`` (how many points
    lie strictly inside segment pts[s] pts[t]; all zeros when strict), from
    one ``_segment_interiors``, the runs of points on a line, longest first,
    and each base's fan as indices, from one ``_fans`` pass.  A run over
    ``live`` reads the fans without the points that are not live: a
    sub-sequence of an angle order is still in angle order.  The edge
    counts hold for ``live`` when no point left out lies inside a segment
    between live points, as for a point outside the hull of the live ones.

    The table over each base's fan (Chvátal and Klincsek, 1980) replaces the
    walk's chains.  A chain base -> ... -> cand[j] counts its corners and,
    in the non-strict case, the points inside its edges; ``first[j]``
    counts base -> cand[j].  ``ranked[j]`` holds every longer chain into
    cand[j] as (count, x, y), (x, y) the point before cand[j], longest
    first.  A step from b = cand[j] to c = cand[i] extends the first entry
    that turns left at b towards c, else the edge from the base.  With u =
    c - b, cross(h, b, c) = b×u - h×u, so every turn test, the base's too,
    compares h×u with b×u, computed once per step.  As in the walk, the
    candidates of a chain come in angle order and a chain enters cand[i]
    only on a strict left turn, so every chain closes: ``cross`` is cyclic,
    so the turn back to the base, cross(b, c, base), is the step's
    cross(base, b, c) > 0.  Closing adds first[i] - 2 to the longest step
    into cand[i] over every j, kept in ``ranked[i]`` or not.  Up to two
    points, and (non-strict) the longest live run, count as well.  The
    points inside an edge come from ``_segment_interiors`` in O(n²)
    direction work; the table takes O(n⁴).
    """
    n = len(pts)
    index = {p: s for s, p in enumerate(pts)}
    inner = [[0] * n for _ in range(n)]
    runs: list[tuple[int, int, int]] = []
    if not strict:
        for (a, b), q in _segment_interiors(pts).items():
            s, t = index[a], index[b]
            inner[s][t] = inner[t][s] = len(q)
            if q:
                runs.append((len(q), s, t))
        runs.sort(reverse=True)
    fans = [[index[c] for c in cand] for _, cand in _fans(pts)]

    def size(live: Iterable[Point], stop: Optional[int] = None) -> int:
        alive = [False] * n
        for p in live:
            alive[index[p]] = True
        best = min(sum(alive), 2)
        for q, s, t in runs:
            if alive[s] and alive[t]:
                best = max(best, 2 + q)
                break
        stop = n + 1 if stop is None else stop
        if best >= stop:
            return best
        for s, fan in enumerate(fans):
            if not alive[s]:
                continue
            ox, oy = pts[s]
            at = [t for t in fan if alive[t]]
            cand = [pts[t] for t in at]
            first = [2 + inner[s][t] for t in at]
            ranked: list[list[tuple[int, int, int]]] = []
            for (cx, cy), closing, t in zip(cand, first, at):
                edges = inner[t]
                row, longest = [], 0
                # ranked holds the rows before c's, so zip stops at c.
                for (bx, by), most, chains, r in zip(cand, first, ranked, at):
                    ux, uy = cx - bx, cy - by
                    bu = bx * uy - by * ux
                    # b and c at one angle from the base: no chain turns
                    # left at b towards c, from the base or from an earlier
                    # angle.
                    if ox * uy - oy * ux >= bu:
                        continue
                    for count, x, y in chains:
                        if x * uy - y * ux < bu:
                            most = count
                            break
                    most += 1 + edges[r]
                    if most > closing:
                        row.append((most, bx, by))
                    if most > longest:
                        longest = most
                row.sort(reverse=True)
                ranked.append(row)
                best = max(best, longest + closing - 2)
                if best >= stop:
                    return best
        return best

    return size


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
    """Upper bound on the number of points forcing k in convex position.

    Exact up to k = 4, where comb(2k - 5, k - 2) + 1 falls short: any three
    points are in convex position and any five hold four (Klein), while two
    points, or a triangle around a point, do not.
    """
    if k < 3:
        raise GeometryError("es_bound needs k >= 3")
    if k <= 4:
        return 2 ** (k - 2) + 1
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
# k-minimal convex subsets and layers


def k_minimal_convex_subset(points: Sequence[Point], k: int) -> list[Point]:
    """A k-point convex-position subset whose hull strictly contains the hull
    of no other >= k point convex-position subset.

    Peels hull corners: a corner c of what is left goes when the rest still
    holds k points in convex position, and the peel starts again on the
    rest.  When no corner can go, the answer is the hull boundary of what
    is left; a table has proved that the rest holds k points in convex
    position.  A corner that cannot go never can, since the size only falls
    as points go, so ``needed`` keeps it: each point is tested at most once
    with each result, at most 2n + 1 tables in all, then one hull.

    - A dropped point was a corner, so an extreme point, of a superset of
      what is left; it lies outside the hull of what is left.  So the
      points inside that hull are exactly the points left.
    - Every corner of what is left is needed, so every k-subset in convex
      position holds all the corners.  Its hull is then the hull of what
      is left, and each of its points lies on that hull's boundary.
    - The boundary is in convex position.  With k + 1 or more points it
      would be so without any one corner, which is then not needed.  So it
      has exactly k points, and it is the only k-subset in convex position
      of what is left: any search, the walk included, finds it.
    - A >= k point subset in convex position with a strictly smaller hull
      would miss some corner c, so it would lie in the rest without c,
      which holds no k points in convex position.
    - No other input point lies on the boundary: one there lies inside the
      hull of what is left, so it is a point left, and so in the answer.

    Every test reads one size table, prepared once on the input
    (``_size_table``), over the points left without c, and stops at k.
    That is exact: c and every point dropped before it lie outside the hull
    of the rest, so inside no segment between points of the rest, and the
    input's edge counts hold; and the rest's fans are the input's fans
    without the points gone, since a sub-sequence of an angle order is
    still in angle order.  Collinear sets (two corners) and k <= 2 need no
    special case: the same argument holds, and the boundary is every point
    left.
    """
    if k < 1:
        raise GeometryError("subset size must be positive")
    pts = canonical(validate_points(points))
    sizes = _size_table(pts)
    if sizes(pts, k) < k:
        raise GeometryError(f"no {k} points in convex position")
    rest = pts
    needed: set[Point] = set()
    while True:
        for c in convex_hull(rest).corners:
            if c in needed:
                continue
            smaller = [p for p in rest if p != c]
            if sizes(smaller, k) >= k:
                rest = smaller
                break
            needed.add(c)
        else:
            return canonical(convex_hull(rest).boundary)


@dataclass(frozen=True)
class LayerDecomposition:
    """Convex layers grown inward from a k-minimal outer subset.

    Each layer but the last is a clockwise hull boundary, as ``peel_layers``
    gives it; the last is the residue, in canonical order, whose least point
    is the apex.
    """

    layers: tuple[tuple[Point, ...], ...]
    apex: Optional[Point]

    def sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    @classmethod
    def build(
        cls, points: Sequence[Point], outer: Sequence[Point], ell: int
    ) -> "LayerDecomposition":
        """``outer``, then ell - 2 peels of the points inside its hull (empty
        once the points run out), then the residue layer."""
        layers, residue = peel_layers(points, outer, ell - 1)
        layers += [()] * (ell - 1 - len(layers))
        residue = canonical(residue)
        apex = residue[0] if residue else None
        return cls(tuple(layers) + (tuple(residue),), apex)


def peel_layers(
    points: Sequence[Point], outer: Sequence[Point], depth: int
) -> tuple[list[tuple[Point, ...]], list[Point]]:
    """Convex layers from ``outer`` inward, and the points left inside them.

    Each layer is a hull boundary, clockwise from its least point, with the
    points inside its edges kept: first that of ``outer``, which is in
    convex position, so all of it; then that of the points of ``points``
    inside conv(outer) that no earlier layer took.  Peeling stops after
    ``depth`` layers or when no point is left.
    """
    hull = convex_hull(outer)
    layers = [hull.boundary]
    taken = set(outer)
    remaining = [p for p in points if p not in taken and in_closed_hull(p, hull)]
    while remaining and len(layers) < depth:
        layers.append(convex_hull(remaining).boundary)
        taken = set(layers[-1])
        remaining = [p for p in remaining if p not in taken]
    return layers, remaining
