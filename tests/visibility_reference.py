"""Brute-force visible 5-cliques for differential tests.

Visibility straight from the definition (no point of the set on the closed
segment but its ends, by the bounding-box segment test), and the 5-cliques
of that graph found by trying every 5-subset of the canonical points in
``itertools.combinations`` order.  ``holes._first_5_clique`` must return the
first of them, and ``find_visible_5_clique`` must never give up while one
exists.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from holefinder.geometry import Point, canonical

from collinear_reference import reference_on_closed_segment


def reference_visible(points: Sequence[Point], a: Point, b: Point) -> bool:
    """True iff no point of the set other than a and b lies on segment ab."""
    return all(
        q in (a, b) or not reference_on_closed_segment(q, a, b) for q in points
    )


def reference_visible_5_cliques(points: Sequence[Point]) -> Iterator[list[Point]]:
    """Every 5 pairwise visible points, in lexicographic order of subsets of
    the canonical points."""
    pts = canonical(points)
    seen = {
        (a, b): reference_visible(pts, a, b) for a, b in combinations(pts, 2)
    }
    for five in combinations(pts, 5):
        if all(seen[pair] for pair in combinations(five, 2)):
            yield list(five)
