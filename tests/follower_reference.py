"""The seven-target follower search that ``extractor.follower`` replaced.

It aims the segment from the apex at up to seven points of the arc xy, 1/2,
1/3, 2/3, 1/5, 2/5, 3/5 and 4/5 of the way along, and moves to the next
target whenever the segment meets a boundary vertex.  For an empty arc the
segment to the midpoint never does, so the library aims at the midpoint
only; tests check that both give the same answer.
"""

from __future__ import annotations

from typing import Optional, Sequence

from holefinder.geometry import Point, cross


def reference_crossed_arc(
    x: Point, y: Point, z: Point, boundary: Sequence[Point]
) -> Optional[tuple[Point, Point]]:
    """The boundary arc crossed by a ray from z toward the segment xy.

    All points are scaled by each target's denominator, so that the target
    is an integer point and every test is an exact orientation sign.
    """
    m = len(boundary)
    for num, den in ((1, 2), (1, 3), (2, 3), (1, 5), (2, 5), (3, 5), (4, 5)):
        t = (x[0] * (den - num) + y[0] * num, x[1] * (den - num) + y[1] * num)
        zs = (z[0] * den, z[1] * den)
        hit_vertex = False
        for j in range(m):
            a, b = boundary[j], boundary[(j + 1) % m]
            as_, bs = (a[0] * den, a[1] * den), (b[0] * den, b[1] * den)
            # The segment zt must cross line ab strictly between z and t ...
            sz, st = cross(as_, bs, zs), cross(as_, bs, t)
            if not ((sz > 0 > st) or (sz < 0 < st)):
                continue
            # ... at a point of the closed edge ab.
            sa, sb = cross(zs, t, as_), cross(zs, t, bs)
            if (sa > 0 and sb > 0) or (sa < 0 and sb < 0):
                continue
            if sa == 0 or sb == 0:
                hit_vertex = True
                break
            return a, b
        if not hit_vertex:
            return None
    return None
