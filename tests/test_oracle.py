import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holefinder.convexity import (
    convex_hull,
    in_closed_hull,
    k_minimal_convex_subset,
    max_convex_position_subset,
    max_convex_size,
)
from holefinder.geometry import GeometryError
from holefinder.holes import find_k_hole
from holefinder.oracle import (
    OracleBudget,
    OracleBudgetError,
    oracle_k_hole,
    oracle_k_minimality,
    oracle_max_convex_subset,
)

SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]
SQUARE_CENTER = SQUARE + [(2, 2)]


def test_oracle_k_hole_matches_search():
    assert oracle_k_hole(SQUARE, 4) is not None
    assert oracle_k_hole(SQUARE_CENTER, 4) is None
    cert = oracle_k_hole(SQUARE_CENTER, 3)
    assert cert is not None and cert.verify(SQUARE_CENTER)


def test_oracle_k_hole_budget():
    pts = [(x, y) for x in range(8) for y in range(4)]  # 32 points
    with pytest.raises(OracleBudgetError):
        oracle_k_hole(pts, 4)
    with pytest.raises(OracleBudgetError):
        oracle_k_hole(pts[:25], 6)  # tighter budget for k >= 6
    cert = oracle_k_hole(pts, 4, OracleBudget(holes_small=32))
    assert cert is not None and cert.verify(pts)


def test_oracle_k_hole_rejects_small_k():
    with pytest.raises(GeometryError):
        oracle_k_hole(SQUARE, 2)


def test_oracle_max_convex_subset():
    grid = [(x, y) for x in range(3) for y in range(3)]
    assert oracle_max_convex_subset(grid, strict=False) == 8
    assert oracle_max_convex_subset(grid, strict=True) == 6
    assert oracle_max_convex_subset([(0, 0), (1, 0)], strict=False) == 2
    # A triangle around a point: any three, but no four.
    assert oracle_max_convex_subset([(0, 0), (4, 0), (0, 4), (1, 1)], strict=False) == 3


def test_oracle_max_convex_subset_budget():
    pts = [(i, i * i) for i in range(13)]
    with pytest.raises(OracleBudgetError):
        oracle_max_convex_subset(pts, strict=False)


def test_oracle_agrees_with_fast_search_on_random_sets():
    from holefinder.generators import random_bounded_collinear

    for seed in range(8):
        pts = random_bounded_collinear(9, 4, seed=seed)
        assert len(max_convex_position_subset(pts)) == oracle_max_convex_subset(
            pts, strict=False
        )
        for k in (3, 4, 5):
            assert (find_k_hole(pts, k) is not None) == (
                oracle_k_hole(pts, k) is not None
            )


def test_oracle_k_minimality():
    out = k_minimal_convex_subset(SQUARE_CENTER, 3)
    assert oracle_k_minimality(SQUARE_CENTER, out, 3)
    # The full square is not 3-minimal: triangles through the center fit
    # strictly inside it.
    assert not oracle_k_minimality(SQUARE_CENTER, SQUARE, 3)


@st.composite
def lattice_set_and_k(draw):
    pts = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=3,
            max_size=14,
            unique=True,
        )
    )
    return pts, draw(st.integers(3, max_convex_size(pts)))


@settings(max_examples=150, deadline=None)
@given(lattice_set_and_k())
# Six points on a line: a collinear set needs no case of its own.
@example(([(i, 0) for i in range(6)], 3))
# A line of five points and an apex: four points of the line are 4-minimal,
# and so is the apex with the last three, where the peel ends.
@example(([(i, 0) for i in range(5)] + [(2, 3)], 4))
def test_k_minimal_passes_oracle_on_lattice_sets(case):
    pts, k = case
    out = k_minimal_convex_subset(pts, k)
    assert oracle_k_minimality(pts, out, k)
    # So no other point lies on its hull boundary: one there could replace a
    # corner on the same line, giving k points with a strictly smaller hull.
    hull = convex_hull(out)
    inside = [p for p in pts if p not in out and in_closed_hull(p, hull)]
    assert not [p for p in inside if p in convex_hull(out + [p]).boundary]


def test_oracle_k_minimality_validates_candidate():
    with pytest.raises(GeometryError):
        oracle_k_minimality(SQUARE_CENTER, SQUARE_CENTER, 3)  # not convex
    with pytest.raises(GeometryError):
        oracle_k_minimality(SQUARE, [(0, 0), (9, 9), (4, 0)], 3)  # foreign point
    with pytest.raises(OracleBudgetError):
        oracle_k_minimality(
            [(i, i * i) for i in range(15)], [(0, 0), (1, 1), (2, 4)], 3
        )
