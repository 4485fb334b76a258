import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holefinder.convexity import (
    is_convex_position,
    max_convex_size,
    q_formula,
)
from holefinder.generators import (
    _deep_above,
    collinear_plus_one,
    eppstein_family,
    every_second_side,
    grid,
    horton,
    random_bounded_collinear,
    random_general_position,
)
from holefinder.geometry import GeometryError, is_general_position, max_collinear
from holefinder.holes import classify_no_four_hole, find_k_hole
from holefinder.oracle import OracleBudget, oracle_max_convex_subset

from collinear_reference import (
    reference_deep_above,
    reference_horton,
    reference_random_bounded_collinear,
)
from convex_reference import random_convex_position


def test_every_second_side_sizes():
    assert len(every_second_side(5, 3)) == 4  # q(5,3) - 1
    assert len(every_second_side(9, 6)) == 20  # q(9,6) - 1
    assert len(every_second_side(8, 6)) == 16  # q(8,6) - 1


@pytest.mark.parametrize("k,ell", [(5, 3), (6, 4), (7, 4), (8, 6), (9, 6)])
def test_every_second_side_is_extremal(k, ell):
    pts = every_second_side(k, ell)
    assert len(pts) == q_formula(k, ell) - 1
    assert is_convex_position(pts)
    assert max_collinear(pts)[0] == ell - 1  # ell collinear never occurs
    # No k points in strictly convex position either.
    assert max_convex_size(pts, strict=True) == k - 1


def test_every_second_side_small_k():
    assert every_second_side(3, 5) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert len(every_second_side(4, 5)) == 5  # q(4,5) - 1
    with pytest.raises(GeometryError):
        every_second_side(2, 3)
    with pytest.raises(GeometryError):
        every_second_side(5, 2)


def test_grid():
    pts = grid(3)
    assert len(pts) == 9
    assert max_collinear(pts)[0] == 3
    assert find_k_hole(pts, 5) is None
    with pytest.raises(GeometryError):
        grid(1)


def test_horton_structure():
    pts = horton(16)
    assert len(pts) == 16
    assert is_general_position(pts)
    with pytest.raises(GeometryError):
        horton(12)


def test_horton_small_set_avoids_7_holes():
    pts = horton(8)
    assert find_k_hole(pts, 7) is None
    assert find_k_hole(pts, 3) is not None


def test_collinear_plus_one():
    pts = collinear_plus_one(5)
    assert len(pts) == 5
    assert max_collinear(pts)[0] == 4


@pytest.mark.parametrize(
    "tag,expected",
    [
        ("a", "all-but-one-collinear"),
        ("b", "all-but-one-collinear"),
        ("c", "two-apex-line"),
        ("d", "two-apex-line"),
        ("e", "six-point-exceptional"),
    ],
)
def test_eppstein_family_classification(tag, expected):
    pts = eppstein_family(tag)
    assert find_k_hole(pts, 4) is None
    assert classify_no_four_hole(pts).tag == expected


def test_eppstein_family_rejects_unknown_tag():
    with pytest.raises(GeometryError):
        eppstein_family("z")


def test_random_bounded_collinear_is_deterministic_and_bounded():
    a = random_bounded_collinear(12, 4, seed=7)
    b = random_bounded_collinear(12, 4, seed=7)
    assert a == b
    assert len(a) == 12
    assert max_collinear(a)[0] < 4
    assert random_bounded_collinear(12, 4, seed=8) != a


def test_random_general_position():
    pts = random_general_position(10, seed=3)
    assert len(pts) == 10
    assert is_general_position(pts)


@pytest.mark.parametrize("n", [0, -1])
def test_random_general_position_needs_a_point(n):
    with pytest.raises(GeometryError, match=r"^random_general_position needs n >= 1$"):
        random_general_position(n, seed=0)


def test_random_convex_position():
    pts = random_convex_position(9, 4, seed=5)
    assert len(pts) == 9
    assert is_convex_position(pts)
    assert max_collinear(pts)[0] < 4


def test_extremal_set_cross_checked_against_oracle():
    pts = every_second_side(5, 3)
    budget = OracleBudget(convex_subsets=len(pts))
    assert oracle_max_convex_subset(pts, strict=True, budget=budget) == 4


def test_random_bounded_collinear_matches_reference():
    for n in (1, 2, 3, 7, 12, 20, 28):
        for ell in (3, 4, 5):
            for seed in range(4):
                assert random_bounded_collinear(n, ell, seed) == (
                    reference_random_bounded_collinear(n, ell, seed)
                )


@pytest.mark.parametrize("log_n", range(9))
def test_horton_matches_reference(log_n):
    assert horton(2**log_n) == sorted(reference_horton(2**log_n))


# Halves of a Horton level: distinct x, any y.
HALVES = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    min_size=1,
    max_size=9,
    unique_by=lambda p: p[0],
)


@settings(max_examples=200, deadline=None)
@given(HALVES)
def test_deep_above_matches_reference(half):
    """Every lift ``d`` around the one where the halves separate."""
    lower = [(2 * x, y) for x, y in half]
    for d in range(-4, 70):
        upper = [(2 * x + 1, y + d) for x, y in half]
        assert _deep_above(lower, upper) == reference_deep_above(lower, upper)
        assert _deep_above(upper, lower) == reference_deep_above(upper, lower)
