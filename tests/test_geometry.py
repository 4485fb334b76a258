import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holefinder.geometry import (
    GeometryError,
    canonical,
    direction,
    in_closed_triangle,
    in_open_triangle,
    is_general_position,
    max_collinear,
    on_closed_segment,
    validate_points,
)

from collinear_reference import (
    reference_is_general_position,
    reference_max_collinear,
    reference_on_closed_segment,
)

coords = st.integers(min_value=-50, max_value=50)
points = st.tuples(coords, coords)


def test_validate_points_accepts_integer_tuples():
    assert validate_points([(0, 0), (1, 2)]) == [(0, 0), (1, 2)]


def test_validate_points_rejects_duplicates():
    with pytest.raises(GeometryError):
        validate_points([(0, 0), (1, 1), (0, 0)])


def test_validate_points_rejects_non_integers():
    with pytest.raises(GeometryError):
        validate_points([(0.5, 1)])
    with pytest.raises(GeometryError):
        validate_points([(1, 2, 3)])


def test_validate_points_rejects_bool_coordinates():
    with pytest.raises(GeometryError):
        validate_points([(True, False)])


def test_canonical_sorts_lexicographically():
    assert canonical([(2, 1), (0, 5), (0, 2)]) == [(0, 2), (0, 5), (2, 1)]


def test_on_closed_segment():
    assert on_closed_segment((1, 1), (0, 0), (2, 2))
    assert on_closed_segment((0, 0), (0, 0), (2, 2))
    assert not on_closed_segment((3, 3), (0, 0), (2, 2))
    assert not on_closed_segment((1, 0), (0, 0), (2, 2))


box = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=400)
@given(box, box, box)
@example((0, 1), (0, -2), (0, 3))  # vertical: y alone orders the line
@example((0, 4), (0, -2), (0, 3))
@example((1, 0), (-2, 0), (3, 0))  # horizontal
@example((4, 0), (3, 0), (-2, 0))
@example((-2, 0), (-2, 0), (3, 0))  # an endpoint
@example((3, 0), (-2, 0), (3, 0))
@example((1, 1), (-1, -1), (1, 1))
def test_on_closed_segment_matches_bounding_box_test(p, v, w):
    if v == w:
        with pytest.raises(GeometryError):
            on_closed_segment(p, v, w)
        return
    assert on_closed_segment(p, v, w) == reference_on_closed_segment(p, v, w)


def test_in_closed_triangle_interior_boundary_outside():
    a, b, c = (0, 0), (4, 0), (0, 4)
    assert in_closed_triangle((1, 1), a, b, c)
    assert in_closed_triangle((2, 0), a, b, c)
    assert in_closed_triangle(a, a, b, c)
    assert not in_closed_triangle((3, 3), a, b, c)


def test_degenerate_triangle_is_covering_segment():
    assert in_closed_triangle((1, 0), (0, 0), (2, 0), (3, 0))
    assert not in_closed_triangle((4, 0), (0, 0), (2, 0), (3, 0))
    assert not in_closed_triangle((1, 1), (0, 0), (2, 0), (3, 0))


def test_open_triangle_excludes_boundary_and_degenerate_is_empty():
    a, b, c = (0, 0), (4, 0), (0, 4)
    assert in_open_triangle((1, 1), a, b, c)
    assert not in_open_triangle((2, 0), a, b, c)
    assert not in_open_triangle(a, a, b, c)
    assert not in_open_triangle((1, 0), (0, 0), (2, 0), (3, 0))


def test_max_collinear_counts_and_witness():
    count, witness = max_collinear([(0, 0), (1, 1), (2, 2), (5, 0)])
    assert count == 3
    assert witness == [(0, 0), (1, 1), (2, 2)]


def test_max_collinear_grid():
    pts = [(x, y) for x in range(4) for y in range(4)]
    count, _ = max_collinear(pts)
    assert count == 4


def test_max_collinear_two_points():
    assert max_collinear([(0, 0), (3, 1)]) == (2, [(0, 0), (3, 1)])


def test_is_general_position():
    assert is_general_position([(0, 0), (1, 0), (0, 1), (3, 5)])
    assert not is_general_position([(0, 0), (1, 1), (2, 2)])
    assert not is_general_position([(0, 0), (1, 5), (0, 0)])  # a repeat
    assert is_general_position([(0, 0), (0, 0)])  # no three points
    assert is_general_position([(7, 7)])
    assert is_general_position([])


# Dense lattice sets with negative coordinates: many lines, in every
# direction, through points on both sides of one another.
LATTICE_SETS = st.integers(min_value=1, max_value=6).flatmap(
    lambda box: st.lists(
        st.tuples(st.integers(-box, box), st.integers(-box, box)),
        max_size=16,
        unique=True,
    )
)


def test_direction_is_reduced_and_sign_fixed():
    assert direction((1, 1), (5, 3)) == (2, 1)
    assert direction((5, 3), (1, 1)) == (2, 1)
    assert direction((0, 0), (0, -4)) == (0, 1)
    assert direction((0, 0), (-3, 0)) == (1, 0)
    assert direction((2, -1), (-1, 5)) == (1, -2)
    with pytest.raises(GeometryError):
        direction((3, 3), (3, 3))


@settings(max_examples=300, deadline=None)
@given(LATTICE_SETS)
@example([(1, 1), (0, 0), (2, 2)])  # the first point between the others
@example([(0, -1), (0, 1), (0, 0), (-2, 0), (2, 0)])
@example([(0, 0)])
@example([])
def test_collinearity_matches_reference(pts):
    if pts:
        assert max_collinear(pts) == reference_max_collinear(pts)
    assert is_general_position(pts) == reference_is_general_position(pts)


@settings(max_examples=200, deadline=None)
@given(LATTICE_SETS.filter(bool), st.data())
def test_is_general_position_repeated_point_matches_reference(pts, data):
    repeated = data.draw(st.permutations(pts + [data.draw(st.sampled_from(pts))]))
    for sample in (repeated, repeated[:2]):
        assert is_general_position(sample) == reference_is_general_position(sample)
